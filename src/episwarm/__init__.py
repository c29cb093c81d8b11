"""Evolutionary swarms of Bayesian agents on truth-scored tasks.

Deterministic, seedable simulation engine with rating-driven
reproduction/extinction dynamics and a tamper-evident hash-chained audit
ledger of every agent's belief trajectory.
"""

from .spaces import (Belief, HypothesisSpace, OutcomeSpace, entropy, kl_divergence,
                     normalize, tv_distance)
from .likelihood import (Bernoulli, CategoricalTable, DiscretizedGaussian, Observation,
                         likelihood, predictive_distribution)
from .inference import (InferenceConfig, confidence_weight, entropy_regularized_update,
                        information_gain, posterior_update, sequential_update,
                        strength_update)
from .competition import (MarginMatrix, ScoreReport, aggregate_utility, fitness,
                          log_score, oracle_loss, zero_one_table)
from .rating import (RatingConfig, learning_rate, rating_step, replication_attenuation,
                     reward_gradient)
from .evolution import (EvolutionConfig, Population, evolve, extinction_sweep, mutate_prior,
                        saturation_cap)
from .ledger import (LedgerChain, LedgerColumns, chain_digests, commit, commit_rows,
                     encode_quantized, quantize_rows, verify_chain, verify_artifacts)
from .engine import MetricsSnapshot, RunResult, Simulation, run, simulate, sweep
from .config import ScenarioConfig, from_dict, load_config
from .errors import EpiswarmError, InvariantViolation

__version__ = "0.1.0"
