"""Likelihood models mapping (observation, hypothesis) pairs to positive plausibilities.

Three task models are shipped:

* ``categorical``-table: an explicit K x Y row-stochastic matrix P(y | h).
  This is the default model; it permits exact brute-force oracles.
* ``bernoulli``: per-hypothesis success probability p(h), binary data.
* ``discretized-gaussian``: per-hypothesis mean, shared scale, fixed bin
  edges; the likelihood of a bin is its Gaussian CDF mass.

Probability parameters are clipped into [CLIP_EPS, 1 - CLIP_EPS] at model
construction so every evaluable likelihood is strictly positive and the log
score stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import IncompatibleObservation, ShapeMismatch
from .spaces import Belief, HypothesisSpace, OutcomeSpace, normalize_vector

CLIP_EPS = 1e-6
# Floor on computed Gaussian bin masses: keeps far-tail bins strictly positive
# when the CDF difference underflows to zero in double precision.
MASS_FLOOR = 1e-300

CATEGORICAL = "categorical"
BERNOULLI = "bernoulli"
DISCRETIZED_GAUSSIAN = "discretized-gaussian"


@dataclass(frozen=True)
class Observation:
    """One task datum with its exogenous ground-truth label.

    ``datum`` is an outcome index for the categorical and bernoulli models and
    a real payload for the discretized-gaussian model. ``truth_label`` indexes
    the outcome space; ``step`` is the emission time.
    """

    datum: Union[int, float]
    truth_label: int
    step: int = 0


def _clip(p: np.ndarray) -> np.ndarray:
    return np.clip(p, CLIP_EPS, 1.0 - CLIP_EPS)


class CategoricalTable:
    """Explicit row-stochastic outcome table P(y | h)."""

    def __init__(self, space: HypothesisSpace, outcomes: OutcomeSpace, rows):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (space.size, outcomes.size):
            raise ShapeMismatch(
                f"table shape {rows.shape} does not match ({space.size}, {outcomes.size})"
            )
        if np.any(rows < 0) or not np.all(np.isfinite(rows)):
            raise ShapeMismatch("table entries must be finite and nonnegative")
        # Clip away zeros, then re-normalize each row.
        rows = _clip(rows)
        rows = rows / rows.sum(axis=1, keepdims=True)
        rows.setflags(write=False)
        self.space = space
        self.outcomes = outcomes
        self.rows = rows

    @classmethod
    def peaked(cls, space: HypothesisSpace, outcomes: OutcomeSpace, peak: float):
        """Square table with ``peak`` on the matching outcome, rest spread evenly."""
        if space.size != outcomes.size:
            raise ShapeMismatch("peaked table requires as many outcomes as hypotheses")
        if not 0 < peak < 1:
            raise ShapeMismatch("peak must lie in (0, 1)")
        n = space.size
        off = (1.0 - peak) / (n - 1)
        rows = np.full((n, n), off)
        np.fill_diagonal(rows, peak)
        return cls(space, outcomes, rows)

    def validate_observation(self, obs: Observation) -> int:
        d = obs.datum
        if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
            raise IncompatibleObservation(f"categorical model expects an outcome index, got {d!r}")
        if not 0 <= d < self.outcomes.size:
            raise IncompatibleObservation(f"outcome index {d} outside [0, {self.outcomes.size})")
        return int(d)

    def likelihood_vector(self, obs: Observation) -> np.ndarray:
        return self.rows[:, self.validate_observation(obs)]

    def outcome_matrix(self) -> np.ndarray:
        """The P(y | h) rows of the prior predictive mixture; no observation enters."""
        return self.rows

    def emit(self, h: int, rng: np.random.Generator, t: int) -> Observation:
        """One outcome drawn from P(. | h), as both datum and truth label."""
        y = int(rng.choice(self.outcomes.size, p=self.rows[h]))
        return Observation(datum=y, truth_label=y, step=t)


class Bernoulli:
    """Per-hypothesis success probability; data in {0, 1}."""

    def __init__(self, space: HypothesisSpace, probs: Sequence[float]):
        p = np.asarray(probs, dtype=np.float64)
        if p.shape != (space.size,):
            raise ShapeMismatch(f"need one probability per hypothesis ({space.size})")
        if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
            raise ShapeMismatch("bernoulli probabilities must lie in [0, 1]")
        p = _clip(p)
        q = 1.0 - p
        rows = np.column_stack([q, p])
        for table in (p, q, rows):
            table.setflags(write=False)
        self.space = space
        self.outcomes = OutcomeSpace.indexed(2)
        self.probs = p
        self.columns = (q, p)  # likelihood vector of datum 0 and of datum 1
        self.rows = rows       # P(y | h)

    def validate_observation(self, obs: Observation) -> int:
        d = obs.datum
        if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d not in (0, 1):
            raise IncompatibleObservation(f"bernoulli model expects datum in {{0, 1}}, got {d!r}")
        return int(d)

    def likelihood_vector(self, obs: Observation) -> np.ndarray:
        return self.columns[self.validate_observation(obs)]

    def outcome_matrix(self) -> np.ndarray:
        return self.rows

    def emit(self, h: int, rng: np.random.Generator, t: int) -> Observation:
        """One outcome drawn from Bernoulli(p(h)), as both datum and truth label."""
        y = int(rng.choice(2, p=self.rows[h]))
        return Observation(datum=y, truth_label=y, step=t)


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class DiscretizedGaussian:
    """Gaussian bins: likelihood of a bin is its CDF mass under N(mu_h, scale^2)."""

    def __init__(self, space: HypothesisSpace, means: Sequence[float], scale: float,
                 bin_edges: Sequence[float]):
        mu = np.asarray(means, dtype=np.float64)
        edges = np.asarray(bin_edges, dtype=np.float64)
        if mu.shape != (space.size,) or not np.all(np.isfinite(mu)):
            raise ShapeMismatch(f"need one finite mean per hypothesis ({space.size})")
        if scale <= 0 or not math.isfinite(scale):
            raise ShapeMismatch("scale must be a positive finite real")
        if edges.ndim != 1 or len(edges) < 3 or not np.all(np.diff(edges) > 0):
            raise ShapeMismatch("bin_edges must be strictly increasing with >= 3 values")
        self.space = space
        self.outcomes = OutcomeSpace.indexed(len(edges) - 1)
        self.means = mu
        self.scale = float(scale)
        self.edges = edges
        # bin_mass[h, y]: CDF mass of bin y under hypothesis h.
        z = (edges[None, :] - mu[:, None]) / self.scale
        cdf = np.vectorize(_phi)(z)
        mass = np.maximum(np.diff(cdf, axis=1), MASS_FLOOR)
        # Normalized per row so the predictive mixture is a distribution over bins.
        rows = mass / mass.sum(axis=1, keepdims=True)
        mass.setflags(write=False)
        rows.setflags(write=False)
        self.bin_mass = mass
        self.rows = rows

    def bin_of(self, x: float) -> int:
        """Bin index of a real payload, clamping into the declared range."""
        x = min(max(float(x), self.edges[0]), np.nextafter(self.edges[-1], -np.inf))
        return int(np.searchsorted(self.edges, x, side="right") - 1)

    def validate_observation(self, obs: Observation) -> int:
        d = obs.datum
        if isinstance(d, bool) or not isinstance(d, (int, float, np.integer, np.floating)):
            raise IncompatibleObservation(f"gaussian model expects a real payload, got {d!r}")
        if not math.isfinite(float(d)):
            raise IncompatibleObservation("gaussian payload must be finite")
        return self.bin_of(float(d))

    def likelihood_vector(self, obs: Observation) -> np.ndarray:
        return self.bin_mass[:, self.validate_observation(obs)]

    def outcome_matrix(self) -> np.ndarray:
        return self.rows

    def emit(self, h: int, rng: np.random.Generator, t: int) -> Observation:
        """A real payload drawn from N(mu_h, scale^2), labelled with its bin."""
        x = float(rng.normal(self.means[h], self.scale))
        return Observation(datum=x, truth_label=self.bin_of(x), step=t)


LikelihoodModel = Union[CategoricalTable, Bernoulli, DiscretizedGaussian]


def likelihood(model: LikelihoodModel, obs: Observation, h: int) -> float:
    """Plausibility of ``obs`` under hypothesis index ``h``; in (0, 1]."""
    if not 0 <= h < model.space.size:
        raise ShapeMismatch(f"hypothesis index {h} outside [0, {model.space.size})")
    return float(model.likelihood_vector(obs)[h])


def predictive_distribution(model: LikelihoodModel, beliefs) -> np.ndarray:
    """The prior predictive p(y) = sum_h b(h) P(y | h), normalized over the
    outcome space; independent of the observation it will score.

    ``beliefs`` is one Belief, giving one distribution, or an (N, K) matrix of
    belief rows, giving one distribution per row.
    """
    rows = beliefs.probs if isinstance(beliefs, Belief) else np.asarray(beliefs)
    if rows.shape[-1] != model.space.size:
        raise ShapeMismatch("belief and model are defined on different hypothesis spaces")
    return normalize_vector(rows @ model.outcome_matrix())
