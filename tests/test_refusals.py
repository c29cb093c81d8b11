"""Refusals of the package's building blocks, called directly: one row each,
the call, the exception it raises and the start of its message."""

import math

import numpy as np
import pytest

from conftest import small_config
from episwarm.competition import MarginMatrix, fitness, log_score
from episwarm.engine import sweep
from episwarm.errors import NonFiniteWeight, ShapeMismatch, SupportViolation
from episwarm.evolution import mutate_prior
from episwarm.inference import posterior_rows
from episwarm.likelihood import (Bernoulli, CategoricalTable, DiscretizedGaussian,
                                 predictive_distribution)
from episwarm.rating import RatingConfig, learning_rate
from episwarm.spaces import Belief, HypothesisSpace, OutcomeSpace, tv_distance, tv_distance_vectors

SP2, SP3 = HypothesisSpace.indexed(2), HypothesisSpace.indexed(3)
HALF = np.array([[0.5, 0.5]])

REFUSALS = {
    "margin_matrix_shape": (lambda: MarginMatrix(2, np.zeros((2, 3))), ShapeMismatch,
                            r"margin matrix shape \(2, 3\) != \(2, 2\)"),
    "log_score_label": (lambda: log_score(HALF, 2), ShapeMismatch,
                        r"truth label 2 outside \[0, 2\)"),
    "fitness_negative_loss": (lambda: fitness([0.5, -0.1]), ShapeMismatch,
                              "loss must be finite and >= 0"),
    "posterior_negative_beta": (lambda: posterior_rows(HALF, np.array([0.2, 0.8]), -0.1),
                                ShapeMismatch, "beta must be >= 0"),
    "posterior_tilt_on_zero_prior": (
        lambda: posterior_rows(np.array([[1.0, 0.0]]), np.array([0.2, 0.8]), 1.5),
        SupportViolation, "entropy tilt with beta > 1 requires full support"),
    "learning_rate_negative_time": (lambda: learning_rate(-1, RatingConfig()), ShapeMismatch,
                                    "time index must be >= 0"),
    "constant_schedule_zero_alpha": (lambda: RatingConfig(schedule="constant", alpha=0.0),
                                     ShapeMismatch, r"constant schedule needs alpha in \(0, 1\]"),
    "table_negative_entry": (
        lambda: CategoricalTable(SP2, OutcomeSpace.indexed(2), [[1.1, -0.1], [0.5, 0.5]]),
        ShapeMismatch, "table entries must be finite and nonnegative"),
    "bernoulli_p_above_one": (lambda: Bernoulli(SP2, [0.5, 1.5]), ShapeMismatch,
                              r"bernoulli probabilities must lie in \[0, 1\]"),
    "gaussian_two_edges": (lambda: DiscretizedGaussian(SP2, [0.0, 1.0], 1.0, [0.0, 1.0]),
                           ShapeMismatch, "bin_edges must be strictly increasing with >= 3"),
    "predictive_space_mismatch": (
        lambda: predictive_distribution(Bernoulli(SP2, [0.2, 0.8]), np.full((1, 3), 1 / 3)),
        ShapeMismatch, "belief and model are defined on different hypothesis spaces"),
    "empty_hypothesis_space": (lambda: HypothesisSpace(()), ShapeMismatch,
                               "hypothesis space must contain at least one id"),
    "duplicate_outcome_labels": (lambda: OutcomeSpace(("a", "b", "a")), ShapeMismatch,
                                 "outcome labels must be unique"),
    "belief_wrong_shape": (lambda: Belief(SP2, np.array([1.0])), ShapeMismatch,
                           r"belief has \(1,\) entries for a 2-hypothesis space"),
    "belief_non_finite": (lambda: Belief(SP2, np.array([math.nan, 1.0])), NonFiniteWeight,
                          "belief entries must be finite"),
    "tv_distance_spaces": (lambda: tv_distance(Belief.uniform(SP2), Belief.uniform(SP3)),
                           ShapeMismatch, "beliefs live on spaces of different size"),
    "tv_distance_vectors_lengths": (lambda: tv_distance_vectors([1.0], [0.5, 0.5]),
                                    ShapeMismatch, "vectors of different length"),
    "exp_tilt_noise_shape": (lambda: mutate_prior(HALF, 0.1, np.zeros((1, 3)), "exp-tilt"),
                             ShapeMismatch, "exp-tilt mutation needs one unit-normal draw"),
    "unknown_mutation_kind": (lambda: mutate_prior(HALF, 0.1, None, "shuffle"), ShapeMismatch,
                              "unknown mutation kind 'shuffle'"),
    "sweep_empty_grid": (lambda: sweep(small_config(), "lambda", []), ShapeMismatch,
                         "sweep grid must be nonempty"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name):
    call, exception, message = REFUSALS[name]
    with pytest.raises(exception, match=f"^{message}"):
        call()
