import math

import numpy as np
import pytest

from episwarm.errors import IncompatibleObservation, ShapeMismatch
from episwarm.likelihood import (Bernoulli, CategoricalTable, DiscretizedGaussian,
                                 Observation, likelihood, predictive_distribution)
from episwarm.spaces import Belief, HypothesisSpace, OutcomeSpace

SP2 = HypothesisSpace.indexed(2)
OUT2 = OutcomeSpace.indexed(2)


def test_bernoulli_closed_form():
    model = Bernoulli(SP2, [0.5, 0.9])
    assert likelihood(model, Observation(datum=1, truth_label=1), 0) == pytest.approx(0.5)
    assert likelihood(model, Observation(datum=0, truth_label=0), 1) == pytest.approx(0.1)


def test_bernoulli_parameter_clipping():
    # p = 1.0 is clipped to 1 - 1e-6, so observing 0 has plausibility exactly 1e-6
    model = Bernoulli(SP2, [1.0, 0.5])
    assert likelihood(model, Observation(datum=0, truth_label=0), 0) == pytest.approx(1e-6, rel=1e-9)


def test_gaussian_bin_mass_erf_oracle():
    model = DiscretizedGaussian(HypothesisSpace.indexed(1), means=[0.0], scale=1.0,
                                bin_edges=[-10.0, -0.5, 0.5, 10.0])
    got = likelihood(model, Observation(datum=0.0, truth_label=1), 0)
    expected = math.erf(0.5 / math.sqrt(2))  # Phi(0.5) - Phi(-0.5)
    assert got == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.382925, abs=1e-6)


def test_categorical_requires_index_payload():
    model = CategoricalTable(SP2, OUT2, [[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(IncompatibleObservation):
        likelihood(model, Observation(datum=0.5, truth_label=0), 0)
    with pytest.raises(IncompatibleObservation):
        likelihood(model, Observation(datum=7, truth_label=0), 0)


def test_bernoulli_requires_binary_payload():
    model = Bernoulli(SP2, [0.4, 0.6])
    with pytest.raises(IncompatibleObservation):
        likelihood(model, Observation(datum=2, truth_label=0), 0)


def test_hypothesis_index_checked():
    model = CategoricalTable(SP2, OUT2, [[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ShapeMismatch):
        likelihood(model, Observation(datum=0, truth_label=0), 5)


def test_positivity_fuzz():
    rng = np.random.default_rng(0)
    sp = HypothesisSpace.indexed(4)
    out = OutcomeSpace.indexed(3)
    for _ in range(50):
        rows = rng.random((4, 3))
        rows[rng.random((4, 3)) < 0.3] = 0.0  # inject zeros; clipping must remove them
        rows[:, 0] += 1e-9                    # keep rows normalizable
        model = CategoricalTable(sp, out, rows / rows.sum(axis=1, keepdims=True))
        for y in range(3):
            vec = model.likelihood_vector(Observation(datum=y, truth_label=y))
            assert np.all(vec > 0.0)
            assert np.all(vec <= model.rows.max())


def test_repeated_evaluation_bit_identical():
    model = DiscretizedGaussian(SP2, means=[0.0, 1.0], scale=0.7,
                                bin_edges=[-5.0, 0.0, 1.0, 5.0])
    obs = Observation(datum=0.3, truth_label=1)
    a = [likelihood(model, obs, h) for h in range(2)]
    b = [likelihood(model, obs, h) for h in range(2)]
    assert a == b


class TestPredictive:
    def setup_method(self):
        self.model = CategoricalTable(SP2, OUT2, [[0.9, 0.1], [0.2, 0.8]])
        self.obs = Observation(datum=0, truth_label=0)

    def test_point_mass_returns_row(self):
        pred = predictive_distribution(self.model, Belief.point_mass(SP2, 0), self.obs)
        assert np.allclose(pred, self.model.rows[0])

    def test_symmetric_mixture(self):
        eps = 1e-6
        model = CategoricalTable(SP2, OUT2, [[1 - eps, eps], [eps, 1 - eps]])
        pred = predictive_distribution(model, Belief.uniform(SP2), self.obs)
        assert np.allclose(pred, [0.5, 0.5], atol=1e-12)

    def test_hand_mixture_oracle(self):
        b = Belief(SP2, np.array([0.75, 0.25]))
        pred = predictive_distribution(self.model, b, self.obs)
        assert np.allclose(pred, [0.725, 0.275], atol=1e-9)

    def test_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            b = Belief(SP2, rng.dirichlet([1.0, 1.0]))
            pred = predictive_distribution(self.model, b, self.obs)
            assert abs(pred.sum() - 1.0) < 1e-9
            assert np.all(pred > 0.0)

    def test_linearity_in_belief(self):
        rng = np.random.default_rng(4)
        p = Belief(SP2, rng.dirichlet([1, 1]))
        q = Belief(SP2, rng.dirichlet([1, 1]))
        lam = 0.3
        mix = Belief(SP2, lam * p.probs + (1 - lam) * q.probs)
        lhs = predictive_distribution(self.model, mix, self.obs)
        rhs = (lam * predictive_distribution(self.model, p, self.obs)
               + (1 - lam) * predictive_distribution(self.model, q, self.obs))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_gaussian_outcome_rows_normalized():
    model = DiscretizedGaussian(SP2, means=[0.0, 2.0], scale=1.0,
                                bin_edges=[-4.0, 0.0, 2.0, 4.0])
    rows = model.outcome_matrix(Observation(datum=0.0, truth_label=0))
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("model,obs", [
    (CategoricalTable(SP2, OUT2, [[0.9, 0.1], [0.2, 0.8]]), Observation(datum=0, truth_label=0)),
    (Bernoulli(SP2, [0.3, 0.9]), Observation(datum=0, truth_label=0)),
    (DiscretizedGaussian(SP2, means=[0.0, 2.0], scale=1.0, bin_edges=[-4.0, 0.0, 2.0, 4.0]),
     Observation(datum=0.5, truth_label=1)),
], ids=["categorical", "bernoulli", "discretized_gaussian"])
def test_tables_built_once_and_read_only(model, obs):
    # a likelihood vector may be a fresh view (a table column), but of a built table
    assert model.outcome_matrix(obs) is model.outcome_matrix(obs)
    assert not model.outcome_matrix(obs).flags.writeable
    assert not model.likelihood_vector(obs).flags.writeable


def test_bernoulli_tables_match_their_definition():
    probs = np.array([0.0, 0.3, 0.7, 1.0])
    model = Bernoulli(HypothesisSpace.indexed(4), probs)
    assert np.array_equal(model.outcome_matrix(Observation(datum=1, truth_label=1)),
                          np.column_stack([1.0 - model.probs, model.probs]))
    assert np.array_equal(model.likelihood_vector(Observation(datum=0, truth_label=0)),
                          1.0 - model.probs)
    assert np.array_equal(model.likelihood_vector(Observation(datum=1, truth_label=1)),
                          model.probs)


def test_gaussian_outcome_rows_are_the_normalized_bin_mass():
    model = DiscretizedGaussian(SP2, means=[0.0, 2.0], scale=0.7,
                                bin_edges=[-4.0, 0.0, 2.0, 4.0])
    rows = model.outcome_matrix(Observation(datum=0.0, truth_label=0))
    assert np.array_equal(rows, model.bin_mass / model.bin_mass.sum(axis=1, keepdims=True))
