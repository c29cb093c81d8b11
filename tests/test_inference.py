import math

import numpy as np
import pytest

from episwarm.errors import NonFiniteInput, NonFiniteWeight, ShapeMismatch
from episwarm.inference import (InferenceConfig, confidence_weight,
                                entropy_regularized_update, information_gain,
                                posterior_rows, posterior_update, sequential_update,
                                strength_update)
from episwarm.likelihood import CategoricalTable, Observation
from episwarm.spaces import Belief, HypothesisSpace, OutcomeSpace, entropy, normalize_vector, tv_distance

SP2 = HypothesisSpace.indexed(2)
OUT2 = OutcomeSpace.indexed(2)


def table(rows, k=2, y=2):
    return CategoricalTable(HypothesisSpace.indexed(k), OutcomeSpace.indexed(y), rows)


def brute_force_posterior(prior, like):
    """Independent oracle: normalize(prior * likelihood) coded from scratch."""
    w = [p * l for p, l in zip(prior, like)]
    z = sum(w)
    return [x / z for x in w]


class TestPosterior:
    def test_uniform_prior_equal_likelihoods(self):
        model = table([[0.5, 0.5], [0.5, 0.5]])
        post = posterior_update(Belief.uniform(SP2), model, Observation(0, 0))
        assert np.allclose(post.probs, [0.5, 0.5], atol=1e-12)

    def test_uniform_prior_proportionality(self):
        model = table([[0.9, 0.1], [0.1, 0.9]])
        post = posterior_update(Belief.uniform(SP2), model, Observation(0, 0))
        assert np.allclose(post.probs, [0.9, 0.1], atol=1e-12)

    def test_hand_bayes_oracle(self):
        model = table([[0.9, 0.1], [0.1, 0.9]])
        prior = Belief(SP2, np.array([0.2, 0.8]))
        post = posterior_update(prior, model, Observation(0, 0))
        # 0.18 / (0.18 + 0.08)
        assert np.allclose(post.probs, [0.692308, 0.307692], atol=1e-6)

    def test_brute_force_equivalence_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            y = int(rng.integers(2, 5))
            rows = rng.dirichlet(np.ones(y), size=k)
            model = table(rows, k=k, y=y)
            sp = model.space
            prior = rng.dirichlet(np.ones(k))
            datum = int(rng.integers(0, y))
            post = posterior_update(Belief(sp, prior), model, Observation(datum, datum))
            oracle = brute_force_posterior(prior, model.rows[:, datum])
            assert np.allclose(post.probs, oracle, atol=1e-12)

    def test_weights_past_the_float_range_are_refused(self):
        # rows that are not normalized can overflow the row total; normalizing
        # by an infinite total would give an all-zero "posterior"
        with pytest.raises(NonFiniteWeight, match="float range"):
            posterior_rows(np.array([[0.5, 0.5], [1e308, 1e308]]), np.ones(2), 0.0)


class TestSequential:
    def test_single_observation_matches_posterior(self):
        model = table([[0.9, 0.1], [0.1, 0.9]])
        prior = Belief(SP2, np.array([0.3, 0.7]))
        obs = Observation(1, 1)
        a = sequential_update(prior, model, [obs])
        b = posterior_update(prior, model, obs)
        assert np.allclose(a.probs, b.probs, atol=0)

    def test_two_identical_observations_product_oracle(self):
        model = table([[0.9, 0.1], [0.1, 0.9]])
        post = sequential_update(Belief.uniform(SP2), model,
                                 [Observation(0, 0), Observation(0, 0)])
        expected = normalize_vector(np.array([0.81, 0.01]))
        assert np.allclose(post.probs, expected, atol=1e-12)
        assert post.probs[0] == pytest.approx(0.987805, abs=1e-6)

    def test_batch_fold_equivalence(self):
        rng = np.random.default_rng(5)
        model = table(rng.dirichlet(np.ones(3), size=4), k=4, y=3)
        sp = model.space
        for _ in range(50):
            prior = Belief(sp, rng.dirichlet(np.ones(4)))
            data = [int(rng.integers(0, 3)) for _ in range(int(rng.integers(1, 7)))]
            obs = [Observation(d, d, i) for i, d in enumerate(data)]
            fold = sequential_update(prior, model, obs)
            prod = np.ones(4)
            for o in obs:
                prod = prod * model.likelihood_vector(o)
            batch = Belief(sp, normalize_vector(prior.probs * prod))
            assert tv_distance(fold, batch) < 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        model = table(rng.dirichlet(np.ones(3), size=3), k=3, y=3)
        sp = model.space
        prior = Belief(sp, rng.dirichlet(np.ones(3)))
        data = [0, 2, 1, 2, 0]
        obs = [Observation(d, d) for d in data]
        shuffled = [obs[i] for i in (3, 0, 4, 1, 2)]
        assert tv_distance(sequential_update(prior, model, obs),
                           sequential_update(prior, model, shuffled)) < 1e-9

    def test_empty_list_rejected(self):
        model = table([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ShapeMismatch):
            sequential_update(Belief.uniform(SP2), model, [])


class TestEntropyRegularized:
    def test_beta_zero_reduces_to_bayes(self):
        model = table([[0.7, 0.3], [0.2, 0.8]])
        prior = Belief(SP2, np.array([0.4, 0.6]))
        obs = Observation(1, 1)
        a = entropy_regularized_update(prior, model, obs, beta=0.0)
        b = posterior_update(prior, model, obs)
        assert np.allclose(a.probs, b.probs, atol=0)

    def test_uniform_prior_reference_term_vanishes(self):
        model = table([[0.7, 0.3], [0.2, 0.8]])
        prior = Belief.uniform(SP2)
        obs = Observation(0, 0)
        a = entropy_regularized_update(prior, model, obs, beta=1.7)
        b = posterior_update(prior, model, obs)
        assert np.allclose(a.probs, b.probs, atol=1e-12)

    def test_closed_form_tilt_oracle(self):
        # equal likelihoods, beta = 1: out = normalize(prior * (uniform/prior)) = uniform
        model = table([[0.5, 0.5], [0.5, 0.5]])
        prior = Belief(SP2, np.array([0.9, 0.1]))
        out = entropy_regularized_update(prior, model, Observation(0, 0), beta=1.0)
        assert np.allclose(out.probs, [0.5, 0.5], atol=1e-12)

    def test_formula_against_direct_computation(self):
        rng = np.random.default_rng(12)
        model = table(rng.dirichlet(np.ones(2), size=3), k=3, y=2)
        sp = model.space
        for beta in (0.25, 0.5, 1.0, 2.0):
            prior = rng.dirichlet(np.ones(3))
            obs = Observation(1, 1)
            like = model.likelihood_vector(obs)
            direct = prior * like * ((1.0 / 3) / prior) ** beta
            direct = direct / direct.sum()
            out = entropy_regularized_update(Belief(sp, prior), model, obs, beta)
            assert np.allclose(out.probs, direct, atol=1e-12)

    def test_entropy_nondecreasing_on_aligned_fixture(self):
        # Likelihood proportional to the prior: out(beta) = normalize(prior^(2-beta)),
        # whose entropy rises monotonically over the whole grid.
        prior_vec = np.array([0.7, 0.2, 0.1])
        model = table(np.column_stack([prior_vec, 1.0 - prior_vec]), k=3, y=2)
        prior = Belief(HypothesisSpace.indexed(3), prior_vec)
        obs = Observation(0, 0)
        entropies = [entropy(entropy_regularized_update(prior, model, obs, beta))
                     for beta in (0.0, 0.5, 1.0, 2.0)]
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))

    def test_beta_one_restores_zero_mass_hypotheses(self):
        # At beta = 1 the prior drops out: out = normalize(L(obs | h)), also
        # where the prior has no mass (0 * ln 0 must not poison the weights).
        sp3 = HypothesisSpace.indexed(3)
        model = CategoricalTable.peaked(sp3, OutcomeSpace.indexed(3), 0.7)
        out = entropy_regularized_update(Belief(sp3, np.array([1.0, 0.0, 0.0])), model,
                                         Observation(0, 0), beta=1.0)
        assert np.allclose(out.probs, [0.7, 0.15, 0.15], atol=1e-12)


class TestInformationGain:
    def test_no_change_zero_gain(self):
        b = Belief(SP2, np.array([0.4, 0.6]))
        assert information_gain(b.probs, b.probs) == 0.0

    def test_summation_oracle_near_point_mass(self):
        prior = Belief.uniform(SP2)
        post = Belief(SP2, np.array([1 - 1e-9, 1e-9]))
        assert information_gain(prior.probs, post.probs) == pytest.approx(math.log(2), abs=1e-7)

    def test_positive_for_informative_update(self):
        model = table([[0.9, 0.1], [0.1, 0.9]])
        prior = Belief(SP2, np.array([0.35, 0.65]))
        post = posterior_update(prior, model, Observation(0, 0))
        assert information_gain(prior.probs, post.probs) > 0.0

    def test_zero_iff_constant_likelihood(self):
        model = table([[0.5, 0.5], [0.5, 0.5]])
        prior = Belief(SP2, np.array([0.35, 0.65]))
        post = posterior_update(prior, model, Observation(0, 0))
        assert information_gain(prior.probs, post.probs) < 1e-12


class TestConfidenceAndStrength:
    def test_weight_examples(self):
        assert confidence_weight(0.0) == 1.0
        assert confidence_weight(0.5) == 1.5
        assert confidence_weight(math.log(2)) == pytest.approx(1.693147, abs=1e-6)

    def test_weight_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            confidence_weight(float("inf"))
        with pytest.raises(NonFiniteInput):
            confidence_weight(float("nan"))
        with pytest.raises(NonFiniteInput):
            confidence_weight(-0.1)

    def test_strength_identity(self):
        assert strength_update(2.5, weight=1.0, alpha_strength=1.0) == 2.5

    def test_strength_arithmetic(self):
        assert strength_update(1.0, weight=1.5, alpha_strength=0.8) == pytest.approx(1.2)

    def test_strength_ordered_by_gain(self):
        g1, g2 = 0.9, 0.3
        s1 = strength_update(1.0, confidence_weight(g1), 0.9)
        s2 = strength_update(1.0, confidence_weight(g2), 0.9)
        assert s1 > s2

    def test_gain_cap_bounds_ratio(self):
        out = strength_update(1.0, weight=1e9, alpha_strength=1.0, gain_cap=10.0)
        assert out == 10.0

    def test_config_validation(self):
        with pytest.raises(ShapeMismatch):
            InferenceConfig(beta=-0.1)
        with pytest.raises(ShapeMismatch):
            InferenceConfig(alpha_strength=0.0)
        with pytest.raises(ShapeMismatch):
            InferenceConfig(gain_cap=0.0)
