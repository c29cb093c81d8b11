import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episwarm.errors import AllZeroWeights, NonFiniteWeight, ShapeMismatch, SupportViolation
from episwarm.spaces import (SUM_TOL, Belief, HypothesisSpace, OutcomeSpace, entropy,
                             kl_divergence, normalize, normalize_vector, tv_distance)


def simplex_points(k, min_mass=0.0):
    """Strategy: random probability vectors over k hypotheses."""
    return st.lists(st.floats(min_value=min_mass, max_value=1.0, allow_nan=False),
                    min_size=k, max_size=k).filter(lambda w: sum(w) > 1e-6).map(
        lambda w: np.array(w) / np.sum(w))


SP2 = HypothesisSpace.indexed(2)
SP3 = HypothesisSpace.indexed(3)
SP4 = HypothesisSpace.indexed(4)


class TestSpaces:
    def test_ids_unique(self):
        with pytest.raises(ShapeMismatch):
            HypothesisSpace(ids=(0, 0, 1))

    def test_embedding_size_checked(self):
        with pytest.raises(ShapeMismatch):
            HypothesisSpace(ids=(0, 1), embedding=np.zeros((3, 2)))
        sp = HypothesisSpace(ids=(0, 1), embedding=np.array([[0.0], [1.0]]))
        assert sp.embedding.shape == (2, 1)

    def test_outcomes_need_two_labels(self):
        with pytest.raises(ShapeMismatch):
            OutcomeSpace(labels=(0,))


class TestNormalize:
    def test_symmetric_pair(self):
        assert np.allclose(normalize([2, 2], SP2).probs, [0.5, 0.5])

    def test_exact_rationals(self):
        assert np.allclose(normalize([1, 0, 3], SP3).probs, [0.25, 0.0, 0.75], atol=0)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroWeights):
            normalize([0, 0], SP2)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteWeight):
            normalize([1.0, float("nan")], SP2)
        with pytest.raises(NonFiniteWeight):
            normalize([1.0, float("inf")], SP2)
        with pytest.raises(NonFiniteWeight):
            normalize([1.0, -0.5], SP2)

    def test_total_past_float_range_rejected(self):
        # each weight is finite, their sum is not
        with pytest.raises(NonFiniteWeight, match="float range"):
            normalize_vector(np.array([[1e308, 1e308]]))
        assert normalize_vector(np.array([[1e308, 0.0], [1e307, 1e307]])).tolist() == \
            [[1.0, 0.0], [0.5, 0.5]]

    @pytest.mark.parametrize("k", [2, 7, 100, 1000, 5000])
    def test_row_sums_within_derived_bound(self, k):
        # why posterior_rows needs no row-sum check: numpy's pairwise-sum bound
        # plus one rounding per entry, far inside SUM_TOL
        rng = np.random.default_rng(k)
        w = rng.random((50, k)) ** 8 * 10.0 ** rng.integers(-300, 300, (50, 1))
        w[rng.random((50, k)) < 0.3] = 0.0
        w[:, 0] += 1e-300
        out = normalize_vector(w)
        bound = 2 * (math.ceil(math.log2(k)) + 25) * 2.0 ** -53
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert float(np.abs(out.sum(axis=1) - 1.0).max()) <= bound < SUM_TOL

    @given(simplex_points(4))
    def test_proportionality_preserved(self, p):
        scaled = normalize(3.7 * p, SP4).probs
        assert np.allclose(scaled, p, atol=1e-12)

    @given(simplex_points(3))
    def test_unit_sum(self, p):
        assert abs(normalize(p * 0.25, SP3).probs.sum() - 1.0) < 1e-9


class TestEntropy:
    def test_uniform_is_maximal(self):
        assert entropy(Belief.uniform(SP4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy(Belief.point_mass(SP3, 0)) == 0.0

    def test_direct_summation_oracle(self):
        # independent oracle: direct sum over entries
        p = [0.5, 0.25, 0.25]
        expected = -sum(x * math.log(x) for x in p)
        assert entropy(Belief(SP3, np.array(p))) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.039721, abs=1e-6)

    @given(simplex_points(4))
    def test_bounds(self, p):
        h = entropy(Belief(SP4, p))
        assert -1e-15 <= h <= math.log(4) + 1e-12

    @given(simplex_points(4))
    def test_max_iff_uniform(self, p):
        h = entropy(Belief(SP4, p))
        if abs(h - math.log(4)) < 1e-12:
            # Pinsker: log K - H = KL(p || uniform) >= 2 TV^2, so the gap
            # bounds the elementwise deviation by sqrt(2 * gap)
            assert np.all(np.abs(p - 0.25) < 2e-6)


class TestKL:
    def test_identity_case(self):
        b = Belief(SP2, np.array([0.3, 0.7]))
        assert kl_divergence(b, b) == 0.0

    def test_closed_form(self):
        p = Belief(SP2, np.array([1.0, 0.0]))
        q = Belief(SP2, np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-12)

    def test_summation_oracle(self):
        p, q = [0.8, 0.2], [0.5, 0.5]
        expected = sum(a * math.log(a / b) for a, b in zip(p, q))
        got = kl_divergence(Belief(SP2, np.array(p)), Belief(SP2, np.array(q)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.192745, abs=1e-6)

    def test_support_violation(self):
        p = Belief(SP2, np.array([0.5, 0.5]))
        q = Belief(SP2, np.array([1.0, 0.0]))
        with pytest.raises(SupportViolation):
            kl_divergence(p, q)

    @settings(max_examples=200)
    @given(simplex_points(4, min_mass=1e-6), simplex_points(4, min_mass=1e-6))
    def test_nonnegative_zero_iff_equal(self, p, q):
        d = kl_divergence(Belief(SP4, p), Belief(SP4, q))
        assert d >= 0.0
        if np.max(np.abs(p - q)) < 1e-12:
            assert d < 1e-9
        if d == 0.0:
            # Pinsker again: KL >= 2 TV^2 keeps exact zeros near equality
            assert np.max(np.abs(p - q)) < 1e-6


class TestTV:
    def test_identity(self):
        b = Belief(SP2, np.array([0.4, 0.6]))
        assert tv_distance(b, b) == 0.0

    def test_disjoint_support(self):
        assert tv_distance(Belief.point_mass(SP2, 0), Belief.point_mass(SP2, 1)) == 1.0

    def test_exact_arithmetic(self):
        a = Belief(SP2, np.array([0.6, 0.4]))
        b = Belief(SP2, np.array([0.5, 0.5]))
        assert tv_distance(a, b) == pytest.approx(0.1, abs=1e-12)

    @settings(max_examples=200)
    @given(simplex_points(3), simplex_points(3), simplex_points(3))
    def test_metric_axioms(self, p, q, r):
        bp, bq, br = (Belief(SP3, x) for x in (p, q, r))
        assert tv_distance(bp, bp) == 0.0
        assert tv_distance(bp, bq) == tv_distance(bq, bp)
        assert tv_distance(bp, br) <= tv_distance(bp, bq) + tv_distance(bq, br) + 1e-12
        assert 0.0 <= tv_distance(bp, bq) <= 1.0


class TestBeliefInvariants:
    def test_negative_entries_rejected(self):
        with pytest.raises(NonFiniteWeight):
            Belief(SP2, np.array([-0.1, 1.1]))

    def test_bad_sum_rejected(self):
        with pytest.raises(ShapeMismatch):
            Belief(SP2, np.array([0.6, 0.6]))

    def test_sum_tolerance_is_one_in_a_billion(self):
        Belief(SP2, np.array([0.5, 0.5 + 5e-10]))
        with pytest.raises(ShapeMismatch, match="outside 1"):
            Belief(SP2, np.array([0.5, 0.5 + 2e-9]))

    def test_probs_read_only(self):
        b = Belief.uniform(SP2)
        with pytest.raises(ValueError):
            b.probs[0] = 0.9
