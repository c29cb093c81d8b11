import itertools
import math

import numpy as np
import pytest

from episwarm.competition import (MarginMatrix, aggregate_utility, fitness, log_score,
                                  margin_matrix, oracle_loss, zero_one_table,
                                  zero_sum_tolerance)
from episwarm.errors import ShapeMismatch, ZeroMassOnTruth


class TestOracleLoss:
    def test_perfect_prediction(self):
        t = zero_one_table(3)
        assert oracle_loss(np.array([0.0, 1.0, 0.0]), 1, t) == 0.0

    def test_uniform_prediction(self):
        t = zero_one_table(4)
        assert oracle_loss(np.full(4, 0.25), 2, t) == pytest.approx(0.75)

    def test_expectation_oracle(self):
        t = zero_one_table(2)
        assert oracle_loss(np.array([0.7, 0.3]), 0, t) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            oracle_loss(np.array([0.5, 0.5]), 0, zero_one_table(3))
        with pytest.raises(ShapeMismatch):
            oracle_loss(np.array([0.5, 0.5]), 5, zero_one_table(2))

    def test_general_table(self):
        table = np.array([[0.0, 2.0], [1.0, 0.0]])
        pred = np.array([0.25, 0.75])
        # expected loss under truth=1: 0.25*2 + 0.75*0
        assert oracle_loss(pred, 1, table) == pytest.approx(0.5)


class TestLogScore:
    @pytest.mark.parametrize("n", [2, 3, 4, 10])
    def test_uniform_guess(self, n):
        assert log_score(np.full(n, 1.0 / n), 0) == pytest.approx(math.log(n), abs=1e-12)

    def test_certainty(self):
        assert log_score(np.array([1.0, 0.0]), 0) == 0.0

    def test_quarter_mass(self):
        assert log_score(np.array([0.25, 0.75]), 0) == pytest.approx(1.386294, abs=1e-6)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassOnTruth):
            log_score(np.array([0.0, 1.0]), 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strict_propriety_grid_search(self, n):
        # Expected log score is minimized at pred = true distribution,
        # among a grid of candidate distributions.
        rng = np.random.default_rng(9 + n)
        points = 10 if n < 4 else 6
        grid = [np.array(p) for p in itertools.product(*[np.linspace(0.05, 0.9, points)] * n)]
        grid = [p / p.sum() for p in grid]
        for _ in range(5):
            nu = rng.dirichlet(np.full(n, 2.0))

            def expected_score(pred):
                return sum(nu[y] * log_score(pred, y) for y in range(n))

            best = min(expected_score(p) for p in grid)
            assert expected_score(nu) <= best + 1e-9


class TestFitness:
    @pytest.mark.parametrize("loss,expected", [(0.0, 1.0), (1.0, 0.5), (3.0, 0.25)])
    def test_examples(self, loss, expected):
        assert fitness(loss) == pytest.approx(expected)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(2)
        losses = np.sort(rng.exponential(2.0, size=50))
        vals = [fitness(l) for l in losses]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestMarginMatrix:
    def test_identical_predictions_zero(self):
        preds = [np.array([0.5, 0.5])] * 3
        m = margin_matrix(preds, 0)
        assert np.all(m.entries == 0.0)

    def test_log_ratio_oracle(self):
        preds = [np.array([0.8, 0.2]), np.array([0.2, 0.8])]
        m = margin_matrix(preds, 0)
        assert m.entries[0, 1] == pytest.approx(math.log(4), abs=1e-9)
        assert m.entries[1, 0] == pytest.approx(-math.log(4), abs=1e-9)
        assert math.log(4) == pytest.approx(1.386294, abs=1e-6)

    def test_telescoping_additivity(self):
        preds = [np.array([0.7, 0.3]), np.array([0.5, 0.5]), np.array([0.1, 0.9])]
        m = margin_matrix(preds, 0).entries
        assert m[0, 2] == pytest.approx(m[0, 1] + m[1, 2], abs=1e-9)

    def test_exact_skew_symmetry(self):
        rng = np.random.default_rng(7)
        preds = [rng.dirichlet(np.ones(4)) for _ in range(6)]
        m = margin_matrix(preds, 2).entries
        assert np.array_equal(m, -m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_sign_tracks_truth_mass(self):
        preds = [np.array([0.6, 0.4]), np.array([0.3, 0.7])]
        m = margin_matrix(preds, 0)
        assert m.entries[0, 1] > 0
        m2 = margin_matrix(preds, 1)
        assert m2.entries[0, 1] < 0

    def test_zero_mass_on_truth_rejected(self):
        with pytest.raises(ZeroMassOnTruth):
            margin_matrix([np.array([1.0, 0.0]), np.array([0.5, 0.5])], 1)

    def test_constructor_validates(self):
        with pytest.raises(ShapeMismatch):
            MarginMatrix(n=2, entries=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ShapeMismatch):
            MarginMatrix(n=2, entries=np.array([[0.5, 1.0], [-1.0, 0.0]]))


class TestAggregateUtility:
    """aggregate_utility takes log scores; U_i = sum_j (l_j - l_i)."""

    def test_zero_matrix(self):
        # equal log scores: every margin is zero
        assert np.all(aggregate_utility(np.full(3, 0.7)) == 0.0)

    def test_two_agent_pair(self):
        c = 0.37
        # agent 0 puts e^c times more mass on the truth than agent 1
        assert np.allclose(aggregate_utility(np.array([0.2, 0.2 + c])), [c, -c])

    def test_random_skew_zero_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            u = aggregate_utility(rng.exponential(2.0, size=n))
            assert abs(u.sum()) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 2000])
    def test_bitwise_equal_to_margin_row_sums(self, n):
        rng = np.random.default_rng(n)
        preds = list(rng.dirichlet(np.ones(4), size=n))
        scores = log_score(np.stack(preds), 1)
        rows = margin_matrix(preds, 1).entries.sum(axis=1)
        assert aggregate_utility(scores).tobytes() == rows.tobytes()


class TestZeroSumTolerance:
    def test_honest_large_population_passes_where_absolute_tol_fails(self):
        # N = 10^4 scores on [0, 30]: the honest rounding error of sum U
        # exceeds the old absolute guard of 1e-9 but stays within the bound,
        # while a change of 1e-3 in one U_i (of magnitude up to 1.5e5) trips it
        scores = np.random.default_rng(0).uniform(0.0, 30.0, size=10_000)
        u = aggregate_utility(scores)
        assert 1e-9 < abs(float(u.sum())) <= zero_sum_tolerance(scores)
        u[0] += 1e-3
        assert abs(float(u.sum())) > zero_sum_tolerance(scores)
