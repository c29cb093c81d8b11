import math

import numpy as np
import pytest

from episwarm.errors import ShapeMismatch
from episwarm.rating import (RatingConfig, learning_rate, rating_step,
                             replication_attenuation, reward_gradient)


class TestLearningRate:
    def test_harmonic_start(self):
        cfg = RatingConfig(schedule="harmonic")
        assert learning_rate(0, cfg) == 1.0

    def test_harmonic_decay(self):
        cfg = RatingConfig(schedule="harmonic")
        assert learning_rate(9, cfg) == pytest.approx(0.1)

    def test_constant(self):
        cfg = RatingConfig(schedule="constant", alpha=0.05)
        assert learning_rate(0, cfg) == 0.05
        assert learning_rate(1000, cfg) == 0.05

    def test_non_increasing(self):
        cfg = RatingConfig(schedule="harmonic")
        rates = [learning_rate(t, cfg) for t in range(100)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(0 < r <= 1 for r in rates)


class TestRewardGradient:
    def test_odd_at_zero(self):
        assert reward_gradient(0.0, 1.0) == 0.0

    def test_bounded_for_huge_utility(self):
        g = reward_gradient(18.0, 1.0)   # largest regime where tanh < 1 is representable
        assert g < 1.0
        assert g > 0.999999
        assert reward_gradient(1e8, 1.0) <= 1.0

    def test_tanh_closed_form(self):
        assert reward_gradient(5.0, 5.0, shape_scale=1.0) == pytest.approx(
            math.tanh(1.0), abs=1e-12)
        assert math.tanh(1.0) == pytest.approx(0.761594, abs=1e-6)

    def test_strictly_increasing(self):
        us = np.linspace(-10, 10, 41)
        gs = [reward_gradient(u, 3.0) for u in us]
        assert all(a < b for a, b in zip(gs, gs[1:]))

    def test_scale_must_be_positive(self):
        with pytest.raises(ShapeMismatch):
            reward_gradient(1.0, 0.0)


class TestRatingStep:
    def setup_method(self):
        self.cfg = RatingConfig(schedule="constant", alpha=0.1, sigma=0.0)

    def test_fixed_point(self):
        assert rating_step(0.5, 0.0, 3, self.cfg, 0.0)[0] == 0.5

    def test_projection_clamps_high(self):
        cfg = RatingConfig(schedule="harmonic")
        assert rating_step(0.5, 1.0, 0, cfg, 0.0)[0] == 1.0

    def test_arithmetic(self):
        assert rating_step(0.5, 0.4, 7, self.cfg, 0.0)[0] == pytest.approx(0.54)

    def test_projection_clamps_low(self):
        new, raw = rating_step(0.02, -1.0, 0, self.cfg, -0.5)
        assert new == 0.0
        assert raw == pytest.approx(0.02 - 0.1 - 0.5)  # before projection

    def test_boundedness_fuzz(self):
        rng = np.random.default_rng(1)
        cfg = RatingConfig(schedule="constant", alpha=1.0, sigma=0.0)
        r = 0.5
        for t in range(500):
            r, _ = rating_step(r, float(rng.uniform(-1, 1)), t, cfg, float(rng.normal(0, 0.5)))
            assert 0.0 <= r <= 1.0

    def test_monotone_in_gradient(self):
        # sigma = 0, equal starting ratings: larger gradient -> larger next rating
        for t in (0, 3, 10):
            hi, _ = rating_step(0.5, 0.8, t, self.cfg, 0.0)
            lo, _ = rating_step(0.5, 0.3, t, self.cfg, 0.0)
            assert hi > lo

    def test_deterministic_trajectories(self):
        def trajectory(seed):
            rng = np.random.default_rng(seed)
            cfg = RatingConfig(schedule="harmonic", sigma=0.1)
            r = 0.5
            out = []
            for t in range(50):
                r, _ = rating_step(r, 0.2, t, cfg, float(rng.normal(0, cfg.sigma)))
                out.append(r)
            return out

        assert trajectory(42) == trajectory(42)
        assert trajectory(42) != trajectory(43)


class TestReplicationAttenuation:
    def test_examples(self):
        assert replication_attenuation(0.8, 0.45) == pytest.approx(0.36)
        assert replication_attenuation(0.0, 0.45) == 0.0
        assert replication_attenuation(1.0, 0.5) == 0.5

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = float(rng.uniform(0, 1))
            lam = float(rng.uniform(0.01, 0.99))
            assert 0.0 <= replication_attenuation(r, lam) <= 1.0

    def test_lambda_domain(self):
        with pytest.raises(ShapeMismatch):
            replication_attenuation(0.5, 0.0)
        with pytest.raises(ShapeMismatch):
            replication_attenuation(0.5, 1.0)


class TestMiddleBand:
    def test_middle_band_fraction_stabilizes(self):
        # Long noise-driven run with reproduction/extinction disabled: the
        # fraction of agents strictly between the thresholds settles, measured
        # as sliding-window histogram TV staying under 0.05 after burn-in.
        import numpy as np
        from episwarm.config import from_dict
        from episwarm.engine import simulate

        cfg = from_dict({
            "space": {"hypotheses": 10},
            "outcomes": 10,
            "population": {"agents": 100},
            "rating": {"r0": 0.5, "sigma": 1e-4},
            "evolution": {"tau_rep": 1.0, "tau_ext": 0.0},
            "run": {"horizon": 1200, "seed": 5},
        })
        tau_ext, tau_rep = 0.1, 0.8
        hists, fracs = [], []

        def on_step(sim, snap, info):
            r = sim.population.ratings
            counts, _ = np.histogram(r, bins=20, range=(0.0, 1.0))
            hists.append(counts / len(r))
            fracs.append(float(np.mean((r > tau_ext) & (r < tau_rep))))

        simulate(cfg, on_step=on_step)
        window = 100
        tvs = [0.5 * float(np.abs(hists[t] - hists[t + window]).sum())
               for t in range(700, 1100)]
        assert max(tvs) < 0.05
        band_drift = max(abs(fracs[t] - fracs[t + window]) for t in range(700, 1100))
        assert band_drift < 0.05
        assert 0.0 < fracs[-1] < 1.0  # a genuine middle band exists


class TestConfigValidation:
    def test_r0_domain(self):
        with pytest.raises(ShapeMismatch):
            RatingConfig(r0=0.0)
        with pytest.raises(ShapeMismatch):
            RatingConfig(r0=1.0)

    def test_sigma_nonnegative(self):
        with pytest.raises(ShapeMismatch):
            RatingConfig(sigma=-0.1)

    def test_schedule_names(self):
        with pytest.raises(ShapeMismatch):
            RatingConfig(schedule="quadratic")
