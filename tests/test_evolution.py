import math

import numpy as np
import pytest

from episwarm.errors import PopulationCollapse, ShapeMismatch
from episwarm.evolution import (EXP_TILT, KERNEL_CONVOLUTION, EvolutionConfig, IdAllocator,
                                Population, build_smoothing_matrix, evolve, extinction_sweep,
                                mutate_prior, saturation_cap, update_decay_markers)
from episwarm.spaces import HypothesisSpace

SP2 = HypothesisSpace.indexed(2)


def make_population(ratings, space=SP2, decay=None):
    n = len(ratings)
    pop = Population.create(space, np.full((n, space.size), 1.0 / space.size), r0=0.5)
    pop.ratings = np.asarray(ratings, dtype=float)
    if decay is not None:
        pop.decay_since = np.asarray(decay, dtype=np.int64)
    return pop


CFG = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, grace=3, lam=0.45, sigma_mut=0.0)


class FakeDraws:
    """An ``rng.Draws`` stand-in whose mutation rows are given per child id;
    ``calls`` records each ``mutation(child_ids, k)`` call."""

    def __init__(self, rows):
        self.rows, self.calls = rows, []

    def mutation(self, child_ids, k):
        self.calls.append((child_ids.tolist(), k))
        return np.stack([self.rows[cid] for cid in child_ids.tolist()])



def columns_of(pop):
    return {name: getattr(pop, name) for name in Population.COLUMNS}


class TestPopulationColumns:
    def test_extend_appends_rows_in_column_dtypes(self):
        pop = make_population([0.9, 0.05, 0.5])
        out = pop.extend(ids=[7, 8], parent_ids=[0, 0], birth_steps=[4, 4],
                         ratings=[0.2, 0.3], strengths=[2, 2], decay_since=[-1, 3],
                         belief_matrix=[[0.25, 0.75], [1.0, 0.0]])
        assert len(out) == 5 and len(pop) == 3
        assert out.ids.tolist() == [0, 1, 2, 7, 8]
        assert out.parent_ids.tolist() == [-1, -1, -1, 0, 0]
        assert out.ratings.tolist() == [0.9, 0.05, 0.5, 0.2, 0.3]
        assert out.decay_since.tolist() == [-1, -1, -1, -1, 3]
        assert out.belief_matrix[3:].tolist() == [[0.25, 0.75], [1.0, 0.0]]
        for name, dtype in Population.COLUMNS.items():
            assert getattr(out, name).dtype == dtype

    def test_missing_or_extra_column_raises(self):
        cols = columns_of(make_population([0.5, 0.5]))
        missing = {k: v for k, v in cols.items() if k != "strengths"}
        with pytest.raises(ShapeMismatch, match="population columns"):
            Population(SP2, **missing)
        with pytest.raises(ShapeMismatch, match="population columns"):
            Population(SP2, **cols, colour=[0, 0])
        pop = Population(SP2, **cols)
        with pytest.raises(ShapeMismatch, match="population columns"):
            pop.extend(**missing)

    def test_misaligned_column_raises(self):
        cols = columns_of(make_population([0.5, 0.5]))
        with pytest.raises(ShapeMismatch, match="misaligned on birth_steps"):
            Population(SP2, **dict(cols, birth_steps=[0, 0, 0]))
        with pytest.raises(ShapeMismatch, match="belief matrix"):
            Population(SP2, **dict(cols, belief_matrix=np.full((2, 3), 1 / 3)))


class TestSelect:
    """``evolve`` splits every agent rated at or above tau_rep; a low rating
    removes an agent only through the grace window."""

    @staticmethod
    def evolved(ratings, cfg=CFG):
        pop = make_population(ratings)
        update_decay_markers(pop, 0, cfg)
        return evolve(pop, 0, cfg, IdAllocator(start=len(pop))).population

    def test_threshold_marks(self):
        out = self.evolved([0.9, 0.05, 0.5])
        # agent 0 splits; agent 1, at or below tau_ext, lives out its grace window
        assert out.ids.tolist() == [1, 2, 3, 4]
        assert out.parent_ids.tolist() == [-1, -1, 0, 0]

    def test_boundaries_inclusive(self):
        out = self.evolved([0.8, 0.1])  # agent 0 exactly at tau_rep
        assert out.parent_ids.tolist() == [-1, 0, 0]

    def test_sentinels_disable(self):
        cfg = EvolutionConfig(tau_rep=1.0, tau_ext=0.0, grace=1, lam=0.45, sigma_mut=0.0)
        out = self.evolved([0.0, 1.0], cfg)
        assert out.ids.tolist() == [0, 1]
        assert out.parent_ids.tolist() == [-1, -1]

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ShapeMismatch):
            EvolutionConfig(tau_rep=0.3, tau_ext=0.5)


class TestMutatePrior:
    def test_zero_scale_identity(self):
        rows = np.array([[0.3, 0.7]])
        assert mutate_prior(rows, 0.0, None, EXP_TILT) is rows

    def test_exp_tilt_closed_form(self):
        out = mutate_prior(np.array([[0.5, 0.5]]), 1.0, np.array([[math.log(2), 0.0]]), EXP_TILT)
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_identity_smoothing(self):
        rows = np.array([[0.3, 0.7]])
        out = mutate_prior(rows, 0.5, None, KERNEL_CONVOLUTION, smoothing=np.eye(2))
        assert np.allclose(out, rows, atol=0)

    def test_convolution_preserves_simplex_and_support(self):
        sp = HypothesisSpace.indexed(4, embedding=np.arange(4.0)[:, None])
        w = build_smoothing_matrix(sp, 0.8)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        out = mutate_prior(np.array([[0.7, 0.3, 0.0, 0.0]]), 0.8, None, KERNEL_CONVOLUTION,
                           smoothing=w)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out > 0.0)

    def test_full_support_preserved_by_tilt(self):
        rng = np.random.default_rng(0)
        out = mutate_prior(np.array([[0.999999, 0.000001]]), 2.0, rng.standard_normal((1, 2)),
                           EXP_TILT)
        assert np.all(out > 0.0)

    def test_missing_embedding_rejected(self):
        with pytest.raises(ShapeMismatch):
            build_smoothing_matrix(SP2, 0.5)

    def test_zero_scale_smoothing_is_the_identity(self):
        # needs no embedding: at sigma_mut = 0 nothing is smoothed
        assert np.array_equal(build_smoothing_matrix(HypothesisSpace.indexed(3), 0.0), np.eye(3))


class TestReproduce:
    """A split parent is replaced by two children built by ``evolve``."""

    def split(self, cfg, rating=0.9, draws=None, smoothing=None, space=SP2,
              belief=(0.6, 0.4)):
        # four agents, ids 0-3; only the parent, id 3, crosses tau_rep
        pop = make_population([0.5, 0.5, 0.5, rating], space=space)
        pop.belief_matrix[3] = belief
        pop.strengths[3] = 2.0
        res = evolve(pop, 4, cfg, IdAllocator(start=10), draws=draws,
                     smoothing=smoothing)
        children = res.population.parent_ids == 3
        assert len(res.born_ids) == 2 and children.sum() == 2
        return res.population, children

    def test_attenuated_ratings(self):
        pop, children = self.split(CFG, rating=0.9)
        assert pop.ratings[children] == pytest.approx([0.405, 0.405])

    def test_zero_mutation_copies_belief(self):
        pop, children = self.split(CFG)
        assert np.array_equal(pop.belief_matrix[children], [[0.6, 0.4], [0.6, 0.4]])

    def test_lineage_fields(self):
        pop, children = self.split(CFG)
        assert pop.ids[children].tolist() == [10, 11]
        assert 3 not in pop.ids.tolist()
        assert pop.birth_steps[children].tolist() == [4, 4]
        assert pop.strengths[children].tolist() == [2.0, 2.0]
        assert pop.decay_since[children].tolist() == [-1, -1]

    def test_independent_mutations(self):
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, lam=0.45, sigma_mut=0.5)
        noise = {10: np.array([0.3, -1.2]), 11: np.array([-0.7, 0.9])}
        draws = FakeDraws(noise)
        pop, children = self.split(cfg, draws=draws)
        assert draws.calls == [([10, 11], 2)]  # one call for the split batch
        rows = pop.belief_matrix[children]
        assert not np.array_equal(rows[0], rows[1])
        for cid, row in zip((10, 11), rows):
            tilted = [p * math.exp(0.5 * z) for p, z in zip((0.6, 0.4), noise[cid])]
            assert row.tolist() == pytest.approx([w / sum(tilted) for w in tilted], abs=1e-12)

    def test_kernel_convolution_children(self):
        sp = HypothesisSpace.indexed(4, embedding=np.arange(4.0)[:, None])
        w = build_smoothing_matrix(sp, 0.8)
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, lam=0.45, sigma_mut=0.8,
                              mutation_kind=KERNEL_CONVOLUTION)
        parent = [0.7, 0.3, 0.0, 0.0]
        pop, children = self.split(cfg, smoothing=w, space=sp, belief=parent)
        mixed = [sum(parent[h] * w[h, g] for h in range(4)) for g in range(4)]
        expected = [m / sum(mixed) for m in mixed]
        for row in pop.belief_matrix[children]:
            assert row.tolist() == pytest.approx(expected, abs=1e-12)
        assert pop.ids[children].tolist() == [10, 11]
        assert pop.birth_steps[children].tolist() == [4, 4]
        assert pop.ratings[children] == pytest.approx([0.405, 0.405])

    def test_kernel_convolution_needs_smoothing(self):
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, lam=0.45, sigma_mut=0.8,
                              mutation_kind=KERNEL_CONVOLUTION)
        with pytest.raises(ShapeMismatch):
            self.split(cfg)


class TestExtinctionSweep:
    def test_recovery_resets_streak(self):
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, grace=3, lam=0.45)
        pop = make_population([0.05])
        update_decay_markers(pop, 0, cfg)
        update_decay_markers(pop, 1, cfg)
        pop.ratings[0] = 0.5  # recovers above threshold
        update_decay_markers(pop, 2, cfg)
        assert pop.decay_since[0] == -1
        out, removed, _ = extinction_sweep(pop, 2, cfg)
        assert len(out) == 1 and len(removed) == 0

    def test_exact_grace_window_removes(self):
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, grace=3, lam=0.45)
        pop = make_population([0.05, 0.5])
        for t in range(3):  # below at steps 0, 1, 2 -> streak reaches grace at t=2
            update_decay_markers(pop, t, cfg)
            pop, removed, _ = extinction_sweep(pop, t, cfg)
        assert len(pop) == 1
        assert pop.ratings[0] == 0.5

    def test_one_step_short_survives(self):
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, grace=3, lam=0.45)
        pop = make_population([0.05])
        for t in range(2):
            update_decay_markers(pop, t, cfg)
            pop, removed, _ = extinction_sweep(pop, t, cfg)
        assert len(pop) == 1

    def test_never_below_never_removed(self):
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, grace=1, lam=0.45)
        pop = make_population([0.5])
        for t in range(10):
            update_decay_markers(pop, t, cfg)
            pop, removed, _ = extinction_sweep(pop, t, cfg)
        assert len(pop) == 1

    def test_fairness_independent_of_peers(self):
        # permuting other agents' ratings does not change who is removed
        cfg = EvolutionConfig(tau_rep=0.9, tau_ext=0.2, grace=2, lam=0.45)
        base = [0.05, 0.6, 0.7, 0.15]
        perm = [0.05, 0.7, 0.6, 0.15]  # peers permuted, candidates untouched

        def removed_ids(ratings):
            pop = make_population(ratings)
            gone = []
            for t in range(3):
                update_decay_markers(pop, t, cfg)
                pop, removed, _ = extinction_sweep(pop, t, cfg)
                gone.extend(removed.tolist())
            return gone

        assert removed_ids(base) == removed_ids(perm)


class TestSaturationCap:
    def test_all_admitted_under_cap(self):
        pop = make_population([0.9] * 10)
        admitted = saturation_cap(pop, np.arange(3), n_star=64)
        assert len(admitted) == 3

    def test_full_population_admits_none(self):
        pop = make_population([0.9] * 64)
        admitted = saturation_cap(pop, np.arange(64), n_star=64)
        assert len(admitted) == 0

    def test_rating_order_with_room_for_one(self):
        pop = make_population([0.85, 0.9] + [0.5] * 62)
        admitted = saturation_cap(pop, np.array([0, 1]), n_star=65)
        assert admitted.tolist() == [1]  # the 0.9 parent wins

    def test_tie_broken_by_lower_id(self):
        pop = make_population([0.9, 0.9] + [0.5] * 62)
        admitted = saturation_cap(pop, np.array([0, 1]), n_star=65)
        assert pop.ids[admitted].tolist() == [0]

    def test_uncapped(self):
        pop = make_population([0.9] * 100)
        admitted = saturation_cap(pop, np.arange(100), n_star=None)
        assert len(admitted) == 100


class TestEvolveIds:
    """``evolve`` names the parents it split, the agents it removed and the
    children it created; the population difference is the oracle."""

    @pytest.mark.parametrize("ratings,decay,n_star,counts", [
        ([0.5, 0.9, 0.5, 0.85], None, None, (2, 0, 0)),
        ([0.05, 0.5, 0.05], [0, -1, 0], None, (0, 2, 0)),
        ([0.9, 0.05, 0.5, 0.95], [-1, 0, -1, -1], None, (2, 1, 0)),
        ([0.5, 0.6], None, None, (0, 0, 0)),
        # room for two of the three pending splits (5 + 2 = 7); the third waits
        ([0.9, 0.95, 0.05, 0.85, 0.5], [-1, -1, 0, -1, -1], 7, (2, 1, 1)),
    ], ids=["splits", "deaths", "splits_and_deaths", "neither", "capped"])
    def test_ids_match_population_difference(self, ratings, decay, n_star, counts):
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, grace=3, lam=0.45, sigma_mut=0.0,
                              n_star=n_star)
        pop = make_population(ratings, decay=decay)
        res = evolve(pop, 2, cfg, IdAllocator(start=100))
        new = res.population.ids
        assert (len(res.split_ids), len(res.removed_ids), res.delayed_split_count) == counts
        gone = np.setdiff1d(pop.ids, new)
        assert np.array_equal(np.union1d(res.split_ids, res.removed_ids), gone)
        assert len(res.split_ids) + len(res.removed_ids) == len(gone)  # disjoint
        assert np.array_equal(res.born_ids, new[new >= 100])
        assert np.all(np.diff(res.born_ids) > 0)


class TestEvolve:
    def test_no_threshold_crossing_is_identity(self):
        pop = make_population([0.5, 0.6, 0.4])
        res = evolve(pop, 0, CFG, IdAllocator(start=3))
        assert len(res.population) == 3
        assert len(res.born_ids) == 0 and len(res.removed_ids) == 0
        assert np.array_equal(res.population.ids, pop.ids)

    def test_single_agent_doubles(self):
        pop = make_population([0.9])
        res = evolve(pop, 0, CFG, IdAllocator(start=1))
        assert len(res.population) == 2
        assert res.population.parent_ids.tolist() == [0, 0]
        assert np.allclose(res.population.ratings, 0.405)

    def test_mass_law_stable_branch(self):
        cfg = EvolutionConfig(tau_rep=1e-8, tau_ext=0.0, grace=1, lam=0.45,
                              sigma_mut=0.0, n_star=None)
        pop = make_population([1.0])
        ids = IdAllocator(start=1)
        mass = [pop.rating_mass()]
        for t in range(6):
            pop = evolve(pop, t, cfg, ids).population
            mass.append(pop.rating_mass())
        for a, b in zip(mass, mass[1:]):
            assert b == pytest.approx(2 * 0.45 * a, abs=1e-9)
            assert b < a  # strictly decreasing for 2*lam < 1

    def test_mass_law_unstable_branch(self):
        cfg = EvolutionConfig(tau_rep=1e-8, tau_ext=0.0, grace=1, lam=0.6,
                              sigma_mut=0.0, n_star=None)
        pop = make_population([1.0])
        ids = IdAllocator(start=1)
        mass = [pop.rating_mass()]
        for t in range(6):
            pop = evolve(pop, t, cfg, ids).population
            mass.append(pop.rating_mass())
        for a, b in zip(mass, mass[1:]):
            assert b == pytest.approx(2 * 0.6 * a, abs=1e-9)
            assert b > a

    def test_id_uniqueness_and_forest(self):
        cfg = EvolutionConfig(tau_rep=0.4, tau_ext=0.1, grace=2, lam=0.9,
                              sigma_mut=0.0, n_star=40)
        pop = make_population([0.5] * 4)
        ids = IdAllocator(start=4)
        seen = set(pop.ids.tolist())
        parents = {}
        for t in range(12):
            res = evolve(pop, t, cfg, ids)
            pop = res.population
            for i in range(len(pop)):
                aid = int(pop.ids[i])
                pid = int(pop.parent_ids[i])
                if aid not in parents:
                    parents[aid] = pid
                    if pid >= 0:
                        assert pid in seen or pid in parents
                seen.add(aid)
        # forest: every agent's parent chain terminates without cycles
        for aid in parents:
            trail = set()
            node = aid
            while node in parents and parents[node] >= 0:
                assert node not in trail
                trail.add(node)
                node = parents[node]

    def test_population_bound_capped(self):
        cfg = EvolutionConfig(tau_rep=0.4, tau_ext=0.1, grace=2, lam=0.95,
                              sigma_mut=0.0, n_star=10)
        pop = make_population([0.5] * 4)
        ids = IdAllocator(start=4)
        for t in range(20):
            res = evolve(pop, t, cfg, ids)
            pop = res.population
            assert len(pop) <= 10

    def test_collapse_raises(self):
        cfg = EvolutionConfig(tau_rep=0.999, tau_ext=0.99, grace=1, lam=0.45)
        pop = make_population([0.5, 0.6])
        update_decay_markers(pop, 0, cfg)
        with pytest.raises(PopulationCollapse):
            evolve(pop, 0, cfg, IdAllocator(start=2))

    def test_exp_tilt_children_need_noise_source(self):
        cfg = EvolutionConfig(tau_rep=0.8, tau_ext=0.1, grace=2, lam=0.45, sigma_mut=0.3)
        pop = make_population([0.9])
        with pytest.raises(ShapeMismatch):
            evolve(pop, 0, cfg, IdAllocator(start=1), draws=None)

    def test_delayed_spawns_counted(self):
        cfg = EvolutionConfig(tau_rep=0.4, tau_ext=0.1, grace=2, lam=0.9,
                              sigma_mut=0.0, n_star=5)
        pop = make_population([0.5] * 4)
        res = evolve(pop, 0, cfg, IdAllocator(start=4))
        assert len(res.born_ids) == 2   # one split admitted (4 -> 5)
        assert res.delayed_split_count == 3
