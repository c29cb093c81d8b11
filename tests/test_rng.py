"""Substream seeding and every ``rng.Draws`` method, each against its
one-call-per-draw definition: the tuple SeedSequence, direct ``substream``
calls, one ``normal`` call per agent and step, one ``integers`` call per update
step, and one frozenset of update steps per agent. The batched seed derivation
of ``substreams`` is checked against ``np.random.SeedSequence`` bit for bit."""

import random
from collections import Counter

import numpy as np
import pytest

from conftest import small_config
from episwarm import engine, rng
from episwarm.engine import Simulation
from episwarm.likelihood import CategoricalTable, DiscretizedGaussian
from episwarm.rng import (DOMAIN_MUTATION, DOMAIN_PRIOR, DOMAIN_RATING, DOMAIN_SCHEDULE,
                          DOMAIN_TASK, NOISE_BLOCK, Draws, substream, substreams)
from episwarm.spaces import HypothesisSpace, OutcomeSpace

SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 63, 2 ** 64 - 1, -1]
KEYS = [(), (0,), (2 ** 32 - 1, 7), (5, 2 ** 32), (2 ** 40 + 3,), (2 ** 64 + 1, 2)]


def tuple_substream(seed, domain, *keys):
    """The entropy as a tuple of Python ints, which SeedSequence coerces itself."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain)) + tuple(int(k) for k in keys)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class TestSubstream:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_word_entropy_matches_tuple(self, seed):
        for domain in (DOMAIN_TASK, DOMAIN_RATING, DOMAIN_SCHEDULE):
            for keys in KEYS:
                words, tup = substream(seed, domain, *keys), tuple_substream(seed, domain, *keys)
                assert np.array_equal(words.bit_generator.seed_seq.generate_state(8),
                                      tup.bit_generator.seed_seq.generate_state(8))
                assert np.array_equal(words.integers(0, 2 ** 63, 16), tup.integers(0, 2 ** 63, 16))
                assert words.normal(0.0, 1.0, 5).tolist() == tup.normal(0.0, 1.0, 5).tolist()


def seed_sequence(seed, domain, key):
    return np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain)) + tuple(key))


def assert_seeded_as_seed_sequence(seed, domain, keys):
    """Each generator of one ``substreams`` call against its key's SeedSequence:
    the pool, ``generate_state`` requests and the first draws."""
    gens = list(substreams(seed, domain, keys))
    assert len(gens) == len(keys)
    for key, gen in zip(keys, gens):
        want, got = seed_sequence(seed, domain, key), gen.bit_generator.seed_seq
        assert got.pool.tolist() == want.pool.tolist()
        for n in (1, 4, 8, 9):
            for dtype in (np.uint32, np.uint64, np.dtype("<u8")):
                state = got.generate_state(n, dtype)
                assert state.dtype == np.dtype(dtype)
                assert state.tolist() == want.generate_state(n, dtype).tolist()
        direct = np.random.Generator(np.random.PCG64(want))
        assert gen.integers(0, 2 ** 63, 4).tolist() == direct.integers(0, 2 ** 63, 4).tolist()
        assert gen.normal(0.0, 1.0, 3).tolist() == direct.normal(0.0, 1.0, 3).tolist()


class TestBatchedSeedSequence:
    """``substreams`` derives a batch's seed words in one pass; each key's must
    equal its own ``np.random.SeedSequence``'s."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_grid(self, seed):
        for domain in (DOMAIN_TASK, DOMAIN_RATING, DOMAIN_SCHEDULE):
            for keys in KEYS:  # one key a call, then every key of its length in one call
                assert_seeded_as_seed_sequence(seed, domain, [keys])
            for length in {len(keys) for keys in KEYS}:
                assert_seeded_as_seed_sequence(seed, domain, [k for k in KEYS if len(k) == length])
            assert_seeded_as_seed_sequence(seed, domain, KEYS)

    @pytest.mark.parametrize("seed", [0, 2 ** 32 + 5, 2 ** 64 - 1])
    def test_mixed_word_counts_and_duplicates(self, seed):
        keys = [(5,), (2 ** 40,), (5,), (0,), (2 ** 32,), (2 ** 32 - 1,), (2 ** 40,),
                (2 ** 64 - 1,)]
        assert_seeded_as_seed_sequence(seed, DOMAIN_MUTATION, keys)
        assert_seeded_as_seed_sequence(seed, DOMAIN_MUTATION, keys + [(2 ** 64 + 1,)])
        assert_seeded_as_seed_sequence(seed, DOMAIN_PRIOR, [(7, 2 ** 33, 0, 2 ** 32 - 1)] * 2)

    def test_batch_sizes(self):
        assert list(substreams(7, DOMAIN_RATING, [])) == []
        assert_seeded_as_seed_sequence(7, DOMAIN_RATING, [(3,)])
        assert_seeded_as_seed_sequence(7, DOMAIN_RATING, [(i * 2 ** 29 + i,) for i in range(2000)])

    def test_other_dtypes_and_negative_keys_are_refused(self):
        with pytest.raises(ValueError):
            substream(7, DOMAIN_RATING, 3).bit_generator.seed_seq.generate_state(4, np.int64)
        with pytest.raises(ValueError):
            substream(7, DOMAIN_RATING, -1)


@pytest.fixture
def derivations(monkeypatch):
    """Every ``rng.substreams`` call of a run as (step, domain, keys), the step
    None before the first."""
    calls, at, step = [], [None], Simulation.step

    def labelled(sim, t):
        at[0] = t
        return step(sim, t)

    def counted(seed, domain, keys):
        calls.append((at[0], domain, list(keys)))
        return substreams(seed, domain, keys)

    monkeypatch.setattr(Simulation, "step", labelled)
    monkeypatch.setattr(rng, "substreams", counted)
    return calls


def assert_one_call_per_domain_and_step(calls):
    """Each domain's new keys of a step (or of the set-up) are derived in one
    call, so per-key builds fail here."""
    assert calls and max(Counter((t, domain) for t, domain, _ in calls).values()) == 1


class TestRatingNoiseBlocks:
    @pytest.mark.parametrize("sigma", [1e-3, 0.05, 2.0])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40])
    def test_blocks_equal_scalar_draws(self, seed, sigma):
        # ids past the founders grow the arrays; each id reaches its fourth block
        draws = Simulation(small_config(rating={"sigma": sigma}, run={"seed": seed})).draws
        scalar, pick = {}, np.random.default_rng(seed % 97)
        for _ in range(4 * NOISE_BLOCK):
            aids = np.flatnonzero(pick.random(40) < 0.8)
            expected = [scalar.setdefault(aid, substream(seed, DOMAIN_RATING, aid))
                        .normal(0.0, sigma) for aid in aids.tolist()]
            assert draws.rating_noise(aids, sigma).tolist() == expected

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_one_rating_stream_per_drawing_agent(self, sigma, derivations):
        cfg = small_config(rating={"sigma": sigma}, run={"horizon": 2 * NOISE_BLOCK + 3})
        res = engine.simulate(cfg)
        drawn = {aid for r in res.reports for aid in r.agent_ids.tolist()}
        rating = [key for _, domain, keys in derivations if domain == DOMAIN_RATING for key in keys]
        assert len(rating) == (len(drawn) if sigma > 0 else 0)
        assert_one_call_per_domain_and_step(derivations)


def scalar_update_steps(seed, agent_id, start, horizon, bound):
    """One ``integers`` call per update step, until the horizon."""
    rng = substream(seed, DOMAIN_SCHEDULE, agent_id)
    s, steps = start + int(rng.integers(0, bound)), []
    while s < horizon:
        steps.append(s)
        s += 1 + int(rng.integers(0, bound))
    return tuple(steps)


def generated(seed, agent_id, start, horizon, bound):
    """One agent's update steps as ``Draws.update_steps`` gives them."""
    return Draws(seed).update_steps([agent_id], start, horizon, bound)[0]


class TestAsyncCursor:
    @pytest.mark.parametrize("bound", [1, 2, 5, 17, 2 ** 33])
    def test_update_steps_equal_scalar_draws(self, bound):
        for seed in (0, 7919, 2 ** 40):
            for agent_id in range(0, 60, 7):
                for start, horizon in ((0, 300), (5, 40), (39, 40), (40, 40), (50, 40), (0, 1)):
                    assert (generated(seed, agent_id, start, horizon, bound)
                            == scalar_update_steps(seed, agent_id, start, horizon, bound))

    def test_cursor_selects_frozenset_agents(self):
        horizon, bound = 50, 3
        cfg = small_config(evolution={"tau_ext": 0.2, "tau_rep": 0.6, "grace": 3},
                           rating={"sigma": 0.05},
                           run={"horizon": horizon, "mode": "async", "async_bound": bound})
        rng, given = random.Random(11), {}
        for aid in range(1, cfg.population.agents):  # agent 0 falls back to its generated steps
            s, steps = rng.randrange(bound), []
            while s < horizon:
                steps.append(s)
                s += rng.randint(1, bound)
            given[aid] = tuple(steps)
        sim = Simulation(cfg, schedule=given)
        sets = {aid: frozenset(steps) for aid, steps in given.items()}
        sets[0] = frozenset(generated(cfg.run.seed, 0, 0, horizon, bound))
        spawns = 0
        for t in range(horizon):
            pop = sim.population
            for aid, birth in zip(pop.ids.tolist(), pop.birth_steps.tolist()):
                if aid not in sets:
                    sets[aid] = frozenset(generated(cfg.run.seed, aid, birth + 1, horizon, bound))
            expected = [aid for aid in pop.ids.tolist() if t in sets[aid]]
            snap, info, _ = sim.step(t)
            assert (info.report.agent_ids.tolist() if info.report else []) == expected, t
            assert snap.active_count == len(expected)
            spawns += snap.spawns
        assert spawns > 0 and len(sets) > cfg.population.agents


class TestDrawsReplay:
    """Each ``Draws`` method against direct ``substream`` calls, over a grid of
    seeds, ids and steps."""

    SEEDS = [0, 7, 7919, 2 ** 40, 2 ** 64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_task_is_the_task_stream(self, seed):
        draws, direct = Draws(seed), substream(seed, DOMAIN_TASK)
        assert draws.task is draws.task
        assert draws.task.random(16).tolist() == direct.random(16).tolist()
        space = HypothesisSpace.indexed(3)
        table = CategoricalTable(space, OutcomeSpace.indexed(3), [[0.7, 0.2, 0.1]] * 3)
        gauss = DiscretizedGaussian(space, [0.0, 1.0, 2.0], 1.0, [-9.0, 0.5, 1.5, 9.0])
        for t in range(50):
            for model in (table, gauss):
                got, want = model.emit(t % 3, draws.task, t), model.emit(t % 3, direct, t)
                assert (got.datum, got.truth_label) == (want.datum, want.truth_label)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_priors_are_founder_streams(self, seed):
        for k, n in ((2, 1), (5, 7), (100, 3)):
            alpha = np.linspace(0.5, 2.0, k)
            rows = Draws(seed).priors(n, alpha)
            assert rows.shape == (n, k)
            for i in range(n):
                direct = substream(seed, DOMAIN_PRIOR, i).dirichlet(alpha)
                assert rows[i].tolist() == direct.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutation_is_one_row_per_child_stream(self, seed):
        draws = Draws(seed)
        for child_ids, k in (([8], 2), ([9, 10, 11, 12], 5), (np.arange(40, 140, 9), 100)):
            rows = draws.mutation(np.asarray(child_ids), k)
            assert rows.shape == (len(child_ids), k)
            for cid, row in zip(np.asarray(child_ids).tolist(), rows):
                direct = substream(seed, DOMAIN_MUTATION, cid).standard_normal(k)
                assert row.tolist() == direct.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rating_noise_is_each_agents_stream_after_drops(self, seed):
        # agents drop out and new ids join, as deaths and splits make them
        draws, scalar = Draws(seed), {}
        live, next_id, pick = list(range(12)), 12, np.random.default_rng(seed % 89)
        for step in range(3 * NOISE_BLOCK):
            aids = np.array([aid for aid in live if pick.random() < 0.7], dtype=np.int64)
            if len(aids):
                expected = [scalar.setdefault(aid, substream(seed, DOMAIN_RATING, aid))
                            .normal(0.0, 0.3) for aid in aids.tolist()]
                assert draws.rating_noise(aids, 0.3).tolist() == expected, step
            if step % 17 == 16:
                dead, live = live[:2], live[2:] + [next_id, next_id + 1]
                next_id += 2
                draws.drop(dead)
                assert not set(dead) & set(draws._rating)
        assert set(draws._rating) <= set(live)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_update_steps_are_each_agents_stream(self, seed):
        ids = [0, 3, 4, 2 ** 32 + 1]
        for start, horizon, bound in ((0, 120, 5), (7, 30, 1), (29, 30, 3), (40, 30, 2)):
            assert (Draws(seed).update_steps(ids, start, horizon, bound)
                    == [scalar_update_steps(seed, aid, start, horizon, bound) for aid in ids])

    def test_simulate_builds_each_stream_once_per_domain_key(self, derivations):
        # one run's builds: the task stream once, one prior stream per founder,
        # one rating stream per drawing agent, one mutation stream per child
        # and one schedule stream per agent, generated founders and children
        cfg = small_config(evolution={"tau_ext": 0.2, "tau_rep": 0.6, "grace": 3},
                           rating={"sigma": 0.05}, run={"horizon": 40, "mode": "async"})
        res = engine.simulate(cfg)
        assert_one_call_per_domain_and_step(derivations)
        built = [(domain, key) for _, domain, keys in derivations for key in keys]
        assert len(built) == len(set(built))
        by_domain = {d: [k for dom, k in built if dom == d] for d in range(1, 6)}
        ids = {aid for q in res.statelog for aid in q[:, 0].tolist()}
        children = sorted(aid for aid in ids if aid >= cfg.population.agents)
        assert by_domain[DOMAIN_TASK] == [()]
        assert by_domain[DOMAIN_PRIOR] == [(i,) for i in range(cfg.population.agents)]
        assert sorted(by_domain[DOMAIN_MUTATION]) == [(aid,) for aid in children]
        assert sorted(by_domain[DOMAIN_SCHEDULE]) == [(aid,) for aid in sorted(ids)]
        drawn = {aid for r in res.reports for aid in r.agent_ids.tolist()}
        assert sorted(by_domain[DOMAIN_RATING]) == [(aid,) for aid in sorted(drawn)]
        assert children

    def test_empty_batches(self):
        # no agents: empty rows of the right width, and no draw is moved
        draws, alpha = Draws(7), np.ones(5)
        assert draws.rating_noise(np.empty(0, np.int64), 0.1).shape == (0,)
        assert draws.mutation(np.empty(0, np.int64), 5).shape == (0, 5)
        assert draws.mutation([], 5).shape == (0, 5)
        assert draws.priors(0, alpha).shape == (0, 5)
        assert draws.update_steps([], 0, 10, 3) == []
        assert (draws.rating_noise(np.array([3]), 0.1).tolist()
                == [substream(7, DOMAIN_RATING, 3).normal(0.0, 0.1, NOISE_BLOCK)[0]])
