"""Substream seeding and the engine's array-held random state, each against
its one-call-per-draw definition: the tuple SeedSequence, one ``normal`` call
per agent and step, one ``integers`` call per update step, and one frozenset of
update steps per agent."""

import random

import numpy as np
import pytest

from conftest import small_config
from episwarm import engine
from episwarm.engine import NOISE_BLOCK, Simulation, generate_update_steps
from episwarm.rng import DOMAIN_RATING, DOMAIN_SCHEDULE, DOMAIN_TASK, substream

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


class TestRatingNoiseBlocks:
    @pytest.mark.parametrize("sigma", [1e-3, 0.05, 2.0])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40])
    def test_blocks_equal_scalar_draws(self, seed, sigma):
        # ids past the founders grow the arrays; each id reaches its fourth block
        sim = Simulation(small_config(rating={"sigma": sigma}, run={"seed": seed}))
        scalar, pick = {}, np.random.default_rng(seed % 97)
        for _ in range(4 * NOISE_BLOCK):
            aids = np.flatnonzero(pick.random(40) < 0.8)
            expected = [scalar.setdefault(aid, substream(seed, DOMAIN_RATING, aid))
                        .normal(0.0, sigma) for aid in aids.tolist()]
            assert sim._rating_noise(aids, sigma).tolist() == expected

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_one_rating_stream_per_drawing_agent(self, sigma, monkeypatch):
        domains = []

        def counted(seed, domain, *keys):
            domains.append(domain)
            return substream(seed, domain, *keys)

        monkeypatch.setattr(engine, "substream", counted)
        cfg = small_config(rating={"sigma": sigma}, run={"horizon": 2 * NOISE_BLOCK + 3})
        res = engine.simulate(cfg)
        drawn = {aid for r in res.reports for aid in r.agent_ids.tolist()}
        assert domains.count(DOMAIN_RATING) == (len(drawn) if sigma > 0 else 0)


def scalar_update_steps(seed, agent_id, start, horizon, bound):
    """One ``integers`` call per update step, until the horizon."""
    rng = substream(seed, DOMAIN_SCHEDULE, agent_id)
    s, steps = start + int(rng.integers(0, bound)), []
    while s < horizon:
        steps.append(s)
        s += 1 + int(rng.integers(0, bound))
    return tuple(steps)


class TestAsyncCursor:
    @pytest.mark.parametrize("bound", [1, 2, 5, 17, 2 ** 33])
    def test_update_steps_equal_scalar_draws(self, bound):
        for seed in (0, 7919, 2 ** 40):
            for agent_id in range(0, 60, 7):
                for start, horizon in ((0, 300), (5, 40), (39, 40), (40, 40), (50, 40), (0, 1)):
                    assert (generate_update_steps(seed, agent_id, start, horizon, bound)
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
        sets[0] = frozenset(generate_update_steps(cfg.run.seed, 0, 0, horizon, bound))
        spawns = 0
        for t in range(horizon):
            pop = sim.population
            for aid, birth in zip(pop.ids.tolist(), pop.birth_steps.tolist()):
                if aid not in sets:
                    sets[aid] = frozenset(generate_update_steps(cfg.run.seed, aid, birth + 1,
                                                                horizon, bound))
            expected = [aid for aid in pop.ids.tolist() if t in sets[aid]]
            snap, info, _ = sim.step(t)
            assert (info.report.agent_ids.tolist() if info.report else []) == expected, t
            assert snap.active_count == len(expected)
            spawns += snap.spawns
        assert spawns > 0 and len(sets) > cfg.population.agents
