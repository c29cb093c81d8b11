import dataclasses
import errno
import hashlib
import math
import os
import signal
import sys

import numpy as np
import pytest

from conftest import json_lines, small_config, statelog_rows
from episwarm import competition, engine, ledger
from episwarm.competition import MarginMatrix, margin_entries
from episwarm.config import from_dict, set_param
from episwarm.engine import (SWEEP_OBSERVABLES, Simulation, default_schedule, run, simulate,
                             sweep, write_artifacts)
from episwarm.errors import (ConfigError, InvariantViolation, PopulationCollapse,
                             ScheduleViolation, ShapeMismatch)
from episwarm.ledger import (VERSION_PREFIX, audit_artifacts, encode_quantized,
                             verify_artifacts, write_state_log)
from episwarm.rng import DOMAIN_RATING, Draws, substream


class TestDeterminism:
    def test_identical_seeds_identical_runs(self, small_cfg):
        a = simulate(small_cfg)
        b = simulate(small_cfg)
        assert [dataclasses.asdict(m) for m in a.metrics] == \
               [dataclasses.asdict(m) for m in b.metrics]
        assert statelog_rows(a.statelog) == statelog_rows(b.statelog)
        assert {k: v.entries for k, v in a.chains.items()} == \
               {k: v.entries for k, v in b.chains.items()}

    def test_different_seeds_differ(self):
        a = simulate(small_config(run={"seed": 1, "horizon": 30}))
        b = simulate(small_config(run={"seed": 2, "horizon": 30}))
        assert [m.rating_mass for m in a.metrics] != [m.rating_mass for m in b.metrics]


class TestStepInvariants:
    def test_zero_sum_and_mass_accounting(self, small_cfg):
        lam = small_cfg.evolution.lam
        checked = {"steps": 0}

        def on_step(sim, snap, info):
            checked["steps"] += 1
            if info.report is not None:
                assert abs(float(info.report.aggregate.sum())) < 1e-9
                s = info.report.log_scores
                m = MarginMatrix(len(s), margin_entries(s)).entries  # checks skew symmetry
                assert np.array_equal(m, -m.T)
            # mass decomposition: update deltas + clamp residue
            # + split attenuation + extinction removals
            lhs = info.mass_after - info.mass_before
            rhs = (info.rating_delta_sum + info.clamp_residue_signed
                   + (2 * lam - 1) * info.split_parent_rating_sum
                   - info.removed_rating_sum)
            assert lhs == pytest.approx(rhs, abs=1e-9)

        simulate(small_cfg, on_step=on_step)
        assert checked["steps"] == small_cfg.run.horizon

    def test_population_within_cap(self):
        cfg = small_config(evolution={"tau_rep": 0.55, "n_star": 12},
                           run={"horizon": 80})
        res = simulate(cfg)
        assert all(m.population_size <= 12 for m in res.metrics)
        assert all(m.population_size >= 1 for m in res.metrics)

    def test_rating_noise_past_the_float_range_raises(self):
        # sigma = 1e308 makes the rating sums inf or NaN at the first step; a
        # run that went on would write NaN and Infinity into metrics.jsonl
        cfg = from_dict({"rating": {"sigma": 1e308}})
        with pytest.raises(InvariantViolation,
                           match="rating noise left the float range at step 0"):
            simulate(cfg)

    def test_snapshot_mass_matches_ratings(self, small_cfg):
        def on_step(sim, snap, info):
            assert snap.rating_mass == pytest.approx(
                float(sim.population.ratings.sum()), abs=1e-9)
            assert snap.population_size == len(sim.population)

        simulate(small_cfg, on_step=on_step)


class TestScoringWithoutMatrix:
    def test_report_margins_match_log_scores(self, small_cfg):
        seen = {"reports": 0}

        def on_step(sim, snap, info):
            if info.report is not None:
                seen["reports"] += 1
                s = info.report.log_scores
                m = MarginMatrix(len(s), margin_entries(s)).entries
                assert info.report.aggregate.tobytes() == m.sum(axis=1).tobytes()

        simulate(small_cfg, on_step=on_step)
        assert seen["reports"] == small_cfg.run.horizon

    def test_no_step_builds_the_margin_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a step built the margin matrix")

        monkeypatch.setattr(competition, "margin_entries", forbidden)
        monkeypatch.setattr(engine, "MarginMatrix", forbidden)
        cfg = small_config(population={"agents": 150}, evolution={"n_star": 300},
                           run={"horizon": 10})
        res = simulate(cfg)
        assert len(res.reports) == 10
        assert len(res.reports[0].aggregate) == 150

    def test_perturbed_aggregate_raises_invariant_violation(self, small_cfg, monkeypatch):
        honest = engine.aggregate_utility

        def perturbed(scores):
            u = honest(scores)
            u[0] += 1e-6
            return u

        monkeypatch.setattr(engine, "aggregate_utility", perturbed)
        with pytest.raises(InvariantViolation, match="zero-sum at step 0") as exc:
            simulate(small_cfg)
        assert exc.value.step == 0


class TestEngineMatchesModuleOps:
    """The engine's step against a brute force written out here in plain
    Python: loops over hypotheses and outcomes, math.log and math.tanh."""

    @pytest.mark.parametrize("beta", [0.0, 0.7])
    def test_belief_scores_and_strengths(self, beta):
        cfg = small_config(inference={"beta": beta, "alpha_strength": 0.9, "gain_cap": 1.1},
                           rating={"sigma": 0.05},
                           evolution={"tau_rep": 1.0, "tau_ext": 0.0},
                           run={"horizon": 5})
        sim = Simulation(cfg)
        probe = Simulation(cfg)  # same task stream: peeks each step's observation
        table = sim.model.rows.tolist()  # P(y | h)
        oracle = sim.oracle.tolist()
        k, n_out = len(table), len(table[0])
        icfg, rcfg = sim.inference_cfg, sim.rating_cfg
        noise_rngs = {}
        clamped = 0.0
        capped = []
        for t in range(cfg.run.horizon):
            pop = sim.population
            ids = pop.ids.tolist()
            priors = pop.belief_matrix.tolist()
            ratings = pop.ratings.tolist()
            strengths = pop.strengths.tolist()
            obs = probe.model.emit(cfg.task.true_hypothesis, probe.draws.task, t)
            y = obs.truth_label

            snap, info, rows = sim.step(t)
            report = info.report

            # scores: predictive mixture, expected loss, log score, margins
            preds = []
            for b in priors:
                mix = [sum(b[h] * table[h][o] for h in range(k)) for o in range(n_out)]
                preds.append([m / sum(mix) for m in mix])
            losses = [sum(p[o] * oracle[o][y] for o in range(n_out)) for p in preds]
            margins = [[math.log(p[y]) - math.log(q[y]) for q in preds] for p in preds]
            agg = [sum(row) for row in margins]
            assert np.allclose(report.losses, losses, atol=1e-12)
            assert np.allclose(report.log_scores, [-math.log(p[y]) for p in preds], atol=1e-12)
            assert np.allclose(report.fitness, [1.0 / (1.0 + x) for x in losses], atol=1e-12)
            assert np.allclose(margin_entries(report.log_scores), margins, atol=1e-12)
            assert np.allclose(report.aggregate, agg, atol=1e-12)

            # ratings: tanh gradient, harmonic step, each agent's own noise
            # stream, projection onto [0, 1] and the clamp residue
            scale = max(1.0, max(abs(u) for u in agg))
            residue = 0.0
            for i, aid in enumerate(ids):
                rng = noise_rngs.setdefault(aid, substream(cfg.run.seed, DOMAIN_RATING, aid))
                grad = math.tanh(rcfg.shape_scale * agg[i] / scale)
                raw = ratings[i] + grad / (t + 1) + rng.normal(0.0, rcfg.sigma)
                new = min(max(raw, 0.0), 1.0)
                residue += abs(new - raw)
                assert sim.population.ratings[i] == pytest.approx(new, abs=1e-12)
            assert snap.clamp_residue == pytest.approx(residue, abs=1e-12)
            clamped += residue

            # tilted posterior, information gain and strength
            like = [table[h][obs.datum] for h in range(k)]
            for i, prior in enumerate(priors):
                w = [prior[h] * like[h] * ((1.0 / k) / prior[h]) ** beta for h in range(k)]
                post = [x / sum(w) for x in w]
                assert np.allclose(sim.population.belief_matrix[i], post, atol=1e-12)
                gain = sum(q * math.log(q / p) for q, p in zip(post, prior) if q > 0)
                ratio = min(icfg.alpha_strength * (1.0 + gain), icfg.gain_cap)
                capped.append(ratio == icfg.gain_cap)
                assert sim.population.strengths[i] == pytest.approx(strengths[i] * ratio,
                                                                    rel=1e-12)
        # both sides of the projection and of the strength cap were exercised
        assert clamped > 0.0
        assert any(capped) and not all(capped)


class TestRegimes:
    def test_single_agent_gradient_zero(self):
        cfg = small_config(population={"agents": 1}, rating={"sigma": 0.0},
                           evolution={"tau_rep": 1.0, "tau_ext": 0.0},
                           run={"horizon": 20})
        res = simulate(cfg)
        # rating never moves; belief updates and ledger growth continue
        assert all(m.rating_mass == pytest.approx(0.5) for m in res.metrics)
        assert len(res.chains[0].entries) == 20
        assert res.metrics[-1].mean_entropy < res.metrics[0].mean_entropy

    def test_two_agent_persistent_ordering(self):
        cfg = small_config(
            space={"hypotheses": 2}, outcomes=2,
            likelihood={"kind": "categorical", "rows": [[0.8, 0.2], [0.2, 0.8]]},
            population={"agents": 2, "prior": "uniform"},
            rating={"sigma": 0.0},
            evolution={"tau_rep": 1.0, "tau_ext": 0.0},
            run={"horizon": 100})
        sim = Simulation(cfg)
        # agent 0 gets a prior leaning toward the true hypothesis
        sim.population.belief_matrix[0] = np.array([0.9, 0.1])
        sim.population.belief_matrix[1] = np.array([0.5, 0.5])
        for t in range(cfg.run.horizon):
            sim.step(t)
            r = {int(a): float(x) for a, x in zip(sim.population.ids, sim.population.ratings)}
            assert r[0] >= r[1]
        assert r[0] > r[1]

    def test_empty_observation_schedule(self):
        cfg = small_config(task={"true_hypothesis": None, "observations": []},
                           run={"horizon": 15})
        res = simulate(cfg)
        assert len(res.metrics) == 15
        assert res.metrics[-1].mean_entropy == pytest.approx(res.metrics[0].mean_entropy)
        assert all(m.rating_mass == pytest.approx(8 * 0.5) for m in res.metrics)

    def test_collapse_halts_run(self):
        # uniform priors: identical predictions, zero gradients, everyone stays at
        # r0 = 0.5 <= tau_ext and the whole population is removed at step 0
        cfg = small_config(population={"prior": "uniform"},
                           evolution={"tau_ext": 0.99, "tau_rep": 0.995, "grace": 1},
                           run={"horizon": 10})
        with pytest.raises(PopulationCollapse):
            simulate(cfg)


class TestRatingGenerators:
    def test_dead_agents_generators_freed(self):
        cfg = small_config(evolution={"tau_ext": 0.2, "tau_rep": 0.6, "grace": 3},
                           rating={"sigma": 0.05}, run={"horizon": 40})
        sim = Simulation(cfg)
        spawns = deaths = 0
        for t in range(cfg.run.horizon):
            snap = sim.step(t)[0]
            spawns, deaths = spawns + snap.spawns, deaths + snap.deaths
            assert set(sim.draws._rating) <= set(sim.population.ids.tolist())
        assert spawns > 0 and deaths > 0 and len(sim.draws._rating) > 0


class TestGoldenRun:
    # RNG-free pipeline golden: uniform priors, explicit observations, zero
    # noise and mutation. Pins the step order, belief arithmetic, quantization,
    # and chain construction end to end, independent of any generator stream.
    GOLDEN_HEADS = {
        0: "1bccbe16eee4429e4b363f21e3f7af94e734b3f4d87e1f1e40cb4357801de9dc",
        1: "da9f861f25e23dc1ae0d47ddc4707cff76325054ee7f52e9b3854ab58474cad7",
        2: "769200c546de10379e7ce6e68f53d10e894fd98dbf9667e9d7cfdedab1371495",
        3: "9bf6142d13ba91c56a5e377e4bedb5fadc8a0c3082cd2787dabd0db724215dfb",
    }

    def test_rng_free_run_matches_golden_digests(self):
        cfg = from_dict({
            "space": {"hypotheses": 3},
            "outcomes": 3,
            "likelihood": {"kind": "categorical",
                           "rows": [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1],
                                    [0.25, 0.25, 0.5]]},
            "task": {"true_hypothesis": None,
                     "observations": [[0, 0], [1, 1], [0, 0], [2, 2]]},
            "population": {"agents": 4, "prior": "uniform"},
            "rating": {"r0": 0.5, "sigma": 0.0, "schedule": "constant", "alpha": 0.1},
            "evolution": {"tau_rep": 1.0, "tau_ext": 0.0, "sigma_mut": 0.0},
            "run": {"horizon": 4, "seed": 0},
        })
        res = simulate(cfg)
        heads = {aid: chain.entries[-1][1].hex() for aid, chain in res.chains.items()}
        assert heads == self.GOLDEN_HEADS
        assert res.metrics[-1].rating_mass == 2.0


class TestArtifactDigests:
    """Byte-level guard: SHA-256 of all five artifacts of a short seeded run of
    the default scenario in which spawns, deaths, rating noise, clamping and
    mutation all occur.

    Floats are written as shortest round-trip text, so any change in how a
    value is computed (summation order, ``np.tanh`` for ``math.tanh``) shows
    here, while the RNG-free chain heads above and the determinism check C11
    (two runs of the same code) would not see it. A change that alters seeded
    trajectories on purpose regenerates these: run the scenario below through
    ``simulate`` and ``write_artifacts``, paste the new ``sha256`` of each
    file, and record old and new digests in CHANGES.md.
    """

    DIGESTS = {
        "ledger.tsv": "d3921c41c95b26debade160d6257372ccc81b50aae7d5c30ec76332087c084ce",
        "metrics.jsonl": "100938cef25e0b46087f11ee38e998d945e641040463cfd2e9a1ab1e3cb7d0d6",
        "scores.jsonl": "70884228005079e044083ca100f8214d9467c4366512cb7062c0b4cbcf465f3d",
        "statelog.jsonl": "e64a0236d3fe8cfc1594c736ef647999d6e35789b3c4595a232234b07a098f14",
        "summary.csv": "b0839e7e488425aed8842b10f0be18547feae2fd01411fdd44d9bb53d6fa27e7",
    }

    def test_default_scenario_artifacts(self, tmp_path):
        cfg = from_dict({"run": {"horizon": 40, "seed": 0}})
        assert cfg.rating.sigma > 0 and cfg.evolution.sigma_mut > 0
        res = simulate(cfg)
        assert sum(m.spawns for m in res.metrics) > 0
        assert sum(m.deaths for m in res.metrics) > 0
        assert max(m.clamp_residue for m in res.metrics) > 0
        paths = write_artifacts(res, str(tmp_path))
        digests = {os.path.basename(path): hashlib.sha256(open(path, "rb").read()).hexdigest()
                   for path in paths.values()}
        assert digests == self.DIGESTS



class TestAsyncArtifactDigests:
    """Byte-level guard for an asynchronous run: each ``scores.jsonl`` row
    names a strict subset of the population, and spawns, deaths and clamping
    occur. Regenerate as ``TestArtifactDigests`` says, with the run below."""

    DIGESTS = {
        "ledger.tsv": "5b950ef092fee089d11b497a5ef8a608b6a4e85752946d97e69334455d2b0d12",
        "metrics.jsonl": "542b02d529ee6364d12cd75cd1d78fdb1c16910e12b38279f9dcf7553ea54015",
        "scores.jsonl": "6ae38545a71ab1b4e2dd4a97116433da568bd0cc48d43c6d7e865b4baf81a8d1",
        "statelog.jsonl": "f9c0e8b2c8e680f07f0aa4e547be1fa0cc160b9995904db5241d6fab8e3b0394",
        "summary.csv": "2871520688d271820a14e832484c23645fae9a4ba16fc26c0f99df846ee2c3f4",
    }

    def test_async_scenario_artifacts(self, tmp_path):
        cfg = small_config(run={"horizon": 40, "seed": 0, "mode": "async", "async_bound": 3})
        for name, schedule in (("given", default_schedule(cfg)), ("generated", None)):
            res = simulate(cfg, schedule=schedule)
            assert sum(m.spawns for m in res.metrics) > 0
            assert sum(m.deaths for m in res.metrics) > 0
            assert max(m.clamp_residue for m in res.metrics) > 0
            assert any(m.active_count < m.population_size for m in res.metrics)
            paths = write_artifacts(res, str(tmp_path / name))
            digests = {os.path.basename(path):
                       hashlib.sha256(open(path, "rb").read()).hexdigest()
                       for path in paths.values()}
            assert digests == self.DIGESTS


def score_rows(reports):
    """The scores.jsonl rows of ``reports``, built without the writer."""
    return [{"step": r.step, "agent_ids": r.agent_ids.tolist(), "losses": r.losses.tolist(),
             "log_scores": r.log_scores.tolist(), "fitness": r.fitness.tolist(),
             "aggregate": r.aggregate.tolist()} for r in reports]


class TestScoreRows:
    """scores.jsonl prints each distinct bit pattern of a column once; its
    bytes must equal json.dumps of every row."""

    def write(self, res, tmp_path):
        return open(write_artifacts(res, str(tmp_path))["scores"], "rb").read()

    def test_async_run_rows(self, tmp_path):
        cfg = small_config(run={"horizon": 40, "mode": "async", "async_bound": 3})
        res = simulate(cfg)
        assert self.write(res, tmp_path) == json_lines(score_rows(res.reports))

    def test_signed_zeros_nans_and_infinities(self, tmp_path):
        res = simulate(small_config(run={"horizon": 2}))
        other_nan = np.array([0x7FF8000000000001, -0x0008000000000000], np.int64).view(np.float64)
        values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 0.1, np.nan,
                           *other_nan, -np.inf, 1e300, 0.1])
        n = len(values)
        reports = [
            competition.ScoreReport(step=3, agent_ids=np.arange(n) * 7, losses=values,
                                    fitness=values[::-1], log_scores=np.sort(values),
                                    aggregate=-values),
            competition.ScoreReport(step=4, agent_ids=np.empty(0, np.int64), losses=np.empty(0),
                                    fitness=np.empty(0), log_scores=np.empty(0),
                                    aggregate=np.empty(0)),
            competition.ScoreReport(step=5, agent_ids=np.array([2 ** 62]),
                                    losses=np.array([-0.0]), fitness=np.array([0.0]),
                                    log_scores=np.array([np.nan]), aggregate=np.array([-np.inf])),
        ]
        res = dataclasses.replace(res, reports=reports)
        text = self.write(res, tmp_path)
        assert text == json_lines(score_rows(reports))
        assert b"-0.0," in text and b"NaN" in text and b"-Infinity" in text


def artifact_bytes(paths):
    out = {}
    for name, path in paths.items():
        with open(path, "rb") as f:
            out[name] = f.read()
    return out


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWriter:
    """write_artifacts writes metrics.jsonl and scores.jsonl in a forked child
    while this process writes the rest: the child is reaped on every path, its
    errors are raised here, and this process's stdio buffers are written once."""

    @pytest.fixture(scope="class")
    def res(self):
        return simulate(small_config(run={"horizon": 10}))

    def test_no_child_outlives_a_return(self, res, tmp_path):
        write_artifacts(res, str(tmp_path))
        no_child_left()

    @pytest.mark.parametrize("name", ["scores.jsonl", "statelog.jsonl"])  # child's, parent's
    def test_write_error_raised_here_and_child_reaped(self, res, tmp_path, name):
        (tmp_path / name).mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write_artifacts(res, str(tmp_path))
        assert info.value.filename == str(tmp_path / name)
        no_child_left()

    def test_child_errors_come_back(self, res, tmp_path, monkeypatch):
        def fail(a):
            raise ShapeMismatch("column")

        monkeypatch.setattr(engine, "_float_texts", fail)
        with pytest.raises(ShapeMismatch, match="column"):
            write_artifacts(res, str(tmp_path / "package"))

        class Local(Exception):  # cannot be pickled by reference
            pass

        def fail_unpicklably(a):
            raise Local("column")

        monkeypatch.setattr(engine, "_float_texts", fail_unpicklably)
        with pytest.raises(RuntimeError, match="Local: column"):
            write_artifacts(res, str(tmp_path / "local"))
        caller = os.getpid()

        def die(a):
            assert os.getpid() != caller, "the scores are written in the caller"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(engine, "_float_texts", die)
        with pytest.raises(ChildProcessError, match=f"status {-signal.SIGKILL}"):
            write_artifacts(res, str(tmp_path / "killed"))
        no_child_left()

    def test_both_failing_raise_the_childs_error(self, monkeypatch):
        # errors come out as if the child's part and then the caller's had run
        # in turn, forked or not
        def child():
            raise ShapeMismatch("child")

        def parent():
            raise ValueError("parent")

        with pytest.raises(ShapeMismatch, match="^child$"):
            ledger._alongside(child, parent)
        no_child_left()
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ShapeMismatch, match="^child$"):
            ledger._alongside(child, parent)
        no_child_left()

    def test_unflushed_stdout_written_once(self, res, tmp_path, capfd, monkeypatch):
        stream = open(os.dup(1), "w", encoding="ascii")  # buffered, not a tty
        monkeypatch.setattr(sys, "stdout", stream)
        print("written before the fork", end="")
        write_artifacts(res, str(tmp_path))
        stream.close()
        assert capfd.readouterr().out == "written before the fork"

    def test_same_bytes_without_fork(self, res, tmp_path, monkeypatch):
        forked = artifact_bytes(write_artifacts(res, str(tmp_path / "forked")))
        monkeypatch.delattr(os, "fork")
        assert artifact_bytes(write_artifacts(res, str(tmp_path / "inline"))) == forked

    def test_fork_failure_runs_both_here(self, res, tmp_path, monkeypatch):
        # os.fork raising OSError, as it does with no free process or memory:
        # the writers, and verify's two halves, run one after the other here
        forked = write_artifacts(res, str(tmp_path / "forked"))
        with open(forked["statelog"], encoding="ascii") as f:
            lines = f.readlines()
        i, j = len(lines) // 3, 2 * len(lines) // 3
        lines[i], lines[j] = lines[j], lines[i]
        tampered = str(tmp_path / "tampered.jsonl")
        with open(tampered, "w", encoding="ascii") as f:
            f.writelines(lines)
        states = (forked["statelog"], tampered)
        expected = [audit_artifacts(forked["ledger"], s) for s in states]  # one pass
        assert expected[0][0] == [] and expected[1][0]
        tries = []

        def fail():
            tries.append(1)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fail)
        monkeypatch.setattr(ledger, "_BLOCK_BYTES", 300)  # verify takes the two-process path
        inline = write_artifacts(res, str(tmp_path / "inline"))
        assert artifact_bytes(inline) == artifact_bytes(forked)
        assert [audit_artifacts(inline["ledger"], s) for s in states] == expected
        assert len(tries) == 3


class TestLedgerIntegration:
    def test_every_chain_replays_clean(self, small_cfg):
        from episwarm.ledger import encode_quantized, verify_chain

        res = simulate(small_cfg)
        replay = {}
        for row in statelog_rows(res.statelog):
            enc = encode_quantized(row["agent_id"], row["step"], row["belief_q"],
                                   row["rating_q"], row["strength_q"], row["parent_id"],
                                   row["birth_step"])
            replay.setdefault(row["agent_id"], []).append(enc)
        assert set(replay) == set(res.chains)
        for agent_id, chain in res.chains.items():
            assert verify_chain(chain, replay[agent_id]) is None

    def test_kernel_convolution_run_verifies(self, tmp_path):
        cfg = small_config(space={"embedding": [[0.0], [1.0], [2.0], [3.0], [4.0]]},
                           evolution={"mutation_kind": "kernel-convolution", "sigma_mut": 0.8},
                           run={"horizon": 40, "out_dir": str(tmp_path)})
        res, _ = run(cfg)
        assert sum(m.spawns for m in res.metrics) > 0
        assert verify_artifacts(tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl") == []

    def test_chain_steps_cover_agent_lifetime(self, small_cfg):
        res = simulate(small_cfg)
        for agent_id, chain in res.chains.items():
            steps = [s for s, _ in chain.entries]
            # one commit per step from first appearance to removal, no gaps
            assert steps == list(range(steps[0], steps[-1] + 1))


@pytest.fixture(scope="module")
def k100_async_run():
    """K = 100 asynchronous run in which agents spawn, so parent ids mix -1
    (initial agents) with real ids."""
    cfg = small_config(space={"hypotheses": 100}, outcomes=100, population={"agents": 12},
                       run={"horizon": 40, "mode": "async", "async_bound": 3})
    res = simulate(cfg, schedule=default_schedule(cfg))
    assert sum(m.spawns for m in res.metrics) > 0
    assert any(m.active_count < m.population_size for m in res.metrics)
    return res


class TestColumnarState:
    def test_matrix_rows_encode_like_field_encoder(self, k100_async_run):
        res = k100_async_run
        rows = statelog_rows(res.statelog)
        flat = [r for q in res.statelog for r in q]
        assert len(flat) == len(rows) == sum(m.population_size for m in res.metrics)
        for r, row in zip(flat, rows):
            assert VERSION_PREFIX + r.tobytes() == encode_quantized(**row)
        parents = {row["parent_id"] for row in rows}
        assert -1 in parents and len(parents) > 1
        # the last step's rows name the final population's fields
        pop = res.population
        last = rows[-len(pop):]
        assert [r["agent_id"] for r in last] == pop.ids.tolist()
        assert [r["parent_id"] for r in last] == pop.parent_ids.tolist()
        assert [r["birth_step"] for r in last] == pop.birth_steps.tolist()
        assert [r["rating_q"] for r in last] == np.rint(pop.ratings / 1e-6).astype(int).tolist()
        assert [r["belief_q"] for r in last] == \
            np.rint(pop.belief_matrix / 1e-9).astype(int).tolist()

    def test_state_log_bytes_match_json_rows(self, k100_async_run, tmp_path):
        res = k100_async_run
        path = tmp_path / "statelog.jsonl"
        write_state_log(path, res.statelog)
        assert path.read_bytes() == json_lines(statelog_rows(res.statelog))

    def test_simulate_commits_without_per_row_encoder(self, monkeypatch):
        def per_row(*args, **kwargs):
            raise AssertionError("per-row ledger path called")

        monkeypatch.setattr(engine, "encode_quantized", per_row)
        monkeypatch.setattr(engine, "commit", per_row)
        cfg = small_config(run={"horizon": 15})
        res = simulate(cfg)
        assert len(res.metrics) == 15
        assert sum(len(c.entries) for c in res.chains.values()) == \
            sum(m.population_size for m in res.metrics)


class TestAsync:
    def test_generated_steps_satisfy_bound(self):
        for bound in (1, 3, 7):
            steps = Draws(9).update_steps([4], start=0, horizon=200, bound=bound)[0]
            assert steps[0] < bound
            gaps = [b - a for a, b in zip(steps, steps[1:])]
            assert all(1 <= g <= bound for g in gaps)
            assert 200 - steps[-1] <= bound

    def test_bound_one_matches_sync_exactly(self):
        cfg = small_config(run={"horizon": 40})
        sync = simulate(cfg)
        async_res = simulate(small_config(run={"horizon": 40, "mode": "async",
                                               "async_bound": 1}))
        assert [dataclasses.asdict(m) for m in sync.metrics] == \
               [dataclasses.asdict(m) for m in async_res.metrics]
        assert statelog_rows(sync.statelog) == statelog_rows(async_res.statelog)

    def test_schedule_violation_double_gap(self):
        bound = 5
        cfg = small_config(run={"horizon": 40, "mode": "async", "async_bound": bound})
        steps = tuple(range(0, 40, 2 * bound))  # gap 2B
        with pytest.raises(ScheduleViolation):
            simulate(cfg, schedule={0: steps})

    def test_schedule_violation_late_first_update(self):
        cfg = small_config(run={"horizon": 12, "mode": "async", "async_bound": 3})
        with pytest.raises(ScheduleViolation):
            Simulation(cfg, schedule={0: (5, 8, 11)})

    @pytest.mark.parametrize("steps,message", [
        ((), "empty update set"),
        ((0, 2, 2, 5, 8, 11), "update steps must be strictly increasing"),
        ((0, 3, 6), "no update in final window before horizon 12"),
    ], ids=["empty", "repeated_step", "final_window"])
    def test_schedule_violation_names_the_founder(self, steps, message):
        cfg = small_config(run={"horizon": 12, "mode": "async", "async_bound": 3})
        with pytest.raises(ScheduleViolation, match=f"^agent 0: {message}$"):
            Simulation(cfg, schedule={0: steps})

    def test_inactive_agents_frozen(self):
        cfg = small_config(rating={"sigma": 0.0},
                           evolution={"tau_rep": 1.0, "tau_ext": 0.0},
                           population={"agents": 2, "prior": "uniform"},
                           run={"horizon": 6, "mode": "async", "async_bound": 3})
        # agent 1 updates only every 3rd step
        sim = Simulation(cfg, schedule={0: tuple(range(6)), 1: (0, 3, 5)})
        before = sim.population.belief_matrix[1].copy()
        sim.step(0)
        after_update = sim.population.belief_matrix[1].copy()
        assert not np.allclose(before, after_update)
        sim.step(1)  # inactive: belief frozen
        assert np.array_equal(sim.population.belief_matrix[1], after_update)

    def test_divergence_report(self, tmp_path):
        cfg = small_config(run={"horizon": 30, "out_dir": str(tmp_path / "async"),
                                "mode": "async", "async_bound": 1})
        result, divergence = run(cfg)
        assert divergence["weighted_belief_tv"] == 0.0
        assert divergence["rating_histogram_tv"] == 0.0
        assert (tmp_path / "async" / "divergence.json").exists()

    def test_schedule_needs_async_mode(self):
        cfg = small_config(run={"horizon": 10})
        with pytest.raises(ScheduleViolation):
            simulate(cfg, schedule={0: tuple(range(10))})

    def test_schedule_names_only_founders(self):
        cfg = small_config(run={"horizon": 10, "mode": "async", "async_bound": 3})
        with pytest.raises(ScheduleViolation):
            Simulation(cfg, schedule={99: tuple(range(10))})

    def test_sync_run_writes_no_divergence(self, tmp_path):
        cfg = small_config(run={"horizon": 10, "out_dir": str(tmp_path)})
        result, divergence = run(cfg)
        assert divergence is None
        assert (tmp_path / "metrics.jsonl").exists()
        assert not (tmp_path / "divergence.json").exists()

    def test_default_schedule_covers_all_agents(self):
        cfg = small_config(run={"horizon": 25, "mode": "async", "async_bound": 4})
        sched = default_schedule(cfg)
        assert set(sched) == set(range(8))
        Simulation(cfg, schedule=sched)


    def test_run_follows_async_mode(self, tmp_path):
        cfg = small_config(run={"horizon": 30, "seed": 0, "mode": "async", "async_bound": 3})
        run(set_param(cfg, "run.out_dir", str(tmp_path / "run")))
        write_artifacts(simulate(cfg, schedule=default_schedule(cfg)), str(tmp_path / "run_async"))
        for name in ("metrics.jsonl", "scores.jsonl", "ledger.tsv", "statelog.jsonl"):
            assert (tmp_path / "run" / name).read_bytes() == \
                (tmp_path / "run_async" / name).read_bytes()


class TestSweep:
    def test_lambda_grid_mass_ordering(self):
        cfg = small_config(
            population={"agents": 2, "prior": "uniform"},
            rating={"sigma": 0.0, "r0": 0.9},
            evolution={"tau_rep": 1e-8, "tau_ext": 0.0, "grace": 1, "sigma_mut": 0.0,
                       "n_star": None},
            run={"horizon": 6})
        rows = sweep(cfg, "lambda", [0.40, 0.45, 0.55, 0.60])
        masses = [r["final_mass"] for r in rows]
        assert all(r["status"] == "ok" for r in rows)
        initial_mass = 2 * 0.9
        # stable branch shrinks mass, unstable branch grows it
        assert masses[0] < masses[1] < initial_mass
        assert masses[3] > masses[2] > initial_mass
        for row, lam in zip(rows, (0.40, 0.45, 0.55, 0.60)):
            assert row["final_mass"] == pytest.approx(initial_mass * (2 * lam) ** 6, rel=1e-9)

    def test_sensitivity_columns_on_interior_points(self):
        cfg = small_config(run={"horizon": 10})
        rows = sweep(cfg, "rating.sigma", [0.0, 0.01, 0.02])
        assert rows[0]["d_final_mass_d_param"] is None
        assert rows[1]["d_final_mass_d_param"] is not None
        assert rows[2]["d_final_mass_d_param"] is None

    def test_beta_grid_entropy_comparison(self):
        cfg = small_config(run={"horizon": 40}, rating={"sigma": 0.0},
                           evolution={"tau_rep": 1.0, "tau_ext": 0.0})
        rows = sweep(cfg, "beta", [0.0, 1.0])
        assert rows[1]["final_mean_entropy"] > rows[0]["final_mean_entropy"]

    def test_unknown_parameter_rejected(self, small_cfg):
        with pytest.raises(ConfigError):
            sweep(small_cfg, "nonexistent_knob", [1, 2])

    def test_async_sweep_follows_async_mode(self):
        cfg = small_config(run={"horizon": 40, "seed": 0, "mode": "async", "async_bound": 3})
        async_rows = sweep(cfg, "lambda", [0.4, 0.45])
        sync_rows = sweep(set_param(cfg, "run.mode", "sync"), "lambda", [0.4, 0.45])
        assert async_rows != sync_rows
        point = set_param(cfg, "evolution.lambda", 0.45)
        expected = simulate(point, schedule=default_schedule(point)).summary()
        assert {k: async_rows[1][k] for k in SWEEP_OBSERVABLES} == \
            {k: expected[k] for k in SWEEP_OBSERVABLES}

    def test_per_point_failure_recorded(self, small_cfg):
        rows = sweep(small_cfg, "lambda", [0.45, 1.7])
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error")
        assert rows[1]["final_mass"] is None
