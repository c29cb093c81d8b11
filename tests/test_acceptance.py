"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
Thresholds calibrated by pilot measurements live in calibration/*.json.
"""

import dataclasses
import json
import math
import os
import random
import shutil
import time

import numpy as np
import pytest
import yaml

from conftest import small_config
from episwarm.cli import main
from episwarm.config import from_dict, set_param
from episwarm.engine import Simulation, default_schedule, simulate
from episwarm.evolution import EvolutionConfig, IdAllocator, Population, evolve
from episwarm.inference import posterior_update, sequential_update
from episwarm.likelihood import CategoricalTable, Observation
from episwarm.spaces import (Belief, HypothesisSpace, OutcomeSpace, normalize_vector,
                             tv_distance, tv_distance_vectors)
from episwarm.competition import MarginMatrix, log_score, margin_entries

CALIBRATION_DIR = os.path.join(os.path.dirname(__file__), "..", "calibration")


def load_calibration(name):
    with open(os.path.join(CALIBRATION_DIR, name)) as f:
        return json.load(f)


def reference_config(seed, horizon=500, **overrides):
    data = {
        "space": {"hypotheses": 10},
        "outcomes": 10,
        "likelihood": {"kind": "categorical", "peak": 0.7},
        "task": {"true_hypothesis": 0},
        "population": {"agents": 50, "prior": "dirichlet", "dirichlet_alpha": 1.0},
        "rating": {"r0": 0.5, "sigma": 0.01, "schedule": "harmonic"},
        "inference": {"beta": 0.0},
        "evolution": {"tau_rep": 0.8, "tau_ext": 0.1, "grace": 5, "lambda": 0.45,
                      "sigma_mut": 0.05, "n_star": 128},
        "run": {"horizon": horizon, "seed": seed},
    }
    for section, fields in overrides.items():
        if isinstance(fields, dict):
            data.setdefault(section, {}).update(fields)
        else:
            data[section] = fields
    return from_dict(data)


def report(criterion, detail):
    print(f"[{criterion}] PASS  {detail}")


def test_c01_exact_bayes_oracle_equivalence():
    """C1: posterior_update matches brute-force normalize(prior * likelihood)."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        y = int(rng.integers(2, 6))
        space = HypothesisSpace.indexed(k)
        rows = rng.dirichlet(np.ones(y), size=k)
        model = CategoricalTable(space, OutcomeSpace.indexed(y), rows)
        prior_vec = rng.dirichlet(np.full(k, 0.8))
        datum = int(rng.integers(0, y))
        obs = Observation(datum=datum, truth_label=datum)

        post = posterior_update(Belief(space, prior_vec), model, obs)

        # independent brute-force oracle, plain Python
        like = [float(model.rows[h, datum]) for h in range(k)]
        weights = [p * l for p, l in zip(prior_vec, like)]
        z = sum(weights)
        oracle = [w / z for w in weights]
        worst = max(worst, max(abs(a - b) for a, b in zip(post.probs, oracle)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    report("C1", f"1000 triples, max entry error {worst:.2e}, {elapsed:.2f}s")


def test_c02_sequential_equals_batch():
    """C2: fold of updates vs single product-likelihood update, TV < 1e-9."""
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 7))
        y = int(rng.integers(2, 5))
        space = HypothesisSpace.indexed(k)
        model = CategoricalTable(space, OutcomeSpace.indexed(y),
                                 rng.dirichlet(np.ones(y), size=k))
        prior = Belief(space, rng.dirichlet(np.ones(k)))
        data = [int(rng.integers(0, y)) for _ in range(int(rng.integers(1, 7)))]
        obs = [Observation(d, d, i) for i, d in enumerate(data)]

        fold = sequential_update(prior, model, obs)
        product = np.ones(k)
        for o in obs:
            product = product * model.likelihood_vector(o)
        batch = Belief(space, normalize_vector(prior.probs * product))
        worst = max(worst, tv_distance(fold, batch))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report("C2", f"500 observation lists, max TV {worst:.2e}, {elapsed:.2f}s")


def test_c03_uniform_guess_score():
    """C3: log score of the uniform prediction equals ln|Y| to 1e-12."""
    worst = 0.0
    for n in (2, 3, 4, 10):
        pred = np.full(n, 1.0 / n)
        for truth in range(n):
            worst = max(worst, abs(log_score(pred, truth) - math.log(n)))
    assert worst < 1e-12
    report("C3", f"|Y| in {{2,3,4,10}}, max deviation {worst:.2e}")


def test_c04_skew_symmetry_and_zero_sum():
    """C4: every margin matrix in a 500-step run is skew-symmetric; sum U_i = 0."""
    cfg = reference_config(seed=42, horizon=500)
    stats = {"steps": 0, "worst_sum": 0.0}

    def on_step(sim, snap, info):
        if info.report is None:
            return
        stats["steps"] += 1
        s = info.report.log_scores
        m = MarginMatrix(len(s), margin_entries(s)).entries
        assert np.array_equal(m, -m.T), "margin matrix not exactly skew-symmetric"
        total = abs(float(info.report.aggregate.sum()))
        stats["worst_sum"] = max(stats["worst_sum"], total)
        assert total < 1e-9

    simulate(cfg, on_step=on_step)
    assert stats["steps"] == 500
    report("C4", f"500 steps, worst |sum U_i| = {stats['worst_sum']:.2e}")


def test_c05_spawning_mass_dichotomy():
    """C5: 20 forced split steps: final mass (2*lam)^20 on both branches, < 2s."""
    def forced_mass(lam, steps=20):
        space = HypothesisSpace.indexed(2)
        pop = Population.create(space, np.array([[0.5, 0.5]]), r0=1.0)
        cfg = EvolutionConfig(tau_rep=1e-8, tau_ext=0.0, grace=1, lam=lam,
                              sigma_mut=0.0, n_star=None)
        ids = IdAllocator(start=1)
        for t in range(steps):
            pop = evolve(pop, t, cfg, ids).population
        return pop.rating_mass(), len(pop)

    forced_mass(0.45, steps=2)  # warm numpy allocators outside the timed window
    start = time.perf_counter()
    mass_low, n_low = forced_mass(0.45)
    mass_high, n_high = forced_mass(0.60)
    elapsed = time.perf_counter() - start

    assert n_low == n_high == 2 ** 20
    assert abs(mass_low - 0.9 ** 20) < 1e-6
    assert abs(mass_high - 1.2 ** 20) < 1e-3
    assert elapsed < 2.0
    report("C5", f"mass(0.45)={mass_low:.6f} vs {0.9**20:.6f}; "
                 f"mass(0.60)={mass_high:.3f} vs {1.2**20:.3f}; {elapsed:.2f}s")


def test_c06_rating_monotonicity():
    """C6: sigma=0, fixed predictive gap: better agent rated higher for all t.

    A constant-truth observation schedule keeps the gap's sign fixed: both
    agents apply identical likelihood updates, so the posterior odds ratio
    between them never changes and agent 0 always puts more mass on the truth.
    """
    cfg = small_config(
        space={"hypotheses": 2}, outcomes=2,
        likelihood={"kind": "categorical", "rows": [[0.8, 0.2], [0.2, 0.8]]},
        task={"true_hypothesis": None, "observations": [[0, 0]] * 200},
        population={"agents": 2, "prior": "uniform"},
        rating={"sigma": 0.0},
        evolution={"tau_rep": 1.0, "tau_ext": 0.0},
        run={"horizon": 200, "seed": 9})
    sim = Simulation(cfg)
    sim.population.belief_matrix[0] = np.array([0.9, 0.1])  # leans toward the truth
    sim.population.belief_matrix[1] = np.array([0.5, 0.5])
    violations = 0
    for t in range(200):
        sim.step(t)
        r = dict(zip(sim.population.ids.tolist(), sim.population.ratings.tolist()))
        if not r[0] > r[1]:
            violations += 1
    assert violations == 0
    report("C6", f"200 steps, 0 ordering violations (final gap "
                 f"{r[0] - r[1]:.3f})")


def corrupt_one_byte(path, rng, allow_hex):
    """Flip one content character in place, staying within its character class
    (digit -> different digit; hex letter -> different hex char, ledger only)
    so files stay parseable and every corruption is a content change. In the
    state log the only content characters are digits (letters belong to JSON
    keys); in the ledger every digit and hex letter is content."""
    with open(path, "r", encoding="ascii") as f:
        text = list(f.read())
    digits = "0123456789"
    hexchars = "0123456789abcdef"
    while True:
        i = rng.randrange(len(text))
        c = text[i]
        if c in digits:
            leading = text[i - 1] not in digits  # JSON forbids leading zeros
            pool = digits[1:] if leading else digits
            repl = rng.choice([d for d in pool if d != c])
            break
        if allow_hex and c in "abcdef":
            repl = rng.choice([h for h in hexchars if h != c])
            break
    text[i] = repl
    with open(path, "w", encoding="ascii") as f:
        f.write("".join(text))


def test_c07_tamper_detection(tmp_path, capsys):
    """C7: 100 random single-byte corruptions all yield exit 3 with a located step."""
    out = tmp_path / "run"
    cfg_data = {
        "space": {"hypotheses": 4}, "outcomes": 4,
        "population": {"agents": 6},
        "run": {"horizon": 200, "seed": 31, "out_dir": str(out)},
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg_data))
    assert main(["run", str(cfg_path)]) == 0
    ledger, statelog = str(out / "ledger.tsv"), str(out / "statelog.jsonl")

    assert main(["verify", ledger, statelog]) == 0  # pristine artifacts pass

    rng = random.Random(777)
    detected = 0
    for trial in range(100):
        target = ledger if rng.random() < 0.5 else statelog
        backup = target + ".bak"
        shutil.copyfile(target, backup)
        corrupt_one_byte(target, rng, allow_hex=(target == ledger))
        capsys.readouterr()
        code = main(["verify", ledger, statelog])
        printed = capsys.readouterr().out
        assert code == 3, f"corruption {trial} not flagged (exit {code})"
        assert "step=" in printed, "tamper report must locate a step"
        detected += 1
        shutil.copyfile(backup, target)
    assert main(["verify", ledger, statelog]) == 0  # restored artifacts pass again
    assert detected == 100
    report("C7", "100/100 corruptions detected with located steps, 0 false negatives")


def test_c08_truth_concentration():
    """C8: rating-weighted truth mass > 0.9 at horizon in >= 4 of 5 seeds, < 60s."""
    pilot = load_calibration("truth_concentration.json")
    start = time.perf_counter()
    masses = {}
    for seed in pilot["seeds"]:
        res = simulate(reference_config(seed))
        masses[seed] = res.metrics[-1].weighted_truth_mass
    elapsed = time.perf_counter() - start
    passing = sum(1 for v in masses.values() if v > pilot["threshold"])
    assert passing >= pilot["required_passing"]
    assert elapsed < 60.0
    report("C8", f"{passing}/5 seeds above {pilot['threshold']} "
                 f"(masses {sorted(round(v, 4) for v in masses.values())}), {elapsed:.1f}s")


def test_c09_entropy_regularization_effect():
    """C9: paired runs, beta=1 ends with strictly higher mean posterior entropy."""
    wins = 0
    pairs = []
    for seed in (301, 302, 303, 304, 305):
        base = reference_config(seed, horizon=300)
        ent = {}
        for beta in (0.0, 1.0):
            res = simulate(set_param(base, "inference.beta", beta))
            ent[beta] = res.metrics[-1].mean_entropy
        pairs.append((ent[0.0], ent[1.0]))
        if ent[1.0] > ent[0.0]:
            wins += 1
    assert wins == 5
    report("C9", "beta=1 entropy higher in 5/5 paired runs "
                 f"(example pair {pairs[0][0]:.4f} vs {pairs[0][1]:.4f})")


def test_c10_async_convergence():
    """C10: B=1 reproduces sync exactly; B=5 stays within calibrated epsilon."""
    pilot = load_calibration("async_epsilon.json")
    epsilon = pilot["epsilon_sync"]

    cfg = reference_config(seed=pilot["seeds"][0])
    sync = simulate(cfg)
    b1 = simulate(reference_config(seed=pilot["seeds"][0],
                                   run={"mode": "async", "async_bound": 1}))
    tv_b1 = tv_distance_vectors(b1.weighted_belief(), sync.weighted_belief())
    assert tv_b1 == 0.0
    assert [dataclasses.asdict(m) for m in b1.metrics] == \
           [dataclasses.asdict(m) for m in sync.metrics]

    tvs = []
    for seed in pilot["seeds"][:3]:
        acfg = reference_config(seed, run={"mode": "async", "async_bound": 5})
        async_res = simulate(acfg, schedule=default_schedule(acfg))
        sync_res = simulate(set_param(acfg, "run.mode", "sync"))
        tvs.append(tv_distance_vectors(async_res.weighted_belief(),
                                       sync_res.weighted_belief()))
    assert all(tv <= epsilon for tv in tvs)
    report("C10", f"B=1 exact (TV 0); B=5 max TV {max(tvs):.2e} <= {epsilon}")


def test_c11_determinism(tmp_path):
    """C11: identical config+seed -> byte-identical metrics and ledger digests."""
    cfg_data = {
        "population": {"agents": 20},
        "run": {"horizon": 150, "seed": 4242},
    }
    outputs = []
    for name in ("a", "b"):
        data = dict(cfg_data)
        data["run"] = dict(cfg_data["run"], out_dir=str(tmp_path / name))
        cfg_path = tmp_path / f"{name}.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        assert main(["run", str(cfg_path)]) == 0
        outputs.append(tmp_path / name)
    metrics_a = (outputs[0] / "metrics.jsonl").read_bytes()
    metrics_b = (outputs[1] / "metrics.jsonl").read_bytes()
    ledger_a = (outputs[0] / "ledger.tsv").read_bytes()
    ledger_b = (outputs[1] / "ledger.tsv").read_bytes()
    assert metrics_a == metrics_b
    assert ledger_a == ledger_b
    report("C11", f"metrics ({len(metrics_a)} bytes) and ledger ({len(ledger_a)} bytes) "
                  "byte-identical across invocations")


def test_c12_quasi_stationarity():
    """C12: no-evolution regime; sliding 20-bin histogram TV < 0.05 for t >= 1000."""
    pilot = load_calibration("quasi_stationarity.json")
    cfg = from_dict({
        "space": {"hypotheses": 10},
        "outcomes": 10,
        "population": {"agents": 100},
        "rating": {"r0": 0.5, "sigma": 1e-4, "schedule": "harmonic"},
        "evolution": {"tau_rep": 1.0, "tau_ext": 0.0},
        "run": {"horizon": 2000, "seed": pilot["pinned_seed"]},
    })
    hists = []

    def on_step(sim, snap, info):
        counts, _ = np.histogram(sim.population.ratings, bins=20, range=(0.0, 1.0))
        hists.append(counts / len(sim.population))

    simulate(cfg, on_step=on_step)
    tvs = [0.5 * float(np.abs(hists[t] - hists[t + 100]).sum())
           for t in range(1000, 1900)]
    assert max(tvs) < pilot["threshold"]
    report("C12", f"max sliding TV {max(tvs):.3f} < {pilot['threshold']} "
                  f"over t in [1000, 1900)")
