"""Pre-registered pilot measurements backing the acceptance thresholds.

Writes calibration/*.json. Re-run with:  python scripts/run_pilots.py
The committed files are the record; the acceptance suite reads them and
re-executes the pinned scenarios against the recorded thresholds.
"""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from episwarm.config import from_dict
from episwarm.engine import simulate
from episwarm.spaces import tv_distance_vectors

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "calibration")

CONCENTRATION_SEEDS = [101, 102, 103, 104, 105]
ASYNC_SEEDS = [201, 202, 203, 204, 205, 206, 207, 208, 209, 210]


def reference_config(seed, horizon=500, mode="sync", bound=5):
    return from_dict({
        "space": {"hypotheses": 10},
        "outcomes": 10,
        "likelihood": {"kind": "categorical", "peak": 0.7},
        "task": {"true_hypothesis": 0},
        "population": {"agents": 50, "prior": "dirichlet", "dirichlet_alpha": 1.0},
        "rating": {"r0": 0.5, "sigma": 0.01, "schedule": "harmonic"},
        "inference": {"beta": 0.0},
        "evolution": {"tau_rep": 0.8, "tau_ext": 0.1, "grace": 5, "lambda": 0.45,
                      "sigma_mut": 0.05, "n_star": 128},
        "run": {"horizon": horizon, "seed": seed, "mode": mode, "async_bound": bound},
    })


def pilot_concentration():
    rows = []
    for seed in CONCENTRATION_SEEDS:
        res = simulate(reference_config(seed))
        rows.append({"seed": seed,
                     "weighted_truth_mass": res.metrics[-1].weighted_truth_mass,
                     "final_population": res.metrics[-1].population_size})
    passing = sum(1 for r in rows if r["weighted_truth_mass"] > 0.9)
    return {
        "scenario": "reference truth-concentration (K=10, 50 agents, horizon 500)",
        "threshold": 0.9,
        "required_passing": 4,
        "seeds": CONCENTRATION_SEEDS,
        "runs": rows,
        "passing": passing,
    }


def pilot_async_epsilon():
    rows = []
    for seed in ASYNC_SEEDS:
        # the async run and its synchronous twin: the same config but for run.mode
        async_res = simulate(reference_config(seed, mode="async", bound=5))
        sync_res = simulate(reference_config(seed, mode="sync", bound=5))
        tv = tv_distance_vectors(async_res.weighted_belief(), sync_res.weighted_belief())
        rows.append({"seed": seed, "weighted_belief_tv": tv})
    max_tv = max(r["weighted_belief_tv"] for r in rows)
    # pre-registered bound: double the worst pilot value, floored at 0.01
    epsilon = max(0.01, round(2.0 * max_tv, 4))
    return {
        "scenario": "reference scenario, async bound B=5 vs sync, horizon 500",
        "bound": 5,
        "seeds": ASYNC_SEEDS,
        "runs": rows,
        "max_tv": max_tv,
        "epsilon_sync": epsilon,
    }


def pilot_quasi_stationarity():
    cfg = from_dict({
        "space": {"hypotheses": 10},
        "outcomes": 10,
        "population": {"agents": 100},
        "rating": {"r0": 0.5, "sigma": 1e-4, "schedule": "harmonic"},
        "evolution": {"tau_rep": 1.0, "tau_ext": 0.0},
        "run": {"horizon": 2000, "seed": 42},
    })
    rows = []
    for seed in (42, 1, 2, 3, 7):
        hists = []

        def on_step(sim, snap, info):
            counts, _ = np.histogram(sim.population.ratings, bins=20, range=(0.0, 1.0))
            hists.append(counts / len(sim.population))

        from episwarm.config import set_param
        simulate(set_param(cfg, "run.seed", seed), on_step=on_step)
        max_tv = max(tv_distance_vectors(hists[t], hists[t + 100]) for t in range(1000, 1900))
        rows.append({"seed": seed, "max_tv": max_tv})
    return {
        "scenario": "no-evolution regime, 100 agents, sigma=1e-4, 2000 steps",
        "pinned_seed": 42,
        "threshold": 0.05,
        "window": 100,
        "bins": 20,
        "burn_in": 1000,
        "runs": rows,
    }


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {
        "truth_concentration.json": pilot_concentration(),
        "async_epsilon.json": pilot_async_epsilon(),
        "quasi_stationarity.json": pilot_quasi_stationarity(),
    }
    for name, payload in results.items():
        path = os.path.join(OUT_DIR, name)
        with open(path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {path}")
        print(json.dumps(payload, indent=2)[:400])
        print("---")


if __name__ == "__main__":
    main()
