"""Workload definitions and the set-up step shared by run.py and
the fresh-process set-up probe.

A workload is a list of simulate calls. Each call is a config dict for
``episwarm.config.from_dict``, whether it runs asynchronously under
``engine.default_schedule``, and whether its artifacts are written and
audited. Everything is derived from the workload seed, so the same seed gives
the same inputs. This module imports nothing from episwarm, so the probe can
time the package import itself.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, NamedTuple

# Seeds with stored golden ledger roots (golden.json). The held-out seed was
# not used while the benchmark was tuned.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

REFERENCE_SEEDS = 5

# BLAS/OpenMP pools are pinned to one thread (never more than nproc) before
# numpy is first imported, so timings do not depend on pool start-up.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


class Call(NamedTuple):
    config: dict
    is_async: bool
    audited: bool


def reference(seed: int) -> List[Call]:
    # The built-in defaults (N=50, K=10, n_star=128, horizon 500, sync) for
    # five consecutive seeds, as acceptance test C8 runs them.
    return [Call({"run": {"seed": seed + i}}, False, True) for i in range(REFERENCE_SEEDS)]


def crowd(seed: int) -> List[Call]:
    return [Call({"population": {"agents": 2000}, "evolution": {"n_star": 4000},
                  "run": {"horizon": 50, "seed": seed}}, False, True)]


def audit(seed: int) -> List[Call]:
    # What ``engine.run_async`` runs: the async run, whose artifacts are
    # written and audited, plus its synchronous twin with the same seed.
    base = {"space": {"hypotheses": 100}, "outcomes": 100,
            "population": {"agents": 200}, "evolution": {"n_star": 400},
            "run": {"horizon": 300, "seed": seed, "async_bound": 5}}
    async_cfg = {**base, "run": {**base["run"], "mode": "async"}}
    return [Call(async_cfg, True, True), Call(base, False, False)]


WORKLOADS = {"reference": reference, "crowd": crowd, "audit": audit}

# Write-and-verify passes over each simulated result in an end-to-end
# iteration, the extra ones only while time remains. More than one only where
# a single call is audited, so every pass covers the same artifacts. The
# counts balance measured time per run between simulate and the passes.
PASSES = {"reference": 1, "crowd": 3, "audit": 2}


class Prepared(NamedTuple):
    config: object
    schedule: object


def prepare(config_mod, engine_mod, calls: List[Call]) -> List[Prepared]:
    """Build each call's config and, for async calls, its default schedule."""
    out = []
    for call in calls:
        cfg = config_mod.from_dict(call.config)
        out.append(Prepared(cfg, engine_mod.default_schedule(cfg) if call.is_async else None))
    return out


def set_up(config_mod, engine_mod, calls: List[Call]) -> None:
    """The set-up a user pays before simulating: configs, schedules and one
    ``Simulation`` per call. ``simulate`` builds its own ``Simulation``, so
    nothing here is reused by the timed runs."""
    for p in prepare(config_mod, engine_mod, calls):
        engine_mod.Simulation(p.config, schedule=p.schedule)
