"""episwarm benchmark: simulate, write and audit on fixed workloads.

usage: python3 bench/run.py --workload {reference,crowd,audit} --seed N
                            --seconds S --trace {0,1}

Run from the root of a source checkout; episwarm is imported from its
``src``. One iteration runs every simulate call of the workload, writes the
artifacts of the audited calls and verifies them, in ``--trace 0`` runs once
more per extra pass of ``workloads.PASSES`` that still fits. Iterations repeat
while another one is expected to end within ``--seconds`` (at least once).
Each end-to-end time is the 90th percentile of its samples in the run, and
``agent_steps_per_s`` the 10th percentile of its per-iteration rates (see
``slow_decile``); per-layer metrics are medians over iterations.

--trace 0 prints the end-to-end metrics: ``setup_s`` (fresh-process
set-ups), ``agent_steps_per_s`` (committed ledger entries over seconds inside
``simulate``), ``write_s``, ``verify_s`` and ``peak_rss_mb``.
--trace 1 prints the per-layer metrics of a traced iteration, and the tracing
overhead against an untraced ``simulate`` of the same inputs.

Every run also checks its outputs: ledger roots and exact counts against
golden.json for one stored seed, identical roots and counts on every
iteration, no findings from ``verify_artifacts`` and a detected tamper. The
last stdout line is one JSON object; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import workloads as wl

wl.pin_threads()

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
OUT_BASE = wl.ROOT / ".bench_out"
SETUP_PROBES = 6

END_TO_END_UNITS = {"setup_s": "s", "agent_steps_per_s": "1/s", "write_s": "s",
                    "verify_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit. Counts and bytes must repeat exactly on every
# iteration; the other values are medians over iterations.
PER_LAYER_UNITS = {
    "engine.agent_steps": "count",
    "engine.step.calls": "count",
    "engine.step.self_s": "s",
    "competition.margin_matrix.s": "s",
    "competition.aggregate_utility.s": "s",
    "competition.margin_entries": "count",
    "rating.rating_step.calls": "count",
    "rating.rating_step.s": "s",
    "rating.reward_gradient.s": "s",
    "rating.active_share": "share",
    "rng.substream.calls": "count",
    "rng.substream.s": "s",
    "evolution.evolve.s": "s",
    "evolution.evolve.self_s": "s",
    "evolution.mutate_prior.calls": "count",
    "evolution.spawns": "count",
    "evolution.deaths": "count",
    "evolution.delayed_spawns": "count",
    "likelihood.s": "s",
    "ledger.encode_quantized.calls": "count",
    "ledger.encode_quantized.s": "s",
    "ledger.commit.calls": "count",
    "ledger.commit.s": "s",
    "ledger.write_state_log.s": "s",
    "ledger.write_ledger.s": "s",
    "ledger.statelog_bytes": "bytes",
    "ledger.ledger_bytes": "bytes",
    "engine.write_artifacts.self_s": "s",
    "ledger.read_state_log.s": "s",
    "ledger.read_ledger.s": "s",
    "ledger.verify_chain.s": "s",
    "ledger.verify_artifacts.self_s": "s",
    "config.from_dict.s": "s",
    "trace.simulate_s": "s",
    "trace.simulate_untraced_s": "s",
    "trace.overhead_share": "share",
}


def ledger_root(chains) -> str:
    """SHA-256 over the (agent_id, head) pairs in ascending agent id, each
    pair encoded as the id in signed 8-byte little-endian then the 32-byte
    chain head."""
    h = hashlib.sha256()
    for agent_id in sorted(chains):
        h.update(struct.pack("<q", int(agent_id)))
        h.update(chains[agent_id].head)
    return h.hexdigest()


class Checks:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


class Bench:
    def __init__(self, workload: str, out_dir: str, checks: Checks):
        from episwarm import config, engine, ledger
        self.config, self.engine, self.ledger = config, engine, ledger
        self.workload = workload
        self.out_dir = out_dir
        self.checks = checks

    def iteration(self, seed: int, audit: bool = True, limit: Optional[int] = None,
                  passes: int = 1, deadline: Optional[float] = None,
                  pass_estimate: float = 0.0) -> dict:
        """Run the workload's simulate calls (the first ``limit`` of them) once;
        with ``audit`` also write and verify the audited calls' artifacts.

        ``passes`` > 1 writes and verifies the single audited result again,
        for each extra pass that is expected (``pass_estimate`` seconds) to end
        before the ``perf_counter`` time ``deadline``. ``write_s`` and
        ``verify_s`` are lists with one entry per pass made."""
        calls = wl.WORKLOADS[self.workload](seed)[:limit]
        assert passes == 1 or sum(c.audited for c in calls) == 1
        out = {"simulate_s": 0.0, "write_s": [0.0], "verify_s": [0.0], "agent_steps": 0,
               "outputs": [], "artifacts": [], "core_s": 0.0, "pass_s": 0.0}
        start_iteration = time.perf_counter()
        extra_s = 0.0
        for k, (call, prep) in enumerate(zip(calls, wl.prepare(self.config, self.engine,
                                                              calls))):
            start = time.perf_counter()
            result = self.engine.simulate(prep.config, schedule=prep.schedule)
            out["simulate_s"] += time.perf_counter() - start
            self.checks.record(result.collapsed_at is None,
                               f"{self.workload} seed {seed} call {k}: population collapsed")
            agent_steps = sum(len(c.entries) for c in result.chains.values())
            out["agent_steps"] += agent_steps
            record = {
                "root": ledger_root(result.chains),
                "agent_steps": agent_steps,
                "spawns": sum(m.spawns for m in result.metrics),
                "deaths": sum(m.deaths for m in result.metrics),
                "delayed_spawns": sum(m.delayed_spawns for m in result.metrics),
            }
            if audit and call.audited:
                path = os.path.join(self.out_dir, f"call{k}")
                for extra in range(passes):
                    if extra:
                        if deadline is None or time.perf_counter() + pass_estimate > deadline:
                            break
                        out["write_s"].append(0.0)
                        out["verify_s"].append(0.0)
                    start_pass = start = time.perf_counter()
                    paths = self.engine.write_artifacts(result, path)
                    out["write_s"][-1] += time.perf_counter() - start
                    start = time.perf_counter()
                    findings = self.ledger.verify_artifacts(paths["ledger"],
                                                            paths["statelog"])
                    out["verify_s"][-1] += time.perf_counter() - start
                    self.checks.record(findings == [], f"{self.workload} seed {seed} "
                                       f"call {k}: verify_artifacts reported {findings[:3]}")
                    if extra:
                        extra_s += time.perf_counter() - start_pass
                    else:
                        out["pass_s"] += time.perf_counter() - start_pass
                record["bytes"] = {name: os.path.getsize(p) for name, p in sorted(paths.items())}
                out["artifacts"].append(paths)
            out["outputs"].append(record)
            del result
        out["core_s"] = time.perf_counter() - start_iteration - extra_s
        return out

    def check_golden(self, seed: int, outputs: list) -> None:
        """Compare ``outputs`` with the golden outputs of the same calls;
        artifact bytes only where they were written."""
        golden = json.loads(GOLDEN.read_text()).get(self.workload, {}).get(str(seed), [])
        golden = [{k: v for k, v in g.items() if k in o}
                  for g, o in zip(golden, outputs)]
        self.checks.record(golden == outputs,
                           f"{self.workload} seed {seed}: outputs differ from golden.json "
                           f"(got {json.dumps(outputs)})")

    def check_tamper(self, seed: int, paths: dict) -> None:
        """Change one quantized field of one state-log row, chosen by the seed,
        in a copy; verification must report exactly that (agent, step)."""
        rng = random.Random(seed)
        with open(paths["statelog"], encoding="ascii") as f:
            lines = f.readlines()
        i = rng.randrange(len(lines))
        row = json.loads(lines[i])
        field = rng.choice(["belief_q", "rating_q", "strength_q"])
        if field == "belief_q":
            row[field][rng.randrange(len(row[field]))] += 1
        else:
            row[field] += 1
        lines[i] = json.dumps(row, separators=(",", ":")) + "\n"
        tampered = os.path.join(self.out_dir, "tampered.jsonl")
        with open(tampered, "w", encoding="ascii") as f:
            f.writelines(lines)
        findings = self.ledger.verify_artifacts(paths["ledger"], tampered)
        expected = [(row["agent_id"], row["step"])]
        self.checks.record(findings == expected,
                           f"tamper of {field} at {expected}: verify reported {findings[:3]}")


def measure(bench: Bench, seed: int, seconds: float, body) -> list:
    """Call ``body(deadline, pass_estimate)`` at least once, and again while
    another call is expected to end within ``seconds`` of the start; check
    that every iteration produced the same outputs."""
    samples = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        pass_estimate = statistics.median(s["pass_s"] for s in samples) if samples else 0.0
        samples.append(body(deadline, pass_estimate))
        core = statistics.median(s["core_s"] for s in samples)
        if time.perf_counter() + core > deadline:
            break
    first = samples[0]["outputs"]
    for s in samples[1:]:
        bench.checks.record(s["outputs"] == first,
                            f"seed {seed}: outputs differ between iterations")
    if seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
        bench.check_golden(seed, first)
    return samples


def slow_decile(samples: list, rate: bool = False) -> float:
    """The slow end of a run's samples: the 90th percentile of times, the
    10th of rates.

    The shared host alternates between its usual contended speed and
    intervals in which writing and verifying run up to 1.7x faster; a run may
    fall mostly into such an interval. A median, or even the 75th percentile,
    then moves with the share of fast samples, while a run's slowest samples
    stay on the usual speed."""
    if len(samples) < 2:
        return samples[0] if samples else float("nan")
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[0] if rate else deciles[-1]


def setup_seconds(workload: str, seed: int, probes: int, checks: Checks) -> list:
    totals = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed)], cwd=wl.ROOT, capture_output=True, text=True,
                              timeout=120)
        if checks.record(proc.returncode == 0, f"set-up probe failed: {proc.stderr}"):
            totals.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return totals


def end_to_end(bench: Bench, seed: int, seconds: float) -> dict:
    # Set-up probes straddle the measured iterations, so that they sample
    # the same stretch of machine time.
    setup = setup_seconds(bench.workload, seed, SETUP_PROBES // 2, bench.checks)
    passes = wl.PASSES[bench.workload]
    samples = measure(bench, seed, seconds,
                      lambda deadline, estimate: bench.iteration(
                          seed, passes=passes, deadline=deadline, pass_estimate=estimate))
    setup += setup_seconds(bench.workload, seed, SETUP_PROBES - SETUP_PROBES // 2,
                           bench.checks)
    bench.check_tamper(seed, samples[-1]["artifacts"][0])
    columns = {
        "agent_steps_per_s": [s["agent_steps"] / s["simulate_s"] for s in samples],
        "write_s": [w for s in samples for w in s["write_s"]],
        "verify_s": [v for s in samples for v in s["verify_s"]],
        "setup_s": setup,
    }
    values = {name: slow_decile(column, rate=name == "agent_steps_per_s")
              for name, column in columns.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, columns, samples[0]["outputs"]


def per_layer(bench: Bench, seed: int, seconds: float) -> dict:
    from tracing import Tracer

    tracer = Tracer()

    def body(deadline: float, pass_estimate: float) -> dict:
        start = time.perf_counter()
        untraced = bench.iteration(seed, audit=False)
        tracer.reset()
        with tracer.install():
            traced = bench.iteration(seed)
        bench.checks.record([o["root"] for o in traced["outputs"]]
                            == [o["root"] for o in untraced["outputs"]],
                            f"seed {seed}: traced and untraced ledger roots differ")
        traced["layers"] = layer_values(tracer, traced, untraced)
        traced["core_s"] = time.perf_counter() - start
        return traced

    samples = measure(bench, seed, seconds, body)
    bench.check_tamper(seed, samples[-1]["artifacts"][0])
    columns = {name: [s["layers"][name] for s in samples] for name in PER_LAYER_UNITS}
    values = {}
    for name, column in columns.items():
        if PER_LAYER_UNITS[name] in ("count", "bytes"):
            bench.checks.record(len(set(column)) == 1, f"{name} varies: {column}")
            values[name] = column[0]
        else:
            values[name] = statistics.median(column)
    return values, columns, samples[0]["outputs"]


def layer_values(t, traced: dict, untraced: dict) -> dict:
    steps = traced["agent_steps"]
    outputs = traced["outputs"]
    sizes = [o["bytes"] for o in outputs if "bytes" in o]
    return {
        "engine.agent_steps": steps,
        "engine.step.calls": t.calls("engine.step"),
        "engine.step.self_s": t.self_seconds("engine.step"),
        "competition.margin_matrix.s": t.seconds("competition.margin_matrix"),
        "competition.aggregate_utility.s": t.seconds("competition.aggregate_utility"),
        "competition.margin_entries": t.counts["competition.margin_entries"],
        "rating.rating_step.calls": t.calls("rating.rating_step"),
        "rating.rating_step.s": t.seconds("rating.rating_step"),
        "rating.reward_gradient.s": t.seconds("rating.reward_gradient"),
        "rating.active_share": t.calls("rating.rating_step") / steps,
        "rng.substream.calls": t.calls("rng.substream"),
        "rng.substream.s": t.seconds("rng.substream"),
        "evolution.evolve.s": t.seconds("evolution.evolve"),
        "evolution.evolve.self_s": t.self_seconds("evolution.evolve"),
        "evolution.mutate_prior.calls": t.calls("evolution.mutate_prior"),
        "evolution.spawns": sum(o["spawns"] for o in outputs),
        "evolution.deaths": sum(o["deaths"] for o in outputs),
        "evolution.delayed_spawns": sum(o["delayed_spawns"] for o in outputs),
        "likelihood.s": t.seconds("likelihood"),
        "ledger.encode_quantized.calls": t.calls("ledger.encode_quantized"),
        "ledger.encode_quantized.s": t.seconds("ledger.encode_quantized"),
        "ledger.commit.calls": t.calls("ledger.commit"),
        "ledger.commit.s": t.seconds("ledger.commit"),
        "ledger.write_state_log.s": t.seconds("ledger.write_state_log"),
        "ledger.write_ledger.s": t.seconds("ledger.write_ledger"),
        "ledger.statelog_bytes": sum(b["statelog"] for b in sizes),
        "ledger.ledger_bytes": sum(b["ledger"] for b in sizes),
        "engine.write_artifacts.self_s": t.self_seconds("engine.write_artifacts"),
        "ledger.read_state_log.s": t.seconds("ledger.read_state_log"),
        "ledger.read_ledger.s": t.seconds("ledger.read_ledger"),
        "ledger.verify_chain.s": t.seconds("ledger.verify_chain"),
        "ledger.verify_artifacts.self_s": t.self_seconds("ledger.verify_artifacts"),
        "config.from_dict.s": t.seconds("config.from_dict"),
        "trace.simulate_s": t.seconds("engine.simulate"),
        "trace.simulate_untraced_s": untraced["simulate_s"],
        # paired with the untraced run just before it, so drift cancels
        "trace.overhead_share": t.seconds("engine.simulate") / untraced["simulate_s"] - 1.0,
    }


def steal_ticks():
    """Ticks stolen from this machine by its hypervisor, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def commit_id():
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (wl.SRC / "episwarm" / "__init__.py").is_file():
        print(f"episwarm sources not found under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    steal_before = steal_ticks()
    import numpy
    import episwarm

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "episwarm": episwarm.__version__, "commit": commit_id(),
        "threads": {v: os.environ[v] for v in wl.THREAD_VARS},
    }
    checks = Checks()
    OUT_BASE.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_BASE)
    try:
        bench = Bench(args.workload, out_dir, checks)
        # Warm-up that is also a golden check on the first simulate call: even
        # seeds replay the default seed, odd seeds the held-out one.
        golden_seed = wl.DEFAULT_SEED if args.seed % 2 == 0 else wl.HELD_OUT_SEED
        bench.check_golden(golden_seed,
                           bench.iteration(golden_seed, audit=False, limit=1)["outputs"])
        values, columns, outputs = (per_layer if args.trace else end_to_end)(
            bench, args.seed, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_BASE.rmdir()
        except OSError:
            pass
    meta["per_iteration"] = columns
    meta["outputs"] = outputs
    meta["steal_ticks"] = {"before": steal_before, "after": steal_ticks()}

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({"meta": meta}))
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
