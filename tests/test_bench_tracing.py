"""The benchmark's tracer wraps names inside the package (bench/tracing.py);
a name it wraps that the package no longer binds would fail only in a traced
benchmark run, and a span whose name no run calls any more reads 0 without
notice, so both are checked here."""

import importlib.util
from pathlib import Path

import episwarm  # noqa: F401  binds the modules the tracer reads from sys.modules
from episwarm import config, engine, ledger

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# Spans that read 0 on every run: the engine still binds these names for the
# tracer, but a run calls the batched forms instead: aggregate_utility,
# rng.Draws, and chain_digests, which hashes each step's quantize_rows pair of
# scalar columns and belief quanta through commit_rows and verify_artifacts'
# block replay.
DARK_SPANS = {"competition.margin_matrix", "ledger.encode_quantized", "ledger.commit",
              "ledger.verify_chain", "rng.substream"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrapped_name_exists():
    targets = load_tracing()._targets()
    assert len(targets) > 0
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert missing == []


def test_dark_spans_are_the_listed_ones(tmp_path):
    # a sync and an async run that split and kill agents, each written and verified
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.install():
        for mode in ("sync", "async"):
            cfg = config.from_dict({
                "space": {"hypotheses": 5}, "outcomes": 5, "population": {"agents": 8},
                "rating": {"sigma": 0.05},
                "evolution": {"tau_rep": 0.6, "tau_ext": 0.2, "grace": 3, "n_star": 32},
                "run": {"horizon": 30, "seed": 3, "mode": mode}})
            result = engine.simulate(cfg)
            assert sum(m.spawns for m in result.metrics) > 0
            assert sum(m.deaths for m in result.metrics) > 0
            paths = engine.write_artifacts(result, str(tmp_path / mode))
            assert ledger.verify_artifacts(paths["ledger"], paths["statelog"]) == []
    names = {name for _, _, name, _ in tracing._targets()}
    assert DARK_SPANS <= names
    assert {name for name in names if tracer.calls(name) == 0} == DARK_SPANS
