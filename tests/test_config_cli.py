import csv
import dataclasses
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from episwarm import config, engine, ledger
from episwarm.cli import main
from episwarm.config import (ScenarioConfig, SpaceSection, TaskSection, dump_config,
                             from_dict, load_config, resolve_param, set_param, to_dict)
from episwarm.engine import Simulation, simulate, write_artifacts
from episwarm.errors import ConfigError, ShapeMismatch
from episwarm.evolution import EvolutionConfig
from episwarm.inference import InferenceConfig
from episwarm.rating import RatingConfig

ROOT = Path(__file__).resolve().parents[1]


class TestConfig:
    def test_empty_config_gives_reference_defaults(self):
        cfg = from_dict({})
        assert cfg.space.hypotheses == 10
        assert cfg.outcomes == 10
        assert cfg.population.agents == 50
        assert cfg.evolution.tau_rep == 0.8
        assert cfg.evolution.lam == 0.45
        assert cfg.evolution.n_star == 128
        assert cfg.run.horizon == 500

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError) as e:
            from_dict({"wings": 3})
        assert "wings" in str(e.value)

    def test_unknown_nested_field_names_path(self):
        with pytest.raises(ConfigError) as e:
            from_dict({"evolution": {"taurep": 0.9}})
        assert "evolution.taurep" in str(e.value)

    def test_threshold_ordering_names_both_fields(self):
        with pytest.raises(ConfigError) as e:
            from_dict({"evolution": {"tau_rep": 0.2, "tau_ext": 0.5}})
        msg = str(e.value)
        assert "tau_ext" in msg and "tau_rep" in msg

    def test_lambda_key_maps_to_lam(self):
        cfg = from_dict({"evolution": {"lambda": 0.3}})
        assert cfg.evolution.lam == 0.3
        assert to_dict(cfg)["evolution"]["lambda"] == 0.3

    def test_round_trip_idempotent(self):
        cfg = from_dict({"evolution": {"lambda": 0.33, "n_star": None},
                         "rating": {"schedule": "constant", "alpha": 0.02}})
        text = dump_config(cfg)
        cfg2 = from_dict(yaml.safe_load(text))
        assert to_dict(cfg) == to_dict(cfg2)
        assert dump_config(cfg2) == text

    def test_json_file_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"run": {"horizon": 7, "seed": 3}}))
        cfg = load_config(path)
        assert cfg.run.horizon == 7

    def test_yaml_file_accepted(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("run:\n  horizon: 9\nevolution:\n  lambda: 0.4\n")
        cfg = load_config(path)
        assert cfg.run.horizon == 9
        assert cfg.evolution.lam == 0.4

    def test_range_validation_examples(self):
        with pytest.raises(ConfigError):
            from_dict({"rating": {"r0": 1.5}})
        with pytest.raises(ConfigError):
            from_dict({"outcomes": 1})
        with pytest.raises(ConfigError):
            from_dict({"run": {"mode": "turbo"}})
        with pytest.raises(ConfigError):
            from_dict({"task": {"true_hypothesis": 99}})
        with pytest.raises(ConfigError):
            from_dict({"run": {"horizon": 0}})

    def test_categorical_table_alias(self):
        cfg = from_dict({"likelihood": {"kind": "categorical-table", "peak": 0.6}})
        assert cfg.likelihood.kind == "categorical"

    def test_kernel_mutation_needs_embedding(self):
        with pytest.raises(ConfigError) as e:
            from_dict({"evolution": {"mutation_kind": "kernel-convolution"}})
        assert "embedding" in str(e.value)

    def test_resolve_param(self):
        assert resolve_param("lambda") == "evolution.lambda"
        assert resolve_param("evolution.lambda") == "evolution.lambda"
        assert resolve_param("beta") == "inference.beta"
        assert resolve_param("outcomes") == "outcomes"
        with pytest.raises(ConfigError):
            resolve_param("nope")
        with pytest.raises(ConfigError):
            resolve_param("rating.nope")

    def test_set_param_revalidates(self):
        cfg = from_dict({})
        cfg2 = set_param(cfg, "evolution.lambda", 0.2)
        assert cfg2.evolution.lam == 0.2
        with pytest.raises(ConfigError):
            set_param(cfg, "evolution.lambda", 1.5)



class TestDefaults:
    """Each default is declared once; these pin the copies that document it."""

    def test_sections_are_module_configs(self):
        cfg = from_dict({})
        assert cfg.rating == RatingConfig()
        assert cfg.inference == InferenceConfig()
        assert cfg.evolution == EvolutionConfig()

    def test_readme_block_lists_the_defaults(self):
        readme = (ROOT / "README.md").read_text()
        section = readme[readme.index("## Configuration"):]
        block = section[section.index("```yaml\n") + 8:section.index("```\n", 10)]
        assert yaml.safe_load(block) == to_dict(from_dict({}))

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        load_config(path)

    def test_reference_config_is_the_defaults(self):
        ref = to_dict(load_config(ROOT / "configs" / "reference.yaml"))
        defaults = to_dict(from_dict({}))
        assert ref["run"].pop("out_dir") != defaults["run"].pop("out_dir")
        assert ref == defaults


# Every field the config walk yields, by its file-key path.
SCHEMA = dict(config._schema())
LEAVES = [path for path, hint in SCHEMA.items() if not dataclasses.is_dataclass(hint)]


def _paths(data, prefix=""):
    """The dotted key path of every entry of a nested dict."""
    for key, value in data.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


class TestSchema:
    """The dataclass annotations are the one schema: load, dump, resolve and
    set all see the same fields, by file key."""

    @pytest.mark.parametrize("evolution", [{"lam": 0.3}, {"lambda": 0.45, "lam": 0.3},
                                           {"lam": 0.3, "lambda": 0.45}],
                             ids=["lam", "lambda_then_lam", "lam_then_lambda"])
    def test_attribute_name_is_not_a_key(self, evolution):
        with pytest.raises(ConfigError) as e:
            from_dict({"evolution": evolution})
        assert e.value.field == "evolution.lam"
        assert "unknown field" in str(e.value)

    @pytest.mark.parametrize("name", ["lam", "evolution.lam"])
    def test_attribute_name_is_not_a_parameter(self, name):
        with pytest.raises(ConfigError):
            resolve_param(name)

    def test_sweep_over_attribute_name_exit_one(self, tmp_path):
        data = dict(REFERENCE_SMALL, run=dict(REFERENCE_SMALL["run"], horizon=3,
                                              out_dir=str(tmp_path / "out")))
        proc = run_cli("sweep", write_cfg(tmp_path, data), "--param", "lam", "--values", "0.3")
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: lam")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_every_field_round_trips(self, path):
        cfg = load_config(path)
        data = to_dict(cfg)
        assert set(_paths(data)) == set(SCHEMA)
        for field in LEAVES:
            assert resolve_param(field) == field
            key = field.rpartition(".")[2]
            if [leaf.rpartition(".")[2] for leaf in LEAVES].count(key) == 1:
                assert resolve_param(key) == field
            value = functools.reduce(dict.__getitem__, field.split("."), data)
            assert to_dict(set_param(cfg, field, value)) == data, field


REFERENCE_SMALL = {
    "space": {"hypotheses": 4},
    "outcomes": 4,
    "population": {"agents": 6},
    "run": {"horizon": 25, "seed": 5},
}


def write_cfg(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestCli:
    def test_run_exit_zero_and_files(self, tmp_path, capsys):
        data = dict(REFERENCE_SMALL)
        data["run"] = dict(data["run"], out_dir=str(tmp_path / "out"))
        code = main(["run", write_cfg(tmp_path, data)])
        assert code == 0
        out = capsys.readouterr().out
        assert "final population=" in out
        for name in ("metrics.jsonl", "scores.jsonl", "ledger.tsv", "statelog.jsonl",
                     "summary.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_run_config_error_exit_one(self, tmp_path, capsys):
        data = {"evolution": {"tau_rep": 0.1, "tau_ext": 0.5}}
        code = main(["run", write_cfg(tmp_path, data)])
        assert code == 1
        err = capsys.readouterr().err
        assert "tau_ext" in err and "tau_rep" in err

    @pytest.mark.parametrize("field,value", [
        ("run.horizon", "abc"), ("population.agents", "x"), ("space.hypotheses", "x"),
        ("outcomes", "x"), ("likelihood.peak", "x"), ("task.true_hypothesis", "x"),
        ("space.embedding", 5), ("task.observations", 5), ("oracle", "abc"),
        ("run.async_bound", None), ("population.agents", 2.5), ("run.horizon", 2.5),
        ("run.seed", 1.5), ("space.hypotheses", 10 ** 30), ("outcomes", 10 ** 30),
        ("run.async_bound", 10 ** 23), ("run.horizon", 10 ** 30),
    ])
    def test_run_malformed_value_exit_one(self, tmp_path, capsys, field, value):
        data = {**REFERENCE_SMALL, "run": dict(REFERENCE_SMALL["run"],
                                               out_dir=str(tmp_path / "out"))}
        if "." in field:
            section, key = field.split(".")
            data[section] = dict(data.get(section, {}), **{key: value})
        else:
            data[field] = value
        assert main(["run", write_cfg(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_run_missing_file_exit_one(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.yaml")]) == 1

    def test_run_collapse_exit_two(self, tmp_path):
        data = dict(REFERENCE_SMALL)
        data["population"] = {"agents": 6, "prior": "uniform"}
        data["evolution"] = {"tau_ext": 0.99, "tau_rep": 0.995, "grace": 1}
        data["run"] = dict(REFERENCE_SMALL["run"], out_dir=str(tmp_path / "out"))
        assert main(["run", write_cfg(tmp_path, data)]) == 2

    def test_run_collapse_after_steps_writes_them_and_exits_two(self, tmp_path, capsys):
        # collapse.yaml with three grace steps collapses at step 2: the run prints
        # its root and writes the artifacts of steps 0-1, which verify
        data = yaml.safe_load((ROOT / "configs" / "collapse.yaml").read_text())
        data["evolution"]["grace"] = 3
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", write_cfg(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "population collapse at step 2\n"
        roots = [x for x in captured.out.splitlines() if x.startswith("root=")]
        assert len(roots) == 1
        rows = [json.loads(x) for x in (out / "statelog.jsonl").read_text().splitlines()]
        assert sorted({r["step"] for r in rows}) == [0, 1] and len(rows) == 2 * 10
        assert main(["verify", str(out / "ledger.tsv"), str(out / "statelog.jsonl"),
                     "--root", roots[0][len("root="):]]) == 0

    def test_run_invariant_violation_exit_one(self, tmp_path, capsys, monkeypatch):
        from episwarm import engine
        honest = engine.aggregate_utility

        def perturbed(scores):
            u = honest(scores)
            u[0] += 1.0
            return u

        monkeypatch.setattr(engine, "aggregate_utility", perturbed)
        data = dict(REFERENCE_SMALL)
        data["run"] = dict(data["run"], out_dir=str(tmp_path / "out"))
        assert main(["run", write_cfg(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert "run error at step 0" in err and "InvariantViolation" in err

    @pytest.mark.parametrize("where", ["out under a file", "scores.jsonl a directory"])
    def test_run_write_error_exit_one(self, tmp_path, capsys, where):
        if where == "out under a file":
            (tmp_path / "file").write_text("")
            out = bad = tmp_path / "file" / "sub"
        else:  # raised in the child process that writes scores.jsonl
            out = tmp_path / "out"
            bad = out / "scores.jsonl"
            bad.mkdir(parents=True)
        assert main(["--out", str(out), "run", write_cfg(tmp_path, REFERENCE_SMALL)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"write error: {bad}: ") and "Traceback" not in err

    def test_verify_fresh_run_exit_zero(self, tmp_path):
        data = dict(REFERENCE_SMALL)
        data["run"] = dict(data["run"], out_dir=str(tmp_path / "out"))
        assert main(["run", write_cfg(tmp_path, data)]) == 0
        assert main(["verify", str(tmp_path / "out" / "ledger.tsv"),
                     str(tmp_path / "out" / "statelog.jsonl")]) == 0

    def test_verify_flipped_digit_exit_three(self, tmp_path, capsys):
        data = dict(REFERENCE_SMALL)
        data["run"] = dict(data["run"], out_dir=str(tmp_path / "out"))
        main(["run", write_cfg(tmp_path, data)])
        ledger = tmp_path / "out" / "ledger.tsv"
        text = ledger.read_text()
        idx = text.index("\t", text.index("\t") + 1) + 3
        ch = "0" if text[idx] != "0" else "1"
        ledger.write_text(text[:idx] + ch + text[idx + 1:])
        code = main(["verify", str(ledger), str(tmp_path / "out" / "statelog.jsonl")])
        assert code == 3
        assert "TAMPER" in capsys.readouterr().out

    def test_verify_edited_statelog_exit_three(self, tmp_path):
        data = dict(REFERENCE_SMALL)
        data["run"] = dict(data["run"], out_dir=str(tmp_path / "out"))
        main(["run", write_cfg(tmp_path, data)])
        statelog = tmp_path / "out" / "statelog.jsonl"
        lines = statelog.read_text().splitlines()
        row = json.loads(lines[7])
        row["rating_q"] += 1
        lines[7] = json.dumps(row, separators=(",", ":"))
        statelog.write_text("\n".join(lines) + "\n")
        code = main(["verify", str(tmp_path / "out" / "ledger.tsv"), str(statelog)])
        assert code == 3

    def test_verify_unreadable_exit_one(self, tmp_path):
        assert main(["verify", str(tmp_path / "no.tsv"), str(tmp_path / "no.jsonl")]) == 1

    def test_sweep_writes_csv(self, tmp_path):
        data = dict(REFERENCE_SMALL)
        data["run"] = dict(data["run"], out_dir=str(tmp_path / "out"), horizon=10)
        code = main(["sweep", write_cfg(tmp_path, data), "--param", "lambda",
                     "--values", "0.4,0.45,0.5,0.55,0.6"])
        assert code == 0
        csv_path = tmp_path / "out" / "sweep.csv"
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 6  # header + 5 grid rows

    def test_sweep_takes_null_for_uncapped(self, tmp_path):
        data = dict(REFERENCE_SMALL)
        data["run"] = dict(data["run"], out_dir=str(tmp_path / "out"), horizon=10)
        code = main(["sweep", write_cfg(tmp_path, data), "--param", "n_star",
                     "--values", "null,128"])
        assert code == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(row["value"], row["status"]) for row in rows] == [("", "ok"), ("128", "ok")]

    def test_sweep_without_values_exit_one(self, tmp_path, capsys):
        code = main(["sweep", write_cfg(tmp_path, dict(REFERENCE_SMALL)),
                     "--param", "lambda", "--values", ","])
        assert code == 1
        assert capsys.readouterr().err == ("config error: --values must list at least one "
                                           "value\n")

    def test_sweep_unknown_param_exit_one(self, tmp_path):
        code = main(["sweep", write_cfg(tmp_path, dict(REFERENCE_SMALL)),
                     "--param", "warp_factor", "--values", "1,2"])
        assert code == 1

    def test_seed_and_out_overrides(self, tmp_path):
        data = dict(REFERENCE_SMALL)
        cfg_path = write_cfg(tmp_path, data)
        assert main(["--seed", "77", "--out", str(tmp_path / "alt"), "run", cfg_path]) == 0
        assert (tmp_path / "alt" / "metrics.jsonl").exists()

    def test_async_mode_writes_divergence(self, tmp_path):
        data = dict(REFERENCE_SMALL)
        data["run"] = dict(data["run"], out_dir=str(tmp_path / "out"),
                           mode="async", async_bound=3, horizon=20)
        assert main(["run", write_cfg(tmp_path, data)]) == 0
        assert (tmp_path / "out" / "divergence.json").exists()


GAUSSIAN = {"kind": "discretized-gaussian", "means": [-1.5, -0.5, 0.5, 1.5],
            "scale": 1.0, "bin_edges": [-3.0, -1.0, 0.0, 1.0, 3.0]}

# Scenario kinds the reference scenario does not reach: each must run and verify.
SCENARIO_KINDS = {
    "bernoulli": {"outcomes": 2,
                  "likelihood": {"kind": "bernoulli", "probs": [0.1, 0.4, 0.6, 0.9]}},
    "discretized_gaussian": {"likelihood": GAUSSIAN},
    "oracle_table": {"oracle": [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]},
    "observation_list": {"task": {"observations": [[0, 0], [1, 1], [2, 2], [3, 3], [0, 1]]}},
}

# SHA-256 of the two files the ledger hashes, for the scenario kinds whose
# observations the categorical pins in test_engine do not emit. The metrics,
# scores and summary bytes are left out: their last digits follow the CPU's
# SIMD dispatch, while quantization absorbs that in these two.
SCENARIO_KIND_DIGESTS = {
    "bernoulli": {
        "ledger.tsv": "253123cd5815fffbcf2d2877067cc63a61efd18c134046037fd43ba42716cf59",
        "statelog.jsonl": "1f07a6fc3c9a65070069f5c5aae54367a120f7921bd7e5ee9449cbf70f39ddf7"},
    "discretized_gaussian": {
        "ledger.tsv": "97b321eba79852e4e4a89c52152d02fd6bc178b4e9bcc7953bb2d8226d7b6d02",
        "statelog.jsonl": "35cd0262000ba859c0559b796fabc5b08fc79a011208117609d6f51050b5bd37"},
    "observation_list": {
        "ledger.tsv": "6fee349c5fc7e1a0214f0518e04fb4f4a39221455953dcd799e49505b889ac4f",
        "statelog.jsonl": "b7b54d9ec553828acf7278452215f25641788fecbcd2a57496bcc789a17e316d"},
}

# Configs whose fault only showed once the run had started, as a run error or a
# traceback.
LATE_FAILURES = {
    "short_table": ({"likelihood": {"rows": [[0.5, 0.5]]}}, "likelihood:"),
    "short_probs": ({"outcomes": 2, "likelihood": {"kind": "bernoulli", "probs": [0.1, 0.5]}},
                    "likelihood:"),
    "bad_datum": ({"task": {"observations": [[0, 0], [1, 1], [99, 2]]}},
                  "task.observations[2]:"),
    "truth_outside_space": ({"task": {"true_hypothesis": 99, "observations": [[0, 0]]}},
                            "task.true_hypothesis:"),
}

NAN, INF = float("nan"), float("inf")

# Non-finite values that used to run to exit 0 with NaN output, or fail mid-run.
NON_FINITE = {
    "gain_cap_nan": ({"inference": {"gain_cap": NAN}}, "inference.gain_cap"),
    "gain_cap_inf": ({"inference": {"gain_cap": INF}}, "inference.gain_cap"),
    "beta_nan": ({"inference": {"beta": NAN}}, "inference.beta"),
    "beta_inf": ({"inference": {"beta": INF}}, "inference.beta"),
    "sigma_nan": ({"rating": {"sigma": NAN}}, "rating.sigma"),
    "sigma_inf": ({"rating": {"sigma": INF}}, "rating.sigma"),
    "shape_scale_nan": ({"rating": {"shape_scale": NAN}}, "rating.shape_scale"),
    "dirichlet_alpha_nan": ({"population": {"agents": 6, "dirichlet_alpha": NAN}},
                            "population.dirichlet_alpha"),
    "dirichlet_alpha_inf": ({"population": {"agents": 6, "dirichlet_alpha": INF}},
                            "population.dirichlet_alpha"),
    "sigma_mut_nan": ({"evolution": {"sigma_mut": NAN}}, "evolution.sigma_mut"),
    "sigma_mut_inf": ({"evolution": {"sigma_mut": INF}}, "evolution.sigma_mut"),
    "gaussian_mean_nan": ({"likelihood": dict(GAUSSIAN, means=[-1.5, NAN, 0.5, 1.5])},
                          "likelihood.means[1]"),
}


# Sizes whose arrays cannot be built before the first step. Each used to end
# at load in a MemoryError traceback, or to hang filling the priors.
IMPOSSIBLE_SIZES = {
    "hypotheses_2_62": ({"space": {"hypotheses": 2 ** 62}}, "space.hypotheses"),
    "table_10_12": ({"space": {"hypotheses": 10 ** 6}, "outcomes": 10 ** 6}, "space.hypotheses"),
    "agents_10_11": ({"population": {"agents": 10 ** 11}}, "population.agents"),
    "async_horizon_10_12": ({"run": {"horizon": 10 ** 12, "mode": "async"}}, "run.horizon"),
}


# Horizons whose run record (a state matrix a step and the ledger columns)
# cannot be held. Each used to load and run until it was killed.
LONG_HORIZONS = {
    "sync_horizon_10_12": {"run": {"horizon": 10 ** 12}},
    "n_star_sized": {"population": {"agents": 10}, "evolution": {"n_star": 10 ** 6},
                     "run": {"horizon": 200}},
    "founders_sized": {"population": {"agents": 10 ** 5}, "evolution": {"n_star": 10},
                       "run": {"horizon": 200}},
}


def _small_run(tmp_path, extra):
    data = {**REFERENCE_SMALL, **extra}
    data["run"] = dict(REFERENCE_SMALL["run"], out_dir=str(tmp_path / "out"))
    return write_cfg(tmp_path, data)


class TestBuild:
    """``from_dict`` builds the scenario, so a config that loads is one that runs."""

    @pytest.mark.parametrize("kind", sorted(SCENARIO_KINDS))
    def test_scenario_kind_runs_and_verifies(self, tmp_path, kind):
        assert main(["run", _small_run(tmp_path, SCENARIO_KINDS[kind])]) == 0
        out = tmp_path / "out"
        assert main(["verify", str(out / "ledger.tsv"), str(out / "statelog.jsonl")]) == 0

    @pytest.mark.parametrize("kind", sorted(SCENARIO_KIND_DIGESTS))
    def test_scenario_kind_digests(self, tmp_path, kind):
        res = simulate(from_dict({**REFERENCE_SMALL, **SCENARIO_KINDS[kind]}))
        paths = write_artifacts(res, str(tmp_path))
        digests = {os.path.basename(paths[key]):
                   hashlib.sha256(Path(paths[key]).read_bytes()).hexdigest()
                   for key in ("ledger", "statelog")}
        assert digests == SCENARIO_KIND_DIGESTS[kind]

    @pytest.mark.parametrize("case", sorted(LATE_FAILURES))
    def test_late_failure_is_config_error(self, tmp_path, capsys, case):
        extra, where = LATE_FAILURES[case]
        assert main(["run", _small_run(tmp_path, extra)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}")
        assert "run error" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_value_refused(self, tmp_path, capsys, case):
        extra, field = NON_FINITE[case]
        with pytest.raises(ConfigError) as e:
            from_dict({**REFERENCE_SMALL, **extra})
        assert field in str(e.value)
        assert main(["run", _small_run(tmp_path, extra)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(IMPOSSIBLE_SIZES))
    def test_impossible_size_refused_at_load(self, tmp_path, case):
        data, path = IMPOSSIBLE_SIZES[case]
        with pytest.raises(ConfigError, match="cap on the arrays built before the first step"):
            from_dict(data)
        start = time.monotonic()
        proc = run_cli("--out", tmp_path / "out", "run", write_cfg(tmp_path, data), timeout=30)
        assert time.monotonic() - start < 2.0
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: {path}: needs ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_setup_cap_is_2_28_bytes(self):
        # Literal sizes pin the cap: two 256 x 256 tables and 130560 x 256
        # priors are exactly 2**28 bytes; two 33 x 33 tables and 1016735 x 33
        # priors are 2**28 + 8. Neither run's record reaches its own cap.
        from_dict({"space": {"hypotheses": 256}, "outcomes": 256,
                   "population": {"agents": 130560}, "run": {"horizon": 1}})
        with pytest.raises(ConfigError, match="cap on the arrays built before the first step"):
            from_dict({"space": {"hypotheses": 33}, "outcomes": 33,
                       "population": {"agents": 1016735}, "run": {"horizon": 1}})

    def test_record_cap_is_2_30_bytes(self):
        # One agent with K = 2 over 10226112 steps: 8 * 8 B * 10226113 states
        # plus 41 B * 10226112 ledger entries are exactly 2**30 bytes.
        data = {"space": {"hypotheses": 2}, "outcomes": 2, "population": {"agents": 1},
                "evolution": {"n_star": 1}, "run": {"horizon": 10226112}}
        from_dict(data)
        data["run"]["horizon"] += 1
        with pytest.raises(ConfigError, match="cap on a run's record"):
            from_dict(data)

    def test_bench_sized_records_load(self):
        # the audit bench's run, about 107 MB of record, the largest it runs
        from_dict({"space": {"hypotheses": 100}, "outcomes": 100, "population": {"agents": 200},
                   "evolution": {"n_star": 400},
                   "run": {"horizon": 300, "mode": "async", "async_bound": 5}})

    @pytest.mark.parametrize("case", sorted(LONG_HORIZONS))
    def test_long_horizon_refused_at_load(self, tmp_path, case):
        data = LONG_HORIZONS[case]
        with pytest.raises(ConfigError, match="cap on a run's record") as e:
            from_dict(data)
        assert e.value.field == "run.horizon"
        start = time.monotonic()
        proc = run_cli("--out", tmp_path / "out", "run", write_cfg(tmp_path, data), timeout=30)
        assert time.monotonic() - start < 2.0
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: run.horizon: needs a record of ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_uncapped_run_stops_at_record_cap(self, tmp_path, monkeypatch, capsys):
        # doubling.yaml's population doubles each step: 2**(t + 2) agents after
        # step t, each agent-step (2 + 6) * 8 + 41 = 105 B of record, so the record
        # held after step t is 105 * (2**(t + 3) - 4) B, past 2**20 first at t = 11
        data = yaml.safe_load((ROOT / "configs" / "doubling.yaml").read_text())
        data["run"].update(horizon=64, out_dir=str(tmp_path / "out"))
        path = write_cfg(tmp_path, data)
        monkeypatch.setattr(config, "RECORD_BYTES_MAX", 1 << 20)
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err == ("run error at step 11: ConfigError: evolution.n_star: an uncapped run's "
                       "record reached 1719900 B at 8192 agents, past the 1048576-byte cap on "
                       "a run's record\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads the address space mapped from Linux's /proc/self/statm")
    def test_out_of_memory_exit_one_without_traceback(self, tmp_path):
        # doubling.yaml at horizon 64 in a child whose address space is capped
        # at what it has mapped with episwarm imported plus 256 MiB: MemoryError
        # stops it long before its record nears the 1 GiB cap
        data = yaml.safe_load((ROOT / "configs" / "doubling.yaml").read_text())
        data["run"].update(horizon=64, out_dir=str(tmp_path / "out"))
        start = time.monotonic()
        proc = run_cli("run", write_cfg(tmp_path, data), timeout=60, script=OUT_OF_MEMORY_SCRIPT)
        assert time.monotonic() - start < 10.0
        assert proc.returncode == 1, proc.stderr
        assert re.fullmatch(r"run error at step \d+: MemoryError(: .*)?\n", proc.stderr), \
            proc.stderr
        assert not (tmp_path / "out").exists()

    def test_numpy_memory_error_exit_one(self, tmp_path, monkeypatch, capsys):
        # numpy's allocation failure is a subclass of MemoryError; 4 EiB is
        # refused before any page is touched
        honest = engine.quantize_rows

        def refused(pop, t, arena):
            if t == 3:
                np.empty(1 << 62, np.uint8)
            return honest(pop, t, arena)

        monkeypatch.setattr(engine, "quantize_rows", refused)
        assert main(["run", _small_run(tmp_path, {})]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run error at step 3: MemoryError: Unable to allocate "), err
        assert not (tmp_path / "out").exists()

    def test_huge_int_in_float_field_runs(self, tmp_path):
        # held as the float 1e30, not as an int numpy would make an object array of
        extra = {"population": {"agents": 6, "dirichlet_alpha": 10 ** 30}}
        cfg = from_dict({**REFERENCE_SMALL, **extra})
        assert type(cfg.population.dirichlet_alpha) is float
        assert cfg == from_dict({**REFERENCE_SMALL, "population": {"agents": 6,
                                                                  "dirichlet_alpha": 1e30}})
        assert main(["run", _small_run(tmp_path, extra)]) == 0

    def test_dirichlet_alpha_bound(self, tmp_path, capsys):
        # the K gamma draws of a prior row are summed: an alpha above
        # float max / (2 K) is refused at load, not left to give all-zero rows
        limit = float(np.finfo(np.float64).max) / (2 * REFERENCE_SMALL["space"]["hypotheses"])
        below = {"population": {"agents": 6, "dirichlet_alpha": float(np.nextafter(limit, 0.0))}}
        assert main(["run", _small_run(tmp_path, below)]) == 0
        capsys.readouterr()
        for alpha in (float(np.nextafter(limit, np.inf)), 2.0 ** 1023):
            above = {"population": {"agents": 6, "dirichlet_alpha": alpha}}
            with pytest.raises(ConfigError, match="population.dirichlet_alpha"):
                from_dict({**REFERENCE_SMALL, **above})
            assert main(["run", _small_run(tmp_path, above)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: population.dirichlet_alpha")
            assert "Traceback" not in err

    @pytest.mark.parametrize("make", [
        lambda: RatingConfig(sigma=NAN), lambda: RatingConfig(shape_scale=INF),
        lambda: InferenceConfig(beta=NAN), lambda: InferenceConfig(gain_cap=INF),
        lambda: EvolutionConfig(sigma_mut=NAN),
    ], ids=["rating_sigma", "rating_shape_scale", "inference_beta", "inference_gain_cap",
            "evolution_sigma_mut"])
    def test_module_config_refuses_non_finite(self, make):
        with pytest.raises(ShapeMismatch):
            make()

    @pytest.mark.parametrize("extra,where", [
        ({"likelihood": {"peak": 1.5}}, "likelihood"),
        ({"likelihood": {"kind": "bernoulli", "probs": [0.1, 0.4, 0.6, 0.9]}}, "likelihood"),
        ({"likelihood": dict(GAUSSIAN, bin_edges=[-1.0, 0.0, 1.0])}, "likelihood"),
        ({"oracle": [[0, 1], [1, 0]]}, "oracle"),
        ({"task": {"observations": [[0, 0, 0]]}}, "task.observations[0]"),
        ({"space": {"hypotheses": 4, "embedding": [[0.0], [1.0]]}}, "space.embedding"),
    ], ids=["peak_outside_unit", "bernoulli_four_outcomes", "gaussian_three_bins",
            "oracle_shape", "observation_triple", "embedding_points"])
    def test_cross_section_check_names_section(self, extra, where):
        with pytest.raises(ConfigError) as e:
            from_dict({**REFERENCE_SMALL, **extra})
        assert str(e.value).startswith(f"{where}:")

    @pytest.mark.parametrize("extra,message", [
        ({"evolution": {"grace": 0}}, "evolution: grace must be a positive integer"),
        ({"evolution": {"n_star": 0}}, "evolution: n_star must be >= 1"),
        ({"likelihood": dict(GAUSSIAN, means=[-0.5, 0.5])},
         "likelihood: need one finite mean per hypothesis (4)"),
        ({"likelihood": dict(GAUSSIAN, scale=0)},
         "likelihood: scale must be a positive finite real"),
        ({"likelihood": GAUSSIAN, "task": {"observations": [[0.5, 1], ["0.5", 1]]}},
         "task.observations[1]: gaussian model expects a real payload, got '0.5'"),
        ({"likelihood": GAUSSIAN, "task": {"observations": [[True, 1]]}},
         "task.observations[0]: gaussian model expects a real payload, got True"),
        ({"likelihood": GAUSSIAN, "task": {"observations": [[0.5, 1], [0.0, 2], [NAN, 1]]}},
         "task.observations[2]: gaussian payload must be finite"),
        ({"likelihood": GAUSSIAN, "task": {"observations": [[-INF, 0]]}},
         "task.observations[0]: gaussian payload must be finite"),
    ], ids=["grace_zero", "n_star_zero", "gaussian_means_length", "gaussian_scale_zero",
            "gaussian_text_payload", "gaussian_bool_payload", "gaussian_nan_payload",
            "gaussian_infinite_payload"])
    def test_refusal_names_its_field(self, extra, message):
        with pytest.raises(ConfigError) as e:
            from_dict({**REFERENCE_SMALL, **extra})
        assert str(e.value).startswith(message)

    def test_simulation_checks_a_config_built_in_python(self):
        cfg = ScenarioConfig(space=SpaceSection(hypotheses=4), outcomes=4,
                             task=TaskSection(true_hypothesis=4))
        with pytest.raises(ConfigError) as e:
            Simulation(cfg)
        assert e.value.field == "task.true_hypothesis"

    def test_simulation_takes_an_array_oracle(self):
        table = np.ones((4, 4)) - np.eye(4)
        cfg = ScenarioConfig(space=SpaceSection(hypotheses=4), outcomes=4, oracle=table)
        assert np.array_equal(Simulation(cfg).oracle, table)


def _edit_field(key, change):
    def edit(line):
        row = json.loads(line)
        row[key] = change(row[key])
        return json.dumps(row, separators=(",", ":"))
    return edit


def _with_entry(i, value):
    return lambda belief: belief[:i] + [value] + belief[i + 1:]


# Each edit turns one state-log line into input the verifier must refuse as
# malformed (exit 1), not replay and not crash on.
MALFORMED_STATE_LINES = {
    "truncated_line": lambda line: line[:len(line) // 2],
    "trailing_data": lambda line: line + " {}",
    "non_json": lambda line: "not json",
    "non_object": lambda line: "5",
    "float_field": _edit_field("strength_q", float),
    "float_belief_entry": _edit_field("belief_q", lambda b: [b[0] + 0.5] + b[1:]),
    "bool_field": _edit_field("birth_step", bool),
    "bool_belief_entry": _edit_field("belief_q", _with_entry(1, True)),
    "string_belief": _edit_field("belief_q", json.dumps),
    "belief_out_of_range": _edit_field("belief_q", _with_entry(0, 2 ** 63)),
    "scalar_out_of_range": _edit_field("rating_q", lambda v: -(2 ** 63) - 1),
    "rating_plus_fraction": _edit_field("rating_q", lambda v: v + 0.4),
    # valid JSON with the right values, but not a line write_state_log prints
    "spaced_json": lambda line: json.dumps(json.loads(line)),
    "reordered_keys": lambda line: json.dumps(dict(reversed(json.loads(line).items())),
                                              separators=(",", ":")),
    "extra_key": lambda line: line[:-1] + ',"extra":1}',
    "negative_zero": lambda line: line.replace('"birth_step":0}', '"birth_step":-0}'),
    "crlf_ending": lambda line: line + "\r",
    "belief_entry_dropped": _edit_field("belief_q", lambda b: b[:-1]),
}


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "out"
    data = dict(REFERENCE_SMALL)
    data["run"] = dict(data["run"], out_dir=str(out))
    assert main(["run", write_cfg(out.parent, data)]) == 0
    return out


# ``episwarm *args`` with the address space capped at what the process has
# mapped once episwarm is imported, plus 256 MiB: the cap binds this child only.
OUT_OF_MEMORY_SCRIPT = """
import resource, sys
from episwarm.cli import main
with open("/proc/self/statm") as f:
    limit = int(f.read().split()[0]) * resource.getpagesize() + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


def run_cli(*args, timeout=120, script=None):
    """``python -m episwarm.cli *args`` in a child process, as a console user
    runs it, or ``python -c script *args``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    command = ["-m", "episwarm.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *command, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=timeout)


class TestVerifyMalformedStateLog:
    @pytest.mark.parametrize("case", sorted(MALFORMED_STATE_LINES))
    def test_exit_one_with_located_message(self, case, run_artifacts, tmp_path):
        lines = (run_artifacts / "statelog.jsonl").read_text().splitlines()
        assert json.loads(lines[7])["birth_step"] == 0  # bool_field writes false
        lines[7] = MALFORMED_STATE_LINES[case](lines[7])
        statelog = tmp_path / "statelog.jsonl"
        statelog.write_text("\n".join(lines) + "\n")
        proc = run_cli("verify", run_artifacts / "ledger.tsv", statelog)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "state log line 8:" in proc.stderr


def _ledger_fields(change):
    def edit(line):
        return "\t".join(change(line.split("\t")))
    return edit


# Each edit turns one ledger line into input the verifier must refuse as
# malformed (exit 1) and locate.
MALFORMED_LEDGER_LINES = {
    "non_integer_id": _ledger_fields(lambda f: ["bad"] + f[1:]),
    "plus_signed_id": lambda line: "+" + line,
    "non_hex_digest": _ledger_fields(lambda f: f[:2] + ["g" + f[2][1:]]),
    "uppercase_digest": _ledger_fields(lambda f: f[:2] + [f[2].upper()]),
    "short_digest": lambda line: line[:-1],
    "two_fields": _ledger_fields(lambda f: [f[0], f[2]]),
    "id_out_of_range": _ledger_fields(lambda f: [str(2 ** 63)] + f[1:]),
}


class TestVerifyMalformedLedger:
    @pytest.mark.parametrize("case", sorted(MALFORMED_LEDGER_LINES))
    def test_exit_one_with_located_message(self, case, run_artifacts, tmp_path):
        lines = (run_artifacts / "ledger.tsv").read_text().splitlines()
        assert lines[3].split("\t")[2] != lines[3].split("\t")[2].upper()
        lines[3] = MALFORMED_LEDGER_LINES[case](lines[3])
        ledger = tmp_path / "ledger.tsv"
        ledger.write_text("\n".join(lines) + "\n")
        proc = run_cli("verify", ledger, run_artifacts / "statelog.jsonl")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "ledger line 4:" in proc.stderr


# Copies of a belief list that verify has already read in canonical form (at
# a block size of one line, from the line before): Python's int() or float()
# reads each edited entry as the same number, yet none is a list
# write_state_log prints. ``entries`` are the list's texts, the second "0".
NON_CANONICAL_REPEATS = {
    "leading_zero": lambda entries: ["0" + entries[0]] + entries[1:],
    "negative_zero": lambda entries: entries[:1] + ["-0"] + entries[2:],
    "plus_sign": lambda entries: ["+" + entries[0]] + entries[1:],
    "leading_space": lambda entries: [" " + entries[0]] + entries[1:],
    "decimal_point": lambda entries: [entries[0] + ".0"] + entries[1:],
}


def _verify_exit(ledger_path, statelog_path, capsys):
    code = main(["verify", str(ledger_path), str(statelog_path)])
    return code, capsys.readouterr().err


class TestVerifyNonCanonicalRepeat:
    @pytest.mark.parametrize("block_bytes", [1, 300, ledger._BLOCK_BYTES])
    @pytest.mark.parametrize("case", sorted(NON_CANONICAL_REPEATS))
    def test_refused_at_its_own_line(self, case, block_bytes, run_artifacts, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.setattr(ledger, "_BLOCK_BYTES", block_bytes)
        lines = (run_artifacts / "statelog.jsonl").read_text().splitlines(keepends=True)
        beliefs = [line[line.index("[") + 1:line.index("]")] for line in lines]
        i = len(lines) - 1
        assert beliefs[i] == beliefs[i - 1] and beliefs[i].split(",")[1] == "0"
        edited = ",".join(NON_CANONICAL_REPEATS[case](beliefs[i].split(",")))
        lines[i] = lines[i].replace(f"[{beliefs[i]}]", f"[{edited}]")
        statelog = tmp_path / "statelog.jsonl"
        statelog.write_text("".join(lines))
        code, err = _verify_exit(run_artifacts / "ledger.tsv", statelog, capsys)
        assert code == 1
        assert err.startswith(f"parse error: state log line {i + 1}: expected"), err


def _verify_edited(name, lines, run_artifacts, tmp_path, capsys, monkeypatch, fork):
    """``_verify_exit`` with ``name`` holding ``lines``, the other file as
    the run wrote it, and os.fork deleted unless ``fork``."""
    files = {n: run_artifacts / n for n in ("ledger.tsv", "statelog.jsonl")}
    files[name] = tmp_path / name
    files[name].write_text("\n".join(lines) + "\n")
    with monkeypatch.context() as m:
        if not fork:
            m.delattr(os, "fork")
        return _verify_exit(files["ledger.tsv"], files["statelog.jsonl"], capsys)


class TestVerifyFirstFaultyLine:
    # A line whose integer is out of range (line 4), then one that breaks the
    # grammar (line 6): verify names the first, in one pass or two.
    @pytest.mark.parametrize("name,cases,where", [
        ("statelog.jsonl", (MALFORMED_STATE_LINES, "belief_out_of_range", "non_json"),
         "state log"),
        ("ledger.tsv", (MALFORMED_LEDGER_LINES, "id_out_of_range", "non_integer_id"), "ledger"),
    ])
    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize("block_bytes", [1, 300, ledger._BLOCK_BYTES])
    def test_range_fault_before_a_grammar_fault_is_named(
            self, name, cases, where, block_bytes, fork, run_artifacts, tmp_path, capsys,
            monkeypatch):
        monkeypatch.setattr(ledger, "_BLOCK_BYTES", block_bytes)
        edits, out_of_range, grammar = cases
        lines = (run_artifacts / name).read_text().splitlines()
        lines[3] = edits[out_of_range](lines[3])
        lines[5] = edits[grammar](lines[5])
        code, err = _verify_edited(name, lines, run_artifacts, tmp_path, capsys, monkeypatch,
                                   fork)
        assert code == 1
        assert err.startswith(f"parse error: {where} line 4: {2 ** 63} is outside the signed "
                              "64-bit range"), err

    def test_faults_either_side_of_the_cut(self, run_artifacts, tmp_path, capsys, monkeypatch):
        # The range fault on the last line before the two-process replay's
        # cut (the first line start past the middle byte), the grammar fault
        # on the first line after it.
        lines = (run_artifacts / "statelog.jsonl").read_text().splitlines()
        for i in range(1, len(lines)):
            edited = list(lines)
            edited[i - 1] = MALFORMED_STATE_LINES["belief_out_of_range"](lines[i - 1])
            edited[i] = MALFORMED_STATE_LINES["non_json"](lines[i])
            text = "\n".join(edited) + "\n"
            if text[:text.find("\n", len(text) // 2) + 1].count("\n") == i:
                break
        else:
            pytest.fail("no two lines stay either side of the cut once edited")
        message = (f"parse error: state log line {i}: {2 ** 63} is outside the signed 64-bit "
                   "range")
        # At a third of the file a block, the one pass reads both lines in one block.
        for block_bytes in (1, 300, len(text) // 3):
            monkeypatch.setattr(ledger, "_BLOCK_BYTES", block_bytes)
            for fork in (True, False):  # two processes, since the file is over two blocks; one
                code, err = _verify_edited("statelog.jsonl", edited, run_artifacts, tmp_path,
                                           capsys, monkeypatch, fork)
                assert code == 1
                assert err.startswith(message), (block_bytes, fork, err)

    def test_digest_digits_are_not_integers(self, run_artifacts, tmp_path, capsys, monkeypatch):
        # 64 nines are lowercase hex, and not an integer field: a line with a
        # signed id is refused for its grammar, not for the digest's value.
        lines = (run_artifacts / "ledger.tsv").read_text().splitlines()
        lines[3] = "+" + lines[3][:-64] + "9" * 64
        code, err = _verify_edited("ledger.tsv", lines, run_artifacts, tmp_path, capsys,
                                   monkeypatch, True)
        assert code == 1
        assert err.startswith("parse error: ledger line 4: expected"), err


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    cfg = from_dict({"space": {"hypotheses": 2}, "outcomes": 2, "population": {"agents": 2},
                     "run": {"horizon": 2, "seed": 1}})
    return write_artifacts(simulate(cfg), str(tmp_path_factory.mktemp("tiny")))


class TestVerifyEverySingleByteEdit:
    # Each replacement byte stands for a class of fault: a digit (a changed
    # value or a leading zero), a sign, a line break and a bracket.
    REPLACEMENTS = b"0-\n]"

    @pytest.mark.parametrize("name", ["ledger", "statelog"])
    def test_never_verifies_and_never_raises(self, name, tiny_artifacts, tmp_path, capsys):
        paths = dict(tiny_artifacts)
        data = Path(paths[name]).read_bytes()
        paths[name] = tmp_path / name
        codes = {}
        for i in range(len(data)):
            for byte in self.REPLACEMENTS:
                if data[i] != byte:
                    paths[name].write_bytes(data[:i] + bytes([byte]) + data[i + 1:])
                    code = main(["verify", str(paths["ledger"]), str(paths["statelog"])])
                    codes[code] = codes.get(code, 0) + 1
        capsys.readouterr()
        assert set(codes) <= {1, 3}, codes
        assert codes.get(1) and codes.get(3), codes


class TestLedgerRoot:
    def test_run_and_verify_print_the_golden_root(self, tmp_path, capsys):
        golden = json.loads((ROOT / "bench" / "golden.json").read_text())
        root = f"root={golden['reference']['0'][0]['root']}"
        out = tmp_path / "reference"
        assert main(["--seed", "0", "--out", str(out), "run",
                     str(ROOT / "configs" / "reference.yaml")]) == 0
        assert [x for x in capsys.readouterr().out.splitlines() if x.startswith("root=")] == [root]
        # verify recomputes it from the file: each agent's head is its last
        # line, whichever order the agents' lines come in
        lines = (out / "ledger.tsv").read_text().splitlines(keepends=True)
        by_agent_descending = sorted(lines, key=lambda line: -int(line.split("\t")[0]))
        for text in ("".join(lines), "".join(by_agent_descending)):
            (tmp_path / "ledger.tsv").write_text(text)
            assert main(["verify", str(tmp_path / "ledger.tsv"),
                         str(out / "statelog.jsonl")]) == 0
            assert capsys.readouterr().out.splitlines() == ["ok: all chains verified", root]

    @pytest.mark.parametrize("deleted", ["tail", "chain"])
    def test_deleted_from_both_files_passes_only_plain_verify(self, deleted, tmp_path, capsys):
        """Plain verify shows that the two files agree, not that each chain is
        whole: deleting a chain's last entry, or the whole chain, from both
        files still verifies. The chain heads change, so --root exits 3."""
        out = tmp_path / "run"
        assert main(["--out", str(out), "run", write_cfg(tmp_path, REFERENCE_SMALL)]) == 0
        root = [x for x in capsys.readouterr().out.splitlines() if x.startswith("root=")][0][5:]
        ledger_lines = (out / "ledger.tsv").read_text().splitlines(keepends=True)
        state_lines = (out / "statelog.jsonl").read_text().splitlines(keepends=True)
        ids = [int(line.split("\t")[0]) for line in ledger_lines]
        agent = max(set(ids), key=ids.count)  # the longest chain
        last = max(json.loads(line)["step"] for line in state_lines
                   if json.loads(line)["agent_id"] == agent)
        assert ids.count(agent) >= 2

        def kept(agent_id, step):
            return agent_id != agent or (deleted == "tail" and step != last)

        (out / "ledger.tsv").write_text("".join(
            line for line in ledger_lines if kept(*map(int, line.split("\t")[:2]))))
        (out / "statelog.jsonl").write_text("".join(
            line for line in state_lines
            if kept(json.loads(line)["agent_id"], json.loads(line)["step"])))
        files = [str(out / "ledger.tsv"), str(out / "statelog.jsonl")]
        assert main(["verify", *files]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "ok: all chains verified"
        assert main(["verify", *files, "--root", root]) == 3
        assert capsys.readouterr().out.splitlines()[0] == f"ROOT MISMATCH expected={root}"

    def test_verify_root(self, tmp_path, capsys):
        """--root binds the files to a root recorded elsewhere: files of another
        run verify on their own, but not against this run's root."""
        runs = {}
        for seed in (5, 6):
            out = tmp_path / str(seed)
            assert main(["--seed", str(seed), "--out", str(out), "run",
                         write_cfg(tmp_path, REFERENCE_SMALL)]) == 0
            root = [x for x in capsys.readouterr().out.splitlines() if x.startswith("root=")]
            runs[seed] = (root[0][5:], [str(out / "ledger.tsv"), str(out / "statelog.jsonl")])
        root, files = runs[5]
        assert main(["verify", *files, "--root", root]) == 0
        assert capsys.readouterr().out.splitlines() == ["ok: all chains verified", f"root={root}"]
        changed = ("1" if root[0] == "0" else "0") + root[1:]
        assert main(["verify", *files, "--root", changed]) == 3
        assert capsys.readouterr().out.splitlines() == [f"ROOT MISMATCH expected={changed}",
                                                        f"root={root}"]
        other = runs[6][1]
        assert main(["verify", *other]) == 0
        assert main(["verify", *other, "--root", root]) == 3
        capsys.readouterr()
        for text in ("abc", root.upper(), root + "0", " " + root[1:]):
            assert main(["verify", *files, "--root", text]) == 1
            err = capsys.readouterr().err
            assert "--root" in err and "Traceback" not in err
