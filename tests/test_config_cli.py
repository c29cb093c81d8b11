import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from episwarm.cli import main
from episwarm.config import (ScenarioConfig, SpaceSection, TaskSection, dump_config,
                             from_dict, load_config, resolve_param, set_param, to_dict)
from episwarm.engine import Simulation
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
        ("run.seed", 1.5),
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


def _cli_verify(ledger, statelog):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "episwarm.cli", "verify", str(ledger),
                           str(statelog)], capture_output=True, text=True, env=env, timeout=120)


class TestVerifyMalformedStateLog:
    @pytest.mark.parametrize("case", sorted(MALFORMED_STATE_LINES))
    def test_exit_one_with_located_message(self, case, run_artifacts, tmp_path):
        lines = (run_artifacts / "statelog.jsonl").read_text().splitlines()
        assert json.loads(lines[7])["birth_step"] == 0  # bool_field writes false
        lines[7] = MALFORMED_STATE_LINES[case](lines[7])
        statelog = tmp_path / "statelog.jsonl"
        statelog.write_text("\n".join(lines) + "\n")
        proc = _cli_verify(run_artifacts / "ledger.tsv", statelog)
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
        proc = _cli_verify(ledger, run_artifacts / "statelog.jsonl")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "ledger line 4:" in proc.stderr
