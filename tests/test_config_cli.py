import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from episwarm.cli import main
from episwarm.config import (dump_config, from_dict, load_config, resolve_param,
                             set_param, to_dict)
from episwarm.errors import ConfigError


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
}


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "out"
    data = dict(REFERENCE_SMALL)
    data["run"] = dict(data["run"], out_dir=str(out))
    assert main(["run", write_cfg(out.parent, data)]) == 0
    return out


class TestVerifyMalformedStateLog:
    @pytest.mark.parametrize("case", sorted(MALFORMED_STATE_LINES))
    def test_exit_one_with_located_message(self, case, run_artifacts, tmp_path):
        lines = (run_artifacts / "statelog.jsonl").read_text().splitlines()
        assert json.loads(lines[7])["birth_step"] == 0  # bool_field writes false
        lines[7] = MALFORMED_STATE_LINES[case](lines[7])
        statelog = tmp_path / "statelog.jsonl"
        statelog.write_text("\n".join(lines) + "\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "episwarm.cli", "verify",
                               str(run_artifacts / "ledger.tsv"), str(statelog)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "state log line 8:" in proc.stderr
