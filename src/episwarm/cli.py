"""Command-line entry point.

Subcommands:
  run <config>                          execute a scenario (sync or async)
  verify <ledger> <statelog> [--root H] replay a state log against a ledger
  sweep <config> --param P --values V   run a 1-D parameter grid

A run, and a verify that finds every chain intact, print the ledger root
(``ledger.ledger_root``) as root=<hex>: the same run gives the same line.
``verify --root <hex>`` also requires the recomputed root to equal the given
one.

Exit codes: 0 success, 1 config/parse error, a write error, or a run error
(any other package error raised during a run, reported with the step it was
raised at), 2 population collapse, 3 tamper detected (a root other than the
given one included).
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config, resolve_param, set_param
from .engine import run, sweep, write_sweep_csv
from .errors import ConfigError, EpiswarmError, PopulationCollapse
from .ledger import audit_artifacts, ledger_root

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COLLAPSE = 2
EXIT_TAMPER = 3

HEX_DIGITS = "0123456789abcdef"


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg = set_param(cfg, "run.seed", args.seed)
    if args.out is not None:
        cfg = set_param(cfg, "run.out_dir", args.out)
    return cfg


def _write_error(exc: OSError) -> int:
    where = "" if exc.filename is None else f"{exc.filename}: "
    print(f"write error: {where}{exc.strerror or exc}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_run(args) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result, divergence = run(cfg)
    except PopulationCollapse as exc:
        print(f"population collapse at step {exc.step}", file=sys.stderr)
        return EXIT_COLLAPSE
    except EpiswarmError as exc:
        where = "outside a step" if exc.step is None else f"at step {exc.step}"
        print(f"run error {where}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        return _write_error(exc)
    if divergence is not None:
        print(f"async divergence: weighted_belief_tv={divergence['weighted_belief_tv']:.6f} "
              f"rating_histogram_tv={divergence['rating_histogram_tv']:.6f}")
    s = result.summary()
    wtm = s["final_weighted_truth_mass"]
    wtm_text = "n/a" if wtm is None else f"{wtm:.6f}"
    print(f"final population={s['final_population']} mass={s['final_mass']:.6f} "
          f"truth_mass={wtm_text}")
    print(f"root={ledger_root(result.chains)}")
    if result.collapsed_at is not None:
        print(f"population collapse at step {result.collapsed_at}", file=sys.stderr)
        return EXIT_COLLAPSE
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.root is not None and (len(args.root) != 64 or args.root.strip(HEX_DIGITS)):
        print(f"parse error: --root must be 64 lowercase hex digits, got {args.root!r}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        findings, root = audit_artifacts(args.ledger, args.statelog)
    except (OSError, ValueError, EpiswarmError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if findings:
        for agent_id, step in findings:
            print(f"TAMPER agent={agent_id} step={step}")
        return EXIT_TAMPER
    if args.root is not None and root != args.root:
        print(f"ROOT MISMATCH expected={args.root}")
        print(f"root={root}")
        return EXIT_TAMPER
    print("ok: all chains verified")
    print(f"root={root}")
    return EXIT_OK


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text in ("null", "none", "None"):
        return None
    return text


def cmd_sweep(args) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        resolve_param(args.param)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    values = [_parse_value(v) for v in args.values.split(",") if v != ""]
    if not values:
        print("config error: --values must list at least one value", file=sys.stderr)
        return EXIT_CONFIG
    rows = sweep(cfg, args.param, values)
    out_path = args.csv or f"{cfg.run.out_dir}/sweep.csv"
    try:
        write_sweep_csv(rows, out_path)
    except OSError as exc:
        return _write_error(exc)
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep complete: {len(rows)} points, {failures} non-ok, wrote {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="episwarm",
                                     description="Evolutionary Bayesian swarm simulator")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument("--out", type=str, default=None, help="override run.out_dir")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="verify ledger + state log")
    p_verify.add_argument("ledger")
    p_verify.add_argument("statelog")
    p_verify.add_argument("--root", default=None,
                          help="exit 3 unless the recomputed ledger root is this hex")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--csv", default=None, help="sweep CSV path")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
