"""Command line interface: run, list, and validate scenarios.

Exit codes: 0 success, 1 configuration error, 2 solver error,
3 certification failure, 4 output error (the output directory or a file in
it cannot be written).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace

from .errors import ConfigError, SolverError
from .scenarios import bundled_scenarios, load_scenario, run_scenario, validate_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CERT = 3
EXIT_OUTPUT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="so3track",
        description="Hybrid attitude tracking simulations with Lyapunov certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a bundled scenario or a config file")
    p_run.add_argument("config", help="bundled scenario name or path to a config file")
    p_run.add_argument("--out-dir", default="out", help="output directory (default: out)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--dt", type=float, default=None, help="override the integration step")
    p_run.add_argument("--t-max", type=float, default=None, help="override the time horizon")
    p_run.add_argument("--no-plots", action="store_true", help="skip SVG chart output")

    sub.add_parser("list", help="list bundled scenarios")

    p_val = sub.add_parser("validate", help="check a config without simulating")
    p_val.add_argument("config", help="bundled scenario name or path to a config file")
    return parser


def _load_with_overrides(args) -> object:
    cfg = load_scenario(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
        overrides["members"] = [replace(m, seed=args.seed + m.index) for m in cfg.members]
    if getattr(args, "dt", None) is not None:
        overrides["dt"] = args.dt
    if getattr(args, "t_max", None) is not None:
        overrides["t_max"] = args.t_max
    return replace(cfg, **overrides) if overrides else cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in bundled_scenarios():
            print(name)
        return EXIT_OK

    try:
        cfg = _load_with_overrides(args)
        notes = validate_scenario(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    for note in notes:
        print(f"warning: {note}")

    if args.command == "validate":
        print(f"{cfg.name}: OK ({len(cfg.members)} member run(s), {len(notes)} warning(s))")
        return EXIT_OK

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # gain advisories were already printed
            result = run_scenario(cfg, args.out_dir, plots=not args.no_plots)
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_OUTPUT
    for res in result.members:
        status = "PASS" if res.report.passed else "FAIL"
        print(f"{cfg.name} {res.member.label}: {status} -> {res.csv_path}")
    if not result.passed:
        print("certification failed; see the *_cert.txt reports", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
