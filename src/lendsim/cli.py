"""Command-line entry point: validate, run, and scan scenarios.

Exit codes: 0 success, 1 validation failure, 2 runtime failure, 3 IO failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import errors, flashloan
from .scenario import ParseError, ValidationError, load_scenario, validate_scenario
from .simulation import SimulationEngine

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _load_and_validate(path: str):
    try:
        sc = load_scenario(path)
        warnings = validate_scenario(sc)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from exc
    except (ParseError, ValidationError) as exc:
        # both collect field problems; a document that cannot be read at all has none
        lines = [f"validation error: {problem}" for problem in exc.problems] or [f"parse error: {exc}"]
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION) from exc
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return sc


def cmd_validate(args: argparse.Namespace) -> int:
    _load_and_validate(args.scenario)
    print("OK")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    sc = _load_and_validate(args.scenario)
    if args.steps is not None and args.steps < 1:
        print(f"validation error: --steps {args.steps} must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    engine = SimulationEngine(sc, seed=args.seed, horizon=args.steps, verbosity=args.verbosity)
    try:
        summary = engine.run(out_dir=args.out)
    except errors.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        print(json.dumps({"events": engine.world.events[-20:]}, default=str), file=sys.stderr)
        return EXIT_RUNTIME
    except errors.Overflow as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    sc = _load_and_validate(args.scenario)
    if not 0 <= args.step < sc.horizon:
        print(f"validation error: step {args.step} outside horizon {sc.horizon}", file=sys.stderr)
        return EXIT_VALIDATION
    engine = SimulationEngine(sc)
    try:
        for t in range(args.step):
            engine.step(t)
        engine.world.oracle.ensure_step(args.step)
        found = flashloan.scan_arbitrage(engine.world, args.step)
        found += flashloan.scan_liquidations(engine.world, args.step)
    except errors.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except errors.Overflow as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for opp in found:
        print(json.dumps(opp.to_record(args.step), sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lendsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write telemetry")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--verbosity", type=int, choices=(0, 2), default=0, help="2 adds one agent-order event per step")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_scan = sub.add_parser("scan", help="print flash-loan opportunities at a step")
    p_scan.add_argument("--scenario", required=True)
    p_scan.add_argument("--step", type=int, required=True)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
