"""Run a bundled scenario or a perfbench workload on two source trees and diff the outputs.

Each tree runs the same target in a fresh process with its own `src` on the
path. Per output file, and per CSV column or JSON key, the report gives the
rows added and removed, the rows changed, and the largest absolute and
relative difference. Values are read as exact decimal strings, as integers
of 1e-18 units, so a difference in the last digit shows as 1e-18 exactly.
Rows are aligned as `difflib` aligns lines; a block of changed rows is
paired row by row and its surplus counts as added or removed.

Usage:

    python scripts/output_diff.py OLD_TREE NEW_TREE --scenario table1 [--workload desk] [--steps N]
    python scripts/output_diff.py --dirs OLD_OUT NEW_OUT

`--scenario` (a `scenarios/<name>.json` of each tree) and `--workload` (a
`perfbench/workloads.py` builder, set up as the benchmark's `child.py` does)
may repeat; a scenario runs at its own seed, a workload at seed 1, as the
benchmark's digest pins do. `--dirs` compares two output directories already
written. The exit status is 0 when every file is byte-identical, 1 when one
differs.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

RAW_DIGITS = 18  # lendsim renders every amount with at most 18 decimals
DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]{1,%d})?" % RAW_DIGITS)

# a workload run in one tree: the benchmark's own set-up, then a run with an output directory
WORKLOAD_RUNNER = """
import json, sys
tree, workload, steps, out = sys.argv[1:]
sys.path.insert(0, tree + "/perfbench")  # child.py puts the tree's src first
import child, workloads
scenario_file = out + ".json"
with open(scenario_file, "w") as fp:
    json.dump(workloads.BUILDERS[workload](1, int(steps) if steps else None), fp)
engine, _ = child.set_up(workload, 1, scenario_file)
engine.run(out_dir=out)
"""


def decimal(raw: int) -> str:
    """A non-negative count of 1e-18 units as an exact decimal string."""
    whole, frac = divmod(raw, 10**RAW_DIGITS)
    return f"{whole}.{frac:0{RAW_DIGITS}d}".rstrip("0").rstrip(".")


def raw_units(value) -> int | None:
    """A decimal string or a JSON integer as an integer of 1e-18 units, or None if it is neither."""
    if isinstance(value, str) and DECIMAL.fullmatch(value):
        whole, _, frac = value.partition(".")
        sign, whole = (-1, whole[1:]) if whole.startswith("-") else (1, whole)
        return sign * int(whole + frac.ljust(RAW_DIGITS, "0"))
    if isinstance(value, int) and not isinstance(value, bool):
        return value * 10**RAW_DIGITS
    return None


class Column:
    """The differences seen in one CSV column or JSON key."""

    def __init__(self) -> None:
        self.changed = 0
        self.max_abs: int | None = None  # 1e-18 units, for values that both read as numbers
        self.max_rel = Fraction(0)

    def add(self, old, new) -> None:
        if old == new:
            return
        self.changed += 1
        a, b = raw_units(old), raw_units(new)
        if a is not None and b is not None:
            diff = abs(a - b)
            self.max_abs = diff if self.max_abs is None else max(self.max_abs, diff)
            if diff:  # "0" and "0.0" differ in text only
                self.max_rel = max(self.max_rel, Fraction(diff, max(abs(a), abs(b))))


def flatten(value, prefix: str = "") -> dict[str, object]:
    """A JSON value as {dotted key: leaf value}."""
    if isinstance(value, dict):
        flat: dict[str, object] = {}
        for key, item in value.items():
            flat.update(flatten(item, f"{prefix}.{key}" if prefix else str(key)))
        return flat
    return {prefix or "(value)": value}


def parse_rows(name: str, lines: list[str]) -> tuple[str, list[str], list[dict[str, object]]]:
    """(a CSV's header line, the rows' lines, each row as {column or key: value}); the header is
    not a row, and is "" for the JSON files."""
    if name.endswith(".csv"):
        header, body = (lines[0], lines[1:]) if lines else ("", [])
        return header, body, [dict(zip(header.split(","), line.split(","))) for line in body]
    if name.endswith(".jsonl"):
        return "", lines, [flatten(json.loads(line)) for line in lines]
    return "", ["".join(lines)], [flatten(json.loads("".join(lines)))]


def diff_file(name: str, old_text: str, new_text: str) -> dict:
    """The CSV header (old, new) if it changed; rows added, removed and changed; and per column the changes
    and largest differences."""
    old_header, old_lines, old_rows = parse_rows(name, old_text.splitlines())
    new_header, new_lines, new_rows = parse_rows(name, new_text.splitlines())
    added = removed = changed = 0
    columns: dict[str, Column] = {}
    matcher = difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
        pairs = min(i2 - i1, j2 - j1)
        removed += (i2 - i1) - pairs
        added += (j2 - j1) - pairs
        changed += pairs
        for old, new in zip(old_rows[i1 : i1 + pairs], new_rows[j1 : j1 + pairs]):
            for key in sorted(old.keys() | new.keys()):
                columns.setdefault(key, Column()).add(old.get(key), new.get(key))
    return {"header": (old_header, new_header) if old_header != new_header else None, "added": added, "removed": removed, "changed": changed,
            "columns": {k: c for k, c in columns.items() if c.changed}}


def diff_dirs(old_dir: Path, new_dir: Path) -> list[str]:
    """The report lines for two output directories; empty when every file is byte-identical."""
    lines = []
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not old.exists() or not new.exists():
            lines.append(f"{name}: only in {'new' if new.exists() else 'old'}")
            continue
        old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
        if old_bytes == new_bytes:
            continue
        d = diff_file(name, old_bytes.decode(), new_bytes.decode())
        if d["header"]:
            lines.append(f"{name}: header {d['header'][0]} -> {d['header'][1]}")
        lines.append(f"{name}: {d['changed']} rows changed, {d['added']} added, {d['removed']} removed")
        for key, col in d["columns"].items():
            if col.max_abs is None:
                lines.append(f"  {key}: {col.changed} changed (not numeric)")
            else:
                lines.append(f"  {key}: {col.changed} changed, max abs {decimal(col.max_abs)}, "
                             f"max rel {float(col.max_rel):.3g}")
    return lines


def run_target(tree: Path, kind: str, name: str, steps: int | None, out: Path) -> None:
    """Write the target's output directory as the tree's code writes it."""
    if kind == "scenario":
        cmd = [sys.executable, "-m", "lendsim", "run", "--scenario", str(tree / "scenarios" / f"{name}.json"),
               "--out", str(out)]
        cmd += ["--steps", str(steps)] if steps is not None else []
    else:
        cmd = [sys.executable, "-c", WORKLOAD_RUNNER, str(tree), name, str(steps or ""), str(out)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{kind} {name} failed in {tree}:\n{proc.stderr[-4000:]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--scenario", action="append", default=[])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--steps", type=int)
    parser.add_argument("--dirs", nargs=2, type=Path, metavar=("OLD_OUT", "NEW_OUT"))
    args = parser.parse_args(argv)
    if args.dirs:
        reports = [("dirs", diff_dirs(*args.dirs))]
    else:
        targets = [("scenario", n) for n in args.scenario] + [("workload", n) for n in args.workload]
        if len(args.trees) != 2 or not targets:
            parser.error("give OLD_TREE NEW_TREE and at least one --scenario or --workload, or --dirs")
        reports = []
        with tempfile.TemporaryDirectory() as tmp:
            for kind, name in targets:
                outs = [Path(tmp) / f"{kind}-{name}-{side}" for side in ("old", "new")]
                for tree, out in zip(args.trees, outs):
                    run_target(tree.resolve(), kind, name, args.steps, out)
                reports.append((f"{kind} {name}", diff_dirs(*outs)))
    for title, lines in reports:
        print(f"{title}: " + ("differs" if lines else "no difference"))
        for line in lines:
            print(f"  {line}")
    return int(any(lines for _, lines in reports))


if __name__ == "__main__":
    sys.exit(main())
