"""lendsim benchmark: `SimulationEngine.run` on seeded workloads.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --self-check

One invocation measures one workload: it writes the seeded scenario, then
runs it again and again, each time in a fresh child process (`child.py`),
one after another, until `--seconds` have passed (default: BENCHMARK.json's
`run_seconds`). `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones from
traced runs (interleaved with untraced runs for the tracing overhead). The
last line of standard output is the result object; the lines before it give
each metric with its unit, the sample counts and the provenance.

A run fails if it raises (which includes `Ledger.full_audit` failing at run
end), if the vault engine's ledger holdings differ from the vaults'
collateral, or if its output directory's sha256 differs from the first run
of this (workload, seed).

`--report` runs every workload both ways and adds a top-5 self-time table.
`--self-check` runs each workload on a short horizon and checks that every
metric is produced and that the workloads still do what they are for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "lendsim"
WORK = ROOT / ".bench_work"

# untraced runs wanted per invocation: each step's time is the median of its
# times across runs (every run repeats the same steps), which keeps one slow
# stretch of a shared host out of the step percentiles
MIN_RUNS = 3
# no new run starts after this many seconds, so an invocation ends in time
DEADLINE_S = 150
SELF_CHECK_HORIZON = {"desk": 60, "crowd": 20, "cascade": 200}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def provenance(workload: str, seed: int, digest: str | None) -> dict:
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "output_sha256": digest,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------
def run_child(workload: str, seed: int, scenario_file: Path, mode: str, timeout: float) -> dict:
    out = WORK / f"out-{workload}-{mode}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--scenario", str(scenario_file), "--out", str(out), "--mode", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"run exceeded {timeout:.0f} s"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "error": f"child exited {proc.returncode} without a result"}
    if not result.get("ok"):
        sys.stderr.write(proc.stderr[-4000:])
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, horizon: int | None = None) -> dict:
    """Run children until the time budget is spent; return runs and failures."""
    import workloads

    WORK.mkdir(exist_ok=True)
    scenario_file = WORK / f"scenario-{workload}.json"
    scenario_file.write_text(json.dumps(workloads.BUILDERS[workload](seed, horizon)))
    started = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    digest = None
    while True:
        elapsed = time.monotonic() - started
        enough = traced and plain if trace else len(plain) >= MIN_RUNS
        if (enough and elapsed >= seconds) or elapsed >= DEADLINE_S:
            break
        mode = "trace" if trace and len(traced) < len(plain) else "plain"
        result = run_child(workload, seed, scenario_file, mode, timeout=max(DEADLINE_S + 20 - elapsed, 10))
        if result.get("ok"):
            digest = digest or result["digest"]
            if result["digest"] != digest:
                result = {"ok": False, "error": f"output sha256 {result['digest']} differs from {digest}"}
        if result.get("ok"):
            (traced if mode == "trace" else plain).append(result)
        else:
            failures.append(result.get("error") or "; ".join(result.get("problems", [])))
    return {"workload": workload, "seed": seed, "plain": plain, "traced": traced, "failures": failures,
            "attempted": len(plain) + len(traced) + len(failures), "digest": digest}


def end_to_end(m: dict) -> dict:
    runs = m["plain"]
    steps = [statistics.median(times) / 1e6 for times in zip(*(r["step_ns"] for r in runs))]
    return {
        "steps_per_s": statistics.median(r["steps"] / r["run_s"] for r in runs),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p99": statistics.quantiles(steps, n=100)[98],
        "setup_s": statistics.median(r["setup"]["total"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(m: dict) -> dict:
    traced = m["traced"]
    out = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    runs = m["plain"] + traced
    for phase in ("parse", "validate", "build_world"):
        out[f"scenario.{phase}_s"] = statistics.median(r["setup"][phase] for r in runs)
    # both on wall time, the clock the spans use
    plain_sps = statistics.median(r["steps"] / r["run_wall_s"] for r in m["plain"])
    out["trace.overhead_ratio"] = statistics.median(r["steps"] / r["run_wall_s"] for r in traced) / plain_sps
    return out


def self_time_table(m: dict) -> dict[str, float]:
    names = {n for r in m["traced"] for n in r["self_s"]}
    return {n: statistics.median(r["self_s"].get(n, 0.0) for r in m["traced"]) for n in names}


def metrics_for(m: dict, trace: bool, spec: dict) -> dict:
    values = per_layer(m) if trace else end_to_end(m)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in listed}


def describe(m: dict, metrics: dict) -> list[str]:
    plain, traced = m["plain"], m["traced"]
    horizon = (plain or traced)[0]["steps"] if plain or traced else 0
    lines = [
        f"workload {m['workload']} seed {m['seed']}: {horizon} steps per run; "
        f"{len(plain)} untraced runs (step percentiles over {horizon} per-step medians), "
        f"{len(traced)} traced runs",
        f"run_failure_ratio = {len(m['failures'])}/{m['attempted']}",
    ]
    lines += [f"  failure: {f}" for f in m["failures"]]
    lines += [f"  {name} = {v['value']:.6g} {v['unit']}" for name, v in metrics.items()]
    if plain:
        events = plain[0]["events"]
        lines.append("  events per run: " + ", ".join(f"{k} {v}" for k, v in sorted(events.items())))
        lines.append(f"  ledger accounts {plain[0]['accounts']}, journal records {plain[0]['journal_records']}, "
                     f"pool borrows gap {plain[0]['borrows_gap']} raw units")
    return lines


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------
def single(args, spec: dict) -> int:
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not (m["traced"] if args.trace else m["plain"]):
        print(f"no successful run of {args.workload}", file=sys.stderr)
        return 1
    metrics = metrics_for(m, bool(args.trace), spec)
    print("\n".join(describe(m, metrics)))
    print("provenance " + json.dumps(provenance(m["workload"], m["seed"], m["digest"])))
    failed = len(m["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": m["attempted"], "failed": failed, "metrics": metrics}))
    return 0


def report(args, spec: dict) -> int:
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        untraced = measure(workload, args.seed, args.seconds, trace=False)
        traced = measure(workload, args.seed, args.seconds, trace=True)
        if not untraced["plain"] or not traced["traced"]:
            print(f"{workload}: no successful run", file=sys.stderr)
            status = 1
            continue
        for m, trace in ((untraced, False), (traced, True)):
            print("\n".join(describe(m, metrics_for(m, trace, spec))))
        print("provenance " + json.dumps(provenance(workload, args.seed, untraced["digest"])))
        table = self_time_table(traced)
        total = sum(table.values())
        print(f"\ntop-5 self time, {workload} (traced run, {total:.3f} s in spans)\n")
        print("| span | self s | share |\n| --- | --- | --- |")
        for name in sorted(table, key=table.get, reverse=True)[:5]:
            print(f"| `{name}` | {table[name]:.3f} | {table[name] / total:.1%} |")
        print()
    return status


def self_check(args, spec: dict) -> int:
    import workloads

    problems = []
    accounts = {}
    for workload in workloads.WORKLOADS:
        horizon = SELF_CHECK_HORIZON[workload]
        m = measure(workload, args.seed, 0, trace=True, horizon=horizon)
        if m["failures"] or not m["plain"] or not m["traced"]:
            problems.append(f"{workload}: runs failed: {m['failures']}")
            continue
        for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
            values = per_layer(m) if trace else end_to_end(m)
            missing = {d["name"] for d in spec[listed]} ^ set(values)
            if missing:
                problems.append(f"{workload}: {listed} metrics missing or unlisted: {sorted(missing)}")
        events = m["plain"][0]["events"]
        accounts[workload] = m["plain"][0]["accounts"]
        print(f"{workload} ({horizon} steps): {json.dumps(events, sort_keys=True)}, {accounts[workload]} accounts")
        if workload == "cascade":
            for kind in ("liquidation", "vault-liquidation", "flash-liquidation-committed"):
                if not events.get(kind):
                    problems.append(f"cascade produced no {kind} event")
    if accounts.get("crowd", 0) <= accounts.get("desk", 0):
        problems.append(f"crowd has no more ledger accounts than desk: {accounts}")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="time budget of one invocation (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--self-check", action="store_true", help="short runs checking the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"lendsim sources not found under {SRC.parent}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC.parent), str(HERE)]
    import workloads

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.self_check:
        return self_check(args, spec)
    if args.report:
        return report(args, spec)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
