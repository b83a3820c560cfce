"""One measured simulation run, in a fresh process.

    python3 perfbench/child.py --workload W --seed N --scenario FILE --out DIR --mode plain|trace

Sets the scenario up several times (parse, validate, build_world and engine
construction, plus the vault book in `cascade`), keeps the last engine and
runs it with an output directory, as `lendsim run` does. The last line of
standard output is one JSON object describing the run. A fresh process per
run makes `ru_maxrss` the peak of this run alone.

plain: every `engine.step` is timed through a wrapper on the instance.
trace: `Tracer` spans are recorded around the run instead.

Set-up, step and run times are the process's CPU time (user + system), which
other load on a shared host disturbs less than wall time; the run's wall time
is recorded too, on the clock the tracer's spans use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lendsim import scenario, simulation  # noqa: E402

import workloads  # noqa: E402

SETUPS_PER_RUN = 5


def output_digest(directory: Path) -> str:
    """sha256 over the sorted file names and contents of a run directory."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def set_up(workload: str, seed: int, scenario_file: str) -> tuple[simulation.SimulationEngine, dict]:
    """One set-up as `lendsim run` performs it; returns the engine and phase CPU times (s)."""
    built = []
    build_world = simulation.build_world
    clock = time.process_time

    def timed_build_world(*args, **kwargs):
        t = clock()
        world = build_world(*args, **kwargs)
        built.append(clock() - t)
        return world

    t0 = clock()
    sc = scenario.load_scenario(scenario_file)
    t1 = clock()
    scenario.validate_scenario(sc)
    t2 = clock()
    simulation.build_world = timed_build_world
    try:
        engine = simulation.SimulationEngine(sc)
    finally:
        simulation.build_world = build_world
    if workload == "cascade":
        workloads.open_vaults(engine.world, seed)
    t3 = clock()
    return engine, {"parse": t1 - t0, "validate": t2 - t1, "build_world": built[0], "total": t3 - t0}


def identity_problems(world) -> list[str]:
    """The vault engine's ledger holdings must equal the vaults' collateral."""
    problems = []
    vaults = world.cdp.vaults.values() if world.cdp is not None else ()
    for asset in world.ledger.assets():
        held = world.ledger.balance("vault-engine", asset)
        locked = sum(v.collateral.get(asset, 0) for v in vaults)
        if held != locked:
            problems.append(f"vault-engine holds {held} {asset}, vaults record {locked}")
    return problems


def borrows_gap(world) -> int:
    """Sum over pools of |total_borrows - sum of positions' debt|, raw units."""
    return sum(
        abs(p.total_borrows - sum(p.debt_of(a) for a in p.positions)) for p in world.pools.values()
    )


def event_counts(world) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in world.events:
        kind = event.get("kind")
        if kind == "flash":
            kind = f"flash-{event.get('plan')}-{event.get('outcome')}"
        counts[kind] = counts.get(kind, 0) + 1
    return counts


# per-layer self times that are part of a larger one (ledger.self_s)
NESTED_SELF = ("ledger.checkpoint.self_s", "ledger.full_audit.self_s")


def trace_metrics(tracer, run_wall_s: float) -> tuple[dict, dict]:
    """Reduce the recorded spans and counters to the per-layer metrics."""
    self_ns, calls = tracer.self_times()

    def self_s(*names: str) -> float:
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def prefixed(prefix: str) -> list[str]:
        return [n for n in self_ns if n.startswith(prefix)]

    arb = tracer.scan_results.get("flashloan.scan_arbitrage", [0, 0, 0])
    liq = tracer.scan_results.get("flashloan.scan_liquidations", [0, 0, 0])
    plans = calls.get("flashloan.execute.scratch", 0)
    executes = calls.get("flashloan.execute", 0)
    out = {
        "simulation.step.self_s": self_s("simulation.step"),
        "simulation.distribute_rewards.self_s": self_s("simulation.distribute_rewards"),
        "simulation.reward_weights_visited": tracer.holders_visited
        + tracer.counter_calls("pool.debt_of", under="simulation.distribute_rewards"),
        "simulation.run.self_s": self_s("simulation.run"),
        "agents.active.calls": tracer.counter_calls("agents.active"),
        "agents.act.calls": calls.get("agents.act", 0),
        "agents.act.self_s": self_s("agents.act"),
        "flashloan.scan_arbitrage.calls": arb[0],
        "flashloan.scan_arbitrage.self_s": self_s("flashloan.scan_arbitrage"),
        "flashloan.scan_arbitrage.hit_ratio": arb[1] / arb[0] if arb[0] else 0.0,
        "flashloan.scan_liquidations.calls": liq[0],
        "flashloan.scan_liquidations.self_s": self_s("flashloan.scan_liquidations"),
        "flashloan.scan_liquidations.plans_simulated": plans,
        "flashloan.scan_liquidations.hit_ratio": liq[2] / plans if plans else 0.0,
        "flashloan.scratch_execute.self_s": self_s("flashloan.execute.scratch"),
        "flashloan.execute.calls": executes,
        "flashloan.execute.self_s": self_s("flashloan.execute"),
        "flashloan.execute.commit_ratio": tracer.committed_agent_executes / executes if executes else 0.0,
        "liquidation.account_totals.calls": calls.get("liquidation.account_totals", 0),
        "liquidation.account_totals.self_s": self_s("liquidation.account_totals"),
        "liquidation.borrowing_power.calls": tracer.counter_calls("liquidation.borrowing_power"),
        "liquidation.liquidate.calls": calls.get("liquidation.liquidate", 0),
        "liquidation.liquidate.self_s": self_s("liquidation.liquidate"),
        "world.checkpoint.calls": calls.get("world.checkpoint", 0),
        "world.checkpoint.self_s": self_s("world.checkpoint"),
        "world.rollback.self_s": self_s("world.rollback"),
        "ledger.reads.calls": calls.get("ledger.read", 0),
        "ledger.writes.calls": calls.get("ledger.write", 0),
        "ledger.self_s": self_s(*prefixed("ledger.")),
        "ledger.checkpoint.self_s": self_s("ledger.checkpoint"),
        "ledger.full_audit.self_s": self_s("ledger.full_audit"),
        "pool.accrue.calls": calls.get("pool.accrue", 0),
        "pool.accrue.self_s": self_s("pool.accrue"),
        "pool.ops.calls": calls.get("pool.ops", 0),
        "pool.ops.self_s": self_s("pool.ops"),
        "pool.underlying_claim.calls": tracer.counter_calls("pool.underlying_claim"),
        "pool.debt_of.calls": tracer.counter_calls("pool.debt_of"),
        "pool.telemetry_row.self_s": self_s("pool.telemetry_row"),
        "cdp.accrue.self_s": self_s("cdp.accrue"),
        "cdp.telemetry_rows.self_s": self_s("cdp.telemetry_rows"),
        "cdp.is_unsafe.calls": tracer.counter_calls("cdp.is_unsafe"),
        "cdp.liquidate.calls": calls.get("cdp.liquidate", 0),
        "venues.quote.calls": calls.get("venues.quote", 0),
        "venues.quote.self_s": self_s("venues.quote"),
        "venues.trade.calls": calls.get("venues.trade", 0),
        "venues.trade.self_s": self_s("venues.trade"),
        "oracle.price_at.calls": calls.get("oracle.price_at", 0),
        "oracle.self_s": self_s(*prefixed("oracle.")),
    }
    # the part of the run no per-layer self time accounts for
    attributed = sum(v for k, v in out.items() if k.endswith(".self_s") and k not in NESTED_SELF)
    out["trace.unattributed_s"] = run_wall_s - attributed
    return out, {name: ns / 1e9 for name, ns in self_ns.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("plain", "trace"), default="plain")
    args = parser.parse_args()
    out_dir = Path(args.out)
    result: dict = {"ok": False, "mode": args.mode}
    try:
        phases = []
        for _ in range(SETUPS_PER_RUN):
            engine, phase = set_up(args.workload, args.seed, args.scenario)
            phases.append(phase)
        result["setup"] = {k: statistics.median(p[k] for p in phases) for k in phases[0]}

        tracer = None
        step_ns: list[int] = []
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            step = engine.step
            clock = time.process_time_ns

            def timed_step(t: int) -> None:
                start = clock()
                step(t)
                step_ns.append(clock() - start)

            engine.step = timed_step
        started, started_wall = time.process_time(), time.perf_counter()
        try:
            engine.run(out_dir=out_dir)
        finally:
            run_s = time.process_time() - started
            run_wall_s = time.perf_counter() - started_wall
            if tracer is not None:
                tracer.uninstall()

        world = engine.world
        result.update(
            run_s=run_s,
            run_wall_s=run_wall_s,
            steps=engine.horizon,
            step_ns=step_ns,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            digest=output_digest(out_dir),
            problems=identity_problems(world),
            borrows_gap=borrows_gap(world),
            events=event_counts(world),
            accounts=len(world.ledger.accounts()),
            journal_records=len(world.ledger.journal),
        )
        if tracer is not None:
            layers, self_s = trace_metrics(tracer, run_wall_s)
            layers["world.accounts"] = result["accounts"]
            layers["ledger.journal_records"] = result["journal_records"]
            layers["pool.borrows_gap"] = result["borrows_gap"]
            acts = layers["agents.act.calls"]
            layers["agents.error_ratio"] = result["events"].get("agent-error", 0) / acts if acts else 0.0
            result.update(layers=layers, self_s=self_s)
            tracer.write(out_dir.parent / f"trace-{args.workload}")
        result["ok"] = not result["problems"]
    except Exception as exc:  # any failure of the run is reported, not raised
        result["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
