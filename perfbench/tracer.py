"""Span tracing of lendsim from outside: wrappers installed on its classes.

`Tracer.install()` replaces public functions of the engine's modules with
wrappers and `uninstall()` puts the originals back; nothing under `src/` is
edited. Wrappers go on classes and module globals, never on instances,
because `World.rollback` swaps in deep-copied `Pool`/`CdpEngine` objects and
`flashloan` reaches `execute` and `amm_in_given_out` through its own globals.

Two kinds of hook:

* a span records (parent id, name, start, end) for every call, in flat
  arrays kept in memory and written once by `write()`. Self time of a span is
  its duration minus the time its child spans cover.
* a counter only counts calls, keyed by the enclosing span's name. Its time
  stays in the caller's self time: `agents.active` polling, for instance, is
  part of the scheduler's (`simulation.step`) self time.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

from lendsim import agents, cdp, flashloan, ledger, liquidation, oracle, pool, simulation, venues, world

NO_PARENT = -1

# (owner, attribute, span name); owner is a class or a module
SPANS = [
    (simulation.SimulationEngine, "run", "simulation.run"),
    (simulation.SimulationEngine, "step", "simulation.step"),
    (simulation.SimulationEngine, "distribute_rewards", "simulation.distribute_rewards"),
    *[(cls, "act", "agents.act") for cls in agents.AGENT_CLASSES.values()],
    (flashloan, "scan_arbitrage", "flashloan.scan_arbitrage"),
    (flashloan, "scan_liquidations", "flashloan.scan_liquidations"),
    (flashloan, "execute", "flashloan.execute"),
    (liquidation, "account_totals", "liquidation.account_totals"),
    (liquidation, "liquidate", "liquidation.liquidate"),
    (world.World, "checkpoint", "world.checkpoint"),
    (world.World, "rollback", "world.rollback"),
    *[(ledger.Ledger, name, "ledger.read") for name in ("balance", "supply", "holders", "iter_holders")],
    *[(ledger.Ledger, name, "ledger.write") for name in ("transfer", "mint", "burn")],
    (ledger.Ledger, "checkpoint", "ledger.checkpoint"),
    (ledger.Ledger, "rollback", "ledger.rollback"),
    (ledger.Ledger, "commit", "ledger.commit"),
    (ledger.Ledger, "audit", "ledger.audit"),
    (ledger.Ledger, "full_audit", "ledger.full_audit"),
    (pool.Pool, "accrue", "pool.accrue"),
    *[(pool.Pool, name, "pool.ops") for name in ("deposit", "redeem", "borrow", "repay")],
    (pool.Pool, "telemetry_row", "pool.telemetry_row"),
    (cdp.CdpEngine, "accrue", "cdp.accrue"),
    (cdp.CdpEngine, "telemetry_rows", "cdp.telemetry_rows"),
    (cdp.CdpEngine, "liquidate", "cdp.liquidate"),
    (venues.QuoteVenue, "sell_quote", "venues.quote"),
    (venues.QuoteVenue, "buy_quote", "venues.quote"),
    (venues.AmmVenue, "swap_quote", "venues.quote"),
    (venues, "amm_in_given_out", "venues.quote"),
    (flashloan, "amm_in_given_out", "venues.quote"),
    *[(venues.QuoteVenue, name, "venues.trade") for name in ("sell", "buy")],
    (venues.AmmVenue, "swap", "venues.trade"),
    (oracle.PriceOracle, "price_at", "oracle.price_at"),
    (oracle.PriceOracle, "value_usd", "oracle.value_usd"),
    (oracle.PriceOracle, "ensure_step", "oracle.ensure_step"),
]

COUNTERS = [
    (agents.BaseAgent, "active", "agents.active"),
    (liquidation, "borrowing_power", "liquidation.borrowing_power"),
    (pool.Pool, "underlying_claim", "pool.underlying_claim"),
    (pool.Pool, "debt_of", "pool.debt_of"),
    (cdp.CdpEngine, "is_unsafe", "cdp.is_unsafe"),
]

# scratch simulations inside the liquidation scanner are recorded under their
# own name, so agent-initiated executes stay separate
SCRATCH_EXECUTE = "flashloan.execute.scratch"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        # (counter name id, enclosing span name id) -> calls
        self.counts: dict[tuple[int, int], int] = {}
        # scan name -> [scans, scans with >= 1 opportunity, opportunities]
        self.scan_results: dict[str, list[int]] = {}
        self.committed_agent_executes = 0
        self.holders_visited = 0
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ------------------------------------------------------------------
    def _span(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        scratch_id = self.name_id(SCRATCH_EXECUTE)
        scan_liq_id = self.name_id("flashloan.scan_liquidations")
        parents, names, starts, ends, stack = self.parent, self.name, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        is_execute = name == "flashloan.execute"

        def wrapper(*args, **kwargs):
            sid = len(starts)
            parent = stack[-1] if stack else NO_PARENT
            span_name = nid
            if is_execute and parent != NO_PARENT and names[parent] == scan_liq_id:
                span_name = scratch_id
            parents.append(parent)
            names.append(span_name)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, span_name)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        nid = self.name_id(name)
        names, stack, counts = self.name, self.stack, self.counts

        def wrapper(*args, **kwargs):
            key = (nid, names[stack[-1]] if stack else NO_PARENT)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _scan_hook(self, name: str):
        tally = self.scan_results.setdefault(name, [0, 0, 0])

        def on_result(found, _span_name):
            tally[0] += 1
            tally[1] += bool(found)
            tally[2] += len(found)

        return on_result

    def _execute_hook(self, result, span_name) -> None:
        if span_name != self._ids[SCRATCH_EXECUTE] and isinstance(result, flashloan.Committed):
            self.committed_agent_executes += 1

    def _holders_hook(self, fn):
        # count the weights distribute_rewards iterates; listing the generator
        # inside the ledger span charges that iteration to the ledger
        # this runs inside its own ledger.read span, so look one level up
        rewards_id = self.name_id("simulation.distribute_rewards")
        names, parents, stack = self.name, self.parent, self.stack
        tracer = self

        def wrapper(ledger_, asset):
            items = list(fn(ledger_, asset))
            caller = parents[stack[-1]]
            if caller != NO_PARENT and names[caller] == rewards_id:
                tracer.holders_visited += len(items)
            return iter(items)

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            fn = getattr(owner, attr)
            if attr == "iter_holders":
                fn = self._holders_hook(fn)
            on_result = None
            if name in ("flashloan.scan_arbitrage", "flashloan.scan_liquidations"):
                on_result = self._scan_hook(name)
            elif name == "flashloan.execute":
                on_result = self._execute_hook
            self._patch(owner, attr, self._span(name, fn, on_result))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._counter(name, getattr(owner, attr)))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per span name: total self time (ns) and call count."""
        n = len(self.start)
        covered = [0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p != NO_PARENT:
                covered[p] += ends[i] - starts[i]
        self_ns = dict.fromkeys(self.names, 0)
        calls = dict.fromkeys(self.names, 0)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            self_ns[name] += ends[i] - starts[i] - covered[i]
            calls[name] += 1
        return self_ns, calls

    def counter_calls(self, name: str, under: str | None = None) -> int:
        """Calls of a counter hook, optionally only those under span `under`."""
        nid = self._ids[name]
        parent = None if under is None else self._ids[under]
        return sum(c for (k, p), c in self.counts.items() if k == nid and (parent is None or p == parent))

    def write(self, directory: Path) -> None:
        """Write every span once: a JSON header and int64 rows of
        (parent id, name id, start ns, end ns), span id = row number."""
        directory.mkdir(parents=True, exist_ok=True)
        rows = array("q")
        for row in zip(self.parent, self.name, self.start, self.end):
            rows.extend(row)
        with open(directory / "spans.bin", "wb") as fp:
            rows.tofile(fp)
        header = {"fields": ["parent", "name", "start_ns", "end_ns"], "dtype": "int64", "spans": len(self.start),
                  "names": self.names, "no_parent": NO_PARENT}
        (directory / "spans.json").write_text(json.dumps(header, indent=1) + "\n")
