"""Discrete-time scheduler: phases, reward emission, telemetry, summaries.

Each step runs a fixed phase order: (1) advance price feeds, (2) accrue all
pools and the vault fee index, (3) distribute governance-token rewards,
(4) the live agents act in an order shuffled by a seed derived from (master
seed, t), (5) render the step's telemetry rows, which `run` streams to disk.
In (3) both sides of each pool are paid as streams that recompute their
shares only after a write to their weights and are multiplied out (steps
owed x share) when the reward totals are read: the supply side is weighted
by IOU balances and recomputed after a ledger write of the IOU, the borrow
side by scaled principal (the pool's debt book, `Pool.positions`, which
accrual leaves alone) and recomputed after a write to that book. Agent
failures become events, never aborts. Before the rows render, World.audit
checks that no ledger checkpoint outlived the step, that each debt book
written in the step still sums to its scaled total, and that the vault
engine's ledger holdings equal the vaults' recorded collateral, per asset;
the full conservation audit runs at the end of the run.

In (4) only the live agents act, in the order `random.Random(seed).shuffle`
gives the list of their indices in scenario order: k - 1 draws for k live
agents, however many agents the scenario holds. A calendar sorted by window
start admits every agent whose window has opened by t and drops, for good,
each whose `active(t)` is false, since its window has closed. Steps must
therefore run in non-decreasing t, as a dropped agent never returns;
skipping steps is fine. At verbosity 2 each step emits an `agent-order`
event naming the agents that act, in the order they act.

Outputs per run directory: pools.csv, vaults.csv, events.jsonl, rewards.csv
and summary.json (initial/final value locked per pool, liquidation count,
flash-loan profit, per-agent P&L in USD). The two CSVs are opened before
step 0, and a step appends its rows once all of them have rendered, so their
memory stays bounded and a failed run leaves whole steps and no summary.json;
the other files are written when the run ends. Every value is rendered as an
exact decimal string so identical (scenario, seed) runs produce
byte-identical output directories.
"""

from __future__ import annotations

import json
import random
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from typing import TextIO

from . import errors, liquidation
from .agents import BaseAgent, make_agent
from .cdp import VAULT_TELEMETRY_HEADER
from .fixed import mul_down, to_str
from .oracle import derive_seed
from .pool import TELEMETRY_HEADER
from .scenario import Scenario, build_world

REWARD_DUST_ACCOUNT = "reward-dust"
# the streamed CSVs write through a buffer this large, so a flush is rare on the step path
ROW_BUFFER_BYTES = 256 * 1024


class SimulationEngine:
    def __init__(self, scenario: Scenario, seed: int | None = None, horizon: int | None = None, verbosity: int = 0):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.horizon = scenario.horizon if horizon is None else horizon
        self.verbosity = verbosity
        self.world = build_world(scenario, seed_override=seed)
        self.agents: list[BaseAgent] = [make_agent(spec) for spec in scenario.agents]
        # agent indices by window start, latest first; step pops them as t reaches it
        starts = [spec.window[0] for spec in scenario.agents]
        self._calendar = sorted(range(len(starts)), key=starts.__getitem__, reverse=True)
        self._live: list[int] = []
        self._pool_order = sorted(self.world.pools)
        self._csv: tuple[TextIO, TextIO] | None = None  # (pools.csv, vaults.csv) while run streams them
        self.initial_tvl: dict[str, int] = {}
        self._initial_worth: dict[str, int] = {}

    # ------------------------------------------------------------------
    def step(self, t: int) -> None:
        world = self.world
        world.oracle.ensure_step(t)
        for sym in self._pool_order:
            world.pools[sym].accrue(world)
        if world.cdp is not None:
            world.cdp.accrue(world, t)
        self.distribute_rewards(t)

        agents, calendar = self.agents, self._calendar
        while calendar and agents[calendar[-1]].spec.window[0] <= t:
            self._live.append(calendar.pop())
        self._live = [i for i in self._live if agents[i].active(t)]
        order = sorted(self._live)
        random.Random(derive_seed(self.seed, "order", t)).shuffle(order)
        if self.verbosity >= 2:
            world.emit(kind="agent-order", step=t, order=[agents[i].account for i in order])
        for i in order:
            agent = agents[i]
            try:
                agent.act(world, t)
            except errors.SimError as exc:
                world.emit(
                    kind="agent-error",
                    step=t,
                    agent=agent.account,
                    action=agent.spec.kind,
                    error=type(exc).__name__,
                    detail=str(exc),
                )

        world.audit(t)
        # rendered even when no file takes them: a value too long to render fails the step either way
        pool_rows = [world.pools[sym].telemetry_row(world, t) for sym in self._pool_order]
        vault_rows = world.cdp.telemetry_rows(world, t) if world.cdp is not None else []
        if self._csv is not None:
            for fp, rows in zip(self._csv, (pool_rows, vault_rows)):
                if rows:
                    fp.write("\n".join(rows) + "\n")

    # ------------------------------------------------------------------
    def distribute_rewards(self, t: int) -> None:
        emission = self.scenario.rewards.emission_per_pool
        if emission == 0:
            return
        supply_tranche = mul_down(emission, self.scenario.rewards.supply_split)
        ledger, rewards = self.world.ledger, self.world.rewards
        for sym in self._pool_order:
            p = self.world.pools[sym]
            iou = p.params.iou_asset
            rewards.pay_stream(("supply", sym), ledger.writes(iou), supply_tranche, partial(ledger.iter_holders, iou))
            rewards.pay_stream(("borrow", sym), p.positions.writes, emission - supply_tranche, p.positions.items)

    # ------------------------------------------------------------------
    def run(self, out_dir: str | Path | None = None) -> dict:
        world = self.world
        with ExitStack() as files:
            if out_dir is not None:
                out_dir = Path(out_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                pools_csv = files.enter_context(open(out_dir / "pools.csv", "w", buffering=ROW_BUFFER_BYTES))
                vaults_csv = files.enter_context(open(out_dir / "vaults.csv", "w", buffering=ROW_BUFFER_BYTES))
                pools_csv.write(TELEMETRY_HEADER + "\n")
                vaults_csv.write(VAULT_TELEMETRY_HEADER + "\n")
                self._csv = pools_csv, vaults_csv
                files.callback(setattr, self, "_csv", None)  # unset before the files close

            world.oracle.ensure_step(0)
            for sym in self._pool_order:
                p = world.pools[sym]
                self.initial_tvl[sym] = world.oracle.value_usd(p.cash(world), sym, 0)
            self._initial_worth = self._net_worth(0)
            for t in range(self.horizon):
                self.step(t)
        world.ledger.full_audit()

        liquidations, flash_profit = 0, {}
        for event in world.events:
            kind = event.get("kind")
            if kind in ("liquidation", "vault-liquidation"):
                liquidations += 1
            elif kind == "flash" and event.get("outcome") == "committed":
                asset = event.get("profit_asset")
                flash_profit[asset] = flash_profit.get(asset, 0) + (event.get("profit") or 0)
        last = self.horizon - 1
        final_worth = self._net_worth(last)
        summary = {
            "schema_version": 1,
            "seed": self.seed,
            "steps": self.horizon,
            "initial_tvl_usd": {sym: to_str(v) for sym, v in sorted(self.initial_tvl.items())},
            "final_tvl_usd": {
                sym: to_str(world.oracle.value_usd(world.pools[sym].cash(world), sym, last))
                for sym in self._pool_order
            },
            "total_liquidations": liquidations,
            "total_flash_profit": {a: to_str(v) for a, v in sorted(flash_profit.items())},
            "agent_pnl_usd": {
                account: to_str(final_worth[account] - self._initial_worth[account])
                for account in sorted(final_worth)
            },
            "rewards_distributed": to_str(world.rewards.distributed),
            "rewards_dust": to_str(world.rewards.dust),
        }
        if out_dir is not None:
            self._write_outputs(out_dir, summary)
        return summary

    def _net_worth(self, step: int) -> dict[str, int]:
        """Mark each agent to market: balances + deposit claims - debts + its vaults' value - their debt.

        One pass: every balance table and pool unit rate is read once, not once per agent, and
        debts are read from the positions that exist, not asked of every agent in every pool.
        """
        world, cdp = self.world, self.world.cdp
        value = world.oracle.value_usd
        tables = [(asset, world.ledger.balance_table(asset)) for asset in world.oracle.assets()]
        reads = liquidation.pool_reads(world)
        worth = {}
        for agent in self.agents:
            account, total = agent.account, 0
            for asset, table in tables:
                bal = table.get(account, 0)
                if bal:
                    total += value(bal, asset, step)
            for _, p, rate, units in reads:
                claim = p.claim(units.get(account, 0), rate)
                if claim:
                    total += value(claim, p.params.asset, step)
            worth[account] = total
        for _, p, _, _ in reads:
            for account in p.positions.keys() & worth.keys():
                worth[account] -= value(p.debt_of(account), p.params.asset, step)
        for vault_id, vault in cdp.vaults.items() if cdp is not None else ():
            if vault.owner in worth:
                worth[vault.owner] += cdp.collateral_value(world, vault, step)
                worth[vault.owner] -= value(cdp.debt_of(vault_id), cdp.dai_asset, step)
        return worth

    def _write_outputs(self, out_dir: Path, summary: dict) -> None:
        """The files written once the run ends; pools.csv and vaults.csv streamed as the steps ended."""
        with open(out_dir / "events.jsonl", "w") as fp:
            for event in self.world.events:
                fp.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        with open(out_dir / "rewards.csv", "w") as fp:
            fp.write("account,accrued\n")
            for account in sorted(self.world.rewards.accrued):
                fp.write(f"{account},{to_str(self.world.rewards.accrued[account])}\n")
            fp.write(f"{REWARD_DUST_ACCOUNT},{to_str(self.world.rewards.dust)}\n")
        with open(out_dir / "summary.json", "w") as fp:
            json.dump(summary, fp, indent=2, sort_keys=True)
            fp.write("\n")
