"""Discrete-time scheduler: phases, reward emission, telemetry, summaries.

Each step runs a fixed phase order: (1) advance price feeds, (2) accrue all
pools and the vault fee index, (3) distribute governance-token rewards,
(4) agents act in an order shuffled by a seed derived from (master seed, t),
(5) flush telemetry. In (3) the borrow side is paid every step, since
accrual moves every debt; the supply side, weighted by IOU balances, is paid
as a stream that recomputes its shares only after a ledger write of the IOU
and is multiplied out (steps owed x share) when the reward totals are read.
Agent failures become events, never aborts. Before the telemetry flush,
World.audit checks that no ledger checkpoint outlived the step and that the
vault engine's ledger holdings equal the vaults' recorded collateral, per
asset; the full conservation audit runs at the end of the run.

In (4) the agents act in the order `random.Random(seed).shuffle` gives the
list of all agents, but a step touches only live agents. A calendar sorted
by window start admits every agent whose window has opened by t and drops
each whose `active(t)` is false; `shuffled_order` replays the shuffle's draws
exactly, following only the live agents' slots and stopping once their
relative order is settled. Steps must therefore run in non-decreasing t;
skipping steps is fine.

Outputs per run directory: pools.csv, vaults.csv, events.jsonl, rewards.csv
and summary.json (initial/final value locked per pool, liquidation count,
flash-loan profit, per-agent P&L in USD). Every value is rendered as an exact
decimal string so identical (scenario, seed) runs produce byte-identical
output directories.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable
from pathlib import Path

from . import errors
from .agents import BaseAgent, make_agent
from .cdp import VAULT_TELEMETRY_HEADER
from .fixed import mul_down, to_str
from .oracle import derive_seed
from .pool import TELEMETRY_HEADER
from .scenario import Scenario, build_world
from .world import World

REWARD_DUST_ACCOUNT = "reward-dust"


def net_worth_usd(world: World, account: str, step: int) -> int:
    """Mark an account to market: balances + deposit claims - debts (+ vaults)."""
    total = 0
    for asset in world.oracle.assets():
        bal = world.ledger.balance(account, asset)
        if bal:
            total += world.oracle.value_usd(bal, asset, step)
    for p in world.pools.values():
        claim = p.underlying_claim(world, account)
        if claim:
            total += world.oracle.value_usd(claim, p.params.asset, step)
        debt = p.debt_of(account)
        if debt:
            total -= world.oracle.value_usd(debt, p.params.asset, step)
    if world.cdp is not None:
        for vault in world.cdp.vaults.values():
            if vault.owner == account:
                total += world.cdp.collateral_value(world, vault, step)
                total -= world.oracle.value_usd(world.cdp.debt_of(vault), world.cdp.dai_asset, step)
    return total


def shuffled_order(n: int, picks: Iterable[int], seed: int) -> list[int]:
    """The picks, distinct indices below n, in the order that
    `random.Random(seed).shuffle(list(range(n)))` leaves them.

    Replays the shuffle's Fisher-Yates swaps: slot i, from n - 1 down to 1,
    swaps with a draw j below i + 1, taken as CPython's `_randbelow` takes it
    (getrandbits of (i + 1).bit_length() bits, drawn again while > i). Only
    slots holding a pick are followed. Slot i is final after its swap, so once
    all but one pick are final, the last one comes before them all and the
    remaining draws are skipped.
    """
    at = {p: p for p in picks}  # slot -> the pick it holds now
    placed = []  # picks in their final slots, from the last slot down
    getrandbits = random.Random(seed).getrandbits
    i = n - 1
    while len(at) > 1:
        bound = i + 1
        bits = bound.bit_length()
        j = getrandbits(bits)
        while j >= bound:
            j = getrandbits(bits)
        if j in at or i in at:
            moved = at.pop(j, None)
            if i in at:
                at[j] = at.pop(i)
            if moved is not None:
                placed.append(moved)
        i -= 1
    return [*at.values(), *reversed(placed)]


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
        self.pool_rows: list[str] = []
        self.vault_rows: list[str] = []
        self.initial_tvl: dict[str, int] = {}
        self._initial_worth: dict[str, int] = {}

    # ------------------------------------------------------------------
    def step(self, t: int) -> None:
        world = self.world
        world.oracle.ensure_step(t)
        for sym in self._pool_order:
            world.pools[sym].accrue(world, 1)
        if world.cdp is not None:
            world.cdp.accrue(world, t)
        self.distribute_rewards(t)

        agents, calendar = self.agents, self._calendar
        while calendar and agents[calendar[-1]].spec.window[0] <= t:
            self._live.append(calendar.pop())
        self._live = live = [i for i in self._live if agents[i].active(t)]
        picks = range(len(agents)) if self.verbosity >= 2 else live
        order = shuffled_order(len(agents), picks, derive_seed(self.seed, "order", t))
        if self.verbosity >= 2:
            world.emit(kind="agent-order", step=t, order=[agents[i].account for i in order])
            acting = set(live)
            order = [i for i in order if i in acting]
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

        world.audit()
        for sym in self._pool_order:
            self.pool_rows.append(world.pools[sym].telemetry_row(world, t))
        if world.cdp is not None:
            self.vault_rows.extend(world.cdp.telemetry_rows(world, t))

    # ------------------------------------------------------------------
    def distribute_rewards(self, t: int) -> None:
        emission = self.scenario.rewards.emission_per_pool
        if emission == 0:
            return
        supply_tranche = mul_down(emission, self.scenario.rewards.supply_split)
        world = self.world
        rewards = world.rewards
        for sym in self._pool_order:
            p = world.pools[sym]
            rewards.pay_holders(world.ledger, p.params.iou_asset, supply_tranche)
            # accrual moves every debt each step, so the borrow side is paid eagerly
            rewards.pay(emission - supply_tranche, [(a, p.debt_of(a)) for a in p.positions])

    # ------------------------------------------------------------------
    def run(self, out_dir: str | Path | None = None) -> dict:
        world = self.world
        world.oracle.ensure_step(0)
        agent_accounts = [a.account for a in self.agents]
        for sym in self._pool_order:
            p = world.pools[sym]
            self.initial_tvl[sym] = world.oracle.value_usd(p.cash(world), sym, 0)
        for account in agent_accounts:
            self._initial_worth[account] = net_worth_usd(world, account, 0)

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
                account: to_str(net_worth_usd(world, account, last) - self._initial_worth[account])
                for account in sorted(agent_accounts)
            },
            "rewards_distributed": to_str(world.rewards.distributed),
            "rewards_dust": to_str(world.rewards.dust),
        }
        if out_dir is not None:
            self._write_outputs(Path(out_dir), summary)
        return summary

    def _write_outputs(self, out_dir: Path, summary: dict) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "pools.csv", "w") as fp:
            fp.write(TELEMETRY_HEADER + "\n")
            for row in self.pool_rows:
                fp.write(row + "\n")
        with open(out_dir / "vaults.csv", "w") as fp:
            fp.write(VAULT_TELEMETRY_HEADER + "\n")
            for row in self.vault_rows:
                fp.write(row + "\n")
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
