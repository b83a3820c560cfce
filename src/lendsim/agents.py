"""Market participants driven by the step scheduler.

Five agent kinds: plain depositors, borrow-spiral reward farmers (borrow,
re-deposit, borrow again against the same pool), leverage-spiral traders
(borrow stablecoin, swap into the collateral asset, re-deposit, borrow more),
liquidators, and arbitrageurs. Both spirals run one loop, `_spiral`, whose
conversion of a borrow into collateral is the identity for a borrow spiral and
the venue's `convert` for a leverage spiral. Spirals stop when the marginal
borrow (or what it converts into) falls below the agent's minimum action size
or the iteration cap is hit; protocol errors end a spiral gracefully and are
reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import errors, flashloan, liquidation
from .fixed import div_down, from_str, mul_down
from .world import World

if TYPE_CHECKING:
    from .scenario import AgentSpec


@dataclass
class SpiralReport:
    iterations: int = 0
    total_deposited: int = 0
    total_borrowed: int = 0
    deposits: list[int] = field(default_factory=list)
    borrows: list[int] = field(default_factory=list)
    exposure: int = 0  # leverage spiral: total collateral asset acquired
    stopped_by: str = "min-action"


def _headroom(world: World, account: str, asset: str, step: int) -> int:
    """Remaining borrow capacity converted into units of `asset`."""
    totals = liquidation.account_totals(world, account, step)
    if totals.debt_value >= totals.borrowing_power:
        return 0
    return div_down(totals.borrowing_power - totals.debt_value, world.oracle.price_at(asset, step))


def _spiral(
    world: World,
    account: str,
    collateral_asset: str,
    borrow_asset: str,
    amount: int,
    step: int,
    borrow_for,
    convert,
    *,
    iteration_cap: int = 10_000,
    min_action: int = from_str("0.000001"),
    buffer: int = 0,
) -> SpiralReport:
    """Deposit, then loop borrow -> convert -> re-deposit.

    `borrow_for(latest, factor)` sizes the next borrow from the latest deposit
    and the buffered collateral factor (remaining headroom caps it too), and
    `convert(borrowed)` turns the borrow into collateral to deposit. A borrow
    is reported as soon as it lands.
    """
    coll_pool, borrow_pool = world.pools[collateral_asset], world.pools[borrow_asset]
    factor = max(coll_pool.params.collateral_factor - buffer, 0)
    report = SpiralReport()
    try:
        coll_pool.deposit(world, account, amount)
    except errors.SimError:
        report.stopped_by = "error"
        return report
    report.total_deposited += amount
    report.deposits.append(amount)
    latest = amount
    while report.iterations < iteration_cap:
        want = min(borrow_for(latest, factor), _headroom(world, account, borrow_asset, step))
        if want < min_action:
            break  # stopped_by keeps its "min-action" default
        try:
            borrow_pool.borrow(world, account, want, step=step)
            report.total_borrowed += want
            report.borrows.append(want)
            acquired = convert(want)
            if acquired < min_action:
                break
            coll_pool.deposit(world, account, acquired)
        except errors.SimError:
            report.stopped_by = "error"
            break
        report.iterations += 1
        report.total_deposited += acquired
        report.deposits.append(acquired)
        latest = acquired
    else:
        report.stopped_by = "iteration-cap"
    return report


def run_borrow_spiral(world: World, account: str, asset: str, amount: int, step: int, **limits) -> SpiralReport:
    """Deposit, then repeatedly borrow against the latest deposit and re-deposit.

    `limits` are `_spiral`'s keywords: iteration_cap, min_action and buffer.
    """
    return _spiral(world, account, asset, asset, amount, step, mul_down, lambda borrowed: borrowed, **limits)


def run_leverage_spiral(
    world: World, account: str, collateral_asset: str, borrow_asset: str, venue_id: str, amount: int, step: int,
    **limits,
) -> SpiralReport:
    """Deposit collateral, then loop borrow -> venue convert -> re-deposit for leverage."""
    venue = world.venues[venue_id]
    price_borrow = world.oracle.price_at(borrow_asset, step)

    def borrow_for(latest: int, factor: int) -> int:
        return div_down(mul_down(world.oracle.value_usd(latest, collateral_asset, step), factor), price_borrow)

    def convert(borrowed: int) -> int:
        return venue.convert(world, account, borrow_asset, collateral_asset, borrowed)

    report = _spiral(world, account, collateral_asset, borrow_asset, amount, step, borrow_for, convert, **limits)
    report.exposure = report.total_deposited
    return report


# ---------------------------------------------------------------------------
# scheduler-facing agents
# ---------------------------------------------------------------------------
class BaseAgent:
    def __init__(self, spec: AgentSpec):
        self.spec = spec
        self.account = spec.agent_id

    def active(self, t: int) -> bool:
        return self.spec.window[0] <= t <= self.spec.window[1]

    def act(self, world: World, t: int) -> None:
        raise NotImplementedError

    def _spiral_limits(self) -> dict[str, int]:
        """The run_*_spiral keyword limits the agent's params set, already in raw units."""
        params = self.spec.params
        return {key: params[key] for key in ("iteration_cap", "min_action", "buffer") if params[key] is not None}

    def _execute(self, world: World, best: flashloan.Opportunity, t: int) -> None:
        outcome = flashloan.execute(world, best.plan, t)
        world.emit(
            kind="flash",
            step=t,
            agent=self.account,
            plan=best.kind,
            target=best.venue_or_target,
            outcome="committed" if isinstance(outcome, flashloan.Committed) else "reverted",
            profit=getattr(outcome, "profit", None),
            profit_asset=best.plan.profit_asset,
        )


class DepositorAgent(BaseAgent):
    def __init__(self, spec: AgentSpec):
        super().__init__(spec)
        self.done = False

    def act(self, world: World, t: int) -> None:
        if self.done:
            return
        self.done = True
        asset = self.spec.params["pool"]
        amount = world.ledger.balance(self.account, asset)
        if amount:
            world.pools[asset].deposit(world, self.account, amount)
            world.emit(kind="deposit", step=t, agent=self.account, asset=asset, amount=amount)


class BorrowSpiralAgent(BaseAgent):
    def __init__(self, spec: AgentSpec):
        super().__init__(spec)
        self.report: SpiralReport | None = None

    def act(self, world: World, t: int) -> None:
        if self.report is not None:
            return
        asset = self.spec.params["pool"]
        amount = world.ledger.balance(self.account, asset)
        self.report = run_borrow_spiral(world, self.account, asset, amount, t, **self._spiral_limits())
        world.emit(
            kind="borrow-spiral",
            step=t,
            agent=self.account,
            iterations=self.report.iterations,
            deposited=self.report.total_deposited,
            borrowed=self.report.total_borrowed,
            stopped_by=self.report.stopped_by,
        )


class LeverageSpiralAgent(BaseAgent):
    def __init__(self, spec: AgentSpec):
        super().__init__(spec)
        self.report: SpiralReport | None = None

    def act(self, world: World, t: int) -> None:
        if self.report is not None:
            return
        collateral = self.spec.params["collateral"]
        borrow = self.spec.params["borrow"]
        venue = self.spec.params["venue"]
        amount = world.ledger.balance(self.account, collateral)
        self.report = run_leverage_spiral(
            world, self.account, collateral, borrow, venue, amount, t, **self._spiral_limits()
        )
        world.emit(
            kind="leverage-spiral",
            step=t,
            agent=self.account,
            iterations=self.report.iterations,
            exposure=self.report.exposure,
            borrowed=self.report.total_borrowed,
            stopped_by=self.report.stopped_by,
        )


class LiquidatorAgent(BaseAgent):
    def act(self, world: World, t: int) -> None:
        use_flash = self.spec.params["use_flashloan"]
        found = flashloan.scan_liquidations(world, t, borrower=self.account)
        if not found:
            return
        best = found[0]
        if use_flash:
            self._execute(world, best, t)
        else:
            flashloan.run_liquidation(world, self.account, best.plan.steps[0], t)


class ArbitrageurAgent(BaseAgent):
    def act(self, world: World, t: int) -> None:
        found = flashloan.scan_arbitrage(world, t, borrower=self.account)
        if found:
            self._execute(world, found[0], t)


AGENT_CLASSES = {
    "depositor": DepositorAgent,
    "borrow_spiral": BorrowSpiralAgent,
    "leverage_spiral": LeverageSpiralAgent,
    "liquidator": LiquidatorAgent,
    "arbitrageur": ArbitrageurAgent,
}


def make_agent(spec: AgentSpec) -> BaseAgent:
    try:
        cls = AGENT_CLASSES[spec.kind]
    except KeyError:
        raise ValueError(f"unknown agent kind {spec.kind!r}") from None
    return cls(spec)
