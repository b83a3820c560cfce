"""Atomic flash loans: uncollateralized borrow + plan + repay in one transaction.

A plan is a straight-line program of three step kinds: `SellStep` (exact-in
sell of an asset on a venue, or of the borrower's whole balance), `BuyStep`
(exact-out buy, its cost computed when the step runs) and `LiquidateStep` (a
pool or vault liquidation; seized IOU is redeemed to underlying). execute()
checkpoints the world, wires the loan out of the pool, runs the steps, then
repays principal plus the pool's flash fee (credited to reserves). Any failure
rolls the world back to the checkpoint; the configured gas fee is charged
either way, so a reverted plan's only surviving mutation is the gas record.

Scanners look for two plan shapes: two-venue price-gap arbitrage (sized in
closed form when both venues are `linear`, by ternary search on the unimodal
profit curve otherwise; repeated for the same borrower before any ledger
write, the scan returns its last result again) and liquidation of unhealthy
accounts or unsafe vaults. A liquidation candidate is sized from the account's
one health report (or the vault's collateral), and every candidate goes
through one plan builder: liquidate, sell the seized asset back if it differs,
and measure the profit exactly by running the plan on a scratch checkpoint
and rolling back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import errors, liquidation
from .fixed import WAD, div_down, mul_down, mul_up, to_str
from .ledger import GENESIS_AUTHORITY
from .venues import amm_in_given_out  # noqa: F401 -- kept importable: perfbench's tracer hooks it here
from .world import SCANNER_ACCOUNT, World


# ---------------------------------------------------------------------------
# plan steps
# ---------------------------------------------------------------------------
@dataclass
class SellStep:
    venue_id: str
    asset: str
    amount: int | None = None  # None sells the borrower's full balance


@dataclass
class BuyStep:
    venue_id: str
    asset: str
    amount: int


@dataclass
class LiquidateStep:
    target: str
    repay_asset: str
    seize_asset: str
    amount: int
    vault_id: int | None = None  # set for CDP vault liquidations


PlanStep = SellStep | BuyStep | LiquidateStep


@dataclass
class FlashPlan:
    borrower: str
    asset: str  # loan asset (also the pool it is drawn from)
    amount: int
    steps: list[PlanStep]
    profit_asset: str  # asset in which the outcome's profit is measured


@dataclass
class Committed:
    profit: int  # signed balance delta of the borrower in profit_asset


@dataclass
class Reverted:
    fee_charged: int


Outcome = Committed | Reverted


@dataclass
class Opportunity:
    kind: str  # arbitrage | liquidation
    plan: FlashPlan
    expected_profit: int
    venue_or_target: str

    def to_record(self, step: int) -> dict:
        return {
            "step": step,
            "kind": self.kind,
            "asset": self.plan.asset,
            "size": to_str(self.plan.amount),
            "expected_profit": to_str(self.expected_profit),
            "profit_asset": self.plan.profit_asset,
            "venue_or_target": self.venue_or_target,
        }


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def _venue(world: World, venue_id: str):
    try:
        return world.venues[venue_id]
    except KeyError:
        raise errors.UnknownVenue(venue_id) from None


def run_liquidation(world: World, liquidator: str, item: LiquidateStep, step: int) -> int:
    """Liquidate a vault through the CDP engine, an account through its pools.

    Returns the seized amount in underlying units of the seize asset.
    """
    if item.vault_id is None:
        return liquidation.liquidate(
            world, liquidator, item.target, item.repay_asset, item.seize_asset, item.amount, step
        )
    if world.cdp is None:
        raise errors.UnknownVault(str(item.vault_id))
    return world.cdp.liquidate(world, liquidator, item.vault_id, item.amount, item.seize_asset, step)


def _run_step(world: World, borrower: str, step_item: PlanStep, step: int) -> None:
    if isinstance(step_item, SellStep):
        amount = step_item.amount
        if amount is None:
            amount = world.ledger.balance(borrower, step_item.asset)
        _venue(world, step_item.venue_id).sell(world, borrower, step_item.asset, amount)
    elif isinstance(step_item, BuyStep):
        _venue(world, step_item.venue_id).buy(world, borrower, step_item.asset, step_item.amount)
    elif isinstance(step_item, LiquidateStep):
        # pool liquidations pay the seized claim in IOU (vault ones pay the
        # underlying): redeem what arrived so a sell leg can use it
        seize_pool = world.pools.get(step_item.seize_asset)
        if seize_pool is None:
            run_liquidation(world, borrower, step_item, step)
            return
        iou = seize_pool.params.iou_asset
        before = world.ledger.balance(borrower, iou)
        run_liquidation(world, borrower, step_item, step)
        gained = world.ledger.balance(borrower, iou) - before
        if gained:
            seize_pool.redeem(world, borrower, seize_pool.displayed(gained), step)
    else:
        raise TypeError(f"unknown plan step {step_item!r}")


def execute(world: World, plan: FlashPlan, step: int) -> Outcome:
    source = world.pools.get(plan.asset)
    if source is None:
        raise errors.UnknownAsset(f"no pool for loan asset {plan.asset}")
    if plan.amount > source.cash(world):
        raise errors.InsufficientPoolLiquidity(
            f"pool {plan.asset} cash {source.cash(world)} < loan {plan.amount}"
        )
    if world.gas.asset is not None and world.gas.fee:
        if world.ledger.balance(plan.borrower, world.gas.asset) < world.gas.fee:
            raise errors.InsufficientBalance(f"{plan.borrower} cannot pay the gas fee")

    fee = mul_up(plan.amount, source.params.flash_fee)
    start_profit_balance = world.ledger.balance(plan.borrower, plan.profit_asset)

    cp = world.checkpoint()
    try:
        world.ledger.transfer(source.account, plan.borrower, plan.asset, plan.amount, tag="flash-borrow")
        for item in plan.steps:
            _run_step(world, plan.borrower, item, step)
        world.ledger.transfer(plan.borrower, source.account, plan.asset, plan.amount + fee, tag="flash-repay")
        source.credit_flash_fee(fee)
        world.charge_gas(plan.borrower)
        world.commit(cp)
    except errors.SimError:
        world.rollback(cp)
        charged = world.charge_gas(plan.borrower)
        return Reverted(fee_charged=charged)
    profit = world.ledger.balance(plan.borrower, plan.profit_asset) - start_profit_balance
    return Committed(profit=profit)


# ---------------------------------------------------------------------------
# arbitrage scanner
# ---------------------------------------------------------------------------
def _venue_markets(world: World) -> dict[tuple[str, str], list]:
    """Group venues by (asset, numeraire) market they can trade."""
    markets: dict[tuple[str, str], list] = {}
    for venue in world.venues.values():
        for market in venue.markets():
            markets.setdefault(market, []).append(venue)
    return markets


def _gas_in(world: World, asset: str) -> int:
    return world.gas.fee if world.gas.asset == asset else 0


def _arb_profit(world: World, seller, buyer, asset: str, flash_fee: int, size: int) -> int | None:
    cost = buyer.buy_cost(world, asset, size + mul_up(size, flash_fee))
    if cost is None:
        return None
    return seller.sell_out(world, asset, size) - cost


def _best_size(world: World, seller, buyer, asset: str, flash_fee: int, cap: int) -> tuple[int, int] | None:
    """Maximize arbitrage profit over sizes in [1, cap]."""
    if cap < 1:
        return None
    profit_at = partial(_arb_profit, world, seller, buyer, asset, flash_fee)
    if seller.linear and buyer.linear:
        profit = profit_at(cap)
        return (cap, profit) if profit is not None else None
    # profit is concave through the origin, so an unprofitable small probe
    # (and cap) means nothing above dust is profitable: skip the search
    probe = profit_at(min(cap, WAD))
    at_cap = profit_at(cap)
    if (probe is None or probe <= 0) and (at_cap is None or at_cap <= 0):
        return None
    lo, hi = 1, cap
    while hi - lo > 4:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        p1 = profit_at(m1)
        p2 = profit_at(m2)
        if p1 is None:
            hi = m1 - 1
        elif p2 is None:
            hi = m2 - 1
        elif p1 < p2:
            lo = m1 + 1
        else:
            hi = m2
    best = None
    for size in range(lo, hi + 1):
        profit = profit_at(size)
        if profit is not None and (best is None or profit > best[1]):
            best = (size, profit)
    return best


def scan_arbitrage(world: World, step: int, borrower: str | None = None) -> list[Opportunity]:
    """Profitable two-venue arbitrage plans, most profitable first.

    The scan reads only ledger balances (venue inventories, pool cash) and fixed configuration, so
    while the borrower and the ledger's total write count stand it returns its last result again.
    """
    borrower = borrower or SCANNER_ACCOUNT
    key = (borrower, world.ledger.total_writes())
    if world.last_arbitrage is not None and world.last_arbitrage[0] == key:
        return list(world.last_arbitrage[1])
    opportunities = []
    markets = _venue_markets(world)
    for (asset, numeraire), venues in markets.items():
        pool = world.pools.get(asset)
        if pool is None or len(venues) < 2:
            continue
        flash_fee = pool.params.flash_fee
        pool_cash = pool.cash(world)
        for seller in venues:
            for buyer in venues:
                if seller is buyer:
                    continue
                cap = min(pool_cash, buyer.max_buy(world, asset))
                max_sell = seller.max_sell(world, asset)
                if max_sell is not None:
                    cap = min(cap, max_sell)
                best = _best_size(world, seller, buyer, asset, flash_fee, cap)
                if best is None:
                    continue
                size, profit = best
                profit -= _gas_in(world, numeraire)
                if profit <= 0:
                    continue
                buy_amount = size + mul_up(size, flash_fee)
                plan = FlashPlan(
                    borrower=borrower,
                    asset=asset,
                    amount=size,
                    steps=[SellStep(seller.venue_id, asset, size), BuyStep(buyer.venue_id, asset, buy_amount)],
                    profit_asset=numeraire,
                )
                opportunities.append(
                    Opportunity(
                        kind="arbitrage",
                        plan=plan,
                        expected_profit=profit,
                        venue_or_target=f"{seller.venue_id}->{buyer.venue_id}",
                    )
                )
    opportunities.sort(key=lambda o: (-o.expected_profit, o.venue_or_target))
    world.last_arbitrage = (key, tuple(opportunities))
    return opportunities


# ---------------------------------------------------------------------------
# liquidation scanner
# ---------------------------------------------------------------------------
def _try_plan(world: World, plan: FlashPlan, step: int) -> int | None:
    cp = world.checkpoint()
    try:
        gas = world.gas
        if plan.borrower == SCANNER_ACCOUNT and gas.asset is not None and gas.fee:
            # scratch only: let the unfunded scanner account pay gas
            short = gas.fee - world.ledger.balance(plan.borrower, gas.asset)
            if short > 0:
                world.ledger.mint(plan.borrower, gas.asset, short, GENESIS_AUTHORITY, tag="scratch-grant")
        outcome = execute(world, plan, step)
    except errors.SimError:
        return None
    finally:
        world.rollback(cp)
    if isinstance(outcome, Committed) and outcome.profit > 0:
        return outcome.profit
    return None


def scan_liquidations(world: World, step: int, borrower: str | None = None) -> list[Opportunity]:
    borrower = borrower or SCANNER_ACCOUNT
    candidates: list[LiquidateStep] = []

    reads = liquidation.pool_reads(world)  # nothing writes until the scratch runs below
    for account in sorted({account for pool in world.pools.values() for account in pool.positions}):
        if account == borrower:
            continue
        report = liquidation.account_totals(world, account, step, reads)
        if not report.liquidatable or report.largest_collateral is None:
            continue
        repay_asset, seize_asset = report.largest_debt, report.largest_collateral
        repay_pool, seize_pool = world.pools[repay_asset], world.pools[seize_asset]
        # keep inside the seizable deposit so the close-factor repay lands fully
        seize_value = world.oracle.value_usd(seize_pool.underlying_claim(world, account), seize_asset, step)
        cap_value = div_down(seize_value, WAD + seize_pool.params.liquidation_bonus)
        repay_amt = min(
            mul_down(repay_pool.debt_of(account), repay_pool.params.close_factor),
            div_down(cap_value, world.oracle.price_at(repay_asset, step)),
            repay_pool.cash(world),
        )
        if repay_amt > 0:
            candidates.append(LiquidateStep(account, repay_asset, seize_asset, repay_amt))

    cdp = world.cdp
    if cdp is not None and cdp.dai_asset in world.pools:
        for vault_id in sorted(cdp.vaults):
            vault = cdp.vaults[vault_id]
            if not cdp.is_unsafe(world, vault, step):
                continue
            held = [(a, amt) for a, amt in vault.collateral.items() if amt]
            if not held:
                continue
            seize_asset = max(held, key=lambda item: world.oracle.value_usd(item[1], item[0], step))[0]
            repay_amt = min(cdp.debt_of(vault), world.pools[cdp.dai_asset].cash(world))
            if repay_amt > 0:
                candidates.append(LiquidateStep(f"vault:{vault_id}", cdp.dai_asset, seize_asset, repay_amt, vault_id))

    # every candidate is sized on the same state: scratch runs roll back exactly
    markets = _venue_markets(world)
    opportunities = []
    for item in candidates:
        steps: list[PlanStep] = [item]
        if item.seize_asset != item.repay_asset:
            venues = markets.get((item.seize_asset, item.repay_asset))
            if not venues:
                continue
            # sell all that was seized on the first venue trading that market
            steps.append(SellStep(venues[0].venue_id, item.seize_asset, amount=None))
        plan = FlashPlan(borrower, item.repay_asset, item.amount, steps, profit_asset=item.repay_asset)
        profit = _try_plan(world, plan, step)
        if profit is not None:
            opportunities.append(Opportunity("liquidation", plan, profit, item.target))

    opportunities.sort(key=lambda o: (-o.expected_profit, o.venue_or_target))
    return opportunities
