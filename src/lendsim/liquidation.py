"""Account health accounting and open-access liquidation of pool positions.

account_totals is the one pass over an account's pools. It values each
flagged deposit once, weighted by the collateral factor (the borrowing power
that borrow checks and spiral headroom read) and by the liquidation threshold,
sums the debts, and names the pools of the largest debt and of the largest
flagged deposit, which the liquidation scanner repays and seizes. What it reads
of the pools (each one's unit rate and IOU balance table) comes from
pool_reads: the scanner takes them once per scan for every account it values,
any other caller once per call. Prices come from the oracle's step vector.

Health factor = sum(flagged collateral value * liquidation_threshold) over
debt value; a position is liquidatable strictly below 1. Any caller may
liquidate, repaying up to close_factor of the target's per-asset debt and
seizing collateral worth (1 + bonus) times the repaid value. The seized
collateral is handed over as the pool's IOU token (the claim stays inside the
pool; the liquidator may redeem it afterwards).

The seize rule lives in seize_split, which CDP vault liquidation shares: value
the repay at the repay asset's price, add the bonus, convert at the seized
asset's price, and when that exceeds the collateral held, seize all of it and
shrink the repay to match, rounding against the liquidator.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .fixed import WAD, div_down, div_up, mul_down, require_amount, to_str


@dataclass
class HealthReport:
    account: str
    collateral_value: int  # USD wad, flagged deposits only
    threshold_value: int  # USD wad, weighted by per-asset liquidation threshold
    debt_value: int  # USD wad
    ltv: int | None  # None when collateral_value == 0
    health_factor: int | None  # None means infinite (no debt)
    borrowing_power: int  # USD wad, weighted by per-asset collateral factor
    largest_debt: str | None  # pool asset of the largest debt by USD value
    largest_collateral: str | None  # pool asset of the largest flagged deposit by USD value

    @property
    def liquidatable(self) -> bool:
        return self.health_factor is not None and self.health_factor < WAD

    def hf_str(self) -> str:
        return "inf" if self.health_factor is None else to_str(self.health_factor)


def pool_reads(world) -> list[tuple]:
    """(asset, pool, unit rate, IOU balance table) per pool in world order, valid until the next write."""
    return [(a, p, p.unit_rate(world), world.ledger.balance_table(p.params.iou_asset)) for a, p in world.pools.items()]


def account_totals(world, account: str, step: int, reads: list[tuple] | None = None) -> HealthReport:
    """One account's health; a scan passes its pool_reads, taken since the last write."""
    if reads is None:
        if not world.ledger.has_account(account):
            raise errors.UnknownAccount(account)
        reads = pool_reads(world)
    price_at = world.oracle.price_at
    collateral = threshold = power = debt = 0
    largest_debt = largest_collateral = None
    top_debt = top_collateral = -1  # below any value: ties go to the first pool in world order
    for asset, p, rate, units in reads:
        claim = p.claim(units.get(account, 0), rate)
        if claim and p.collateral_on.get(account, False):
            value = mul_down(claim, price_at(asset, step))
            collateral += value
            threshold += mul_down(value, p.params.liquidation_threshold)
            power += mul_down(value, p.params.collateral_factor)
            if value > top_collateral:
                largest_collateral, top_collateral = asset, value
        owed = p.debt_of(account)
        if owed:
            value = mul_down(owed, price_at(asset, step))
            debt += value
            if value > top_debt:
                largest_debt, top_debt = asset, value
    ltv = div_down(debt, collateral) if collateral else None
    hf = div_down(threshold, debt) if debt else None
    return HealthReport(account, collateral, threshold, debt, ltv, hf, power, largest_debt, largest_collateral)


def borrowing_power(world, account: str, step: int) -> int:
    """USD borrow capacity: sum of flagged collateral value * collateral_factor."""
    return account_totals(world, account, step).borrowing_power


def seize_split(applied: int, price_repay: int, price_seize: int, bonus: int, held: int) -> tuple[int, int]:
    """Repay and seize amounts for repaying `applied` at a (1 + bonus) premium.

    `bonus` is the wad multiplier WAD + incentive. The seize is capped at
    `held`; the repay then shrinks to keep the value relation. Returns
    (applied, seized).
    """
    seized = div_down(mul_down(mul_down(applied, price_repay), bonus), price_seize)
    if seized > held:
        seized = held
        capped_value = mul_down(seized, price_seize)
        applied = min(applied, div_up(div_up(capped_value, bonus), price_repay))
    return applied, seized


def liquidate(
    world,
    liquidator: str,
    target: str,
    repay_asset: str,
    seize_asset: str,
    repay_amount: int,
    step: int,
) -> int:
    """Repay part of an unhealthy account's debt and seize discounted collateral.

    Returns the seized amount in underlying units of seize_asset; the claim is
    transferred as IOU tokens. The seize is capped at the target's deposit,
    shrinking the effective repay proportionally.
    """
    require_amount(repay_amount)
    if liquidator == target:
        raise errors.SelfLiquidation(liquidator)
    repay_pool = world.pools.get(repay_asset)
    seize_pool = world.pools.get(seize_asset)
    if repay_pool is None:
        raise errors.UnknownAsset(f"no pool for {repay_asset}")
    if seize_pool is None:
        raise errors.UnknownAsset(f"no pool for {seize_asset}")

    before = account_totals(world, target, step)
    if not before.liquidatable:
        raise errors.NotLiquidatable(f"{target} health factor {before.hf_str()}")
    debt = repay_pool.debt_of(target)
    if debt == 0:
        raise errors.NoDebt(f"{target} owes nothing in {repay_asset}")
    max_repay = mul_down(debt, repay_pool.params.close_factor)
    if repay_amount > max_repay:
        raise errors.ExceedsCloseFactor(f"repay {repay_amount} > close-factor cap {max_repay}")
    seize_claim = seize_pool.underlying_claim(world, target)
    if seize_claim == 0 or not seize_pool.collateral_on.get(target, False):
        raise errors.NoSuchCollateral(f"{target} has no flagged {seize_asset} deposit")

    applied, seized = seize_split(
        repay_amount,
        world.oracle.price_at(repay_asset, step),
        world.oracle.price_at(seize_asset, step),
        WAD + seize_pool.params.liquidation_bonus,
        seize_claim,
    )

    world.ledger.transfer(liquidator, repay_pool.account, repay_asset, applied, tag="liquidation-repay")
    repay_pool.reduce_debt(target, applied)
    seize_pool.seize(world, target, liquidator, seized)

    after = account_totals(world, target, step)
    world.emit(
        kind="liquidation",
        step=step,
        liquidator=liquidator,
        target=target,
        repay_asset=repay_asset,
        repay_amt=to_str(applied),
        seize_asset=seize_asset,
        seized_amt=to_str(seized),
        hf_before=before.hf_str(),
        hf_after=after.hf_str(),
    )
    return seized
