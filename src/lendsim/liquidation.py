"""Account health accounting and open-access liquidation of pool positions.

account_totals is the one pass over an account's pools. It values each
deposit (every IOU the account holds is collateral) once, weighted by the
collateral factor (the borrowing power that borrow checks and spiral headroom
read) and by the liquidation threshold, sums the debts, and names the pools of
the largest debt and of the largest deposit, which the liquidation scanner
repays and seizes. What it reads of the pools (each one's unit rate and IOU
balance table) comes from pool_reads: the scanner takes them once per scan for
every account it values, any other caller once per call. Prices come from the
oracle's step vector.

Health factor = sum(collateral value * liquidation_threshold) over
debt value; a position is liquidatable strictly below 1. Any caller may
liquidate, repaying up to close_factor of the target's per-asset debt and
seizing collateral worth (1 + bonus) times the repaid value. The seized
collateral is handed over as the pool's IOU token (the claim stays inside the
pool; the liquidator may redeem it afterwards).

The seize rule lives in seize_split, which CDP vault liquidation and the
liquidation scanner's repay sizing share: value the repay at the repay asset's
price, add the bonus, convert at the seized asset's price, and when that
exceeds the collateral held, seize all of it and shrink the repay to match,
rounding against the liquidator.

RiskScreen, kept on the world, names the pool accounts (with a borrow
position) and vaults (with debt) that the liquidation scanner must value.
Valuing a candidate anchors it: its collateral side L (the threshold-weighted
collateral, or a vault's issuance bound: at most the unrounded value) and its
debt side U (the debt value plus 1 per borrow position, or a vault's debt: at
least the unrounded value) go into the bucket of the factors they read,
carried to the bucket's frame (the factor values when it opened: the least
ratio frame over now for L, rounded down, the greatest for U, rounded up),
under the key K = floor(WAD * L / U). A factor's value is price x unit rate
for a deposit, price x borrow index for a debt, the price for vault
collateral, and the fee index for vault debt. A scan skips a candidate
nothing has written since its anchor while

    K * c >= WAD * (d + slack)

with c the least collateral ratio now over the frame (rounded down) and d
the greatest debt ratio (rounded up), in wad. The slack is what the roundings
of account_totals and the vault valuation can lose, in raw units:
price // WAD + 3 per deposit, price // WAD + 1 per debt, 2 per vault
collateral asset and 1 for vault debt. It bounds the raw sides because a debt
side under WAD is never anchored (it is valued every scan). The bound implies
collateral side >= debt side now: not liquidatable, not unsafe. A bucket
whose prices cannot be read is valued in full. Each bucket keeps its anchors
in a heap by key, so a scan computes its ratios once per bucket and pops only
the anchors that cross.

One rule keeps the screen to the traffic the simulation makes: a scan made
while a checkpoint is open files nothing, neither an anchor nor the striking
off of a candidate with no debt, so a rollback leaves nothing of the screen's
to undo: the keys its undone writes named stay in `touched` or dirty, and the
next scan values them. The liquidator agent and `lendsim scan` scan with no
checkpoint open.

A candidate is dirty once a write names it in the undo log's `touched` set:
a ledger transfer, mint or burn names its accounts (so every IOU balance
change does), a pool an account whose borrow position it writes, the CDP
engine a vault whose collateral or debt it writes. Each scan moves the set
into its dirty set and clears it; a key that names no candidate is struck off
there. The screen builds at the first scan with every candidate dirty and what
was written before dropped, so a full scan is the same code run with no
anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from . import errors
from .fixed import WAD, ceil_div, div_down, div_up, mul_down, require_amount, to_str


@dataclass
class HealthReport:
    account: str
    collateral_value: int  # USD wad, deposits
    threshold_value: int  # USD wad, weighted by per-asset liquidation threshold
    debt_value: int  # USD wad
    ltv: int | None  # None when collateral_value == 0
    health_factor: int | None  # None means infinite (no debt)
    borrowing_power: int  # USD wad, weighted by per-asset collateral factor
    largest_debt: str | None  # pool asset of the largest debt by USD value
    largest_collateral: str | None  # pool asset of the largest deposit by USD value

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
        if claim:
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
    """USD borrow capacity: sum of collateral value * collateral_factor."""
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
    if seize_claim == 0:
        raise errors.NoSuchCollateral(f"{target} has no {seize_asset} deposit")

    applied, seized = seize_split(
        repay_amount,
        world.oracle.price_at(repay_asset, step),
        world.oracle.price_at(seize_asset, step),
        WAD + seize_pool.params.liquidation_bonus,
        seize_claim,
    )

    world.ledger.transfer(liquidator, repay_pool.account, repay_asset, applied, tag="liquidation-repay")
    repay_pool.positions.reduce(target, applied, repay_pool.borrow_index)
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


# ---------------------------------------------------------------------------
# risk screen
# ---------------------------------------------------------------------------
# A factor is (kind, asset): "supply" (a deposit), "variable" (a borrow position),
# "locked" (vault collateral) or "fee" (vault debt, asset None). Supply and locked are collateral
# factors, the rest debt factors.
_COLLATERAL_FACTORS = ("supply", "locked")
_NO_PRICE = (errors.MissingFeed, errors.StepBeforeFirstPoint, errors.Overflow, ValueError)  # from price_at


class _Bucket:
    """Anchored candidates with one factor signature, in a heap by key, against one frame.

    The frame is what each factor read when the bucket opened.
    """

    def __init__(self, signature: tuple):
        self.signature = signature
        self.frame: dict[tuple, int] = {}
        self.heap: list[tuple] = []  # (K, serial, candidate, bucket); stale entries stay until popped
        self.live = 0


class RiskScreen:
    """Which pool accounts and CDP vaults a liquidation scan must value exactly (module docstring).

    A scan calls `due`, values what it names, and files each one it valued
    with `anchor_account` or `anchor_vault`. What changed reaches it only
    through the undo log's `touched` set, which `due` drains.
    """

    def __init__(self) -> None:
        self.dirty: set[str | int] | None = None  # due at the next scan; None until the first builds it
        self.anchors: dict[str | int, tuple] = {}  # candidate -> its heap entry
        self.buckets: dict[tuple, _Bucket] = {}
        self._serial = 0
        self._filing = False  # this scan runs with no checkpoint open
        self._step = 0
        self._rates: dict[str, int] = {}  # this scan's unit rate per pool
        self._now: dict[tuple, int] = {}  # this scan's factor values

    # ------------------------------------------------------------------
    def due(self, world, step: int, reads: list[tuple]) -> tuple[list[str], list[int]]:
        """The accounts (by name) and vaults (by id) a scan at `step` must value; the rest are safe."""
        touched = world.ledger.undo.touched
        if self.dirty is None:  # every candidate is due, so what was written so far can be dropped
            self.dirty = {a for p in world.pools.values() for a in p.positions}
            if world.cdp is not None:
                self.dirty.update(world.cdp.vaults)
            touched.clear()
        for key in touched & self.anchors.keys():
            self._unanchor(key)
        self.dirty |= touched
        touched.clear()
        self._filing = not world.ledger.open_checkpoints()
        self._step, self._now = step, {}
        self._rates = {asset: rate for asset, _, rate, _ in reads}

        for bucket in list(self.buckets.values()):
            try:
                low, limit = self._bound(world, bucket)
            except _NO_PRICE:
                low, limit = 0, 1  # no bound: value the whole bucket
            heap = bucket.heap
            while heap and heap[0][0] * low < limit:
                entry = heappop(heap)
                if self.anchors.get(entry[2]) is entry:
                    self._unanchor(entry[2])

        cdp = world.cdp if world.cdp is not None and world.cdp.dai_asset in world.pools else None
        pools = world.pools.values()
        accounts, vaults, idle = [], [], []
        for key in self.dirty:
            if isinstance(key, str):
                (accounts if any(key in p.positions for p in pools) else idle).append(key)
            elif cdp is not None:
                (vaults if key in cdp.debts else idle).append(key)
        if self._filing and idle:  # no borrow position, or a vault without debt: never liquidatable
            self.dirty = self.dirty.difference(idle)  # a new set: one drained in place keeps its table
        accounts.sort()
        vaults.sort()
        return accounts, vaults

    def anchor_account(self, world, account: str, report: HealthReport, reads: list[tuple]) -> None:
        """File an account that the scan of the last `due` call valued with account_totals and its reads."""
        signature = []
        for asset, p, rate, units in reads:
            if p.claim(units.get(account, 0), rate):
                signature.append(("supply", asset))
            if account in p.positions:
                signature.append(("variable", asset))
        debts = sum(1 for kind, _ in signature if kind == "variable")
        self._anchor(world, account, tuple(signature), report.threshold_value, report.debt_value + debts)

    def anchor_vault(self, world, vault_id: int, vault, bound: int, debt: int) -> None:
        """File a vault that the scan of the last `due` call valued: its issuance bound and debt."""
        signature = (*sorted(("locked", a) for a, amt in vault.collateral.items() if amt), ("fee", None))
        self._anchor(world, vault_id, signature, bound, debt)

    # ------------------------------------------------------------------
    def _value(self, world, factor: tuple) -> int:
        """A factor's value in this scan's state."""
        value = self._now.get(factor)
        if value is None:
            kind, asset = factor
            if kind == "fee":
                value = world.cdp.fee_index
            elif kind == "supply":
                value = self._rates[asset] * world.oracle.price_at(asset, self._step)
            elif kind == "variable":
                value = world.pools[asset].borrow_index * world.oracle.price_at(asset, self._step)
            else:  # locked
                value = world.oracle.price_at(asset, self._step)
            self._now[factor] = value
        return value

    def _bound(self, world, bucket: _Bucket) -> tuple[int, int]:
        """(c, WAD * (d + slack)) of a bucket in this scan: a key K is safe while K * c >= the second."""
        low, high, slack = None, 0, 0
        for factor in bucket.signature:
            kind, asset = factor
            now, then = self._value(world, factor), bucket.frame[factor]
            if kind in _COLLATERAL_FACTORS:
                ratio = WAD * now // then
                low = ratio if low is None or ratio < low else low
                slack += 2 if kind == "locked" else world.oracle.price_at(asset, self._step) // WAD + 3
            else:
                high = max(high, ceil_div(WAD * now, then))
                slack += 1 if kind == "fee" else world.oracle.price_at(asset, self._step) // WAD + 1
        return low or 0, WAD * (high + slack)

    def _anchor(self, world, key, signature: tuple, collateral_side: int, debt_side: int) -> None:
        """File a valued candidate."""
        if not self._filing:
            return  # stays dirty: a rollback could undo what it was valued in
        bucket = self.buckets.get(signature)
        if bucket is None:
            bucket = self.buckets[signature] = _Bucket(signature)
        low = high = None
        for factor in signature:
            now = self._value(world, factor)
            then = bucket.frame.setdefault(factor, now)
            if factor[0] in _COLLATERAL_FACTORS:
                side = collateral_side * then // now
                low = side if low is None or side < low else low
            else:
                side = ceil_div(debt_side * then, now)
                high = side if high is None or side > high else high
        if high < WAD:
            if not bucket.live:
                del self.buckets[signature]
            return  # stays dirty: the slack is bounded only for a debt side of at least one unit
        self._serial += 1
        entry = ((low or 0) * WAD // high, self._serial, key, bucket)
        heappush(bucket.heap, entry)
        bucket.live += 1
        self.anchors[key] = entry
        self.dirty.discard(key)

    def _unanchor(self, key: str | int) -> None:
        """Make a candidate dirty, dropping its anchor and a bucket it leaves empty."""
        self.dirty.add(key)
        entry = self.anchors.pop(key, None)
        if entry is None:
            return
        bucket = entry[3]
        bucket.live -= 1
        if not bucket.live:
            del self.buckets[bucket.signature]
        elif len(bucket.heap) > 2 * bucket.live + 16:  # shed entries that are no longer anchors
            bucket.heap = [e for e in bucket.heap if self.anchors.get(e[2]) is e]
            heapify(bucket.heap)
