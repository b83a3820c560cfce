"""Pooled lending market: IOU deposits, collateralized borrows, rate accrual.

One Pool instance is one asset market. Deposit certificates are real ledger
assets minted/burned by the pool, in one of two accounting modes:

* exchange-rate mode: the IOU's redemption rate against the underlying is
  (cash + total_borrows - reserves) / iou_supply and rises as interest
  accrues (1.0 while supply is zero).
* rebasing mode: the ledger stores scaled units; the displayed balance is
  scaled * liquidity_index and redeems 1:1 for the underlying.

Interest compounds discretely once per step. The borrow rate is a two-slope
(kinked) function of utilization U = borrows / (cash + borrows); suppliers
earn r_b * U * (1 - reserve_factor) while the reserve fraction accrues to the
pool's reserves, rounding in the pool's favor.

Borrow positions are variable (indexed against borrow_index) or stable
(principal compounded at a per-position snapshot rate of r_b + premium, never
rebalanced, and booked into total_borrows at that rate). Positions may switch
modes at any time with continuous debt value. All cash lives in the pool's
ledger account `pool:<asset>`, also its IOU's mint/burn authority, so pool cash
can never drift from the balance sheet. Every write to the pool's own state
first records the old value in its undo log (the world ledger's), so a world
rollback restores it in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors, liquidation
from .fixed import WAD, ceil_div, div_down, div_up, mul_down, mul_up, require_amount, to_str
from .ledger import UndoLog

EXCHANGE_RATE = "exchange-rate"
REBASING = "rebasing"

VARIABLE = "variable"
STABLE = "stable"

TELEMETRY_HEADER = (
    "step,asset,cash,total_borrows,reserves,utilization,"
    "borrow_rate,supply_rate,exchange_rate_or_liquidity_index,iou_supply"
)


@dataclass
class RateModelParams:
    """Two-slope utilization curve; all rates are per-step wad fractions."""

    base_rate: int
    slope1: int
    slope2: int
    kink: int  # utilization in (0, 1)
    reserve_factor: int  # in [0, 1)

    def borrow_rate(self, utilization: int) -> int:
        if utilization <= self.kink:
            return self.base_rate + mul_down(self.slope1, div_down(utilization, self.kink))
        excess = div_down(utilization - self.kink, WAD - self.kink)
        return self.base_rate + self.slope1 + mul_down(self.slope2, excess)

    def supply_rate(self, borrow_rate: int, utilization: int) -> int:
        return mul_down(mul_down(borrow_rate, utilization), WAD - self.reserve_factor)


@dataclass
class PoolParams:
    """A market's risk parameters; `scenario.validate_scenario` checks the bounds noted here."""

    asset: str
    iou_asset: str
    iou_mode: str
    collateral_factor: int  # c, in [0, 1)
    liquidation_threshold: int  # l, in (c, 1]
    liquidation_bonus: int  # b, >= 0
    close_factor: int  # in (0, 1]
    rate_model: RateModelParams
    flash_fee: int = 0
    stable_rate_premium: int = 0


@dataclass
class BorrowPosition:
    account: str
    rate_mode: str = VARIABLE
    scaled: int = 0  # variable debt / borrow_index at last touch
    stable_principal: int = 0
    stable_rate: int = 0


class Pool:
    def __init__(self, params: PoolParams, undo: UndoLog):
        self.params = params
        self.account = f"pool:{params.asset}"  # holds the pool's cash, mints and burns its IOU
        self.total_borrows = 0
        self.reserves = 0
        self.borrow_index = WAD
        self.liquidity_index = WAD
        self.positions: dict[str, BorrowPosition] = {}
        self.collateral_on: dict[str, bool] = {}
        self.paused = False
        self.undo = undo

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------
    def cash(self, world) -> int:
        return world.ledger.balance(self.account, self.params.asset)

    def iou_supply(self, world) -> int:
        return world.ledger.supply(self.params.iou_asset)

    def exchange_rate(self, world) -> int:
        supply = self.iou_supply(world)
        if supply == 0:
            return WAD
        net = self.cash(world) + self.total_borrows - self.reserves
        return div_down(max(net, 0), supply)

    def utilization(self, world) -> int:
        cash = self.cash(world)
        total = cash + self.total_borrows
        if total == 0:
            return 0
        return div_down(self.total_borrows, total)

    def borrow_rate(self, world) -> int:
        return self.params.rate_model.borrow_rate(self.utilization(world))

    def current_stable_rate(self, world) -> int:
        return self.borrow_rate(world) + self.params.stable_rate_premium

    def underlying_claim(self, world, account: str) -> int:
        """Underlying value of an account's IOU holding (displayed balance)."""
        units = world.ledger.balance(account, self.params.iou_asset)
        return self.claim(units, self.unit_rate(world)) if units else 0

    @staticmethod
    def claim(units: int, rate: int) -> int:
        """Underlying worth of IOU ledger units at a unit rate read once per valuing pass (rounds down)."""
        return mul_down(units, rate)

    def unit_rate(self, world) -> int:
        """Underlying per IOU ledger unit: the exchange rate, or the liquidity index when rebasing."""
        return self.exchange_rate(world) if self.params.iou_mode == EXCHANGE_RATE else self.liquidity_index

    def units_for(self, world, underlying: int) -> int:
        """IOU ledger units worth `underlying` at the current rate (rounds down)."""
        return div_down(underlying, self.unit_rate(world))

    def displayed(self, units: int) -> int:
        """The amount `redeem` takes to redeem `units` of IOU (rounds down)."""
        if self.params.iou_mode == EXCHANGE_RATE:
            return units
        return mul_down(units, self.liquidity_index)

    def debt_of(self, account: str) -> int:
        pos = self.positions.get(account)
        if pos is None:
            return 0
        if pos.rate_mode == VARIABLE:
            return mul_up(pos.scaled, self.borrow_index)
        return pos.stable_principal

    # ------------------------------------------------------------------
    # accrual
    # ------------------------------------------------------------------
    def accrue(self, world, dt: int = 1) -> None:
        if dt < 1:
            raise ValueError("dt must be >= 1")
        model = self.params.rate_model
        cash = self.cash(world)  # constant across accrual steps
        self.undo.save_attrs(self, "borrow_index", "liquidity_index", "total_borrows", "reserves")
        for _ in range(dt):
            borrows = self.total_borrows
            total = cash + borrows
            util = div_down(borrows, total) if total else 0
            r_b = model.borrow_rate(util)
            r_s = model.supply_rate(r_b, util)
            self.borrow_index = mul_down(self.borrow_index, WAD + r_b)
            self.liquidity_index = mul_down(self.liquidity_index, WAD + r_s)
            # stable debt grows at each position's own rate; only the rest compounds at r_b
            variable, stable_growth = borrows, 0
            for pos in self.positions.values():
                if pos.rate_mode == STABLE and pos.stable_principal:
                    self.undo.save_attrs(pos, "stable_principal")
                    grown = mul_up(pos.stable_principal, WAD + pos.stable_rate)
                    variable -= pos.stable_principal
                    stable_growth += grown - pos.stable_principal
                    pos.stable_principal = grown
            self.total_borrows = borrows + mul_up(variable, r_b) + stable_growth
            rf = model.reserve_factor
            self.reserves += ceil_div(variable * r_b * rf, WAD * WAD) + ceil_div(stable_growth * rf, WAD)

    # ------------------------------------------------------------------
    # deposits
    # ------------------------------------------------------------------
    def deposit(self, world, account: str, amount: int) -> int:
        require_amount(amount)
        if self.paused:
            raise errors.PoolPaused(self.params.asset)
        minted = self.units_for(world, amount)
        world.ledger.transfer(account, self.account, self.params.asset, amount, tag="deposit")
        world.ledger.mint(account, self.params.iou_asset, minted, self.account, tag="deposit-iou")
        self.undo.save_items(self.collateral_on, account)
        self.collateral_on.setdefault(account, True)
        return minted

    def redeem(self, world, account: str, iou_amount: int, step: int) -> int:
        """Redeem IOU for underlying.

        iou_amount is IOU units in exchange-rate mode and *displayed* units
        (equal to the underlying payout) in rebasing mode.
        """
        require_amount(iou_amount)
        bal = world.ledger.balance(account, self.params.iou_asset)
        if iou_amount > self.displayed(bal):
            raise errors.InsufficientIOU(f"{account} holds {self.displayed(bal)} redeemable, asked {iou_amount}")
        if self.params.iou_mode == EXCHANGE_RATE:
            payout = mul_down(iou_amount, self.exchange_rate(world))
            burn_units = iou_amount
        else:
            payout = iou_amount  # 1:1 redemption of the displayed balance
            burn_units = min(div_up(iou_amount, self.liquidity_index), bal)
        if payout > self.cash(world):
            raise errors.InsufficientLiquidity(
                f"pool {self.params.asset} cash {self.cash(world)} < payout {payout}"
            )
        self._require_health_after_withdrawal(world, account, payout, step)
        world.ledger.burn(account, self.params.iou_asset, burn_units, self.account, tag="redeem-iou")
        world.ledger.transfer(self.account, account, self.params.asset, payout, tag="redeem")
        return payout

    def seize(self, world, target: str, liquidator: str, underlying: int) -> None:
        """Hand `underlying` worth of the target's IOU to a liquidator."""
        units = self.units_for(world, underlying)
        world.ledger.transfer(target, liquidator, self.params.iou_asset, units, tag="liquidation-seize")
        self.undo.save_items(self.collateral_on, liquidator)
        self.collateral_on.setdefault(liquidator, True)

    def _require_health_after_withdrawal(self, world, account: str, underlying_out: int, step: int) -> None:
        if not self.collateral_on.get(account, False):
            return
        totals = liquidation.account_totals(world, account, step)
        if totals.debt_value == 0:
            return
        removed = world.oracle.value_usd(underlying_out, self.params.asset, step)
        new_threshold = totals.threshold_value - mul_down(removed, self.params.liquidation_threshold)
        if new_threshold < totals.debt_value:
            raise errors.WouldBecomeUndercollateralized(account)

    def set_collateral_flag(self, world, account: str, on: bool, step: int) -> None:
        if not on and self.collateral_on.get(account, False):
            claim = self.underlying_claim(world, account)
            if claim:
                self._require_health_after_withdrawal(world, account, claim, step)
        self.undo.save_items(self.collateral_on, account)
        self.collateral_on[account] = on

    # ------------------------------------------------------------------
    # borrows
    # ------------------------------------------------------------------
    def borrow(self, world, account: str, amount: int, mode: str = VARIABLE, *, step: int) -> None:
        require_amount(amount)
        if mode not in (VARIABLE, STABLE):
            raise ValueError(f"unknown rate mode {mode!r}")
        if amount > self.cash(world):
            raise errors.InsufficientLiquidity(
                f"pool {self.params.asset} cash {self.cash(world)} < borrow {amount}"
            )
        totals = liquidation.account_totals(world, account, step)
        debt_value = totals.debt_value + world.oracle.value_usd(amount, self.params.asset, step)
        if debt_value > totals.borrowing_power:
            raise errors.ExceedsBorrowingPower(f"{account}: debt value {debt_value} > power {totals.borrowing_power}")
        pos = self.positions.get(account)
        if pos is None:
            pos = BorrowPosition(account=account, rate_mode=mode)
            self.undo.save_items(self.positions, account)
            self.positions[account] = pos
        elif pos.rate_mode != mode:
            raise errors.RateModeMismatch(
                f"{account} already borrows {self.params.asset} at {pos.rate_mode}; switch first"
            )
        # move funds first: stable snapshots price the post-trade utilization
        self.undo.save_attrs(self, "total_borrows")
        self.undo.save_attrs(pos, "scaled", "stable_principal", "stable_rate")
        self.total_borrows += amount
        world.ledger.transfer(self.account, account, self.params.asset, amount, tag="borrow")
        if mode == VARIABLE:
            pos.scaled += div_up(amount, self.borrow_index)
        else:
            snapshot = self.current_stable_rate(world)
            if pos.stable_principal:
                # weighted-average rate keeps existing accrual continuous
                total = pos.stable_principal + amount
                pos.stable_rate = ceil_div(
                    pos.stable_principal * pos.stable_rate + amount * snapshot, total
                )
            else:
                pos.stable_rate = snapshot
            pos.stable_principal += amount

    def repay(self, world, account: str, amount: int) -> int:
        require_amount(amount)
        debt = self.debt_of(account)
        if debt == 0:
            raise errors.NoDebt(f"{account} owes nothing in {self.params.asset}")
        applied = min(amount, debt)
        world.ledger.transfer(account, self.account, self.params.asset, applied, tag="repay")
        self.reduce_debt(account, applied)
        return applied

    def reduce_debt(self, account: str, applied: int) -> None:
        """Book a repayment, already in the pool's cash, of at most the account's debt."""
        pos = self.positions[account]
        self.undo.save_attrs(self, "total_borrows")
        self.undo.save_attrs(pos, "scaled", "stable_principal")
        if pos.rate_mode == VARIABLE:
            if applied >= self.debt_of(account):
                pos.scaled = 0
            else:
                pos.scaled -= div_down(applied, self.borrow_index)
        else:
            pos.stable_principal -= applied
        self.total_borrows = max(0, self.total_borrows - applied)
        if pos.scaled == 0 and pos.stable_principal == 0:
            self.undo.del_item(self.positions, account)

    def credit_flash_fee(self, fee: int) -> None:
        """Book a flash loan's fee, already in the pool's cash, to reserves."""
        self.undo.save_attrs(self, "reserves")
        self.reserves += fee

    def switch_rate_mode(self, world, account: str) -> None:
        pos = self.positions.get(account)
        debt = self.debt_of(account)
        if pos is None or debt == 0:
            raise errors.NoDebt(f"{account} owes nothing in {self.params.asset}")
        self.undo.save_attrs(pos, "rate_mode", "scaled", "stable_principal", "stable_rate")
        if pos.rate_mode == VARIABLE:
            pos.rate_mode = STABLE
            pos.stable_principal = debt
            pos.stable_rate = self.current_stable_rate(world)
            pos.scaled = 0
        else:
            pos.rate_mode = VARIABLE
            pos.scaled = div_up(debt, self.borrow_index)
            pos.stable_principal = 0
            pos.stable_rate = 0

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry_row(self, world, step: int) -> str:
        util = self.utilization(world)
        r_b = self.params.rate_model.borrow_rate(util)
        r_s = self.params.rate_model.supply_rate(r_b, util)
        index = self.unit_rate(world)
        cells = (
            str(step),
            self.params.asset,
            to_str(self.cash(world)),
            to_str(self.total_borrows),
            to_str(self.reserves),
            to_str(util),
            to_str(r_b),
            to_str(r_s),
            to_str(index),
            to_str(self.iou_supply(world)),
        )
        return ",".join(cells)
