"""Pooled lending market: IOU deposits, collateralized borrows, rate accrual.

One Pool instance is one asset market. Deposit certificates are real ledger
assets minted/burned by the pool, in one of two accounting modes:

* exchange-rate mode: the IOU's redemption rate against the underlying is
  (cash + total_borrows - reserves) / iou_supply and rises as interest
  accrues (1.0 while supply is zero; reserves above cash + total_borrows are
  an InvariantViolation, not a zero rate).
* rebasing mode: the ledger stores scaled units; the displayed balance is
  scaled * liquidity_index and redeems 1:1 for the underlying.

Interest compounds discretely once per step. The borrow rate is a two-slope
(kinked) function of utilization U = borrows / (cash + borrows); suppliers
earn r_b * U * (1 - reserve_factor), and reserve_factor of the interest the
borrows accrued in the step goes to the pool's reserves, rounded up, so the
reserves never take more than the borrowers owe.

There are no rate modes: every borrow accrues at the pool's borrow rate. The
borrow positions are a ledger.DebtBook keyed by account, against
borrow_index, so accrual compounds every position by moving one index.
`total_borrows` is derived, not kept: the book's scaled total times the
index, rounded up once, as Aave's variable debt token derives its total
supply. Each position rounds its own debt up, so 0 <= sum of debt_of -
total_borrows < number of positions, with no drift and no clamp. All cash
lives in the pool's ledger account `pool:<asset>`, also its IOU's mint/burn
authority, so pool cash can never drift from the balance sheet. The pool's
state is written through the world ledger's undo log, so a world rollback
restores it in place (ledger.py).

A deposit is collateral (Aave's default): an account's IOU balance is the one
record of its collateral in the pool, which backs its borrows and may be seized.

A step costs the pool only what moved in it. `accrue` returns at once while
nothing is borrowed and the base rate is 0, since then no index or reserve
can change. Equal counts of `positions.writes` prove the borrow-side reward
weights unchanged. `telemetry_row` re-renders its cells only when the raw
state they are a function of (the scaled total and the index, not the
derived total) differs from the last rendered one. A zero-amount deposit,
redeem, borrow or repay returns at once and writes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors, liquidation
from .fixed import WAD, div_down, div_up, mul_down, mul_up, require_amount, to_str
from .ledger import DebtBook, UndoLog

EXCHANGE_RATE = "exchange-rate"
REBASING = "rebasing"

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

    def rates(self, cash: int, borrows: int) -> tuple[int, int, int]:
        """(utilization U = borrows / (cash + borrows), borrow rate, supply rate); U is 0 for an empty pool."""
        util = div_down(borrows, cash + borrows) if cash + borrows else 0
        r_b = self.borrow_rate(util)
        return util, r_b, self.supply_rate(r_b, util)


@dataclass
class PoolParams:
    """A market's risk parameters, bounded as noted: each bound on one field is its scenario
    key's table row, and `scenario.validate_scenario` checks the threshold against c."""

    asset: str
    iou_asset: str
    iou_mode: str
    collateral_factor: int  # c, in [0, 1)
    liquidation_threshold: int  # l, in (c, 1]
    liquidation_bonus: int  # b, >= 0
    close_factor: int  # in (0, 1]
    rate_model: RateModelParams
    flash_fee: int


class Pool:
    def __init__(self, params: PoolParams, undo: UndoLog):
        self.params = params
        self.account = f"pool:{params.asset}"  # holds the pool's cash, mints and burns its IOU
        self.reserves = 0
        self.borrow_index = WAD
        self.liquidity_index = WAD
        self.positions = DebtBook(undo)  # account -> debt / borrow_index at its last write
        self.undo = undo
        # (cash, scaled borrows, borrow_index, reserves, liquidity_index, iou_supply) last rendered, and the row after
        # its step cell
        self._row_state: tuple | None = None
        self._row_cells = ""

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------
    def cash(self, world) -> int:
        return world.ledger.balance(self.account, self.params.asset)

    def iou_supply(self, world) -> int:
        return world.ledger.supply(self.params.iou_asset)

    @property
    def total_borrows(self) -> int:
        """The book's total debt, rounded up once: at most the sum of every position's debt_of."""
        return mul_up(self.positions.scaled_total, self.borrow_index)

    def exchange_rate(self, world) -> int:
        supply = self.iou_supply(world)
        if supply == 0:
            return WAD
        net = self.cash(world) + self.total_borrows - self.reserves
        if net < 0:
            raise errors.InvariantViolation(
                f"pool {self.params.asset}: reserves exceed cash + borrows by {-net} with {supply} IOU outstanding"
            )
        return div_down(net, supply)

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
        return self.positions.debt_of(account, self.borrow_index)

    # ------------------------------------------------------------------
    # accrual
    # ------------------------------------------------------------------
    def accrue(self, world) -> None:
        """Compound one step of interest at the rates of the pool's state now."""
        model = self.params.rate_model
        scaled = self.positions.scaled_total
        if scaled == 0 and model.base_rate == 0:
            return  # a zero rate: every index and reserve would stay as it is
        self.undo.save_attrs(self, "borrow_index", "liquidity_index", "reserves")
        borrows = mul_up(scaled, self.borrow_index)  # total_borrows, without the property's lookups
        _, r_b, r_s = model.rates(self.cash(world), borrows)
        self.borrow_index = mul_down(self.borrow_index, WAD + r_b)
        self.liquidity_index = mul_down(self.liquidity_index, WAD + r_s)
        # the reserve's share of the interest the borrows accrued, rounded up, so never more than all of it
        self.reserves += mul_up(mul_up(scaled, self.borrow_index) - borrows, model.reserve_factor)

    # ------------------------------------------------------------------
    # deposits
    # ------------------------------------------------------------------
    def deposit(self, world, account: str, amount: int) -> int:
        if not require_amount(amount):
            return 0
        minted = self.units_for(world, amount)
        world.ledger.transfer(account, self.account, self.params.asset, amount, tag="deposit")
        world.ledger.mint(account, self.params.iou_asset, minted, self.account, tag="deposit-iou")
        return minted

    def redeem(self, world, account: str, iou_amount: int, step: int) -> int:
        """Redeem IOU for underlying.

        iou_amount is IOU units in exchange-rate mode and *displayed* units
        (equal to the underlying payout) in rebasing mode.
        """
        if not require_amount(iou_amount):
            return 0
        bal = world.ledger.balance(account, self.params.iou_asset)
        if iou_amount > self.displayed(bal):
            raise errors.InsufficientIOU(f"{account} holds {self.displayed(bal)} redeemable, asked {iou_amount}")
        if self.params.iou_mode == EXCHANGE_RATE:
            payout = mul_down(iou_amount, self.exchange_rate(world))
            burn_units = iou_amount
        else:
            payout = iou_amount  # 1:1 redemption of the displayed balance
            burn_units = div_up(iou_amount, self.liquidity_index)  # <= bal, as iou_amount <= displayed(bal)
        if payout > self.cash(world):
            raise errors.InsufficientLiquidity(
                f"pool {self.params.asset} cash {self.cash(world)} < payout {payout}"
            )
        self._require_health_after_withdrawal(world, account, bal - burn_units, step)
        world.ledger.burn(account, self.params.iou_asset, burn_units, self.account, tag="redeem-iou")
        world.ledger.transfer(self.account, account, self.params.asset, payout, tag="redeem")
        return payout

    def seize(self, world, target: str, liquidator: str, underlying: int) -> None:
        """Hand `underlying` worth of the target's IOU to a liquidator."""
        units = self.units_for(world, underlying)
        world.ledger.transfer(target, liquidator, self.params.iou_asset, units, tag="liquidation-seize")

    def _require_health_after_withdrawal(self, world, account: str, units_left: int, step: int) -> None:
        """Value the account as it stands with `units_left` of this pool's IOU, at the rates read now."""
        reads = [(asset, p, rate, {account: units_left} if p is self else units)
                 for asset, p, rate, units in liquidation.pool_reads(world)]
        totals = liquidation.account_totals(world, account, step, reads)
        if totals.threshold_value < totals.debt_value:
            raise errors.WouldBecomeUndercollateralized(account)

    # ------------------------------------------------------------------
    # borrows
    # ------------------------------------------------------------------
    def borrow(self, world, account: str, amount: int, *, step: int) -> None:
        if not require_amount(amount):
            return
        if amount > self.cash(world):
            raise errors.InsufficientLiquidity(
                f"pool {self.params.asset} cash {self.cash(world)} < borrow {amount}"
            )
        totals = liquidation.account_totals(world, account, step)
        debt_value = totals.debt_value + world.oracle.value_usd(amount, self.params.asset, step)
        if debt_value > totals.borrowing_power:
            raise errors.ExceedsBorrowingPower(f"{account}: debt value {debt_value} > power {totals.borrowing_power}")
        self.positions.add(account, amount, self.borrow_index)
        world.ledger.transfer(self.account, account, self.params.asset, amount, tag="borrow")

    def repay(self, world, account: str, amount: int) -> int:
        if not require_amount(amount):
            return 0
        debt = self.debt_of(account)
        if debt == 0:
            raise errors.NoDebt(f"{account} owes nothing in {self.params.asset}")
        applied = min(amount, debt)
        world.ledger.transfer(account, self.account, self.params.asset, applied, tag="repay")
        self.positions.reduce(account, applied, self.borrow_index)
        return applied

    def credit_flash_fee(self, fee: int) -> None:
        """Book a flash loan's fee, already in the pool's cash, to reserves."""
        self.undo.save_attrs(self, "reserves")
        self.reserves += fee

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry_row(self, world, step: int) -> str:
        # every cell after the step is a function of this state and the immutable params
        state = (self.cash(world), self.positions.scaled_total, self.borrow_index, self.reserves,
                 self.liquidity_index, self.iou_supply(world))
        if state != self._row_state:
            cash, _, _, reserves, _, supply = state
            borrows = self.total_borrows
            util, r_b, r_s = self.params.rate_model.rates(cash, borrows)
            cells = (self.params.asset, to_str(cash), to_str(borrows), to_str(reserves), to_str(util), to_str(r_b),
                     to_str(r_s), to_str(self.unit_rate(world)), to_str(supply))
            self._row_cells = ",".join(cells)
            self._row_state = state
        return f"{step},{self._row_cells}"
