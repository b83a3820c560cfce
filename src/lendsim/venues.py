"""Trading venues: fixed-quote exchanges and constant-product AMMs.

Both venue kinds keep their inventory in a ledger account, so venue trades are
ordinary transfers and asset conservation holds by construction. Quote venues
trade any quoted asset against a single numeraire asset at an exogenous price
(fees in basis points); the AMM trades one pair with x*y=k pricing where the
fee stays in the reserves, so the product never decreases.

The *_quote helpers are pure and shared with the flash-loan scanner, which
guarantees scanner arithmetic matches execution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .fixed import BPS_DENOM, WAD, ceil_div, require_amount


@dataclass
class QuoteVenue:
    venue_id: str
    numeraire: str
    quotes: dict[str, int]  # asset -> wad price in numeraire per whole unit
    fee_bps: int = 0
    account: str = ""

    def __post_init__(self) -> None:
        if not self.account:
            self.account = f"venue:{self.venue_id}"
        for asset, price in self.quotes.items():
            if price <= 0:
                raise ValueError(f"quote for {asset} must be positive")
        if not 0 <= self.fee_bps < BPS_DENOM:
            raise ValueError("fee_bps must lie in [0, 10000)")

    def _price(self, asset: str) -> int:
        try:
            return self.quotes[asset]
        except KeyError:
            raise errors.UnknownAsset(f"{self.venue_id} does not quote {asset}") from None

    # pure pricing -----------------------------------------------------
    def sell_quote(self, asset: str, amount: int) -> int:
        """Numeraire received for selling `amount` of asset (rounds down)."""
        return amount * self._price(asset) * (BPS_DENOM - self.fee_bps) // (WAD * BPS_DENOM)

    def buy_quote(self, asset: str, amount: int) -> int:
        """Numeraire owed for buying `amount` of asset (rounds up)."""
        return ceil_div(amount * self._price(asset) * BPS_DENOM, WAD * (BPS_DENOM - self.fee_bps))

    def buy_amount_for(self, asset: str, budget: int) -> int:
        """Largest amount of asset whose buy_quote fits in `budget` numeraire."""
        return budget * WAD * (BPS_DENOM - self.fee_bps) // (self._price(asset) * BPS_DENOM)

    def max_sell(self, world, asset: str) -> int:
        """Largest sellable amount the venue's numeraire inventory can pay for.

        Rounding down here keeps sell_quote of the result within the inventory.
        """
        inventory = world.ledger.balance(self.account, self.numeraire)
        return inventory * WAD * BPS_DENOM // (self._price(asset) * (BPS_DENOM - self.fee_bps))

    def max_buy(self, world, asset: str) -> int:
        return world.ledger.balance(self.account, asset)

    # execution ----------------------------------------------------------
    def sell(self, world, account: str, asset: str, amount: int) -> int:
        require_amount(amount)
        out = self.sell_quote(asset, amount)
        if out > world.ledger.balance(self.account, self.numeraire):
            raise errors.InsufficientInventory(f"{self.venue_id} lacks {self.numeraire}")
        world.ledger.transfer(account, self.account, asset, amount, tag="venue-sell")
        world.ledger.transfer(self.account, account, self.numeraire, out, tag="venue-sell")
        return out

    def buy(self, world, account: str, asset: str, amount: int) -> int:
        require_amount(amount)
        if amount > world.ledger.balance(self.account, asset):
            raise errors.InsufficientInventory(f"{self.venue_id} lacks {asset}")
        cost = self.buy_quote(asset, amount)
        world.ledger.transfer(account, self.account, self.numeraire, cost, tag="venue-buy")
        world.ledger.transfer(self.account, account, asset, amount, tag="venue-buy")
        return cost


def amm_out_given_in(reserve_in: int, reserve_out: int, amount_in: int, fee_bps: int) -> int:
    effective = amount_in * (BPS_DENOM - fee_bps) // BPS_DENOM
    return reserve_out * effective // (reserve_in + effective)


def amm_in_given_out(reserve_in: int, reserve_out: int, amount_out: int, fee_bps: int) -> int:
    """Smallest input whose swap output is at least `amount_out`.

    Both ceilings round up, so amm_out_given_in of the result is never short.
    """
    if amount_out >= reserve_out:
        raise errors.InsufficientInventory("requested output exceeds AMM reserve")
    effective = ceil_div(reserve_in * amount_out, reserve_out - amount_out)
    return ceil_div(effective * BPS_DENOM, BPS_DENOM - fee_bps)


@dataclass
class AmmVenue:
    venue_id: str
    pair: tuple[str, str]
    fee_bps: int = 30
    account: str = ""

    def __post_init__(self) -> None:
        if not self.account:
            self.account = f"venue:{self.venue_id}"
        if self.pair[0] == self.pair[1]:
            raise ValueError("AMM pair must hold two distinct assets")
        if not 0 <= self.fee_bps < BPS_DENOM:
            raise ValueError("fee_bps must lie in [0, 10000)")

    def other(self, asset: str) -> str:
        if asset == self.pair[0]:
            return self.pair[1]
        if asset == self.pair[1]:
            return self.pair[0]
        raise errors.UnknownAsset(f"{self.venue_id} does not trade {asset}")

    def reserves(self, world, asset_in: str) -> tuple[int, int]:
        asset_out = self.other(asset_in)
        return (
            world.ledger.balance(self.account, asset_in),
            world.ledger.balance(self.account, asset_out),
        )

    def swap_quote(self, world, asset_in: str, amount_in: int) -> int:
        reserve_in, reserve_out = self.reserves(world, asset_in)
        return amm_out_given_in(reserve_in, reserve_out, amount_in, self.fee_bps)

    def swap(self, world, account: str, asset_in: str, amount_in: int) -> int:
        require_amount(amount_in)
        if amount_in == 0:
            return 0
        asset_out = self.other(asset_in)
        out = self.swap_quote(world, asset_in, amount_in)
        world.ledger.transfer(account, self.account, asset_in, amount_in, tag="amm-swap")
        world.ledger.transfer(self.account, account, asset_out, out, tag="amm-swap")
        return out
