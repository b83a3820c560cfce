"""Trading venues: fixed-quote exchanges and constant-product AMMs.

Both venue kinds keep their inventory in a ledger account, so venue trades are
ordinary transfers and asset conservation holds by construction. Quote venues
trade any quoted asset against a single numeraire asset at an exogenous price
(fees in basis points); the AMM trades one pair with x*y=k pricing where the
fee stays in the reserves, so the product never decreases.

Both kinds share one leg interface keyed by the asset traded, whose numeraire
is a quote venue's `numeraire` or an AMM's `other(asset)`: `markets()` lists
the (asset, numeraire) pairs; `sell_out`/`buy_cost` quote an exact-in sell and
an exact-out buy (None past inventory or reserve) that `sell`/`buy` trade at;
`max_sell` (None on an AMM)/`max_buy` bound a leg; `convert` spends an exact
input on the other asset along a route that `converts`, the one route rule,
accepts; `linear` (proceeds proportional to size) lets the arbitrage scanner
size a trade in closed form. `scenario.parse_scenario` builds these objects and
checks each field's bound, and `validate_scenario` the rules across fields, so
the constructors check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import errors
from .fixed import BPS_DENOM, WAD, ceil_div, require_amount


@dataclass
class QuoteVenue:
    linear = True  # proceeds scale with size up to the inventory bound

    venue_id: str
    numeraire: str
    quotes: dict[str, int]  # asset -> wad price in numeraire per whole unit
    fee_bps: int = 0
    account: str = field(init=False)  # the ledger account holding the inventory

    def __post_init__(self) -> None:
        self.account = f"venue:{self.venue_id}"

    def _price(self, asset: str) -> int:
        try:
            return self.quotes[asset]
        except KeyError:
            raise errors.UnknownAsset(f"{self.venue_id} does not quote {asset}") from None

    def markets(self) -> list[tuple[str, str]]:
        return [(asset, self.numeraire) for asset in self.quotes]

    def converts(self, asset_in: str, asset_out: str) -> bool:
        """Whether `convert` takes this route: the numeraire into a quoted asset, or back."""
        if asset_in == asset_out:
            return False
        if asset_in == self.numeraire:
            return asset_out in self.quotes
        return asset_out == self.numeraire and asset_in in self.quotes

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

    def sell_out(self, world, asset: str, amount: int) -> int:
        return self.sell_quote(asset, amount)

    def buy_cost(self, world, asset: str, amount: int) -> int | None:
        if amount > self.max_buy(world, asset):
            return None
        return self.buy_quote(asset, amount)

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

    def convert(self, world, account: str, asset_in: str, asset_out: str, amount: int) -> int:
        """Spend `amount` of asset_in on asset_out; returns the asset_out received."""
        if not self.converts(asset_in, asset_out):
            raise errors.UnknownAsset(f"{self.venue_id} does not trade {asset_in} for {asset_out}")
        if asset_out == self.numeraire:
            return self.sell(world, account, asset_in, amount)
        bought = self.buy_amount_for(asset_out, amount)
        if bought:
            self.buy(world, account, asset_out, bought)
        return bought


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
    linear = False  # slippage makes proceeds concave in size

    venue_id: str
    pair: tuple[str, str]
    fee_bps: int = 30
    account: str = field(init=False)  # the ledger account holding the reserves

    def __post_init__(self) -> None:
        self.account = f"venue:{self.venue_id}"

    def other(self, asset: str) -> str:
        if asset == self.pair[0]:
            return self.pair[1]
        if asset == self.pair[1]:
            return self.pair[0]
        raise errors.UnknownAsset(f"{self.venue_id} does not trade {asset}")

    def markets(self) -> list[tuple[str, str]]:
        a, b = self.pair
        return [(a, b), (b, a)]

    def converts(self, asset_in: str, asset_out: str) -> bool:
        """Whether `convert` takes this route: one asset of the pair into the other."""
        return asset_in != asset_out and asset_in in self.pair and asset_out in self.pair

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

    def sell_out(self, world, asset: str, amount: int) -> int:
        return self.swap_quote(world, asset, amount)

    def buy_cost(self, world, asset: str, amount: int) -> int | None:
        reserve_in, reserve_out = self.reserves(world, self.other(asset))
        if amount >= reserve_out:
            return None
        return amm_in_given_out(reserve_in, reserve_out, amount, self.fee_bps)

    def max_sell(self, world, asset: str) -> None:
        return None  # slippage-limited, no hard cap

    def max_buy(self, world, asset: str) -> int:
        return max(world.ledger.balance(self.account, asset) - 1, 0)

    def sell(self, world, account: str, asset: str, amount: int) -> int:
        return self.swap(world, account, asset, amount)

    def buy(self, world, account: str, asset: str, amount: int) -> int:
        """Receive exactly `amount` of asset for the smallest input that pays for it."""
        require_amount(amount)
        asset_in = self.other(asset)
        cost = amm_in_given_out(*self.reserves(world, asset_in), amount, self.fee_bps)
        world.ledger.transfer(account, self.account, asset_in, cost, tag="amm-swap")
        world.ledger.transfer(self.account, account, asset, amount, tag="amm-swap")
        return cost

    def convert(self, world, account: str, asset_in: str, asset_out: str, amount: int) -> int:
        """Swap `amount` of asset_in for asset_out; returns the asset_out received."""
        if not self.converts(asset_in, asset_out):
            raise errors.UnknownAsset(f"{self.venue_id} does not trade {asset_in} for {asset_out}")
        return self.swap(world, account, asset_in, amount)
