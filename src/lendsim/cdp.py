"""Collateralized-debt-position engine issuing a soft-pegged stablecoin.

Vaults lock one or more collateral assets with the vault-engine account and
mint stablecoin debt up to a per-asset issuance fraction of collateral value.
The same fraction is the liquidation bound: there is no margin call, and as
soon as debt strictly exceeds the bound anyone may liquidate by repaying debt
(which is burned) in exchange for collateral at a penalty discount.

A per-step stability fee compounds a global fee index; the fee itself may be
driven by a pluggable policy (constant by default, with a proportional
controller available) consulted once per step with the stablecoin's oracle
price. Debt issuance treats one stablecoin as one USD regardless of its
market price; the market price only matters to traders and the fee policy.

`telemetry_rows` renders every vault's row from one price table per step:
each held collateral asset's price and issuance fraction are read once, and
the value/bound arithmetic is the same helper `_valuation` uses.

Every write to the engine's state first records the old value in its undo log
(the world ledger's), so a world rollback restores it in place. A write to a
vault's collateral or debt also names the vault id in the log's `touched`
set, which the liquidation scan's risk screen reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import errors
from .fixed import WAD, div_up, mul_down, mul_up, require_amount, scaled_after_repay, to_str
from .ledger import UndoLog
from .liquidation import seize_split

VAULT_ENGINE_ACCOUNT = "vault-engine"
CDP_AUTHORITY = "cdp"

VAULT_TELEMETRY_HEADER = "step,vault_id,collateral_value,debt,bound,safe_flag,fee_index"

# fee policies map the stablecoin's oracle price to a per-step fee
FeePolicy = Callable[[int], int]


def constant_fee(fee: int) -> FeePolicy:
    return lambda _price: fee


def proportional_fee(base: int, gain: int, target: int = WAD) -> FeePolicy:
    """Raise the fee when the stablecoin trades below target, lower it above."""

    def policy(price: int) -> int:
        return max(0, base + mul_down(gain, target - price))

    return policy


class _Marks(dict):
    """(price, issuance fraction) of each collateral asset at one step, read on first use."""

    def __init__(self, world, fractions: dict[str, int], step: int):
        self._price_at, self._fractions, self._step = world.oracle.price_at, fractions, step

    def __missing__(self, asset: str) -> tuple[int, int]:
        mark = self[asset] = (self._price_at(asset, self._step), self._fractions.get(asset, 0))
        return mark


@dataclass
class Vault:
    owner: str
    collateral: dict[str, int] = field(default_factory=dict)
    debt_scaled: int = 0  # debt / fee_index at last touch


def _value_and_bound(vault: Vault, marks: _Marks) -> tuple[int, int]:
    """A vault's collateral value in USD and the issuance bound it supports, at the marks' step."""
    value = bound = 0
    for asset, amt in vault.collateral.items():
        if amt:
            price, fraction = marks[asset]
            asset_value = mul_down(amt, price)
            value += asset_value
            bound += mul_down(asset_value, fraction)
    return value, bound


class CdpEngine:
    def __init__(
        self,
        undo: UndoLog,
        dai_asset: str,
        issuance_fraction: dict[str, int],
        stability_fee: int,
        liquidation_penalty: int,
        fee_policy: FeePolicy | None = None,
    ):
        self.dai_asset = dai_asset
        self.issuance_fraction = dict(issuance_fraction)
        self.stability_fee = stability_fee
        self.liquidation_penalty = liquidation_penalty
        self.fee_policy = fee_policy
        self.fee_index = WAD
        self.vaults: dict[int, Vault] = {}
        self.undo = undo

    # ------------------------------------------------------------------
    def open_vault(self, owner: str) -> int:
        vault_id = len(self.vaults) + 1  # free: only a rollback removes vaults, the newest first
        self.undo.save_items(self.vaults, vault_id)
        self.vaults[vault_id] = Vault(owner)
        return vault_id

    def vault(self, vault_id: int) -> Vault:
        try:
            return self.vaults[vault_id]
        except KeyError:
            raise errors.UnknownVault(str(vault_id)) from None

    def debt_of(self, vault: Vault) -> int:
        return mul_up(vault.debt_scaled, self.fee_index)

    def _valuation(self, world, vault: Vault, step: int) -> tuple[int, int]:
        """One walk over a vault's collateral: (USD value, issuance bound)."""
        return _value_and_bound(vault, _Marks(world, self.issuance_fraction, step))

    def collateral_value(self, world, vault: Vault, step: int) -> int:
        return self._valuation(world, vault, step)[0]

    def issuance_bound(self, world, vault: Vault, step: int) -> int:
        """Max debt (stablecoin units at the 1 USD target) the vault supports."""
        return self._valuation(world, vault, step)[1]

    def is_unsafe(self, world, vault: Vault, step: int) -> bool:
        return self.debt_of(vault) > self.issuance_bound(world, vault, step)

    # ------------------------------------------------------------------
    def lock(self, world, vault_id: int, asset: str, amount: int) -> None:
        require_amount(amount)
        vault = self.vault(vault_id)
        if asset not in self.issuance_fraction:
            raise errors.UnknownAsset(f"{asset} is not accepted vault collateral")
        world.ledger.transfer(vault.owner, VAULT_ENGINE_ACCOUNT, asset, amount, tag="vault-lock")
        self.undo.save_items(vault.collateral, asset)
        self.undo.touched.add(vault_id)
        vault.collateral[asset] = vault.collateral.get(asset, 0) + amount

    def free(self, world, vault_id: int, asset: str, amount: int, step: int) -> None:
        require_amount(amount)
        vault = self.vault(vault_id)
        held = vault.collateral.get(asset, 0)
        if amount > held:
            raise errors.InsufficientBalance(f"vault {vault_id} holds {held} {asset}")
        if self.debt_of(vault) > 0:
            removed = mul_down(
                world.oracle.value_usd(amount, asset, step),
                self.issuance_fraction.get(asset, 0),
            )
            if self.debt_of(vault) > self.issuance_bound(world, vault, step) - removed:
                raise errors.WouldBreachIssuanceBound(f"vault {vault_id}")
        self.undo.save_items(vault.collateral, asset)
        self.undo.touched.add(vault_id)
        vault.collateral[asset] = held - amount
        world.ledger.transfer(VAULT_ENGINE_ACCOUNT, vault.owner, asset, amount, tag="vault-free")

    def draw(self, world, vault_id: int, amount: int, step: int) -> None:
        require_amount(amount)
        vault = self.vault(vault_id)
        if amount == 0:
            return
        new_debt = self.debt_of(vault) + amount
        if new_debt > self.issuance_bound(world, vault, step):
            raise errors.ExceedsIssuanceBound(
                f"vault {vault_id}: debt {new_debt} > bound {self.issuance_bound(world, vault, step)}"
            )
        self.undo.save_attrs(vault, "debt_scaled")
        self.undo.touched.add(vault_id)
        vault.debt_scaled += div_up(amount, self.fee_index)
        world.ledger.mint(vault.owner, self.dai_asset, amount, CDP_AUTHORITY, tag="dai-draw")

    def repay(self, world, vault_id: int, amount: int) -> int:
        require_amount(amount)
        vault = self.vault(vault_id)
        debt = self.debt_of(vault)
        if debt == 0:
            raise errors.NoDebt(f"vault {vault_id}")
        applied = min(amount, debt)
        world.ledger.burn(vault.owner, self.dai_asset, applied, CDP_AUTHORITY, tag="dai-repay")
        self.undo.touched.add(vault_id)
        self._reduce_debt(vault, applied)
        return applied

    def _reduce_debt(self, vault: Vault, applied: int) -> None:
        """Book a repayment of at most the vault's debt; the whole debt clears it."""
        self.undo.save_attrs(vault, "debt_scaled")
        vault.debt_scaled = scaled_after_repay(vault.debt_scaled, self.fee_index, applied)

    # ------------------------------------------------------------------
    def accrue(self, world, step: int) -> None:
        self.undo.save_attrs(self, "stability_fee", "fee_index")
        if self.fee_policy is not None:
            self.stability_fee = self.fee_policy(world.oracle.price_at(self.dai_asset, step))
        self.fee_index = mul_up(self.fee_index, WAD + self.stability_fee)

    def set_fee(self, fee: int) -> None:
        if fee < 0:
            raise ValueError("stability fee must be >= 0")
        self.undo.save_attrs(self, "stability_fee")
        self.stability_fee = fee

    # ------------------------------------------------------------------
    def liquidate(
        self,
        world,
        liquidator: str,
        vault_id: int,
        repay_amount: int,
        seize_asset: str,
        step: int,
    ) -> int:
        require_amount(repay_amount)
        vault = self.vault(vault_id)
        if not self.is_unsafe(world, vault, step):
            raise errors.VaultSafe(f"vault {vault_id}")
        held = vault.collateral.get(seize_asset, 0)
        if held == 0:
            raise errors.NoSuchCollateral(f"vault {vault_id} holds no {seize_asset}")

        # issuance accounting values the stablecoin at its 1 USD target
        applied, seized = seize_split(
            min(repay_amount, self.debt_of(vault)),
            WAD,
            world.oracle.price_at(seize_asset, step),
            WAD + self.liquidation_penalty,
            held,
        )

        world.ledger.burn(liquidator, self.dai_asset, applied, CDP_AUTHORITY, tag="vault-liquidation-repay")
        self.undo.touched.add(vault_id)
        self._reduce_debt(vault, applied)
        self.undo.save_items(vault.collateral, seize_asset)
        vault.collateral[seize_asset] = held - seized
        world.ledger.transfer(VAULT_ENGINE_ACCOUNT, liquidator, seize_asset, seized, tag="vault-liquidation-seize")

        world.emit(
            kind="vault-liquidation",
            step=step,
            liquidator=liquidator,
            target=f"vault:{vault_id}",
            repay_asset=self.dai_asset,
            repay_amt=to_str(applied),
            seize_asset=seize_asset,
            seized_amt=to_str(seized),
            hf_before="",
            hf_after="",
        )
        return seized

    def audit(self, world) -> None:
        """Per-step identity: per asset, the vault engine's ledger holdings equal the vaults' collateral."""
        locked: dict[str, int] = {}
        for vault in self.vaults.values():
            for asset, amount in vault.collateral.items():
                locked[asset] = locked.get(asset, 0) + amount
        for asset in world.ledger.assets():
            held = world.ledger.balance(VAULT_ENGINE_ACCOUNT, asset)
            if held != locked.get(asset, 0):
                raise errors.InvariantViolation(
                    f"vault engine holds {held} {asset}, vault collateral sums to {locked.get(asset, 0)}"
                )

    # ------------------------------------------------------------------
    def telemetry_rows(self, world, step: int) -> list[str]:
        marks = _Marks(world, self.issuance_fraction, step)
        step_cell, fee_index = str(step), to_str(self.fee_index)  # the same in every row
        rows = []
        for vault_id in sorted(self.vaults):
            vault = self.vaults[vault_id]
            value, bound = _value_and_bound(vault, marks)
            debt = self.debt_of(vault)
            cells = (str(vault_id), to_str(value), to_str(debt), to_str(bound), str(int(debt <= bound)))
            rows.append(",".join((step_cell, *cells, fee_index)))
        return rows
