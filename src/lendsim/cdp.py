"""Collateralized-debt-position engine issuing a soft-pegged stablecoin.

Vaults lock one or more collateral assets with the vault-engine account and
mint stablecoin debt up to a per-asset issuance fraction of collateral value.
The same fraction is the liquidation bound: there is no margin call, and as
soon as debt strictly exceeds the bound anyone may liquidate by repaying debt
(which is burned) in exchange for collateral at a penalty discount.

A per-step stability fee compounds a global fee index, one rule with two
settings: fee = max(0, stability_fee + fee_gain * (1 - p)), with p the
stablecoin's oracle price at the step. A positive gain raises the fee while
the stablecoin trades below its 1 USD target and lowers it above; the floor
at 0 keeps the index from falling. With fee_gain 0 the fee is the constant
stability_fee and the price is not read. Debt issuance treats one stablecoin
as one USD regardless of its market price; the market price only matters to
traders and the fee.

`telemetry_rows` renders every vault's row from one price table per step:
each held collateral asset's price and issuance fraction are read once, and
the value/bound arithmetic is the same helper `_valuation` uses.

Vault debt is a ledger.DebtBook keyed by vault id, against the fee index:
`debts`. The engine's state is written through the world ledger's undo log,
so a world rollback restores it in place (ledger.py); a write to a vault's
collateral names the vault id in the log's `touched` set, as a debt-book
write does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import errors
from .fixed import WAD, mul_down, mul_up, require_amount, to_str
from .ledger import DebtBook, UndoLog
from .liquidation import seize_split

VAULT_ENGINE_ACCOUNT = "vault-engine"
CDP_AUTHORITY = "cdp"

VAULT_TELEMETRY_HEADER = "step,vault_id,collateral_value,debt,bound,safe_flag,fee_index"

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
        fee_gain: int,
        liquidation_penalty: int,
    ):
        self.dai_asset = dai_asset
        self.issuance_fraction = dict(issuance_fraction)
        self.stability_fee = stability_fee
        self.fee_gain = fee_gain  # of either sign
        self.liquidation_penalty = liquidation_penalty
        self.fee_index = WAD
        self.vaults: dict[int, Vault] = {}
        self.debts = DebtBook(undo)  # vault id -> debt / fee_index at its last write
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

    def debt_of(self, vault_id: int) -> int:
        return self.debts.debt_of(vault_id, self.fee_index)

    def _valuation(self, world, vault: Vault, step: int) -> tuple[int, int]:
        """One walk over a vault's collateral: (USD value, issuance bound)."""
        return _value_and_bound(vault, _Marks(world, self.issuance_fraction, step))

    def collateral_value(self, world, vault: Vault, step: int) -> int:
        return self._valuation(world, vault, step)[0]

    def issuance_bound(self, world, vault: Vault, step: int) -> int:
        """Max debt (stablecoin units at the 1 USD target) the vault supports."""
        return self._valuation(world, vault, step)[1]

    def is_unsafe(self, world, vault_id: int, step: int) -> bool:
        return self.debt_of(vault_id) > self.issuance_bound(world, self.vault(vault_id), step)

    # ------------------------------------------------------------------
    def lock(self, world, vault_id: int, asset: str, amount: int) -> None:
        if not require_amount(amount):
            return
        vault = self.vault(vault_id)
        if asset not in self.issuance_fraction:
            raise errors.UnknownAsset(f"{asset} is not accepted vault collateral")
        world.ledger.transfer(vault.owner, VAULT_ENGINE_ACCOUNT, asset, amount, tag="vault-lock")
        self.undo.save_items(vault.collateral, asset)
        self.undo.touched.add(vault_id)
        vault.collateral[asset] = vault.collateral.get(asset, 0) + amount

    def free(self, world, vault_id: int, asset: str, amount: int, step: int) -> None:
        if not require_amount(amount):
            return
        vault = self.vault(vault_id)
        held = vault.collateral.get(asset, 0)
        if amount > held:
            raise errors.InsufficientBalance(f"vault {vault_id} holds {held} {asset}")
        kept = Vault(vault.owner, {**vault.collateral, asset: held - amount})
        if self.debt_of(vault_id) > self.issuance_bound(world, kept, step):
            raise errors.WouldBreachIssuanceBound(f"vault {vault_id}")
        self.undo.save_items(vault.collateral, asset)
        self.undo.touched.add(vault_id)
        vault.collateral[asset] = held - amount
        world.ledger.transfer(VAULT_ENGINE_ACCOUNT, vault.owner, asset, amount, tag="vault-free")

    def draw(self, world, vault_id: int, amount: int, step: int) -> None:
        if not require_amount(amount):
            return
        vault = self.vault(vault_id)
        new_debt = self.debt_of(vault_id) + amount
        if new_debt > self.issuance_bound(world, vault, step):
            raise errors.ExceedsIssuanceBound(
                f"vault {vault_id}: debt {new_debt} > bound {self.issuance_bound(world, vault, step)}"
            )
        self.debts.add(vault_id, amount, self.fee_index)
        world.ledger.mint(vault.owner, self.dai_asset, amount, CDP_AUTHORITY, tag="dai-draw")

    def repay(self, world, vault_id: int, amount: int) -> int:
        if not require_amount(amount):
            return 0
        vault = self.vault(vault_id)
        debt = self.debt_of(vault_id)
        if debt == 0:
            raise errors.NoDebt(f"vault {vault_id}")
        applied = min(amount, debt)
        world.ledger.burn(vault.owner, self.dai_asset, applied, CDP_AUTHORITY, tag="dai-repay")
        self.debts.reduce(vault_id, applied, self.fee_index)
        return applied

    # ------------------------------------------------------------------
    def accrue(self, world, step: int) -> None:
        fee = self.stability_fee
        if self.fee_gain:
            fee = max(0, fee + mul_down(self.fee_gain, WAD - world.oracle.price_at(self.dai_asset, step)))
        self.undo.save_attrs(self, "fee_index")
        self.fee_index = mul_up(self.fee_index, WAD + fee)

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
        if not self.is_unsafe(world, vault_id, step):
            raise errors.VaultSafe(f"vault {vault_id}")
        held = vault.collateral.get(seize_asset, 0)
        if held == 0:
            raise errors.NoSuchCollateral(f"vault {vault_id} holds no {seize_asset}")

        # issuance accounting values the stablecoin at its 1 USD target
        applied, seized = seize_split(
            min(repay_amount, self.debt_of(vault_id)),
            WAD,
            world.oracle.price_at(seize_asset, step),
            WAD + self.liquidation_penalty,
            held,
        )

        world.ledger.burn(liquidator, self.dai_asset, applied, CDP_AUTHORITY, tag="vault-liquidation-repay")
        self.debts.reduce(vault_id, applied, self.fee_index)
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
            debt = self.debt_of(vault_id)
            cells = (str(vault_id), to_str(value), to_str(debt), to_str(bound), str(int(debt <= bound)))
            rows.append(",".join((step_cell, *cells, fee_index)))
        return rows
