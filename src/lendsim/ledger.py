"""Journaled balance ledger: the single mutation substrate for every module.

Balances live in nested dicts keyed asset -> account, next to each asset's
net minted supply (mints minus burns). The per-step audit() is O(1) and fails
while a checkpoint is still open, i.e. a transaction neither committed nor
rolled back. full_audit(), run at the end of a simulation, recomputes every
asset's balance sum, which must equal net minted supply exactly, and rejects
negative balances.

Checkpoints are strictly LIFO and copy nothing. While one is open, every
write first records the value it overwrites in the ledger's undo log: each
balance entry and net-minted entry here, and the protocol state of the pools
and the CDP engine built on the same log (see world.py). A checkpoint keeps
only the log and journal lengths; rollback undoes the log back to its length,
newest record first, and truncates the journal, so it costs O(writes since the
checkpoint) and a reverted transaction leaves no trace beyond whatever the
caller appends afterwards (e.g. the gas-fee record of a failed flash loan).
An entry the transaction created is deleted again, not left at zero. Commit
keeps the records for an enclosing checkpoint. Each asset also counts its
writes, and rollback counts each write it undoes once more, so the count never
returns to a value read while those writes stood: equal counts read at any two
points prove the asset's balances unchanged, and a cache of something derived
from them (the supply-side reward shares, the last arbitrage scan) stays valid.

Mint/burn authority is a static per-asset whitelist fixed at world
construction; the "genesis" authority funds initial endowments.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, NamedTuple

from . import errors
from .fixed import require_amount

GENESIS_AUTHORITY = "genesis"

ACCOUNT_KINDS = ("user", "pool", "vault-engine", "venue", "fee-sink")


class JournalRecord(NamedTuple):
    seq: int
    op: str  # transfer | mint | burn
    frm: str | None
    to: str | None
    asset: str
    amount: int
    tag: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "op": self.op,
                "from": self.frm,
                "to": self.to,
                "asset": self.asset,
                "amount": self.amount,
                "tag": self.tag,
            },
            separators=(",", ":"),
        )


def _reinsert(table: dict, index: int, key, value) -> None:
    """Put a deleted key back at its old position in the dict's order."""
    items = list(table.items())
    items.insert(index, (key, value))
    table.clear()
    table.update(items)


class UndoLog:
    """Previous values of state overwritten while a checkpoint is open.

    Each record is a (restore, args) pair; `restore(*args)` puts one value
    back. With no checkpoint open (depth 0) the helpers record nothing.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.depth = 0  # open checkpoints

    def save_attrs(self, obj, *names: str) -> None:
        """Record obj's current values of the named attributes, before they are overwritten."""
        if self.depth:
            for name in names:
                self.records.append((setattr, (obj, name, getattr(obj, name))))

    def save_items(self, table: dict, *keys) -> None:
        """Record each key's value in table, or its absence, before it is set.

        A key may repeat (a transfer to oneself): restoring it twice is harmless.
        """
        if self.depth:
            for key in keys:
                if key in table:
                    self.records.append((dict.__setitem__, (table, key, table[key])))
                else:
                    self.records.append((dict.pop, (table, key, None)))

    def del_item(self, table: dict, key) -> None:
        """del table[key], recording its value and its place in the dict's order."""
        if self.depth:
            self.records.append((_reinsert, (table, list(table).index(key), key, table[key])))
        del table[key]

    def undo_to(self, mark: int) -> None:
        """Undo every record past `mark`, newest first."""
        records = self.records
        while len(records) > mark:
            restore, args = records.pop()
            restore(*args)


class Ledger:
    def __init__(self) -> None:
        self._accounts: dict[str, str] = {}  # id -> kind
        self._balances: dict[str, dict[str, int]] = {}  # asset -> account -> raw
        self._mint_auth: dict[str, frozenset[str]] = {}
        self._minted: dict[str, int] = {}  # net minted per asset
        # writes per asset; a rollback counts each write it undoes once more
        self._writes: dict[str, int] = {}
        self.journal: list[JournalRecord] = []
        # shared with the world's pools and CDP engine, so one rollback undoes them all
        self.undo = UndoLog()
        # open checkpoints: (id, journal_len, undo log length)
        self._checkpoints: list[tuple[int, int, int]] = []
        self._cp_counter = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_account(self, account: str, kind: str = "user") -> str:
        if not account:
            raise ValueError("account id must be non-empty")
        if kind not in ACCOUNT_KINDS:
            raise ValueError(f"unknown account kind {kind!r}")
        if account in self._accounts:
            raise ValueError(f"duplicate account {account!r}")
        self._accounts[account] = kind
        return account

    def register_asset(self, symbol: str, mint_authorities: Iterable[str] = ()) -> str:
        if not symbol:
            raise ValueError("asset symbol must be non-empty")
        if symbol in self._balances:
            raise ValueError(f"duplicate asset {symbol!r}")
        self._balances[symbol] = {}
        self._mint_auth[symbol] = frozenset(mint_authorities) | {GENESIS_AUTHORITY}
        self._minted[symbol] = 0
        self._writes[symbol] = 0
        return symbol

    def has_account(self, account: str) -> bool:
        return account in self._accounts

    def accounts(self) -> list[str]:
        return list(self._accounts)

    def assets(self) -> list[str]:
        return list(self._balances)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def balance(self, account: str, asset: str) -> int:
        if account not in self._accounts:
            raise errors.UnknownAccount(account)
        try:
            return self._balances[asset].get(account, 0)
        except KeyError:
            raise errors.UnknownAsset(asset) from None

    def supply(self, asset: str) -> int:
        """Net minted supply (mints minus burns) of an asset."""
        try:
            return self._minted[asset]
        except KeyError:
            raise errors.UnknownAsset(asset) from None

    def writes(self, asset: str) -> int:
        """Transfers, mints and burns of an asset so far, plus the ones rolled back.

        Equal counts at two points mean the asset's balances did not change
        between them.
        """
        try:
            return self._writes[asset]
        except KeyError:
            raise errors.UnknownAsset(asset) from None

    def total_writes(self) -> int:
        """writes() summed over every asset: equal totals mean no balance changed."""
        return sum(self._writes.values())

    def balance_table(self, asset: str) -> dict[str, int]:
        """The asset's live account -> balance table, for a pass over many accounts; read it only."""
        try:
            return self._balances[asset]
        except KeyError:
            raise errors.UnknownAsset(asset) from None

    def holders(self, asset: str) -> list[tuple[str, int]]:
        """(account, balance) pairs with positive balance, sorted by account."""
        return sorted(self.iter_holders(asset))

    def iter_holders(self, asset: str):
        """Unsorted variant for hot paths whose results are order-independent."""
        try:
            table = self._balances[asset]
        except KeyError:
            raise errors.UnknownAsset(asset) from None
        return ((a, b) for a, b in table.items() if b > 0)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _check_parties(self, asset: str, *accounts: str) -> dict[str, int]:
        try:
            table = self._balances[asset]
        except KeyError:
            raise errors.UnknownAsset(asset) from None
        for account in accounts:
            if account not in self._accounts:
                raise errors.UnknownAccount(account)
        return table

    def _record(self, op: str, frm: str | None, to: str | None, asset: str, amount: int, tag: str) -> None:
        self.journal.append(JournalRecord(len(self.journal), op, frm, to, asset, amount, tag))
        self._writes[asset] += 1

    def transfer(self, frm: str, to: str, asset: str, amount: int, tag: str = "transfer") -> None:
        require_amount(amount)
        table = self._check_parties(asset, frm, to)
        if table.get(frm, 0) < amount:
            raise errors.InsufficientBalance(f"{frm} holds {table.get(frm, 0)} {asset}, needs {amount}")
        if self.undo.depth:  # a write pays only this check while no checkpoint is open
            self.undo.save_items(table, frm, to)
        table[frm] = table.get(frm, 0) - amount
        table[to] = table.get(to, 0) + amount
        self._record("transfer", frm, to, asset, amount, tag)

    def mint(self, to: str, asset: str, amount: int, authority: str, tag: str = "mint") -> None:
        require_amount(amount)
        table = self._check_parties(asset, to)
        if authority not in self._mint_auth[asset]:
            raise errors.Unauthorized(f"{authority!r} may not mint {asset}")
        if self.undo.depth:
            self.undo.save_items(table, to)
            self.undo.save_items(self._minted, asset)
        table[to] = table.get(to, 0) + amount
        self._minted[asset] += amount
        self._record("mint", None, to, asset, amount, tag)

    def burn(self, frm: str, asset: str, amount: int, authority: str, tag: str = "burn") -> None:
        require_amount(amount)
        table = self._check_parties(asset, frm)
        if authority not in self._mint_auth[asset]:
            raise errors.Unauthorized(f"{authority!r} may not burn {asset}")
        if table.get(frm, 0) < amount:
            raise errors.InsufficientBalance(f"{frm} holds {table.get(frm, 0)} {asset}, needs {amount}")
        if self.undo.depth:
            self.undo.save_items(table, frm)
            self.undo.save_items(self._minted, asset)
        table[frm] = table.get(frm, 0) - amount
        self._minted[asset] -= amount
        self._record("burn", frm, None, asset, amount, tag)

    # ------------------------------------------------------------------
    # checkpoints (strict LIFO)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        self._cp_counter += 1
        self._checkpoints.append((self._cp_counter, len(self.journal), len(self.undo.records)))
        self.undo.depth = len(self._checkpoints)
        return self._cp_counter

    def _pop_checkpoint(self, cp: int) -> tuple[int, int, int]:
        if not self._checkpoints:
            raise errors.CheckpointOrderViolation(f"no open checkpoint for id {cp}")
        if self._checkpoints[-1][0] != cp:
            raise errors.CheckpointOrderViolation(
                f"checkpoint {cp} is not the most recent open checkpoint"
            )
        popped = self._checkpoints.pop()
        self.undo.depth = len(self._checkpoints)
        return popped

    def rollback(self, cp: int) -> None:
        _, journal_len, undo_len = self._pop_checkpoint(cp)
        self.undo.undo_to(undo_len)
        for record in self.journal[journal_len:]:
            self._writes[record.asset] += 1
        del self.journal[journal_len:]

    def commit(self, cp: int) -> None:
        self._pop_checkpoint(cp)
        if not self._checkpoints:  # no enclosing checkpoint needs the records
            self.undo.records.clear()

    def open_checkpoints(self) -> int:
        return len(self._checkpoints)

    # ------------------------------------------------------------------
    # audits and export
    # ------------------------------------------------------------------
    def audit(self) -> None:
        """O(1) per-step check: every checkpoint has been committed or rolled back."""
        if self._checkpoints:
            raise errors.InvariantViolation(
                f"{len(self._checkpoints)} ledger checkpoint(s) still open at the end of a step"
            )

    def full_audit(self) -> None:
        """Recompute every per-asset balance sum and compare it with net minted supply."""
        for asset, table in self._balances.items():
            fresh = sum(table.values())
            if fresh != self._minted[asset]:
                raise errors.InvariantViolation(
                    f"conservation broken for {asset}: recomputed {fresh}, net minted {self._minted[asset]}"
                )
            for account, bal in table.items():
                if bal < 0:
                    raise errors.InvariantViolation(f"negative balance {bal} for {account}/{asset}")

    def export_journal(self, fp: IO[str]) -> int:
        for record in self.journal:
            fp.write(record.to_json())
            fp.write("\n")
        return len(self.journal)

    @staticmethod
    def replay_balances(records: Iterable[JournalRecord]) -> dict[str, dict[str, int]]:
        """Re-derive balances from a journal alone (authority checks skipped)."""
        balances: dict[str, dict[str, int]] = {}
        for rec in records:
            table = balances.setdefault(rec.asset, {})
            if rec.op == "transfer":
                table[rec.frm] = table.get(rec.frm, 0) - rec.amount
                table[rec.to] = table.get(rec.to, 0) + rec.amount
            elif rec.op == "mint":
                table[rec.to] = table.get(rec.to, 0) + rec.amount
            elif rec.op == "burn":
                table[rec.frm] = table.get(rec.frm, 0) - rec.amount
            else:
                raise ValueError(f"unknown journal op {rec.op!r}")
        return balances
