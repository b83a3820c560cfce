"""The mutable world: ledger + oracle + markets wired together.

A world is mutated by exactly one logical thread. Its pools and CDP engine are
built on the ledger's undo log, so a write to their protocol state while a
checkpoint is open (pool scalars, borrow positions, collateral flags, the fee
index, vaults and their collateral) records the value it overwrites, as a
balance write does. A world checkpoint is a ledger checkpoint plus the length
of the event list; rollback undoes the log and truncates the journal and the
events, so a rolled-back transaction leaves the world bit-identical to before
— the mechanism behind atomic flash loans and the scanner's scratch
simulations. Its cost follows the writes made since the checkpoint, not the
size of the world. Rollback restores values in place: every pool, position,
vault and dict stays the same object, so references held across a rollback
stay valid.

Checkpoints do not cover the reward ledger. Rewards are paid only in phase
(3) of a step, before any agent acts, and no checkpoint is open then: every
checkpoint is opened and closed within the agent phase, which Ledger.audit
checks at the end of each step. Nor do they cover account registration or
`Pool.paused`, which nothing writes while a checkpoint is open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cdp import CdpEngine
from .ledger import Ledger
from .oracle import PriceOracle
from .pool import Pool

FEE_SINK_ACCOUNT = "fee-sink"
SCANNER_ACCOUNT = "scanner"


@dataclass
class GasConfig:
    asset: str | None = None
    fee: int = 0


@dataclass
class RewardConfig:
    emission_per_pool: int = 0  # governance tokens minted per pool per step
    supply_split: int = 0  # sigma: fraction of emission to the supply side


def _pro_rata(tranche: int, weights: Iterable[tuple[str, int]]) -> tuple[list[tuple[str, int]], int]:
    """Split a tranche by weight, each share rounded down: (nonzero shares, dust)."""
    weights = list(weights)
    total = sum(w for _, w in weights)
    if not total:
        return [], tranche
    shares = []
    paid = 0
    for account, weight in weights:
        share = tranche * weight // total
        if share:
            shares.append((account, share))
            paid += share
    return shares, tranche - paid


@dataclass
class _Stream:
    """One pool's supply-side payout: per-step shares and the steps owed."""

    writes: int  # Ledger.writes of the IOU when the shares were computed
    shares: list[tuple[str, int]]
    dust: int
    owed: int = 0  # steps paid but not yet added to the totals


class RewardLedger:
    """Governance-token accrual, tracked outside the asset ledger.

    The supply side of a pool is paid as a stream. Its weights are IOU
    balances, which change only through ledger writes of that IOU, so while
    the IOU's write count stands still every step pays the same rounded-down
    shares: a step only counts itself, and k owed steps are later added as
    k x share and k x dust, which is exactly what k payments add. Reading
    `accrued`, `dust` or `distributed` settles every stream first, so a
    reader sees the exact per-step totals at any point.
    """

    def __init__(self) -> None:
        self._accrued: dict[str, int] = {}
        self._dust = 0
        self._streams: dict[str, _Stream] = {}

    @property
    def accrued(self) -> dict[str, int]:
        self._settle()
        return self._accrued

    @property
    def dust(self) -> int:
        self._settle()
        return self._dust

    @property
    def distributed(self) -> int:
        return sum(self.accrued.values())

    def pay(self, tranche: int, weights: Iterable[tuple[str, int]]) -> None:
        """Pay one step of a tranche pro rata to (account, weight) pairs."""
        self._credit(*_pro_rata(tranche, weights), 1)

    def pay_holders(self, ledger: Ledger, asset: str, tranche: int) -> None:
        """Pay one step of a tranche pro rata to the holders of `asset`.

        The holders are read only when the asset was written since the last
        payment; otherwise the step is added to the stream's owed count. The
        tranche of an asset is the same at every payment.
        """
        writes = ledger.writes(asset)
        stream = self._streams.get(asset)
        if stream is None or stream.writes != writes:
            if stream is not None:
                self._settle_stream(stream)
            stream = _Stream(writes, *_pro_rata(tranche, ledger.iter_holders(asset)))
            self._streams[asset] = stream
        stream.owed += 1

    def _credit(self, shares: list[tuple[str, int]], dust: int, steps: int) -> None:
        for account, share in shares:
            self._accrued[account] = self._accrued.get(account, 0) + share * steps
        self._dust += dust * steps

    def _settle_stream(self, stream: _Stream) -> None:
        if stream.owed:
            self._credit(stream.shares, stream.dust, stream.owed)
            stream.owed = 0

    def _settle(self) -> None:
        for stream in self._streams.values():
            self._settle_stream(stream)


@dataclass
class WorldCheckpoint:
    ledger_cp: int
    events_len: int


class World:
    def __init__(
        self,
        ledger: Ledger,
        oracle: PriceOracle,
        pools: dict[str, Pool],
        venues: dict[str, object],
        cdp: CdpEngine | None = None,
        gas: GasConfig | None = None,
    ):
        self.ledger = ledger
        self.oracle = oracle
        self.pools = pools
        self.venues = venues
        self.cdp = cdp
        self.gas = gas or GasConfig()
        self.rewards = RewardLedger()
        self.events: list[dict] = []
        # ((borrower, ledger total writes), opportunities) of the last flashloan.scan_arbitrage
        self.last_arbitrage: tuple | None = None

    def emit(self, **fields) -> None:
        self.events.append(fields)

    # ------------------------------------------------------------------
    def checkpoint(self) -> WorldCheckpoint:
        return WorldCheckpoint(ledger_cp=self.ledger.checkpoint(), events_len=len(self.events))

    def rollback(self, cp: WorldCheckpoint) -> None:
        self.ledger.rollback(cp.ledger_cp)  # raises on LIFO violation first
        del self.events[cp.events_len :]

    def commit(self, cp: WorldCheckpoint) -> None:
        self.ledger.commit(cp.ledger_cp)

    # ------------------------------------------------------------------
    def audit(self) -> None:
        self.ledger.audit()
        if self.cdp is not None:
            self.cdp.audit(self)

    def charge_gas(self, account: str) -> int:
        if self.gas.asset is None or self.gas.fee == 0:
            return 0
        self.ledger.transfer(account, FEE_SINK_ACCOUNT, self.gas.asset, self.gas.fee, tag="gas")
        return self.gas.fee
