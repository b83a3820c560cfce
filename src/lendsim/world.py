"""The mutable world: ledger + oracle + markets wired together.

A world is mutated by exactly one logical thread. Its pools and CDP engine are
built on the ledger's undo log, and `emit` records each event there too, so a
world checkpoint is the ledger's: one mark in the log, which every rollback
effect is recorded in (ledger.py). A rolled-back transaction leaves the world
bit-identical to before, bar the write counts (`Ledger.writes`,
`DebtBook.writes`), which count each undone write once more — the mechanism
behind atomic flash loans and the scanner's scratch simulations. Rollback
restores values in place: every pool, vault and dict stays the same object,
so references held across a rollback stay valid. A rollback does not reach
the liquidation risk screen (`World.screen`): the screen files nothing while
a checkpoint is open, and a rollback leaves the undo log's `touched` set as it
is, so every candidate an undone write named is due at the next scan.

Checkpoints do not cover the reward ledger. Rewards are paid only in phase
(3) of a step, before any agent acts, and no checkpoint is open then: every
checkpoint is opened and closed within the agent phase, which Ledger.audit
checks at the end of each step. Nor do they cover account registration, which
nothing does while a checkpoint is open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .cdp import CdpEngine
from .ledger import Ledger
from .liquidation import RiskScreen
from .oracle import PriceOracle
from .pool import Pool

FEE_SINK_ACCOUNT = "fee-sink"
SCANNER_ACCOUNT = "scanner"


@dataclass
class GasConfig:
    asset: str | None
    fee: int


@dataclass
class RewardConfig:
    emission_per_pool: int  # governance tokens minted per pool per step
    supply_split: int  # sigma: fraction of emission to the supply side


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
    """One tranche's payout: per-step shares and the steps owed."""

    writes: int  # write count of the weights when the shares were computed
    shares: list[tuple[str, int]]
    dust: int
    owed: int = 0  # steps paid but not yet added to the totals


class RewardLedger:
    """Governance-token accrual, tracked outside the asset ledger.

    Every tranche is paid as a stream. Its weights change only through writes
    that a count records, a count no rollback lowers: the supply side of a
    pool is weighted by IOU balances (`Ledger.writes` of the IOU), the borrow
    side by scaled principal, `Pool.positions` (`DebtBook.writes`), as
    Compound's borrow index and Aave's scaled debt balance weight a borrower.
    While the count stands still every step pays the same rounded-down
    shares: a step only counts itself, and k owed steps are later added as
    k x share and k x dust, which is exactly what k payments add. Reading
    `accrued`, `dust` or `distributed` settles every stream first, so a
    reader sees the exact per-step totals at any point.
    """

    def __init__(self) -> None:
        self._accrued: dict[str, int] = {}
        self._dust = 0
        self._streams: dict[tuple, _Stream] = {}

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

    def pay_stream(self, key: tuple, writes: int, tranche: int, weights: Callable[[], Iterable[tuple[str, int]]]) -> None:
        """Pay one step of a tranche pro rata to the (account, weight) pairs `weights()` lists.

        The weights are read only when their write count differs from the
        one the stream's shares were computed at; otherwise the step is added
        to the stream's owed count. The tranche of a key is the same at every
        payment.
        """
        stream = self._streams.get(key)
        if stream is None or stream.writes != writes:
            if stream is not None:
                self._settle_stream(stream)
            stream = _Stream(writes, *_pro_rata(tranche, weights()))
            self._streams[key] = stream
        stream.owed += 1

    def _settle_stream(self, stream: _Stream) -> None:
        if stream.owed:
            for account, share in stream.shares:
                self._accrued[account] = self._accrued.get(account, 0) + share * stream.owed
            self._dust += stream.dust * stream.owed
            stream.owed = 0

    def _settle(self) -> None:
        for stream in self._streams.values():
            self._settle_stream(stream)


class World:
    def __init__(
        self,
        ledger: Ledger,
        oracle: PriceOracle,
        pools: dict[str, Pool],
        venues: dict[str, object],
        cdp: CdpEngine | None,
        gas: GasConfig,
    ):
        self.ledger = ledger
        self.oracle = oracle
        self.pools = pools
        self.venues = venues
        self.cdp = cdp
        self.gas = gas
        self.rewards = RewardLedger()
        self.events: list[dict] = []
        # ((borrower, ledger total writes), opportunities) of the last flashloan.scan_arbitrage
        self.last_arbitrage: tuple | None = None
        # which pool accounts and vaults flashloan.scan_liquidations must value; built at the first scan
        self.screen = RiskScreen()

    def emit(self, **fields) -> None:
        self.events.append(fields)
        if self.ledger.undo.depth:
            self.ledger.undo.records.append((self.events.pop, ()))

    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        return self.ledger.checkpoint()

    def rollback(self, cp: int) -> None:
        self.ledger.rollback(cp)

    def commit(self, cp: int) -> None:
        self.ledger.commit(cp)

    # ------------------------------------------------------------------
    def audit(self, step: int) -> None:
        """End-of-step identities: no open checkpoint, each debt book's sum, the vault engine's holdings."""
        self.ledger.audit()
        for asset, pool in self.pools.items():
            pool.positions.check(asset, step)
        if self.cdp is not None:
            self.cdp.debts.check("vaults", step)
            self.cdp.audit(self)

    def charge_gas(self, account: str) -> int:
        if self.gas.asset is None or self.gas.fee == 0:
            return 0
        self.ledger.transfer(account, FEE_SINK_ACCOUNT, self.gas.asset, self.gas.fee, tag="gas")
        return self.gas.fee
