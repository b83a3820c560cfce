"""The mutable world: ledger + oracle + markets wired together.

A world is mutated by exactly one logical thread. World-level checkpoints wrap
a ledger checkpoint (balances + journal truncation) with deep copies of all
protocol-module state, so a rolled-back transaction leaves the world
bit-identical to before — the mechanism behind atomic flash loans and the
scanner's scratch simulations. Holders of pool/vault references must re-fetch
them after a rollback.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

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


@dataclass
class RewardLedger:
    """Governance-token accrual, tracked outside the asset ledger."""

    accrued: dict[str, int] = field(default_factory=dict)
    dust: int = 0
    distributed: int = 0

    def add(self, account: str, amount: int) -> None:
        if amount:
            self.accrued[account] = self.accrued.get(account, 0) + amount
            self.distributed += amount

    def add_dust(self, amount: int) -> None:
        self.dust += amount


@dataclass
class WorldCheckpoint:
    ledger_cp: int
    pools: dict[str, Pool]
    cdp: CdpEngine | None
    rewards: RewardLedger
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

    def emit(self, **fields) -> None:
        self.events.append(fields)

    # ------------------------------------------------------------------
    def checkpoint(self) -> WorldCheckpoint:
        return WorldCheckpoint(
            ledger_cp=self.ledger.checkpoint(),
            pools=copy.deepcopy(self.pools),
            cdp=copy.deepcopy(self.cdp),
            rewards=copy.deepcopy(self.rewards),
            events_len=len(self.events),
        )

    def rollback(self, cp: WorldCheckpoint) -> None:
        self.ledger.rollback(cp.ledger_cp)  # raises on LIFO violation first
        self.pools = cp.pools
        self.cdp = cp.cdp
        self.rewards = cp.rewards
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
