"""Exception taxonomy shared by all protocol modules.

SimError covers recoverable transaction failures: every guard that rejects an
operation raises one of these *before* mutating state, so callers (and the
agent harness, which logs them as events) can always continue. Invariant
violations are a separate class because they mean the engine itself is broken
and the run must abort. An overflow aborts the run too: the scenario drove a
value out of what the engine can represent, a walk price out of the float
range or a number too long to render as a decimal string.
"""


class SimError(Exception):
    """A rejected protocol operation; state is unchanged."""


class InvariantViolation(Exception):
    """Internal consistency check failed; the world is corrupt."""


class Overflow(Exception):
    """A value left the representable range: the scenario cannot run that far."""


# ledger
class InsufficientBalance(SimError):
    pass


class UnknownAccount(SimError):
    pass


class UnknownAsset(SimError):
    pass


class Unauthorized(SimError):
    pass


class CheckpointOrderViolation(SimError):
    pass


# oracle
class MissingFeed(SimError):
    pass


class StepBeforeFirstPoint(SimError):
    pass


# lending pool
class InsufficientLiquidity(SimError):
    pass


class InsufficientIOU(SimError):
    pass


class WouldBecomeUndercollateralized(SimError):
    pass


class ExceedsBorrowingPower(SimError):
    pass


class NoDebt(SimError):
    pass


# liquidation
class NotLiquidatable(SimError):
    pass


class ExceedsCloseFactor(SimError):
    pass


class NoSuchCollateral(SimError):
    pass


class SelfLiquidation(SimError):
    pass


# cdp vaults
class WouldBreachIssuanceBound(SimError):
    pass


class ExceedsIssuanceBound(SimError):
    pass


class VaultSafe(SimError):
    pass


class UnknownVault(SimError):
    pass


# venues
class InsufficientInventory(SimError):
    pass


class UnknownVenue(SimError):
    pass


# flash loans
class InsufficientPoolLiquidity(SimError):
    pass
