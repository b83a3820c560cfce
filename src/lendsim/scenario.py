"""Declarative scenario files: parse, validate, and build a runnable world.

A scenario is one JSON document (schema_version 1). All amounts, prices,
rates and fractions are decimal strings so no precision is lost in transit.
Parsing checks only that each field has its type and reads it into raw units
once. Validation is the one home of every bound and cross-reference: it
collects *every* violation instead of stopping at the first, names the field
of each, and separates hard errors from warnings (e.g. a liquidation bonus
large enough that liquidation may not improve health).

Pools are funded at construction through a bootstrap depositor account per
pool ("lp:<asset>"), so initial cash is real deposited liquidity with matching
IOU supply and conservation holds from the genesis journal onwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

from . import oracle as oracle_mod
from .agents import AGENT_CLASSES
from .cdp import CDP_AUTHORITY, VAULT_ENGINE_ACCOUNT, CdpEngine, FeePolicy, constant_fee, proportional_fee
from .fixed import AmountError, WAD, from_str, mul_down
from .ledger import GENESIS_AUTHORITY, Ledger
from .oracle import PriceOracle, WalkParams
from .pool import EXCHANGE_RATE, REBASING, Pool, PoolParams, RateModelParams
from .venues import AmmVenue, QuoteVenue
from .world import FEE_SINK_ACCOUNT, GasConfig, RewardConfig, SCANNER_ACCOUNT, World

SCHEMA_VERSION = 1

# bound on |drift| and volatility, per-step log rates of a walk feed: one
# step's factor exp(drift + volatility * z) then stays far inside float range
MAX_WALK_RATE = 1


class ParseError(Exception):
    """An unreadable document, or the field problems collected while reading one."""

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = problems or []


class ValidationError(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class AgentSpec:
    agent_id: str
    kind: str
    endowment: dict[str, int] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)
    window: tuple[int, int] = (0, 2**62)


@dataclass
class PoolSpec:
    params: PoolParams
    initial_cash: int = 0


@dataclass
class CdpSpec:
    """CdpEngine's constructor arguments, field for field."""

    dai_asset: str
    issuance_fraction: dict[str, int]
    stability_fee: int
    liquidation_penalty: int
    fee_policy: FeePolicy | None = None


@dataclass
class VenueSpec:
    kind: str  # quote | amm
    venue_id: str
    numeraire: str = ""
    quotes: dict[str, int] = field(default_factory=dict)
    pair: tuple[str, str] = ("", "")
    reserves: tuple[int, int] = (0, 0)
    inventory: dict[str, int] = field(default_factory=dict)
    fee_bps: int = 30


@dataclass
class Scenario:
    assets: list[str]
    pools: list[PoolSpec]
    venues: list[VenueSpec]
    feed_mode: str
    feed_series: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    feed_walk: WalkParams | None = None  # set in walk mode
    cdp: CdpSpec | None = None
    agents: list[AgentSpec] = field(default_factory=list)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    gas: GasConfig = field(default_factory=GasConfig)
    horizon: int = 1
    seed: int = 0


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
def _amt(raw: Any, where: str, problems: list[str]) -> int:
    if not isinstance(raw, str):
        problems.append(f"{where}: amounts must be decimal strings, got {type(raw).__name__}")
        return 0
    try:
        value = from_str(raw)
    except AmountError as exc:
        problems.append(f"{where}: {exc}")
        return 0
    return value


def _num(raw: Any, cast: type, where: str, problems: list[str]):
    """An int field takes a JSON integer, a float field a finite number or decimal string;
    anything else (a boolean included) is a problem and reads as 0."""
    if cast is int or isinstance(raw, bool):
        value = raw if type(raw) is int else None  # a bool is an int subclass, not a JSON integer
    else:
        try:
            value = float(raw)
        except (TypeError, ValueError, OverflowError):
            value = None
    if value is None or (cast is float and not math.isfinite(value)):
        problems.append(f"{where}: expected a finite {cast.__name__}, got {raw!r}")
        return cast(0)
    return value


def _str(raw: Any, where: str, problems: list[str]) -> str:
    """A JSON string field; anything else is a problem and reads as ""."""
    if isinstance(raw, str):
        return raw
    problems.append(f"{where}: expected a string, got {type(raw).__name__}")
    return ""


def _obj(raw: Any, where: str, problems: list[str]) -> dict:
    """A JSON object field; anything else is a problem and reads as {}."""
    if isinstance(raw, dict):
        return raw
    problems.append(f"{where}: expected an object, got {type(raw).__name__}")
    return {}


def _list(raw: Any, where: str, problems: list[str]) -> list:
    """A JSON array field; anything else is a problem and reads as []."""
    if isinstance(raw, (list, tuple)):
        return list(raw)
    problems.append(f"{where}: expected a list, got {type(raw).__name__}")
    return []


def _pair(raw: Any, where: str, problems: list[str]) -> list | None:
    """A two-element JSON array; anything else is a problem and reads as None."""
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return list(raw)
    problems.append(f"{where}: expected a pair, got {raw!r}")
    return None


def _int_pair(raw: Any, where: str, problems: list[str]) -> tuple[int, int]:
    """A two-element JSON array of integers; anything else is a problem and reads as (0, 0)."""
    if isinstance(raw, (list, tuple)) and len(raw) == 2 and type(raw[0]) is int and type(raw[1]) is int:
        return raw[0], raw[1]
    problems.append(f"{where}: expected a pair of integers, got {raw!r}")
    return 0, 0


def _amounts(raw: Any, where: str, problems: list[str]) -> dict[str, int]:
    """A JSON object of decimal-string amounts keyed by symbol."""
    return {key: _amt(value, f"{where}.{key}", problems) for key, value in _obj(raw, where, problems).items()}


def _fee_policy(raw: Any, problems: list[str]) -> FeePolicy | None:
    """cdp.fee_policy: null, {"kind": "constant", "fee"} or {"kind": "proportional", "base", "gain"}."""
    if raw is None:
        return None
    doc = _obj(raw, "cdp.fee_policy", problems)
    kind = doc.get("kind")
    if kind == "constant":
        return constant_fee(_amt(doc.get("fee", "0"), "cdp.fee_policy.fee", problems))
    if kind == "proportional":
        base = _amt(doc.get("base", "0"), "cdp.fee_policy.base", problems)
        return proportional_fee(base, _amt(doc.get("gain", "0"), "cdp.fee_policy.gain", problems))
    if isinstance(raw, dict):
        problems.append(f"cdp.fee_policy.kind: unknown fee policy kind {kind!r}")
    return None


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parse_scenario(doc, base_path=path)


def parse_scenario(doc: dict, base_path: str = "<memory>") -> Scenario:
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ParseError("scenario root must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")

    assets = [_str(a, f"assets[{i}]", problems) for i, a in enumerate(_list(doc.get("assets", []), "assets", problems))]
    horizon = _num(doc.get("horizon", 1), int, "horizon", problems)
    seed = _num(doc.get("seed", 0), int, "seed", problems)

    pools = []
    for i, p in enumerate(_list(doc.get("pools", []), "pools", problems)):
        where = f"pools[{i}]"
        p = _obj(p, where, problems)
        model = _obj(p.get("rate_model", {}), f"{where}.rate_model", problems)
        rate_model = RateModelParams(
            base_rate=_amt(model.get("base_rate", "0"), f"{where}.rate_model.base_rate", problems),
            slope1=_amt(model.get("slope1", "0"), f"{where}.rate_model.slope1", problems),
            slope2=_amt(model.get("slope2", "0"), f"{where}.rate_model.slope2", problems),
            kink=_amt(model.get("kink", "0.8"), f"{where}.rate_model.kink", problems),
            reserve_factor=_amt(model.get("reserve_factor", "0"), f"{where}.rate_model.reserve_factor", problems),
        )
        params = PoolParams(
            asset=_str(p.get("asset", ""), f"{where}.asset", problems),
            iou_asset=_str(p.get("iou_symbol", ""), f"{where}.iou_symbol", problems),
            iou_mode=_str(p.get("iou_mode", EXCHANGE_RATE), f"{where}.iou_mode", problems),
            collateral_factor=_amt(p.get("collateral_factor", "0"), f"{where}.collateral_factor", problems),
            liquidation_threshold=_amt(p.get("liquidation_threshold", "0"), f"{where}.liquidation_threshold", problems),
            liquidation_bonus=_amt(p.get("liquidation_bonus", "0"), f"{where}.liquidation_bonus", problems),
            close_factor=_amt(p.get("close_factor", "0.5"), f"{where}.close_factor", problems),
            rate_model=rate_model,
            flash_fee=_amt(p.get("flash_fee", "0.0009"), f"{where}.flash_fee", problems),
            stable_rate_premium=_amt(p.get("stable_rate_premium", "0"), f"{where}.stable_rate_premium", problems),
        )
        pools.append(PoolSpec(params=params, initial_cash=_amt(p.get("initial_cash", "0"), f"{where}.initial_cash", problems)))

    venues = []
    for i, v in enumerate(_list(doc.get("venues", []), "venues", problems)):
        where = f"venues[{i}]"
        v = _obj(v, where, problems)
        kind = _str(v.get("kind", "quote"), f"{where}.kind", problems)
        if kind == "quote":
            venues.append(
                VenueSpec(
                    kind="quote",
                    venue_id=str(v.get("id", f"venue{i}")),
                    numeraire=_str(v.get("numeraire", ""), f"{where}.numeraire", problems),
                    quotes=_amounts(v.get("quotes", {}), f"{where}.quotes", problems),
                    inventory=_amounts(v.get("inventory", {}), f"{where}.inventory", problems),
                    fee_bps=_num(v.get("fee_bps", 0), int, f"{where}.fee_bps", problems),
                )
            )
        elif kind == "amm":
            pair = _pair(v.get("pair", ["", ""]), f"{where}.pair", problems) or ["", ""]
            reserves = _pair(v.get("reserves", ["0", "0"]), f"{where}.reserves", problems) or ["0", "0"]
            venues.append(
                VenueSpec(
                    kind="amm",
                    venue_id=str(v.get("id", f"venue{i}")),
                    pair=(_str(pair[0], f"{where}.pair[0]", problems), _str(pair[1], f"{where}.pair[1]", problems)),
                    reserves=(
                        _amt(reserves[0], f"{where}.reserves[0]", problems),
                        _amt(reserves[1], f"{where}.reserves[1]", problems),
                    ),
                    fee_bps=_num(v.get("fee_bps", 30), int, f"{where}.fee_bps", problems),
                )
            )
        else:
            problems.append(f"{where}.kind: unknown venue kind {kind!r}")

    feeds = _obj(doc.get("price_feeds", {}), "price_feeds", problems)
    feed_mode = _str(feeds.get("mode", "replay"), "price_feeds.mode", problems)
    feed_series: dict[str, list[tuple[int, int]]] = {}
    feed_walk = None
    if feed_mode == "replay":
        if "csv" in feeds:
            try:
                feed_series = oracle_mod.load_feed_csv(_str(feeds["csv"], "price_feeds.csv", problems))
            except (OSError, TypeError, ValueError) as exc:
                problems.append(f"price_feeds.csv: {exc}")
        for asset, points in _obj(feeds.get("series", {}), "price_feeds.series", problems).items():
            where = f"price_feeds.series.{asset}"
            pairs = [_pair(point, where, problems) or [0, "0"] for point in _list(points, where, problems)]
            feed_series[asset] = [(_num(s, int, where, problems), _amt(p, where, problems)) for s, p in pairs]
    elif feed_mode == "walk":
        feed_walk = WalkParams(
            seed=_num(feeds.get("seed", 0), int, "price_feeds.seed", problems),
            drift=_num(feeds.get("drift", 0.0), float, "price_feeds.drift", problems),
            volatility=_num(feeds.get("volatility", 0.0), float, "price_feeds.volatility", problems),
            initial=_amounts(feeds.get("initial", {}), "price_feeds.initial", problems),
        )
    else:
        problems.append(f"price_feeds.mode: unknown mode {feed_mode!r}")

    cdp_spec = None
    if "cdp" in doc:
        c = _obj(doc["cdp"], "cdp", problems)
        cdp_spec = CdpSpec(
            dai_asset=_str(c.get("dai_symbol", "DAI"), "cdp.dai_symbol", problems),
            issuance_fraction=_amounts(c.get("issuance_fractions", {}), "cdp.issuance_fractions", problems),
            stability_fee=_amt(c.get("stability_fee", "0"), "cdp.stability_fee", problems),
            liquidation_penalty=_amt(c.get("liquidation_penalty", "0.13"), "cdp.liquidation_penalty", problems),
            fee_policy=_fee_policy(c.get("fee_policy"), problems),
        )

    agents = []
    for i, a in enumerate(_list(doc.get("agents", []), "agents", problems)):
        where = f"agents[{i}]"
        a = _obj(a, where, problems)
        params = dict(_obj(a.get("params", {}), f"{where}.params", problems))
        # spiral limits in raw units; a JSON number is read through its str()
        for key in ("min_action", "buffer"):
            if params.get(key) is not None:
                params[key] = _amt(str(params[key]), f"{where}.params.{key}", problems)
        if params.get("iteration_cap") is not None:
            params["iteration_cap"] = _num(params["iteration_cap"], int, f"{where}.params.iteration_cap", problems)
        if not isinstance(params.get("use_flashloan", True), bool):
            problems.append(f"{where}.params.use_flashloan: expected a boolean, got {params['use_flashloan']!r}")
        agents.append(
            AgentSpec(
                agent_id=str(a.get("id", f"agent{i}")),
                kind=_str(a.get("kind", ""), f"{where}.kind", problems),
                endowment=_amounts(a.get("endowment", {}), f"{where}.endowment", problems),
                params=params,
                window=_int_pair(a.get("window", (0, horizon)), f"{where}.window", problems),
            )
        )

    rewards_doc = _obj(doc.get("rewards", {}), "rewards", problems)
    rewards = RewardConfig(
        emission_per_pool=_amt(rewards_doc.get("emission_per_pool", "0"), "rewards.emission_per_pool", problems),
        supply_split=_amt(rewards_doc.get("supply_split", "0.5"), "rewards.supply_split", problems),
    )

    gas_doc = _obj(doc.get("gas", {}), "gas", problems)
    gas = GasConfig(
        asset=None if gas_doc.get("asset") is None else _str(gas_doc["asset"], "gas.asset", problems),
        fee=_amt(gas_doc.get("fee", "0"), "gas.fee", problems) if gas_doc else 0,
    )

    if problems:
        raise ParseError(f"{base_path}: " + "; ".join(problems), problems)

    return Scenario(
        assets=assets,
        pools=pools,
        venues=venues,
        feed_mode=feed_mode,
        feed_series=feed_series,
        feed_walk=feed_walk,
        cdp=cdp_spec,
        agents=agents,
        rewards=rewards,
        gas=gas,
        horizon=horizon,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def _names(value: Any, names: set[str]) -> bool:
    """Whether a param names a member of `names`; only a string can (a list is unhashable)."""
    return isinstance(value, str) and value in names


def _converts(venue: VenueSpec, asset_in: str, asset_out: str) -> bool:
    """Whether the venue's `convert` turns asset_in into asset_out.

    An AMM converts within its pair; a quote venue between its numeraire and
    one of its quoted assets, either way.
    """
    if asset_in == asset_out:
        return False
    if venue.kind == "amm":
        return asset_in in venue.pair and asset_out in venue.pair
    if asset_in == venue.numeraire:
        return asset_out in venue.quotes
    return asset_out == venue.numeraire and asset_in in venue.quotes


def validate_scenario(sc: Scenario) -> list[str]:
    """Return warnings; raise ValidationError with every hard violation.

    This is the one home of every bound and cross-reference, and each problem
    names its own field.
    """
    problems: list[str] = []
    warnings: list[str] = []
    assets = set(sc.assets)
    referenced: set[str] = set()  # assets that must have a price feed

    def defined(where: str, symbols, priced: bool = True) -> None:
        for symbol in symbols:
            if symbol not in assets:
                problems.append(f"{where}: undefined asset {symbol!r}")
        if priced:
            referenced.update(symbols)

    def at_least(where: str, value: int, low: int = 0) -> None:
        if value < low:
            problems.append(f"{where}: must be >= {low}")

    for i, symbol in enumerate(sc.assets):
        if not isinstance(symbol, str) or not symbol.isupper() or not symbol.isalnum():
            problems.append(f"assets[{i}]: symbol {symbol!r} must be non-empty uppercase alphanumeric")
    if len(assets) != len(sc.assets):
        problems.append("assets: duplicate symbols")

    iou_symbols = set()
    pool_assets = set()
    for i, spec in enumerate(sc.pools):
        where = f"pools[{i}]"
        p, model = spec.params, spec.params.rate_model
        defined(f"{where}.asset", [p.asset])
        if p.asset in pool_assets:
            problems.append(f"{where}.asset: duplicate pool for {p.asset!r}")
        pool_assets.add(p.asset)
        if not p.iou_asset:
            problems.append(f"{where}.iou_symbol: must be non-empty")
        if p.iou_asset in iou_symbols or p.iou_asset in assets:
            problems.append(f"{where}.iou_symbol: {p.iou_asset!r} collides with another symbol")
        iou_symbols.add(p.iou_asset)
        if p.iou_mode not in (EXCHANGE_RATE, REBASING):
            problems.append(f"{where}.iou_mode: unknown iou_mode {p.iou_mode!r}")
        if not 0 <= p.collateral_factor < WAD:
            problems.append(f"{where}.collateral_factor: must lie in [0, 1)")
        if not p.collateral_factor < p.liquidation_threshold <= WAD:
            problems.append(f"{where}.liquidation_threshold: must lie in (collateral_factor, 1]")
        at_least(f"{where}.liquidation_bonus", p.liquidation_bonus)
        if not 0 < p.close_factor <= WAD:
            problems.append(f"{where}.close_factor: must lie in (0, 1]")
        at_least(f"{where}.flash_fee", p.flash_fee)
        at_least(f"{where}.stable_rate_premium", p.stable_rate_premium)
        for name in ("base_rate", "slope1", "slope2"):
            at_least(f"{where}.rate_model.{name}", getattr(model, name))
        if not 0 < model.kink < WAD:
            problems.append(f"{where}.rate_model.kink: must lie in (0, 1)")
        if not 0 <= model.reserve_factor < WAD:
            problems.append(f"{where}.rate_model.reserve_factor: must lie in [0, 1)")
        at_least(f"{where}.initial_cash", spec.initial_cash)
        if mul_down(p.liquidation_threshold, WAD + p.liquidation_bonus) >= WAD:
            warnings.append(f"{where}: liquidation_threshold*(1+bonus) >= 1: liquidation may not improve health")

    venues: dict[str, VenueSpec] = {}
    for i, v in enumerate(sc.venues):
        where = f"venues[{i}]"
        if v.venue_id in venues:
            problems.append(f"{where}.id: duplicate venue id {v.venue_id!r}")
        venues.setdefault(v.venue_id, v)
        if v.kind == "quote":
            defined(f"{where}.numeraire", [v.numeraire])
            defined(f"{where}.quotes", v.quotes)
            for asset, price in v.quotes.items():
                if price <= 0:
                    problems.append(f"{where}.quotes.{asset}: price must be > 0")
            defined(f"{where}.inventory", v.inventory, priced=False)
            for asset, amount in v.inventory.items():
                at_least(f"{where}.inventory.{asset}", amount)
        else:
            defined(f"{where}.pair", v.pair)
            if v.pair[0] == v.pair[1]:
                problems.append(f"{where}.pair: assets must differ")
            if min(v.reserves) <= 0:
                problems.append(f"{where}.reserves: both reserves must be > 0")
        if not 0 <= v.fee_bps < 10_000:
            problems.append(f"{where}.fee_bps: must lie in [0, 10000)")

    if sc.cdp is not None:
        defined("cdp.dai_symbol", [sc.cdp.dai_asset])
        defined("cdp.issuance_fractions", sc.cdp.issuance_fraction)
        for asset, theta in sc.cdp.issuance_fraction.items():
            if not 0 < theta < WAD:
                problems.append(f"cdp.issuance_fractions.{asset}: must lie in (0, 1)")
        at_least("cdp.stability_fee", sc.cdp.stability_fee)
        at_least("cdp.liquidation_penalty", sc.cdp.liquidation_penalty)
        if sc.cdp.fee_policy is not None:
            # only a constant policy can return a negative fee; the proportional one floors at 0
            at_least("cdp.fee_policy.fee", sc.cdp.fee_policy(WAD))

    fed_assets = set(sc.feed_series) if sc.feed_walk is None else set(sc.feed_walk.initial)
    for asset in sorted(referenced):
        if asset in assets and asset not in fed_assets:
            problems.append(f"price_feeds: no feed for referenced asset {asset!r}")
    defined("price_feeds.series", sc.feed_series, priced=False)
    for asset, points in sc.feed_series.items():
        if not points or points[0][0] != 0:
            problems.append(f"price_feeds.series.{asset}: must start with a point at step 0")
        last = -1
        for step, price in points:
            if step <= last:
                problems.append(f"price_feeds.series.{asset}: steps must be strictly increasing")
                break
            last = step
            if price <= 0:
                problems.append(f"price_feeds.series.{asset}: price at step {step} must be > 0")
                break

    if sc.feed_walk is not None:
        walk = sc.feed_walk
        defined("price_feeds.initial", walk.initial, priced=False)
        for asset, price in walk.initial.items():
            if price <= 0:
                problems.append(f"price_feeds.initial.{asset}: price must be > 0")
        if abs(walk.drift) > MAX_WALK_RATE:
            problems.append(f"price_feeds.drift: must lie in [-{MAX_WALK_RATE}, {MAX_WALK_RATE}]")
        if not 0 <= walk.volatility <= MAX_WALK_RATE:
            problems.append(f"price_feeds.volatility: must lie in [0, {MAX_WALK_RATE}]")

    reserved = {FEE_SINK_ACCOUNT, SCANNER_ACCOUNT, VAULT_ENGINE_ACCOUNT}
    seen_agents = set()
    for i, a in enumerate(sc.agents):
        where = f"agents[{i}]"
        if a.kind not in AGENT_CLASSES:
            problems.append(f"{where}.kind: unknown agent kind {a.kind!r}")
        if not a.agent_id or a.agent_id in reserved or ":" in a.agent_id:
            problems.append(f"{where}.id: {a.agent_id!r} is reserved or invalid")
        if a.agent_id in seen_agents:
            problems.append(f"{where}.id: duplicate agent id {a.agent_id!r}")
        seen_agents.add(a.agent_id)
        defined(f"{where}.endowment", a.endowment, priced=False)
        for asset, amount in a.endowment.items():
            at_least(f"{where}.endowment.{asset}", amount)
        if a.window[0] < 0 or a.window[1] < a.window[0]:
            problems.append(f"{where}.window: must satisfy 0 <= start <= end")
        params = a.params
        if params.get("min_action") is not None and params["min_action"] <= 0:
            problems.append(f"{where}.params.min_action: must be > 0")
        for key in ("buffer", "iteration_cap"):
            if params.get(key) is not None:
                at_least(f"{where}.params.{key}", params[key])
        if a.kind in ("depositor", "borrow_spiral"):
            if not _names(params.get("pool"), pool_assets):
                problems.append(f"{where}.params.pool: no pool for {params.get('pool')!r}")
        elif a.kind == "leverage_spiral":
            for key in ("collateral", "borrow"):
                if not _names(params.get(key), pool_assets):
                    problems.append(f"{where}.params.{key}: no pool for {params.get(key)!r}")
            venue_id, borrow, collateral = params.get("venue"), params.get("borrow"), params.get("collateral")
            if not _names(venue_id, venues):
                problems.append(f"{where}.params.venue: unknown venue {venue_id!r}")
            elif _names(borrow, pool_assets) and _names(collateral, pool_assets) and not _converts(
                venues[venue_id], borrow, collateral
            ):
                problems.append(f"{where}.params.venue: venue {venue_id!r} does not trade {borrow} for {collateral}")

    if not 0 <= sc.rewards.supply_split <= WAD:
        problems.append("rewards.supply_split: must lie in [0, 1]")
    at_least("rewards.emission_per_pool", sc.rewards.emission_per_pool)
    if sc.gas.asset is not None:
        defined("gas.asset", [sc.gas.asset], priced=False)
    at_least("gas.fee", sc.gas.fee)
    at_least("horizon", sc.horizon, 1)

    if problems:
        raise ValidationError(problems)
    return warnings


# ---------------------------------------------------------------------------
# world construction
# ---------------------------------------------------------------------------
def build_world(sc: Scenario, seed_override: int | None = None) -> World:
    lg = Ledger()
    for asset in sc.assets:
        authorities = []
        if sc.cdp is not None and asset == sc.cdp.dai_asset:
            authorities.append(CDP_AUTHORITY)
        lg.register_asset(asset, authorities)

    lg.register_account(FEE_SINK_ACCOUNT, "fee-sink")
    lg.register_account(SCANNER_ACCOUNT, "user")
    lg.register_account(VAULT_ENGINE_ACCOUNT, "vault-engine")

    walk = sc.feed_walk
    if walk is not None and seed_override is not None:
        walk = replace(walk, seed=seed_override)
    price_oracle = PriceOracle(mode=sc.feed_mode, series=sc.feed_series, walk=walk)

    pools: dict[str, Pool] = {}
    for spec in sc.pools:
        p = Pool(spec.params, lg.undo)
        lg.register_account(p.account, "pool")
        lg.register_asset(spec.params.iou_asset, [p.account])
        pools[spec.params.asset] = p

    venues: dict[str, object] = {}
    for v in sc.venues:
        if v.kind == "quote":
            venue, holdings = QuoteVenue(v.venue_id, v.numeraire, dict(v.quotes), v.fee_bps), v.inventory.items()
        else:
            venue, holdings = AmmVenue(v.venue_id, v.pair, v.fee_bps), zip(v.pair, v.reserves)
        lg.register_account(venue.account, "venue")
        for asset, amount in holdings:
            lg.mint(venue.account, asset, amount, GENESIS_AUTHORITY, tag="genesis")
        venues[v.venue_id] = venue

    engine = None if sc.cdp is None else CdpEngine(lg.undo, **vars(sc.cdp))

    world = World(lg, price_oracle, pools, venues, cdp=engine, gas=sc.gas)

    for a in sc.agents:
        lg.register_account(a.agent_id, "user")
        for asset, amount in a.endowment.items():
            lg.mint(a.agent_id, asset, amount, GENESIS_AUTHORITY, tag="genesis")

    # bootstrap pool liquidity through a per-pool depositor so IOU supply and
    # cash stay consistent
    for spec in sc.pools:
        if spec.initial_cash:
            lp_account = lg.register_account(f"lp:{spec.params.asset}", "user")
            lg.mint(lp_account, spec.params.asset, spec.initial_cash, GENESIS_AUTHORITY, tag="genesis")
            pools[spec.params.asset].deposit(world, lp_account, spec.initial_cash)

    return world
