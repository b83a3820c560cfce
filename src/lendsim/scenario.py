"""Declarative scenario files: parse, validate, and build a runnable world.

A scenario is one JSON document (schema_version 1). All amounts, prices,
rates and fractions are decimal strings so no precision is lost in transit.
Parsing reads each JSON object through its key table, which states every key
once with its reader (its type) and default; a key the table lacks is a
problem naming its path, as under JSON Schema's `additionalProperties: false`.
A venue's or fee policy's `kind`, a feed's `mode` and an agent's `kind` (for
its `params`) choose the table. Validation is the one home of every bound and
cross-reference: it collects *every* violation instead of stopping at the
first, names the field of each, and separates hard errors from warnings (e.g.
a liquidation bonus large enough that liquidation may not improve health).

Pools are funded at construction through a bootstrap depositor account per
pool ("lp:<asset>"), so initial cash is real deposited liquidity with matching
IOU supply and conservation holds from the genesis journal onwards.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import dataclass, replace
from typing import Any, Callable

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
    endowment: dict[str, int]
    params: dict[str, Any]
    window: tuple[int, int]


@dataclass
class PoolSpec:
    params: PoolParams
    initial_cash: int


@dataclass
class CdpSpec:
    """CdpEngine's constructor arguments, field for field."""

    dai_asset: str
    issuance_fraction: dict[str, int]
    stability_fee: int
    liquidation_penalty: int
    fee_policy: FeePolicy | None


@dataclass
class Scenario:
    assets: list[str]
    pools: list[PoolSpec]
    venues: list[tuple[QuoteVenue | AmmVenue, list[tuple[str, int]]]]  # (venue, genesis holdings)
    feed_mode: str
    feed_series: dict[str, list[tuple[int, int]]]
    feed_walk: WalkParams | None  # set in walk mode
    cdp: CdpSpec | None
    agents: list[AgentSpec]
    rewards: RewardConfig
    gas: GasConfig
    horizon: int
    seed: int


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
# A reader takes (raw JSON value, its path, the problem list) and returns the value read;
# a value of the wrong type is a problem and reads as a zero of its kind.
Reader = Callable[[Any, str, list], Any]

# a document repeats its amounts (an endowment per agent, a pool's parameters): each is read once per parse
_from_str = functools.cache(from_str)


def _amt(raw: Any, where: str, problems: list[str], convert: Callable[[str], int] = _from_str) -> int:
    if not isinstance(raw, str):
        problems.append(f"{where}: amounts must be decimal strings, got {type(raw).__name__}")
        return 0
    try:
        return convert(raw)
    except AmountError as exc:
        problems.append(f"{where}: {exc}")
        return 0


def _float(raw: Any, where: str, problems: list[str]) -> float:
    """A finite JSON number or decimal string, never a boolean."""
    try:
        if not isinstance(raw, bool) and math.isfinite(value := float(raw)):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    problems.append(f"{where}: expected a finite float, got {raw!r}")
    return 0.0


def _typed(kind: type, noun: str, zero: Any) -> Reader:
    """A reader of a JSON value of type `kind` exactly (a bool is no int)."""

    def read(raw: Any, where: str, problems: list[str]) -> Any:
        if type(raw) is kind:
            return raw
        problems.append(f"{where}: expected {noun}, got {type(raw).__name__}")
        return zero

    return read


# the zeros are shared: no reader changes what it reads
_int = _typed(int, "an integer", 0)
_str = _typed(str, "a string", "")
_bool = _typed(bool, "a boolean", False)
_obj = _typed(dict, "an object", {})
_list = _typed(list, "a list", [])


def _pair_of(first: Reader, second: Reader) -> Reader:
    def read(raw: Any, where: str, problems: list[str]) -> tuple:
        if type(raw) is list and len(raw) == 2:
            return first(raw[0], where, problems), second(raw[1], where, problems)
        problems.append(f"{where}: expected a pair, got {raw!r}")
        return None, None

    return read


def _list_of(read: Reader) -> Reader:
    return lambda raw, where, problems: [
        read(item, f"{where}[{i}]", problems) for i, item in enumerate(_list(raw, where, problems))
    ]


def _mapping(read: Reader) -> Reader:
    """A reader of a JSON object keyed by asset symbol."""
    return lambda raw, where, problems: {
        key: read(value, f"{where}.{key}", problems) for key, value in _obj(raw, where, problems).items()
    }


_amounts = _mapping(_amt)
_limit = lambda raw, where, problems: _amt(str(raw), where, problems)  # noqa: E731 -- a JSON number reads as its str()

# A key table maps each JSON key of an object to (reader, default). The default is the JSON value read
# when the key is absent, or a function of the object's context (its index, the horizon) giving it. A key
# whose default is null may be null, read as None; a key whose reader is None keeps its value as written.
Table = dict[str, tuple]


def _fields(raw: Any, where: str, table: Table, problems: list[str], context: tuple = (), tag: str | None = None):
    """Read a JSON object through `table` into {key: value}, visiting only the keys it
    holds; each absent key takes its default. A key the table lacks, bar the `tag`
    that chose the table, is a problem naming its path."""
    prefix = where + "." if where else ""
    fields = {}
    for key, value in (raw if type(raw) is dict else _obj(raw, where, problems)).items():
        entry = table.get(key)
        if entry is None:
            if key != tag:
                problems.append(f"{prefix}{key}: unknown key")
        else:
            read, default = entry
            fields[key] = value if read is None or value is default is None else read(value, prefix + key, problems)
    if len(fields) < len(table):
        for key, (read, default) in table.items():
            if key not in fields:
                value = default(*context) if callable(default) else default
                fields[key] = value if read is None or value is None else read(value, prefix + key, problems)
    return fields


def _object(build: Callable, table: Table) -> Reader:
    return lambda raw, where, problems: build(**_fields(raw, where, table, problems))


def _variant(tag: str, default: str | None, variants: dict[str, tuple[Callable, Table]]):
    """A reader of a JSON object whose `tag` key (`default` when absent) chooses its
    (build, table) from `variants`; an unknown tag is a problem and reads as None."""

    def read(raw: Any, where: str, problems: list[str], context: tuple = ()):
        doc = _obj(raw, where, problems)
        kind = doc.get(tag, default)
        if type(kind) is not str or kind not in variants:
            if doc is raw:  # a non-object is reported already
                problems.append(f"{where}.{tag}: unknown {tag} {kind!r}")
            return None
        build, table = variants[kind]
        return build(**_fields(doc, where, table, problems, context, tag))

    return read


def _agent(raw: Any, where: str, problems: list[str], i: int, horizon: int) -> AgentSpec:
    fields = _fields(raw, where, _AGENT, problems, (i, horizon))
    table = _PARAMS.get(fields["kind"])  # validate_scenario reports an unknown kind, whose params go unread
    params = {} if table is None else _fields(fields["params"], where + ".params", table, problems)
    return AgentSpec(fields["id"], fields["kind"], fields["endowment"], params, fields["window"])


_VENUE_ID = (_str, lambda i: f"venue{i}")
_QUOTE: Table = {"id": _VENUE_ID, "numeraire": (_str, ""), "quotes": (_amounts, {}), "inventory": (_amounts, {}),
                 "fee_bps": (_int, 0)}
_AMM: Table = {"id": _VENUE_ID, "pair": (_pair_of(_str, _str), ["", ""]),
               "reserves": (_pair_of(_amt, _amt), ["0", "0"]), "fee_bps": (_int, 30)}
_VENUE = _variant("kind", "quote", {  # (venue, genesis holdings)
    "quote": (lambda id, numeraire, quotes, inventory, fee_bps: (
        QuoteVenue(id, numeraire, quotes, fee_bps), list(inventory.items())), _QUOTE),
    "amm": (lambda id, pair, reserves, fee_bps: (AmmVenue(id, pair, fee_bps), list(zip(pair, reserves))), _AMM),
})

_POINT = _pair_of(_int, lambda raw, where, problems: _amt(raw, where, problems, from_str))  # prices seldom repeat
_REPLAY: Table = {
    "csv": (_str, None),  # a path relative to the scenario file's directory
    # [[step, price], ...] by asset; a problem names the series, not the point, as series run long
    "series": (_mapping(lambda raw, where, problems: [
        _POINT(point, where, problems) for point in _list(raw, where, problems)]), {}),
}
_WALK: Table = {"seed": (_int, 0), "drift": (_float, 0), "volatility": (_float, 0), "initial": (_amounts, {})}
_FEEDS = _variant("mode", "replay", {  # (mode, CSV path, series, walk); parse_scenario reads the CSV
    "replay": (lambda csv, series: ("replay", csv, series, None), _REPLAY),
    "walk": (lambda **walk: ("walk", None, {}, WalkParams(**walk)), _WALK),
})

_RATE_MODEL: Table = {"base_rate": (_amt, "0"), "slope1": (_amt, "0"), "slope2": (_amt, "0"), "kink": (_amt, "0.8"),
                      "reserve_factor": (_amt, "0")}
_POOL: Table = {
    "asset": (_str, ""), "iou_symbol": (_str, ""), "iou_mode": (_str, EXCHANGE_RATE),
    "collateral_factor": (_amt, "0"), "liquidation_threshold": (_amt, "0"), "liquidation_bonus": (_amt, "0"),
    "close_factor": (_amt, "0.5"), "flash_fee": (_amt, "0.0009"), "initial_cash": (_amt, "0"),
    "rate_model": (_object(RateModelParams, _RATE_MODEL), {}),
}

_CONSTANT_FEE: Table = {"fee": (_amt, "0")}
_PROPORTIONAL_FEE: Table = {"base": (_amt, "0"), "gain": (_amt, "0")}
_CDP: Table = {
    "dai_symbol": (_str, "DAI"), "issuance_fractions": (_amounts, {}),
    "stability_fee": (_amt, "0"), "liquidation_penalty": (_amt, "0.13"),
    "fee_policy": (_variant("kind", None, {
        "constant": (constant_fee, _CONSTANT_FEE), "proportional": (proportional_fee, _PROPORTIONAL_FEE)}), None),
}

_AGENT: Table = {  # _agent reads the params through the table of the kind
    "id": (_str, lambda i, horizon: f"agent{i}"), "kind": (_str, ""), "endowment": (_amounts, {}), "params": (_obj, {}),
    "window": (_pair_of(_int, _int), lambda i, horizon: [0, horizon]),
}
# the pool or venue an agent names is kept as written, for validate_scenario to look up;
# a spiral limit left null takes run_*_spiral's own default
_SPIRAL: Table = {"iteration_cap": (_int, None), "min_action": (_limit, None), "buffer": (_limit, None)}
_PARAMS: dict[str, Table] = {
    "depositor": {"pool": (None, None)},
    "borrow_spiral": {"pool": (None, None), **_SPIRAL},
    "leverage_spiral": {"collateral": (None, None), "borrow": (None, None), "venue": (None, None), **_SPIRAL},
    "liquidator": {"use_flashloan": (_bool, True)},
    "arbitrageur": {},
}

_REWARDS: Table = {"emission_per_pool": (_amt, "0"), "supply_split": (_amt, "0.5")}
_GAS: Table = {"asset": (_str, None), "fee": (_amt, "0")}
_SCENARIO: Table = {
    "schema_version": (_int, SCHEMA_VERSION),  # checked before the rest is read
    "assets": (_list_of(_str), []),
    "pools": (_list_of(_object(lambda iou_symbol, initial_cash, **params: PoolSpec(
        PoolParams(iou_asset=iou_symbol, **params), initial_cash), _POOL)), []),
    "venues": (_list, []),  # read by parse_scenario, each with its index
    "price_feeds": (_FEEDS, {}),
    "cdp": (_object(lambda dai_symbol, issuance_fractions, **fees: CdpSpec(
        dai_symbol, issuance_fractions, **fees), _CDP), None),
    "agents": (_list, []),  # read by parse_scenario, each with its index and the horizon
    "rewards": (_object(RewardConfig, _REWARDS), {}),
    "gas": (_object(GasConfig, _GAS), {}),
    "horizon": (_int, 1),
    "seed": (_int, 0),
}


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parse_scenario(doc, base_path=path)


def parse_scenario(doc: dict, base_path: str | None = None) -> Scenario:
    """Read a scenario document; a relative `price_feeds.csv` is found beside the file `base_path`."""
    problems: list[str] = []
    _from_str.cache_clear()  # so the cache holds one document's amounts at most
    if not isinstance(doc, dict):
        raise ParseError("scenario root must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    top = _fields(doc, "", _SCENARIO, problems)
    del top["schema_version"]
    top["venues"] = [_VENUE(v, f"venues[{i}]", problems, (i,)) for i, v in enumerate(top["venues"])]
    top["agents"] = [_agent(a, f"agents[{i}]", problems, i, top["horizon"]) for i, a in enumerate(top["agents"])]
    feed_mode, csv, feed_series, feed_walk = top.pop("price_feeds") or (None, None, {}, None)
    if csv is not None:
        csv_problems: list[str] = []
        try:  # the inline series overrides the file's, asset by asset
            csv = os.path.join(os.path.dirname(base_path or ""), csv)
            feed_series = {**oracle_mod.load_feed_csv(csv, csv_problems), **feed_series}
        except (OSError, ValueError) as exc:  # unreadable, or not text
            csv_problems.append(str(exc))
        problems += [f"price_feeds.csv: {problem}" for problem in csv_problems]
    if problems:
        # in the document's key order, though venues, agents and the feed file were read last
        order = {key: i for i, key in enumerate(doc)}
        problems.sort(key=lambda problem: order.get(re.match(r"[^.\[:]*", problem)[0], len(order)))
        raise ParseError(f"{base_path or '<memory>'}: " + "; ".join(problems), problems)
    return Scenario(**top, feed_mode=feed_mode, feed_series=feed_series, feed_walk=feed_walk)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def _names(value: Any, names: set[str]) -> bool:
    """Whether a param names a member of `names`; only a string can (a list is unhashable)."""
    return isinstance(value, str) and value in names


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
        for name in ("base_rate", "slope1", "slope2"):
            at_least(f"{where}.rate_model.{name}", getattr(model, name))
        if not 0 < model.kink < WAD:
            problems.append(f"{where}.rate_model.kink: must lie in (0, 1)")
        if not 0 <= model.reserve_factor < WAD:
            problems.append(f"{where}.rate_model.reserve_factor: must lie in [0, 1)")
        at_least(f"{where}.initial_cash", spec.initial_cash)
        if mul_down(p.liquidation_threshold, WAD + p.liquidation_bonus) >= WAD:
            warnings.append(f"{where}: liquidation_threshold*(1+bonus) >= 1: liquidation may not improve health")

    venues: dict[str, QuoteVenue | AmmVenue] = {}
    for i, (v, holdings) in enumerate(sc.venues):
        where = f"venues[{i}]"
        if v.venue_id in venues:
            problems.append(f"{where}.id: duplicate venue id {v.venue_id!r}")
        venues.setdefault(v.venue_id, v)
        if isinstance(v, QuoteVenue):
            defined(f"{where}.numeraire", [v.numeraire])
            defined(f"{where}.quotes", v.quotes)
            for asset, price in v.quotes.items():
                if price <= 0:
                    problems.append(f"{where}.quotes.{asset}: price must be > 0")
                if asset == v.numeraire:
                    problems.append(f"{where}.quotes.{asset}: the numeraire cannot be quoted in itself")
            defined(f"{where}.inventory", [asset for asset, _ in holdings], priced=False)
            for asset, amount in holdings:
                at_least(f"{where}.inventory.{asset}", amount)
        else:
            defined(f"{where}.pair", v.pair)
            if v.pair[0] == v.pair[1]:
                problems.append(f"{where}.pair: assets must differ")
            if min(amount for _, amount in holdings) <= 0:
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
            elif _names(borrow, pool_assets) and _names(collateral, pool_assets) and not venues[venue_id].converts(
                borrow, collateral
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
    for venue, holdings in sc.venues:  # venues keep no state outside the ledger, so worlds share them
        lg.register_account(venue.account, "venue")
        for asset, amount in holdings:
            lg.mint(venue.account, asset, amount, GENESIS_AUTHORITY, tag="genesis")
        venues[venue.venue_id] = venue

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
