"""Declarative scenario files: parse, validate, and build a runnable world.

A scenario is one JSON document (schema_version 1). All amounts, prices,
rates and fractions are decimal strings so no precision is lost in transit.
Parsing reads each JSON object through its key table, which states every key
once with its reader (its type and bound) and default; a key the table lacks
is a problem naming its path, as under JSON Schema's `additionalProperties:
false`. A venue's `kind`, a feed's `mode` and an agent's `kind` (for its
`params`) choose the table. Validation checks cross-field rules and
references. Both collect *every* violation instead of stopping at the first
and name the field of each; validation separates hard errors from warnings
(e.g. a liquidation bonus large enough that liquidation may not improve health).

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
from .cdp import CDP_AUTHORITY, VAULT_ENGINE_ACCOUNT, CdpEngine
from .fixed import AmountError, WAD, from_str, is_plain, mul_down
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
    fee_gain: int
    liquidation_penalty: int


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
    if type(raw) is str and not is_plain(raw):
        problems.append(f"{where}: not a decimal literal: {raw!r}")
        return 0.0
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


def _within(read: Reader, bound: str, holds: Callable[[Any], bool]) -> Reader:
    """`read`, then the problem `<path>: <bound>` if `holds` is false of a value it read without one."""

    def within(raw: Any, where: str, problems: list[str]) -> Any:
        count = len(problems)
        value = read(raw, where, problems)
        if len(problems) == count and not holds(value):
            problems.append(f"{where}: {bound}")
        return value

    within.bound = bound
    return within


def _mapping(read: Reader) -> Reader:
    """A reader of a JSON object keyed by asset symbol; the bound of `read` holds for each value."""

    def mapping(raw: Any, where: str, problems: list[str]) -> dict:
        return {key: read(value, f"{where}.{key}", problems) for key, value in _obj(raw, where, problems).items()}

    mapping.bound = getattr(read, "bound", None)
    return mapping


_limit = lambda raw, where, problems: _amt(str(raw), where, problems)  # noqa: E731 -- a JSON number reads as its str()
# bounded readers several rows share; WAD is 1 in the wad integers _amt reads
_non_negative = _within(_amt, "must be >= 0", lambda value: value >= 0)
_price = _within(_amt, "price must be > 0", lambda value: value > 0)
_open_fraction = _within(_amt, "must lie in (0, 1)", lambda value: 0 < value < WAD)
_fraction_below_one = _within(_amt, "must lie in [0, 1)", lambda value: 0 <= value < WAD)

# A key table maps each JSON key of an object to (reader, default); the reader checks the key's type and
# bound. The default is the JSON value read, bound included, when the key is absent, or a function of the
# object's context (its index, the horizon) giving it. A key whose default is null may be null, read as
# None; a key whose reader is None keeps its value as written.
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


def _variant(tag: str, default: str, variants: dict[str, tuple[Callable, Table]]):
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
_fee_bps = _within(_int, "must lie in [0, 10000)", lambda bps: 0 <= bps < 10_000)
_QUOTE: Table = {"id": _VENUE_ID, "numeraire": (_str, ""), "quotes": (_mapping(_price), {}),
                 "inventory": (_mapping(_non_negative), {}), "fee_bps": (_fee_bps, 0)}
_AMM: Table = {"id": _VENUE_ID, "fee_bps": (_fee_bps, 30),
               "pair": (_within(_pair_of(_str, _str), "assets must differ", lambda pair: pair[0] != pair[1]), ["", ""]),
               "reserves": (_within(_pair_of(_amt, _amt), "both reserves must be > 0", lambda pair: min(pair) > 0),
                            ["0", "0"])}
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
_WALK: Table = {"seed": (_int, 0), "initial": (_mapping(_price), {}),
                 "drift": (_within(_float, f"must lie in [-{MAX_WALK_RATE}, {MAX_WALK_RATE}]",
                                   lambda rate: abs(rate) <= MAX_WALK_RATE), 0),
                 "volatility": (_within(_float, f"must lie in [0, {MAX_WALK_RATE}]",
                                        lambda rate: 0 <= rate <= MAX_WALK_RATE), 0)}
_FEEDS = _variant("mode", "replay", {  # (mode, CSV path, series, walk); parse_scenario reads the CSV
    "replay": (lambda csv, series: ("replay", csv, series, None), _REPLAY),
    "walk": (lambda **walk: ("walk", None, {}, WalkParams(**walk)), _WALK),
})

_RATE_MODEL: Table = {"base_rate": (_non_negative, "0"), "slope1": (_non_negative, "0"), "slope2": (_non_negative, "0"),
                      "kink": (_open_fraction, "0.8"), "reserve_factor": (_fraction_below_one, "0")}
_POOL: Table = {
    "asset": (_str, ""), "iou_symbol": (_within(_str, "must be non-empty", bool), ""),
    "iou_mode": (_str, EXCHANGE_RATE), "collateral_factor": (_fraction_below_one, "0"),
    "liquidation_threshold": (_amt, "0"), "liquidation_bonus": (_non_negative, "0"),
    "close_factor": (_within(_amt, "must lie in (0, 1]", lambda value: 0 < value <= WAD), "0.5"),
    "flash_fee": (_non_negative, "0.0009"), "initial_cash": (_non_negative, "0"),
    "rate_model": (_object(RateModelParams, _RATE_MODEL), {}),
}

_CDP: Table = {
    "dai_symbol": (_str, "DAI"), "issuance_fractions": (_mapping(_open_fraction), {}),
    "stability_fee": (_non_negative, "0"), "fee_gain": (_amt, "0"),  # the engine floors the fee at 0
    "liquidation_penalty": (_non_negative, "0.13"),
}

_AGENT: Table = {  # _agent reads the params through the table of the kind
    "id": (_str, lambda i, horizon: f"agent{i}"), "kind": (_str, ""), "params": (_obj, {}),
    "endowment": (_mapping(_non_negative), {}),
    "window": (_within(_pair_of(_int, _int), "must satisfy 0 <= start <= end", lambda pair: 0 <= pair[0] <= pair[1]),
               lambda i, horizon: [0, horizon]),
}
# the pool or venue an agent names is kept as written, for validate_scenario to look up;
# a spiral limit left null takes run_*_spiral's own default
_SPIRAL: Table = {"iteration_cap": (_within(_int, "must be >= 0", lambda cap: cap >= 0), None),
                  "min_action": (_within(_limit, "must be > 0", lambda value: value > 0), None),
                  "buffer": (_within(_limit, "must be >= 0", lambda value: value >= 0), None)}
_PARAMS: dict[str, Table] = {
    "depositor": {"pool": (None, None)},
    "borrow_spiral": {"pool": (None, None), **_SPIRAL},
    "leverage_spiral": {"collateral": (None, None), "borrow": (None, None), "venue": (None, None), **_SPIRAL},
    "liquidator": {"use_flashloan": (_bool, True)},
    "arbitrageur": {},
}

_REWARDS: Table = {"emission_per_pool": (_non_negative, "0"),
                   "supply_split": (_within(_amt, "must lie in [0, 1]", lambda value: 0 <= value <= WAD), "0.5")}
_GAS: Table = {"asset": (_str, None), "fee": (_non_negative, "0")}
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
    "horizon": (_within(_int, "must be >= 1", lambda steps: steps >= 1), 1),
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

    A bound on one field is checked as its table row is read. This checks
    cross-field rules, references, and three single-field rules whose problem
    quotes the value (`iou_mode`, asset symbols, agent ids). Each problem names
    its own field.
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

    for i, symbol in enumerate(sc.assets):
        if not isinstance(symbol, str) or not symbol.isupper() or not symbol.isalnum():
            problems.append(f"assets[{i}]: symbol {symbol!r} must be non-empty uppercase alphanumeric")
    if len(assets) != len(sc.assets):
        problems.append("assets: duplicate symbols")

    iou_symbols = set()
    pool_assets = set()
    for i, spec in enumerate(sc.pools):
        where = f"pools[{i}]"
        p = spec.params
        defined(f"{where}.asset", [p.asset])
        if p.asset in pool_assets:
            problems.append(f"{where}.asset: duplicate pool for {p.asset!r}")
        pool_assets.add(p.asset)
        if p.iou_asset in iou_symbols or p.iou_asset in assets:
            problems.append(f"{where}.iou_symbol: {p.iou_asset!r} collides with another symbol")
        iou_symbols.add(p.iou_asset)
        if p.iou_mode not in (EXCHANGE_RATE, REBASING):
            problems.append(f"{where}.iou_mode: unknown iou_mode {p.iou_mode!r}")
        if not p.collateral_factor < p.liquidation_threshold <= WAD:
            problems.append(f"{where}.liquidation_threshold: must lie in (collateral_factor, 1]")
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
            if v.numeraire in v.quotes:
                problems.append(f"{where}.quotes.{v.numeraire}: the numeraire cannot be quoted in itself")
            defined(f"{where}.inventory", [asset for asset, _ in holdings], priced=False)
        else:
            defined(f"{where}.pair", v.pair)

    if sc.cdp is not None:
        defined("cdp.dai_symbol", [sc.cdp.dai_asset])
        defined("cdp.issuance_fractions", sc.cdp.issuance_fraction)

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
        defined("price_feeds.initial", sc.feed_walk.initial, priced=False)

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
        params = a.params
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

    if sc.gas.asset is not None:
        defined("gas.asset", [sc.gas.asset], priced=False)

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
