"""Shared builders: compact scenario docs and pre-funded test users."""

from __future__ import annotations

import json
from pathlib import Path

from lendsim import scenario
from lendsim.ledger import GENESIS_AUTHORITY
from lendsim.scenario import build_world, parse_scenario, validate_scenario

# every pinned output digest: the golden runs, criterion 11's summary and the benchmark's seed-1
# outputs (which CI reads), so a deliberate byte change re-pins in this one file
DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())


def bounds(table, tag=None) -> dict[str, str]:
    """{key: the bound its reader checks, or ""} of a key table, with the `tag` key (`kind`, `mode`)
    that chose a variant's table; a reader of a map keyed by symbol holds its values' bound."""
    rows = {key: getattr(read, "bound", None) or "" for key, (read, _) in table.items()}
    return rows if tag is None else {tag: "", **rows}


# each scenario object's key table, as bounds() reads it, by the README heading that documents it
KEY_TABLES = {
    "Top level": bounds(scenario._SCENARIO),
    "`pools[]`": bounds(scenario._POOL),
    "`pools[].rate_model`": bounds(scenario._RATE_MODEL),
    "`venues[]` of kind `quote`": bounds(scenario._QUOTE, "kind"),
    "`venues[]` of kind `amm`": bounds(scenario._AMM, "kind"),
    "`price_feeds` of mode `replay`": bounds(scenario._REPLAY, "mode"),
    "`price_feeds` of mode `walk`": bounds(scenario._WALK, "mode"),
    "`cdp`": bounds(scenario._CDP),
    "`agents[]`": bounds(scenario._AGENT),
    **{f"`agents[].params` of kind `{kind}`": bounds(table) for kind, table in scenario._PARAMS.items()},
    "`rewards`": bounds(scenario._REWARDS),
    "`gas`": bounds(scenario._GAS),
}


def pool_doc(asset, iou, mode="exchange-rate", **overrides):
    doc = {
        "asset": asset,
        "iou_symbol": iou,
        "iou_mode": mode,
        "collateral_factor": "0.75",
        "liquidation_threshold": "0.8",
        "liquidation_bonus": "0.05",
        "close_factor": "0.5",
        "flash_fee": "0",
        "rate_model": {
            "base_rate": "0",
            "slope1": "0",
            "slope2": "0",
            "kink": "0.8",
            "reserve_factor": "0",
        },
        "initial_cash": "0",
    }
    model = overrides.pop("rate_model", None)
    if model:
        doc["rate_model"].update(model)
    doc.update(overrides)
    return doc


def make_doc(*, assets, pools, prices, venues=(), agents=(), cdp=None, rewards=None, gas=None, horizon=10, seed=0):
    doc = {
        "schema_version": 1,
        "assets": list(assets),
        "pools": list(pools),
        "venues": list(venues),
        "price_feeds": {"mode": "replay", "series": {a: pts for a, pts in prices.items()}},
        "agents": list(agents),
        "horizon": horizon,
        "seed": seed,
    }
    if cdp is not None:
        doc["cdp"] = cdp
    if rewards is not None:
        doc["rewards"] = rewards
    if gas is not None:
        doc["gas"] = gas
    return doc


def build(doc):
    sc = parse_scenario(doc)
    validate_scenario(sc)
    return build_world(sc)


def user(world, name, **endowment):
    """Register a user account and mint its endowment (raw amounts)."""
    if not world.ledger.has_account(name):
        world.ledger.register_account(name, "user")
    for asset, amount in endowment.items():
        world.ledger.mint(name, asset, amount, GENESIS_AUTHORITY, tag="genesis")
    return name
