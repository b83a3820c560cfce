"""Scenario parsing and validation: referential checks, parameter invariants."""

import json
import math
import re
from pathlib import Path

import pytest

from lendsim.agents import AGENT_CLASSES
from lendsim.cli import main
from lendsim.fixed import from_str
from lendsim.scenario import (
    _PARAMS,
    ParseError,
    ValidationError,
    build_world,
    load_scenario,
    parse_scenario,
    validate_scenario,
)

from conftest import KEY_TABLES, make_doc, pool_doc

README = Path(__file__).resolve().parent.parent / "README.md"
TABLE1 = Path(__file__).resolve().parent.parent / "scenarios" / "table1.json"


def check(doc):
    return validate_scenario(parse_scenario(doc))


def base_doc(**kw):
    return make_doc(
        assets=["ETH", "DAI"],
        pools=[
            pool_doc("ETH", "cETH"),
            pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.7", liquidation_threshold="0.8"),
        ],
        prices={"ETH": [[0, "2000"]], "DAI": [[0, "1"]]},
        **kw,
    )


def test_well_formed_doc_passes():
    assert check(base_doc()) == []


def test_unsupported_schema_version():
    doc = base_doc()
    doc["schema_version"] = 99
    with pytest.raises(ParseError):
        parse_scenario(doc)


def test_amounts_must_be_decimal_strings():
    doc = base_doc()
    doc["pools"][0]["initial_cash"] = 100
    with pytest.raises(ParseError, match="decimal strings"):
        parse_scenario(doc)


def test_pool_referencing_undefined_asset():
    doc = base_doc()
    doc["pools"][0]["asset"] = "GHOST"
    with pytest.raises(ValidationError, match="GHOST"):
        check(doc)


def test_threshold_not_above_collateral_factor():
    doc = base_doc()
    doc["pools"][0]["liquidation_threshold"] = "0.7"
    doc["pools"][0]["collateral_factor"] = "0.75"
    with pytest.raises(ValidationError, match="liquidation_threshold"):
        check(doc)


def test_all_violations_reported_not_just_first():
    doc = base_doc()
    doc["pools"][0]["asset"] = "GHOST"
    doc["pools"][1]["liquidation_threshold"] = "0.1"
    doc["agents"] = [{"id": "x", "kind": "alien", "endowment": {}, "params": {}}]
    with pytest.raises(ValidationError) as info:
        check(doc)
    text = "\n".join(info.value.problems)
    assert "GHOST" in text
    assert "liquidation_threshold" in text
    assert "alien" in text
    assert len(info.value.problems) >= 3


def test_missing_feed_for_referenced_asset():
    doc = base_doc()
    del doc["price_feeds"]["series"]["DAI"]
    with pytest.raises(ValidationError, match="no feed"):
        check(doc)


def test_non_increasing_feed_steps():
    doc = base_doc()
    doc["price_feeds"]["series"]["ETH"] = [[0, "2000"], [0, "1900"]]
    with pytest.raises(ValidationError, match="strictly increasing"):
        check(doc)


def test_every_pool_bound_names_its_field():
    doc = base_doc()
    doc["pools"][0] = pool_doc(
        "ETH", "cETH", "bogus",
        collateral_factor="1", liquidation_threshold="1.5", liquidation_bonus="-0.1", close_factor="0",
        flash_fee="-0.01", initial_cash="-1",
        rate_model={"base_rate": "-0.01", "slope2": "-1", "kink": "1", "reserve_factor": "1"},
    )
    with pytest.raises(ParseError) as info:  # each single-field bound is its key's table row
        parse_scenario(doc)
    assert info.value.problems == [
        "pools[0].collateral_factor: must lie in [0, 1)",
        "pools[0].liquidation_bonus: must be >= 0",
        "pools[0].close_factor: must lie in (0, 1]",
        "pools[0].flash_fee: must be >= 0",
        "pools[0].rate_model.base_rate: must be >= 0",
        "pools[0].rate_model.slope2: must be >= 0",
        "pools[0].rate_model.kink: must lie in (0, 1)",
        "pools[0].rate_model.reserve_factor: must lie in [0, 1)",
        "pools[0].initial_cash: must be >= 0",
    ]
    # what validation checks: a value the problem quotes, and a rule across two fields
    doc["pools"][0] = pool_doc("ETH", "cETH", "bogus", collateral_factor="0.5", liquidation_threshold="1.5")
    with pytest.raises(ValidationError) as info:
        check(doc)
    assert info.value.problems == [
        "pools[0].iou_mode: unknown iou_mode 'bogus'",
        "pools[0].liquidation_threshold: must lie in (collateral_factor, 1]",
    ]


def set_path(doc, path, value):
    """Set the field at a problem's path ("pools[0].rate_model.kink"), making absent objects on the way."""
    *parents, last = [int(key) if key.isdigit() else key for key in re.findall(r"\w+", path)]
    for key in parents:
        doc = doc[key] if isinstance(key, int) else doc.setdefault(key, {})
    doc[last] = value


TINY, ABOVE_ONE = "0.000000000000000001", "1.000000000000000001"
# each table row's bound: path in table1 -> (bound, values just past it, values at its closed ends)
ROW_BOUNDS = {
    "pools[0].iou_symbol": ("must be non-empty", [""], []),
    "pools[0].collateral_factor": ("must lie in [0, 1)", ["-" + TINY, "1"], ["0"]),
    "pools[0].liquidation_bonus": ("must be >= 0", ["-" + TINY], ["0"]),
    "pools[0].close_factor": ("must lie in (0, 1]", ["0", ABOVE_ONE], ["1"]),
    "pools[0].flash_fee": ("must be >= 0", ["-" + TINY], ["0"]),
    "pools[0].initial_cash": ("must be >= 0", ["-" + TINY], ["0"]),
    "pools[0].rate_model.base_rate": ("must be >= 0", ["-" + TINY], ["0"]),
    "pools[0].rate_model.slope1": ("must be >= 0", ["-" + TINY], ["0"]),
    "pools[0].rate_model.slope2": ("must be >= 0", ["-" + TINY], ["0"]),
    "pools[0].rate_model.kink": ("must lie in (0, 1)", ["0", "1"], []),
    "pools[0].rate_model.reserve_factor": ("must lie in [0, 1)", ["-" + TINY, "1"], ["0"]),
    "venues[0].fee_bps": ("must lie in [0, 10000)", [-1, 10_000], [0]),  # the AMM
    "venues[0].pair": ("assets must differ", [["DAI", "DAI"]], []),
    "venues[0].reserves": ("both reserves must be > 0", [["0", "1"], ["1", "0"]], []),
    "venues[1].fee_bps": ("must lie in [0, 10000)", [-1, 10_000], [0]),  # the quote venue
    "venues[1].quotes.WETH": ("price must be > 0", ["0"], []),
    "venues[1].inventory.WBTC": ("must be >= 0", ["-" + TINY], ["0"]),
    "cdp.issuance_fractions.WETH": ("must lie in (0, 1)", ["0", "1"], []),
    "cdp.stability_fee": ("must be >= 0", ["-" + TINY], ["0"]),
    "cdp.liquidation_penalty": ("must be >= 0", ["-" + TINY], ["0"]),
    "price_feeds.initial.WETH": ("price must be > 0", ["0"], []),
    "price_feeds.drift": ("must lie in [-1, 1]", [math.nextafter(-1, -2), math.nextafter(1, 2)], [-1, 1]),
    "price_feeds.volatility": ("must lie in [0, 1]", [math.nextafter(0, -1), math.nextafter(1, 2)], [0, "1"]),
    "agents[0].endowment.WETH": ("must be >= 0", ["-" + TINY], ["0"]),
    "agents[0].window": ("must satisfy 0 <= start <= end", [[-1, 0], [1, 0]], [[0, 0]]),
    "agents[2].params.iteration_cap": ("must be >= 0", [-1], [0]),
    "agents[2].params.min_action": ("must be > 0", ["0"], []),
    "agents[2].params.buffer": ("must be >= 0", ["-" + TINY, -1e-18], ["0", 0]),
    "rewards.emission_per_pool": ("must be >= 0", ["-" + TINY], ["0"]),
    "rewards.supply_split": ("must lie in [0, 1]", ["-" + TINY, ABOVE_ONE], ["0", "1"]),
    "gas.fee": ("must be >= 0", ["-" + TINY], ["0"]),
    "horizon": ("must be >= 1", [0], [1]),
}
# a value its reader rejects is reported once, not also against the row's bound
WRONG_TYPES = [
    ("pools[0].close_factor", 0, "amounts must be decimal strings, got int"),
    ("pools[0].initial_cash", "1_000", "not a decimal literal: '1_000'"),
    ("venues[0].reserves", ["0"], "expected a pair, got ['0']"),
    ("venues[1].fee_bps", "30", "expected an integer, got str"),
    ("price_feeds.drift", "0_001", "not a decimal literal: '0_001'"),
    ("price_feeds.volatility", True, "expected a finite float, got True"),
    ("agents[0].window", [-1, 0.5], "expected an integer, got float"),
    ("horizon", "ten", "expected an integer, got str"),
]


@pytest.mark.parametrize(
    "path, value, problem",
    [(path, value, bound) for path, (bound, past, _) in ROW_BOUNDS.items() for value in past] + WRONG_TYPES,
)
def test_a_value_past_its_bound_or_of_the_wrong_type_is_one_problem(path, value, problem):
    doc = json.loads(TABLE1.read_text())
    set_path(doc, path, value)
    with pytest.raises(ParseError) as info:
        parse_scenario(doc)
    assert info.value.problems == [f"{path}: {problem}"]


@pytest.mark.parametrize("path, value", [(path, value) for path, (_, _, ends) in ROW_BOUNDS.items() for value in ends])
def test_a_value_at_a_closed_end_of_its_bound_parses(path, value):
    doc = json.loads(TABLE1.read_text())
    set_path(doc, path, value)
    parse_scenario(doc)


def test_bound_and_unknown_key_problems_come_in_one_parse_error_in_document_order():
    doc = json.loads(TABLE1.read_text())
    doc["rewards"]["supply_splt"] = "0.5"
    doc["pools"][1]["close_factr"] = "0.4"
    doc["pools"][0]["close_factor"] = "0"
    with pytest.raises(ParseError) as info:
        parse_scenario(doc)
    assert info.value.problems == [
        "pools[0].close_factor: must lie in (0, 1]",
        "pools[1].close_factr: unknown key",
        "rewards.supply_splt: unknown key",
    ]


def test_bonus_threshold_product_warns_but_passes():
    doc = base_doc()
    doc["pools"][0]["liquidation_threshold"] = "0.99"
    doc["pools"][0]["liquidation_bonus"] = "0.05"
    warnings = check(doc)
    assert warnings and "improve health" in warnings[0]


def test_duplicate_agent_ids_rejected():
    doc = base_doc()
    doc["agents"] = [
        {"id": "dup", "kind": "depositor", "endowment": {}, "params": {"pool": "ETH"}},
        {"id": "dup", "kind": "depositor", "endowment": {}, "params": {"pool": "ETH"}},
    ]
    with pytest.raises(ValidationError, match="duplicate agent id"):
        check(doc)


def test_reserved_agent_id_rejected():
    doc = base_doc()
    doc["agents"] = [{"id": "scanner", "kind": "depositor", "endowment": {}, "params": {"pool": "ETH"}}]
    with pytest.raises(ValidationError, match="reserved"):
        check(doc)


def test_bad_horizon_and_rewards():
    doc = base_doc()
    doc["horizon"] = 0
    doc["rewards"] = {"emission_per_pool": "1", "supply_split": "1.5"}
    with pytest.raises(ParseError) as info:
        parse_scenario(doc)
    text = "\n".join(info.value.problems)
    assert "horizon" in text and "supply_split" in text


def test_agent_params_must_reference_defined_pools_and_venues():
    doc = base_doc()
    doc["agents"] = [
        {"id": "d", "kind": "depositor", "endowment": {}, "params": {"pool": "GHOST"}},
        {"id": "l", "kind": "leverage_spiral", "endowment": {},
         "params": {"collateral": "ETH", "borrow": "DAI", "venue": "nowhere"}},
    ]
    with pytest.raises(ValidationError) as info:
        check(doc)
    text = "\n".join(info.value.problems)
    assert "params.pool" in text and "params.venue" in text


def test_leverage_spiral_venue_must_trade_borrow_for_collateral():
    doc = make_doc(
        assets=["ETH", "DAI", "BTC"],
        pools=[pool_doc("ETH", "cETH"), pool_doc("DAI", "cDAI"), pool_doc("BTC", "cBTC")],
        prices={"ETH": [[0, "2000"]], "DAI": [[0, "1"]], "BTC": [[0, "50000"]]},
        venues=[
            {"kind": "amm", "id": "eth_amm", "pair": ["ETH", "DAI"], "reserves": ["10", "20000"]},
            {"kind": "amm", "id": "btc_amm", "pair": ["BTC", "DAI"], "reserves": ["1", "50000"]},
            {"kind": "quote", "id": "q1", "numeraire": "DAI", "quotes": {"BTC": "50000"}},
        ],
    )

    def spiral(agent_id, venue, collateral="ETH", borrow="DAI"):
        return {"id": agent_id, "kind": "leverage_spiral", "endowment": {},
                "params": {"collateral": collateral, "borrow": borrow, "venue": venue}}

    doc["agents"] = [
        spiral("ok_amm", "eth_amm"),
        spiral("ok_quote", "q1", collateral="BTC"),
        spiral("ok_quote_sell", "q1", collateral="DAI", borrow="BTC"),
        spiral("other_pair", "btc_amm"),
        spiral("unquoted", "q1"),
        spiral("no_numeraire", "q1", collateral="BTC", borrow="ETH"),
        spiral("same_asset", "eth_amm", collateral="DAI"),
    ]
    with pytest.raises(ValidationError) as info:
        check(doc)
    assert info.value.problems == [
        "agents[3].params.venue: venue 'btc_amm' does not trade DAI for ETH",
        "agents[4].params.venue: venue 'q1' does not trade DAI for ETH",
        "agents[5].params.venue: venue 'q1' does not trade ETH for BTC",
        "agents[6].params.venue: venue 'eth_amm' does not trade DAI for DAI",
    ]


QUOTE = {"kind": "quote", "id": "q", "numeraire": "DAI", "quotes": {"ETH": "2000"}, "inventory": {"ETH": "1", "DAI": "1"}}
AMM = {"kind": "amm", "id": "amm1", "pair": ["ETH", "DAI"], "reserves": ["10", "20000"]}


@pytest.mark.parametrize(
    "venue, problem, error",
    [
        ({**QUOTE, "fee_bps": 10_000}, "venues[0].fee_bps: must lie in [0, 10000)", ParseError),
        ({**AMM, "fee_bps": 10_000}, "venues[0].fee_bps: must lie in [0, 10000)", ParseError),
        ({**QUOTE, "quotes": {"ETH": "0"}}, "venues[0].quotes.ETH: price must be > 0", ParseError),
        ({**QUOTE, "quotes": {"ETH": "2000", "DAI": "1.1"}},
         "venues[0].quotes.DAI: the numeraire cannot be quoted in itself", ValidationError),
        ({**AMM, "pair": ["ETH", "ETH"]}, "venues[0].pair: assets must differ", ParseError),
        ({**AMM, "reserves": ["10", "0"]}, "venues[0].reserves: both reserves must be > 0", ParseError),
        ({**QUOTE, "inventory": {"DAI": "-1"}}, "venues[0].inventory.DAI: must be >= 0", ParseError),
    ],
    ids=["quote_fee_bps", "amm_fee_bps", "quote_zero_price", "quote_own_numeraire", "amm_equal_pair",
         "amm_zero_reserve", "negative_inventory"],
)
def test_each_venue_bound_is_a_validation_error_naming_its_field(venue, problem, error):
    # a bound on one field is a parse problem; the numeraire rule reads two fields
    with pytest.raises(error) as info:
        check(base_doc(venues=[venue]))
    assert info.value.problems == [problem]


def test_amm_with_zero_reserves_rejected():
    doc = base_doc()
    doc["venues"] = [{"kind": "amm", "id": "amm1", "pair": ["ETH", "DAI"], "reserves": ["0", "10"]}]
    with pytest.raises(ParseError, match="reserves"):
        parse_scenario(doc)


def test_gas_asset_must_exist():
    doc = base_doc()
    doc["gas"] = {"asset": "GHOST", "fee": "1"}
    with pytest.raises(ValidationError, match="gas.asset"):
        check(doc)


def test_load_scenario_round_trips_from_disk(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(base_doc()))
    sc = load_scenario(str(path))
    validate_scenario(sc)
    w = build_world(sc)
    assert set(w.pools) == {"ETH", "DAI"}


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(str(path))


def test_csv_feed_reference(tmp_path):
    feed = tmp_path / "feed.csv"
    feed.write_text("step,asset,price\n0,ETH,2000\n0,DAI,1\n")
    doc = base_doc()
    doc["price_feeds"] = {"mode": "replay", "csv": str(feed)}
    assert check(doc) == []
    w = build_world(parse_scenario(doc))
    assert w.oracle.price_at("ETH", 5) == 2000 * 10**18


def test_relative_csv_feed_is_read_beside_the_scenario_file(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "feed.csv").write_text("step,asset,price\n0,ETH,2000\n0,DAI,1\n")
    doc = base_doc()
    doc["price_feeds"] = {"mode": "replay", "csv": "feed.csv"}
    (sub / "sc.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--scenario", "sub/sc.json"]) == 0
    sc = load_scenario("sub/sc.json")
    assert sc.feed_series == {"ETH": [(0, from_str("2000"))], "DAI": [(0, from_str("1"))]}
    # a document parsed from memory has no file: its CSV path is read from the working directory
    with pytest.raises(ParseError, match="price_feeds.csv"):
        parse_scenario(doc)
    monkeypatch.chdir(sub)
    assert parse_scenario(doc).feed_series == sc.feed_series


def test_unknown_keys_are_collected_each_with_its_path():
    doc = base_doc(
        venues=[{"kind": "quote", "id": "q", "numeraire": "DAI", "quotes": {"ETH": "2000"}, "pair": ["ETH", "DAI"]}],
        agents=[{"id": "d", "kind": "depositor", "params": {"pool": "ETH", "iteration_cap": 3}},
                {"id": "k", "kind": "liquidator", "params": {"pool": "ETH"}}],
        rewards={"supply_splt": "0.5"},
    )
    doc["pools"][0]["close_factr"] = "0.5"
    doc["pools"][1]["stable_rate_premium"] = "0.02"
    doc["price_feeds"]["drift"] = "0"
    with pytest.raises(ParseError) as info:
        parse_scenario(doc)
    assert info.value.problems == [  # in the document's key order: make_doc puts rewards last
        "pools[0].close_factr: unknown key",
        "pools[1].stable_rate_premium: unknown key",
        "venues[0].pair: unknown key",
        "price_feeds.drift: unknown key",
        "agents[0].params.iteration_cap: unknown key",
        "agents[1].params.pool: unknown key",
        "rewards.supply_splt: unknown key",
    ]


def test_absent_keys_take_their_table_defaults():
    doc = {
        "schema_version": 1,
        "assets": ["ETH", "DAI"],
        "pools": [{"asset": "ETH", "iou_symbol": "cETH"}],
        "venues": [{"kind": "amm", "pair": ["ETH", "DAI"], "reserves": ["1", "2"]}, {}],
        "price_feeds": {"mode": "walk"},
        "cdp": {},
        "agents": [{"kind": "liquidator"}, {"kind": "borrow_spiral", "params": {"pool": "ETH"}}],
        "horizon": 7,
    }
    sc = parse_scenario(doc)
    pool, model = sc.pools[0].params, sc.pools[0].params.rate_model
    assert (pool.iou_mode, pool.collateral_factor, pool.close_factor, pool.flash_fee, sc.pools[0].initial_cash) == (
        "exchange-rate", 0, from_str("0.5"), from_str("0.0009"), 0)
    assert (model.base_rate, model.kink, model.reserve_factor) == (0, from_str("0.8"), 0)
    (amm, reserves), (quote, inventory) = sc.venues
    assert (amm.venue_id, amm.fee_bps) == ("venue0", 30)
    assert (quote.venue_id, quote.numeraire, quote.quotes, quote.fee_bps, inventory) == ("venue1", "", {}, 0, [])
    assert (sc.feed_mode, sc.feed_series, sc.feed_walk.seed, sc.feed_walk.drift, sc.feed_walk.initial) == (
        "walk", {}, 0, 0.0, {})
    assert (sc.cdp.dai_asset, sc.cdp.stability_fee, sc.cdp.fee_gain, sc.cdp.liquidation_penalty) == (
        "DAI", 0, 0, from_str("0.13"))
    liquidator, spiral = sc.agents
    assert (liquidator.agent_id, liquidator.endowment, liquidator.window) == ("agent0", {}, (0, 7))
    assert liquidator.params == {"use_flashloan": True}
    assert spiral.params == {"pool": "ETH", "iteration_cap": None, "min_action": None, "buffer": None}
    assert (sc.rewards.emission_per_pool, sc.rewards.supply_split) == (0, from_str("0.5"))
    assert (sc.gas.asset, sc.gas.fee, sc.seed, sc.cdp is not None) == (None, 0, 0, True)
    assert parse_scenario({"schema_version": 1}).cdp is None
    # an AMM's pair and reserves are required: their defaults are out of bound
    doc["venues"][0] = {"kind": "amm"}
    with pytest.raises(ParseError) as info:
        parse_scenario(doc)
    assert info.value.problems == [
        "venues[0].pair: assets must differ", "venues[0].reserves: both reserves must be > 0"]


def readme_key_tables() -> dict[str, dict[str, str]]:
    """{heading: {key: its bound column}} for each object in the README's scenario key reference."""
    section = README.read_text().split("### Scenario key reference\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for block in section.split("\n#### ")[1:]:
        heading, _, body = block.partition("\n")
        rows = re.findall(r"^\| `(\w+)` \|.*\|.*\|(.*)\|$", body, re.M)
        tables[heading] = {key: bound.strip() for key, bound in rows}
    return tables


def test_readme_key_reference_names_exactly_the_parsers_keys():
    assert readme_key_tables() == KEY_TABLES
    assert set(_PARAMS) == set(AGENT_CLASSES)  # one params table per agent kind
