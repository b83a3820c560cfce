"""Venue math: quote pricing with fees, constant-product invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendsim import errors
from lendsim.fixed import WAD, from_str, wad
from lendsim.scenario import build_world, parse_scenario
from lendsim.venues import QuoteVenue, amm_in_given_out, amm_out_given_in

from conftest import build, make_doc, user


def venue_world(fee_bps=0, amm_fee_bps=0, reserves=("1000", "1000")):
    doc = make_doc(
        assets=["XYZ", "USD"],
        pools=[],
        venues=[
            {
                "kind": "quote",
                "id": "A",
                "numeraire": "USD",
                "quotes": {"XYZ": "11"},
                "fee_bps": fee_bps,
                "inventory": {"XYZ": "10000", "USD": "1000000"},
            },
            {"kind": "amm", "id": "amm1", "pair": ["XYZ", "USD"], "reserves": list(reserves), "fee_bps": amm_fee_bps},
        ],
        prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]},
    )
    return build(doc)


def test_sell_linear_payoff_no_fee():
    w = venue_world()
    user(w, "alice", XYZ=wad(10))
    out = w.venues["A"].sell(w, "alice", "XYZ", wad(10))
    assert out == wad(110)
    assert w.ledger.balance("alice", "USD") == wad(110)


def test_buy_linear_cost_no_fee():
    w = venue_world()
    doc_price_ten = {
        "kind": "quote", "id": "B", "numeraire": "USD",
        "quotes": {"XYZ": "10"}, "fee_bps": 0, "inventory": {"XYZ": "10000", "USD": "0"},
    }
    w2 = build(make_doc(assets=["XYZ", "USD"], pools=[], venues=[doc_price_ten],
                        prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]}))
    user(w2, "alice", USD=wad(100))
    cost = w2.venues["B"].buy(w2, "alice", "XYZ", wad(10))
    assert cost == wad(100)
    assert w2.ledger.balance("alice", "XYZ") == wad(10)


def test_sell_with_30bps_fee_matches_rational():
    w = venue_world(fee_bps=30)
    user(w, "alice", XYZ=wad(10))
    out = w.venues["A"].sell(w, "alice", "XYZ", wad(10))
    exact = Fraction(10) * 11 * Fraction(9970, 10000)
    assert out == int(exact * WAD)
    assert out == from_str("109.67")


def test_buy_with_fee_rounds_cost_up():
    w = venue_world(fee_bps=30)
    user(w, "alice", USD=wad(1000))
    amount = from_str("7.123456789")
    cost = w.venues["A"].buy(w, "alice", "XYZ", amount)
    exact = Fraction(amount) * 11 * Fraction(10000, 9970)
    assert cost - 1 < exact <= cost


def test_insufficient_inventory_rejected():
    doc = make_doc(
        assets=["XYZ", "USD"],
        pools=[],
        venues=[{
            "kind": "quote", "id": "A", "numeraire": "USD",
            "quotes": {"XYZ": "11"}, "fee_bps": 0, "inventory": {"XYZ": "1", "USD": "5"},
        }],
        prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]},
    )
    w = build(doc)
    user(w, "alice", XYZ=wad(10), USD=wad(100))
    with pytest.raises(errors.InsufficientInventory):
        w.venues["A"].sell(w, "alice", "XYZ", wad(10))  # payout 110 > 5 USD
    with pytest.raises(errors.InsufficientInventory):
        w.venues["A"].buy(w, "alice", "XYZ", wad(2))  # only 1 XYZ held


# ---------------------------------------------------------------------------
# constant product AMM
# ---------------------------------------------------------------------------
def test_amm_swap_example_and_product_restored():
    w = venue_world()
    amm = w.venues["amm1"]
    user(w, "alice", XYZ=wad(100))
    x0, y0 = amm.reserves(w, "XYZ")
    out = amm.swap(w, "alice", "XYZ", wad(100))
    exact = Fraction(wad(1000)) * wad(100) / Fraction(wad(1000) + wad(100))
    assert out == int(exact)  # 90.909090... floored
    x1, y1 = amm.reserves(w, "XYZ")
    assert x1 * y1 >= x0 * y0  # never decreases


def test_amm_zero_input_zero_output():
    w = venue_world()
    user(w, "alice")
    assert w.venues["amm1"].swap(w, "alice", "XYZ", 0) == 0


def test_split_swap_never_beats_combined_beyond_rounding_at_zero_fee():
    for a_units, b_units in [(1, 1), (10, 25), (100, 100), (333, 77), (500, 1)]:
        a, b = wad(a_units), wad(b_units)
        w1, w2 = venue_world(), venue_world()
        user(w1, "alice", XYZ=a + b)
        user(w2, "alice", XYZ=a + b)
        amm1, amm2 = w1.venues["amm1"], w2.venues["amm1"]
        sequential = amm1.swap(w1, "alice", "XYZ", a) + amm1.swap(w1, "alice", "XYZ", b)
        combined = amm2.swap(w2, "alice", "XYZ", a + b)
        assert abs(combined - sequential) <= 2  # equal up to two floor roundings


def test_split_swap_is_weakly_worse_with_fee():
    for a_units, b_units in [(10, 25), (100, 100), (333, 77)]:
        a, b = wad(a_units), wad(b_units)
        w1, w2 = venue_world(amm_fee_bps=30), venue_world(amm_fee_bps=30)
        user(w1, "alice", XYZ=a + b)
        user(w2, "alice", XYZ=a + b)
        sequential = w1.venues["amm1"].swap(w1, "alice", "XYZ", a) + w1.venues["amm1"].swap(w1, "alice", "XYZ", b)
        combined = w2.venues["amm1"].swap(w2, "alice", "XYZ", a + b)
        assert combined >= sequential - 2


@given(
    st.integers(min_value=1, max_value=wad(10_000)),
    st.integers(min_value=wad(1), max_value=wad(10_000_000)),
    st.integers(min_value=wad(1), max_value=wad(10_000_000)),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=200)
def test_amm_product_monotone(amount_in, reserve_x, reserve_y, fee_bps):
    out = amm_out_given_in(reserve_x, reserve_y, amount_in, fee_bps)
    assert out < reserve_y
    assert (reserve_x + amount_in) * (reserve_y - out) >= reserve_x * reserve_y


@given(
    st.integers(min_value=1, max_value=wad(100)),
    st.integers(min_value=wad(200), max_value=wad(10_000)),
    st.integers(min_value=wad(200), max_value=wad(10_000)),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=200)
def test_amm_in_given_out_is_minimal(amount_out, reserve_x, reserve_y, fee_bps):
    need = amm_in_given_out(reserve_x, reserve_y, amount_out, fee_bps)
    assert amm_out_given_in(reserve_x, reserve_y, need, fee_bps) >= amount_out
    assert amm_out_given_in(reserve_x, reserve_y, need - 1, fee_bps) < amount_out


@given(
    st.integers(min_value=0, max_value=wad(10_000_000)),
    st.integers(min_value=1, max_value=wad(100_000)),
    st.integers(min_value=0, max_value=9_999),
)
@settings(max_examples=300)
def test_quote_buy_amount_for_inverts_buy_quote(budget, price, fee_bps):
    venue = QuoteVenue("V", "USD", {"XYZ": price}, fee_bps)
    amount = venue.buy_amount_for("XYZ", budget)
    assert venue.buy_quote("XYZ", amount) <= budget < venue.buy_quote("XYZ", amount + 1)


def test_venue_trades_conserve_assets():
    w = venue_world(fee_bps=30, amm_fee_bps=30)
    user(w, "alice", XYZ=wad(500), USD=wad(5000))
    w.venues["A"].sell(w, "alice", "XYZ", wad(100))
    w.venues["A"].buy(w, "alice", "XYZ", wad(3))
    w.venues["amm1"].swap(w, "alice", "XYZ", wad(40))
    w.venues["amm1"].swap(w, "alice", "USD", wad(100))
    w.ledger.full_audit()


# ---------------------------------------------------------------------------
# the leg interface both venue kinds share
# ---------------------------------------------------------------------------
LEGS = [("A", "XYZ"), ("amm1", "XYZ"), ("amm1", "USD")]  # (venue, asset traded)


def test_markets_name_each_asset_with_its_numeraire():
    w = venue_world()
    assert w.venues["A"].markets() == [("XYZ", "USD")]
    assert w.venues["amm1"].markets() == [("XYZ", "USD"), ("USD", "XYZ")]
    assert w.venues["A"].linear and not w.venues["amm1"].linear


@given(
    st.sampled_from(LEGS),
    st.integers(min_value=1, max_value=wad(200_000)),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_sell_pays_exactly_sell_out(leg, amount, fee_bps):
    w = venue_world(fee_bps=fee_bps, amm_fee_bps=fee_bps)
    venue_id, asset = leg
    venue = w.venues[venue_id]
    numeraire = dict(venue.markets())[asset]
    user(w, "alice", **{asset: amount})
    quoted = venue.sell_out(w, asset, amount)
    max_sell = venue.max_sell(w, asset)
    if max_sell is not None and amount > max_sell:
        with pytest.raises(errors.InsufficientInventory):
            venue.sell(w, "alice", asset, amount)
        return
    assert venue.sell(w, "alice", asset, amount) == quoted
    assert w.ledger.balance("alice", numeraire) == quoted
    assert w.ledger.balance("alice", asset) == 0


@given(
    st.sampled_from(LEGS),
    st.integers(min_value=0, max_value=wad(20_000)),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_buy_charges_exactly_buy_cost(leg, amount, fee_bps):
    w = venue_world(fee_bps=fee_bps, amm_fee_bps=fee_bps)
    venue_id, asset = leg
    venue = w.venues[venue_id]
    numeraire = dict(venue.markets())[asset]
    funds = wad(10**12)
    user(w, "alice", **{numeraire: funds})
    cost = venue.buy_cost(w, asset, amount)
    assert (cost is None) == (amount > venue.max_buy(w, asset))
    if cost is None:
        with pytest.raises(errors.InsufficientInventory):
            venue.buy(w, "alice", asset, amount)
        return
    assert venue.buy(w, "alice", asset, amount) == cost
    assert w.ledger.balance("alice", asset) == amount
    assert w.ledger.balance("alice", numeraire) == funds - cost
    w.ledger.full_audit()


@given(
    st.sampled_from([("A", "USD", "XYZ"), ("A", "XYZ", "USD"), ("amm1", "USD", "XYZ"), ("amm1", "XYZ", "USD")]),
    st.integers(min_value=1, max_value=wad(1_000)),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_convert_spends_its_input_on_the_other_asset(route, amount, fee_bps):
    w = venue_world(fee_bps=fee_bps, amm_fee_bps=fee_bps)
    venue_id, asset_in, asset_out = route
    venue = w.venues[venue_id]
    user(w, "alice", **{asset_in: amount})
    if route[:2] == ("A", "USD"):
        # the most asset_out the budget buys; the change stays with the buyer
        expected = venue.buy_amount_for(asset_out, amount)
        change = amount - venue.buy_quote(asset_out, expected)
    else:
        expected, change = venue.sell_out(w, asset_in, amount), 0
    assert venue.convert(w, "alice", asset_in, asset_out, amount) == expected
    assert w.ledger.balance("alice", asset_out) == expected
    assert w.ledger.balance("alice", asset_in) == change


def test_convert_rejects_an_untraded_route():
    w = venue_world()
    user(w, "alice", XYZ=wad(1))
    with pytest.raises(errors.UnknownAsset):
        w.venues["A"].convert(w, "alice", "XYZ", "XYZ", wad(1))
    with pytest.raises(errors.UnknownAsset):
        w.venues["amm1"].convert(w, "alice", "XYZ", "XYZ", wad(1))


# ---------------------------------------------------------------------------
# the route rule: `converts` says which routes `convert` takes
# ---------------------------------------------------------------------------
ROUTE_ASSETS = ["USD", "XYZ", "ABC", "NOP"]  # numeraire and AMM pair side, quoted, quoted only, untraded


def route_world():
    # the quote venue also quotes its own numeraire, the one route (USD -> USD)
    # its old convert took; validation rejects such a venue, so the world is
    # built unvalidated to hold convert to the route rule there too
    doc = make_doc(
        assets=["XYZ", "ABC", "NOP", "USD"],
        pools=[],
        venues=[
            {"kind": "quote", "id": "A", "numeraire": "USD", "quotes": {"XYZ": "11", "ABC": "3", "USD": "1"},
             "inventory": {"XYZ": "10000", "ABC": "10000", "USD": "1000000"}},
            {"kind": "amm", "id": "amm1", "pair": ["XYZ", "USD"], "reserves": ["1000", "1000"]},
        ],
        prices={"XYZ": [[0, "10"]], "ABC": [[0, "3"]], "USD": [[0, "1"]]},
    )
    return build_world(parse_scenario(doc))


@given(
    st.sampled_from(["A", "amm1"]),
    st.sampled_from(ROUTE_ASSETS),
    st.sampled_from(ROUTE_ASSETS),
    st.integers(min_value=1, max_value=wad(1_000)),
)
@settings(max_examples=200, deadline=None)
def test_convert_rejects_exactly_the_routes_converts_refuses(venue_id, asset_in, asset_out, amount):
    w = route_world()
    venue = w.venues[venue_id]
    user(w, "alice", **{asset_in: amount})
    if venue.converts(asset_in, asset_out):
        received = venue.convert(w, "alice", asset_in, asset_out, amount)
        assert w.ledger.balance("alice", asset_out) == received
    else:
        with pytest.raises(errors.UnknownAsset):
            venue.convert(w, "alice", asset_in, asset_out, amount)
        assert w.ledger.balance("alice", asset_in) == amount
