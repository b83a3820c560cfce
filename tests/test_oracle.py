"""Price feed semantics: hold-last replay, deterministic walks, USD valuation."""

from fractions import Fraction

import pytest

from lendsim import errors
from lendsim.fixed import WAD, from_str, wad
from lendsim.oracle import PriceOracle, WalkParams, load_feed_csv


def replay_oracle():
    return PriceOracle(mode="replay", series={"ETH": [(0, wad(2000)), (5, wad(1800))]})


def test_replay_holds_last_point():
    assert replay_oracle().price_at("ETH", 3) == wad(2000)


def test_replay_exact_step_match():
    assert replay_oracle().price_at("ETH", 5) == wad(1800)
    assert replay_oracle().price_at("ETH", 100) == wad(1800)


def test_replay_before_first_point():
    feed = PriceOracle(mode="replay", series={"ETH": [(3, wad(2000))]})
    with pytest.raises(errors.StepBeforeFirstPoint):
        feed.price_at("ETH", 2)


def test_missing_feed():
    with pytest.raises(errors.MissingFeed):
        replay_oracle().price_at("BTC", 0)


def walk_oracle(seed=7):
    return PriceOracle(
        mode="walk",
        walk=WalkParams(seed=seed, drift=0.0001, volatility=0.02, initial={"ETH": wad(2000), "BTC": wad(50000)}),
    )


def test_walk_is_deterministic_across_instances():
    assert walk_oracle().price_at("ETH", 100) == walk_oracle().price_at("ETH", 100)


def test_walk_repeated_queries_identical():
    feed = walk_oracle()
    first = feed.price_at("ETH", 100)
    assert feed.price_at("ETH", 100) == first


def test_walk_independent_of_query_order():
    a = walk_oracle()
    b = walk_oracle()
    a.price_at("BTC", 50)
    a_val = a.price_at("ETH", 50)
    b_val = b.price_at("ETH", 50)  # never asked about BTC
    assert a_val == b_val


def test_walk_prices_stay_positive():
    feed = PriceOracle(
        mode="walk",
        walk=WalkParams(seed=3, drift=-0.05, volatility=0.5, initial={"ETH": from_str("0.000000000001")}),
    )
    feed.ensure_step(500)
    assert all(p > 0 for p in feed._paths["ETH"])


def test_walk_differs_across_seeds():
    assert walk_oracle(seed=1).price_at("ETH", 50) != walk_oracle(seed=2).price_at("ETH", 50)


# ---------------------------------------------------------------------------
def test_value_usd_multiplication():
    feed = replay_oracle()
    assert feed.value_usd(wad(2), "ETH", 0) == wad(4000)
    assert feed.value_usd(0, "ETH", 0) == 0


def test_value_usd_rounds_down_vs_rational():
    price = from_str("1999.999999")
    feed = PriceOracle(mode="replay", series={"ETH": [(0, price)]})
    amount = from_str("1.5")
    exact = Fraction(amount) * Fraction(price) / WAD
    got = feed.value_usd(amount, "ETH", 0)
    assert got == exact.numerator // exact.denominator
    assert got <= exact < got + 1


def test_feed_csv_loader(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("step,asset,price\n0,ETH,2000\n5,ETH,1800.5\n0,DAI,1\n")
    problems = []
    series = load_feed_csv(str(path), problems)
    assert problems == []
    assert series["ETH"] == [(0, wad(2000)), (5, from_str("1800.5"))]
    assert series["DAI"] == [(0, wad(1))]
    feed = PriceOracle(mode="replay", series=series)
    assert feed.price_at("ETH", 4) == wad(2000)


def _outcome(read, *args):
    """A read's value, or the type and text of what it raised."""
    try:
        return read(*args)
    except (errors.SimError, ValueError) as exc:
        return type(exc), str(exc)


def _vector_oracles():
    # LATE has no price before step 3, EMPTY no point at all, NOPE no feed
    replay = {"ETH": [(0, wad(2000)), (2, wad(1900)), (4, wad(1700))], "LATE": [(3, from_str("0.5"))], "EMPTY": []}
    walk = WalkParams(seed=9, drift=0.001, volatility=0.02, initial={"ETH": wad(2000), "DAI": wad(1)})
    return [
        lambda: PriceOracle(mode="replay", series=replay),
        lambda: PriceOracle(mode="walk", walk=walk),
    ]


@pytest.mark.parametrize("make", _vector_oracles(), ids=["replay", "walk"])
@pytest.mark.parametrize("t", [0, 1, 2, 3, 4, 7])
def test_step_price_vector_reads_like_a_fresh_oracle(make, t):
    feed = make()
    feed.ensure_step(t)
    for step in (t - 1, t, t + 1):
        for asset in ("ETH", "DAI", "LATE", "EMPTY", "NOPE"):
            assert _outcome(feed.price_at, asset, step) == _outcome(make().price_at, asset, step)
            amount = from_str("1.25")
            assert _outcome(feed.value_usd, amount, asset, step) == _outcome(make().value_usd, amount, asset, step)
