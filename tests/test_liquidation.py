"""Health factor math and liquidation execution against rational oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendsim import errors, liquidation
from lendsim.fixed import WAD, from_str, mul_down, to_str, wad
from lendsim.oracle import PriceOracle

from conftest import build, make_doc, pool_doc, user
from test_world import USERS, apply_op, world_ops


def health_world(threshold="0.8", bonus="0.05", close="0.5"):
    doc = make_doc(
        assets=["COL", "DEBT"],
        pools=[
            pool_doc("COL", "cCOL", liquidation_threshold=threshold, collateral_factor="0.01",
                     liquidation_bonus=bonus, close_factor=close),
            pool_doc("DEBT", "cDEBT", initial_cash="100000", liquidation_bonus=bonus, close_factor=close),
        ],
        prices={"COL": [[0, "1"]], "DEBT": [[0, "1"]]},
    )
    return build(doc)


def rig_position(w, account, collateral, debt):
    """Deposit collateral and inject debt directly (grid positions need not be
    reachable through borrow's own collateral checks)."""
    user(w, account, COL=collateral)
    if collateral:
        w.pools["COL"].deposit(w, account, collateral)
    if debt:
        pool = w.pools["DEBT"]
        pool.positions.add(account, debt, pool.borrow_index)
        w.ledger.transfer(pool.account, account, "DEBT", min(debt, pool.cash(w)), tag="borrow")


def test_health_factor_example_above_one():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(700))
    report = liquidation.account_totals(w, "alice", 0)
    assert report.collateral_value == wad(1000)
    assert report.threshold_value == wad(800)
    assert report.debt_value == wad(700)
    assert report.health_factor == wad(800) * WAD // wad(700)
    assert not report.liquidatable
    assert report.ltv == wad(700) * WAD // wad(1000)


def test_health_factor_infinite_without_debt():
    w = health_world()
    rig_position(w, "alice", wad(1000), 0)
    report = liquidation.account_totals(w, "alice", 0)
    assert report.health_factor is None
    assert report.hf_str() == "inf"
    assert not report.liquidatable


def test_health_factor_example_below_one():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(900))
    report = liquidation.account_totals(w, "alice", 0)
    exact = Fraction(8, 9)  # 1000 * 0.8 / 900
    assert report.health_factor == (exact.numerator * WAD) // exact.denominator
    assert report.liquidatable


def test_exact_boundary_is_not_liquidatable():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(800))  # threshold 800 == debt 800
    report = liquidation.account_totals(w, "alice", 0)
    assert report.health_factor == WAD
    user(w, "liq", DEBT=wad(1000))
    with pytest.raises(errors.NotLiquidatable):
        liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", wad(1), 0)


def test_liquidation_amounts_match_worked_example():
    # debt 900 vs threshold 800 -> liquidatable; close factor 0.5 caps repay at
    # 450; bonus 5% seizes value 472.5
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(900))
    user(w, "liq", DEBT=wad(1000))
    seized = liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", wad(450), 0)
    assert seized == from_str("472.5")
    assert w.pools["DEBT"].debt_of("alice") == wad(450)
    report = liquidation.account_totals(w, "alice", 0)
    assert report.health_factor > from_str("0.888888888888888888")  # improved


def test_repay_above_close_factor_rejected():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(900))
    user(w, "liq", DEBT=wad(1000))
    with pytest.raises(errors.ExceedsCloseFactor):
        liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", from_str("450.01"), 0)


def test_self_liquidation_rejected():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(900))
    with pytest.raises(errors.SelfLiquidation):
        liquidation.liquidate(w, "alice", "alice", "DEBT", "COL", wad(1), 0)


def test_iou_from_a_plain_transfer_is_collateral():
    # alice never deposits: her cCOL arrives by a ledger transfer, and still backs her debt and can be seized
    w = health_world()
    rig_position(w, "donor", wad(1000), 0)
    rig_position(w, "alice", 0, wad(900))
    w.ledger.transfer("donor", "alice", "cCOL", wad(1000))
    report = liquidation.account_totals(w, "alice", 0)
    assert (report.collateral_value, report.threshold_value, report.largest_collateral) == (wad(1000), wad(800), "COL")
    assert report.health_factor == wad(800) * WAD // wad(900)
    user(w, "liq", DEBT=wad(1000))
    assert liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", wad(450), 0) == from_str("472.5")
    assert w.ledger.balance("liq", "cCOL") == from_str("472.5")


def test_liquidating_unflagged_or_absent_collateral_rejected():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(900))
    user(w, "liq", DEBT=wad(1000))
    with pytest.raises(errors.NoSuchCollateral):
        liquidation.liquidate(w, "liq", "alice", "DEBT", "DEBT", wad(10), 0)


def test_open_access_identical_for_any_caller():
    outcomes = []
    for caller in ("liq-a", "liq-b"):
        w = health_world()
        rig_position(w, "alice", wad(1000), wad(900))
        user(w, caller, DEBT=wad(1000))
        seized = liquidation.liquidate(w, caller, "alice", "DEBT", "COL", wad(450), 0)
        outcomes.append((seized, w.pools["DEBT"].debt_of("alice")))
    assert outcomes[0] == outcomes[1]


def test_healthy_account_liquidation_leaves_state_unchanged():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(700))
    user(w, "liq", DEBT=wad(1000))
    debt_before = w.pools["DEBT"].debt_of("alice")
    claim_before = w.pools["COL"].underlying_claim(w, "alice")
    with pytest.raises(errors.NotLiquidatable):
        liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", wad(10), 0)
    assert w.pools["DEBT"].debt_of("alice") == debt_before
    assert w.pools["COL"].underlying_claim(w, "alice") == claim_before


def test_seize_capped_at_deposit_shrinks_repay():
    # tiny collateral: seize cap binds and effective repay shrinks
    w = health_world()
    rig_position(w, "alice", wad(10), wad(900))
    user(w, "liq", DEBT=wad(1000))
    seized = liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", wad(450), 0)
    assert seized == wad(10)
    repaid = wad(900) - w.pools["DEBT"].debt_of("alice")
    # seized value == (1+b) * repaid value within a couple of rounding units
    assert abs(seized - mul_down(repaid, from_str("1.05"))) <= 2


def test_value_accounting_within_one_rounding_unit():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(900))
    user(w, "liq", DEBT=wad(1000))
    repay = from_str("123.456789123456789123")
    seized = liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", repay, 0)
    exact = Fraction(repay) * Fraction(21, 20)  # (1+0.05), unit prices
    assert 0 <= exact - seized <= 1


def test_liquidation_emits_event_record():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(900))
    user(w, "liq", DEBT=wad(1000))
    liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", wad(100), 0)
    event = [e for e in w.events if e.get("kind") == "liquidation"][0]
    assert set(event) >= {
        "step", "liquidator", "target", "repay_asset", "repay_amt",
        "seize_asset", "seized_amt", "hf_before", "hf_after",
    }
    assert event["liquidator"] == "liq" and event["target"] == "alice"


# ---------------------------------------------------------------------------
# grid agreement with rational arithmetic
# ---------------------------------------------------------------------------
def test_liquidatability_grid_matches_rational_oracle():
    for li in range(1, 21):
        threshold = li * WAD // 20
        w = health_world(threshold=to_frac_str(li, 20), close="1")
        for c in range(1, 21):
            for d in range(1, 21):
                account = f"u-{c}-{d}"
                rig_position(w, account, wad(c), wad(d))
        for c in range(1, 21):
            for d in range(1, 21):
                report = liquidation.account_totals(w, f"u-{c}-{d}", 0)
                expected = Fraction(c) * Fraction(li, 20) < Fraction(d)
                assert report.liquidatable == expected, (c, li, d)


def to_frac_str(num, den):
    from lendsim.fixed import to_str

    return to_str(num * WAD // den)


@settings(max_examples=60, deadline=None)
@given(
    collateral=st.integers(min_value=1, max_value=10**6),
    debt=st.integers(min_value=1, max_value=10**6),
    threshold_pct=st.integers(min_value=50, max_value=90),
    bonus_pct=st.integers(min_value=0, max_value=10),
)
def test_health_never_worsens_when_hf_at_least_bonus_weighted_threshold(
    collateral, debt, threshold_pct, bonus_pct
):
    w = health_world(
        threshold=f"0.{threshold_pct}",
        bonus=f"0.{bonus_pct:02d}",
        close="0.5",
    )
    rig_position(w, "alice", wad(collateral), wad(debt))
    before = liquidation.account_totals(w, "alice", 0)
    if not before.liquidatable:
        return
    floor = mul_down(from_str(f"0.{threshold_pct}"), WAD + from_str(f"0.{bonus_pct:02d}"))
    user(w, "liq", DEBT=wad(debt))
    repay = mul_down(w.pools["DEBT"].debt_of("alice"), w.pools["DEBT"].params.close_factor)
    if repay == 0:
        return
    try:
        liquidation.liquidate(w, "liq", "alice", "DEBT", "COL", repay, 0)
    except errors.SimError:
        return
    after = liquidation.account_totals(w, "alice", 0)
    if before.health_factor >= floor:
        if after.health_factor is not None:
            assert after.health_factor >= before.health_factor - 2


# ---------------------------------------------------------------------------
# one valuation: account_totals over shared pool reads against a reference walk
# ---------------------------------------------------------------------------
def priced_world(prices):
    """test_world's checkpoint world (an exchange-rate and a rebasing pool,
    borrowers, vaults) on a replay feed with a given price per step, with
    claims that round."""
    rated = {"slope1": "0.002", "slope2": "0.02"}
    doc = make_doc(
        assets=["COL", "GLD", "DAI"],
        pools=[pool_doc("COL", "cCOL", initial_cash="1000", rate_model=rated),
               pool_doc("GLD", "aGLD", "rebasing", initial_cash="1000", rate_model=rated)],
        prices={asset: [[step, to_str(wad(tenths) // 10)] for step, tenths in enumerate(path)]
                for asset, path in prices.items()},
        cdp={"dai_symbol": "DAI", "issuance_fractions": {"COL": "0.66", "GLD": "0.66"},
             "stability_fee": "0.001", "liquidation_penalty": "0.13"},
    )
    w = build(doc)
    for name in USERS:
        user(w, name, COL=wad(1000), GLD=wad(1000), DAI=wad(1000))
        w.pools["COL"].deposit(w, name, wad(300))
        w.pools["GLD"].deposit(w, name, wad(100))
        try:
            w.pools["GLD"].borrow(w, name, wad(150), step=0)
        except errors.SimError:
            pass
        vault_id = w.cdp.open_vault(name)
        w.cdp.lock(w, vault_id, "COL", wad(100))
    try:
        w.pools["COL"].borrow(w, "u2", wad(50), step=0)
    except errors.SimError:
        pass
    for p in w.pools.values():  # unit rates off WAD, then deposits of uneven IOU units
        p.accrue(w)
        for name in USERS:
            p.deposit(w, name, from_str("7.77"))
    return w


def reference_totals(w, account, step, feed):
    """account_totals recomputed per pool from the ledger, the pool's own views and a fresh feed."""
    collateral = threshold = power = debt = 0
    largest_debt = largest_collateral = None
    top_debt = top_collateral = -1
    for asset, p in w.pools.items():
        claim = mul_down(w.ledger.balance(account, p.params.iou_asset), p.unit_rate(w))
        if claim:
            value = mul_down(claim, feed.price_at(asset, step))
            collateral += value
            threshold += mul_down(value, p.params.liquidation_threshold)
            power += mul_down(value, p.params.collateral_factor)
            if value > top_collateral:
                largest_collateral, top_collateral = asset, value
        owed = p.debt_of(account)
        if owed:
            value = mul_down(owed, feed.price_at(asset, step))
            debt += value
            if value > top_debt:
                largest_debt, top_debt = asset, value
    ltv = debt * WAD // collateral if collateral else None
    hf = threshold * WAD // debt if debt else None
    return liquidation.HealthReport(account, collateral, threshold, debt, ltv, hf, power, largest_debt,
                                    largest_collateral)


price_paths = st.lists(st.integers(1, 40), min_size=4, max_size=4)  # tenths of a USD at steps 0..3


@settings(max_examples=80, deadline=None)
@given(st.fixed_dictionaries({"COL": price_paths, "GLD": price_paths, "DAI": price_paths}),
       world_ops, st.integers(0, 3))
def test_account_totals_over_shared_pool_reads_match_a_reference_walk(prices, ops, t):
    w = priced_world(prices)
    feed = PriceOracle(mode="replay", series=dict(w.oracle.series))
    w.oracle.ensure_step(t)
    for op in [None, *ops]:
        if op is not None and op[0] not in ("nest", "close"):
            try:
                apply_op(w, op)
            except errors.SimError:
                pass
        reads = liquidation.pool_reads(w)
        for account in USERS:
            expected = reference_totals(w, account, t, feed)
            assert liquidation.account_totals(w, account, t) == expected
            assert liquidation.account_totals(w, account, t, reads) == expected


def test_account_totals_needs_a_price_only_for_what_the_account_holds_or_owes():
    w = health_world()
    rig_position(w, "alice", wad(1000), wad(700))  # deposits COL, owes DEBT
    user(w, "bob", COL=wad(5))
    w.pools["COL"].deposit(w, "bob", wad(5))
    del w.oracle.series["DEBT"]
    for _ in range(2):  # from the feed, then from the step's price vector
        assert liquidation.account_totals(w, "bob", 0).collateral_value == wad(5)
        with pytest.raises(errors.MissingFeed):
            liquidation.account_totals(w, "alice", 0)
        with pytest.raises(errors.UnknownAccount):
            liquidation.account_totals(w, "nobody", 0)
        w.oracle.ensure_step(0)
