"""Health factor math and liquidation execution against rational oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendsim import errors, liquidation
from lendsim.fixed import WAD, from_str, mul_down, wad
from lendsim.pool import BorrowPosition

from conftest import build, make_doc, pool_doc, user


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
    w.pools["COL"].deposit(w, account, collateral)
    if debt:
        pool = w.pools["DEBT"]
        pool.positions[account] = BorrowPosition(account=account, scaled=debt)
        pool.total_borrows += debt
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
