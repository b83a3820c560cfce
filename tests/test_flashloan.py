"""Flash loans: atomicity, the two canonical plan shapes, scanner soundness."""

import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lendsim import cdp, errors, flashloan, liquidation
from lendsim.fixed import WAD, from_str, mul_up, to_str, wad
from lendsim.flashloan import BuyStep, Committed, FlashPlan, LiquidateStep, Reverted, SellStep
from lendsim.liquidation import RiskScreen
from lendsim.pool import STABLE, VARIABLE

from conftest import build, make_doc, pool_doc, user
from test_liquidation import health_world
from test_world import USERS, apply_op, open_books


def arb_world(p_a="11", p_b="10", fee_a=0, fee_b=0, flash_fee="0", gas=None, pool_cash="1000"):
    doc = make_doc(
        assets=["XYZ", "USD"],
        pools=[pool_doc("XYZ", "cXYZ", flash_fee=flash_fee, initial_cash=pool_cash)],
        venues=[
            {"kind": "quote", "id": "A", "numeraire": "USD", "quotes": {"XYZ": p_a},
             "fee_bps": fee_a, "inventory": {"XYZ": "0", "USD": "1000000"}},
            {"kind": "quote", "id": "B", "numeraire": "USD", "quotes": {"XYZ": p_b},
             "fee_bps": fee_b, "inventory": {"XYZ": "100000", "USD": "0"}},
        ],
        prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]},
        gas=gas,
    )
    return build(doc)


def arb_plan(w, size, borrower="trader"):
    return FlashPlan(
        borrower=borrower,
        asset="XYZ",
        amount=size,
        steps=[SellStep("A", "XYZ", size), BuyStep("B", "XYZ", size)],
        profit_asset="USD",
    )


def test_price_gap_profit_is_size_times_gap():
    w = arb_world()
    user(w, "trader")
    outcome = flashloan.execute(w, arb_plan(w, wad(10)), 0)
    assert outcome == Committed(profit=wad(10))  # 10 * (11 - 10)
    assert w.ledger.balance("trader", "USD") == wad(10)
    w.ledger.full_audit()


def test_equal_prices_commit_with_gas_only_loss():
    w = arb_world(p_a="10", p_b="10", gas={"asset": "USD", "fee": "0.25"})
    user(w, "trader", USD=wad(1))
    outcome = flashloan.execute(w, arb_plan(w, wad(10)), 0)
    assert outcome == Committed(profit=-from_str("0.25"))
    assert w.ledger.balance("fee-sink", "USD") == from_str("0.25")


def test_loan_beyond_pool_cash_raises_before_checkpoint():
    w = arb_world(pool_cash="5")
    user(w, "trader")
    journal_len = len(w.ledger.journal)
    with pytest.raises(errors.InsufficientPoolLiquidity):
        flashloan.execute(w, arb_plan(w, wad(10)), 0)
    assert len(w.ledger.journal) == journal_len


def test_failed_repay_reverts_everything_but_gas():
    # price gap inverted: selling at 10 cannot fund buying at 11 plus repay
    w = arb_world(p_a="10", p_b="11", gas={"asset": "USD", "fee": "0.25"})
    user(w, "trader", USD=wad(1))
    journal_before = [r.to_json() for r in w.ledger.journal]
    outcome = flashloan.execute(w, arb_plan(w, wad(10)), 0)
    assert outcome == Reverted(fee_charged=from_str("0.25"))
    journal_after = [r.to_json() for r in w.ledger.journal]
    assert journal_after[:-1] == journal_before
    assert '"tag":"gas"' in journal_after[-1]
    assert w.ledger.balance("trader", "USD") == wad(1) - from_str("0.25")
    w.ledger.full_audit()


def test_flash_fee_accrues_to_pool_reserves():
    w = arb_world(flash_fee="0.0009")
    user(w, "trader")
    size = wad(100)
    fee = mul_up(size, from_str("0.0009"))
    plan = FlashPlan(
        borrower="trader",
        asset="XYZ",
        amount=size,
        steps=[SellStep("A", "XYZ", size), BuyStep("B", "XYZ", size + fee)],
        profit_asset="USD",
    )
    cash_before = w.pools["XYZ"].cash(w)
    outcome = flashloan.execute(w, plan, 0)
    assert isinstance(outcome, Committed)
    assert w.pools["XYZ"].cash(w) == cash_before + fee
    assert w.pools["XYZ"].reserves == fee


# ---------------------------------------------------------------------------
# liquidation plan (price-crash scenario)
# ---------------------------------------------------------------------------
def crash_world(flash_fee="0", gas=None):
    doc = make_doc(
        assets=["ABC", "XYZ"],
        pools=[
            pool_doc("ABC", "cABC", liquidation_threshold="0.8", collateral_factor="0.75",
                     liquidation_bonus="0.05", close_factor="0.5"),
            pool_doc("XYZ", "cXYZ", initial_cash="100000", flash_fee=flash_fee, close_factor="0.5",
                     liquidation_bonus="0.05"),
        ],
        venues=[
            {"kind": "quote", "id": "V", "numeraire": "XYZ", "quotes": {"ABC": "8"},
             "fee_bps": 0, "inventory": {"ABC": "0", "XYZ": "1000000"}},
        ],
        prices={"ABC": [[0, "10"], [5, "8"]], "XYZ": [[0, "1"]]},
    )
    if gas:
        doc["gas"] = gas
    return build(doc)


def open_underwater_position(w):
    user(w, "victim", ABC=wad(1000))
    w.pools["ABC"].deposit(w, "victim", wad(1000))
    w.pools["XYZ"].borrow(w, "victim", wad(7000), step=0)  # power 7500 at price 10
    # at step 5 the price drops to 8: threshold 6400 < debt 7000


def test_liquidation_loan_nets_bonus_minus_fees():
    gas_fee = from_str("0.5")
    w = crash_world(flash_fee="0.0009", gas={"asset": "XYZ", "fee": "0.5"})
    open_underwater_position(w)
    user(w, "keeper", XYZ=wad(1))
    x1 = wad(3500)  # close factor 0.5 of 7000
    plan = FlashPlan(
        borrower="keeper",
        asset="XYZ",
        amount=x1,
        steps=[
            LiquidateStep("victim", "XYZ", "ABC", x1),
            SellStep("V", "ABC", None),  # swap all seized ABC for XYZ
        ],
        profit_asset="XYZ",
    )
    seized_value = mul_up(x1, from_str("1.05"))  # value in USD == XYZ units here
    x2 = seized_value  # venue pays 8 XYZ per ABC, price also 8 -> same value
    outcome = flashloan.execute(w, plan, 5)
    assert isinstance(outcome, Committed)
    expected = x2 - (x1 + mul_up(x1, from_str("0.0009"))) - gas_fee
    assert abs(outcome.profit - expected) <= 1
    assert outcome.profit > 0  # with x2 > x1 the plan is profitable
    w.ledger.full_audit()


# ---------------------------------------------------------------------------
# randomized atomicity
# ---------------------------------------------------------------------------
def test_reverted_plans_leave_journal_identical_except_gas():
    w = arb_world(p_a="11", p_b="10", fee_a=30, fee_b=30, flash_fee="0.0009",
                  gas={"asset": "USD", "fee": "0.01"}, pool_cash="100000")
    user(w, "trader", USD=wad(1000), XYZ=wad(50))
    rng = random.Random(12345)
    venues = ["A", "B"]
    reverted = committed = 0
    for _ in range(300):
        size = wad(rng.randint(1, 2000))
        steps = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["sell", "buy"])
            venue = rng.choice(venues)
            amount = wad(rng.randint(1, 2000))
            if kind == "sell":
                steps.append(SellStep(venue, "XYZ", min(amount, size)))
            else:
                steps.append(BuyStep(venue, "XYZ", amount))
        plan = FlashPlan("trader", "XYZ", size, steps, profit_asset="USD")
        journal_before = [r.to_json() for r in w.ledger.journal]
        balances_before = {a: dict(t) for a, t in w.ledger._balances.items()}
        outcome = flashloan.execute(w, plan, 0)
        if isinstance(outcome, Reverted):
            reverted += 1
            journal_after = [r.to_json() for r in w.ledger.journal]
            assert journal_after[:-1] == journal_before
            assert '"tag":"gas"' in journal_after[-1]
            balances_before["USD"]["trader"] -= from_str("0.01")
            balances_before["USD"]["fee-sink"] = balances_before["USD"].get("fee-sink", 0) + from_str("0.01")
            after = {a: {k: v for k, v in t.items() if v or k in balances_before[a]}
                     for a, t in w.ledger._balances.items()}
            for asset, table in balances_before.items():
                for account, bal in table.items():
                    assert after[asset].get(account, 0) == bal, (asset, account)
        else:
            committed += 1
        w.ledger.audit()
    assert reverted > 50 and committed > 5
    w.ledger.full_audit()


def test_unknown_venue_in_plan_reverts_cleanly():
    w = arb_world()
    user(w, "trader")
    plan = FlashPlan("trader", "XYZ", wad(10), [SellStep("no-such-venue", "XYZ", wad(10))],
                     profit_asset="USD")
    journal_before = list(w.ledger.journal)
    outcome = flashloan.execute(w, plan, 0)
    assert outcome == Reverted(fee_charged=0)
    assert list(w.ledger.journal) == journal_before
    assert w.ledger.open_checkpoints() == 0


def test_zero_debt_repay_asset_is_rejected():
    w = crash_world()
    open_underwater_position(w)
    user(w, "keeper", ABC=wad(10))
    with pytest.raises(errors.NoDebt):
        # victim owes XYZ, not ABC
        from lendsim import liquidation

        liquidation.liquidate(w, "keeper", "victim", "ABC", "ABC", 0, 5)


def test_open_checkpoint_leak_is_impossible():
    w = arb_world(p_a="10", p_b="11")
    user(w, "trader")
    for _ in range(10):
        flashloan.execute(w, arb_plan(w, wad(10)), 0)
    assert w.ledger.open_checkpoints() == 0


# ---------------------------------------------------------------------------
# scanners
# ---------------------------------------------------------------------------
def test_scan_finds_quote_gap_and_execution_matches_exactly():
    w = arb_world()
    found = flashloan.scan_arbitrage(w, 0)
    assert len(found) == 1
    opp = found[0]
    assert opp.kind == "arbitrage"
    assert opp.plan.amount == wad(1000)  # min(pool cash, venue caps)
    outcome = flashloan.execute(w, opp.plan, 0)
    assert isinstance(outcome, Committed)
    assert outcome.profit == opp.expected_profit


def test_scan_empty_when_prices_equal():
    w = arb_world(p_a="10", p_b="10")
    assert flashloan.scan_arbitrage(w, 0) == []


def test_scan_respects_flash_fee_margin():
    # 0.1% gap, 90bps flash fee: not profitable
    w = arb_world(p_a="10.01", p_b="10", flash_fee="0.009")
    assert flashloan.scan_arbitrage(w, 0) == []


def amm_vs_quote_world(amm_reserves=("10000", "90000"), quote_price="10"):
    doc = make_doc(
        assets=["XYZ", "USD"],
        pools=[pool_doc("XYZ", "cXYZ", flash_fee="0", initial_cash="100000")],
        venues=[
            {"kind": "amm", "id": "amm1", "pair": ["XYZ", "USD"], "reserves": list(amm_reserves), "fee_bps": 30},
            {"kind": "quote", "id": "Q", "numeraire": "USD", "quotes": {"XYZ": quote_price},
             "fee_bps": 0, "inventory": {"XYZ": "1000000", "USD": "1000000"}},
        ],
        prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]},
    )
    return build(doc)


def grid_best_profit(w, seller, buyer, asset, flash_fee, cap, samples=10_000):
    best = 0
    step = max(cap // samples, 1)
    for size in range(step, cap + 1, step):
        p = flashloan._arb_profit(w, seller, buyer, asset, flash_fee, size)
        if p is not None and p > best:
            best = p
    return best


def test_amm_sizing_matches_grid_search_within_tenth_percent():
    # AMM price 9 vs quote price 10: sell into the quote venue, buy from AMM
    w = amm_vs_quote_world()
    found = flashloan.scan_arbitrage(w, 0)
    assert found, "expected an opportunity"
    opp = found[0]
    cap = w.pools["XYZ"].cash(w)
    best = grid_best_profit(w, w.venues["Q"], w.venues["amm1"], "XYZ", 0, cap)
    assert opp.expected_profit >= best * 999 // 1000
    outcome = flashloan.execute(w, opp.plan, 0)
    assert isinstance(outcome, Committed)
    assert abs(outcome.profit - opp.expected_profit) <= opp.expected_profit // 1000


def test_scan_liquidations_empty_when_all_healthy():
    w = crash_world()
    open_underwater_position(w)
    assert flashloan.scan_liquidations(w, 0) == []  # healthy until the crash step


def test_scan_liquidations_finds_crash_victim_and_matches_execution():
    w = crash_world(flash_fee="0.0009")
    open_underwater_position(w)
    user(w, "keeper2")
    found = flashloan.scan_liquidations(w, 5, borrower="keeper2")
    assert len(found) == 1
    opp = found[0]
    assert opp.kind == "liquidation" and opp.venue_or_target == "victim"
    outcome = flashloan.execute(w, opp.plan, 5)
    assert isinstance(outcome, Committed)
    assert outcome.profit == opp.expected_profit
    from lendsim import liquidation

    report = liquidation.account_totals(w, "victim", 5)
    assert report.health_factor > from_str("0.914285714285714285")  # improved


def test_scan_liquidations_excludes_unprofitable_slippage():
    # AMM so shallow the 5% bonus is eaten by slippage
    doc = make_doc(
        assets=["ABC", "XYZ"],
        pools=[
            pool_doc("ABC", "cABC", liquidation_bonus="0.05"),
            pool_doc("XYZ", "cXYZ", initial_cash="100000", flash_fee="0"),
        ],
        venues=[
            {"kind": "amm", "id": "tiny", "pair": ["ABC", "XYZ"], "reserves": ["10", "80"], "fee_bps": 30},
        ],
        prices={"ABC": [[0, "10"], [5, "8"]], "XYZ": [[0, "1"]]},
    )
    w = build(doc)
    open_underwater_position(w)
    assert flashloan.scan_liquidations(w, 5) == []
    w.ledger.full_audit()  # scratch simulations rolled back cleanly


def test_scan_rollback_leaves_no_trace():
    w = crash_world(flash_fee="0.0009")
    open_underwater_position(w)
    journal_before = [r.to_json() for r in w.ledger.journal]
    events_before = len(w.events)
    flashloan.scan_liquidations(w, 5)
    assert [r.to_json() for r in w.ledger.journal] == journal_before
    assert len(w.events) == events_before
    assert w.ledger.open_checkpoints() == 0


def test_vault_liquidation_opportunity():
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.8",
                        liquidation_threshold="0.85", initial_cash="100000")],
        venues=[{"kind": "quote", "id": "V", "numeraire": "DAI", "quotes": {"ETH": "120"},
                 "fee_bps": 0, "inventory": {"ETH": "0", "DAI": "1000000"}}],
        prices={"ETH": [[0, "200"], [3, "120"]], "DAI": [[0, "1"]]},
        cdp={
            "dai_symbol": "DAI",
            "issuance_fractions": {"ETH": to_str(2 * WAD // 3)},
            "stability_fee": "0",
            "liquidation_penalty": "0.13",
        },
    )
    w = build(doc)
    user(w, "owner", ETH=wad(10))
    vid = w.cdp.open_vault("owner")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1000), step=0)
    assert flashloan.scan_liquidations(w, 2) == []
    found = flashloan.scan_liquidations(w, 3)
    assert len(found) == 1 and found[0].venue_or_target == f"vault:{vid}"
    user(w, "keeper")
    outcome = flashloan.execute(w, found[0].plan, 3)
    assert isinstance(outcome, Committed)
    assert outcome.profit == found[0].expected_profit
    w.ledger.full_audit()


# ---------------------------------------------------------------------------
# arbitrage scan reuse
# ---------------------------------------------------------------------------
arb_ops = st.lists(
    st.tuples(
        st.sampled_from(["sell", "buy", "deposit", "execute", "open", "rollback", "commit", "wait"]),
        st.sampled_from(["amm1", "Q"]),
        st.integers(1, 3000),  # tenths of a unit
        st.sampled_from([None, "trader"]),  # borrower of the scan after the op
        st.integers(0, 3),  # step
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(arb_ops)
@example([("open", "amm1", 1, None, 0), ("sell", "amm1", 1000, None, 0), ("rollback", "amm1", 1, None, 1)])
def test_reused_arbitrage_scan_equals_a_fresh_scan(ops):
    w = amm_vs_quote_world()
    user(w, "trader", XYZ=wad(10**5), USD=wad(10**6))
    checkpoints = []
    for kind, venue_id, tenths, borrower, t in ops:
        amount = wad(tenths) // 10
        try:
            if kind == "sell":
                w.venues[venue_id].sell(w, "trader", "XYZ", amount)
            elif kind == "buy":
                w.venues[venue_id].buy(w, "trader", "XYZ", amount)
            elif kind == "deposit":
                w.pools["XYZ"].deposit(w, "trader", amount)
            elif kind == "execute":
                found = flashloan.scan_arbitrage(w, t, "trader")
                if found:
                    flashloan.execute(w, found[0].plan, t)
            elif kind == "open":
                checkpoints.append(w.checkpoint())
            elif kind in ("rollback", "commit") and checkpoints:
                getattr(w, kind)(checkpoints.pop())
        except errors.SimError:
            pass
        # the last scan is reused when the op wrote nothing and the borrower is the same
        reused = flashloan.scan_arbitrage(w, t, borrower)
        w.last_arbitrage = None
        assert reused == flashloan.scan_arbitrage(w, t, borrower)
    while checkpoints:
        w.rollback(checkpoints.pop())


# ---------------------------------------------------------------------------
# liquidation scan screen
# ---------------------------------------------------------------------------
def screen_world():
    # test_world's users and books, with COL and GLD swinging up and down each step; DAI has a
    # pool, so vaults are scanned, and quote venues turn seized collateral into any repay asset
    rated = {"slope1": "0.002", "slope2": "0.02"}
    rich = "1000000"
    doc = make_doc(
        assets=["COL", "GLD", "DAI"],
        pools=[pool_doc("COL", "cCOL", initial_cash="1000", rate_model=rated, stable_rate_premium="0.003"),
               pool_doc("GLD", "aGLD", "rebasing", initial_cash="1000", rate_model=rated,
                        stable_rate_premium="0.003"),
               pool_doc("DAI", "aDAI", "rebasing", initial_cash=rich)],
        venues=[
            {"kind": "quote", "id": "to-gld", "numeraire": "GLD", "quotes": {"COL": "0.7"},
             "fee_bps": 0, "inventory": {"COL": "0", "GLD": rich}},
            {"kind": "quote", "id": "to-col", "numeraire": "COL", "quotes": {"GLD": "1.1"},
             "fee_bps": 0, "inventory": {"GLD": "0", "COL": rich}},
            {"kind": "quote", "id": "to-dai", "numeraire": "DAI", "quotes": {"COL": "0.7", "GLD": "1"},
             "fee_bps": 0, "inventory": {"COL": "0", "GLD": "0", "DAI": rich}},
        ],
        prices={"COL": [[0, "1"], [1, "0.8"], [2, "1.1"], [3, "0.5"], [4, "0.7"], [5, "0.3"], [6, "0.9"]],
                "GLD": [[0, "1"], [1, "1.2"], [2, "0.9"], [3, "1"], [4, "1.3"], [5, "1"], [6, "0.8"]],
                "DAI": [[0, "1"]]},
        cdp={"dai_symbol": "DAI", "issuance_fractions": {"COL": "0.66", "GLD": "0.66"},
             "stability_fee": "0.001", "liquidation_penalty": "0.13"},
    )
    w = build(doc)
    user(w, "keeper")
    open_books(w)
    return w


def fresh_scan(w, t, borrower):
    """The scan of the world under a screen with no anchors: every candidate valued.

    The scan's scratch simulations roll back, so the world is left as it was;
    the screen and the undo log's `touched` set, which the fresh screen drains,
    are put back afterwards."""
    screen, touched = w.screen, set(w.ledger.undo.touched)
    w.screen = RiskScreen()
    try:
        return flashloan.scan_liquidations(w, t, borrower)
    finally:
        w.screen = screen
        w.ledger.undo.touched.clear()
        w.ledger.undo.touched.update(touched)


screen_ops = st.lists(
    st.tuples(
        st.tuples(
            st.sampled_from([
                "deposit", "redeem", VARIABLE, STABLE, "switch", "repay", "repay_all", "flag", "liquidate",
                "accrue", "open", "lock", "draw", "free", "vault_repay", "vault_liquidate", "execute", "nest",
                "close", "iou_transfer",
            ]),
            st.integers(0, 2),
            st.integers(0, 2),
            st.sampled_from(["COL", "GLD"]),
            st.integers(1, 400),
            st.integers(0, 7),  # step: scans run at any step, in any order
        ),
        st.sampled_from([None, "u0", "keeper"]),  # borrower of the scan after the op
    ),
    max_size=30,
)


def _op(kind, a=0, sym="GLD", tenths=1, t=0, borrower=None, b=0):
    return (kind, a, b, sym, tenths, t), borrower


def written_inputs(w, key):
    """What a write can change of a candidate's health: IOU balances, flags and positions, or a vault."""
    if isinstance(key, int):
        vault = w.cdp.vaults.get(key)
        return vault and (dict(vault.collateral), vault.debt_scaled)
    return [(w.ledger.balance_table(p.params.iou_asset).get(key, 0), p.collateral_on.get(key),
             copy.copy(p.positions.get(key))) for p in w.pools.values()]


@settings(max_examples=100, deadline=None)
@given(screen_ops)
# at step 3 u0 and u1 sit just above health 1, and accrual alone carries them across:
# u0 by the borrow index, u1 by its stable rate
@example([_op("deposit", 0, tenths=5, t=3), _op("deposit", 1, tenths=5, t=3)] + [_op("accrue", t=3)] * 8)
# u0 repays in full inside a checkpoint and is struck off; the rollback restores the debt
@example([_op("nest"), _op("repay_all"), _op("close", tenths=2), _op("accrue", sym="COL", t=5)])
# u1 hands anchored u0 half its cCOL; u0 repays in full and is struck off
@example([_op("accrue"), _op("iou_transfer", 1, sym="COL", tenths=200, b=0), _op("repay_all")])
def test_screened_liquidation_scan_equals_a_full_scan(ops):
    w = screen_world()
    checkpoints = []
    anchored = {}  # candidate -> (its anchor entry, its written_inputs when first seen anchored)
    for op, borrower in ops:
        kind, a, b, sym, tenths, t = op
        try:
            if kind == "repay":
                w.pools[sym].repay(w, USERS[a], wad(tenths) // 10)
            elif kind == "iou_transfer":  # a raw ledger write of cCOL or aGLD, outside any pool method
                iou = w.pools[sym].params.iou_asset
                w.ledger.transfer(USERS[a], USERS[b], iou, w.ledger.balance(USERS[a], iou) * tenths // 400)
            elif kind == "execute":
                found = flashloan.scan_liquidations(w, t, "keeper")
                if found:
                    flashloan.execute(w, found[0].plan, t)
            elif kind == "nest":
                checkpoints.append(w.checkpoint())
            elif kind == "close":
                if checkpoints:
                    (w.commit if tenths % 2 else w.rollback)(checkpoints.pop())
            else:
                apply_op(w, op)
        except errors.SimError:
            pass
        assert flashloan.scan_liquidations(w, t, borrower) == fresh_scan(w, t, borrower)
        # a candidate stays anchored only while nothing has written what its health reads
        for key, entry in w.screen.anchors.items():
            if key in anchored and anchored[key][0] is entry:
                assert written_inputs(w, key) == anchored[key][1], key
            else:
                anchored[key] = entry, written_inputs(w, key)
    while checkpoints:
        w.rollback(checkpoints.pop())
    w.ledger.full_audit()


def stable_crossing_world():
    # constant prices; the stable rate (utilization rate + 0.002 premium) outruns the variable one
    doc = make_doc(
        assets=["COL", "DEBT"],
        pools=[pool_doc("COL", "cCOL"),
               pool_doc("DEBT", "cDEBT", initial_cash="100000", stable_rate_premium="0.002",
                        rate_model={"slope1": "0.0001", "slope2": "0.001"})],
        venues=[{"kind": "quote", "id": "V", "numeraire": "DEBT", "quotes": {"COL": "1"},
                 "fee_bps": 0, "inventory": {"COL": "0", "DEBT": "1000000"}}],
        prices={"COL": [[0, "1"]], "DEBT": [[0, "1"]]},
    )
    w = build(doc)
    user(w, "victim", COL=wad(1000))
    w.pools["COL"].deposit(w, "victim", wad(1000))
    w.pools["DEBT"].borrow(w, "victim", wad(740), STABLE, step=0)  # health 800 / 740
    user(w, "saver", COL=wad(1000))  # a variable borrower far from 1 keeps a second bucket
    w.pools["COL"].deposit(w, "saver", wad(1000))
    w.pools["DEBT"].borrow(w, "saver", wad(100), VARIABLE, step=0)
    return w


def test_stable_debt_crossing_is_reported_at_the_first_unhealthy_step():
    w = stable_crossing_world()
    pos = w.pools["DEBT"].positions["victim"]
    assert pos.stable_rate > w.pools["DEBT"].borrow_rate(w)
    first = None
    for t in range(80):
        for pool in w.pools.values():
            pool.accrue(w, 1)
        targets = [o.venue_or_target for o in flashloan.scan_liquidations(w, t)]
        unhealthy = liquidation.account_totals(w, "victim", t).liquidatable
        assert ("victim" in targets) == unhealthy, t
        if unhealthy and first is None:
            first = t
    assert first is not None and first > 10  # it crossed, and only after many clean scans


def test_screen_values_a_healthy_account_once_and_a_debt_free_vault_never(monkeypatch):
    doc = make_doc(
        assets=["COL", "DAI"],
        pools=[pool_doc("COL", "cCOL"), pool_doc("DAI", "aDAI", "rebasing", initial_cash="100000")],
        prices={"COL": [[t, to_str(WAD + (-1) ** t * (t % 7) * WAD // 100)] for t in range(50)],
                "DAI": [[0, "1"]]},
        cdp={"dai_symbol": "DAI", "issuance_fractions": {"COL": "0.66"},
             "stability_fee": "0.0001", "liquidation_penalty": "0.13"},
    )
    w = build(doc)
    user(w, "alice", COL=wad(2000), DAI=wad(10))  # DAI to repay in full below
    w.pools["COL"].deposit(w, "alice", wad(1000))
    w.pools["DAI"].borrow(w, "alice", wad(400), step=0)  # health 800 / 400 = 2
    user(w, "sam", COL=wad(1000))
    w.pools["COL"].deposit(w, "sam", wad(1000))
    w.pools["DAI"].borrow(w, "sam", wad(400), STABLE, step=0)  # as healthy, at a stable rate
    user(w, "carol", COL=wad(1000))
    w.pools["COL"].deposit(w, "carol", wad(1000))
    empty = w.cdp.open_vault("alice")
    w.cdp.lock(w, empty, "COL", wad(500))
    valued, vaults_valued = [], []
    account_totals, valuation = liquidation.account_totals, cdp.CdpEngine._valuation

    def counted_totals(world, account, step, reads=None):
        valued.append(account)
        return account_totals(world, account, step, reads)

    def counted_valuation(self, world, vault, step):
        vaults_valued.append(vault)
        return valuation(self, world, vault, step)

    monkeypatch.setattr(liquidation, "account_totals", counted_totals)
    monkeypatch.setattr(cdp.CdpEngine, "_valuation", counted_valuation)
    for t in range(50):
        for pool in w.pools.values():
            pool.accrue(w, 1)
        w.cdp.accrue(w, t)
        assert flashloan.scan_liquidations(w, t) == []
    assert valued.count("alice") <= 1
    assert valued.count("sam") == 50  # an account with stable debt is never anchored
    assert w.cdp.vault(empty) not in vaults_valued

    # a scan inside a checkpoint files nothing, so its rollback leaves no anchor or strike-off behind
    anchored = set(w.screen.anchors)
    cp = w.checkpoint()
    w.pools["DAI"].repay(w, "alice", w.pools["DAI"].debt_of("alice"))
    w.pools["DAI"].borrow(w, "carol", wad(100), step=49)
    valued.clear()
    assert flashloan.scan_liquidations(w, 49) == []
    assert "carol" in valued and "alice" not in valued
    assert set(w.screen.anchors) <= anchored
    w.rollback(cp)
    valued.clear()
    assert flashloan.scan_liquidations(w, 49) == []
    assert "alice" in valued  # her debt is back, so she is due again

    # after a scan inside a checkpoint and its rollback, an IOU transfer still makes its sender due
    cp = w.checkpoint()
    w.ledger.transfer("alice", "carol", "COL", wad(1))
    assert flashloan.scan_liquidations(w, 49) == []
    w.rollback(cp)
    w.ledger.transfer("alice", "carol", "cCOL", w.ledger.balance("alice", "cCOL") * 6 // 10)  # health 0.8
    valued.clear()
    flashloan.scan_liquidations(w, 49)
    assert "alice" in valued


def test_scan_needs_a_price_only_for_what_a_candidate_holds_or_owes():
    w = health_world()
    user(w, "bob", COL=wad(1000))
    w.pools["COL"].deposit(w, "bob", wad(1000))
    w.pools["COL"].borrow(w, "bob", wad(5), step=0)  # bob holds and owes COL only
    user(w, "carol", DEBT=wad(5))
    w.pools["DEBT"].deposit(w, "carol", wad(5))  # holds DEBT, owes nothing: not a candidate
    debt_feed = w.oracle.series.pop("DEBT")
    for t in (0, 1, 0, 3):  # builds the screen, then bounds the anchored bob
        assert flashloan.scan_liquidations(w, t) == []
    w.oracle.series["DEBT"] = debt_feed
    user(w, "alice", COL=wad(1000))
    w.pools["COL"].deposit(w, "alice", wad(1000))
    w.pools["DEBT"].borrow(w, "alice", wad(5), step=3)
    del w.oracle.series["DEBT"]
    with pytest.raises(errors.MissingFeed):  # alice owes DEBT: valuing her needs its price, as before
        flashloan.scan_liquidations(w, 3)


# ---------------------------------------------------------------------------
# arbitrage sizing bounds
# ---------------------------------------------------------------------------
def _units(lo, hi):
    """Decimal strings with two places, in [lo, hi] whole units."""
    return st.integers(lo * 100, hi * 100).map(lambda n: to_str(n * WAD // 100))


quote_venues = st.fixed_dictionaries({
    "kind": st.just("quote"),
    "numeraire": st.just("USD"),
    "quotes": st.fixed_dictionaries({"XYZ": _units(1, 100)}),
    "fee_bps": st.integers(0, 300),
    "inventory": st.fixed_dictionaries({"XYZ": _units(0, 10**5), "USD": _units(0, 10**6)}),
})
amm_venues = st.fixed_dictionaries({
    "kind": st.just("amm"),
    "pair": st.just(["XYZ", "USD"]),
    "reserves": st.tuples(_units(1, 10**5), _units(1, 10**6)).map(list),
    "fee_bps": st.integers(0, 300),
})


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(quote_venues, amm_venues), min_size=2, max_size=3),
    _units(0, 10**5),
    st.sampled_from(["0", "0.0009", "0.01"]),
)
@example(
    [
        {"kind": "amm", "pair": ["XYZ", "USD"], "reserves": ["10000", "90000"], "fee_bps": 30},
        {"kind": "quote", "numeraire": "USD", "quotes": {"XYZ": "10"}, "fee_bps": 0,
         "inventory": {"XYZ": "1000000", "USD": "1000000"}},
    ],
    "100000",
    "0",
)
def test_arbitrage_sizing_probes_only_sizes_inside_the_scan_cap(venue_docs, pool_cash, flash_fee):
    doc = make_doc(
        assets=["XYZ", "USD"],
        pools=[pool_doc("XYZ", "cXYZ", flash_fee=flash_fee, initial_cash=pool_cash)],
        venues=[dict(v, id=f"v{i}") for i, v in enumerate(venue_docs)],
        prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]},
    )
    w = build(doc)
    best_size, arb_profit = flashloan._best_size, flashloan._arb_profit
    caps, probes = [], []

    def spy_best_size(world, seller, buyer, asset, fee, cap):
        caps.append(cap)
        max_sell = seller.max_sell(world, asset)
        assert max_sell is None or cap <= max_sell
        return best_size(world, seller, buyer, asset, fee, cap)

    def spy_arb_profit(world, seller, buyer, asset, fee, size):
        probes.append(size)
        assert 1 <= size <= caps[-1]
        return arb_profit(world, seller, buyer, asset, fee, size)

    flashloan._best_size, flashloan._arb_profit = spy_best_size, spy_arb_profit
    try:
        flashloan.scan_arbitrage(w, 0)
    finally:
        flashloan._best_size, flashloan._arb_profit = best_size, arb_profit
    assert len(caps) == len(venue_docs) * (len(venue_docs) - 1)  # each ordered pair trades XYZ for USD
