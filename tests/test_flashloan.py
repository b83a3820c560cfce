"""Flash loans: atomicity, the two canonical plan shapes, scanner soundness."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lendsim import errors, flashloan
from lendsim.fixed import WAD, from_str, mul_up, to_str, wad
from lendsim.flashloan import BuyStep, Committed, FlashPlan, LiquidateStep, Reverted, SellStep

from conftest import build, make_doc, pool_doc, user


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
