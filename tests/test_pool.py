"""Pool mechanics: IOU accounting in both modes, rates, accrual oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lendsim import errors, liquidation
from lendsim.fixed import WAD, ceil_div, div_up, from_str, mul_up, to_str, wad
from lendsim.ledger import GENESIS_AUTHORITY
from lendsim.pool import RateModelParams

from conftest import build, make_doc, pool_doc, user

RATED = {"base_rate": "0", "slope1": "0.0016", "slope2": "0.01", "kink": "0.8", "reserve_factor": "0.1"}


def eth_dai_world(eth_pool_overrides=None, dai_pool_overrides=None, eth_price="2000"):
    pools = [
        pool_doc("ETH", "cETH", "exchange-rate", **(eth_pool_overrides or {})),
        pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.8", liquidation_threshold="0.85", **(dai_pool_overrides or {})),
    ]
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=pools,
        prices={"ETH": [[0, eth_price]], "DAI": [[0, "1"]]},
    )
    return build(doc)


def utilization(w, p):
    return p.params.rate_model.rates(p.cash(w), p.total_borrows)[0]


# ---------------------------------------------------------------------------
# deposits and redemptions
# ---------------------------------------------------------------------------
def test_fresh_pool_deposit_mints_one_to_one():
    w = eth_dai_world()
    user(w, "alice", ETH=wad(100))
    minted = w.pools["ETH"].deposit(w, "alice", wad(100))
    assert minted == wad(100)
    assert w.ledger.balance("alice", "cETH") == wad(100)
    assert w.pools["ETH"].cash(w) == wad(100)


def test_rebasing_deposit_displays_face_amount():
    w = eth_dai_world()
    user(w, "alice", DAI=wad(12))
    w.pools["DAI"].deposit(w, "alice", wad(12))
    assert w.pools["DAI"].underlying_claim(w, "alice") == wad(12)


def test_reserves_above_cash_and_borrows_are_an_invariant_violation():
    w = eth_dai_world()
    p = w.pools["ETH"]
    user(w, "seed", ETH=wad(100))
    p.deposit(w, "seed", wad(100))
    p.reserves = wad(100) + 1  # one raw unit past cash + borrows
    with pytest.raises(errors.InvariantViolation, match=r"pool ETH: reserves exceed cash \+ borrows by 1 "):
        p.exchange_rate(w)


def test_deposit_at_premium_exchange_rate():
    # rig rate to 1.25: supply 100, then donate 25 so cash+borrows-reserves = 125
    w = eth_dai_world()
    p = w.pools["ETH"]
    user(w, "seed", ETH=wad(100))
    p.deposit(w, "seed", wad(100))
    w.ledger.mint(p.account, "ETH", wad(25), GENESIS_AUTHORITY)
    assert p.exchange_rate(w) == from_str("1.25")
    user(w, "alice", ETH=wad(50))
    minted = p.deposit(w, "alice", wad(50))
    assert minted == wad(40)
    # round trip cannot pay out more than went in
    back = p.redeem(w, "alice", minted, step=0)
    assert back <= wad(50)


def test_redeem_inverse_of_deposit_at_rate():
    w = eth_dai_world()
    p = w.pools["ETH"]
    user(w, "seed", ETH=wad(100))
    p.deposit(w, "seed", wad(100))
    w.ledger.mint(p.account, "ETH", wad(25), GENESIS_AUTHORITY)
    user(w, "alice", ETH=wad(50))
    p.deposit(w, "alice", wad(50))
    payout = p.redeem(w, "alice", wad(40), step=0)
    assert payout == wad(50)


def test_round_trip_loses_at_most_one_raw_unit():
    w = eth_dai_world()
    p = w.pools["ETH"]
    user(w, "seed", ETH=wad(100))
    p.deposit(w, "seed", wad(100))
    w.ledger.mint(p.account, "ETH", from_str("0.37"), GENESIS_AUTHORITY)
    amount = from_str("13.570000000000000001")
    user(w, "alice", ETH=amount)
    minted = p.deposit(w, "alice", amount)
    payout = p.redeem(w, "alice", minted, step=0)
    assert 0 <= amount - payout <= 1 + p.exchange_rate(w) // WAD


def test_redeem_beyond_cash_is_rejected_unchanged():
    w = eth_dai_world()
    p = w.pools["ETH"]
    user(w, "alice", ETH=wad(100))
    p.deposit(w, "alice", wad(100))
    user(w, "bob", DAI=wad(1))
    w.pools["DAI"].deposit(w, "bob", wad(1))
    w.pools["ETH"].borrow(w, "bob", 0, step=0)  # no-op
    # drain cash via a borrow from alice herself is impossible; simulate by borrow from bob
    user(w, "carol", DAI=wad(500000))
    w.pools["DAI"].deposit(w, "carol", wad(500000))
    p.borrow(w, "carol", wad(90), step=0)
    before = p.cash(w)
    with pytest.raises(errors.InsufficientLiquidity):
        p.redeem(w, "alice", wad(20), step=0)
    assert p.cash(w) == before


@given(st.integers(WAD, 2**100), st.integers(1, 2**100), st.data())
@settings(max_examples=200, deadline=None)
def test_rebasing_redeem_of_any_displayed_amount_burns_its_units_rounded_up(index, units, data):
    # iou_amount <= floor(units * index / WAD) gives ceil(iou_amount * WAD / index) <= units, so the
    # burn never needs clamping to the balance
    w = eth_dai_world()
    p = w.pools["DAI"]
    p.liquidity_index = index
    user(w, "alice")
    w.ledger.mint("alice", "aDAI", units, p.account)
    amount = data.draw(st.integers(1, p.displayed(units)))
    w.ledger.mint(p.account, "DAI", amount, GENESIS_AUTHORITY, tag="genesis")
    assert p.redeem(w, "alice", amount, step=0) == amount
    assert w.ledger.balance("alice", "aDAI") == units - div_up(amount, index)
    assert w.ledger.balance("alice", "DAI") == amount


def test_redeem_that_would_undercollateralize_is_rejected():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "1000000"})
    user(w, "alice", ETH=wad(10))
    w.pools["ETH"].deposit(w, "alice", wad(10))
    w.pools["DAI"].borrow(w, "alice", wad(15000), step=0)  # power = 10*2000*0.75
    with pytest.raises(errors.WouldBecomeUndercollateralized):
        w.pools["ETH"].redeem(w, "alice", wad(1), step=0)  # threshold 9*2000*0.8 = 14400 < 15000
    assert w.ledger.balance("alice", "cETH") == wad(10)


def test_redeem_is_judged_on_the_deposit_it_leaves():
    # 25 raw ETH at 1.3: value 32, power 24, threshold 25. Redeeming 2 raw leaves 23 raw, value 29 and
    # threshold 23 < debt 24; the removed 2 raw alone value at 2, threshold 1, which hid the breach
    w = eth_dai_world(eth_price="1.3")
    user(w, "lender", DAI=wad(100))
    w.pools["DAI"].deposit(w, "lender", wad(100))
    user(w, "alice", ETH=25)
    w.pools["ETH"].deposit(w, "alice", 25)
    power = liquidation.account_totals(w, "alice", 0).borrowing_power
    w.pools["DAI"].borrow(w, "alice", power, step=0)
    with pytest.raises(errors.WouldBecomeUndercollateralized):
        w.pools["ETH"].redeem(w, "alice", 2, step=0)
    assert w.ledger.balance("alice", "cETH") == 25
    assert liquidation.account_totals(w, "alice", 0).health_factor >= WAD


def test_redeem_allowed_when_other_collateral_covers():
    # collateral: 10 ETH (20000 usd, threshold 0.8) + 30000 DAI (threshold 0.85)
    # debt: 10000 DAI. Redeeming all the ETH leaves threshold 25500 >= 10000.
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "1000000"})
    user(w, "alice", ETH=wad(10), DAI=wad(30000))
    w.pools["ETH"].deposit(w, "alice", wad(10))
    w.pools["DAI"].deposit(w, "alice", wad(30000))
    w.pools["DAI"].borrow(w, "alice", wad(10000), step=0)
    assert w.pools["ETH"].redeem(w, "alice", wad(10), step=0) == wad(10)
    report = liquidation.account_totals(w, "alice", 0)
    assert report.threshold_value == wad(25500) and report.health_factor >= WAD


def test_redeem_requires_iou_balance():
    w = eth_dai_world()
    p = w.pools["ETH"]
    user(w, "alice", ETH=wad(10))
    p.deposit(w, "alice", wad(10))
    with pytest.raises(errors.InsufficientIOU):
        p.redeem(w, "alice", wad(11), step=0)


# ---------------------------------------------------------------------------
# borrowing
# ---------------------------------------------------------------------------
def test_borrow_allowed_exactly_at_boundary():
    w = eth_dai_world(eth_price="10", dai_pool_overrides={"initial_cash": "10000"})
    user(w, "alice", ETH=wad(100))
    w.pools["ETH"].deposit(w, "alice", wad(100))
    w.pools["DAI"].borrow(w, "alice", wad(750), step=0)  # 100 * 10 * 0.75
    assert w.pools["DAI"].debt_of("alice") == wad(750)


def test_borrow_one_raw_unit_past_boundary_rejected():
    w = eth_dai_world(eth_price="10", dai_pool_overrides={"initial_cash": "10000"})
    user(w, "alice", ETH=wad(100))
    w.pools["ETH"].deposit(w, "alice", wad(100))
    with pytest.raises(errors.ExceedsBorrowingPower):
        w.pools["DAI"].borrow(w, "alice", wad(750) + 1, step=0)


def test_borrow_with_zero_collateral_rejected():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "10000"})
    user(w, "alice")
    with pytest.raises(errors.ExceedsBorrowingPower):
        w.pools["DAI"].borrow(w, "alice", wad(1), step=0)


def test_borrow_beyond_pool_cash_rejected():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "100"})
    user(w, "alice", ETH=wad(1000))
    w.pools["ETH"].deposit(w, "alice", wad(1000))
    with pytest.raises(errors.InsufficientLiquidity):
        w.pools["DAI"].borrow(w, "alice", wad(101), step=0)


def test_zero_borrow_writes_nothing_and_leaves_the_account_off_the_scan():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "10000"})
    user(w, "alice", ETH=wad(1))
    w.pools["ETH"].deposit(w, "alice", wad(1))
    p = w.pools["DAI"]
    assert w.screen.due(w, 0, liquidation.pool_reads(w)) == ([], [])
    journal_len, writes = len(w.ledger.journal), p.positions.writes
    p.borrow(w, "alice", 0, step=0)
    assert p.positions == {} and p.positions.writes == writes
    assert len(w.ledger.journal) == journal_len and p.total_borrows == 0
    assert w.screen.due(w, 0, liquidation.pool_reads(w)) == ([], [])
    with pytest.raises(errors.NoDebt):
        p.repay(w, "alice", 1)


# ---------------------------------------------------------------------------
# repayment
# ---------------------------------------------------------------------------
def borrow_world():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "100000", "rate_model": RATED})
    user(w, "alice", ETH=wad(100), DAI=wad(1000))
    w.pools["ETH"].deposit(w, "alice", wad(100))
    w.pools["DAI"].borrow(w, "alice", wad(100), step=0)
    return w


def test_partial_repay():
    w = borrow_world()
    applied = w.pools["DAI"].repay(w, "alice", wad(60))
    assert applied == wad(60)
    assert w.pools["DAI"].debt_of("alice") == wad(40)


def test_overpay_is_clamped():
    w = borrow_world()
    before = w.ledger.balance("alice", "DAI")
    applied = w.pools["DAI"].repay(w, "alice", wad(150))
    assert applied == wad(100)
    assert before - w.ledger.balance("alice", "DAI") == wad(100)
    with pytest.raises(errors.NoDebt):
        w.pools["DAI"].repay(w, "alice", wad(1))


def test_repay_after_accrual_closes_position():
    # util 100/100100; tune borrows so the oracle is a plain loop
    w = borrow_world()
    p = w.pools["DAI"]
    # independent oracle: per-step compounding of the opening debt
    model = p.params.rate_model
    debt = wad(100)
    cash = p.cash(w)
    borrows = wad(100)
    index = WAD
    for _ in range(25):
        util = borrows * WAD // (cash + borrows)
        r_b = model.borrow_rate(util)
        new_index = index * (WAD + r_b) // WAD
        borrows = borrows + ceil_div(borrows * r_b, WAD)
        index = new_index
    expected_debt = ceil_div(wad(100) * index, WAD)
    for _ in range(25):
        p.accrue(w)
    assert p.debt_of("alice") == expected_debt
    applied = p.repay(w, "alice", expected_debt)
    assert applied == expected_debt
    assert p.debt_of("alice") == 0


# ---------------------------------------------------------------------------
# rate model and accrual
# ---------------------------------------------------------------------------
def test_rate_at_zero_kink_and_full_utilization():
    model = RateModelParams(
        base_rate=from_str("0.0001"),
        slope1=from_str("0.0016"),
        slope2=from_str("0.01"),
        kink=from_str("0.8"),
        reserve_factor=from_str("0.1"),
    )
    assert model.borrow_rate(0) == from_str("0.0001")
    assert model.borrow_rate(from_str("0.8")) == from_str("0.0017")
    assert model.borrow_rate(WAD) == from_str("0.0117")


def test_rate_monotone_in_utilization_and_supply_below_borrow():
    model = RateModelParams(
        base_rate=from_str("0.0001"),
        slope1=from_str("0.0016"),
        slope2=from_str("0.01"),
        kink=from_str("0.8"),
        reserve_factor=from_str("0.1"),
    )
    last = -1
    for i in range(0, 101):
        u = i * WAD // 100
        r_b = model.borrow_rate(u)
        assert r_b >= last
        last = r_b
        assert model.supply_rate(r_b, u) <= r_b


def test_borrow_index_matches_step_loop_oracle():
    # r_b = 0.001/step at U = 0.5 with slope1 = 0.0016, kink 0.8
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "100", "rate_model": RATED})
    p = w.pools["DAI"]
    user(w, "alice", ETH=wad(1000))
    w.pools["ETH"].deposit(w, "alice", wad(1000))
    p.borrow(w, "alice", wad(100), step=0)
    w.ledger.mint(p.account, "DAI", wad(100), GENESIS_AUTHORITY)  # hold cash at 100
    assert utilization(w, p) == from_str("0.5")
    # oracle: literal per-step loop in the same fixed point; borrows are the scaled total times the index
    index = WAD
    scaled = wad(100)  # borrowed at index 1
    cash = p.cash(w)
    for _ in range(10):
        borrows = mul_up(scaled, index)
        util = borrows * WAD // (cash + borrows)
        r_b = p.params.rate_model.borrow_rate(util)
        index = index * (WAD + r_b) // WAD
    for _ in range(10):
        p.accrue(w)
    assert p.borrow_index == index
    assert p.total_borrows == mul_up(scaled, index)


def test_borrow_index_closed_form_at_pinned_utilization():
    # hold U = 0.5 exactly by topping cash to borrows after each step,
    # so every step compounds at exactly 0.001 and B = 1.001^10
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "100", "rate_model": RATED})
    p = w.pools["DAI"]
    user(w, "alice", ETH=wad(1000))
    w.pools["ETH"].deposit(w, "alice", wad(1000))
    p.borrow(w, "alice", wad(100), step=0)
    w.ledger.mint(p.account, "DAI", wad(100), GENESIS_AUTHORITY)
    for _ in range(10):
        assert utilization(w, p) == from_str("0.5")
        p.accrue(w)
        shortfall = p.total_borrows - p.cash(w)
        w.ledger.mint(p.account, "DAI", shortfall, GENESIS_AUTHORITY)
    closed_form = Fraction(1001, 1000) ** 10 * WAD
    assert abs(p.borrow_index - int(closed_form)) <= 10  # per-step wad rounding only
    assert to_str(p.borrow_index).startswith("1.0100451")


def test_idle_accrual_at_zero_base_rate_leaves_state_and_undo_log_unchanged():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "1000", "rate_model": RATED})
    p = w.pools["DAI"]
    user(w, "alice", DAI=wad(100))
    p.deposit(w, "alice", wad(100))
    cp = w.checkpoint()  # open, so a saved attribute would show in the log
    state = (p.borrow_index, p.liquidity_index, p.total_borrows, p.reserves)
    records = list(w.ledger.undo.records)
    for _ in range(5):
        p.accrue(w)
    assert (p.borrow_index, p.liquidity_index, p.total_borrows, p.reserves) == state
    assert w.ledger.undo.records == records
    w.rollback(cp)


def test_idle_accrual_at_nonzero_base_rate_compounds_the_borrow_index():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "1000", "rate_model": dict(RATED, base_rate="0.001")})
    p = w.pools["DAI"]
    for _ in range(3):
        p.accrue(w)
    index = WAD
    for _ in range(3):
        index = index * (WAD + from_str("0.001")) // WAD
    assert p.borrow_index == index > WAD
    assert (p.liquidity_index, p.total_borrows, p.reserves) == (WAD, 0, 0)


def test_exchange_rate_never_decreases_under_accrual():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "1000", "rate_model": RATED})
    p = w.pools["DAI"]
    user(w, "alice", ETH=wad(10000), DAI=wad(500))
    w.pools["ETH"].deposit(w, "alice", wad(10000))
    p.borrow(w, "alice", wad(800), step=0)
    last = p.exchange_rate(w)
    for _ in range(50):
        p.accrue(w)
        rate = p.exchange_rate(w)
        assert rate >= last
        last = rate


# ---------------------------------------------------------------------------
# randomized mode properties
# ---------------------------------------------------------------------------
ops = st.lists(
    st.tuples(st.sampled_from(["deposit", "redeem", "borrow", "repay", "accrue"]),
              st.integers(min_value=1, max_value=wad(100))),
    max_size=30,
)


@given(ops)
@settings(max_examples=40, deadline=None)
def test_exchange_rate_monotone_and_atoken_peg_under_random_ops(op_list):
    w = eth_dai_world(
        eth_pool_overrides={"rate_model": RATED, "initial_cash": "50"},
        dai_pool_overrides={"rate_model": RATED, "initial_cash": "50"},
    )
    user(w, "alice", ETH=wad(200), DAI=wad(200))
    user(w, "whale", ETH=wad(100000))
    w.pools["ETH"].deposit(w, "whale", wad(100000))
    last_rate = w.pools["ETH"].exchange_rate(w)
    for op, amount in op_list:
        for asset in ("ETH", "DAI"):
            p = w.pools[asset]
            try:
                if op == "deposit":
                    p.deposit(w, "alice", amount)
                elif op == "redeem":
                    if p.params.iou_mode == "rebasing":
                        want = min(amount, p.underlying_claim(w, "alice"))
                        got = p.redeem(w, "alice", want, step=0)
                        assert got == want  # 1:1 peg, exact
                    else:
                        p.redeem(w, "alice", amount, step=0)
                elif op == "borrow":
                    p.borrow(w, "alice", amount, step=0)
                elif op == "repay":
                    p.repay(w, "alice", amount)
                else:
                    p.accrue(w)
            except errors.SimError:
                pass
        rate = w.pools["ETH"].exchange_rate(w)
        assert rate >= last_rate
        last_rate = rate
    w.ledger.full_audit()


@given(ops)
# a dust borrow whose debt does not move in the second accrual: a reserve cut of interest nobody
# owes would push claims past the pool's assets
@example([("deposit", 17), ("borrow", 25001), ("accrue", 1), ("accrue", 1)])
@settings(max_examples=30, deadline=None)
def test_solvency_identity_claims_never_exceed_assets(op_list):
    w = eth_dai_world(
        eth_pool_overrides={"rate_model": RATED, "initial_cash": "50"},
        dai_pool_overrides={"rate_model": RATED, "initial_cash": "50"},
    )
    user(w, "alice", ETH=wad(200), DAI=wad(200))
    user(w, "whale", ETH=wad(100000))
    w.pools["ETH"].deposit(w, "whale", wad(100000))
    for op, amount in op_list:
        for asset in ("ETH", "DAI"):
            p = w.pools[asset]
            try:
                if op == "deposit":
                    p.deposit(w, "alice", amount)
                elif op == "redeem":
                    p.redeem(w, "alice", amount, step=0)
                elif op == "borrow":
                    p.borrow(w, "alice", amount, step=0)
                elif op == "repay":
                    p.repay(w, "alice", amount)
                else:
                    p.accrue(w)
            except errors.SimError:
                pass
        for p in w.pools.values():
            claims = sum(
                p.underlying_claim(w, account)
                for account, _ in w.ledger.holders(p.params.iou_asset)
            )
            net = p.cash(w) + p.total_borrows - p.reserves
            assert claims <= net  # dust stays in the pool, never owed


def rendered_from_scratch(w, p, step):
    util = utilization(w, p)
    r_b = p.params.rate_model.borrow_rate(util)
    r_s = p.params.rate_model.supply_rate(r_b, util)
    values = (p.cash(w), p.total_borrows, p.reserves, util, r_b, r_s, p.unit_rate(w), p.iou_supply(w))
    return ",".join([str(step), p.params.asset] + [to_str(v) for v in values])


row_ops = st.lists(
    st.tuples(st.sampled_from(["deposit", "borrow", "repay", "accrue", "fee", "rollback"]),
              st.sampled_from(["ETH", "DAI"]),
              st.integers(min_value=1, max_value=wad(100))),
    max_size=30,
)


@given(row_ops)
# a flash loan's fee reaches the pool's cash first, then its reserves: a row rendered in between
# shares every other raw value with the row after
@example([("fee", "ETH", wad(1))])
@settings(max_examples=50, deadline=None)
def test_telemetry_row_equals_a_row_rendered_from_scratch(op_list):
    w = eth_dai_world(
        eth_pool_overrides={"rate_model": dict(RATED, base_rate="0.0001"), "initial_cash": "50"},
        dai_pool_overrides={"rate_model": RATED, "initial_cash": "50"},
    )
    user(w, "alice", ETH=wad(200), DAI=wad(200))
    user(w, "whale", ETH=wad(100000))
    w.pools["ETH"].deposit(w, "whale", wad(100000))
    step = 0

    def check():
        nonlocal step
        step += 1
        for p in w.pools.values():
            assert p.telemetry_row(w, step) == rendered_from_scratch(w, p, step)

    def apply(op, p, amount):
        if op == "deposit":
            p.deposit(w, "alice", amount)
        elif op == "borrow":
            p.borrow(w, "alice", amount, step=0)
        elif op == "repay":
            p.repay(w, "alice", amount)
        elif op == "accrue":
            p.accrue(w)
        elif op == "fee":
            w.ledger.transfer("alice", p.account, p.params.asset, amount)
            check()
            p.credit_flash_fee(amount)

    check()
    for op, sym, amount in op_list:
        p = w.pools[sym]
        try:
            if op == "rollback":
                cp = w.checkpoint()
                try:
                    apply("borrow", p, amount)
                    apply("accrue", p, amount)
                    check()
                finally:
                    w.rollback(cp)
            else:
                apply(op, p, amount)
        except errors.SimError:
            pass
        check()


def test_telemetry_row_shape():
    w = eth_dai_world()
    row = w.pools["ETH"].telemetry_row(w, 3)
    cells = row.split(",")
    assert cells[0] == "3"
    assert cells[1] == "ETH"
    assert len(cells) == 10
