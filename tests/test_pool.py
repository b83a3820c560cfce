"""Pool mechanics: IOU accounting in both modes, rates, accrual oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendsim import errors
from lendsim.fixed import WAD, ceil_div, from_str, to_str, wad
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


def test_redeem_requires_iou_balance():
    w = eth_dai_world()
    p = w.pools["ETH"]
    user(w, "alice", ETH=wad(10))
    p.deposit(w, "alice", wad(10))
    with pytest.raises(errors.InsufficientIOU):
        p.redeem(w, "alice", wad(11), step=0)


def test_paused_pool_rejects_deposits():
    w = eth_dai_world()
    p = w.pools["ETH"]
    p.paused = True
    user(w, "alice", ETH=wad(10))
    with pytest.raises(errors.PoolPaused):
        p.deposit(w, "alice", wad(10))


# ---------------------------------------------------------------------------
# collateral flags
# ---------------------------------------------------------------------------
def test_flag_off_with_no_debt_is_allowed():
    w = eth_dai_world()
    user(w, "alice", ETH=wad(10))
    w.pools["ETH"].deposit(w, "alice", wad(10))
    w.pools["ETH"].set_collateral_flag(w, "alice", False, step=0)
    assert w.pools["ETH"].collateral_on["alice"] is False


def test_flag_off_at_max_borrow_is_rejected():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "1000000"})
    user(w, "alice", ETH=wad(10))
    w.pools["ETH"].deposit(w, "alice", wad(10))
    w.pools["DAI"].borrow(w, "alice", wad(15000), step=0)  # power = 10*2000*0.75
    with pytest.raises(errors.WouldBecomeUndercollateralized):
        w.pools["ETH"].set_collateral_flag(w, "alice", False, step=0)


def test_flag_off_allowed_when_other_collateral_covers():
    # collateral: 10 ETH (20000 usd, threshold 0.8) + 30000 DAI (threshold 0.85)
    # debt: 10000 DAI. Dropping the ETH flag leaves threshold 25500 >= 10000.
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "1000000"})
    user(w, "alice", ETH=wad(10), DAI=wad(30000))
    w.pools["ETH"].deposit(w, "alice", wad(10))
    w.pools["DAI"].deposit(w, "alice", wad(30000))
    w.pools["DAI"].borrow(w, "alice", wad(10000), step=0)
    w.pools["ETH"].set_collateral_flag(w, "alice", False, step=0)
    from lendsim import liquidation

    report = liquidation.account_totals(w, "alice", 0)
    assert report.health_factor >= WAD


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
    p.accrue(w, 25)
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
    assert p.utilization(w) == from_str("0.5")
    # oracle: literal per-step loop in the same fixed point
    index = WAD
    borrows = wad(100)
    cash = p.cash(w)
    for _ in range(10):
        util = borrows * WAD // (cash + borrows)
        r_b = p.params.rate_model.borrow_rate(util)
        index = index * (WAD + r_b) // WAD
        borrows += ceil_div(borrows * r_b, WAD)
    p.accrue(w, 10)
    assert p.borrow_index == index
    assert p.total_borrows == borrows


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
        assert p.utilization(w) == from_str("0.5")
        p.accrue(w, 1)
        shortfall = p.total_borrows - p.cash(w)
        w.ledger.mint(p.account, "DAI", shortfall, GENESIS_AUTHORITY)
    closed_form = Fraction(1001, 1000) ** 10 * WAD
    assert abs(p.borrow_index - int(closed_form)) <= 10  # per-step wad rounding only
    assert to_str(p.borrow_index).startswith("1.0100451")


def test_exchange_rate_never_decreases_under_accrual():
    w = eth_dai_world(dai_pool_overrides={"initial_cash": "1000", "rate_model": RATED})
    p = w.pools["DAI"]
    user(w, "alice", ETH=wad(10000), DAI=wad(500))
    w.pools["ETH"].deposit(w, "alice", wad(10000))
    p.borrow(w, "alice", wad(800), step=0)
    last = p.exchange_rate(w)
    for _ in range(50):
        p.accrue(w, 1)
        rate = p.exchange_rate(w)
        assert rate >= last
        last = rate


# ---------------------------------------------------------------------------
# stable rate mode
# ---------------------------------------------------------------------------
def stable_world():
    return eth_dai_world(dai_pool_overrides={"initial_cash": "1000", "rate_model": RATED, "stable_rate_premium": "0.0002"})


def test_switch_back_and_forth_preserves_debt():
    w = stable_world()
    p = w.pools["DAI"]
    user(w, "alice", ETH=wad(100))
    w.pools["ETH"].deposit(w, "alice", wad(100))
    p.borrow(w, "alice", wad(500), step=0)
    before = p.debt_of("alice")
    p.switch_rate_mode(w, "alice")
    mid = p.debt_of("alice")
    p.switch_rate_mode(w, "alice")
    after = p.debt_of("alice")
    assert abs(mid - before) <= 1
    assert abs(after - mid) <= 1


def test_stable_debt_accrues_at_snapshot_despite_utilization_change():
    w = stable_world()
    p = w.pools["DAI"]
    user(w, "alice", ETH=wad(1000))
    user(w, "bob", ETH=wad(10000))
    w.pools["ETH"].deposit(w, "alice", wad(1000))
    w.pools["ETH"].deposit(w, "bob", wad(10000))
    p.borrow(w, "alice", wad(100), stable := "stable", step=0)
    snapshot = p.positions["alice"].stable_rate
    p.borrow(w, "bob", wad(700), step=0)  # utilization jumps, variable rate rises
    assert p.current_stable_rate(w) > snapshot
    debt0 = p.debt_of("alice")
    p.accrue(w, 20)
    expected = debt0
    for _ in range(20):
        expected = ceil_div(expected * (WAD + snapshot), WAD)
    assert p.debt_of("alice") == expected


def test_stable_with_zero_premium_matches_variable_at_constant_utilization():
    # two identical pools, one borrower each, same utilization path
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[
            pool_doc("ETH", "cETH"),
            pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.8", liquidation_threshold="0.85",
                     initial_cash="1000", rate_model=RATED, stable_rate_premium="0"),
        ],
        prices={"ETH": [[0, "2000"]], "DAI": [[0, "1"]]},
    )
    w1, w2 = build(doc), build(doc)
    for w, mode in ((w1, "variable"), (w2, "stable")):
        user(w, "alice", ETH=wad(100))
        w.pools["ETH"].deposit(w, "alice", wad(100))
        w.pools["DAI"].borrow(w, "alice", wad(500), mode, step=0)
        w.pools["DAI"].accrue(w, 1)  # one step: same starting utilization
    v = w1.pools["DAI"].debt_of("alice")
    s = w2.pools["DAI"].debt_of("alice")
    assert abs(v - s) <= 2


def test_borrow_in_conflicting_mode_rejected():
    w = stable_world()
    p = w.pools["DAI"]
    user(w, "alice", ETH=wad(100))
    w.pools["ETH"].deposit(w, "alice", wad(100))
    p.borrow(w, "alice", wad(100), "variable", step=0)
    with pytest.raises(errors.RateModeMismatch):
        p.borrow(w, "alice", wad(100), "stable", step=0)


def test_stable_debt_is_booked_into_total_borrows_at_its_own_rate():
    # alice's stable snapshot is below bob's variable rate: booking her debt
    # at the variable rate overstated the pool's borrows (and utilization)
    w = stable_world()
    p = w.pools["DAI"]
    user(w, "alice", ETH=wad(1000))
    user(w, "bob", ETH=wad(10000))
    w.pools["ETH"].deposit(w, "alice", wad(1000))
    w.pools["ETH"].deposit(w, "bob", wad(10000))
    p.borrow(w, "alice", wad(100), "stable", step=0)
    p.borrow(w, "bob", wad(700), step=0)
    for _ in range(199):
        p.accrue(w, 1)
    assert abs(p.total_borrows - (p.debt_of("alice") + p.debt_of("bob"))) <= 10**6  # variable-side rounding


def test_stable_only_pool_books_its_borrows_exactly():
    w = stable_world()
    p = w.pools["DAI"]
    for name, amount in (("alice", 100), ("bob", 500)):  # bob's snapshot prices a higher utilization
        user(w, name, ETH=wad(1000))
        w.pools["ETH"].deposit(w, name, wad(1000))
        p.borrow(w, name, wad(amount), "stable", step=0)
    assert p.positions["alice"].stable_rate < p.positions["bob"].stable_rate
    for _ in range(199):
        p.accrue(w, 1)
    assert p.total_borrows == p.debt_of("alice") + p.debt_of("bob")


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
                    p.accrue(w, 1)
            except errors.SimError:
                pass
        rate = w.pools["ETH"].exchange_rate(w)
        assert rate >= last_rate
        last_rate = rate
    w.ledger.full_audit()


@given(ops)
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
                    p.accrue(w, 1)
            except errors.SimError:
                pass
        for p in w.pools.values():
            claims = sum(
                p.underlying_claim(w, account)
                for account, _ in w.ledger.holders(p.params.iou_asset)
            )
            net = p.cash(w) + p.total_borrows - p.reserves
            assert claims <= net  # dust stays in the pool, never owed


def test_telemetry_row_shape():
    w = eth_dai_world()
    row = w.pools["ETH"].telemetry_row(w, 3)
    cells = row.split(",")
    assert cells[0] == "3"
    assert cells[1] == "ETH"
    assert len(cells) == 10
