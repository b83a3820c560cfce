"""Vault engine: issuance bounds, stability fees, stablecoin burn, liquidation."""

from fractions import Fraction

import pytest

from lendsim import errors
from lendsim.fixed import WAD, ceil_div, from_str, to_str, wad

from conftest import build, make_doc, pool_doc, user

TWO_THIRDS = to_str(2 * WAD // 3)


def vault_world(fee="0", penalty="0.13", eth_price="200", fee_gain="0", dai_prices=((0, "1"),), horizon=10):
    cdp = {
        "dai_symbol": "DAI",
        "issuance_fractions": {"ETH": TWO_THIRDS},
        "stability_fee": fee,
        "fee_gain": fee_gain,
        "liquidation_penalty": penalty,
    }
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.8", liquidation_threshold="0.85")],
        prices={"ETH": [[0, eth_price]], "DAI": [list(point) for point in dai_prices]},
        cdp=cdp,
        horizon=horizon,
    )
    return build(doc)


def test_lock_records_collateral():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    assert w.cdp.vault(vid).collateral == {"ETH": wad(10)}
    assert w.ledger.balance("vault-engine", "ETH") == wad(10)


def test_free_all_collateral_from_debt_free_vault():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.free(w, vid, "ETH", wad(10), step=0)
    assert w.ledger.balance("alice", "ETH") == wad(10)


def test_free_that_breaches_bound_rejected():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1000), step=0)  # bound = 2000 * 2/3 = 1333.33
    with pytest.raises(errors.WouldBreachIssuanceBound):
        w.cdp.free(w, vid, "ETH", wad(5), step=0)  # new bound 666.67 < 1000
    w.cdp.free(w, vid, "ETH", wad(1), step=0)  # new bound 1200 >= 1000


def test_vault_ids_continue_from_the_vaults_left_after_a_rollback():
    w = vault_world()
    assert [w.cdp.open_vault(name) for name in ("alice", "bob")] == [1, 2]
    cp = w.checkpoint()
    assert [w.cdp.open_vault(name) for name in ("carol", "dave")] == [3, 4]
    w.rollback(cp)
    assert w.cdp.open_vault("erin") == 3
    assert sorted(w.cdp.vaults) == [1, 2, 3]
    assert w.cdp.vault(3).owner == "erin"


def test_draw_bound_rounds_down():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    bound = w.cdp.issuance_bound(w, w.cdp.vault(vid), 0)
    exact = Fraction(2000) * Fraction(from_str(TWO_THIRDS), WAD)
    assert bound == int(exact * WAD)  # floor of 1333.333...
    w.cdp.draw(w, vid, bound, step=0)
    assert w.ledger.balance("alice", "DAI") == bound
    # at the bound the vault is exactly safe, not liquidatable
    assert not w.cdp.is_unsafe(w, vid, 0)


def test_draw_zero_is_noop():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, 0, step=0)
    assert w.cdp.debt_of(vid) == 0


def test_draw_one_raw_unit_past_bound_rejected():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    bound = w.cdp.issuance_bound(w, w.cdp.vault(vid), 0)
    with pytest.raises(errors.ExceedsIssuanceBound):
        w.cdp.draw(w, vid, bound + 1, step=0)


def test_repay_burns_supply():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1000), step=0)
    assert w.ledger.supply("DAI") == wad(1000)
    applied = w.cdp.repay(w, vid, wad(1000))
    assert applied == wad(1000)
    assert w.cdp.debt_of(vid) == 0
    assert w.ledger.supply("DAI") == 0


def test_partial_repay():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1000), step=0)
    w.cdp.repay(w, vid, wad(400))
    assert w.cdp.debt_of(vid) == wad(600)
    assert w.ledger.supply("DAI") == wad(600)


def test_fee_accrual_matches_step_loop_oracle():
    w = vault_world(fee="0.0001", eth_price="2000")
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1000), step=0)
    for t in range(100):
        w.cdp.accrue(w, t)
    fee = from_str("0.0001")
    expected_index = WAD
    for _ in range(100):
        expected_index = ceil_div(expected_index * (WAD + fee), WAD)
    assert w.cdp.fee_index == expected_index
    debt = w.cdp.debt_of(vid)
    closed_form = Fraction(10001, 10000) ** 100 * 1000
    assert abs(Fraction(debt, WAD) - closed_form) < Fraction(1, 10**9)
    assert to_str(debt).startswith("1010.049")
    # fee is owed on top of principal and burned on full repay
    user(w, "alice", DAI=debt - wad(1000))
    w.cdp.repay(w, vid, debt)
    assert w.ledger.supply("DAI") == 0


def test_zero_fee_keeps_index_constant():
    w = vault_world(fee="0")
    for t in range(10):
        w.cdp.accrue(w, t)
    assert w.cdp.fee_index == WAD


def test_free_is_judged_on_the_collateral_the_vault_keeps():
    # 2 raw ETH at 1.5 bound 1 raw (value 3); keeping 1 raw bounds 0 (value 1), below the debt of 1,
    # though the freed raw unit alone bounds 0 too, which hid the breach
    w = vault_world(eth_price="1.5")
    user(w, "alice", ETH=2)
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", 2)
    w.cdp.draw(w, vid, w.cdp.issuance_bound(w, w.cdp.vault(vid), 0), step=0)
    assert w.cdp.debt_of(vid) == 1
    with pytest.raises(errors.WouldBreachIssuanceBound):
        w.cdp.free(w, vid, "ETH", 1, step=0)
    assert w.cdp.vault(vid).collateral == {"ETH": 2}
    assert not w.cdp.is_unsafe(w, vid, 0)


def test_single_step_fee():
    w = vault_world(fee="0.0001")
    w.cdp.accrue(w, 0)
    assert w.cdp.fee_index == WAD + from_str("0.0001")


def test_constant_fee_matches_closed_form_over_50_steps():
    w = vault_world(fee="0.0003")
    for t in range(50):
        w.cdp.accrue(w, t)
    closed_form = Fraction(10003, 10000) ** 50
    assert abs(Fraction(w.cdp.fee_index, WAD) - closed_form) < Fraction(1, 10**12)


@pytest.mark.parametrize("dai_price, fee", [
    ("1", "0.0001"),  # at the peg: the stability fee
    ("0.99", "0.0002"),  # below it: plus 0.01 x 0.01
    ("1.5", "0"),  # far above it: 0.0001 - 0.005 floors at 0, so the index holds
])
def test_fee_gain_moves_the_fee_against_the_dai_price(dai_price, fee):
    w = vault_world(fee="0.0001", fee_gain="0.01", dai_prices=[(0, dai_price)])
    w.cdp.accrue(w, 0)
    assert w.cdp.fee_index == WAD + from_str(fee)


def test_vault_at_bound_is_safe():
    w = vault_world()
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    bound = w.cdp.issuance_bound(w, w.cdp.vault(vid), 0)
    w.cdp.draw(w, vid, bound, step=0)
    user(w, "liq", DAI=wad(1000))
    with pytest.raises(errors.VaultSafe):
        w.cdp.liquidate(w, "liq", vid, wad(100), "ETH", step=0)


def test_price_drop_makes_vault_liquidatable():
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.8", liquidation_threshold="0.85")],
        prices={"ETH": [[0, "200"], [3, "120"]], "DAI": [[0, "1"]]},
        cdp={
            "dai_symbol": "DAI",
            "issuance_fractions": {"ETH": TWO_THIRDS},
            "stability_fee": "0",
            "liquidation_penalty": "0.13",
        },
    )
    w = build(doc)
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1000), step=0)
    assert not w.cdp.is_unsafe(w, vid, 2)
    assert w.cdp.is_unsafe(w, vid, 3)  # bound 1200*2/3 = 800 < 1000


def test_vault_liquidation_penalty_arithmetic_and_conservation():
    # the draw is near the bound, and fee accrual carries the debt across it
    w = vault_world(fee="0.01", penalty="0.13", eth_price="200")
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1300), step=0)
    for t in range(5):
        w.cdp.accrue(w, t)
    assert w.cdp.is_unsafe(w, vid, 0)
    user(w, "liq", DAI=wad(500))
    supply_before = w.ledger.supply("DAI")
    seized = w.cdp.liquidate(w, "liq", vid, wad(100), "ETH", step=0)
    # repay value 100 -> seized value 113 -> 0.565 ETH at price 200
    assert seized == from_str("0.565")
    assert supply_before - w.ledger.supply("DAI") == wad(100)  # burned
    w.ledger.full_audit()


def test_vault_liquidation_seize_cap_shrinks_repay():
    w = vault_world(fee="0.2", penalty="0.13", eth_price="200")
    user(w, "alice", ETH=wad(10))
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1300), step=0)
    for t in range(5):
        w.cdp.accrue(w, t)
    debt = w.cdp.debt_of(vid)
    assert debt > wad(2000)  # worth more than all collateral
    user(w, "liq", DAI=debt)
    seized = w.cdp.liquidate(w, "liq", vid, debt, "ETH", step=0)
    assert seized == wad(10)  # everything
    repaid = debt - w.cdp.debt_of(vid)
    # 2000 usd of collateral at 13% penalty covers ~1769.9 of debt
    assert abs(repaid - from_str("1769.911504424778761062")) <= 2


def test_fee_index_monotone_as_the_dai_price_swings():
    swings = [(0, "1"), (4, "0.97"), (8, "1.02"), (12, "1.3"), (16, "0.9")]  # 1.3 floors the fee at 0
    w = vault_world(fee="0.0001", fee_gain="0.05", dai_prices=swings, horizon=20)
    last = w.cdp.fee_index
    for t in range(20):
        w.cdp.accrue(w, t)
        assert w.cdp.fee_index >= last
        last = w.cdp.fee_index


def test_zero_amount_operations_write_nothing():
    w = vault_world()
    user(w, "alice", ETH=wad(10), DAI=wad(1000))
    p = w.pools["DAI"]
    p.deposit(w, "alice", wad(500))
    p.borrow(w, "alice", wad(100), step=0)
    vid = w.cdp.open_vault("alice")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(100), 0)
    w.ledger.undo.touched.clear()

    def state():
        return (len(w.ledger.journal), w.ledger.total_writes(), p.positions.writes, w.cdp.debts.writes,
                set(w.ledger.undo.touched), dict(w.cdp.vault(vid).collateral))

    before = state()
    assert p.deposit(w, "alice", 0) == 0
    assert p.redeem(w, "alice", 0, step=0) == 0
    p.borrow(w, "alice", 0, step=0)
    assert p.repay(w, "alice", 0) == 0
    w.cdp.lock(w, vid, "ETH", 0)
    w.cdp.free(w, vid, "ETH", 0, 0)
    w.cdp.draw(w, vid, 0, 0)
    assert w.cdp.repay(w, vid, 0) == 0
    assert state() == before
