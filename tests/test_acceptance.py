"""End-to-end acceptance gate.

Each criterion is one test that prints a PASS line on success (run with
`pytest tests/test_acceptance.py -s` to see them). Oracles here are
independent re-computations: literal per-step loops in the same fixed point,
60-digit decimal recursions, exhaustive grids, and brute-force searches.
"""

import filecmp
import hashlib
import json
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from lendsim import errors, flashloan, liquidation
from lendsim.agents import run_borrow_spiral
from lendsim.cli import main
from lendsim.fixed import WAD, ceil_div, from_str, mul_down, mul_up, to_str, wad
from lendsim.flashloan import BuyStep, Committed, FlashPlan, LiquidateStep, Reverted, SellStep
from lendsim.ledger import GENESIS_AUTHORITY
from lendsim.pool import RateModelParams
from lendsim.scenario import parse_scenario, validate_scenario
from lendsim.simulation import SimulationEngine

from conftest import DIGESTS, build, make_doc, pool_doc, user

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def ok(n, label):
    print(f"ACCEPTANCE {n:>2} PASS  {label}")


# ---------------------------------------------------------------------------
# 1. atomicity: reverted flash plans leave only the gas record
# ---------------------------------------------------------------------------
def test_criterion_1_flash_loan_atomicity():
    doc = make_doc(
        assets=["XYZ", "USD"],
        pools=[pool_doc("XYZ", "cXYZ", flash_fee="0.0009", initial_cash="100000")],
        venues=[
            {"kind": "quote", "id": "A", "numeraire": "USD", "quotes": {"XYZ": "10.2"},
             "fee_bps": 20, "inventory": {"XYZ": "30000", "USD": "400000"}},
            {"kind": "quote", "id": "B", "numeraire": "USD", "quotes": {"XYZ": "10"},
             "fee_bps": 30, "inventory": {"XYZ": "30000", "USD": "400000"}},
            {"kind": "amm", "id": "amm1", "pair": ["XYZ", "USD"], "reserves": ["20000", "200000"], "fee_bps": 30},
        ],
        prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]},
        gas={"asset": "USD", "fee": "0.01"},
    )
    w = build(doc)
    user(w, "trader", USD=wad(100000), XYZ=wad(100))
    rng = random.Random(20260809)
    gas_fee = from_str("0.01")
    reverted = committed = 0
    started = time.perf_counter()
    for _ in range(1000):
        size = wad(rng.randint(1, 40000))  # often above pool cash or inventories
        steps = []
        for _ in range(rng.randint(1, 3)):
            venue = rng.choice(["A", "B", "amm1"])
            if venue == "amm1":
                asset_in = rng.choice(["XYZ", "USD"])
                steps.append(SellStep(venue, asset_in, wad(rng.randint(1, 5000))))
            elif rng.random() < 0.5:
                steps.append(SellStep(venue, "XYZ", wad(rng.randint(1, 5000))))
            else:
                steps.append(BuyStep(venue, "XYZ", wad(rng.randint(1, 5000))))
        if rng.random() < 0.5:
            # deliberate repay shortfall: dump the whole loan with no buy-back
            steps = [SellStep(rng.choice(["A", "B"]), "XYZ", None)]
        plan = FlashPlan("trader", "XYZ", size, steps, profit_asset="USD")
        journal_before = list(w.ledger.journal)  # records are immutable tuples
        trader_usd = w.ledger.balance("trader", "USD")
        try:
            outcome = flashloan.execute(w, plan, 0)
        except errors.SimError:
            assert list(w.ledger.journal) == journal_before
            continue
        if isinstance(outcome, Reverted):
            reverted += 1
            journal_after = list(w.ledger.journal)
            assert journal_after[:-1] == journal_before, "rolled-back mutations leaked"
            gas_record = journal_after[-1]
            assert gas_record.tag == "gas" and gas_record.amount == gas_fee
            assert w.ledger.balance("trader", "USD") == trader_usd - gas_fee
        else:
            committed += 1
        assert w.ledger.open_checkpoints() == 0
    elapsed = time.perf_counter() - started
    w.ledger.full_audit()
    assert reverted >= 100 and committed >= 10  # both outcome kinds exercised
    assert elapsed < 10.0
    ok(1, f"1000 random flash plans, {reverted} reverted bit-exactly, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. conservation over 10,000 random operations
# ---------------------------------------------------------------------------
def random_op_world():
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[
            pool_doc("ETH", "cETH", initial_cash="500",
                     rate_model={"slope1": "0.0002", "slope2": "0.002", "reserve_factor": "0.1"}),
            pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.7", liquidation_threshold="0.8",
                     liquidation_bonus="0.05", initial_cash="800000",
                     rate_model={"slope1": "0.0002", "slope2": "0.002", "reserve_factor": "0.1"}),
        ],
        venues=[
            {"kind": "amm", "id": "amm1", "pair": ["ETH", "DAI"], "reserves": ["500", "1000000"], "fee_bps": 30},
            {"kind": "quote", "id": "q1", "numeraire": "DAI", "quotes": {"ETH": "2000"},
             "fee_bps": 20, "inventory": {"ETH": "1000", "DAI": "2000000"}},
        ],
        prices={"ETH": [[0, "2000"], [5, "1500"], [10, "1900"], [15, "1200"], [20, "2100"]],
                "DAI": [[0, "1"]]},
        horizon=40,
    )
    return build(doc)


def run_random_ops(w, count, seed, on_op=None):
    rng = random.Random(seed)
    accounts = [user(w, f"u{i}", ETH=wad(200), DAI=wad(100000)) for i in range(6)]
    step = 0
    for i in range(count):
        if i % 250 == 249:
            step = min(step + 1, 39)
            for p in w.pools.values():
                p.accrue(w)
        account = rng.choice(accounts)
        asset = rng.choice(["ETH", "DAI"])
        p = w.pools[asset]
        amount = wad(rng.randint(1, 120))
        op = rng.choice(["deposit", "redeem", "borrow", "repay", "liquidate", "swap", "sell"])
        try:
            if op == "deposit":
                p.deposit(w, account, amount)
            elif op == "redeem":
                p.redeem(w, account, amount, step=step)
            elif op == "borrow":
                p.borrow(w, account, amount, step=step)
            elif op == "repay":
                p.repay(w, account, amount)
            elif op == "liquidate":
                target = rng.choice(accounts)
                liquidation.liquidate(w, account, target, asset,
                                      rng.choice(["ETH", "DAI"]), amount, step)
            elif op == "swap":
                w.venues["amm1"].swap(w, account, asset, amount)
            else:
                w.venues["q1"].sell(w, account, "ETH", min(amount, wad(5)))
        except errors.SimError:
            pass
        if on_op is not None:
            on_op(step)
    return accounts


def test_criterion_2_conservation_random_walk():
    w = random_op_world()
    started = time.perf_counter()
    run_random_ops(w, 10_000, seed=777)
    elapsed = time.perf_counter() - started
    # independent totals: mint/burn-adjusted sums recomputed from the journal
    for asset in w.ledger.assets():
        minted = sum(r.amount for r in w.ledger.journal if r.op == "mint" and r.asset == asset)
        burned = sum(r.amount for r in w.ledger.journal if r.op == "burn" and r.asset == asset)
        total = sum(w.ledger.balance(a, asset) for a in w.ledger.accounts())
        assert total - (minted - burned) == 0, asset
    w.ledger.full_audit()
    assert elapsed < 10.0
    ok(2, f"10,000 random ops conserve every asset exactly, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. accrual equivalence: per-step loop (exact) and 60-digit recursion (1e-9)
# ---------------------------------------------------------------------------
def test_criterion_3_accrual_oracle_equivalence():
    rng = random.Random(31415)
    for case in range(100):
        model = RateModelParams(
            base_rate=rng.randint(0, 10**14),
            slope1=rng.randint(0, 10**15),
            slope2=rng.randint(0, 10**16),
            kink=rng.randint(10**17, 9 * 10**17),
            reserve_factor=rng.randint(0, 5 * 10**17),
        )
        doc = make_doc(
            assets=["GLD"],
            pools=[pool_doc("GLD", "cGLD", initial_cash="1")],
            prices={"GLD": [[0, "1"]]},
        )
        w = build(doc)
        p = w.pools["GLD"]
        p.params.rate_model = model

        # exact mirror state (same fixed point) and high-precision mirror
        cash = wad(rng.randint(1, 10**6))
        scaled = wad(rng.randint(1, 10**6))  # booked at index 1, so the scaled debt is the amount
        w.ledger.mint(p.account, "GLD", cash - p.cash(w), GENESIS_AUTHORITY)
        p.positions.add("mirror", scaled, p.borrow_index)
        index = WAD
        liq_index = WAD
        reserves = 0
        with localcontext() as ctx:
            ctx.prec = 60
            d_index = Decimal(1)
            d_borrows = Decimal(scaled) / WAD
            total_steps = 0
            while total_steps < 500:
                seg = min(rng.randint(1, 120), 500 - total_steps)
                total_steps += seg
                # jolt the utilization path by moving cash
                new_cash = wad(rng.randint(1, 10**6))
                delta = new_cash - cash
                if delta >= 0:
                    w.ledger.mint(p.account, "GLD", delta, GENESIS_AUTHORITY)
                else:
                    w.ledger.burn(p.account, "GLD", -delta, GENESIS_AUTHORITY)
                cash = new_cash
                d_cash = Decimal(cash) / WAD

                for _ in range(seg):
                    borrows = mul_up(scaled, index)
                    util = borrows * WAD // (cash + borrows) if cash + borrows else 0
                    r_b = model.borrow_rate(util)
                    r_s = model.supply_rate(r_b, util)
                    index = index * (WAD + r_b) // WAD
                    liq_index = liq_index * (WAD + r_s) // WAD
                    # the reserve's share of the interest the borrows accrued, rounded up
                    reserves += ceil_div((mul_up(scaled, index) - borrows) * model.reserve_factor, WAD)

                    d_util = d_borrows / (d_cash + d_borrows)
                    d_kink = Decimal(model.kink) / WAD
                    if d_util <= d_kink:
                        d_rb = Decimal(model.base_rate) / WAD + Decimal(model.slope1) / WAD * d_util / d_kink
                    else:
                        d_rb = (
                            Decimal(model.base_rate) / WAD
                            + Decimal(model.slope1) / WAD
                            + Decimal(model.slope2) / WAD * (d_util - d_kink) / (1 - d_kink)
                        )
                    d_index *= 1 + d_rb
                    d_borrows *= 1 + d_rb

                for _ in range(seg):
                    p.accrue(w)
                assert p.borrow_index == index, f"case {case}: index mismatch"
                assert p.liquidity_index == liq_index, f"case {case}: liquidity index mismatch"
                assert p.total_borrows == mul_up(scaled, index), f"case {case}: borrows mismatch"
                assert p.reserves == reserves, f"case {case}: reserves mismatch"

            rel = abs(Decimal(p.borrow_index) / WAD - d_index) / d_index
            assert rel < Decimal("1e-9"), f"case {case}: drift {rel}"
    ok(3, "100 random rate configs: step-loop exact, high-precision recursion < 1e-9")


# ---------------------------------------------------------------------------
# 4. exchange-rate monotonicity and rebasing 1:1 peg
# ---------------------------------------------------------------------------
def test_criterion_4_iou_monotonicity_and_peg():
    w = random_op_world()
    p_eth = w.pools["ETH"]
    p_dai = w.pools["DAI"]
    state = {"last": p_eth.exchange_rate(w)}

    def check(step):
        rate = p_eth.exchange_rate(w)
        assert rate >= state["last"], "exchange rate decreased"
        state["last"] = rate

    accounts = run_random_ops(w, 4_000, seed=555, on_op=check)
    # rebasing redemptions pay the displayed balance exactly while cash allows
    paid = 0
    for account in accounts:
        claim = p_dai.underlying_claim(w, account)
        if claim and claim <= p_dai.cash(w):
            try:
                got = p_dai.redeem(w, account, claim, step=39)
            except errors.SimError:
                continue
            assert got == claim, "rebasing redemption broke the 1:1 peg"
            paid += 1
    assert paid >= 3
    ok(4, f"rate monotone across 4,000 ops; {paid} rebasing redemptions paid 1:1 exactly")


# ---------------------------------------------------------------------------
# 5. borrow-spiral geometry vs geometric series
# ---------------------------------------------------------------------------
def test_criterion_5_borrow_spiral_geometry():
    doc = make_doc(
        assets=["DAI"],
        pools=[pool_doc("DAI", "cDAI", collateral_factor="0.75", liquidation_threshold="0.9")],
        prices={"DAI": [[0, "1"]]},
    )
    w = build(doc)
    user(w, "farmer", DAI=wad(100))
    report = run_borrow_spiral(w, "farmer", "DAI", wad(100), 0, min_action=from_str("0.000001"))
    c = Fraction(3, 4)
    deposit_partial = Fraction(0)
    borrow_partial = Fraction(0)
    # two rounding sites per iteration (borrow floor + headroom floor)
    for k in range(len(report.deposits)):
        deposit_partial += Fraction(100) * c**k
        assert abs(sum(report.deposits[: k + 1]) - int(deposit_partial * WAD)) <= 2 * (k + 1)
    for k in range(len(report.borrows)):
        borrow_partial += Fraction(100) * c ** (k + 1)
        assert abs(sum(report.borrows[: k + 1]) - int(borrow_partial * WAD)) <= 2 * (k + 2)
    assert abs(report.total_deposited - wad(400)) <= wad(400) // 10**6
    assert abs(report.total_borrowed - wad(300)) <= wad(300) // 10**6
    ok(5, f"spiral reached {to_str(report.total_deposited)} / {to_str(report.total_borrowed)} "
          f"in {report.iterations} iterations")


# ---------------------------------------------------------------------------
# 6. liquidation grid vs rational arithmetic
# ---------------------------------------------------------------------------
def liquidation_grid_world(li):
    threshold = to_str(li * WAD // 20)
    doc = make_doc(
        assets=["COL", "DEBT"],
        pools=[
            pool_doc("COL", "cCOL", collateral_factor="0.01", liquidation_threshold=threshold,
                     liquidation_bonus="0.05", close_factor="0.5"),
            pool_doc("DEBT", "cDEBT", initial_cash="200000", liquidation_bonus="0.05", close_factor="0.5"),
        ],
        prices={"COL": [[0, "1"]], "DEBT": [[0, "1"]]},
    )
    w = build(doc)
    for c in range(1, 21):
        for d in range(1, 21):
            account = user(w, f"u-{c}-{d}", COL=wad(c))
            w.pools["COL"].deposit(w, account, wad(c))
            w.pools["DEBT"].positions.add(account, wad(d), w.pools["DEBT"].borrow_index)
    return w


def test_criterion_6_liquidation_grid_and_health_direction():
    bonus = Fraction(21, 20)  # 1.05
    mismatches = 0
    checked = improved_domain = 0
    for li in range(1, 21):
        w = liquidation_grid_world(li)
        ell = Fraction(li, 20)
        floor = ell * bonus
        user(w, "keeper", DEBT=wad(100000))
        for c in range(1, 21):
            for d in range(1, 21):
                account = f"u-{c}-{d}"
                report = liquidation.account_totals(w, account, 0)
                exact_liquidatable = Fraction(c) * ell < Fraction(d)
                if report.liquidatable != exact_liquidatable:
                    mismatches += 1
                    continue
                if not exact_liquidatable:
                    continue
                checked += 1
                hf_before = Fraction(report.threshold_value, report.debt_value)
                repay = mul_down(w.pools["DEBT"].debt_of(account), from_str("0.5"))
                if repay == 0:
                    continue
                liquidation.liquidate(w, "keeper", account, "DEBT", "COL", repay, 0)
                after = liquidation.account_totals(w, account, 0)
                hf_after = (
                    Fraction(after.threshold_value, after.debt_value)
                    if after.debt_value
                    else None
                )
                if floor < 1 and hf_before >= floor:
                    improved_domain += 1
                    assert hf_after is None or hf_after >= hf_before - Fraction(1, 10**12), (c, li, d)
                elif floor < 1 and hf_before < floor:
                    # exact characterization: below the bonus-weighted threshold
                    # a close-factor liquidation cannot raise the health factor
                    assert hf_after is None or hf_after <= hf_before + Fraction(1, 10**12), (c, li, d)
    assert mismatches == 0
    assert checked > 1000 and improved_domain > 100
    ok(6, f"8000-point grid agrees with rational oracle; {improved_domain} improvement cases verified")


@pytest.mark.xfail(
    strict=True,
    reason="a bonus-weighted threshold below 1 does not make liquidation improve"
    " positions whose health factor is already below threshold*(1+bonus);"
    " the exact direction law is asserted in criterion 6",
)
def test_criterion_6_literal_universal_improvement():
    w = liquidation_grid_world(10)  # threshold 0.5, bonus 0.05 -> product 0.525 < 1
    user(w, "keeper", DEBT=wad(100000))
    for c in range(1, 21):
        for d in range(1, 21):
            account = f"u-{c}-{d}"
            report = liquidation.account_totals(w, account, 0)
            if not report.liquidatable:
                continue
            before = report.health_factor
            repay = mul_down(w.pools["DEBT"].debt_of(account), from_str("0.5"))
            if repay == 0:
                continue
            liquidation.liquidate(w, "keeper", account, "DEBT", "COL", repay, 0)
            after = liquidation.account_totals(w, account, 0)
            assert after.health_factor is None or after.health_factor >= before


# ---------------------------------------------------------------------------
# 7. two-venue price gap: committed profit == size * gap
# ---------------------------------------------------------------------------
def test_criterion_7_price_gap_profit_exact():
    doc = make_doc(
        assets=["XYZ", "USD"],
        pools=[pool_doc("XYZ", "cXYZ", flash_fee="0", initial_cash="100000")],
        venues=[
            {"kind": "quote", "id": "A", "numeraire": "USD", "quotes": {"XYZ": "11"},
             "fee_bps": 0, "inventory": {"XYZ": "0", "USD": "10000000"}},
            {"kind": "quote", "id": "B", "numeraire": "USD", "quotes": {"XYZ": "10"},
             "fee_bps": 0, "inventory": {"XYZ": "1000000", "USD": "0"}},
        ],
        prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]},
    )
    w = build(doc)
    user(w, "trader")
    for size in (1, wad(1), wad(137), from_str("999.999999999999999999")):
        plan = FlashPlan("trader", "XYZ", size,
                         [SellStep("A", "XYZ", size), BuyStep("B", "XYZ", size)],
                         profit_asset="USD")
        before = w.ledger.balance("trader", "USD")
        outcome = flashloan.execute(w, plan, 0)
        assert isinstance(outcome, Committed)
        assert outcome.profit == size  # price gap of exactly 1 USD per unit
        assert w.ledger.balance("trader", "USD") - before == size
    ok(7, "gap plan profit equals size for sizes from 1 raw unit to ~1000 units")


# ---------------------------------------------------------------------------
# 8. crash-scenario liquidation loan: profit = x2 - x1*(1+fee) - gas
# ---------------------------------------------------------------------------
def test_criterion_8_liquidation_loan_end_to_end():
    phi = from_str("0.0009")
    gas = from_str("0.5")
    doc = make_doc(
        assets=["ABC", "XYZ"],
        pools=[
            pool_doc("ABC", "cABC", liquidation_threshold="0.8", liquidation_bonus="0.05",
                     close_factor="0.5"),
            pool_doc("XYZ", "cXYZ", initial_cash="100000", flash_fee="0.0009"),
        ],
        venues=[
            {"kind": "quote", "id": "V", "numeraire": "XYZ", "quotes": {"ABC": "8"},
             "fee_bps": 0, "inventory": {"ABC": "0", "XYZ": "1000000"}},
        ],
        prices={"ABC": [[0, "10"], [4, "8"]], "XYZ": [[0, "1"]]},
        gas={"asset": "XYZ", "fee": "0.5"},
    )
    w = build(doc)
    user(w, "victim", ABC=wad(1000))
    w.pools["ABC"].deposit(w, "victim", wad(1000))
    w.pools["XYZ"].borrow(w, "victim", wad(7000), step=0)
    user(w, "keeper", XYZ=wad(1))

    x1 = wad(3500)
    plan = FlashPlan(
        "keeper", "XYZ", x1,
        [LiquidateStep("victim", "XYZ", "ABC", x1), SellStep("V", "ABC", None)],
        profit_asset="XYZ",
    )
    outcome = flashloan.execute(w, plan, 4)
    assert isinstance(outcome, Committed)
    event = [e for e in w.events if e.get("kind") == "liquidation"][0]
    seized = from_str(event["seized_amt"])
    x2 = w.venues["V"].sell_quote("ABC", seized)
    assert x2 > x1
    expected = x2 - (x1 + mul_up(x1, phi)) - gas
    assert abs(outcome.profit - expected) <= 1
    assert outcome.profit > 0
    w.ledger.full_audit()
    ok(8, f"crash plan committed: x1 {to_str(x1)}, x2 {to_str(x2)}, profit {to_str(outcome.profit)}")


# ---------------------------------------------------------------------------
# 9. scanner soundness: expected profit realized on execution
# ---------------------------------------------------------------------------
def test_criterion_9_scanner_soundness():
    checked_quote = checked_amm = checked_liq = 0

    # quote-quote gaps at assorted prices: exact equality required
    for p_a, p_b in (("11", "10"), ("10.07", "10"), ("503.2", "500")):
        doc = make_doc(
            assets=["XYZ", "USD"],
            pools=[pool_doc("XYZ", "cXYZ", flash_fee="0.0009", initial_cash="5000")],
            venues=[
                {"kind": "quote", "id": "A", "numeraire": "USD", "quotes": {"XYZ": p_a},
                 "fee_bps": 10, "inventory": {"XYZ": "10000", "USD": "10000000"}},
                {"kind": "quote", "id": "B", "numeraire": "USD", "quotes": {"XYZ": p_b},
                 "fee_bps": 10, "inventory": {"XYZ": "10000", "USD": "10000000"}},
            ],
            prices={"XYZ": [[0, p_b]], "USD": [[0, "1"]]},
        )
        w = build(doc)
        user(w, "runner")
        for opp in flashloan.scan_arbitrage(w, 0, borrower="runner"):
            outcome = flashloan.execute(w, opp.plan, 0)
            assert isinstance(outcome, Committed)
            assert outcome.profit == opp.expected_profit  # quote venues: exact
            checked_quote += 1

    # AMM leg: within 0.1%
    for reserves in (("10000", "90000"), ("5000", "60000"), ("20000", "180000")):
        doc = make_doc(
            assets=["XYZ", "USD"],
            pools=[pool_doc("XYZ", "cXYZ", flash_fee="0", initial_cash="100000")],
            venues=[
                {"kind": "amm", "id": "amm1", "pair": ["XYZ", "USD"], "reserves": list(reserves), "fee_bps": 30},
                {"kind": "quote", "id": "Q", "numeraire": "USD", "quotes": {"XYZ": "10"},
                 "fee_bps": 0, "inventory": {"XYZ": "1000000", "USD": "1000000"}},
            ],
            prices={"XYZ": [[0, "10"]], "USD": [[0, "1"]]},
        )
        w = build(doc)
        user(w, "runner")
        found = flashloan.scan_arbitrage(w, 0, borrower="runner")
        assert found
        outcome = flashloan.execute(w, found[0].plan, 0)
        assert isinstance(outcome, Committed)
        assert abs(outcome.profit - found[0].expected_profit) <= max(found[0].expected_profit // 1000, 1)
        checked_amm += 1

    # liquidation opportunities: scratch-simulated, must replay identically
    for drop in ("8", "7", "6.5"):
        doc = make_doc(
            assets=["ABC", "XYZ"],
            pools=[
                pool_doc("ABC", "cABC", liquidation_bonus="0.05", close_factor="0.5"),
                pool_doc("XYZ", "cXYZ", initial_cash="100000", flash_fee="0.0009"),
            ],
            venues=[{"kind": "quote", "id": "V", "numeraire": "XYZ", "quotes": {"ABC": drop},
                     "fee_bps": 0, "inventory": {"ABC": "0", "XYZ": "1000000"}}],
            prices={"ABC": [[0, "10"], [2, drop]], "XYZ": [[0, "1"]]},
        )
        w = build(doc)
        user(w, "victim", ABC=wad(1000))
        w.pools["ABC"].deposit(w, "victim", wad(1000))
        w.pools["XYZ"].borrow(w, "victim", wad(7000), step=0)
        user(w, "runner")
        found = flashloan.scan_liquidations(w, 2, borrower="runner")
        assert found
        outcome = flashloan.execute(w, found[0].plan, 2)
        assert isinstance(outcome, Committed)
        assert outcome.profit == found[0].expected_profit
        checked_liq += 1

    assert checked_quote >= 3 and checked_amm == 3 and checked_liq == 3
    ok(9, f"{checked_quote} quote, {checked_amm} AMM, {checked_liq} liquidation opportunities replayed")


# ---------------------------------------------------------------------------
# 10. determinism of the market-snapshot fixture
# ---------------------------------------------------------------------------
def test_criterion_10_fixture_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["run", "--scenario", str(SCENARIOS / "table1.json"), "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    names = ["pools.csv", "vaults.csv", "events.jsonl", "rewards.csv", "summary.json"]
    match, mismatch, errs = filecmp.cmpfiles(a, b, names, shallow=False)
    assert match == names and not mismatch and not errs
    summary = json.loads((a / "summary.json").read_text())
    assert summary["initial_tvl_usd"] == {
        "DAI": "9370000000",
        "WETH": "11050000000",
        "WBTC": "6410000000",
    }
    ok(10, "two fixture runs byte-identical; step-0 value locked matches config")


# ---------------------------------------------------------------------------
# 11. desk-scale performance
# ---------------------------------------------------------------------------
def test_criterion_11_desk_scale_performance():
    agents = []
    for i in range(92):
        asset = ["ETH", "DAI", "BTC"][i % 3]
        agents.append({
            "id": f"d{i}", "kind": "depositor",
            "endowment": {asset: "100"},
            "params": {"pool": asset},
            "window": [0, 0],
        })
    for i in range(4):
        agents.append({
            "id": f"farm{i}", "kind": "borrow_spiral",
            "endowment": {"DAI": "5000"},
            "params": {"pool": "DAI", "iteration_cap": 8},
            "window": [1, 1],
        })
    for i in range(2):
        agents.append({
            "id": f"lev{i}", "kind": "leverage_spiral",
            "endowment": {"ETH": "50"},
            "params": {"collateral": "ETH", "borrow": "DAI", "venue": "amm1", "iteration_cap": 6},
            "window": [2, 2],
        })
    agents.append({"id": "keeper", "kind": "liquidator", "endowment": {"DAI": "100000"},
                   "params": {}, "window": [0, 9999]})
    agents.append({"id": "arb", "kind": "arbitrageur", "endowment": {},
                   "params": {}, "window": [0, 9999]})
    assert len(agents) == 97 + 3
    rated = {"base_rate": "0", "slope1": "0.000002", "slope2": "0.00004",
             "kink": "0.8", "reserve_factor": "0.1"}
    doc = make_doc(
        assets=["ETH", "DAI", "BTC"],
        pools=[
            pool_doc("ETH", "cETH", initial_cash="2000", rate_model=rated),
            pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.7",
                     liquidation_threshold="0.8", initial_cash="5000000", rate_model=rated),
            pool_doc("BTC", "cBTC", initial_cash="100", rate_model=rated),
        ],
        venues=[
            {"kind": "amm", "id": "amm1", "pair": ["ETH", "DAI"], "reserves": ["2000", "4000000"], "fee_bps": 30},
            {"kind": "quote", "id": "q1", "numeraire": "DAI", "quotes": {"ETH": "2000", "BTC": "50000"},
             "fee_bps": 30, "inventory": {"ETH": "1000", "BTC": "50", "DAI": "4000000"}},
        ],
        prices={},
        agents=agents,
        rewards={"emission_per_pool": "1", "supply_split": "0.5"},
        horizon=10_000,
        seed=4242,
    )
    doc["price_feeds"] = {"mode": "walk", "seed": 4242, "drift": "0", "volatility": "0.0005",
                          "initial": {"ETH": "2000", "DAI": "1", "BTC": "50000"}}
    sc = parse_scenario(doc)
    validate_scenario(sc)
    engine = SimulationEngine(sc)
    # CPU time, not wall time: other load on a shared host must not fail the gate
    started = time.process_time()
    summary = engine.run(out_dir=None)
    elapsed = time.process_time() - started
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == DIGESTS["criterion_11_summary"]
    assert elapsed < 5.0, f"run took {elapsed:.2f}s"
    ok(11, f"10,000 steps x 100 agents x 3 pools x 2 venues in {elapsed:.2f}s")
