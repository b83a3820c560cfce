"""Scheduler behavior: determinism, rewards, spirals, agent interplay."""

import filecmp
import json
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from lendsim import errors, liquidation
from lendsim.agents import run_borrow_spiral, run_leverage_spiral
from lendsim.fixed import WAD, from_str, mul_down, wad
from lendsim.oracle import derive_seed
from lendsim.simulation import SimulationEngine
from lendsim.scenario import parse_scenario, validate_scenario

from conftest import build, make_doc, pool_doc, user


def engine_for(doc, **kw):
    sc = parse_scenario(doc)
    validate_scenario(sc)
    return SimulationEngine(sc, **kw)


# ---------------------------------------------------------------------------
# scheduler basics
# ---------------------------------------------------------------------------
def empty_doc(horizon=100, seed=1):
    return make_doc(
        assets=["ETH", "DAI"],
        pools=[
            pool_doc("ETH", "cETH", initial_cash="100"),
            pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.7",
                     liquidation_threshold="0.8", initial_cash="1000"),
        ],
        prices={"ETH": [[0, "2000"]], "DAI": [[0, "1"]]},
        horizon=horizon,
        seed=seed,
    )


def test_agentless_run_produces_one_row_per_pool_per_step(tmp_path):
    engine = engine_for(empty_doc())
    engine.run(out_dir=tmp_path)
    rows = (tmp_path / "pools.csv").read_text().splitlines()
    assert len(rows) == 1 + 100 * 2  # header + steps * pools
    assert rows[0].startswith("step,asset,")


def test_identical_seed_gives_byte_identical_outputs(tmp_path):
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[
            pool_doc("ETH", "cETH", initial_cash="1000",
                     rate_model={"slope1": "0.0002", "slope2": "0.002", "reserve_factor": "0.1"}),
            pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.7",
                     liquidation_threshold="0.8", initial_cash="100000"),
        ],
        prices={},
        venues=[{"kind": "amm", "id": "amm1", "pair": ["ETH", "DAI"], "reserves": ["1000", "2000000"], "fee_bps": 30}],
        agents=[
            {"id": "alice", "kind": "depositor", "endowment": {"ETH": "10"}, "params": {"pool": "ETH"}},
            {"id": "lev", "kind": "leverage_spiral", "endowment": {"ETH": "5"},
             "params": {"collateral": "ETH", "borrow": "DAI", "venue": "amm1", "iteration_cap": 4}},
            {"id": "keeper", "kind": "liquidator", "endowment": {"DAI": "10000"}},
            {"id": "arb", "kind": "arbitrageur", "endowment": {}},
        ],
        rewards={"emission_per_pool": "1", "supply_split": "0.5"},
        horizon=30,
        seed=99,
    )
    doc["price_feeds"] = {"mode": "walk", "seed": 99, "drift": "-0.001", "volatility": "0.05",
                          "initial": {"ETH": "2000", "DAI": "1"}}
    a, b = tmp_path / "a", tmp_path / "b"
    engine_for(doc).run(out_dir=a)
    engine_for(doc).run(out_dir=b)
    names = ["pools.csv", "vaults.csv", "events.jsonl", "rewards.csv", "summary.json"]
    match, mismatch, errs = filecmp.cmpfiles(a, b, names, shallow=False)
    assert match == names and not mismatch and not errs


def test_different_seeds_shuffle_agents_differently():
    def orders(seed):
        doc = empty_doc(horizon=3, seed=seed)
        doc["agents"] = [
            {"id": f"u{i}", "kind": "depositor", "endowment": {"ETH": "1"}, "params": {"pool": "ETH"}}
            for i in range(8)
        ]
        engine = engine_for(doc, verbosity=2)
        for t in range(3):
            engine.step(t)
        return [e["order"] for e in engine.world.events if e["kind"] == "agent-order"]

    assert orders(1) != orders(2)
    assert orders(1) == orders(1)


def test_step_acts_on_live_agents_in_a_seeded_live_shuffle():
    horizon = 10
    windows = [(0, 0), (3, 5), (7, 2**40), (horizon + 5, horizon + 9)]
    doc = empty_doc(horizon=horizon, seed=3)
    doc["agents"] = [
        {"id": f"w{w}-{k}", "kind": "depositor", "endowment": {"ETH": "1"}, "params": {"pool": "ETH"},
         "window": list(windows[w])}
        for k in range(3) for w in range(len(windows))
    ]
    steps = [0, 1, 4, 5, 9]  # skips 2-3 (so [3, 5] opens unseen) and 6-8 (so [7, ...] does)

    def run(verbosity):
        engine = engine_for(doc, verbosity=verbosity)
        acted = []
        for agent in engine.agents:
            agent.act = lambda world, t, account=agent.account: acted.append((t, account))
        for t in steps:
            engine.step(t)
        return engine, acted

    def live_shuffle(engine, t):
        # the indices of the agents whose window holds t, in scenario order, shuffled by the step's seed
        order = [i for i, a in enumerate(engine.agents) if a.active(t)]
        random.Random(derive_seed(engine.seed, "order", t)).shuffle(order)
        return [engine.agents[i].account for i in order]

    engine, acted = run(verbosity=0)
    expected = [(t, account) for t in steps for account in live_shuffle(engine, t)]
    assert acted == expected
    assert {account for _, account in acted} == {f"w{w}-{k}" for k in range(3) for w in range(3)}

    engine, acted = run(verbosity=2)
    assert acted == expected
    orders = [(e["step"], e["order"]) for e in engine.world.events if e["kind"] == "agent-order"]
    assert orders == [(t, live_shuffle(engine, t)) for t in steps]
    assert [(t, account) for t, order in orders for account in order] == acted  # exactly the agents that act


@st.composite
def idle_insertions(draw):
    """Agents whose windows hold the last step t, and the same list with idle agents (windows
    closed by t, or opening after it) inserted at drawn positions."""
    steps = sorted(draw(st.sets(st.integers(0, 20), min_size=1, max_size=4)))
    t = steps[-1]
    live_windows = draw(st.lists(st.tuples(st.integers(0, t), st.integers(t, 40)), max_size=8))
    live = [(f"live{k}", window) for k, window in enumerate(live_windows)]
    idle_windows = [st.integers(t + 1, 40).flatmap(lambda start: st.tuples(st.just(start), st.integers(start, 50)))]
    if t:
        idle_windows.append(st.integers(0, t - 1).flatmap(lambda end: st.tuples(st.integers(0, end), st.just(end))))
    agents = list(live)
    for k, window in enumerate(draw(st.lists(st.one_of(idle_windows), min_size=1, max_size=8))):
        agents.insert(draw(st.integers(0, len(agents))), (f"idle{k}", window))
    return draw(st.integers(0, 2**32)), steps, live, agents


@given(idle_insertions())
@settings(max_examples=100, deadline=None)
def test_idle_agents_do_not_change_the_acting_order(case):
    """Agents whose window does not hold step t, wherever they sit in the agent list, leave the
    order of the others at t unchanged: what lets a step draw only for its live agents."""
    seed, steps, live, agents = case
    t = steps[-1]

    def order_at_t(agents):
        doc = empty_doc(seed=seed)
        doc["agents"] = [
            {"id": account, "kind": "depositor", "endowment": {}, "params": {"pool": "ETH"}, "window": list(window)}
            for account, window in agents
        ]
        engine = engine_for(doc)
        acted = []
        for agent in engine.agents:
            agent.act = lambda world, step, account=agent.account: acted.append(account) if step == t else None
        for step in steps:
            engine.step(step)
        return acted

    assert order_at_t(agents) == order_at_t(live)


def test_agent_protocol_errors_become_events_not_aborts():
    doc = make_doc(
        assets=["ABC", "XYZ"],
        pools=[
            pool_doc("ABC", "cABC", liquidation_bonus="0.05"),
            pool_doc("XYZ", "cXYZ", initial_cash="100000"),
        ],
        venues=[{"kind": "quote", "id": "V", "numeraire": "XYZ", "quotes": {"ABC": "8"},
                 "fee_bps": 0, "inventory": {"ABC": "0", "XYZ": "1000000"}}],
        prices={"ABC": [[0, "10"], [1, "8"]], "XYZ": [[0, "1"]]},
        agents=[{"id": "broke", "kind": "liquidator", "endowment": {},
                 "params": {"use_flashloan": False}}],
        horizon=3,
    )
    engine = engine_for(doc)
    w = engine.world
    user(w, "victim", ABC=wad(1000))
    w.pools["ABC"].deposit(w, "victim", wad(1000))
    w.pools["XYZ"].borrow(w, "victim", wad(7000), step=0)
    for t in range(3):
        engine.step(t)  # must not raise
    errs = [e for e in w.events if e.get("kind") == "agent-error"]
    assert errs and errs[0]["agent"] == "broke"
    assert errs[0]["error"] == "InsufficientBalance"


def test_liquidator_without_flash_loans_clears_unsafe_vault():
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[pool_doc("DAI", "aDAI", "rebasing", initial_cash="100000")],
        venues=[{"kind": "quote", "id": "V", "numeraire": "DAI", "quotes": {"ETH": "120"},
                 "fee_bps": 0, "inventory": {"ETH": "0", "DAI": "1000000"}}],
        prices={"ETH": [[0, "200"], [3, "120"]], "DAI": [[0, "1"]]},
        cdp={"dai_symbol": "DAI", "issuance_fractions": {"ETH": "0.66"},
             "stability_fee": "0", "liquidation_penalty": "0.13"},
        agents=[{"id": "keeper", "kind": "liquidator", "endowment": {"DAI": "5000"},
                 "params": {"use_flashloan": False}}],
        horizon=4,
    )
    engine = engine_for(doc)
    w = engine.world
    user(w, "owner", ETH=wad(10))
    vid = w.cdp.open_vault("owner")
    w.cdp.lock(w, vid, "ETH", wad(10))
    w.cdp.draw(w, vid, wad(1000), step=0)
    for t in range(4):
        engine.step(t)
    assert [e for e in w.events if e["kind"] == "agent-error"] == []
    liqs = [e for e in w.events if e["kind"] == "vault-liquidation"]
    assert len(liqs) == 1 and liqs[0]["liquidator"] == "keeper" and liqs[0]["step"] == 3
    assert w.cdp.debt_of(vid) == 0
    # the keeper paid the debt from its own DAI and keeps the seized ETH
    assert w.ledger.balance("keeper", "DAI") == wad(4000)
    assert w.ledger.balance("keeper", "ETH") == from_str(liqs[0]["seized_amt"])


def test_checkpoint_left_open_fails_the_step_audit():
    engine = engine_for(empty_doc(horizon=2))
    engine.step(0)
    engine.world.ledger.checkpoint()  # a transaction that never commits or rolls back
    with pytest.raises(errors.InvariantViolation, match="1 ledger checkpoint"):
        engine.step(1)


def test_vault_collateral_mismatch_fails_the_step_audit():
    doc = empty_doc(horizon=3)
    doc["cdp"] = {"dai_symbol": "DAI", "issuance_fractions": {"ETH": "0.66"},
                  "stability_fee": "0", "liquidation_penalty": "0.13"}
    engine = engine_for(doc)
    w = engine.world
    user(w, "owner", ETH=wad(10))
    vid = w.cdp.open_vault("owner")
    w.cdp.lock(w, vid, "ETH", wad(10))
    engine.step(0)
    w.cdp.vault(vid).collateral["ETH"] += 1  # the vault records collateral the engine never received
    with pytest.raises(errors.InvariantViolation, match=f"holds {wad(10)} ETH, vault collateral sums to {wad(10) + 1}"):
        engine.step(1)


# ---------------------------------------------------------------------------
# reward distribution
# ---------------------------------------------------------------------------
def reward_engine(emission="10", split="0.5"):
    doc = make_doc(
        assets=["COL", "GLD"],
        pools=[
            pool_doc("COL", "cCOL"),
            pool_doc("GLD", "cGLD"),
        ],
        prices={"COL": [[0, "1"]], "GLD": [[0, "1"]]},
        rewards={"emission_per_pool": emission, "supply_split": split},
        horizon=5,
    )
    return engine_for(doc)


def test_sole_supplier_and_borrower_split_equally():
    engine = reward_engine()
    w = engine.world
    user(w, "supplier", GLD=wad(100))
    w.pools["GLD"].deposit(w, "supplier", wad(100))
    user(w, "borrower", COL=wad(100))
    w.pools["COL"].deposit(w, "borrower", wad(100))
    w.pools["GLD"].borrow(w, "borrower", wad(10), step=0)
    engine.distribute_rewards(0)
    # GLD pool: supplier gets 5 supply-side, borrower gets 5 borrow-side
    # COL pool: borrower is its sole supplier (5); its borrow side is empty
    assert w.rewards.accrued["supplier"] == wad(5)
    assert w.rewards.accrued["borrower"] == wad(10)
    assert w.rewards.dust == wad(5)
    assert w.rewards.distributed + w.rewards.dust == wad(20)


def test_empty_borrow_side_goes_to_dust():
    engine = reward_engine()
    w = engine.world
    user(w, "supplier", GLD=wad(100))
    w.pools["GLD"].deposit(w, "supplier", wad(100))
    engine.distribute_rewards(0)
    assert w.rewards.accrued["supplier"] == wad(5)
    assert w.rewards.dust == wad(15)  # GLD borrow side + both COL sides


def test_pro_rata_split_weights():
    engine = reward_engine()
    w = engine.world
    user(w, "big", GLD=wad(75))
    user(w, "small", GLD=wad(25))
    w.pools["GLD"].deposit(w, "big", wad(75))
    w.pools["GLD"].deposit(w, "small", wad(25))
    engine.distribute_rewards(0)
    assert w.rewards.accrued["big"] == from_str("3.75")  # 5 * 75%
    assert w.rewards.accrued["small"] == from_str("1.25")


def test_reward_conservation_over_run(tmp_path):
    doc = empty_doc(horizon=40)
    doc["rewards"] = {"emission_per_pool": "7", "supply_split": "0.3"}
    doc["agents"] = [
        {"id": "u1", "kind": "depositor", "endowment": {"ETH": "10"}, "params": {"pool": "ETH"}},
        {"id": "u2", "kind": "depositor", "endowment": {"DAI": "500"}, "params": {"pool": "DAI"}},
    ]
    engine = engine_for(doc)
    engine.run(out_dir=tmp_path)
    total = engine.world.rewards.distributed + engine.world.rewards.dust
    assert total == wad(7) * 2 * 40  # emission * pools * steps
    lines = (tmp_path / "rewards.csv").read_text().splitlines()
    assert lines[0] == "account,accrued"


class EagerRewards:
    """Reference payer: every tranche paid at every step, by weights read at that step."""

    def __init__(self):
        self.accrued, self.dust = {}, 0

    @property
    def distributed(self):
        return sum(self.accrued.values())

    def pay(self, tranche, weights):
        weights = list(weights)
        total = sum(w for _, w in weights)
        paid = 0
        for account, weight in weights:
            share = tranche * weight // total
            if share:
                self.accrued[account] = self.accrued.get(account, 0) + share
                paid += share
        self.dust += tranche - paid


# (kind, user, other user, pool, amount in tenths of a token)
reward_ops = st.lists(
    st.tuples(
        st.sampled_from(["deposit", "redeem", "borrow", "repay", "liquidate", "transfer", "reverted",
                         "reverted-borrow", "step", "read"]),
        st.integers(0, 2),
        st.integers(0, 2),
        st.sampled_from(["COL", "GLD"]),
        st.integers(1, 400),
    ),
    min_size=10,
    max_size=40,
)


@given(reward_ops)
# repay (b > 0 partial, b == 0 in full) between two steps: DebtBook.reduce must count its write
@example([("deposit", 0, 0, "COL", 400), ("borrow", 0, 0, "GLD", 200), ("borrow", 1, 0, "GLD", 50),
          ("step", 0, 0, "COL", 1), ("repay", 0, 1, "GLD", 100), ("step", 0, 0, "COL", 1),
          ("repay", 0, 0, "GLD", 1), ("step", 0, 0, "COL", 1), ("read", 0, 0, "COL", 1)])
# shares computed inside a checkpoint, then rolled back: a count the rollback lowered would meet
# those shares again after the next borrow
@example([("deposit", 0, 0, "COL", 400), ("deposit", 1, 0, "COL", 400), ("borrow", 0, 0, "GLD", 100),
          ("step", 0, 0, "COL", 1), ("reverted-borrow", 1, 0, "GLD", 100), ("borrow", 1, 0, "GLD", 10),
          ("step", 0, 0, "COL", 1), ("read", 0, 0, "COL", 1)])
# a liquidation after the COL price falls repays part of u0's debt
@example([("deposit", 0, 0, "COL", 400), ("deposit", 1, 0, "COL", 400), ("borrow", 0, 0, "GLD", 250),
          ("borrow", 1, 0, "GLD", 50), ("step", 0, 0, "COL", 1), ("liquidate", 0, 0, "GLD", 80),
          ("step", 0, 0, "COL", 1), ("read", 0, 0, "COL", 1)])
@settings(max_examples=100, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
def test_reward_streams_match_eager_payment_at_every_read(ops):
    # both sides are paid as streams, settled on read; an eager reference paying the supply side by
    # IOU balance and the borrow side by scaled principal every step must agree whenever it is read
    rated = {"slope1": "0.002", "slope2": "0.02"}
    doc = make_doc(
        assets=["COL", "GLD"],
        pools=[pool_doc("COL", "cCOL", initial_cash="1000", rate_model=rated),
               pool_doc("GLD", "aGLD", "rebasing", initial_cash="1000", rate_model=rated)],
        prices={"COL": [[0, "1"], [1, "0.2"]], "GLD": [[0, "1"]]},  # COL-backed debt is liquidatable from step 1
        rewards={"emission_per_pool": "7", "supply_split": "0.3"},
        horizon=100,
    )
    engine = engine_for(doc)
    w = engine.world
    users = [user(w, f"u{i}", COL=wad(150), GLD=wad(100)) for i in range(3)]
    for u in users:  # collateral, so that most borrows succeed
        w.pools["COL"].deposit(w, u, wad(50))
    emission = engine.scenario.rewards.emission_per_pool
    supply_tranche = mul_down(emission, engine.scenario.rewards.supply_split)
    reference = EagerRewards()
    totals = ("accrued", "dust", "distributed")

    def pay_step(t):
        for pool_sym in sorted(w.pools):
            pool = w.pools[pool_sym]
            reference.pay(supply_tranche, w.ledger.holders(pool.params.iou_asset))
            reference.pay(emission - supply_tranche, pool.positions.items())
        engine.distribute_rewards(t)

    t = 0
    for kind, a, b, sym, tenths in ops:
        amount = wad(tenths) // 10
        p = w.pools[sym]
        try:
            if kind == "deposit":
                p.deposit(w, users[a], amount)
            elif kind == "redeem":
                p.redeem(w, users[a], amount, t)
            elif kind == "borrow":
                p.borrow(w, users[a], amount, step=t)
            elif kind in ("repay", "liquidate"):
                if not p.positions:
                    continue
                # the a-th borrower of the pool, so most draws reach a position
                target = sorted(p.positions)[a % len(p.positions)]
                debt = p.debt_of(target)
                if kind == "repay":  # in full, closing the position, when b is 0
                    p.repay(w, target, debt if b == 0 else min(amount, debt))
                else:
                    liquidator = users[(users.index(target) + 1) % 3]
                    cap = mul_down(debt, p.params.close_factor)
                    other = "GLD" if sym == "COL" else "COL"
                    liquidation.liquidate(w, liquidator, target, sym, other, min(amount, cap), t)
            elif kind == "transfer":
                w.ledger.transfer(users[a], users[b], p.params.iou_asset, amount)
            elif kind == "reverted":
                # a scratch plan: the IOU is written, then the world rolls back
                cp = w.checkpoint()
                try:
                    p.deposit(w, users[a], amount)
                finally:
                    w.rollback(cp)
            elif kind == "reverted-borrow":
                # a borrow rolled back; when b is 0, a payment computes shares inside the checkpoint
                cp = w.checkpoint()
                try:
                    p.borrow(w, users[a], amount, step=t)
                    if b == 0:
                        pay_step(t)
                        t += 1
                finally:
                    w.rollback(cp)
            elif kind == "step":
                for pool_sym in sorted(w.pools):
                    w.pools[pool_sym].accrue(w)
                pay_step(t)
                t += 1
            else:
                # one total alone: reading it must settle what it reports
                assert getattr(w.rewards, totals[a]) == getattr(reference, totals[a])
        except errors.SimError:
            pass
    assert [getattr(w.rewards, name) for name in totals] == [getattr(reference, name) for name in totals]


# ---------------------------------------------------------------------------
# borrow spiral geometry
# ---------------------------------------------------------------------------
def spiral_world(c="0.75"):
    doc = make_doc(
        assets=["DAI"],
        pools=[pool_doc("DAI", "cDAI", collateral_factor=c, liquidation_threshold="0.9")],
        prices={"DAI": [[0, "1"]]},
        horizon=5,
    )
    return build(doc)


def test_two_iteration_spiral_partial_sums():
    w = spiral_world()
    user(w, "farmer", DAI=wad(100))
    report = run_borrow_spiral(w, "farmer", "DAI", wad(100), 0, iteration_cap=2)
    assert report.iterations == 2
    assert abs(report.total_deposited - from_str("231.25")) <= 2
    assert abs(report.total_borrowed - from_str("131.25")) <= 2


def test_spiral_partial_sums_match_geometric_series_each_iteration():
    w = spiral_world()
    user(w, "farmer", DAI=wad(100))
    report = run_borrow_spiral(w, "farmer", "DAI", wad(100), 0, iteration_cap=40)
    c = Fraction(3, 4)
    deposit_sum = Fraction(0)
    for k, dep in enumerate(report.deposits):
        deposit_sum += Fraction(100) * c**k
        partial = sum(report.deposits[: k + 1])
        assert abs(partial - int(deposit_sum * WAD)) <= k + 1  # <= n raw units


def test_spiral_converges_to_geometric_limit():
    w = spiral_world()
    user(w, "farmer", DAI=wad(100))
    report = run_borrow_spiral(w, "farmer", "DAI", wad(100), 0, min_action=from_str("0.000001"))
    assert abs(report.total_deposited - wad(400)) <= wad(400) * Fraction(1, 10**6)
    assert abs(report.total_borrowed - wad(300)) <= wad(300) * Fraction(1, 10**6)
    assert report.stopped_by == "min-action"


def test_zero_collateral_factor_yields_single_deposit():
    w = spiral_world(c="0")
    user(w, "farmer", DAI=wad(100))
    report = run_borrow_spiral(w, "farmer", "DAI", wad(100), 0)
    assert report.iterations == 0
    assert report.total_deposited == wad(100)
    assert report.total_borrowed == 0


# ---------------------------------------------------------------------------
# leverage spiral
# ---------------------------------------------------------------------------
def leverage_world(fee_bps=0, eth_path=((0, "1"),), eth_quote="1"):
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[
            pool_doc("ETH", "cETH", collateral_factor="0.75", liquidation_threshold="0.8",
                     liquidation_bonus="0.05"),
            pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.7",
                     liquidation_threshold="0.8", initial_cash="100000"),
        ],
        venues=[{"kind": "quote", "id": "fx", "numeraire": "DAI", "quotes": {"ETH": eth_quote},
                 "fee_bps": fee_bps, "inventory": {"ETH": "100000", "DAI": "100000"}}],
        prices={"ETH": [[s, p] for s, p in eth_path], "DAI": [[0, "1"]]},
        horizon=10,
    )
    return build(doc)


def test_leverage_matches_borrow_spiral_geometry_at_unit_prices():
    w = leverage_world()
    user(w, "trader", ETH=wad(100))
    report = run_leverage_spiral(w, "trader", "ETH", "DAI", "fx", wad(100), 0,
                                 min_action=from_str("0.000001"))
    assert abs(report.exposure - wad(400)) <= wad(400) * Fraction(1, 10**6)
    assert abs(report.total_borrowed - wad(300)) <= wad(300) * Fraction(1, 10**6)


def test_leverage_spiral_reports_its_last_borrow():
    # at 2,000 DAI per ETH the last borrow buys less ETH than min_action, so
    # the spiral stops with that borrow taken but not re-deposited
    w = leverage_world(eth_path=((0, "2000"),), eth_quote="2000")
    user(w, "trader", ETH=wad(10))
    report = run_leverage_spiral(w, "trader", "ETH", "DAI", "fx", wad(10), 0)
    assert report.stopped_by == "min-action"
    assert report.total_borrowed == sum(report.borrows) == w.pools["DAI"].debt_of("trader")
    assert report.exposure == report.total_deposited == sum(report.deposits)


def test_venue_fee_strictly_reduces_exposure():
    w0 = leverage_world(fee_bps=0)
    w1 = leverage_world(fee_bps=30)
    user(w0, "trader", ETH=wad(100))
    user(w1, "trader", ETH=wad(100))
    r0 = run_leverage_spiral(w0, "trader", "ETH", "DAI", "fx", wad(100), 0)
    r1 = run_leverage_spiral(w1, "trader", "ETH", "DAI", "fx", wad(100), 0)
    assert r1.exposure < r0.exposure


def test_price_crash_liquidates_leveraged_trader():
    doc = make_doc(
        assets=["ETH", "DAI"],
        pools=[
            pool_doc("ETH", "cETH", collateral_factor="0.75", liquidation_threshold="0.8",
                     liquidation_bonus="0.05", close_factor="0.5"),
            pool_doc("DAI", "aDAI", "rebasing", collateral_factor="0.7",
                     liquidation_threshold="0.8", initial_cash="100000", close_factor="0.5",
                     liquidation_bonus="0.05"),
        ],
        venues=[{"kind": "quote", "id": "fx", "numeraire": "DAI", "quotes": {"ETH": "1"},
                 "fee_bps": 0, "inventory": {"ETH": "100000", "DAI": "100000"}}],
        prices={"ETH": [[0, "1"], [3, "0.7"]], "DAI": [[0, "1"]]},
        agents=[
            {"id": "trader", "kind": "leverage_spiral", "endowment": {"ETH": "100"},
             "params": {"collateral": "ETH", "borrow": "DAI", "venue": "fx", "iteration_cap": 30},
             "window": [0, 0]},
            {"id": "keeper", "kind": "liquidator", "endowment": {"DAI": "10000"}},
        ],
        horizon=6,
    )
    engine = engine_for(doc)
    w = engine.world
    for t in range(6):
        engine.step(t)
    hf_after_crash = liquidation.account_totals(w, "trader", 5)
    liqs = [e for e in w.events if e.get("kind") == "liquidation"]
    assert liqs, "expected the keeper to clear the underwater trader"
    assert liqs[0]["target"] == "trader"
    # quote venue at pre-crash price keeps arbitrage away; keeper profit is the bonus
    w.ledger.full_audit()


def test_two_liquidators_only_first_clears_shallow_position():
    doc = make_doc(
        assets=["ABC", "XYZ"],
        pools=[
            pool_doc("ABC", "cABC", liquidation_bonus="0.05", close_factor="0.5"),
            pool_doc("XYZ", "cXYZ", initial_cash="100000", close_factor="0.5"),
        ],
        venues=[{"kind": "quote", "id": "V", "numeraire": "XYZ", "quotes": {"ABC": "9.8"},
                 "fee_bps": 0, "inventory": {"ABC": "0", "XYZ": "1000000"}}],
        prices={"ABC": [[0, "10"], [1, "9.8"]], "XYZ": [[0, "1"]]},
        agents=[
            {"id": "k1", "kind": "liquidator", "endowment": {}},
            {"id": "k2", "kind": "liquidator", "endowment": {}},
        ],
        horizon=3,
    )
    engine = engine_for(doc)
    w = engine.world
    user(w, "victim", ABC=wad(1000))
    w.pools["ABC"].deposit(w, "victim", wad(1000))
    w.pools["XYZ"].borrow(w, "victim", wad(7500), step=0)
    # post-crash threshold is 9800 * 0.8 = 7840; raise debt just above it so a
    # single half-debt liquidation restores health
    w.pools["XYZ"].positions.add("victim", wad(400), w.pools["XYZ"].borrow_index)
    for t in range(3):
        engine.step(t)
    liqs = [e for e in w.events if e.get("kind") == "liquidation"]
    assert len(liqs) == 1  # half-debt repay restores health; second keeper idles
    report = liquidation.account_totals(w, "victim", 2)
    assert report.health_factor >= WAD


def test_no_actions_when_nothing_to_do():
    doc = empty_doc(horizon=5)
    doc["agents"] = [
        {"id": "keeper", "kind": "liquidator", "endowment": {"DAI": "100"}},
        {"id": "arb", "kind": "arbitrageur", "endowment": {}},
    ]
    engine = engine_for(doc)
    for t in range(5):
        engine.step(t)
    kinds = {e["kind"] for e in engine.world.events}
    assert "liquidation" not in kinds and "flash" not in kinds


# ---------------------------------------------------------------------------
# summary content
# ---------------------------------------------------------------------------
def test_summary_reports_tvl_and_pnl(tmp_path):
    doc = empty_doc(horizon=5)
    doc["agents"] = [
        {"id": "alice", "kind": "depositor", "endowment": {"ETH": "10"}, "params": {"pool": "ETH"}},
    ]
    engine = engine_for(doc)
    summary = engine.run(out_dir=tmp_path)
    assert summary["initial_tvl_usd"]["ETH"] == "200000"  # 100 ETH * 2000
    assert summary["final_tvl_usd"]["ETH"] == "220000"  # alice adds 10 ETH
    assert summary["agent_pnl_usd"]["alice"] == "0"  # deposit is not a loss
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
