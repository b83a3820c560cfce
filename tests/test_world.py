"""World checkpoints: rollback restores every piece of state, in place."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendsim import errors, liquidation
from lendsim.fixed import wad
from lendsim.ledger import DebtBook

from conftest import build, make_doc, pool_doc, user

USERS = ("u0", "u1", "u2")


def checkpoint_world():
    # every user deposits COL and GLD, borrows GLD and draws from a COL
    # vault; COL falls from 1 to 0.3 at step 2, which makes each position and
    # vault liquidatable at that step
    rated = {"slope1": "0.002", "slope2": "0.02"}
    doc = make_doc(
        assets=["COL", "GLD", "DAI"],
        pools=[pool_doc("COL", "cCOL", initial_cash="1000", rate_model=rated),
               pool_doc("GLD", "aGLD", "rebasing", initial_cash="1000", rate_model=rated)],
        prices={"COL": [[0, "1"], [2, "0.3"]], "GLD": [[0, "1"]], "DAI": [[0, "1"]]},
        cdp={"dai_symbol": "DAI", "issuance_fractions": {"COL": "0.66", "GLD": "0.66"},
             "stability_fee": "0.001", "liquidation_penalty": "0.13"},
    )
    w = build(doc)
    open_books(w)
    return w


def open_books(w):
    """Every user deposits COL and GLD, borrows GLD and draws from a COL vault."""
    for name in USERS:
        user(w, name, COL=wad(1000), GLD=wad(1000), DAI=wad(1000))
        w.pools["COL"].deposit(w, name, wad(300))
        w.pools["GLD"].deposit(w, name, wad(100))
        w.pools["GLD"].borrow(w, name, wad(200), step=0)
        vault_id = w.cdp.open_vault(name)
        w.cdp.lock(w, vault_id, "COL", wad(100))
        w.cdp.draw(w, vault_id, wad(60), 0)


# fields a rollback leaves as they are on purpose: the log itself and a rendered row that is a
# function of the restored state; a debt book dumps as its entries and their scaled_total,
# without its write counts, which a rollback raises (as the ledger's are)
NOT_RESTORED = ("undo", "_row_state", "_row_cells")


def dump(x):
    """Plain nested data of a state object: dicts as ordered item lists, objects by their fields."""
    if isinstance(x, DebtBook):
        return dump(dict(x)), x.scaled_total
    if isinstance(x, dict):
        return [(key, dump(value)) for key, value in x.items()]
    if isinstance(x, (list, tuple)):
        return [dump(value) for value in x]
    if hasattr(x, "__dict__"):
        return type(x).__name__, dump({k: v for k, v in vars(x).items() if k not in NOT_RESTORED})
    return x


def world_state(w):
    """Everything a rollback restores; the ledger's write counts are left out on purpose."""
    return w.pools, w.cdp, w.ledger._balances, w.ledger._minted, w.ledger.journal, w.events


def apply_op(w, op):
    kind, a, b, sym, tenths, t = op
    amount = wad(tenths) // 10
    p, other = w.pools[sym], w.pools["GLD" if sym == "COL" else "COL"]
    cdp = w.cdp
    vault_ids = sorted(cdp.vaults)
    vid = vault_ids[a % len(vault_ids)] if vault_ids else 0
    if kind == "deposit":
        p.deposit(w, USERS[a], amount)
    elif kind == "redeem":
        p.redeem(w, USERS[a], amount, t)
    elif kind == "borrow":
        p.borrow(w, USERS[a], amount, step=t)
    elif kind == "repay":
        p.repay(w, USERS[a], amount)
    elif kind == "repay_all":  # deletes the position
        p.repay(w, USERS[a], p.debt_of(USERS[a]))
    elif kind == "liquidate":
        liquidation.liquidate(w, USERS[b], USERS[a], sym, other.params.asset, amount, t)
    elif kind == "accrue":
        p.accrue(w)
        cdp.accrue(w, t)
    elif kind == "open":
        cdp.open_vault(USERS[a])
    elif kind == "lock":
        cdp.lock(w, vid, sym, amount)
    elif kind == "draw":
        cdp.draw(w, vid, amount, t)
    elif kind == "free":
        cdp.free(w, vid, sym, amount, t)
    elif kind == "vault_repay":
        cdp.repay(w, vid, amount)
    elif kind == "vault_liquidate":
        cdp.liquidate(w, USERS[b], vid, amount, sym, t)
    else:
        raise ValueError(kind)


world_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "deposit", "redeem", "borrow", "repay", "repay_all", "liquidate", "accrue",
            "open", "lock", "draw", "free", "vault_repay", "vault_liquidate", "nest", "close",
        ]),
        st.integers(0, 2),
        st.integers(0, 2),
        st.sampled_from(["COL", "GLD"]),
        st.integers(1, 400),
        st.sampled_from([0, 2]),
    ),
    max_size=40,
)


@given(world_ops, world_ops)
@settings(max_examples=150, deadline=None)
def test_rollback_restores_the_world_in_place(setup_ops, inner_ops):
    w = checkpoint_world()
    for op in setup_ops:
        if op[0] not in ("nest", "close"):
            try:
                apply_op(w, op)
            except errors.SimError:
                pass
    pools, cdp = dict(w.pools), w.cdp
    reference = copy.deepcopy(world_state(w))

    books = [p.positions for p in pools.values()] + [cdp.debts]
    counts = [book.writes for book in books]
    cp = w.checkpoint()
    nested = []  # (checkpoint, deep copy of the state it was taken in)
    for op in inner_ops:
        try:
            if op[0] == "nest":
                nested.append((w.checkpoint(), copy.deepcopy(world_state(w))))
            elif op[0] == "close" and nested:
                inner, inner_reference = nested.pop()
                if op[4] % 2:
                    w.commit(inner)
                else:
                    w.rollback(inner)
                    assert dump(world_state(w)) == dump(inner_reference)
            elif op[0] != "close":
                apply_op(w, op)
        except errors.SimError:
            pass
        # no write and no rollback lowers a debt book's write count
        now = [book.writes for book in books]
        assert all(a <= b for a, b in zip(counts, now))
        counts = now
    while nested:
        w.commit(nested.pop()[0])
    w.rollback(cp)

    assert all(a <= book.writes for a, book in zip(counts, books))
    assert dump(world_state(w)) == dump(reference)
    assert w.ledger.open_checkpoints() == 0 and w.ledger.undo.records == []
    assert w.cdp is cdp and all(w.pools[sym] is pool for sym, pool in pools.items())
    w.ledger.full_audit()
    w.audit(0)


@given(world_ops)
@settings(max_examples=150, deadline=None)
def test_total_borrows_is_the_book_total_within_a_unit_per_position(ops):
    # each position's debt rounds up on its own, the total once: 0 <= sum of debts - total < positions
    w = checkpoint_world()
    open_cps = []
    for op in ops:
        try:
            if op[0] == "nest":
                open_cps.append(w.checkpoint())
            elif op[0] == "close" and open_cps:
                (w.commit if op[4] % 2 else w.rollback)(open_cps.pop())
            elif op[0] != "close":
                apply_op(w, op)
        except errors.SimError:
            pass
        for p in w.pools.values():
            assert p.positions.scaled_total == sum(p.positions.values())
            gap = sum(p.debt_of(account) for account in p.positions) - p.total_borrows
            assert 0 <= gap <= max(len(p.positions) - 1, 0)


def test_a_debt_book_written_around_its_total_fails_the_step_audit():
    w = checkpoint_world()
    w.audit(0)
    w.pools["GLD"].positions["u0"] += 1  # straight into the dict: scaled_total does not see it
    w.pools["GLD"].borrow(w, "u1", wad(1), step=1)  # a counted write: the next audit sums the book
    with pytest.raises(errors.InvariantViolation, match="GLD debt book at step 1: entries sum to"):
        w.audit(1)
    w.cdp.debts[1] += 1
    w.cdp.draw(w, 2, wad(1), 1)
    with pytest.raises(errors.InvariantViolation, match="vaults debt book at step 1: entries sum to"):
        w.audit(1)
