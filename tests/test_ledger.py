"""Ledger conservation, checkpoint semantics, and journal replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendsim import errors
from lendsim.fixed import WAD, wad
from lendsim.ledger import GENESIS_AUTHORITY, DebtBook, Ledger, UndoLog


def fresh(accounts=("a", "b", "c"), assets=("ETH", "DAI")):
    lg = Ledger()
    for asset in assets:
        lg.register_asset(asset)
    for account in accounts:
        lg.register_account(account)
    return lg


def test_transfer_moves_balance():
    lg = fresh()
    lg.mint("a", "ETH", wad(100), GENESIS_AUTHORITY)
    lg.transfer("a", "b", "ETH", wad(40))
    assert lg.balance("a", "ETH") == wad(60)
    assert lg.balance("b", "ETH") == wad(40)


def test_zero_transfer_appends_journal_record():
    lg = fresh()
    lg.mint("a", "ETH", wad(100), GENESIS_AUTHORITY)
    before = len(lg.journal)
    lg.transfer("a", "b", "ETH", 0)
    assert lg.balance("a", "ETH") == wad(100)
    assert lg.balance("b", "ETH") == 0
    assert len(lg.journal) == before + 1


def test_insufficient_balance_leaves_state_unchanged():
    lg = fresh()
    lg.mint("a", "ETH", wad(100), GENESIS_AUTHORITY)
    with pytest.raises(errors.InsufficientBalance):
        lg.transfer("a", "b", "ETH", wad(101))
    assert lg.balance("a", "ETH") == wad(100)
    assert lg.balance("b", "ETH") == 0


def test_unknown_account_and_asset():
    lg = fresh()
    with pytest.raises(errors.UnknownAccount):
        lg.transfer("a", "nobody", "ETH", 1)
    with pytest.raises(errors.UnknownAsset):
        lg.transfer("a", "b", "XXX", 1)


def test_mint_and_burn_round_trip():
    lg = Ledger()
    lg.register_asset("DAI", ["cdp"])
    lg.register_account("b")
    lg.mint("b", "DAI", wad(500), "cdp")
    assert lg.supply("DAI") == wad(500)
    assert lg.balance("b", "DAI") == wad(500)
    lg.burn("b", "DAI", wad(500), "cdp")
    assert lg.supply("DAI") == 0
    assert lg.balance("b", "DAI") == 0
    with pytest.raises(errors.InsufficientBalance):
        lg.burn("b", "DAI", 1, "cdp")


def test_mint_requires_authority():
    lg = Ledger()
    lg.register_asset("DAI", ["cdp"])
    lg.register_account("b")
    with pytest.raises(errors.Unauthorized):
        lg.mint("b", "DAI", 1, "pool:ETH")


def test_rollback_restores_checkpointed_state():
    lg = fresh()
    lg.mint("a", "ETH", wad(100), GENESIS_AUTHORITY)
    snapshot = {acct: lg.balance(acct, "ETH") for acct in ("a", "b", "c")}
    journal_len = len(lg.journal)
    cp = lg.checkpoint()
    lg.transfer("a", "b", "ETH", wad(40))
    lg.rollback(cp)
    assert {acct: lg.balance(acct, "ETH") for acct in ("a", "b", "c")} == snapshot
    assert len(lg.journal) == journal_len


def test_writes_name_their_accounts_in_touched():
    for inside_checkpoint in (False, True):
        lg = fresh()
        touched = lg.undo.touched
        cp = lg.checkpoint() if inside_checkpoint else None
        lg.mint("a", "ETH", wad(10), GENESIS_AUTHORITY)
        assert touched == {"a"}
        touched.clear()
        lg.transfer("a", "b", "ETH", wad(4))
        assert touched == {"a", "b"}
        touched.clear()
        lg.burn("b", "ETH", wad(1), GENESIS_AUTHORITY)
        assert touched == {"b"}
        if inside_checkpoint:
            lg.transfer("a", "c", "ETH", wad(2))
            lg.rollback(cp)
            assert lg.balance("c", "ETH") == 0
            assert touched == {"a", "b", "c"}  # the rollback undoes the writes, not the names


def test_commit_keeps_mutations():
    lg = fresh()
    lg.mint("a", "ETH", wad(100), GENESIS_AUTHORITY)
    cp = lg.checkpoint()
    lg.transfer("a", "b", "ETH", wad(40))
    lg.commit(cp)
    assert lg.balance("b", "ETH") == wad(40)
    assert lg.open_checkpoints() == 0


def test_checkpoints_are_strictly_lifo():
    lg = fresh()
    cp1 = lg.checkpoint()
    cp2 = lg.checkpoint()
    with pytest.raises(errors.CheckpointOrderViolation):
        lg.rollback(cp1)
    lg.commit(cp2)
    lg.rollback(cp1)
    with pytest.raises(errors.CheckpointOrderViolation):
        lg.commit(cp1)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------
op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["transfer", "mint", "burn"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["ETH", "DAI"]),
        st.integers(min_value=0, max_value=wad(50)),
    ),
    max_size=60,
)


def apply_ops(lg, ops):
    applied = 0
    for op, frm, to, asset, amount in ops:
        try:
            if op == "transfer":
                lg.transfer(frm, to, asset, amount)
            elif op == "mint":
                lg.mint(to, asset, amount, GENESIS_AUTHORITY)
            else:
                lg.burn(frm, asset, amount, GENESIS_AUTHORITY)
            applied += 1
        except errors.SimError:
            pass
    return applied


@given(op_strategy)
def test_conservation_equals_net_minted(ops):
    lg = fresh()
    apply_ops(lg, ops)
    for asset in ("ETH", "DAI"):
        total = sum(lg.balance(acct, asset) for acct in ("a", "b", "c"))
        minted = sum(r.amount for r in lg.journal if r.op == "mint" and r.asset == asset)
        burned = sum(r.amount for r in lg.journal if r.op == "burn" and r.asset == asset)
        assert total == minted - burned
    lg.full_audit()


@given(op_strategy, op_strategy)
@settings(max_examples=50)
def test_rollback_exactness_over_random_sequences(setup_ops, inner_ops):
    lg = fresh()
    apply_ops(lg, setup_ops)
    state_before = {a: dict(t) for a, t in lg._balances.items()}
    journal_before = list(lg.journal)
    cp = lg.checkpoint()
    apply_ops(lg, inner_ops)
    lg.rollback(cp)
    assert {a: dict(t) for a, t in lg._balances.items()} == state_before
    assert lg.journal == journal_before


def replay_balances(records):
    """Balances re-derived from a journal alone, authority checks skipped: the reference."""
    balances = {}
    for rec in records:
        table = balances.setdefault(rec.asset, {})
        if rec.op in ("transfer", "burn"):
            table[rec.frm] = table.get(rec.frm, 0) - rec.amount
        if rec.op in ("transfer", "mint"):
            table[rec.to] = table.get(rec.to, 0) + rec.amount
    return balances


@given(op_strategy)
@settings(max_examples=50)
def test_journal_replay_reproduces_balances(ops):
    lg = fresh()
    apply_ops(lg, ops)
    replayed = replay_balances(lg.journal)
    for asset in ("ETH", "DAI"):
        for acct in ("a", "b", "c"):
            assert replayed.get(asset, {}).get(acct, 0) == lg.balance(acct, asset)


def test_rollback_moves_the_write_count_past_every_count_read_inside():
    lg = fresh()
    lg.mint("a", "ETH", wad(4), GENESIS_AUTHORITY)
    cp = lg.checkpoint()
    lg.transfer("a", "b", "ETH", wad(4))
    inside, total_inside = lg.writes("ETH"), lg.total_writes()
    assert inside == 2
    lg.rollback(cp)
    assert lg.balance("b", "ETH") == 0
    # an equal count must mean equal balances, so the undone transfer counts again
    assert lg.writes("ETH") == 3 and lg.total_writes() == total_inside + 1
    assert lg.writes("DAI") == 0

    # a committed nested checkpoint hands its writes to the outer one, whose rollback counts each
    # undone write once more: the journal slice it undoes, asset by asset
    journal_before = list(lg.journal)
    book = DebtBook(lg.undo)
    cp = lg.checkpoint()
    lg.mint("a", "ETH", wad(3), GENESIS_AUTHORITY)
    book.add("a", wad(2), WAD)
    inner = lg.checkpoint()
    lg.transfer("a", "b", "ETH", wad(1))
    lg.mint("c", "DAI", wad(5), GENESIS_AUTHORITY)
    book.add("b", wad(1), WAD)
    book.reduce("a", wad(2), WAD)  # repays all of it: deletes the entry
    lg.commit(inner)
    undone = lg.journal[len(journal_before):]
    counts, book_writes = {asset: lg.writes(asset) for asset in lg.assets()}, book.writes
    lg.rollback(cp)
    assert lg.journal == journal_before and book == {}
    for asset in lg.assets():
        assert lg.writes(asset) == counts[asset] + sum(record.asset == asset for record in undone)
    assert book_writes == 3 and book.writes == 3 + 3


@given(
    st.integers(WAD, 2**100),
    st.integers(0, 2**100),
    st.integers(WAD, 2**100),
    st.integers(1, 2**100),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_debt_book_rounds_every_write_against_the_debtor(index, held, later, amount, data):
    book = DebtBook(UndoLog())
    if held:
        book.add("k", held, index)
        assert book.debt_of("k", index) >= held
    index = max(index, later)  # an index only compounds
    debt = book.debt_of("k", index)
    book.add("k", amount, index)
    assert book.debt_of("k", index) >= debt + amount
    debt = book.debt_of("k", index)
    repaid = data.draw(st.integers(0, debt))
    book.reduce("k", repaid, index)
    # the book never forgives more than was paid, and paying all of it deletes the entry
    assert book.debt_of("k", index) >= debt - repaid
    assert ("k" in book) == (repaid < debt)
