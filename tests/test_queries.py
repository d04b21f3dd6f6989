import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdp.queries import (
    ParseError,
    QuerySet,
    TransactionDB,
    adjacent_counts,
    item_counts,
    load_transactions,
)


def write(tmp_path, text):
    path = tmp_path / "transactions.txt"
    path.write_text(text)
    return path


def test_load_basic_file(tmp_path):
    db = load_transactions(write(tmp_path, "1 2\n2 3\n"))
    assert db.transactions == (frozenset({1, 2}), frozenset({2, 3}))
    assert db.item_universe == 3


def test_load_dedups_within_line(tmp_path):
    db = load_transactions(write(tmp_path, "5 5 7\n"))
    assert db.transactions == (frozenset({5, 7}),)


def test_load_skips_blank_lines_preserving_order(tmp_path):
    db = load_transactions(write(tmp_path, "\n4\n\n1 2\n"))
    assert db.transactions == (frozenset({4}), frozenset({1, 2}))


def test_load_empty_file_is_error(tmp_path):
    with pytest.raises(ParseError, match="no transactions"):
        load_transactions(write(tmp_path, ""))


@pytest.mark.parametrize("text, fragment", [("1 x\n", "non-integer"), ("3 -2\n", "negative")])
def test_load_bad_tokens_report_line(tmp_path, text, fragment):
    with pytest.raises(ParseError, match=fragment) as err:
        load_transactions(write(tmp_path, "1 2\n" + text))
    assert ":2:" in str(err.value)


def test_load_missing_file_is_error(tmp_path):
    with pytest.raises(ParseError):
        load_transactions(tmp_path / "nope.txt")


def test_item_counts_dense_indexing():
    db = TransactionDB((frozenset({1, 2}), frozenset({2, 3})))
    qs = item_counts(db)
    assert qs.values == (0.0, 1.0, 2.0, 1.0)
    assert qs.monotonic


def test_all_empty_transactions_is_a_clear_error():
    with pytest.raises(ValueError, match="nonempty transaction"):
        TransactionDB((frozenset(),))


def test_item_counts_single_transaction():
    qs = item_counts(TransactionDB((frozenset({7}),)))
    assert qs.values == (0.0,) * 7 + (1.0,)


@pytest.mark.skipif(
    "GAPDP_BMS_POS" not in os.environ,
    reason="set GAPDP_BMS_POS to the BMS-POS transaction file to check corpus stats",
)
def test_bms_pos_corpus_statistics():
    db = load_transactions(os.environ["GAPDP_BMS_POS"])
    assert len(db) == 515_597
    counts = item_counts(db)
    assert sum(1 for v in counts.values if v > 0) == 1_657


def test_queryset_validation():
    with pytest.raises(ValueError):
        QuerySet(())
    with pytest.raises(ValueError):
        QuerySet((1.0, math.inf))
    assert QuerySet((3,)).sensitivity == 1.0


def test_adjacent_counts_shift_and_identity():
    qs = QuerySet((3.0, 5.0), monotonic=True)
    up = adjacent_counts(qs, {0, 1}, +1)
    assert up.values == (4.0, 6.0)
    assert up.monotonic
    assert adjacent_counts(qs, set(), -1).values == (3.0, 5.0)


def test_adjacent_counts_rejects_negative_counts():
    with pytest.raises(ValueError):
        adjacent_counts(QuerySet((0.0, 2.0)), {0}, -1)


def test_adjacent_counts_rejects_bad_direction_and_index():
    qs = QuerySet((1.0, 2.0))
    with pytest.raises(ValueError):
        adjacent_counts(qs, {0}, 2)
    with pytest.raises(IndexError):
        adjacent_counts(qs, {5}, 1)


@st.composite
def transaction_dbs(draw):
    txs = draw(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
            min_size=1,
            max_size=12,
        )
    )
    return TransactionDB(tuple(txs))


@given(transaction_dbs())
@settings(max_examples=100)
def test_item_counts_total_mass(db):
    qs = item_counts(db)
    assert sum(qs.values) == sum(len(t) for t in db.transactions)


@given(
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
    st.sets(st.integers(min_value=0, max_value=7)),
    st.sampled_from([1, -1]),
)
@settings(max_examples=100)
def test_adjacent_counts_roundtrip(values, subset, direction):
    qs = QuerySet(tuple(float(v) for v in values))
    subset = {i for i in subset if i < len(values)}
    shifted = adjacent_counts(qs, subset, direction)
    back = adjacent_counts(shifted, subset, -direction)
    assert back.values == qs.values
