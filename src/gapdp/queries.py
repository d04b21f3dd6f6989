"""Query sets, transaction-file ingestion and adjacent-database perturbation.

The transaction format is the standard frequent-itemset corpus layout: one
transaction per line, whitespace-separated nonnegative integer item IDs.
Counting queries built from such a file (one count per item ID) have
sensitivity 1 and are monotonic: adding a record can only raise counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "ParseError",
    "QuerySet",
    "TransactionDB",
    "adjacent_counts",
    "descending",
    "item_counts",
    "load_transactions",
]


class ParseError(ValueError):
    """A transaction file could not be parsed."""


@dataclass(frozen=True)
class QuerySet:
    """A finite list of sensitivity-1 query answers.

    ``monotonic`` is a caller assertion that one record moves every answer in
    the same direction (true for counting queries); mechanisms use it to
    justify reduced noise scales.
    """

    values: tuple[float, ...]
    monotonic: bool = False
    #: ``values`` as a read-only float64 array, built once for the kernels.
    value_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("QuerySet needs at least one query")
        array = np.array(vals)
        finite = np.isfinite(array)
        if not finite.all():
            bad = array[~finite][0]
            raise ValueError(f"query values must be finite, got {bad}")
        array.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "value_array", array)

    @cached_property
    def by_value(self) -> tuple[np.ndarray, list[float]]:
        """:func:`descending` of ``value_array``, built once: what a wide
        release reads to find the queries that can still be selected."""
        return descending(self.value_array)

    @property
    def sensitivity(self) -> float:
        return 1.0

    def __len__(self) -> int:
        return len(self.values)


def descending(values: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The indices of ``values`` from the largest value down, equal values
    in index order, and the values in that order as floats."""
    order = np.argsort(-values, kind="stable")
    return order, values[order].tolist()


@dataclass(frozen=True)
class TransactionDB:
    """Transactions as item-ID sets, with the largest item ID observed."""

    transactions: tuple[frozenset[int], ...]
    item_universe: int = field(init=False)

    def __post_init__(self):
        if not self.transactions:
            raise ValueError("TransactionDB needs at least one transaction")
        largest = max((max(t) for t in self.transactions if t), default=None)
        if largest is None:
            raise ValueError("TransactionDB needs at least one nonempty transaction")
        object.__setattr__(self, "item_universe", largest)

    def __len__(self) -> int:
        return len(self.transactions)


def load_transactions(path: str | Path) -> TransactionDB:
    """Parse a transaction file: one transaction per nonempty line.

    Duplicate items within a line are collapsed; line order is preserved.
    Raises :class:`ParseError` with the offending line number for non-integer
    or negative tokens, and for files with no transactions at all.
    """
    path = Path(path)
    transactions: list[frozenset[int]] = []
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        items = set()
        for tok in tokens:
            try:
                item = int(tok)
            except ValueError as exc:
                raise ParseError(
                    f"{path}:{lineno}: non-integer item ID {tok!r}"
                ) from exc
            if item < 0:
                raise ParseError(f"{path}:{lineno}: negative item ID {item}")
            items.add(item)
        transactions.append(frozenset(items))
    if not transactions:
        raise ParseError(f"{path}: no transactions")
    return TransactionDB(tuple(transactions))


def item_counts(db: TransactionDB) -> QuerySet:
    """Per-item occurrence counts over every item ID in 0..item_universe.

    Item IDs map directly to dense indices; counting queries are monotonic.
    """
    counts = [0.0] * (db.item_universe + 1)
    for transaction in db.transactions:
        for item in transaction:
            counts[item] += 1.0
    return QuerySet(tuple(counts), monotonic=True)


def adjacent_counts(
    q: QuerySet, subset: Iterable[int], direction: int
) -> QuerySet:
    """Shift the counts at ``subset`` by ``direction`` (+1 or -1).

    Models a neighboring counting-query database: adding one record raises
    the counts of the items it contains by 1 each; deleting lowers them.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    indices = set(int(i) for i in subset)
    for i in indices:
        if not 0 <= i < len(q.values):
            raise IndexError(f"subset index {i} out of range for {len(q.values)} queries")
    shifted = list(q.values)
    for i in indices:
        shifted[i] += direction
        if shifted[i] < 0:
            raise ValueError(f"count at index {i} would become negative")
    return QuerySet(tuple(shifted), monotonic=q.monotonic)
