"""Noisy top-k selection that also releases the consecutive noisy gaps.

Every query gets i.i.d. noise of scale 2k/epsilon (Laplace, or one-sided
exponential for tighter gaps).  The indices of the k largest noisy values are
released in descending order together with the gap to the next noisy value;
the (k+1)-th value serves only as the runner-up and is never output.  The run
is charged ``epsilon`` (``epsilon/2`` for monotonic counting queries).
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import Callable, Sequence

import numpy as np

from .audit import Release
from .noise import FamilyNoise, NoiseKind, RandomSource, ceiling
from .queries import QuerySet

__all__ = ["TopKResult", "gap_topk", "gap_topk_batch", "pairwise_gap"]


class TopKResult(Release):
    """k ranked indices in descending noisy order (``codes``), each with the
    noisy margin to the next ranked noisy value (``gaps``, strictly positive
    except on measure-zero ties), and one charge."""

    @property
    def indices(self) -> tuple[int, ...]:
        return self.codes

    @property
    def epsilon_charged(self) -> float:
        return self.consumed


def gap_topk(
    q: QuerySet,
    k: int,
    eps: float,
    noise: str = "laplace",
    src: RandomSource = None,
) -> TopKResult:
    """Select the k largest noisy queries and their consecutive noisy gaps.

    Requires k+1 <= n so a runner-up exists.  Ties among noisy values break
    toward the lowest index (a probability-zero event for continuous noise;
    see audit.tie_probability_bound for the discretized-noise failure rate).
    Runs :func:`gap_topk_batch`'s kernel on the next n uniforms of ``src``.
    """
    draws, kernel = gap_topk_batch(q, k, eps, noise)
    if src is None:
        raise ValueError("gap_topk needs a RandomSource, e.g. src=SeededSource(seed)")
    charged = eps / 2.0 if q.monotonic else eps
    return TopKResult(*single_run(kernel, draws, src), eps, (charged,))


def _selection_noise(q: QuerySet, k: int, eps: float, noise: str) -> NoiseKind:
    """The per-query noise of a top-k selection, after checking its arguments."""
    n = len(q.values)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k + 1 > n:
        raise ValueError(f"need at least k+1 = {k + 1} queries, got {n}")
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    selection = FamilyNoise(noise, eps, 2.0 * k)
    if selection.family == "geometric":
        raise ValueError(f"noise must be laplace or exponential, got {noise!r}")
    return selection.kind


#: Rows at least this wide select their ``count`` largest entries with
#: ``np.partition`` before sorting only those; narrower rows sort whole.
#: Measured with numpy 2.4 on a shared 2-core x86 host (best of 7, count
#: 11, two runs): 1x800 took 15-28 us by sort against 15-24 us by
#: partition, 1x1000 21-44 against 15-25 us, 1x1200 46-72 against 15-25 us,
#: 1x10^4 767-781 against 31-32 us, and 4096x3 (the audit's chunks, count
#: 3) 188 against 520-543 us.  Kernel rows at least this wide also compute
#: noise only for the columns that can still be selected
#: (:func:`noisy_ranked`, and the sparse-vector scan's ``trial``), so the
#: audit (n <= 5) and the experiment harness (n <= 200) stay dense.
_PARTITION_COLUMNS = 1000


def ranked(noisy: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the indices and values of the ``count`` largest entries in
    descending order.  Equal entries keep their index order, so ties go to
    the lowest index, and a -inf entry (the noise of a zero draw) ranks last."""
    rows = np.arange(len(noisy))[:, None]
    negated = -noisy
    if noisy.shape[1] < _PARTITION_COLUMNS:
        order = np.argsort(negated, axis=1, kind="stable")[:, :count]
    else:
        # Keep the entries at or above the count-th largest value: count of
        # them, unless others tie with it.  A row with more keeps only as
        # many of the ties as it needs, lowest index first, so that every
        # row keeps exactly the columns a stable sort puts first.  Then sort
        # only those.
        cut = np.partition(negated, count - 1, axis=1)[:, count - 1 : count]
        keep = negated <= cut
        if np.count_nonzero(keep) > keep.shape[0] * count:
            surplus = np.count_nonzero(keep, axis=1) - count
            tied_rows = np.flatnonzero(surplus)
            tied = negated[tied_rows] == cut[tied_rows]
            rank = np.cumsum(tied, axis=1)
            keep[tied_rows] &= ~tied | (rank <= rank[:, -1:] - surplus[tied_rows, None])
        chosen = np.flatnonzero(keep).reshape(len(noisy), count) % noisy.shape[1]
        order = chosen[rows, np.argsort(negated[rows, chosen], axis=1, kind="stable")]
    return order, noisy[rows, order]


def leading(ordered: Sequence[float], holds: Callable[[float], bool], guess: float) -> int:
    """How many leading entries of ``ordered``, a descending list, satisfy
    ``holds``, which must hold on a prefix of it.  The entries at or above
    ``guess``, a value near the last one that holds, are tried first: they
    are the prefix if ``holds`` holds on the last of them and fails on the
    next.  Else a bisection finds it."""
    at = bisect.bisect_right(ordered, -guess, key=operator.neg)
    if (at == 0 or holds(ordered[at - 1])) and (at == len(ordered) or not holds(ordered[at])):
        return at
    return bisect.bisect_left(ordered, True, key=lambda v: not holds(v))


def noisy_ranked(values: np.ndarray, by_value: tuple[np.ndarray, list[float]], kind: NoiseKind,
                 U: np.ndarray, count: int, noisy=operator.add,
                 head: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``U``, what ``ranked(noisy(values, kind.inverse_cdf_array(U)),
    count)`` gives, where ``noisy`` is non-decreasing in both arguments.

    ``by_value`` is :func:`gapdp.queries.descending` of ``values[head:]``.
    On ``_PARTITION_COLUMNS`` columns or more, noise is computed only for
    the columns that can still rank.  The seed columns, the first ``head``
    and those of the ``2 * count`` largest values, are ranked first; in
    every row, ``count`` noisy values are at or above the least of the
    rows' ``count``-th largest noisy seed values, the level.  A column whose
    ``noisy`` value, with its noise replaced by the
    :func:`gapdp.noise.ceiling` of the largest draw in ``U``, is below the
    level cannot rank: the same float expression, rounded monotonically,
    bounds its noisy value.  Those bounds fall with the value, so the
    columns that can rank are the largest values, found by bisection.  If
    they are all in the seed, as they mostly are, the seed's ranking is the
    row's; else they and the first ``head`` columns are ranked, or the
    whole row where every column can rank.  Columns are ranked in index
    order, so ties break as over the whole row.  A level of -inf (a draw
    of 0) or a ceiling that is not finite keeps every column.
    """
    order, ordered = by_value
    if U.shape[1] < _PARTITION_COLUMNS or len(order) <= count or not len(U):
        return ranked(noisy(values, kind.inverse_cdf_array(U)), count)
    seed = np.sort(order[:2 * count]) + head
    if head:
        seed = np.concatenate((np.arange(head), seed))
    picked, picked_values = ranked(noisy(values[seed], kind.inverse_cdf_array(U[:, seed])), count)
    level = float(picked_values[:, -1].min())
    top = ceiling(kind, float(U.max()))
    rankable = len(order)
    if math.isfinite(level) and math.isfinite(top):
        rankable = leading(ordered, lambda v: noisy(v, top) >= level, level - noisy(0.0, top))
    if rankable <= 2 * count:
        return seed[picked], picked_values
    if rankable == len(order):
        return ranked(noisy(values, kind.inverse_cdf_array(U)), count)
    cols = np.concatenate((seed[:head], np.sort(order[:rankable]) + head))
    picked, picked_values = ranked(noisy(values[cols], kind.inverse_cdf_array(U[:, cols])), count)
    return cols[picked], picked_values


def top_gaps(order: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of :func:`ranked`'s ``count`` indices and values per row, the first
    ``count - 1`` indices and the gap from each to the next ranked entry."""
    with np.errstate(invalid="ignore"):  # -inf minus -inf: a NaN gap
        return order[:, :-1], top[:, :-1] - top[:, 1:]


def single_run(kernel, draws: int, src: RandomSource) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The codes and gaps ``kernel`` gives for one trial on the next ``draws``
    uniforms of ``src``, less the -1 padding, which follows the released ones."""
    codes, gaps = (row[0].tolist() for row in kernel(src.uniform_matrix(1, draws)))
    released = len(codes) - codes.count(-1)
    return tuple(codes[:released]), tuple(gaps[:released])


def gap_topk_batch(q: QuerySet, k: int, eps: float, noise: str = "laplace"):
    """The kernel of :func:`gap_topk` on ``q``, which the audit runs directly.

    Returns ``(n, kernel)``; ``kernel(U)`` maps a (trials, n) uniform
    matrix to every trial's selected indices (int64, trials x k) and gaps
    (float64, trials x k).
    """
    kind = _selection_noise(q, k, eps, noise)
    values = q.value_array

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return top_gaps(*noisy_ranked(values, q.by_value, kind, U, k + 1))

    return len(values), kernel


def pairwise_gap(r: TopKResult, a: int, b: int) -> float:
    """Noisy margin between the a-th and b-th ranked queries (1-based ranks).

    Telescopes the consecutive gaps, so it equals the difference of the two
    noisy values exactly.  Rank k+1 addresses the unreleased runner-up, which
    the k-th gap bridges to.
    """
    k = len(r.gaps)
    if not 1 <= a < b <= k + 1:
        raise ValueError(f"ranks must satisfy 1 <= a < b <= {k + 1}, got a={a}, b={b}")
    return sum(r.gaps[a - 1:b - 1])
