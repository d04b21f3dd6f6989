"""Noisy top-k selection that also releases the consecutive noisy gaps.

Every query gets i.i.d. noise of scale 2k/epsilon (Laplace, or one-sided
exponential for tighter gaps).  The indices of the k largest noisy values are
released in descending order together with the gap to the next noisy value;
the (k+1)-th value serves only as the runner-up and is never output.  The run
is charged ``epsilon`` (``epsilon/2`` for monotonic counting queries).
"""

from __future__ import annotations

import numpy as np

from .audit import Release
from .noise import FamilyNoise, NoiseKind, RandomSource
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
    draws, kernel, _ = gap_topk_batch(q, k, eps, noise)
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
#: 3) 188 against 520-543 us.
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


def top_gaps(noisy: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the indices of the ``k`` largest entries as :func:`ranked`
    orders them, and the gap from each to the next ranked entry."""
    order, top = ranked(noisy, k + 1)
    with np.errstate(invalid="ignore"):  # -inf minus -inf: a NaN gap
        return order[:, :k], top[:, :k] - top[:, 1:]


def single_run(kernel, draws: int, src: RandomSource) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The codes and gaps ``kernel`` gives for one trial on the next ``draws``
    uniforms of ``src``, less the -1 padding, which follows the released ones."""
    codes, gaps = (row[0].tolist() for row in kernel(src.uniform_matrix(1, draws)))
    released = len(codes) - codes.count(-1)
    return tuple(codes[:released]), tuple(gaps[:released])


def gap_topk_batch(q: QuerySet, k: int, eps: float, noise: str = "laplace"):
    """The kernel of :func:`gap_topk` on ``q``, which the audit runs directly.

    Returns ``(n, kernel, None)``, no trial stopping early; ``kernel(U)``
    maps a (trials, n) uniform matrix to every trial's selected indices
    (int64, trials x k) and gaps (float64, trials x k).
    """
    kind = _selection_noise(q, k, eps, noise)
    values = q.value_array

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return top_gaps(values + kind.inverse_cdf_array(U), k)

    return len(values), kernel, None


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
