"""Noisy top-k selection that also releases the consecutive noisy gaps.

Every query gets i.i.d. noise of scale 2k/epsilon (Laplace, or one-sided
exponential for tighter gaps).  The indices of the k largest noisy values are
released in descending order together with the gap to the next noisy value;
the (k+1)-th value serves only as the runner-up and is never output.  The run
is charged ``epsilon`` (``epsilon/2`` for monotonic counting queries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import FamilyNoise, NoiseKind, RandomSource
from .queries import QuerySet

__all__ = ["TopKResult", "gap_topk", "gap_topk_batch", "pairwise_gap"]


@dataclass(frozen=True)
class TopKResult:
    """k (index, gap) pairs in descending noisy order, plus the charged budget.

    ``pairs[i]`` gives the i-th ranked index and the noisy margin to the
    (i+1)-th ranked noisy value; gaps are strictly positive except on
    measure-zero ties.
    """

    pairs: tuple[tuple[int, float], ...]
    epsilon_charged: float

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(index for index, _ in self.pairs)

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(gap for _, gap in self.pairs)

    def audit_output(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The ranked indices and their gaps: what the auditor bins."""
        return self.indices, self.gaps


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
    return TopKResult(single_run(kernel, draws, src), charged)


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
#: 11): 1x1000 took 36 us by sort against 52 us by partition, 1x1200 63
#: against 41 us, 1x10^4 1028 against 141 us, and 4096x3 (the audit's
#: chunks, count 3) 230 against 1109 us.
_PARTITION_COLUMNS = 1200


def ranked(noisy: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the indices and values of the ``count`` largest entries in
    descending order.  Equal entries keep their index order, so ties go to
    the lowest index, and a -inf entry (the noise of a zero draw) ranks last."""
    rows = np.arange(len(noisy))[:, None]
    negated = -noisy
    if noisy.shape[1] < _PARTITION_COLUMNS:
        order = np.argsort(negated, axis=1, kind="stable")[:, :count]
    else:
        # Keep the entries above the count-th largest value, and as many of
        # the entries equal to it as are still needed, lowest index first:
        # exactly the columns a stable sort puts first.  Then sort only those.
        cut = np.partition(negated, count - 1, axis=1)[:, count - 1 : count]
        above = negated < cut
        tied = negated == cut
        needed = count - np.count_nonzero(above, axis=1)[:, None]
        keep = above | (tied & (np.cumsum(tied, axis=1) <= needed))
        chosen = np.nonzero(keep)[1].reshape(len(noisy), count)
        order = chosen[rows, np.argsort(negated[rows, chosen], axis=1, kind="stable")]
    return order, noisy[rows, order]


def top_gaps(noisy: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the indices of the ``k`` largest entries as :func:`ranked`
    orders them, and the gap from each to the next ranked entry."""
    order, top = ranked(noisy, k + 1)
    with np.errstate(invalid="ignore"):  # -inf minus -inf: a NaN gap
        return order[:, :k], top[:, :k] - top[:, 1:]


def single_run(kernel, draws: int, src: RandomSource) -> tuple[tuple[int, float], ...]:
    """The (index, gap) pairs ``kernel`` gives for one trial on the next
    ``draws`` uniforms of ``src``, with the -1 padding dropped."""
    codes, gaps = kernel(src.uniform_matrix(1, draws))
    return tuple(
        (c, g) for c, g in zip(codes[0].tolist(), gaps[0].tolist()) if c != -1
    )


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
    k = len(r.pairs)
    if not 1 <= a < b <= k + 1:
        raise ValueError(f"ranks must satisfy 1 <= a < b <= {k + 1}, got a={a}, b={b}")
    return sum(r.pairs[i][1] for i in range(a - 1, b - 1))
