"""Noisy top-k selection that also releases the consecutive noisy gaps.

Every query gets i.i.d. noise of scale 2k/epsilon (Laplace, or one-sided
exponential for tighter gaps).  The indices of the k largest noisy values are
released in descending order together with the gap to the next noisy value;
the (k+1)-th value serves only as the runner-up and is never output.  The run
is charged ``epsilon`` (``epsilon/2`` for monotonic counting queries).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .noise import FamilyNoise, NoiseKind, RandomSource, ReplaySource, sample
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
    """
    n = len(q.values)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k + 1 > n:
        raise ValueError(f"need at least k+1 = {k + 1} queries, got {n}")
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    if src is None:
        raise ValueError("gap_topk needs a RandomSource, e.g. src=SeededSource(seed)")
    kind = _selection_noise(k, eps, noise)

    # Single selection pass over (value, -index) keeps the lowest index on ties.
    top = heapq.nlargest(
        k + 1,
        ((q.values[i] + sample(kind, src), -i) for i in range(n)),
    )
    pairs = tuple(
        (-top[i][1], top[i][0] - top[i + 1][0]) for i in range(k)
    )
    charged = eps / 2.0 if q.monotonic else eps
    return TopKResult(pairs, charged)


def _selection_noise(k: int, eps: float, noise: str) -> NoiseKind:
    selection = FamilyNoise(noise, eps, 2.0 * k)
    if selection.family == "geometric":
        raise ValueError(f"noise must be laplace or exponential, got {noise!r}")
    return selection.kind


def ranked(noisy: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the indices and values of the ``count`` largest entries in
    descending order, ties to the lowest index (as ``heapq.nlargest`` over
    ``(value, -index)`` orders them)."""
    order = np.argsort(-noisy, axis=1, kind="stable")[:, :count]
    return order, np.take_along_axis(noisy, order, axis=1)


def gap_topk_batch(q: QuerySet, k: int, eps: float, noise: str = "laplace"):
    """Batch kernel of :func:`gap_topk` on ``q``, for the audit.

    Returns ``(n, kernel, False)``; ``kernel(U)`` maps a (trials, n) uniform
    matrix to every trial's selected indices (int64, trials x k) and gaps
    (float64, trials x k).
    """
    n = len(q.values)
    # One scalar run on a replayed row rejects what the scalar function rejects.
    gap_topk(q, k, eps, noise, ReplaySource([0.5] * n))
    kind = _selection_noise(k, eps, noise)
    values = np.array(q.values)

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order, top = ranked(values + kind.inverse_cdf_array(U), k + 1)
        return order[:, :k], top[:, :k] - top[:, 1:]

    return n, kernel, False


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
