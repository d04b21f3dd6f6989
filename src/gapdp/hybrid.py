"""Hybrids of threshold filtering and top-k selection with dynamic budgets.

Both mechanisms return the subset of the (approximate) top k noisy queries
that clear a noisy public threshold, so the privacy cost shrinks when fewer
than k queries qualify:

* :func:`hybrid_identity` noises the threshold like an extra query (index 0)
  and plays plain noisy top-(k+1) over the extended list.  Emission stops
  when the threshold sentinel surfaces; if it does, the sentinel pair is the
  last one returned and its gap bridges down to the runner-up below the
  threshold.  Returning t pairs costs (t/k) * epsilon.
* :func:`hybrid_estimates` debiases one-sided noise, sorts queries by noisy
  value and then scans them against the noisy threshold like a sparse-vector
  pass, so every gap is measured against the threshold and turns into an
  answer estimate by adding the public threshold back.  Returning t pairs
  costs (theta + (t/k)(1-theta)) * epsilon.

Monotonic-query scale reductions do not apply to either hybrid.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .noise import Exponential, FamilyNoise, RandomSource, ReplaySource, sample
from .queries import QuerySet
from .topk import ranked

__all__ = [
    "HybridResult",
    "hybrid_estimates",
    "hybrid_estimates_batch",
    "hybrid_identity",
    "hybrid_identity_batch",
]

THRESHOLD_SENTINEL = 0  # index reserved for the noisy threshold in hybrid_identity


@dataclass(frozen=True)
class HybridResult:
    """Pairs released by a hybrid run plus the budget it actually consumed.

    For the "identity" variant, query indices are 1-based and index 0 is the
    threshold sentinel, which (if present) is always the final pair.  For the
    "estimates" variant indices are plain 0-based query positions.
    """

    pairs: tuple[tuple[int, float], ...]
    actual_cost: float
    variant: str

    def query_pairs(self) -> tuple[tuple[int, float], ...]:
        """Pairs for real queries only, as 0-based (index, gap)."""
        if self.variant == "identity":
            return tuple(
                (index - 1, gap)
                for index, gap in self.pairs
                if index != THRESHOLD_SENTINEL
            )
        return self.pairs

    def answer_estimates(self, threshold: float) -> tuple[float, ...]:
        """Gap-derived answer estimates: gap + public threshold, per query pair.

        Meaningful when gaps are measured against the threshold: always for
        the estimates variant, and for the identity variant only when the
        sentinel pair was reached (every earlier gap then chains down to it).
        """
        return tuple(gap + threshold for _, gap in self.query_pairs())


def hybrid_identity(
    q: QuerySet, threshold: float, k: int, eps: float, src: RandomSource
) -> HybridResult:
    """Top-k-first hybrid: accurate identities, threshold as query 0.

    All values (threshold included) get Exponential(2k/eps) noise; the top
    k+1 noisy values are selected and consecutive gaps emitted until the
    threshold sentinel is reached, which is returned as the final pair.
    """
    n = len(q.values)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"need at least k = {k} queries, got {n}")
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    kind = Exponential(2.0 * k / eps)

    noisy = [threshold + sample(kind, src)]
    noisy.extend(value + sample(kind, src) for value in q.values)
    top = heapq.nlargest(
        k + 1, ((noisy[i], -i) for i in range(n + 1))
    )
    pairs: list[tuple[int, float]] = []
    for i in range(k):
        index = -top[i][1]
        pairs.append((index, top[i][0] - top[i + 1][0]))
        if index == THRESHOLD_SENTINEL:
            break
    t = len(pairs)
    return HybridResult(tuple(pairs), (t / k) * eps, "identity")


def hybrid_identity_batch(q: QuerySet, threshold: float, k: int, eps: float):
    """Batch kernel of :func:`hybrid_identity` on ``q``, for the audit.

    Returns ``(n + 1, kernel, False)``; ``kernel(U)`` maps a (trials, n + 1)
    uniform matrix (threshold draw first) to every trial's released indices
    (int64, -1 after the sentinel) and gaps (float64, NaN after it).
    """
    n = len(q.values)
    # One scalar run on a replayed row rejects what the scalar function rejects.
    hybrid_identity(q, threshold, k, eps, ReplaySource([0.5] * (n + 1)))
    kind = Exponential(2.0 * k / eps)
    offsets = np.array((threshold,) + q.values)

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order, top = ranked(offsets + kind.inverse_cdf_array(U), k + 1)
        codes, gaps = order[:, :k], top[:, :k] - top[:, 1:]
        sentinel = codes == THRESHOLD_SENTINEL
        past = np.cumsum(sentinel, axis=1) > sentinel
        return np.where(past, -1, codes), np.where(past, np.nan, gaps)

    return n + 1, kernel, False


def hybrid_estimates(
    q: QuerySet,
    threshold: float,
    k: int,
    eps: float,
    theta: float,
    src: RandomSource,
) -> HybridResult:
    """Estimate-first hybrid: threshold scan over the noisy-sorted queries.

    Debiased exponential noise (threshold at rate eps0 = theta*eps, queries
    at scale 2/eps1 with eps1 = (1-theta)*eps/k); emits (index, noisy value
    minus noisy threshold) while the scan stays above the threshold.
    """
    n = len(q.values)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"need at least k = {k} queries, got {n}")
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    thr = FamilyNoise("exponential", theta * eps)
    query = FamilyNoise("exponential", (1.0 - theta) * eps / k, 2.0)

    noisy_threshold = threshold + sample(thr.kind, src) - thr.centre
    query_kind, b1 = query.kind, query.centre
    noisy = [value + sample(query_kind, src) - b1 for value in q.values]
    top = heapq.nlargest(k, ((noisy[i], -i) for i in range(n)))
    pairs: list[tuple[int, float]] = []
    for value, neg_index in top:
        if value < noisy_threshold:
            break
        pairs.append((-neg_index, value - noisy_threshold))
    t = len(pairs)
    return HybridResult(tuple(pairs), (theta + (t / k) * (1.0 - theta)) * eps, "estimates")


def hybrid_estimates_batch(
    q: QuerySet, threshold: float, k: int, eps: float, theta: float
):
    """Batch kernel of :func:`hybrid_estimates` on ``q``, for the audit.

    Returns ``(n + 1, kernel, False)``; ``kernel(U)`` maps a (trials, n + 1)
    uniform matrix (threshold draw first) to every trial's released indices
    (int64, -1 padded) and gaps over the noisy threshold (float64, NaN padded).
    """
    n = len(q.values)
    # One scalar run on a replayed row rejects what the scalar function rejects.
    hybrid_estimates(q, threshold, k, eps, theta, ReplaySource([0.5] * (n + 1)))
    thr = FamilyNoise("exponential", theta * eps)
    query = FamilyNoise("exponential", (1.0 - theta) * eps / k, 2.0)
    threshold_kind, b0 = thr.kind, thr.centre
    query_kind, b1 = query.kind, query.centre
    values = np.array(q.values)

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        noisy_threshold = threshold + threshold_kind.inverse_cdf_array(U[:, :1]) - b0
        order, top = ranked(values + query_kind.inverse_cdf_array(U[:, 1:]) - b1, k)
        above = np.logical_and.accumulate(top >= noisy_threshold, axis=1)
        return np.where(above, order, -1), np.where(above, top - noisy_threshold, np.nan)

    return n + 1, kernel, False
