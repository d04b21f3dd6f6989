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

import math

import numpy as np

from .audit import Release
from .noise import Exponential, FamilyNoise, RandomSource
from .queries import QuerySet
from .topk import noisy_ranked, single_run, top_gaps

__all__ = [
    "HybridIdentityResult",
    "HybridResult",
    "hybrid_estimates",
    "hybrid_estimates_batch",
    "hybrid_identity",
    "hybrid_identity_batch",
]

THRESHOLD_SENTINEL = 0  # index reserved for the noisy threshold in hybrid_identity


class HybridResult(Release):
    """The indices and gaps a hybrid run released, and one charge for them.
    Indices are 0-based query positions, as :func:`hybrid_estimates` gives."""

    @property
    def actual_cost(self) -> float:
        return self.consumed

    def query_pairs(self) -> tuple[tuple[int, float], ...]:
        """Pairs for real queries only, as 0-based (index, gap)."""
        return self.pairs

    def answer_estimates(self, threshold: float) -> tuple[float, ...]:
        """Gap-derived answer estimates: gap + public threshold, per query pair.

        Meaningful when gaps are measured against the threshold: always for
        :func:`hybrid_estimates`, and for :func:`hybrid_identity` only when the
        sentinel pair was reached (every earlier gap then chains down to it).
        """
        return tuple(gap + threshold for _, gap in self.query_pairs())


class HybridIdentityResult(HybridResult):
    """A :func:`hybrid_identity` release: query indices are 1-based and
    index 0 is the threshold sentinel, which (if present) is always the
    final pair."""

    def query_pairs(self) -> tuple[tuple[int, float], ...]:
        return tuple((index - 1, gap) for index, gap in self.pairs if index != THRESHOLD_SENTINEL)


def _check(q: QuerySet, threshold: float, k: int, eps: float) -> None:
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    n = len(q.values)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"need at least k = {k} queries, got {n}")
    if not eps > 0.0:
        raise ValueError("eps must be > 0")


def hybrid_identity(
    q: QuerySet, threshold: float, k: int, eps: float, src: RandomSource
) -> HybridResult:
    """Top-k-first hybrid: accurate identities, threshold as query 0.

    All values (threshold included) get Exponential(2k/eps) noise; the top
    k+1 noisy values are selected and consecutive gaps emitted until the
    threshold sentinel is reached, which is returned as the final pair.
    Runs :func:`hybrid_identity_batch`'s kernel on the next n + 1 uniforms.
    """
    draws, kernel = hybrid_identity_batch(q, threshold, k, eps)
    codes, gaps = single_run(kernel, draws, src)
    return HybridIdentityResult(codes, gaps, eps, ((len(codes) / k) * eps,))


def hybrid_identity_batch(q: QuerySet, threshold: float, k: int, eps: float):
    """The kernel of :func:`hybrid_identity` on ``q``, which the audit runs
    directly.

    Returns ``(n + 1, kernel)``; ``kernel(U)`` maps a (trials, n + 1)
    uniform matrix (threshold draw first) to every trial's released indices
    (int64, -1 after the sentinel) and gaps (float64, NaN after it).
    """
    _check(q, threshold, k, eps)
    kind = Exponential(2.0 * k / eps)
    offsets = np.concatenate([[threshold], q.value_array])

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        codes, gaps = top_gaps(*noisy_ranked(offsets, q.by_value, kind, U, k + 1, head=1))
        sentinel = codes == THRESHOLD_SENTINEL
        past = np.cumsum(sentinel, axis=1) > sentinel
        return np.where(past, -1, codes), np.where(past, np.nan, gaps)

    return len(offsets), kernel


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
    minus noisy threshold) while the scan stays above the threshold.  Runs
    :func:`hybrid_estimates_batch`'s kernel on the next n + 1 uniforms.
    """
    draws, kernel = hybrid_estimates_batch(q, threshold, k, eps, theta)
    codes, gaps = single_run(kernel, draws, src)
    t = len(codes)
    return HybridResult(codes, gaps, eps, ((theta + (t / k) * (1.0 - theta)) * eps,))


def hybrid_estimates_batch(
    q: QuerySet, threshold: float, k: int, eps: float, theta: float
):
    """The kernel of :func:`hybrid_estimates` on ``q``, which the audit runs
    directly.

    Returns ``(n + 1, kernel)``; ``kernel(U)`` maps a (trials, n + 1)
    uniform matrix (threshold draw first) to every trial's released indices
    (int64, -1 padded) and gaps over the noisy threshold (float64, NaN
    padded).
    """
    _check(q, threshold, k, eps)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    thr = FamilyNoise("exponential", theta * eps)
    query = FamilyNoise("exponential", (1.0 - theta) * eps / k, 2.0)
    threshold_kind, b0 = thr.kind, thr.centre
    query_kind, b1 = query.kind, query.centre
    values = q.value_array

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        noisy_threshold = threshold + threshold_kind.inverse_cdf_array(U[:, :1]) - b0
        order, top = noisy_ranked(values, q.by_value, query_kind, U[:, 1:], k,
                                  lambda v, z: v + z - b1)
        above = np.logical_and.accumulate(top >= noisy_threshold, axis=1)
        return np.where(above, order, -1), np.where(above, top - noisy_threshold, np.nan)

    return len(values) + 1, kernel
