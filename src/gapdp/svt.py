"""Sparse-vector mechanisms that release the above-threshold gap for free.

Two variants share a config:

* :func:`gap_svt` -- noisy threshold, one noisy comparison per query, emits
  ``(above, gap)`` and charges ``eps1`` per above-threshold report.
* :func:`adaptive_svt` -- adds a high-noise first test; queries that clear the
  noisy threshold by at least two standard deviations are reported from that
  "top" branch at half cost (``eps2 = eps1/2``), leaving budget for more
  answers.

Both stop once the consumed budget exceeds ``epsilon - eps1``, so the total
consumption never exceeds ``epsilon``.  One-sided exponential or geometric
noise (the latter for integer-valued queries) can replace Laplace noise; the
one-sided draws are debiased by their expected value so gaps stay centered.

Also here: the budget-split tuner :func:`theta_optimal`, and the lower
confidence machinery for gap estimates (:func:`tail_probability`,
:func:`lower_confidence_t`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import FamilyNoise, RandomSource, canonical_family, sample, variance_of
from .queries import QuerySet

__all__ = [
    "BudgetLedger",
    "SvtConfig",
    "SvtItem",
    "SvtResult",
    "adaptive_svt",
    "gap_svt",
    "lower_confidence_t",
    "svt_batch",
    "tail_probability",
    "theta_optimal",
]

# Float-sum fuzz allowed when checking consumed <= allocated.
_BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class BudgetLedger:
    """Privacy budget accounting: allocated vs consumed."""

    allocated: float
    consumed: float

    def __post_init__(self):
        if not self.allocated > 0.0:
            raise ValueError("allocated budget must be > 0")
        if self.consumed < 0.0 or self.consumed > self.allocated + _BUDGET_TOL:
            raise ValueError(
                f"consumed budget {self.consumed} outside [0, {self.allocated}]"
            )

    @property
    def remaining(self) -> float:
        return self.allocated - self.consumed


@dataclass(frozen=True)
class SvtConfig:
    """Configuration for the sparse-vector mechanisms.

    ``k`` is the minimum number of above-threshold queries the run is able to
    report; ``theta`` splits the budget between the threshold (``eps0``) and
    the per-query reports (``eps1``, and ``eps2 = eps1/2`` for the adaptive
    top branch).
    """

    epsilon: float
    k: int
    threshold: float
    theta: float
    noise: str = "laplace"
    monotonic: bool = False
    adaptive: bool = False

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be > 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        object.__setattr__(self, "noise", canonical_family(self.noise))

    @property
    def eps0(self) -> float:
        return self.theta * self.epsilon

    @property
    def eps1(self) -> float:
        return (1.0 - self.theta) * self.epsilon / self.k

    @property
    def eps2(self) -> float:
        return self.eps1 / 2.0


@dataclass(frozen=True, slots=True)
class SvtItem:
    """One per-query outcome: below threshold, or above with its noisy gap.

    ``branch`` is "top" or "middle" for above-threshold reports (gap_svt only
    produces "middle"); ``budget_used`` is 0, eps1 or eps2 accordingly.
    """

    index: int
    above: bool
    gap: float
    branch: Optional[str]
    budget_used: float


@dataclass(frozen=True)
class SvtResult:
    items: tuple[SvtItem, ...]
    ledger: BudgetLedger

    def above_items(self) -> tuple[SvtItem, ...]:
        return tuple(item for item in self.items if item.above)


def _noises(cfg: SvtConfig) -> tuple[FamilyNoise, FamilyNoise, FamilyNoise]:
    """Threshold noise at eps0 and query noise at eps1 and eps2.  Monotonic
    lists support half the query noise scale at the same privacy cost."""
    spread = 1.0 if cfg.monotonic else 2.0
    return (FamilyNoise(cfg.noise, cfg.eps0), FamilyNoise(cfg.noise, cfg.eps1, spread),
            FamilyNoise(cfg.noise, cfg.eps2, spread))


def _require_integer_queries(q: QuerySet, cfg: SvtConfig) -> None:
    if cfg.noise != "geometric":
        return
    for v in q.values:
        if not float(v).is_integer():
            raise ValueError(
                f"geometric noise requires integer query values, got {v}"
            )


def _scan(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """The scan of :func:`gap_svt`, or of :func:`adaptive_svt` when
    ``cfg.adaptive``.  Each keeps its own middle-branch comparison: the two
    differ on infinite draws, which zero-noise traces replay."""
    _require_integer_queries(q, cfg)
    adaptive = cfg.adaptive
    eps, eps1, eps2 = cfg.epsilon, cfg.eps1, cfg.eps2
    thr, mid, top = _noises(cfg)
    thr_kind = thr.kind
    if adaptive:
        top_kind, b2 = top.kind, top.centre
        margin = 2.0 * math.sqrt(variance_of(top_kind))
    mid_kind, b1 = mid.kind, mid.centre

    noisy_threshold = cfg.threshold + sample(thr_kind, src) - thr.centre
    consumed = cfg.eps0
    items: list[SvtItem] = []
    for i, value in enumerate(q.values):
        if adaptive:
            noisy_top = value + sample(top_kind, src) - b2
        noisy_mid = value + sample(mid_kind, src) - b1
        if adaptive and noisy_top - noisy_threshold >= margin:
            items.append(SvtItem(i, True, noisy_top - noisy_threshold, "top", eps2))
            consumed += eps2
        elif (noisy_mid - noisy_threshold >= 0.0 if adaptive
              else noisy_mid >= noisy_threshold):
            items.append(SvtItem(i, True, noisy_mid - noisy_threshold, "middle", eps1))
            consumed += eps1
        else:
            items.append(SvtItem(i, False, 0.0, None, 0.0))
        if consumed > eps - eps1:
            break
    return SvtResult(tuple(items), BudgetLedger(eps, consumed))


def gap_svt(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Above-threshold reports with their noisy gaps, single branch.

    The threshold is noised once at scale 1/eps0; each query is noised at
    scale 2/eps1 (1/eps1 for monotonic lists).  An above-threshold report
    emits the noisy gap and charges eps1; the scan stops once the consumed
    budget exceeds epsilon - eps1 or the queries run out.
    """
    if cfg.adaptive:
        raise ValueError("gap_svt requires a config with adaptive=False")
    return _scan(q, cfg, src)


def adaptive_svt(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Two-branch sparse vector: cheap reports for far-above-threshold queries.

    Per query, a heavily noised value (branch budget eps2) is tested first
    against the noisy threshold plus 2 sigma, where sigma is the standard
    deviation of that top-branch noise; passing reports the gap at cost eps2.
    Otherwise a moderately noised value (eps1) is tested at margin 0.  Both
    noise values are always drawn, whether or not they are used, so replayed
    traces are stable.
    """
    if not cfg.adaptive:
        raise ValueError("adaptive_svt requires a config with adaptive=True")
    return _scan(q, cfg, src)


def svt_batch(q: QuerySet, cfg: SvtConfig):
    """Batch kernel of :func:`gap_svt` (or :func:`adaptive_svt` when
    ``cfg.adaptive``) on ``q``, for the audit and the experiment harness:
    returns ``(draws, kernel, True)``, the scan being able to stop early.

    ``kernel(U, thresholds=None)`` takes a (trials, draws) uniform matrix
    laid out as the scalar scan reads it (threshold, then per query its top
    draw if adaptive and its middle draw) and returns every trial's audit
    output at once: ``codes`` (int64, one tag per scanned query: 0 below,
    1 middle, 2 top; -1 past the stop), ``gaps`` (float64, the released gaps
    in scan order, NaN-padded) and ``used`` (int64, the draws the trial
    read).  ``thresholds``, one per row, replaces ``cfg.threshold``.  A trial
    stops where the scalar scan stops and the rest of its row goes unread.
    The budget sum is accumulated in the scalar scan's order, so both stop
    after the same query.

    Two bodies compute the same outputs: one steps through the queries, with
    every trial at once, and quits when all trials have stopped; the other
    takes every query at once and finds each stop with a running sum.  The
    first wins on many trials over few queries (the audit), the second on
    few trials over many queries (the harness); :func:`_scan_whole` picks.
    """
    _require_integer_queries(q, cfg)
    adaptive, eps, eps1, eps2 = cfg.adaptive, cfg.epsilon, cfg.eps1, cfg.eps2
    thr, mid, top = _noises(cfg)
    thr_kind, b0 = thr.kind, thr.centre
    mid_kind, b1 = mid.kind, mid.centre
    if adaptive:
        top_kind, b2 = top.kind, top.centre
        margin = 2.0 * math.sqrt(variance_of(top_kind))
    per_query = 2 if adaptive else 1
    n = len(q.values)
    values = np.array(q.values)[:, None]

    def outcome(noisy_threshold, noisy_mid, noisy_top):
        """Tags, candidate gaps and costs of queries against the threshold."""
        if adaptive:
            top = noisy_top - noisy_threshold >= margin
            mid = ~top & (noisy_mid - noisy_threshold >= 0.0)
            gap = np.where(top, noisy_top, noisy_mid) - noisy_threshold
            return 2 * top + mid, gap, np.where(top, eps2, eps1)
        mid = noisy_mid >= noisy_threshold
        return mid.astype(np.int64), noisy_mid - noisy_threshold, eps1

    def whole(noisy_threshold, noisy_mids, noisy_tops):
        """The kernel's outputs with every query at once."""
        m = len(noisy_threshold)
        tag, gap, cost = outcome(noisy_threshold, noisy_mids, noisy_tops)
        above = tag > 0
        # Adding 0.0 for a query below the threshold leaves the sum as the
        # scalar scan leaves it, so both stop after the same query.
        spent = np.where(above, cost, 0.0)
        consumed = np.cumsum(np.vstack([np.full(m, cfg.eps0), spent]), axis=0)[1:]
        stopped = np.logical_or.accumulate(consumed > eps - eps1, axis=0)
        live = np.vstack([np.ones((1, m), dtype=bool), ~stopped[:-1]])
        released = above & live
        # Released gaps first, in scan order; the rest becomes padding.
        order = np.argsort(~released, axis=0, kind="stable")
        gaps = np.take_along_axis(gap, order, axis=0)
        gaps[np.arange(n)[:, None] >= released.sum(axis=0)] = np.nan
        return np.where(live, tag, -1).T, gaps.T, 1 + per_query * live.sum(axis=0)

    def kernel(U: np.ndarray, thresholds: Optional[np.ndarray] = None):
        rows = U.T  # one row per draw position; contiguous for stream windows
        threshold = cfg.threshold if thresholds is None else thresholds
        noisy_threshold = threshold + thr_kind.inverse_cdf_array(rows[0]) - b0
        noisy_mids = values + mid_kind.inverse_cdf_array(rows[per_query::per_query]) - b1
        noisy_tops = (values + top_kind.inverse_cdf_array(rows[1::2]) - b2
                      if adaptive else None)
        if _scan_whole(len(U), n):
            return whole(noisy_threshold, noisy_mids, noisy_tops)
        # Step through the queries with every trial at once.  Kept inline:
        # as a nested function called from here it ran the audit's SVT
        # cases about 30% slower.
        m = len(U)
        consumed = np.full(m, cfg.eps0)
        live = np.ones(m, dtype=bool)
        scanned = np.zeros(m, dtype=np.int64)
        released = np.zeros(m, dtype=np.int64)
        codes = np.full((m, n), -1, dtype=np.int64)
        gaps = np.full((m, n), np.nan)
        for i, noisy_mid in enumerate(noisy_mids):
            tag, gap, cost = outcome(
                noisy_threshold, noisy_mid, noisy_tops[i] if adaptive else None
            )
            above = (tag > 0) & live
            scanned += live
            codes[:, i] = np.where(live, tag, -1)
            hit = np.flatnonzero(above)
            gaps[hit, released[hit]] = gap[hit]
            released += above
            consumed = np.where(above, consumed + cost, consumed)
            live &= ~(consumed > eps - eps1)
            if not live.any():
                break
        return codes, gaps, 1 + per_query * scanned

    return 1 + per_query * n, kernel, True


def _scan_whole(trials: int, queries: int) -> bool:
    """Whether :func:`svt_batch`'s kernel takes every query at once.

    The stepwise body makes ~15 numpy calls per query it reaches, each over
    all trials; the whole body makes a fixed ~20 over the full (trials,
    queries) block.  Measured on a 2-core x86 host: 32 trials over 200
    queries take 0.45 ms whole and 3.1 ms stepwise; 4096 audit windows over
    3 queries take 2.1 ms whole and 1.1 ms stepwise.
    """
    return trials <= queries


# Cube coefficient m in theta = 1/(1 + (m k^2)^(1/3)), per (branch, monotonic).
_THETA_CUBE = {
    ("top", False): 16.0,
    ("middle", False): 4.0,
    ("top", True): 4.0,
    ("middle", True): 1.0,
}


def theta_optimal(
    k: int,
    branch: str = "middle",
    monotonic: bool = False,
    noise: str = "laplace",
    eps: Optional[float] = None,
) -> float:
    """Budget split minimizing the gap variance for the given branch.

    Laplace and exponential noise share the closed form
    ``1/(1 + (m k^2)^(1/3))`` with m in {1, 4, 16} depending on branch and
    monotonicity.  For geometric noise the gap variance
    ``e^r0/(e^r0-1)^2 + e^r1/(e^r1-1)^2`` (rates r0 = theta*eps,
    r1 = (1-theta)*eps/(c*k)) is convex in theta and is minimized
    numerically, which is why ``eps`` is required there.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if branch not in ("top", "middle"):
        raise ValueError(f"branch must be 'top' or 'middle', got {branch!r}")
    family = canonical_family(noise)
    m = _THETA_CUBE[(branch, monotonic)]
    if family in ("laplace", "exponential"):
        return 1.0 / (1.0 + (m * k * k) ** (1.0 / 3.0))
    if eps is None:
        raise ValueError("geometric noise needs eps to tune theta")
    from scipy.optimize import minimize_scalar  # costs ~0.5 s; only this branch needs it

    c = math.sqrt(m)

    def gap_variance(theta: float) -> float:
        return (FamilyNoise("geometric", theta * eps).variance
                + FamilyNoise("geometric", (1.0 - theta) * eps, c * k).variance)

    res = minimize_scalar(
        gap_variance, bounds=(1e-6, 1.0 - 1e-6), method="bounded",
        options={"xatol": 1e-9},
    )
    return float(res.x)


def tail_probability(t: float, eps0: float, eps_star: float) -> float:
    """P(eta_i - eta >= -t) for independent zero-mean Laplace noises.

    ``eta`` has scale 1/eps0 (threshold noise) and ``eta_i`` scale 1/eps_star
    (query noise); the difference is the randomness inside a reported gap.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if not (eps0 > 0.0 and eps_star > 0.0):
        raise ValueError("rates must be > 0")
    if math.isclose(eps0, eps_star, rel_tol=1e-9):
        e = 0.5 * (eps0 + eps_star)
        return 1.0 - ((2.0 + e * t) / 4.0) * math.exp(-e * t)
    a = eps0 * eps0
    b = eps_star * eps_star
    return 1.0 - (a * math.exp(-eps_star * t) - b * math.exp(-eps0 * t)) / (2.0 * (a - b))


def lower_confidence_t(level: float, eps0: float, eps_star: float) -> float:
    """The t with tail_probability(t) = level, so that gap - t is a lower
    confidence bound for the true query-minus-threshold margin.

    Only levels in (0.5, 1) are meaningful: the closed form covers t >= 0.
    """
    if not 0.5 < level < 1.0:
        raise ValueError("confidence level must be in (0.5, 1)")
    from scipy.optimize import brentq  # deferred like minimize_scalar above

    hi = 1.0
    while tail_probability(hi, eps0, eps_star) < level:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("confidence bound search did not converge")
    return float(
        brentq(
            lambda t: tail_probability(t, eps0, eps_star) - level,
            0.0,
            hi,
            xtol=1e-12,
            rtol=8.9e-16,
        )
    )
