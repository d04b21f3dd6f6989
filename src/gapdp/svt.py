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

from .noise import Exponential, Geometric, Laplace, NoiseKind, RandomSource, sample, variance_of
from .queries import QuerySet

__all__ = [
    "BudgetLedger",
    "SvtConfig",
    "SvtItem",
    "SvtResult",
    "adaptive_svt",
    "canonical_family",
    "gap_svt",
    "lower_confidence_t",
    "svt_batch",
    "tail_probability",
    "theta_optimal",
]

_FAMILIES = ("laplace", "exponential", "geometric")
_ALIASES = {"lap": "laplace", "exp": "exponential", "geo": "geometric"}

# Float-sum fuzz allowed when checking consumed <= allocated.
_BUDGET_TOL = 1e-9


def canonical_family(name: str) -> str:
    """Normalize a noise-family name ('lap'/'exp'/'geo' aliases accepted)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _FAMILIES:
        raise ValueError(f"unknown noise family {name!r}; expected one of {_FAMILIES}")
    return key


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


def _geometric_kind(rate: float) -> Geometric:
    return Geometric(1.0 - math.exp(-rate))


def _geometric_debias(rate: float) -> float:
    # 1/p for p = 1 - e^{-rate}: the debias constant used with one-sided
    # integer noise.  It sits exactly 1 above the sampler mean (1-p)/p; the
    # common offset cancels between noisy query and noisy threshold, so every
    # reported gap is centered either way.
    return 1.0 / (1.0 - math.exp(-rate))


def _threshold_noise(cfg: SvtConfig) -> tuple[NoiseKind, float]:
    """Noise kind and debias constant for the threshold."""
    if cfg.noise == "laplace":
        return Laplace(1.0 / cfg.eps0), 0.0
    if cfg.noise == "exponential":
        return Exponential(1.0 / cfg.eps0), 1.0 / cfg.eps0
    return _geometric_kind(cfg.eps0), _geometric_debias(cfg.eps0)


def _query_noise(cfg: SvtConfig, eps_branch: float) -> tuple[NoiseKind, float]:
    """Noise kind and debias constant for a query at branch budget ``eps_branch``.

    Monotonic query lists support half the noise scale at the same privacy
    cost, so the scale numerator drops from 2 to 1 (equivalently the
    geometric rate doubles).
    """
    numerator = 1.0 if cfg.monotonic else 2.0
    if cfg.noise == "laplace":
        return Laplace(numerator / eps_branch), 0.0
    if cfg.noise == "exponential":
        scale = numerator / eps_branch
        return Exponential(scale), scale
    rate = eps_branch / numerator
    return _geometric_kind(rate), _geometric_debias(rate)


def _require_integer_queries(q: QuerySet, cfg: SvtConfig) -> None:
    if cfg.noise != "geometric":
        return
    for v in q.values:
        if not float(v).is_integer():
            raise ValueError(
                f"geometric noise requires integer query values, got {v}"
            )


def gap_svt(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Above-threshold reports with their noisy gaps, single branch.

    The threshold is noised once at scale 1/eps0; each query is noised at
    scale 2/eps1 (1/eps1 for monotonic lists).  An above-threshold report
    emits the noisy gap and charges eps1; the scan stops once the consumed
    budget exceeds epsilon - eps1 or the queries run out.
    """
    if cfg.adaptive:
        raise ValueError("gap_svt requires a config with adaptive=False")
    _require_integer_queries(q, cfg)
    eps, eps1 = cfg.epsilon, cfg.eps1
    thr_kind, b0 = _threshold_noise(cfg)
    mid_kind, b1 = _query_noise(cfg, eps1)

    noisy_threshold = cfg.threshold + sample(thr_kind, src) - b0
    consumed = cfg.eps0
    items: list[SvtItem] = []
    for i, value in enumerate(q.values):
        noisy_q = value + sample(mid_kind, src) - b1
        if noisy_q >= noisy_threshold:
            items.append(SvtItem(i, True, noisy_q - noisy_threshold, "middle", eps1))
            consumed += eps1
        else:
            items.append(SvtItem(i, False, 0.0, None, 0.0))
        if consumed > eps - eps1:
            break
    return SvtResult(tuple(items), BudgetLedger(eps, consumed))


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
    _require_integer_queries(q, cfg)
    eps, eps1, eps2 = cfg.epsilon, cfg.eps1, cfg.eps2
    thr_kind, b0 = _threshold_noise(cfg)
    top_kind, b2 = _query_noise(cfg, eps2)
    mid_kind, b1 = _query_noise(cfg, eps1)
    sigma = math.sqrt(variance_of(top_kind))

    noisy_threshold = cfg.threshold + sample(thr_kind, src) - b0
    consumed = cfg.eps0
    items: list[SvtItem] = []
    for i, value in enumerate(q.values):
        noisy_top = value + sample(top_kind, src) - b2
        noisy_mid = value + sample(mid_kind, src) - b1
        if noisy_top - noisy_threshold >= 2.0 * sigma:
            items.append(SvtItem(i, True, noisy_top - noisy_threshold, "top", eps2))
            consumed += eps2
        elif noisy_mid - noisy_threshold >= 0.0:
            items.append(SvtItem(i, True, noisy_mid - noisy_threshold, "middle", eps1))
            consumed += eps1
        else:
            items.append(SvtItem(i, False, 0.0, None, 0.0))
        if consumed > eps - eps1:
            break
    return SvtResult(tuple(items), BudgetLedger(eps, consumed))


def svt_batch(q: QuerySet, cfg: SvtConfig):
    """Batch kernel of :func:`gap_svt` (or :func:`adaptive_svt` when
    ``cfg.adaptive``) on ``q``, for the audit: returns
    ``(draws, kernel, True)``, the scan being able to stop early.

    ``kernel(U)`` takes a (trials, draws) uniform matrix laid out as the
    scalar scan reads it (threshold, then per query its top draw if adaptive
    and its middle draw) and returns every trial's audit output at once:
    ``codes`` (int64, one tag per scanned query: 0 below, 1 middle, 2 top;
    -1 past the stop), ``gaps`` (float64, the released gaps in scan order,
    NaN-padded) and ``used`` (int64, the draws the trial read).  A trial
    stops where the scalar scan stops and the rest of its row goes unread.
    The budget sum is accumulated in the scalar scan's order, so both stop
    after the same query.
    """
    _require_integer_queries(q, cfg)
    eps, eps1, eps2 = cfg.epsilon, cfg.eps1, cfg.eps2
    thr_kind, b0 = _threshold_noise(cfg)
    mid_kind, b1 = _query_noise(cfg, eps1)
    if cfg.adaptive:
        top_kind, b2 = _query_noise(cfg, eps2)
        margin = 2.0 * math.sqrt(variance_of(top_kind))
    per_query = 2 if cfg.adaptive else 1
    n = len(q.values)
    values = np.array(q.values)[:, None]

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = len(U)
        rows = U.T  # one row per draw position; contiguous for stream windows
        noisy_threshold = cfg.threshold + thr_kind.inverse_cdf_array(rows[0]) - b0
        noisy_mids = values + mid_kind.inverse_cdf_array(rows[per_query::per_query]) - b1
        if cfg.adaptive:
            noisy_tops = values + top_kind.inverse_cdf_array(rows[1::2]) - b2
        consumed = np.full(m, cfg.eps0)
        live = np.ones(m, dtype=bool)
        scanned = np.zeros(m, dtype=np.int64)
        released = np.zeros(m, dtype=np.int64)
        codes = np.full((m, n), -1, dtype=np.int64)
        gaps = np.full((m, n), np.nan)
        for i, noisy_mid in enumerate(noisy_mids):
            if cfg.adaptive:
                noisy_top = noisy_tops[i]
                top = noisy_top - noisy_threshold >= margin
                mid = ~top & (noisy_mid - noisy_threshold >= 0.0)
                gap = np.where(top, noisy_top, noisy_mid) - noisy_threshold
                cost = np.where(top, eps2, eps1)
                tag = 2 * top + mid
            else:
                mid = noisy_mid >= noisy_threshold
                gap = noisy_mid - noisy_threshold
                cost = eps1
                tag = mid.astype(np.int64)
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


# Cube coefficient m in theta = 1/(1 + (m k^2)^(1/3)), per (branch, monotonic).
_THETA_CUBE = {
    ("top", False): 16.0,
    ("middle", False): 4.0,
    ("top", True): 4.0,
    ("middle", True): 1.0,
}


def _geometric_gap_variance(rate: float) -> float:
    # Variance of Geometric(1 - e^{-rate}): e^rate / (e^rate - 1)^2.
    d = math.expm1(rate)
    return math.exp(rate) / (d * d)


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
        r0 = theta * eps
        r1 = (1.0 - theta) * eps / (c * k)
        return _geometric_gap_variance(r0) + _geometric_gap_variance(r1)

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
