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

Both run one implementation, the scan behind the array kernel of
:func:`svt_batch`, which the audit and the experiment harness also run over
many trials at once.  A release takes one fixed row of uniforms from its
source, the threshold draw and every query's draws, however early its scan
stops, and scans it in one pass.  Drawing every query's noise up front
instead of one query at a time gives the same law, and so the same
privacy.  Over ``_PARTITION_COLUMNS`` queries or more, a release's scan
tags only the queries whose value could pass the test with the noise of
the row's largest draw, a few dozen of 10^4 on counting data, and the rest
go below at no charge.  The result is a :class:`gapdp.audit.Release` of the
scan's tags, released gaps and charges (eps0, then each report's charge in
scan order); :class:`SvtItem` objects are built from it only when asked
for.

Also here: the budget-split tuner :func:`theta_optimal`, and the lower
confidence machinery for gap estimates (:func:`tail_probability`,
:func:`lower_confidence_t`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Optional

import numpy as np

from .audit import Release
from .noise import FamilyNoise, RandomSource, canonical_family, ceiling, variance_of
from .queries import QuerySet
from .topk import _PARTITION_COLUMNS, leading

__all__ = [
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

    @cached_property
    def _scan_constants(self) -> tuple:
        """What every scan under this config uses: ``(kind, centre)`` of the
        threshold noise at eps0 and of the query noise at eps1 and eps2, the
        top branch's margin of two standard deviations, and the charge of
        each tag (0 below, 1 middle, 2 top).  None depends on the threshold,
        so configs that differ only there share one tuple."""
        return _constants(self.epsilon, self.k, self.theta, self.noise, self.monotonic,
                          self.adaptive)


@lru_cache(maxsize=64)
def _constants(epsilon: float, k: int, theta: float, family: str, monotonic: bool,
               adaptive: bool) -> tuple:
    """:attr:`SvtConfig._scan_constants` of the configs with these fields.
    Monotonic lists support half the query noise scale at the same privacy
    cost."""
    cfg = SvtConfig(epsilon, k, 0.0, theta, family, monotonic, adaptive)
    spread = 1.0 if monotonic else 2.0
    noises = (FamilyNoise(family, cfg.eps0), FamilyNoise(family, cfg.eps1, spread),
              FamilyNoise(family, cfg.eps2, spread))
    (thr, b0), (mid, b1), (top, b2) = ((noise.kind, noise.centre) for noise in noises)
    charges = np.array((0.0, cfg.eps1, cfg.eps2))
    charges.flags.writeable = False
    return thr, b0, mid, b1, top, b2, 2.0 * math.sqrt(variance_of(top)), charges


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


_BRANCHES = (None, "middle", "top")  # per scan tag: 0 below, 1 middle, 2 top


class SvtResult(Release):
    """One scan's release: a tag per scanned query in ``codes`` (0 below,
    1 middle, 2 top), and eps0 then each report's charge in ``trail``, both
    in scan order.  ``items`` and :meth:`above_items` build
    :class:`SvtItem` objects from them on read."""

    @property
    def ledger(self) -> SvtResult:
        """The record itself: ``allocated``, ``consumed`` and ``remaining``."""
        return self

    @property
    def items(self) -> tuple[SvtItem, ...]:
        """An :class:`SvtItem` per scanned query, in scan order."""
        above = iter(self.above_items())
        return tuple(next(above) if t else SvtItem(i, False, 0.0, None, 0.0)
                     for i, t in enumerate(self.codes))

    def above_items(self) -> tuple[SvtItem, ...]:
        """The :class:`SvtItem` of each above-threshold report."""
        above = compress(range(len(self.codes)), self.codes)
        return tuple(SvtItem(i, True, g, _BRANCHES[self.codes[i]], charge)
                     for i, g, charge in zip(above, self.gaps, self.trail[1:]))


def _require_integer_queries(q: QuerySet, cfg: SvtConfig) -> None:
    if cfg.noise != "geometric":
        return
    values = q.value_array
    fractional = values != np.floor(values)
    if fractional.any():
        raise ValueError(
            f"geometric noise requires integer query values, got {values[fractional][0]}"
        )


def _release(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Run :func:`svt_batch`'s scan as one release on the next row of
    ``src``: the threshold draw and the draws of every query, taken as one
    (1, draws) matrix whether or not the scan reads them all (``trial`` of
    :func:`_scanner`: on a wide row only the queries that can pass the test
    are tagged).  A public threshold must be finite; only the kernel takes
    a placeholder with per-row thresholds."""
    if not math.isfinite(cfg.threshold):
        raise ValueError(f"threshold must be finite, got {cfg.threshold}")
    draws, _, trial = _scanner(q, cfg)
    scanned, cols, tags, gaps = trial(src.uniform_matrix(1, draws)[0])
    codes, reported = [0] * scanned, tags.tolist()
    for col, tag in zip(cols.tolist(), reported):
        codes[col] = tag
    charges = (0.0, cfg.eps1, cfg.eps2)
    trail = (cfg.eps0, *(charges[t] for t in reported))
    return SvtResult(tuple(codes), tuple(gaps.tolist()), cfg.epsilon, trail)


def gap_svt(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Above-threshold reports with their noisy gaps, single branch.

    The threshold is noised once at scale 1/eps0; each query is noised at
    scale 2/eps1 (1/eps1 for monotonic lists).  An above-threshold report
    emits the noisy gap and charges eps1; the scan stops once the consumed
    budget exceeds epsilon - eps1 or the queries run out.  Runs
    :func:`svt_batch`'s scan on the next uniforms of ``src``, consuming
    exactly ``1 + n`` draws: the threshold draw and one per query.
    """
    if cfg.adaptive:
        raise ValueError("gap_svt requires a config with adaptive=False")
    return _release(q, cfg, src)


def adaptive_svt(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Two-branch sparse vector: cheap reports for far-above-threshold queries.

    Per query, a heavily noised value (branch budget eps2) is tested first
    against the noisy threshold plus 2 sigma, where sigma is the standard
    deviation of that top-branch noise; passing reports the gap at cost eps2.
    Otherwise a moderately noised value (eps1) is tested at margin 0.  Runs
    :func:`svt_batch`'s scan on the next uniforms of ``src``, consuming
    exactly ``1 + 2n`` draws: the threshold draw and two per query, top
    then middle.
    """
    if not cfg.adaptive:
        raise ValueError("adaptive_svt requires a config with adaptive=True")
    return _release(q, cfg, src)


def svt_batch(q: QuerySet, cfg: SvtConfig):
    """The kernel of :func:`gap_svt` (or :func:`adaptive_svt` when
    ``cfg.adaptive``) on ``q``, which the audit and the experiment harness
    run, and whose scan the public calls release one trial of: returns
    ``(draws, kernel)``, ``draws`` being ``1 + n`` (``1 + 2n`` adaptive).

    ``kernel(U, thresholds=None)`` takes a (trials, draws) uniform matrix
    laid out as a scan reads it (threshold, then per query its top draw if
    adaptive and its middle draw) and returns every trial's audit output at
    once: ``codes`` (int64, one tag per scanned query: 0 below, 1 middle,
    2 top; -1 past the stop) and ``gaps`` (float64, each released gap in
    its query's column, NaN in the others).  ``thresholds``, one per row,
    replaces ``cfg.threshold``.  A trial stops after the query whose charge
    takes the consumed budget past ``epsilon - eps1``, and the rest of its
    row goes unused.  The kernel scans every query of every row; a release
    runs one row through ``trial`` of :func:`_scanner`, which on wide rows
    tags only the queries that can pass, and gives the same row.
    """
    return _scanner(q, cfg)[:2]


def _tag(cfg: SvtConfig, value, noisy_threshold, mid, top):
    """The sparse-vector test of one or more queries of ``value``: their tag
    (0 below, 1 middle, 2 top) and candidate gap against
    ``noisy_threshold``, given their middle and, for the adaptive scan, top
    noise (``from_unit`` draws, before their centre is taken off).  Every
    argument broadcasts, so one statement of the rule serves the kernel's
    (query, trial) arrays and a release's candidate column."""
    gaps, middle, over_top, top_hit = _compare(cfg, value, noisy_threshold, mid, top)
    if not cfg.adaptive:
        return middle.astype(np.int64), gaps
    return np.where(top_hit, 2, middle), np.where(top_hit, over_top, gaps)


def _compare(cfg: SvtConfig, value, noisy_threshold, mid, top):
    """The comparisons of :func:`_tag`, on floats and arrays alike: the
    candidate gap, whether the middle test passes, and for the adaptive
    scan the top branch's gap and whether its test passes (else None and
    False).  A wide scan's pruning runs them with the noise at its ceiling,
    so it bounds the test with the test's own float expressions."""
    _, _, _, b1, _, b2, margin, _ = cfg._scan_constants
    noisy_mid = value + mid - b1
    gaps = noisy_mid - noisy_threshold
    if not cfg.adaptive:
        return gaps, noisy_mid >= noisy_threshold, None, False
    over_top = value + top - b2 - noisy_threshold
    return gaps, gaps >= 0.0, over_top, over_top >= margin


def _scanner(q: QuerySet, cfg: SvtConfig):
    """The scan behind :func:`svt_batch` and the releases: ``(draws,
    kernel, trial)``, ``draws`` being ``1 + n`` (``1 + 2n`` adaptive).

    ``kernel(U, thresholds=None)`` scans every row with every query at
    once.  Per (query, trial) it finds the tags, the candidate gaps and
    whether the consumed budget after the query is still within ``epsilon -
    eps1``.  The scan stops after the first query where it is not; consumed
    budget only grows, so the queries within it come first.

    ``trial(row, threshold=cfg.threshold)`` scans one row and returns what
    it releases: how many queries it scans (all n if it does not stop) and
    the columns, tags and gaps of its reports.  On ``_PARTITION_COLUMNS``
    queries or more it tags only the queries that can pass the test: a
    query's test, run by :func:`_compare` with its noise replaced by the
    :func:`gapdp.noise.ceiling` of the row's largest query draw, bounds its
    real test.  Those bounds fall with the value, so the queries that can
    pass are the largest values, found by bisection, and they are scanned
    in index order.  Queries that cannot pass are tagged 0 and add nothing
    to the consumed budget.  A noisy threshold or a ceiling that is not
    finite tags every query, and so does a config whose eps0 alone is past
    ``epsilon - eps1`` (at k = 1, theta = 0.1 and epsilon = 1, once
    rounded): its scans stop on query 0.

    A monotonic config halves the query noise, so it needs a query set
    marked monotonic, and geometric noise needs integer values.
    """
    if cfg.monotonic and not q.monotonic:
        raise ValueError("a monotonic config halves the query noise: it needs a query set "
                         "marked monotonic")
    _require_integer_queries(q, cfg)
    adaptive, eps0, limit = cfg.adaptive, cfg.eps0, cfg.epsilon - cfg.eps1
    thr_kind, b0, mid_kind, b1, top_kind, b2, margin, charges = cfg._scan_constants
    step = 2 if adaptive else 1
    values = q.value_array
    n = len(values)

    def tally(v, noisy_threshold, z):
        # z holds the queries' unit draws, one row per draw.  Consumed
        # budget after each query is summed in scan order as a draw-by-draw
        # scan sums it: a query below the threshold adds 0.0, which leaves
        # the sum unchanged.
        tags, gaps = _tag(cfg, v, noisy_threshold, mid_kind.from_unit(z[step - 1::step]),
                          top_kind.from_unit(z[::2]) if adaptive else None)
        spent = charges.take(tags)
        spent[:1] += eps0
        return tags, gaps, _accumulate(spent) <= limit

    def kernel(U: np.ndarray, thresholds: Optional[np.ndarray] = None):
        threshold = cfg.threshold if thresholds is None else thresholds
        # A zero draw gives Laplace noise -inf, and two give -inf minus -inf:
        # a NaN gap, as in a draw-by-draw scan.
        with np.errstate(divide="ignore", invalid="ignore"):
            # One inverse-CDF pass serves all three noises.  Row j holds
            # every trial's draw j.
            z = thr_kind.unit_array(U.T)
            noisy_threshold = threshold + thr_kind.from_unit(z[0]) - b0
            tags, gaps, within = tally(values[:, None], noisy_threshold, z[1:])
        scanned = np.minimum(within.sum(axis=0) + 1, n)
        codes = np.where(np.arange(n)[:, None] < scanned, tags, -1)
        return codes.T, np.where(codes > 0, gaps, np.nan).T

    def passing(draws: np.ndarray, noisy_threshold: float) -> Optional[np.ndarray]:
        # The queries that can pass the test, or None where that is every
        # query.
        u = float(draws.max())
        mid = ceiling(mid_kind, u)
        top = ceiling(top_kind, u) if adaptive else mid
        if not (math.isfinite(noisy_threshold) and math.isfinite(mid) and math.isfinite(top)):
            return None

        def passes(v):
            _, middle, _, top_hit = _compare(cfg, v, noisy_threshold, mid, top)
            return middle or top_hit

        # Near the least value that passes: a guess, which leading checks.
        guess = noisy_threshold - mid + b1
        if adaptive:
            guess = min(guess, noisy_threshold + margin - top + b2)
        order, ordered = q.by_value
        count = leading(ordered, passes, guess)
        return None if count == n else np.sort(order[:count])

    def trial(row: np.ndarray, threshold: float = cfg.threshold):
        draws, v, cols = row[1:].reshape(n, step), values, None
        with np.errstate(divide="ignore", invalid="ignore"):
            # numpy's ufuncs give a scalar what they give the same draw in
            # an array, and the threshold noise is one draw.
            noise = float(thr_kind.from_unit(thr_kind.unit_array(row[0])))
            noisy_threshold = threshold + noise - b0
            # tally charges eps0 with the first query tagged.  Past the
            # limit on its own, eps0 stops the scan on query 0, which only
            # a scan of every query is sure to tag.
            if n >= _PARTITION_COLUMNS and eps0 <= limit:
                cols = passing(draws, noisy_threshold)
            if cols is not None:
                draws, v = draws[cols], values[cols]
            z = thr_kind.unit_array(draws.ravel())
            tags, gaps, within = tally(v[:, None], noisy_threshold, z[:, None])
        tags, gaps = tags[:, 0], gaps[:, 0]
        last = np.count_nonzero(within)  # the position of the query the scan stops on
        stopped = last < len(tags)
        above = tags[:last + 1].nonzero()[0]
        tags, gaps = tags[above], gaps[above]
        if cols is not None:  # positions among the candidates: their queries
            last, above = int(cols[last]) if stopped else last, cols[above]
        return last + 1 if stopped else n, above, tags, gaps

    return 1 + step * n, kernel, trial


def _accumulate(spent: np.ndarray) -> np.ndarray:
    """Sum ``spent`` down its first axis in place, in order: row j becomes
    the sum of rows 0..j, as ``np.cumsum(axis=0)`` adds them.  numpy
    accumulates along a short first axis slowly (3 x 4096, the audit's
    chunks: ~110 us against ~10 us row by row), so few rows are added one
    at a time."""
    if len(spent) < spent.shape[1]:
        for row, before in zip(spent[1:], spent[:-1]):
            row += before
    else:
        np.add.accumulate(spent, axis=0, out=spent)
    return spent


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
    numerically, which is why ``eps``, finite and > 0, is required there.
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
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
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
    # With r the smaller rate and s the larger, the closed form
    # 1 - (eps0^2 e^(-eps* t) - eps*^2 e^(-eps0 t)) / (2 (eps0^2 - eps*^2))
    # equals 1 - e^(-r t) (1 + r^2 w / (r + s)) / 2 with
    # w = expm1((r - s) t) / (r - s), which tends to t at equal rates.  In
    # this form nothing cancels as the rates approach each other.
    r, s = min(eps0, eps_star), max(eps0, eps_star)
    w = math.expm1((r - s) * t) / (r - s) if r < s else t
    return 1.0 - 0.5 * math.exp(-r * t) * (1.0 + r * r * w / (r + s))


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
