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

Both run one implementation, the array kernel of :func:`svt_batch`, which
the audit and the experiment harness also run over many trials at once.  A
release cannot know beforehand how many draws its scan takes, so it runs
the kernel on look-ahead windows of its source (:meth:`RandomSource.peek`),
each resuming the scan where the last one stopped reading, until the scan
stops; the source gives up exactly the draws the scan read.  The result is
a :class:`gapdp.audit.Release` of the scan's tags, released gaps and
charges (eps0, then each report's charge in scan order); :class:`SvtItem`
objects are built from it only when asked for.

Also here: the budget-split tuner :func:`theta_optimal`, and the lower
confidence machinery for gap estimates (:func:`tail_probability`,
:func:`lower_confidence_t`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Optional

import numpy as np

from .audit import Release
from .noise import FamilyNoise, RandomSource, canonical_family, variance_of
from .queries import QuerySet

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
        """What every scan under this config uses, built once: ``(kind,
        centre)`` of the threshold noise at eps0 and of the query noise at
        eps1 and eps2, the top branch's margin of two standard deviations,
        and the charge of each tag (0 below, 1 middle, 2 top).  Monotonic
        lists support half the query noise scale at the same privacy cost."""
        spread = 1.0 if self.monotonic else 2.0
        noises = (FamilyNoise(self.noise, self.eps0), FamilyNoise(self.noise, self.eps1, spread),
                  FamilyNoise(self.noise, self.eps2, spread))
        (thr, b0), (mid, b1), (top, b2) = ((noise.kind, noise.centre) for noise in noises)
        charges = np.array((0.0, self.eps1, self.eps2))
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


# Queries in a release's first look-ahead window; each later window takes
# as many queries again as the scan has read so far, so a scan of m > 1024
# queries runs ceil(log2(m / 1024)) + 1 kernel passes and reads each query
# once.  A pass costs ~20-35 us of numpy call overhead plus ~10-20 ns per
# query (gap_svt to adaptive_svt, 2-core x86 host), so a first window of
# this size wastes at most about one pass's overhead on a scan that stops
# early, and a scan over 10^4 queries takes at most five passes.
_FIRST_WINDOW = 1024


def _release(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Run :func:`svt_batch`'s kernel as one release on ``src``.

    The scan cannot know its length beforehand, so it runs on look-ahead
    windows of whole queries, each continuing where the last one stopped
    reading, until the consumed budget shows the scan stopped or the queries
    run out.  The source advances by exactly the draws each window's scan
    used, so a shared source continues where the scan stopped reading.  A
    stream that ends first raises where a draw-by-draw scan would.
    """
    scan = _scanner(q, cfg)
    n, step, charges = len(q.values), 2 if cfg.adaptive else 1, (0.0, cfg.eps1, cfg.eps2)
    tags, gaps, trail = [], [], [cfg.eps0]
    # Each window's row is the threshold draw, then the window's query
    # draws; the scan resumes at the window's first query after the budget
    # consumed so far.
    threshold = src.peek(1)
    src.advance(1)  # an empty stream raises here, as the scan's first draw would
    consumed, first, queries = cfg.eps0, 0, min(n, _FIRST_WINDOW)
    while True:
        row = src.peek(step * queries)
        if len(row) < step * queries:  # the stream ends inside the window
            queries = len(row) // step
            if queries < 1:
                src.advance(len(row) + 1)  # past the end of the stream: raises
            row = row[:step * queries]
        window_tags, window_gaps, within = scan(np.concatenate((threshold, row))[None],
                                                first=first, consumed=consumed)
        going_on = np.count_nonzero(within)  # queries after which the scan goes on
        stopped, scanned = going_on < queries, min(going_on + 1, queries)
        window_tags = window_tags[:scanned, 0]
        above = window_tags > 0
        reported = [charges[t] for t in window_tags[above].tolist()]
        tags.append(window_tags)
        gaps += window_gaps[:scanned, 0][above].tolist()
        trail += reported
        src.advance(step * scanned)
        first += queries
        if stopped or first == n:
            codes = tuple(np.concatenate(tags).tolist())
            return SvtResult(codes, tuple(gaps), cfg.epsilon, tuple(trail))
        for charge in reported:  # in scan order, as the scan sums it
            consumed += charge
        queries = min(first, n - first)


def gap_svt(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Above-threshold reports with their noisy gaps, single branch.

    The threshold is noised once at scale 1/eps0; each query is noised at
    scale 2/eps1 (1/eps1 for monotonic lists).  An above-threshold report
    emits the noisy gap and charges eps1; the scan stops once the consumed
    budget exceeds epsilon - eps1 or the queries run out.  Runs
    :func:`svt_batch`'s kernel on the next uniforms of ``src``, consuming
    exactly the threshold draw and one draw per scanned query.
    """
    if cfg.adaptive:
        raise ValueError("gap_svt requires a config with adaptive=False")
    return _release(q, cfg, src)


def adaptive_svt(q: QuerySet, cfg: SvtConfig, src: RandomSource) -> SvtResult:
    """Two-branch sparse vector: cheap reports for far-above-threshold queries.

    Per query, a heavily noised value (branch budget eps2) is tested first
    against the noisy threshold plus 2 sigma, where sigma is the standard
    deviation of that top-branch noise; passing reports the gap at cost eps2.
    Otherwise a moderately noised value (eps1) is tested at margin 0.  Both
    noise values are always drawn, whether or not they are used, so replayed
    traces are stable.  Runs :func:`svt_batch`'s kernel on the next uniforms
    of ``src``, consuming exactly the threshold draw and two per scanned
    query.
    """
    if not cfg.adaptive:
        raise ValueError("adaptive_svt requires a config with adaptive=True")
    return _release(q, cfg, src)


def svt_batch(q: QuerySet, cfg: SvtConfig):
    """The kernel of :func:`gap_svt` (or :func:`adaptive_svt` when
    ``cfg.adaptive``) on ``q``, which the public calls, the audit and the
    experiment harness run: returns ``(draws, kernel, reach)``.

    ``kernel(U, thresholds=None)`` takes a (trials, draws) uniform matrix
    laid out as a scan reads it (threshold, then per query its top draw if
    adaptive and its middle draw) and returns every trial's audit output at
    once: ``codes`` (int64, one tag per scanned query: 0 below, 1 middle,
    2 top; -1 past the stop), ``gaps`` (float64, each released gap in its
    query's column, NaN in the others) and ``used`` (int64, the draws the
    trial read).  ``thresholds``, one per row, replaces ``cfg.threshold``.
    A trial stops after the query whose charge takes the consumed budget
    past ``epsilon - eps1``, and the rest of its row goes unread.

    ``reach(stream)`` takes a 1-D uniform stream and returns, for every
    offset s with a whole window ``stream[s:s + draws]``, the ``used`` the
    kernel gives that window, without building the windows: one
    inverse-CDF pass over the stream serves every offset.  The auditor runs
    it first to find where back-to-back trials start, then runs the kernel
    on those rows only.
    """
    scan = _scanner(q, cfg)
    step = 2 if cfg.adaptive else 1
    draws = 1 + step * len(q.values)
    thr_kind, b0, mid_kind, _, top_kind, _, _, charges = cfg._scan_constants
    eps0, limit = cfg.eps0, cfg.epsilon - cfg.eps1

    def kernel(U: np.ndarray, thresholds: Optional[np.ndarray] = None):
        tags, gaps, within = scan(U, thresholds)
        scanned = np.minimum(within.sum(axis=0) + 1, len(tags))
        codes = np.where(np.arange(len(tags))[:, None] < scanned, tags, -1)
        return codes.T, np.where(codes > 0, gaps, np.nan).T, 1 + step * scanned

    def reach(stream: np.ndarray) -> np.ndarray:
        offsets = max(len(stream) - draws + 1, 0)
        within = np.zeros(offsets, dtype=np.int64)
        # The scan's arithmetic on shifted slices: a query's draws sit at
        # the same distance from every window's threshold draw.
        with np.errstate(divide="ignore", invalid="ignore"):
            z = thr_kind.unit_array(stream)
            noisy_threshold = cfg.threshold + thr_kind.from_unit(z[:offsets]) - b0
            mid = mid_kind.from_unit(z)
            top = top_kind.from_unit(z) if cfg.adaptive else None
            consumed = eps0
            for j, value in enumerate(q.values):
                at = step * (j + 1)  # the query's middle draw; its top draw is at - 1
                tags, _ = _tag(cfg, value, noisy_threshold, mid[at:at + offsets],
                               None if top is None else top[at - 1:at - 1 + offsets])
                consumed = consumed + charges.take(tags)  # in scan order, as _accumulate sums
                within += consumed <= limit
        return 1 + step * np.minimum(within + 1, len(q.values))

    return draws, kernel, reach


def _tag(cfg: SvtConfig, value, noisy_threshold, mid, top):
    """The sparse-vector test of one or more queries of ``value``: their tag
    (0 below, 1 middle, 2 top) and candidate gap against
    ``noisy_threshold``, given their middle and, for the adaptive scan, top
    noise (``from_unit`` draws, before their centre is taken off).  Every
    argument broadcasts, so one statement of the rule serves the kernel's
    (query, trial) arrays and :func:`svt_batch`'s per-offset ``reach``."""
    _, _, _, b1, _, b2, margin, _ = cfg._scan_constants
    noisy_mid = value + mid - b1
    gaps = noisy_mid - noisy_threshold
    if not cfg.adaptive:
        return (noisy_mid >= noisy_threshold).astype(np.int64), gaps
    over_top = value + top - b2 - noisy_threshold
    top_hit = over_top >= margin
    return np.where(top_hit, 2, gaps >= 0.0), np.where(top_hit, over_top, gaps)


def _scanner(q: QuerySet, cfg: SvtConfig):
    """The scan behind :func:`svt_batch`'s kernel, with every query at once.

    ``scan(U, thresholds=None, first=0, consumed=eps0)`` takes rows
    holding the threshold draw and then the draws of any whole number of
    queries, and scans those queries of ``q`` from query ``first`` on,
    after ``consumed`` budget: a scan resumed where an earlier one over
    queries ``0..first-1`` stopped reading.  It returns, per (query, trial),
    the tags, the candidate gaps and whether the consumed budget after the
    query is still within ``epsilon - eps1``.  The scan stops after the
    first query where it is not; consumed budget only grows, so the queries
    within it come first.
    """
    _require_integer_queries(q, cfg)
    adaptive, eps0, limit = cfg.adaptive, cfg.eps0, cfg.epsilon - cfg.eps1
    thr_kind, b0, mid_kind, _, top_kind, _, _, charges = cfg._scan_constants
    step = 2 if adaptive else 1
    values = q.value_array[:, None]

    def scan(U: np.ndarray, thresholds: Optional[np.ndarray] = None, first: int = 0,
             consumed: float = eps0):
        threshold = cfg.threshold if thresholds is None else thresholds
        v = values[first:first + (U.shape[1] - 1) // step]
        # A zero draw gives Laplace noise -inf, and two give -inf minus -inf:
        # a NaN gap, as in a draw-by-draw scan.
        with np.errstate(divide="ignore", invalid="ignore"):
            # One inverse-CDF pass serves all three noises.  Row j holds
            # every trial's draw j, so a stream window's rows are contiguous.
            z = thr_kind.unit_array(U.T)
            noisy_threshold = threshold + thr_kind.from_unit(z[0]) - b0
            tags, gaps = _tag(cfg, v, noisy_threshold, mid_kind.from_unit(z[step::step]),
                              top_kind.from_unit(z[1::2]) if adaptive else None)
        # Consumed budget after each query, summed in scan order as a
        # draw-by-draw scan sums it: a query below the threshold adds 0.0,
        # which leaves the sum unchanged.
        spent = charges.take(tags)
        spent[0] += consumed
        return tags, gaps, _accumulate(spent) <= limit

    return scan


def _accumulate(spent: np.ndarray) -> np.ndarray:
    """Sum ``spent`` down its first axis in place, in order: row j becomes
    the sum of rows 0..j, as ``np.cumsum(axis=0)`` adds them.  numpy
    accumulates along a short first axis slowly (3 x 4096, the audit's
    windows: ~110 us against ~10 us row by row), so few rows are added one
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
