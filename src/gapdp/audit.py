"""Monte-Carlo privacy auditing of mechanisms on adjacent inputs.

The auditor runs a mechanism many times on each of two adjacent inputs,
discretizes the outputs (selected-index structure kept exact, each released
gap rounded to a bin width) and reports the largest absolute log-ratio of
smoothed bin frequencies.  For a correct epsilon-DP mechanism every binned
event satisfies |log ratio| <= epsilon, so an estimate materially above
epsilon falsifies the implementation.  The auditor proves nothing: it is a
falsification tool, and ``flagged`` marks an exceedance beyond the sampling
slack (three binomial standard errors of the worst bin's log-ratio).

Every public mechanism returns a :class:`Release`, whose ``audit_output()``
gives (discrete structure, released gaps); a scalar test or planted
mechanism may return that pair itself.  :func:`as_audit_output` takes either.

Input d draws from the seed's ``audit-d`` stream and d' from its
``audit-d-prime`` stream (see :class:`gapdp.noise.SeededSource`).

A mechanism callable may opt into a batch path by carrying a ``batch``
attribute: ``mech.batch(data)`` returns ``(draws, kernel)``.  ``draws`` is
the fixed number of uniforms one trial reads, and ``kernel(U)`` maps a
(trials, draws) uniform matrix to every trial's ``codes`` (int64, padded
with -1) and ``gaps`` (float64, padded with NaN).  With padding dropped,
row r must equal ``as_audit_output(mech(data, ReplaySource(U[r])))``.  The
auditor hands the kernel the next rows of the stream, so the batch path
reads exactly the uniforms the scalar loop reads, leaves its source where
the scalar loop leaves it and gives the same histogram for the same seed.
Trials run in chunks of a few thousand, each binned with one ``np.unique``.

A callable without the attribute (or any wrapper around one, since
``__wrapped__`` is never followed) runs one scalar call per trial.  Either
way the audit certifies what ran: on the batch path, the kernel, which
every public mechanism but the black-box exponential mechanism runs
itself.  The oracle tests in ``tests/test_audit_kernels.py`` pin every
kernel row by row to an independent loop reference.

Trials are independent, so the per-input histograms may be sharded across
workers and merged by summing counts.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .noise import STREAMS, RandomSource, SeededSource
from .queries import QuerySet

__all__ = [
    "AuditConfig",
    "AuditError",
    "AuditReport",
    "Release",
    "as_audit_output",
    "estimate_epsilon",
    "tie_probability_bound",
]

Mechanism = Callable[[QuerySet, RandomSource], object]

# Trials per kernel call on the batch path.  It bounds the kernel's working
# set at a few MB.
_CHUNK = 4096

# The fewest trials per input an audit runs, and the error for fewer.
MIN_TRIALS = 10_000
TOO_FEW_TRIALS = "audit needs at least 10^4 trials per input"

# Float-sum fuzz allowed when checking consumed <= allocated.
_BUDGET_TOL = 1e-9


class AuditError(RuntimeError):
    """The audit could not produce a usable estimate."""


@dataclass(frozen=True)
class AuditConfig:
    """Trials per input, gap discretization, and bin-count qualification."""

    trials: int = 1_000_000
    bin_width: float = 0.5
    min_count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.trials < MIN_TRIALS:
            raise ValueError(TOO_FEW_TRIALS)
        if not self.bin_width > 0.0:
            raise ValueError("bin_width must be > 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class AuditReport:
    """Empirical privacy-loss estimate from one adjacent input pair."""

    eps_hat: float
    bins: int
    trials: int
    slack: float
    eps_claimed: Optional[float] = None
    flagged: bool = False
    mechanism: str = ""

    def to_json(self) -> str:
        fields = ("mechanism", "eps_claimed", "eps_hat", "trials", "bins", "flagged", "slack")
        return json.dumps({name: getattr(self, name) for name in fields})


@dataclass(frozen=True)
class Release:
    """What one mechanism run released and charged: ``codes``, the discrete
    structure (selected indices, or a scan's tag per query), ``gaps``, the
    released gaps, ``allocated``, the run's budget, and ``trail``, each
    step's charge in the order charged.  It refuses a budget or charge that
    is not finite, a negative charge and a trail that overspends."""

    codes: tuple[int, ...]
    gaps: tuple[float, ...]
    allocated: float
    trail: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.allocated < math.inf:
            raise ValueError(f"allocated budget {self.allocated} must be finite and > 0")
        if not all(0.0 <= charge < math.inf for charge in self.trail):
            raise ValueError(f"charges {self.trail} must be finite and >= 0")
        if not 0.0 <= self.consumed <= self.allocated + _BUDGET_TOL:
            raise ValueError(f"consumed budget {self.consumed} outside [0, {self.allocated}]")

    @property
    def consumed(self) -> float:
        """The trail summed left to right (``sum`` compensates on Python >= 3.12)."""
        total = 0.0
        for charge in self.trail:
            total += charge
        return total

    @property
    def remaining(self) -> float:
        return self.allocated - self.consumed

    @property
    def pairs(self) -> tuple[tuple[int, float], ...]:
        """Each code with its gap, for releases whose every code has one."""
        return tuple(zip(self.codes, self.gaps))

    def audit_output(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The codes and the released gaps: what the auditor bins."""
        return self.codes, self.gaps


def as_audit_output(result) -> tuple[tuple, tuple[float, ...]]:
    """Split a mechanism result into (discrete structure, released reals):
    ``result.audit_output()``, or a raw ``(discrete, reals)`` pair as
    scalar test and planted mechanisms return it."""
    if isinstance(result, tuple):
        discrete, reals = result
        return tuple(discrete), tuple(reals)
    audit_output = getattr(result, "audit_output", None)
    if audit_output is None:
        raise TypeError(f"{type(result).__name__} has no audit_output()")
    return audit_output()


def _key(result, width: float) -> tuple:
    discrete, reals = as_audit_output(result)
    return discrete, tuple([math.floor(g / width) for g in reals])


def _histogram(
    mech: Mechanism, data: QuerySet, src: RandomSource, cfg: AuditConfig
) -> dict:
    width = cfg.bin_width
    batch = getattr(mech, "batch", None)
    if batch is None:
        return Counter(_key(mech(data, src), width) for _ in range(cfg.trials))

    draws, kernel = batch(data)
    parts = []
    for done in range(0, cfg.trials, _CHUNK):
        codes, gaps = kernel(src.uniform_matrix(min(_CHUNK, cfg.trials - done), draws))
        parts.append(_distinct(codes, np.floor(gaps / width)))
    counts: dict = {}
    codes, bins, number = _distinct(*(np.concatenate(p) for p in zip(*parts)))
    for c, b, n in zip(codes.tolist(), bins.tolist(), number.tolist()):
        key = (
            tuple(v for v in c if v != -1),
            tuple(int(v) for v in b if not math.isnan(v)),
        )
        counts[key] = counts.get(key, 0) + int(n)
    return counts


def _distinct(codes: np.ndarray, bins: np.ndarray, number: Optional[np.ndarray] = None):
    """The distinct (codes, bins) rows and how often each occurs, summing
    ``number`` per row when given.

    ``codes`` are -1 padded; ``bins`` are integral floats, NaN padded.
    """
    code_radix = int(codes.max(initial=0)) + 2
    extent = int(np.fmax.reduce(np.abs(bins), axis=None, initial=0.0))
    bin_radix = 2 * extent + 2
    a, b = codes.shape[1], bins.shape[1]
    if code_radix**a * bin_radix**b >= 2**53:
        table = np.hstack([codes, bins])
        if number is None:
            table, number = np.unique(table, axis=0, return_counts=True)
        else:
            table, inverse = np.unique(table, axis=0, return_inverse=True)
            number = np.bincount(inverse.ravel(), weights=number)
        return table[:, :a].astype(np.int64), table[:, a:], number
    # Mixed-radix packing into one float key per row, exact below 2^53; digit
    # 0 stands for padding.  A flat np.unique is many times faster than
    # np.unique(axis=0), and the unique keys decode back into rows.
    radices = np.array([code_radix] * a + [bin_radix] * b, dtype=np.float64)
    weights = np.concatenate([[1.0], np.cumprod(radices[:-1])])
    digits = np.hstack([codes + 1, np.where(np.isnan(bins), 0.0, bins + (extent + 1))])
    if number is None:
        keys, number = np.unique(digits @ weights, return_counts=True)
    else:
        keys, inverse = np.unique(digits @ weights, return_inverse=True)
        number = np.bincount(inverse.ravel(), weights=number)
    digits = keys[:, None] // weights % radices
    bins = digits[:, a:]
    return (
        digits[:, :a].astype(np.int64) - 1,
        np.where(bins == 0.0, np.nan, bins - (extent + 1)),
        number,
    )


def estimate_epsilon(
    mech: Mechanism,
    d: QuerySet,
    d_prime: QuerySet,
    cfg: AuditConfig,
    eps_claimed: Optional[float] = None,
    mechanism: str = "",
) -> AuditReport:
    """Estimate the privacy loss of ``mech`` between two adjacent inputs.

    Runs ``cfg.trials`` independent executions per input, d on the
    ``audit-d`` stream of ``cfg.seed`` and d' on its ``audit-d-prime``
    stream, bins the outputs, Laplace-smooths the counts (+1) and takes the
    largest |log frequency ratio| over bins whose raw count reaches
    ``cfg.min_count`` on both sides.  The two-sided ratio makes the estimate
    symmetric in (d, d_prime) up to Monte-Carlo error.

    Raises :class:`AuditError` when no bin qualifies (increase trials or the
    bin width).
    """
    counts_d = _histogram(mech, d, SeededSource(cfg.seed, *STREAMS["audit-d"]), cfg)
    counts_dp = _histogram(
        mech, d_prime, SeededSource(cfg.seed, *STREAMS["audit-d-prime"]), cfg
    )
    n = cfg.trials
    eps_hat = -1.0
    worst = None
    qualified = 0
    for key in counts_d.keys() | counts_dp.keys():
        c1 = counts_d.get(key, 0)
        c2 = counts_dp.get(key, 0)
        if c1 < cfg.min_count or c2 < cfg.min_count:
            continue
        qualified += 1
        ratio = abs(
            math.log((c1 + 1.0) / (n + 1.0)) - math.log((c2 + 1.0) / (n + 1.0))
        )
        if ratio > eps_hat:
            eps_hat = ratio
            worst = (c1, c2)
    if worst is None:
        case = f" for {mechanism}" if mechanism else ""
        raise AuditError(
            f"no output bin reached the count threshold on both inputs{case} "
            f"({n} trials per input, min_count {cfg.min_count}); "
            "increase trials or bin width"
        )
    slack = 3.0 * math.sqrt(1.0 / worst[0] + 1.0 / worst[1])
    flagged = eps_claimed is not None and eps_hat > eps_claimed + slack
    return AuditReport(
        eps_hat=eps_hat,
        bins=qualified,
        trials=n,
        slack=slack,
        eps_claimed=eps_claimed,
        flagged=flagged,
        mechanism=mechanism,
    )


def tie_probability_bound(eps: float, gamma: float, n: int) -> float:
    """Upper bound on a noisy tie among n queries under base-gamma noise.

    Ties void the continuous-noise analysis of the selection mechanisms;
    with noise discretized to multiples of gamma the failure probability is
    at most eps * gamma * n^2 (capped at 1).
    """
    if eps < 0.0 or gamma < 0.0 or n < 0:
        raise ValueError("eps, gamma and n must be nonnegative")
    return min(1.0, eps * gamma * n * n)
