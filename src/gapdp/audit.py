"""Monte-Carlo privacy auditing of mechanisms on adjacent inputs.

The auditor runs a mechanism many times on each of two adjacent inputs,
discretizes the outputs (selected-index structure kept exact, each released
gap rounded to a bin width) and reports the largest absolute log-ratio of
smoothed bin frequencies.  For a correct epsilon-DP mechanism every binned
event satisfies |log ratio| <= epsilon, so an estimate materially above
epsilon falsifies the implementation.  The auditor proves nothing: it is a
falsification tool, and ``flagged`` marks an exceedance beyond the sampling
slack (three binomial standard errors of the worst bin's log-ratio).

Each input gets its own seeded stream.  A mechanism callable may opt into
a batch path by carrying a ``batch`` attribute: ``mech.batch(data)``
returns ``(draws, kernel, early_stop)``.  ``draws`` is the most uniforms
one trial reads, and ``kernel(U)`` maps a (trials, draws) uniform matrix to
every trial's ``codes`` (int64, padded with -1) and ``gaps`` (float64,
padded with NaN).  With padding dropped, row r must equal
``as_audit_output(mech(data, ReplaySource(U[r])))``.  A mechanism whose
trials can stop before reading all ``draws`` (``early_stop``) also returns
``used``, the uniforms each row's trial read; the auditor then hands the
kernel one window of the stream per offset and chains the trials through
them, so that either way the batch path reads exactly the uniforms the
scalar loop reads and gives the same histogram for the same seed.  Trials
run in chunks of at most 4096 rows, each binned with one ``np.unique``.

A callable without the attribute (or any wrapper around one, since
``__wrapped__`` is never followed) runs one scalar call per trial.  Either
way the audit certifies what actually ran.  On the batch path that is the
kernel.  For every mechanism but the black-box exponential mechanism the
kernel is also the released mechanism: a fixed-draw public function (top-k,
the hybrids, Gumbel-max) runs it on one row, and a sparse-vector scan runs
it on one look-ahead window of its source.  The black-box exponential
mechanism keeps its scalar public form.  The oracle tests in
``tests/test_audit_kernels.py`` pin every kernel row by row to an
independent loop reference.

Trials are independent, so the per-input histograms may be sharded across
workers and merged by summing counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import singledispatch
from typing import Callable, Optional

import numpy as np

from .expmech import ExpMechResult
from .hybrid import HybridResult
from .noise import RandomSource, ReplaySource, SeededSource
from .queries import QuerySet
from .svt import SvtResult
from .topk import TopKResult

__all__ = [
    "AuditConfig",
    "AuditError",
    "AuditReport",
    "as_audit_output",
    "estimate_epsilon",
    "tie_probability_bound",
]

Mechanism = Callable[[QuerySet, RandomSource], object]

# Offset separating the two input streams; any fixed constant works.
_STREAM_OFFSET = 0x9E3779B97F4A7C15

# Rows per kernel call on the batch path: trials, or stream windows for a
# kernel that stops early.  It bounds the kernel's working set at a few MB.
_CHUNK = 4096

# Rows the kernel cannot bin exactly are replayed through the mechanism
# callable instead: rows holding a zero draw, which can map to infinite
# noise (the kernel sees those zeros masked), and rows with a gap bin at or
# beyond this magnitude, which could not be cast to int64 (the scalar path
# raises on an infinite one).
_MAX_BIN = 2.0**62


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
        if self.trials < 10_000:
            raise ValueError("audit needs at least 10^4 trials per input")
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
        return json.dumps(
            {
                "mechanism": self.mechanism,
                "eps_claimed": self.eps_claimed,
                "eps_hat": self.eps_hat,
                "trials": self.trials,
                "bins": self.bins,
                "flagged": self.flagged,
            }
        )


@singledispatch
def as_audit_output(result) -> tuple[tuple, tuple[float, ...]]:
    """Split a mechanism result into (discrete structure, released reals)."""
    raise TypeError(f"no audit output adapter for {type(result).__name__}")


@as_audit_output.register
def _(result: tuple):
    discrete, reals = result
    return tuple(discrete), tuple(reals)


@as_audit_output.register
def _(result: SvtResult):
    return result.audit_output()


@as_audit_output.register
def _(result: TopKResult):
    return result.indices, result.gaps


@as_audit_output.register
def _(result: HybridResult):
    return tuple(index for index, _ in result.pairs), tuple(
        gap for _, gap in result.pairs
    )


@as_audit_output.register
def _(result: ExpMechResult):
    return (result.selected,), (result.gap,)


def _key(result, width: float) -> tuple:
    discrete, reals = as_audit_output(result)
    return discrete, tuple(math.floor(g / width) for g in reals)


def _histogram(
    mech: Mechanism, data: QuerySet, src: RandomSource, cfg: AuditConfig
) -> dict:
    counts: dict = {}
    width = cfg.bin_width
    batch = getattr(mech, "batch", None)
    if batch is None:
        for _ in range(cfg.trials):
            key = _key(mech(data, src), width)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def replay(row: np.ndarray):
        """The mechanism callable on one row, and how many draws it read."""
        source = ReplaySource(row)
        return mech(data, source), len(row) - source.remaining

    draws, kernel, early_stop = batch(data)
    parts = []
    carry = np.empty(0)
    done = 0
    while done < cfg.trials:
        if early_stop:
            # One window of the stream per offset; each trial starts where the
            # one before it stopped reading, as in the scalar loop.
            wanted = min(_CHUNK + draws - 1, (cfg.trials - done) * draws)
            stream = np.concatenate([carry, src.uniform_matrix(1, wanted - len(carry))[0]])
            U = np.lib.stride_tricks.sliding_window_view(stream, draws)
        else:
            U = src.uniform_matrix(min(_CHUNK, cfg.trials - done), draws)
        zeros = U == 0.0
        odd = zeros.any(axis=1) if zeros.any() else np.zeros(len(U), dtype=bool)
        masked = np.where(zeros, 0.5, U) if odd.any() else U
        if early_stop:
            codes, gaps, used = kernel(masked)
            for at in np.flatnonzero(odd):  # how far the scalar mechanism reads
                used[at] = replay(U[at])[1]
            starts = _chain(used, cfg.trials - done)
            carry = stream[starts[-1] + used[starts[-1]]:]
            codes, gaps, U, odd = codes[starts], gaps[starts], U[starts], odd[starts]
        else:
            codes, gaps = kernel(masked)
        done += len(U)
        bins = np.floor(gaps / width)
        huge = np.abs(bins) >= _MAX_BIN
        if huge.any():
            odd |= huge.any(axis=1)
        if odd.any():
            for row in U[odd]:
                key = _key(replay(row)[0], width)
                counts[key] = counts.get(key, 0) + 1
            codes, bins = codes[~odd], bins[~odd]
        if len(codes):
            parts.append(_distinct(codes, bins))
    if parts:
        codes, bins, number = _distinct(*(np.concatenate(p) for p in zip(*parts)))
        for c, b, n in zip(codes.tolist(), bins.tolist(), number.tolist()):
            key = (
                tuple(v for v in c if v != -1),
                tuple(int(v) for v in b if not math.isnan(v)),
            )
            counts[key] = counts.get(key, 0) + int(n)
    return counts


def _chain(used: np.ndarray, limit: int) -> np.ndarray:
    """Offsets of up to ``limit`` back-to-back trials from offset 0, where a
    trial at offset s reads ``used[s]`` draws and the next starts after them.

    Pointer doubling: each pass appends the offsets one hop-table step on
    from those already found, then squares the hop table, so the chain of t
    trials takes log2(t) passes of numpy indexing.
    """
    n = len(used)
    hop = np.append(np.minimum(np.arange(n) + used, n), n)  # n: past the last window
    starts = np.zeros(1, dtype=np.intp)
    while starts[-1] < n and len(starts) < limit:
        starts = np.concatenate([starts, hop[starts]])
        hop = hop[hop]
    return starts[starts < n][:limit]


def _distinct(codes: np.ndarray, bins: np.ndarray, number: Optional[np.ndarray] = None):
    """The distinct (codes, bins) rows and how often each occurs, summing
    ``number`` per row when given.

    ``codes`` are -1 padded; ``bins`` are integral floats, NaN padded.
    """
    code_radix = int(codes.max(initial=0)) + 2
    reach = int(np.fmax.reduce(np.abs(bins), axis=None, initial=0.0))
    bin_radix = 2 * reach + 2
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
    digits = np.hstack([codes + 1, np.where(np.isnan(bins), 0.0, bins + (reach + 1))])
    if number is None:
        keys, number = np.unique(digits @ weights, return_counts=True)
    else:
        keys, inverse = np.unique(digits @ weights, return_inverse=True)
        number = np.bincount(inverse.ravel(), weights=number)
    digits = keys[:, None] // weights % radices
    bins = digits[:, a:]
    return (
        digits[:, :a].astype(np.int64) - 1,
        np.where(bins == 0.0, np.nan, bins - (reach + 1)),
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

    Runs ``cfg.trials`` independent executions per input (each input on its
    own seeded stream), bins the outputs, Laplace-smooths the counts (+1) and
    takes the largest |log frequency ratio| over bins whose raw count reaches
    ``cfg.min_count`` on both sides.  The two-sided ratio makes the estimate
    symmetric in (d, d_prime) up to Monte-Carlo error.

    Raises :class:`AuditError` when no bin qualifies (increase trials or the
    bin width).
    """
    counts_d = _histogram(mech, d, SeededSource(cfg.seed), cfg)
    counts_dp = _histogram(
        mech, d_prime, SeededSource(cfg.seed + _STREAM_OFFSET), cfg
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
