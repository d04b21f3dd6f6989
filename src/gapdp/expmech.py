"""Exponential mechanism with a free noisy utility gap.

Two implementations with identical joint output law:

* :func:`exp_mech_gumbel` adds i.i.d. Gumbel(0) noise to the scaled scores
  ``x_i = eps * mu_i / (2 * sensitivity)`` and returns the arg-max together
  with the noisy margin over the runner-up (the Gumbel-max construction).
* :func:`exp_mech_blackbox_gap` treats the selector as a black box: it draws
  the winner from the categorical softmax law, then samples the gap
  independently from Logistic(x_s - logsumexp of the other scores)
  conditioned on being positive.

The second form matters because production samplers for the categorical step
can be arbitrary; any selector can be wrapped and still release the gap.
Its release reads one table per :class:`UtilityTable`, built once in O(n):
the running softmax weights and every outcome's gap location.  After that a
release costs O(log n) (a bisection for the default selector) and the audit
kernel reads the same table.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .noise import (
    Gumbel,
    RandomSource,
    sample_logistic_nonneg,
    sample_logistic_nonneg_array,
)
from .topk import single_run, top_gaps

__all__ = [
    "ExpMechResult",
    "UtilityTable",
    "categorical_softmax_selector",
    "exp_mech_blackbox_batch",
    "exp_mech_blackbox_gap",
    "exp_mech_gumbel",
    "exp_mech_gumbel_batch",
    "log_sum_exp_excluding",
]

Selector = Callable[[Sequence[float], RandomSource], int]


@dataclass(frozen=True)
class UtilityTable:
    """Utility scores for a finite outcome set, with sensitivity and budget."""

    scores: tuple[float, ...]
    sensitivity: float
    epsilon: float
    #: :meth:`scaled_scores`, built once.
    _scaled: tuple[float, ...] = field(init=False, repr=False, compare=False)
    #: :meth:`scaled_scores` as a read-only float64 array, built once.
    scaled_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.scores)
        if len(vals) < 2:
            raise ValueError("need at least two outcomes for a gap")
        if not self.sensitivity > 0.0:
            raise ValueError("sensitivity must be > 0")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be > 0")
        object.__setattr__(self, "scores", vals)
        factor = self.epsilon / (2.0 * self.sensitivity)
        object.__setattr__(self, "_scaled", tuple(factor * v for v in vals))
        scaled = np.array(self._scaled)
        finite = np.isfinite(scaled)
        if not finite.all():
            raise ValueError(f"scaled score {scaled[~finite][0]} is not finite")
        scaled.flags.writeable = False
        object.__setattr__(self, "scaled_array", scaled)

    def scaled_scores(self) -> tuple[float, ...]:
        """x_i = epsilon * score_i / (2 * sensitivity); the only scale used."""
        return self._scaled

    @cached_property
    def _softmax_table(self) -> tuple[list[float], np.ndarray]:
        """What every black-box release on this table reads, built once in
        O(n): the running sums of the softmax weights exp(x - max) in index
        order, whose last entry is their total, and each outcome's gap location
        x_s - logsumexp of the other scaled scores, as a float64 array."""
        scaled = self._scaled
        weights = _softmax_weights(scaled)
        cumulative = list(itertools.accumulate(weights))
        # The weights other than s: those before it plus those after it.
        others = np.zeros(len(scaled))
        others[1:] += cumulative[:-1]
        others[:-1] += np.cumsum(weights[:0:-1])[::-1]
        top = int(np.argmax(self.scaled_array))
        with np.errstate(divide="ignore"):  # log(0) at a lone maximum, replaced below
            locations = self.scaled_array - (scaled[top] + np.log(others))
        # At the first maximum the rivals can all underflow against it, so
        # take the log-sum-exp over them at their own maximum instead.
        locations[top] = scaled[top] - log_sum_exp_excluding(scaled, top)
        return cumulative, locations


@dataclass(frozen=True)
class ExpMechResult:
    selected: int
    gap: float

    def audit_output(self) -> tuple[tuple[int], tuple[float]]:
        """The winner and its gap: what the auditor bins."""
        return (self.selected,), (self.gap,)


def log_sum_exp_excluding(scores: Sequence[float], s: int) -> float:
    """log of sum(exp(scores[i])) over i != s, max-subtracted for stability."""
    n = len(scores)
    if n < 2:
        raise ValueError("need at least two scores")
    if not 0 <= s < n:
        raise IndexError(f"index {s} out of range for {n} scores")
    rest = [scores[i] for i in range(n) if i != s]
    m = max(rest)
    return m + math.log(sum(math.exp(v - m) for v in rest))


def exp_mech_gumbel(u: UtilityTable, src: RandomSource) -> ExpMechResult:
    """Gumbel-max exponential mechanism, returning winner and runner-up gap.

    The selection marginal equals the softmax over scaled scores, and the
    noisy maximum is Gumbel-distributed with location logsumexp(x).  Runs
    :func:`exp_mech_gumbel_batch`'s kernel on the next n uniforms of ``src``.
    """
    draws, kernel, _ = exp_mech_gumbel_batch(u)
    ((selected, gap),) = single_run(kernel, draws, src)
    return ExpMechResult(selected, gap)


def exp_mech_gumbel_batch(u: UtilityTable):
    """The kernel of :func:`exp_mech_gumbel`, which the audit runs directly.

    Returns ``(n, kernel, None)``, no trial stopping early; ``kernel(U)``
    maps a (trials, n) uniform matrix to every trial's winner
    (int64, trials x 1) and gap (float64, trials x 1).  Of equal maxima the
    first wins.
    """
    scaled = u.scaled_array
    gumbel = Gumbel(0.0)

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return top_gaps(scaled + gumbel.inverse_cdf_array(U), 1)

    return len(scaled), kernel, None


def _softmax_weights(scaled: Sequence[float]) -> list[float]:
    """The softmax weights exp(x - max) in index order."""
    m = max(scaled)
    return [math.exp(x - m) for x in scaled]


def _inverse_cdf_pick(cumulative: list[float], u: float) -> int:
    """The first outcome whose running weight exceeds ``u`` times the total,
    which is the last running weight (never a separately rounded sum, so a
    ``u`` just below 1 cannot pass every running weight)."""
    return min(bisect.bisect_right(cumulative, u * cumulative[-1]), len(cumulative) - 1)


def categorical_softmax_selector(scaled: Sequence[float], src: RandomSource) -> int:
    """Inverse-CDF draw from the softmax over the scaled scores: the first
    outcome whose running weight exceeds a uniform share of the total."""
    cumulative = list(itertools.accumulate(_softmax_weights(scaled)))
    return _inverse_cdf_pick(cumulative, src.uniform())


def exp_mech_blackbox_gap(
    u: UtilityTable,
    src: RandomSource,
    selector: Optional[Selector] = None,
) -> ExpMechResult:
    """Black-box exponential mechanism with an independently sampled gap.

    ``selector`` may be any sampler of the categorical exponential-mechanism
    law over the scaled scores (defaults to the inverse-CDF softmax draw).
    The gap is then a positive-conditioned logistic draw at location
    x_s - log(sum of exp(x_i) over i != s), which reproduces the joint
    distribution of the Gumbel-max construction.  Both steps read the
    table's cached running weights and locations, so a release with the
    default selector costs one bisection; the selector's draws come first.
    """
    cumulative, locations = u._softmax_table
    if selector is None:
        s = _inverse_cdf_pick(cumulative, src.uniform())
    else:
        s = selector(u.scaled_scores(), src)
        if not 0 <= s < len(cumulative):
            raise IndexError(f"selector chose {s}, out of range for {len(cumulative)} outcomes")
    return ExpMechResult(s, sample_logistic_nonneg(float(locations[s]), src))


def exp_mech_blackbox_batch(u: UtilityTable):
    """Batch kernel of :func:`exp_mech_blackbox_gap` with the default
    selector, for the audit.

    Returns ``(2, kernel, None)``, no trial stopping early; ``kernel(U)``
    maps a (trials, 2) uniform matrix (selector draw, gap draw) to every
    trial's winner (int64, trials x 1) and gap (float64, trials x 1).  It
    reads the table the release reads, and searches its running weights as
    the default selector does, so both pick the same outcome at the same
    location.
    """
    cumulative, locations = u._softmax_table
    running, total, last = np.array(cumulative), cumulative[-1], len(cumulative) - 1

    def kernel(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The first i whose running weight exceeds u * total, as the selector finds it.
        s = np.minimum(np.searchsorted(running, U[:, 0] * total, side="right"), last)
        return s[:, None], sample_logistic_nonneg_array(locations[s], U[:, 1])[:, None]

    return 2, kernel, None
