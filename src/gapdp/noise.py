"""Noise primitives: distributions, inverse-CDF samplers and uniform streams.

Every mechanism in this package reads its randomness as uniforms from a
:class:`RandomSource`, so a mechanism run is a deterministic function of its
source.  :class:`SeededSource` gives reproducible pseudo-random streams;
:class:`ReplaySource` replays a fixed list of uniforms, which is what makes
exact zero-noise hand traces testable.

Every mechanism reads one fixed row of uniforms per run, a (1, draws)
row from :meth:`RandomSource.uniform_matrix` whose width depends only on
the input's size: n draws for top-k and Gumbel-max, n + 1 for the hybrids,
1 + n for :func:`gapdp.svt.gap_svt` and 1 + 2n for
:func:`gapdp.svt.adaptive_svt`, however early the scan stops, and 2 for the
black-box exponential mechanism with its default selector (a caller's
selector reads through :meth:`RandomSource.uniform`, and
:func:`logistic_nonneg` maps the gap draw).  The audit and the experiment
harness take a whole (trials, draws) matrix of the same stream, whose row r
is what the r-th of back-to-back runs reads.  A kernel maps its matrix
through the array forms ``inverse_cdf_array`` (or, for one family at
several scales, ``unit_array`` and ``from_unit``) and
:func:`sample_logistic_nonneg_array`.  Each array form applies the same
floating-point operations as its scalar twin, so the two agree up to the
last-ulp differences between numpy's and ``math``'s ``log``/``log1p``/
``exp``; a draw of exactly 0 maps to the same value (-inf for Laplace and
Gumbel).  Only a :class:`ReplaySource` can hold such a draw:
:class:`SeededSource` returns 2**-54 in its place.

Distribution conventions:

* ``Laplace(scale)``      -- density exp(-|x|/scale)/(2 scale), variance 2*scale**2.
* ``Exponential(scale)``  -- support [0, inf), mean ``scale``, variance scale**2.
* ``Geometric(p)``        -- support {0, 1, ...}, mass p*(1-p)**n, mean (1-p)/p,
  variance (1-p)/p**2.  (Some references quote the mean of this law as 1/p;
  that value belongs to the {1, 2, ...} support convention.  The mass function
  above is authoritative here and :func:`mean_of` returns (1-p)/p.)
* ``Gumbel(loc)``         -- standard Gumbel shifted by ``loc``, variance pi**2/6.
* ``Logistic(loc)``       -- standard logistic shifted by ``loc``, variance pi**2/3.

:class:`FamilyNoise` maps a family name ("laplace", "exponential" or
"geometric"), a budget and a sensitivity to the noise every mechanism draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Exponential",
    "FAMILIES",
    "FamilyNoise",
    "Geometric",
    "Gumbel",
    "Laplace",
    "Logistic",
    "NoiseKind",
    "RandomSource",
    "ReplayExhaustedError",
    "ReplaySource",
    "SeededSource",
    "STREAMS",
    "canonical_family",
    "ceiling",
    "logistic_nonneg",
    "mean_of",
    "sample",
    "sample_logistic_nonneg",
    "sample_logistic_nonneg_array",
    "variance_of",
]


class ReplayExhaustedError(RuntimeError):
    """A ReplaySource was asked for more uniforms than it holds."""


class RandomSource:
    """A stream of independent uniform(0, 1) draws.

    A source is single-owner: do not share one instance across concurrent
    tasks.  Concurrent runs should each construct their own seeded source.
    A subclass needs only :meth:`uniform`; :meth:`uniform_matrix`, which
    every mechanism reads its row through, defaults to a loop of it.
    """

    def uniform(self) -> float:
        raise NotImplementedError

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        """The next ``rows * cols`` uniforms as a C-order (rows, cols) array:
        row r holds what the r-th of ``rows`` back-to-back ``cols``-draw
        runs would read."""
        return np.array(
            [self.uniform() for _ in range(rows * cols)], dtype=np.float64
        ).reshape(rows, cols)


_BLOCK = 4096  # the draws one refill of a SeededSource takes
_RUN = 256  # the unread draws a SeededSource lists at a time for uniform()
# A SeededSource's exact-zero draw becomes this; every other draw is a
# multiple of 2**-53, so none changes.
_ZERO_DRAW = 2.0**-54


# Stream keys by name; SeededSource's docstring says what each feeds.
STREAMS = {"cell": (0,), "cell-adaptive": (1,), "audit-d": (2,), "audit-d-prime": (3,),
           "synthetic": (4,)}


class SeededSource(RandomSource):
    """PCG64-backed uniform stream; the same (seed, key) yields the same
    stream.

    ``SeededSource(seed, *key)`` seeds ``PCG64(SeedSequence(seed,
    spawn_key=key))``; with no key that is ``PCG64(seed)``'s stream.  Every
    stream the package derives from a seed takes its key from ``STREAMS``:

    * ``cell`` (0,): each (eps, k) cell of a trial experiment;
    * ``cell-adaptive`` (1,): the adaptive scan of a compared pair in a cell;
    * ``audit-d`` (2,) and ``audit-d-prime`` (3,): the audit's trials on
      inputs d and d';
    * ``synthetic`` (4,): the order of a shuffled synthetic query set.

    An exact-zero draw (p = 2**-53), which Laplace and Gumbel noise map to
    -inf, comes out as 2**-54."""

    def __init__(self, seed: int, *key: int):
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
        )
        # Drawn but unread: _ahead[_pos:].  _buf is a prefix of _ahead as a
        # list, which keeps uniform() near a list index.  Each refill lists
        # the next _RUN unread draws, so a few uniform() calls after a
        # matrix draw list a run, not a block.
        self._ahead = np.empty(0)
        self._buf: list[float] = []
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= len(self._buf):
            self._refill()
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def _refill(self) -> None:
        """Make _buf hold the next run of unread draws, drawing a block if
        none are left."""
        if self._pos < len(self._ahead):
            self._ahead = self._ahead[self._pos:]
        else:
            self._ahead = self._draw(_BLOCK)
        self._pos = 0
        self._buf = self._ahead[:_RUN].tolist()

    def _draw(self, n: int) -> np.ndarray:
        """The generator's next ``n`` draws, an exact zero raised to 2**-54."""
        draws = self._gen.random(n)
        return np.maximum(draws, _ZERO_DRAW, out=draws)

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        # Drain the buffer first so the matrix continues the scalar stream.
        n = rows * cols
        head = self._ahead[self._pos:self._pos + n]
        self._pos += len(head)
        tail = self._draw(n - len(head))
        if len(head):
            tail = np.concatenate([head, tail])
        return tail.reshape(rows, cols)


class ReplaySource(RandomSource):
    """Replays a fixed uniform sequence, then raises on exhaustion."""

    def __init__(self, values: Sequence[float]):
        vals = [float(v) for v in values]
        for v in vals:
            if not 0.0 <= v < 1.0:
                raise ValueError(f"replay value {v} outside [0, 1)")
        self._array = np.array(vals, dtype=np.float64)
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= len(self._array):
            self._exhausted()
        u = self._array.item(self._pos)
        self._pos += 1
        return u

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        # A copy of the stored slice.  A short stream raises as uniform()
        # does, before giving anything, and is left exhausted.
        start, self._pos = self._pos, min(self._pos + rows * cols, len(self._array))
        if self._pos - start < rows * cols:
            self._exhausted()
        return self._array[start:self._pos].reshape(rows, cols).copy()

    def _exhausted(self):
        raise ReplayExhaustedError(
            f"replay source exhausted after {len(self._array)} draws"
        )

    @property
    def remaining(self) -> int:
        return len(self._array) - self._pos


@dataclass(frozen=True)
class Laplace:
    scale: float

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"Laplace scale must be > 0, got {self.scale}")

    @property
    def mean(self) -> float:
        return 0.0

    @property
    def variance(self) -> float:
        return 2.0 * self.scale * self.scale

    def inverse_cdf(self, u: float) -> float:
        # Symmetric around u = 0.5; exactly 0 at the median.
        v = u - 0.5
        if v == 0.0:
            return 0.0
        if u <= 0.0:
            return -math.inf
        magnitude = -self.scale * math.log1p(-2.0 * abs(v))
        return magnitude if v > 0.0 else -magnitude

    def inverse_cdf_array(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # u = 0 gives -inf, as above
            return self.from_unit(self.unit_array(u))

    @staticmethod
    def unit_array(u: np.ndarray) -> np.ndarray:
        """The parameter-free part of :meth:`inverse_cdf_array`, here the
        Laplace(1) draws, which :meth:`from_unit` scales.  One pass serves
        every scale of the family, bit for bit.  A draw of exactly 0 gives
        -inf and numpy's divide warning, which the caller silences."""
        v = u - 0.5
        return np.copysign(np.log1p(-2.0 * np.abs(v)), v)

    def from_unit(self, z: np.ndarray) -> np.ndarray:
        return self.scale * z


@dataclass(frozen=True)
class Exponential:
    scale: float

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"Exponential scale must be > 0, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.scale

    @property
    def variance(self) -> float:
        return self.scale * self.scale

    def inverse_cdf(self, u: float) -> float:
        return -self.scale * math.log1p(-u)

    def inverse_cdf_array(self, u: np.ndarray) -> np.ndarray:
        return self.from_unit(self.unit_array(u))

    @staticmethod
    def unit_array(u: np.ndarray) -> np.ndarray:
        """Exponential(1) draws; see :meth:`Laplace.unit_array`."""
        return -np.log1p(-u)

    def from_unit(self, z: np.ndarray) -> np.ndarray:
        return self.scale * z


@dataclass(frozen=True)
class Geometric:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"Geometric success probability must be in (0, 1), got {self.p}")

    @property
    def mean(self) -> float:
        return (1.0 - self.p) / self.p

    @property
    def variance(self) -> float:
        return (1.0 - self.p) / (self.p * self.p)

    def inverse_cdf(self, u: float) -> float:
        # Exact inverse CDF on support {0, 1, ...}.
        if u <= 0.0:
            return 0.0
        return float(math.floor(math.log1p(-u) / math.log1p(-self.p)))

    def inverse_cdf_array(self, u: np.ndarray) -> np.ndarray:
        return self.from_unit(self.unit_array(u))

    @staticmethod
    def unit_array(u: np.ndarray) -> np.ndarray:
        """``log1p(-u)``, which :meth:`from_unit` maps to a draw at any
        ``p``; see :meth:`Laplace.unit_array`."""
        return np.log1p(-u)

    def from_unit(self, z: np.ndarray) -> np.ndarray:
        # u = 0 gives -0.0 / negative = 0.0, the scalar's special case.
        return np.floor(z / math.log1p(-self.p))


@dataclass(frozen=True)
class Gumbel:
    loc: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.loc):
            raise ValueError(f"Gumbel location must be finite, got {self.loc}")

    @property
    def mean(self) -> float:
        return self.loc + np.euler_gamma

    @property
    def variance(self) -> float:
        return math.pi * math.pi / 6.0

    def inverse_cdf(self, u: float) -> float:
        if u <= 0.0:
            return -math.inf
        return self.loc - math.log(-math.log(u))

    def inverse_cdf_array(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # u = 0 gives -inf, as above
            return self.from_unit(self.unit_array(u))

    @staticmethod
    def unit_array(u: np.ndarray) -> np.ndarray:
        """``log(u)``, which :meth:`from_unit` maps to a draw; see
        :meth:`Laplace.unit_array`."""
        return np.log(u)

    def from_unit(self, z: np.ndarray) -> np.ndarray:
        return self.loc - np.log(-z)


@dataclass(frozen=True)
class Logistic:
    loc: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.loc):
            raise ValueError(f"Logistic location must be finite, got {self.loc}")

    @property
    def mean(self) -> float:
        return self.loc

    @property
    def variance(self) -> float:
        return math.pi * math.pi / 3.0

    def inverse_cdf(self, u: float) -> float:
        if u <= 0.0:
            return -math.inf
        return self.loc + math.log(u) - math.log1p(-u)


NoiseKind = Union[Laplace, Exponential, Geometric, Gumbel, Logistic]


FAMILIES = ("laplace", "exponential", "geometric")
_ALIASES = {"lap": "laplace", "exp": "exponential", "geo": "geometric"}


def canonical_family(name: str) -> str:
    """Normalize a noise-family name ('lap'/'exp'/'geo' aliases accepted)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in FAMILIES:
        raise ValueError(f"unknown noise family {name!r}; expected one of {FAMILIES}")
    return key


@dataclass(frozen=True)
class FamilyNoise:
    """A noise family at budget ``eps`` for sensitivity ``spread``: Laplace
    and exponential at scale ``spread/eps``, geometric at rate ``eps/spread``.

    ``centre`` is subtracted from every draw.  For geometric noise it is
    ``1/p``, 1 above the mean ``(1-p)/p``; the offset cancels in every gap.
    ``variance`` stays finite where ``p`` rounds to 1 and ``kind`` cannot be
    built.  Outputs depend on these exact float expressions: ``kind.variance``
    or a rate converted to a scale differs by a few ulps.
    """

    family: str
    eps: float
    spread: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))

    @property
    def kind(self) -> NoiseKind:
        if self.family == "laplace":
            return Laplace(self.spread / self.eps)
        if self.family == "exponential":
            return Exponential(self.spread / self.eps)
        return Geometric(1.0 - math.exp(-self.eps / self.spread))

    @property
    def centre(self) -> float:
        if self.family == "laplace":
            return 0.0
        if self.family == "exponential":
            return self.spread / self.eps
        return 1.0 / (1.0 - math.exp(-self.eps / self.spread))

    @property
    def variance(self) -> float:
        if self.family == "laplace":
            return 2.0 * self.spread**2 / self.eps**2
        if self.family == "exponential":
            return self.spread**2 / self.eps**2
        rate = self.eps / self.spread
        d = math.expm1(rate)
        return math.exp(rate) / (d * d)


def sample(kind: NoiseKind, src: RandomSource) -> float:
    """Draw once from ``kind`` by inverse CDF on the next uniform of ``src``."""
    return kind.inverse_cdf(src.uniform())


#: How far, relatively, a ceiling moves its unit draw each way.
_CEILING_SLACK = 1e-9


def ceiling(kind: NoiseKind, u: float) -> float:
    """An upper bound on the noise ``kind.inverse_cdf_array`` gives any draw
    of at most ``u``.

    Every inverse CDF here is non-decreasing in its draw, so the noise of
    ``u`` bounds the noise of every smaller draw, up to rounding: numpy's
    ``log`` and ``log1p`` are off by a few ulps, differ between its SIMD
    loops and a scalar call, and need not be monotone between adjacent
    draws.  So the bound moves ``u``'s unit draw (see
    :meth:`Laplace.unit_array`) by a relative ``1e-9`` both ways and keeps
    the larger noise.  That slack covers the rounding of both steps.
    ``unit_array``'s log is off by a relative 1e-15 at most, and moving the
    unit draw by a relative 1e-9 moves the noise by a relative 1e-9 where
    ``from_unit`` scales it (the geometric floor comes after the scaling).
    Gumbel's ``from_unit`` takes a second log, of a unit draw's magnitude,
    which a double keeps under 800: that log is off by under 1e-12, and the
    slack moves it by 1e-9.  The ceiling of a draw of 0, which only a
    :class:`ReplaySource` gives, is inf: it bounds everything and so
    prunes nothing.
    """
    if not u > 0.0:
        return math.inf
    z = kind.unit_array(u)
    return float(max(kind.from_unit(z * (1.0 - _CEILING_SLACK)),
                     kind.from_unit(z * (1.0 + _CEILING_SLACK))))


def variance_of(kind: NoiseKind) -> float:
    """Closed-form variance of ``kind``."""
    return kind.variance


def mean_of(kind: NoiseKind) -> float:
    """Closed-form mean of ``kind``."""
    return kind.mean


def sample_logistic_nonneg(location: float, src: RandomSource) -> float:
    """Draw Logistic(location) conditioned on being positive, in one uniform.

    Equivalent in distribution to rejection-sampling Logistic(location) until
    a positive value appears, but runs in O(1) regardless of how negative the
    location is (the rejection loop needs 1/P(X>0) expected tries).

    The uniform draw is mapped into the upper CDF segment (F(0), 1); with
    F(0) = 1/(1+e^location) the conditional inverse CDF simplifies to
    log(1 + u*e^location) - log(1-u), evaluated in log-space for stability.
    """
    return logistic_nonneg(location, src.uniform())


def logistic_nonneg(location: float, u: float) -> float:
    """:func:`sample_logistic_nonneg` on a given uniform ``u``, the one
    home of the scalar formula."""
    if u <= 0.0:
        u = math.ulp(0.0)  # keep the output strictly positive
    a = location + math.log(u)
    if a > 0.0:
        head = a + math.log1p(math.exp(-a))
    else:
        head = math.log1p(math.exp(a))
    return head - math.log1p(-u)


def sample_logistic_nonneg_array(location, u: np.ndarray) -> np.ndarray:
    """Array form of :func:`sample_logistic_nonneg` on given uniforms ``u``.

    ``location`` may be a scalar or an array broadcasting against ``u``.
    Both branches of the scalar's log-sum-exp are one expression here, so
    neither can overflow for the rows that take the other.
    """
    u = np.where(u <= 0.0, math.ulp(0.0), u)
    a = location + np.log(u)
    head = np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))
    return head - np.log1p(-u)
