"""Noise primitives: distributions, inverse-CDF samplers and uniform streams.

Every mechanism in this package reads its randomness as uniforms from a
:class:`RandomSource`, so a mechanism run is a deterministic function of its
source.  :class:`SeededSource` gives reproducible pseudo-random streams;
:class:`ReplaySource` replays a fixed list of uniforms, which is what makes
exact zero-noise hand traces testable.

The black-box exponential mechanism draws one value at a time through
:func:`sample_logistic_nonneg`.  Every other mechanism runs its batch
kernel.  The fixed-draw ones (top-k, the hybrids, Gumbel-max) take a
(1, draws) row from :meth:`RandomSource.uniform_matrix`.  The sparse-vector
scans stop early, so they read ahead with :meth:`RandomSource.peek` and then
consume with :meth:`RandomSource.advance` only the draws the scan used.  The
audit takes a whole (trials, draws) matrix of the same stream.  A kernel
maps its matrix through the array forms ``inverse_cdf_array`` (or, for one
family at several scales, ``unit_array`` and ``from_unit``) and
:func:`sample_logistic_nonneg_array`.  Each array form applies the same
floating-point operations as its scalar twin, so the two agree up to the
last-ulp differences between numpy's and ``math``'s ``log``/``log1p``/
``exp``; a draw of exactly 0 maps to the same value (-inf for Laplace and
Gumbel).

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
    "canonical_family",
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

    Besides :meth:`uniform`, a source offers a look-ahead: :meth:`peek`
    returns the next draws without consuming them, and :meth:`advance`
    consumes them.  ``peek(n)`` followed by ``advance(m)``, m <= n, leaves
    the stream where m calls of ``uniform()`` leave it, and the peeked
    values are the ones those calls return.  The sparse-vector scans read
    this way: they cannot know beforehand how many draws they take.  A
    subclass that defines only ``uniform()`` cannot serve them and raises
    ``NotImplementedError`` there.
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

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms as a read-only float64 array, not consumed.
        Fewer only when the stream ends before them."""
        raise self._no_look_ahead()

    def advance(self, m: int) -> None:
        """Consume the next ``m`` uniforms, as ``m`` calls of :meth:`uniform`
        would, raising as they would where the stream ends."""
        raise self._no_look_ahead()

    def _no_look_ahead(self) -> NotImplementedError:
        return NotImplementedError(
            f"{type(self).__name__} defines no peek(n)/advance(m) look-ahead, "
            "which the sparse-vector scans need"
        )


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class SeededSource(RandomSource):
    """PCG64-backed uniform stream; the same seed yields the same stream."""

    def __init__(self, seed: int | np.random.SeedSequence, block: int = 4096):
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._block = int(block)
        self._next_block = 32  # grow refills so short-lived sources stay cheap
        # Drawn but unread: _ahead[_pos:].  _buf is _ahead as a list, which
        # keeps uniform() near a list index; peek() empties it when it
        # rebuilds _ahead, and uniform() converts again on demand.
        self._ahead = _read_only(np.empty(0))
        self._buf: list[float] = []
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= len(self._buf):
            self._refill()
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def _refill(self) -> None:
        """Make _buf hold the unread draws, drawing a block if none are left."""
        if self._pos < len(self._ahead):
            self._ahead = self._ahead[self._pos:]
        else:
            self._ahead = _read_only(self._gen.random(self._next_block))
            self._next_block = min(2 * self._next_block, self._block)
        self._pos = 0
        self._buf = self._ahead.tolist()

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        # Drain the buffer first so the matrix continues the scalar stream.
        n = rows * cols
        head = self._ahead[self._pos:self._pos + n]
        self._pos += len(head)
        tail = self._gen.random(n - len(head))
        if len(head):
            tail = np.concatenate([head, tail])
        return tail.reshape(rows, cols)

    def peek(self, n: int) -> np.ndarray:
        short = self._pos + n - len(self._ahead)
        if short > 0:
            fresh = self._gen.random(max(short, self._next_block))
            self._ahead = _read_only(np.concatenate([self._ahead[self._pos:], fresh]))
            self._buf = []
            self._pos = 0
        return self._ahead[self._pos:self._pos + n]

    def advance(self, m: int) -> None:
        self.peek(m)
        self._pos += m


class ReplaySource(RandomSource):
    """Replays a fixed uniform sequence, then raises on exhaustion."""

    def __init__(self, values: Sequence[float]):
        vals = [float(v) for v in values]
        for v in vals:
            if not 0.0 <= v < 1.0:
                raise ValueError(f"replay value {v} outside [0, 1)")
        self._values = vals
        self._array = _read_only(np.array(vals, dtype=np.float64))
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= len(self._values):
            self._exhausted()
        u = self._values[self._pos]
        self._pos += 1
        return u

    def peek(self, n: int) -> np.ndarray:
        return self._array[self._pos:self._pos + n]

    def advance(self, m: int) -> None:
        if self._pos + m > len(self._values):
            self._pos = len(self._values)
            self._exhausted()
        self._pos += m

    def _exhausted(self):
        raise ReplayExhaustedError(
            f"replay source exhausted after {len(self._values)} draws"
        )

    @property
    def remaining(self) -> int:
        return len(self._values) - self._pos


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
            return self.loc - np.log(-np.log(u))


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
    u = src.uniform()
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
