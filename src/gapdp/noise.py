"""Noise primitives: distributions, inverse-CDF samplers and uniform streams.

Every mechanism in this package draws randomness exclusively through
:func:`sample` (or :func:`sample_logistic_nonneg`) applied to a
:class:`RandomSource`, so a mechanism run is a deterministic function of its
source.  :class:`SeededSource` gives reproducible pseudo-random streams;
:class:`ReplaySource` replays a fixed list of uniforms, which is what makes
exact zero-noise hand traces testable.

The audit's batch kernels draw a whole matrix of uniforms at once
(:meth:`RandomSource.uniform_matrix`) and map it through the array forms
``inverse_cdf_array`` and :func:`sample_logistic_nonneg_array`.  Each array
form applies the same floating-point operations as its scalar twin, so the
two agree up to the last-ulp differences between numpy's and ``math``'s
``log``/``log1p``/``exp``; a draw of exactly 0 maps to the same value
(-inf for Laplace and Gumbel).

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


class SeededSource(RandomSource):
    """PCG64-backed uniform stream; the same seed yields the same stream."""

    def __init__(self, seed: int | np.random.SeedSequence, block: int = 4096):
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._block = int(block)
        self._next_block = 32  # grow refills so short-lived sources stay cheap
        self._buf: list[float] = []
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= len(self._buf):
            # Buffered refill keeps per-draw overhead near a list index.
            self._buf = self._gen.random(self._next_block).tolist()
            self._next_block = min(2 * self._next_block, self._block)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        # Drain the buffer first so the matrix continues the scalar stream.
        n = rows * cols
        head = self._buf[self._pos:self._pos + n]
        self._pos += len(head)
        tail = self._gen.random(n - len(head))
        if head:
            tail = np.concatenate([np.array(head, dtype=np.float64), tail])
        return tail.reshape(rows, cols)


class ReplaySource(RandomSource):
    """Replays a fixed uniform sequence, then raises on exhaustion."""

    def __init__(self, values: Sequence[float]):
        vals = [float(v) for v in values]
        for v in vals:
            if not 0.0 <= v < 1.0:
                raise ValueError(f"replay value {v} outside [0, 1)")
        self._values = vals
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= len(self._values):
            raise ReplayExhaustedError(
                f"replay source exhausted after {len(self._values)} draws"
            )
        u = self._values[self._pos]
        self._pos += 1
        return u

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
        v = u - 0.5
        with np.errstate(divide="ignore"):  # u = 0 gives -inf, as above
            magnitude = -self.scale * np.log1p(-2.0 * np.abs(v))
        return np.where(v < 0.0, -magnitude, magnitude)


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
        return -self.scale * np.log1p(-u)


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
        # u = 0 gives -0.0 / negative = 0.0, the scalar's special case.
        return np.floor(np.log1p(-u) / math.log1p(-self.p))


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
