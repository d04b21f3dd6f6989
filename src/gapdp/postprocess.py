"""Post-processing that folds free gap information into query estimates.

* :func:`blue_topk` -- best linear unbiased estimator combining k direct
  noisy measurements with the k-1 consecutive noisy gaps from top-k
  selection; runs in O(k) via prefix sums.  :func:`blue_topk_rows` is its
  body, one estimate per row of a measurement matrix.
* :func:`blue_variance_ratio` -- its exact variance ratio against using the
  direct measurements alone: (1 + lambda*k) / (k + lambda*k).
* :func:`fuse_svt` -- inverse-variance fusion of gap-derived estimates
  (gap + public threshold) with direct measurements, per query; its body
  :func:`fuse_svt_rows` takes arrays and per-row variances.
* :func:`svt_variance_model` -- the gap/measurement variances implied by the
  half-selection/half-measurement budget split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise import FamilyNoise

__all__ = [
    "BlueInput",
    "VarianceModel",
    "blue_topk",
    "blue_topk_rows",
    "blue_variance_ratio",
    "fuse_svt",
    "fuse_svt_rows",
    "svt_variance_model",
]


@dataclass(frozen=True)
class BlueInput:
    """Direct measurements, consecutive gaps, and the noise-variance ratio.

    ``lam`` is var(gap noise per query) / var(measurement noise):
    1 for Laplace selection noise on monotonic counting queries,
    1/2 for one-sided exponential selection noise.
    """

    alphas: tuple[float, ...]
    gaps: tuple[float, ...]
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "gaps", tuple(float(g) for g in self.gaps))
        if len(self.alphas) < 1:
            raise ValueError("need at least one measurement")
        if len(self.gaps) != len(self.alphas) - 1:
            raise ValueError(
                f"need k-1 = {len(self.alphas) - 1} gaps, got {len(self.gaps)}"
            )
        if not self.lam > 0.0:
            raise ValueError("variance ratio lam must be > 0")


@dataclass(frozen=True)
class VarianceModel:
    """Variances of a direct measurement and of a gap-derived estimate."""

    var_alpha: float
    var_gap: float

    def __post_init__(self):
        if not (self.var_alpha > 0.0 and self.var_gap > 0.0):
            raise ValueError("variances must be > 0")


def blue_topk(inp: BlueInput) -> list[float]:
    """Minimum-variance unbiased linear combination of measurements and gaps.

    beta_i = (sum(alpha) + lam*k*alpha_i + p - k*prefix_{i-1}) / ((1+lam)*k)
    with p = sum over j of (k-j)*g_j and prefix_i the running gap sum.  This
    is the closed-form solution of the generalized least-squares problem for
    the model alpha = q + xi, g = N(q + eta) with var(eta)/var(xi) = lam.
    """
    k = len(inp.alphas)
    gaps = np.array(inp.gaps, dtype=np.float64).reshape(1, k - 1)
    return blue_topk_rows(np.array([inp.alphas]), gaps, inp.lam)[0].tolist()


def blue_topk_rows(alphas: np.ndarray, gaps: np.ndarray, lam: float) -> np.ndarray:
    """:func:`blue_topk` on every row: ``alphas`` is (rows, k), ``gaps`` is
    (rows, k-1), and row r of the result is ``blue_topk`` of row r.

    Every sum runs left to right (``np.cumsum``, never the pairwise
    ``np.sum``), so a row gives the same floats whatever the row count.
    """
    rows, k = alphas.shape
    if gaps.shape != (rows, k - 1):
        raise ValueError(f"need gaps of shape {(rows, k - 1)}, got {gaps.shape}")
    if not lam > 0.0:
        raise ValueError("variance ratio lam must be > 0")
    alpha_total = np.cumsum(alphas, axis=1)[:, -1:]
    weighted = np.cumsum(
        np.hstack([np.zeros((rows, 1)), (k - np.arange(1, k)) * gaps]), axis=1
    )[:, -1:]
    prefix = np.cumsum(np.hstack([np.zeros((rows, 1)), gaps]), axis=1)
    return (alpha_total + lam * k * alphas + weighted - k * prefix) / ((1.0 + lam) * k)


def blue_variance_ratio(k: int, lam: float) -> float:
    """Exact var(blue estimate) / var(direct measurement)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not lam > 0.0:
        raise ValueError("lam must be > 0")
    return (1.0 + lam * k) / (k + lam * k)


def fuse_svt(
    gap_estimates: Sequence[float],
    alphas: Sequence[float],
    model: VarianceModel,
) -> list[float]:
    """Inverse-variance weighted average of gap estimates and measurements.

    ``gap_estimates`` already include the public threshold (gap + T).  The
    fused variance is var_alpha*var_gap/(var_alpha+var_gap) < var_alpha.
    """
    if len(gap_estimates) != len(alphas):
        raise ValueError("gap_estimates and alphas must have equal length")
    return fuse_svt_rows(
        np.array(gap_estimates, dtype=np.float64), np.array(alphas, dtype=np.float64),
        model.var_alpha, model.var_gap,
    ).tolist()


def fuse_svt_rows(gap_estimates: np.ndarray, alphas: np.ndarray, var_alpha, var_gap):
    """:func:`fuse_svt` elementwise on arrays; the variances may be arrays
    broadcasting against them, such as one ``var_alpha`` per row."""
    w_alpha = 1.0 / var_alpha
    w_gap = 1.0 / var_gap
    total = w_alpha + w_gap
    return (alphas * w_alpha + gap_estimates * w_gap) / total


def svt_variance_model(
    k: int,
    eps: float,
    theta: float,
    noise: str = "laplace",
    monotonic: bool = False,
) -> VarianceModel:
    """Variances under the half/half budget split around sparse-vector runs.

    The selection pass runs at eps/2 with split theta (threshold rate
    eps0 = theta*eps/2, per-query rate eps1 = (1-theta)*eps/(2k)); the
    measurement pass spends the other eps/2 on k Laplace measurements, so
    var_alpha = 8 k^2 / eps^2.  var_gap adds the threshold and query noise
    variances for the configured noise family.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    half = eps / 2.0
    eps0 = theta * half
    eps1 = (1.0 - theta) * half / k
    spread = 1.0 if monotonic else 2.0
    var_gap = FamilyNoise(noise, eps0).variance + FamilyNoise(noise, eps1, spread).variance
    return VarianceModel(var_alpha=8.0 * k * k / (eps * eps), var_gap=var_gap)
