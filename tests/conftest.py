import numpy as np

from gapdp.noise import NoiseKind, RandomSource, SeededSource


def draw_many(kind: NoiseKind, src: RandomSource, n: int) -> np.ndarray:
    return np.fromiter((kind.inverse_cdf(src.uniform()) for _ in range(n)), dtype=float, count=n)


def zero_noise_uniform(family: str) -> float:
    """The uniform that maps to a zero draw: the median for Laplace, the
    lower support end for the one-sided families."""
    return 0.5 if family == "laplace" else 0.0


def kernel_runs(batch, runs: int, seed: int):
    """What ``runs`` back-to-back calls of a fixed-draw mechanism release on
    ``SeededSource(seed)``: the kernel of ``batch``, the triple its
    ``*_batch`` builder returns, on one (runs, draws) uniform matrix."""
    draws, kernel, _ = batch
    return kernel(SeededSource(seed).uniform_matrix(runs, draws))
