import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdp.postprocess import (
    BlueInput,
    VarianceModel,
    blue_topk,
    blue_topk_rows,
    blue_variance_ratio,
    fuse_svt,
    svt_variance_model,
)


def difference_matrix(k):
    n = np.zeros((k - 1, k))
    for i in range(k - 1):
        n[i, i] = 1.0
        n[i, i + 1] = -1.0
    return n


def gls_oracle(alphas, gaps, lam):
    """Dense generalized least squares for the stacked linear model
    alpha = q + xi, g = N(q + eta), var(eta) = lam * var(xi)."""
    k = len(alphas)
    n = difference_matrix(k)
    design = np.vstack([np.eye(k), n])
    cov = np.zeros((2 * k - 1, 2 * k - 1))
    cov[:k, :k] = np.eye(k)
    cov[k:, k:] = lam * n @ n.T
    y = np.concatenate([alphas, gaps])
    w = np.linalg.inv(cov)
    return np.linalg.solve(design.T @ w @ design, design.T @ w @ y)


def xy_oracle(alphas, gaps, lam):
    """Explicit (X alpha + Y g)/((1+lam) k) matrix form."""
    k = len(alphas)
    x = np.full((k, k), 1.0)
    np.fill_diagonal(x, 1.0 + lam * k)
    y = np.zeros((k, k - 1))
    for i in range(k):
        for j in range(k - 1):
            y[i, j] = (k - 1 - j) - (k if i > j else 0.0)
    return (x @ np.asarray(alphas) + y @ np.asarray(gaps)) / ((1.0 + lam) * k)


class TestBlueTopk:
    def test_consistent_data_reproduced_exactly(self):
        # alphas [10, 6] with gap [4] are already mutually consistent.
        estimates = blue_topk(BlueInput((10.0, 6.0), (4.0,), 1.0))
        assert estimates == pytest.approx([10.0, 6.0], abs=1e-12)

    def test_k1_returns_measurement(self):
        assert blue_topk(BlueInput((7.5,), (), 0.3)) == pytest.approx([7.5])

    def test_matches_xy_matrices(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            k = 50 if trial < 5 else int(rng.integers(1, 8))
            lam = float(rng.uniform(0.2, 3.0))
            alphas = rng.normal(size=k)
            gaps = rng.normal(size=k - 1)
            fast = blue_topk(BlueInput(tuple(alphas), tuple(gaps), lam))
            assert np.allclose(fast, xy_oracle(alphas, gaps, lam), atol=1e-10)

    def test_matches_gls_up_to_k50(self):
        rng = np.random.default_rng(1)
        for k in (2, 5, 17, 50):
            lam = 0.5
            alphas = rng.normal(size=k) * 10
            gaps = rng.normal(size=k - 1)
            fast = np.asarray(blue_topk(BlueInput(tuple(alphas), tuple(gaps), lam)))
            slow = gls_oracle(alphas, gaps, lam)
            assert np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1.0)) < 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BlueInput((), (), 1.0)
        with pytest.raises(ValueError):
            BlueInput((1.0, 2.0), (), 1.0)
        with pytest.raises(ValueError):
            BlueInput((1.0,), (), 0.0)


class TestVarianceRatio:
    def test_counting_query_values(self):
        assert blue_variance_ratio(10, 1.0) == pytest.approx(0.55)
        # Reduction is (k-1)/(2k) at lam=1.
        assert 1.0 - blue_variance_ratio(10, 1.0) == pytest.approx(9.0 / 20.0)

    def test_large_k_exponential_limit(self):
        assert blue_variance_ratio(10**9, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_k1_gives_no_improvement(self):
        for lam in (0.1, 1.0, 10.0):
            assert blue_variance_ratio(1, lam) == pytest.approx(1.0)

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_ratio_in_unit_interval(self, k, lam):
        ratio = blue_variance_ratio(k, lam)
        assert 0.0 < ratio <= 1.0


class TestFuseSvt:
    def test_equal_variances_average(self):
        model = VarianceModel(4.0, 4.0)
        assert fuse_svt([10.0], [14.0], model) == pytest.approx([12.0])

    def test_weighted_example(self):
        model = VarianceModel(var_alpha=8.0, var_gap=4.0)
        assert fuse_svt([14.0], [10.0], model) == pytest.approx([38.0 / 3.0])

    def test_huge_gap_variance_returns_measurement(self):
        model = VarianceModel(var_alpha=1.0, var_gap=1e12)
        assert fuse_svt([99.0], [5.0], model) == pytest.approx([5.0], abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fuse_svt([1.0, 2.0], [1.0], VarianceModel(1.0, 1.0))


class TestSvtVarianceModel:
    def test_laplace_nonmonotonic_closed_form(self):
        k, eps = 10, 0.7
        theta = 1.0 / (1.0 + (4.0 * k * k) ** (1.0 / 3.0))
        model = svt_variance_model(k, eps, theta, "laplace", monotonic=False)
        expected = 8.0 * (1.0 + (4.0 * k * k) ** (1.0 / 3.0)) ** 3 / eps**2
        assert model.var_gap == pytest.approx(expected, rel=1e-12)
        assert model.var_alpha == pytest.approx(8.0 * k * k / eps**2, rel=1e-12)

    def test_exponential_monotonic_closed_form(self):
        k, eps = 10, 0.7
        theta = 1.0 / (1.0 + (k * k) ** (1.0 / 3.0))
        model = svt_variance_model(k, eps, theta, "exponential", monotonic=True)
        expected = 4.0 * (1.0 + (k * k) ** (1.0 / 3.0)) ** 3 / eps**2
        assert model.var_gap == pytest.approx(expected, rel=1e-12)

    def test_exponential_monotonic_large_k_reduction_near_two_thirds(self):
        k = 10**6
        theta = 1.0 / (1.0 + (k * k) ** (1.0 / 3.0))
        model = svt_variance_model(k, 1.0, theta, "exponential", monotonic=True)
        ratio = model.var_gap / (model.var_gap + model.var_alpha)
        assert ratio == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_geometric_close_to_exponential_padding(self):
        # Small-rate geometric noise behaves like its exponential analogue.
        model_g = svt_variance_model(10, 0.1, 0.3, "geometric", monotonic=True)
        model_e = svt_variance_model(10, 0.1, 0.3, "exponential", monotonic=True)
        assert model_g.var_gap == pytest.approx(model_e.var_gap, rel=0.05)


def test_blue_unbiased_and_variance_ratio_monte_carlo():
    rng = np.random.default_rng(42)
    trials = 100_000
    for k, lam in [(2, 1.0), (5, 1.0), (10, 0.5), (20, 0.5)]:
        q = np.linspace(100.0, 50.0, k)
        scale_xi = 1.0 / math.sqrt(2.0)  # Laplace variance 1
        scale_eta = math.sqrt(lam) / math.sqrt(2.0)
        xi = rng.laplace(scale=scale_xi, size=(trials, k))
        eta = rng.laplace(scale=scale_eta, size=(trials, k))
        alphas = q + xi
        noisy_rank = q + eta
        gaps = noisy_rank[:, :-1] - noisy_rank[:, 1:]
        betas = blue_topk_rows(alphas, gaps, lam)
        errors = betas - q
        # Unbiasedness within 3 standard errors, per coordinate.
        se = errors.std(axis=0) / math.sqrt(trials)
        assert np.all(np.abs(errors.mean(axis=0)) < 3.0 * se)
        ratio = (errors**2).mean() / (xi**2).mean()
        assert ratio == pytest.approx(blue_variance_ratio(k, lam), rel=0.03)


def test_fuse_unbiased_monte_carlo():
    rng = np.random.default_rng(43)
    trials = 100_000
    q = 250.0
    model = VarianceModel(var_alpha=4.0, var_gap=9.0)
    alphas = q + rng.laplace(scale=math.sqrt(2.0), size=trials)
    gap_estimates = q + rng.laplace(scale=math.sqrt(4.5), size=trials)
    fused = np.array(fuse_svt(gap_estimates.tolist(), alphas.tolist(), model))
    se = fused.std() / math.sqrt(trials)
    assert abs(fused.mean() - q) < 3.0 * se
    expected_var = model.var_alpha * model.var_gap / (model.var_alpha + model.var_gap)
    assert fused.var() == pytest.approx(expected_var, rel=0.03)
