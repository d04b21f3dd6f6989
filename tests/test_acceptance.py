"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The million-trial privacy audit (criterion 07) runs on the numpy
batch kernels, which ``tests/test_audit_kernels.py`` pins to independent
references, and takes seconds rather than minutes.  The Gumbel-max samples
of criteria 05 and 06 are drawn as one uniform matrix through the kernel
that ``exp_mech_gumbel`` runs, which gives the samples of a per-call loop.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from gapdp.expmech import (
    UtilityTable,
    exp_mech_blackbox_gap,
    exp_mech_gumbel_batch,
    log_sum_exp_excluding,
)
from gapdp.harness import ExperimentConfig, run_audit_suite, run_experiment
from gapdp.hybrid import hybrid_estimates, hybrid_identity
from gapdp.noise import Gumbel, ReplaySource, SeededSource, sample, sample_logistic_nonneg
from gapdp.postprocess import BlueInput, VarianceModel, blue_topk, blue_variance_ratio, fuse_svt
from gapdp.queries import QuerySet, TransactionDB, item_counts, load_transactions
from gapdp.svt import SvtConfig, adaptive_svt, gap_svt, lower_confidence_t, tail_probability, theta_optimal
from gapdp.topk import gap_topk, pairwise_gap

from conftest import kernel_runs

SEPARATED = "n=60,step=2000,base=10000,order=desc"
SEPARATED_WIDE = "n=100,step=2000,base=10000,order=desc"


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def _mse_rows(noise, synthetic, ks):
    cfg = ExperimentConfig(
        experiment="mse-reduction-topk", eps=(0.7,), k=ks, trials=10_000,
        seed=0, noise=noise, synthetic=synthetic,
    )
    return run_experiment(cfg)


def test_criterion_01_topk_blue_laplace():
    start = time.perf_counter()
    rows = _mse_rows("laplace", SEPARATED, (2, 5, 10, 25))
    for row, k in zip(rows, (2, 5, 10, 25)):
        theory = 100.0 * (k - 1) / (2 * k)
        assert row["theoretical"] == pytest.approx(theory, abs=1e-9)
        assert abs(row["empirical"] - theory) <= 3.0, (k, row)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"top-k BLUE reduction matches (k-1)/2k within 3 points ({elapsed:.0f}s)")


def test_criterion_02_topk_blue_exponential():
    start = time.perf_counter()
    rows = _mse_rows("exponential", SEPARATED, (2, 5, 10, 25))
    for row, k in zip(rows, (2, 5, 10, 25)):
        theory = 100.0 * (2 * k - 2) / (3 * k)
        assert row["theoretical"] == pytest.approx(theory, abs=1e-9)
        assert abs(row["empirical"] - theory) <= 3.0, (k, row)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"exponential-noise BLUE reduction matches (2k-2)/3k within 3 points ({elapsed:.0f}s)")


def test_criterion_03_svt_fusion_variance_ratio():
    k = 10
    c = (k * k) ** (1.0 / 3.0)
    closed = {
        "laplace": (1 + c) ** 3 / ((1 + c) ** 3 + k * k),
        "exponential": (1 + c) ** 3 / ((1 + c) ** 3 + 2 * k * k),
    }
    for noise, expected in closed.items():
        cfg = ExperimentConfig(
            experiment="mse-reduction-svt", eps=(0.7,), k=(k,), trials=10_000,
            seed=0, noise=noise, synthetic=SEPARATED_WIDE,
        )
        row = run_experiment(cfg)[0]
        empirical_ratio = 1.0 - row["empirical"] / 100.0
        assert row["theoretical"] == pytest.approx(100.0 * (1 - expected), abs=1e-9)
        assert abs(empirical_ratio - expected) <= 0.03, (noise, row)
    report(3, "gap-SVT fusion variance ratios match the closed forms within 0.03")


def _difference_matrix(k):
    n = np.zeros((k - 1, k))
    for i in range(k - 1):
        n[i, i], n[i, i + 1] = 1.0, -1.0
    return n


def _gls_oracle(alphas, gaps, lam):
    k = len(alphas)
    n = _difference_matrix(k)
    design = np.vstack([np.eye(k), n])
    cov = np.zeros((2 * k - 1, 2 * k - 1))
    cov[:k, :k] = np.eye(k)
    cov[k:, k:] = lam * n @ n.T
    w = np.linalg.inv(cov)
    y = np.concatenate([alphas, gaps])
    return np.linalg.solve(design.T @ w @ design, design.T @ w @ y)


def _xy_oracle(alphas, gaps, lam):
    k = len(alphas)
    x = np.full((k, k), 1.0)
    np.fill_diagonal(x, 1.0 + lam * k)
    y = np.zeros((k, k - 1))
    for i in range(k):
        for j in range(k - 1):
            y[i, j] = (k - 1 - j) - (k if i > j else 0.0)
    return (x @ np.asarray(alphas) + y @ np.asarray(gaps)) / ((1.0 + lam) * k)


def test_criterion_04_blue_oracle_equivalence():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        lam = float(rng.uniform(0.2, 3.0))
        alphas = rng.normal(scale=10.0, size=k)
        gaps = rng.normal(scale=3.0, size=k - 1)
        fast = np.asarray(blue_topk(BlueInput(tuple(alphas), tuple(gaps), lam)))
        gls = _gls_oracle(alphas, gaps, lam)
        assert np.max(np.abs(fast - gls) / np.maximum(np.abs(gls), 1e-9)) < 1e-9
        assert np.max(np.abs(fast - _xy_oracle(alphas, gaps, lam))) < 1e-10
    report(4, "O(k) BLUE equals dense GLS (1e-9) and explicit matrices (1e-10) on 100 instances")


def test_criterion_05_gumbel_max_correctness():
    runs = 100_000
    scaled = (0.3, -0.7, 1.1, 0.0)
    table = UtilityTable(scaled, 1.0, 2.0)  # epsilon/(2*sens) = 1
    assert table.scaled_scores() == scaled

    selected, _ = kernel_runs(exp_mech_gumbel_batch(table), runs, 50)
    counts = np.bincount(selected[:, 0], minlength=4)
    weights = np.exp(np.asarray(scaled))
    softmax = weights / weights.sum()
    freq_err = np.abs(counts / runs - softmax).max()
    assert freq_err < 0.01

    maxima = np.empty(runs)
    src = SeededSource(51)
    for t in range(runs):
        maxima[t] = max(x + sample(Gumbel(0.0), src) for x in scaled)
    loc = math.log(weights.sum())
    ks = stats.kstest(maxima, stats.gumbel_r(loc=loc).cdf).statistic
    assert ks < 0.01
    report(5, f"Gumbel-max selection (err {freq_err:.4f} < 0.01) and max law (KS {ks:.4f} < 0.01)")


def test_criterion_06_theorem7_equivalence():
    runs = 100_000
    table = UtilityTable((0.0, 1.0, 2.0), 1.0, 2.0)  # scaled scores (0, 1, 2)

    def gather(mechanism, seed):
        out = {i: [] for i in range(3)}
        src = SeededSource(seed)
        for _ in range(runs):
            r = mechanism(table, src)
            out[r.selected].append(r.gap)
        return out

    selected, gaps = kernel_runs(exp_mech_gumbel_batch(table), runs, 60)
    gumbel = {i: gaps[selected == i] for i in range(3)}
    blackbox = gather(exp_mech_blackbox_gap, 61)
    for s in range(3):
        freq_diff = abs(len(gumbel[s]) - len(blackbox[s])) / runs
        assert freq_diff < 0.01, s
        ks = stats.ks_2samp(gumbel[s], blackbox[s]).statistic
        assert ks < 0.02, s
    report(6, "Gumbel-max and black-box gap mechanisms agree (freq 0.01, gap KS 0.02)")


def test_criterion_07_privacy_audit_suite():
    start = time.perf_counter()
    results = run_audit_suite(eps=1.0, trials=1_000_000, seed=0)
    names = [case.name for case, _ in results]
    assert len(names) == 10
    for case, rep in results:
        assert rep.eps_hat <= case.eps_claimed + rep.slack, (case.name, rep)
        assert not rep.flagged, (case.name, rep)
        if case.name.startswith("gap_topk"):
            # Monotonic counting inputs: the half-budget bound applies.
            assert case.eps_claimed == 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    lines = ", ".join(f"{c.name}={r.eps_hat:.3f}" for c, r in results)
    report(7, f"audit suite within claimed bounds in {elapsed:.0f}s ({lines})")


def test_criterion_08_hybrid_cost_accounting():
    qs = QuerySet((8.0, 4.0, 6.0, 1.0, 3.0))
    eps, k, theta = 1.3, 3, 0.4
    src = SeededSource(80)
    for _ in range(10_000):
        result = hybrid_identity(qs, 5.0, k, eps, src)
        t = len(result.pairs)
        assert result.actual_cost == (t / k) * eps
    src = SeededSource(81)
    for _ in range(10_000):
        result = hybrid_estimates(qs, 5.0, k, eps, theta, src)
        t = len(result.pairs)
        assert result.actual_cost == (theta + (t / k) * (1.0 - theta)) * eps
    report(8, "hybrid costs equal (t/k)eps and (theta+(t/k)(1-theta))eps on every run")


def test_criterion_09_confidence_coverage():
    rng = np.random.default_rng(90)
    n = 1_000_000
    for eps_star in (1.0, 2.0):
        t95 = lower_confidence_t(0.95, 1.0, eps_star)
        diff = rng.laplace(scale=1.0 / eps_star, size=n) - rng.laplace(scale=1.0, size=n)
        coverage = (diff >= -t95).mean()
        assert abs(coverage - 0.95) <= 0.003, (eps_star, coverage)
    report(9, "95% lower confidence bound covers at 0.95 +/- 0.003 for eps* in {1, 2}")


def test_criterion_10_geometric_theta():
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 51):
        geo = theta_optimal(k, "middle", True, "geometric", eps=0.7)
        closed = 1.0 / (1.0 + (k * k) ** (1.0 / 3.0))
        worst = max(worst, abs(geo - closed))
    elapsed = time.perf_counter() - start
    assert worst < 0.02
    assert elapsed < 5.0
    report(10, f"geometric theta within {worst:.2e} of 1/(1+k^(2/3)) for k=1..50 ({elapsed:.2f}s)")


def test_criterion_11_zero_noise_trace_suite(tmp_path):
    def zeros(family, n):
        return ReplaySource([0.5 if family == "laplace" else 0.0] * n)

    # Sampler medians and conditional quantile.
    assert sample(Gumbel(0.0), ReplaySource([0.5])) == pytest.approx(0.3665129, abs=1e-6)
    assert sample_logistic_nonneg(0.0, ReplaySource([0.5])) == pytest.approx(math.log(3.0))

    # Transaction parsing.
    path = tmp_path / "t.txt"
    path.write_text("1 2\n2 3\n")
    assert load_transactions(path).transactions == (frozenset({1, 2}), frozenset({2, 3}))
    path.write_text("5 5 7\n")
    assert load_transactions(path).transactions == (frozenset({5, 7}),)
    assert item_counts(TransactionDB((frozenset({1, 2}), frozenset({2, 3})))).values == (
        0.0, 1.0, 2.0, 1.0,
    )

    # gap_svt with Laplace noise.
    cfg = SvtConfig(epsilon=1.0, k=2, threshold=5.0, theta=0.5)
    result = gap_svt(QuerySet((3.0, 7.0, 6.0)), cfg, zeros("laplace", 4))
    assert [(i.above, i.gap, i.budget_used) for i in result.items] == [
        (False, 0.0, 0.0), (True, 2.0, 0.25), (True, 1.0, 0.25),
    ]
    assert result.ledger.consumed == pytest.approx(1.0)

    # gap_svt exponential debiasing: all queries land below the threshold.
    cfg = SvtConfig(epsilon=1.0, k=2, threshold=5.0, theta=0.5, noise="exponential")
    result = gap_svt(QuerySet((3.0, 7.0, 6.0)), cfg, zeros("exponential", 4))
    assert all(not i.above for i in result.items)

    # adaptive_svt: top answer, middle answer, break at 1.75 consumed.
    cfg = SvtConfig(epsilon=2.0, k=2, threshold=10.0, theta=0.5, adaptive=True)
    result = adaptive_svt(QuerySet((40.0, 15.0, 3.0, 30.0)), cfg, zeros("laplace", 5))
    assert [(i.gap, i.branch, i.budget_used) for i in result.items] == [
        (30.0, "top", 0.25), (5.0, "middle", 0.5),
    ]
    assert result.ledger.consumed == pytest.approx(1.75)

    # adaptive_svt far below: single bottom output, only threshold budget.
    cfg = SvtConfig(epsilon=1.0, k=1, threshold=0.0, theta=0.5, adaptive=True)
    result = adaptive_svt(QuerySet((-1000.0,)), cfg, zeros("laplace", 3))
    assert [i.above for i in result.items] == [False]
    assert result.ledger.consumed == pytest.approx(0.5)

    # gap_topk and pairwise gaps.
    topk = gap_topk(QuerySet((5.0, 3.0, 9.0, 1.0)), 2, 1.0, "laplace", zeros("laplace", 4))
    assert topk.pairs == ((2, 4.0), (0, 2.0))
    assert pairwise_gap(topk, 1, 3) == pytest.approx(6.0)
    assert pairwise_gap(topk, 1, 2) == pytest.approx(4.0)

    # Hybrid traces.
    r = hybrid_identity(QuerySet((9.0, 7.0, 2.0)), 5.0, 2, 1.0, zeros("exponential", 4))
    assert r.pairs == ((1, 2.0), (2, 2.0)) and r.actual_cost == pytest.approx(1.0)
    r = hybrid_identity(QuerySet((9.0, 2.0)), 5.0, 2, 1.0, zeros("exponential", 3))
    assert r.pairs == ((1, 4.0), (0, 3.0)) and r.actual_cost == pytest.approx(1.0)
    r = hybrid_estimates(QuerySet((9.0, 7.0, 2.0)), 5.0, 2, 2.0, 0.5, zeros("exponential", 4))
    assert r.pairs == ((0, 1.0),) and r.actual_cost == pytest.approx(1.5)
    r = hybrid_estimates(QuerySet((-50.0, -60.0, -70.0)), 5.0, 2, 2.0, 0.5, zeros("exponential", 4))
    assert r.pairs == () and r.actual_cost == pytest.approx(1.0)
    r = hybrid_estimates(QuerySet((900.0, 800.0, 2.0)), 5.0, 2, 2.0, 0.5, zeros("exponential", 4))
    assert len(r.pairs) == 2 and r.actual_cost == pytest.approx(2.0)

    # Post-processing arithmetic.
    assert blue_topk(BlueInput((10.0, 6.0), (4.0,), 1.0)) == pytest.approx([10.0, 6.0])
    assert blue_topk(BlueInput((7.0,), (), 1.0)) == pytest.approx([7.0])
    assert blue_variance_ratio(10, 1.0) == pytest.approx(0.55)
    assert blue_variance_ratio(1, 3.3) == pytest.approx(1.0)
    assert fuse_svt([10.0], [14.0], VarianceModel(4.0, 4.0)) == pytest.approx([12.0])
    assert fuse_svt([14.0], [10.0], VarianceModel(8.0, 4.0)) == pytest.approx([38.0 / 3.0])

    # Scaled-score log-sum-exp.
    assert log_sum_exp_excluding([0.0, 0.0, 0.0], 0) == pytest.approx(math.log(2.0))
    assert log_sum_exp_excluding([1000.0, 1000.5], 0) == 1000.5

    # Confidence tail at zero.
    assert tail_probability(0.0, 1.0, 2.0) == pytest.approx(0.5)
    assert tail_probability(0.0, 1.0, 1.0) == pytest.approx(0.5)

    report(11, "all zero-noise hand traces reproduce exactly")


def test_substitute_adaptive_answers_dominate_on_large_streams():
    # Dataset-dependent claims are replaced by synthetic property checks:
    # on streams far above the threshold the adaptive scan answers at least
    # as many queries as the single-branch scan.
    qs = QuerySet((1e6,) * 40, monotonic=True)
    for seed in range(100):
        base_cfg = SvtConfig(epsilon=0.7, k=6, threshold=0.0, theta=0.25)
        adapt_cfg = SvtConfig(epsilon=0.7, k=6, threshold=0.0, theta=0.25, adaptive=True)
        classic = len(gap_svt(qs, base_cfg, SeededSource(seed)).above_items())
        adaptive = len(adaptive_svt(qs, adapt_cfg, SeededSource(seed + 10_000)).above_items())
        assert adaptive >= classic
    report("S1", "adaptive scan answers >= single-branch scan on far-above streams")


def test_substitute_adaptive_precision_on_separated_streams():
    cfg = ExperimentConfig(
        experiment="precision-fmeasure", eps=(0.7,), k=(10,), trials=1000,
        seed=0, synthetic="n=100,step=2000,base=10000,order=shuffle",
    )
    rows = {r["parameter"].split("metric=")[1]: r["empirical"] for r in run_experiment(cfg)}
    assert rows["precision_adaptive"] >= 0.9
    assert rows["precision_svt"] >= 0.9
    report("S2", f"adaptive precision {rows['precision_adaptive']:.3f} >= 0.9 on separated streams")
