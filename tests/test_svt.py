import dataclasses
import math
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from gapdp import svt as svt_module
from gapdp.audit import Release
from gapdp.noise import ReplayExhaustedError, ReplaySource, SeededSource
from gapdp.queries import QuerySet
from gapdp.topk import _PARTITION_COLUMNS
from gapdp.svt import (
    SvtConfig,
    adaptive_svt,
    gap_svt,
    lower_confidence_t,
    svt_batch,
    tail_probability,
    theta_optimal,
)

from conftest import kernel_runs, zero_noise_uniform


def zero_source(family, n):
    return ReplaySource([zero_noise_uniform(family)] * n)


class TestGapSvtTraces:
    def test_laplace_zero_noise_trace(self):
        # T=5, q=[3,7,6], k=2, theta=0.5, eps=1: below, then two answers at
        # gaps 2 and 1, consuming eps0 + 2*eps1 = 1.0.
        cfg = SvtConfig(epsilon=1.0, k=2, threshold=5.0, theta=0.5)
        result = gap_svt(QuerySet((3.0, 7.0, 6.0)), cfg, zero_source("laplace", 4))
        flat = [(i.index, i.above, i.gap, i.branch, i.budget_used) for i in result.items]
        assert flat == [
            (0, False, 0.0, None, 0.0),
            (1, True, 2.0, "middle", 0.25),
            (2, True, 1.0, "middle", 0.25),
        ]
        assert result.ledger.consumed == pytest.approx(1.0)
        assert result.ledger.remaining == pytest.approx(0.0)

    def test_exponential_zero_noise_debiasing_trace(self):
        # Same inputs, exponential noise: b0 = 1/eps0 = 2, b1 = 2/eps1 = 8,
        # so the noisy threshold is 3 and the noisy queries [-5,-1,-2]: all below.
        cfg = SvtConfig(epsilon=1.0, k=2, threshold=5.0, theta=0.5, noise="exponential")
        result = gap_svt(QuerySet((3.0, 7.0, 6.0)), cfg, zero_source("exponential", 4))
        assert [i.above for i in result.items] == [False, False, False]
        assert result.ledger.consumed == pytest.approx(0.5)

    def test_geometric_zero_noise_trace(self):
        # Geometric debias constants b = 1/(1 - e^-rate) shift the threshold
        # and queries by the same convention, so gaps match hand arithmetic.
        cfg = SvtConfig(epsilon=1.0, k=1, threshold=0.0, theta=0.5, noise="geometric")
        b0 = 1.0 / (1.0 - math.exp(-cfg.eps0))
        b1 = 1.0 / (1.0 - math.exp(-cfg.eps1 / 2.0))
        result = gap_svt(QuerySet((5.0,)), cfg, zero_source("geometric", 2))
        assert result.items[0].above
        assert result.items[0].gap == pytest.approx(5.0 - b1 + b0)

    def test_geometric_requires_integer_queries(self):
        cfg = SvtConfig(epsilon=1.0, k=1, threshold=0.0, theta=0.5, noise="geometric")
        with pytest.raises(ValueError, match="integer"):
            gap_svt(QuerySet((0.5,)), cfg, zero_source("geometric", 2))

    def test_monotonic_halves_query_scale(self):
        # With u=0.75 the Laplace draw is scale*ln 2; the monotonic flag
        # halves the query scale from 2/eps1 to 1/eps1.
        base = dict(epsilon=1.0, k=1, threshold=0.0, theta=0.5)
        wide = gap_svt(
            QuerySet((10.0,)),
            SvtConfig(**base),
            ReplaySource([0.5, 0.75]),
        )
        narrow = gap_svt(
            QuerySet((10.0,), monotonic=True),
            SvtConfig(**base, monotonic=True),
            ReplaySource([0.5, 0.75]),
        )
        assert wide.items[0].gap == pytest.approx(10.0 + 4.0 * math.log(2.0))
        assert narrow.items[0].gap == pytest.approx(10.0 + 2.0 * math.log(2.0))


class TestAdaptiveSvtTraces:
    def test_laplace_zero_noise_trace(self):
        # eps=2, k=2, theta=0.5: eps0=1, eps1=0.5, eps2=0.25, 2 sigma = 16*sqrt(2).
        # q=[40,15,3,30], T=10: top answer (gap 30), middle answer (gap 5),
        # then break at consumed 1.75 > eps - eps1 = 1.5.
        cfg = SvtConfig(epsilon=2.0, k=2, threshold=10.0, theta=0.5, adaptive=True)
        assert (cfg.eps0, cfg.eps1, cfg.eps2) == (1.0, 0.5, 0.25)
        result = adaptive_svt(
            QuerySet((40.0, 15.0, 3.0, 30.0)), cfg, zero_source("laplace", 9)
        )
        flat = [(i.above, i.gap, i.branch, i.budget_used) for i in result.items]
        assert flat == [
            (True, 30.0, "top", 0.25),
            (True, 5.0, "middle", 0.5),
        ]
        assert result.ledger.consumed == pytest.approx(1.75)

    def test_far_below_query_yields_bottom_only(self):
        cfg = SvtConfig(epsilon=1.0, k=1, threshold=0.0, theta=0.5, adaptive=True)
        result = adaptive_svt(QuerySet((-1000.0,)), cfg, zero_source("laplace", 3))
        assert [i.above for i in result.items] == [False]
        assert result.ledger.consumed == pytest.approx(cfg.eps0)

    def test_top_branch_answer_count_is_budget_arithmetic(self):
        # Binary-exact budgets: eps=2, theta=0.5, k=2 gives eps0=1, eps1=0.5,
        # eps2=0.25, so floor((eps-eps0-eps1)/eps2) + 1 = 3 top answers.
        cfg = SvtConfig(epsilon=2.0, k=2, threshold=0.0, theta=0.5, adaptive=True)
        n = 50
        result = adaptive_svt(
            QuerySet((1e9,) * n), cfg, zero_source("laplace", 1 + 2 * n)
        )
        expected = math.floor((cfg.epsilon - cfg.eps0 - cfg.eps1) / cfg.eps2) + 1
        assert len(result.items) == expected == 3
        assert all(i.branch == "top" for i in result.items)

    def test_requires_adaptive_flag_consistency(self):
        plain = SvtConfig(epsilon=1.0, k=1, threshold=0.0, theta=0.5)
        adaptive = SvtConfig(epsilon=1.0, k=1, threshold=0.0, theta=0.5, adaptive=True)
        with pytest.raises(ValueError):
            adaptive_svt(QuerySet((1.0,)), plain, zero_source("laplace", 3))
        with pytest.raises(ValueError):
            gap_svt(QuerySet((1.0,)), adaptive, zero_source("laplace", 3))

    def test_draws_both_noises_even_when_top_branch_wins(self):
        # A release reads exactly 1 + 2 per query, though this scan stops
        # after its second query.
        cfg = SvtConfig(epsilon=2.0, k=2, threshold=10.0, theta=0.5, adaptive=True)
        src = ReplaySource([0.5] * 9)
        adaptive_svt(QuerySet((40.0, 15.0, 3.0, 30.0)), cfg, src)
        assert src.remaining == 0


@pytest.mark.parametrize("adaptive", [False, True])
def test_short_replay_raises_where_the_scan_runs_out(adaptive):
    # A release takes its whole row of 1 + (1 or 2) * 3 draws before it
    # scans, so a replay one draw short raises and is left exhausted,
    # whether the scan would read every query (all below the threshold) or
    # stop on the first.  With the whole row the latter releases one report
    # and reads every draw.
    run = adaptive_svt if adaptive else gap_svt
    per_query = 2 if adaptive else 1
    q = QuerySet((1.0, 2.0, 3.0))
    for threshold in (100.0, 0.0):
        cfg = SvtConfig(epsilon=1.0, k=1, threshold=threshold, theta=0.5, adaptive=adaptive)
        src = zero_source("laplace", per_query * 3)
        with pytest.raises(ReplayExhaustedError):
            run(q, cfg, src)
        assert src.remaining == 0
    src = zero_source("laplace", 1 + per_query * 3)
    assert len(run(q, cfg, src).items) == 1 and src.remaining == 0


@pytest.mark.parametrize("adaptive", [False, True])
def test_monotonic_config_needs_monotonic_queries(adaptive):
    # A monotonic config halves the query noise, which only data marked
    # monotonic may have: the kernel and both releases refuse the pair.
    cfg = SvtConfig(epsilon=1.0, k=1, threshold=0.0, theta=0.5, monotonic=True,
                    adaptive=adaptive)
    run = adaptive_svt if adaptive else gap_svt
    plain = QuerySet((10.0,) * 5)
    for call in (lambda: run(plain, cfg, ReplaySource([0.5, 0.75] * 10)),
                 lambda: svt_batch(plain, cfg)):
        with pytest.raises(ValueError, match="monotonic"):
            call()
    marked = QuerySet(plain.values, monotonic=True)
    assert run(marked, cfg, ReplaySource([0.5, 0.75] * 10)).codes[0] > 0
    assert svt_batch(marked, cfg)[0] == 1 + (1 + adaptive) * 5


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("n", [_PARTITION_COLUMNS - 1, _PARTITION_COLUMNS, 5000])
def test_the_tag_rule_sees_each_query_once(monkeypatch, adaptive, n):
    # Distinct values, so each value the tag rule sees names its query: five
    # near the threshold of 100 and the rest at -10^4 or below, which no
    # draw lifts to it.  At k = 10 and eps = 1, query noise is at most 80
    # (the top branch's scale) times 37 (Laplace(1) noise at the largest
    # draw below 1), and the noisy threshold at least 100 - 2 * 37.  The
    # five answers cost too little to stop the scan, so a release scans
    # every query.  The tag rule must see each query at most once, in index
    # order: every query on a narrow row, only the five near ones on a row
    # of _PARTITION_COLUMNS queries or more.
    values = -1e4 - np.arange(n, dtype=float)
    near = [3, 400, n // 2, n - 2, n - 1]
    values[near] = 100.0 + np.arange(5.0)
    index = {v: i for i, v in enumerate(values.tolist())}
    seen, tag = [], svt_module._tag

    def counted(cfg, value, *noise):
        seen.extend(index[v] for v in np.ravel(value).tolist())
        return tag(cfg, value, *noise)

    monkeypatch.setattr(svt_module, "_tag", counted)
    cfg = SvtConfig(epsilon=1.0, k=10, threshold=100.0, theta=0.5, adaptive=adaptive)
    data = QuerySet(tuple(values))
    for seed in range(5):
        seen.clear()
        result = (adaptive_svt if adaptive else gap_svt)(data, cfg, SeededSource(seed))
        assert len(result.codes) == n
        assert all(result.codes[i] == 0 for i in range(n) if i not in near)
        assert seen == (near if n >= _PARTITION_COLUMNS else list(range(n)))


def test_configs_that_differ_only_in_threshold_share_their_scan_constants():
    cfg = SvtConfig(epsilon=0.7, k=10, threshold=1.0, theta=0.3, monotonic=True)
    assert dataclasses.replace(cfg, threshold=2.0)._scan_constants is cfg._scan_constants
    assert dataclasses.replace(cfg, theta=0.4)._scan_constants is not cfg._scan_constants


def test_scans_keep_their_own_comparison_on_infinite_draws():
    # u = 0 maps Laplace noise to -inf, so the noisy threshold and the noisy
    # query are both -inf: gap_svt's noisy_q >= noisy_threshold holds, while
    # adaptive_svt's noisy_q - noisy_threshold >= 0 compares nan and fails.
    q = QuerySet((5.0,))
    cfg = SvtConfig(epsilon=1.0, k=1, threshold=1.0, theta=0.5)
    (item,) = gap_svt(q, cfg, ReplaySource([0.0] * 2)).items
    assert item.above and item.branch == "middle" and math.isnan(item.gap)
    adaptive_cfg = SvtConfig(epsilon=1.0, k=1, threshold=1.0, theta=0.5, adaptive=True)
    (item,) = adaptive_svt(q, adaptive_cfg, ReplaySource([0.0] * 3)).items
    assert not item.above


class TestThetaOptimal:
    @pytest.mark.parametrize(
        "k, branch, monotonic, expected_m",
        [
            (1, "middle", True, 1.0),
            (1, "middle", False, 4.0),
            (5, "top", False, 16.0),
            (5, "top", True, 4.0),
            (7, "middle", True, 1.0),
        ],
    )
    def test_closed_forms(self, k, branch, monotonic, expected_m):
        expected = 1.0 / (1.0 + (expected_m * k * k) ** (1.0 / 3.0))
        assert theta_optimal(k, branch, monotonic, "laplace") == pytest.approx(expected)
        assert theta_optimal(k, branch, monotonic, "exponential") == pytest.approx(expected)

    def test_k1_values(self):
        assert theta_optimal(1, "middle", True, "laplace") == pytest.approx(0.5)
        assert theta_optimal(1, "middle", False, "laplace") == pytest.approx(
            1.0 / (1.0 + 4.0 ** (1.0 / 3.0))
        )

    def test_geometric_requires_eps(self):
        with pytest.raises(ValueError, match="eps"):
            theta_optimal(5, "middle", True, "geometric")

    @pytest.mark.parametrize("eps", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_geometric_rejects_an_eps_that_is_not_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps"):
            theta_optimal(5, "middle", True, "geometric", eps=eps)

    def test_geometric_minimizer_is_a_minimum(self):
        # The returned split should beat nearby splits on the gap variance.
        eps, k = 0.7, 8

        def variance(theta):
            r0, r1 = theta * eps, (1.0 - theta) * eps / k
            g = lambda r: math.exp(r) / math.expm1(r) ** 2
            return g(r0) + g(r1)

        theta = theta_optimal(k, "middle", True, "geometric", eps=eps)
        assert variance(theta) <= variance(theta - 0.01)
        assert variance(theta) <= variance(theta + 0.01)

    def test_geometric_close_to_exponential(self):
        for k in (1, 5, 20, 50):
            geo = theta_optimal(k, "middle", True, "geometric", eps=0.7)
            exp = theta_optimal(k, "middle", True, "exponential")
            assert abs(geo - exp) < 0.02


class TestConfidence:
    def test_tail_at_zero_is_half(self):
        assert tail_probability(0.0, 1.0, 2.0) == pytest.approx(0.5)
        assert tail_probability(0.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_tail_closed_form_matches_numeric_convolution(self):
        # Independent quadrature oracle: P(eta_i - eta >= -t) by integrating
        # the Laplace density against the survival function.
        eps0, eps_star, t = 1.0, 2.0, 1.0
        oracle, err = integrate.quad(
            lambda y: stats.laplace.pdf(y, scale=1.0 / eps0)
            * stats.laplace.sf(y - t, scale=1.0 / eps_star),
            -np.inf,
            np.inf,
        )
        assert err < 1e-7
        assert oracle == pytest.approx(0.7773028, abs=1e-6)
        assert tail_probability(t, eps0, eps_star) == pytest.approx(oracle, abs=1e-8)

    def test_tail_continuous_at_equal_rates(self):
        assert tail_probability(0.7, 1.0, 1.0 + 1e-12) == pytest.approx(
            tail_probability(0.7, 1.0, 1.0), abs=1e-9
        )

    def test_tail_keeps_its_digits_near_equal_rates(self):
        # The closed form divides by eps0^2 - eps*^2, so near equal rates
        # it must be evaluated without cancellation: against 60 digits, it
        # stays within 1e-12 for rate gaps from 1e-12 to 1e-4.
        def exact(t, eps0, eps_star):
            t, a, b = Decimal(t), Decimal(eps0), Decimal(eps_star)
            return 1 - (a * a * (-b * t).exp() - b * b * (-a * t).exp()) / (2 * (a * a - b * b))

        with localcontext() as ctx:
            ctx.prec = 60
            for gap in 10.0 ** -np.arange(4, 13):
                for eps0 in (0.3, 1.0, 2.5):
                    for eps_star in (eps0 * (1.0 + gap), eps0 * (1.0 - gap)):
                        for t in (0.05, 0.7, 3.0, 20.0):
                            want = exact(t, eps0, eps_star)
                            got = tail_probability(t, eps0, eps_star)
                            assert abs(Decimal(got) - want) <= Decimal(1e-12), (gap, eps0, t)

    def test_tail_rejects_negative_t(self):
        with pytest.raises(ValueError):
            tail_probability(-0.1, 1.0, 1.0)

    def test_lower_confidence_roundtrip(self):
        t = lower_confidence_t(0.95, 1.0, 2.0)
        assert tail_probability(t, 1.0, 2.0) == pytest.approx(0.95, abs=1e-9)

    def test_lower_confidence_near_half_is_near_zero(self):
        assert lower_confidence_t(0.5 + 1e-9, 1.0, 2.0) == pytest.approx(0.0, abs=1e-6)

    def test_lower_confidence_monotone_in_level(self):
        ts = [lower_confidence_t(level, 1.0, 1.0) for level in (0.6, 0.8, 0.95, 0.99)]
        assert ts == sorted(ts)

    @pytest.mark.parametrize("level", [0.5, 0.4, 1.0])
    def test_lower_confidence_rejects_bad_levels(self, level):
        with pytest.raises(ValueError):
            lower_confidence_t(level, 1.0, 1.0)

    def test_equal_rate_closed_form(self):
        # At eps0 = eps* the 95% point solves ((2+t)/4) e^-t = 0.05.
        t = lower_confidence_t(0.95, 1.0, 1.0)
        assert ((2.0 + t) / 4.0) * math.exp(-t) == pytest.approx(0.05, abs=1e-9)

    def test_coverage_monte_carlo(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        t = lower_confidence_t(0.95, 1.0, 2.0)
        diff = rng.laplace(scale=0.5, size=n) - rng.laplace(scale=1.0, size=n)
        assert (diff >= -t).mean() == pytest.approx(0.95, abs=0.003)


def test_gap_variance_matches_closed_form():
    # Monotonic counting queries, Laplace, k=5, theta = 1/(1+cbrt(k^2)):
    # var(gap) = 2 (1+cbrt(25))^3 / eps^2, estimated over far-above queries.
    # Every run reads exactly 2 draws, so the kernel's rows are the runs of
    # a per-call loop on SeededSource(3).
    k, eps = 5, 1.0
    theta = theta_optimal(k, "middle", True, "laplace")
    cfg = SvtConfig(epsilon=eps, k=k, threshold=0.0, theta=theta, monotonic=True)
    qs = QuerySet((1e6,), monotonic=True)
    codes, gaps = kernel_runs(svt_batch(qs, cfg), 100_000, 3)
    assert (codes == 1).all()
    gaps = gaps[:, 0]
    expected = 2.0 * (1.0 + 25.0 ** (1.0 / 3.0)) ** 3 / eps**2
    assert gaps.var() == pytest.approx(expected, rel=0.03)


def test_adaptive_answers_at_least_classic_on_far_above_stream():
    qs = QuerySet((1e6,) * 40, monotonic=True)
    for seed in range(50):
        base_cfg = SvtConfig(epsilon=1.0, k=4, threshold=0.0, theta=0.25)
        adaptive_cfg = SvtConfig(
            epsilon=1.0, k=4, threshold=0.0, theta=0.25, adaptive=True
        )
        classic = len(gap_svt(qs, base_cfg, SeededSource(seed)).above_items())
        adaptive = len(
            adaptive_svt(qs, adaptive_cfg, SeededSource(seed + 1000)).above_items()
        )
        assert adaptive >= classic
        assert adaptive <= 2 * classic


noise_families = st.sampled_from(["laplace", "exponential", "geometric"])


@given(
    values=st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=12),
    k=st.integers(min_value=1, max_value=4),
    theta=st.floats(min_value=0.05, max_value=0.95),
    eps=st.floats(min_value=0.1, max_value=4.0),
    threshold=st.integers(min_value=-10, max_value=10),
    family=noise_families,
    monotonic=st.booleans(),
    adaptive=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_budget_safety_and_output_grammar(
    values, k, theta, eps, threshold, family, monotonic, adaptive, seed
):
    qs = QuerySet(tuple(float(v) for v in values), monotonic=monotonic)
    cfg = SvtConfig(
        epsilon=eps, k=k, threshold=float(threshold), theta=theta,
        noise=family, monotonic=monotonic, adaptive=adaptive,
    )
    run = adaptive_svt if adaptive else gap_svt
    result = run(qs, cfg, SeededSource(seed))

    ledger = result.ledger
    assert ledger.consumed <= ledger.allocated + 1e-9
    assert ledger.consumed >= cfg.eps0

    expected_consumed = cfg.eps0
    for pos, item in enumerate(result.items):
        if item.above:
            assert item.gap >= 0.0
            if item.branch == "top":
                assert adaptive
                assert item.budget_used == cfg.eps2
            else:
                assert item.branch == "middle"
                assert item.budget_used == cfg.eps1
            expected_consumed += item.budget_used
        else:
            assert item.branch is None
            assert item.budget_used == 0.0
        # Nothing may be emitted after the stopping rule fires.
        if expected_consumed > eps - cfg.eps1:
            assert pos == len(result.items) - 1
    assert ledger.consumed == pytest.approx(expected_consumed)

    # Determinism: same seed, same run.
    again = run(qs, cfg, SeededSource(seed))
    assert again == result


def test_budget_ledger_validation():
    with pytest.raises(ValueError):
        Release((), (), 1.0, (1.0, 0.5))
    with pytest.raises(ValueError):
        Release((), (), 1.0, (-0.1,))
    assert Release((), (), 2.0, (0.5,)).remaining == pytest.approx(1.5)


def test_import_does_not_load_scipy():
    # scipy.optimize costs about half a second and ~50 MB at import; only the
    # geometric theta search and lower_confidence_t need it.
    import gapdp

    code = "import sys, gapdp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=Path(gapdp.__file__).resolve().parents[1],
    )
    assert out.stdout.strip() == "[]"
