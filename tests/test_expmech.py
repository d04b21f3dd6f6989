import math

import numpy as np
import pytest
from scipy import stats

from gapdp import expmech
from gapdp.expmech import (
    UtilityTable,
    categorical_softmax_selector,
    exp_mech_blackbox_batch,
    exp_mech_blackbox_gap,
    exp_mech_gumbel,
    exp_mech_gumbel_batch,
    log_sum_exp_excluding,
)
from gapdp.noise import Gumbel, ReplaySource, SeededSource, sample, sample_logistic_nonneg

from conftest import kernel_runs


def softmax(xs):
    xs = np.asarray(xs, dtype=float)
    w = np.exp(xs - xs.max())
    return w / w.sum()


class TestLogSumExpExcluding:
    def test_equal_scores(self):
        assert log_sum_exp_excluding([0.0, 0.0, 0.0], 0) == pytest.approx(math.log(2.0))

    def test_large_magnitudes_do_not_overflow(self):
        assert log_sum_exp_excluding([1000.0, 1000.5], 0) == 1000.5

    def test_small_magnitude_summation_oracle(self):
        scores = [0.0, math.log(2.0), math.log(3.0)]
        direct = math.log(sum(math.exp(s) for i, s in enumerate(scores) if i != 1))
        assert direct == pytest.approx(math.log(4.0), abs=1e-12)
        assert log_sum_exp_excluding(scores, 1) == pytest.approx(direct, abs=1e-12)

    def test_bounds(self):
        with pytest.raises(IndexError):
            log_sum_exp_excluding([0.0, 1.0], 2)
        with pytest.raises(ValueError):
            log_sum_exp_excluding([0.0], 0)


def test_utility_table_validation():
    with pytest.raises(ValueError):
        UtilityTable((1.0,), 1.0, 1.0)
    with pytest.raises(ValueError):
        UtilityTable((1.0, 2.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        UtilityTable((1.0, 2.0), 1.0, -1.0)
    table = UtilityTable((4.0, 8.0), 2.0, 1.0)
    assert table.scaled_scores() == (1.0, 2.0)
    assert table.scaled_scores() is table.scaled_scores()


def _selection_frequencies(mechanism, table, runs, seed):
    counts = np.zeros(len(table.scores))
    src = SeededSource(seed)
    for _ in range(runs):
        counts[mechanism(table, src).selected] += 1
    return counts / runs


def gumbel_runs(table, runs, seed):
    selected, gaps = kernel_runs(exp_mech_gumbel_batch(table), runs, seed)
    return selected[:, 0], gaps[:, 0]


def gumbel_frequencies(table, runs, seed):
    selected, _ = gumbel_runs(table, runs, seed)
    return np.bincount(selected, minlength=len(table.scores)) / runs


def gumbel_gap_samples(table, runs, seed):
    selected, gaps = gumbel_runs(table, runs, seed)
    return {i: gaps[selected == i] for i in range(len(table.scores))}


class TestGumbelMechanism:
    def test_equal_utilities_are_symmetric(self):
        table = UtilityTable((3.0, 3.0), 1.0, 1.0)
        freq = gumbel_frequencies(table, 100_000, 0)
        assert freq[0] == pytest.approx(0.5, abs=0.005)

    def test_matches_softmax_probabilities(self):
        # Scaled scores (ln 1, ln 2) select with probabilities (1/3, 2/3).
        table = UtilityTable((0.0, math.log(2.0)), 1.0, 2.0)
        freq = gumbel_frequencies(table, 100_000, 1)
        assert freq[0] == pytest.approx(1.0 / 3.0, abs=0.01)
        assert freq[1] == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_noisy_maximum_is_gumbel_distributed(self):
        # Same construction as the mechanism: scaled score plus Gumbel(0);
        # the max follows Gumbel(log sum exp of the scaled scores).
        scaled = np.array([0.3, -0.7, 1.1, 0.0])
        src = SeededSource(2)
        runs = 100_000
        maxima = np.empty(runs)
        for t in range(runs):
            noisy = [x + sample(Gumbel(0.0), src) for x in scaled]
            maxima[t] = max(noisy)
        loc = math.log(np.exp(scaled).sum())
        ks = stats.kstest(maxima, stats.gumbel_r(loc=loc).cdf).statistic
        assert ks < 0.01

    def test_gap_positive_and_deterministic(self):
        table = UtilityTable((0.0, 1.0, 2.0), 1.0, 1.0)
        a = exp_mech_gumbel(table, SeededSource(3))
        b = exp_mech_gumbel(table, SeededSource(3))
        assert a == b
        assert a.gap > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_draws_give_a_nan_gap_without_a_warning(self):
        table = UtilityTable((0.0, 1.0, 1.0), 1.0, 1.0)
        result = exp_mech_gumbel(table, ReplaySource([0.0] * 3))
        assert result.selected == 0
        assert math.isnan(result.gap)

    def test_survival_form(self):
        # P(outcome s selected and gap >= g) = sigmoid(x_s - g - lse_rest).
        table = UtilityTable((0.0, 1.0, 2.0), 1.0, 2.0)
        scaled = table.scaled_scores()
        runs = 200_000
        selected, gaps = gumbel_runs(table, runs, 4)
        for s in range(3):
            rest = log_sum_exp_excluding(scaled, s)
            for g in (0.0, 0.5, 1.5):
                empirical = np.count_nonzero((selected == s) & (gaps >= g)) / runs
                expected = 1.0 / (1.0 + math.exp(-(scaled[s] - g - rest)))
                assert empirical == pytest.approx(expected, abs=0.006)


class TestBlackboxMechanism:
    def test_gap_always_positive(self):
        table = UtilityTable((0.0, 5.0), 1.0, 1.0)
        src = SeededSource(5)
        assert all(
            exp_mech_blackbox_gap(table, src).gap > 0.0 for _ in range(200_000)
        )

    def test_equal_utilities_gap_median_is_log3(self):
        # Logistic(0) conditioned positive has median at the 75th percentile.
        table = UtilityTable((1.0, 1.0), 1.0, 1.0)
        src = SeededSource(6)
        gaps = np.fromiter(
            (exp_mech_blackbox_gap(table, src).gap for _ in range(100_000)), dtype=float
        )
        assert np.median(gaps) == pytest.approx(math.log(3.0), abs=0.02)

    def test_selection_matches_softmax(self):
        table = UtilityTable((0.0, 1.0, 2.0), 1.0, 1.0)
        freq = _selection_frequencies(exp_mech_blackbox_gap, table, 100_000, 7)
        expected = softmax(table.scaled_scores())
        assert np.abs(freq - expected).max() < 0.01

    def test_custom_selector_is_honored(self):
        table = UtilityTable((0.0, 1.0, 2.0), 1.0, 1.0)
        src = SeededSource(8)
        result = exp_mech_blackbox_gap(table, src, selector=lambda scaled, s: 1)
        assert result.selected == 1
        assert result.gap > 0.0

    def test_custom_selector_draws_before_the_gap(self):
        table = UtilityTable((0.0, 1.0, 2.0), 1.0, 1.0)
        seen = []

        def selector(scaled, src):
            seen.append((scaled, src.uniform()))
            return 1

        result = exp_mech_blackbox_gap(table, ReplaySource([0.25, 0.75]), selector)
        assert seen == [(table.scaled_scores(), 0.25)]
        x = table.scaled_scores()
        location = x[1] - log_sum_exp_excluding(x, 1)
        assert result.gap == pytest.approx(
            sample_logistic_nonneg(location, ReplaySource([0.75])), rel=1e-12
        )
        # The default selector, passed in, releases what the default path does.
        for seed in range(20):
            assert exp_mech_blackbox_gap(table, SeededSource(seed)) == exp_mech_blackbox_gap(
                table, SeededSource(seed), categorical_softmax_selector
            )

    def test_selector_out_of_range_is_an_error(self):
        table = UtilityTable((0.0, 1.0, 2.0), 1.0, 1.0)
        for choice in (-1, 3):
            with pytest.raises(IndexError):
                exp_mech_blackbox_gap(table, SeededSource(0), lambda scaled, s: choice)


def _dataset_table():
    rng = np.random.default_rng(3)
    return UtilityTable(tuple(rng.zipf(1.3, 10_000) % 5000), 1.0, 0.7)


# Tied maxima, a lone maximum whose rivals underflow against it (scaled
# (0, -800, -800)), one not in the first place, and equal scores.
SMALL_TABLES = [
    UtilityTable((0.3, -0.7, 1.1, 0.0), 1.0, 2.0),
    UtilityTable((2.0, 5.0, 5.0, 1.0, 5.0, -3.0), 1.0, 1.0),
    UtilityTable((0.0, -800.0, -800.0), 1.0, 2.0),
    UtilityTable((-800.0, 0.0, -800.0, -801.0), 1.0, 2.0),
    UtilityTable((0.0, 0.0, -800.0), 1.0, 2.0),
    UtilityTable((1.0, 1.0), 1.0, 1.0),
]


class TestSoftmaxTable:
    """The table every black-box release and its audit kernel read."""

    @staticmethod
    def assert_location(table, s):
        # The table sums the rivals' weights in another order than
        # log_sum_exp_excluding, so the two differ in the last bits.
        _, locations = table._softmax_table
        x = table.scaled_scores()
        want = x[s] - log_sum_exp_excluding(x, s)
        assert math.isfinite(locations[s])
        assert math.isclose(locations[s], want, rel_tol=1e-12, abs_tol=1e-12), (s, want)

    @pytest.mark.parametrize("table", SMALL_TABLES)
    def test_every_location_at_small_n(self, table):
        for s in range(len(table.scores)):
            self.assert_location(table, s)

    def test_sampled_locations_at_dataset_scale(self):
        table = _dataset_table()
        picks = np.random.default_rng(4).choice(len(table.scores), 40, replace=False)
        for s in [int(np.argmax(table.scaled_array)), 0, len(table.scores) - 1, *picks]:
            self.assert_location(table, s)

    @pytest.mark.parametrize("table", SMALL_TABLES[:3] + [_dataset_table()])
    def test_release_and_audit_kernel_agree_on_the_same_uniforms(self, table):
        draws, kernel, _ = exp_mech_blackbox_batch(table)
        U = np.vstack([np.random.default_rng(5).random((300, draws)), [[1e-300, 1e-300]]])
        codes, gaps = kernel(U)
        for row, code, gap in zip(U, codes[:, 0], gaps[:, 0]):
            result = exp_mech_blackbox_gap(table, ReplaySource(row))
            assert result.selected == code
            assert math.isclose(result.gap, gap, rel_tol=1e-12, abs_tol=1e-12)

    def test_total_is_the_last_running_weight(self, monkeypatch):
        # Python >= 3.12 sums floats with compensation, as math.fsum does.  A
        # total summed that way can exceed the last running weight, and a draw
        # just below 1 then passes every running weight and picks the last
        # outcome, whose weight is ~1e-16, instead of the first.
        monkeypatch.setattr(expmech, "sum", math.fsum, raising=False)
        table = UtilityTable((0.0,) + (-36.8,) * 10, 1.0, 2.0)
        u = 1.0 - 2.0**-53
        assert exp_mech_blackbox_gap(table, ReplaySource([u, 0.5])).selected == 0
        assert categorical_softmax_selector(table.scaled_scores(), ReplaySource([u])) == 0
        _, kernel, _ = exp_mech_blackbox_batch(table)
        assert kernel(np.array([[u, 0.5]]))[0][0, 0] == 0
        cumulative, _ = table._softmax_table
        assert cumulative[-1] == 1.0 < math.fsum(math.exp(x) for x in table.scaled_scores())


def _gap_samples(mechanism, table, runs, seed):
    per_outcome = {i: [] for i in range(len(table.scores))}
    src = SeededSource(seed)
    for _ in range(runs):
        r = mechanism(table, src)
        per_outcome[r.selected].append(r.gap)
    return per_outcome


def test_blackbox_matches_gumbel_joint_distribution():
    table = UtilityTable((0.0, 1.0, 2.0), 1.0, 2.0)
    runs = 100_000
    gumbel = gumbel_gap_samples(table, runs, 10)
    blackbox = _gap_samples(exp_mech_blackbox_gap, table, runs, 11)
    for s in range(3):
        f1 = len(gumbel[s]) / runs
        f2 = len(blackbox[s]) / runs
        assert abs(f1 - f2) < 0.01
        ks = stats.ks_2samp(gumbel[s], blackbox[s]).statistic
        assert ks < 0.02


def test_shift_invariance_of_utilities():
    # Adding a constant to every utility leaves the output law unchanged.
    base = UtilityTable((0.0, 1.0, 2.0), 1.0, 1.0)
    shifted = UtilityTable((10.0, 11.0, 12.0), 1.0, 1.0)
    runs = 100_000
    a = gumbel_gap_samples(base, runs, 12)
    b = gumbel_gap_samples(shifted, runs, 13)
    for s in range(3):
        assert abs(len(a[s]) / runs - len(b[s]) / runs) < 0.01
        assert stats.ks_2samp(a[s], b[s]).statistic < 0.02
    # Under the same replayed stream the runs agree exactly.
    assert exp_mech_gumbel(base, SeededSource(14)).selected == exp_mech_gumbel(
        shifted, SeededSource(14)
    ).selected
