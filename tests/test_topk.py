import math

import numpy as np
import pytest

from gapdp.noise import Exponential, Laplace, ReplaySource, SeededSource, sample
from gapdp.queries import QuerySet
from gapdp import topk
from gapdp.topk import gap_topk, gap_topk_batch, pairwise_gap, ranked

from conftest import kernel_runs


def zero_source(n, family="laplace"):
    return ReplaySource([0.5 if family == "laplace" else 0.0] * n)


def test_zero_noise_trace():
    result = gap_topk(QuerySet((5.0, 3.0, 9.0, 1.0)), 2, 1.0, "laplace", zero_source(4))
    assert result.pairs == ((2, 4.0), (0, 2.0))
    assert result.epsilon_charged == 1.0


def test_monotonic_charges_half():
    result = gap_topk(
        QuerySet((5.0, 3.0, 9.0, 1.0), monotonic=True), 2, 1.0, "laplace", zero_source(4)
    )
    assert result.epsilon_charged == 0.5


def test_requires_runner_up():
    with pytest.raises(ValueError, match="k\\+1"):
        gap_topk(QuerySet((1.0, 2.0)), 2, 1.0, "laplace", zero_source(2))


def test_missing_source_is_a_clear_error():
    with pytest.raises(ValueError, match="RandomSource"):
        gap_topk(QuerySet((1.0, 2.0, 3.0)), 1, 1.0)


def test_tie_break_prefers_lowest_index():
    result = gap_topk(QuerySet((7.0, 7.0, 7.0)), 2, 1.0, "laplace", zero_source(3))
    assert result.indices == (0, 1)


@pytest.mark.parametrize("rows", [1, 32])
@pytest.mark.parametrize("n", [topk._PARTITION_COLUMNS + 1, 1201, 10_000])
def test_ranked_by_partition_matches_a_stable_sort(rows, n):
    # Rows this wide select by partition before sorting; the result must be
    # what a stable sort of the whole row gives, ties and infinities included.
    # Integer rows tie at every cut.  Continuous rows do not, so most keep
    # exactly the entries at or above the cut; one of them ties two entries
    # at the cut, and in others -inf entries (half the row, then all but its
    # last entry) rank last, in index order.
    assert n >= topk._PARTITION_COLUMNS
    rng = np.random.default_rng(n + rows)
    noisy = rng.integers(0, 4, (rows, n)).astype(float)
    for value in (np.inf, -np.inf):
        noisy[rng.random((rows, n)) < 0.001] = value
    noisy[0, :] = 3.0  # one row tied everywhere
    noisy[-1, :40] = np.inf  # and one whose top entries are all +inf
    cases = [(noisy, (1, 11, n))]
    for count in (2, 11):
        tied, half, all_but_last = rng.normal(0.0, 100.0, (3, rows, n))
        by_value = np.argsort(-tied[0])
        tied[0, by_value[count]] = tied[0, by_value[count - 1]]
        half[-1, rng.random(n) < 0.5] = -np.inf
        all_but_last[-1, :-1] = -np.inf
        cases += [(tied, (count,)), (half, (count,)), (all_but_last, (count,))]
    for noisy, counts in cases:
        want = np.argsort(-noisy, axis=1, kind="stable")
        for count in counts:
            order, values = ranked(noisy, count)
            assert np.array_equal(order, want[:, :count])
            assert np.array_equal(values, np.take_along_axis(noisy, want[:, :count], axis=1))


def test_zero_noise_boundary_ties_go_to_the_lowest_index_at_dataset_scale():
    n, k = 10_000, 3
    values = np.zeros(n)
    values[[9999, 4000]] = (100.0, 90.0)
    values[[9000, 7000, 123, 5000]] = 50.0  # ranks 3 to 6 tie across the k/k+1 boundary
    result = gap_topk(QuerySet(tuple(values)), k, 1.0, "laplace", zero_source(n))
    assert result.pairs == ((9999, 10.0), (4000, 40.0), (123, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_draws_give_nan_gaps_without_a_warning():
    # A draw of exactly 0 is -inf Laplace noise; equal -inf values tie.
    result = gap_topk(QuerySet((0.0, 1.0, 1.0)), 2, 1.0, "laplace", ReplaySource([0.0] * 3))
    assert result.indices == (0, 1)
    assert all(math.isnan(gap) for gap in result.gaps)


def test_pairwise_gap_sums_and_bounds():
    result = gap_topk(QuerySet((9.0, 5.0, 3.0, 1.0)), 3, 1.0, "laplace", zero_source(4))
    assert result.gaps == (4.0, 2.0, 2.0)
    assert pairwise_gap(result, 1, 3) == pytest.approx(6.0)
    assert pairwise_gap(result, 1, 2) == pytest.approx(result.pairs[0][1])
    # Rank k+1 reaches the runner-up through the final gap.
    assert pairwise_gap(result, 1, 4) == pytest.approx(8.0)
    for a, b in [(0, 2), (2, 2), (1, 5), (3, 1)]:
        with pytest.raises(ValueError):
            pairwise_gap(result, a, b)


def test_pairwise_gap_telescopes_to_noisy_difference():
    # Rebuild the noisy values by replaying the same uniform stream.
    qs = QuerySet((4.0, 9.0, 1.0, 7.0, 3.0))
    k, eps = 3, 0.8
    seed = 321
    result = gap_topk(qs, k, eps, "laplace", SeededSource(seed))
    replay = SeededSource(seed)
    kind = Laplace(2.0 * k / eps)
    noisy = [v + sample(kind, replay) for v in qs.values]
    for a in range(1, k):
        for b in range(a + 1, k + 1):
            direct = noisy[result.pairs[a - 1][0]] - noisy[result.pairs[b - 1][0]]
            assert abs(pairwise_gap(result, a, b) - direct) < 1e-12


def test_permutation_equivariance():
    values = (4.0, 9.0, 1.0, 7.0)
    uniforms = [0.13, 0.64, 0.52, 0.98]
    perm = [2, 0, 3, 1]  # position i of the permuted list holds values[perm[i]]
    base = gap_topk(QuerySet(values), 2, 1.0, "laplace", ReplaySource(uniforms))
    permuted = gap_topk(
        QuerySet(tuple(values[perm[i]] for i in range(4))),
        2,
        1.0,
        "laplace",
        ReplaySource([uniforms[perm[i]] for i in range(4)]),
    )
    inverse = {orig: pos for pos, orig in enumerate(perm)}
    assert permuted.indices == tuple(inverse[j] for j in base.indices)
    assert permuted.gaps == pytest.approx(base.gaps)


def test_shift_invariance_under_replay():
    values = (4.0, 9.0, 1.0, 7.0)
    uniforms = [0.13, 0.64, 0.52, 0.98]
    base = gap_topk(QuerySet(values), 2, 1.0, "laplace", ReplaySource(uniforms))
    shifted = gap_topk(
        QuerySet(tuple(v + 1000.0 for v in values)), 2, 1.0, "laplace",
        ReplaySource(uniforms),
    )
    assert shifted.indices == base.indices
    assert shifted.gaps == pytest.approx(base.gaps, abs=1e-9)


def test_equal_values_selected_uniformly():
    n, runs = 4, 100_000
    qs = QuerySet((5.0,) * n)
    indices, _ = kernel_runs(gap_topk_batch(qs, 1, 1.0, "laplace"), runs, 0)
    freq = np.bincount(indices[:, 0], minlength=n) / runs
    sigma = np.sqrt((1 / n) * (1 - 1 / n) / runs)
    assert np.all(np.abs(freq - 1 / n) < 3.5 * sigma)


def test_exponential_noise_is_nonnegative():
    kind = Exponential(2.0)
    src = SeededSource(0)
    assert all(sample(kind, src) >= 0.0 for _ in range(100_000))


def well_separated(n):
    return QuerySet(tuple(float(1000 * (n - i)) for i in range(n)))


def _pairwise_gap_samples(noise, k, eps, runs, a, b):
    # pairwise_gap's telescoping sum, row by row.
    _, gaps = kernel_runs(gap_topk_batch(well_separated(k + 3), k, eps, noise), runs, 17)
    return gaps[:, a - 1:b - 1].sum(axis=1)


def test_pairwise_gap_variance_matches_theory():
    # Separated values pin the ranking, so the a..b gap is the difference of
    # two independent noise draws: variance 2 * var(noise) = 16 k^2/eps^2.
    k, eps, runs = 3, 1.0, 100_000
    gaps = _pairwise_gap_samples("laplace", k, eps, runs, 1, 3)
    assert gaps.var() == pytest.approx(16.0 * k * k / eps**2, rel=0.03)


def test_exponential_noise_halves_gap_variance():
    k, eps, runs = 3, 1.0, 100_000
    lap = _pairwise_gap_samples("laplace", k, eps, runs, 1, 3)
    exp = _pairwise_gap_samples("exponential", k, eps, runs, 1, 3)
    assert exp.var() / lap.var() == pytest.approx(0.5, abs=0.05)


def test_determinism():
    qs = QuerySet((3.0, 1.0, 4.0, 1.5, 9.0))
    a = gap_topk(qs, 2, 0.5, "exponential", SeededSource(11))
    b = gap_topk(qs, 2, 0.5, "exponential", SeededSource(11))
    assert a == b


def test_rejects_unknown_noise():
    with pytest.raises(ValueError):
        gap_topk(QuerySet((1.0, 2.0, 3.0)), 1, 1.0, "gumbel", zero_source(3))
