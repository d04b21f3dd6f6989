import pytest

from gapdp.hybrid import HybridIdentityResult, HybridResult, hybrid_estimates, hybrid_identity
from gapdp.noise import ReplaySource, SeededSource
from gapdp.queries import QuerySet


def zero_source(n):
    return ReplaySource([0.0] * n)  # exponential noise is zero at u=0


class TestHybridIdentityTraces:
    def test_all_queries_clear_threshold(self):
        # Noisy list (T, q...) = (5, 9, 7, 2); top-3 is 9, 7, 5, so two query
        # pairs at gaps 2 and 2, full cost.
        result = hybrid_identity(QuerySet((9.0, 7.0, 2.0)), 5.0, 2, 1.0, zero_source(4))
        assert result.pairs == ((1, 2.0), (2, 2.0))
        assert result.actual_cost == pytest.approx(1.0)
        assert type(result) is HybridIdentityResult

    def test_sentinel_reached_second(self):
        # Noisy list (5, 9, 2): the threshold sentinel lands at rank 2 and is
        # returned as the final pair with the runner-up gap.
        result = hybrid_identity(QuerySet((9.0, 2.0)), 5.0, 2, 1.0, zero_source(3))
        assert result.pairs == ((1, 4.0), (0, 3.0))
        assert result.actual_cost == pytest.approx(1.0)

    def test_query_pairs_strips_sentinel_and_rebases(self):
        result = hybrid_identity(QuerySet((9.0, 2.0)), 5.0, 2, 1.0, zero_source(3))
        assert result.query_pairs() == ((0, 4.0),)

    def test_sentinel_first_costs_one_share(self):
        result = hybrid_identity(QuerySet((-9.0, -2.0)), 5.0, 2, 1.0, zero_source(3))
        assert result.pairs[0][0] == 0
        assert len(result.pairs) == 1
        assert result.actual_cost == pytest.approx(0.5)


class TestHybridEstimatesTraces:
    def test_partial_return_trace(self):
        # theta=0.5, eps=2, k=2: eps0=1, eps1=0.5, debias b0=1, b1=4, so the
        # noisy threshold is 4 and noisy queries [5, 3, -2]: one pair.
        result = hybrid_estimates(
            QuerySet((9.0, 7.0, 2.0)), 5.0, 2, 2.0, 0.5, zero_source(4)
        )
        assert result.pairs == ((0, 1.0),)
        assert result.actual_cost == pytest.approx(1.5)
        assert type(result) is HybridResult

    def test_nothing_above_costs_theta_share(self):
        result = hybrid_estimates(
            QuerySet((-50.0, -60.0, -70.0)), 5.0, 2, 2.0, 0.5, zero_source(4)
        )
        assert result.pairs == ()
        assert result.actual_cost == pytest.approx(0.5 * 2.0)

    def test_full_return_costs_everything(self):
        result = hybrid_estimates(
            QuerySet((900.0, 800.0, 2.0)), 5.0, 2, 2.0, 0.5, zero_source(4)
        )
        assert len(result.pairs) == 2
        assert result.actual_cost == pytest.approx(2.0)

    def test_answer_estimates_add_threshold(self):
        result = hybrid_estimates(
            QuerySet((9.0, 7.0, 2.0)), 5.0, 2, 2.0, 0.5, zero_source(4)
        )
        assert result.answer_estimates(5.0) == (6.0,)


def test_identity_sentinel_dominates_when_queries_far_below():
    qs = QuerySet((-500.0, -600.0, -700.0))
    k, eps = 2, 1.0
    src = SeededSource(1)
    sentinel_first = 0
    runs = 2000
    for _ in range(runs):
        result = hybrid_identity(qs, 5.0, k, eps, src)
        if result.pairs[0][0] == 0:
            sentinel_first += 1
            assert result.actual_cost == eps / k
    assert sentinel_first / runs > 0.95


@pytest.mark.parametrize("eps, k", [(1.0, 1), (1.0, 3), (2.5, 4)])
def test_identity_cost_lemma_exact(eps, k):
    qs = QuerySet((8.0, 4.0, 6.0, 1.0, 3.0))
    src = SeededSource(5)
    for _ in range(500):
        result = hybrid_identity(qs, 5.0, k, eps, src)
        t = len(result.pairs)
        assert 0 < t <= k
        assert result.actual_cost == (t / k) * eps


@pytest.mark.parametrize("theta", [0.25, 0.5])
def test_estimates_cost_lemma_exact(theta):
    qs = QuerySet((8.0, 4.0, 6.0, 1.0, 3.0))
    eps, k = 1.5, 3
    src = SeededSource(6)
    for _ in range(500):
        result = hybrid_estimates(qs, 5.0, k, eps, theta, src)
        t = len(result.pairs)
        assert 0 <= t <= k
        assert result.actual_cost == (theta + (t / k) * (1.0 - theta)) * eps
        assert result.actual_cost <= eps + 1e-12
        if t < k:
            assert result.actual_cost < eps


def test_identity_pairs_descend_with_positive_gaps():
    qs = QuerySet((10.0, 9.0, 8.0, 7.0, 6.0))
    src = SeededSource(9)
    for _ in range(500):
        result = hybrid_identity(qs, 5.0, 3, 1.0, src)
        assert all(gap > 0.0 for _, gap in result.pairs)
        indices = [i for i, _ in result.pairs]
        assert len(set(indices)) == len(indices)


def test_validation():
    qs = QuerySet((1.0, 2.0))
    with pytest.raises(ValueError):
        hybrid_identity(qs, 0.0, 3, 1.0, zero_source(3))
    with pytest.raises(ValueError):
        hybrid_identity(qs, 0.0, 1, 0.0, zero_source(3))
    with pytest.raises(ValueError):
        hybrid_estimates(qs, 0.0, 1, 1.0, 1.5, zero_source(3))


def test_determinism():
    qs = QuerySet((8.0, 4.0, 6.0))
    assert hybrid_identity(qs, 5.0, 2, 1.0, SeededSource(3)) == hybrid_identity(
        qs, 5.0, 2, 1.0, SeededSource(3)
    )
    assert hybrid_estimates(qs, 5.0, 2, 1.0, 0.5, SeededSource(3)) == hybrid_estimates(
        qs, 5.0, 2, 1.0, 0.5, SeededSource(3)
    )
