import copy
import dataclasses
import json
import pickle

import pytest

from gapdp.audit import (
    AuditConfig,
    AuditError,
    AuditReport,
    as_audit_output,
    estimate_epsilon,
    tie_probability_bound,
)
from gapdp.expmech import ExpMechResult, UtilityTable, exp_mech_blackbox_gap, exp_mech_gumbel
from gapdp.hybrid import HybridResult, hybrid_estimates, hybrid_identity
from gapdp.noise import Laplace, SeededSource, sample
from gapdp.queries import QuerySet, adjacent_counts
from gapdp.harness import _batched
from gapdp.svt import (
    BudgetLedger,
    SvtConfig,
    SvtItem,
    SvtResult,
    adaptive_svt,
    gap_svt,
    svt_batch,
)
from gapdp.topk import TopKResult, gap_topk, gap_topk_batch


def scalar_laplace(eps):
    kind = Laplace(1.0 / eps)
    return lambda qs, src: ((), (qs.values[0] + sample(kind, src),))


class TestAdapters:
    def test_svt_result(self):
        result = SvtResult((0, 1, 2, 0), (2.5, 9.0), (0.0, 0.1, 0.05), BudgetLedger(1.0, 0.5))
        discrete, reals = as_audit_output(result)
        assert discrete == (0, 1, 2, 0)
        assert reals == (2.5, 9.0)
        assert result.items == (
            SvtItem(0, False, 0.0, None, 0.0),
            SvtItem(1, True, 2.5, "middle", 0.1),
            SvtItem(2, True, 9.0, "top", 0.05),
            SvtItem(3, False, 0.0, None, 0.0),
        )
        assert result.above_items() == result.items[1:3]

    def test_topk_result(self):
        discrete, reals = as_audit_output(TopKResult(((3, 1.5), (0, 0.5)), 1.0))
        assert discrete == (3, 0)
        assert reals == (1.5, 0.5)

    def test_hybrid_result(self):
        discrete, reals = as_audit_output(HybridResult(((1, 2.0), (0, 3.0)), 1.0, "identity"))
        assert discrete == (1, 0)
        assert reals == (2.0, 3.0)

    def test_expmech_result(self):
        discrete, reals = as_audit_output(ExpMechResult(2, 0.7))
        assert discrete == (2,)
        assert reals == (0.7,)

    def test_tuple_passthrough_and_unknown(self):
        assert as_audit_output(((1, 2), (0.5,))) == ((1, 2), (0.5,))
        with pytest.raises(TypeError):
            as_audit_output(42)


class TestConfigAndReport:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AuditConfig(trials=100)
        with pytest.raises(ValueError):
            AuditConfig(bin_width=0.0)
        with pytest.raises(ValueError):
            AuditConfig(min_count=0)

    def test_report_json_round_trip(self):
        report = AuditReport(
            eps_hat=0.42, bins=17, trials=10_000, slack=0.1,
            eps_claimed=0.5, flagged=False, mechanism="scalar_laplace",
        )
        data = json.loads(report.to_json())
        assert data == {
            "mechanism": "scalar_laplace",
            "eps_claimed": 0.5,
            "eps_hat": 0.42,
            "trials": 10_000,
            "bins": 17,
            "flagged": False,
            "slack": 0.1,
        }


RECORD_QUERIES = QuerySet((0.0, 9.0, 1.0, 12.0, 3.0, 15.0, 2.0, 8.0, 11.0, 4.0))
RECORD_TABLE = UtilityTable((0.0, 2.0, 1.0, 3.0), sensitivity=1.0, epsilon=1.0)
RELEASES = {
    "gap_svt": lambda src: gap_svt(RECORD_QUERIES, SvtConfig(1.0, 3, 6.0, 0.3), src),
    "adaptive_svt": lambda src: adaptive_svt(
        RECORD_QUERIES, SvtConfig(1.0, 3, 6.0, 0.3, adaptive=True), src),
    "gap_topk": lambda src: gap_topk(RECORD_QUERIES, 3, 1.0, "laplace", src),
    "hybrid_identity": lambda src: hybrid_identity(RECORD_QUERIES, 6.0, 3, 1.0, src),
    "hybrid_estimates": lambda src: hybrid_estimates(RECORD_QUERIES, 6.0, 3, 1.0, 0.3, src),
    "exp_mech_gumbel": lambda src: exp_mech_gumbel(RECORD_TABLE, src),
    "exp_mech_blackbox_gap": lambda src: exp_mech_blackbox_gap(RECORD_TABLE, src),
}


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_results_are_frozen_records_of_their_audit_output(name):
    result = RELEASES[name](SeededSource(5))
    assert result == RELEASES[name](SeededSource(5))
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result and hash(clone) == hash(result)
    assert copy.copy(result) == result and hash(copy.copy(result)) == hash(result)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(result, dataclasses.fields(result)[0].name, None)
    discrete, reals = as_audit_output(result)
    assert (discrete, reals) == result.audit_output()
    assert len(reals) > 0 and all(isinstance(g, float) for g in reals)


def test_constant_mechanism_has_no_privacy_loss():
    mech = lambda qs, src: ((1,), (0.0,))
    d = QuerySet((0.0,))
    report = estimate_epsilon(
        mech, d, adjacent_counts(d, {0}, 1), AuditConfig(trials=10_000), eps_claimed=1.0
    )
    assert report.eps_hat == pytest.approx(0.0, abs=1e-9)
    assert not report.flagged


def test_scalar_laplace_calibration():
    # Known ground truth: the worst binned ratio of a Laplace(1/eps)
    # mechanism between inputs 0 and 1 is exactly eps.
    eps = 0.5
    cfg = AuditConfig(trials=1_000_000, bin_width=0.1, min_count=5000, seed=0)
    d = QuerySet((0.0,))
    report = estimate_epsilon(
        scalar_laplace(eps), d, adjacent_counts(d, {0}, 1), cfg,
        eps_claimed=eps, mechanism="scalar_laplace",
    )
    assert 0.40 <= report.eps_hat <= 0.55
    assert not report.flagged
    assert report.bins > 10


def test_estimate_is_roughly_symmetric_in_inputs():
    eps = 0.5
    cfg = AuditConfig(trials=200_000, bin_width=0.2, min_count=2000, seed=3)
    d = QuerySet((0.0,))
    d1 = adjacent_counts(d, {0}, 1)
    forward = estimate_epsilon(scalar_laplace(eps), d, d1, cfg).eps_hat
    backward = estimate_epsilon(scalar_laplace(eps), d1, d, cfg).eps_hat
    assert forward == pytest.approx(backward, abs=0.05)


def test_no_qualified_bins_raises():
    mech = scalar_laplace(0.5)
    d = QuerySet((0.0,))
    cfg = AuditConfig(trials=10_000, bin_width=0.001, min_count=9000)
    with pytest.raises(AuditError, match="increase trials"):
        estimate_epsilon(mech, d, adjacent_counts(d, {0}, 1), cfg)


def test_audit_is_deterministic():
    cfg = AuditConfig(trials=50_000, bin_width=0.2, min_count=500, seed=11)
    d = QuerySet((0.0,))
    d1 = adjacent_counts(d, {0}, 1)
    a = estimate_epsilon(scalar_laplace(1.0), d, d1, cfg)
    b = estimate_epsilon(scalar_laplace(1.0), d, d1, cfg)
    assert a == b


@pytest.mark.parametrize("family", ["laplace", "exponential", "geometric"])
def test_gap_svt_add_and_modify_adjacency(family):
    # Both adjacency conventions for counting queries: add one record
    # (all counts up) and modify one record (single count up).
    eps = 1.0
    cfg_mech = SvtConfig(epsilon=eps, k=1, threshold=1.0, theta=0.5, noise=family)
    mech = _batched(gap_svt, svt_batch, cfg_mech)
    d = QuerySet((0.0, 1.0, 0.0))
    neighbors = {
        "add": adjacent_counts(d, range(3), +1),
        "modify": adjacent_counts(d, {1}, +1),
    }
    for name, d_prime in neighbors.items():
        report = estimate_epsilon(
            mech, d, d_prime,
            AuditConfig(trials=100_000, bin_width=2.0, min_count=500, seed=5),
            eps_claimed=eps, mechanism=f"gap_svt_{family}_{name}",
        )
        assert report.eps_hat <= eps + report.slack, report
        assert not report.flagged


def test_gap_topk_nonmonotonic_within_full_budget():
    # Mixed +1/-1 neighbor (not a counting adjacency): the general bound eps
    # applies rather than eps/2.
    eps = 1.0
    d = QuerySet((0.0, 1.0, 1.0))
    d_prime = QuerySet((1.0, 0.0, 2.0))
    report = estimate_epsilon(
        _batched(gap_topk, gap_topk_batch, 1, eps, "laplace"),
        d, d_prime,
        AuditConfig(trials=100_000, bin_width=0.5, min_count=500, seed=8),
        eps_claimed=eps, mechanism="gap_topk_mixed",
    )
    assert report.eps_hat <= eps + report.slack
    assert not report.flagged


class TestTieProbabilityBound:
    def test_machine_epsilon_discretization(self):
        bound = tie_probability_bound(0.1, 2.0**-52, 1000)
        assert bound == pytest.approx(0.1 * 2.0**-52 * 1e6, rel=1e-12)
        assert bound < 1e-10

    def test_degenerate_inputs_give_zero(self):
        assert tie_probability_bound(1.0, 0.0, 100) == 0.0
        assert tie_probability_bound(1.0, 0.5, 0) == 0.0

    def test_capped_at_one(self):
        assert tie_probability_bound(10.0, 1.0, 10) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tie_probability_bound(-1.0, 0.5, 10)
