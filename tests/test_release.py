"""The release record: its budget check, its charge trail, and what it holds.

Every public mechanism returns a :class:`gapdp.audit.Release`.  These tests
pin its check against budgets and charges that are not finite, each
mechanism's trail against the paper's cost formula, and that no field, repr
or pickle of a record carries a noisy value the mechanism did not release.
"""

import dataclasses
import functools
import math
import operator
import pickle
import re
import struct

import numpy as np
import pytest

from gapdp.audit import Release
from gapdp.expmech import UtilityTable, exp_mech_blackbox_gap, exp_mech_gumbel
from gapdp.hybrid import hybrid_estimates, hybrid_identity
from gapdp.noise import FamilyNoise, Gumbel, RandomSource, ReplaySource, SeededSource
from gapdp.queries import QuerySet
from gapdp.svt import SvtConfig, adaptive_svt, gap_svt
from gapdp.topk import gap_topk

inf, nan = math.inf, math.nan


def left_to_right(trail):
    return functools.reduce(operator.add, trail, 0.0)


class TestBudgetCheck:
    @pytest.mark.parametrize("allocated", [nan, inf, -inf, 0.0, -1.0])
    def test_rejects_a_budget_that_is_not_finite_and_positive(self, allocated):
        with pytest.raises(ValueError):
            Release((), (), allocated, ())

    @pytest.mark.parametrize("charge", [nan, inf, -inf, -0.1, -1e-300])
    def test_rejects_a_charge_that_is_not_finite_and_nonnegative(self, charge):
        with pytest.raises(ValueError):
            Release((), (), 1.0, (0.5, charge))

    def test_rejects_an_overspent_trail_beyond_the_float_fuzz(self):
        with pytest.raises(ValueError):
            Release((), (), 1.0, (0.6, 0.6))
        assert Release((), (), 1.0, (0.5, 0.5 + 5e-10)).consumed > 1.0

    def test_keeps_nan_gaps_legal(self):
        # Two exact-zero draws tie at -inf, and their gap is NaN.
        assert math.isnan(Release((0, 1), (nan, nan), 1.0, (1.0,)).gaps[0])

    def test_consumed_sums_the_trail_left_to_right(self):
        # (0.1 + 0.2) + 0.3 rounds above the exactly rounded 0.6 that
        # math.fsum, and sum() on Python >= 3.12, give.
        record = Release((), (), 1.0, (0.1, 0.2, 0.3))
        assert record.consumed == (0.1 + 0.2) + 0.3 != math.fsum(record.trail)
        assert record.remaining == 1.0 - record.consumed


VALUES = (0.0, 9.0, 1.0, 120.0, 3.0, 150.0, 2.0, 8.0, 110.0, 4.0)
TABLE = UtilityTable((0.0, 2.0, 1.0, 3.0), sensitivity=1.0, epsilon=1.3)
EPS, K, THETA, THRESHOLD = 1.3, 3, 0.4, 6.0


def releases(seed: int):
    """(name, release, the trail the paper charges it) for every public
    mechanism on ``SeededSource(seed)``."""
    src = SeededSource(seed)
    q = QuerySet(VALUES)
    for adaptive in (False, True):
        cfg = SvtConfig(EPS, K, THRESHOLD, THETA, adaptive=adaptive)
        mech = adaptive_svt if adaptive else gap_svt
        r = mech(q, cfg, src)
        charges = (0.0, cfg.eps1, cfg.eps2)
        yield mech.__name__, r, (cfg.eps0, *[charges[t] for t in r.codes if t])
    for monotonic in (False, True):
        r = gap_topk(QuerySet(VALUES, monotonic=monotonic), K, EPS, "laplace", src)
        yield "gap_topk", r, (EPS / 2.0 if monotonic else EPS,)
    r = hybrid_identity(q, THRESHOLD, K, EPS, src)
    yield "hybrid_identity", r, ((len(r.codes) / K) * EPS,)
    r = hybrid_estimates(q, THRESHOLD, K, EPS, THETA, src)
    yield "hybrid_estimates", r, ((THETA + (len(r.codes) / K) * (1.0 - THETA)) * EPS,)
    for mech in (exp_mech_gumbel, exp_mech_blackbox_gap):
        yield mech.__name__, mech(TABLE, src), (TABLE.epsilon,)


def test_every_release_charges_its_cost_formula():
    branches = set()
    for seed in range(20):
        for name, r, trail in releases(seed):
            assert r.trail == trail, name
            assert r.allocated == EPS
            assert r.consumed == left_to_right(r.trail)
            assert r.remaining == r.allocated - r.consumed
            if name.endswith("_svt"):
                # eps0, then one entry per report in scan order.
                assert len(r.trail) == 1 + len(r.gaps) == 1 + np.count_nonzero(r.codes)
                assert [i.budget_used for i in r.above_items()] == list(r.trail[1:])
                branches.update(r.codes)
    assert branches == {0, 1, 2}  # below, middle and top reports all charged


class UniformOnly(RandomSource):
    """A source that defines nothing but ``uniform()``, over given draws."""

    def __init__(self, values):
        self._replay = ReplaySource(values)

    def uniform(self) -> float:
        return self._replay.uniform()


MECHANISMS = {
    "gap_svt": lambda src: gap_svt(QuerySet(VALUES), SvtConfig(EPS, K, THRESHOLD, THETA), src),
    "adaptive_svt": lambda src: adaptive_svt(
        QuerySet(VALUES), SvtConfig(EPS, K, THRESHOLD, THETA, adaptive=True), src),
    "gap_topk": lambda src: gap_topk(QuerySet(VALUES), K, EPS, "laplace", src),
    "hybrid_identity": lambda src: hybrid_identity(QuerySet(VALUES), THRESHOLD, K, EPS, src),
    "hybrid_estimates": lambda src: hybrid_estimates(QuerySet(VALUES), THRESHOLD, K, EPS, THETA,
                                                     src),
    "exp_mech_gumbel": lambda src: exp_mech_gumbel(TABLE, src),
    "exp_mech_blackbox_gap": lambda src: exp_mech_blackbox_gap(TABLE, src),
}


@pytest.mark.parametrize("name", MECHANISMS)
def test_a_source_defining_only_uniform_serves_every_mechanism(name):
    # Every mechanism reads one fixed row through uniform_matrix, which the
    # base class builds from uniform(): such a source gives the release a
    # replay of the same draws gives, and leaves the same next draw, however
    # early a scan stops.
    release = MECHANISMS[name]
    for seed in range(10):
        draws = np.random.default_rng(seed).random(30).tolist()
        only, replay = UniformOnly(draws), ReplaySource(draws)
        assert release(only) == release(replay)
        assert only.uniform() == replay.uniform()


# Draws far from the simple uniforms, so every noisy value has a long repr.
DRAWS = tuple(np.random.default_rng(2017).uniform(0.05, 0.95, 64).tolist())


def noisy_values(name: str) -> tuple[tuple[float, ...], object]:
    """The noisy values a release on ``ReplaySource(DRAWS)`` computes, from
    the same inverse CDFs, and the release itself."""
    q = QuerySet(VALUES)
    u = np.array(DRAWS)
    if name in ("gap_svt", "adaptive_svt"):
        adaptive = name == "adaptive_svt"
        cfg = SvtConfig(EPS, K, THRESHOLD, THETA, adaptive=adaptive)
        step = 2 if adaptive else 1
        threshold = THRESHOLD + FamilyNoise("laplace", cfg.eps0).kind.inverse_cdf(DRAWS[0])
        mid = FamilyNoise("laplace", cfg.eps1, 2.0).kind.inverse_cdf_array(u[step::step][:10])
        top = FamilyNoise("laplace", cfg.eps2, 2.0).kind.inverse_cdf_array(u[1::2][:10])
        noisy = [threshold, *(VALUES + mid)] + ([*(VALUES + top)] if adaptive else [])
        return tuple(noisy), (adaptive_svt if adaptive else gap_svt)(q, cfg, ReplaySource(DRAWS))
    if name == "gap_topk":
        noisy = VALUES + FamilyNoise("laplace", EPS, 2.0 * K).kind.inverse_cdf_array(u[:10])
        return tuple(noisy), gap_topk(q, K, EPS, "laplace", ReplaySource(DRAWS))
    if name == "hybrid_identity":
        kind = FamilyNoise("exponential", EPS, 2.0 * K).kind
        noisy = (THRESHOLD, *VALUES) + kind.inverse_cdf_array(u[:11])
        return tuple(noisy), hybrid_identity(q, THRESHOLD, K, EPS, ReplaySource(DRAWS))
    if name == "hybrid_estimates":
        thr = FamilyNoise("exponential", THETA * EPS)
        query = FamilyNoise("exponential", (1.0 - THETA) * EPS / K, 2.0)
        threshold = THRESHOLD + thr.kind.inverse_cdf(DRAWS[0]) - thr.centre
        noisy = VALUES + query.kind.inverse_cdf_array(u[1:11]) - query.centre
        release = hybrid_estimates(q, THRESHOLD, K, EPS, THETA, ReplaySource(DRAWS))
        return (threshold, *noisy), release
    if name == "exp_mech_gumbel":
        noisy = TABLE.scaled_array + Gumbel(0.0).inverse_cdf_array(u[:4])
        return tuple(noisy), exp_mech_gumbel(TABLE, ReplaySource(DRAWS))
    # The black-box release draws no noisy score: only its draws are secret.
    return (), exp_mech_blackbox_gap(TABLE, ReplaySource(DRAWS))


def leaked(record, secrets) -> list[float]:
    """The secrets found among the record's fields, its repr, or any eight
    bytes of its pickle read as a double (how pickle stores floats)."""
    found = [*record.codes, *record.gaps, record.allocated, *record.trail]
    found += [float(s) for s in re.findall(r"-?\d+\.\d+(?:e[-+]?\d+)?", repr(record))]
    data = pickle.dumps(record)
    found += [struct.unpack(">d", data[i:i + 8])[0] for i in range(len(data) - 7)]
    return [s for s in secrets if any(math.isclose(s, f, rel_tol=1e-9) for f in found)]


@pytest.mark.parametrize("name", ["gap_svt", "adaptive_svt", "gap_topk", "hybrid_identity",
                                  "hybrid_estimates", "exp_mech_gumbel", "exp_mech_blackbox_gap"])
def test_no_record_holds_an_unreleased_noisy_value(name):
    noisy, record = noisy_values(name)
    # The noisy threshold, every noisy score (losers and the top-k runner-up
    # among them) and the draws themselves.
    secrets = noisy + DRAWS
    assert record.gaps and leaked(record, secrets) == []
    # The values are the ones the release computed: each gap is a
    # difference of two of them.
    for gap in (record.gaps if noisy else ()):
        assert any(math.isclose(gap, a - b, rel_tol=1e-12) for a in noisy for b in noisy)
    # And the scan sees a secret that does get in.
    planted = dataclasses.replace(record, gaps=record.gaps + (secrets[0],))
    assert leaked(planted, secrets) == [secrets[0]]
