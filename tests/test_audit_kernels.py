"""The audit's batch kernels against independent loop references.

An audit on the batch path certifies the kernel, and every public
mechanism but the black-box exponential mechanism runs that kernel too, so
the references here are short loops of their own.  For the fixed-draw
mechanisms (top-k, the hybrids, the Gumbel-max exponential mechanism) they
are ``heapq.nlargest`` over ``(value, -index)`` and the scalar
``inverse_cdf``; for the sparse-vector scans, a draw-by-draw scan.  For a
uniform matrix U, the kernel's row r must equal the reference on ``U[r]``.  Discrete outputs and the draws a scan reads
must match exactly; gaps to a relative 1e-12, the room numpy's and
``math``'s ``log1p``/``log``/``exp`` leave between them.

Run alone with ``python -X dev -W error::RuntimeWarning -m pytest
tests/test_audit_kernels.py``; the module also turns RuntimeWarnings into
errors itself, so no overflow or divide warning can leak from a kernel.
"""

import dataclasses
import heapq
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gapdp import audit
from gapdp.audit import AuditConfig, as_audit_output, estimate_epsilon
from gapdp.expmech import UtilityTable
from gapdp.harness import standard_audit_cases
from gapdp.noise import (
    Exponential,
    FamilyNoise,
    Geometric,
    Gumbel,
    Laplace,
    ReplayExhaustedError,
    ReplaySource,
    SeededSource,
    sample,
    sample_logistic_nonneg,
    sample_logistic_nonneg_array,
)
from gapdp.queries import QuerySet, adjacent_counts
from gapdp.svt import _FIRST_WINDOW, SvtConfig, adaptive_svt, gap_svt, svt_batch

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EPS = 1.0
CASES = {case.name: case for case in standard_audit_cases(EPS)}
TOP = 1.0 - 2.0**-53  # the largest double below 1


def scalar_only(mech):
    """The same mechanism without its kernel: the auditor's scalar path."""
    return lambda qs, src: mech(qs, src)


# Loop references for the fixed-draw cases, at the parameters
# standard_audit_cases gives them.  Each maps (data, row) to the released
# (indices, gaps).

def noisy(values, kind, row):
    return [v + kind.inverse_cdf(u) for v, u in zip(values, row)]


def top_reference(noisy_values, k):
    """The k largest noisy values, ties to the lowest index, and the gap from
    each to the next of the k+1 largest."""
    top = heapq.nlargest(k + 1, ((x, -i) for i, x in enumerate(noisy_values)))
    return tuple(-i for _, i in top[:k]), [a - b for (a, _), (b, _) in zip(top, top[1:])]


def gap_topk_reference(kind):
    return lambda data, row: top_reference(noisy(data.values, kind, row), 1)


def hybrid_identity_reference(data, row, threshold=0.5, k=2):
    kind = Exponential(2.0 * k / EPS)
    indices, gaps = top_reference(noisy((threshold,) + data.values, kind, row), k)
    t = indices.index(0) + 1 if 0 in indices else k  # stop at the threshold sentinel
    return indices[:t], gaps[:t]


def hybrid_estimates_reference(data, row, threshold=0.5, k=2, theta=0.5):
    b0, b1 = 1.0 / (theta * EPS), 2.0 / ((1.0 - theta) * EPS / k)
    noisy_threshold = threshold + Exponential(b0).inverse_cdf(row[0]) - b0
    debiased = [x - b1 for x in noisy(data.values, Exponential(b1), row[1:])]
    top = heapq.nlargest(k, ((x, -i) for i, x in enumerate(debiased)))
    above = list(itertools.takewhile(lambda pair: pair[0] >= noisy_threshold, top))
    return tuple(-i for _, i in above), [x - noisy_threshold for x, _ in above]


def scaled(data):
    return UtilityTable(data.values, 1.0, EPS).scaled_scores()


def gumbel_reference(data, row):
    return top_reference(noisy(scaled(data), Gumbel(0.0), row), 1)


def blackbox_reference(data, row):
    x = scaled(data)
    weights = [math.exp(v - max(x)) for v in x]
    u, acc, s = row[0] * sum(weights), 0.0, len(x) - 1
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            s = i
            break
    rest = [v for i, v in enumerate(x) if i != s]
    location = x[s] - max(rest) - math.log(sum(math.exp(v - max(rest)) for v in rest))
    return (s,), [sample_logistic_nonneg(location, ReplaySource(row[1:]))]


def svt_scan(cfg, values, draw):
    """The draw-by-draw sparse-vector scan under ``cfg``, reading uniforms
    from ``draw()``: its tags (0 below, 1 middle, 2 top), released gaps,
    consumed budget and draws read."""
    spread = 1.0 if cfg.monotonic else 2.0
    thr, mid, top = (FamilyNoise(cfg.noise, cfg.eps0), FamilyNoise(cfg.noise, cfg.eps1, spread),
                     FamilyNoise(cfg.noise, cfg.eps2, spread))

    def noisy(value, noise):
        return value + noise.kind.inverse_cdf(draw()) - noise.centre

    noisy_threshold = noisy(cfg.threshold, thr)
    consumed, tags, gaps = cfg.eps0, [], []
    for value in values:
        if cfg.adaptive:
            noisy_top = noisy(value, top)
        noisy_mid = noisy(value, mid)
        if cfg.adaptive and noisy_top - noisy_threshold >= 2.0 * math.sqrt(top.kind.variance):
            tags.append(2)
            gaps.append(noisy_top - noisy_threshold)
            consumed += cfg.eps2
        elif (noisy_mid - noisy_threshold >= 0.0 if cfg.adaptive
              else noisy_mid >= noisy_threshold):
            tags.append(1)
            gaps.append(noisy_mid - noisy_threshold)
            consumed += cfg.eps1
        else:
            tags.append(0)
        if consumed > cfg.epsilon - cfg.eps1:
            break
    return tuple(tags), gaps, consumed, 1 + (1 + cfg.adaptive) * len(tags)


def svt_reference(cfg):
    def run(data, row):
        tags, gaps, _, read = svt_scan(cfg, data.values, iter(row.tolist()).__next__)
        return tags, gaps, read
    return run


def svt_config(name, **changes):
    """The config standard_audit_cases gives an SVT case, with ``changes``."""
    family = name.rpartition("_")[2] if name.startswith("adaptive") else "laplace"
    cfg = SvtConfig(epsilon=EPS, k=1, threshold=1.0, theta=0.5, noise=family,
                    adaptive=name != "gap_svt")
    return dataclasses.replace(cfg, **changes)


SVT_CASES = sorted(name for name in CASES if "svt" in name)

REFERENCES = {
    **{name: svt_reference(svt_config(name)) for name in SVT_CASES},
    "gap_topk_laplace": gap_topk_reference(Laplace(2.0 / EPS)),
    "gap_topk_exponential": gap_topk_reference(Exponential(2.0 / EPS)),
    "hybrid_identity": hybrid_identity_reference,
    "hybrid_estimates": hybrid_estimates_reference,
    "exp_mech_gumbel": gumbel_reference,
    "exp_mech_blackbox": blackbox_reference,
}


def public_call(mech):
    """The public mechanism on one row, and how many draws it read."""
    def run(data, row):
        source = ReplaySource(row)
        return (*as_audit_output(mech(data, source)), len(row) - source.remaining)
    return run


def inputs(case):
    # The case's adjacent pair, and a flat input on which equal draws tie.
    return case.d, case.d_prime, QuerySet((1.0,) * len(case.d.values))


def hand_picked(draws):
    """Every row over a small grid of draws: u = 0.5 (zero Laplace noise),
    repeated values (ties) and the largest double below 1."""
    grid = (0.25, 0.5, 0.75, TOP)
    rows = itertools.islice(itertools.product(grid, repeat=draws), 20_000)
    return np.array(list(rows), dtype=np.float64)


def assert_rows_match(mech, data, U, reference):
    """Kernel row r against ``reference(data, U[r])``: (indices, gaps), and
    for a kernel that stops early (one with a ``reach``) also the draws
    read."""
    draws, kernel, reach = mech.batch(data)
    assert U.shape[1] == draws
    codes, gaps, *used = kernel(U)
    assert codes.dtype == np.int64 and gaps.dtype == np.float64
    assert len(used) == (reach is not None)
    for r, row in enumerate(U):
        discrete, reals, *read = reference(data, row)
        if used:
            assert used[0][r] == read[0], (r, row)
        got_codes = tuple(int(c) for c in codes[r] if c != -1)
        got_gaps = [float(g) for g in gaps[r] if not math.isnan(g)]
        assert got_codes == tuple(discrete), (r, row)
        assert len(got_gaps) == len(reals), (r, row)
        for got, want in zip(got_gaps, reals):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (r, row, got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_scalar_mechanism(name):
    case = CASES[name]
    reference = REFERENCES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    for data in inputs(case):
        draws = case.mech.batch(data)[0]
        assert_rows_match(case.mech, data, rng.random((5000, draws)), reference)
        assert_rows_match(case.mech, data, hand_picked(draws), reference)


def with_zero_draws(U, rng):
    """U with a draw of exactly 0 (Laplace noise -inf) at one random place
    in each row, and at a second in every other row."""
    U = U.copy()
    rows = np.arange(len(U))
    U[rows, rng.integers(0, U.shape[1], len(U))] = 0.0
    U[rows[::2], rng.integers(0, U.shape[1], len(rows[::2]))] = 0.0
    return U


def same_reals(got, want):
    """Equal lengths, and each pair both NaN or within the references'
    1e-12."""
    return len(got) == len(want) and all(
        math.isnan(g) and math.isnan(w) or math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)
        for g, w in zip(got, want)
    )


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_public_call_is_kernel_row(name):
    # A public call reads exactly the draws of the kernel's row 0 (all of
    # them for a fixed-draw mechanism, ``used`` for a scan) and releases that
    # row.  The black-box mechanism keeps its selector protocol: its public
    # call reads the kernel's table but draws the gap with the scalar
    # sampler, so it agrees with the kernel's row to the references' 1e-12.
    case = CASES[name]
    rng = np.random.default_rng(41)
    for data in inputs(case):
        draws, kernel, reach = case.mech.batch(data)
        for row in np.vstack([rng.random((200, draws)), hand_picked(draws)[:200]]):
            discrete, reals, read = public_call(case.mech)(data, row)
            codes, gaps, *used = kernel(row[None, :])
            assert read == (used[0][0] if reach else draws)
            assert discrete == tuple(c for c in codes[0].tolist() if c != -1), row
            row_gaps = [g for g in gaps[0].tolist() if not math.isnan(g)]
            if name == "exp_mech_blackbox":
                assert reals == pytest.approx(row_gaps, rel=1e-12, abs=1e-12), row
            else:
                assert list(reals) == row_gaps, row
        if reach:
            # Zero draws give infinite noise: the public call must release
            # what the scalar scan releases, NaN gaps included.
            for row in with_zero_draws(rng.random((100, draws)), rng):
                discrete, reals, read = public_call(case.mech)(data, row)
                want, want_reals, want_read = REFERENCES[name](data, row)
                assert (discrete, read) == (want, want_read), row
                assert same_reals(list(reals), want_reals), row


def stopping_at(stop, n=3000):
    """3000 queries of 0 but one of 1000 at ``stop``: against a threshold of
    200, a scan at k = 1 reports that one and stops there."""
    values = np.zeros(n)
    values[stop] = 1000.0
    return QuerySet(tuple(values))


@pytest.mark.parametrize("name", SVT_CASES)
def test_consecutive_releases_read_the_stream_as_the_scalar_scan(name):
    # Releases on one shared source read it as back-to-back draw-by-draw
    # scans do, and leave it where they leave it: short scans, scans over
    # 3000 queries far below the threshold that stop in a later look-ahead
    # window or run out of queries, and scans that stop on the last query of
    # the first window or on either of the first two of the second.
    rng = np.random.default_rng(23)
    mech = adaptive_svt if name.startswith("adaptive") else gap_svt

    def cases():
        for n, threshold in ((1, 0.0), (3, 1.0), (300, 20.0), (3000, 60.0), (3000, 80.0)):
            data = QuerySet(tuple(rng.integers(0, 26, n).astype(float)))
            yield data, svt_config(name, k=3, threshold=threshold, theta=0.4)
        for stop in (_FIRST_WINDOW - 1, _FIRST_WINDOW, _FIRST_WINDOW + 1):
            yield stopping_at(stop), svt_config(name, threshold=200.0, theta=0.4)

    for data, cfg in cases():
        seed = int(rng.integers(2**32))
        shared, scalar = SeededSource(seed), SeededSource(seed)
        for _ in range(3):
            result = mech(data, cfg, shared)
            tags, gaps, consumed, _ = svt_scan(cfg, data.values, scalar.uniform)
            assert as_audit_output(result)[0] == tags
            assert [item.budget_used for item in result.items] == [
                (0.0, cfg.eps1, cfg.eps2)[t] for t in tags
            ]
            assert result.ledger.consumed == consumed
            got = [item.gap for item in result.above_items()]
            assert got == pytest.approx(gaps, rel=1e-12, abs=1e-12)
        assert shared.uniform() == scalar.uniform()


@pytest.mark.parametrize("name", SVT_CASES)
def test_replay_ending_in_the_second_window_raises_where_the_scalar_scan_does(name):
    # The scan stops on query _FIRST_WINDOW + 5.  Streams that end just
    # before, inside and after its draws, and inside the draws of the
    # query before it, raise where the draw-by-draw scan runs dry; the
    # others give its release and leave the same draws unread.
    cfg = svt_config(name, threshold=200.0, theta=0.4)
    mech = adaptive_svt if cfg.adaptive else gap_svt
    step, stop = 1 + cfg.adaptive, _FIRST_WINDOW + 5
    data = stopping_at(stop)
    stream = np.random.default_rng(29).random(1 + step * (stop + 3)).tolist()
    full = 1 + step * (stop + 1)  # the draws the scan reads
    for length in (1 + step * _FIRST_WINDOW, full - step - 1, full - 1, full, full + 1):
        replay, scalar = ReplaySource(stream[:length]), ReplaySource(stream[:length])
        try:
            tags, _, consumed, _ = svt_scan(cfg, data.values, scalar.uniform)
        except ReplayExhaustedError:
            with pytest.raises(ReplayExhaustedError):
                mech(data, cfg, replay)
            continue
        result = mech(data, cfg, replay)
        assert result.codes == tags and len(tags) == stop + 1
        assert result.trail == (cfg.eps0, (0.0, cfg.eps1, cfg.eps2)[tags[-1]])
        assert result.consumed == consumed and replay.remaining == scalar.remaining


@pytest.mark.parametrize("noise", ["laplace", "exponential", "geometric"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_svt_kernel_bodies_match_scalar_scan_with_row_thresholds(adaptive, noise):
    # The harness hands the SVT kernel one threshold per row.  Few rows over
    # many queries and many rows over few sum the budget along different
    # paths; both must give each row the scalar scan's output and read
    # exactly its draws.
    rng = np.random.default_rng(17 + adaptive)
    values = rng.integers(0, 30, 24).astype(float)
    for monotonic in (False, True):
        data = QuerySet(tuple(values), monotonic=monotonic)
        cfg = SvtConfig(epsilon=0.7, k=3, threshold=math.nan, theta=0.3, noise=noise,
                        adaptive=adaptive)
        draws, kernel, _ = svt_batch(data, cfg)
        for rows in (8, 300):
            U = rng.random((rows, draws))
            U[rng.random(U.shape) < 0.3] = 0.5  # zero Laplace noise: ties
            thresholds = rng.choice(values, rows)
            codes, gaps, used = kernel(U, thresholds)
            for r, row in enumerate(U):
                row_cfg = dataclasses.replace(cfg, threshold=float(thresholds[r]))
                discrete, reals, read = svt_reference(row_cfg)(data, row)
                assert used[r] == read, (rows, r)
                assert tuple(int(c) for c in codes[r] if c != -1) == discrete, (rows, r)
                got = [float(g) for g in gaps[r] if not math.isnan(g)]
                assert len(got) == len(reals), (rows, r)
                for g, want in zip(got, reals):
                    assert math.isclose(g, want, rel_tol=1e-12, abs_tol=1e-12), (rows, r)


def test_every_standard_case_carries_a_kernel():
    for case in standard_audit_cases(0.5):
        draws, kernel, reach = case.mech.batch(case.d)
        assert draws >= 1 and callable(kernel), case.name
        if "svt" in case.name:
            assert callable(reach), case.name
        else:
            assert reach is None, case.name


def grid_stream(rng, length):
    """Draws from the hand-picked grid plus an exact 0.0 (Laplace noise
    -inf) and 2**-54, the smallest draw a SeededSource gives, in random
    order: ties, infinite noise and NaN gaps at every window position."""
    return rng.choice([0.0, 2.0**-54, 0.25, 0.5, 0.75, TOP], length)


REACH_CASES = [(name, data) for name in SVT_CASES for data in (CASES[name].d, CASES[name].d_prime)]
# A monotonic adaptive scan over more queries, k = 3: charges of both
# branches add up over several answers before a scan stops.
REACH_CASES.append(("adaptive_svt_exponential",
                    QuerySet((3.0, 0.0, 5.0, 1.0, 4.0, 2.0, 6.0), monotonic=True)))


@pytest.mark.parametrize("name, data", REACH_CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(REACH_CASES)])
def test_reach_is_the_kernels_used_at_every_offset(name, data):
    # reach(stream) gives, for every whole window of the stream, the draws
    # the kernel's trial on that window reads.  Grid streams put zero draws
    # in every position, so a missing errstate fails here as a warning.
    cfg = svt_config(name, k=3, theta=0.4, monotonic=True) if data.monotonic else svt_config(name)
    draws, kernel, reach = svt_batch(data, cfg)
    rng = np.random.default_rng(len(data.values) + draws)
    for stream in (rng.random(5000), grid_stream(rng, 5000), grid_stream(rng, draws)):
        want = kernel(np.lib.stride_tricks.sliding_window_view(stream, draws))[2]
        got = reach(stream)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert len(reach(rng.random(draws - 1))) == 0  # no whole window


def test_wrapper_is_audited_not_the_kernel_behind_it():
    # A wrapper (a tracer, say) keeps the scalar path even when it exposes
    # the wrapped mechanism, which carries a kernel, as __wrapped__.
    case = CASES["gap_topk_laplace"]
    calls = []

    def wrapper(qs, src):
        calls.append(1)
        return case.mech(qs, src)

    wrapper.__wrapped__ = case.mech
    estimate_epsilon(wrapper, case.d, case.d_prime,
                     AuditConfig(trials=10_000, bin_width=0.5, min_count=100))
    assert len(calls) == 20_000


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_reports_equal_scalar_reports(name):
    # The batch path reads the stream as the scalar loop does, early-stopping
    # scans included, so the same seed gives the same audit.
    case = CASES[name]
    cfg = AuditConfig(trials=20_000, bin_width=case.bin_width, min_count=200, seed=3)
    batch = estimate_epsilon(case.mech, case.d, case.d_prime, cfg, case.eps_claimed, name)
    scalar = estimate_epsilon(scalar_only(case.mech), case.d, case.d_prime, cfg,
                              case.eps_claimed, name)
    assert batch == scalar


@pytest.mark.parametrize("name", ["hybrid_estimates", *SVT_CASES])
def test_chunk_boundary_keeps_the_stream(name):
    # More than one chunk.  An early-stopping scan's last trial in a chunk
    # leaves draws unread, and they begin the next chunk's stream; after the
    # last chunk the batch path leaves its source where the scalar loop does.
    case = CASES[name]
    cfg = SimpleNamespace(trials=2 * audit._CHUNK + 1, bin_width=case.bin_width)
    batch_src, scalar_src = SeededSource(21), SeededSource(21)
    batch = audit._histogram(case.mech, case.d, batch_src, cfg)
    scalar = audit._histogram(scalar_only(case.mech), case.d, scalar_src, cfg)
    assert batch == scalar
    assert batch_src.uniform() == scalar_src.uniform()


def test_uniform_matrix_continues_the_scalar_stream():
    a, b = SeededSource(5), SeededSource(5)
    drawn = [a.uniform() for _ in range(3)]
    drawn += a.uniform_matrix(50, 7).ravel().tolist()
    drawn += [a.uniform() for _ in range(3)]
    drawn += a.uniform_matrix(1, 9000).ravel().tolist()
    assert drawn == [b.uniform() for _ in range(len(drawn))]
    replay = ReplaySource(drawn[:14])
    assert replay.uniform_matrix(2, 7).ravel().tolist() == drawn[:14]


def test_bins_beyond_int64_give_the_scalar_report():
    # The top query's gap of ~1e19 bins at ~2e19, past int64: the batch
    # path's float keys bin it exactly, and the report is the scalar path's.
    case = CASES["gap_topk_laplace"]
    d = QuerySet((0.0, 1e19, 0.0), monotonic=True)
    d_prime = adjacent_counts(d, range(3), +1)
    cfg = AuditConfig(trials=10_000, bin_width=0.5, min_count=100, seed=4)
    batch = estimate_epsilon(case.mech, d, d_prime, cfg, EPS / 2)
    assert batch == estimate_epsilon(scalar_only(case.mech), d, d_prime, cfg, EPS / 2)
    assert batch.bins >= 1


def test_infinite_gap_raises_on_both_paths():
    # The top query clears the others by more than the largest double, so
    # every released gap is inf.  No bin holds it: the scalar path's
    # math.floor and the batch path's binning both raise OverflowError.
    case = CASES["gap_topk_laplace"]
    d = QuerySet((1.7e308, -1.7e308, -1.7e308), monotonic=True)
    cfg = AuditConfig(trials=10_000, bin_width=0.5, min_count=100)
    for mech in (case.mech, scalar_only(case.mech)):
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            estimate_epsilon(mech, d, d, cfg, EPS / 2)


def test_array_inverse_cdfs_match_scalar_ones():
    u = np.concatenate([[0.0, 0.5, TOP, 2.0**-53], np.random.default_rng(4).random(2000)])
    for kind in (Laplace(0.7), Exponential(1.3), Geometric(0.4), Gumbel(0.2)):
        got = kind.inverse_cdf_array(u)
        for g, v in zip(got, u):
            want = kind.inverse_cdf(float(v))
            assert g == want or math.isclose(g, want, rel_tol=1e-12, abs_tol=1e-12), (kind, v)
    loc = np.linspace(-800.0, 800.0, len(u))
    got = sample_logistic_nonneg_array(loc, u)
    for g, v, x in zip(got, u, loc):
        want = sample_logistic_nonneg(float(x), ReplaySource([v]))
        assert math.isclose(g, want, rel_tol=1e-12, abs_tol=1e-12), (x, v)


def test_broken_kernel_is_flagged():
    # Half the Laplace noise a 1-DP counting query needs, in scalar and
    # kernel form alike: the audit must see the kernel's 2-DP behaviour.
    eps = 1.0
    kind = Laplace(0.5 / eps)

    def half_noise(qs, src):
        return (), (qs.values[0] + sample(kind, src),)

    def batch(qs):
        def kernel(U):
            return (np.empty((len(U), 0), dtype=np.int64),
                    qs.values[0] + kind.inverse_cdf_array(U))
        return 1, kernel, None

    half_noise.batch = batch
    d = QuerySet((0.0,))
    report = estimate_epsilon(
        half_noise, d, adjacent_counts(d, {0}, +1),
        AuditConfig(trials=50_000, bin_width=0.5, min_count=1000, seed=1),
        eps_claimed=eps,
    )
    assert report.flagged
    assert report.eps_hat >= 1.5 * eps
