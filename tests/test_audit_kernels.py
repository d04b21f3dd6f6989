"""The audit's batch kernels against independent loop references.

An audit on the batch path certifies the kernel, and every public
mechanism but the black-box exponential mechanism runs that kernel too, so
the references here are short loops of their own.  For the fixed-draw
mechanisms (top-k, the hybrids, the Gumbel-max exponential mechanism) they
are ``heapq.nlargest`` over ``(value, -index)`` and the scalar
``inverse_cdf``; for the sparse-vector scans, a draw-by-draw scan.  For a
uniform matrix U, the kernel's row r must equal the reference on ``U[r]``,
and a public call on a replay of ``U[r]`` must read all of it.  Discrete
outputs must match exactly; gaps to a relative 1e-12, the room numpy's and
``math``'s ``log1p``/``log``/``exp`` leave between them.

Run alone with ``python -X dev -W error::RuntimeWarning -m pytest
tests/test_audit_kernels.py``; the module also turns RuntimeWarnings into
errors itself, so no overflow or divide warning can leak from a kernel.
"""

import dataclasses
import heapq
import itertools
import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest

from gapdp import audit
from gapdp import svt as svt_module
from gapdp import topk as topk_module
from gapdp.audit import AuditConfig, as_audit_output, estimate_epsilon
from gapdp.expmech import UtilityTable, exp_mech_gumbel_batch
from gapdp.harness import standard_audit_cases
from gapdp.hybrid import hybrid_estimates_batch, hybrid_identity_batch
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
from gapdp.queries import QuerySet, adjacent_counts, descending
from gapdp.svt import SvtConfig, adaptive_svt, gap_svt, svt_batch
from gapdp.topk import _PARTITION_COLUMNS, gap_topk_batch, noisy_ranked, ranked

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
    from ``draw()``: its tags (0 below, 1 middle, 2 top), released gaps and
    consumed budget."""
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
    return tuple(tags), gaps, consumed


def svt_reference(cfg):
    def run(data, row):
        return svt_scan(cfg, data.values, iter(row.tolist()).__next__)[:2]
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
    """Kernel row r against ``reference(data, U[r])``: (indices, gaps).  A
    public call on the first rows reads exactly ``draws``, however early a
    scan stops."""
    draws, kernel = mech.batch(data)
    assert U.shape[1] == draws
    codes, gaps = kernel(U)
    assert codes.dtype == np.int64 and gaps.dtype == np.float64
    for row in U[:100]:
        assert public_call(mech)(data, row)[2] == draws, row
    for r, row in enumerate(U):
        discrete, reals = reference(data, row)
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
    # A public call reads exactly the draws of the kernel's row 0, all of
    # them, and releases that row.  The black-box mechanism keeps its selector protocol: its public
    # call reads the kernel's table but draws the gap with the scalar
    # sampler, so it agrees with the kernel's row to the references' 1e-12.
    case = CASES[name]
    rng = np.random.default_rng(41)
    for data in inputs(case):
        draws, kernel = case.mech.batch(data)
        for row in np.vstack([rng.random((200, draws)), hand_picked(draws)[:200]]):
            discrete, reals, read = public_call(case.mech)(data, row)
            codes, gaps = kernel(row[None, :])
            assert read == draws
            assert discrete == tuple(c for c in codes[0].tolist() if c != -1), row
            row_gaps = [g for g in gaps[0].tolist() if not math.isnan(g)]
            if name == "exp_mech_blackbox":
                assert reals == pytest.approx(row_gaps, rel=1e-12, abs=1e-12), row
            else:
                assert list(reals) == row_gaps, row
        if "svt" in name:
            # Zero draws give infinite noise: the public call must release
            # what the scalar scan releases, NaN gaps included.
            for row in with_zero_draws(rng.random((100, draws)), rng):
                discrete, reals, read = public_call(case.mech)(data, row)
                want, want_reals = REFERENCES[name](data, row)
                assert (discrete, read) == (want, draws), row
                assert same_reals(list(reals), want_reals), row


def stopping_at(stop, n=3000):
    """``n`` queries of 0 but one of 1000 at ``stop``: against a threshold
    of 200, a scan at k = 1 reports that one and stops there."""
    values = np.zeros(n)
    values[stop] = 1000.0
    return QuerySet(tuple(values))


@pytest.mark.parametrize("name", SVT_CASES)
def test_consecutive_releases_read_the_stream_as_the_scalar_scan(name):
    # Releases on one shared source read it in whole rows of draws: each
    # releases what a replay of its row gives and what the draw-by-draw
    # scan of that row gives, and after them the source is where a matrix
    # of those rows leaves it.  Short scans, scans over 3000 queries far
    # below the threshold that stop late or run out of queries, scans that
    # stop on a query around _PARTITION_COLUMNS or on the last one, and
    # scans over rows just narrower than the pruning cutoff and at it that
    # stop on their last query.
    rng = np.random.default_rng(23)
    mech = adaptive_svt if name.startswith("adaptive") else gap_svt

    def cases():
        for n, threshold in ((1, 0.0), (3, 1.0), (300, 20.0), (3000, 60.0), (3000, 80.0)):
            data = QuerySet(tuple(rng.integers(0, 26, n).astype(float)))
            yield data, svt_config(name, k=3, threshold=threshold, theta=0.4)
        for stop in (_PARTITION_COLUMNS - 1, _PARTITION_COLUMNS, _PARTITION_COLUMNS + 1, 2999):
            yield stopping_at(stop), svt_config(name, threshold=200.0, theta=0.4)
        for n in (_PARTITION_COLUMNS - 1, _PARTITION_COLUMNS):
            yield stopping_at(n - 1, n), svt_config(name, threshold=200.0, theta=0.4)
        # At k = 1 and theta = 0.1, eps0 alone is past epsilon - eps1 once
        # rounded: every scan stops on query 0, whether or not it can pass.
        for n, threshold in itertools.product((_PARTITION_COLUMNS, 10_000), (20.0, 80.0)):
            data = QuerySet(tuple(rng.integers(0, 26, n).astype(float)))
            yield data, svt_config(name, threshold=threshold, theta=0.1)

    for data, cfg in cases():
        seed = int(rng.integers(2**32))
        shared, matrix = SeededSource(seed), SeededSource(seed)
        rows = matrix.uniform_matrix(3, 1 + (1 + cfg.adaptive) * len(data.values))
        for row in rows:
            result = mech(data, cfg, shared)
            assert result == mech(data, cfg, ReplaySource(row))
            tags, gaps, consumed = svt_scan(cfg, data.values, iter(row.tolist()).__next__)
            assert as_audit_output(result)[0] == tags
            assert [item.budget_used for item in result.items] == [
                (0.0, cfg.eps1, cfg.eps2)[t] for t in tags
            ]
            assert result.ledger.consumed == consumed
            got = [item.gap for item in result.above_items()]
            assert got == pytest.approx(gaps, rel=1e-12, abs=1e-12)
        assert shared.uniform() == matrix.uniform()


@pytest.mark.parametrize("name", SVT_CASES)
@pytest.mark.parametrize("n, stop", [(3000, _PARTITION_COLUMNS + 5),
                                     (_PARTITION_COLUMNS - 1, _PARTITION_COLUMNS - 6)],
                         ids=["wide", "narrow"])
def test_replay_shorter_than_a_row_raises_before_any_output(name, n, stop):
    # The scan stops on query ``stop``, of a row as wide as the pruning
    # cutoff or wider, or of one just narrower.  A release takes its whole
    # row first, so replays that end before the stop, just after it or one
    # draw short of the row raise, however few draws the scan would read,
    # and are left exhausted.  The whole row gives the draw-by-draw scan's
    # release, and the draws after it stay unread.
    cfg = svt_config(name, threshold=200.0, theta=0.4)
    mech = adaptive_svt if cfg.adaptive else gap_svt
    step = 1 + cfg.adaptive
    data = stopping_at(stop, n)
    row = 1 + step * n
    stream = np.random.default_rng(29).random(row + 3).tolist()
    for length in (1 + step * (stop - 5), 1 + step * (stop + 1), row - 1):
        replay = ReplaySource(stream[:length])
        with pytest.raises(ReplayExhaustedError):
            mech(data, cfg, replay)
        assert replay.remaining == 0
    replay = ReplaySource(stream)
    result = mech(data, cfg, replay)
    tags, _, consumed = svt_scan(cfg, data.values, iter(stream).__next__)
    assert result.codes == tags and len(tags) == stop + 1
    assert result.trail == (cfg.eps0, (0.0, cfg.eps1, cfg.eps2)[tags[-1]])
    assert result.consumed == consumed and replay.remaining == 3


# Pruned wide rows.  A kernel row of _PARTITION_COLUMNS queries or more
# computes noise only for the queries that can still be selected or pass
# the sparse-vector test; it must give exactly what the dense expression
# over every column gives (ranked(values + kind.inverse_cdf_array(U),
# count), or the dense scan), bit for bit.

WIDTHS = (_PARTITION_COLUMNS - 1, _PARTITION_COLUMNS, 10_000)


def wide_kernels(data, k, theta=0.3):
    """``(draws, kernel, dense)`` of the six kernels that prune wide rows,
    the SVT scans in each family, with thresholds among the data's 2k
    largest values.  ``dense`` is the output over every column: the top-k
    kernels' with the width cutoff out of reach, and the SVT kernels'
    own; an SVT ``kernel`` runs each row as a release's pruned scan.  The
    geometric scan is monotonic, on the data marked monotonic."""
    threshold = float(np.sort(data.value_array)[-min(2 * k, len(data.values))])

    def scan(data=data, **changes):
        cfg = SvtConfig(EPS, k, threshold, theta, **changes)
        draws, kernel = svt_batch(data, cfg)
        return draws, pruned_scan(data, cfg), kernel

    def top(batch):
        draws, kernel = batch
        return draws, kernel, lambda *args: dense(kernel, *args)

    return {
        "gap_topk_laplace": top(gap_topk_batch(data, k, EPS)),
        "gap_topk_exponential": top(gap_topk_batch(data, k, EPS, "exponential")),
        "hybrid_identity": top(hybrid_identity_batch(data, threshold, k, EPS)),
        "hybrid_estimates": top(hybrid_estimates_batch(data, threshold, k, EPS, 0.5)),
        "exp_mech_gumbel": top(exp_mech_gumbel_batch(UtilityTable(data.values, 1.0, EPS))),
        "gap_svt": scan(),
        "adaptive_svt_laplace": scan(adaptive=True),
        "adaptive_svt_exponential": scan(adaptive=True, noise="exponential"),
        "adaptive_svt_geometric": scan(QuerySet(data.values, monotonic=True), adaptive=True,
                                       noise="geometric", monotonic=True),
    }


def pruned_scan(data, cfg):
    """:func:`svt_batch`'s kernel output, with each row scanned as a release
    scans it: by the ``trial`` of ``svt._scanner``."""
    trial, n = svt_module._scanner(data, cfg)[2], len(data.values)

    def kernel(U, thresholds=None):
        codes, gaps = np.full((len(U), n), -1), np.full((len(U), n), np.nan)
        for r, row in enumerate(U):
            scanned, cols, tags, row_gaps = trial(
                row, cfg.threshold if thresholds is None else thresholds[r])
            codes[r, :scanned] = 0
            codes[r, cols], gaps[r, cols] = tags, row_gaps
        return codes, gaps

    return kernel


def query_draws(draws, n, queries):
    """The columns of a kernel row of ``draws`` over n queries that hold
    the draws of ``queries``: a threshold draw comes first, if any, and an
    adaptive scan's two per query sit side by side."""
    step = max((draws - 1) // n, 1)
    first = draws - step * n
    return (first + step * np.asarray(queries)[:, None] + np.arange(step)).ravel()


def edge_rows(data, draws, rng):
    """Rows holding draws of 0.0, 2**-54 and the largest double below 1:
    scattered; on the largest values' draws (a level of -inf, or the
    largest noise at the largest values); everywhere (a ceiling of -inf or
    the largest); and first, where the threshold draw sits."""
    largest = query_draws(draws, len(data.values),
                          np.argsort(-data.value_array, kind="stable")[:30])
    U = rng.random((6, draws))
    U[0, rng.choice(draws, 40, replace=False)] = TOP
    U[0, rng.choice(draws, 40, replace=False)] = 2.0**-54
    U[1, largest] = 0.0
    U[2, largest] = TOP
    U[3] = 0.0
    U[4, 0] = 0.0
    U[5] = TOP
    return U


def tied_rows(draws, rng):
    """Draws of 0.5, which give every query the same noise, but for a few
    random ones: noisy values tie wherever the values do."""
    U = np.full((3, draws), 0.5)
    U[rng.random(U.shape) < 0.05] = rng.random()
    return U


def wide_cases(width, rng):
    """(data, k, theta, rows) per input: Zipf counts in random order, all
    equal values (every column can still rank), three tied values (ties at
    the cut), values near +-1e15, whose ulp of 0.125 swallows small noise
    differences, k + 1 = n, and k = 1 at theta = 0.1, where eps0 alone is
    past epsilon - eps1 once rounded and a scan stops on query 0.  Integer
    values serve geometric noise."""
    zipf = QuerySet(tuple(rng.permutation(np.floor(5000.0 / np.arange(1.0, width + 1)))))
    random_rows = lambda draws: np.vstack([rng.random((1, draws)), rng.random((3, draws))])
    yield zipf, 10, 0.3, random_rows
    yield zipf, 10, 0.3, lambda draws: edge_rows(zipf, draws, rng)
    yield QuerySet((1.0,) * width), 10, 0.3, random_rows
    ties = QuerySet(tuple(rng.integers(0, 3, width).astype(float)))
    yield ties, 10, 0.3, lambda draws: tied_rows(draws, rng)
    yield ties, 10, 0.3, random_rows
    for sign in (1.0, -1.0):
        near = QuerySet(tuple(sign * 1e15 + rng.integers(0, 40, width).astype(float)))
        yield near, 10, 0.3, random_rows
    yield zipf, width - 1, 0.3, random_rows
    yield zipf, 1, 0.1, random_rows


def dense(kernel, *args):
    """``kernel``'s output on every row with the width cutoff out of reach,
    so that every row takes the dense path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topk_module, "_PARTITION_COLUMNS", 2**62)
        return kernel(*args)


@pytest.mark.parametrize("width", WIDTHS)
def test_pruned_wide_rows_equal_the_dense_expression(width):
    rng = np.random.default_rng(width)
    for data, k, theta, rows in wide_cases(width, rng):
        for name, (draws, kernel, whole) in wide_kernels(data, k, theta).items():
            U = rows(draws)
            calls = [(U,)]
            if "svt" in name:  # the harness's one threshold per row
                calls.append((U, rng.choice(data.value_array, len(U))))
            for args in calls:
                for got, want in zip(kernel(*args), whole(*args)):
                    assert got.dtype == want.dtype and got.shape == want.shape, (name, k)
                    assert np.array_equal(got, want, equal_nan=True), (name, k)


def lifted(kind, d):
    """The draw whose noise exceeds the noise of 0.5 by ``d`` + 0.03, by
    bisection: near 1e15, where a double's ulp is 0.125, a value d below
    another with it and 0.5 with the other give equal noisy values."""
    lo, hi = 0.5, TOP
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if kind.inverse_cdf(mid) - kind.inverse_cdf(0.5) < d + 0.03:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("kind", [Laplace(20.0), Exponential(20.0), Gumbel(0.0)],
                         ids=["laplace", "exponential", "gumbel"])
@pytest.mark.parametrize("head", [0, 1])
@pytest.mark.parametrize("shift", [0.0, 7.5])
def test_pruning_keeps_the_columns_whose_bound_ties_the_level(kind, head, shift):
    # Values near 1e15.  The seed is the 22 largest values: 11 at 10..20
    # above 1e15, and 11 at 8..9.25 that draw 2**-54, whose noisy values
    # fall far below the level, the lowest of the other 11.  Every column
    # outside the seed draws the row's largest draw, so its bound is its
    # noisy value once the ulp of 0.125 swallows the ceiling's slack.  A
    # rival at 7, at a lower index than the seed of 10, ties the level and
    # wins the tie (in every other row; the rows without one rank the seed
    # alone); the seed of 15, at a lower index than the seed of 16, draws 1
    # more noise and ties it.  Pruned rows must rank as the dense expression
    # does, and the ties must be real.
    rng = np.random.default_rng(head)
    n, count = 10_000, 11
    noisy = (lambda v, z: v + z - shift) if shift else operator.add
    rival_wins = seed_ties = 0
    for r in range(8):
        seeds = rng.choice(n, 2 * count, replace=False) + head
        tops, lows = np.sort(seeds[:count]), seeds[count:]
        base = 10.0 + rng.permutation(count)
        s15, s16 = np.flatnonzero(base == 15.0)[0], np.flatnonzero(base == 16.0)[0]
        if s15 > s16:
            base[s15], base[s16] = 16.0, 15.0
        low, high = tops[base == 15.0][0], tops[base == 16.0][0]
        candidates = np.setdiff1d(np.arange(head, tops[base == 10.0][0]), seeds)
        rival = int(rng.choice(candidates)) if r % 2 and len(candidates) else None
        values = np.full(head + n, 1e15)
        values[tops] += base
        values[lows] += 8.0 + 0.125 * np.arange(count)
        row = np.full(head + n, lifted(kind, 3.0))
        row[tops] = 0.5
        row[lows] = 2.0**-54
        row[low] = lifted(kind, 1.0)
        if rival is not None:
            values[rival] += 7.0
        got = noisy_ranked(values, descending(values[head:]), kind, row[None], count, noisy, head)
        want = ranked(noisy(values, kind.inverse_cdf_array(row[None])), count)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        rival_wins += rival in want[0][0]
        at = {int(i): x for i, x in zip(want[0][0], want[1][0])}
        seed_ties += at.get(int(low)) == at.get(int(high)) is not None
    assert rival_wins and seed_ties  # the ties happened


def test_wide_rows_compute_noise_for_few_columns(monkeypatch):
    # On Zipf counts over 10^4 queries, a random row ranks a few dozen
    # columns and a scan tags a few dozen queries, in the median.  The
    # noise of the row's largest draw has a long tail, and a row whose
    # ceiling lifts every value to the level keeps every column.
    widths, rank, tag = [], topk_module.ranked, svt_module._tag

    def ranked(noisy, count):
        widths.append(noisy.shape[1])
        return rank(noisy, count)

    def tagged(cfg, value, *noise):
        widths.append(np.size(value))
        return tag(cfg, value, *noise)

    monkeypatch.setattr(topk_module, "ranked", ranked)
    monkeypatch.setattr(svt_module, "_tag", tagged)
    rng = np.random.default_rng(3)
    data = QuerySet(tuple(rng.permutation(np.floor(1e5 / np.arange(1.0, 10_001)))))
    for name, (draws, kernel, _) in wide_kernels(data, 10).items():
        most = []
        for row in rng.random((21, draws)):
            widths.clear()
            kernel(row[None])
            most.append(max(widths))
        assert np.median(most) <= (30 if "svt" not in name else 100), (name, most)


@pytest.mark.parametrize("noise", ["laplace", "exponential", "geometric"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_svt_kernel_bodies_match_scalar_scan_with_row_thresholds(adaptive, noise):
    # The harness hands the SVT kernel one threshold per row.  Few rows over
    # many queries and many rows over few sum the budget along different
    # paths; both must give each row the scalar scan's output.
    rng = np.random.default_rng(17 + adaptive)
    values = rng.integers(0, 30, 24).astype(float)
    for monotonic in (False, True):
        data = QuerySet(tuple(values), monotonic=monotonic)
        cfg = SvtConfig(epsilon=0.7, k=3, threshold=math.nan, theta=0.3, noise=noise,
                        adaptive=adaptive)
        draws, kernel = svt_batch(data, cfg)
        for rows in (8, 300):
            U = rng.random((rows, draws))
            U[rng.random(U.shape) < 0.3] = 0.5  # zero Laplace noise: ties
            thresholds = rng.choice(values, rows)
            codes, gaps = kernel(U, thresholds)
            for r, row in enumerate(U):
                row_cfg = dataclasses.replace(cfg, threshold=float(thresholds[r]))
                discrete, reals = svt_reference(row_cfg)(data, row)
                assert tuple(int(c) for c in codes[r] if c != -1) == discrete, (rows, r)
                got = [float(g) for g in gaps[r] if not math.isnan(g)]
                assert len(got) == len(reals), (rows, r)
                for g, want in zip(got, reals):
                    assert math.isclose(g, want, rel_tol=1e-12, abs_tol=1e-12), (rows, r)


def test_every_standard_case_carries_a_kernel():
    # Every builder returns (draws, kernel), and every kernel (codes, gaps).
    for case in standard_audit_cases(0.5):
        batch = case.mech.batch(case.d)
        assert len(batch) == 2, case.name
        draws, kernel = batch
        assert draws >= 1 and callable(kernel), case.name
        assert len(kernel(np.full((2, draws), 0.5))) == 2, case.name


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
    # The batch path reads the stream as the scalar loop does, one fixed row
    # per trial, so the same seed gives the same audit.
    case = CASES[name]
    cfg = AuditConfig(trials=20_000, bin_width=case.bin_width, min_count=200, seed=3)
    batch = estimate_epsilon(case.mech, case.d, case.d_prime, cfg, case.eps_claimed, name)
    scalar = estimate_epsilon(scalar_only(case.mech), case.d, case.d_prime, cfg,
                              case.eps_claimed, name)
    assert batch == scalar


@pytest.mark.parametrize("name", ["hybrid_estimates", *SVT_CASES])
def test_chunk_boundary_keeps_the_stream(name):
    # More than one chunk, the last one partial: after it the batch path
    # leaves its source where the scalar loop does.
    case = CASES[name]
    cfg = SimpleNamespace(trials=2 * audit._CHUNK + 1, bin_width=case.bin_width)
    batch_src, scalar_src = SeededSource(21), SeededSource(21)
    batch = audit._histogram(case.mech, case.d, batch_src, cfg)
    scalar = audit._histogram(scalar_only(case.mech), case.d, scalar_src, cfg)
    assert batch == scalar
    assert batch_src.uniform() == scalar_src.uniform()


def test_nan_gap_gets_one_key_on_both_paths():
    # Every 500th trial draws exact zeros for the threshold and the first
    # query: both noises are -inf, the query is reported above with a NaN
    # gap, and both paths key it by its codes alone.
    case = CASES["gap_svt"]
    draws, _ = case.mech.batch(case.d)
    U = SeededSource(13).uniform_matrix(10_000, draws)
    U[::500, :2] = 0.0
    cfg = SimpleNamespace(trials=10_000, bin_width=case.bin_width)
    batch = audit._histogram(case.mech, case.d, ReplaySource(U.ravel()), cfg)
    scalar = audit._histogram(scalar_only(case.mech), case.d, ReplaySource(U.ravel()), cfg)
    assert batch == scalar
    assert batch[(1,), ()] == 20


def test_uniform_matrix_continues_the_scalar_stream():
    a, b = SeededSource(5), SeededSource(5)
    drawn = [a.uniform() for _ in range(3)]
    drawn += a.uniform_matrix(50, 7).ravel().tolist()
    drawn += [a.uniform() for _ in range(3)]
    drawn += a.uniform_matrix(1, 9000).ravel().tolist()
    # A scalar loop through many listed runs and several blocks.
    drawn += [a.uniform() for _ in range(10_000)]
    drawn += a.uniform_matrix(2, 3000).ravel().tolist()
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
        return 1, kernel

    half_noise.batch = batch
    d = QuerySet((0.0,))
    report = estimate_epsilon(
        half_noise, d, adjacent_counts(d, {0}, +1),
        AuditConfig(trials=50_000, bin_width=0.5, min_count=1000, seed=1),
        eps_claimed=eps,
    )
    assert report.flagged
    assert report.eps_hat >= 1.5 * eps
