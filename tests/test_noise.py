import math

import numpy as np
import pytest
from scipy import stats

from gapdp.noise import (
    FAMILIES,
    STREAMS,
    Exponential,
    FamilyNoise,
    Geometric,
    Gumbel,
    Laplace,
    Logistic,
    RandomSource,
    ReplayExhaustedError,
    ReplaySource,
    SeededSource,
    _BLOCK,
    canonical_family,
    mean_of,
    sample,
    sample_logistic_nonneg,
    variance_of,
)
from gapdp.queries import QuerySet
from gapdp.svt import SvtConfig, gap_svt

from conftest import draw_many

ALL_KINDS = [
    Laplace(1.0),
    Laplace(2.0),
    Exponential(3.0),
    Geometric(0.5),
    Geometric(0.2),
    Gumbel(0.0),
    Logistic(1.5),
]


@pytest.mark.parametrize(
    "kind, u, expected",
    [
        # Median of the symmetric law is exactly zero.
        (Laplace(1.0), 0.5, 0.0),
        # High-precision evaluation of -ln(-ln 1/2).
        (Gumbel(0.0), 0.5, 0.3665129205816643),
        (Logistic(0.0), 0.75, math.log(3.0)),
        (Exponential(2.0), 0.0, 0.0),
        (Geometric(0.5), 0.0, 0.0),
        # Direct CDF inversions evaluated by hand.
        (Laplace(1.0), 0.75, math.log(2.0)),
        (Laplace(1.0), 0.25, -math.log(2.0)),
        (Exponential(1.0), 0.5, math.log(2.0)),
    ],
)
def test_inverse_cdf_values(kind, u, expected):
    assert sample(kind, ReplaySource([u])) == pytest.approx(expected, abs=1e-12)


def test_geometric_inverse_cdf_is_exact_quantile():
    # P(X <= j) = 1 - (1-p)^(j+1); u just below/above that boundary must land
    # on j / j+1 respectively.
    p = 0.3
    kind = Geometric(p)
    for j in range(5):
        boundary = 1.0 - (1.0 - p) ** (j + 1)
        assert kind.inverse_cdf(boundary - 1e-12) == j
        assert kind.inverse_cdf(boundary + 1e-12) == j + 1


@pytest.mark.parametrize(
    "kind, expected",
    [
        (Laplace(2.0), 8.0),
        (Exponential(3.0), 9.0),
        (Geometric(0.5), 2.0),
        (Logistic(7.0), math.pi**2 / 3.0),
        (Gumbel(3.0), math.pi**2 / 6.0),
    ],
)
def test_variance_of(kind, expected):
    assert variance_of(kind) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Laplace(0.0),
        lambda: Laplace(-1.0),
        lambda: Exponential(0.0),
        lambda: Geometric(0.0),
        lambda: Geometric(1.0),
        lambda: Gumbel(math.inf),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_seeded_source_is_reproducible():
    a = SeededSource(42)
    b = SeededSource(42)
    assert [a.uniform() for _ in range(10_000)] == [b.uniform() for _ in range(10_000)]
    c = SeededSource(43)
    assert a.uniform() != c.uniform()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_same_seed_same_samples(kind):
    xs = draw_many(kind, SeededSource(7), 1000)
    ys = draw_many(kind, SeededSource(7), 1000)
    assert np.array_equal(xs, ys)


def test_no_two_seeded_streams_share_a_generator_state():
    # Every (seed, key) the package derives, and the keyless stream, starts
    # from its own PCG64 state: no seed's stream is a neighbour seed's
    # stream under another key, as ``seed ^ t`` trial streams once were.
    keys = [()] + list(STREAMS.values())
    assert len(set(keys)) == len(keys)
    states = set()
    for seed in range(1024):
        for key in keys:
            state = SeededSource(seed, *key)._gen.bit_generator.state["state"]
            states.add((state["state"], state["inc"]))
    assert len(states) == 1024 * len(keys)


@pytest.mark.parametrize("seed", [0, 1, 5, 2**32 + 7])
def test_keyless_source_is_numpy_pcg64_stream(seed):
    want = np.random.Generator(np.random.PCG64(seed)).random(10_000)
    assert np.array_equal(SeededSource(seed).uniform_matrix(1, 10_000)[0], want)
    src = SeededSource(seed)
    assert [src.uniform() for _ in range(10_000)] == want.tolist()


def test_replay_source_yields_sequence_then_raises():
    src = ReplaySource([0.1, 0.9, 0.5])
    assert [src.uniform() for _ in range(3)] == [0.1, 0.9, 0.5]
    with pytest.raises(ReplayExhaustedError):
        src.uniform()


def test_peek_does_not_consume():
    src = SeededSource(8)
    ahead = src.peek(5000)
    assert not ahead.flags.writeable
    assert np.array_equal(src.peek(3), ahead[:3])
    assert [src.uniform() for _ in range(5000)] == ahead.tolist()
    fresh = SeededSource(8)
    assert [fresh.uniform() for _ in range(5000)] == ahead.tolist()


# PCG64's 128-bit LCG multiplier.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def one_step_before_zero(seed: int) -> SeededSource:
    """A source whose generator's next step reaches the all-zero PCG64
    state, so that its next raw draw is exactly 0.0."""
    src = SeededSource(seed)
    state = src._gen.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (-inc * pow(_PCG64_MULTIPLIER, -1, 2**128)) % 2**128
    src._gen.bit_generator.state = state
    return src


def test_seeded_source_never_returns_an_exact_zero():
    # A raw 0.0 becomes 2**-54, below every other draw, whichever way the
    # stream is read; the draws after it are the generator's own.
    raw = one_step_before_zero(3)._gen.random(50)
    assert raw[0] == 0.0 and raw[1:].min() > 0.0
    for read in (lambda s: [s.uniform() for _ in range(50)],
                 lambda s: s.uniform_matrix(5, 10).ravel().tolist(),
                 lambda s: s.peek(50).tolist()):
        drawn = read(one_step_before_zero(3))
        assert drawn == [2.0**-54] + raw[1:].tolist()
    u = one_step_before_zero(3).uniform()
    for kind in (Laplace(1.0), Gumbel(0.0)):
        assert math.isfinite(kind.inverse_cdf(u))


def test_look_ahead_and_draws_interleave_into_one_stream():
    a, b = SeededSource(9), SeededSource(9)
    drawn = [a.uniform() for _ in range(5)]
    drawn += a.peek(40).tolist()
    a.advance(40)
    drawn += a.uniform_matrix(3, 7).ravel().tolist()
    ahead = a.peek(10_000)  # beyond the block: the source draws more
    drawn += [a.uniform() for _ in range(4)]
    assert drawn[-4:] == ahead[:4].tolist()
    a.advance(9000)
    drawn += ahead[4:9004].tolist()
    drawn += a.uniform_matrix(1, 5000).ravel().tolist()
    drawn += [a.uniform() for _ in range(3)]
    drawn += a.uniform_matrix(2, 3000).ravel().tolist()  # drains what uniform() left
    drawn += [a.uniform()]
    ahead = a.peek(7).tolist()
    drawn += [a.uniform() for _ in range(10_000)]
    assert drawn[-10_000:-9993] == ahead
    # A look-ahead past a block, then a scalar loop through many runs of it,
    # its end and the blocks after it.
    ahead = a.peek(_BLOCK + 100).tolist()
    drawn += [a.uniform() for _ in range(3 * _BLOCK)]
    assert drawn[-3 * _BLOCK:][:_BLOCK + 100] == ahead
    assert drawn == [b.uniform() for _ in range(len(drawn))]


@pytest.mark.parametrize("make", [lambda: SeededSource(3), lambda: ReplaySource([0.25] * 9)])
def test_uniform_returns_a_python_float(make):
    src = make()
    assert type(src.uniform()) is float
    src.peek(4)
    src.advance(2)
    assert type(src.uniform()) is float


def test_replay_peek_returns_what_is_left():
    src = ReplaySource([0.1, 0.9, 0.5])
    assert src.uniform() == 0.1
    assert src.peek(5).tolist() == [0.9, 0.5]
    assert src.remaining == 2
    src.advance(1)
    assert src.peek(1).tolist() == [0.5]
    with pytest.raises(ReplayExhaustedError):
        src.advance(2)
    assert src.remaining == 0 and len(src.peek(1)) == 0


def test_source_without_look_ahead_says_so():
    class Constant(RandomSource):
        def uniform(self):
            return 0.5

    src = Constant()
    assert src.uniform_matrix(1, 2).tolist() == [[0.5, 0.5]]
    with pytest.raises(NotImplementedError, match="peek"):
        src.peek(1)
    with pytest.raises(NotImplementedError, match="peek"):
        src.advance(1)
    cfg = SvtConfig(epsilon=1.0, k=1, threshold=0.0, theta=0.5)
    with pytest.raises(NotImplementedError, match="Constant defines no peek"):
        gap_svt(QuerySet((1.0,)), cfg, src)


def test_replay_source_validates_range():
    with pytest.raises(ValueError):
        ReplaySource([1.0])
    with pytest.raises(ValueError):
        ReplaySource([-0.2])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moments_match_closed_forms(kind):
    n = 1_000_000
    xs = draw_many(kind, SeededSource(12345), n)
    mean = xs.mean()
    var = xs.var()
    se_mean = math.sqrt(variance_of(kind) / n)
    centered = xs - mean
    se_var = math.sqrt(max((centered**4).mean() - var**2, 0.0) / n)
    assert abs(mean - mean_of(kind)) < 3.0 * se_mean
    assert abs(var - variance_of(kind)) < 3.0 * se_var


def test_geometric_empirical_mean_matches_mass_function():
    # Mean of the mass p(1-p)^n on {0, 1, ...} is (1-p)/p, i.e. 1.0 at p=1/2.
    xs = draw_many(Geometric(0.5), SeededSource(99), 1_000_000)
    assert xs.mean() == pytest.approx(1.0, abs=0.01)


def test_conditional_logistic_closed_form_at_zero_location():
    # u = 0.5 maps into the surviving CDF segment (0.5, 1) at 0.75: ln 3.
    value = sample_logistic_nonneg(0.0, ReplaySource([0.5]))
    assert value == pytest.approx(math.log(3.0), abs=1e-12)


def test_conditional_logistic_matches_unconditional_far_right():
    # At location +50 the conditioning removes e^-50 of the mass.
    src = SeededSource(5)
    xs = np.fromiter(
        (sample_logistic_nonneg(50.0, src) for _ in range(100_000)), dtype=float
    )
    ks = stats.kstest(xs, stats.logistic(loc=50.0).cdf).statistic
    assert ks < 0.02


def _rejection_logistic_nonneg(location, src):
    # Reference sampler: draw Logistic(location) until positive.
    while True:
        x = Logistic(location).inverse_cdf(src.uniform())
        if x > 0.0:
            return x


@pytest.mark.parametrize("location", [-3.0, 0.0, 3.0])
def test_conditional_logistic_matches_rejection_oracle(location):
    n = 100_000
    src_a = SeededSource(21)
    src_b = SeededSource(22)
    direct = np.fromiter(
        (sample_logistic_nonneg(location, src_a) for _ in range(n)), dtype=float
    )
    rejected = np.fromiter(
        (_rejection_logistic_nonneg(location, src_b) for _ in range(n)), dtype=float
    )
    ks = stats.ks_2samp(direct, rejected).statistic
    assert ks < 0.01


def test_conditional_logistic_always_positive():
    src = SeededSource(1)
    assert all(
        sample_logistic_nonneg(loc, src) > 0.0
        for loc in (-40.0, -1.0, 0.0, 2.0)
        for _ in range(250_000)
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_family_table_agrees_with_its_kind(family):
    for eps in np.geomspace(0.01, 10.0, 31):
        for spread in (1.0, 2.0, 20.0, 50.0):
            noise = FamilyNoise(family, float(eps), spread)
            kind = noise.kind
            assert noise.variance == pytest.approx(kind.variance, rel=1e-12, abs=0.0)
            if family == "geometric":
                # 1/p against (1-p)/p: the offset cancels in every gap.
                assert noise.centre - kind.mean == pytest.approx(
                    1.0, rel=0.0, abs=1e-12 * noise.centre
                )
            else:
                assert noise.centre == kind.mean


def test_geometric_table_variance_where_kind_cannot_be_built():
    # 1 - e^-50 rounds to 1; theta_optimal still evaluates the variance here.
    noise = FamilyNoise("geometric", 100.0, 2.0)
    with pytest.raises(ValueError):
        noise.kind
    assert noise.variance == pytest.approx(math.exp(-50.0), rel=1e-12)


def test_family_names():
    assert [canonical_family(n) for n in (" Lap", "exp", "GEO")] == list(FAMILIES)
    assert FamilyNoise("exp", 1.0).family == "exponential"
    with pytest.raises(ValueError, match="unknown noise family"):
        FamilyNoise("gaussian", 1.0)
