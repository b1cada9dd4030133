import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from frameseq import spectrum, translation_sets
from frameseq.periodization import GRID_CAP, ResourceLimitError
from frameseq.spectrum import QuadratureError, TimeEnvelope, _integrate_gaps, _tail_F2
from frameseq.translation_sets import (
    DyadicBlocks,
    TranslationSet,
    _density_sorted,
    _pair_g_sum,
    _pair_g_sum_direct,
    _pair_g_sum_fft,
    density,
    density_exponent_fit,
    g_equivalence_check,
    g_function,
    interval_energy_test,
    upper_bound_necessary,
    upper_bound_sufficient,
)


def brute_density(points, x):
    # independent oracle: closed windows anchored at each set point
    pts = sorted(points)
    best = 0
    for t in pts:
        best = max(best, sum(1 for p in pts if t <= p <= t + x))
    return best


@given(
    pts=st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True),
    x=st.integers(0, 120),
)
@settings(max_examples=200, deadline=None)
def test_density_matches_brute_force(pts, x):
    assert density(np.array(sorted(pts)), float(x)) == brute_density(pts, x)


def _brute_sweep(lam, x):
    # the sweep's definition, pair by pair: max over i of #{j : 0 <= lam_j - lam_i <= x}
    return max(sum(1 for q in lam if 0 <= q - p <= x) for p in lam)


@given(
    pts=st.one_of(
        st.lists(st.integers(-60, 60), min_size=1, max_size=25, unique=True),
        st.lists(st.floats(-60.0, 60.0, allow_subnormal=False), min_size=1, max_size=25, unique=True),
    ),
    xs=st.lists(st.floats(0.0, 150.0), min_size=1, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_density_sweep_matches_brute_force(pts, xs):
    lam = np.sort(np.array(pts))
    if lam.dtype.kind == "i":
        lam = lam.astype(np.int64)
    span = float(lam[-1] - lam[0])
    grid = np.array(xs + [0.0, span, span + 0.5, 2.0 * span + 1.0])
    got = _density_sorted(lam, grid)
    assert got.dtype == np.int64 and got.shape == grid.shape
    assert got.tolist() == [_brute_sweep(lam, x) for x in grid]
    # one window at a time bisects in Python scalars and must agree
    assert [_density_sorted(lam, float(x)) for x in grid] == got.tolist()
    assert got[-3] == lam.size  # x >= span holds the whole set


def _full_scan_density(lam, xs):
    # the per-k full scan: m_k over every start, then D(x) = 1 + max{k : m_k <= x}
    m = np.array([0] + [(lam[k:] - lam[:-k]).min() for k in range(1, lam.size)])
    return [1 + int(np.flatnonzero(m <= x)[-1]) for x in xs]


def _progression(start, step, size):
    return start + step * np.arange(size, dtype=np.int64)


@st.composite
def probed_sets(draw):
    """Integer sets with few changes of gap, the ones that probe by change points."""
    kind = draw(st.sampled_from(["Z", "mZ", "blocks", "union", "outlier"]))
    if kind == "Z":
        return _progression(draw(st.integers(-3000, 0)), 1, draw(st.integers(64, 3000)))
    if kind == "mZ":
        return _progression(draw(st.integers(-3000, 0)), draw(st.integers(2, 9)), draw(st.integers(64, 2000)))
    if kind == "blocks":
        return DyadicBlocks(draw(st.floats(0.3, 0.8)), draw(st.integers(10, 13))).realize()
    if kind == "union":
        # progressions of different steps laid end to end, some dense, some sparse
        parts, start = [], draw(st.integers(-500, 500))
        for step, size in draw(st.lists(st.tuples(st.integers(1, 12), st.integers(100, 400)), min_size=2, max_size=5)):
            parts.append(_progression(start + step, step, size))
            start = int(parts[-1][-1]) + draw(st.integers(0, 30))
        return np.concatenate(parts)
    lam = _progression(0, draw(st.integers(1, 7)), draw(st.integers(128, 1500)))
    outlier = draw(st.integers(-5000, 12000))
    return np.unique(np.append(lam, outlier))


@given(lam=probed_sets(), xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_density_probes_by_change_points_match_the_full_scan(lam, xs):
    changes = np.count_nonzero(np.diff(lam, 2))
    assert lam.size >= translation_sets._PROBE_MIN and translation_sets._PROBE_RATIO * changes < lam.size
    span = int(lam[-1] - lam[0])
    # window lengths across the span, on the achieved gaps m_k exactly, and past the span
    gaps_at = lam[np.minimum(np.arange(1, lam.size, 37), lam.size - 1)] - lam[0]
    grid = np.concatenate((np.array(xs) * span, gaps_at, gaps_at - 0.5, [0.0, 0.5, span - 1, span, span + 1, 2.0 * span]))
    grid = np.maximum(grid, 0.0)
    want = _full_scan_density(lam, grid)
    assert _density_sorted(lam, grid).tolist() == want
    assert [_density_sorted(lam, float(x)) for x in grid[::5]] == want[::5]


@given(
    pts=st.one_of(
        st.lists(st.integers(-400, 400), min_size=64, max_size=300, unique=True),
        st.lists(st.floats(-400.0, 400.0, allow_subnormal=False), min_size=64, max_size=300, unique=True),
    ),
    xs=st.lists(st.floats(0.0, 900.0), min_size=1, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_density_on_random_and_float_sets_matches_the_full_scan(pts, xs):
    lam = np.sort(np.array(pts))
    if lam.dtype.kind == "i":
        lam = lam.astype(np.int64)
    grid = np.array(xs + [0.0, float(lam[-1] - lam[0])])
    want = _full_scan_density(lam, grid)
    assert _density_sorted(lam, grid).tolist() == want
    assert [_density_sorted(lam, float(x)) for x in grid] == want


def test_density_sweep_single_point_and_refusals():
    for lam in (np.array([7], dtype=np.int64), np.array([0.25])):
        assert _density_sorted(lam, [0.0, 1.0, 1e300]).tolist() == [1, 1, 1]
    for bad in (-1.0, [0.5, -0.5], math.nan):
        with pytest.raises(ValueError):
            _density_sorted(np.arange(4), bad)
    # the generator guard reads the largest window of a grid
    with pytest.raises(ValueError):
        density(TranslationSet.squares(10), [1.0, 500.0])


def test_density_closed_interval_convention():
    lam = TranslationSet.integers(16)
    assert density(lam, 0.0) == 1
    assert density(lam, 1.0) == 2
    assert density(lam, 5.0) == 6


def test_density_window_guard():
    ts = TranslationSet.squares(10)  # span 100
    with pytest.raises(ValueError):
        density(ts, 500.0)
    # explicit sets are counted exactly for any x
    assert density(TranslationSet.explicit([0, 1, 7]), 500.0) == 3


def test_upper_bound_tests_refuse_empty_windows():
    # x_max = 1 left the sufficient test's fit degenerate (nan, a LAPACK complaint);
    # x_max < 4 left the necessary test's quarter window empty
    env, ts = TimeEnvelope.power(1.0), TranslationSet.squares(3)
    for x_max in (1.0, 0.5):
        with pytest.raises(ValueError, match="no window"):
            upper_bound_sufficient(env, ts, x_max=x_max)
    with pytest.raises(ValueError, match="quarter window"):
        upper_bound_necessary(env, ts, x_max=3.0)
    assert upper_bound_sufficient(env, ts, x_max=1.5).verdict in ("converges", "diverges", "undetermined")
    assert upper_bound_necessary(env, ts, x_max=4.0).sup_estimate > 0


def test_density_exponent_fit():
    slope, table = density_exponent_fit(TranslationSet.integers(2048))
    assert abs(slope - 1.0) < 0.01
    assert table["density"][-1] > table["density"][0]
    slope_sq, _ = density_exponent_fit(TranslationSet.squares(100))
    assert abs(slope_sq - 0.5) < 0.05


@pytest.mark.parametrize("n", [48, 49, 53])
def test_density_exponent_fit_reads_its_largest_window_exactly(n):
    # geometric(n) spans 2^n - 1; from n = 49 on its float log2 rounds up to n
    _, windows = density_exponent_fit(TranslationSet.geometric(n))
    assert windows["p"].tolist() == [n - 2.0, n - 1.0]


def test_an_integer_span_past_2_53_is_read_exactly():
    # the span 2^54 - 1 rounds to 2^54 as a float: the fit's largest window and the
    # upper-bound refusal both read it as an int
    ts = TranslationSet.explicit([-(2**53), 2**53 - 1])
    _, windows = density_exponent_fit(ts)
    assert windows["p"].tolist() == [52.0, 53.0]
    for test in (upper_bound_sufficient, upper_bound_necessary):
        with pytest.raises(ValueError, match="exceeds the realized window span 18014398509481983$"):
            test(TimeEnvelope.power(0.75), ts, x_max=2.0**54)


def test_realize_kinds_and_dtypes():
    assert TranslationSet.integers(3).realize().tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert TranslationSet.subgroup(3, 2).realize().tolist() == [-6, -3, 0, 3, 6]
    assert TranslationSet.naturals(4).realize().tolist() == [1, 2, 3, 4]
    assert TranslationSet.squares(4).realize().tolist() == [0, 1, 4, 9, 16]
    assert TranslationSet.powers(4, 3).realize().tolist() == [0, 1, 16, 81]
    assert TranslationSet.geometric(4).realize().tolist() == [1, 2, 4, 8, 16]
    assert TranslationSet.explicit([3.0, 1.0, 2.0]).realize().dtype == np.int64
    assert TranslationSet.explicit([0.5, 1.0]).realize().dtype == np.float64


def test_constructor_refusals():
    with pytest.raises(ValueError):
        TranslationSet.explicit([])
    with pytest.raises(ValueError):
        TranslationSet.explicit([1.0, 1.0])
    with pytest.raises(ValueError):
        TranslationSet.powers(1, 10)
    with pytest.raises(ValueError):
        TranslationSet.dyadic_blocks(1.5, 8)


@pytest.mark.parametrize(
    "alpha, n_max, message",
    [(a, 8, "alpha must lie in (0, 1)") for a in (1.5, 0.0, float("nan"))]
    + [(0.5, n, "n_max out of the supported range [1, 24]") for n in (0, 25)],
)
def test_dyadic_blocks_set_and_index_refuse_alike(alpha, n_max, message):
    # the translation set validates through DyadicBlocks, so both refuse with one message
    with pytest.raises(ValueError, match=re.escape(message)) as by_blocks:
        DyadicBlocks(alpha, n_max)
    with pytest.raises(ValueError) as by_set:
        TranslationSet.dyadic_blocks(alpha, n_max)
    assert str(by_set.value) == str(by_blocks.value)


def test_token_parsing():
    assert TranslationSet.from_token("Z", window=4) == TranslationSet.integers(4)
    assert TranslationSet.from_token("N", window=4) == TranslationSet.naturals(4)
    assert TranslationSet.from_token("mZ:3", window=4) == TranslationSet.subgroup(3, 4)
    assert TranslationSet.from_token("squares:50") == TranslationSet.squares(50)
    assert TranslationSet.from_token("geometric", window=6) == TranslationSet.geometric(6)
    assert TranslationSet.from_token("powers:4:10") == TranslationSet.powers(4, 10)
    assert TranslationSet.from_token("blocks:0.5:8") == TranslationSet.dyadic_blocks(0.5, 8)
    with pytest.raises(ValueError):
        TranslationSet.from_token("Z")
    with pytest.raises(ValueError):
        TranslationSet.from_token("wavelets:3")


def test_list_tokens_parse_to_explicit_sets():
    assert TranslationSet.from_token("list:2.25,0.5,,1.5") == TranslationSet.explicit([0.5, 1.5, 2.25])
    assert TranslationSet.from_token("list:3", window=8) == TranslationSet.explicit([3])
    for token, message in [
        ("list:", "empty list: index token"),
        ("list:,", "empty list: index token"),
        ("list:1,a", "could not convert string to float: 'a'"),
        ("list:1,1", "index set has repeated points"),
        ("list", "unknown translation-set token: 'list'"),
    ]:
        with pytest.raises(ValueError) as exc:
            TranslationSet.from_token(token)
        assert str(exc.value) == message


def test_g_function_frozen_values():
    env = TimeEnvelope.power(0.75)
    assert abs(g_function(env, 0.0) - 3.0) < 1e-12
    assert abs(g_function(env, 1.0) - 3.0) < 1e-12
    assert abs(g_function(env, 16.0) - 1.125) < 1e-12


def test_g_function_against_quadrature():
    env = TimeEnvelope.power(0.8)
    for x in (0.5, 2.0, 7.3):
        int0 = quad(lambda t: float(env.F(t)), 0, x, points=[1.0] if x > 1 else None)[0]
        tail = quad(lambda t: float(env.F(t)) ** 2, x, np.inf)[0]
        want = float(env.F(x)) * int0 + tail
        assert abs(g_function(env, x) - want) < 1e-9
    with pytest.raises(ValueError):
        g_function(env, -1.0)


def test_g_function_power_near_zero_does_not_overflow():
    # F(t) = min(1, t^-1.5): G(0) = G(1/2) = int F^2 = 1 + 1/2, and at 2 the
    # closed forms give F(2) (1 + 2 (1 - 2^-1/2)) + 2^-2 / 2
    g = g_function(TimeEnvelope.power(1.5), [0.0, 0.5, 2.0])
    want = [1.5, 1.5, 2.0**-1.5 * (3.0 - 2.0**0.5) + 0.125]
    assert np.allclose(g, want, rtol=1e-13, atol=0.0)


def _g_reference(env, x):
    """Per-point G from two tight quadratures, independent of the knot sweep."""
    f = lambda t: float(env.F(t))
    int0 = quad(f, 0.0, x, epsabs=0, epsrel=1e-12, limit=400, points=[1.0] if x > 1 else None)[0]
    tail = quad(lambda t: f(t) ** 2, x, np.inf, epsabs=0, epsrel=1e-12, limit=400)[0]
    return f(x) * int0 + tail


@st.composite
def _unsorted_knots(draw):
    xs = draw(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6))
    # 0, 1 and a repeated point are the knots a sweep can mishandle
    return draw(st.permutations(xs + [0.0, 1.0, xs[0]]))


@given(
    delta=st.floats(0.3, 1.0),
    rate=st.one_of(st.just({"xlog": {}}), st.floats(0.4, 0.8).map(lambda b: {"power": {"beta": b}})),
    xs=_unsorted_knots(),
)
@settings(max_examples=40, deadline=None)
def test_g_function_sweep_matches_pointwise_quadrature(delta, rate, xs):
    env = TimeEnvelope.exponential(delta, rate)
    got = g_function(env, xs)
    want = np.array([_g_reference(env, x) for x in xs])
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def _power_int0F_reference(a, x):
    x = np.asarray(x, dtype=float)
    small = np.minimum(x, 1.0)
    out = small.copy()
    big = x > 1.0
    if np.any(big):
        xb = x[big]
        if a == 1.0:
            out[big] = 1.0 + np.log(xb)
        else:
            out[big] = 1.0 + (xb ** (1.0 - a) - 1.0) / (1.0 - a)
    return out


def _g_function_reference(env, x):
    """``g_function`` with the quadrature written out in place, as it stood before ``TimeEnvelope.integrals``."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("G is defined for x >= 0")
    if env.kind == "power":
        out = env.F(x) * _power_int0F_reference(env.a, x) + _tail_F2(env, x)
    else:
        knots, where = np.unique(np.concatenate(([0.0, 1.0], x.ravel())), return_inverse=True)

        def f_and_f2(t):
            f = env.F(t)
            return np.stack((f, f * f))

        gaps_F, gaps_F2 = _integrate_gaps(f_and_f2, knots)
        int0F = np.concatenate(([0.0], np.cumsum(gaps_F)))
        tail = np.cumsum(np.concatenate(([_tail_F2(env, knots[-1])], gaps_F2[::-1])))[::-1]
        where = where[2:].reshape(x.shape)
        out = env.F(x) * int0F[where] + tail[where]
    return float(out[0]) if scalar else out


_MOVE_ENVELOPES = {
    "power 0.55": TimeEnvelope.power(0.55),
    "power 1": TimeEnvelope.power(1.0),
    "power 1.5": TimeEnvelope.power(1.5),
    "exp xlog": TimeEnvelope.exponential(0.3, {"xlog": {}}),
    "exp beta 1/2": TimeEnvelope.exponential(0.5, {"power": {"beta": 0.5}}),
}
_MOVE_POINTS = {
    "scalar 0": 0.0,
    "scalar int": 5,
    "scalar 0-d": np.array(3.7),
    "repeated": [2.0, 2.0, 0.0, 1.0, 1.0],
    "unsorted": [30.0, 0.5, 7.0, 1e-3],
    "2-d": np.array([[0.0, 1.5, 40.0], [3.0, 0.25, 1e3]]),
    "log grid": np.geomspace(1.0, 1e4, 64),
}


def _same(got, want):
    """Equal bit for bit, with the same type, and the same dtype and shape for arrays."""
    if type(got) is not type(want):
        return False
    if isinstance(got, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    if hasattr(got, "__dataclass_fields__"):
        return all(_same(getattr(got, k), getattr(want, k)) for k in got.__dataclass_fields__)
    if isinstance(got, list):
        return len(got) == len(want) and all(_same(a, b) for a, b in zip(got, want))
    return got == want


@pytest.mark.parametrize("points", list(_MOVE_POINTS))
@pytest.mark.parametrize("name", list(_MOVE_ENVELOPES))
def test_g_function_matches_its_inline_reference(name, points):
    env, x = _MOVE_ENVELOPES[name], _MOVE_POINTS[points]
    assert _same(g_function(env, x), _g_function_reference(env, x))


@pytest.mark.parametrize("name", list(_MOVE_ENVELOPES))
def test_envelope_integrals_take_any_shape(name):
    env = _MOVE_ENVELOPES[name]
    for x in (np.array(3.7), np.array([[0.0, 0.5], [3.7, 40.0]])):
        got, flat = env.integrals(x), env.integrals(x.ravel())
        assert all(g.shape == x.shape and np.array_equal(g.ravel(), f) for g, f in zip(got, flat))


@pytest.mark.parametrize("name", list(_MOVE_ENVELOPES))
def test_upper_bound_and_energy_tests_match_the_inline_reference(monkeypatch, name):
    env, ts = _MOVE_ENVELOPES[name], TranslationSet.squares(40)
    intervals = [(0, 100), (0, 1600), (50, 50.5)]

    def run():
        return (
            upper_bound_sufficient(env, ts, x_max=1000.0, n_grid=64),
            upper_bound_necessary(env, ts, x_max=1000.0, n_grid=64),
            interval_energy_test(env, ts, intervals),
        )

    got = run()
    monkeypatch.setattr(translation_sets, "g_function", _g_function_reference)
    want = run()
    assert all(_same(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize(
    "ts",
    [
        TranslationSet.integers(7),
        TranslationSet.subgroup(3, 5),
        TranslationSet.naturals(9),
        TranslationSet.squares(6),
        TranslationSet.powers(3, 5),
        TranslationSet.geometric(8),
        TranslationSet.dyadic_blocks(0.5, 9),
        TranslationSet.dyadic_blocks(0.05, 6),
    ],
    ids=lambda ts: ts.kind,
)
def test_index_sets_are_counted_before_they_are_made(monkeypatch, ts):
    # a cap of exactly the realized size passes, one less refuses, naming the count
    n = ts.realize().size
    monkeypatch.setattr(translation_sets, "GRID_CAP", n)
    assert ts.realize().size == n
    monkeypatch.setattr(translation_sets, "GRID_CAP", n - 1)
    with pytest.raises(ResourceLimitError, match=f"has {n} points, past the cap {n - 1}"):
        ts.realize()


@pytest.mark.parametrize(
    "ts, count",
    [
        (TranslationSet.squares(10**12), 10**12 + 1),
        (TranslationSet.integers(10**12), 2 * 10**12 + 1),
        (TranslationSet.naturals(10**13), 10**13),
        (TranslationSet.dyadic_blocks(0.01, 24), 2**25 - 2),
    ],
    ids=["squares", "integers", "naturals", "blocks"],
)
def test_index_sets_past_the_cap_are_refused(ts, count):
    with pytest.raises(ResourceLimitError, match=f"has {count} points, past the cap {GRID_CAP}"):
        ts.realize()


@given(
    pts=st.lists(st.integers(-200, 200), min_size=1, max_size=40, unique=True),
    x=st.floats(0.0, 500.0),
)
@settings(max_examples=200, deadline=None)
def test_density_integer_path_matches_float(pts, x):
    lam = np.array(sorted(pts), dtype=np.int64)
    assert _density_sorted(lam, x) == _density_sorted(lam.astype(float), x)


def _exponential_closed_forms(delta, x):
    """G for F = exp(-delta x) and for F = exp(-delta sqrt x), in closed form."""
    x = np.asarray(x, dtype=float)
    g_one = np.exp(-delta * x) * -np.expm1(-delta * x) / delta + np.exp(-2 * delta * x) / (2 * delta)
    u = np.sqrt(x)
    int0 = 2.0 * (1.0 - np.exp(-delta * u) * (1.0 + delta * u)) / delta**2
    g_half = np.exp(-delta * u) * int0 + np.exp(-2 * delta * u) * (1.0 + 2 * delta * u) / (2 * delta**2)
    return g_one, g_half


@pytest.mark.parametrize("delta", [0.3, 0.8, 1.7])
def test_g_function_exponential_closed_forms(delta):
    xs = np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 7.5, 30.0, 200.0])
    g_one, g_half = _exponential_closed_forms(delta, xs)
    # beta = 1: F = e^{-delta x}, smooth at 0
    got = g_function(TimeEnvelope.exponential(delta, {"power": {"beta": 1.0}}), xs)
    assert np.allclose(got, g_one, rtol=1e-11, atol=0.0)
    # beta = 1/2: F = e^{-delta sqrt x} has a sqrt endpoint singularity at 0
    got = g_function(TimeEnvelope.exponential(delta, {"power": {"beta": 0.5}}), xs)
    assert np.allclose(got, g_half, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("x", [0.0, 0.3, 5.0, 40.0])
def test_tail_doubling_closed_form(x):
    # int_x^inf e^{-2 delta t} dt = e^{-2 delta x} / (2 delta); the doubling sum
    # adds a bound on what it leaves out, so it can only overshoot, by 1e-10 at most
    for delta in (0.3, 1.7):
        want = math.exp(-2 * delta * x) / (2 * delta)
        got = _tail_F2(TimeEnvelope.exponential(delta, {"power": {"beta": 1.0}}), x)
        assert want * (1 - 1e-13) <= got <= want * (1 + 1e-10)


def test_tail_that_never_closes_raises():
    # F = exp(-x^0.001 / 2) decays so slowly that the doubling sum of F^2
    # never stops, and no partial sum is returned: a limit of the input, so ValueError
    env = TimeEnvelope.exponential(0.5, {"power": {"beta": 1e-3}})
    with pytest.raises(ValueError, match="tail of F.* after 80 doublings"):
        g_function(env, 1.0)
    with pytest.raises(ValueError, match="after 80 doublings"):
        g_function(env, [0.5, 3.0])


def test_underflowing_envelope_is_certified_without_warnings():
    # F = exp(-delta x / log(e + x)) underflows on the far gaps of this grid;
    # its gap integrals used to come back uncertified with a roundoff warning
    env = TimeEnvelope.exponential(0.8067238953787923, {"xlog": {}})
    ts = TranslationSet.integers(5000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        suff = upper_bound_sufficient(env, ts, x_max=1e4, n_grid=86)
        nec = upper_bound_necessary(env, ts, x_max=1e4, n_grid=86)
    assert suff.verdict == "undetermined" and np.isfinite(suff.integral) and suff.integral > 0
    assert nec.verdict == "consistent with bounded product"
    assert np.all(np.isfinite(nec.product)) and nec.sup_estimate > 0


def test_necessary_growth_of_a_product_that_is_0(monkeypatch):
    # F underflows past 0: G D is 0 on every window and its running max used to divide 0 by 0
    env = TimeEnvelope.exponential(1e300, {"xlog": {}})
    ts = TranslationSet.integers(200)
    nec = upper_bound_necessary(env, ts, x_max=256.0)
    assert (nec.growth_half, nec.growth_quarter, nec.sup_estimate) == (1.0, 1.0, 0.0)
    assert nec.verdict == "consistent with bounded product"
    # a product that leaves 0 only in the top half window grows without bound
    monkeypatch.setattr(translation_sets, "g_function", lambda env, xs: np.where(np.asarray(xs) > 128.0, 1.0, 0.0))
    nec = upper_bound_necessary(env, ts, x_max=256.0)
    assert (nec.growth_half, nec.growth_quarter) == (math.inf, math.inf)
    assert nec.verdict == "necessary condition violated (product growing)"


def test_gap_blocks_give_the_same_numbers(monkeypatch):
    # every gap is refined on its own, so integrating the gaps in blocks
    # (which bounds memory for many knots) moves G only by the rounding of
    # the rule's dot products
    env = TimeEnvelope.exponential(0.6, {"power": {"beta": 0.5}})
    xs = np.geomspace(1e-3, 300.0, 40)
    whole = g_function(env, xs)
    monkeypatch.setattr(spectrum, "_GAP_BLOCK", 3)
    assert np.allclose(g_function(env, xs), whole, rtol=1e-14, atol=0.0)


def test_quadrature_miss_raises_naming_the_gap():
    # a pole capped at 1e300 cannot be integrated to 1e-11: the pieces around
    # it shrink to the resolution of doubles and the gap is named
    with pytest.raises(QuadratureError, match=r"gap \[0, 1\]"):
        _integrate_gaps(lambda t: 1.0 / np.maximum(np.abs(t - 0.3), 1e-300)[None], np.array([0.0, 1.0, 2.0]))


def test_pair_sum_sparse_set_skips_the_fft():
    # 25 points spread over 2^23: 300 pairs against a 2^24-point FFT
    env = TimeEnvelope.power(0.75)
    ts = TranslationSet.explicit([0] + [2**k for k in range(24)])
    t0 = time.perf_counter()
    rows = interval_energy_test(env, ts, [(0, 2**23)])
    assert time.perf_counter() - t0 < 0.5
    pts = ts.realize()
    direct = sum(float(g_function(env, float(abs(p - q)))) for p in pts.tolist() for q in pts.tolist())
    assert rows[0].count == 25 and abs(rows[0].pair_sum - direct) <= 1e-12 * direct


@pytest.mark.parametrize(
    "env", [TimeEnvelope.power(0.75), TimeEnvelope.exponential(0.5, {"xlog": {}})], ids=["power", "exp"]
)
def test_pair_sum_paths_agree(env):
    for pts in (TranslationSet.squares(30).realize(), TranslationSet.integers(20).realize()):
        fft, direct = _pair_g_sum_fft(env, pts), _pair_g_sum_direct(env, pts)
        assert abs(fft - direct) <= 1e-12 * direct


@pytest.mark.parametrize(
    "env", [TimeEnvelope.power(0.75), TimeEnvelope.exponential(0.5, {"xlog": {}})], ids=["power", "exp"]
)
def test_pair_sum_direct_block_size_free(monkeypatch, env):
    # 150 points make 11175 pairs, a multiple of neither block; rows split across blocks
    pts = np.sort(np.random.default_rng(3).uniform(0.0, 500.0, 150))
    sums = []
    for block in (97, 4096, 1 << 14):
        monkeypatch.setattr(translation_sets, "_PAIR_BLOCK", block)
        sums.append(_pair_g_sum_direct(env, pts))
    assert max(sums) - min(sums) <= 1e-12 * sums[0]
    # independent oracle: G over the full matrix of ordered-pair distances
    full = float(np.sum(g_function(env, np.abs(pts[:, None] - pts[None, :]))))
    assert abs(sums[0] - full) <= 1e-9 * full


def test_g_equivalence():
    res = g_equivalence_check(TimeEnvelope.power(0.75), x_grid=np.geomspace(1.0, 1e4, 400))
    assert res.C < 10.0
    assert abs(res.C - 5.7) < 0.1
    with pytest.raises(ValueError, match="increasing"):
        g_equivalence_check(TimeEnvelope.power(1.2))
    with pytest.raises(ValueError):
        g_equivalence_check(TimeEnvelope.exponential(1.0, {"xlog": {}}))


def test_necessity_violated_on_integers():
    env = TimeEnvelope.power(0.75)
    res = upper_bound_necessary(env, TranslationSet.integers(4000), x_max=4e3)
    assert res.growth_quarter >= 2.0
    assert "violated" in res.verdict
    assert res.sup_estimate > 100


def test_necessity_bounded_on_fourth_powers():
    env = TimeEnvelope.power(0.75)
    res = upper_bound_necessary(env, TranslationSet.powers(4, 12), x_max=1e4)
    assert res.verdict == "consistent with bounded product"
    # the sup is attained at x = 1 where two consecutive integers meet
    assert abs(res.sup_estimate - 6.0) < 1e-9


def test_sufficiency_verdicts():
    conv = upper_bound_sufficient(TimeEnvelope.power(0.9), TranslationSet.squares(120), x_max=1e4)
    assert conv.verdict == "converges"
    assert conv.exponent < -0.05
    div = upper_bound_sufficient(TimeEnvelope.power(0.75), TranslationSet.integers(6000), x_max=1e4)
    assert div.verdict == "diverges"
    nop = upper_bound_sufficient(
        TimeEnvelope.exponential(1.0, {"xlog": {}}), TranslationSet.squares(120), x_max=1e4
    )
    assert nop.verdict == "undetermined"
    with pytest.raises(ValueError):
        upper_bound_sufficient(TimeEnvelope.power(0.9), TranslationSet.squares(10), x_max=1e4)


def test_interval_energy_rows():
    env = TimeEnvelope.power(0.75)
    rows = interval_energy_test(env, TranslationSet.integers(4096), [(0, 256), (0, 4096)])
    # on Z the per-point energy keeps growing with the interval
    assert rows[1].ratio > 1.5 * rows[0].ratio
    rows_sq = interval_energy_test(env, TranslationSet.squares(128), [(0, 256), (0, 4096)])
    assert rows_sq[1].ratio < 1.5 * rows_sq[0].ratio
    empty = interval_energy_test(env, TranslationSet.squares(10), [(40.5, 48.5)])
    assert empty[0].count == 0 and empty[0].ratio is None and empty[0].note


def test_pair_sum_integer_vs_direct():
    env = TimeEnvelope.power(0.75)
    pts = TranslationSet.squares(12)
    rows_int = interval_energy_test(env, pts, [(0, 144)])
    direct = 0.0
    arr = pts.realize().astype(float)
    for p in arr:
        for q in arr:
            direct += g_function(env, abs(p - q))
    assert abs(rows_int[0].pair_sum - direct) < 1e-8 * direct


@given(
    pts=st.lists(st.integers(-3000, 3000), min_size=1, max_size=40, unique=True),
    a=st.sampled_from([0.6, 0.75, 1.5]),
)
@settings(max_examples=60, deadline=None)
def test_pair_sum_fft_counts_match_brute_force(pts, a):
    # independent oracle: G summed over every ordered pair, one pair at a time
    env = TimeEnvelope.power(a)
    lam = np.sort(np.array(pts, dtype=np.int64))
    direct = sum(float(g_function(env, float(abs(p - q)))) for p in pts for q in pts)
    assert abs(_pair_g_sum(env, lam) - direct) <= 1e-9 * direct
