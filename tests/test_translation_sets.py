import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from frameseq.spectrum import TimeEnvelope
from frameseq.translation_sets import (
    TranslationSet,
    _density_sorted,
    _pair_g_sum,
    density,
    density_exponent_fit,
    g_equivalence_check,
    g_function,
    interval_energy_test,
    is_sparse,
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


def test_density_exponent_fit():
    slope, table = density_exponent_fit(TranslationSet.integers(2048))
    assert abs(slope - 1.0) < 0.01
    assert table["density"][-1] > table["density"][0]
    slope_sq, _ = density_exponent_fit(TranslationSet.squares(100))
    assert abs(slope_sq - 0.5) < 0.05


def test_realize_kinds_and_dtypes():
    assert TranslationSet.integers(3).realize().tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert TranslationSet.subgroup(3, 2).realize().tolist() == [-6, -3, 0, 3, 6]
    assert TranslationSet.naturals(4).realize().tolist() == [1, 2, 3, 4]
    assert TranslationSet.squares(4).realize().tolist() == [0, 1, 4, 9, 16]
    assert TranslationSet.powers(4, 3).realize().tolist() == [0, 1, 16, 81]
    assert TranslationSet.geometric(4).realize().tolist() == [1, 2, 4, 8, 16]
    assert TranslationSet.explicit([3.0, 1.0, 2.0]).realize().dtype == np.int64
    assert TranslationSet.explicit([0.5, 1.0]).realize().dtype == np.float64
    assert TranslationSet.integers(5).is_integer
    assert not TranslationSet.explicit([0.5, 1.0]).is_integer


def test_constructor_refusals():
    with pytest.raises(ValueError):
        TranslationSet.explicit([])
    with pytest.raises(ValueError):
        TranslationSet.explicit([1.0, 1.0])
    with pytest.raises(ValueError):
        TranslationSet.powers(1, 10)
    with pytest.raises(ValueError):
        TranslationSet.dyadic_blocks(1.5, 8)


def test_token_and_json_roundtrip():
    cases = [
        TranslationSet.from_token("Z", window=4),
        TranslationSet.from_token("mZ:3", window=4),
        TranslationSet.from_token("squares:50"),
        TranslationSet.from_token("powers:4:10"),
        TranslationSet.from_token("blocks:0.5:8"),
        TranslationSet.explicit([0.0, 2.5, 7.0]),
    ]
    for ts in cases:
        back = TranslationSet.from_json(ts.to_json())
        assert np.array_equal(back.realize(), ts.realize())
    assert TranslationSet.from_token("Z", window=4) == TranslationSet.integers(4)
    dyadic = TranslationSet.from_json({"dyadic": {"alpha": 0.5, "n_max": 8}})
    assert dyadic == TranslationSet.dyadic_blocks(0.5, 8)
    for bad in ({"wavelets": {}}, {"realize": {}}, {"squares": {"n": 4}}, {"squares": {}}, {"squares": 4}):
        with pytest.raises(ValueError):
            TranslationSet.from_json(bad)
    with pytest.raises(ValueError):
        TranslationSet.from_token("Z")
    with pytest.raises(ValueError):
        TranslationSet.from_token("wavelets:3")


def test_is_sparse():
    assert is_sparse(TranslationSet.squares(64)).sparse
    assert not is_sparse(TranslationSet.integers(64)).sparse
    diag = is_sparse(TranslationSet.geometric(10))
    assert diag.sparse and diag.gaps_nondecreasing
    with pytest.raises(ValueError):
        is_sparse(TranslationSet.explicit([0.5, 1.25]))


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


@given(
    pts=st.lists(st.integers(-200, 200), min_size=1, max_size=40, unique=True),
    x=st.floats(0.0, 500.0),
)
@settings(max_examples=200, deadline=None)
def test_density_integer_path_matches_float(pts, x):
    lam = np.array(sorted(pts), dtype=np.int64)
    assert _density_sorted(lam, x) == _density_sorted(lam.astype(float), x)


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
