import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from frameseq import spectrum
from frameseq.spectrum import (
    FourierProfile,
    Piece,
    QuadratureError,
    TimeEnvelope,
    autocorrelation,
)
from frameseq.translation_sets import g_function


def quad_autocorrelation(profile, x):
    """Independent oracle: integrate phi_hat^2 e^{2 pi i x xi} numerically."""
    lo, hi = profile.support()
    kinks = sorted({p.lo for p in profile.pieces} | {p.hi for p in profile.pieces})

    def f(xi):
        v = 0.0
        for p in profile.pieces:
            if p.lo <= xi < p.hi:
                v = p.eval_inside(np.array([xi]))[0]
        return v

    re = quad(lambda t: f(t) ** 2 * math.cos(2 * math.pi * x * t), lo, hi,
              points=kinks, limit=300)[0]
    im = quad(lambda t: f(t) ** 2 * math.sin(2 * math.pi * x * t), lo, hi,
              points=kinks, limit=300)[0]
    return re + 1j * im


def test_norm_squared_exact(box, tent, taper):
    assert box.norm_squared() == 1.0
    assert abs(tent.norm_squared() - 1.0 / 3.0) < 1e-15
    assert abs(taper.norm_squared() - 2.0 / 3.0) < 1e-15


def test_box_autocorrelation_closed_form(box):
    # integral of e^{2 pi i x xi} over [0,1] is e^{i pi x} sinc(x)
    for x in (0.25, 0.5, 1.0, 3.7):
        want = np.exp(1j * np.pi * x) * np.sinc(x)
        assert abs(autocorrelation(box, x) - want) < 1e-14
    assert abs(autocorrelation(box, 0.5) - 2j / np.pi) < 1e-15
    assert abs(autocorrelation(box, 1.0)) < 1e-15


def test_taper_autocorrelation_frozen_and_quad(taper):
    # frozen oracle values, cross-checked against scipy.quad at build time
    assert abs(autocorrelation(taper, 0.0) - 2.0 / 3.0) < 1e-15
    want = -0.101321183642338 + 0.223658011958294j
    assert abs(autocorrelation(taper, 1.0) - want) < 1e-14
    for x in (0.3, 1.0, 2.5, 7.25):
        assert abs(autocorrelation(taper, x) - quad_autocorrelation(taper, x)) < 1e-12


def test_autocorrelation_symmetry_and_bound(taper, tent, rng):
    for profile in (taper, tent):
        n2 = profile.norm_squared()
        for x in rng.uniform(-8, 8, size=12):
            ac = autocorrelation(profile, float(x))
            rev = autocorrelation(profile, float(-x))
            assert abs(ac - np.conj(rev)) < 1e-13
            assert abs(ac) <= n2 + 1e-13  # Cauchy-Schwarz


def test_piece_validation():
    with pytest.raises(ValueError):
        Piece(0.0, 1.0, const=1.0, affine=(1.0, 0.0))
    with pytest.raises(ValueError):
        Piece(0.0, 1.0)
    with pytest.raises(ValueError):
        Piece(0.0, 1.0, samples=np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        Piece(1.0, 0.5, const=1.0)


@pytest.mark.parametrize("c", [0.0, 0.75, 2.0])
def test_const_is_the_slope_zero_affine_piece(c):
    # the keyword, the JSON shape and the affine pair build one piece, with the same values
    spellings = [
        Piece(-0.5, 1.0, const=c),
        Piece.from_json({"lo": -0.5, "hi": 1.0, "shape": {"const": c}}),
        Piece(-0.5, 1.0, affine=(0.0, c)),
    ]
    xs = np.array([-0.75, -0.5, -0.25, 0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, 1.5, 2.0])
    values = []
    for piece in spellings:
        assert piece == spellings[-1] and piece.samples is None and not hasattr(piece, "const")
        profile = FourierProfile([piece, Piece(1.0, 2.0, affine=(1.0, -1.0))])
        values.append(profile.eval(xs))
        back = FourierProfile.from_json(json.loads(json.dumps(profile.to_json())))
        assert back.pieces == profile.pieces and np.array_equal(back.eval(xs), values[-1])
    assert all(np.array_equal(v, values[0]) for v in values)
    assert values[0][1:6].tolist() == [c] * 5


def test_negative_const_is_refused_in_both_spellings():
    with pytest.raises(ValueError, match="^profile values must be nonnegative$"):
        Piece(0.0, 1.0, const=-0.5)
    with pytest.raises(ValueError, match="^profile values must be nonnegative$"):
        FourierProfile.from_json({"pieces": [{"lo": 0.0, "hi": 1.0, "shape": {"const": -0.5}}]})
    with pytest.raises(ValueError, match="exactly one of const, affine, samples"):
        Piece(0.0, 1.0, const=1.0, samples=[1.0])


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_piece_ends_must_be_finite(lo, hi):
    with pytest.raises(ValueError, match="finite ends"):
        Piece(lo, hi, const=1.0)


@pytest.mark.parametrize("lo, hi", [(0.0, 1e300), (0.0, 1e200), (-1e300, 1e300)])
def test_profile_norm_must_be_finite(lo, hi):
    # ||phi||^2 overflows a double here; Python's float ** raises OverflowError, which the profile turns into a refusal
    with pytest.raises(ValueError, match="must be positive and finite"):
        FourierProfile(pieces=[Piece(lo, hi, const=1.0)])
    with pytest.raises(ValueError, match="must be positive and finite"):
        FourierProfile.from_json({"pieces": [{"lo": lo, "hi": hi, "shape": {"const": 1.0}}]})


@pytest.mark.parametrize("samples", [[1e200, 1.0], [1e154, 1e154]])
def test_profile_samples_whose_squares_overflow_are_refused(samples):
    # the square, or the sum of squares, passes the largest double; refused without numpy's overflow warning
    with pytest.raises(ValueError, match="must be positive and finite"):
        FourierProfile(pieces=[Piece(0.0, 1.0, samples=samples)])


@pytest.mark.parametrize(
    "piece",
    [Piece(0.25, 1.75, affine=(1.6670099920820399e-161, -4.1675249802050997e-162)), Piece(0.0, 1.0, const=1e-161),
     Piece(0.0, 1.0, samples=[0.0, 1e-150])],
)
def test_profile_pieces_whose_squares_underflow_are_refused(piece):
    # a sloped piece this small squares to exact zeros on a band around its root, zeros no cell of Phi_b accounts for
    with pytest.raises(ValueError, match="would underflow"):
        FourierProfile(pieces=[piece])
    FourierProfile(pieces=[Piece(-1.0, 0.0, const=0.0), Piece(0.0, 1.0, affine=(1e-100, 0.0))])  # 0 or large enough


def test_profile_pieces_must_be_disjoint_sorted():
    with pytest.raises(ValueError):
        FourierProfile(pieces=[Piece(0.0, 0.6, const=1.0), Piece(0.5, 1.0, const=1.0)])


def test_profile_json_roundtrip(taper):
    blob = json.dumps(taper.to_json())
    back = FourierProfile.from_json(json.loads(blob))
    xs = np.linspace(-0.5, 1.5, 301)
    assert np.array_equal(taper.eval(xs), back.eval(xs))


def test_samples_profile_json_roundtrip():
    vals = np.array([0.5, 1.0, 0.25, 0.75])
    prof = FourierProfile(pieces=[Piece(0.0, 1.0, samples=vals)])
    back = FourierProfile.from_json(prof.to_json())
    xs = np.array([0.1, 0.3, 0.6, 0.9])
    assert np.allclose(prof.eval(xs), back.eval(xs))
    assert np.allclose(back.pieces[0].samples, vals)


def test_envelope_constructors_and_refusals():
    env = TimeEnvelope.power(0.75)
    assert float(env.F(1.0)) <= 1.0
    assert float(env.F(16.0)) == 16.0**-0.75
    with pytest.raises(ValueError):
        TimeEnvelope.power(0.5)  # needs a > 1/2
    with pytest.raises(ValueError):
        TimeEnvelope.exponential(-1.0, {"xlog": {}})


def test_envelope_quadrature_tolerance_guard(monkeypatch):
    # with no relative tolerance only the underflow floor is left, far below
    # the rule's roundoff floor: the kernel refuses at once, not after
    # bisecting every piece until memory runs out
    monkeypatch.setattr(spectrum, "_QUAD_RTOL", 0.0)
    with pytest.raises(QuadratureError):
        g_function(TimeEnvelope.exponential(0.5, {"xlog": {}}), 1.0)


