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
    eval_spectrum,
    time_side_values,
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
                v = p.eval(np.array([xi]))[0]
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


def test_time_side_values_closed_forms(box, tent):
    xs = np.array([0.25, 1.5, 3.0, 7.5])
    want_box = np.exp(1j * np.pi * xs) * np.sinc(xs)
    assert np.max(np.abs(time_side_values(box, xs) - want_box)) < 1e-14
    # tent transform: e^{i pi x} * (1/2) * sinc(x/2)^2
    want_tent = np.exp(1j * np.pi * xs) * 0.5 * np.sinc(xs / 2.0) ** 2
    assert np.max(np.abs(time_side_values(tent, xs) - want_tent)) < 1e-14


def test_piece_validation():
    with pytest.raises(ValueError):
        Piece(0.0, 1.0, const=1.0, affine=(1.0, 0.0))
    with pytest.raises(ValueError):
        Piece(0.0, 1.0)
    with pytest.raises(ValueError):
        Piece(0.0, 1.0, samples=np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        Piece(1.0, 0.5, const=1.0)


def test_profile_pieces_must_be_disjoint_sorted():
    with pytest.raises(ValueError):
        FourierProfile(pieces=[Piece(0.0, 0.6, const=1.0), Piece(0.5, 1.0, const=1.0)])


def test_profile_json_roundtrip(taper):
    blob = json.dumps(taper.to_json())
    back = FourierProfile.from_json(json.loads(blob))
    xs = np.linspace(-0.5, 1.5, 301)
    for p, q in zip(taper.pieces, back.pieces):
        assert np.allclose(p.eval(xs), q.eval(xs))


def test_samples_profile_json_roundtrip():
    vals = np.array([0.5, 1.0, 0.25, 0.75])
    prof = FourierProfile(pieces=[Piece(0.0, 1.0, samples=vals)])
    back = FourierProfile.from_json(prof.to_json())
    xs = np.array([0.1, 0.3, 0.6, 0.9])
    assert np.allclose(prof.pieces[0].eval(xs), back.pieces[0].eval(xs))
    assert np.allclose(back.pieces[0].samples, vals)


def test_envelope_constructors_and_refusals():
    env = TimeEnvelope.power(0.75)
    assert float(env.F(1.0)) <= 1.0
    assert float(env.F(16.0)) == 16.0**-0.75
    with pytest.raises(ValueError):
        TimeEnvelope.power(0.5)  # needs a > 1/2
    with pytest.raises(ValueError):
        TimeEnvelope.exponential(-1.0, {"xlog": {}})


def test_envelope_autocorrelation_bracket():
    env = TimeEnvelope.power(0.8)
    a0 = autocorrelation(env, 0.0)
    assert abs(a0 - 2.0 * (1.0 + 1.0 / 0.6)) < 1e-6
    for x in (0.5, 1.0, 4.0):
        assert abs(autocorrelation(env, x)) <= a0 + 1e-6
    assert abs(autocorrelation(env, 3.0) - autocorrelation(env, -3.0)) < 1e-10
    for a in (1e17, math.inf, math.nan):  # c - 1, c and c + 1 merge or are not numbers
        with pytest.raises(ValueError, match="finite shift below 2"):
            autocorrelation(env, a)


def _power_pair_tail(a, c, h):
    """``int_h^inf (t^2 - c^2)^-a dt`` for ``h > c``, by its binomial series."""
    total, coef = 0.0, 1.0
    for k in range(60):
        term = coef * c ** (2 * k) * h ** (1 - 2 * a - 2 * k) / (2 * a + 2 * k - 1)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        coef *= (a + k) / (k + 1)
    return total


_S12 = math.log2(0.4)
# name: (envelope, F written out independently, kinks of F, power tail (a, scale) or None)
_ENVELOPES = {
    "power 0.55": (TimeEnvelope.power(0.55), lambda x: min(1.0, x**-0.55) if x else 1.0, [1.0], (0.55, 1.0)),
    "power 0.75": (TimeEnvelope.power(0.75), lambda x: min(1.0, x**-0.75) if x else 1.0, [1.0], (0.75, 1.0)),
    "power 1.5": (TimeEnvelope.power(1.5), lambda x: min(1.0, x**-1.5) if x else 1.0, [1.0], (1.5, 1.0)),
    "xlog 0.3": (
        TimeEnvelope.exponential(0.3, {"xlog": {}}),
        lambda x: math.exp(-0.3 * x / math.log(math.e + x)), [], None,
    ),
    "beta 1/2": (
        TimeEnvelope.exponential(1.0, {"power": {"beta": 0.5}}), lambda x: math.exp(-math.sqrt(x)), [], None,
    ),
    "table -2": (
        TimeEnvelope.table([1.0, 2.0, 4.0], [1.0, 0.4, 0.1]),
        lambda x: 1.0 if x <= 1 else (x**_S12 if x <= 2 else 1.6 / x**2), [1.0, 2.0], (2.0, 1.6**2),
    ),
}


def _autocorrelation_oracle(F, kinks, power_tail, a):
    """``2 int_0^inf F(t + c) F(|t - c|) dt``, ``c = |a| / 2``, by quad split at
    the kinks and over doubling windows; power tails add their series past the last."""
    c = abs(a) / 2
    f = lambda t: F(t + c) * F(abs(t - c))
    pts = {0.0, c, c + 1.0}
    for k in kinks:
        pts |= {p for p in (k - c, c - k, c + k) if p > 0}
    pts = sorted(pts)
    total = sum(quad(f, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0] for lo, hi in zip(pts, pts[1:]))
    h = pts[-1]
    for _ in range(40 if power_tail is None else 8):
        piece = quad(f, h, 2 * h, epsabs=0, epsrel=1e-13, limit=200)[0]
        total, h = total + piece, 2 * h
        if piece < 1e-17 * total:
            break
    if power_tail is not None:
        total += power_tail[1] * _power_pair_tail(power_tail[0], c, h)
    return 2 * total


@pytest.mark.parametrize("name", list(_ENVELOPES))
def test_envelope_autocorrelation_matches_quad_oracle(name):
    # "xlog 0.3" at shift 30 used to raise QuadratureError at its default tolerance
    env, F, kinks, power_tail = _ENVELOPES[name]
    a0 = autocorrelation(env, 0.0)
    assert abs(a0 - 2.0 * g_function(env, 0.0)) <= 1e-12 * a0
    for a in (0.0, 0.7, 3.0, 30.0, 100.0, 500.0):
        got = autocorrelation(env, a)
        assert abs(got - _autocorrelation_oracle(F, kinks, power_tail, a)) <= 1e-10 * got
        assert autocorrelation(env, -a) == got and 0.0 < got <= a0


def test_envelope_power_frozen_value():
    env = TimeEnvelope.power(0.75)
    assert abs(autocorrelation(env, 2.0) - 5.478475185232736) < 1e-9


def test_envelope_admissibility():
    # x/log x rate diverges, x^(1/2) rate has convergent doubling increments
    slow = TimeEnvelope.exponential(1.0, {"xlog": {}}).admissibility()
    assert slow["divergent"] and slow["doubling_ok"] and slow["admissible"]
    fast = TimeEnvelope.exponential(1.0, {"power": {"beta": 0.5}}).admissibility()
    assert not fast["divergent"] and not fast["admissible"]
    with pytest.raises(ValueError):
        TimeEnvelope.power(0.75).admissibility()


def test_envelope_table_monotone_refusal():
    with pytest.raises(ValueError):
        TimeEnvelope.table(np.array([1.0, 2.0, 4.0]), np.array([0.5, 0.8, 0.1]))


def test_envelope_table_refuses_a_tail_that_is_not_square_integrable():
    for slope in (-0.4, -0.5):
        with pytest.raises(ValueError, match=f"slope {slope:g} >= -1/2"):
            TimeEnvelope.table([1.0, 2.0], [1.0, 2.0**slope])


def test_envelope_table_tail_extrapolation():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    env = TimeEnvelope.table(xs, xs**-1.5)
    # log-log extrapolation keeps the power tail beyond the table
    assert abs(float(env.F(64.0)) - 64.0**-1.5) < 1e-12
    assert env.integrable


def test_envelope_quadrature_tolerance_guard(monkeypatch):
    # with no relative tolerance only the underflow floor is left, far below
    # the rule's roundoff floor: the kernel refuses at once, not after
    # bisecting every piece until memory runs out
    monkeypatch.setattr(spectrum, "_QUAD_RTOL", 0.0)
    with pytest.raises(QuadratureError):
        autocorrelation(TimeEnvelope.power(0.6), 1.0)


def test_eval_spectrum_scalar_and_array(taper):
    assert eval_spectrum(taper, 0.25) == 1.0
    assert abs(eval_spectrum(taper, 0.75) - 0.5) < 1e-15
    vals = eval_spectrum(taper, np.array([0.25, 0.75, 2.0]))
    assert vals.shape == (3,)
    assert vals[2] == 0.0


def test_envelope_json_roundtrip():
    for env in (
        TimeEnvelope.power(0.9),
        TimeEnvelope.exponential(0.5, {"xlog": {}}),
        TimeEnvelope.table(np.array([1.0, 4.0]), np.array([1.0, 0.25])),
    ):
        back = TimeEnvelope.from_json(json.loads(json.dumps(env.to_json())))
        xs = np.array([0.5, 1.0, 3.0, 10.0])
        assert np.allclose(back.F(xs), env.F(xs))
