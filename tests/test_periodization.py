import math

import numpy as np
import pytest
from scipy.integrate import quad

from frameseq.constructions import indicator_profile, ramp_plateau_profile
from frameseq.periodization import (
    dilation_identity_deviation,
    exact_bounds,
    fourier_coeff,
    periodize,
    periodize_at,
    summary,
    write_csv,
)
from frameseq.spectrum import FourierProfile, Piece


def test_box_periodization_constant(box):
    ps = periodize(box, 1.0, 4096)
    assert np.max(np.abs(ps.values - 1.0)) < 1e-13
    ps2 = periodize(box, 2.0, 1024)
    assert np.max(np.abs(ps2.values - 2.0)) < 1e-13


def test_tent_periodization_matches_pointwise(tent):
    ps = periodize(tent, 1.0, 512)
    grid = ps.grid()
    # only the n = 0 translate hits [0, 1): Phi_1 = tent(xi)^2
    want = tent.eval(grid) ** 2
    assert np.max(np.abs(ps.values - want)) < 1e-14


def test_mean_is_b_times_norm(box, tent, taper):
    # grid mean is midpoint quadrature of Phi_b: O(M^-2) for kinked profiles
    for profile in (box, tent, taper):
        for b in (1.0, 2.0, 0.5):
            coarse = periodize(profile, b, 1024)
            fine = periodize(profile, b, 4096)
            target = b * profile.norm_squared()
            err_coarse = abs(coarse.mean() - target)
            err_fine = abs(fine.mean() - target)
            assert err_fine < 1e-6
            if err_coarse > 1e-12:
                assert err_fine < 0.3 * err_coarse


def test_periodize_at_agrees_with_grid(taper):
    ps = periodize(taper, 2.0, 256)
    again = periodize_at(taper, 2.0, ps.grid())
    assert np.max(np.abs(ps.values - again)) == 0.0


def test_fourier_coeff_against_quadrature(taper):
    ps = periodize(taper, 2.0, 8192)

    def oracle(n):
        re = quad(lambda x: float(periodize_at(taper, 2.0, x)) * math.cos(2 * math.pi * n * x), 0, 1, limit=200)[0]
        im = quad(lambda x: float(periodize_at(taper, 2.0, x)) * -math.sin(2 * math.pi * n * x), 0, 1, limit=200)[0]
        return re + 1j * im

    for n in (0, 1, 3):
        assert abs(fourier_coeff(ps, n) - oracle(n)) < 1e-7


def test_fourier_coeff_hermitian(taper):
    ps = periodize(taper, 2.0, 1024)
    for n in (1, 2, 7):
        assert abs(fourier_coeff(ps, -n) - np.conj(fourier_coeff(ps, n))) < 1e-15
    with pytest.raises(ValueError):
        fourier_coeff(ps, 512)


def test_cell_constant_flag_and_exact_coeffs(half, taper):
    ps = periodize(half, 1.0, 256)
    assert ps.cell_constant
    # exact coefficient of chi_[0,1/2): c_n = (1 - e^{-i pi n}) / (2 pi i n)
    for n in (1, 2, 3, 8, 100):
        want = 0.0 if n % 2 == 0 else 1.0 / (1j * math.pi * n)
        assert abs(fourier_coeff(ps, n) - want) < 1e-15
    assert not periodize(taper, 2.0, 256).cell_constant


def test_zero_count_interior_and_wrapped():
    # the zero cells of indicator(1/4, 3/4) at b = 1 wrap through xi = 1: one run continuing past 1
    (lo, hi), = exact_bounds(indicator_profile(0.25, 0.75), 1.0).zero_runs()
    assert (lo, hi) == (0.75, 1.25)
    assert exact_bounds(indicator_profile(0.0, 0.5), 1.0).zero_runs() == [(0.5, 1.0)]
    # a Phi_b that only touches zero has no zero run
    assert exact_bounds(indicator_profile(0.0, 1.0), 1.0).zero_runs() == []


def test_zero_run_through_zero_spans_several_cells():
    # const 0 pieces add breakpoints inside the zero set: cells [0.5, 0.8), [0.8, 0.9),
    # [0.9, 0.95) and [0.95, 1.05) are zero cells, one run through xi = 0
    profile = FourierProfile([
        Piece(-0.05, 0.05, const=0.0),
        Piece(0.05, 0.5, const=1.0),
        Piece(0.8, 0.9, const=0.0),
    ])
    eb = exact_bounds(profile, 1.0)
    assert int(eb.zero.sum()) == 4
    (lo, hi), = eb.zero_runs()
    assert abs(lo - 0.5) < 1e-15 and abs(hi - 1.05) < 1e-15
    assert abs(eb.zero_measure - 0.55) < 1e-15


@pytest.mark.parametrize("m_factor", [2, 3])
def test_dilation_identity(box, tent, taper, m_factor):
    for profile in (box, tent, taper):
        dev = dilation_identity_deviation(profile, 1.0, m_factor, 2048)
        assert dev < 1e-10


def test_summary_and_csv(tmp_path, taper):
    ps = periodize(taper, 2.0, 256)
    info = summary(ps, exact_bounds(taper, 2.0))
    assert info["b"] == 2.0 and info["grid_size"] == 256
    # the bounds are the exact cells': Phi_2 = 1 + (1 - xi)^2 runs from 1 to 2
    assert abs(info["sup"] - 2.0) < 1e-12 and abs(info["inf_nonzero"] - 1.0) < 1e-12
    assert info["zero_fraction"] == 0.0
    out = tmp_path / "phi.csv"
    write_csv(ps, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "xi,phi"
    assert len(lines) == 257
    x0, v0 = lines[1].split(",")
    assert abs(float(x0) - 0.5 / 256) < 1e-12
    assert abs(float(v0) - ps.values[0]) < 1e-9


def test_periodize_validation(box):
    with pytest.raises(ValueError):
        periodize(box, 0.0, 256)
    with pytest.raises(ValueError):
        periodize(box, 1.0, 100)  # not a power of two


def test_exact_bounds_closed_forms(tent, taper):
    # taper(2, 1) at b = 2: Phi_2 = 1 + (1 - xi)^2 on one cell, so A = 1/2 and B = 1
    eb = exact_bounds(taper, 2.0)
    assert eb.cells == 1 and eb.zero_measure == 0.0
    assert abs(eb.inf / 2 - 0.5) <= eb.budget and abs(eb.sup / 2 - 1.0) <= eb.budget
    # tent at b = 2: Phi_2 = xi^2 + (1 - xi)^2, its minimum at the vertex xi = 1/2
    eb = exact_bounds(tent, 2.0)
    assert abs(eb.inf / 2 - 0.25) <= eb.budget and abs(eb.sup / 2 - 0.5) <= eb.budget
    # tent at b = 1 touches zero at xi = 0 without a zero cell
    eb = exact_bounds(tent, 1.0)
    assert abs(eb.inf) <= eb.budget and eb.zero_measure == 0.0 and not eb.zero.any()
    # ramp(3, 2) at b = 2: xi^2 / 4 plus the plateau on [0, 2 eps), zero on [2/3, 1);
    # the infimum sits at xi = 2 eps, so A = eps^2 / 2 (1/72 up to the plateau's resolution)
    ramp, eps = ramp_plateau_profile(3.0, 2.0)
    eb = exact_bounds(ramp, 2.0)
    assert eb.cells == 3 and abs(eb.zero_measure - 1.0 / 3.0) < 1e-15
    assert abs(eb.inf_nonzero / 2 - eps * eps / 2) <= eb.budget
    assert abs(eb.inf_nonzero / 2 - 1.0 / 72.0) < 1e-7


def test_exact_bounds_constant_and_zero_cells(box, half):
    eb = exact_bounds(box, 1.0)
    assert eb.constant and eb.cells == 1 and eb.inf == eb.sup == 1.0
    eb = exact_bounds(half, 1.0)
    assert not eb.constant and eb.zero.tolist() == [False, True]
    assert eb.inf == 0.0 and eb.inf_nonzero == 1.0 and eb.zero_measure == 0.5
