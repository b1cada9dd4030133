import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import frameseq.periodization as periodization
from frameseq.constructions import gallery_profiles, indicator_profile, infimum_spectrum, ramp_plateau_profile, tent_profile
from frameseq.periodization import (
    GRID_CAP,
    ExactBounds,
    InconsistencyError,
    ResourceLimitError,
    _cover_range,
    cell_evidence,
    dilation_identity_deviation,
    exact_bounds,
    fourier_coeff,
    periodize,
    periodize_at,
    summary,
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
            err_coarse = abs(np.mean(coarse.values) - target)
            err_fine = abs(np.mean(fine.values) - target)
            assert err_fine < 1e-6
            if err_coarse > 1e-12:
                assert err_fine < 0.3 * err_coarse


def test_cells_mean_is_b_times_norm(box, tent, taper):
    # the cells integrate Phi_b exactly, so their mean is b ||phi||^2 to roundoff, on no grid
    for profile in (box, tent, taper, ramp_plateau_profile(3.0, 2.0)[0]):
        for b in (1.0, 2.0, 0.5):
            eb = exact_bounds(profile, b)
            assert abs(eb.mean - b * profile.norm_squared()) <= eb.budget
            assert eb.coefficients(0)[0][0] == eb.mean


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


def test_cell_coefficients_closed_form(half):
    # exact coefficient of chi_[0,1/2): c_n = (1 - e^{-i pi n}) / (2 pi i n), c_0 = 1/2
    ns = np.array([1, 2, 3, 8, 100, -7, 261121])
    cells, _ = exact_bounds(half, 1.0).coefficients(np.append(ns, 0))
    want = (1.0 - np.exp(-1j * np.pi * ns)) / (2j * np.pi * ns)
    assert np.max(np.abs(cells - np.append(want, 0.5))) < 1e-15


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


def test_summary_reads_the_exact_cells(taper):
    ps = periodize(taper, 2.0, 256)
    info = summary(ps, exact_bounds(taper, 2.0))
    assert info["b"] == 2.0 and info["grid_size"] == 256
    # the bounds are the exact cells': Phi_2 = 1 + (1 - xi)^2 runs from 1 to 2
    assert abs(info["sup"] - 2.0) < 1e-12 and abs(info["inf_nonzero"] - 1.0) < 1e-12
    assert info["zero_fraction"] == 0.0


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


def test_translate_count_is_capped(tent):
    # at b = 1 the translates of [0, H] that meet [0, 1] are n = -2 .. ceil(H) + 1
    assert _cover_range(indicator_profile(0.0, GRID_CAP - 4.0), 1.0, 0.0, 1.0) == (-2, GRID_CAP - 3)
    with pytest.raises(ResourceLimitError, match=f"sums {GRID_CAP + 1} translates .* past the cap {GRID_CAP}"):
        _cover_range(indicator_profile(0.0, GRID_CAP - 3.0), 1.0, 0.0, 1.0)
    with pytest.raises(ResourceLimitError, match="1000000000004 translates"):
        periodize_at(indicator_profile(0.0, 1e12), 1.0, np.array([0.5]))
    # large spacings on a small support stay well inside the cap
    n_lo, n_hi = _cover_range(tent, 1e5, 0.0, 1.0)
    assert n_hi - n_lo + 1 == 100_004


# ---------------------------------------------------------------------------
# the sampler against the translate loop that sweeps every point per translate
# ---------------------------------------------------------------------------


def _piece_by_mask(p, x):
    """A piece's values at ``x`` through the mask ``lo <= x < hi``, as the piece evaluator defines them."""
    inside = (x >= p.lo) & (x < p.hi)
    out = np.zeros_like(x)
    if p.affine is not None:
        out[inside] = p.affine[0] * x[inside] + p.affine[1]
    else:
        width = (p.hi - p.lo) / p.samples.size
        idx = np.clip(np.floor((x[inside] - p.lo) / width).astype(int), 0, p.samples.size - 1)
        out[inside] = p.samples[idx]
    return out


def _periodize_by_translates(profile, b, xi):
    """``Phi_b`` at ``xi``: every translate evaluates every point, the pieces summed before squaring."""
    xi = np.asarray(xi, dtype=float)
    n_lo, n_hi = _cover_range(profile, b, float(xi.min()), float(xi.max()))
    out = np.zeros_like(xi)
    for n in range(n_lo, n_hi + 1):
        x = (xi + n) / b
        vals = np.zeros_like(x)
        for p in profile.pieces:
            vals += _piece_by_mask(p, x)
        out += vals * vals
    return out


def _random_profile(rng):
    """One to four const, affine or sampled pieces that leave gaps, touch, or overlap by 1e-15."""
    pieces, lo = [], float(rng.uniform(-2.0, 1.0))
    for _ in range(int(rng.integers(1, 5))):
        hi = lo + float(rng.uniform(0.05, 1.5))
        kind = int(rng.integers(3))
        if kind == 0:
            pieces.append(Piece(lo, hi, const=float(rng.uniform(0.1, 2.0))))
        elif kind == 1:
            v0, v1 = rng.uniform(0.0, 2.0, 2)
            slope = (v1 - v0) / (hi - lo)
            pieces.append(Piece(lo, hi, affine=(float(slope), float(v0 - slope * lo))))
        else:
            pieces.append(Piece(lo, hi, samples=rng.uniform(0.0, 2.0, int(rng.integers(1, 9)))))
        lo = hi + [0.0, -1e-15, float(rng.uniform(0.0, 0.5))][int(rng.integers(3))]
    return FourierProfile(pieces)


def _edge_points(profile, b):
    """Points whose ``(xi + n) / b`` lands on or within a few ulps of a piece end, or inside an overlap."""
    ends = [e for p in profile.pieces for e in (p.lo, p.hi)]
    ends += [(p.lo + q.hi) / 2.0 for q, p in zip(profile.pieces, profile.pieces[1:]) if p.lo < q.hi]
    xi = np.array([b * e - n for e in ends for n in range(-3, 4)])
    return np.concatenate([xi + k * np.spacing(xi) for k in range(-3, 4)])


@given(seed=st.integers(0, 2**32 - 1), b=st.floats(0.3, 50.0), block=st.sampled_from([37, 2**15]))
@settings(max_examples=80, deadline=None)
def test_sampler_equals_the_translate_loop(seed, b, block):
    rng = np.random.default_rng(seed)
    profile = _random_profile(rng)
    grid = (np.arange(256) + 0.5) / 256
    points = {
        "grid": grid,
        "unsorted, outside [0, 1)": rng.uniform(-3.0, 4.0, 300),
        "reversed grid": grid[::-1],
        "edges": _edge_points(profile, b),
        "2-d": rng.uniform(-1.0, 2.0, (6, 7)),
        "0-d": np.array(float(rng.uniform(-1.0, 2.0))),
    }
    with mock.patch.object(periodization, "_BLOCK", block):
        for name, xi in points.items():
            got = periodize_at(profile, b, xi)
            assert got.shape == xi.shape, name
            assert np.array_equal(got, _periodize_by_translates(profile, b, xi)), name
        assert np.array_equal(periodize(profile, b, 256).values, _periodize_by_translates(profile, b, grid))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_profile_eval_equals_the_piece_masks(seed):
    # unsorted points, on and one ulp either side of every piece end and cell edge, bit for bit
    rng = np.random.default_rng(seed)
    profile = _random_profile(rng)
    edges = profile.breakpoints()
    xi = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), rng.uniform(-3.0, 4.0, 200)))
    rng.shuffle(xi)
    want = np.zeros_like(xi)
    for p in profile.pieces:
        want += _piece_by_mask(p, xi)
    assert np.array_equal(profile.eval(xi), want)
    assert np.array_equal(profile.eval(xi[:120].reshape(10, 12)), want[:120].reshape(10, 12))
    assert profile.eval(xi[0]).shape == () and profile.eval(xi[0]) == want[0]


def _square_bounds_by_loop(profile):
    """``(S, D)`` of ``phi_hat^2`` by the loop over pieces that ``exact_bounds`` ran inline."""
    s_max = d_max = 0.0
    for p in profile.pieces:
        if p.samples is not None:
            s_max = max(s_max, float(np.max(p.samples)) ** 2)
            continue
        s, c = p.affine
        q0, q1, q2 = c * c, 2.0 * s * c, s * s
        for x in (p.lo, p.hi):
            s_max = max(s_max, q0 + q1 * x + q2 * x * x)
            d_max = max(d_max, abs(q1 + 2.0 * q2 * x))
    return s_max, d_max


def _breakpoints_by_loop(profile):
    """Piece ends and every sample-cell edge: the per-sample reference for the cells between value changes."""
    pos = []
    for p in profile.pieces:
        if p.samples is None:
            pos.append(np.array([p.lo, p.hi]))
        else:
            pos.append(p.lo + (p.hi - p.lo) / p.samples.size * np.arange(p.samples.size + 1))
    return np.concatenate(pos)


def _value_change_breakpoints_by_loop(profile):
    """Piece ends and the sample-cell edges between unequal samples, each as :func:`_breakpoints_by_loop` makes it."""
    pos = []
    for p in profile.pieces:
        if p.samples is None:
            pos += [p.lo, p.hi]
            continue
        n, width = p.samples.size, (p.hi - p.lo) / p.samples.size
        pos += [p.lo + width * k for k in range(n + 1) if k in (0, n) or p.samples[k - 1] != p.samples[k]]
    return np.array(pos)


_SHAPES = {entry.name: entry.profile for entry in gallery_profiles()} | {"blocks:0.5:8": infimum_spectrum(0.5, 8, 2**12).profile}


@pytest.mark.parametrize("profile", _SHAPES.values(), ids=_SHAPES.keys())
def test_square_bounds_and_breakpoints_match_the_piece_loops(profile):
    assert profile.square_bounds() == _square_bounds_by_loop(profile)
    assert np.array_equal(profile.breakpoints(), _value_change_breakpoints_by_loop(profile))


def test_sampler_on_breakpoints_at_midpoints():
    # b lo and b hi are grid midpoints: x = mid / b is exactly lo, so the midpoint is in, and hi's is out
    m = 64
    mids = (np.arange(m) + 0.5) / m
    for b in np.geomspace(0.3, 50.0, 41):
        profile = indicator_profile(mids[5] / b, mids[37] / b)
        want = _periodize_by_translates(profile, b, mids)
        assert want[5] == 1.0 and want[37] == 0.0
        assert np.array_equal(periodize(profile, b, m).values, want)
        assert np.array_equal(periodize_at(profile, b, mids), want)


def test_overlapping_pieces_add_before_squaring():
    # on [1/2 - 1e-15, 1/2) both pieces hold: Phi_1 = (1 + 2)^2, not 1^2 + 2^2
    profile = FourierProfile([Piece(0.0, 0.5, const=1.0), Piece(0.5 - 1e-15, 1.0, const=2.0)])
    xi = np.array([0.25, 0.5 - 5e-16, 0.75])
    assert periodize_at(profile, 1.0, xi).tolist() == [1.0, 9.0, 4.0]


def test_sampler_on_the_sampled_blocks_profile():
    profile = infimum_spectrum(0.5, 8, 2**12).profile
    for b in (1.0, 2.5):
        ps = periodize(profile, b, 2**12)
        assert np.array_equal(ps.values, _periodize_by_translates(profile, b, ps.grid()))


def test_periodize_holds_the_output_and_one_block():
    # the 2^20 values take 8 MiB; the translate loop that swept the whole grid peaked at 53 MiB
    tracemalloc.start()
    try:
        periodize(tent_profile(), 1.0, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


# ---------------------------------------------------------------------------
# the cells block by block against the one-shot cells they replaced
# ---------------------------------------------------------------------------


def _circle_breakpoints_one_shot(profile, b, edges=_value_change_breakpoints_by_loop):
    x = b * edges(profile)
    frac = x - np.floor(x)
    tol = periodization._ROUNDOFF * max(1.0, float(np.max(np.abs(x))))
    frac[frac > 1.0 - tol] -= 1.0
    frac.sort()
    pos = frac[np.concatenate(([0], np.flatnonzero(np.diff(frac) > tol) + 1))]
    if pos.size > 1 and pos[0] + 1.0 - pos[-1] <= tol:
        pos = pos[:-1]
    return pos, tol


def _exact_bounds_one_shot(profile, b, edges=_value_change_breakpoints_by_loop):
    """The cells with every cell-sized array alive at once, as ``exact_bounds`` made them before blocks,
    between the circle images of the breakpoints ``edges(profile)``."""
    pos, tol = _circle_breakpoints_one_shot(profile, b, edges)
    widths = np.diff(pos, append=pos[0] + 1.0)
    xi = (pos[:, None] + widths[:, None] * np.array([0.25, 0.5, 0.75])).ravel()
    f = periodize_at(profile, b, xi).reshape(-1, 3)
    c1 = 2.0 * (f[:, 2] - f[:, 0])
    c2 = 8.0 * (f[:, 0] - 2.0 * f[:, 1] + f[:, 2])
    coeffs = np.column_stack((f[:, 1], c1, c2))
    left = f[:, 1] - 0.5 * c1 + 0.25 * c2
    inside = np.abs(c1) < np.abs(c2)
    e = int(np.frexp(f.max())[1])
    g1, g2 = np.ldexp(c1, -e), np.where(inside, np.ldexp(c2, -e), 1.0)
    vertex = np.where(inside, f[:, 1] - np.ldexp(g1 * g1 / (4.0 * g2), e), left)
    extremes = np.column_stack((left, f[:, 1] + 0.5 * c1 + 0.25 * c2, vertex))
    lo, hi = extremes.min(axis=1), extremes.max(axis=1)
    zero = np.all(f == 0.0, axis=1)
    n_lo, n_hi = _cover_range(profile, b, 0.0, 1.0)
    s_max, d_max = profile.square_bounds()
    x_max = max(abs(v) for v in profile.support())
    budget = 9.0 * (n_hi - n_lo + 1) * periodization._ROUNDOFF * (s_max + d_max * max(x_max, 1.0 / b))
    sup = float(hi.max())
    if sup == 0.0:
        x_lo, x_hi = profile.support()
        raise ValueError(
            f"every cell sample of Phi_b at b = {b:g} is 0: phi_hat is nonzero only on stretches narrower, times b, "
            f"than the breakpoint tolerance tol = {tol:.3g} (support [{x_lo:.15g}, {x_hi:.15g}], width {x_hi - x_lo:.3g})"
        )
    if budget >= sup:
        raise ValueError(
            f"spacing b = {b:g} is too small: the cells' roundoff budget {budget:.3g} reaches "
            f"ess sup {sup:.3g} of Phi_b, so the cells cannot tell Phi_b from 0"
        )
    return {
        "starts": pos, "widths": widths, "coeffs": coeffs, "zero": zero, "inf": float(lo.min()),
        "inf_nonzero": float(lo[~zero].min()), "sup": sup, "zero_measure": float(widths[zero].sum()),
        "budget": budget, "tol": tol,
    }


def _tiny_and_unit_profile():
    """Sampled cells of order 1 next to cells below 1e-77, under a sloped piece near 1e-100.

    The sloped piece gives every cell of ``Phi_b`` a vertex term near
    1e-200, so a cell whose samples are tiny too reads a different minimum
    when ``c1^2 / (4 c2)`` is scaled by its own block's exponent instead of
    the profile's.
    """
    samples = np.array([1.0, 1e-100, 0.5, 1e-90, 1e-80, 2.0, 1e-100, 0.0, 1e-78, 0.75])
    return FourierProfile([Piece(-1.0, 0.0, samples=samples), Piece(0.0, 1.0, affine=(1e-100, -3e-101))])


def _assert_cells_equal(profile, b, block):
    try:
        want = _exact_bounds_one_shot(profile, b)
    except ValueError as exc:  # a spacing whose budget reaches the ess sup is refused alike
        with mock.patch.object(periodization, "_BLOCK", block), pytest.raises(ValueError) as refusal:
            exact_bounds(profile, b)
        assert str(refusal.value) == str(exc)
        return
    with mock.patch.object(periodization, "_BLOCK", block):
        eb = exact_bounds(profile, b)
    for name, value in want.items():
        got = getattr(eb, name)
        assert np.array_equal(got, value) and np.shape(got) == np.shape(value), name
        assert np.asarray(got).dtype == np.asarray(value).dtype, name


@given(seed=st.integers(0, 2**32 - 1), b=st.floats(0.3, 50.0), block=st.sampled_from([3, 7, 37]))
@settings(max_examples=80, deadline=None)
def test_blocked_cells_equal_the_one_shot_cells(seed, b, block):
    _assert_cells_equal(_random_profile(np.random.default_rng(seed)), b, block)


def _many_zero_cells_profile():
    """Fifty-one zero cells of uneven width: fifty runs of one to three zero samples, each closed by
    nonzero samples, and the gap off the support.  At ``b = 0.37`` their measure summed block by block,
    for each block size tested, differs in the last bit from one ``np.sum`` over them all."""
    rng = np.random.default_rng(8)
    runs = [(np.zeros(int(rng.integers(1, 4))), rng.uniform(0.5, 2.0, int(rng.integers(1, 3)))) for _ in range(50)]
    return FourierProfile([Piece(0.1, 0.1 + math.pi / 2.0, samples=np.concatenate([s for run in runs for s in run]))])


@pytest.mark.parametrize("block", [3, 7, 37])
@pytest.mark.parametrize(
    "make, b",
    [(_tiny_and_unit_profile, b) for b in (0.5, 1.0, 2.0, 3.7)]
    + [(_many_zero_cells_profile, b) for b in (0.37, 0.61, 1.37)],
)
def test_blocked_cells_read_the_vertex_scale_and_zero_measure_off_all_cells(make, b, block):
    _assert_cells_equal(make(), b, block)


def test_exact_bounds_holds_its_result_and_one_block():
    # 65,536 cells, one per sample, as no two neighbouring samples are equal: the result takes 2.6 MiB;
    # the one-shot cells peaked at 11.7 MiB
    profile = FourierProfile([Piece(0.0, 1.0, samples=np.linspace(1.0, 2.0, 2**16))])
    tracemalloc.start()
    try:
        eb = exact_bounds(profile, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eb.cells == 2**16 and peak <= 5 * 2**20


# ---------------------------------------------------------------------------
# the cells between value changes against the per-sample cells
# ---------------------------------------------------------------------------


def _runs_profile(rng):
    """One to three pieces: sampled ones whose samples repeat in runs, some of them 0, and affine ones."""
    pieces, lo = [], float(rng.uniform(-2.0, 1.0))
    for _ in range(int(rng.integers(1, 4))):
        hi = lo + float(rng.uniform(0.05, 1.5))
        if rng.uniform() < 0.3:
            v0, v1 = rng.uniform(0.0, 2.0, 2)
            slope = (v1 - v0) / (hi - lo)
            pieces.append(Piece(lo, hi, affine=(float(slope), float(v0 - slope * lo))))
        else:
            k = int(rng.integers(1, 8))
            values = rng.choice([0.0, 0.5, 1.0, float(rng.uniform(0.1, 2.0))], k)
            values[int(rng.integers(k))] = float(rng.uniform(0.1, 2.0))  # no piece is 0 throughout
            pieces.append(Piece(lo, hi, samples=np.repeat(values, rng.integers(1, 7, k))))
        lo = hi + [0.0, float(rng.uniform(0.0, 0.5))][int(rng.integers(2))]
    return FourierProfile(pieces)


@given(seed=st.integers(0, 2**32 - 1), b=st.floats(0.3, 8.0))
@settings(max_examples=80, deadline=None)
def test_cells_between_value_changes_hold_what_the_per_sample_cells_hold(seed, b):
    # a fit on sampled pieces alone reads one constant either way, so it is exact; next to an affine piece a fit
    # over a wider cell rounds differently, within budget; a zero measure sums widths whose edges are known to tol
    profile = _runs_profile(np.random.default_rng(seed))
    ref = ExactBounds(b=b, **_exact_bounds_one_shot(profile, b, _breakpoints_by_loop))
    eb = exact_bounds(profile, b)
    assert eb.cells == _circle_breakpoints_one_shot(profile, b)[0].size <= ref.cells
    slack = 0.0 if all(p.samples is not None for p in profile.pieces) else ref.budget
    for name in ("inf", "inf_nonzero", "sup"):
        assert abs(getattr(eb, name) - getattr(ref, name)) <= slack, name
    assert abs(eb.zero_measure - ref.zero_measure) <= ref.cells * ref.tol
    assert eb.constant == ref.constant and eb.zero_runs() == ref.zero_runs()
    got, want = np.array(eb.eigenvalue_interval(16, 1.0)), np.array(ref.eigenvalue_interval(16, 1.0))
    assert np.all(np.abs(got - want) <= slack / b)


def test_the_zero_fraction_catches_a_zeroed_run_below_the_budget():
    # Phi_1 is 1e-13 on [1/4, 1/2), below the budget: a grid that zeroes it there stays within budget of every
    # cell, so only the zero fraction sees it, and its slack is cells / M = 3 / 1024, not one per sample
    samples = np.ones(2**12)
    samples[2**10 : 2**11] = math.sqrt(1e-13)
    profile = FourierProfile([Piece(0.0, 1.0, samples=samples)])
    eb = exact_bounds(profile, 1.0)
    ps = periodize(profile, 1.0, 2**10)
    run = (ps.grid() > 0.25) & (ps.grid() < 0.5)
    assert eb.cells == 3 and 0.0 < ps.values[run].max() < eb.budget
    cell_evidence(eb, ps)
    ps.values[run] = 0.0
    with pytest.raises(InconsistencyError, match="grid zero fraction 0.25 against exact zero measure 0 "):
        cell_evidence(eb, ps)
