import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import frameseq.constructions as constructions
from frameseq.constructions import (
    EPS_RESOLUTION,
    DyadicBlocks,
    _concentration_threshold,
    block_wave,
    box_profile,
    gallery_profiles,
    indicator_profile,
    infimum_spectrum,
    plateau_taper_profile,
    ramp_plateau_profile,
    tent_profile,
    verify_lower_collapse,
)
from frameseq.periodization import exact_bounds, periodize
from frameseq.spectrum import FourierProfile, Piece
from frameseq.translation_sets import TranslationSet

KNOWN_LABELS = {
    "orthonormal",
    "exact frame sequence",
    "frame sequence (non-exact)",
    "upper bound only",
    "not a frame sequence",
}


def test_profile_builders_pointwise():
    taper = plateau_taper_profile(2.0, 1.0)
    assert taper.eval(np.array([0.25]))[0] == 1.0
    assert abs(taper.eval(np.array([0.75]))[0] - 0.5) < 1e-15
    assert taper.eval(np.array([1.1]))[0] == 0.0
    tent = tent_profile()
    assert abs(tent.eval(np.array([0.5]))[0] - 1.0) < 1e-15
    assert box_profile().support() == (0.0, 1.0)
    with pytest.raises(ValueError):
        indicator_profile(0.5, 0.5)
    with pytest.raises(ValueError):
        plateau_taper_profile(1.0, 2.0)


def test_ramp_plateau_width_rational():
    profile, eps = ramp_plateau_profile(3.0, 2.0)
    # the clearance constraint binds at 1/6 for the 3:2 spacing pair
    assert abs(eps - 1.0 / 6.0) < 2.0**-18
    ramp, plateau = profile.pieces
    assert (ramp.lo, ramp.hi) == (0.0, 1.0 / 3.0)
    assert plateau.lo == 0.5 and abs(plateau.hi - (0.5 + eps)) < 1e-15


def test_ramp_plateau_width_irrational():
    _, eps = ramp_plateau_profile(math.pi, 1.0)
    assert abs(eps - (math.pi - 3.0)) < 2.0**-18


def _plateau_met(a, b, eps):
    """Brute force: some translate (xi + n)/a, xi in (0, eps), |n| <= a/b + 2, meets [1/b, 1/b + eps]."""
    ratio = a / b
    reach = math.ceil(ratio) + 2
    t = ratio - np.arange(-reach, reach + 1)
    return bool(np.any((t < eps) & (t > -a * eps)))


# b ranges down to a/200, so a/b reaches past the ceil(4a) + 16 translates the old scan covered
RAMP_PAIRS = st.floats(0.05, 50.0).flatmap(lambda a: st.tuples(st.just(a), st.floats(a / 200.0, a, exclude_max=True)))


@example(pair=(9.845486583221927, 0.07682494167483662))  # a/b = 128.15, past the old scan
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=RAMP_PAIRS)
def test_ramp_plateau_width_is_the_widest_clear_multiple(pair):
    a, b = pair
    ratio = a / b
    assume(abs(ratio - round(ratio)) > 1e-9)
    try:
        _, eps = ramp_plateau_profile(a, b)
    except RuntimeError:
        assert _plateau_met(a, b, EPS_RESOLUTION)
        return
    assert eps >= EPS_RESOLUTION and eps * 2**22 == math.floor(eps * 2**22)
    assert not _plateau_met(a, b, eps)
    assert _plateau_met(a, b, eps + 2.0**-22)


def test_ramp_plateau_refusals():
    with pytest.raises(ValueError, match="integer"):
        ramp_plateau_profile(4.0, 2.0)
    with pytest.raises(ValueError):
        ramp_plateau_profile(2.0, 3.0)


def test_ramp_plateau_refuses_a_non_finite_ratio():
    # round(a/b) overflows at a/b = inf, so the ratio is checked first
    for a, b in ((1e308, 1e-10), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite a/b"):
            ramp_plateau_profile(a, b)


def test_dyadic_blocks_exponents_and_ranges():
    blocks = DyadicBlocks(0.5, 12)
    assert blocks.m.tolist() == [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2]
    for n in (1, 5, 8, 12):
        blk = blocks.block(n)
        assert blk[0] > 2**n and blk[-1] <= 2 ** (n + 1)
        assert blk.size == 2 ** (n - int(blocks.m[n - 1]))
    lam = blocks.realize()
    assert np.all(np.diff(lam) > 0)
    with pytest.raises(ValueError):
        DyadicBlocks(0.0, 8)
    # alpha^2 underflows to 0: every block stays full
    assert DyadicBlocks(1e-200, 8).m.tolist() == [0] * 8
    with pytest.raises(ValueError):
        DyadicBlocks(0.5, 30)
    with pytest.raises(ValueError):
        blocks.block(13)


def _direct_power(alpha, n, m, xi):
    """``|sum_k 2^((m-n)/2) e^{2 pi i lam_k xi}|^2`` over block ``n``, term by term.

    ``lam_k xi`` is exact for dyadic midpoints, so the phases are reduced
    mod 1 before the exponential and carry no error from large arguments.
    """
    lam = DyadicBlocks(alpha, n).block(n)
    turns = np.mod(np.outer(xi, lam), 1.0)
    total = np.exp(2j * np.pi * turns) @ np.full(lam.size, 2.0 ** ((m - n) / 2.0))
    return np.abs(total) ** 2


def test_block_wave_two_routes(rng):
    w = block_wave(0.5, 8, 2**12)
    grid = (np.arange(2**12) + 0.5) / 2**12
    idx = rng.choice(2**12, size=2000, replace=False)
    peak = 2.0 ** (8 - w.m)
    assert np.max(np.abs(w.power[idx] - _direct_power(0.5, 8, w.m, grid[idx]))) < 1e-12 * peak
    assert abs(float(np.mean(w.power)) - 1.0) < 1e-9
    assert np.max(w.power) <= peak * (1.0 + 1e-12)
    assert np.max(w.power) > 0.81 * peak


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.integers(1, 12),
    extra=st.integers(2, 4),
    data=st.data(),
)
def test_block_wave_power_is_the_squared_exponential_sum(alpha, n, extra, data):
    M = 2 ** max(n + extra, 4)  # the grid floor is 16 points
    w = block_wave(alpha, n, M)
    idx = np.array(data.draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=64)))
    direct = _direct_power(alpha, n, w.m, (idx + 0.5) / M)
    assert np.max(np.abs(w.power[idx] - direct)) <= 1e-12 * 2.0 ** (n - w.m)


def _complex_block_wave(alpha, n, M):
    """The block wave's complex values on the midpoint grid: the phase times the ratio of sines."""
    blocks = DyadicBlocks(alpha, n)
    m = int(blocks.m[-1])
    count = blocks.block(n).size
    xi = (np.arange(M) + 0.5) / M
    half = np.pi * (1 << m) * xi
    ratio = np.sin(count * half) / np.sin(half)
    phase = np.exp(2j * np.pi * (1 << n) * xi + 1j * (count + 1) * half)
    return m, 2.0 ** ((m - n) / 2.0) * phase * ratio


@pytest.mark.parametrize(
    "alpha, n_range, M", [(0.5, range(4, 13), 2**16), (0.3, range(2, 11), 2**14), (0.7, range(5, 15), 2**18)]
)
def test_real_modulus_reproduces_the_complex_construction(alpha, n_range, M):
    ref = np.ones(M)
    for n in range(1, n_range[-1] + 1):
        m, values = _complex_block_wave(alpha, n, M)
        thr = _concentration_threshold(n, m)
        ref[np.abs(values) ** 2 >= thr * thr] = 2.0**-n
    assert np.array_equal(infimum_spectrum(alpha, n_range[-1], M).spectrum.values, ref)
    ws = [float(np.mean(np.abs(_complex_block_wave(alpha, n, M)[1]) ** 2 * ref)) for n in n_range]
    if not ws[-1] < 0.5 * ws[0]:
        # the range is too short to halve the norms: the refusal quotes the same two norms
        quoted = f"w_{n_range[0]} = {ws[0]:.6g}, w_{n_range[-1]} = {ws[-1]:.6g}"
        with pytest.raises(RuntimeError, match=re.escape(quoted)):
            verify_lower_collapse(alpha, n_range, M)
        for n, w in zip(n_range, ws):
            assert math.isclose(float(np.mean(block_wave(alpha, n, M).power * ref)), w, rel_tol=1e-12)
        return
    out = verify_lower_collapse(alpha, n_range, M)
    assert [r["n"] for r in out["rows"]] == list(n_range)
    for row, w in zip(out["rows"], ws):
        assert math.isclose(row["w"], w, rel_tol=1e-12)
    assert math.isclose(out["w_ratio"], ws[-1] / ws[0], rel_tol=1e-12)


def test_block_wave_memory():
    # one real array of M floats and its temporaries; a complex evaluation of f_n peaks at 64 MiB
    tracemalloc.start()
    try:
        block_wave(0.5, 12, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def _blocks_one_shot(alpha, n_max, M):
    """``phi``, its rows, the profile deviation and every level's weighted norm, each modulus a whole-grid array."""
    phi = np.ones(M)
    rows = []
    for n in range(1, n_max + 1):
        w = block_wave(alpha, n, M)
        thr = _concentration_threshold(n, w.m)
        mask = w.power >= thr * thr
        phi[mask] = 2.0**-n
        rows.append(
            {
                "flagged_measure": float(np.mean(mask)),
                "excluded_energy": float(np.mean(w.power[~mask])) * float(np.mean(~mask)),
            }
        )
    profile = FourierProfile(pieces=[Piece(0.0, 1.0, samples=np.sqrt(phi))])
    dev = float(np.max(np.abs(periodize(profile, 1.0, grid_size=M).values - phi)))
    ws = [float(np.mean(block_wave(alpha, n, M).power * phi)) for n in range(1, n_max + 1)]
    return phi, rows, dev, ws


# grids below, at and above the default chunk of 2^12 points
_BLOCKS_CASES = [(0.5, range(2, 9), 2**10), (0.7, range(3, 11), 2**12), (0.3, range(2, 12), 2**14), (0.5, range(4, 13), 2**16)]


@pytest.mark.parametrize(
    "alpha, n_range, M, chunk",
    # 7-point chunks stop at 2^14 points: on the 2^16 grid they take about 8 s
    [(*case, chunk) for case in _BLOCKS_CASES for chunk in (7, None, 2**15) if chunk != 7 or case[2] <= 2**14],
)
def test_chunked_blocks_match_the_one_shot_construction(monkeypatch, alpha, n_range, M, chunk):
    if chunk is not None:
        monkeypatch.setattr(constructions, "_CHUNK", chunk)
    phi, rows, dev, ws = _blocks_one_shot(alpha, max(n_range), M)
    built = infimum_spectrum(alpha, max(n_range), M)
    assert np.array_equal(built.spectrum.values, phi)
    assert np.array_equal(built.profile.pieces[0].samples, np.sqrt(phi))
    assert built.identity_deviation == dev
    for got, want, w in zip(built.rows, rows, ws, strict=True):
        assert got["flagged_measure"] == want["flagged_measure"]
        assert math.isclose(got["excluded_energy"], want["excluded_energy"], rel_tol=1e-13)
        assert math.isclose(got["w"], w, rel_tol=1e-13)
    out = verify_lower_collapse(alpha, n_range, M)
    assert out["rows"] == [{"n": n, "w": built.rows[n - 1]["w"]} for n in n_range]


def test_lower_collapse_evaluates_each_level_once_per_chunk(monkeypatch):
    calls = []
    real = constructions._wave_power

    def counted(n, m, M, j, k):
        calls.append(n)
        return real(n, m, M, j, k)

    monkeypatch.setattr(constructions, "_wave_power", counted)
    verify_lower_collapse(0.5, range(4, 13), 2**16)
    # 12 levels build the spectrum, and 2^16 points are 16 chunks of 2^12
    assert len(calls) == 12 * 16
    assert sorted(calls) == sorted(list(range(1, 13)) * 16)


def test_lower_collapse_memory():
    # the spectrum and the profile's samples are 8 MiB each, next to one chunk
    # per level; one level's modulus over the whole grid would pass the bound
    tracemalloc.start()
    try:
        verify_lower_collapse(0.5, range(4, 19), 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_lower_collapse_refuses_block_index_0_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(constructions, "infimum_spectrum", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=re.escape("block index must be >= 1")):
        verify_lower_collapse(0.5, range(0, 13), 2**16)
    assert built == []


@pytest.mark.parametrize("n_max", [0, -3])
def test_blocks_without_levels_are_refused(n_max):
    with pytest.raises(ValueError, match=re.escape("n_max out of the supported range [1, 24]")):
        infimum_spectrum(0.5, n_max, 2**14)


def test_block_wave_grid_refusal():
    with pytest.raises(ValueError):
        block_wave(0.5, 8, 2**8)
    with pytest.raises(ValueError):
        block_wave(0.5, 0, 2**8)


@pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.5, float("nan")])
def test_alpha_outside_the_unit_interval_is_refused(alpha):
    # refused before the 2^22-point grid is built
    for build in (lambda: block_wave(alpha, 2, 2**22), lambda: infimum_spectrum(alpha, 4, 2**22)):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            build()


def test_infimum_spectrum_structure():
    bs = infimum_spectrum(0.5, 10, 2**14)
    phi = bs.spectrum.values
    assert np.all(phi > 0.0) and np.all(phi <= 1.0)
    assert bs.identity_deviation <= 1e-12
    # one constant cell of Phi_1 per run of equal samples: 27 runs of the 2^14 samples
    eb = exact_bounds(bs.profile, 1.0)
    runs = 1 + np.count_nonzero(np.diff(bs.profile.pieces[0].samples))
    assert eb.cells == runs == 27 and np.all(eb.coeffs[:, 1:] == 0.0)
    measures = [r["flagged_measure"] for r in bs.rows]
    energies = [r["excluded_energy"] for r in bs.rows]
    # deeper block waves concentrate on smaller sets and leave less outside
    assert measures[9] < measures[3]
    assert energies[9] < energies[3]
    with pytest.raises(ValueError):
        infimum_spectrum(0.5, 14, 2**14)


def test_verify_lower_collapse_at_reference_params():
    out = verify_lower_collapse(0.5, range(4, 13), 2**16)
    assert out["w_ratio"] < 0.5
    assert abs(out["rows"][0]["w"] - 0.103894) < 1e-4
    assert out["density_ok"]
    assert out["conclusion"].startswith("upper frame bound present")
    ws = [r["w"] for r in out["rows"]]
    assert ws[-1] < ws[0]


def test_verify_lower_collapse_failure_paths():
    # a steep alpha over a too-short block range cannot halve the norms
    with pytest.raises(RuntimeError, match="halve"):
        verify_lower_collapse(0.9, range(4, 6), 2**10)
    with pytest.raises(ValueError):
        verify_lower_collapse(0.5, [4], 2**10)


def test_gallery_structure():
    entries = gallery_profiles()
    names = [e.name for e in entries]
    assert names == ["box", "tent", "plateau-taper", "ramp-plateau", "half-indicator", "dyadic-blocks"]
    for e in entries:
        assert e.cases
        for b, ts, expected in e.cases:
            assert b > 0 and expected in KNOWN_LABELS
    assert entries[-1].cases[0][1] == TranslationSet.dyadic_blocks(0.5, 10)
    assert entries[-1].cases[0][2] == "upper bound only"
