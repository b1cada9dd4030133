import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frameseq.constructions import (
    EPS_RESOLUTION,
    DyadicBlocks,
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
from frameseq.periodization import exact_bounds
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
    with pytest.raises(ValueError):
        DyadicBlocks(0.5, 30)
    with pytest.raises(ValueError):
        blocks.block(13)


def test_block_wave_two_routes(rng):
    w = block_wave(0.5, 8, 2**12)
    grid = (np.arange(2**12) + 0.5) / 2**12
    idx = rng.choice(2**12, size=2000, replace=False)
    direct = w.sum_values(grid[idx])
    assert np.max(np.abs(w.values[idx] - direct)) < 1e-10
    assert abs(float(np.mean(np.abs(w.values) ** 2)) - 1.0) < 1e-9
    peak = 2.0 ** ((8 - w.m) / 2.0)
    assert np.max(np.abs(w.values)) <= peak + 1e-9
    assert np.max(np.abs(w.values)) > 0.9 * peak


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
    # one constant cell of Phi_1 per grid cell
    eb = exact_bounds(bs.profile, 1.0)
    assert eb.cells == 2**14 and np.all(eb.coeffs[:, 1:] == 0.0)
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
