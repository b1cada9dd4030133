import ast
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameseq.periodization as periodization
import frameseq.zeroset_hausdorff as zeroset_hausdorff
from frameseq.constructions import plateau_taper_profile, tent_profile
from frameseq.periodization import PeriodizedSpectrum, cyclic_runs, exact_bounds, periodize, sublevel_runs
from frameseq.translation_sets import density
from frameseq.zeroset_hausdorff import (
    CoverEstimate,
    coefficient_sum_bound_check,
    cover_mask,
    hausdorff_sublevel,
    interval_mass_bound_check,
    interval_mass_scaling,
    sublevel_ladder,
)


def sine_spectrum(m=4096):
    grid = (np.arange(m) + 0.5) / m
    return PeriodizedSpectrum(b=1.0, grid_size=m, values=np.sin(np.pi * grid) ** 2, truncation_range=1)


def test_sublevel_cover_shrinks_with_eps():
    ps = sine_spectrum()
    sums = [hausdorff_sublevel(ps, 0.5, 2.0**-k).measure_sum for k in range(2, 8)]
    # {sin^2 <= eps} is one arc of width ~ 2 sqrt(eps)/pi around 0; the best
    # dyadic depth advances every other eps halving, so the sums plateau in
    # pairs: [1.0, 0.707, 0.707, 0.5, 0.5, 0.354]
    assert all(b <= a for a, b in zip(sums, sums[1:]))
    assert sums[-1] < 0.5 * sums[0]
    assert abs(sums[1] - 2.0**-0.5) < 1e-12


def test_sublevel_full_circle_is_flagged_without_a_warning():
    ps = sine_spectrum(256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = hausdorff_sublevel(ps, 0.5, 2.0)
    assert est.full_circle and est.measure_sum == 1.0
    assert est.intervals == [(0.0, 1.0)]


@pytest.mark.parametrize("alpha", [1.5, 0.0, float("nan")])
def test_sublevel_alpha_is_checked_on_the_full_circle_path(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        hausdorff_sublevel(sine_spectrum(256), alpha, 2.0)


def test_sublevel_ladder_reads_its_levels_off_the_cells(tent):
    # the grid's largest value of the tent at b = 1 falls short of 1, the cells' ess sup
    ests, row = sublevel_ladder(tent, 1.0, 0.5, (2, 4), 2**13)
    eb = exact_bounds(tent, 1.0)
    assert eb.sup == 1.0 and [e.eps for e in ests] == [0.25, 0.0625]
    assert row["rule"] == "exact-cell-bounds" and row["check_grid"] == 2**13 and row["ess_sup"] == eb.sup
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        sublevel_ladder(tent, 1.0, 1.5, (2,), 2**13)


def _cover_reference(mask, alpha):
    """The per-depth ``np.unique`` cover at depths 2..log2 M, with isolated points found by neighbours."""
    m = mask.size
    mask = mask & (np.roll(mask, 1) | np.roll(mask, -1))
    flagged = np.flatnonzero(mask)
    rows = []
    for d in range(2, m.bit_length()):
        cells = np.unique(((2 * flagged + 1) << d) // (2 * m))
        rows.append((d, cells, float(cells.size) * 2.0 ** (-d * alpha)))
    best = min(rows, key=lambda row: row[2])
    return best, [(d, int(c.size), s) for d, c, s in rows]


@given(
    k=st.integers(2, 10),
    density_=st.floats(0.0, 1.0),
    alpha=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_cover_mask_matches_unique_reference(k, density_, alpha, seed):
    mask = np.random.default_rng(seed).uniform(size=2**k) < density_
    est = cover_mask(mask, alpha)
    (d, cells, s), by_depth = _cover_reference(mask, alpha)
    assert est.scale == d and est.measure_sum == s and est.by_depth == by_depth
    assert est.intervals == [(float(j) * 2.0**-d, float(j + 1) * 2.0**-d) for j in cells.tolist()]


def _cover_by_points(mask, alpha):
    """The flagged-point cover: drop length-1 runs, then shift the flagged indices down depth by depth."""
    mask = np.asarray(mask, dtype=bool).copy()
    m = mask.size
    starts, lengths = cyclic_runs(mask)
    mask[starts[lengths == 1]] = False
    max_depth = int(math.log2(m))
    cells_at = {}
    cells, finer = np.flatnonzero(mask), max_depth
    for d in range(max_depth, 1, -1):
        cells = cells >> (finer - d)
        cells = cells[np.r_[True, cells[1:] != cells[:-1]]] if cells.size else cells
        cells_at[d], finer = cells, d
    by_depth = [(d, int(c.size), float(c.size) * 2.0 ** (-d * alpha)) for d, c in sorted(cells_at.items())]
    d, _, s = min(by_depth, key=lambda row: row[2])
    width = 2.0**-d
    intervals = [(float(j) * width, float(j + 1) * width) for j in cells_at[d].tolist()]
    return CoverEstimate(eps=math.nan, intervals=intervals, measure_sum=s, scale=d, by_depth=by_depth)


@st.composite
def run_masks(draw):
    """Cyclic masks of alternating False and True runs, repeated to length M and rolled so that a run may wrap."""
    m = 2 ** draw(st.integers(2, 12))
    runs = draw(st.lists(st.integers(1, max(1, m // 4)), min_size=1, max_size=64))
    bits = np.concatenate([np.full(n, i % 2 == 1) for i, n in enumerate(runs)])
    return np.roll(np.resize(bits, m), draw(st.integers(0, m - 1)))


def _same_cover(est, ref):
    assert math.isnan(est.eps) and math.isnan(ref.eps)
    assert replace(est, eps=0.0) == replace(ref, eps=0.0)


@given(mask=run_masks(), alpha=st.floats(0.05, 0.95))
@settings(max_examples=300, deadline=None)
def test_cover_from_runs_matches_the_flagged_points(mask, alpha):
    _same_cover(cover_mask(mask, alpha), _cover_by_points(mask, alpha))


@pytest.mark.parametrize("m", [4, 8, 64, 1024])
def test_cover_from_runs_edge_masks(m):
    ones = np.ones(m, dtype=bool)
    edge = {
        "all True": ones,
        "all False": ~ones,
        "single at 0": np.arange(m) == 0,
        "single at M-1": np.arange(m) == m - 1,
        "singles at 0 and 2": np.isin(np.arange(m), [0, 2]),
        "pair across the wrap": np.isin(np.arange(m), [0, m - 1]),
        "all but one": np.arange(m) != m // 2,
        "alternating": np.arange(m) % 2 == 0,
    }
    for name, mask in edge.items():
        for alpha in (0.1, 0.5, 0.9):
            _same_cover(cover_mask(mask, alpha), _cover_by_points(mask, alpha))


def _cells_by_bincount(mask, d):
    """Cells of depth ``d`` met by the runs of ``mask`` longer than one point, by a running sum over all ``2^d`` cells."""
    m = mask.size
    starts, lengths = cyclic_runs(mask)
    keep = lengths > 1
    s = starts[keep]
    e = s + lengths[keep] - 1
    if e.size and e[-1] >= m:
        s, e = np.r_[0, s], np.r_[e[-1] - m, e[:-1], m - 1]
    shift = int(math.log2(m)) - d
    lo, hi = s >> shift, e >> shift
    edges = np.bincount(lo, minlength=2**d + 1) - np.bincount(hi + 1, minlength=2**d + 1)
    return np.flatnonzero(np.cumsum(edges[:-1]))


@given(mask=run_masks(), alpha=st.floats(0.05, 0.95))
@settings(max_examples=300, deadline=None)
def test_cover_cells_match_the_bincount_listing(mask, alpha):
    est = cover_mask(mask, alpha)
    d = est.scale
    assert est.intervals == [(float(j) * 2.0**-d, float(j + 1) * 2.0**-d) for j in _cells_by_bincount(mask, d).tolist()]


def test_cover_cell_listing_grows_with_the_cover_not_the_depth():
    # one two-point run on 2^20 points picks depth 19; a listing over all 2^19 cells peaked at 8 MiB
    mask = np.zeros(2**20, dtype=bool)
    mask[1000:1002] = True
    tracemalloc.start()
    try:
        est = cover_mask(mask, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.scale == 19 and est.intervals == [(500 * 2.0**-19, 501 * 2.0**-19)]
    assert peak < 2**20


def test_cover_mask_drop_isolated():
    mask = np.zeros(64, dtype=bool)
    mask[17] = True
    est = cover_mask(mask, 0.5)
    assert est.measure_sum == 0.0 and est.intervals == []
    # runs of length >= 2 survive the pruning
    mask[18] = True
    assert cover_mask(mask, 0.5).measure_sum > 0.0


def test_cover_mask_wrapped_run():
    mask = np.zeros(64, dtype=bool)
    mask[[63, 0, 1]] = True
    est = cover_mask(mask, 0.5)
    assert est.measure_sum > 0.0


def test_cover_mask_validation():
    with pytest.raises(ValueError):
        cover_mask(np.zeros(64, dtype=bool), 1.5)
    with pytest.raises(ValueError):
        cover_mask(np.zeros(60, dtype=bool), 0.5)


def _cyclic_runs_by_roll(mask):
    """Cyclic runs from whole-mask rolls: a start has a False before it, an end a False after it."""
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        return np.zeros(1, dtype=np.int64), np.full(1, mask.size, dtype=np.int64)
    starts = np.flatnonzero(mask & ~np.roll(mask, 1))
    ends = np.flatnonzero(mask & ~np.roll(mask, -1))
    if ends.size and ends[0] < starts[0]:
        ends = np.roll(ends, -1)
    return starts, (ends - starts) % mask.size + 1


def _same_runs(got, want):
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


@given(mask=run_masks(), block=st.sampled_from([3, 16, 2**15]))
@settings(max_examples=300, deadline=None)
def test_blockwise_runs_match_the_rolled_mask(mask, block):
    # values equal to the level count as below it
    values = np.where(mask, 0.5, 0.75)
    with mock.patch.object(periodization, "_BLOCK", block):
        _same_runs(sublevel_runs(values, 0.5), _cyclic_runs_by_roll(mask))
        _same_runs(cyclic_runs(mask), _cyclic_runs_by_roll(mask))


@pytest.mark.parametrize("m", [4, 8, 64, 1024])
@pytest.mark.parametrize("block", [3, 2**15])
def test_blockwise_runs_edge_masks(m, block):
    ones = np.ones(m, dtype=bool)
    edge = {
        "all True": ones,
        "all False": ~ones,
        "run through the wrap": np.isin(np.arange(m), [m - 2, m - 1, 0]),
        "single at 0": np.arange(m) == 0,
        "single at M-1": np.arange(m) == m - 1,
    }
    with mock.patch.object(periodization, "_BLOCK", block):
        for name, mask in edge.items():
            _same_runs(sublevel_runs(np.where(mask, 0.0, 1.0), 0.0), _cyclic_runs_by_roll(mask))


def test_sublevel_cover_equals_the_cover_of_its_mask():
    spectra = [periodize(tent_profile(), 1.0, 2**12), periodize(plateau_taper_profile(2.0, 1.0), 1.0, 2**10)]
    for ps in spectra + [sine_spectrum(2**10)]:
        top = float(np.max(ps.values))
        for eps in [top * 2.0**-k for k in range(1, 12)] + [0.0, -1.0]:
            for alpha in (0.2, 0.5, 0.9):
                est = hausdorff_sublevel(ps, alpha, eps)
                assert est.eps == eps and not est.full_circle
                _same_cover(replace(est, eps=math.nan), cover_mask(ps.values <= eps, alpha))
        assert hausdorff_sublevel(ps, 0.5, top).full_circle


def test_one_cover_level_holds_no_grid_sized_temporary():
    # at 2^20 points a mask is 1 MiB; the mask and its two rolls peaked at 3 MiB
    ps = periodize(tent_profile(), 1.0, 2**20)
    eps = float(np.max(ps.values)) / 4.0
    tracemalloc.start()
    try:
        hausdorff_sublevel(ps, 0.3, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_coefficient_sum_dirichlet_equality():
    lam = np.arange(8)
    c = np.full(8, 8.0**-0.5)
    res = coefficient_sum_bound_check(lam, c, (-7, 7))
    # the flat vector saturates the bound: both sides equal the point count
    assert abs(res.lhs - 8.0) < 1e-12
    assert res.rhs == 8
    assert res.passed and not res.normalized


def test_coefficient_sum_random_battery(rng):
    for _ in range(200):
        size = int(rng.integers(3, 12))
        lam = np.sort(rng.choice(64, size=size, replace=False)).astype(np.int64)
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        lo = int(rng.integers(-80, 40))
        hi = lo + int(rng.integers(0, 80))
        res = coefficient_sum_bound_check(lam, c, (lo, hi))
        assert res.passed, (lam, lo, hi)


def test_coefficient_sum_takes_the_integers_inside_a_float_interval():
    # lags -3, -2, 2, 3, 5 all occur: J is ceil(lo)..floor(hi), no end moved toward zero
    lam = np.array([0, 2, 5, 7, 12])
    c = np.array([1.0, -2.0, 0.5j, 1.0 + 1.0j, 3.0])
    for j, inside in (((-10.3, -2.5), (-10, -3)), ((3.7, 5.2), (4, 5)), ((-0.5, 0.5), (0, 0))):
        res, ref = coefficient_sum_bound_check(lam, c, j), coefficient_sum_bound_check(lam, c, inside)
        assert res.interval == inside and res.lhs == ref.lhs and res.rhs == ref.rhs
    empty = coefficient_sum_bound_check(lam, c, (2.3, 2.7))
    assert empty.lhs == 0.0 and empty.passed
    with pytest.raises(ValueError, match="reversed"):
        coefficient_sum_bound_check(lam, c, (2.7, 2.3))


def test_coefficient_sum_normalization_flag():
    lam = np.array([0, 3, 5])
    c = np.array([2.0, 2.0, 1.0])
    res = coefficient_sum_bound_check(lam, c, (0, 5))
    assert res.normalized
    unit = coefficient_sum_bound_check(lam, c / 3.0, (0, 5))
    assert abs(res.lhs - unit.lhs) < 1e-12
    with pytest.raises(ValueError):
        coefficient_sum_bound_check(lam, np.zeros(3), (0, 5))
    with pytest.raises(ValueError):
        coefficient_sum_bound_check(lam, c, (5, 0))
    with pytest.raises(ValueError):
        coefficient_sum_bound_check(np.array([0.5, 1.5]), np.ones(2), (0, 1))


def test_interval_mass_character():
    lam = np.arange(8)
    c = np.zeros(8, dtype=complex)
    c[3] = 1.0
    res = interval_mass_bound_check(lam, c, (0.2, 0.45))
    # |f|^2 = 1 for a character: mass is the interval length exactly
    assert abs(res.mass - 0.25) < 1e-14
    assert res.density_value == density(lam, 4.0)
    assert abs(res.ratio - 0.25 / (0.25 * res.density_value)) < 1e-14


def test_interval_mass_scaling_characters_flat():
    out = interval_mass_scaling(
        np.arange(8), scales=[1 / 8, 1 / 16, 1 / 32, 1 / 64], n_trials=10, character=True
    )
    assert abs(out["slope"]) < 1e-9


def test_interval_mass_scaling_random_slope():
    out = interval_mass_scaling(np.arange(8), scales=[1 / 8, 1 / 16, 1 / 32, 1 / 64], n_trials=30)
    assert -0.5 < out["slope"] < 0.5


def test_module_imports_nothing_above_it():
    # the covers and mass bounds read only periodization, spectrum and translation sets,
    # so gram can import this module without a cycle
    tree = ast.parse(Path(zeroset_hausdorff.__file__).read_text())
    local = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert local == {"periodization", "spectrum", "translation_sets"}
