import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameseq.constructions import infimum_spectrum
from frameseq.gram import Budgets
from frameseq.periodization import PeriodizedSpectrum, periodize
from frameseq.spectrum import TimeEnvelope
from frameseq.translation_sets import TranslationSet, density
from frameseq.zeroset_hausdorff import (
    coefficient_sum_bound_check,
    cover_mask,
    exactness_evidence,
    hausdorff_sublevel,
    interval_mass_bound_check,
    interval_mass_scaling,
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


def test_sublevel_full_circle_warning():
    ps = sine_spectrum(256)
    with pytest.warns(UserWarning, match="full circle"):
        est = hausdorff_sublevel(ps, 0.5, 2.0)
    assert est.full_circle and est.measure_sum == 1.0
    assert est.intervals == [(0.0, 1.0)]


def _cover_reference(mask, alpha, depths, drop_isolated):
    """The per-depth ``np.unique`` cover, with isolated points found by neighbours."""
    mask = mask.copy()
    m = mask.size
    if drop_isolated:
        mask &= np.roll(mask, 1) | np.roll(mask, -1)
    flagged = np.flatnonzero(mask)
    rows = []
    for d in sorted(set(depths)):
        cells = np.unique(((2 * flagged + 1) << d) // (2 * m))
        rows.append((d, cells, float(cells.size) * 2.0 ** (-d * alpha)))
    best = min(rows, key=lambda row: row[2])
    return best, [(d, int(c.size), s) for d, c, s in rows]


@given(
    k=st.integers(2, 10),
    density_=st.floats(0.0, 1.0),
    alpha=st.floats(0.05, 0.95),
    drop=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_cover_mask_matches_unique_reference(k, density_, alpha, drop, data):
    m = 2**k
    seed = data.draw(st.integers(0, 2**32 - 1))
    mask = np.random.default_rng(seed).uniform(size=m) < density_
    depths = data.draw(st.lists(st.integers(0, k), min_size=1, max_size=k + 1))
    est = cover_mask(mask, alpha, depths=depths, drop_isolated=drop)
    (d, cells, s), by_depth = _cover_reference(mask, alpha, depths, drop)
    assert est.scale == d and est.measure_sum == s and est.by_depth == by_depth
    assert est.intervals == [(float(j) * 2.0**-d, float(j + 1) * 2.0**-d) for j in cells.tolist()]


def test_cover_mask_drop_isolated():
    mask = np.zeros(64, dtype=bool)
    mask[17] = True
    assert cover_mask(mask, 0.5).measure_sum == 0.0
    kept = cover_mask(mask, 0.5, drop_isolated=False)
    assert kept.measure_sum > 0.0 and len(kept.intervals) == 1
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
    with pytest.raises(ValueError):
        cover_mask(np.zeros(64, dtype=bool), 0.5, depths=[99])


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


def test_exactness_evidence_established(tent):
    res = exactness_evidence(
        2.0,
        TranslationSet.squares(80),
        0.7,
        profile=tent,
        budgets=Budgets(window=16),
    )
    assert res.all_hypotheses_pass
    assert res.lower_bounded
    assert res.verdict == "exactness evidence established"
    names = [h.name for h in res.hypotheses]
    assert names == ["time-decay rate", "small-set cover trend", "density growth exponent"]


def test_exactness_evidence_boundary_case():
    # n_max = 12: the density fit of the thinned blocks dips under the
    # threshold there (the thinning is bursty, so the fit oscillates in n_max)
    bs = infimum_spectrum(0.5, 12, 2**14)
    ts = TranslationSet.dyadic_blocks(0.5, 12)
    res = exactness_evidence(
        1.0, ts, 0.7, profile=bs.profile, ps=bs.spectrum, budgets=Budgets(window=64)
    )
    assert res.all_hypotheses_pass
    assert not res.lower_bounded
    assert res.verdict.startswith("boundary case")
    assert res.lower_estimates[-1] < 0.7 * res.lower_estimates[0]


def test_exactness_evidence_envelope_only():
    res = exactness_evidence(1.0, TranslationSet.squares(80), 0.7, envelope=TimeEnvelope.power(0.75))
    assert res.all_hypotheses_pass
    assert res.verdict == "hypotheses pass (no spectrum model for the lower-bound check)"
    assert res.windows == [] and res.lower_estimates == []


def test_exactness_evidence_failure_names_hypotheses():
    res = exactness_evidence(1.0, TranslationSet.integers(2048), 0.9, envelope=TimeEnvelope.power(0.75))
    assert not res.all_hypotheses_pass
    assert "hypothesis failed" in res.verdict
    assert "time-decay rate" in res.verdict
    assert "density growth exponent" in res.verdict


def test_exactness_evidence_validation(tent):
    with pytest.raises(ValueError):
        exactness_evidence(1.0, TranslationSet.squares(10), 0.4, profile=tent)
    with pytest.raises(ValueError):
        exactness_evidence(1.0, TranslationSet.squares(10), 0.7)
