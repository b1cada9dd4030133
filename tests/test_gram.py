from dataclasses import replace

import numpy as np
import pytest

import frameseq.cli as cli
import frameseq.gram as gram
import frameseq.periodization as periodization
from frameseq.constructions import indicator_profile
from frameseq.gram import (
    EIGENSOLVE_CAP,
    Budgets,
    GramOperator,
    InconsistencyError,
    build_gram,
    classify,
    frame_bound_estimates,
    truncation_decay,
    weighted_norm_identity_check,
    window_ladder,
)
from frameseq.periodization import PeriodizedSpectrum, periodize
from frameseq.spectrum import FourierProfile, Piece, autocorrelation
from frameseq.translation_sets import TranslationSet

TAPER_AC_1 = -0.101321183642338 + 0.223658011958294j  # frozen quad oracle


def test_box_gram_is_identity(box):
    for b in (1.0, 2.0):
        g = build_gram(box, b, np.arange(-16, 17, dtype=np.int64))
        assert g.route == "periodization-grid"
        assert np.max(np.abs(g.matrix - np.eye(33))) < 1e-12


def test_taper_entries_match_autocorrelation(taper):
    lam = np.arange(0, 8, dtype=np.int64)
    g = build_gram(taper, 1.0, lam)
    assert abs(g.matrix[0, 1] - np.conj(TAPER_AC_1)) < 1e-10
    for i in (0, 2, 5):
        for j in (1, 4, 7):
            want = np.conj(autocorrelation(taper, float(lam[j] - lam[i])))
            assert abs(g.matrix[i, j] - want) < 1e-9
    # Hermitian with the norm on the diagonal
    assert np.max(np.abs(g.matrix - g.matrix.conj().T)) < 1e-14
    assert abs(g.norm_phi_sq - 2.0 / 3.0) < 1e-10


def test_diagonal_invariant_of_spacing(taper):
    for b in (1.0, 2.0, 3.0):
        g = build_gram(taper, b, np.arange(0, 4, dtype=np.int64))
        assert abs(g.norm_phi_sq - taper.norm_squared()) < 1e-10


def test_non_integer_route_and_agreement(taper):
    # half-integer points have the integer differences of np.arange(9) but no grid route
    g_auto = build_gram(taper, 1.0, np.arange(9) + 0.5)
    assert g_auto.route == "autocorrelation" and g_auto.grid_size is None
    g_grid = build_gram(taper, 1.0, np.arange(0, 9, dtype=np.int64))
    # both routes read their entries off the same closed-form kernel
    assert np.max(np.abs(g_auto.matrix - g_grid.matrix)) < 1e-9


def test_misaligned_jump_gets_checked_grid_route():
    third = indicator_profile(0.0, 1.0 / 3.0)
    g = build_gram(third, 1.0, np.arange(0, 17, dtype=np.int64))
    # the jump at 1/3 never lands on a dyadic grid; the alias budget covers it
    assert g.route == "periodization-grid" and g.grid_size == 4096
    assert 16 in g.checked_shifts
    assert 0.0 < g.max_check_deviation <= g.check_budget
    fb = frame_bound_estimates(g)
    assert fb.min_eigenvalue > -1e-12


def test_tampered_grid_data_raises(box):
    ps = periodize(box, 1.0, 2**18)
    grid = ps.grid()
    lam = np.arange(-32, 33, dtype=np.int64)
    ps.values = ps.values + 1e-3 * np.cos(2 * np.pi * 64 * grid)
    ps._fft = None
    with pytest.raises(InconsistencyError, match="shift"):
        build_gram(box, 1.0, lam, ps=ps)


def test_tampered_continuous_spectrum_raises(tent):
    # the tent's Phi_1 is continuous with one kink of mass K = 8 at 1/2, so
    # the alias budget at the extreme shift 128 is K / (4 M^2); a cosine
    # adding ten times that to the shift's coefficient must be caught
    m = 2**14
    budget = 8.0 / (4 * m**2)
    lam = np.arange(-64, 65, dtype=np.int64)
    ps = periodize(tent, 1.0, m)
    clean = build_gram(tent, 1.0, lam, ps=ps)
    assert 128 in clean.checked_shifts and clean.max_check_deviation < budget
    ps.values = ps.values + 20 * budget * np.cos(2 * np.pi * 128 * ps.grid())
    ps._fft = None
    with pytest.raises(InconsistencyError, match="shift 128"):
        build_gram(tent, 1.0, lam, ps=ps)


def test_classify_squares_gets_checked_window(taper):
    # span 261121: refused on the grid cap while the grid was sized by a tolerance;
    # any subset of the Riesz family of taper(2, 1) at b = 2 is a Riesz sequence
    rep = classify(taper, 2.0, TranslationSet.squares(600))
    assert rep.classification == "exact frame sequence"
    trend = rep.evidence[-1]
    assert trend["rule"] == "eigenvalue-window-trend" and trend["checked_shifts"] > 0
    assert trend["max_check_deviation"] <= trend["check_budget"]


def test_subset_of_an_exact_family_is_exact():
    # Phi_1 is 4 on [0, 0.1) and 1 elsewhere: the lattice family is exact with A = 1, B = 4,
    # so every integer subset is a Riesz sequence, although its window B climbs 1.3 -> 4.0
    profile = FourierProfile([Piece(0.0, 0.1, const=2.0), Piece(0.1, 1.0, const=1.0)])
    lam = np.concatenate([10 * np.arange(64), 640 + np.arange(1024)])
    rep = classify(profile, 1.0, TranslationSet.explicit(lam))
    assert rep.classification == "exact frame sequence"
    trend = rep.evidence[-1]
    assert trend["rule"] == "eigenvalue-window-trend"
    assert trend["B_est"][0] < 1.5 and trend["B_est"][-1] > 3.9
    lo, hi = trend["lattice_interval"]
    assert lo <= min(trend["A_est"]) and max(trend["B_est"]) <= hi
    assert abs(lo - 1.0) < 1e-9 and abs(hi - 4.0) < 1e-9


def test_grid_checks_the_exact_cells(monkeypatch, capsys):
    # with the breakpoint at 1/3 dropped, one cell's quadratic no longer fits Phi_1
    third = indicator_profile(0.0, 1.0 / 3.0)
    assert classify(third, 1.0, TranslationSet.integers(16)).evidence[0]["cells"] == 2
    argv = ["periodize", "--profile", "indicator:0:0.333333333333333"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    real = periodization._breakpoints

    def drop_last(profile, b):
        x, jumps = real(profile, b)
        return x[:-1], jumps[:-1]

    monkeypatch.setattr(periodization, "_breakpoints", drop_last)
    with pytest.raises(InconsistencyError, match="exact cells"):
        classify(third, 1.0, TranslationSet.integers(16))
    # periodize runs the same check, and its mismatch is the inconsistency exit
    assert cli.main(argv) == cli.EXIT_INCONSISTENT
    captured = capsys.readouterr()
    assert not captured.out and "exact cells" in captured.err


@pytest.mark.parametrize("ts", [TranslationSet.integers(64), TranslationSet.squares(80)])
def test_window_eigenvalues_are_checked_against_the_lattice_bounds(monkeypatch, taper, ts):
    # raise the lattice infimum of taper(2, 1) at b = 2 from 1/2 to 3/4: every window now breaks it
    real = gram.exact_bounds
    monkeypatch.setattr(gram, "exact_bounds", lambda p, b: replace(real(p, b), inf=1.5))
    with pytest.raises(InconsistencyError, match="outside the periodization interval"):
        classify(taper, 2.0, ts)


def test_build_gram_refusals(box):
    with pytest.raises(ValueError):
        build_gram(box, 1.0, np.arange(EIGENSOLVE_CAP + 1))
    with pytest.raises(ValueError):
        build_gram(box, 1.0, np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        build_gram(box, -1.0, np.arange(4))
    with pytest.raises(TypeError):
        build_gram("box", 1.0, np.arange(4))


def test_frame_bound_estimates_degenerate():
    g = GramOperator(
        matrix=np.zeros((5, 5)),
        b=1.0,
        indices=np.arange(5),
        route="autocorrelation",
        grid_size=None,
        checked_shifts=[],
        max_check_deviation=0.0,
        check_budget=0.0,
    )
    fb = frame_bound_estimates(g)
    assert fb.degenerate and fb.A_est == 0.0 and fb.numerical_rank == 0
    assert fb.kernel_dim == 5


def test_eigenvalue_window_interlacing(taper):
    g = build_gram(taper, 1.0, np.arange(1, 65, dtype=np.int64))
    bounds = [frame_bound_estimates(g.principal(k), kernel_tol=0.0) for k in (16, 32, 64)]
    for prev, cur in zip(bounds, bounds[1:]):
        assert cur.A_est <= prev.A_est + 1e-12
        assert cur.B_est >= prev.B_est - 1e-12


# ---------------------------------------------------------------------------
# classification table
# ---------------------------------------------------------------------------


def test_classify_box_orthonormal(box):
    rep = classify(box, 1.0, TranslationSet.integers(64))
    assert rep.classification == "orthonormal"
    assert rep.A_est == 1.0 and rep.B_est == 1.0
    assert any(e["rule"] == "pathway-agreement" for e in rep.evidence)


def test_classify_tent_both_spacings(tent):
    bad = classify(tent, 1.0, TranslationSet.integers(64))
    assert bad.classification == "not a frame sequence"
    good = classify(tent, 2.0, TranslationSet.integers(64))
    assert good.classification == "exact frame sequence"
    assert abs(good.A_est - 0.25) < 1e-6
    assert abs(good.B_est - 0.5) < 1e-3


def test_classify_taper_both_spacings(taper):
    assert classify(taper, 1.0, TranslationSet.integers(64)).classification == "not a frame sequence"
    good = classify(taper, 2.0, TranslationSet.integers(64))
    assert good.classification == "exact frame sequence"
    assert abs(good.A_est - 0.5) < 1e-6
    assert abs(good.B_est - 1.0) < 1e-3


def test_classify_half_lattice_vs_naturals(half):
    rep = classify(half, 1.0, TranslationSet.integers(64))
    assert rep.classification == "frame sequence (non-exact)"
    assert abs(rep.A_est - 1.0) < 1e-9 and abs(rep.B_est - 1.0) < 1e-9
    one_sided = classify(half, 1.0, TranslationSet.naturals(64))
    assert one_sided.classification == "not a frame sequence"
    assert any(e["rule"] == "restricted-index-exactness" for e in one_sided.evidence)


def test_classify_subgroup_rescales(taper):
    rep = classify(taper, 1.0, TranslationSet.subgroup(2, 64))
    assert rep.classification == "exact frame sequence"
    assert rep.evidence[0]["rule"] == "subgroup-rescaling"
    assert rep.evidence[0]["effective_spacing"] == 2.0
    assert rep.b == 1.0 and rep.index_kind == "subgroup"


def test_classify_non_integer_undetermined(taper):
    rep = classify(taper, 1.0, TranslationSet.explicit([0.0, 0.5, 1.0, 2.25, 3.0]))
    assert rep.classification == "undetermined"
    assert rep.notes and "window evidence" in rep.notes[0]


def test_classify_scale_equivariance(tent):
    base = classify(tent, 2.0, TranslationSet.integers(64))
    scaled = classify(tent.scaled(3.0), 2.0, TranslationSet.integers(64))
    assert scaled.classification == base.classification
    assert abs(scaled.A_est - 9.0 * base.A_est) < 1e-9
    assert abs(scaled.B_est - 9.0 * base.B_est) < 1e-9


def test_classify_report_json(half):
    rep = classify(half, 1.0, TranslationSet.integers(32))
    obj = rep.to_json()
    assert obj["classification"] == rep.classification
    assert obj["A_est"] == rep.A_est
    assert isinstance(obj["evidence"], list)


# ---------------------------------------------------------------------------
# truncation decay and the weighted-norm identity
# ---------------------------------------------------------------------------


def test_truncation_decay_on_half(half):
    rows = truncation_decay(half, 1.0, [8, 32, 128])
    a_vals = [r["A_est"] for r in rows]
    assert a_vals[0] > a_vals[1] > a_vals[2] > 0
    assert a_vals[2] < 0.5 * a_vals[0]


def test_truncation_decay_refuses_wrong_class(taper):
    with pytest.raises(ValueError, match="not a frame sequence"):
        truncation_decay(taper, 1.0, [8, 32])


def test_weighted_norm_delta_and_parseval(box, taper):
    lam = np.arange(0, 6, dtype=np.int64)
    delta = np.zeros(6, dtype=complex)
    delta[0] = 1.0
    res = weighted_norm_identity_check(taper, 1.0, lam, delta, ps=periodize(taper, 1.0, grid_size=2**16))
    assert abs(res["lhs"] - taper.norm_squared()) < 1e-12
    assert res["deviation"] < 1e-10
    c = np.array([1.0, -2.0, 0.5, 1j, 0.0, 3.0])
    res_box = weighted_norm_identity_check(box, 1.0, lam, c, ps=periodize(box, 1.0, grid_size=2**16))
    assert abs(res_box["lhs"] - float(np.sum(np.abs(c) ** 2))) < 1e-10


def test_weighted_norm_random_vectors(taper, rng):
    ps = periodize(taper, 1.0, grid_size=2**18)
    for _ in range(25):
        lam = np.sort(rng.choice(48, size=12, replace=False)).astype(np.int64)
        c = rng.normal(size=12) + 1j * rng.normal(size=12)
        res = weighted_norm_identity_check(taper, 1.0, lam, c, ps=ps)
        assert res["deviation"] < 1e-8


def test_weighted_norm_refusals(taper):
    with pytest.raises(ValueError):
        weighted_norm_identity_check(taper, 1.0, np.array([0.5, 1.5]), np.ones(2))
    with pytest.raises(ValueError):
        weighted_norm_identity_check(taper, 1.0, np.arange(3), np.ones(4))


def test_weighted_norm_tampered_grid_raises(taper):
    # the kernel side is spot-checked against the grid the right side reads,
    # so a grid bumped at shift 11 (the extreme one, always checked) is caught
    ps = periodize(taper, 2.0, grid_size=4096)
    bumped = ps.values + 1e-2 * np.cos(2 * np.pi * 11 * ps.grid())
    tampered = PeriodizedSpectrum(b=ps.b, grid_size=ps.grid_size, values=bumped, truncation_range=ps.truncation_range)
    with pytest.raises(InconsistencyError, match="shift 11"):
        weighted_norm_identity_check(taper, 2.0, np.arange(12), np.ones(12), ps=tampered)


def test_window_ladder_caps():
    assert window_ladder(10_000, 64) == [64, 128, 256, 512]
    assert window_ladder(81, 16) == [16, 32, 64]
    assert window_ladder(300, 512) == [300]
    assert window_ladder(100_000, 1024) == [1024, 2048]  # EIGENSOLVE_CAP


def test_budgets_grid_leaves_room_for_the_refinements():
    # the budget grid is the one check grid, capped by GRID_CAP = 2^22
    assert Budgets(grid_size=2**22).grid_size == 2**22
    with pytest.raises(ValueError, match=r"power of two in \[16, 4194304\]"):
        Budgets(grid_size=2**23)
