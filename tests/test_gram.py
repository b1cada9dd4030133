import dataclasses
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import frameseq.cli as cli
import frameseq.gram as gram
import frameseq.periodization as periodization
from frameseq.constructions import (
    box_profile,
    gallery_profiles,
    indicator_profile,
    infimum_spectrum,
    plateau_taper_profile,
    ramp_plateau_profile,
    tent_profile,
)
from frameseq.gram import (
    EIGENSOLVE_CAP,
    Budgets,
    GramOperator,
    InconsistencyError,
    build_gram,
    classify,
    frame_bound_estimates,
    weighted_norm_identity_check,
    window_ladder,
)
from frameseq.periodization import exact_bounds
from frameseq.spectrum import FourierProfile, Piece, autocorrelation, autocorrelations
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
    g = build_gram(third, 1.0, np.arange(0, 65, dtype=np.int64))
    # the jump at 1/3 lands on no dyadic grid; the exact cells hold it where it is
    assert g.route == "periodization-grid" and g.grid_size is None
    # the two routes agree bit for bit at the shifts 1 and 16, not at all of these
    assert g.checked_shifts == [1, 21, 41, 61, 64]
    assert 0.0 < g.max_check_deviation <= g.check_budget
    fb = frame_bound_estimates(g)
    assert fb.min_eigenvalue > -1e-12


def _bump_first_cell(profile, d):
    """Exact cells of Phi_1 with the first of its two half-circle cells raised by ten budgets at shift ``d``.

    Raising a cell of width 1/2 by ``h`` moves the coefficient at an odd
    shift ``d`` by ``h |1 - e^{-i pi d}| / (2 pi d) = h / (pi d)``.
    """
    eb = exact_bounds(profile, 1.0)
    assert np.allclose(eb.widths, 0.5)
    clean = build_gram(profile, 1.0, [0, d], eb=eb)
    assert clean.checked_shifts == [d] and clean.max_check_deviation <= clean.check_budget
    coeffs = eb.coeffs.copy()
    coeffs[0, 0] += 10.0 * clean.check_budget * np.pi * d
    return replace(eb, coeffs=coeffs)


def test_tampered_step_spectrum_raises(half):
    with pytest.raises(InconsistencyError, match="shift 63"):
        build_gram(half, 1.0, [0, 63], eb=_bump_first_cell(half, 63))


def test_tampered_continuous_spectrum_raises(tent):
    with pytest.raises(InconsistencyError, match="shift 127"):
        build_gram(tent, 1.0, [0, 127], eb=_bump_first_cell(tent, 127))


TAPER21 = plateau_taper_profile(2.0, 1.0)


@given(pts=st.lists(st.integers(-200, 200), min_size=2, max_size=30, unique=True))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_spot_check_takes_a_fixed_stride_of_the_shifts(pts):
    pos = sorted({abs(p - q) for p in pts for q in pts} - {0})
    checked = build_gram(TAPER21, 2.0, pts).checked_shifts
    # the same sample on every call, whatever order the points come in
    assert build_gram(TAPER21, 2.0, pts[::-1]).checked_shifts == checked
    assert checked[0] == pos[0] and checked[-1] == pos[-1]
    missed = (len(pos) - 1) % gram.CHECK_STRIDE != 0
    assert len(checked) == -(-len(pos) // gram.CHECK_STRIDE) + missed
    assert checked == pos[:: gram.CHECK_STRIDE] + pos[-1:] * missed


def test_spot_check_of_one_point_reads_the_shift_zero():
    assert build_gram(TAPER21, 2.0, [7]).checked_shifts == [0]


def test_bumped_kernel_entry_at_a_sampled_shift_raises(monkeypatch):
    lam = np.arange(65)
    checked = build_gram(TAPER21, 2.0, lam).checked_shifts
    assert checked == [1, 21, 41, 61, 64]
    real = gram.autocorrelations

    def bump_at(d):
        def bumped(profile, shifts):
            out = real(profile, shifts)
            out[d] += 0.1  # integer sets ask for the shifts b * (0, 1, ..., span)
            return out

        monkeypatch.setattr(gram, "autocorrelations", bumped)

    bump_at(21)  # inside the stride, not the extreme shift
    with pytest.raises(InconsistencyError, match="shift 21:"):
        build_gram(TAPER21, 2.0, lam)
    bump_at(22)  # between two sampled shifts: only the weighted-norm identity sees it
    assert build_gram(TAPER21, 2.0, lam).checked_shifts == checked


def test_gallery_gram_checks_hold_roundoff_budgets():
    # the grid route's alias budget was 1.9e-4 for the taper at b = 2; the cells' budget is roundoff
    for entry in gallery_profiles():
        for b, ts, _expected in entry.cases:
            g = build_gram(entry.profile, b, ts.realize()[:256])
            assert g.max_check_deviation <= g.check_budget <= 1e-9, (entry.name, b)


def test_classify_squares_gets_checked_window(taper):
    # span 261121: refused on the grid cap while the grid was sized by a tolerance;
    # any subset of the Riesz family of taper(2, 1) at b = 2 is a Riesz sequence
    rep = classify(taper, 2.0, TranslationSet.squares(600))
    assert rep.classification == "exact frame sequence"
    trend = rep.evidence[-1]
    assert trend["rule"] == "eigenvalue-window-trend" and trend["checked_shifts"] > 0
    assert trend["max_check_deviation"] <= trend["check_budget"]


def _traced(fn):
    """``fn()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_integer_windows_evaluate_the_kernel_at_their_held_shifts(monkeypatch, taper):
    # the 512-point window of squares(600) holds 69,780 of the 261,122 shifts 0..span
    sizes = []
    real = gram.autocorrelations

    def spy(profile, shifts):
        sizes.append(len(shifts))
        return real(profile, shifts)

    monkeypatch.setattr(gram, "autocorrelations", spy)
    classify(taper, 2.0, TranslationSet.squares(600))
    assert sum(sizes) == 69_780 and max(sizes) <= gram._LAG_BLOCK
    monkeypatch.undo()
    # 44 MiB while every shift of 0..span went through the kernel
    _, peak = _traced(lambda: build_gram(taper, 2.0, TranslationSet.squares(600).realize()[:512]))
    assert peak < 16 * 2**20


def _full_table_gram(profile, b, lam):
    """Reference: the kernel at every shift of 0..span, entry ``(i, j)`` read at ``lam_j - lam_i``."""
    cm = np.conj(autocorrelations(profile, b * np.arange(lam[-1] - lam[0] + 1)))
    diffs = lam[None, :] - lam[:, None]
    return np.where(diffs < 0, np.conj(cm[np.abs(diffs)]), cm[np.abs(diffs)])


_HELD_PROFILES = {
    "box": box_profile(),
    "taper": plateau_taper_profile(2.0, 1.0),
    "half": indicator_profile(0.0, 0.5),
    "blocks:0.5:8": infimum_spectrum(0.5, 8, 2**12).profile,
}


@given(
    name=st.sampled_from(sorted(_HELD_PROFILES)),
    b=st.sampled_from([0.5, 1.0, 1.1, 2.0]),
    lam=st.lists(st.integers(-300, 300), min_size=1, max_size=40, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_held_shift_windows_equal_the_full_table(name, b, lam):
    # the kernel's value at a shift is the same in any batch, so only the real-or-complex
    # decision, now taken over the held shifts, can differ from the full table's entries
    profile, lam = _HELD_PROFILES[name], np.array(sorted(lam), dtype=np.int64)
    g, want = build_gram(profile, b, lam).matrix, _full_table_gram(profile, b, lam)
    if np.iscomplexobj(g):
        assert np.array_equal(g, want)
    else:
        assert np.array_equal(g, want.real)
        assert np.max(np.abs(want.imag)) <= 1e-12 * np.max(np.abs(want.real))


def test_a_window_of_real_held_shifts_is_solved_real(capsys):
    # the box at b = 0.5 is complex at the odd shifts only, and this set holds none
    for indices, solver in (("list:0,2,6,10,22,40", "real"), ("list:0,1,6", "complex")):
        assert cli.main(["gram", "--profile", "box", "--b", "0.5", "--indices", indices]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["solver"] == solver


def _lag_matrix_over_every_entry(lam, fn):
    """Reference: the lag matrix through one ``np.unique`` over all n^2 entries, as it was first built."""
    diffs = lam[None, :] - lam[:, None]
    lags, inv = np.unique(np.abs(diffs).ravel(), return_inverse=True)
    m = fn(lags)[inv.reshape(diffs.shape)]
    return np.where(diffs < 0, np.conj(m), m) if np.iscomplexobj(m) else m


@pytest.mark.parametrize(
    ("name", "b"),
    [("taper", 2.0), ("indicator", 0.7)],  # a complex window and a real one
)
def test_lag_matrices_hold_no_n_by_n_temporaries(name, b):
    # 1,024 jittered points: the float route peaked at 6.8 times its matrix
    profile = {"taper": plateau_taper_profile(2.0, 1.0), "indicator": indicator_profile(-0.5, 0.5)}[name]
    rng = np.random.default_rng(5)
    lam = np.sort(rng.choice(1300, 1024, replace=False) + rng.uniform(-0.25, 0.25, 1024))
    g, peak = _traced(lambda: build_gram(profile, b, lam).matrix)
    assert np.iscomplexobj(g) == (name == "taper")
    assert peak <= 2 * g.nbytes

    def kernel(d):
        return gram._real_if_close(np.conj(autocorrelations(profile, b * d)))

    assert np.array_equal(g, _lag_matrix_over_every_entry(lam, kernel))


def test_the_weighted_norm_lag_matrix_holds_no_n_by_n_temporaries(taper):
    # the weighted-norm identity's lag matrix of the cells' coefficients, on 1,024 integer points
    lam = np.sort(np.random.default_rng(5).choice(1300, 1024, replace=False))
    eb = exact_bounds(taper, 1.0)

    def coefficients(d):
        return eb.coefficients(d)[0]

    m, peak = _traced(lambda: gram._lag_matrix(lam, coefficients))
    assert peak <= 2 * m.nbytes
    assert np.array_equal(m, _lag_matrix_over_every_entry(lam, coefficients))


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

    monkeypatch.setattr(periodization, "_breakpoints", lambda profile, b: real(profile, b)[:-1])
    with pytest.raises(InconsistencyError, match="exact cells"):
        classify(third, 1.0, TranslationSet.integers(16))
    # the Gram check reads the same cells
    with pytest.raises(InconsistencyError, match="Gram entry at shift"):
        build_gram(third, 1.0, np.arange(17))
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
# real-arithmetic eigensolve of mirror-symmetric windows
# ---------------------------------------------------------------------------


@st.composite
def mirror_sets(draw):
    """Sorted int64 sets with ``lam + lam[::-1]`` constant: contiguous or gapped, of odd or even size."""
    if draw(st.booleans()):
        lo = draw(st.integers(-40, 40))
        return np.arange(lo, lo + draw(st.integers(1, 48)), dtype=np.int64)
    s = draw(st.integers(-40, 40))  # the constant lam_i + lam_{n-1-i}
    # doubled distances from the centre s/2 share the parity of s; an odd s needs a pair
    ks = draw(st.lists(st.integers(1, 30), min_size=s % 2, max_size=20, unique=True))
    t = [2 * k - s % 2 for k in ks]
    centre = [s // 2] if s % 2 == 0 and (not t or draw(st.booleans())) else []
    return np.array(sorted(centre + [(s - x) // 2 for x in t] + [(s + x) // 2 for x in t]), dtype=np.int64)


@st.composite
def lattice_profiles(draw):
    """A taper, ramp or indicator profile with a dyadic or a generic spacing."""
    kind = draw(st.sampled_from(["taper", "ramp", "indicator"]))
    if kind == "indicator":
        lo = draw(st.floats(-1.0, 1.0))
        profile = indicator_profile(lo, lo + draw(st.floats(0.05, 1.5)))
    else:
        a = draw(st.floats(1.1, 6.0))
        b = a / draw(st.floats(1.1, 4.0))
        try:
            profile = plateau_taper_profile(a, b) if kind == "taper" else ramp_plateau_profile(a, b)[0]
        except (ValueError, RuntimeError):  # a/b integral, or no plateau above resolution
            assume(False)
    spacing = 2.0 ** draw(st.integers(-2, 2)) if draw(st.booleans()) else draw(st.floats(0.3, 4.0))
    return profile, spacing


def _eigvalsh_inputs():
    """Patch ``np.linalg.eigvalsh`` to record every matrix it is given; returns the patch and the record."""
    seen, eigvalsh = [], np.linalg.eigvalsh
    return mock.patch.object(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a)), seen


@given(lam=mirror_sets(), pb=lattice_profiles())
@settings(max_examples=200, deadline=None)
def test_mirror_symmetric_windows_are_solved_in_real_arithmetic(lam, pb):
    g = build_gram(pb[0], pb[1], lam)
    # the route rests on this holding bit for bit: J G J = conj(G)
    assert np.array_equal(g.matrix[::-1, ::-1], np.conj(g.matrix))
    want = np.linalg.eigvalsh(g.matrix)
    patch, seen = _eigvalsh_inputs()
    with patch:
        fb = frame_bound_estimates(g, kernel_tol=0.0)
    (solved,) = seen
    assert not np.iscomplexobj(solved)
    assert fb.solver == ("real-centrohermitian" if np.iscomplexobj(g.matrix) else "real")
    got = np.linalg.eigvalsh(solved)
    assert (fb.min_eigenvalue, fb.B_est) == (got[0], got[-1])
    n = g.dim
    assert np.max(np.abs(got - want)) <= 8 * n * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["taper", "ramp", "indicator"])
def test_lattice_classify_never_solves_a_complex_window(name):
    profile = {
        "taper": plateau_taper_profile(2.0, 1.0),
        "ramp": ramp_plateau_profile(3.0, 2.0)[0],
        "indicator": indicator_profile(0.0, 1.0 / 3.0),
    }[name]
    budgets = Budgets(window=32)
    patch, seen = _eigvalsh_inputs()
    with patch:
        for b in (1.0, 1.5, 2.0):
            for ts in (TranslationSet.integers(32), TranslationSet.naturals(32), TranslationSet.subgroup(3, 32)):
                classify(profile, b, ts, budgets)
    assert seen and not any(np.iscomplexobj(a) for a in seen)

    # sets with no mirror symmetry keep the complex solver
    rng = np.random.default_rng(18)
    subset = np.sort(rng.choice(64, size=16, replace=False))
    assert len(set(subset + subset[::-1])) > 1
    jittered = np.arange(16) + rng.uniform(-0.1, 0.1, 16)
    for lam in (subset, jittered):
        seen.clear()
        with patch:
            classify(profile, 1.5, TranslationSet.explicit(lam), budgets)
        assert seen and all(np.iscomplexobj(a) for a in seen)


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


def test_classify_singular_windows_are_undetermined(half):
    # 7k + {0, 1, 2, 3}: every window has a kernel (ranks 61, 118, 230, 455 of 64 to 512), so no
    # Riesz bound can be read off it, however little A_est moves across the ladder
    lam = (7 * np.arange(128)[:, None] + np.arange(4)).ravel()
    rep = classify(half, 1.0, TranslationSet.explicit(lam))
    (trend,) = [e for e in rep.evidence if e["rule"] == "eigenvalue-window-trend"]
    assert trend["numerical_rank"] == [61, 118, 230, 455] and trend["windows"] == [64, 128, 256, 512]
    assert rep.classification == "undetermined" and rep.A_est is None
    assert "singular" in rep.notes[0]


def test_classify_subgroup_rescales(taper):
    rep = classify(taper, 1.0, TranslationSet.subgroup(2, 64))
    assert rep.classification == "exact frame sequence"
    assert rep.evidence[0]["rule"] == "subgroup-rescaling"
    assert rep.evidence[0]["effective_spacing"] == 2.0
    assert rep.b == 1.0 and rep.index_kind == "subgroup"


@pytest.mark.parametrize("b", [1.0, 2.0])
@pytest.mark.parametrize("name", ["box", "tent", "taper", "ramp", "half"])
def test_classify_subgroup_of_step_one_is_the_integers(request, name, b):
    # period 1 needs no rescaling, so mZ:1 reads as Z: no subgroup-rescaling row, no note
    profile = ramp_plateau_profile(3.0, 2.0)[0] if name == "ramp" else request.getfixturevalue(name)
    rep = classify(profile, b, TranslationSet.subgroup(1, 20))
    assert rep.index_kind == "subgroup"
    assert replace(rep, index_kind="integers") == classify(profile, b, TranslationSet.integers(20))


def test_classify_non_integer_undetermined(taper):
    rep = classify(taper, 1.0, TranslationSet.explicit([0.0, 0.5, 1.0, 2.25, 3.0]))
    assert rep.classification == "undetermined"
    assert rep.notes and "window evidence" in rep.notes[0]


def test_classify_scale_equivariance(tent):
    base = classify(tent, 2.0, TranslationSet.integers(64))
    # 3 phi: the tent's two affine pieces with slopes and intercepts times 3
    tent3 = FourierProfile([Piece(0.0, 0.5, affine=(6.0, 0.0)), Piece(0.5, 1.0, affine=(-6.0, 6.0))])
    scaled = classify(tent3, 2.0, TranslationSet.integers(64))
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
# the classify pipeline against the earlier recursive classify
# ---------------------------------------------------------------------------


def _reference_to_json(rep):
    """The earlier ``FrameReport.to_json``, which listed its fields by hand."""

    def num(x):
        if x is None:
            return None
        return float(x)

    return {
        "classification": rep.classification,
        "A_est": num(rep.A_est),
        "B_est": num(rep.B_est),
        "numerical_rank": rep.numerical_rank,
        "b": float(rep.b),
        "index_kind": rep.index_kind,
        "grid_sizes": list(rep.grid_sizes),
        "windows": list(rep.windows),
        "evidence": rep.evidence,
        "notes": list(rep.notes),
    }


def _reference_classify(profile, b, ts, budgets=None):
    """The earlier ``classify``: a subgroup recursed and patched the inner report, float sets returned early."""
    budgets = budgets or Budgets()
    if not isinstance(ts, TranslationSet):
        ts = TranslationSet.explicit(ts)
    kind = ts.kind

    if kind == "subgroup":
        m = dict(ts.params)["m"]
        inner = _reference_classify(profile, b * m, TranslationSet.integers(dict(ts.params)["half_width"]), budgets)
        inner.evidence.insert(
            0,
            {"rule": "subgroup-rescaling", "m": int(m), "effective_spacing": float(b * m)},
        )
        inner.b = float(b)
        inner.index_kind = "subgroup"
        inner.notes.append(f"subgroup step {m} analyzed as the full lattice at spacing {b * m:g}")
        return inner

    w = budgets.window
    lattice = kind in ("integers", "naturals")
    if kind == "integers":
        lam = np.arange(-w, w + 1, dtype=np.int64)
    elif kind == "naturals":
        lam = np.arange(1, w + 1, dtype=np.int64)
    else:
        lam = ts.realize()
    if lam.dtype != np.int64:
        g = build_gram(profile, b, lam[: min(lam.size, 256)])
        fb = frame_bound_estimates(g)
        return gram.FrameReport(
            classification="undetermined",
            A_est=fb.A_est,
            B_est=fb.B_est,
            numerical_rank=fb.numerical_rank,
            evidence=[
                {
                    "rule": "eigenvalue-window-trend",
                    "windows": [int(g.dim)],
                    "A_est": [fb.A_est],
                    "B_est": [fb.B_est],
                }
            ],
            b=float(b),
            index_kind=kind,
            grid_sizes=[],
            windows=[int(g.dim)],
            notes=["no lattice structure for a periodization decision; window evidence only"],
        )

    eb = exact_bounds(profile, b)
    evidence = [gram.cell_evidence(eb, gram.periodize(profile, b, budgets.grid_size))]
    label, a_val, b_val = gram._lattice_verdict(eb)
    trend = not lattice and label != "orthonormal"
    windows = [lam.size] if lattice else (window_ladder(lam.size, w) if trend else [])
    sizes = windows or [min(lam.size, 2 * w)]
    fbs, interval, check = gram.nested_window_bounds(profile, b, lam, sizes, eb=eb)
    notes = []
    if not trend:
        evidence.append(
            {
                "rule": "pathway-agreement",
                "window": sizes[-1],
                "B_gram": fbs[-1].B_est,
                "A_phi": eb.inf / b,
                "B_phi": eb.sup / b,
                "min_eigenvalue": fbs[-1].min_eigenvalue,
                **check,
            }
        )
        if kind == "naturals" and label in ("frame sequence (non-exact)", "not a frame sequence"):
            evidence.append(
                {
                    "rule": "restricted-index-exactness",
                    "lattice_verdict": label,
                    "consequence": "one-sided families are frames only when the full lattice family is exact",
                }
            )
            label, a_val = "not a frame sequence", None
        if not lattice:
            notes = ["constant periodized spectrum; any subfamily of the lattice family is orthonormal"]
    else:
        a_seq = [fb.A_est for fb in fbs]
        b_seq = [fb.B_est for fb in fbs]
        evidence.append(
            {
                "rule": "eigenvalue-window-trend",
                "windows": windows,
                "A_est": a_seq,
                "B_est": b_seq,
                "numerical_rank": [fb.numerical_rank for fb in fbs],
                "lattice_interval": interval,
                **check,
            }
        )
        a_fall = a_seq[-1] / a_seq[0] if a_seq[0] > 0 else 0.0
        b_grow = b_seq[-1] / b_seq[0] if b_seq[0] > 0 else float("inf")
        note = "generic-set verdicts are windowed eigenvalue trends, not lattice theorems"
        if label == "exact frame sequence" and a_fall > 0.5:
            note = "subset of an exact lattice family: a Riesz sequence within the lattice bounds"
        elif len(windows) < 3:
            label, note = "undetermined", "not enough nested windows for a trend verdict"
        elif a_fall <= 0.5 and b_grow <= 1.2:
            label = "upper bound only"
        elif any(fb.numerical_rank < k for fb, k in zip(fbs, windows)):
            label, note = "undetermined", "a window is singular to working precision, so its A_est bounds nothing"
        elif a_fall >= 0.8 and b_grow <= 1.2:
            label = "exact frame sequence"
        else:
            label = "undetermined"
        a_val = a_seq[-1] if label == "exact frame sequence" else None
        b_val = b_seq[-1]
        notes = [note]
    return gram.FrameReport(
        classification=label,
        A_est=a_val,
        B_est=b_val,
        numerical_rank=fbs[-1].numerical_rank,
        evidence=evidence,
        b=float(b),
        index_kind=kind,
        grid_sizes=[budgets.grid_size],
        windows=windows,
        notes=notes,
    )


_PIPELINE_SETS = {
    "Z": TranslationSet.integers(20),
    "N": TranslationSet.naturals(20),
    "mZ:2": TranslationSet.subgroup(2, 20),
    "mZ:3": TranslationSet.subgroup(3, 20),
    "squares": TranslationSet.squares(40),
    "powers": TranslationSet.powers(3, 20),
    "geometric": TranslationSet.geometric(12),
    "blocks": TranslationSet.dyadic_blocks(0.5, 7),
    "random": TranslationSet.explicit(np.random.default_rng(5).choice(200, 70, replace=False)),
    "7k + {0..3}": TranslationSet.explicit([7 * k + r for k in range(20) for r in range(4)]),
    "floats": TranslationSet.explicit(np.arange(40) * 0.7 + 0.25),
    "one point": [5],
    "two floats": [0.0, 2.5],
    "plain list": [0, 1, 2, 4, 8, 9, 15, 16, 30],
}


@pytest.mark.parametrize("name", ["box", "tent", "taper", "ramp", "half"])
def test_classify_reports_match_the_recursive_classify(name):
    profile = {
        "box": box_profile(),
        "tent": tent_profile(),
        "taper": plateau_taper_profile(2.0, 1.0),
        "ramp": ramp_plateau_profile(3.0, 2.0)[0],
        "half": indicator_profile(0.0, 0.5),
    }[name]
    verdicts = set()
    for b in (1.0, 2.0):
        for ts in _PIPELINE_SETS.values():
            for budgets in (Budgets(grid_size=1024, window=4), Budgets(grid_size=2048, window=8)):
                rep, ref = classify(profile, b, ts, budgets), _reference_classify(profile, b, ts, budgets)
                for f in dataclasses.fields(rep):
                    assert getattr(rep, f.name) == getattr(ref, f.name), (b, ts, budgets, f.name)
                got, want = rep.to_json(), _reference_to_json(ref)
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
                assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}
                verdicts.add((rep.index_kind, rep.classification))
    assert {kind for kind, _ in verdicts} == {
        "integers", "naturals", "subgroup", "squares", "powers", "geometric", "dyadic_blocks", "explicit"
    }


def test_subgroup_classify_makes_one_call(taper):
    real = gram.classify
    with mock.patch.object(gram, "classify", wraps=real) as spy:
        rep = gram.classify(taper, 2.0, TranslationSet.subgroup(3, 16))
    assert spy.call_count == 1 and rep.index_kind == "subgroup" and rep.b == 2.0
    assert rep.evidence[0] == {"rule": "subgroup-rescaling", "m": 3, "effective_spacing": 6.0}


# ---------------------------------------------------------------------------
# the weighted-norm identity
# ---------------------------------------------------------------------------


def test_weighted_norm_delta_and_parseval(box, taper):
    lam = np.arange(0, 6, dtype=np.int64)
    delta = np.zeros(6, dtype=complex)
    delta[0] = 1.0
    res = weighted_norm_identity_check(taper, 1.0, lam, delta)
    assert abs(res["lhs"] - taper.norm_squared()) < 1e-12
    assert res["deviation"] < 1e-10
    c = np.array([1.0, -2.0, 0.5, 1j, 0.0, 3.0])
    res_box = weighted_norm_identity_check(box, 1.0, lam, c)
    assert abs(res_box["lhs"] - float(np.sum(np.abs(c) ** 2))) < 1e-10


def test_weighted_norm_random_vectors(taper, rng):
    for _ in range(25):
        lam = np.sort(rng.choice(48, size=12, replace=False)).astype(np.int64)
        c = rng.normal(size=12) + 1j * rng.normal(size=12)
        res = weighted_norm_identity_check(taper, 1.0, lam, c)
        assert res["deviation"] < 1e-8


def test_weighted_norm_refusals(taper):
    with pytest.raises(ValueError):
        weighted_norm_identity_check(taper, 1.0, np.array([0.5, 1.5]), np.ones(2))
    with pytest.raises(ValueError):
        weighted_norm_identity_check(taper, 1.0, np.arange(3), np.ones(4))


def test_weighted_norm_shows_a_kernel_entry_the_spot_check_skips(monkeypatch, taper):
    # the right side reads every lag off the exact cells, so a kernel entry outside
    # the spot check's sample passes build_gram and still shows in the deviation
    lam, c = np.arange(12), np.ones(12)
    clean = weighted_norm_identity_check(taper, 2.0, lam, c)
    assert clean["deviation"] < 1e-12
    checked = build_gram(taper, 2.0, lam).checked_shifts
    d = min(set(range(1, 12)) - set(checked))
    real = gram.autocorrelations

    def bumped(profile, shifts):
        out = real(profile, shifts)
        out[d] += 0.1  # integer sets ask for the shifts b * (0, 1, ..., span)
        return out

    monkeypatch.setattr(gram, "autocorrelations", bumped)
    assert build_gram(taper, 2.0, lam).checked_shifts == checked
    res = weighted_norm_identity_check(taper, 2.0, lam, c)
    # the all-ones form holds lag d at (i, i + d) and (i + d, i) for each of 12 - d values of i
    assert abs(res["lhs"] - clean["lhs"] - 0.2 * (12 - d)) < 1e-12
    assert res["rhs"] == clean["rhs"]
    assert res["deviation"] > 1e-2


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
