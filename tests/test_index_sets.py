"""The index-set contract: every entry point normalizes its points through ``as_indices``.

A set gets the same answer however it is passed: as a ``TranslationSet``,
as an array of any integer or float dtype, as a list, or in any order with
its coefficients permuted alongside.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameseq.constructions import plateau_taper_profile
from frameseq.gram import build_gram, weighted_norm_identity_check
from frameseq.periodization import exact_bounds
from frameseq.translation_sets import TranslationSet, as_indices, density
from frameseq.zeroset_hausdorff import coefficient_sum_bound_check, interval_mass_bound_check

TAPER21 = plateau_taper_profile(2.0, 1.0)


def test_unsorted_points_keep_their_coefficients():
    lam, c = [5, 0, 3], [1, 2j, 0]
    lam_s, c_s = [0, 3, 5], [2j, 0, 1]
    mass = interval_mass_bound_check(lam, c, (0.1, 0.3)).mass
    assert mass == interval_mass_bound_check(lam_s, c_s, (0.1, 0.3)).mass
    assert abs(mass - 0.2) < 1e-12
    lhs = coefficient_sum_bound_check(lam, c, (1, 4)).lhs
    assert lhs == coefficient_sum_bound_check(lam_s, c_s, (1, 4)).lhs == 0.0
    norm = weighted_norm_identity_check(TAPER21, 1.0, lam, c)
    norm_s = weighted_norm_identity_check(TAPER21, 1.0, lam_s, c_s)
    assert norm["lhs"] == norm_s["lhs"] and norm["rhs"] == norm_s["rhs"]


def test_integer_points_take_the_grid_route_whatever_their_dtype():
    ref = build_gram(TAPER21, 2.0, np.arange(65))
    assert ref.route == "periodization-grid" and ref.checked_shifts == [1, 21, 41, 61, 64]
    for dtype in (np.float64, np.int32, np.uint16):
        g = build_gram(TAPER21, 2.0, np.arange(65, dtype=dtype))
        assert g.route == ref.route and g.checked_shifts == ref.checked_shifts
        assert np.array_equal(g.matrix, ref.matrix) and g.indices.dtype == np.int64


def test_points_are_never_moved():
    lam = TranslationSet.explicit([0, 2000.01]).realize()
    assert lam.dtype == np.float64 and lam.tolist() == [0.0, 2000.01]
    assert as_indices([3.0, -1.0]).dtype == np.int64
    assert as_indices(np.array([2.0, 0.5], dtype=np.float32)).dtype == np.float64


def test_repeats_and_malformed_sets_are_refused():
    with pytest.raises(ValueError, match="repeated"):
        density([0, 0, 1], 0.5)
    with pytest.raises(ValueError, match="repeated"):
        build_gram(TAPER21, 2.0, [0, 0, 1])
    for bad in ([0, 0, 1], [], [[0, 1]], [0.0, np.nan], [0.0, np.inf], [0, 1j], [0, 2.0**54], [True, False]):
        with pytest.raises(ValueError):
            as_indices(bad)
    with pytest.raises(ValueError, match="length"):
        as_indices([0, 1], [1.0])
    # n**5 overflows int64 from n = 6209 on: wrapped values must not pass as points
    with pytest.raises(ValueError, match="2\\^53"):
        TranslationSet.powers(5, 10000).realize()


def test_integers_past_2_53_are_refused_not_moved():
    # 2^53 + 1 rounds to 2^53 as a float, so an integer dtype is compared exactly
    with pytest.raises(ValueError, match="2\\^53"):
        as_indices(np.array([0, 2**53 + 1]))
    assert as_indices(np.array([-(2**53), 2**53])).tolist() == [-(2**53), 2**53]
    for token in ("list:0,9007199254740993", "list:9007199254740992,9007199254740993"):
        with pytest.raises(ValueError, match="2\\^53"):
            TranslationSet.from_token(token)
    assert TranslationSet.from_token("list:9007199254740992,0.5,-3").realize().tolist() == [-3.0, 0.5, 2.0**53]



def test_a_mixed_list_past_2_53_is_refused_not_moved():
    # np.asarray makes a list holding a float float64, which rounds 2^53 + 1 onto 2^53
    for bad in ([0.5, 2**53 + 1], (-(2**53) - 1, 0.5), [0.5, np.int64(2**53 + 1)]):
        with pytest.raises(ValueError, match="2\\^53"):
            as_indices(bad)
    assert as_indices([0.5, 2**53, -(2.0**53)]).tolist() == [-(2.0**53), 0.5, 2.0**53]

def brute_coefficient_sum(lam, c, lo, hi):
    """Independent oracle: corr(n) summed pair by pair, for every lag n in [lo, hi]."""
    c = c / np.linalg.norm(c)
    corr = {}
    for i in range(lam.size):
        for j in range(lam.size):
            d = int(lam[i]) - int(lam[j])
            if lo <= d <= hi:
                corr[d] = corr.get(d, 0.0) + c[i] * np.conj(c[j])
    return sum(abs(v) for v in corr.values())


@given(
    pts=st.lists(st.integers(-10**7, 10**7), min_size=1, max_size=12, unique=True),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_coefficient_sum_matches_pair_sum_on_wide_spans(pts, data):
    lam = np.array(pts, dtype=np.int64)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    c = rng.normal(size=lam.size) + 1j * rng.normal(size=lam.size)
    # centre J on a pair difference so that it holds lags, or anywhere at all
    i, j = data.draw(st.integers(0, lam.size - 1)), data.draw(st.integers(0, lam.size - 1))
    centre = data.draw(st.sampled_from([int(lam[i] - lam[j]), data.draw(st.integers(-3 * 10**7, 3 * 10**7))]))
    lo = centre - data.draw(st.integers(0, 3 * 10**7))
    hi = centre + data.draw(st.integers(0, 3 * 10**7))
    res = coefficient_sum_bound_check(lam, c, (lo, hi))
    assert abs(res.lhs - brute_coefficient_sum(lam, c, lo, hi)) <= 1e-12 * max(1.0, res.lhs)
    assert res.passed


def _forms(pts, c):
    """Each way of passing the set, with its coefficients in the matching order."""
    order = np.argsort(pts)
    perm = np.random.default_rng(len(pts)).permutation(len(pts))
    arr = np.array(pts)
    return [
        (TranslationSet.explicit(pts), c[order]),
        (arr.astype(np.int64), c),
        (arr.astype(np.int32), c),
        (arr.astype(np.float64), c),
        (list(pts), c),
        (arr[perm], c[perm]),
    ]


@given(
    pts=st.lists(st.integers(-40, 40), min_size=2, max_size=16, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_same_answer_however_a_set_is_passed(pts, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=len(pts)) + 1j * rng.normal(size=len(pts))
    eb = exact_bounds(TAPER21, 2.0)
    lam_s = np.sort(np.array(pts, dtype=np.int64))
    c_s = c[np.argsort(pts)]

    def answers(lam, coeffs):
        g = build_gram(TAPER21, 2.0, lam, eb=eb)
        norm = weighted_norm_identity_check(TAPER21, 2.0, lam, coeffs)
        return (
            g.matrix.tolist(),
            g.route,
            g.checked_shifts,
            [density(lam, x) for x in (0.0, 3.0, 17.5)],
            coefficient_sum_bound_check(lam, coeffs, (-5, 9)).lhs,
            interval_mass_bound_check(lam, coeffs, (0.1, 0.35)).mass,
            (norm["lhs"], norm["rhs"]),
        )

    expected = answers(lam_s, c_s)
    for lam, coeffs in _forms(pts, c):
        assert answers(lam, coeffs) == expected


TOKENS = st.one_of(
    st.sampled_from(["Z", "N", "squares", "geometric"]),
    st.integers(1, 9).map(lambda m: f"mZ:{m}"),
    st.integers(0, 30).map(lambda n: f"squares:{n}"),
    st.integers(0, 12).map(lambda n: f"geometric:{n}"),
    st.tuples(st.integers(2, 4), st.integers(0, 20)).map(lambda t: f"powers:{t[0]}:{t[1]}"),
    st.tuples(st.floats(0.05, 0.95), st.integers(1, 8)).map(lambda t: f"blocks:{t[0]!r}:{t[1]}"),
    st.lists(st.integers(-50, 50) | st.floats(-50, 50), min_size=1, max_size=8, unique_by=float).map(
        lambda vs: "list:" + ",".join(map(repr, vs))
    ),
)


@given(token=TOKENS, windows=st.lists(st.integers(1, 40), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_period_and_side_are_facts_of_the_token_not_the_window(token, windows):
    sets = [TranslationSet.from_token(token, w) for w in windows]
    assert len({(ts.period, ts.one_sided) for ts in sets}) == 1
    for ts in sets:
        pts = ts.realize()
        assert ts.one_sided == (pts[0] >= 0)
        if ts.period is not None:
            assert np.all(np.diff(pts) == ts.period)
            assert ts.one_sided or np.array_equal(pts, -pts[::-1])


def test_lattice_points_past_2_53_are_refused_before_int64_overflows():
    assert TranslationSet.subgroup(2**51, 4).realize()[-1] == 2**53
    for m in (2**51 + 1, 10**19):
        with pytest.raises(ValueError, match="magnitude at most 2\\^53"):
            TranslationSet.subgroup(m, 4).realize()
