"""Dyadic covers of small-value sets and the trigonometric mass inequalities.

The module holds three tools of the paper's section 5: dyadic covers
giving a box-counting surrogate for the essential alpha-dimensional
content of ``{Phi_b <= eps}``, the bound of coefficient sums of ``|f|^2``
by window densities, and the bound of interval masses ``int_I |f|^2`` by
``l(I) D(1/l(I))``.  The true Hausdorff infimum over all covers is not
computable; dyadic covers at the best depth give a reproducible upper
bound of it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .periodization import cell_evidence, cyclic_runs, exact_bounds, periodize, sublevel_runs
from .spectrum import _poly_osc_integral
from .translation_sets import _check_alpha, _density_sorted, as_indices

__all__ = [
    "CoverEstimate",
    "hausdorff_sublevel",
    "sublevel_ladder",
    "cover_mask",
    "coefficient_sum_bound_check",
    "interval_mass_bound_check",
    "interval_mass_scaling",
]


@dataclass
class CoverEstimate:
    eps: float
    intervals: list  # (lo, hi) dyadic cells at the chosen depth
    measure_sum: float  # sum of cell_length**alpha
    scale: int  # chosen dyadic depth
    by_depth: list = field(default_factory=list)  # (depth, cells, sum) table
    full_circle: bool = False


def cover_mask(mask, alpha):
    """Best-depth dyadic cover of the flagged grid points (:func:`_cover_runs`).

    ``mask`` flags midpoints ``(r + 1/2)/M`` of a cyclic grid.
    """
    alpha = _check_alpha(alpha)
    mask = np.asarray(mask, dtype=bool)
    m = mask.size
    if m < 4 or m & (m - 1):
        raise ValueError("mask length must be a power of two >= 4")
    return _cover_runs(*cyclic_runs(mask), m, alpha)


def _cover_runs(starts, lengths, m, alpha):
    """Best-depth dyadic cover of the cyclic runs ``starts``, ``lengths`` of flagged points of an ``m``-point grid.

    At depth ``d = 2, ..., log2 m`` the cover consists of the cells
    ``[j 2^-d, (j+1) 2^-d)`` holding at least one flagged point; the
    returned estimate uses the depth with the smallest ``count * 2^(-d alpha)``.
    Isolated single-point runs are dropped first: a grid point alone at the
    finest resolution carries no measure and stands in for the removable
    exceptional set.

    The counts come from the runs of flagged points, not from the points.
    Midpoint ``(2r+1)/(2m)`` falls in cell ``r >> (log2 m - d)``, so the
    run ``[s, e]`` meets exactly the cells ``s >> (log2 m - d)`` through
    ``e >> (log2 m - d)``.  With the run through the end of the grid split
    at the wrap, the runs are disjoint and sorted, so two runs can share a
    cell only when one ends in the cell where the next begins: the count is
    the sum of the runs' cell counts less the neighbours that share a cell.
    The cells themselves are listed at the chosen depth only, range by
    range, so the work and memory grow with the cover, not with ``2^d``.
    """
    keep = lengths > 1
    s = starts[keep]
    e = s + lengths[keep] - 1
    if e.size and e[-1] >= m:  # the run through the end continues at 0
        s, e = np.r_[0, s], np.r_[e[-1] - m, e[:-1], m - 1]
    max_depth = int(math.log2(m))

    def cells(d):
        """Disjoint cell ranges ``[lo, hi]`` of the runs at depth ``d`` (a range may be empty)."""
        lo, hi = s >> (max_depth - d), e >> (max_depth - d)
        lo[1:] += lo[1:] == hi[:-1]  # a cell two neighbouring runs share goes to the first
        return lo, hi - lo + 1

    by_depth = []
    for d in range(2, max_depth + 1):
        count = int(cells(d)[1].sum())
        by_depth.append((d, count, float(count) * 2.0 ** (-d * alpha)))
    # min keeps the first of equal sums, so ties go to the coarsest depth
    d, count, content = min(by_depth, key=lambda row: row[2])
    lo, lens = cells(d)
    # cell i of the listing is lo[k] + (i - where range k starts in the listing)
    js = np.arange(count) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
    width = 2.0**-d
    intervals = [(float(j) * width, float(j + 1) * width) for j in js.tolist()]
    return CoverEstimate(
        eps=float("nan"),
        intervals=intervals,
        measure_sum=content,
        scale=d,
        by_depth=by_depth,
    )


def hausdorff_sublevel(ps, alpha, eps):
    """Dyadic-cover content of ``{Phi_b <= eps}`` on the realized grid (:func:`_cover_runs`).

    A level at or above the grid's maximum covers the full circle: the
    estimate is the one unit interval, flagged ``full_circle``.  The runs of
    the level set come block by block (:func:`sublevel_runs`), so no
    grid-sized mask is made.
    """
    alpha = _check_alpha(alpha)
    m = ps.grid_size
    starts, lengths = sublevel_runs(ps.values, eps)
    if lengths.size == 1 and lengths[0] == m:  # every value is at most eps
        return CoverEstimate(
            eps=float(eps),
            intervals=[(0.0, 1.0)],
            measure_sum=1.0,
            scale=0,
            by_depth=[(0, 1, 1.0)],
            full_circle=True,
        )
    est = _cover_runs(starts, lengths, m, alpha)
    est.eps = float(eps)
    return est


def sublevel_ladder(profile, b, alpha, powers, grid_size):
    """Covers of ``{Phi_b <= sup 2^-k}`` for each ``k`` in ``powers``, ``sup`` the ess sup of :func:`exact_bounds`.

    Counted on the ``grid_size``-point grid after :func:`cell_evidence` checks
    it against the cells; returns the covers and its evidence row.
    """
    alpha = _check_alpha(alpha)
    eb = exact_bounds(profile, b)
    ps = periodize(profile, b, grid_size)
    row = cell_evidence(eb, ps)
    return [hausdorff_sublevel(ps, alpha, eb.sup * 2.0**-k) for k in powers], row


# ----------------------------------------------------------------------------
# coefficient-sum bound:  sum_{n in J} |(|f|^2)^(n)|  <=  D(|J|)
# ----------------------------------------------------------------------------


@dataclass
class CoefficientSumBound:
    lhs: float
    rhs: float
    passed: bool
    interval: tuple
    normalized: bool


def _unit_coeffs(lam, coeffs):
    """Integer frequencies with their coefficients scaled to a unit vector, and whether scaled."""
    lam, c = as_indices(lam, coeffs)
    if lam.dtype != np.int64:
        raise ValueError("coefficient checks need integer frequency sets")
    nrm = float(np.linalg.norm(c))
    if abs(nrm - 1.0) <= 1e-12:
        return lam, c, False
    if nrm == 0.0:
        raise ValueError("zero coefficient vector")
    return lam, c / nrm, True


def coefficient_sum_bound_check(lam, coeffs, j_interval):
    """Check ``sum_{n in J} |corr(n)| <= D(|J|)`` for ``corr = coefficients of |f|^2``.

    ``corr(n) = sum_k c_k conj(c_{k-n})`` is summed exactly over the pairs
    of frequencies whose difference lies in ``J``, found by binary search
    in the sorted frequencies, so the cost is ``O(n min(n, |J|))`` whatever
    the span.  Unnormalized input is normalized (the bound assumes a unit
    vector) and flagged in the result.  ``J`` is the integers
    ``ceil(lo)..floor(hi)`` of the interval, so none lies outside it; an
    interval that holds no integer gives ``lhs = 0``.
    """
    lam, c, normalized = _unit_coeffs(lam, coeffs)
    if j_interval[1] < j_interval[0]:
        raise ValueError("interval ends reversed")
    lo, hi = math.ceil(j_interval[0]), math.floor(j_interval[1])
    span = int(lam[-1] - lam[0])
    lo_c, hi_c = max(lo, -span), min(hi, span)
    # pair (i, j) has lag lam_i - lam_j in J exactly when j lies in [first_i, last_i)
    first = np.searchsorted(lam, lam - hi_c, side="left")
    counts = np.maximum(np.searchsorted(lam, lam - lo_c, side="right") - first, 0)
    i = np.repeat(np.arange(lam.size), counts)
    j = np.arange(i.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    where = np.unique(lam[i] - lam[j], return_inverse=True)[1]
    w = c[i] * np.conj(c[j])
    corr = np.bincount(where, w.real) + 1j * np.bincount(where, w.imag)
    lhs = float(np.sum(np.abs(corr)))
    count = hi - lo + 1
    rhs = float(_density_sorted(lam, float(count)))
    return CoefficientSumBound(
        lhs=lhs,
        rhs=rhs,
        passed=bool(lhs <= rhs + 1e-12),
        interval=(lo, hi),
        normalized=normalized,
    )


# ----------------------------------------------------------------------------
# interval-mass bound:  int_I |f|^2  <=  C l(I) D(1/l(I))
# ----------------------------------------------------------------------------


@dataclass
class IntervalMassBound:
    mass: float
    density_value: int
    ratio: float
    normalized: bool


def interval_mass_bound_check(lam, coeffs, interval):
    """Exact ``int_I |f|^2`` against the density bound ``l(I) D(1/l(I))``.

    The mass integral is evaluated in closed form from the coefficient cross
    terms, each the integral of ``e^{2 pi i (lam_j - lam_k) xi}`` over ``I``
    (``spectrum._poly_osc_integral``).  The reported ratio carries no
    constant: the testable property is its stability across interval scales,
    not a fixed bound.
    """
    lam, c, normalized = _unit_coeffs(lam, coeffs)
    lo, hi = float(interval[0]), float(interval[1])
    if not (hi > lo):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    cross = _poly_osc_integral(1.0, 0.0, 0.0, lo, hi, lam[:, None] - lam[None, :])
    mass = float(np.real(np.sum(np.outer(c, np.conj(c)) * cross)))
    ell = hi - lo
    dval = _density_sorted(lam, 1.0 / ell)
    return IntervalMassBound(
        mass=mass,
        density_value=dval,
        ratio=mass / (ell * dval),
        normalized=normalized,
    )


def _complex_normal(rng, size):
    """``size`` draws of ``X + iY``, ``X`` and ``Y`` standard normals from the ``random.Random`` ``rng``."""
    return np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(size)])


def interval_mass_scaling(lam, scales, n_trials=50, rng_seed=0, character=False):
    """Max interval-mass ratios across scales, plus their log-log slope.

    For each interval length the maximum ratio over random unit coefficient
    vectors (or random single characters) and random interval positions is
    recorded; the slope of ``log2(max ratio)`` against ``log2(scale)`` is
    the growth diagnostic.  Scale-free inputs (characters on a saturated
    density window) give slope 0 up to round-off.  ``rng_seed`` seeds the
    standard library's ``random.Random``.
    """
    lam_arr = as_indices(lam)
    rng = random.Random(rng_seed)
    rows = []
    for ell in scales:
        worst = 0.0
        for _ in range(n_trials):
            if character:
                c = np.zeros(lam_arr.size, dtype=complex)
                c[rng.randrange(lam_arr.size)] = 1.0
            else:
                c = _complex_normal(rng, lam_arr.size)
                c /= np.linalg.norm(c)
            t0 = rng.uniform(0.0, 1.0 - ell)
            res = interval_mass_bound_check(lam_arr, c, (t0, t0 + ell))
            worst = max(worst, res.ratio)
        rows.append({"scale": float(ell), "max_ratio": worst})
    xs = np.log2([r["scale"] for r in rows])
    ys = np.log2([r["max_ratio"] for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return {"rows": rows, "slope": slope}
