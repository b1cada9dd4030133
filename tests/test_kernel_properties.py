"""Property tests of the closed-form kernel, the exact cells' Fourier coefficients and the exact cell bounds.

Profiles are drawn at random from const, affine and sampled pieces, on
dyadic or generic breakpoints, so that the sampled-piece kernel (one sum
per run of equal samples) and both branches of the polynomial pieces (the
closed form and the small-phase series) are exercised, at integral and
non-integral phases alike.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from frameseq import spectrum
from frameseq.gram import build_gram
from frameseq.periodization import _ROUNDOFF, exact_bounds, periodize
from frameseq.spectrum import FourierProfile, Piece, autocorrelations

values = st.floats(0.0, 2.0)


@st.composite
def profiles(draw):
    count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        edges = [k / 4 for k in draw(st.lists(st.integers(-4, 8), min_size=count + 1,
                                              max_size=count + 1, unique=True))]
    else:
        edges = draw(st.lists(st.floats(-1.0, 2.0), min_size=count + 1, max_size=count + 1, unique=True))
    edges = sorted(edges)
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        kind = draw(st.sampled_from(["const", "affine", "samples", "gap"]))
        if hi - lo < 1e-3 or kind == "gap":
            continue
        if kind == "const":
            pieces.append(Piece(lo, hi, const=draw(values)))
        elif kind == "affine":
            v0, v1 = draw(values), draw(values)
            slope = (v1 - v0) / (hi - lo)
            pieces.append(Piece(lo, hi, affine=(slope, v0 - slope * lo)))
        else:
            samples = draw(st.lists(values, min_size=1, max_size=6))
            pieces.append(Piece(lo, hi, samples=np.array(samples)))
    assume(pieces)
    try:
        return FourierProfile(pieces)
    except ValueError:  # identically zero, or too small to square without underflow
        assume(False)


def quad_autocorrelation(profile, a):
    """Independent oracle: phi_hat^2 e^{2 pi i a xi} integrated cell by cell with quad."""
    total = 0.0
    for p in profile.pieces:
        if p.samples is None:
            cells = [(p.lo, p.hi, lambda x, p=p: float(p.eval_inside(x)) ** 2)]
        else:
            w = (p.hi - p.lo) / p.samples.size
            cells = [(p.lo + j * w, p.lo + (j + 1) * w, lambda x, s=s: s * s) for j, s in enumerate(p.samples)]
        for lo, hi, f in cells:
            re = quad(lambda x: f(x) * math.cos(2 * math.pi * a * x), lo, hi, epsabs=1e-13, limit=200)[0]
            im = quad(lambda x: f(x) * math.sin(2 * math.pi * a * x), lo, hi, epsabs=1e-13, limit=200)[0]
            total += re + 1j * im
    return total


shifts = st.one_of(
    st.integers(-40, 40).map(float),
    st.floats(-40.0, 40.0),
    st.floats(-0.05, 0.05),  # small total phase: the series branch
)


@given(profile=profiles(), a=st.lists(shifts, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_quadrature(profile, a):
    got = autocorrelations(profile, np.array(a))
    for x, value in zip(a, got):
        assert abs(value - quad_autocorrelation(profile, x)) < 1e-9


@given(
    profile=profiles(),
    b=st.sampled_from([0.5, 1.0, 2.0, 0.75]) | st.floats(0.3, 3.0),
    lam=st.lists(st.integers(-40, 40), min_size=1, max_size=24, unique=True),
    jitter=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_gram_windows_are_hermitian(profile, b, lam, jitter):
    lam = np.array(sorted(lam), dtype=np.int64)
    # integer sets also run the grid spot check, which raises past its budget
    g = build_gram(profile, b, lam + 0.25 * np.sin(lam) if jitter else lam)
    assert np.array_equal(g.matrix, np.conj(g.matrix.T))
    assert abs(g.norm_phi_sq - profile.norm_squared()) < 1e-12


@given(
    profile=profiles(),
    b=st.sampled_from([0.5, 1.0, 2.0, 0.75]) | st.floats(0.3, 3.0),
    ns=st.lists(st.integers(-10**5, 10**5), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
# a jump 3.3e-11 past xi = 0: a breakpoint just inside the circle's wrap
@example(profile=FourierProfile([Piece(6.604707329665724e-11, 1.0, const=1.0)]), b=0.5, ns=[0, 1, 8, 10**5])
def test_cell_coefficients_within_budget(profile, b, ns):
    # the cells' coefficients against the kernel's, within build_gram's budget times b
    eb = exact_bounds(profile, b)
    ns = np.array(ns)
    cells, err = eb.coefficients(ns)
    kernel = b * np.conj(autocorrelations(profile, b * ns))
    budget = eb.budget + err + _ROUNDOFF * b * profile.norm_squared() + np.finfo(float).tiny
    assert np.all(np.abs(cells - kernel) <= budget)


def _run_samples(rng, runs, longest):
    """Samples in ``runs`` runs of equal values, each 1 to ``longest`` samples long."""
    return np.repeat(rng.uniform(0.1, 2.0, runs), rng.integers(1, longest + 1, runs))


def _run_profile(rng):
    """Const, affine and sampled pieces, the samples in runs of equal values or all distinct; the
    pieces start at 0 and have unit width half the time, so that integral shifts give integral phases."""
    unit = bool(rng.integers(2))
    pieces, lo = [], 0.0 if unit else float(rng.uniform(-1.5, 0.5))
    for kind in rng.permutation(["const", "affine", "runs", "distinct"])[: int(rng.integers(2, 5))]:
        hi = lo + (1.0 if unit else float(rng.uniform(0.1, 1.0)))
        if kind == "const":
            pieces.append(Piece(lo, hi, const=float(rng.uniform(0.1, 2.0))))
        elif kind == "affine":
            v0, v1 = rng.uniform(0.0, 2.0, 2)
            slope = (v1 - v0) / (hi - lo)
            pieces.append(Piece(lo, hi, affine=(float(slope), float(v0 - slope * lo))))
        elif kind == "runs":
            pieces.append(Piece(lo, hi, samples=_run_samples(rng, int(rng.integers(1, 12)), 40)))
        else:
            pieces.append(Piece(lo, hi, samples=rng.uniform(0.1, 2.0, int(rng.integers(1, 64)))))
        lo = hi + (float(rng.integers(2)) if unit else float(rng.uniform(0.0, 0.3)))
    return FourierProfile(pieces)


@given(seed=st.integers(0, 2**32 - 1), b=st.sampled_from([0.5, 1.0, 1.1]), small_blocks=st.booleans())
@settings(max_examples=80, deadline=None)
def test_a_shifts_value_does_not_depend_on_its_batch(seed, b, small_blocks):
    # every shift of a subset, bit for bit as in the call over all of 0..span (and a few
    # small-phase shifts); small blocks cut the sampled kernel's blocks inside the full call
    rng = np.random.default_rng(seed)
    profile = _run_profile(rng)
    span = int(rng.integers(20, 400))
    shifts = np.concatenate((b * np.arange(span + 1), rng.uniform(-0.05, 0.05, 8)))
    subsets = [
        np.arange(0, span + 1, 2),  # the even shifts: at b = 0.5, integral phases on unit-width pieces
        np.sort(rng.choice(shifts.size, int(rng.integers(1, shifts.size)), replace=False)),
        rng.permutation(shifts.size)[:7],
        np.array([shifts.size - 1]),
    ]
    with mock.patch.object(spectrum, "_CELL_BLOCK", 97 if small_blocks else spectrum._CELL_BLOCK):
        full = autocorrelations(profile, shifts)
        for idx in subsets:
            assert np.array_equal(autocorrelations(profile, shifts[idx]), full[idx])


def _per_sample_sum(vals, lo, hi, a):
    """Reference: the direct sum over every sample, cell ``j`` adding
    ``width * sinc(a width) * vals[j] * e^{2 pi i a mid_j}`` for the ``n`` uniform cells of [lo, hi)."""
    n = vals.size
    width = (hi - lo) / n
    mids = lo + (np.arange(n) + 0.5) * width
    phases = np.exp(1j * 2.0 * math.pi * np.outer(a, mids))
    return width * np.sinc(a * width) * (phases @ vals)


@given(seed=st.integers(0, 2**32 - 1), b=st.sampled_from([1.0, 2.0, 0.5, 1.1, 0.37]), distinct=st.booleans())
@settings(max_examples=80, deadline=None)
def test_run_kernel_matches_the_per_sample_sum(seed, b, distinct):
    # integral b on a piece of unit width makes every phase a (hi - lo) integral; both sums
    # round each phase 2 pi a mid to about eps a |mid|, so the piece stays in [-1, 1] and a below 450
    rng = np.random.default_rng(seed)
    lo = -float(rng.integers(2)) if rng.integers(2) else float(rng.uniform(-1.0, 0.0))
    hi = lo + (1.0 if rng.integers(2) else float(rng.uniform(0.1, 1.0)))
    samples = rng.uniform(0.1, 2.0, int(rng.integers(1, 2000))) if distinct else _run_samples(rng, 40, 200)
    piece = Piece(lo, hi, samples=samples)
    a = b * np.arange(401)
    want = _per_sample_sum(samples**2, lo, hi, a)
    got = autocorrelations(FourierProfile([piece]), a)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_runs_rebuild_the_samples(seed):
    rng = np.random.default_rng(seed)
    lo = float(rng.uniform(-2.0, 1.0))
    samples = _run_samples(rng, int(rng.integers(1, 30)), 8)
    piece = Piece(lo, lo + float(rng.uniform(0.1, 2.0)), samples=samples)
    edges, vals = piece.runs()
    width = (piece.hi - piece.lo) / samples.size
    assert edges[0] == piece.lo and np.all(vals[1:] != vals[:-1])
    assert np.array_equal(np.repeat(vals, np.rint(np.diff(edges) / width).astype(int)), samples)


def _phi_slope(profile, b):
    """Bound on the slope of Phi_b in xi: every translate term that meets [0, 1) at its steepest."""
    lo, hi = profile.support()
    translates = math.ceil(b * (hi - lo)) + 2
    steepest = 0.0
    for p in profile.pieces:
        if p.affine is not None:
            s, c = p.affine
            steepest = max(steepest, *(abs(2.0 * s * (s * x + c)) for x in (p.lo, p.hi)))
    return translates * steepest / b


@given(profile=profiles(), b=st.sampled_from([0.5, 1.0, 2.0, 0.75]) | st.floats(0.3, 3.0))
@settings(max_examples=60, deadline=None)
# the tent at b = 2: two translates sum to a cell whose minimum is its vertex
@example(profile=FourierProfile([Piece(0.0, 0.5, affine=(2.0, 0.0)), Piece(0.5, 1.0, affine=(-2.0, 2.0))]), b=2.0)
# phi_hat^2 near 1e-200: the square of the cell's slope term underflows unless scaled first
@example(profile=FourierProfile([Piece(0.0, 1.0, affine=(1e-100, -1e-101))]), b=1.0)
def test_exact_bounds_hold_every_grid(profile, b):
    eb = exact_bounds(profile, b)
    slope = _phi_slope(profile, b)
    for m in (2**10, 2**12, 2**14, 2**16):
        ps = periodize(profile, b, m)
        lo, hi = float(ps.values.min()), float(ps.values.max())
        assert eb.inf - eb.budget <= lo and hi <= eb.sup + eb.budget
        assert eb.grid_deviation(ps) <= eb.budget
        assert abs(float(np.mean(ps.values == 0.0)) - eb.zero_measure) <= eb.cells / m
        if eb.widths.min() >= 4.0 / m:
            # each point of a cell has a midpoint of the same cell within 1/M
            assert lo - eb.inf <= slope / m + eb.budget
            assert eb.sup - hi <= slope / m + eb.budget
