"""Index sets of translates and their density / pair-sum diagnostics.

The central quantity is the sliding-window count

    D(x) = sup over t of |Lambda intersect [t, t + x]|      (closed interval)

together with the comparison function

    G(x) = F(x) * integral_0^x F(t) dt + integral_x^inf F(t)^2 dt

built from a decay envelope F.  Convergence of integral_1^inf G D dx/x is
sufficient for the family to admit an upper frame bound, and boundedness of
G * D is necessary; both directions are probed here on finite windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import _integrate_gaps, _tail_F2

__all__ = [
    "TranslationSet",
    "as_indices",
    "density",
    "is_sparse",
    "SparsityDiagnostic",
    "g_function",
    "upper_bound_sufficient",
    "upper_bound_necessary",
    "interval_energy_test",
    "g_equivalence_check",
    "density_exponent_fit",
]

_GENERATOR_KINDS = (
    "explicit",
    "integers",
    "subgroup",
    "naturals",
    "squares",
    "powers",
    "geometric",
    "dyadic_blocks",
)


@dataclass(frozen=True)
class TranslationSet:
    """A finite realization window into a (possibly infinite) index set."""

    kind: str
    params: tuple  # sorted (key, value) pairs, hashable

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(kind, **params):
        return TranslationSet(kind=kind, params=tuple(sorted(params.items())))

    @classmethod
    def explicit(cls, points):
        return cls._make("explicit", points=tuple(float(p) for p in as_indices(points).tolist()))

    @classmethod
    def integers(cls, half_width):
        if half_width < 1:
            raise ValueError("half_width must be >= 1")
        return cls._make("integers", half_width=int(half_width))

    @classmethod
    def subgroup(cls, m, half_width):
        if m < 1:
            raise ValueError("subgroup step m must be >= 1")
        return cls._make("subgroup", m=int(m), half_width=int(half_width))

    @classmethod
    def naturals(cls, n_max):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        return cls._make("naturals", n_max=int(n_max))

    @classmethod
    def squares(cls, n_max):
        return cls._make("squares", n_max=int(n_max))

    @classmethod
    def powers(cls, exponent, n_max):
        if exponent < 2:
            raise ValueError("power exponent must be >= 2")
        return cls._make("powers", exponent=int(exponent), n_max=int(n_max))

    @classmethod
    def geometric(cls, n_max):
        return cls._make("geometric", n_max=int(n_max))

    @classmethod
    def dyadic_blocks(cls, alpha, n_max):
        if not (0 < alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if n_max < 1 or n_max > 24:
            raise ValueError("n_max out of the supported range [1, 24]")
        return cls._make("dyadic_blocks", alpha=float(alpha), n_max=int(n_max))

    # -- realization ---------------------------------------------------------

    def _p(self, key):
        return dict(self.params)[key]

    def realize(self):
        """The realized points, normalized by :func:`as_indices`."""
        k = self.kind
        if k == "explicit":
            return as_indices(self._p("points"))
        if k == "integers":
            n = self._p("half_width")
            pts = np.arange(-n, n + 1, dtype=np.int64)
        elif k == "subgroup":
            m, n = self._p("m"), self._p("half_width")
            pts = m * np.arange(-n, n + 1, dtype=np.int64)
        elif k == "naturals":
            pts = np.arange(1, self._p("n_max") + 1, dtype=np.int64)
        elif k in ("squares", "powers"):
            p = 2 if k == "squares" else self._p("exponent")
            pts = np.arange(0, self._p("n_max") + 1, dtype=np.int64) ** p
        elif k == "geometric":
            pts = 2 ** np.arange(0, self._p("n_max") + 1, dtype=np.int64)
        else:
            from .constructions import DyadicBlocks

            pts = DyadicBlocks(self._p("alpha"), self._p("n_max")).realize()
        return as_indices(pts)

    @property
    def is_integer(self):
        return self.realize().dtype == np.int64

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        k = self.kind
        p = dict(self.params)
        if k == "explicit":
            return {"explicit": {"points": list(p["points"])}}
        return {k: p}

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or len(obj) != 1:
            raise ValueError("translation-set object must have exactly one kind key")
        kind, params = next(iter(obj.items()))
        kind = "dyadic_blocks" if kind == "dyadic" else kind
        if kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown translation-set kind: {kind!r}")
        try:
            return getattr(TranslationSet, kind)(**params)
        except TypeError as exc:  # not a mapping, or missing or unknown parameter names
            raise ValueError(f"bad parameters for translation-set kind {kind!r}: {exc}") from exc

    @staticmethod
    def from_token(token, window=None):
        """Parse compact CLI tokens like ``Z``, ``N``, ``mZ:3``, ``squares:100``."""
        if token == "Z":
            if window is None:
                raise ValueError("token Z needs a window (half width)")
            return TranslationSet.integers(window)
        if token == "N":
            if window is None:
                raise ValueError("token N needs a window (n_max)")
            return TranslationSet.naturals(window)
        parts = token.split(":")
        name, args = parts[0], parts[1:]
        if name == "mZ":
            if len(args) != 1 or window is None:
                raise ValueError("token mZ:<m> needs m and a window")
            return TranslationSet.subgroup(int(args[0]), window)
        if name == "squares":
            return TranslationSet.squares(int(args[0]) if args else window)
        if name == "powers":
            if len(args) == 2:
                return TranslationSet.powers(int(args[0]), int(args[1]))
            if len(args) == 1 and window is not None:
                return TranslationSet.powers(int(args[0]), window)
            raise ValueError("token powers:<exp>:<n_max>")
        if name == "geometric":
            return TranslationSet.geometric(int(args[0]) if args else window)
        if name == "blocks":
            if len(args) != 2:
                raise ValueError("token blocks:<alpha>:<n_max>")
            return TranslationSet.dyadic_blocks(float(args[0]), int(args[1]))
        raise ValueError(f"unknown translation-set token: {token!r}")


# float64 tells neighbouring integers apart up to 2^53, and int64 differences
# of points this size cannot overflow
_MAX_INDEX = 2.0**53


def as_indices(lam, coeffs=None):
    """The one normalizer of index sets: a :class:`TranslationSet` or array-like to points.

    Returns a nonempty 1-d array, sorted with no repeats, of finite points
    of magnitude at most ``2^53``, never rounded or moved.  Its dtype is
    int64 exactly when every point is an integer (whatever the input dtype),
    else float64; integer sets are the ones with a periodization route.
    Anything else (empty or not 1-d, non-real, non-finite, beyond ``2^53``,
    a repeated point) raises ``ValueError``.  With ``coeffs``, returns
    ``(points, c)``: the complex coefficients, one per input point, permuted
    with the points (a :class:`TranslationSet` is already in realized order).
    """
    if isinstance(lam, TranslationSet):
        pts, order = lam.realize(), None
    else:
        arr = np.asarray(lam)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("index set must be a nonempty 1-d array")
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"index points must be real numbers, not {arr.dtype}")
        x = arr.astype(float)
        if not np.max(np.abs(x)) <= _MAX_INDEX:  # NaN fails too
            raise ValueError("index points must be finite, of magnitude at most 2^53")
        integer = arr.dtype.kind != "f" or bool(np.all(x == np.round(x)))
        pts = arr.astype(np.int64, copy=False) if integer else x
        order = np.argsort(pts, kind="stable")
        pts = pts[order]
        if np.any(pts[1:] == pts[:-1]):
            raise ValueError("index set has repeated points")
    if coeffs is None:
        return pts
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != pts.shape:
        raise ValueError("coefficient vector length must match the index set")
    return pts, c if order is None else c[order]


# ----------------------------------------------------------------------------
# sliding-window density
# ----------------------------------------------------------------------------


def _density_sorted(lam, x):
    """Exact ``sup_t |lam intersect [t, t + x]|`` for a sorted array, at one x or a whole grid.

    With ``m_k = min_i (lam[i+k] - lam[i])`` the count is
    ``D(x) = 1 + max{k : m_k <= x}``, because the sup is attained with the
    window's left endpoint on a set point.  ``m_k`` is nondecreasing in
    ``k`` (in floating point too: rounding is monotone), so each window is
    found by bisection over ``k``, and each ``m_k`` is one O(n) vector
    operation, taken once per call.  The windows of a grid bisect together:
    a round probes each distinct ``k`` once, and since ``D`` is
    nondecreasing in ``x`` every round's brackets are shared along the
    sorted windows.  Integer sets compare their integer gaps with
    ``floor(x)``.  Returns an int for a scalar ``x``, else an int64 array
    of ``x``'s shape.
    """
    xs = np.asarray(x, dtype=float)
    if not (xs >= 0).all():  # NaN fails too
        raise ValueError("window length x must be >= 0")
    lam = np.asarray(lam)
    if lam.dtype == np.int64:
        xs = np.floor(np.minimum(xs, lam[-1] - lam[0])).astype(np.int64)
    gaps = {0: 0}

    def m(k):
        if k not in gaps:
            gaps[k] = (lam[k:] - lam[:-k]).min()
        return gaps[k]

    if xs.ndim == 0:  # one window bisects in Python scalars
        lo, hi, v = 0, lam.size, xs.item()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if m(mid) <= v else (lo, mid)
        return lo + 1
    order = np.argsort(xs, axis=None)
    u = xs.ravel()[order]
    # m_lo <= u < m_hi, with m_n read as +inf; both bounds, and so the
    # probes, are nondecreasing along the sorted windows, and a settled
    # window (hi = lo + 1) probes lo again and stays as it is
    lo = np.zeros(u.size, dtype=np.int64)
    hi = np.full(u.size, lam.size, dtype=np.int64)
    new = np.ones(u.size, dtype=bool)
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        np.not_equal(mid[1:], mid[:-1], out=new[1:])
        below = np.array([m(k) for k in mid[new].tolist()])[np.cumsum(new) - 1] <= u
        lo = np.maximum.accumulate(np.where(below, mid, lo))
        hi = np.minimum.accumulate(np.where(below, hi, mid)[::-1])[::-1]
    out = np.empty(u.size, dtype=np.int64)
    out[order] = lo + 1
    return out.reshape(xs.shape)


def density(lam, x):
    """Sliding-window density ``D(x)`` on the realized window, at one x or a grid.

    ``lam`` may be a :class:`TranslationSet` or any array-like that
    :func:`as_indices` accepts; repeated points are refused.  For
    generator-backed sets a window shorter than ``x`` is an error, because
    the windowed count would silently undercount the infinite set; explicit
    finite sets are counted exactly for any ``x``.
    """
    arr = as_indices(lam)
    span = float(arr[-1] - arr[0])
    if isinstance(lam, TranslationSet) and lam.kind != "explicit" and np.max(x) > span:
        raise ValueError(
            f"realized window span {span:g} is shorter than x = {np.max(x):g}; "
            "enlarge the realization window"
        )
    return _density_sorted(arr, x)


def density_exponent_fit(lam, p_max=None, n_points=2):
    """Tail growth exponent of ``D`` over the largest dyadic windows.

    Returns the least-squares slope of ``log2 D(2^p)`` against ``p`` over the
    top ``n_points`` dyadic windows that fit in the realization, all taken
    in one density sweep.  Small-scale windows are excluded deliberately:
    transient dense prefixes would otherwise dominate the fit.
    """
    arr = as_indices(lam)
    span = float(arr[-1] - arr[0])
    if p_max is None:
        p_max = int(math.floor(math.log2(span)))
    ps = np.arange(p_max - n_points + 1, p_max + 1, dtype=float)
    if ps[0] < 1:
        raise ValueError("not enough dyadic scales in the window for a tail fit")
    ds = _density_sorted(arr, 2.0**ps).astype(float)
    slope = float(np.polyfit(ps, np.log2(ds), 1)[0])
    return slope, {"p": ps, "density": ds}


# ----------------------------------------------------------------------------
# sparsity diagnostic
# ----------------------------------------------------------------------------


@dataclass
class SparsityDiagnostic:
    shifts: np.ndarray
    counts_full: np.ndarray
    counts_half: np.ndarray
    gaps_nondecreasing: bool
    first_gap: float
    last_gap: float
    max_gap: float
    window_size: int
    sparse: bool

    @property
    def verdict(self):
        return "sparse (windowed)" if self.sparse else "not sparse (windowed)"


def is_sparse(ts, n_shifts=8):
    """Windowed sparsity diagnostic: |Lambda intersect (Lambda + n)| growth.

    The set is called sparse (on this window) when no tested shift's
    intersection count grows between the half window and the full window.
    Gap statistics are reported alongside as a secondary signal for
    increasing sequences.
    """
    lam = as_indices(ts)
    if lam.dtype != np.int64:
        raise ValueError("sparsity check needs an integer translation set")
    half = lam[: max(2, lam.size // 2)]
    shifts = np.arange(1, n_shifts + 1)
    counts_full = np.array([np.intersect1d(lam, lam + s).size for s in shifts])
    counts_half = np.array([np.intersect1d(half, half + s).size for s in shifts])
    gaps = np.diff(lam).astype(float)
    grew = bool(np.any(counts_full > counts_half))
    return SparsityDiagnostic(
        shifts=shifts,
        counts_full=counts_full,
        counts_half=counts_half,
        gaps_nondecreasing=bool(np.all(np.diff(gaps) >= 0)),
        first_gap=float(gaps[0]),
        last_gap=float(gaps[-1]),
        max_gap=float(np.max(gaps)),
        window_size=int(lam.size),
        sparse=not grew,
    )


# ----------------------------------------------------------------------------
# the comparison function G
# ----------------------------------------------------------------------------


def _power_int0F(a, x):
    """integral_0^x F for F = min(1, t^-a), vectorized."""
    x = np.asarray(x, dtype=float)
    small = np.minimum(x, 1.0)
    out = small.copy()
    big = x > 1.0
    if np.any(big):
        xb = x[big]
        if a == 1.0:
            out[big] = 1.0 + np.log(xb)
        else:
            out[big] = 1.0 + (xb ** (1.0 - a) - 1.0) / (1.0 - a)
    return out


# the direct pair sum takes this many pairs at a time, so its memory does
# not grow with the set; G's temporaries at this size are a few hundred KB
_PAIR_BLOCK = 1 << 14


def g_function(env, x):
    """``G(x) = F(x) int_0^x F + int_x^inf F^2``; closed form for power kind.

    ``G(0)`` equals the squared L2 norm of the envelope.  Other kinds take
    one cumulative quadrature over the sorted knots ``{0, 1} U x``: the
    G10-K21 kernel ``spectrum._integrate_gaps`` integrates ``F`` and ``F^2``
    over every gap between consecutive knots, each to ``1e-11`` relative
    (or to its underflow floor), a forward running sum gives ``int_0^x F``
    at every knot, and a backward one, seeded by ``spectrum._tail_F2`` at
    the largest knot, gives ``int_x^inf F^2``.  ``G`` thus carries a
    relative quadrature error of about 1e-10 wherever ``F^2`` does not
    underflow; a value the kernel cannot certify raises ``QuadratureError``.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("G is defined for x >= 0")
    if env.kind == "power":
        out = env.F(x) * _power_int0F(env.a, x) + _tail_F2(env, x)
    else:
        knots, where = np.unique(np.concatenate(([0.0, 1.0], x.ravel())), return_inverse=True)

        def f_and_f2(t):
            f = env.F(t)
            return np.stack((f, f * f))

        gaps_F, gaps_F2 = _integrate_gaps(f_and_f2, knots)
        int0F = np.concatenate(([0.0], np.cumsum(gaps_F)))
        # backward sum from the tail inward: the smallest terms are added first
        tail = np.cumsum(np.concatenate(([_tail_F2(env, knots[-1])], gaps_F2[::-1])))[::-1]
        where = where[2:].reshape(x.shape)
        out = env.F(x) * int0F[where] + tail[where]
    return float(out[0]) if scalar else out


def _g_tail_exponent(env):
    """Asymptotic log-log slope of G for power envelopes, with a log flag."""
    a = env.a
    if a < 1.0:
        return 1.0 - 2.0 * a, False
    if a == 1.0:
        return -1.0, True
    return -a, False


# ----------------------------------------------------------------------------
# upper-bound tests
# ----------------------------------------------------------------------------


@dataclass
class SufficiencyResult:
    integral: float
    tail_estimate: float | None
    exponent: float | None
    verdict: str
    x_max: float
    note: str = ""


def upper_bound_sufficient(env, ts, x_max=1e4, n_grid=256):
    """Windowed test of ``integral_1^inf G(x) D(x) dx / x < inf``.

    The window integral is a trapezoid sum in ``u = log x`` (so ``dx/x``
    becomes ``du`` exactly) over ``n_grid`` points; ``D`` comes from one
    density sweep over the whole grid and ``G`` from one :func:`g_function`
    call.  For power envelopes the integrand's tail exponent is the sum of
    the closed-form G slope and the fitted density growth over the top
    decade; the verdict is ``converges`` when it is
    clearly negative, ``diverges`` when clearly nonnegative, otherwise
    ``undetermined``.  Non-power envelopes have no certified tail model and
    always report ``undetermined`` with the window integral attached.
    """
    lam = as_indices(ts)
    span = float(lam[-1] - lam[0])
    if x_max > span:
        raise ValueError(f"x_max {x_max:g} exceeds the realized window span {span:g}")
    if not x_max > 1.0:
        raise ValueError(f"x_max {x_max:g} leaves no window [1, x_max] to integrate over")
    u = np.linspace(0.0, math.log(x_max), n_grid)
    xs = np.exp(u)
    dvals = _density_sorted(lam, xs).astype(float)
    gvals = np.asarray(g_function(env, xs))
    integrand = gvals * dvals
    integral = float(np.trapezoid(integrand, u))

    top = xs >= x_max / 10.0
    theta = float(np.polyfit(np.log(xs[top]), np.log(dvals[top]), 1)[0])

    if env.kind != "power":
        return SufficiencyResult(
            integral=integral,
            tail_estimate=None,
            exponent=None,
            verdict="undetermined",
            x_max=float(x_max),
            note="no closed-form tail model for this envelope kind",
        )

    g_exp, has_log = _g_tail_exponent(env)
    e = g_exp + theta
    margin = 0.05
    if e <= -margin:
        tail = float(integrand[-1] / (-e))
        verdict = "converges"
        note = ""
    elif e >= margin or (has_log and e >= -margin):
        tail = None
        verdict = "diverges"
        note = "integrand per log-x mass does not decay"
    else:
        tail = None
        verdict = "undetermined"
        note = f"tail exponent {e:+.3f} within the +-{margin} margin"
    return SufficiencyResult(
        integral=integral,
        tail_estimate=tail,
        exponent=e,
        verdict=verdict,
        x_max=float(x_max),
        note=note,
    )


@dataclass
class NecessityResult:
    x: np.ndarray
    product: np.ndarray
    sup_estimate: float
    growth_half: float
    growth_quarter: float
    verdict: str


def upper_bound_necessary(env, ts, x_max=1e4, n_grid=256):
    """Windowed test of ``sup_{x>1} G(x) D(x) < inf`` (necessary condition).

    Reports the running product on a log grid of ``n_grid`` points (``D``
    from one density sweep, ``G`` from one :func:`g_function` call) and the
    growth factors of the running max from the quarter window and the half
    window to the full window.  A product still growing by a clear factor at the window edge
    violates the necessary condition; a flat running max is consistent with
    a bounded product.
    """
    lam = as_indices(ts)
    span = float(lam[-1] - lam[0])
    if x_max > span:
        raise ValueError(f"x_max {x_max:g} exceeds the realized window span {span:g}")
    if not x_max >= 4.0:
        raise ValueError(f"x_max {x_max:g} < 4 leaves the quarter window [1, x_max / 4] empty")
    xs = np.geomspace(1.0, x_max, n_grid)
    dvals = _density_sorted(lam, xs).astype(float)
    gvals = np.asarray(g_function(env, xs))
    product = gvals * dvals
    running = np.maximum.accumulate(product)
    sup_est = float(running[-1])

    def run_max_upto(x):
        mask = xs <= x * (1 + 1e-12)
        return float(np.max(product[mask]))

    growth_half = sup_est / run_max_upto(x_max / 2.0)
    growth_quarter = sup_est / run_max_upto(x_max / 4.0)
    if growth_quarter >= 1.5 and growth_half >= 1.15:
        verdict = "necessary condition violated (product growing)"
    elif growth_quarter <= 1.1:
        verdict = "consistent with bounded product"
    else:
        verdict = "undetermined"
    return NecessityResult(
        x=xs,
        product=product,
        sup_estimate=sup_est,
        growth_half=float(growth_half),
        growth_quarter=float(growth_quarter),
        verdict=verdict,
    )


# ----------------------------------------------------------------------------
# interval pair sums
# ----------------------------------------------------------------------------


@dataclass
class IntervalEnergyRow:
    interval: tuple
    count: int
    pair_sum: float
    ratio: float | None
    note: str = ""


def _pair_g_sum(env, pts):
    """sum over all ordered pairs (x, y) in pts of G(|x - y|), diagonal included.

    Integer sets with more pairs ``n (n - 1) / 2`` than lags (the span)
    count each lag's pairs by FFT; every other set sums its pairs directly.
    """
    n = pts.size
    if pts.dtype == np.int64 and n * (n - 1) // 2 >= pts[-1] - pts[0]:
        return _pair_g_sum_fft(env, pts)
    return _pair_g_sum_direct(env, pts)


def _pair_g_sum_fft(env, pts):
    """:func:`_pair_g_sum` for an integer set, from the lag multiplicities."""
    n = pts.size
    g0 = float(g_function(env, 0.0))
    # difference multiplicities: autocorrelation of the indicator by FFT,
    # zero-padded past 2 span so that no lag wraps around
    span = int(pts[-1] - pts[0])
    nfft = 1 << (2 * span).bit_length()
    ind = np.zeros(nfft)
    ind[pts - pts[0]] = 1.0
    spec = np.fft.rfft(ind)
    corr = np.fft.irfft(spec * np.conj(spec), nfft)[: span + 1]  # lag 0 .. span
    counts = np.rint(corr)
    residue = float(np.max(np.abs(corr - counts)))
    if residue >= 0.25:
        raise RuntimeError(f"pair counts off integers by {residue:.3g}: FFT roundoff")
    counts = counts.astype(np.int64)
    ds = np.flatnonzero(counts[1:]) + 1
    if ds.size == 0:
        return n * g0
    gv = np.asarray(g_function(env, ds.astype(float)))
    return n * g0 + 2.0 * float(np.dot(counts[ds], gv))


def _pair_g_sum_direct(env, pts):
    """:func:`_pair_g_sum` over sorted ``pts`` from the ``n (n - 1) / 2`` pair distances.

    The distances ``pts[j] - pts[i]`` for ``j > i`` are written row by row
    into one buffer of ``_PAIR_BLOCK`` pairs, and ``G`` is summed each time
    it fills, so memory does not grow with the set.
    """
    n = pts.size
    total = n * float(g_function(env, 0.0))
    buf = np.empty(min(_PAIR_BLOCK, n * (n - 1) // 2))
    fill = 0
    for i in range(n - 1):
        j = i + 1
        while j < n:
            take = min(n - j, buf.size - fill)
            np.subtract(pts[j : j + take], pts[i], out=buf[fill : fill + take])
            fill, j = fill + take, j + take
            if fill == buf.size or (i == n - 2 and j == n):
                total += 2.0 * float(np.sum(g_function(env, buf[:fill])))
                fill = 0
    return total


def interval_energy_test(env, ts, intervals):
    """Pair sums ``sum over lam_m, lam_n in I of G(|lam_m - lam_n|)`` per interval.

    The diagonal contributes ``count * G(0)``.  The reported ratio
    ``pair_sum / count`` staying bounded across nested intervals is the
    windowed proxy for the quadratic test; empty intervals are kept in the
    table with a note instead of failing.
    """
    lam = as_indices(ts)
    rows = []
    for lo, hi in intervals:
        if not (hi > lo):
            raise ValueError(f"bad interval [{lo}, {hi}]")
        i0, i1 = np.searchsorted(lam, [lo, hi], side="left")
        if i1 < lam.size and lam[i1] == hi:
            i1 += 1
        pts = lam[i0:i1]
        if pts.size == 0:
            rows.append(IntervalEnergyRow((lo, hi), 0, 0.0, None, note="empty interval"))
            continue
        s = _pair_g_sum(env, pts)
        rows.append(IntervalEnergyRow((lo, hi), int(pts.size), float(s), float(s / pts.size)))
    return rows


# ----------------------------------------------------------------------------
# G vs x F^2 equivalence
# ----------------------------------------------------------------------------


@dataclass
class GEquivalence:
    C: float
    x: np.ndarray
    ratio_over: np.ndarray
    ratio_under: np.ndarray


def g_equivalence_check(env, x_grid=None):
    """Two-sided comparison constant between ``G(x)`` and ``x F(x)^2``.

    Valid for power envelopes with exponent strictly between 1/2 and 1, the
    regime where ``x**(1-eps) F(x)`` increases and ``x**(1+eps) F(x)^2``
    decreases.  Other exponents are refused with the failing hypothesis
    named.
    """
    if env.kind != "power":
        raise ValueError("equivalence check applies to power envelopes")
    a = env.a
    if a >= 1.0:
        raise ValueError(
            f"exponent a = {a:g} >= 1: the hypothesis that x**(1-eps) * F(x) is "
            "increasing fails for every eps > 0 (a log factor appears instead)"
        )
    if a <= 0.5:
        raise ValueError(
            f"exponent a = {a:g} <= 1/2: the hypothesis that x**(1+eps) * F(x)**2 is "
            "decreasing fails for every eps > 0"
        )
    if x_grid is None:
        x_grid = np.geomspace(1.0, 1e4, 400)
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid < 1.0):
        raise ValueError("equivalence grid must start at x >= 1")
    g = np.asarray(g_function(env, x_grid))
    xf2 = x_grid * env.F(x_grid) ** 2
    over = g / xf2
    under = xf2 / g
    return GEquivalence(
        C=float(max(np.max(over), np.max(under))),
        x=x_grid,
        ratio_over=over,
        ratio_under=under,
    )
