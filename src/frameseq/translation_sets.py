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
from dataclasses import dataclass, field

import numpy as np

from .spectrum import TimeEnvelope

__all__ = [
    "TranslationSet",
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
        if kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown translation-set kind: {kind!r}")
        return TranslationSet(kind=kind, params=tuple(sorted(params.items())))

    @classmethod
    def explicit(cls, points):
        pts = tuple(float(p) for p in points)
        if len(pts) == 0:
            raise ValueError("explicit set needs at least one point")
        if len(set(pts)) != len(pts):
            raise ValueError("explicit set has repeated points")
        return cls._make("explicit", points=tuple(sorted(pts)))

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
        """Sorted numpy array of the realized points (int64 when integral)."""
        k = self.kind
        if k == "explicit":
            pts = np.asarray(self._p("points"), dtype=float)
            if np.allclose(pts, np.round(pts)):
                return np.sort(np.round(pts).astype(np.int64))
            return np.sort(pts)
        if k == "integers":
            n = self._p("half_width")
            return np.arange(-n, n + 1, dtype=np.int64)
        if k == "subgroup":
            m, n = self._p("m"), self._p("half_width")
            return m * np.arange(-n, n + 1, dtype=np.int64)
        if k == "naturals":
            return np.arange(1, self._p("n_max") + 1, dtype=np.int64)
        if k == "squares":
            n = np.arange(0, self._p("n_max") + 1, dtype=np.int64)
            return n * n
        if k == "powers":
            p, nm = self._p("exponent"), self._p("n_max")
            n = np.arange(0, nm + 1, dtype=np.int64)
            return n**p
        if k == "geometric":
            return 2 ** np.arange(0, self._p("n_max") + 1, dtype=np.int64)
        if k == "dyadic_blocks":
            from .constructions import DyadicBlocks

            return DyadicBlocks(self._p("alpha"), self._p("n_max")).realize()
        raise AssertionError(k)

    @property
    def is_integer(self):
        return self.realize().dtype == np.int64

    def span(self):
        lam = self.realize()
        return float(lam[-1] - lam[0])

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
        if kind == "explicit":
            return TranslationSet.explicit(params["points"])
        if kind == "integers":
            return TranslationSet.integers(params["half_width"])
        if kind == "subgroup":
            return TranslationSet.subgroup(params["m"], params["half_width"])
        if kind == "naturals":
            return TranslationSet.naturals(params["n_max"])
        if kind == "squares":
            return TranslationSet.squares(params["n_max"])
        if kind == "powers":
            return TranslationSet.powers(params["exponent"], params["n_max"])
        if kind == "geometric":
            return TranslationSet.geometric(params["n_max"])
        if kind in ("dyadic_blocks", "dyadic"):
            return TranslationSet.dyadic_blocks(params["alpha"], params["n_max"])
        raise ValueError(f"unknown translation-set kind: {kind!r}")

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


# ----------------------------------------------------------------------------
# sliding-window density
# ----------------------------------------------------------------------------


def _density_sorted(lam, x):
    """Exact sup over t of |lam intersect [t, t+x]| for a sorted array."""
    if x < 0:
        raise ValueError("window length x must be >= 0")
    lam = np.asarray(lam)
    if lam.dtype == np.int64:
        if x >= lam[-1] - lam[0]:
            return int(lam.size)
        # exact for integer points, and an int64 needle array keeps
        # searchsorted from recasting lam to float on every call
        x = math.floor(x)
    # the sup is attained with the window's left endpoint on a set point
    right = np.searchsorted(lam, lam + x, side="right")
    return int(np.max(right - np.arange(lam.size)))


def density(lam, x):
    """Sliding-window density ``D(x)`` on the realized window.

    ``lam`` may be a :class:`TranslationSet` or a sorted array.  For
    generator-backed sets a window shorter than ``x`` is an error, because
    the windowed count would silently undercount the infinite set; explicit
    finite sets are counted exactly for any ``x``.
    """
    if isinstance(lam, TranslationSet):
        arr = lam.realize()
        if lam.kind != "explicit" and x > float(arr[-1] - arr[0]):
            raise ValueError(
                f"realized window span {float(arr[-1] - arr[0]):g} is shorter than x = {x:g}; "
                "enlarge the realization window"
            )
        return _density_sorted(arr, x)
    arr = np.sort(np.asarray(lam))
    return _density_sorted(arr, x)


def density_exponent_fit(lam, p_max=None, n_points=2):
    """Tail growth exponent of ``D`` over the largest dyadic windows.

    Returns the least-squares slope of ``log2 D(2^p)`` against ``p`` over the
    top ``n_points`` dyadic windows that fit in the realization.  Small-scale
    windows are excluded deliberately: transient dense prefixes would
    otherwise dominate the fit.
    """
    arr = lam.realize() if isinstance(lam, TranslationSet) else np.sort(np.asarray(lam))
    span = float(arr[-1] - arr[0])
    if p_max is None:
        p_max = int(math.floor(math.log2(span)))
    ps = np.arange(p_max - n_points + 1, p_max + 1, dtype=float)
    if ps[0] < 1:
        raise ValueError("not enough dyadic scales in the window for a tail fit")
    ds = np.array([_density_sorted(arr, 2.0**p) for p in ps], dtype=float)
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
    lam = ts.realize() if isinstance(ts, TranslationSet) else np.sort(np.asarray(ts))
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


def _power_intF2_tail(a, x):
    """integral_x^inf F^2 for F = min(1, t^-a) with a > 1/2, vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x >= 1.0
    out[big] = x[big] ** (1.0 - 2.0 * a) / (2.0 * a - 1.0)
    out[~big] = (1.0 - x[~big]) + 1.0 / (2.0 * a - 1.0)
    return out


# quadratures are held to a relative tolerance: the integrals past a large
# knot are far below quad's default absolute tolerance of 1.49e-8
_QUAD_TOL = {"epsabs": 0.0, "epsrel": 1e-11}


def _tail_F2_doubling(env, x, rel_tol=1e-10, k_max=80):
    """integral_x^inf F^2 by doubling windows; relies on monotone decay."""
    from scipy import integrate

    total = 0.0
    lo = x
    for _ in range(k_max):
        hi = 2.0 * max(lo, 0.5)
        val, _ = integrate.quad(lambda t: float(env.F(t)) ** 2, lo, hi, limit=200, **_QUAD_TOL)
        total += val
        # crude but safe bound for what is left, using monotonicity
        rest_cap = float(env.F(hi)) ** 2 * hi * 2.0
        lo = hi
        if rest_cap < rel_tol * max(total, 1e-300):
            return total + rest_cap
    return total


def g_function(env, x):
    """``G(x) = F(x) int_0^x F + int_x^inf F^2``; closed form for power kind.

    ``G(0)`` equals the squared L2 norm of the envelope.  Other kinds take
    one cumulative quadrature over the sorted knots ``{0, 1} U x``: ``F``
    and ``F^2`` are integrated once over each gap between consecutive
    knots, a forward running sum gives ``int_0^x F`` at every knot, and a
    backward one, seeded by a doubling tail bound past the largest knot,
    gives ``int_x^inf F^2``.  Each gap integral is held to a relative
    tolerance of 1e-11, so ``G`` carries a relative quadrature error of
    about 1e-10.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("G is defined for x >= 0")
    if env.kind == "power":
        out = env.F(x) * _power_int0F(env.a, x) + _power_intF2_tail(env.a, x)
    else:
        from scipy import integrate

        knots, where = np.unique(np.concatenate(([0.0, 1.0], x.ravel())), return_inverse=True)
        gaps_F = np.empty(knots.size - 1)
        gaps_F2 = np.empty(knots.size - 1)
        for i, (lo, hi) in enumerate(zip(knots[:-1].tolist(), knots[1:].tolist())):
            gaps_F[i] = integrate.quad(lambda t: float(env.F(t)), lo, hi, limit=400, **_QUAD_TOL)[0]
            gaps_F2[i] = integrate.quad(lambda t: float(env.F(t)) ** 2, lo, hi, limit=200, **_QUAD_TOL)[0]
        int0F = np.concatenate(([0.0], np.cumsum(gaps_F)))
        # backward sum from the tail inward: the smallest terms are added first
        tail = np.cumsum(np.concatenate(([_tail_F2_doubling(env, knots[-1])], gaps_F2[::-1])))[::-1]
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
    becomes ``du`` exactly).  For power envelopes the integrand's tail
    exponent is the sum of the closed-form G slope and the fitted density
    growth over the top decade; the verdict is ``converges`` when it is
    clearly negative, ``diverges`` when clearly nonnegative, otherwise
    ``undetermined``.  Non-power envelopes have no certified tail model and
    always report ``undetermined`` with the window integral attached.
    """
    lam = ts.realize() if isinstance(ts, TranslationSet) else np.sort(np.asarray(ts))
    span = float(lam[-1] - lam[0])
    if x_max > span:
        raise ValueError(f"x_max {x_max:g} exceeds the realized window span {span:g}")
    u = np.linspace(0.0, math.log(x_max), n_grid)
    xs = np.exp(u)
    dvals = np.array([_density_sorted(lam, xv) for xv in xs], dtype=float)
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

    Reports the running product on a log grid and the growth factors of the
    running max from the quarter window and the half window to the full
    window.  A product still growing by a clear factor at the window edge
    violates the necessary condition; a flat running max is consistent with
    a bounded product.
    """
    lam = ts.realize() if isinstance(ts, TranslationSet) else np.sort(np.asarray(ts))
    span = float(lam[-1] - lam[0])
    if x_max > span:
        raise ValueError(f"x_max {x_max:g} exceeds the realized window span {span:g}")
    xs = np.geomspace(1.0, x_max, n_grid)
    dvals = np.array([_density_sorted(lam, xv) for xv in xs], dtype=float)
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
    """sum over all ordered pairs (x, y) in pts of G(|x - y|), diagonal included."""
    n = pts.size
    if n == 0:
        return 0.0
    g0 = float(g_function(env, 0.0))
    if pts.dtype == np.int64:
        # difference multiplicities via correlation of the indicator
        lo = int(pts[0])
        span = int(pts[-1]) - lo
        ind = np.zeros(span + 1)
        ind[(pts - lo).astype(int)] = 1.0
        corr = np.correlate(ind, ind, mode="full")[span:]  # lag 0 .. span
        counts = np.rint(corr).astype(np.int64)
        ds = np.flatnonzero(counts[1:]) + 1
        if ds.size == 0:
            return n * g0
        gv = np.asarray(g_function(env, ds.astype(float)))
        return n * g0 + 2.0 * float(np.dot(counts[ds], gv))
    total = n * g0
    block = 512
    for i in range(0, n, block):
        chunk = pts[i : i + block]
        diffs = np.abs(chunk[:, None] - pts[None, :])
        mask = np.triu(np.ones((chunk.size, n), dtype=bool), k=i + 1)
        vals = np.asarray(g_function(env, diffs[mask]))
        total += 2.0 * float(np.sum(vals))
    return total


def interval_energy_test(env, ts, intervals):
    """Pair sums ``sum over lam_m, lam_n in I of G(|lam_m - lam_n|)`` per interval.

    The diagonal contributes ``count * G(0)``.  The reported ratio
    ``pair_sum / count`` staying bounded across nested intervals is the
    windowed proxy for the quadratic test; empty intervals are kept in the
    table with a note instead of failing.
    """
    lam = ts.realize() if isinstance(ts, TranslationSet) else np.sort(np.asarray(ts))
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
