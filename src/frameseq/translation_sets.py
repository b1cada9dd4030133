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

from .periodization import GRID_CAP, InconsistencyError, ResourceLimitError

__all__ = [
    "TranslationSet",
    "DyadicBlocks",
    "as_indices",
    "density",
    "g_function",
    "upper_bound_sufficient",
    "upper_bound_necessary",
    "interval_energy_test",
    "g_equivalence_check",
    "density_exponent_fit",
]

@dataclass(frozen=True)
class TranslationSet:
    """A finite realization window into a (possibly infinite) index set.

    Two facts describe the set the token stands for, not its window:
    ``period`` is the lattice step (1 for ``Z`` and ``N``, ``m`` for
    ``mZ:m``, ``None`` off the lattices), and ``one_sided`` says the set
    lies in ``[0, inf)``.
    """

    kind: str
    params: tuple  # sorted (key, value) pairs, hashable
    period: int | None
    one_sided: bool

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(kind, period, one_sided, **params):
        return TranslationSet(kind, tuple(sorted(params.items())), period, one_sided)

    @classmethod
    def explicit(cls, points):
        pts = as_indices(points)
        return cls._make("explicit", None, bool(pts[0] >= 0), points=tuple(float(p) for p in pts.tolist()))

    @classmethod
    def integers(cls, half_width):
        if half_width < 1:
            raise ValueError("half_width must be >= 1")
        return cls._make("integers", 1, False, half_width=int(half_width))

    @classmethod
    def subgroup(cls, m, half_width):
        if m < 1:
            raise ValueError("subgroup step m must be >= 1")
        if half_width < 1:
            raise ValueError("half_width must be >= 1")
        return cls._make("subgroup", int(m), False, m=int(m), half_width=int(half_width))

    @classmethod
    def naturals(cls, n_max):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        return cls._make("naturals", 1, True, n_max=int(n_max))

    @classmethod
    def squares(cls, n_max):
        return cls._make("squares", None, True, n_max=int(n_max))

    @classmethod
    def powers(cls, exponent, n_max):
        if exponent < 2:
            raise ValueError("power exponent must be >= 2")
        return cls._make("powers", None, True, exponent=int(exponent), n_max=int(n_max))

    @classmethod
    def geometric(cls, n_max):
        return cls._make("geometric", None, True, n_max=int(n_max))

    @classmethod
    def dyadic_blocks(cls, alpha, n_max):
        blocks = DyadicBlocks(alpha, n_max)
        return cls._make("dyadic_blocks", None, True, alpha=blocks.alpha, n_max=blocks.n_max)

    # -- realization ---------------------------------------------------------

    def realize(self):
        """The realized points, normalized by :func:`as_indices`; past ``GRID_CAP`` of them are refused before any is made."""
        k, p = self.kind, dict(self.params)
        if k == "explicit":
            return as_indices(p["points"])
        if self.period is not None:
            n = p["n_max"] if self.one_sided else p["half_width"]
            start = 1 if self.one_sided else -n
            count = n + 1 - start
        elif k == "dyadic_blocks":
            blocks = DyadicBlocks(p["alpha"], p["n_max"])
            count = sum(1 << (n - m) for n, m in enumerate(blocks.m.tolist(), 1))
        else:
            count = p["n_max"] + 1
        if count > GRID_CAP:
            raise ResourceLimitError(f"the {k} index set has {count} points, past the cap {GRID_CAP}")
        if self.period is not None:
            if self.period * n > 1 << 53:  # in Python ints: int64 would overflow first
                raise ValueError(_RANGE_MESSAGE)
            pts = self.period * np.arange(start, n + 1, dtype=np.int64)
        elif k in ("squares", "powers"):
            e = 2 if k == "squares" else p["exponent"]
            pts = np.arange(0, p["n_max"] + 1, dtype=np.int64) ** e
        elif k == "geometric":
            pts = 2 ** np.arange(0, p["n_max"] + 1, dtype=np.int64)
        else:
            pts = blocks.realize()
        return as_indices(pts)

    @staticmethod
    def from_token(token, window=None):
        """Parse compact CLI tokens like ``Z``, ``N``, ``mZ:3``, ``squares:100``, ``list:0.5,2``."""
        if token.startswith("list:"):
            vals = [_number(v) for v in token[5:].split(",") if v]
            if not vals:
                raise ValueError("empty list: index token")
            return TranslationSet.explicit(vals)
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
        if name in ("squares", "geometric"):
            if not args and window is None:
                raise ValueError(f"token {name} needs a size ({name}:<n> or a window)")
            n = int(args[0]) if args else window
            return TranslationSet.squares(n) if name == "squares" else TranslationSet.geometric(n)
        if name == "powers":
            if len(args) == 2:
                return TranslationSet.powers(int(args[0]), int(args[1]))
            if len(args) == 1 and window is not None:
                return TranslationSet.powers(int(args[0]), window)
            raise ValueError("token powers:<exp>:<n_max>")
        if name == "blocks":
            if len(args) != 2:
                raise ValueError("token blocks:<alpha>:<n_max>")
            return TranslationSet.dyadic_blocks(float(args[0]), int(args[1]))
        raise ValueError(f"unknown translation-set token: {token!r}")


def _number(text):
    """An integer literal as an exact int (so a point past 2^53 is refused, not moved), else a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _check_alpha(alpha):
    """``alpha`` as a float when it lies in (0, 1), else ValueError."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha:g}")
    return alpha


@dataclass
class DyadicBlocks:
    """Index set ``union over n of {2^n + k 2^(m_n) : 1 <= k <= 2^(n - m_n)}``.

    ``m_n = max(floor(alpha n - sqrt n), 0)`` thins block ``n`` from full
    density down to ``2^(n - m_n)`` points, giving overall density exponent
    about ``1 - alpha``.  Block ``n`` lives in ``(2^n, 2^(n+1)]``, so blocks
    never overlap and the realized set is strictly increasing.
    """

    alpha: float
    n_max: int
    m: np.ndarray = field(init=False)

    def __post_init__(self):
        self.alpha = _check_alpha(self.alpha)
        self.n_max = int(self.n_max)
        if not (1 <= self.n_max <= 24):
            raise ValueError("n_max out of the supported range [1, 24]")
        ns = np.arange(1, self.n_max + 1)
        self.m = np.maximum(np.floor(self.alpha * ns - np.sqrt(ns)).astype(int), 0)
        # alpha n - sqrt n grows from n = 1/(4 alpha^2) on; multiplied out, a
        # tiny alpha whose square underflows leaves the range empty
        tail = self.m[4.0 * self.alpha**2 * (ns - 1) >= 1.0]
        if tail.size > 1 and np.any(np.diff(tail) < 0):
            raise InconsistencyError("block exponents decreased in the stable range")

    def block(self, n):
        """The ``n``-th block as a sorted integer array."""
        if not (1 <= n <= self.n_max):
            raise ValueError(f"block index {n} outside [1, {self.n_max}]")
        m = int(self.m[n - 1])
        k = np.arange(1, 2 ** (n - m) + 1, dtype=np.int64)
        return (1 << n) + k * (1 << m)

    def realize(self):
        lam = np.concatenate([self.block(n) for n in range(1, self.n_max + 1)])
        if np.any(np.diff(lam) <= 0):
            raise InconsistencyError("realized index set is not strictly increasing")
        return lam


# float64 tells neighbouring integers apart up to 2^53, and int64 differences
# of points this size cannot overflow
_MAX_INDEX = 2.0**53
_RANGE_MESSAGE = "index points must be finite, of magnitude at most 2^53"


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
        if arr.dtype.kind == "f":
            top = np.max(np.abs(x))
            in_range = top <= _MAX_INDEX  # NaN fails too
            if top == _MAX_INDEX and not isinstance(lam, np.ndarray):
                # a list mixing floats with an integer past 2^53 arrives rounded onto 2^53
                in_range = all(abs(v) <= 1 << 53 for v in lam)
        else:  # exactly, since 2^53 + 1 rounds to 2^53 as a float
            in_range = max(-int(arr.min()), int(arr.max())) <= _MAX_INDEX
        if not in_range:
            raise ValueError(_RANGE_MESSAGE)
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

# integer sets probe by change points only from _PROBE_MIN points on (below
# that a scan costs microseconds) and with fewer than n / _PROBE_RATIO change
# points: each adds two gathered candidates, about 30 scanned starts' worth
_PROBE_MIN = 64
_PROBE_RATIO = 32


def _min_spans(lam, changes, ks):
    """``m_k = min_i (lam[i+k] - lam[i])`` for each of ``ks``, from the candidate starts of :func:`_density_sorted`.

    The candidates are ``0``, ``n - 1 - k``, each change point ``c`` and
    ``c - k``; those out of range are clipped onto the ends.
    """
    ks = ks[:, None]
    last = lam.size - 1 - ks
    at_c = np.broadcast_to(changes, (ks.size, changes.size))
    i = np.concatenate((np.zeros_like(last), last, at_c, at_c - ks), axis=1)
    np.clip(i, 0, last, out=i)
    return (lam[i + ks] - lam[i]).min(axis=1)


def _density_sorted(lam, x):
    """Exact ``sup_t |lam intersect [t, t + x]|`` for a sorted array, at one x or a whole grid.

    With ``m_k = min_i (lam[i+k] - lam[i])`` the count is
    ``D(x) = 1 + max{k : m_k <= x}``, because the sup is attained with the
    window's left endpoint on a set point.  ``m_k`` is nondecreasing in
    ``k`` (in floating point too: rounding is monotone), so each window is
    found by bisection over ``k``.  The windows of a grid bisect together:
    a round probes each distinct ``k`` once, and since ``D`` is
    nondecreasing in ``x`` every round's brackets are shared along the
    sorted windows.  Integer sets compare their integer gaps with
    ``floor(x)``.  Returns an int for a scalar ``x``, else an int64 array
    of ``x``'s shape.

    A probe scans all ``n - k`` starts, except on integer sets with few
    changes of gap.  Call ``c`` a change point when the gaps on either side
    of ``lam[c]`` differ (``np.diff(lam, 2)[c - 1] != 0``).  The step
    ``f(i + 1) - f(i)`` of ``f(i) = lam[i+k] - lam[i]`` is
    ``gap[i+k] - gap[i]``, which changes from ``i - 1`` to ``i`` only when
    ``i`` or ``i + k`` is a change point.  Between such starts ``f`` is
    linear, so its minimum over ``0 <= i <= n - 1 - k`` sits at ``0``,
    ``n - 1 - k``, a change point ``c`` or ``c - k``: O(#changes) exact
    integer differences, all of a round's probes in one gather.  On float
    sets equal float gaps need not be equal real gaps, so they always scan.
    """
    xs = np.asarray(x, dtype=float)
    if not (xs >= 0).all():  # NaN fails too
        raise ValueError("window length x must be >= 0")
    lam = np.asarray(lam)
    n = lam.size
    changes = None
    if lam.dtype == np.int64:
        xs = np.floor(np.minimum(xs, lam[-1] - lam[0])).astype(np.int64)
        if n >= _PROBE_MIN:
            c = np.flatnonzero(np.diff(lam, 2)) + 1
            if _PROBE_RATIO * c.size < n:
                changes = c
    gaps = {0: 0}

    def m(k):
        if k not in gaps:
            gaps[k] = (lam[k:] - lam[:-k]).min() if changes is None else _min_spans(lam, changes, np.array([k]))[0]
        return gaps[k]

    if xs.ndim == 0:  # one window bisects in Python scalars
        lo, hi, v = 0, n, xs.item()
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
    hi = np.full(u.size, n, dtype=np.int64)
    new = np.ones(u.size, dtype=bool)
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        np.not_equal(mid[1:], mid[:-1], out=new[1:])
        ks = mid[new]
        mk = np.array([m(k) for k in ks.tolist()]) if changes is None else _min_spans(lam, changes, ks)
        below = mk[np.cumsum(new) - 1] <= u
        lo = np.maximum.accumulate(np.where(below, mid, lo))
        hi = np.minimum.accumulate(np.where(below, hi, mid)[::-1])[::-1]
    out = np.empty(u.size, dtype=np.int64)
    out[order] = lo + 1
    return out.reshape(xs.shape)


def _span(arr):
    """``arr[-1] - arr[0]`` of sorted points, exactly: an int for integer points, whose span can pass 2^53."""
    return int(arr[-1] - arr[0]) if arr.dtype.kind == "i" else float(arr[-1] - arr[0])


def density(lam, x):
    """Sliding-window density ``D(x)`` on the realized window, at one x or a grid.

    ``lam`` may be a :class:`TranslationSet` or any array-like that
    :func:`as_indices` accepts; repeated points are refused.  For
    generator-backed sets a window shorter than ``x`` is an error, because
    the windowed count would silently undercount the infinite set; explicit
    finite sets are counted exactly for any ``x``.
    """
    arr = as_indices(lam)
    span = _span(arr)
    if isinstance(lam, TranslationSet) and lam.kind != "explicit" and float(np.max(x)) > span:
        raise ValueError(
            f"realized window span {span} is shorter than x = {np.max(x):g}; "
            "enlarge the realization window"
        )
    return _density_sorted(arr, x)


def density_exponent_fit(lam):
    """Tail growth exponent of ``D`` over the two largest dyadic windows.

    Returns the least-squares slope of ``log2 D(2^p)`` against ``p`` over the
    top two dyadic windows that fit in the realization, both taken in one
    density sweep.  Small-scale windows are excluded deliberately:
    transient dense prefixes would otherwise dominate the fit.
    """
    arr = as_indices(lam)
    span = _span(arr)
    # the windows 2^(p_max - 1) and 2^p_max with p_max - 1 >= 1 need a span of 4
    if span < 4:
        raise ValueError("not enough dyadic scales in the window for a tail fit")
    p_max = int(span).bit_length() - 1  # floor(log2 span), exactly
    ps = np.arange(p_max - 1, p_max + 1, dtype=float)
    ds = _density_sorted(arr, 2.0**ps).astype(float)
    slope = float(np.polyfit(ps, np.log2(ds), 1)[0])
    return slope, {"p": ps, "density": ds}


# ----------------------------------------------------------------------------
# the comparison function G
# ----------------------------------------------------------------------------


# the direct pair sum takes this many pairs at a time, so its memory does
# not grow with the set; G's temporaries at this size are a few hundred KB
_PAIR_BLOCK = 1 << 14


def g_function(env, x):
    """``G(x) = F(x) int_0^x F + int_x^inf F^2`` at one x or an array, from :meth:`TimeEnvelope.integrals`.

    ``G(0)`` equals the squared L2 norm of the envelope.  Power envelopes
    are closed form; other kinds carry the integrals' relative quadrature
    error of about 1e-10, and a value the kernel cannot certify raises
    ``QuadratureError``.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("G is defined for x >= 0")
    int0F, tail = env.integrals(x)
    out = env.F(x) * int0F + tail
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


def _window_table(env, ts, x_max):
    """The realized window of ``ts``, refused when shorter than ``x_max``, as ``xs -> (D, G)``.

    Both upper-bound tests read ``D`` (one density sweep) and ``G`` (one
    :func:`g_function` call) on their own grid of windows up to ``x_max``.
    """
    lam = as_indices(ts)
    span = _span(lam)
    if float(x_max) > span:
        raise ValueError(f"x_max {x_max:g} exceeds the realized window span {span}")
    return lambda xs: (_density_sorted(lam, xs).astype(float), np.asarray(g_function(env, xs)))


@dataclass
class SufficiencyResult:
    integral: float
    exponent: float | None
    verdict: str


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
    always report ``undetermined`` with the window integral and no exponent.
    """
    table = _window_table(env, ts, x_max)
    if not x_max > 1.0:
        raise ValueError(f"x_max {x_max:g} leaves no window [1, x_max] to integrate over")
    u = np.linspace(0.0, math.log(x_max), n_grid)
    xs = np.exp(u)
    dvals, gvals = table(xs)
    integral = float(np.trapezoid(gvals * dvals, u))
    if env.kind != "power":
        return SufficiencyResult(integral, exponent=None, verdict="undetermined")

    top = xs >= x_max / 10.0
    g_exp, has_log = _g_tail_exponent(env)
    e = g_exp + float(np.polyfit(np.log(xs[top]), np.log(dvals[top]), 1)[0])
    margin = 0.05
    if e <= -margin:
        verdict = "converges"
    elif e >= margin or (has_log and e >= -margin):
        verdict = "diverges"
    else:
        verdict = "undetermined"
    return SufficiencyResult(integral, exponent=e, verdict=verdict)


@dataclass
class NecessityResult:
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
    table = _window_table(env, ts, x_max)
    if not x_max >= 4.0:
        raise ValueError(f"x_max {x_max:g} < 4 leaves the quarter window [1, x_max / 4] empty")
    xs = np.geomspace(1.0, x_max, n_grid)
    dvals, gvals = table(xs)
    product = gvals * dvals
    running = np.maximum.accumulate(product)
    sup_est = float(running[-1])

    def growth_from(x):
        # a product that is 0 throughout does not grow; one that leaves 0 grows without bound
        if sup_est == 0.0:
            return 1.0
        earlier = float(np.max(product[xs <= x * (1 + 1e-12)]))
        return sup_est / earlier if earlier > 0.0 else math.inf

    growth_half = growth_from(x_max / 2.0)
    growth_quarter = growth_from(x_max / 4.0)
    if growth_quarter >= 1.5 and growth_half >= 1.15:
        verdict = "necessary condition violated (product growing)"
    elif growth_quarter <= 1.1:
        verdict = "consistent with bounded product"
    else:
        verdict = "undetermined"
    return NecessityResult(
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
    return GEquivalence(C=float(max(np.max(g / xf2), np.max(xf2 / g))))
