"""Spectral profiles and decay envelopes for translate-family generators.

A generator ``phi`` enters the library in one of two ways:

* through its frequency profile ``phi_hat``, a real nonnegative function
  given in closed form piece by piece (:class:`FourierProfile`), or
* through a monotone time-domain majorant ``F`` with ``|phi(x)| <= F(|x|)``
  (:class:`TimeEnvelope`).

Autocorrelations ``<phi, phi(. - a)>`` are evaluated exactly from the pieces
where closed-form antiderivatives exist.  Every envelope integral runs on
one checked adaptive kernel, QUADPACK's G10-K21 rule over many gaps at once
(:func:`_integrate_gaps`), which raises :class:`QuadratureError` on a value
it cannot certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadratureError",
    "Piece",
    "FourierProfile",
    "TimeEnvelope",
    "eval_spectrum",
    "autocorrelation",
    "autocorrelations",
    "time_side_values",
]

_TWO_PI = 2.0 * math.pi


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot certify the requested tolerance."""


# ----------------------------------------------------------------------------
# adaptive quadrature
# ----------------------------------------------------------------------------

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) on [-1, 1]: the positive
# Kronrod nodes largest first with their weights, as QUADPACK lists them
# (the second, fourth, ... are the nodes of the embedded 10-point Gauss
# rule), then the whole rule in increasing node order
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980244000, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_GK_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate((-_GK_X, [0.0], _GK_X[::-1]))
_GK_KRONROD = np.concatenate((_GK_WK, [0.149445554002916905664936468389821], _GK_WK[::-1]))
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _GK_WG
_GK_GAUSS[11:20:2] = _GK_WG[::-1]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_SUBNORMAL = np.finfo(float).smallest_subnormal
# every gap integral is held to this relative tolerance
_QUAD_RTOL = 1e-11
# gaps are integrated this many at a time: a gap holds about 1.2 KB in its
# first round, so memory stays bounded whatever the number of knots
_GAP_BLOCK = 1 << 14


def _gk21(f, a, b):
    """QUADPACK's G10-K21 estimates of the integrals of ``f`` over each ``[a_i, b_i]``.

    ``f`` maps a 1-d array of points to an ``(m, points)`` array of ``m``
    integrands; it is called once.  Returns the Kronrod values, QUADPACK's
    error estimates and their roundoff floors (``50 eps`` times the integral
    of ``|f|``, 0 where that underflows), each of shape ``(m, len(a))``.
    """
    half = 0.5 * (b - a)
    pts = (0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES
    vals = f(pts.ravel()).reshape(-1, a.size, 21)
    resk = vals @ _GK_KRONROD
    err = np.abs((resk - vals @ _GK_GAUSS) * half)
    resasc = np.abs(vals - 0.5 * resk[..., None]) @ _GK_KRONROD * half
    resabs = np.abs(vals) @ _GK_KRONROD * half
    scale = np.minimum(1.0, np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0)) ** 1.5
    err = np.where((resasc > 0) & (err > 0), resasc * scale, err)
    rounding = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return resk * half, np.maximum(rounding, err), rounding


def _integrate_gaps(f, knots):
    """Integrals of ``f`` over every gap between consecutive sorted ``knots``.

    Adaptive G10-K21 over all gaps at once, with one call of ``f`` per
    round.  Each gap has a tolerance ``max(_QUAD_RTOL |I|, tiny (hi - lo))``
    per integrand, ``tiny`` the smallest normal double (never below the
    smallest subnormal).  A piece's load is its largest error estimate over
    that tolerance; a gap is done when its pieces' loads sum to at most 1.
    In every other gap, each piece whose load is at or above the gap's
    average is bisected.  :class:`QuadratureError` names a gap that cannot
    be done: one whose pieces' roundoff floors alone sum past its tolerance
    (bisection keeps that sum), or one with a piece to split that cannot be
    halved in floating point.  Returns the integrals, shape
    ``(m, len(knots) - 1)``.  Every gap is refined on its own, so taking the
    gaps in blocks of ``_GAP_BLOCK`` changes them only by rounding.
    """
    if knots.size - 1 > _GAP_BLOCK:
        blocks = range(0, knots.size - 1, _GAP_BLOCK)
        return np.concatenate([_integrate_gaps(f, knots[i : i + _GAP_BLOCK + 1]) for i in blocks], axis=1)
    lo, hi = knots[:-1], knots[1:]
    n = lo.size
    floor = np.maximum(_TINY * (hi - lo), _SUBNORMAL)
    a, b, gap = lo, hi, np.arange(n)
    res, err, rnd = _gk21(f, a, b)
    out = np.empty((res.shape[0], n))

    def miss(g, why):
        return QuadratureError(
            f"quadrature on the gap [{lo[g]:.17g}, {hi[g]:.17g}] misses its tolerance "
            f"{np.max(tol[:, g]):.3g}: {why}"
        )

    while True:
        total = np.array([np.bincount(gap, r, minlength=n) for r in res])
        tol = np.maximum(_QUAD_RTOL * np.abs(total), floor)
        drowned = np.max(np.array([np.bincount(gap, r, minlength=n) for r in rnd]) / tol, axis=0) > 1.0
        if drowned.any():
            raise miss(np.argmax(drowned), "the rule's roundoff floor alone exceeds it")
        load = np.max(err / tol[:, gap], axis=0)
        missed = np.bincount(gap, load, minlength=n) > 1.0
        live = missed[gap]
        settled = np.unique(gap[~live])
        out[:, settled] = total[:, settled]
        if not live.any():
            return out
        a, b, gap, load = a[live], b[live], gap[live], load[live]
        res, err, rnd = res[:, live], err[:, live], rnd[:, live]
        split = load >= np.bincount(gap, load, minlength=n)[gap] / np.bincount(gap, minlength=n)[gap]
        mid = 0.5 * (a[split] + b[split])
        stuck = (mid <= a[split]) | (mid >= b[split])
        if np.any(stuck):
            raise miss(gap[split][np.argmax(stuck)], "a piece it must split is at the resolution of doubles")
        new = _gk21(f, np.concatenate((a[split], mid)), np.concatenate((mid, b[split])))
        keep = ~split
        a = np.concatenate((a[keep], a[split], mid))
        b = np.concatenate((b[keep], mid, b[split]))
        gap = np.concatenate((gap[keep], gap[split], gap[split]))
        res, err, rnd = (np.concatenate((old[:, keep], add), axis=1) for old, add in zip((res, err, rnd), new))


# ----------------------------------------------------------------------------
# frequency-domain profiles
# ----------------------------------------------------------------------------


@dataclass
class Piece:
    """One interval ``[lo, hi)`` of the profile with a closed-form shape.

    Exactly one of ``const``, ``affine``, ``samples`` is set.  ``affine``
    is a ``(slope, intercept)`` pair evaluated as ``slope*xi + intercept``;
    ``samples`` is a nonnegative step function on uniform cells spanning
    ``[lo, hi)``.
    """

    lo: float
    hi: float
    const: float | None = None
    affine: tuple[float, float] | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if not (self.hi > self.lo):
            raise ValueError(f"piece needs hi > lo, got [{self.lo}, {self.hi})")
        set_fields = sum(x is not None for x in (self.const, self.affine, self.samples))
        if set_fields != 1:
            raise ValueError("piece must set exactly one of const, affine, samples")
        if self.const is not None and self.const < 0:
            raise ValueError("profile values must be nonnegative")
        if self.affine is not None:
            s, c = self.affine
            lo_val = s * self.lo + c
            hi_val = s * self.hi + c
            if min(lo_val, hi_val) < -1e-12:
                raise ValueError("affine piece dips below zero on its interval")
        if self.samples is not None:
            self.samples = np.asarray(self.samples, dtype=float)
            if self.samples.ndim != 1 or self.samples.size == 0:
                raise ValueError("samples must be a nonempty 1-d array")
            if np.any(self.samples < 0):
                raise ValueError("profile values must be nonnegative")

    def eval(self, xi):
        """Value of the profile on this piece at points ``xi`` (0 outside)."""
        xi = np.asarray(xi, dtype=float)
        inside = (xi >= self.lo) & (xi < self.hi)
        out = np.zeros_like(xi)
        if self.const is not None:
            out[inside] = self.const
        elif self.affine is not None:
            s, c = self.affine
            out[inside] = s * xi[inside] + c
        else:
            width = (self.hi - self.lo) / self.samples.size
            idx = np.floor((xi[inside] - self.lo) / width).astype(int)
            idx = np.clip(idx, 0, self.samples.size - 1)
            out[inside] = self.samples[idx]
        return out

    # coefficients (c0, c1, c2) of phi_hat**power (power 1 or 2) on [lo, hi)
    def _poly(self, power):
        if self.const is not None:
            return (self.const**power, 0.0, 0.0)
        if self.affine is not None:
            s, c = self.affine
            return (c, s, 0.0) if power == 1 else (c * c, 2.0 * s * c, s * s)
        return None  # samples handled cell by cell

    def to_json(self):
        if self.const is not None:
            shape = {"const": self.const}
        elif self.affine is not None:
            shape = {"affine": {"slope": self.affine[0], "intercept": self.affine[1]}}
        else:
            shape = {"samples": [float(v) for v in self.samples]}
        return {"lo": self.lo, "hi": self.hi, "shape": shape}

    @staticmethod
    def from_json(obj):
        shape = obj["shape"]
        kwargs = {}
        if "const" in shape:
            kwargs["const"] = float(shape["const"])
        elif "affine" in shape:
            kwargs["affine"] = (float(shape["affine"]["slope"]), float(shape["affine"]["intercept"]))
        elif "samples" in shape:
            kwargs["samples"] = np.asarray(shape["samples"], dtype=float)
        else:
            raise ValueError(f"unknown piece shape keys: {sorted(shape)}")
        return Piece(lo=float(obj["lo"]), hi=float(obj["hi"]), **kwargs)


@dataclass
class FourierProfile:
    """Piecewise closed-form frequency profile ``phi_hat >= 0``.

    Pieces must be pairwise disjoint and sorted; the profile is zero off
    their union, so the support is compact and ``||phi||^2`` is finite.
    """

    pieces: list

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("profile needs at least one piece")
        self.pieces = sorted(self.pieces, key=lambda p: p.lo)
        for prev, cur in zip(self.pieces, self.pieces[1:]):
            if cur.lo < prev.hi - 1e-15:
                raise ValueError(
                    f"pieces overlap: [{prev.lo}, {prev.hi}) and [{cur.lo}, {cur.hi})"
                )
        if self.norm_squared() <= 0.0:
            raise ValueError("profile is identically zero")

    def eval(self, xi):
        """phi_hat at points ``xi`` (vectorized)."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for p in self.pieces:
            out += p.eval(xi)
        return out

    def support(self):
        return (self.pieces[0].lo, self.pieces[-1].hi)

    def breakpoints(self):
        pts = []
        for p in self.pieces:
            pts.extend((p.lo, p.hi))
        return sorted(set(pts))

    def norm_squared(self):
        """Exact integral of phi_hat^2 over the line."""
        total = 0.0
        for p in self.pieces:
            poly = p._poly(2)
            if poly is not None:
                c0, c1, c2 = poly
                u, v = p.lo, p.hi
                total += (
                    c0 * (v - u)
                    + c1 * (v * v - u * u) / 2.0
                    + c2 * (v**3 - u**3) / 3.0
                )
            else:
                width = (p.hi - p.lo) / p.samples.size
                total += width * float(np.sum(p.samples**2))
        return total

    def scaled(self, s):
        """Profile of ``s * phi`` (every value multiplied by ``s``)."""
        out = []
        for p in self.pieces:
            if p.const is not None:
                out.append(Piece(p.lo, p.hi, const=s * p.const))
            elif p.affine is not None:
                out.append(Piece(p.lo, p.hi, affine=(s * p.affine[0], s * p.affine[1])))
            else:
                out.append(Piece(p.lo, p.hi, samples=s * p.samples))
        return FourierProfile(out)

    def to_json(self):
        return {"pieces": [p.to_json() for p in self.pieces]}

    @staticmethod
    def from_json(obj):
        try:
            pieces = [Piece.from_json(po) for po in obj["pieces"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed profile object: {exc}") from exc
        return FourierProfile(pieces)


def eval_spectrum(profile, xi):
    """phi_hat(xi) for scalar or array ``xi``."""
    out = profile.eval(np.atleast_1d(xi))
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(out[0])
    return out


# ----------------------------------------------------------------------------
# closed-form oscillatory integrals over pieces
# ----------------------------------------------------------------------------

# largest shifts-by-cells block a direct sum over sampled cells holds at once
_CELL_BLOCK = 2**20


def _poly_moment(c0, c1, c2, u, v, m):
    # integral over [u, v] of (c0 + c1 x + c2 x^2) * x^m
    return (
        c0 * (v ** (m + 1) - u ** (m + 1)) / (m + 1)
        + c1 * (v ** (m + 2) - u ** (m + 2)) / (m + 2)
        + c2 * (v ** (m + 3) - u ** (m + 3)) / (m + 3)
    )


def _poly_osc_integral(c0, c1, c2, u, v, a):
    """Exact integral over [u, v] of (c0 + c1 xi + c2 xi^2) e^{2 pi i a xi}, per shift in ``a``."""
    w = _TWO_PI * a
    out = np.empty(a.shape, dtype=complex)
    reach = max(abs(u), abs(v))
    # small total phase: the closed form cancels badly, switch to a series
    small = np.abs(w) * reach < 0.5
    iw = 1j * w[~small]
    eu = np.exp(iw * u)
    ev = np.exp(iw * v)
    i0 = (ev - eu) / iw
    i1 = (v * ev - u * eu) / iw - i0 / iw
    i2 = (v * v * ev - u * u * eu) / iw - 2.0 * i1 / iw
    out[~small] = c0 * i0 + c1 * i1 + c2 * i2
    iw = 1j * w[small]
    total = np.zeros(iw.shape, dtype=complex)
    power = np.ones(iw.shape, dtype=complex)
    for m in range(0, 40):
        total += power * _poly_moment(c0, c1, c2, u, v, m)
        power *= iw / (m + 1)
        # the next term, relative to the coefficients, is below 1e-18
        if np.max(np.abs(power), initial=0.0) * max(reach, 1.0) ** (m + 1) < 1e-18:
            break
    out[small] = total
    return out


def _cells_osc_integral(vals, lo, hi, a):
    """Exact integral of the step function ``vals`` on [lo, hi) against e^{2 pi i a xi}.

    Cell ``j`` contributes ``width * sinc(a width) * vals[j] * e^{2 pi i a mid_j}``.
    When ``k = a (hi - lo)`` is an integer for every shift, the phases are
    ``e^{2 pi i a (lo + width/2)} e^{2 pi i k j / n}``, so one DFT of ``vals``
    serves every shift; otherwise the cells are summed directly in blocks.
    """
    n = vals.size
    width = (hi - lo) / n
    k = a * (hi - lo)
    if np.all(k == np.round(k)):
        dft = np.fft.ifft(vals) * n
        phase = np.exp(1j * _TWO_PI * a * (lo + 0.5 * width))
        return width * np.sinc(a * width) * phase * dft[np.round(k).astype(np.int64) % n]
    mids = lo + (np.arange(n) + 0.5) * width
    out = np.empty(a.shape, dtype=complex)
    step = max(1, _CELL_BLOCK // n)
    for s in range(0, a.size, step):
        chunk = a[s : s + step]
        phases = np.exp(1j * _TWO_PI * np.outer(chunk, mids))
        out[s : s + step] = width * np.sinc(chunk * width) * (phases @ vals)
    return out


def _fourier_integrals(profile, xs, power):
    """``integral of phi_hat(xi)**power e^{2 pi i x xi}`` for every ``x`` in the 1-d ``xs``."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    for p in profile.pieces:
        poly = p._poly(power)
        if poly is not None:
            out += _poly_osc_integral(*poly, p.lo, p.hi, xs)
        else:
            out += _cells_osc_integral(p.samples**power, p.lo, p.hi, xs)
    return out


def autocorrelations(profile, shifts):
    """Exact ``<phi, phi(. - a)> = integral of phi_hat(xi)^2 e^{2 pi i a xi}`` per shift.

    The one closed-form kernel behind every Gram entry: polynomial pieces
    integrate in closed form (a power series where the total phase is
    small), sampled pieces cell by cell.  ``shifts`` is 1-d; returns a
    complex array of the same length.
    """
    return _fourier_integrals(profile, shifts, 2)


def time_side_values(profile, xs):
    """Generator values ``phi(x) = integral of phi_hat(xi) e^{2 pi i x xi}``.

    The first power of the profile, not its square: this is the inverse
    transform of the (real, nonnegative) frequency data, used to fit the
    time-side decay rate.  Exact per piece.
    """
    return _fourier_integrals(profile, np.atleast_1d(xs), 1)


# ----------------------------------------------------------------------------
# time-domain envelopes
# ----------------------------------------------------------------------------


def _rate_function(rate):
    """Resolve an admissible-rate description to a vectorized callable."""
    if callable(rate):
        return rate, "callable"
    if isinstance(rate, dict):
        if "power" in rate:
            beta = float(rate["power"]["beta"] if isinstance(rate["power"], dict) else rate["power"])
            return (lambda x: np.power(x, beta)), f"power:{beta}"
        if "xlog" in rate:
            return (lambda x: x / np.log(np.e + x)), "xlog"
    raise ValueError(f"unknown rate description: {rate!r}")


@dataclass
class TimeEnvelope:
    """Monotone decay majorant ``F`` with ``|phi(x)| <= F(|x|)``.

    Kinds
    -----
    power
        ``F(x) = min(1, x**-a)`` with ``a > 1/2`` so that ``F`` is square
        integrable.  ``F`` is integrable iff ``a > 1``.
    exponential
        ``F(x) = exp(-delta * h(x))`` for a rate function ``h``.
    table
        tabulated values, interpolated log-linearly, extrapolated on the
        right with the final log-log slope ``s`` so power tails are
        preserved; ``s < -1/2`` so that ``F`` is square integrable.
    """

    kind: str
    a: float | None = None
    delta: float | None = None
    rate: object | None = None
    xs: np.ndarray | None = None
    fs: np.ndarray | None = None
    _rate_fn: object = field(default=None, repr=False)
    _tail_slope: float | None = field(default=None, repr=False)

    @classmethod
    def power(cls, a):
        return cls(kind="power", a=float(a))

    @classmethod
    def exponential(cls, delta, rate):
        return cls(kind="exponential", delta=float(delta), rate=rate)

    @classmethod
    def table(cls, xs, fs):
        return cls(kind="table", xs=xs, fs=fs)

    def __post_init__(self):
        if self.kind == "power":
            if self.a is None or self.a <= 0.5:
                raise ValueError("power envelope needs exponent a > 1/2 (square integrability)")
        elif self.kind == "exponential":
            if self.delta is None or self.delta <= 0:
                raise ValueError("exponential envelope needs delta > 0")
            self._rate_fn, _ = _rate_function(self.rate)
        elif self.kind == "table":
            self.xs = np.asarray(self.xs, dtype=float)
            self.fs = np.asarray(self.fs, dtype=float)
            if self.xs.ndim != 1 or self.xs.shape != self.fs.shape or self.xs.size < 2:
                raise ValueError("table envelope needs matching 1-d xs, fs with >= 2 points")
            if np.any(np.diff(self.xs) <= 0) or np.any(self.xs <= 0):
                raise ValueError("table xs must be positive and strictly increasing")
            if np.any(self.fs <= 0):
                raise ValueError("table fs must be positive (log interpolation)")
            if np.any(np.diff(self.fs) > 1e-12):
                raise ValueError("envelope must be nonincreasing")
            lx, lf = np.log(self.xs[-2:]), np.log(self.fs[-2:])
            self._tail_slope = s = float((lf[1] - lf[0]) / (lx[1] - lx[0]))
            if s >= -0.5:
                raise ValueError(f"table envelope tail slope {s:g} >= -1/2: F is not square integrable")
        else:
            raise ValueError(f"unknown envelope kind: {self.kind!r}")

    # -- evaluation -----------------------------------------------------

    def F(self, x):
        """Envelope at nonnegative points ``x`` (vectorized, capped at F <= 1)."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("envelope is defined for x >= 0")
        if self.kind == "power":
            # the power is taken only where it is used, so x near 0 cannot overflow
            return np.power(x, -self.a, out=np.ones_like(x), where=~(x <= 1.0))
        if self.kind == "exponential":
            return np.exp(-self.delta * self._rate_fn(x))
        logx = np.log(np.maximum(x, 1e-300))
        lx = np.log(self.xs)
        lf = np.log(self.fs)
        vals = np.interp(logx, lx, lf)
        # right extrapolation with the final slope keeps power-law tails
        vals = np.where(logx > lx[-1], lf[-1] + self._tail_slope * (logx - lx[-1]), vals)
        return np.minimum(np.exp(vals), 1.0)

    # -- structural flags ------------------------------------------------

    @property
    def integrable(self):
        """Whether F is integrable on (0, infinity)."""
        if self.kind == "power":
            return self.a > 1.0
        if self.kind == "exponential":
            return True
        return self._tail_slope < -1.0

    def admissibility(self):
        """Doubling and divergence diagnostics for the exponential rate h.

        Checks on 200 points of ``[1, 1e6]`` that constants ``1 < c1 < c2``
        exist with ``c1 h(x) <= h(2x) <= c2 h(x)``, and that the partial sums
        of ``integral of t^-2 h(t)`` over the 40 doubling windows
        ``[2^k, 2^(k+1)]`` (one kernel call) keep growing (increment decay
        fitted against ``k^-rho``; divergent iff rho <= 1).
        """
        if self.kind != "exponential":
            raise ValueError("admissibility check applies to exponential envelopes")
        x_grid = np.geomspace(1.0, 1e6, 200)
        h = self._rate_fn
        ratios = h(2.0 * x_grid) / h(x_grid)
        c1 = float(np.min(ratios))
        c2 = float(np.max(ratios))
        increments = _integrate_gaps(lambda t: (h(t) / t**2)[None], 2.0 ** np.arange(41.0))[0]
        ks = np.arange(1, increments.size + 1, dtype=float)
        good = increments > 1e-300
        if good.sum() >= 3:
            slope = float(np.polyfit(np.log(ks[good]), np.log(increments[good]), 1)[0])
        else:
            slope = -math.inf
        divergent = slope >= -1.05
        ok = (c1 > 1.0) and (c2 < math.inf) and divergent
        return {
            "c1": c1,
            "c2": c2,
            "doubling_ok": c1 > 1.0 and math.isfinite(c2),
            "increment_decay": slope,
            "divergent": divergent,
            "admissible": ok,
        }

    # -- serialization -----------------------------------------------------

    def to_json(self):
        if self.kind == "power":
            return {"power": {"a": self.a}}
        if self.kind == "exponential":
            _, tag = _rate_function(self.rate)
            if tag == "callable":
                raise ValueError("callable rates are not serializable")
            if tag.startswith("power:"):
                rate = {"power": {"beta": float(tag.split(":")[1])}}
            else:
                rate = {"xlog": {}}
            return {"exponential": {"delta": self.delta, "rate": rate}}
        return {"table": {"x": [float(v) for v in self.xs], "f": [float(v) for v in self.fs]}}

    @staticmethod
    def from_json(obj):
        if "power" in obj:
            return TimeEnvelope(kind="power", a=float(obj["power"]["a"]))
        if "exponential" in obj:
            sub = obj["exponential"]
            return TimeEnvelope(kind="exponential", delta=float(sub["delta"]), rate=sub["rate"])
        if "table" in obj:
            sub = obj["table"]
            return TimeEnvelope(kind="table", xs=np.asarray(sub["x"], float), fs=np.asarray(sub["f"], float))
        raise ValueError(f"unknown envelope object keys: {sorted(obj)}")


# a doubling sum has 80 windows; one of F^2 stops where its rest cap is 1e-10 of the sum
_DOUBLINGS = 80
_TAIL_RTOL = 1e-10


def _tail_F2(env, x):
    """``integral_x^inf F^2`` at a float ``x >= 0`` (for the power kind, at any array).

    Power kind: the closed form.  Table kind: the kernel up to the last table
    point ``x_n``, then the closed form of ``F = min(1, f_n (t / x_n)^s)``,
    which holds exactly past ``x_n``.  Exponential kind: doubling windows
    ``[x, 2 max(x, 1/2)]``, ... in one kernel call, summed up to the first
    right end ``h`` whose rest cap ``2 h F(h)^2`` is below 1e-10 of the sum,
    plus that cap.  The cap bounds the rest when ``F(2t) <= F(t) / 2`` for
    every ``t >= h`` (the windows past ``h`` then hold at most ``h F(h)^2``,
    half that, ...): for a rate with ``r(2t) >= c1 r(t)``, ``c1 > 1``, that
    is wherever ``delta (c1 - 1) r(t) >= ln 2``.  A sum that never stops
    raises :class:`QuadratureError`.
    """
    if env.kind == "power":
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        big = x >= 1.0
        out[big] = x[big] ** (1.0 - 2.0 * env.a) / (2.0 * env.a - 1.0)
        out[~big] = (1.0 - x[~big]) + 1.0 / (2.0 * env.a - 1.0)
        return out
    if env.kind == "table":
        x_n, f_n, s = env.xs[-1], env.fs[-1], env._tail_slope
        knots = np.concatenate(([x], env.xs[env.xs > x]))
        head = float(np.sum(_integrate_gaps(lambda t: env.F(t)[None] ** 2, knots))) if knots.size > 1 else 0.0
        start = max(x, x_n)
        flat = max(start, x_n * f_n ** (-1.0 / s))  # F = 1 on [start, flat]
        return head + (flat - start) + f_n**2 * x_n * (flat / x_n) ** (2.0 * s + 1.0) / -(2.0 * s + 1.0)
    edges = np.concatenate(([x], 2.0 * max(x, 0.5) * 2.0 ** np.arange(_DOUBLINGS)))
    total = np.cumsum(_integrate_gaps(lambda t: env.F(t)[None] ** 2, edges)[0])
    rest_cap = env.F(edges[1:]) ** 2 * edges[1:] * 2.0
    stop = np.flatnonzero(rest_cap < _TAIL_RTOL * np.maximum(total, 1e-300))
    if stop.size == 0:
        raise QuadratureError(f"the tail of F^2 past {x:g} still holds up to {rest_cap[-1]:.3g}")
    return float(total[stop[0]] + rest_cap[stop[0]])


def autocorrelation(source, a):
    """Autocorrelation of the generator at shift ``a``.

    For a :class:`FourierProfile` the value is ``integral of phi_hat(xi)^2
    e^{2 pi i a xi}``, exact from closed-form piece antiderivatives, as a
    complex number (its imaginary part vanishes only for even data).

    For a :class:`TimeEnvelope` it is the float ``integral of F(|x|)
    F(|x - a|) dx = 2 integral_0^inf F(t + c) F(|t - c|) dt``, ``c = |a| / 2``.
    One kernel call integrates the gaps between the kinks
    ``{0, |1 - c|, c, c + 1}`` (distinct in floating point only for
    ``|a| < 2^54``; larger shifts are refused) and the doubling edges
    ``(c + 1) 2^k`` past them.  Past an edge ``H`` the integrand lies between ``F(t + c)^2`` and
    ``F(t - c)^2``, so :func:`_tail_F2` at ``H`` is within
    ``integral_{H-c}^{H+c} F^2 <= 2c F(H - c)^2`` of the rest.  The sum
    stops at the first edge where that width is at most the kernel's
    relative tolerance times the running sum; if none qualifies,
    :class:`QuadratureError` is raised.
    """
    if isinstance(source, FourierProfile):
        return complex(autocorrelations(source, np.array([float(a)]))[0])
    if not isinstance(source, TimeEnvelope):
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    F, c = source.F, 0.5 * abs(float(a))
    if not c + 1.0 > c:  # the kinks at c - 1, c, c + 1 would merge
        raise ValueError(f"envelope autocorrelation needs a finite shift below 2^54, not {a:g}")
    edges = (c + 1.0) * 2.0 ** np.arange(1.0, _DOUBLINGS + 1)
    knots = np.unique(np.concatenate(([0.0, abs(1.0 - c), c, c + 1.0], edges)))
    running = np.cumsum(_integrate_gaps(lambda t: (F(t + c) * F(np.abs(t - c)))[None], knots)[0])
    ends = knots[1:]
    width = 2.0 * c * F(np.abs(ends - c)) ** 2
    stop = np.flatnonzero((ends >= c + 1.0) & (width <= _QUAD_RTOL * running))
    if stop.size == 0:
        raise QuadratureError(f"envelope autocorrelation at shift {a:g}: the tail bracket never closes")
    return 2.0 * float(running[stop[0]] + _tail_F2(source, float(ends[stop[0]])))
