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
    "autocorrelation",
    "autocorrelations",
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
# smallest peak of a piece that is not identically 0: phi_hat^2 rounds to 0 where
# |phi_hat| < sqrt(u / 2), u the smallest subnormal, which on a sloped piece of
# length L is a band of width at most sqrt(2 u) L / peak around a root; this peak
# keeps the band within eps L, so underflow makes no zeros wider than roundoff
_PEAK_MIN = math.sqrt(2.0 * _SUBNORMAL) / _EPS
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
        settled = np.flatnonzero(~missed & (np.bincount(gap, minlength=n) > 0))
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


def _on_sorted(fn, xi):
    """``fn``, which maps sorted 1-d points to values, at points ``xi`` of any shape (argsorted if unsorted)."""
    xi = np.asarray(xi, dtype=float)
    flat = xi.ravel()
    if np.all(flat[1:] >= flat[:-1]):
        return fn(flat).reshape(xi.shape)
    order = np.argsort(flat)
    out = np.empty_like(flat)
    out[order] = fn(flat[order])
    return out.reshape(xi.shape)


@dataclass(init=False)
class Piece:
    """One interval ``[lo, hi)`` of the profile with a closed-form shape.

    Exactly one of ``affine``, ``samples`` is set.  ``affine`` is a
    ``(slope, intercept)`` pair evaluated as ``slope*xi + intercept``; the
    constructor keyword ``const=c`` (and the JSON shape ``{"const": c}``)
    spells the slope-0 piece ``affine=(0.0, c)``.  ``samples`` is a
    nonnegative step function on uniform cells spanning ``[lo, hi)``.
    """

    lo: float
    hi: float
    affine: tuple[float, float] | None = None
    samples: np.ndarray | None = None

    def __init__(self, lo, hi, const=None, affine=None, samples=None):
        self.lo, self.hi, self.affine, self.samples = lo, hi, affine, samples
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError(f"piece needs finite ends with hi > lo, got [{self.lo}, {self.hi})")
        set_fields = sum(x is not None for x in (const, self.affine, self.samples))
        if set_fields != 1:
            raise ValueError("piece must set exactly one of const, affine, samples")
        if const is not None:
            if const < 0:
                raise ValueError("profile values must be nonnegative")
            self.affine = (0.0, const)
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

    def eval_inside(self, xi):
        """Value at points ``xi`` that lie in ``[lo, hi)``."""
        if self.affine is not None:
            s, c = self.affine
            vals = s * xi
            vals += c  # in place: one temporary the size of xi
            return vals
        width = (self.hi - self.lo) / self.samples.size
        idx = np.floor((xi - self.lo) / width).astype(int)
        return self.samples[np.clip(idx, 0, self.samples.size - 1)]

    def runs(self):
        """A sampled piece's runs of equal samples, ``(edges, values)``: cell edge ``k`` sits at ``lo + k width``,
        and only the piece's ends and the edges between unequal samples are kept."""
        change = np.concatenate(([True], self.samples[1:] != self.samples[:-1], [True]))
        starts = np.flatnonzero(change)
        return starts * ((self.hi - self.lo) / self.samples.size) + self.lo, self.samples[starts[:-1]]

    def peak(self):
        """Largest value on the piece: its largest sample, or the larger end value of an affine piece."""
        if self.samples is not None:
            return float(np.max(self.samples))
        s, c = self.affine
        return max(s * self.lo + c, s * self.hi + c)

    # coefficients (c0, c1, c2) of phi_hat**2 on [lo, hi)
    def _poly(self):
        if self.affine is not None:
            s, c = self.affine
            return (c * c, 2.0 * s * c, s * s)
        return None

    def to_json(self):
        if self.affine is not None:
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
        for p in self.pieces:
            peak = p.peak()
            if 0.0 < peak < _PEAK_MIN:
                raise ValueError(
                    f"piece [{p.lo}, {p.hi}) peaks at {peak:.3g}, below {_PEAK_MIN:.3g}: "
                    "its square would underflow to 0 beyond roundoff; scale the profile up"
                )
        try:
            norm = self.norm_squared()
        except OverflowError:  # a float ** past the largest double
            norm = math.inf
        if not 0.0 < norm < math.inf:
            raise ValueError(f"||phi||^2 = {norm:g} over the support {self.support()} must be positive and finite")

    def eval(self, xi):
        """phi_hat at points ``xi`` of any shape, through :meth:`eval_sorted`."""
        return _on_sorted(self.eval_sorted, xi)

    def eval_sorted(self, x):
        """phi_hat at sorted 1-d points ``x``: each piece, in order, adds its values on the run ``lo <= x < hi``."""
        vals = np.zeros_like(x)
        for p in self.pieces:
            u, v = np.searchsorted(x, (p.lo, p.hi))
            if u < v:
                vals[u:v] += p.eval_inside(x[u:v])
        return vals

    def support(self):
        return (self.pieces[0].lo, self.pieces[-1].hi)

    def breakpoints(self):
        """Breakpoints of ``phi_hat^2``: piece ends and the sample-cell edges between unequal samples."""
        return np.concatenate(
            [np.array([p.lo, p.hi], dtype=float) if p.samples is None else p.runs()[0] for p in self.pieces]
        )

    def square_bounds(self):
        """``(S, D)``, the largest value and slope of ``phi_hat^2``, piece by piece: a sampled piece is
        flat between its cell edges, an affine piece's square is convex, with its extremes at the ends."""
        s_max = d_max = 0.0
        for p in self.pieces:
            if p.samples is not None:
                s_max = max(s_max, float(np.max(p.samples)) ** 2)
                continue
            q0, q1, q2 = p._poly()
            for x in (p.lo, p.hi):
                s_max = max(s_max, q0 + q1 * x + q2 * x * x)
                d_max = max(d_max, abs(q1 + 2.0 * q2 * x))
        return s_max, d_max

    def norm_squared(self):
        """Exact integral of phi_hat^2 over the line."""
        total = 0.0
        for p in self.pieces:
            poly = p._poly()
            if poly is not None:
                total += _poly_moment(*poly, p.lo, p.hi, 0)
            else:
                width = (p.hi - p.lo) / p.samples.size
                with np.errstate(over="ignore"):  # an overflow is the inf the constructor refuses
                    total += width * float(np.dot(p.samples, p.samples))
        return total

    def to_json(self):
        return {"pieces": [p.to_json() for p in self.pieces]}

    @staticmethod
    def from_json(obj):
        try:
            pieces = [Piece.from_json(po) for po in obj["pieces"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed profile object: {exc}") from exc
        return FourierProfile(pieces)


# ----------------------------------------------------------------------------
# closed-form oscillatory integrals over pieces
# ----------------------------------------------------------------------------

# largest shifts-by-runs block the sum over a sampled piece's runs holds at once
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
        # a shift stops where its own next term, relative to the coefficients, is below 1e-18
        power[np.abs(power) * max(reach, 1.0) ** (m + 1) < 1e-18] = 0.0
        if not power.any():
            break
    out[small] = total
    return out


def _cells_osc_integral(edges, vals, a):
    """Exact integral of ``vals^2``, a step function on the runs between ``edges``, against e^{2 pi i a xi}.

    Run by run: run ``r`` adds ``width_r sinc(a width_r) vals[r]^2 e^{2 pi i a mid_r}``.  Each shift's
    terms are reduced by their own ``np.sum``, in blocks of at most ``_CELL_BLOCK`` entries, so a
    shift's value does not depend on the other shifts of the call; the cost is O(runs x shifts).
    """
    widths = np.diff(edges)
    mids = edges[:-1] + 0.5 * widths
    out = np.empty(a.shape, dtype=complex)
    step = max(1, _CELL_BLOCK // vals.size)
    for s in range(0, a.size, step):
        chunk = a[s : s + step, None]
        terms = np.exp(1j * (_TWO_PI * chunk * mids))
        terms *= np.sinc(chunk * widths) * (widths * vals**2)
        out[s : s + step] = np.sum(terms, axis=1)
    return out


def autocorrelations(profile, shifts):
    """Exact ``<phi, phi(. - a)> = integral of phi_hat(xi)^2 e^{2 pi i a xi}`` per shift.

    The one closed-form kernel behind every Gram entry: polynomial pieces
    integrate in closed form (a power series where the total phase is
    small), sampled pieces run by run (:meth:`Piece.runs`).  A shift's value
    is independent of the other ``shifts``, a 1-d array; returns a complex
    array of the same length.
    """
    xs = np.asarray(shifts, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    for p in profile.pieces:
        poly = p._poly()
        if poly is not None:
            out += _poly_osc_integral(*poly, p.lo, p.hi, xs)
        else:
            out += _cells_osc_integral(*p.runs(), xs)
    return out


def autocorrelation(profile, a):
    """``<phi, phi(. - a)>`` at one shift ``a``, as a complex number: the scalar form of :func:`autocorrelations`."""
    return complex(autocorrelations(profile, np.array([float(a)]))[0])


# ----------------------------------------------------------------------------
# time-domain envelopes
# ----------------------------------------------------------------------------


def _rate_function(rate):
    """The rate ``h`` of ``{"xlog": {}}`` (``x / log(e + x)``) or ``{"power": {"beta": b}}`` (``x**b``)."""
    if rate == {"xlog": {}}:
        return lambda x: x / np.log(np.e + x)
    params = rate.get("power") if isinstance(rate, dict) and len(rate) == 1 else None
    if isinstance(params, dict) and params.keys() == {"beta"}:
        beta = float(params["beta"])
        if not 0.0 < beta < math.inf:  # NaN fails too
            raise ValueError(f"power rate needs a finite beta > 0 (h = x**beta must grow), got {beta:g}")
        return lambda x: np.power(x, beta)
    raise ValueError(f"unknown rate description: {rate!r}")


@dataclass
class TimeEnvelope:
    """Monotone decay majorant ``F`` with ``|phi(x)| <= F(|x|)``.

    Kinds
    -----
    power
        ``F(x) = min(1, x**-a)`` with a finite ``a > 1/2`` so that ``F`` is
        square integrable.  ``F`` is integrable iff ``a > 1``.
    exponential
        ``F(x) = exp(-delta * h(x))`` with a finite ``delta > 0`` and a rate
        ``h`` from :func:`_rate_function`.
    """

    kind: str
    a: float | None = None
    delta: float | None = None
    rate: object | None = None
    _rate_fn: object = field(default=None, repr=False)

    @classmethod
    def power(cls, a):
        return cls(kind="power", a=float(a))

    @classmethod
    def exponential(cls, delta, rate):
        return cls(kind="exponential", delta=float(delta), rate=rate)

    def __post_init__(self):
        # each check fails on NaN too
        if self.kind == "power":
            if not 0.5 < self.a < math.inf:
                raise ValueError(f"power envelope needs a finite a > 1/2 (square integrability), got {self.a:g}")
        elif self.kind == "exponential":
            if not 0.0 < self.delta < math.inf:
                raise ValueError(f"exponential envelope needs a finite delta > 0, got {self.delta:g}")
            self._rate_fn = _rate_function(self.rate)
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
        with np.errstate(over="ignore"):  # delta h past the float range gives exp(-inf) = 0, as it should
            return np.exp(-self.delta * self._rate_fn(x))

    # -- integrals ------------------------------------------------------

    def integrals(self, x):
        """``(integral_0^x F, integral_x^inf F^2)`` at every point of ``x`` (any shape, ``x >= 0``).

        The power kind has both in closed form.  The exponential kind takes one
        cumulative quadrature over the sorted knots ``{0, 1} U x``: the kernel
        :func:`_integrate_gaps` integrates ``F`` and ``F^2`` over every gap
        between consecutive knots, each to ``1e-11`` relative (or to its
        underflow floor), a forward running sum gives ``integral_0^x F`` at
        every knot, and a backward one, seeded by :func:`_tail_F2` at the
        largest knot, gives ``integral_x^inf F^2``.  Both thus carry a relative
        quadrature error of about 1e-10 wherever ``F^2`` does not underflow; a
        value the kernel cannot certify raises :class:`QuadratureError`, a
        tail the doubling sum cannot close ``ValueError``.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return _power_int0F(self.a, x), _tail_F2(self, x)
        knots, where = np.unique(np.concatenate(([0.0, 1.0], x.ravel())), return_inverse=True)

        def f_and_f2(t):
            f = self.F(t)
            return np.stack((f, f * f))

        gaps_F, gaps_F2 = _integrate_gaps(f_and_f2, knots)
        int0F = np.concatenate(([0.0], np.cumsum(gaps_F)))
        # backward sum from the tail inward: the smallest terms are added first
        tail = np.cumsum(np.concatenate(([_tail_F2(self, knots[-1])], gaps_F2[::-1])))[::-1]
        where = where[2:].reshape(x.shape)
        return int0F[where], tail[where]


def _power_int0F(a, x):
    """integral_0^x F for F = min(1, t^-a), vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.minimum(x, 1.0, out=np.empty_like(x))  # an array even where x is 0-d
    big = x > 1.0
    if np.any(big):
        xb = x[big]
        out[big] = 1.0 + (np.log(xb) if a == 1.0 else (xb ** (1.0 - a) - 1.0) / (1.0 - a))
    return out


# a doubling sum has 80 windows; one of F^2 stops where its rest cap is 1e-10 of the sum
_DOUBLINGS = 80
_TAIL_RTOL = 1e-10


def _tail_F2(env, x):
    """``integral_x^inf F^2`` at a float ``x >= 0`` (for the power kind, at any array).

    Power kind: the closed form.  Exponential kind: doubling windows
    ``[x, 2 max(x, 1/2)]``, ... in one kernel call, summed up to the first
    right end ``h`` whose rest cap ``2 h F(h)^2`` is below 1e-10 of the sum,
    plus that cap.  The cap bounds the rest when ``F(2t) <= F(t) / 2`` for
    every ``t >= h`` (the windows past ``h`` then hold at most ``h F(h)^2``,
    half that, ...): for a rate with ``r(2t) >= c1 r(t)``, ``c1 > 1``, that
    is wherever ``delta (c1 - 1) r(t) >= ln 2``.  A sum that has not stopped
    after ``_DOUBLINGS`` windows raises ``ValueError``: the envelope decays
    too slowly for this sum, a limit of the input, not a failed check.
    """
    if env.kind == "power":
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        big = x >= 1.0
        out[big] = x[big] ** (1.0 - 2.0 * env.a) / (2.0 * env.a - 1.0)
        out[~big] = (1.0 - x[~big]) + 1.0 / (2.0 * env.a - 1.0)
        return out
    edges = np.concatenate(([x], 2.0 * max(x, 0.5) * 2.0 ** np.arange(_DOUBLINGS)))
    total = np.cumsum(_integrate_gaps(lambda t: env.F(t)[None] ** 2, edges)[0])
    rest_cap = env.F(edges[1:]) ** 2 * edges[1:] * 2.0
    stop = np.flatnonzero(rest_cap < _TAIL_RTOL * np.maximum(total, 1e-300))
    if stop.size == 0:
        raise ValueError(
            f"the tail of F^2 past {x:g} still holds up to {rest_cap[-1]:.3g} after "
            f"{_DOUBLINGS} doublings: the envelope decays too slowly for the doubling sum"
        )
    return float(total[stop[0]] + rest_cap[stop[0]])

