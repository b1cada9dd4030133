"""Spectral profiles and decay envelopes for translate-family generators.

A generator ``phi`` enters the library in one of two ways:

* through its frequency profile ``phi_hat``, a real nonnegative function
  given in closed form piece by piece (:class:`FourierProfile`), or
* through a monotone time-domain majorant ``F`` with ``|phi(x)| <= F(|x|)``
  (:class:`TimeEnvelope`).

Autocorrelations ``<phi, phi(. - a)>`` are evaluated exactly from the pieces
where closed-form antiderivatives exist, and by checked adaptive quadrature
for envelope inputs.
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
        right with the final log-log slope so power tails are preserved.
    """

    kind: str
    a: float | None = None
    delta: float | None = None
    rate: object | None = None
    xs: np.ndarray | None = None
    fs: np.ndarray | None = None
    _rate_fn: object = field(default=None, repr=False)

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
        else:
            raise ValueError(f"unknown envelope kind: {self.kind!r}")

    # -- evaluation -----------------------------------------------------

    def F(self, x):
        """Envelope at nonnegative points ``x`` (vectorized, capped at F <= 1)."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("envelope is defined for x >= 0")
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                vals = np.where(x <= 1.0, 1.0, np.power(np.maximum(x, 1e-300), -self.a))
            return vals
        if self.kind == "exponential":
            return np.exp(-self.delta * self._rate_fn(x))
        logx = np.log(np.maximum(x, 1e-300))
        lx = np.log(self.xs)
        lf = np.log(self.fs)
        vals = np.interp(logx, lx, lf)
        # right extrapolation with the final slope keeps power-law tails
        tail_slope = (lf[-1] - lf[-2]) / (lx[-1] - lx[-2])
        right = logx > lx[-1]
        vals = np.where(right, lf[-1] + tail_slope * (logx - lx[-1]), vals)
        return np.minimum(np.exp(vals), 1.0)

    def psi(self, x):
        """Symmetric envelope profile ``psi(x) = F(|x|)``."""
        return self.F(np.abs(np.asarray(x, dtype=float)))

    # -- structural flags ------------------------------------------------

    @property
    def integrable(self):
        """Whether F is integrable on (0, infinity)."""
        if self.kind == "power":
            return self.a > 1.0
        if self.kind == "exponential":
            return True
        lx = np.log(self.xs)
        lf = np.log(self.fs)
        tail_slope = (lf[-1] - lf[-2]) / (lx[-1] - lx[-2])
        return tail_slope < -1.0

    def admissibility(self, x_grid=None, k_max=40):
        """Doubling and divergence diagnostics for the exponential rate h.

        Checks on a sample grid that constants ``1 < c1 < c2`` exist with
        ``c1 h(x) <= h(2x) <= c2 h(x)``, and that the partial sums of
        ``integral of t^-2 h(t)`` over doubling windows keep growing
        (increment decay fitted against ``k^-rho``; divergent iff rho <= 1).
        """
        if self.kind != "exponential":
            raise ValueError("admissibility check applies to exponential envelopes")
        if x_grid is None:
            x_grid = np.geomspace(1.0, 1e6, 200)
        h = self._rate_fn
        ratios = h(2.0 * x_grid) / h(x_grid)
        c1 = float(np.min(ratios))
        c2 = float(np.max(ratios))
        from scipy import integrate

        increments = []
        for k in range(k_max):
            val, _ = integrate.quad(lambda t: h(t) / t**2, 2.0**k, 2.0 ** (k + 1), limit=200)
            increments.append(val)
        increments = np.asarray(increments)
        ks = np.arange(1, k_max + 1, dtype=float)
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


def _envelope_autocorrelation(env, a, tol):
    """integral of psi(x) psi(x - a) dx by checked adaptive quadrature."""
    from scipy import integrate

    a = abs(float(a))

    def integrand(x):
        return float(env.psi(x) * env.psi(x - a))

    kinks = sorted({-1.0, 0.0, 1.0, a - 1.0, a, a + 1.0})
    lo, hi = kinks[0] - 4.0, kinks[-1] + 4.0
    total = 0.0
    err = 0.0
    val, e = integrate.quad(integrand, lo, hi, points=kinks, limit=400)
    total += val
    err += e
    val, e = integrate.quad(integrand, hi, np.inf, limit=400)
    total += val
    err += e
    val, e = integrate.quad(integrand, -np.inf, lo, limit=400)
    total += val
    err += e
    if err > max(tol, 1e-13 * abs(total)):
        raise QuadratureError(
            f"envelope autocorrelation quadrature achieved error {err:.3e} > tol {tol:.3e}"
        )
    return total


def autocorrelation(source, a, tol=None):
    """Autocorrelation of the generator at shift ``a``.

    Parameters
    ----------
    source : FourierProfile or TimeEnvelope
        For a profile the value is ``integral of phi_hat(xi)^2 e^{2 pi i a xi}``,
        computed exactly from closed-form piece antiderivatives (``tol`` is
        ignored).  For an envelope the value is
        ``integral of psi(x) psi(x - a) dx`` by adaptive quadrature, which
        raises :class:`QuadratureError` when the error estimate exceeds
        ``tol`` (default 1e-8; slowly decaying tails dominate the estimate).

    Returns
    -------
    complex for profiles (imaginary part vanishes only for even data),
    float for envelopes.
    """
    if isinstance(source, FourierProfile):
        return complex(autocorrelations(source, np.array([float(a)]))[0])
    if isinstance(source, TimeEnvelope):
        return _envelope_autocorrelation(source, a, 1e-8 if tol is None else tol)
    raise TypeError(f"unsupported source type: {type(source).__name__}")
