"""Periodization of the squared frequency profile onto the unit circle.

For spacing ``b`` the periodization is

    Phi_b(xi) = sum over n in Z of phi_hat((xi + n) / b)^2,

a 1-periodic function whose essential bounds decide the frame properties of
the translate family with spacing ``b``.  Profiles here are compactly
supported, so the sum is finite and grid values are exact up to roundoff.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

GRID_CAP = 2**22

__all__ = [
    "GRID_CAP",
    "PeriodizedSpectrum",
    "check_grid_size",
    "periodize",
    "periodize_at",
    "fourier_coeff",
    "coefficient_error_bound",
    "essential_bounds",
    "zero_count",
    "cyclic_runs",
    "dilation_identity_deviation",
    "smoothness_diagnostic",
    "write_csv",
    "summary",
]


@dataclass
class PeriodizedSpectrum:
    """Grid samples of ``Phi_b`` at midpoints ``xi_j = (j + 1/2) / M``."""

    b: float
    grid_size: int
    values: np.ndarray
    truncation_range: int
    tail_bound: float = 0.0
    # True when Phi_b is exactly constant on every grid cell (step-function
    # profiles with aligned jumps); coefficient extraction is then exact.
    cell_constant: bool = False
    _fft: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = check_grid_size(self.grid_size)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (m,):
            raise ValueError("values must have shape (grid_size,)")
        if np.any(self.values < -1e-12):
            raise ValueError("periodization values must be nonnegative")

    def grid(self):
        """Midpoint grid on [0, 1)."""
        m = self.grid_size
        return (np.arange(m) + 0.5) / m

    def mean(self):
        return float(np.mean(self.values))

    def _coeff_fft(self):
        if self._fft is None:
            self._fft = np.fft.fft(self.values)
        return self._fft


def check_grid_size(m, what="grid_size"):
    """``m`` as an int when it is a power of two in [16, GRID_CAP], else ValueError."""
    m = int(m)
    if m < 16 or m > GRID_CAP or m & (m - 1):
        raise ValueError(f"{what} must be a power of two in [16, {GRID_CAP}]")
    return m


def _cover_range(profile, b, xi_min, xi_max):
    lo, hi = profile.support()
    n_lo = math.floor(b * lo - xi_max) - 1
    n_hi = math.ceil(b * hi - xi_min) + 1
    return n_lo, n_hi


def periodize_at(profile, b, xi):
    """``Phi_b`` evaluated exactly at arbitrary points ``xi`` (vectorized)."""
    if b <= 0:
        raise ValueError("spacing b must be positive")
    xi = np.asarray(xi, dtype=float)
    n_lo, n_hi = _cover_range(profile, b, float(xi.min()), float(xi.max()))
    out = np.zeros_like(xi)
    for n in range(n_lo, n_hi + 1):
        vals = profile.eval((xi + n) / b)
        out += vals * vals
    return out


def periodize(profile, b, grid_size=4096, tail_tol=1e-12):
    """Sample ``Phi_b`` on the midpoint grid of size ``grid_size``.

    Profiles are compactly supported, so the translate sum is finite: the
    truncation range covers the support exactly and ``tail_bound`` is 0.
    ``tail_tol`` is kept for interface stability; it only matters for
    inputs with unbounded support, which this profile type cannot express.
    """
    if b <= 0:
        raise ValueError("spacing b must be positive")
    m = check_grid_size(grid_size)
    grid = (np.arange(m) + 0.5) / m
    values = periodize_at(profile, b, grid)
    n_lo, n_hi = _cover_range(profile, b, 0.0, 1.0)
    return PeriodizedSpectrum(
        b=float(b),
        grid_size=m,
        values=values,
        truncation_range=max(abs(n_lo), abs(n_hi)),
        tail_bound=0.0,
        cell_constant=_cells_align(profile, b, m),
    )


def _cells_align(profile, b, m):
    """True when every jump of ``Phi_b`` lands on a grid-cell boundary.

    Holds for step-function profiles (constant and sampled pieces) whose
    breakpoints map to multiples of ``1/m`` under ``xi -> b xi``; midpoint
    samples then determine the function exactly rather than approximately.
    """

    def on_grid(x):
        return abs(b * x * m - round(b * x * m)) <= 1e-9

    for p in profile.pieces:
        if p.affine is not None:
            return False
        if not (on_grid(p.lo) and on_grid(p.hi)):
            return False
        if p.samples is not None:
            width = (p.hi - p.lo) / p.samples.size
            k = round(b * width * m)
            if k < 1 or abs(b * width * m - k) > 1e-9:
                return False
    return True


def fourier_coeff(ps, n):
    """Fourier coefficients ``Phi_b_hat(n)`` of the grid data, for scalar or array ``n``.

    Computed as ``(1/M) sum_j values[j] e^{-2 pi i n xi_j}`` through one
    cached FFT plus the midpoint phase.  Complex in general; the imaginary
    part vanishes (to roundoff) exactly when the data is even on the circle.
    Their distance from the true coefficients is bounded by
    :func:`coefficient_error_bound`.
    """
    ns = np.asarray(n, dtype=np.int64)
    m = ps.grid_size
    if ns.size and int(np.max(np.abs(ns))) >= m // 2:
        raise ValueError(f"coefficient index |{int(np.max(np.abs(ns)))}| >= M/2 = {m // 2} would alias")
    c = np.exp(-1j * np.pi * ns / m) * ps._coeff_fft()[ns % m] / m
    if ps.cell_constant:
        # exact map from midpoint samples to the step function's coefficient
        c = c * np.sinc(ns / m)
    return complex(c) if ns.ndim == 0 else c


_ROUNDOFF = 256.0 * np.finfo(float).eps


def _jump_masses(profile, b):
    """Net jump, kink and curvature-jump masses ``(J, K, L)`` of ``Phi_b``.

    ``Phi_b`` is piecewise quadratic on the circle.  Every breakpoint ``x``
    of ``phi_hat^2`` (piece ends, sample-cell edges) sits at ``b x mod 1``,
    where the jumps of ``Phi_b``, ``Phi_b'`` and ``Phi_b''`` are those of
    ``phi_hat^2`` and its derivatives times ``1, 1/b, 1/b^2``.  Jumps from
    different translates landing on one circle point are summed before
    taking absolute values, so a continuous ``Phi_b`` has ``J = 0``.
    """
    pos, jumps = [], []
    for p in profile.pieces:
        poly = p._poly(2)
        if poly is None:
            sq = p.samples**2
            pos.append(p.lo + (p.hi - p.lo) / sq.size * np.arange(sq.size + 1))
            jumps.append(np.outer(np.diff(sq, prepend=0.0, append=0.0), [1.0, 0.0, 0.0]))
            continue
        c0, c1, c2 = poly
        for x, sign in ((p.lo, 1.0), (p.hi, -1.0)):
            pos.append(np.array([x]))
            jumps.append(sign * np.array([[c0 + c1 * x + c2 * x * x, (c1 + 2.0 * c2 * x) / b, 2.0 * c2 / b**2]]))
    x = b * np.concatenate(pos)
    frac = x - np.floor(x)
    tol = _ROUNDOFF * max(1.0, float(np.max(np.abs(x))))  # positions this close coincide
    frac[frac > 1.0 - tol] -= 1.0  # the circle closes: 1 is 0
    order = np.argsort(frac, kind="stable")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(frac[order]) > tol) + 1))
    net = np.add.reduceat(np.concatenate(jumps)[order], starts, axis=0)
    return tuple(float(v) for v in np.sum(np.abs(net), axis=0))


def coefficient_error_bound(profile, ps, n):
    """Bound on ``|fourier_coeff(ps, n) - Phi_b_hat(n)|`` for ``ps = periodize(profile, b, M)``.

    Midpoint samples alias: the grid coefficient is
    ``sum over k of (-1)^k c_{n + kM}``, so the error is
    ``err_n = sum over k != 0 of (-1)^k c_{n + kM}``.  ``Phi_b`` is piecewise
    quadratic, so integrating by parts three times gives, for ``m != 0``,

        c_m = sum_p e^{-2 pi i m x_p} (J_p / (2 pi i m) + K_p / (2 pi i m)^2 + L_p / (2 pi i m)^3)

    over the breakpoints ``x_p`` with jumps ``J_p, K_p, L_p`` of ``Phi_b``,
    ``Phi_b'`` and ``Phi_b''`` (:func:`_jump_masses`).  For ``|n| < M/2``:

    * jumps: ``1/(n + kM) = 1/(kM) - n/(kM(n + kM))``.  The first part
      sums to a sawtooth ``sum sin(k psi)/k``, at most ``pi/2``, giving
      ``|J_p|/(2M)``; the second is at most ``|n|/(2 pi M)`` times
      ``sum over k != 0 of 1/(|k| (|k| - 1/2) M) = 8 ln 2 / M``.  A jump at a
      midpoint, or within roundoff of one, may be sampled from either side,
      which adds at most ``|J_p|/M``.  Together ``J (3/2 / M + (4 ln 2/pi) |n| / M^2)``;
    * kinks: ``sum over k != 0 of (n/M + k)^-2 <= pi^2 - 4``, so
      ``K (pi^2 - 4) / (4 pi^2 M^2) <= K / (4 M^2)``;
    * curvature jumps: ``sum over k != 0 of |n/M + k|^-3 <= 14 zeta(3) - 8``, so
      ``L (14 zeta(3) - 8) / (8 pi^3 M^3) <= L / (24 M^3)``.

    When ``ps.cell_constant`` holds, the sinc-corrected coefficient is exact
    and only roundoff remains.  Roundoff of the FFT and of the closed-form
    kernel is budgeted as ``256 eps log2(M)`` times ``c_0 = b ||phi||^2``,
    plus the smallest normal float, below which relative roundoff fails.
    """
    n = np.abs(np.asarray(n, dtype=float))
    m = ps.grid_size
    roundoff = _ROUNDOFF * math.log2(m) * ps.b * profile.norm_squared() + np.finfo(float).tiny
    if ps.cell_constant:
        return roundoff + np.zeros_like(n)
    jump, kink, curve = _jump_masses(profile, ps.b)
    alias = jump * (1.5 / m + 4.0 * math.log(2.0) / math.pi * n / m**2) + kink / (4.0 * m**2)
    return alias + curve / (24.0 * m**3) + roundoff


def essential_bounds(ps, zero_thresh=None):
    """Grid essential bounds ``(inf over nonzero, sup, zero fraction)``.

    ``zero_thresh`` defaults to ``1e-8 * sup``.  Grid points at or below the
    threshold count as zeros; ``inf_nonzero`` is ``inf`` when every point is
    a zero.
    """
    sup = float(np.max(ps.values))
    if zero_thresh is None:
        zero_thresh = 1e-8 * sup
    mask = ps.values <= zero_thresh
    zero_fraction = float(np.mean(mask))
    if zero_fraction == 1.0:
        inf_nonzero = math.inf
    else:
        inf_nonzero = float(np.min(ps.values[~mask]))
    return inf_nonzero, sup, zero_fraction


def zero_count(ps, zero_thresh=None):
    """Number of cyclic runs of grid zeros and their intervals in xi.

    Returns ``(count, intervals)`` where each interval is the union of the
    grid cells whose midpoints sit at or below the threshold.  Refuses when
    more than half the circle is at zero level, since run counting is then
    meaningless.
    """
    sup = float(np.max(ps.values))
    if zero_thresh is None:
        zero_thresh = 1e-8 * sup
    mask = ps.values <= zero_thresh
    frac = float(np.mean(mask))
    if frac > 0.5:
        raise ValueError(
            f"zero fraction {frac:.3f} > 0.5: most of the circle is at zero level, "
            "run counting is not meaningful"
        )
    m = ps.grid_size
    starts, lengths = cyclic_runs(mask)
    # a wrapped run is reported with hi > 1, meaning it continues past xi = 1
    intervals = [(s / m, (s + n) / m) for s, n in zip(starts.tolist(), lengths.tolist())]
    return len(intervals), intervals


def cyclic_runs(mask):
    """Starts and lengths of the True runs of a cyclic boolean mask.

    Runs come in order of their start index; a run through the end of the
    array continues at index 0, so its start is the largest one and
    ``start + length`` exceeds the mask length.  A mask that is all True is
    one run of full length starting at 0.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        return np.zeros(1, dtype=np.int64), np.full(1, mask.size, dtype=np.int64)
    starts = np.flatnonzero(mask & ~np.roll(mask, 1))
    ends = np.flatnonzero(mask & ~np.roll(mask, -1))
    if ends.size and ends[0] < starts[0]:
        # the run through index 0 started at the end of the array
        ends = np.roll(ends, -1)
    return starts, (ends - starts) % mask.size + 1


def dilation_identity_deviation(profile, b, m_factor, grid_size=4096):
    """Max grid deviation of ``Phi_{m b}(xi)`` vs ``sum_k Phi_b((xi + k)/m)``.

    The two sides are independent finite sums of squared profile values, so
    for exact-arithmetic-clean profiles the deviation is pure roundoff.
    """
    m_factor = int(m_factor)
    if m_factor < 2:
        raise ValueError("dilation factor must be an integer >= 2")
    ps_coarse = periodize(profile, m_factor * b, grid_size)
    grid = ps_coarse.grid()
    acc = np.zeros_like(grid)
    for k in range(m_factor):
        acc += periodize_at(profile, b, (grid + k) / m_factor)
    return float(np.max(np.abs(ps_coarse.values - acc)))


def smoothness_diagnostic(ps, n_max=64):
    """Decay-rate diagnostic of the coefficients ``|Phi_b_hat(n)|``.

    Fits the log-log slope of coefficient magnitude against n; a steep slope
    or coefficients at the roundoff floor indicate a smooth periodization.
    """
    ns = np.arange(1, n_max + 1)
    mags = np.abs(fourier_coeff(ps, ns))
    scale = max(float(np.max(mags)), 1e-300)
    good = mags > max(1e-14, 1e-10 * scale)
    if good.sum() >= 4:
        slope = float(np.polyfit(np.log(ns[good]), np.log(mags[good]), 1)[0])
    else:
        slope = -math.inf
    return {
        "n": ns,
        "magnitude": mags,
        "decay_exponent": slope,
        "rapidly_decaying": bool(slope < -2.5 or not good.any()),
    }


def write_csv(ps, path):
    """Emit rows ``(xi_j, Phi_b(xi_j))`` with 12-significant-digit floats."""
    grid = ps.grid()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["xi", "phi"])
        for x, v in zip(grid, ps.values):
            writer.writerow([format(x, ".12g"), format(v, ".12g")])


def summary(ps, zero_thresh=None):
    """JSON-ready summary of a periodization."""
    inf_nz, sup, zf = essential_bounds(ps, zero_thresh)
    return {
        "b": ps.b,
        "grid_size": ps.grid_size,
        "truncation_range": ps.truncation_range,
        "tail_bound": ps.tail_bound,
        "inf_nonzero": inf_nz if math.isfinite(inf_nz) else None,
        "sup": sup,
        "zero_fraction": zf,
        "mean": ps.mean(),
    }
