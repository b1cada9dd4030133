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
    "InconsistencyError",
    "PeriodizedSpectrum",
    "ExactBounds",
    "check_grid_size",
    "check_spacing",
    "periodize",
    "periodize_at",
    "fourier_coeff",
    "coefficient_error_bound",
    "exact_bounds",
    "essential_bounds",
    "zero_count",
    "cyclic_runs",
    "dilation_identity_deviation",
    "smoothness_diagnostic",
    "write_csv",
    "summary",
]


class InconsistencyError(RuntimeError):
    """The two computational routes disagree beyond tolerance."""


@dataclass
class PeriodizedSpectrum:
    """Grid samples of ``Phi_b`` at midpoints ``xi_j = (j + 1/2) / M``."""

    b: float
    grid_size: int
    values: np.ndarray
    truncation_range: int
    # True when Phi_b is constant on every grid cell up to jumps within 1e-9
    # cells of a cell boundary (step-function profiles whose breakpoints map
    # to multiples of 1/M under xi -> b xi); coefficient extraction is then
    # exact up to that offset, which coefficient_error_bound budgets.
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


def check_spacing(b):
    """``b`` as a float when it is a positive finite spacing, else ValueError."""
    b = float(b)
    if not 0.0 < b < math.inf:
        raise ValueError("spacing b must be positive and finite")
    return b


def _cover_range(profile, b, xi_min, xi_max):
    lo, hi = profile.support()
    n_lo = math.floor(b * lo - xi_max) - 1
    n_hi = math.ceil(b * hi - xi_min) + 1
    return n_lo, n_hi


def periodize_at(profile, b, xi):
    """``Phi_b`` evaluated exactly at arbitrary points ``xi`` (vectorized)."""
    b = check_spacing(b)
    xi = np.asarray(xi, dtype=float)
    n_lo, n_hi = _cover_range(profile, b, float(xi.min()), float(xi.max()))
    out = np.zeros_like(xi)
    for n in range(n_lo, n_hi + 1):
        vals = profile.eval((xi + n) / b)
        out += vals * vals
    return out


def periodize(profile, b, grid_size=4096):
    """Sample ``Phi_b`` on the midpoint grid of size ``grid_size``.

    Profiles are compactly supported, so the translate sum is finite and
    the truncation range covers the support exactly.
    """
    b = check_spacing(b)
    m = check_grid_size(grid_size)
    grid = (np.arange(m) + 0.5) / m
    values = periodize_at(profile, b, grid)
    n_lo, n_hi = _cover_range(profile, b, 0.0, 1.0)
    steps = all(p.affine is None for p in profile.pieces)
    return PeriodizedSpectrum(
        b=b,
        grid_size=m,
        values=values,
        truncation_range=max(abs(n_lo), abs(n_hi)),
        cell_constant=steps and bool(np.all(_cell_offsets(profile, b, m)[0] * m <= 1e-9)),
    )


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
_BLOCK = 2**15  # points per block where a sweep over many cells or grid points keeps its temporaries small


def _breakpoints(profile, b):
    """Positions ``b x`` (not reduced mod 1) of the breakpoints of ``Phi_b``, with their jumps.

    ``Phi_b`` is piecewise quadratic on the circle.  Every breakpoint ``x``
    of ``phi_hat^2`` (piece ends, sample-cell edges) sits at ``b x mod 1``,
    where the jumps of ``Phi_b``, ``Phi_b'`` and ``Phi_b''`` (the columns of
    the returned rows) are those of ``phi_hat^2`` and its derivatives times
    ``1, 1/b, 1/b^2``.
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
    return b * np.concatenate(pos), np.concatenate(jumps)


def _cell_offsets(profile, b, m):
    """Distance in ``xi`` from each breakpoint of ``Phi_b`` to its nearest ``m``-grid cell boundary, and its jumps."""
    x, jumps = _breakpoints(profile, b)
    r = x * m
    return np.abs(r - np.round(r)) / m, jumps


def _circle_breakpoints(profile, b):
    """Distinct breakpoints of ``Phi_b`` on the circle, their net jumps, and the merge tolerance.

    Breakpoints from different translates (:func:`_breakpoints`) that land
    within roundoff of one circle point are one breakpoint, whose jump rows
    are summed.  Positions come sorted in ``[-tol, 1 - tol]``.
    """
    x, jumps = _breakpoints(profile, b)
    frac = x - np.floor(x)
    tol = _ROUNDOFF * max(1.0, float(np.max(np.abs(x))))  # positions this close coincide
    frac[frac > 1.0 - tol] -= 1.0  # the circle closes: 1 is 0
    order = np.argsort(frac, kind="stable")
    frac = frac[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(frac) > tol) + 1))
    pos, net = frac[starts], np.add.reduceat(jumps[order], starts, axis=0)
    if pos.size > 1 and pos[0] + 1.0 - pos[-1] <= tol:  # the last one coincides with the first
        net[0] += net[-1]
        pos, net = pos[:-1], net[:-1]
    return pos, net, tol


def _jump_masses(profile, b):
    """Net jump, kink and curvature-jump masses ``(J, K, L)`` of ``Phi_b``.

    Jumps from different translates landing on one circle point
    (:func:`_circle_breakpoints`) are summed before taking absolute values,
    so a continuous ``Phi_b`` has ``J = 0``.
    """
    _, net, _ = _circle_breakpoints(profile, b)
    return tuple(float(v) for v in np.sum(np.abs(net), axis=0))


@dataclass
class ExactBounds:
    """``Phi_b`` as one quadratic per cell between its breakpoints (see :func:`exact_bounds`).

    Cell ``k`` is ``[starts[k], starts[k] + widths[k])`` on the circle; on it
    ``Phi_b = c0 + c1 s + c2 s^2`` with ``(c0, c1, c2) = coeffs[k]`` and
    ``s`` the offset from the cell's midpoint in units of its width.
    """

    b: float
    starts: np.ndarray
    widths: np.ndarray
    coeffs: np.ndarray
    zero: np.ndarray  # cells on which Phi_b vanishes identically
    inf: float  # ess inf over the circle (0 when a cell is a zero cell)
    inf_nonzero: float  # ess inf over the cells that are not zero cells
    sup: float
    zero_measure: float
    budget: float  # roundoff of a fitted value against a sample of Phi_b
    tol: float  # breakpoint positions are known to this accuracy

    @property
    def cells(self):
        return int(self.starts.size)

    @property
    def constant(self):
        return self.sup - self.inf <= self.budget

    def _locate(self, xi, shift=0.0):
        """The cell holding each point ``xi + shift``, and the offset of ``xi`` from its midpoint in widths."""
        lo = self.starts[0]
        at = (xi + shift - lo) % 1.0 + lo
        k = np.searchsorted(self.starts, at, side="right") - 1
        return k, (at - shift - self.starts[k]) / self.widths[k] - 0.5

    def _quadratic(self, k, s):
        c0, c1, c2 = self.coeffs[k].T
        return c0 + s * (c1 + s * c2)

    def grid_deviation(self, ps):
        """Largest gap between the grid values of ``ps`` and the cell quadratics.

        A midpoint within ``tol`` of a breakpoint may belong to either
        neighbouring cell, so such a point takes the nearer of the two.
        Large grids go in blocks of ``_BLOCK`` points, so the temporaries
        stay small.
        """
        m, worst = ps.grid_size, 0.0
        for j in range(0, m, _BLOCK):
            xi = (np.arange(j, min(j + _BLOCK, m)) + 0.5) / m
            values = ps.values[j : j + _BLOCK]
            k, s = self._locate(xi)
            dev = np.abs(values - self._quadratic(k, s))
            near = np.flatnonzero((0.5 - np.abs(s)) * self.widths[k] <= self.tol)
            for shift in (-self.tol, self.tol):
                other = self._quadratic(*self._locate(xi[near], shift))
                dev[near] = np.minimum(dev[near], np.abs(values[near] - other))
            worst = max(worst, float(np.max(dev)))
        return worst

    def eigenvalue_interval(self, dim, entry):
        """Interval holding every eigenvalue of a ``dim``-point integer Gram window.

        A principal window of the Toeplitz form with symbol ``Phi_b / b``
        has its eigenvalues in ``[inf, sup] / b``.  Roundoff of at most
        ``256 eps`` times the largest entry ``entry`` in each of the
        window's entries moves an eigenvalue by at most ``dim`` times that,
        and the bounds carry their own ``budget``.
        """
        slack = dim * _ROUNDOFF * max(entry, self.sup / self.b) + self.budget / self.b
        return self.inf / self.b - slack, self.sup / self.b + slack


def exact_bounds(profile, b):
    """Essential bounds, zero-set measure and constancy of ``Phi_b`` from its quadratic cells.

    Every ``phi_hat^2`` here is piecewise quadratic, so ``Phi_b`` is one
    quadratic on each cell between consecutive breakpoints on the circle
    (:func:`_circle_breakpoints`).  Three interior samples from
    :func:`periodize_at`, at ``s = -1/4, 0, 1/4``, fix it; its extremes on
    the closed cell sit at the ends or at the vertex.  A cell is a zero cell
    when its samples are exactly 0: every translate term vanishes there, and
    a quadratic that is not identically zero has at most two roots.

    The budget is derived.  A sample sums ``T`` translate terms, each the
    square of at most ``S = max phi_hat^2`` at a point known to relative
    roundoff ``rho = 256 eps``, so it is off by at most
    ``delta = T rho (S + D X)``, with ``D`` the largest slope of
    ``phi_hat^2`` and ``X`` the largest ``|x|`` of the support.  The
    quadratic through three samples magnifies their errors at most 7 times
    on the cell (its Lebesgue constant).  The cell ends are known to
    ``tol = rho max(1, b X)``, which moves each term by at most ``tol D / b``.
    A fitted value against a sample of ``Phi_b`` is therefore within
    ``budget = 9 T rho (S + D max(X, 1/b))``; cells whose extreme is within
    ``budget`` of 0 touch zero, and ``Phi_b`` is constant when its range
    is within ``budget``.
    """
    b = check_spacing(b)
    pos, _, tol = _circle_breakpoints(profile, b)
    widths = np.diff(pos, append=pos[0] + 1.0)
    xi = (pos[:, None] + widths[:, None] * np.array([0.25, 0.5, 0.75])).ravel()
    f = np.concatenate([periodize_at(profile, b, xi[j : j + _BLOCK]) for j in range(0, xi.size, _BLOCK)])
    f = f.reshape(-1, 3)
    c1 = 2.0 * (f[:, 2] - f[:, 0])
    c2 = 8.0 * (f[:, 0] - 2.0 * f[:, 1] + f[:, 2])
    coeffs = np.column_stack((f[:, 1], c1, c2))
    left = f[:, 1] - 0.5 * c1 + 0.25 * c2
    inside = np.abs(c1) < np.abs(c2)  # the vertex -c1 / (2 c2) lies inside the cell
    vertex = np.where(inside, f[:, 1] - c1 * c1 / (4.0 * np.where(inside, c2, 1.0)), left)
    extremes = np.column_stack((left, f[:, 1] + 0.5 * c1 + 0.25 * c2, vertex))
    lo, hi = extremes.min(axis=1), extremes.max(axis=1)
    zero = np.all(f == 0.0, axis=1)

    n_lo, n_hi = _cover_range(profile, b, 0.0, 1.0)
    s_max = d_max = 0.0
    for p in profile.pieces:
        poly = p._poly(2)
        if poly is None:
            s_max = max(s_max, float(np.max(p.samples)) ** 2)
            continue
        q0, q1, q2 = poly  # phi_hat^2 = q0 + q1 x + q2 x^2, convex: extremes at the piece ends
        for x in (p.lo, p.hi):
            s_max = max(s_max, q0 + q1 * x + q2 * x * x)
            d_max = max(d_max, abs(q1 + 2.0 * q2 * x))
    x_max = max(abs(v) for v in profile.support())
    budget = 9.0 * (n_hi - n_lo + 1) * _ROUNDOFF * (s_max + d_max * max(x_max, 1.0 / b))
    return ExactBounds(
        b=b,
        starts=pos,
        widths=widths,
        coeffs=coeffs,
        zero=zero,
        inf=float(lo.min()),
        inf_nonzero=float(lo[~zero].min()),
        sup=float(hi.max()),
        zero_measure=float(widths[zero].sum()),
        budget=budget,
        tol=tol,
    )


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
    for the step function whose jumps sit on the nearest cell boundaries
    (no midpoint lies between a jump and its boundary).  Moving a jump
    ``J_p`` by ``eps_p`` changes every coefficient by at most
    ``|J_p| eps_p``, so the bound is ``sum_p |J_p| eps_p`` plus roundoff.
    Roundoff of the FFT and of the closed-form kernel is budgeted as
    ``256 eps log2(M)`` times ``c_0 = b ||phi||^2``, plus the smallest
    normal float, below which relative roundoff fails.
    """
    n = np.abs(np.asarray(n, dtype=float))
    m = ps.grid_size
    roundoff = _ROUNDOFF * math.log2(m) * ps.b * profile.norm_squared() + np.finfo(float).tiny
    if ps.cell_constant:
        offsets, jumps = _cell_offsets(profile, ps.b, m)
        return float(np.dot(offsets, np.abs(jumps[:, 0]))) + roundoff + np.zeros_like(n)
    jump, kink, curve = _jump_masses(profile, ps.b)
    alias = jump * (1.5 / m + 4.0 * math.log(2.0) / math.pi * n / m**2) + kink / (4.0 * m**2)
    return alias + curve / (24.0 * m**3) + roundoff


def _zeros(ps):
    """``(sup, mask)``: grid points at or below ``1e-8 * sup`` count as zeros."""
    sup = float(np.max(ps.values))
    return sup, ps.values <= 1e-8 * sup


def essential_bounds(ps):
    """Grid essential bounds ``(inf over nonzero, sup, zero fraction)``.

    Grid points at or below ``1e-8 * sup`` count as zeros; ``inf_nonzero``
    is ``inf`` when every point is a zero.
    """
    sup, mask = _zeros(ps)
    zero_fraction = float(np.mean(mask))
    if zero_fraction == 1.0:
        inf_nonzero = math.inf
    else:
        inf_nonzero = float(np.min(ps.values[~mask]))
    return inf_nonzero, sup, zero_fraction


def zero_count(ps):
    """Number of cyclic runs of grid zeros and their intervals in xi.

    Returns ``(count, intervals)`` where each interval is the union of the
    grid cells whose midpoints are zeros in the sense of
    :func:`essential_bounds`.  Refuses when more than half the circle is at
    zero level, since run counting is then meaningless.
    """
    _, mask = _zeros(ps)
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


def summary(ps):
    """JSON-ready summary of a periodization.

    ``tail_bound`` is always 0 (the translate sum of a compactly supported
    profile is finite); the key stays so that ``frameseq/1`` output keeps
    its shape.
    """
    inf_nz, sup, zf = essential_bounds(ps)
    return {
        "b": ps.b,
        "grid_size": ps.grid_size,
        "truncation_range": ps.truncation_range,
        "tail_bound": 0.0,
        "inf_nonzero": inf_nz if math.isfinite(inf_nz) else None,
        "sup": sup,
        "zero_fraction": zf,
        "mean": ps.mean(),
    }
