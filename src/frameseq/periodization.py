"""Periodization of the squared frequency profile onto the unit circle.

For spacing ``b`` the periodization is

    Phi_b(xi) = sum over n in Z of phi_hat((xi + n) / b)^2,

a 1-periodic function whose essential bounds decide the frame properties of
the translate family with spacing ``b``.  Profiles here are compactly
supported, so the sum is finite and grid values are exact up to roundoff.

``Phi_b`` is held exactly as one quadratic per cell between its breakpoints
(:func:`exact_bounds`); its bounds, zero set and Fourier coefficients are
read off those cells, and a midpoint grid (:func:`periodize`) checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectrum import _on_sorted

GRID_CAP = 2**22

__all__ = [
    "GRID_CAP",
    "InconsistencyError",
    "ResourceLimitError",
    "PeriodizedSpectrum",
    "ExactBounds",
    "check_grid_size",
    "check_spacing",
    "periodize",
    "periodize_at",
    "fourier_coeff",
    "exact_bounds",
    "cell_evidence",
    "cyclic_runs",
    "sublevel_runs",
    "dilation_identity_deviation",
    "summary",
]


class InconsistencyError(RuntimeError):
    """The two computational routes disagree beyond tolerance."""


class ResourceLimitError(ValueError):
    """An input would need a grid, table or dense window past one of the package's caps."""


@dataclass
class PeriodizedSpectrum:
    """Grid samples of ``Phi_b`` at midpoints ``xi_j = (j + 1/2) / M``."""

    b: float
    grid_size: int
    values: np.ndarray
    truncation_range: int
    _fft: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = check_grid_size(self.grid_size)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (m,):
            raise ValueError("values must have shape (grid_size,)")
        if self.values.min() < -1e-12:
            raise ValueError("periodization values must be nonnegative")

    def grid(self):
        """Midpoint grid on [0, 1)."""
        return _midpoints(0, self.grid_size, self.grid_size)

    def _coeff_fft(self):
        if self._fft is None:
            self._fft = np.fft.fft(self.values)
        return self._fft


def check_grid_size(m, what="grid_size"):
    """``m`` as an int when it is a power of two in [16, GRID_CAP], else ValueError.

    A size past ``GRID_CAP`` raises :class:`ResourceLimitError`.
    """
    m = int(m)
    if m < 16 or m > GRID_CAP or m & (m - 1):
        error = ResourceLimitError if m > GRID_CAP else ValueError
        raise error(f"{what} must be a power of two in [16, {GRID_CAP}]")
    return m


def check_spacing(b):
    """``b`` as a float when it is a positive finite spacing, else ValueError."""
    b = float(b)
    if not 0.0 < b < math.inf:
        raise ValueError("spacing b must be positive and finite")
    return b


def _midpoints(j, k, m):
    """Midpoints ``j`` to ``k - 1`` of the ``m``-point grid on [0, 1)."""
    return (np.arange(j, k) + 0.5) / m


def _cover_range(profile, b, xi_min, xi_max):
    """The translates ``n`` whose term can be nonzero on ``[xi_min, xi_max]``, as ``(n_lo, n_hi)``.

    Every sum over them is a loop, so more than ``GRID_CAP`` translates
    raise :class:`ResourceLimitError`.
    """
    lo, hi = profile.support()
    n_lo = math.floor(b * lo - xi_max) - 1
    n_hi = math.ceil(b * hi - xi_min) + 1
    if n_hi - n_lo + 1 > GRID_CAP:
        raise ResourceLimitError(
            f"Phi_b at b = {b:g} sums {n_hi - n_lo + 1} translates of the support [{lo:g}, {hi:g}], "
            f"past the cap {GRID_CAP}"
        )
    return n_lo, n_hi


def periodize_at(profile, b, xi):
    """``Phi_b`` evaluated exactly at arbitrary points ``xi`` (vectorized).

    The points are summed in sorted order (an unsorted ``xi`` is argsorted
    once and the values scattered back) by :func:`_periodize_sorted`.
    """
    b = check_spacing(b)
    return _on_sorted(lambda x: _periodize_sorted(profile, b, x.size, lambda j, k: x[j:k]), xi)


def _periodize_sorted(profile, b, size, points):
    """``Phi_b`` at ``size`` sorted points, ``points(j, k)`` returning points ``j`` to ``k - 1``.

    The points go in blocks of ``_BLOCK``, so no temporary outgrows a block.
    Translate ``n`` evaluates only the run of points whose
    ``x = (xi + n) / b`` can lie in the support ``[lo, hi)``: ``xi`` in
    ``[b lo - n - pad, b hi - n + pad]``.  ``x`` carries two roundings, so
    a point with ``x`` in the support is within ``2.01 eps |b X|`` of the
    exact edges (``X`` the largest ``|x|`` of the support), and the computed
    edges are within ``eps (3 |b X| + 2 |n|)`` of theirs; ``pad = 256 eps
    (|n| + b X)`` covers both.  ``x`` is sorted on the run, so
    :meth:`FourierProfile.eval_sorted` evaluates it.  The squares add in
    increasing ``n``, and a skipped translate would add ``+0.0``, so every
    value is bit for bit ``sum_n eval((xi + n) / b)^2`` over all translates
    in turn.
    """
    out = np.zeros(size)
    if not size:
        return out
    _cover_range(profile, b, points(0, 1)[0], points(size - 1, size)[0])  # refuse before any work
    lo, hi = profile.support()
    reach = b * max(abs(lo), abs(hi))
    for j in range(0, size, _BLOCK):
        xi = points(j, min(j + _BLOCK, size))
        acc = out[j : j + xi.size]
        n_lo, n_hi = _cover_range(profile, b, xi[0], xi[-1])
        ns = np.arange(n_lo, n_hi + 1)
        pad = _ROUNDOFF * (np.abs(ns) + reach)
        first = np.searchsorted(xi, b * lo - ns - pad, side="left")
        stop = np.searchsorted(xi, b * hi - ns + pad, side="right")
        for n, i, k in zip(ns.tolist(), first.tolist(), stop.tolist()):
            if i < k:  # no run's values outlive their square, so one run's arrays are alive at a time
                acc[i:k] += np.square(profile.eval_sorted((xi[i:k] + n) / b))
    return out


def periodize(profile, b, grid_size=4096):
    """Sample ``Phi_b`` on the midpoint grid of size ``grid_size``.

    Profiles are compactly supported, so the translate sum is finite and
    the truncation range covers the support exactly.  The grid is made one
    block at a time (:func:`_periodize_sorted`), so the values are the one
    grid-sized array.
    """
    b = check_spacing(b)
    m = check_grid_size(grid_size)
    values = _periodize_sorted(profile, b, m, lambda j, k: _midpoints(j, k, m))
    n_lo, n_hi = _cover_range(profile, b, 0.0, 1.0)
    return PeriodizedSpectrum(b=b, grid_size=m, values=values, truncation_range=max(abs(n_lo), abs(n_hi)))


def fourier_coeff(ps, n):
    """Fourier coefficients ``Phi_b_hat(n)`` of the grid data, for scalar or array ``n``.

    Computed as ``(1/M) sum_j values[j] e^{-2 pi i n xi_j}`` through one
    cached FFT plus the midpoint phase.  Complex in general; the imaginary
    part vanishes (to roundoff) exactly when the data is even on the circle.
    A utility on grid data: no verdict or check of the package reads it,
    since the exact coefficients of ``Phi_b`` are
    :meth:`ExactBounds.coefficients`.
    """
    ns = np.asarray(n, dtype=np.int64)
    m = ps.grid_size
    if ns.size and int(np.max(np.abs(ns))) >= m // 2:
        raise ValueError(f"coefficient index |{int(np.max(np.abs(ns)))}| >= M/2 = {m // 2} would alias")
    c = np.exp(-1j * np.pi * ns / m) * ps._coeff_fft()[ns % m] / m
    return complex(c) if ns.ndim == 0 else c


_ROUNDOFF = 256.0 * np.finfo(float).eps
_BLOCK = 2**15  # points per block where a sweep over many cells or grid points keeps its temporaries small


def _breakpoints(profile, b):
    """Positions ``b x`` (not reduced mod 1) of the breakpoints ``x`` of ``phi_hat^2``, each one of ``Phi_b``."""
    x = profile.breakpoints()
    x *= b
    return x


def _circle_breakpoints(profile, b):
    """Distinct breakpoints of ``Phi_b`` on the circle, and the merge tolerance.

    Breakpoints from different translates (:func:`_breakpoints`) that land
    within roundoff of one circle point are one breakpoint.  Positions come
    sorted in ``[-tol, 1 - tol]``.  They are reduced and sorted in place, so
    at most two floats and a flag per breakpoint are alive at a time, the
    result's included.
    """
    frac = _breakpoints(profile, b)
    tol = _ROUNDOFF * max(1.0, -float(frac.min()), float(frac.max()))  # positions this close coincide
    frac -= np.floor(frac)
    frac[frac > 1.0 - tol] -= 1.0  # the circle closes: 1 is 0
    frac.sort()
    keep = np.empty(frac.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(frac), tol, out=keep[1:])
    pos = frac[keep]
    if pos.size > 1 and pos[0] + 1.0 - pos[-1] <= tol:  # the last one coincides with the first
        pos = pos[:-1]
    return pos, tol


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

    @property
    def mean(self):
        return float(self.widths @ (self.coeffs[:, 0] + self.coeffs[:, 2] / 12.0))

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
            xi = _midpoints(j, min(j + _BLOCK, m), m)
            values = ps.values[j : j + _BLOCK]
            k, s = self._locate(xi)
            dev = np.abs(values - self._quadratic(k, s))
            near = np.flatnonzero((0.5 - np.abs(s)) * self.widths[k] <= self.tol)
            for shift in (-self.tol, self.tol):
                other = self._quadratic(*self._locate(xi[near], shift))
                dev[near] = np.minimum(dev[near], np.abs(values[near] - other))
            worst = max(worst, float(np.max(dev)))
        return worst

    def coefficients(self, n):
        """Fourier coefficients of the cell quadratics at the integers ``n``, with an error bound.

        Returns ``c`` with ``c[j] = int_0^1 Phi_cells(xi) e^{-2 pi i n_j xi} dxi``
        and ``err``, which bounds the roundoff of ``c[j]`` and what the cell
        edges, known only to ``tol``, can move it by.  For ``n != 0``
        integrating by parts three times over the cells gives, with
        ``w = 2 pi n``,

            c_n = sum_p e^{-i w x_p} (J_p / (i w) + K_p / (i w)^2 + L_p / (i w)^3)

        over the cell edges ``x_p``, where ``J_p, K_p, L_p`` are the jumps of
        the value, slope and curvature from the fitted cell that ends at
        ``x_p`` to the one that starts there; the profile's pieces are not
        read, so these coefficients are independent of the closed-form
        kernel.  ``c_0`` is ``sum width (c0 + c2 / 12)``.  The phases go in
        blocks of about ``_BLOCK`` entries, so the temporaries stay small.

        Edges: between a computed edge and the true one, at most ``tol``
        apart, ``Phi_b`` follows the other neighbour, which differs from the
        cell's quadratic by at most ``|J_p| + tol |K_p| + tol^2 |L_p|`` plus
        twice ``budget``.  Over all edges that is at most
        ``tol (sum |J| + tol sum |K| + tol^2 sum |L| + 2 P budget)``.

        Roundoff, to first order in the unit roundoff ``eps``: a cell's end
        values, slopes and curvature are off by at most ``2 eps`` times its
        magnitudes ``m = (|c0| + |c1|/2 + |c2|/4, (|c1| + |c2|)/width,
        2 |c2|/width^2)``, so each jump is off by ``2 eps`` times the
        magnitudes of its two cells plus ``eps`` of itself.  A phase at
        ``|x_p| <= 1`` is off by at most ``eps (3 |w| + 2)``, the complex sum
        over the ``P`` edges adds ``2 P eps`` of the sum of the terms'
        magnitudes, and the powers of ``1 / (i w)`` a few ``eps`` more.  With
        ``S`` the sum over edges of ``|J| / |w| + |K| / w^2 + |L| / |w|^3``
        and ``M`` the same sum over the cells' ``m``, the roundoff is at most
        ``eps (4 M + (2 P + 3 |w| + 10) S)``; for ``n = 0`` it is
        ``eps (P + 3) sum width (|c0| + |c2| / 12)``.
        """
        n = np.atleast_1d(np.asarray(n, dtype=np.int64))
        c0, c1, c2 = self.coeffs.T
        w, p, eps = self.widths, self.cells, np.finfo(float).eps
        curve = 2.0 * c2 / w**2
        # value, slope and curvature at each cell's start and end; the jumps sit at starts[k], from cell k - 1 into k
        first = np.stack((c0 - 0.5 * c1 + 0.25 * c2, (c1 - c2) / w, curve), axis=1)
        last = np.stack((c0 + 0.5 * c1 + 0.25 * c2, (c1 + c2) / w, curve), axis=1)
        jumps = first - np.roll(last, 1, axis=0)
        a0, a1, a2 = np.abs(self.coeffs.T)
        mags = np.array([np.sum(a0 + 0.5 * a1 + 0.25 * a2), np.sum((a1 + a2) / w), np.sum(np.abs(curve))])

        omega = 2.0 * np.pi * n
        inv = (1.0 / (1j * np.where(n == 0, 1.0, omega)))[:, None] ** np.arange(1, 4)  # 1 / (i w)^k
        sums = np.empty((n.size, 3), dtype=complex)
        rows = max(1, _BLOCK // p)
        for j in range(0, n.size, rows):
            sums[j : j + rows] = np.exp(-2j * np.pi * np.outer(n[j : j + rows], self.starts)) @ jumps
        c = np.sum(sums * inv, axis=1)
        masses, scale = np.sum(np.abs(jumps), axis=0), np.abs(inv)
        err = eps * (4.0 * (scale @ mags) + (2 * p + 3.0 * np.abs(omega) + 10.0) * (scale @ masses))
        zero = n == 0
        c[zero] = self.mean
        err[zero] = eps * (p + 3) * (w @ (a0 + a2 / 12.0))
        edges = self.tol * (masses @ self.tol ** np.arange(3) + 2.0 * p * self.budget)
        return c, err + edges

    def zero_runs(self):
        """The zero set of ``Phi_b`` as ``(lo, hi)`` intervals, one per maximal cyclic run of zero cells.

        A run through ``xi = 0`` is reported from its start, with ``hi > 1``.
        """
        starts, lengths = cyclic_runs(self.zero)
        edges = np.concatenate((self.starts, self.starts + 1.0))  # left cell edges, twice round the circle
        return [(float(edges[s]), float(edges[s + n])) for s, n in zip(starts.tolist(), lengths.tolist())]

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

    The cells go in blocks of ``_BLOCK // 3``: one pass fills the samples,
    a second turns each block of them into its coefficients in place and
    folds the block into the bounds.  Memory is the result, five floats and
    a flag per cell, plus the temporaries of one block.  The vertex scaling
    and the zero measure read all cells at once (a maximum, and one sum over
    the zero cells' widths), so the result does not depend on the block size.

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
    is within ``budget``.  A spacing so small that the budget reaches the
    ess sup (it grows like ``1/b``) raises ``ValueError``, and so does an
    ess sup of 0, which names the support and ``tol`` instead.
    """
    b = check_spacing(b)
    pos, tol = _circle_breakpoints(profile, b)
    cells, rows, quarters = pos.size, max(1, _BLOCK // 3), np.array([0.25, 0.5, 0.75])
    widths = np.empty(cells)
    np.subtract(pos[1:], pos[:-1], out=widths[:-1])
    widths[-1] = pos[0] + 1.0 - pos[-1]
    # the samples at s = -1/4, 0, 1/4 of each cell, turned into its coefficients block by block below;
    # cells are wider than tol, so the points come sorted
    coeffs = np.empty((cells, 3))
    # refuse before any work, naming the translate count of all sample points rather than of one block's
    _cover_range(profile, b, pos[0] + widths[0] * 0.25, pos[-1] + widths[-1] * 0.75)
    for j in range(0, cells, rows):
        xi = pos[j : j + rows, None] + widths[j : j + rows, None] * quarters
        coeffs[j : j + rows] = periodize_at(profile, b, xi)
    # c1^2 / (4 c2) on c1, c2 scaled by 2^-e, exact unless c1^2 would underflow unscaled; e is global, so
    # a block of tiny cells is scaled as the whole profile is
    e = int(np.frexp(coeffs.max())[1])
    zero = np.empty(cells, dtype=bool)
    inf = inf_nonzero = math.inf
    sup = -math.inf
    for j in range(0, cells, rows):
        f = coeffs[j : j + rows]
        c1 = 2.0 * (f[:, 2] - f[:, 0])
        c2 = 8.0 * (f[:, 0] - 2.0 * f[:, 1] + f[:, 2])
        left = f[:, 1] - 0.5 * c1 + 0.25 * c2
        inside = np.abs(c1) < np.abs(c2)  # the vertex -c1 / (2 c2) lies inside the cell
        g1, g2 = np.ldexp(c1, -e), np.where(inside, np.ldexp(c2, -e), 1.0)
        vertex = np.where(inside, f[:, 1] - np.ldexp(g1 * g1 / (4.0 * g2), e), left)
        extremes = np.column_stack((left, f[:, 1] + 0.5 * c1 + 0.25 * c2, vertex))
        lo, hi = extremes.min(axis=1), extremes.max(axis=1)
        z = zero[j : j + rows]
        np.all(f == 0.0, axis=1, out=z)
        inf, sup = min(inf, float(lo.min())), max(sup, float(hi.max()))
        if not z.all():
            inf_nonzero = min(inf_nonzero, float(lo[~z].min()))
        f[:, 0], f[:, 1], f[:, 2] = f[:, 1], c1, c2

    n_lo, n_hi = _cover_range(profile, b, 0.0, 1.0)
    s_max, d_max = profile.square_bounds()
    x_max = max(abs(v) for v in profile.support())
    budget = 9.0 * (n_hi - n_lo + 1) * _ROUNDOFF * (s_max + d_max * max(x_max, 1.0 / b))
    if sup == 0.0:  # whatever the budget: the edges of every stretch where phi_hat is nonzero merged
        lo, hi = profile.support()
        raise ValueError(
            f"every cell sample of Phi_b at b = {b:g} is 0: phi_hat is nonzero only on stretches narrower, times b, "
            f"than the breakpoint tolerance tol = {tol:.3g} (support [{lo:.15g}, {hi:.15g}], width {hi - lo:.3g})"
        )
    if budget >= sup:
        raise ValueError(
            f"spacing b = {b:g} is too small: the cells' roundoff budget {budget:.3g} reaches "
            f"ess sup {sup:.3g} of Phi_b, so the cells cannot tell Phi_b from 0"
        )
    return ExactBounds(
        b=b,
        starts=pos,
        widths=widths,
        coeffs=coeffs,
        zero=zero,
        inf=inf,
        inf_nonzero=inf_nonzero,
        sup=sup,
        zero_measure=float(widths[zero].sum()),  # one sum over all zero cells, in the order np.sum takes it
        budget=budget,
        tol=tol,
    )


def cell_evidence(eb, ps):
    """Check the grid ``ps`` against the exact cells ``eb``; the ``exact-cell-bounds`` evidence row.

    Grid values must equal the cell quadratics within the cells' budget, and
    the grid's exact zeros must cover the zero cells' measure to within
    one midpoint per cell; a miss raises :class:`InconsistencyError`.
    """
    m = ps.grid_size
    dev = eb.grid_deviation(ps)
    if dev > eb.budget:
        raise InconsistencyError(
            f"grid of {m} points deviates from the exact cells of Phi_b by {dev:.3e} > budget {eb.budget:.3e}"
        )
    zf = float(np.mean(ps.values == 0.0))
    if abs(zf - eb.zero_measure) > eb.cells / m:
        raise InconsistencyError(
            f"grid zero fraction {zf:.12g} against exact zero measure {eb.zero_measure:.12g} "
            f"beyond cells/M = {eb.cells}/{m}"
        )
    return {
        "rule": "exact-cell-bounds",
        "cells": eb.cells,
        "ess_inf": eb.inf,
        "ess_inf_nonzero": eb.inf_nonzero,
        "ess_sup": eb.sup,
        "zero_measure": eb.zero_measure,
        "budget": eb.budget,
        "check_grid": m,
        "max_grid_deviation": dev,
        "grid_zero_fraction": zf,
    }


def cyclic_runs(mask):
    """Starts and lengths of the True runs of a cyclic boolean mask.

    Runs come in order of their start index; a run through the end of the
    array continues at index 0, so its start is the largest one and
    ``start + length`` exceeds the mask length.  A mask that is all True is
    one run of full length starting at 0.
    """
    mask = np.asarray(mask, dtype=bool)
    return _cyclic_runs(mask.size, lambda j, k: mask[j:k])


def sublevel_runs(values, eps):
    """:func:`cyclic_runs` of ``values <= eps``, without a mask the size of ``values``."""
    return _cyclic_runs(values.size, lambda j, k: values[j:k] <= eps)


def _cyclic_runs(size, flags):
    """:func:`cyclic_runs` of a mask of ``size`` flags, ``flags(j, k)`` returning flags ``j`` to ``k - 1``.

    The mask goes in blocks of ``_BLOCK``.  A run starts where a flag rises
    from its cyclic predecessor and ends before the next fall.  When the
    first fall comes before the first rise, it closes the run through the
    end, so each rise pairs with the next fall round the circle.
    """
    if not size:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    rises, falls = [], []
    prev = bool(flags(size - 1, size)[0])
    for j in range(0, size, _BLOCK):
        f = flags(j, min(j + _BLOCK, size))
        before = np.empty_like(f)
        before[0], before[1:] = prev, f[:-1]
        rises.append(np.flatnonzero(f > before) + j)
        falls.append(np.flatnonzero(f < before) + j)
        prev = bool(f[-1])
    starts, ends = np.concatenate(rises), np.concatenate(falls)
    if not starts.size:  # constant flags: one full run, or none
        return (np.zeros(1, dtype=np.int64), np.full(1, size, dtype=np.int64)) if prev else (starts, ends)
    if ends[0] < starts[0]:
        ends = np.roll(ends, -1)
    return starts, (ends - starts) % size


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


def summary(ps, eb):
    """JSON-ready summary of a periodization ``ps`` and its exact cells ``eb``.

    ``inf_nonzero``, ``sup``, ``zero_fraction`` and ``mean`` are the cells'
    ess inf off the zero cells, ess sup, zero-set measure and mean: none
    moves with the grid, which :func:`cell_evidence` checks against ``eb``.
    ``tail_bound`` is always 0 (the translate sum of a compactly supported
    profile is finite); the key stays so that ``frameseq/1`` output keeps
    its shape.
    """
    return {
        "b": ps.b,
        "grid_size": ps.grid_size,
        "truncation_range": ps.truncation_range,
        "tail_bound": 0.0,
        "inf_nonzero": eb.inf_nonzero,
        "sup": eb.sup,
        "zero_fraction": eb.zero_measure,
        "mean": eb.mean,
    }
