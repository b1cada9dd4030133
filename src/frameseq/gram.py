"""Finite Gram matrices of translate families and the classification rules.

Every Gram entry is an exact autocorrelation integral, read off one
vectorized closed-form kernel (:func:`~frameseq.spectrum.autocorrelations`).
On integer index sets the same inner products are also Fourier coefficients
of the periodized spectrum, so every 20th distinct shift plus the extreme
one is re-derived in closed form from the exact cells of ``Phi_b`` (the ones
``classify`` already computed).  The two routes must agree within a derived
budget; that agreement is the structural self-check of the package, and a
disagreement raises :class:`InconsistencyError` rather than a warning.

Lattice index sets are decided from the exact cell bounds of ``Phi_b``
(:func:`~frameseq.periodization.exact_bounds`), checked against one grid
and one Gram window.  Generic integer sets inherit the lattice bounds as a
theorem where the lattice family is exact, and otherwise read eigenvalue
trends over nested windows, where only windowed evidence is available.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .periodization import (
    _ROUNDOFF,
    GRID_CAP,
    InconsistencyError,
    ResourceLimitError,
    cell_evidence,
    check_grid_size,
    check_spacing,
    exact_bounds,
    periodize,
)
from .spectrum import FourierProfile, autocorrelations
from .translation_sets import TranslationSet, as_indices

__all__ = [
    "InconsistencyError",
    "Budgets",
    "GramOperator",
    "FrameBounds",
    "FrameReport",
    "build_gram",
    "frame_bound_estimates",
    "classify",
    "weighted_norm_identity_check",
    "window_ladder",
    "nested_window_bounds",
]

EIGENSOLVE_CAP = 2048
WINDOW_DOUBLINGS = 3  # nested Gram windows w, 2w, ..., w 2^WINDOW_DOUBLINGS
KERNEL_TOL = 1e-6  # relative eigenvalue cut of the frame-bound estimates
_ROW_BLOCK = 2**16  # Gram entries per block of rows that build_gram fills at a time
_LAG_BLOCK = 2**12  # lags build_gram hands the kernel at a time, so its temporaries do not grow with the window
CHECK_STRIDE = 20  # build_gram re-derives every CHECK_STRIDE-th distinct positive shift


@dataclass(frozen=True)
class Budgets:
    grid_size: int = 4096  # size of the one check grid
    window: int = 64  # base Gram window (half width on lattices)

    def __post_init__(self):
        check_grid_size(self.grid_size)


@dataclass
class GramOperator:
    matrix: np.ndarray
    b: float
    indices: np.ndarray
    route: str  # "periodization-grid" (integer sets, checked against the exact cells) or "autocorrelation"
    grid_size: int | None = None  # always None: no grid checks the entries; kept for the benchmark tracer
    checked_shifts: list = field(default_factory=list)
    max_check_deviation: float = 0.0
    check_budget: float = 0.0  # largest budget over the checked shifts

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def norm_phi_sq(self):
        return float(np.real(self.matrix[0, 0]))

    def principal(self, k):
        """Leading k-by-k principal submatrix as a GramOperator (same metadata)."""
        if not (1 <= k <= self.dim):
            raise ValueError(f"principal window {k} outside [1, {self.dim}]")
        return replace(self, matrix=self.matrix[:k, :k], indices=self.indices[:k])


def _real_if_close(vals):
    if np.max(np.abs(vals.imag)) <= 1e-12 * max(np.max(np.abs(vals.real)), 1e-300):
        return np.ascontiguousarray(vals.real)
    return vals


def _kernel(profile, b, lags):
    """``conj(autocorrelations(profile, b * lags))``, evaluated in blocks of ``_LAG_BLOCK`` lags."""
    vals = np.empty(lags.size, dtype=complex)
    for s in range(0, lags.size, _LAG_BLOCK):
        vals[s : s + _LAG_BLOCK] = autocorrelations(profile, b * lags[s : s + _LAG_BLOCK])
    return np.conjugate(vals, out=vals)


def _lag_matrix(lam, fn):
    """``fn`` of the distinct lags ``lam_j - lam_i`` at entry ``(i, j >= i)`` and its conjugate at ``(j, i)``,
    real when ``fn``'s values are real within ``1e-12`` of the largest (:func:`_real_if_close`).

    ``lam`` is sorted.  The lags, collected row by row, go through one sort, and each upper-triangle
    entry keeps its lag's position as ``int32``.  The lags are dropped before the values turn real
    and fill the matrix row by row, so neither an n-by-n temporary nor a lag-sized float array is
    held next to the matrix.
    """
    tri = np.concatenate([lam[i:] - lam[i] for i in range(lam.size)])
    order = np.argsort(tri)
    tri = tri[order]
    first = np.concatenate(([True], tri[1:] != tri[:-1]))
    lags = tri[first]
    del tri
    at = np.empty(order.size, dtype=np.int32)  # positions, row by row from the diagonal on
    at[order] = np.cumsum(first, dtype=np.int32) - 1
    del order, first
    vals = fn(lags)
    del lags
    vals = _real_if_close(vals)
    n = lam.size
    g = np.empty((n, n), dtype=vals.dtype)
    start = 0
    for i in range(n):
        row = vals[at[start : start + n - i]]
        g[i, i:] = row
        g[i + 1 :, i] = np.conj(row[1:])
        start += n - i
    return g


def build_gram(profile, b, lam, eb=None):
    """Gram matrix of ``(tau_{lam_i b} phi)_i`` with a dual-route spot check.

    ``lam`` is normalized by :func:`~frameseq.translation_sets.as_indices`,
    so the rows follow the sorted points and a set of integer points takes
    the integer route whatever its dtype.  Every entry comes from the
    closed-form kernel, evaluated only at the shifts the window holds:
    integer index sets mark theirs in a table over ``[-span, span]`` and
    read their values from another, other sets take their distinct
    ``|lam_j - lam_i|`` (:func:`_lag_matrix`).  The window is real when
    the values at its shifts are real within ``1e-12`` of the largest.  A
    table of ``GRID_CAP`` entries or more raises
    :class:`~frameseq.periodization.ResourceLimitError`.

    On integer sets a fixed stride of the sorted distinct positive shifts,
    ``pos[::CHECK_STRIDE]`` plus ``pos[-1]`` when the stride misses it (the
    shift 0 alone on a one-point set), is re-derived as ``Phi_b_hat(d) / b``
    from the exact cells ``eb`` of ``Phi_b`` (computed when absent), through
    :meth:`~frameseq.periodization.ExactBounds.coefficients`.  The sample
    holds the smallest and the largest shift and is the same on every call;
    :func:`weighted_norm_identity_check` still reads every lag.  The budget
    of a shift, times ``b``, is derived:

    * the cells' coefficient differs from ``Phi_b_hat(d)`` by at most
      ``int |Phi_cells - Phi_b|``; a fitted value is within ``eb.budget`` of
      ``Phi_b`` on every cell, so away from the edges this is ``eb.budget``;
    * the cell edges are known only to within ``tol``, and the strips
      between computed and true edges add at most what
      :meth:`~frameseq.periodization.ExactBounds.coefficients` returns as
      its error bound, together with the roundoff of its jump sum;
    * the closed-form kernel's roundoff is budgeted as
      ``256 eps b ||phi||^2``, plus the smallest normal float, below which
      relative roundoff fails.

    A deviation beyond it raises :class:`InconsistencyError`.  Non-integer
    sets have no periodization route and are left unchecked.
    """
    if not isinstance(profile, FourierProfile):
        raise TypeError("build_gram needs a FourierProfile")
    b = check_spacing(b)
    lam = as_indices(lam)
    n = lam.size
    if n > EIGENSOLVE_CAP:
        raise ResourceLimitError(f"window of {n} translates exceeds the dense cap {EIGENSOLVE_CAP}")
    if lam.dtype != np.int64:
        g = _lag_matrix(lam, lambda d: _kernel(profile, b, d))
        return GramOperator(matrix=g, b=b, indices=lam, route="autocorrelation")

    span = int(lam[-1] - lam[0])
    if 2 * span + 2 > GRID_CAP:
        raise ResourceLimitError(
            f"span {span} needs a shift table over [-{span}, {span}] of {2 * span + 1} entries, "
            f"at or beyond the cap {GRID_CAP}"
        )
    # entry (i, j) holds shift lam_j - lam_i; the shifts are marked, then the entries
    # read, in blocks of rows, so that no n-by-n index array is held next to the matrix
    rows = max(1, _ROW_BLOCK // n)
    blocks = [slice(i, i + rows) for i in range(0, n, rows)]
    held = np.zeros(2 * span + 1, dtype=bool)  # held and cm put shift d at index d + span
    for r in blocks:
        held[lam[None, :] - lam[r, None] + span] = True
    pos = np.flatnonzero(held[span:])  # 0 first; held is symmetric
    vals = _real_if_close(_kernel(profile, b, pos))
    cm = np.zeros(2 * span + 1, dtype=vals.dtype)
    cm[span - pos] = np.conj(vals)
    cm[span + pos] = vals
    g = np.empty((n, n), dtype=cm.dtype)
    for r in blocks:  # the indices are in range; "clip" skips a buffered copy
        np.take(cm, lam[None, :] - lam[r, None] + span, out=g[r], mode="clip")

    # dual-route spot check on a fixed stride of the shifts, always with the extreme one
    pos = pos[1:]
    if pos.size:
        sample = pos[::CHECK_STRIDE]
        if sample[-1] != pos[-1]:
            sample = np.append(sample, pos[-1])
    else:
        sample = np.zeros(1, dtype=np.int64)
    eb = exact_bounds(profile, b) if eb is None else eb
    coeffs, err = eb.coefficients(sample)
    cells = coeffs / b
    exact = cm[sample + span]
    dev = np.abs(cells - exact)
    kernel = _ROUNDOFF * b * profile.norm_squared() + np.finfo(float).tiny
    budget = (eb.budget + err + kernel) / b
    for d, k_val, c_val, e, bud in zip(sample.tolist(), exact, cells, dev, budget):
        if e > bud:
            raise InconsistencyError(
                f"Gram entry at shift {d}: kernel {k_val:.12g}, exact cells {c_val:.12g}, "
                f"deviation {e:.3e} > budget {bud:.3e}"
            )
    return GramOperator(
        matrix=g,
        b=b,
        indices=lam,
        route="periodization-grid",
        checked_shifts=[int(d) for d in sample],
        max_check_deviation=float(np.max(dev)),
        check_budget=float(np.max(budget)),
    )


@dataclass
class FrameBounds:
    A_est: float  # smallest eigenvalue above the kernel cut (0 if degenerate)
    B_est: float
    min_eigenvalue: float  # raw, may be tiny negative from round-off
    numerical_rank: int
    kernel_dim: int
    dim: int
    degenerate: bool
    solver: str  # "real" (a real Gram), "real-centrohermitian" or "complex"


def frame_bound_estimates(g, kernel_tol=KERNEL_TOL):
    """Extremal eigenvalues of the Gram window; kernel cut is relative.

    ``A_est`` is the smallest eigenvalue strictly above
    ``kernel_tol * B_est``, the finite-window surrogate for the lower frame
    bound on the orthogonal complement of the kernel.  All eigenvalues below
    the cut produce a degenerate report rather than an error.

    A complex window on a mirror-symmetric integer set (``lam + lam[::-1]``
    constant, as on every contiguous range) is solved in real arithmetic.
    Entry ``(i, j)`` is the coefficient at shift ``lam_j - lam_i``, read by
    :func:`build_gram` from a table whose negative half is the conjugate of
    its positive half, and the mirror ``i -> n-1-i`` negates every shift, so
    ``J G J = conj(G)`` holds bit for bit (``J`` the exchange matrix).  With
    the unitary ``Q = (I + iJ) / sqrt(2)``, ``Q* G Q = Re G - Im G J``
    (``Im G J`` is ``Im G`` with its columns reversed): a real symmetric
    matrix with the spectrum of ``G``.  The structure is read from the
    index set, never tested on the matrix.
    ``solver`` names the route: ``"real"`` for a real Gram,
    ``"real-centrohermitian"`` for that similarity, else ``"complex"``.
    """
    if kernel_tol < 0:
        raise ValueError("kernel_tol must be >= 0")
    if g.dim > EIGENSOLVE_CAP:
        raise ResourceLimitError(f"dimension {g.dim} exceeds the eigen-solve cap {EIGENSOLVE_CAP}")
    lam, mat = g.indices, g.matrix
    if not np.iscomplexobj(mat):
        solver = "real"
    elif lam.dtype == np.int64 and np.all(lam + lam[::-1] == lam[0] + lam[-1]):
        solver = "real-centrohermitian"
        mat = mat.real - mat.imag[:, ::-1]
    else:
        solver = "complex"
    eigs = np.linalg.eigvalsh(mat)
    b_est = float(eigs[-1])
    cut = kernel_tol * max(b_est, 0.0)
    above = eigs[eigs > cut]
    return FrameBounds(
        A_est=float(above[0]) if above.size else 0.0,
        B_est=b_est,
        min_eigenvalue=float(eigs[0]),
        numerical_rank=int(above.size),
        kernel_dim=int(g.dim - above.size),
        dim=g.dim,
        degenerate=above.size == 0,
        solver=solver,
    )


@dataclass
class FrameReport:
    classification: str
    A_est: float | None
    B_est: float | None
    numerical_rank: int | None
    b: float
    index_kind: str
    grid_sizes: list
    windows: list
    evidence: list
    notes: list = field(default_factory=list)

    def to_json(self):
        return asdict(self)


def _lattice_verdict(eb):
    """Verdict on the full lattice with its bounds ``(classification, A, B)``, from the exact cells."""
    b = eb.b
    if eb.constant and abs(eb.sup - b) <= eb.budget:
        return "orthonormal", 1.0, 1.0
    if eb.zero_measure == 0.0 and eb.inf > eb.budget:
        return "exact frame sequence", eb.inf / b, eb.sup / b
    if eb.zero_measure > 0.0 and eb.inf_nonzero > eb.budget:
        return "frame sequence (non-exact)", eb.inf_nonzero / b, eb.sup / b
    return "not a frame sequence", None, eb.sup / b


def _trend_verdict(label, fbs, windows):
    """Verdict on a generic integer set ``(classification, A, B, note)`` from its lattice label and window ladder."""
    a_seq = [fb.A_est for fb in fbs]
    b_seq = [fb.B_est for fb in fbs]
    # B <= ess sup Phi_b / b on every integer set, so B growth alone decides nothing
    a_fall = a_seq[-1] / a_seq[0] if a_seq[0] > 0 else 0.0
    b_grow = b_seq[-1] / b_seq[0] if b_seq[0] > 0 else float("inf")
    note = "generic-set verdicts are windowed eigenvalue trends, not lattice theorems"
    if label == "exact frame sequence" and a_fall > 0.5:
        note = "subset of an exact lattice family: a Riesz sequence within the lattice bounds"
    elif len(windows) < 3:
        label, note = "undetermined", "not enough nested windows for a trend verdict"
    elif a_fall <= 0.5 and b_grow <= 1.2:
        label = "upper bound only"
    elif any(fb.numerical_rank < k for fb, k in zip(fbs, windows)):
        # a Riesz sequence has no singular window, and A_est then reads past the kernel
        label, note = "undetermined", "a window is singular to working precision, so its A_est bounds nothing"
    elif a_fall >= 0.8 and b_grow <= 1.2:
        label = "exact frame sequence"
    else:
        label = "undetermined"
    return label, a_seq[-1] if label == "exact frame sequence" else None, b_seq[-1], note


def classify(profile, b, ts, budgets=None):
    """Frame-property decision for the translate family on the index set.

    One pipeline for every set.  A lattice of period ``m > 1`` is first
    rescaled to the full lattice at spacing ``m b``.  On integer sets the
    exact cell bounds of the periodized spectrum, checked against one grid,
    decide the lattice family; non-integer sets carry no lattice structure
    and are always ``undetermined``.  Every set then reads its Gram windows
    through :func:`nested_window_bounds`.  Lattices (the sets with a
    ``period``) take the lattice verdict, which their window must agree
    with; on a ``one_sided`` lattice only an exact family is a frame.
    A generic integer set inherits an orthonormal lattice family's
    verdict, and an exact one's unless its windowed lower estimate halves;
    otherwise eigenvalue trends over nested windows decide it
    (:func:`_trend_verdict`), ``undetermined`` when they conflict.
    Non-integer sets attach the evidence of one window of at most 256 points.
    """
    budgets = budgets or Budgets()
    if not isinstance(ts, TranslationSet):
        ts = TranslationSet.explicit(ts)
    w, m, lattice = budgets.window, ts.period, ts.period is not None
    spacing, evidence, notes = b, [], []
    if lattice and m > 1:
        spacing = b * m
        evidence.append({"rule": "subgroup-rescaling", "m": m, "effective_spacing": float(spacing)})
        notes.append(f"subgroup step {m} analyzed as the full lattice at spacing {spacing:g}")
    lam = np.arange(1 if ts.one_sided else -w, w + 1, dtype=np.int64) if lattice else ts.realize()

    eb, trend = None, lam.dtype != np.int64
    if trend:  # no lattice structure: one window of evidence
        windows = [min(lam.size, 256)]
    else:
        eb = exact_bounds(profile, spacing)
        evidence.append(cell_evidence(eb, periodize(profile, spacing, budgets.grid_size)))
        label, a_val, b_val = _lattice_verdict(eb)
        # lattices and orthonormal families agree with one window, other sets read a ladder of them
        trend = not lattice and label != "orthonormal"
        windows = [lam.size] if lattice else (window_ladder(lam.size, w) if trend else [])
    sizes = windows or [min(lam.size, 2 * w)]
    fbs, interval, check = nested_window_bounds(profile, spacing, lam, sizes, eb=eb)

    if not trend:
        evidence.append(
            {
                "rule": "pathway-agreement",
                "window": sizes[-1],
                "B_gram": fbs[-1].B_est,
                "A_phi": eb.inf / spacing,
                "B_phi": eb.sup / spacing,
                "min_eigenvalue": fbs[-1].min_eigenvalue,
                **check,
            }
        )
        if ts.one_sided and label in ("frame sequence (non-exact)", "not a frame sequence"):
            evidence.append(
                {
                    "rule": "restricted-index-exactness",
                    "lattice_verdict": label,
                    "consequence": "one-sided families are frames only when the full lattice family is exact",
                }
            )
            label, a_val = "not a frame sequence", None
        if not lattice:
            notes.append("constant periodized spectrum; any subfamily of the lattice family is orthonormal")
    else:
        a_seq, b_seq = [fb.A_est for fb in fbs], [fb.B_est for fb in fbs]
        row = {"rule": "eigenvalue-window-trend", "windows": windows, "A_est": a_seq, "B_est": b_seq}
        if eb is None:
            label, a_val, b_val = "undetermined", a_seq[-1], b_seq[-1]
            note = "no lattice structure for a periodization decision; window evidence only"
        else:
            row.update(numerical_rank=[fb.numerical_rank for fb in fbs], lattice_interval=interval, **check)
            label, a_val, b_val, note = _trend_verdict(label, fbs, windows)
        evidence.append(row)
        notes.append(note)
    return FrameReport(
        classification=label,
        A_est=a_val,
        B_est=b_val,
        numerical_rank=fbs[-1].numerical_rank,
        b=float(b),
        index_kind=ts.kind,
        grid_sizes=[] if eb is None else [budgets.grid_size],
        windows=windows,
        evidence=evidence,
        notes=notes,
    )


def window_ladder(n, window):
    """Nested window sizes ``w, 2w, ..., w 2^WINDOW_DOUBLINGS`` for a set of ``n`` points.

    ``w = min(window, n)``; rungs larger than ``n`` or ``EIGENSOLVE_CAP``
    are dropped.  This is the one ladder behind every windowed trend.
    """
    w = min(window, n)
    return [w << k for k in range(WINDOW_DOUBLINGS + 1) if w << k <= min(n, EIGENSOLVE_CAP)]


def nested_window_bounds(profile, b, lam, sizes, eb):
    """Checked frame-bound estimates of the leading principal windows of ``lam`` of the given sizes.

    The largest window is built once by :func:`build_gram` (spot-checked
    against the exact cells ``eb`` of ``Phi_b``, which non-integer sets,
    unchecked, may pass as ``None``); each smaller one
    is its leading principal submatrix.  On integer sets the largest
    window's eigenvalues must lie in ``eb.eigenvalue_interval``, else
    :class:`InconsistencyError`.  Returns one :class:`FrameBounds` per size
    in the order of ``sizes``, that interval (``None`` off the integers)
    and the spot check's facts, as :func:`classify`'s evidence rows print them.
    """
    lam = as_indices(lam)
    g = build_gram(profile, b, lam[: max(sizes)], eb=eb)
    fbs = [frame_bound_estimates(g.principal(k)) for k in sizes]
    check = {
        "checked_shifts": len(g.checked_shifts),
        "max_check_deviation": g.max_check_deviation,
        "check_budget": g.check_budget,
    }
    if lam.dtype != np.int64:
        return fbs, None, check
    fb = fbs[sizes.index(max(sizes))]
    lo, hi = eb.eigenvalue_interval(g.dim, g.norm_phi_sq)
    if not lo <= fb.min_eigenvalue <= fb.B_est <= hi:
        raise InconsistencyError(
            f"Gram window of {g.dim} eigenvalues [{fb.min_eigenvalue:.12g}, {fb.B_est:.12g}] "
            f"outside the periodization interval [{lo:.12g}, {hi:.12g}]"
        )
    return fbs, [float(lo), float(hi)], check


def weighted_norm_identity_check(profile, b, lam, coeffs):
    """Two routes to ``|sum_n c_n tau_{lam_n b} phi|^2``; returns their gap.

    The left side is the quadratic form of :func:`build_gram`, whose
    closed-form entries are spot-checked against the exact cells ``eb`` of
    ``Phi_b``.  The right side is the integral of ``|f|^2 Phi_b / b`` with
    ``f(xi) = sum c_n e^{2 pi i lam_n xi}``, read off the cells'
    coefficients :meth:`~frameseq.periodization.ExactBounds.coefficients`
    at the distinct lags ``|lam_j - lam_i|``, so every entry of the form,
    checked or not, is compared with the cells.  Its cost is O(distinct
    lags x cells): 256 points spanning 3,000 (2,907 lags) on the 43 cells
    of ``infimum_spectrum(0.5, 12, 2**14)`` at ``b = 1`` took 0.016 s on 2
    cores (numpy 2.4).  The points and their coefficients are sorted
    together by :func:`~frameseq.translation_sets.as_indices`.
    """
    lam, c = as_indices(lam, coeffs)
    if lam.dtype != np.int64:
        raise ValueError("the cell route needs integer indices")
    eb = exact_bounds(profile, b)
    lhs = float(np.real(np.conj(c) @ build_gram(profile, b, lam, eb=eb).matrix @ c))

    # the transform of a translate carries e^{-2 pi i}, so the trig sum is
    # f(xi) = sum c_n e^{-2 pi i lam_n xi}; its (i, j) cross term integrates
    # against Phi to conj(Phi_hat(lam_j - lam_i)), and Phi_hat(-d) = conj(Phi_hat(d))
    cm = _lag_matrix(lam, lambda d: np.conj(eb.coefficients(d)[0]))
    rhs = float(np.real(np.sum(np.outer(c, np.conj(c)) * cm))) / b

    dev = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    return {"lhs": lhs, "rhs": rhs, "deviation": dev}
