"""Finite Gram matrices of translate families and the classification rules.

Every Gram entry is an exact autocorrelation integral, read off one
vectorized closed-form kernel (:func:`~frameseq.spectrum.autocorrelations`).
On integer index sets the same inner products are also Fourier coefficients
of the periodized spectrum, so a 5% sample of the shifts plus the extreme
one is re-derived from a periodization grid, the one ``classify`` already
computed when it is fine enough.  The two routes must agree within an alias
budget derived from the jumps and kinks of ``Phi_b``; that agreement is the
structural self-check of the package, and a disagreement raises
:class:`InconsistencyError` rather than a warning.

Lattice index sets are decided from the exact cell bounds of ``Phi_b``
(:func:`~frameseq.periodization.exact_bounds`), checked against one grid
and one Gram window.  Generic integer sets inherit the lattice bounds as a
theorem where the lattice family is exact, and otherwise read eigenvalue
trends over nested windows, where only windowed evidence is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .periodization import (
    GRID_CAP,
    InconsistencyError,
    cell_evidence,
    check_grid_size,
    check_spacing,
    coefficient_error_bound,
    exact_bounds,
    fourier_coeff,
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
    "truncation_decay",
    "weighted_norm_identity_check",
    "window_ladder",
    "nested_window_bounds",
]

EIGENSOLVE_CAP = 2048
WINDOW_DOUBLINGS = 3  # nested Gram windows w, 2w, ..., w 2^WINDOW_DOUBLINGS
KERNEL_TOL = 1e-6  # relative eigenvalue cut of the frame-bound estimates
_ROW_BLOCK = 2**16  # Gram entries per block of rows that build_gram fills at a time


@dataclass(frozen=True)
class Budgets:
    grid_size: int = 4096  # least size of the one check grid
    window: int = 64  # base Gram window (half width on lattices)

    def __post_init__(self):
        check_grid_size(self.grid_size)


@dataclass
class GramOperator:
    matrix: np.ndarray
    b: float
    indices: np.ndarray
    route: str  # "periodization-grid" (integer sets, grid-checked) or "autocorrelation"
    grid_size: int | None = None  # grid of the spot check, None when unchecked
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


def _next_pow2(x):
    return 1 << max(4, math.ceil(math.log2(max(x, 1))))


def _real_if_close(vals):
    if np.max(np.abs(vals.imag)) <= 1e-12 * max(np.max(np.abs(vals.real)), 1e-300):
        return np.ascontiguousarray(vals.real)
    return vals


def _check_grid(profile, b, span, ps, grid_size=4096):
    """The periodization grid that checks integer Gram entries up to shift ``span``.

    ``ps`` itself when it has spacing ``b`` and ``2 span < M`` (so no
    checked coefficient aliases), else a fresh grid of
    ``max(grid_size, next_pow2(2 span + 2))`` points, refused above ``GRID_CAP``.
    """
    if ps is not None and ps.b == b and 2 * span < ps.grid_size:
        return ps
    m = max(grid_size, _next_pow2(2 * span + 2))
    if m > GRID_CAP:
        raise ValueError(f"span {span} needs a check grid of {m} points beyond the cap {GRID_CAP}")
    return periodize(profile, b, grid_size=m)


def build_gram(profile, b, lam, ps=None, rng_seed=0):
    """Gram matrix of ``(tau_{lam_i b} phi)_i`` with a dual-route spot check.

    ``lam`` is normalized by :func:`~frameseq.translation_sets.as_indices`,
    so the rows follow the sorted points and a set of integer points takes
    the integer route whatever its dtype.  Every entry comes from the
    closed-form kernel: integer index sets through a table over the shifts
    ``[-span, span]``, other sets through their distinct ``|lam_j - lam_i|``.
    On integer sets a deterministic 5% sample of the distinct shifts, plus
    the largest, is re-derived as Fourier coefficients of the check grid
    (``ps`` when it has spacing ``b`` and more than ``2 span`` points, else a
    fresh grid of ``next_pow2(max(4096, 2 span + 2))`` points); a deviation
    beyond the alias budget of
    :func:`~frameseq.periodization.coefficient_error_bound` raises
    :class:`InconsistencyError`.  Non-integer sets have no periodization
    route and are left unchecked.
    """
    if not isinstance(profile, FourierProfile):
        raise TypeError("build_gram needs a FourierProfile")
    b = check_spacing(b)
    lam = as_indices(lam)
    n = lam.size
    if n > EIGENSOLVE_CAP:
        raise ValueError(f"window of {n} translates exceeds the dense cap {EIGENSOLVE_CAP}")
    if lam.dtype != np.int64:
        diffs = lam[None, :] - lam[:, None]  # entry (i, j) holds the shift lam_j - lam_i
        uniq, inv = np.unique(np.abs(diffs).ravel(), return_inverse=True)
        vals = _real_if_close(np.conj(autocorrelations(profile, b * uniq)))
        g = vals[inv.reshape(n, n)]
        if np.iscomplexobj(g):
            g = np.where(diffs < 0, np.conj(g), g)
        return GramOperator(matrix=g, b=b, indices=lam, route="autocorrelation")

    span = int(lam[-1] - lam[0])
    ps = _check_grid(profile, b, span, ps)
    cm = np.conj(autocorrelations(profile, b * np.arange(span + 1)))  # shifts 0..span
    cm = _real_if_close(np.concatenate((np.conj(cm[:0:-1]), cm)))  # shift d at index d + span
    # entry (i, j) holds shift lam_j - lam_i, read from cm in blocks of rows
    # so that no n-by-n index array is held next to the matrix
    g = np.empty((n, n), dtype=cm.dtype)
    seen = np.zeros(cm.size, dtype=bool)
    rows = max(1, _ROW_BLOCK // n)
    for i in range(0, n, rows):
        idx = lam[None, :] - lam[i : i + rows, None] + span
        np.take(cm, idx, out=g[i : i + rows], mode="clip")  # in range; "clip" skips a buffered copy
        seen[idx] = True

    # dual-route spot check on a deterministic sample of the shifts
    pos = np.flatnonzero(seen[span + 1 :]) + 1
    if pos.size:
        rng = np.random.default_rng(rng_seed)
        sample = rng.choice(pos, size=math.ceil(0.05 * pos.size), replace=False)
        sample = np.union1d(sample, pos[-1:])  # always include the extreme shift
    else:
        sample = np.zeros(1, dtype=np.int64)
    grid = fourier_coeff(ps, sample) / b
    exact = cm[sample + span]
    dev = np.abs(grid - exact)
    budget = coefficient_error_bound(profile, ps, sample) / b
    for d, k_val, g_val, e, bud in zip(sample.tolist(), exact, grid, dev, budget):
        if e > bud:
            raise InconsistencyError(
                f"Gram entry at shift {d}: kernel {k_val:.12g}, grid {g_val:.12g}, "
                f"deviation {e:.3e} > budget {bud:.3e} (grid {ps.grid_size})"
            )
    return GramOperator(
        matrix=g,
        b=b,
        indices=lam,
        route="periodization-grid",
        grid_size=ps.grid_size,
        checked_shifts=[int(d) for d in sample],
        max_check_deviation=float(np.max(dev)),
        check_budget=float(np.max(budget)),
    )


def _check_evidence(g):
    """The Gram spot check's deterministic facts, for a report's evidence."""
    return {
        "check_grid": g.grid_size,
        "checked_shifts": len(g.checked_shifts),
        "max_check_deviation": g.max_check_deviation,
        "check_budget": g.check_budget,
    }


@dataclass
class FrameBounds:
    A_est: float  # smallest eigenvalue above the kernel cut (0 if degenerate)
    B_est: float
    min_eigenvalue: float  # raw, may be tiny negative from round-off
    numerical_rank: int
    kernel_dim: int
    dim: int
    kernel_tol: float
    degenerate: bool


def frame_bound_estimates(g, kernel_tol=KERNEL_TOL):
    """Extremal eigenvalues of the Gram window; kernel cut is relative.

    ``A_est`` is the smallest eigenvalue strictly above
    ``kernel_tol * B_est``, the finite-window surrogate for the lower frame
    bound on the orthogonal complement of the kernel.  All eigenvalues below
    the cut produce a degenerate report rather than an error.
    """
    if kernel_tol < 0:
        raise ValueError("kernel_tol must be >= 0")
    if g.dim > EIGENSOLVE_CAP:
        raise ValueError(f"dimension {g.dim} exceeds the eigen-solve cap {EIGENSOLVE_CAP}")
    eigs = np.linalg.eigvalsh(g.matrix)
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
        kernel_tol=kernel_tol,
        degenerate=above.size == 0,
    )


@dataclass
class FrameReport:
    classification: str
    A_est: float | None
    B_est: float | None
    numerical_rank: int | None
    evidence: list
    b: float
    index_kind: str
    grid_sizes: list
    windows: list
    notes: list = field(default_factory=list)

    def to_json(self):
        def num(x):
            if x is None:
                return None
            return float(x)

        return {
            "classification": self.classification,
            "A_est": num(self.A_est),
            "B_est": num(self.B_est),
            "numerical_rank": self.numerical_rank,
            "b": float(self.b),
            "index_kind": self.index_kind,
            "grid_sizes": list(self.grid_sizes),
            "windows": list(self.windows),
            "evidence": self.evidence,
            "notes": list(self.notes),
        }


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


def _check_eigenvalues(eb, g, fb):
    """Raise unless the window's eigenvalues lie in the lattice interval; returns the interval."""
    lo, hi = eb.eigenvalue_interval(g.dim, g.norm_phi_sq)
    if not lo <= fb.min_eigenvalue <= fb.B_est <= hi:
        raise InconsistencyError(
            f"Gram window of {g.dim} eigenvalues [{fb.min_eigenvalue:.12g}, {fb.B_est:.12g}] "
            f"outside the periodization interval [{lo:.12g}, {hi:.12g}]"
        )
    return [float(lo), float(hi)]


def _gram_agreement(profile, b, lam, ps, eb, evidence):
    """Cross-validate one Gram window against the exact periodization bounds.

    Every eigenvalue of the window lies in ``[ess inf, ess sup] / b`` of
    ``Phi_b``; a violation is an implementation fault, not a math
    ambiguity, hence the hard error.  The Gram entries are spot-checked
    against the same grid ``ps``.
    """
    g = build_gram(profile, b, lam, ps=ps)
    fb = frame_bound_estimates(g)
    _check_eigenvalues(eb, g, fb)
    evidence.append(
        {
            "rule": "pathway-agreement",
            "window": int(lam.size),
            "B_gram": float(fb.B_est),
            "A_phi": eb.inf / b,
            "B_phi": eb.sup / b,
            "min_eigenvalue": float(fb.min_eigenvalue),
            **_check_evidence(g),
        }
    )
    return fb


def classify(profile, b, ts, budgets=None):
    """Frame-property decision for the translate family on the index set.

    Lattice sets (all integers, a subgroup, the naturals) are decided from
    the exact cell bounds of the periodized spectrum, checked against one
    grid and one Gram window.  A generic integer set inherits exactness
    from an exact lattice family (every window's eigenvalues lie within
    the lattice bounds); otherwise it is decided by eigenvalue trends over
    nested windows and is honestly ``undetermined`` when those trends
    conflict.  Non-integer explicit sets carry no lattice structure and
    are always ``undetermined`` (with window evidence attached).
    """
    budgets = budgets or Budgets()
    if not isinstance(ts, TranslationSet):
        ts = TranslationSet.explicit(ts)
    kind = ts.kind

    if kind == "subgroup":
        m = dict(ts.params)["m"]
        inner = classify(profile, b * m, TranslationSet.integers(dict(ts.params)["half_width"]), budgets)
        inner.evidence.insert(
            0,
            {"rule": "subgroup-rescaling", "m": int(m), "effective_spacing": float(b * m)},
        )
        inner.b = float(b)
        inner.index_kind = "subgroup"
        inner.notes.append(f"subgroup step {m} analyzed as the full lattice at spacing {b * m:g}")
        return inner

    if kind in ("integers", "naturals"):
        w = budgets.window
        lam = (
            np.arange(-w, w + 1, dtype=np.int64)
            if kind == "integers"
            else np.arange(1, w + 1, dtype=np.int64)
        )
        eb = exact_bounds(profile, b)
        ps = _check_grid(profile, b, int(lam[-1] - lam[0]), None, budgets.grid_size)
        evidence = [cell_evidence(eb, ps)]
        label, a_val, b_val = _lattice_verdict(eb)
        fb = _gram_agreement(profile, b, lam, ps, eb, evidence)
        if kind == "naturals" and label in ("frame sequence (non-exact)", "not a frame sequence"):
            evidence.append(
                {
                    "rule": "restricted-index-exactness",
                    "lattice_verdict": label,
                    "consequence": "one-sided families are frames only when the full lattice family is exact",
                }
            )
            label, a_val = "not a frame sequence", None
        return FrameReport(
            classification=label,
            A_est=a_val,
            B_est=b_val,
            numerical_rank=fb.numerical_rank,
            evidence=evidence,
            b=float(b),
            index_kind=kind,
            grid_sizes=[ps.grid_size],
            windows=[int(lam.size)],
            notes=[],
        )

    # generic sets: lattice bounds where they decide, else eigenvalue trends over nested windows
    lam = ts.realize()
    evidence = []
    if lam.dtype != np.int64:
        g = build_gram(profile, b, lam[: min(lam.size, 256)])
        fb = frame_bound_estimates(g)
        evidence.append(
            {
                "rule": "eigenvalue-window-trend",
                "windows": [int(g.dim)],
                "A_est": [fb.A_est],
                "B_est": [fb.B_est],
            }
        )
        return FrameReport(
            classification="undetermined",
            A_est=fb.A_est,
            B_est=fb.B_est,
            numerical_rank=fb.numerical_rank,
            evidence=evidence,
            b=float(b),
            index_kind=kind,
            grid_sizes=[],
            windows=[int(g.dim)],
            notes=["no lattice structure for a periodization decision; window evidence only"],
        )

    eb = exact_bounds(profile, b)
    lattice, _, _ = _lattice_verdict(eb)
    windows = [] if lattice == "orthonormal" else window_ladder(lam.size, budgets.window)
    lam = lam[: windows[-1] if windows else min(lam.size, 2 * budgets.window)]
    ps = _check_grid(profile, b, int(lam[-1] - lam[0]), None, budgets.grid_size)
    evidence.append(cell_evidence(eb, ps))
    if lattice == "orthonormal":
        fb = _gram_agreement(profile, b, lam, ps, eb, evidence)
        label, a_val, b_val, rank = "orthonormal", 1.0, 1.0, fb.numerical_rank
        note = "constant periodized spectrum; any subfamily of the lattice family is orthonormal"
    else:
        g_full, fbs = nested_window_bounds(profile, b, lam, windows, ps=ps)
        a_seq = [fb.A_est for fb in fbs]
        b_seq = [fb.B_est for fb in fbs]
        ranks = [fb.numerical_rank for fb in fbs]
        evidence.append(
            {
                "rule": "eigenvalue-window-trend",
                "windows": windows,
                "A_est": [float(x) for x in a_seq],
                "B_est": [float(x) for x in b_seq],
                "numerical_rank": ranks,
                "lattice_interval": _check_eigenvalues(eb, g_full, fbs[-1]),
                **_check_evidence(g_full),
            }
        )
        # B <= ess sup Phi_b / b on every integer set, so B growth alone decides nothing
        a_fall = a_seq[-1] / a_seq[0] if a_seq[0] > 0 else 0.0
        b_grow = b_seq[-1] / b_seq[0] if b_seq[0] > 0 else float("inf")
        note = "generic-set verdicts are windowed eigenvalue trends, not lattice theorems"
        if lattice == "exact frame sequence" and a_fall > 0.5:
            label = "exact frame sequence"
            note = "subset of an exact lattice family: a Riesz sequence within the lattice bounds"
        elif len(windows) < 3:
            label, note = "undetermined", "not enough nested windows for a trend verdict"
        elif a_fall <= 0.5 and b_grow <= 1.2:
            label = "upper bound only"
        elif a_fall >= 0.8 and b_grow <= 1.2:
            label = "exact frame sequence"
        else:
            label = "undetermined"
        a_val = a_seq[-1] if label == "exact frame sequence" else None
        b_val, rank = b_seq[-1], ranks[-1]
    return FrameReport(
        classification=label,
        A_est=a_val,
        B_est=b_val,
        numerical_rank=rank,
        evidence=evidence,
        b=float(b),
        index_kind=kind,
        grid_sizes=[ps.grid_size],
        windows=windows,
        notes=[note],
    )


def window_ladder(n, window):
    """Nested window sizes ``w, 2w, ..., w 2^WINDOW_DOUBLINGS`` for a set of ``n`` points.

    ``w = min(window, n)``; rungs larger than ``n`` or ``EIGENSOLVE_CAP``
    are dropped.  This is the one ladder behind every windowed trend.
    """
    w = min(window, n)
    return [w << k for k in range(WINDOW_DOUBLINGS + 1) if w << k <= min(n, EIGENSOLVE_CAP)]


def nested_window_bounds(profile, b, lam, sizes, ps=None):
    """Frame-bound estimates of the leading principal windows of ``lam`` of the given sizes.

    The Gram matrix of the largest window is built (and spot-checked
    against ``ps``) once; each smaller window is its leading principal
    submatrix.  Returns that Gram operator and one
    :class:`FrameBounds` per size, in the order of ``sizes``.
    """
    g = build_gram(profile, b, as_indices(lam)[: max(sizes)], ps=ps)
    return g, [frame_bound_estimates(g.principal(k)) for k in sizes]


def truncation_decay(profile, b, n_list, budgets=None):
    """Lower-bound estimates over the one-sided windows ``{1..N}``.

    Only meaningful for families that are frames but not exact over the full
    lattice: their one-sided truncations must lose the lower bound, and this
    function documents the decay.  Any other classification is refused.
    """
    budgets = budgets or Budgets()
    report = classify(profile, b, TranslationSet.integers(budgets.window), budgets)
    if report.classification != "frame sequence (non-exact)":
        raise ValueError(
            "truncation decay applies to non-exact frame sequences over the lattice; "
            f"this family classifies as {report.classification!r}"
        )
    sizes = sorted(int(n) for n in n_list)
    _, fbs = nested_window_bounds(profile, b, np.arange(1, sizes[-1] + 1, dtype=np.int64), sizes)
    return [
        {"N": n, "A_est": float(fb.A_est), "numerical_rank": fb.numerical_rank} for n, fb in zip(sizes, fbs)
    ]


def weighted_norm_identity_check(profile, b, lam, coeffs, ps=None):
    """Two routes to ``|sum_n c_n tau_{lam_n b} phi|^2``; returns their gap.

    The left side is the quadratic form of :func:`build_gram`, whose
    closed-form entries are spot-checked against the check grid that
    :func:`build_gram` chooses (``ps`` when it is fine enough, else a fresh
    grid).  The right side is the mean over that same grid of
    ``|f|^2 Phi_b / b`` with ``f(xi) = sum c_n e^{2 pi i lam_n xi}``,
    evaluated through the coefficient identity (exact for trigonometric
    degree below half the grid), so it touches only grid values of the
    periodization.  The points and their coefficients are sorted together
    by :func:`~frameseq.translation_sets.as_indices`.
    """
    lam, c = as_indices(lam, coeffs)
    if lam.dtype != np.int64:
        raise ValueError("the grid route needs integer indices")
    span = int(lam[-1] - lam[0])
    ps = _check_grid(profile, b, span, ps)
    lhs = float(np.real(np.conj(c) @ build_gram(profile, b, lam, ps=ps).matrix @ c))

    # the transform of a translate carries e^{-2 pi i}, so the trig sum is
    # f(xi) = sum c_n e^{-2 pi i lam_n xi}; its (i, j) cross term has grid
    # mean against Phi equal to conj(cm[lam_j - lam_i])
    diffs = lam[None, :] - lam[:, None]
    outer = np.outer(c, np.conj(c))
    cm = fourier_coeff(ps, np.arange(-span, span + 1))
    rhs = float(np.real(np.sum(outer * np.conj(cm[diffs + span])))) / b

    dev = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    return {"lhs": lhs, "rhs": rhs, "deviation": dev, "grid_size": ps.grid_size}
