"""Named generator profiles and the sparse dyadic-block family.

The profile builders cover the two hand-made spacing-asymmetry examples
(a plateau tapering to zero, and a ramp paired with a carefully placed
plateau) plus the standard box, tent, and indicator shapes.  The dyadic
blocks machinery produces the sparse index set whose translate family has
an upper frame bound but no lower one: block waves concentrate on small
sets, the infimum spectrum is positive everywhere, yet the weighted norms
``w_n`` collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .periodization import InconsistencyError, PeriodizedSpectrum, _midpoints, check_grid_size, periodize_at
from .spectrum import FourierProfile, Piece
from .translation_sets import DyadicBlocks, TranslationSet, _check_alpha, density_exponent_fit

__all__ = [
    "indicator_profile",
    "box_profile",
    "tent_profile",
    "plateau_taper_profile",
    "ramp_plateau_profile",
    "DyadicBlocks",
    "BlockWave",
    "block_wave",
    "BlocksSpectrum",
    "infimum_spectrum",
    "verify_lower_collapse",
    "GalleryEntry",
    "gallery_profiles",
]

EPS_RESOLUTION = 2.0**-20


def indicator_profile(lo, hi):
    """Profile equal to 1 on [lo, hi) and 0 elsewhere."""
    if not hi > lo:
        raise ValueError(f"empty support [{lo}, {hi})")
    return FourierProfile(pieces=[Piece(float(lo), float(hi), const=1.0)])


def box_profile():
    return indicator_profile(0.0, 1.0)


def tent_profile():
    """Rise 0 to 1 on [0, 1/2], fall back to 0 on [1/2, 1]."""
    return FourierProfile(
        pieces=[
            Piece(0.0, 0.5, affine=(2.0, 0.0)),
            Piece(0.5, 1.0, affine=(-2.0, 2.0)),
        ]
    )


def plateau_taper_profile(a, b):
    """Constant 1 on [0, 1/a], affine down to 0 at 1/b, zero elsewhere.

    For spacing ``a`` the translates of each point of the circle meet the
    plateau, so the periodization stays bounded below; for the coarser
    spacing ``b`` the infimum collapses at the taper's foot.  Requires
    ``0 < b < a``.
    """
    a, b = float(a), float(b)
    if not (0.0 < b < a):
        raise ValueError(f"need 0 < b < a, got a={a}, b={b}")
    slope = a * b / (b - a)
    return FourierProfile(
        pieces=[
            Piece(0.0, 1.0 / a, const=1.0),
            Piece(1.0 / a, 1.0 / b, affine=(slope, -slope / b)),
        ]
    )


def ramp_plateau_profile(a, b):
    """Ramp ``xi`` on [0, 1/a] plus a unit plateau of width ``eps`` at 1/b.

    No ``a``-spacing translate of (0, eps) meets the plateau, so the
    periodization at spacing ``a`` collapses with the ramp while spacing
    ``b`` keeps a positive infimum off its zero set.  The translate
    ``(xi + n)/a``, xi in (0, eps), meets it exactly when
    ``-a eps < a/b - n < eps``; with ``r`` the fractional part of ``a/b``
    only ``n = floor(a/b)`` and ``n + 1`` can, so ``eps`` is the widest
    clear width ``min(r, (1 - r)/a)`` rounded down to a multiple of 2^-22.
    Requires ``0 < b < a`` with ``a/b`` finite and not an integer.  Returns
    ``(profile, eps)``.
    """
    a, b = float(a), float(b)
    if not (0.0 < b < a):
        raise ValueError(f"need 0 < b < a, got a={a}, b={b}")
    ratio = a / b
    if not math.isfinite(ratio):
        raise ValueError(f"need a finite a/b, got a={a}, b={b}")
    if abs(ratio - round(ratio)) <= 1e-9:
        raise ValueError(f"a/b = {ratio:g} is an integer; no plateau placement exists")
    r = ratio - math.floor(ratio)
    eps = math.floor(min(r, (1.0 - r) / a) * 2**22) / 2**22
    if eps < EPS_RESOLUTION:
        raise RuntimeError(
            f"no admissible plateau width above resolution {EPS_RESOLUTION:g} "
            f"for a={a}, b={b}"
        )
    return (
        FourierProfile(
            pieces=[
                Piece(0.0, 1.0 / a, affine=(1.0, 0.0)),
                Piece(1.0 / b, 1.0 / b + eps, const=1.0),
            ]
        ),
        eps,
    )


# ----------------------------------------------------------------------------
# dyadic blocks
# ----------------------------------------------------------------------------


@dataclass
class BlockWave:
    """Squared modulus of one unit-norm block wave on the midpoint grid."""

    m: int
    power: np.ndarray  # |f_n|^2 at the grid midpoints


def block_wave(alpha, n, grid_size):
    """Construct ``|f_n|^2`` for the block wave ``f_n`` on the midpoint grid.

    ``f_n = 2^((m-n)/2) sum_{k=1..K} e^{2 pi i (2^n + k 2^m) xi}`` over block
    ``n`` of ``DyadicBlocks(alpha, n)``, with ``K = 2^(n-m)``.  With
    ``theta = 2 pi 2^m xi`` the geometric sum is the unimodular phase
    ``e^{2 pi i 2^n xi + i (K+1) theta/2}`` times ``sin(K theta/2) /
    sin(theta/2)``, so ``|f_n|^2 = 2^(m-n) sin^2(K theta/2) / sin^2(theta/2)``;
    midpoints never hit the sine's zeros.  Every consumer reads only this
    modulus.  Its grid mean must equal 1 (midpoint sums of low-degree
    exponentials are exact); deviation beyond 1e-9 raises.
    """
    n = int(n)
    if n < 1:
        raise ValueError("block index must be >= 1")
    M = check_grid_size(grid_size)
    if M < 2 ** (n + 2):
        raise ValueError(f"grid {M} too coarse for block {n}; need >= {2 ** (n + 2)}")
    m = int(DyadicBlocks(alpha, n).m[-1])
    power = _wave_power(n, m, M, 0, M)
    _check_wave_norm(float(np.sum(power)), M)
    return BlockWave(m=m, power=power)


_CHUNK = 2**12  # grid points per chunk of the blocks construction


def _wave_power(n, m, M, j, k):
    """``|f_n|^2`` (:func:`block_wave`) at midpoints ``j`` to ``k - 1``; each value is computed on its own."""
    half = np.pi * (1 << m) * _midpoints(j, k, M)
    power = np.sin((1 << (n - m)) * half)
    power /= np.sin(half)
    power *= power
    power *= 2.0 ** (m - n)
    return power


def _check_wave_norm(total, M):
    """A block wave's grid sum ``total`` must average to its unit norm within 1e-9."""
    norm_dev = abs(total / M - 1.0)
    if norm_dev > 1e-9:
        raise InconsistencyError(f"block wave norm deviates by {norm_dev:.3e} on the grid")


def _concentration_threshold(n, m):
    """Level separating each block wave's plateau from its small-value set."""
    return 2.0 ** ((n - m - 0.5 * math.sqrt(n)) / 2.0)


@dataclass
class BlocksSpectrum:
    grid_size: int
    spectrum: PeriodizedSpectrum
    profile: FourierProfile
    rows: list  # per-n: flagged measure, excluded energy and weighted norm
    identity_deviation: float


def infimum_spectrum(alpha, n_max, grid_size):
    """Positive spectrum ``2^(-max flagged level)`` from the block waves.

    Grid points where ``|f_n|`` reaches the concentration threshold are
    flagged at level ``n``; the spectrum takes ``2^-n`` at the deepest
    flag (1 where never flagged), so it is positive everywhere while each
    ``f_n`` spends most of its energy where the spectrum is ``2^-n``.  The
    square root is emitted as a sampled profile whose own periodization at
    spacing 1 must reproduce the spectrum to 1e-12; a larger deviation
    raises.  The grid is walked once, in chunks of ``_CHUNK`` points with
    every level inside each chunk: the levels flag the chunk of the
    spectrum, and once the last has, each adds its weighted norm
    ``w_n = integral of |f_n|^2 Phi`` over the chunk to its running sums.
    The profile is checked chunk by chunk too, so the spectrum and the
    profile's samples are the only grid-sized arrays.
    """
    alpha = _check_alpha(alpha)
    n_max = int(n_max)
    M = check_grid_size(grid_size)
    if M < 2 ** (n_max + 2):
        raise ValueError(f"grid {M} too coarse for n_max={n_max}; need >= {2 ** (n_max + 2)}")
    levels = [(n, m, _concentration_threshold(n, m)) for n, m in enumerate(DyadicBlocks(alpha, n_max).m.tolist(), 1)]
    sums = np.zeros((n_max, 4))  # per level: sum of |f_n|^2, flagged points, energy off them, sum of |f_n|^2 Phi
    phi = np.ones(M)
    for j in range(0, M, _CHUNK):
        seg = phi[j : j + _CHUNK]
        powers = []
        for (n, m, thr), level_sums in zip(levels, sums):
            power = _wave_power(n, m, M, j, j + seg.size)
            mask = power >= thr * thr
            seg[mask] = 2.0**-n
            level_sums[:3] += np.sum(power), np.count_nonzero(mask), np.sum(power, where=~mask)
            powers.append(power)
        sums[:, 3] += [np.dot(power, seg) for power in powers]
    rows = []
    for (n, m, thr), (total, flagged, unflagged, weighted) in zip(levels, sums.tolist()):
        _check_wave_norm(total, M)
        rows.append(
            {
                "n": n,
                "m": m,
                "threshold": thr,
                "flagged_measure": flagged / M,
                "excluded_energy": unflagged / M,
                "w": weighted / M,
            }
        )
    if not np.all(phi > 0.0):
        raise InconsistencyError("spectrum hit zero on the grid")
    profile = FourierProfile(pieces=[Piece(0.0, 1.0, samples=np.sqrt(phi))])
    dev = 0.0
    for j in range(0, M, _CHUNK):
        check = periodize_at(profile, 1.0, _midpoints(j, min(j + _CHUNK, M), M))
        check -= phi[j : j + check.size]
        dev = max(dev, float(np.max(np.abs(check))))
    if dev > 1e-12:
        raise InconsistencyError(f"periodized profile deviates from the spectrum by {dev:.3e}")
    return BlocksSpectrum(
        grid_size=M,
        spectrum=PeriodizedSpectrum(b=1.0, grid_size=M, values=phi, truncation_range=1),
        profile=profile,
        rows=rows,
        identity_deviation=dev,
    )


def verify_lower_collapse(alpha, n_range, grid_size):
    """Weighted norms ``w_n = integral of |f_n|^2 Phi`` across a block range.

    The upper-half claim (density exponent at most ``1 - alpha`` plus
    slack 0.1) is recorded with its fit; the lower-half claim requires the
    weighted norms to at least halve from the bottom of the range to the
    top, and a failure raises.  Both together give the conclusion: upper
    frame bound present, lower bound failing.  Each ``w_n`` is read from
    the rows of :func:`infimum_spectrum`, which builds ``Phi``.
    """
    n_list = sorted(int(n) for n in n_range)
    if len(n_list) < 2:
        raise ValueError("need at least two block indices for a trend")
    if n_list[0] < 1:
        raise ValueError("block index must be >= 1")
    built = infimum_spectrum(alpha, n_list[-1], grid_size)
    rows = [{"n": n, "w": built.rows[n - 1]["w"]} for n in n_list]
    w_bottom, w_top = rows[0]["w"], rows[-1]["w"]
    if not w_top < 0.5 * w_bottom:
        raise RuntimeError(
            f"weighted norms failed to halve: w_{n_list[0]} = {w_bottom:.6g}, "
            f"w_{n_list[-1]} = {w_top:.6g}"
        )
    ts = TranslationSet.dyadic_blocks(alpha, n_list[-1])
    exponent, fit_windows = density_exponent_fit(ts)
    bound = 1.0 - alpha + 0.1
    density_ok = exponent <= bound
    if density_ok:
        conclusion = (
            "upper frame bound present (density growth in check), lower bound "
            "failing (weighted norms collapse): not a frame sequence"
        )
    else:
        conclusion = (
            f"inconclusive: density exponent fit {exponent:.3f} exceeded {bound:.3f}"
        )
    return {
        "alpha": float(alpha),
        "grid_size": built.grid_size,
        "rows": rows,
        "w_ratio": w_top / w_bottom,
        "density_exponent": exponent,
        "density_bound": bound,
        "density_ok": density_ok,
        "fit_windows": fit_windows,
        "conclusion": conclusion,
    }


# ----------------------------------------------------------------------------
# gallery
# ----------------------------------------------------------------------------


@dataclass
class GalleryEntry:
    name: str
    profile: FourierProfile
    cases: tuple  # (spacing b, index set, expected classification)


def gallery_profiles():
    """The standing example table: profile, spacings, expected verdicts.

    The dyadic-blocks entry is built at ``n_max = 10`` on a 2^14-point grid.
    """
    z = TranslationSet.integers(512)
    entries = [
        GalleryEntry("box", box_profile(), ((1.0, z, "orthonormal"),)),
        GalleryEntry(
            "tent",
            tent_profile(),
            ((1.0, z, "not a frame sequence"), (2.0, z, "exact frame sequence")),
        ),
        GalleryEntry(
            "plateau-taper",
            plateau_taper_profile(2.0, 1.0),
            ((1.0, z, "not a frame sequence"), (2.0, z, "exact frame sequence")),
        ),
        GalleryEntry(
            "ramp-plateau",
            ramp_plateau_profile(3.0, 2.0)[0],
            ((2.0, z, "frame sequence (non-exact)"), (3.0, z, "not a frame sequence")),
        ),
        GalleryEntry(
            "half-indicator",
            indicator_profile(0.0, 0.5),
            ((1.0, z, "frame sequence (non-exact)"),),
        ),
    ]
    built = infimum_spectrum(0.5, 10, 2**14)
    ts = TranslationSet.dyadic_blocks(0.5, 10)
    entries.append(GalleryEntry("dyadic-blocks", built.profile, ((1.0, ts, "upper bound only"),)))
    return entries
