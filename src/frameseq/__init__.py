"""Frame-property analysis of translate families on the line.

Two independent computational pathways decide whether the translates of a
compactly supported frequency profile form a frame sequence, an exact
(Riesz) one, or an orthonormal system: essential bounds of the periodized
squared profile, and eigenvalue trends of finite Gram windows.  The
package keeps the routes separate and cross-checks them wherever they
overlap.
"""

from .constructions import (
    DyadicBlocks,
    block_wave,
    box_profile,
    gallery_profiles,
    indicator_profile,
    infimum_spectrum,
    plateau_taper_profile,
    ramp_plateau_profile,
    tent_profile,
    verify_lower_collapse,
)
from .gram import (
    Budgets,
    FrameBounds,
    FrameReport,
    GramOperator,
    InconsistencyError,
    build_gram,
    classify,
    frame_bound_estimates,
    weighted_norm_identity_check,
)
from .periodization import (
    PeriodizedSpectrum,
    ResourceLimitError,
    dilation_identity_deviation,
    exact_bounds,
    fourier_coeff,
    periodize,
    periodize_at,
)
from .spectrum import (
    FourierProfile,
    Piece,
    TimeEnvelope,
    autocorrelation,
    autocorrelations,
)
from .translation_sets import (
    TranslationSet,
    density,
    density_exponent_fit,
    g_equivalence_check,
    g_function,
    interval_energy_test,
    upper_bound_necessary,
    upper_bound_sufficient,
)
from .zeroset_hausdorff import (
    coefficient_sum_bound_check,
    hausdorff_sublevel,
    interval_mass_bound_check,
    interval_mass_scaling,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Budgets",
    "DyadicBlocks",
    "FourierProfile",
    "FrameBounds",
    "FrameReport",
    "GramOperator",
    "InconsistencyError",
    "PeriodizedSpectrum",
    "Piece",
    "ResourceLimitError",
    "TimeEnvelope",
    "TranslationSet",
    "autocorrelation",
    "autocorrelations",
    "block_wave",
    "box_profile",
    "build_gram",
    "classify",
    "coefficient_sum_bound_check",
    "density",
    "density_exponent_fit",
    "dilation_identity_deviation",
    "exact_bounds",
    "fourier_coeff",
    "frame_bound_estimates",
    "g_equivalence_check",
    "g_function",
    "gallery_profiles",
    "hausdorff_sublevel",
    "indicator_profile",
    "infimum_spectrum",
    "interval_energy_test",
    "interval_mass_bound_check",
    "interval_mass_scaling",
    "periodize",
    "periodize_at",
    "plateau_taper_profile",
    "ramp_plateau_profile",
    "tent_profile",
    "upper_bound_necessary",
    "upper_bound_sufficient",
    "verify_lower_collapse",
    "weighted_norm_identity_check",
]
