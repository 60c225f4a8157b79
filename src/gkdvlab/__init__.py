"""gkdvlab: a pseudospectral laboratory for the supercritical generalized
KdV equation psi_t + psi_xxx + (|psi|^{p-1} psi)_x = 0 with real p >= 5.

Frequency-localized analysis at base 1.01, variation-norm machinery, scaling
law verification for the dispersive estimates, and a contraction-mapping
solver with a direct pseudospectral oracle.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .grid import (
    NORMALIZATION_TAG,
    Field,
    GridError,
    GridMismatchError,
    GridSpec,
    MultiplierSymmetryError,
    NonFiniteFieldError,
    Path,
    apply_multiplier,
    derivative,
    l2_norm,
    mixed_norm,
)
from .airy import duhamel, evolve, free_solution
from .estimates import (
    EstimateReport,
    TrialEnsemble,
    l6_smallness_report,
    verify_bernstein_linfty,
    verify_bilinear,
    verify_interpolated,
    verify_multilinear,
    verify_strichartz,
)
from .littlewood_paley import LPScale, project, scale
from .nonlinearity import (
    PowerLaw,
    evaluate_power,
    quintic_expansion_check,
    telescoping_check,
)
from .norms import (
    CriticalIndex,
    NormReport,
    besov_norm,
    besov_report,
    critical_index,
    rescale,
    sobolev_report,
    xs_norm,
    xs_report,
)
from .picard import (
    BlowUpError,
    IterationTrace,
    PicardConfig,
    PicardDivergenceError,
    amplitude_threshold,
    direct_solve,
    lipschitz_probe,
    solve_picard,
)
from .variation import (
    SampledPath,
    sampled_from_path,
    v2_kdv_norm,
    vp_norm,
)

# the public names are exactly the ones imported above
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
__all__.append("__version__")
