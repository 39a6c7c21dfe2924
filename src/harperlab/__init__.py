"""harperlab: numerics for the extended Harper model and Jacobi cocycles."""

__version__ = "0.1.0"

from . import cocycle, contfrac, model, spectral
from .contfrac import (
    ContinuedFraction,
    ConstantBeta,
    SingleBurst,
    beta_exponent,
    dc_alpha_membership,
    dc_membership,
    expand,
    forge,
    golden,
    silver,
)
from .model import (
    CouplingTriple,
    OperatorSample,
    RegionTag,
    build_truncation,
    c_zeros,
    classify,
    duality,
    green_function,
)
from .cocycle import (
    degree,
    conjugation_residual,
    commutant_rigidity_check,
    lyapunov_formula,
    lyapunov_numeric,
    n_step,
    rotation_number,
    solve_cohomological,
    transfer,
)
from .spectral import (
    badness_scan,
    decay_fit,
    delta_exponent,
    duality_check,
    perturbation_experiment,
    regularity_test,
    truncated_spectrum,
)
