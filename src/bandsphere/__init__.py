"""Band-limited Gaussian isotropic random fields on the 2-sphere.

Simulation of the band-limited ensemble, exact and asymptotic covariance
evaluation, excursion-area and Wiener-chaos functionals, and Monte Carlo
experiments for the high-frequency variance scaling and CLT.
"""

from .chaos import (
    ChaosProjection,
    ExcursionResult,
    chaos_projection,
    chaos_variance,
    excursion_area,
    h2_exact_from_coeffs,
    h2_sample_direct,
    h2_variance_formula,
)
from .covariance import (
    CovarianceProfile,
    gamma_cd,
    gamma_exact,
    gamma_hilb,
    gamma_lemma1,
    profile,
    psi_to_theta,
    theta_to_psi,
)
from .experiments import (
    ChaosVariancePrediction,
    ExperimentConfig,
    ExperimentResult,
    SweepRow,
    chaos_dominance_report,
    chaos_variance_prediction,
    clt_test,
    dof_scaling_exponent,
    fit_scaling_exponent,
    run_variance_sweep,
)
from .field import (
    FieldSample,
    FieldSpec,
    HarmonicCoefficients,
    full_band_spec,
    make_spec,
    replicate_rng,
    sample_coefficients,
    single_ell_spec,
    synthesize,
)
from .grid import SphereGrid, build_grid, integrate
from .specfun import (
    assoc_legendre_normalized,
    bessel_j1,
    gaussian_cdf,
    gaussian_pdf,
    hermite_all,
    jacobi_p10,
    jq_coefficient,
    legendre_all,
)

__version__ = "0.1.0"
