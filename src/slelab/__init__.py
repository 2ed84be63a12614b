"""Whole-plane SLE laboratory.

Monte Carlo simulation of the reverse radial Loewner flow, closed-form
mixed moments on the integrability parabola, logarithmic coefficient
statistics, the exact four-region generalized integral-means spectrum
with its phase diagram, and Cauchy-integral residual verification of
every closed form the package relies on.
"""

from .flow import (
    ConfigError,
    DomainError,
    DrivingPath,
    SimConfig,
    SingularityError,
    WholePlaneSample,
    constant_driver,
    evolve,
    refine_driver,
    sample_driver,
    sample_ensemble,
)
from .moments import (
    LogCoeffStats,
    MeansScan,
    MomentEstimate,
    circle_points,
    closed_moduli,
    closed_one_point,
    closed_two_point,
    estimate_moduli,
    estimate_one_point,
    estimate_two_point,
    extract_log_coeffs,
    integral_means_scan,
    log_coeff_moments,
    mfold_identity_check,
    parabola_gamma,
    parabola_gamma_from_pq,
    parabola_point,
    stationarity_diagnostic,
)
from .spectrum import (
    SpecialPoints,
    SpectrumPoint,
    beta_0,
    beta_1,
    beta_lin,
    beta_tip,
    cartesian_residual,
    classify,
    classify_mfold,
    curve_eval,
    feng_mcgregor_domain,
    koebe_limit_partition,
    lower_boundary_q,
    mfold_map,
    mfold_map_inv,
    quartic_asymptotes,
    quartic_hyperbola_residual,
    special_points,
    universal_B,
    universal_partition,
    xy_forward,
    xy_inverse,
    xy_spectra,
)
from .residuals import (
    abc_check,
    beta_fn,
    duality_check,
    moduli_residual,
    ode_residual,
    pde_residual,
    run_all_checks,
    seed_systems,
)

__version__ = "0.1.0"
