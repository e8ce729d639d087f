"""Bergman densities of weighted Fock spaces and their Coulomb-gas limits.

The package evaluates the density R0 of the microscopic model
V0 = Q0 - 2c log|z| (Q0 positive definite homogeneous of degree 2k,
c > -1), its finite-n determinantal approximants, the equilibrium
quantities that set the microscopic scale, and a Metropolis sampler for
cross-validation.  The command line entry point is ``focklab``.
"""

from .errors import (
    ConfigError,
    DivergenceError,
    FitError,
    FocklabError,
    IllConditionedError,
    NotPositiveDefiniteError,
    NumericalError,
)
from .potentials import (
    CanonicalDecomposition,
    HomogeneousHermitianPoly,
    MacroscopicPotential,
    MicroscopicPotential,
    Spectator,
    canonical_decompose,
    detect_k,
    kappa_shift,
    load_potential_config,
    normalize_potential,
)
from .radial_bergman import (
    DecayReport,
    bergman_function_r0,
    decay_report,
    delta_q0,
    disk_mass,
    moments,
    origin_coefficient,
)
from .general_bergman import (
    MomentMatrix,
    TruncatedKernel,
    bergman_density,
    moment_matrix,
    truncated_kernel,
)
from .equilibrium import (
    AsymptoticReport,
    droplet_radius,
    microscale_asymptotic_check,
    microscopic_scale,
    modulus_tau0,
)
from .finite_kernel import (
    ConvergenceReport,
    FiniteKernel,
    bin_averaged_intensity,
    convergence_report,
    finite_moments,
    intensity,
    mass_integral,
    rescaled_intensity,
    truncated_series_r0,
)
from .coulomb_mc import (
    EnsembleConfig,
    IntensityHistogram,
    McmcResult,
    RescaledHistogram,
    delta_energy,
    energy,
    rescaled_histogram,
    run_mcmc,
    sample_radial_exact,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FocklabError", "ConfigError", "NumericalError", "NotPositiveDefiniteError",
    "IllConditionedError", "DivergenceError", "FitError",
    # potentials
    "HomogeneousHermitianPoly", "MicroscopicPotential", "Spectator",
    "MacroscopicPotential", "CanonicalDecomposition", "detect_k",
    "canonical_decompose", "normalize_potential", "kappa_shift",
    "load_potential_config",
    # radial closed forms
    "moments", "bergman_function_r0", "delta_q0",
    "origin_coefficient", "disk_mass", "DecayReport", "decay_report",
    # general homogeneous weights
    "MomentMatrix", "TruncatedKernel", "moment_matrix", "truncated_kernel",
    "bergman_density",
    # equilibrium
    "droplet_radius", "modulus_tau0", "microscopic_scale",
    "AsymptoticReport", "microscale_asymptotic_check",
    # finite-n kernels
    "FiniteKernel", "finite_moments", "intensity", "rescaled_intensity",
    "truncated_series_r0", "mass_integral", "bin_averaged_intensity",
    "ConvergenceReport", "convergence_report",
    # Monte Carlo
    "EnsembleConfig", "IntensityHistogram", "RescaledHistogram", "McmcResult",
    "energy", "delta_energy", "run_mcmc", "sample_radial_exact",
    "rescaled_histogram",
]
