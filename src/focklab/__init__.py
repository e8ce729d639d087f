"""Bergman densities of weighted Fock spaces and their Coulomb-gas limits.

The package evaluates the density R0 of the microscopic model
V0 = Q0 - 2c log|z| (Q0 positive definite homogeneous of degree 2k,
c > -1), its finite-n determinantal approximants, the equilibrium
quantities that set the microscopic scale, and a Metropolis sampler for
cross-validation.  The command line entry point is ``focklab``.

``import focklab`` loads the errors and the potential types only; every
other public name imports its module the first time it is used.
"""

from importlib import import_module

from . import errors, potentials
from .errors import *
from .potentials import *

# public name -> the module that defines it, imported on first use
_LAZY = {
    name: module
    for module, names in {
        "radial_bergman": ("DecayReport", "bergman_function_r0", "decay_report", "delta_q0", "disk_mass", "moments"),
        "general_bergman": ("MomentMatrix", "TruncatedKernel", "bergman_density", "moment_matrix",
                            "truncated_kernel"),
        "equilibrium": ("AsymptoticReport", "droplet_radius", "microscale_asymptotic_check", "microscopic_scale"),
        "finite_kernel": ("ConvergenceReport", "FiniteKernel", "bin_averaged_intensity", "convergence_report",
                          "finite_moments", "intensity", "mass_integral", "rescaled_intensity",
                          "truncated_series_r0"),
        "coulomb_mc": ("EnsembleConfig", "IntensityHistogram", "McmcResult", "run_mcmc", "sample_radial_exact"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *potentials.__all__, *_LAZY]
