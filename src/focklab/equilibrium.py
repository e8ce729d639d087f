"""Equilibrium measure, droplet, and microscopic scale for radial potentials.

With area measure dA = dxdy/pi and Delta = d/dz d/dzbar, the equilibrium
measure of a radial potential Q with r Q'(r) increasing is Delta Q
restricted to the disk droplet |z| <= R, where R Q'(R)/2 = 1 fixes unit
mass.  The microscopic scale r_n solves n r Q'(r)/2 = 1 + c: the origin
charge -2(c/n) log|z| moves a point mass -c onto the right-hand side, the
unique reading that reproduces r_n = tau0 (1+c)^{1/2k} n^{-1/2k} exactly
for homogeneous potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .potentials import (
    HomogeneousHermitianPoly,
    MacroscopicPotential,
    MicroscopicPotential,
    canonical_decompose,
    detect_k,
)

__all__ = [
    "EquilibriumData",
    "droplet_radius",
    "modulus_tau0",
    "microscopic_scale",
    "AsymptoticReport",
    "microscale_asymptotic_check",
    "equilibrium_data",
]

_BISECT_MAX = 200
_BISECT_REL = 1e-14


def _bisect_increasing(f, lo: float, hi: float) -> float:
    """Root of increasing f with f(lo) < 0 < f(hi), to ~1e-14 relative."""
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_REL * hi:
            break
    return 0.5 * (lo + hi)


def _check_monotone_mass(Q: MacroscopicPotential, hi: float) -> None:
    r = np.geomspace(hi * 1e-6, hi, 256)
    mass = r * Q.dq_dr(r)
    if np.any(np.diff(mass) < -1e-12 * np.abs(mass[1:])):
        raise ConfigError("r Q'(r) is not increasing: droplet is not a disk")


def droplet_radius(Q: MacroscopicPotential) -> float:
    """Radius R of the disk droplet: root of R Q'(R)/2 = 1."""
    Q._require_radial()
    f = lambda r: 0.5 * r * Q.dq_dr(r) - 1.0
    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise NumericalError("no droplet radius below 1e9: growth condition violated")
    _check_monotone_mass(Q, hi)
    return _bisect_increasing(f, 0.0, hi)


def modulus_tau0(q0: HomogeneousHermitianPoly | MicroscopicPotential, k: int | None = None) -> float:
    """tau0 with tau0^{-2k} = (1/2pi k) integral of Delta Q0 over the unit circle."""
    if isinstance(q0, MicroscopicPotential):
        k = q0.k
        q0 = q0.q0
    if k is None:
        if q0.degree % 2 != 0 or q0.degree == 0:
            raise ConfigError("cannot infer k from the polynomial degree")
        k = q0.degree // 2
    theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    mean = float(np.mean(q0.laplacian().angular_profile(theta)))
    if not mean > 0:
        raise ConfigError("Delta Q0 has nonpositive circle average")
    return float((mean / k) ** (-1.0 / (2 * k)))


def microscopic_scale(Q: MacroscopicPotential, c: float, n: int) -> float:
    """r_n solving n r Q'(r)/2 = 1 + c, bisected inside the droplet."""
    if not c > -1:
        raise ConfigError(f"c must be > -1, got {c}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    R = droplet_radius(Q)
    target = (1.0 + c) / n
    if 0.5 * R * Q.dq_dr(R) < target:
        raise ConfigError(f"n={n} too small: microscopic scale would leave the droplet")
    return _bisect_increasing(lambda r: 0.5 * r * Q.dq_dr(r) - target, 0.0, R)


@dataclass(frozen=True)
class AsymptoticReport:
    """Deviation e_n of r_n from the homogeneous prediction, with fitted C."""

    k: int
    c: float
    tau0: float
    n: np.ndarray
    rn: np.ndarray
    en: np.ndarray
    C: float

    @property
    def bound_ok(self) -> bool:
        return bool(np.all(np.abs(self.en) <= self.C * self.n ** (-1.0 / (2 * self.k)) + 1e-15))


def microscale_asymptotic_check(Q: MacroscopicPotential, c: float, n_list) -> AsymptoticReport:
    """Check r_n = tau0 (1+c)^{1/2k} n^{-1/2k} (1 + O(n^{-1/2k})) on n_list."""
    n_arr = np.asarray(sorted(int(n) for n in n_list), dtype=int)
    if n_arr.size == 0:
        raise ConfigError("n_list must be nonempty")
    k = detect_k(Q)
    tau0 = modulus_tau0(canonical_decompose(Q, k).q0)
    rn = np.array([microscopic_scale(Q, c, int(n)) for n in n_arr])
    pred = tau0 * (1.0 + c) ** (1.0 / (2 * k)) * n_arr ** (-1.0 / (2 * k))
    en = rn / pred - 1.0
    C = float(np.max(np.abs(en) * n_arr ** (1.0 / (2 * k))))
    return AsymptoticReport(k=k, c=c, tau0=tau0, n=n_arr, rn=rn, en=en, C=C)


@dataclass(frozen=True)
class EquilibriumData:
    """Droplet radius and modulus tau0 of one potential with origin charge c."""

    potential: MacroscopicPotential
    c: float
    k: int
    droplet_radius: float
    tau0: float


def equilibrium_data(Q: MacroscopicPotential, c: float | None = None) -> EquilibriumData:
    if c is None:
        c = Q.c
    k = detect_k(Q)
    return EquilibriumData(
        potential=Q,
        c=c,
        k=k,
        droplet_radius=droplet_radius(Q),
        tau0=modulus_tau0(canonical_decompose(Q, k).q0),
    )
