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
    "droplet_radius",
    "modulus_tau0",
    "microscopic_scale",
    "AsymptoticReport",
    "microscale_asymptotic_check",
]

_T_REACH = 50.0  # roots are sought in e^-50 < r < e^50
_T_TOL = 1e-9    # an element stops after a Newton step in ln r this small, which leaves an error of order its square
_MASS_GRID = np.geomspace(1e-6, 1.0, 256)  # where the droplet's mass must increase, in units of R


def _ln_mass_roots(Q: MacroscopicPotential, m):
    """ln r solving r Q'(r)/2 = m, elementwise on an array of masses m.

    In t = ln r the mass is M = sum j q_j e^{2jt}, with M' = 2 r^2 Delta Q,
    and Newton on ln(M/m) starts from the least root of one term, an upper
    bound from which the convex ln M converges when every q_j > 0.  Every
    evaluation narrows a bracket from t = +-50, and a step that leaves it or
    does not halve the last one bisects: Delta Q may vanish (r^2 - 0.6 r^4 +
    0.16 r^6 at r^2 = 1/1.2).  Each element stops on its own step, so a
    scalar call gives the bits of its element in an array call.
    """
    Q._require_radial()
    j2 = 2.0 * np.array(list(Q.radial_coeffs), dtype=float)
    w = 0.5 * j2 * np.array(list(Q.radial_coeffs.values()), dtype=float)
    m = np.asarray(m, dtype=float)

    def mass(t):
        # one exp of the (targets x terms) block gives M and M'
        e = w * np.exp(t[..., None] * j2)
        return e.sum(axis=-1), (e * j2).sum(axis=-1)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ends = mass(np.array([-_T_REACH, _T_REACH]))[0]
        if not np.all((ends[0] < m) & (m < ends[1])):
            raise NumericalError("a root of r Q'(r)/2 = m lies outside e^-50 < r < e^50")
        t = np.maximum(np.min(np.log(m[..., None] / w) / j2, axis=-1, where=w > 0, initial=_T_REACH), -_T_REACH)
        lo, hi = np.full(m.shape, -_T_REACH), np.full(m.shape, _T_REACH)
        last, active = hi - lo, np.ones(m.shape, dtype=bool)
        # bisections halve the bracket and Newton steps halve each other, so the loop ends
        while active.any():
            M, dM = mass(t)
            below = M < m
            lo, hi = np.where(below, t, lo), np.where(below, hi, t)
            step = np.log(m / M) * M / dM
            size, new = np.abs(step), t + step
            done = size <= _T_TOL
            new = np.where(done | ((new > lo) & (new < hi) & (size < 0.5 * last)), new, 0.5 * (lo + hi))
            last, t = np.abs(new - t), np.where(active, new, t)
            active &= ~(done | (hi - lo <= _T_TOL))
    return t


def _check_monotone_mass(Q: MacroscopicPotential, hi: float) -> None:
    r = hi * _MASS_GRID
    mass = r * Q.dq_dr(r)
    if np.any(np.diff(mass) < -1e-12 * np.abs(mass[1:])):
        raise ConfigError("r Q'(r) is not increasing: droplet is not a disk")


def droplet_radius(Q: MacroscopicPotential) -> float:
    """Radius R of the disk droplet: root of R Q'(R)/2 = 1."""
    R = float(np.exp(_ln_mass_roots(Q, 1.0)))
    _check_monotone_mass(Q, R)
    return R


def modulus_tau0(q0: HomogeneousHermitianPoly | MicroscopicPotential) -> float:
    """tau0 = (k a_kk)^{-1/2k}.

    tau0^{-2k} is (1/k) times the mean of Delta Q0 over the unit circle,
    and that mean is k^2 a_kk: the other terms of Delta Q0 carry
    e^{i m theta} with m != 0.
    """
    if isinstance(q0, MicroscopicPotential):
        q0 = q0.q0
    if q0.degree == 0:
        raise ConfigError("cannot infer k from the polynomial degree")
    k = q0.degree // 2
    a_kk = float(np.real(q0.coeffs.get((k, k), 0.0)))
    if not a_kk > 0:
        raise ConfigError("Delta Q0 has nonpositive circle average")
    return float((k * a_kk) ** (-1.0 / (2 * k)))


def microscopic_scale(Q: MacroscopicPotential, c: float, n):
    """r_n solving n r Q'(r)/2 = 1 + c inside the droplet; n an integer, or an array of them elementwise."""
    if not c > -1:
        raise ConfigError(f"c must be > -1, got {c}")
    n_arr = np.asarray(n)
    if np.any(n_arr < 1):
        raise ConfigError(f"n must be >= 1, got {n}")
    mass = (1.0 + c) / n_arr
    if np.any(mass > 1.0):
        raise ConfigError(f"n={n} too small: microscopic scale would leave the droplet")
    # the droplet, mass 1, rides along for the monotone-mass check
    r = np.exp(_ln_mass_roots(Q, np.append(1.0, mass)))
    _check_monotone_mass(Q, r[0])
    return float(r[1]) if n_arr.ndim == 0 else r[1:].reshape(n_arr.shape)


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
    rn = microscopic_scale(Q, c, n_arr)
    pred = tau0 * (1.0 + c) ** (1.0 / (2 * k)) * n_arr ** (-1.0 / (2 * k))
    en = rn / pred - 1.0
    C = float(np.max(np.abs(en) * n_arr ** (1.0 / (2 * k))))
    return AsymptoticReport(k=k, c=c, tau0=tau0, n=n_arr, rn=rn, en=en, C=C)

