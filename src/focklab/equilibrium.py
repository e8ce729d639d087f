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

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .potentials import MacroscopicPotential, _check_int, _check_n_list, canonical_decompose

__all__ = [
    "droplet_radius",
    "microscopic_scale",
    "AsymptoticReport",
    "microscale_asymptotic_check",
]

_T_REACH = 50.0  # roots are sought in e^-50 < r < e^50
_T_TOL = 1e-9    # an element stops after a Newton step in ln r this small, which leaves an error of order its square
_LN_MASS_GRID = np.linspace(np.log(1e-6), 0.0, 256)  # where the droplet's mass must increase, in ln(r/R)


def _mass_terms(Q: MacroscopicPotential) -> tuple[np.ndarray, np.ndarray]:
    """Columns of rates 2j and weights j q_j: the mass of a radial Q is M = r Q'(r)/2 = sum j q_j e^{2jt}, t = ln r."""
    Q._require_radial()
    j2 = 2.0 * np.array(list(Q.radial_coeffs), dtype=float)[:, None]
    return j2, 0.5 * j2 * np.array(list(Q.radial_coeffs.values()), dtype=float)[:, None]


def _mass(terms: tuple[np.ndarray, np.ndarray], t: np.ndarray, slope: bool = True):
    """M on a 1-d array of t = ln r, and unless slope is False dM/dt = 2 r^2 Delta Q, from one exp of the block of
    terms x t, each summed over the terms in order.  Call under np.errstate(over="ignore", invalid="ignore")."""
    j2, w = terms
    e = w * np.exp(j2 * t)
    return (e.sum(axis=0), (e * j2).sum(axis=0)) if slope else e.sum(axis=0)


def _ln_mass_roots(Q: MacroscopicPotential, m):
    """ln r solving r Q'(r)/2 = m, elementwise on an array of masses m.

    Newton on ln(M/m) in t = ln r (_mass) starts from the least root of one
    term, an upper bound from which the convex ln M converges when every
    q_j > 0.  Every evaluation narrows a bracket from t = +-50, and a step
    that leaves it or does not halve the last one bisects: Delta Q may
    vanish (r^2 - 0.6 r^4 + 0.16 r^6 at r^2 = 1/1.2).  Each element stops
    on its own step, so a scalar call gives the bits of its element in an
    array call.
    """
    j2, w = terms = _mass_terms(Q)
    shape, m = np.shape(m), np.asarray(m, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ends = _mass(terms, np.array([-_T_REACH, _T_REACH]), slope=False)
        if not np.all((ends[0] < m) & (m < ends[1])):
            raise NumericalError("a root of r Q'(r)/2 = m lies outside e^-50 < r < e^50")
        t = np.maximum(np.min(np.log(m / w) / j2, axis=0, where=w > 0, initial=_T_REACH), -_T_REACH)
        lo, hi = np.full(m.shape, -_T_REACH), np.full(m.shape, _T_REACH)
        last, active = hi - lo, np.ones(m.shape, dtype=bool)
        # bisections halve the bracket and Newton steps halve each other, so the loop ends
        while active.any():
            M, dM = _mass(terms, t)
            below = M < m
            lo, hi = np.where(below, t, lo), np.where(below, hi, t)
            step = np.log(m / M) * M / dM
            size, new = np.abs(step), t + step
            done = size <= _T_TOL
            new = np.where(done | ((new > lo) & (new < hi) & (size < 0.5 * last)), new, 0.5 * (lo + hi))
            last, t = np.abs(new - t), np.where(active, new, t)
            active &= ~(done | (hi - lo <= _T_TOL))
    return t.reshape(shape)


def _check_monotone_mass(Q: MacroscopicPotential, t_hi: float) -> None:
    """Refuse a Q whose mass M = r Q'(r)/2 falls anywhere on the grid below r = e^t_hi."""
    mass = _mass(_mass_terms(Q), t_hi + _LN_MASS_GRID, slope=False)
    if np.any(np.diff(mass) < -1e-12 * np.abs(mass[1:])):
        raise ConfigError("r Q'(r) is not increasing: droplet is not a disk")


def droplet_radius(Q: MacroscopicPotential) -> float:
    """Radius R of the disk droplet: root of R Q'(R)/2 = 1."""
    t = float(_ln_mass_roots(Q, 1.0))
    _check_monotone_mass(Q, t)
    return float(np.exp(t))


def microscopic_scale(Q: MacroscopicPotential, c: float, n):
    """r_n solving n r Q'(r)/2 = 1 + c, c = Q.c, inside the droplet; n an integer, or an array of them elementwise."""
    Q._check_charge(c)
    n_arr = _check_int(n, "n", 1)
    mass = (1.0 + Q.c) / n_arr
    if np.any(mass > 1.0):
        raise ConfigError(f"n={n} too small: microscopic scale would leave the droplet")
    # the droplet, mass 1, rides along for the monotone-mass check
    t = _ln_mass_roots(Q, np.append(1.0, mass))
    _check_monotone_mass(Q, t[0])
    r = np.exp(t[1:])
    return float(r[0]) if np.ndim(n_arr) == 0 else r.reshape(n_arr.shape)


class AsymptoticReport(NamedTuple):
    """Deviation e_n of r_n from the homogeneous prediction along ascending n, with fitted C = max |e_n| n^{1/2k}."""

    k: int
    c: float
    tau0: float
    n: np.ndarray
    rn: np.ndarray
    en: np.ndarray
    C: float

    @property
    def bound_ok(self) -> bool:
        """The law |e_n| <= C0 n^{-1/2k}, with C0 = |e_n0| n0^{1/2k} at the smallest n0, within 1e-15 on every n."""
        e = np.abs(self.en)
        return bool(np.all(e <= e[0] * (self.n[0] / self.n) ** (1.0 / (2 * self.k)) + 1e-15))


def microscale_asymptotic_check(Q: MacroscopicPotential, c: float, n_list) -> AsymptoticReport:
    """Check r_n = tau0 (1+c)^{1/2k} n^{-1/2k} (1 + O(n^{-1/2k})) along n_list, sorted (_check_n_list), at c = Q.c."""
    Q._check_charge(c)
    n_arr = np.sort(_check_n_list(n_list, "n_list"))
    p = canonical_decompose(Q).q0
    k = p.k
    tau0 = (k * p.amplitude) ** (-1.0 / (2 * k))  # the circle mean of Delta Q0 is k^2 a_kk, and a_kk > 0
    rn = microscopic_scale(Q, Q.c, n_arr)
    pred = tau0 * (1.0 + Q.c) ** (1.0 / (2 * k)) * n_arr ** (-1.0 / (2 * k))
    en = rn / pred - 1.0
    C = float(np.max(np.abs(en) * n_arr ** (1.0 / (2 * k))))
    return AsymptoticReport(k=k, c=Q.c, tau0=tau0, n=n_arr, rn=rn, en=en, C=C)

