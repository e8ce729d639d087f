"""Finite-n reproducing kernels for radial ensembles and the microscopic limit.

The n-point determinantal ensemble with weight e^{-n V_n},
V_n = Q - 2(c/n) log|z|, has one-point intensity
bR_n(z) = sum_{j<n} |z|^{2j+2c} e^{-nQ(|z|)} / m_j^(n) with monomial norms
m_j^(n) = 2 int r^{2j+2c+1} e^{-nQ(r)} dr.  Rescaling by the microscopic
radius r_n gives R_n(z) = r_n^2 bR_n(r_n z), which increases to the
closed-form density R0 of radial_bergman as n grows.  Spectator charges
break the monomial orthogonality and are out of scope here (the Monte
Carlo module covers them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp

from .errors import ConfigError, DivergenceError, NumericalError
from .potentials import MacroscopicPotential, canonical_decompose, detect_k, normalize_potential
from .radial_bergman import bergman_function_r0, moments
from .equilibrium import droplet_radius, microscopic_scale

__all__ = [
    "FiniteKernel",
    "finite_moments",
    "intensity",
    "rescaled_intensity",
    "truncated_series_r0",
    "mass_integral",
    "bin_averaged_intensity",
    "ConvergenceReport",
    "convergence_report",
]

_QUAD_KW = dict(epsabs=1e-15, epsrel=1e-13, limit=300)


def _expand_root(f, lo: float, description: str) -> float:
    """Bracket and bisect the root of increasing f starting from lo."""
    hi = max(lo, 1.0)
    it = 0
    while f(hi) < 0.0:
        hi *= 2.0
        it += 1
        if it > 200:
            raise NumericalError(f"could not bracket {description}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def _log_norm(Q: MacroscopicPotential, c: float, n: int, j: int) -> float:
    """ln m_j^(n), m_j^(n) = 2 int_0^inf r^{2j+2c+1} e^{-nQ(r)} dr.

    Piecewise scheme sized to the integrand: an exact power-flattening
    substitution u = (r/r1)^{2j+2c+2} below the weight scale r1 (where
    nQ = 1), a mode-normalized direct integrand between r1 and the mode,
    and a normalized decaying tail above.  Robust for 2j+2c+1 of either
    sign and for sharply peaked large-n integrands.
    """
    e = 2 * j + 2 * c + 1.0
    beta = e + 1.0

    def g(r: float) -> float:
        return e * math.log(r) - n * Q.q_of_r(r) if r > 0 else -math.inf

    r1 = _expand_root(lambda r: n * Q.q_of_r(r) - 1.0, 1.0, "the weight scale")
    if e > 0:
        rm = _expand_root(lambda r: n * r * Q.dq_dr(r) - e, 1.0, "the integrand mode")
        r1 = min(r1, rm)
    else:
        rm = r1
    pieces = []
    # [0, r1]: u = (r/r1)^beta flattens r^e dr exactly
    val, _ = quad(lambda u: math.exp(-n * Q.q_of_r(r1 * u ** (1.0 / beta))), 0.0, 1.0, **_QUAD_KW)
    pieces.append(beta * math.log(r1) - math.log(beta) + math.log(val))
    gref = g(rm)
    if rm > r1 * (1.0 + 1e-12):
        val, _ = quad(lambda r: math.exp(g(r) - gref), r1, rm, **_QUAD_KW)
        if val > 0:
            pieces.append(gref + math.log(val))
    rhi = rm
    while g(rhi) > gref - 120.0:
        rhi *= 1.5
        if rhi > 1e12:
            raise NumericalError("weighted norm integral does not converge")
    val, _ = quad(lambda r: math.exp(g(r) - gref), rm, rhi, **_QUAD_KW)
    pieces.append(gref + math.log(val))
    return math.log(2.0) + float(logsumexp(pieces))


@dataclass(frozen=True)
class FiniteKernel:
    """Monomial log-norms of one n-point radial ensemble."""

    n: int
    c: float
    potential: MacroscopicPotential
    log_norms: np.ndarray


def finite_moments(Q: MacroscopicPotential, c: float, n: int) -> FiniteKernel:
    """Weighted monomial norms m_j^(n), j = 0..n-1, to 1e-12 relative."""
    Q._require_radial()
    if Q.spectators:
        raise ConfigError("spectator charges are not supported by the exact kernel (use the MC module)")
    if not c > -1:
        raise ConfigError(f"c must be > -1, got {c}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    logs = np.array([_log_norm(Q, c, n, j) for j in range(n)])
    return FiniteKernel(n=n, c=c, potential=Q, log_norms=logs)


def intensity(fk: FiniteKernel, zeta) -> float:
    """One-point intensity bR_n(zeta) = sum_{j<n} |zeta|^{2j+2c} e^{-nQ}/m_j^(n)."""
    x = float(abs(complex(zeta)))
    if x == 0.0:
        if fk.c < 0:
            raise DivergenceError("intensity diverges at 0 for c < 0")
        if fk.c > 0:
            return 0.0
        return float(np.exp(-fk.n * fk.potential.q_of_r(0.0) - fk.log_norms[0]))
    j = np.arange(fk.n)
    lt = (2 * j + 2 * fk.c) * math.log(x) - fk.n * fk.potential.q_of_r(x) - fk.log_norms
    m = float(np.max(lt))
    if m == -math.inf:
        return 0.0
    return float(math.exp(m) * np.exp(lt - m).sum())


def rescaled_intensity(fk: FiniteKernel, z, rn: float) -> float:
    """R_n(z) = r_n^2 bR_n(r_n z) at the microscopic scale r_n."""
    if not rn > 0:
        raise ConfigError(f"rn must be positive, got {rn}")
    return rn * rn * intensity(fk, rn * abs(complex(z)))


def truncated_series_r0(k: int, c: float, a: float, n: int, r) -> float:
    """First n terms of the closed-form R0 series (the n-term exhaustion)."""
    mt = moments(k, c, a, n - 1)
    x = float(abs(r))
    if x == 0.0:
        if c < 0:
            raise DivergenceError("diverges at 0 for c < 0")
        return 0.0 if c > 0 else float(np.exp(-mt.log_moments[0]))
    j = np.arange(n)
    lt = (2 * j + 2 * c) * math.log(x) - a * x ** (2 * k) - mt.log_moments
    m = float(np.max(lt))
    return float(math.exp(m) * np.exp(lt - m).sum())


def mass_integral(fk: FiniteKernel) -> float:
    """Area integral of bR_n over the plane (dA = dxdy/pi); equals n exactly."""
    R = droplet_radius(fk.potential)
    rhi = R
    while 2.0 * rhi * intensity(fk, rhi) > 1e-16 * fk.n:
        rhi *= 1.3
        if rhi > 1e6:
            break
    f = lambda r: 2.0 * r * intensity(fk, r)
    inner, _ = quad(f, 0.0, R, epsabs=1e-12, epsrel=1e-11, limit=300)
    outer, _ = quad(f, R, rhi, epsabs=1e-12, epsrel=1e-11, limit=300)
    return float(inner + outer)


def bin_averaged_intensity(fk: FiniteKernel, edges) -> np.ndarray:
    """Mean of bR_n over each radial bin in dA measure: 2 int r bR_n dr / (hi^2 - lo^2)."""
    edges = np.asarray(edges, dtype=float)
    out = np.empty(edges.size - 1)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        val, _ = quad(lambda r: 2.0 * r * intensity(fk, r), lo, hi, epsabs=1e-13, epsrel=1e-9, limit=200)
        out[i] = val / (hi * hi - lo * lo)
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm distance of R_n from R0 on a grid, per n."""

    k: int
    c: float
    lam: float
    n: np.ndarray
    rn: np.ndarray
    sup_err: np.ndarray

    @property
    def decreasing_tail_start(self) -> int:
        """Smallest n in the list from which sup_err strictly decreases onward."""
        for i in range(self.n.size):
            tail = self.sup_err[i:]
            if np.all(np.diff(tail) < 0) or tail.size == 1:
                return int(self.n[i])
        return int(self.n[-1])


def convergence_report(Q: MacroscopicPotential, c: float, n_list, z_grid) -> ConvergenceReport:
    """sup_z |R_n(z) - R0(z)| along n_list, against the canonical micro-limit.

    The potential is normalized first (the micro-amplitude becomes (1+c)/k)
    and both sides of the comparison use the normalized potential.
    """
    z = np.asarray(z_grid, dtype=float)
    k = detect_k(Q)
    Qn, lam = normalize_potential(Q, k, c)
    canonical_decompose(Qn, k)  # validates the decomposition hypotheses
    a_micro = (1.0 + c) / k
    r0 = bergman_function_r0(k, c, a_micro, z)
    n_arr = np.asarray(sorted(int(n) for n in n_list), dtype=int)
    sup_err = np.empty(n_arr.size)
    rn_arr = np.empty(n_arr.size)
    for i, n in enumerate(n_arr):
        fk = finite_moments(Qn, c, int(n))
        rn = microscopic_scale(Qn, c, int(n))
        rn_arr[i] = rn
        vals = np.array([rescaled_intensity(fk, float(x), rn) for x in z])
        sup_err[i] = float(np.max(np.abs(vals - r0)))
    return ConvergenceReport(k=k, c=c, lam=lam, n=n_arr, rn=rn_arr, sup_err=sup_err)
