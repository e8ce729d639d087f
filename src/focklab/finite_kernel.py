"""Finite-n reproducing kernels for radial ensembles and the microscopic limit.

The n-point determinantal ensemble with weight e^{-n V_n},
V_n = Q - 2(c/n) log|z|, has one-point intensity
bR_n(z) = sum_{j<n} |z|^{2j+2c} e^{-nQ(|z|)} / m_j^(n) with monomial norms
m_j^(n) = 2 int r^{2j+2c+1} e^{-nQ(r)} dr.  Rescaling by the microscopic
radius r_n gives R_n(z) = r_n^2 bR_n(r_n z), which increases to the
closed-form density R0 of radial_bergman as n grows.  Spectator charges
break the monomial orthogonality and are out of scope here (the Monte
Carlo module covers them).

finite_moments computes all n norms at once: each integrand, centred on
its mode in t = ln r and mapped by a sinh substitution, is summed in the
log domain by one trapezoid rule on a common grid, and the sum over every
other node gives each norm an error estimate; the worst one is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

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

_STEP = 0.025     # first trapezoid step in s; rows that miss _TOL halve it, up to 4 times
_TOL = 1e-13      # relative error target of each norm
_BLOCK = 1 << 13  # rows x nodes evaluated at once, to keep the memory peak flat


def _trapezoid(Q, n, beta, t_star, sigma, h, S):
    """ln(h sum_i f_j(s_i)) on the nodes s_i = i h, |s_i| <= S, and its error estimate."""
    half = math.ceil(S / h)
    s = h * np.arange(-half, half + 1)
    logs, est = np.empty(beta.size), np.empty(beta.size)
    step = max(1, _BLOCK // s.size)
    for b in range(0, beta.size, step):
        rows = slice(b, b + step)
        t = t_star[rows, None] + sigma[rows, None] * np.sinh(s)
        with np.errstate(over="ignore", invalid="ignore"):
            nq = n * Q.q_of_r(np.exp(t))
        # where r^{2m} overflows, mixed-sign coefficients give inf - inf; the leading term wins
        logf = beta[rows, None] * t - np.where(np.isnan(nq), np.inf, nq) + np.log(np.cosh(s))
        top = logf.max(axis=1)
        w = np.exp(logf - top[:, None])
        total = w.sum(axis=1)
        logs[rows] = math.log(h) + top + np.log(total)
        # |T_h - T_2h| / T_h, plus the weight left at the ends of the grid
        est[rows] = (np.abs(total - 2.0 * w[:, half % 2::2].sum(axis=1)) + w[:, 0] + w[:, -1]) / total
    return logs, est


def _log_norms(Q: MacroscopicPotential, c: float, n: int) -> tuple[np.ndarray, float]:
    """ln m_j^(n) for j < n and the worst relative error estimate.

    Row j is m_j = 2 int exp(beta_j t - nQ(e^t)) dt with beta_j = 2j+2c+2,
    mapped by t = t*_j + sigma_j sinh(s) with sigma_j = (n d(rQ')/dt)^{-1/2}
    = (4 n r^2 Delta Q)^{-1/2} at its mode t*_j.  The common grid reaches
    S = asinh(max_j (46 + nQ(r*_j)) / (beta_j sigma_j)) + 1/2, where the slow
    left tail e^{beta_j t} of every row has fallen by e^-46 (about 1e-20).
    """
    beta = 2.0 * np.arange(n) + 2.0 * c + 2.0
    slope = lambda t: n * np.exp(t) * Q.dq_dr(np.exp(t))  # n r Q'(r) at r = e^t
    lo, hi = np.full(n, -50.0), np.full(n, 50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        if not (slope(lo[0]) < beta[0] and slope(hi[0]) > beta[-1]):
            raise NumericalError("an integrand mode lies outside e^-50 < r < e^50")
        while np.max(hi - lo) > 1e-10:
            mid = 0.5 * (lo + hi)
            below = slope(mid) < beta
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        t_star = 0.5 * (lo + hi)
        r_star = np.exp(t_star)
        sigma = 1.0 / np.sqrt(4.0 * n * r_star * r_star * Q.laplacian_radial(r_star))
    if not np.all(np.isfinite(sigma) & (sigma > 0)):
        raise NumericalError("an integrand mode is not a strict maximum")
    reach = (46.0 + np.maximum(n * Q.q_of_r(r_star), 0.0)) / (beta * sigma)
    S = math.asinh(float(np.max(reach))) + 0.5
    logs, est = np.empty(n), np.empty(n)
    todo = np.arange(n)
    for h in _STEP * 0.5 ** np.arange(5):
        logs[todo], est[todo] = _trapezoid(Q, n, beta[todo], t_star[todo], sigma[todo], h, S)
        todo = todo[np.isnan(est[todo]) | (est[todo] > _TOL)]
        if not todo.size:
            return math.log(2.0) + np.log(sigma) + logs, float(np.max(est))
    raise NumericalError(f"norm j={int(todo[0])}: error estimate {est[todo[0]]:.1e} > {_TOL:g} at step {h:g}")


@dataclass(frozen=True)
class FiniteKernel:
    """Monomial log-norms of one n-point radial ensemble, with their worst relative error estimate."""

    n: int
    c: float
    potential: MacroscopicPotential
    log_norms: np.ndarray
    error_estimate: float


def finite_moments(Q: MacroscopicPotential, c: float, n: int) -> FiniteKernel:
    """Weighted monomial norms m_j^(n), j = 0..n-1, to 1e-12 relative."""
    Q._require_radial()
    if Q.spectators:
        raise ConfigError("spectator charges are not supported by the exact kernel (use the MC module)")
    if not c > -1:
        raise ConfigError(f"c must be > -1, got {c}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return FiniteKernel(n, c, Q, *_log_norms(Q, c, n))


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
    inner, err_in = quad(f, 0.0, R, epsabs=1e-12, epsrel=1e-11, limit=300)
    outer, err_out = quad(f, R, rhi, epsabs=1e-12, epsrel=1e-11, limit=300)
    if err_in + err_out > 1e-8 * abs(inner + outer):
        raise NumericalError(f"mass integral error estimate {err_in + err_out:.1e} exceeds 1e-8 relative")
    return float(inner + outer)


def bin_averaged_intensity(fk: FiniteKernel, edges) -> np.ndarray:
    """Mean of bR_n over each radial bin in dA measure: 2 int r bR_n dr / (hi^2 - lo^2)."""
    edges = np.asarray(edges, dtype=float)
    out = np.empty(edges.size - 1)
    f = lambda r: 2.0 * r * intensity(fk, r)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        val, err = quad(f, lo, hi, epsabs=0.0, epsrel=1e-9, limit=200)
        if err > 1e-9 * abs(val):
            raise NumericalError(f"bin [{lo:g}, {hi:g}]: error estimate {err:.1e} exceeds 1e-9 relative")
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
