"""Finite-n reproducing kernels for radial ensembles and the microscopic limit.

The n-point determinantal ensemble with weight e^{-n V_n},
V_n = Q - 2(c/n) log|z|, has one-point intensity
bR_n(z) = sum_{j<n} |z|^{2j+2c} e^{-nQ(|z|)} / m_j^(n) with monomial norms
m_j^(n) = 2 int r^{2j+2c+1} e^{-nQ(r)} dr.  Rescaling by the microscopic
radius r_n gives R_n(z) = r_n^2 bR_n(r_n z), which increases to the
closed-form density R0 of radial_bergman as n grows.

Every radial integral is decided here.  finite_moments sums all n norm
integrands, each centred on its mode in t = ln r and mapped by a sinh
substitution, by one log-domain trapezoid rule; the sum over every other
node gives each norm an error estimate, and the worst one is kept.  The
exact sampler of coulomb_mc inverts cumulative sums on the same grid, and
masses and bin averages use one tanh-sinh rule per bin, checked the same way.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .potentials import (MacroscopicPotential, _check_grid, _check_int, _check_n_list, _check_overflow,
                         _check_points, _check_scale, _log_power, detect_k, normalize_potential)
from .radial_bergman import bergman_function_r0, moments
from .equilibrium import _ln_mass_roots, _mass, _mass_terms, microscopic_scale

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

_STEP = 0.025        # first trapezoid step in s; rows that miss _TOL halve it, up to 4 times
_TOL = 1e-13         # relative error target of each norm
_BLOCK = 1 << 13     # rows x nodes (or points x terms) evaluated at once, to keep the memory peak flat
_TS_STEP = 1.0 / 16  # first tanh-sinh step in u; bins that miss their tolerance halve it, up to 4 times
_HUGE = np.finfo(float).max


def _rows(Q: MacroscopicPotential, n: int, j=None):
    """Exponents beta_j, modes t*_j, widths sigma_j and reaches S_j of the radial rows j (default all n).

    Row j is exp(beta_j t - nQ(e^t)) in t = ln r, beta_j = 2j+2c+2, c = Q.c:
    twice its integral is m_j, and normalised it is the law of ln r_j.  Its
    mode t*_j solves n r Q'(r) = beta_j, where sigma_j = (2n dM/dt)^{-1/2} with the
    slope dM/dt = 2 r^2 Delta Q of the equilibrium mass M = r Q'(r)/2.
    The map t = t*_j + sigma_j sinh(s) on |s| <= S_j covers the row until its
    slow left tail e^{beta_j t} has fallen by e^-46 (about 1e-20):
    S_j = asinh((46 + nQ(r*_j)) / (beta_j sigma_j)) + 1/2.  Each row is
    solved on its own, so a subset of rows gives the bits of the full set.
    """
    beta = 2.0 * (np.arange(n) if j is None else np.asarray(j)) + 2.0 * Q.c + 2.0
    t_star = _ln_mass_roots(Q, beta / (2.0 * n))
    r_star = np.exp(t_star)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = 1.0 / np.sqrt(2.0 * n * _mass(_mass_terms(Q), t_star)[1])
    if not np.all(np.isfinite(sigma) & (sigma > 0)):
        raise NumericalError("an integrand mode is not a strict maximum")
    reach = (46.0 + np.maximum(n * Q.q_of_r(r_star), 0.0)) / (beta * sigma)
    return beta, t_star, sigma, np.arcsinh(reach) + 0.5


def _grid(h: float, reach: float) -> np.ndarray:
    """The nodes i h, |i h| <= reach rounded up to a whole step."""
    half = math.ceil(reach / h)
    return h * np.arange(-half, half + 1)


def _nq(Q: MacroscopicPotential, n: int, r):
    """nQ(r), +inf where it passes the largest double, as Q does in Q.q_of_r."""
    with np.errstate(over="ignore"):
        return n * Q.q_of_r(r)


def _row_blocks(Q, n, beta, t_star, sigma, s):
    """Row blocks of _BLOCK nodes s: (rows, t, w, top), row_j(t) dt/ds / sigma_j = e^top_j w_j, max w_j = 1."""
    step = max(1, _BLOCK // s.size)
    for b in range(0, beta.size, step):
        rows = slice(b, b + step)
        t = t_star[rows, None] + sigma[rows, None] * np.sinh(s)
        with np.errstate(over="ignore"):
            r = np.exp(t)
        logf = beta[rows, None] * t - _nq(Q, n, r) + np.log(np.cosh(s))
        top = logf.max(axis=1)
        yield rows, t, np.exp(logf - top[:, None]), top


def _log_norms(Q: MacroscopicPotential, n: int) -> tuple[np.ndarray, float]:
    """ln m_j^(n) for j < n, m_j = 2 sigma_j int row_j ds, and the worst relative error estimate."""
    beta, t_star, sigma, S = _rows(Q, n)
    logs, est = np.empty(n), np.empty(n)
    todo = np.arange(n)
    for h in _STEP * 0.5 ** np.arange(5):
        s = _grid(h, S.max())
        for rows, _, w, top in _row_blocks(Q, n, beta[todo], t_star[todo], sigma[todo], s):
            total = w.sum(axis=1)
            j = todo[rows]
            logs[j] = math.log(h) + top + np.log(total)
            # |T_h - T_2h| / T_h, plus the weight left at the ends of the grid
            est[j] = (np.abs(total - 2.0 * w[:, s.size // 2 % 2::2].sum(axis=1)) + w[:, 0] + w[:, -1]) / total
        todo = todo[np.isnan(est[todo]) | (est[todo] > _TOL)]
        if not todo.size:
            return math.log(2.0) + np.log(sigma) + logs, float(np.max(est))
    raise NumericalError(f"norm j={int(todo[0])}: error estimate {est[todo[0]]:.1e} > {_TOL:g} at step {h:g}")


def _modulus_tables(Q: MacroscopicPotential, n: int):
    """For j = 0..n-1 in turn: the nodes t = ln r of the norm's grid at _STEP, and the CDF of r_j there."""
    beta, t_star, sigma, S = _rows(Q, n)
    for _, t, w, _ in _row_blocks(Q, n, beta, t_star, sigma, _grid(_STEP, S.max())):
        cdf = np.zeros_like(w)
        np.cumsum(w[:, 1:] + w[:, :-1], axis=1, out=cdf[:, 1:])
        yield from zip(t, cdf / cdf[:, -1:])


class FiniteKernel(NamedTuple):
    """Monomial log-norms of one n-point radial ensemble at the charge potential.c, with their worst error estimate."""

    n: int
    potential: MacroscopicPotential
    log_norms: np.ndarray
    error_estimate: float


def finite_moments(Q: MacroscopicPotential, c: float, n: int) -> FiniteKernel:
    """Weighted monomial norms m_j^(n), j = 0..n-1, to 1e-12 relative, at the charge c = Q.c."""
    Q._check_charge(c)
    n = _check_int(n, "n", 1)
    return FiniteKernel(n, Q, *_log_norms(Q, n))


def _series(r, c: float, log_norms: np.ndarray, nq):
    """sum_j |r|^{2j+2c} e^{-nQ(|r|)} / m_j over the log-norms given, in the log domain.

    Scalar in, scalar out, elementwise on arrays; nq maps radii to nQ there.
    Points sit on axis 0 and the terms on axis 1, so a scalar call gives the
    same bits as its element of an array call; r = 0 needs no branch.
    """
    r = _check_points(c, r)
    x = np.abs(r).reshape(-1, 1).astype(float, copy=False)
    with np.errstate(over="ignore", divide="ignore"):  # a sum past the largest double is refused; ln 0 = -inf
        lt = _log_power(2.0 * c + np.arange(0.0, 2.0 * log_norms.size, 2.0), x) - nq(x) - log_norms
        # where every term underflows, the floor keeps lt - top at -inf: the sum is 0
        top = lt.max(axis=1, keepdims=True, initial=-_HUGE)
        out = _check_overflow(np.exp(top[:, 0]) * np.exp(lt - top).sum(axis=1))
    return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)


def intensity(fk: FiniteKernel, zeta):
    """One-point intensity bR_n(zeta) = sum_{j<n} |zeta|^{2j+2c} e^{-nQ}/m_j^(n); arrays elementwise."""
    return _series(zeta, fk.potential.c, fk.log_norms, partial(_nq, fk.potential, fk.n))


def rescaled_intensity(fk: FiniteKernel, z, rn: float):
    """R_n(z) = r_n^2 bR_n(r_n z) at the microscopic scale r_n, finite and > 0 (_check_scale); arrays elementwise."""
    _check_scale(rn, "rn")
    return rn * rn * intensity(fk, rn * np.abs(z))


def truncated_series_r0(k: int, c: float, a: float, n: int, r):
    """First n terms of the closed-form R0 series (the n-term exhaustion); arrays elementwise."""
    return _series(r, c, moments(k, c, a, _check_int(n, "n", 1) - 1), lambda x: a * x ** (2 * k))


def _bin_integrals(fk: FiniteKernel, lo, hi, tol: float, pooled: bool = False) -> np.ndarray:
    """2 int r bR_n(r) dr over each bin [lo_i, hi_i] by a tanh-sinh rule (Takahasi and Mori 1974).

    The node at u is x = lo + (hi-lo) P = hi - (hi-lo) (1-P), with the end
    shares P = 1/(1+e^{-v}) and 1-P of v = pi sinh(u), and weight
    dx/du = (hi-lo) P (1-P) pi cosh(u).  Both shares come from e^{-|v|}, so
    no node rounds onto a bin end and no weight overflows.  The reach
    |v| <= max(40, 20/(c+1)), at most 300, leaves e^-40 of an r^{2c+1} end
    uncovered.  Bins whose every-other-node estimate exceeds tol relative to
    their value (pooled: to the mean bin, so the estimates sum to at most
    tol of the total) halve the step, up to 4 times.  The integrand 2 r bR_n
    is the series at charge c + 1/2 over the norms m_j / 2, all in the log
    domain: near r = 0 the factor r^{2c} alone overflows for c < 0.
    """
    c = fk.potential.c
    reach = math.asinh(min(max(40.0, 20.0 / (c + 1.0)), 300.0) / math.pi)
    log_half_norms = fk.log_norms - math.log(2.0)
    step = max(1, _BLOCK // fk.n)
    val, est = np.empty(lo.size), np.empty(lo.size)
    todo = np.arange(lo.size)
    for h in _TS_STEP * 0.5 ** np.arange(5):
        u = _grid(h, reach)
        e = np.exp(-np.pi * np.abs(np.sinh(u)))
        near = e / (1.0 + e)  # the share of the bin between the node and its nearer end
        width = (hi - lo)[todo, None]
        x = np.where(u < 0.0, lo[todo, None] + width * near, hi[todo, None] - width * near).ravel()
        f = np.empty(x.size)
        for b in range(0, x.size, step):
            f[b:b + step] = _series(x[b:b + step], c + 0.5, log_half_norms, partial(_nq, fk.potential, fk.n))
        terms = f.reshape(width.shape[0], u.size) * width * (h * np.pi * np.cosh(u) * near / (1.0 + e))
        val[todo] = terms.sum(axis=1)
        # |T_h - T_2h|, plus what the ends of the rule still carry
        est[todo] = np.abs(val[todo] - 2.0 * terms[:, u.size // 2 % 2::2].sum(axis=1)) + terms[:, 0] + terms[:, -1]
        todo = todo[~(est[todo] <= tol * (val.mean() if pooled else val[todo]))]
        if not todo.size:
            return val
    i = int(todo[0])
    raise NumericalError(f"bin [{lo[i]:g}, {hi[i]:g}]: error estimate {est[i]:.1e} exceeds {tol:g} relative")


def mass_integral(fk: FiniteKernel) -> float:
    """Area integral of bR_n over the plane (dA = dxdy/pi); equals n exactly.

    The bins' rule runs over [0, r(-S)] and the last row's map
    r(s) = exp(t* + sigma sinh s) at steps of at most 1 across its reach |s| <= S.
    """
    _, (t_star,), (sigma,), (S,) = _rows(fk.potential, fk.n, [fk.n - 1])
    s = np.linspace(-S, S, 2 * math.ceil(S) + 1)
    edges = np.concatenate(([0.0], np.exp(t_star + sigma * np.sinh(s))))
    return float(np.sum(_bin_integrals(fk, edges[:-1], edges[1:], 1e-8, pooled=True)))


def bin_averaged_intensity(fk: FiniteKernel, edges) -> np.ndarray:
    """Mean of bR_n over each radial bin in dA measure: 2 int r bR_n dr / (hi^2 - lo^2)."""
    edges = _check_grid(edges, "edges")
    lo, hi = edges[:-1], edges[1:]
    return _bin_integrals(fk, lo, hi, 1e-9) / ((hi - lo) * (hi + lo))


class ConvergenceReport(NamedTuple):
    """R0 and the rescaled R_n on a grid z, one row of values per n, with the sup-norm distance."""

    k: int
    c: float
    lam: float
    z: np.ndarray
    r0: np.ndarray
    n: np.ndarray
    rn: np.ndarray
    values: np.ndarray
    sup_err: np.ndarray


def convergence_report(Q: MacroscopicPotential, n_list, z_grid) -> ConvergenceReport:
    """R_n(z) and sup_z |R_n(z) - R0(z)| along n_list (sorted), against the canonical micro-limit, at charge Q.c.

    n_list and z_grid name at least one n (_check_n_list) and one point.  The potential is normalized first (the
    micro-amplitude becomes (1+c)/k) and both sides of the comparison use the normalized potential.
    """
    c = Q.c
    n_arr = np.sort(_check_n_list(n_list, "n_list"))
    z = np.asarray(z_grid, dtype=float)
    if not z.size:
        raise ConfigError("z_grid must hold at least one point")
    k = detect_k(Q)
    Qn, lam = normalize_potential(Q, k)  # which checks k against its own split's, a second detect_k (ROADMAP item 1)
    r0 = bergman_function_r0(k, c, (1.0 + c) / k, z)
    rn = microscopic_scale(Qn, c, n_arr)
    values = np.empty((n_arr.size, z.size))
    for i, n in enumerate(n_arr):
        values[i] = rescaled_intensity(finite_moments(Qn, c, n), z, rn[i])
    return ConvergenceReport(k, c, lam, z, r0, n_arr, rn, values, np.max(np.abs(values - r0), axis=1))
