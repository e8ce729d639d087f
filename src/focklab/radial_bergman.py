"""Closed-form Bergman density for radial weights a r^{2k} with origin charge c.

The reproducing kernel of entire functions square-integrable against
|z|^{2c} e^{-a|z|^{2k}} dA is diagonal in the monomial basis with moments
m_j = a^{-(j+c+1)/k} (1/k) Gamma((j+c+1)/k).  The weighted diagonal
R0(r) = sum_j r^{2j+2c} e^{-a r^{2k}} / m_j, split by j mod k, is a sum of
k regularized incomplete gammas (DLMF 8.2), which bergman_function_r0 and
disk_mass evaluate in closed form.  R0 tends to the flat density
Delta Q0 = a k^2 r^{2k-2} with a sharp e^{-a r^{2k}} relative error; the
decay_report operation measures that rate by least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, FitError

__all__ = [
    "moments",
    "bergman_function_r0",
    "delta_q0",
    "origin_coefficient",
    "disk_mass",
    "DecayReport",
    "decay_report",
    "fit_error_model",
]

# below this magnitude the relative error is rounding noise, not signal
_REL_ERR_FLOOR = 1e-13


def _validate(k: int, c: float, a: float) -> None:
    if not (isinstance(k, int) and k >= 1):
        raise ConfigError(f"k must be an integer >= 1, got {k}")
    if not c > -1:
        raise ConfigError(f"c must be > -1, got {c}")
    if not a > 0:
        raise ConfigError(f"amplitude must be positive, got {a}")


def _log_moments(k: int, a: float, p: np.ndarray) -> np.ndarray:
    # ln m_j with p = (j+c+1)/k; scipy.special is imported where used, so focklab's import stays free of it
    from scipy.special import gammaln

    return -p * math.log(a) - math.log(k) + gammaln(p)


def moments(k: int, c: float, a: float, J: int) -> np.ndarray:
    """Log-moments ln m_j of the weight |z|^{2c} e^{-a|z|^{2k}}, j = 0..J, from the closed gamma form."""
    _validate(k, c, a)
    if J < 0:
        raise ConfigError(f"J must be >= 0, got {J}")
    return _log_moments(k, a, (np.arange(J + 1) + c + 1.0) / k)


def bergman_function_r0(k: int, c: float, a: float, r):
    """R0(r) for the weight a r^{2k}, scalar in, scalar out (arrays elementwise).

    Split by j mod k, the series is a sum of k regularized incomplete gammas
    P (DLMF 8.2): with x = a r^{2k} and beta_s = (s+c+1)/k,
    R0 = sum_{j<k} r^{2j+2c} e^{-x} / m_j + a k r^{2k-2} sum_{s<k} P(beta_s, x),
    the first k terms of the series plus the rest of each class.  Every
    summand is positive, so nothing cancels.  At r = 0 the value is 0 for
    c > 0 and origin_coefficient for c = 0; for c < 0 it diverges
    (DivergenceError).
    """
    from scipy.special import gammainc

    _validate(k, c, a)
    # points on axis 0 and the k classes on axis 1: every point's sum then
    # runs in the same order whatever the array size, so a scalar call gives
    # the same bits as its element of an array call
    rr = np.asarray(r, dtype=float).reshape(-1, 1)
    r_min = rr.min(initial=np.inf)
    if not r_min >= 0:
        raise ConfigError("r must be >= 0")
    if r_min == 0.0:
        if c < 0:
            raise DivergenceError("density diverges at r = 0 for c < 0")
        zero = rr == 0.0
        rr = np.where(zero, 1.0, rr)  # r = 0 is filled in at the end
    j = np.arange(k)
    beta = (j + c + 1.0) / k
    log_m = _log_moments(k, a, beta)
    x = a * rr ** (2 * k)
    # the first k terms in the log domain, so that no factor of
    # r^{2j+2c} e^{-x} / m_j over- or underflows on its own
    head = np.exp(2 * (j + c) * np.log(rr) - x - log_m)
    terms = head + a * k * rr ** (2 * k - 2) * gammainc(beta, x)
    out = terms.sum(axis=1)
    if r_min == 0.0:
        out[zero[:, 0]] = 0.0 if c > 0 else origin_coefficient(k, c, a)
    return float(out[0]) if np.ndim(r) == 0 else out.reshape(np.shape(r))


def delta_q0(k: int, c: float, a: float, r):
    """Flat-density limit Delta Q0 = a k^2 r^{2k-2} (c does not enter)."""
    _validate(k, c, a)
    rr = np.asarray(r, dtype=float)
    out = a * k * k * rr ** (2 * k - 2)
    return float(out) if np.ndim(r) == 0 else out


def origin_coefficient(k: int, c: float, a: float = 1.0) -> float:
    """lim_{r->0} R0(r)/r^{2c} = 1/m_0 = a^{(c+1)/k} k / Gamma((c+1)/k)."""
    _validate(k, c, a)
    return float(np.exp(-moments(k, c, a, 0)[0]))


def disk_mass(k: int, c: float, a: float, radius: float = 1.0) -> float:
    """Area integral of R0 over |z| <= radius (dA = dxdy/pi), in closed form.

    The integral is sum_j P((j+c+1)/k, x) with x = a radius^{2k}.  Class
    j = s + k m sums to (1+x) P(beta_s, x) - beta_s P(beta_s+1, x), the
    integral over [0, x] of P(beta_s, t) + t^{beta_s-1} e^{-t} / Gamma(beta_s).
    """
    from scipy.special import gammainc

    _validate(k, c, a)
    if not radius >= 0:
        raise ConfigError(f"radius must be >= 0, got {radius}")
    x = a * radius ** (2 * k)
    beta = (np.arange(k) + c + 1.0) / k
    return float(np.sum((1.0 + x) * gammainc(beta, x) - beta * gammainc(beta + 1.0, x)))


@dataclass(frozen=True)
class DecayReport:
    """Least-squares summary of the relative error R0/DeltaQ0 - 1 on a grid.

    The error model is ln|rel_err| = intercept + slope * u + ln_power * ln u
    with u = a r^{2k}; alpha = -slope * a is the decay rate in r^{2k} units.
    slope_raw is the plain two-parameter fit without the ln u regressor,
    kept as a diagnostic (it absorbs the power prefactor into the rate).
    usable marks the grid points above the rounding floor, the ones fitted.
    """

    k: int
    c: float
    amplitude: float
    r: np.ndarray
    u: np.ndarray
    rel_err: np.ndarray
    usable: np.ndarray
    n_used: int
    n_excluded: int
    identically_zero: bool
    fit_ok: bool
    slope: float | None = None
    slope_raw: float | None = None
    ln_power: float | None = None
    intercept: float | None = None
    alpha: float | None = None


def fit_error_model(u, y, fix_slope: float | None = None):
    """LSQ fit of y ~ C + s*u + p*ln(u).

    Returns (C, s, p).  With fix_slope given, s is pinned and only (C, p)
    are fitted (used to measure the power prefactor at a known rate).
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.size < (2 if fix_slope is not None else 3):
        raise FitError(f"fit needs at least {2 if fix_slope is not None else 3} points")
    if fix_slope is not None:
        X = np.column_stack([np.ones_like(u), np.log(u)])
        coef, *_ = np.linalg.lstsq(X, y - fix_slope * u, rcond=None)
        return float(coef[0]), float(fix_slope), float(coef[1])
    X = np.column_stack([np.ones_like(u), u, np.log(u)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


def decay_report(k: int, c: float, a: float, r_grid) -> DecayReport:
    """Measure the decay rate of R0/DeltaQ0 - 1 against u = a r^{2k}.

    Grid points with |rel_err| < 1e-13 are rounding-dominated and excluded
    from the fit; if fewer than 3 points survive the report carries
    fit_ok=False (and identically_zero when nothing survives at all).
    """
    _validate(k, c, a)
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 3:
        raise ConfigError("r_grid must be a 1-D grid with at least 3 points")
    if np.any(np.diff(r) <= 0):
        raise ConfigError("r_grid must be strictly increasing")
    u = a * r ** (2 * k)
    if u[0] < 0.5 * (1.0 - 1e-9) or u[-1] > 40.0 * (1.0 + 1e-9):
        raise ConfigError(
            "grid leaves the reliable double-precision window (need a r^{2k} roughly in [1, 30])"
        )
    r0 = bergman_function_r0(k, c, a, r)
    rel = r0 / delta_q0(k, c, a, r) - 1.0
    usable = np.abs(rel) >= _REL_ERR_FLOOR
    n_used = int(usable.sum())
    n_excluded = int(r.size - n_used)
    base = dict(
        k=k, c=c, amplitude=a, r=r, u=u, rel_err=rel, usable=usable,
        n_used=n_used, n_excluded=n_excluded,
    )
    if n_used < 3:
        return DecayReport(**base, identically_zero=(n_used == 0), fit_ok=False)
    C, s, p = fit_error_model(u[usable], np.log(np.abs(rel[usable])))
    # plain 2-parameter fit for the diagnostic slope_raw
    X = np.column_stack([np.ones(n_used), u[usable]])
    coef_raw, *_ = np.linalg.lstsq(X, np.log(np.abs(rel[usable])), rcond=None)
    return DecayReport(
        **base,
        identically_zero=False,
        fit_ok=True,
        slope=s,
        slope_raw=float(coef_raw[1]),
        ln_power=p,
        intercept=C,
        alpha=-s * a,
    )
