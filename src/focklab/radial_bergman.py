"""Closed-form Bergman density for radial weights a r^{2k} with origin charge c.

The reproducing kernel of entire functions square-integrable against
|z|^{2c} e^{-a|z|^{2k}} dA is diagonal in the monomial basis with moments
m_j = a^{-(j+c+1)/k} (1/k) Gamma((j+c+1)/k).  The weighted diagonal
R0(r) = sum_j r^{2j+2c} e^{-a r^{2k}} / m_j, split by j mod k, is a sum of
k regularized incomplete gammas (DLMF 8.2), which bergman_function_r0 and
disk_mass evaluate in closed form by one numpy routine: a power series below
x = a + 1 and Legendre's continued fraction above.  R0 tends to the flat density
Delta Q0 = a k^2 r^{2k-2} with a sharp e^{-a r^{2k}} relative error; the
decay_report operation measures that rate by least squares.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FitError
from .potentials import (_check_exponents, _check_grid, _check_int, _check_overflow, _check_points, _check_scale,
                         _log_power, _real)

__all__ = [
    "moments",
    "bergman_function_r0",
    "delta_q0",
    "disk_mass",
    "DecayReport",
    "decay_report",
]

# below this magnitude the relative error is rounding noise, not signal
_REL_ERR_FLOOR = 1e-13
# at most this many elements per continued-fraction step run faster as Python floats than as an array
_FEW = 16
_BLOCK = 4096  # series elements summed at once: a block's term table stays within about 1 MB at 32 terms
_HUGE = np.finfo(float).max


def _validate(k: int, c: float, a: float) -> tuple[int, float, float]:
    """k as an int >= 1, c as a float with -1 < c < inf (_check_exponents), the amplitude a as a float, finite and
    > 0 (_check_scale)."""
    return (*_check_exponents(c, k), _check_scale(a, "amplitude"))


def _radii(c: float, r) -> np.ndarray:
    """Radii r as floats, of r's shape: finite, not 0 when c < 0 (_check_points), and >= 0."""
    rr = _check_points(c, np.asarray(r, dtype=float))
    if rr.min(initial=0.0) < 0:
        raise ConfigError("r must be >= 0")
    return rr


def _lgamma(a: np.ndarray) -> np.ndarray:
    """ln Gamma of each entry, by math.lgamma."""
    return np.array([math.lgamma(v) for v in a.ravel().tolist()]).reshape(a.shape)


def _power_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """1 + x/(a+1) + x^2/((a+1)(a+2)) + ... for x < a + 1, added left to right, _BLOCK elements at a time.

    The terms fall and the sum is at least 1, so once a term is below 2^-54
    neither it nor any later one changes the sum: every element gets the same
    bits whatever term count the slowest element of its block sets.
    """
    out = np.empty_like(x)
    for lo in range(0, x.size, _BLOCK):
        ab, xb = a[lo:lo + _BLOCK], x[lo:lo + _BLOCK]
        n = 32
        while True:
            t = xb / (ab + np.arange(n)[:, None])
            t[0] = 1.0
            np.multiply.accumulate(t, axis=0, out=t)
            if t[-1].max() <= 2.0**-54:
                out[lo:lo + _BLOCK] = np.add.accumulate(t, axis=0)[-1]
                break
            n *= 2
    return out


def _fraction_step(f, b, a, j: int):
    # f_j = b_j - a_{j+1} / f_{j+1} with b_j = x + 2j + 1 - a, a_{j+1} = (j+1)(j+1-a); floats or arrays alike
    return (b + 2.0 * j) - (j + 1) * ((j + 1) - a) / f


def _legendre_fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...)) for x >= a + 1, evaluated from its tail.

    Each element starts at its own depth, a bound on the steps the fraction
    needs for a 2^-54 truncation error that grows like 1/x (as the error falls
    like e^{-4 sqrt(j x)}) and like sqrt(a) for x near a; for a whole a the
    fraction ends after a steps.  So no step needs a convergence test, and an
    element's steps depend on its own (a, x) only.  Sorted by depth, the
    elements still running at step j are a prefix.  Steps that at most _FEW
    elements run go element by element in Python floats, the others on
    arrays: the arithmetic is the same IEEE operations either way.  Every
    f_j is at least j + 1, so nothing divides by 0.
    """
    depth = np.ceil(110.0 / x + 16.0 * a / (4.0 * np.sqrt(a) + x - a) + 6.0)
    depth = np.where(a == np.floor(a), np.minimum(depth, a), depth).astype(np.intp)
    order = np.argsort(-depth, kind="stable")
    a, x, depth = a[order], x[order], depth[order]
    running = np.searchsorted(-depth, -np.arange(depth[0])).tolist()  # elements with depth > j
    wide = sum(m > _FEW for m in running)  # steps 0 .. wide-1 run on arrays
    b = x + 1.0 - a
    f = b + 2.0 * depth
    deep = slice(0, running[wide] if wide < len(running) else 0)
    for i, (fi, bi, ai, d) in enumerate(zip(f[deep].tolist(), b[deep].tolist(), a[deep].tolist(),
                                            depth[deep].tolist())):
        for j in range(d - 1, wide - 1, -1):
            fi = _fraction_step(fi, bi, ai, j)
        f[i] = fi
    for j in range(wide - 1, -1, -1):
        m = running[j]
        f[:m] = _fraction_step(f[:m], b[:m], a[:m], j)
    out = np.empty_like(f)
    out[order] = f
    return out


def _incomplete_gamma(a, x) -> tuple[np.ndarray, np.ndarray]:
    """Regularized incomplete gammas P(a, x) and Q(a, x) = 1 - P(a, x) (DLMF 8.2.4), a > 0, x >= 0.

    a and x broadcast together; ln Gamma is taken once per entry of a as
    given, so pass the distinct a unbroadcast.  The prefactor
    x^a e^{-x} / Gamma(a) is taken in the log domain.  Below x = a + 1, P is
    the power series (DLMF 8.7.1) and Q = 1 - P; from there on, Q is the
    continued fraction (DLMF 8.9.2) and P = 1 - Q.  So Q has a small relative
    error only for x >= a + 1.  Each element stops on its own, so it gives
    the same bits in any array.
    """
    a = np.asarray(a, dtype=float)
    x = np.minimum(x, _HUGE)  # x = inf counts as the largest float, where P = 1 and Q = 0 already
    with np.errstate(divide="ignore"):  # x = 0: a ln x = -inf, and the prefactor is 0
        pre = np.exp(a * np.log(x) - x - _lgamma(a))
    zero = np.zeros(pre.shape)
    a, x = zero + a, zero + x
    p = np.empty_like(pre)
    low = x < a + 1.0
    high = ~low
    if low.any():
        p[low] = pre[low] / a[low] * _power_series(a[low], x[low])
    if high.any():
        p[high] = pre[high] / _legendre_fraction(a[high], x[high])  # Q until the swap below
    rest = 1.0 - p
    return np.where(low, p, rest), np.where(low, rest, p)


def _log_moments(k: int, a: float, p: np.ndarray) -> np.ndarray:
    # ln m_j with p = (j+c+1)/k
    return -p * math.log(a) - math.log(k) + _lgamma(p)


def moments(k: int, c: float, a: float, J: int) -> np.ndarray:
    """Log-moments ln m_j of the weight |z|^{2c} e^{-a|z|^{2k}}, j = 0..J, from the closed gamma form."""
    (k, c, a), J = _validate(k, c, a), _check_int(J, "J")
    return _log_moments(k, a, (np.arange(J + 1) + c + 1.0) / k)


def bergman_function_r0(k: int, c: float, a: float, r):
    """R0(r) for the weight a r^{2k}, scalar in, scalar out (arrays elementwise).

    Split by j mod k, the series is a sum of k regularized incomplete gammas
    P (DLMF 8.2): with x = a r^{2k} and beta_s = (s+c+1)/k,
    R0 = sum_{j<k} r^{2j+2c} e^{-x} / m_j + a k r^{2k-2} sum_{s<k} P(beta_s, x),
    the first k terms of the series plus the rest of each class.  Every
    summand is positive, so nothing cancels, and r = 0 needs no branch.
    """
    k, c, a = _validate(k, c, a)
    # points on axis 0 and the k classes on axis 1: every point's sum then
    # runs in the same order whatever the array size, so a scalar call gives
    # the same bits as its element of an array call
    rr = _radii(c, r).reshape(-1, 1)
    j = np.arange(k)
    beta = (j + c + 1.0) / k
    log_m = _log_moments(k, a, beta)
    with np.errstate(over="ignore", divide="ignore"):  # a sum past the largest double is refused; ln 0 = -inf
        x = a * rr ** (2 * k)
        # the first k terms in the log domain, so that no factor of
        # r^{2j+2c} e^{-x} / m_j over- or underflows on its own
        head = np.exp(_log_power(2 * (j + c), rr) - x - log_m)
        terms = head + a * k * rr ** (2 * k - 2) * _incomplete_gamma(beta, x)[0]
        out = _check_overflow(terms.sum(axis=1))
    return float(out[0]) if np.ndim(r) == 0 else out.reshape(np.shape(r))


def delta_q0(k: int, c: float, a: float, r):
    """Flat-density limit Delta Q0 = a k^2 r^{2k-2} at radii r (_radii); c does not enter, so r = 0 is taken always."""
    k, c, a = _validate(k, c, a)
    rr = _radii(0.0, r)
    with np.errstate(over="ignore"):  # a value past the largest double is refused
        out = _check_overflow(a * k * k * rr ** (2 * k - 2), "deltaQ0")
    return float(out) if np.ndim(r) == 0 else out


def disk_mass(k: int, c: float, a: float, radius: float = 1.0) -> float:
    """Area integral of R0 over |z| <= radius (dA = dxdy/pi), in closed form.

    The integral is sum_j P((j+c+1)/k, x) with x = a radius^{2k}.  Class
    j = s + k m sums to (1+x) P(beta_s, x) - beta_s P(beta_s+1, x), the
    integral over [0, x] of P(beta_s, t) + t^{beta_s-1} e^{-t} / Gamma(beta_s).
    """
    k, c, a = _validate(k, c, a)
    r = _real(radius)
    if not r >= 0:
        raise ConfigError(f"radius must be >= 0, got {radius}")
    x = a * r ** (2 * k)
    beta = (np.arange(k) + c + 1.0) / k
    p = _incomplete_gamma(np.concatenate([beta, beta + 1.0]), x)[0]
    return float(np.sum((1.0 + x) * p[:k] - beta * p[k:]))


class DecayReport(NamedTuple):
    """Least-squares summary of the relative error R0/DeltaQ0 - 1 on a grid.

    The error model is ln|rel_err| = intercept + slope * u + ln_power * ln u
    with u = a r^{2k}; alpha = -slope * a is the decay rate in r^{2k} units.
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
    ln_power: float | None = None
    intercept: float | None = None
    alpha: float | None = None


def _fit_error_model(u, y):
    """LSQ fit of y ~ C + s*u + p*ln(u); returns (C, s, p)."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.size < 3:
        raise FitError("fit needs at least 3 points")
    X = np.column_stack([np.ones_like(u), u, np.log(u)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


def decay_report(k: int, c: float, a: float, r_grid) -> DecayReport:
    """Measure the decay rate of R0/DeltaQ0 - 1 against u = a r^{2k}.

    Grid points with |rel_err| < 1e-13 are rounding-dominated and excluded
    from the fit; if fewer than 3 points survive the report carries
    fit_ok=False (and identically_zero when nothing survives at all).
    """
    k, c, a = _validate(k, c, a)
    r = _check_grid(r_grid, "r_grid", least=3)  # the fit has 3 parameters
    u = a * r ** (2 * k)
    if u[0] < 0.5 * (1.0 - 1e-9) or u[-1] > 40.0 * (1.0 + 1e-9):
        raise ConfigError("grid leaves the reliable double-precision window (need a r^{2k} in [0.5, 40])")
    r0 = bergman_function_r0(k, c, a, r)
    rel = r0 / delta_q0(k, c, a, r) - 1.0
    usable = np.abs(rel) >= _REL_ERR_FLOOR
    n_used = int(usable.sum())
    C, s, p = _fit_error_model(u[usable], np.log(np.abs(rel[usable]))) if n_used >= 3 else (None, None, None)
    return DecayReport(k=k, c=c, amplitude=a, r=r, u=u, rel_err=rel, usable=usable, n_used=n_used,
                       n_excluded=int(r.size - n_used), identically_zero=n_used == 0, fit_ok=s is not None,
                       slope=s, ln_power=p, intercept=C, alpha=None if s is None else -s * a)
