"""Reference values computed with scipy and the standard library only.

Nothing here imports focklab: these are the independent computations the
workloads check the program against.  Notation follows the package: the
radial weight is |z|^{2c} e^{-a|z|^{2k}}, x = a r^{2k}, beta_s = (s+c+1)/k,
and P, Q are the regularized lower and upper incomplete gammas (DLMF 8.2).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import integrate, optimize, special


def _log_gamma_term(beta, x):
    """ln(x^{beta-1} e^{-x} / Gamma(beta)) for x > 0."""
    return (beta - 1.0) * np.log(x) - x - special.gammaln(beta)


def r0(k: int, c: float, a: float, r) -> np.ndarray:
    """R0 = a k r^{2k-2} sum_s [P(beta_s, x) + x^{beta_s-1} e^{-x}/Gamma(beta_s)].

    Every summand is positive, so the sum does not cancel.  At r = 0 the
    value is 0 for c > 0 and k a^{1/k}/Gamma(1/k) for c = 0.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    zero = r == 0.0
    if np.any(zero):
        if c < 0:
            raise ValueError("R0 diverges at r = 0 for c < 0")
        out[zero] = 0.0 if c > 0 else k * a ** (1.0 / k) / math.gamma(1.0 / k)
    rp = r[~zero]
    x = a * rp ** (2 * k)
    total = np.zeros_like(rp)
    for s in range(k):
        beta = (s + c + 1.0) / k
        # fold the prefactor r^{2k-2} into the log so small r cannot overflow
        log_pre = math.log(a * k) + (2 * k - 2) * np.log(rp)
        total += np.exp(log_pre) * special.gammainc(beta, x)
        total += np.exp(log_pre + _log_gamma_term(beta, x))
    out[~zero] = total
    return out


def rel_err(k: int, c: float, a: float, r) -> np.ndarray:
    """R0/DeltaQ0 - 1 = (1/k) sum_s [x^{beta_s-1} e^{-x}/Gamma(beta_s) - Q(beta_s, x)], r > 0."""
    x = a * np.asarray(r, dtype=float) ** (2 * k)
    total = np.zeros_like(x)
    for s in range(k):
        beta = (s + c + 1.0) / k
        total += np.exp(_log_gamma_term(beta, x)) - special.gammaincc(beta, x)
    return total / k


def delta_q0(k: int, a: float, r) -> np.ndarray:
    return a * k * k * np.asarray(r, dtype=float) ** (2 * k - 2)


def _p_minus_p(lo_beta, hi_beta, x):
    """P(lo_beta, x) - P(hi_beta, x) for lo_beta <= hi_beta, written so it does not cancel."""
    lo_beta, hi_beta, x = np.broadcast_arrays(
        np.asarray(lo_beta, float), np.asarray(hi_beta, float), np.asarray(x, float)
    )
    upper = x > hi_beta  # past the top term both P are near 1: take the Q difference
    return np.where(
        upper,
        special.gammaincc(hi_beta, x) - special.gammaincc(lo_beta, x),
        special.gammainc(lo_beta, x) - special.gammainc(hi_beta, x),
    )


def truncated_r0(k: int, c: float, a: float, n: int, r) -> np.ndarray:
    """First n terms of the R0 series, sum_{j<n} r^{2j+2c} e^{-a r^{2k}} / m_j, for r > 0.

    Class s = j mod k keeps M_s terms and contributes
    a k r^{2k-2} [x^{beta_s-1} e^{-x}/Gamma(beta_s) + P(beta_s, x) - P(beta_s+M_s-1, x)].
    """
    r = np.asarray(r, dtype=float)
    x = a * r ** (2 * k)
    log_pre = math.log(a * k) + (2 * k - 2) * np.log(r)
    total = np.zeros_like(r)
    for s in range(min(k, n)):
        m_s = (n - s + k - 1) // k
        beta = (s + c + 1.0) / k
        total += np.exp(log_pre + _log_gamma_term(beta, x))
        if m_s > 1:
            total += np.exp(log_pre) * _p_minus_p(beta, beta + m_s - 1, x)
    return total


def disk_mass(k: int, c: float, a: float, radius: float) -> float:
    """Integral of R0 over |z| <= radius in dA = dxdy/pi: sum_j P((j+c+1)/k, a radius^{2k})."""
    x = a * radius ** (2 * k)
    terms = []
    j = 0
    while True:
        beta = (j + c + 1.0) / k
        p = float(special.gammainc(beta, x))
        terms.append(p)
        if beta > x and p < 1e-18 * max(1.0, math.fsum(terms)):
            break
        j += 1
    return math.fsum(terms)


def gamma_log_norms(k: int, c: float, a: float, n: int) -> np.ndarray:
    """ln m_j^(n) for Q = a r^{2k}: m_j^(n) = (1/k) (n a)^{-(j+c+1)/k} Gamma((j+c+1)/k)."""
    beta = (np.arange(n) + c + 1.0) / k
    return -beta * math.log(n * a) - math.log(k) + special.gammaln(beta)


class RadialQ:
    """Q(r) = sum_m q_m r^{2m}, written in t = r^2 as q(t) = sum_m q_m t^m."""

    def __init__(self, coeffs: dict[int, float]):
        self.coeffs = dict(coeffs)
        self.k = min(m for m, q in coeffs.items() if q != 0.0)

    def q(self, t: float) -> float:
        return sum(qm * t ** m for m, qm in self.coeffs.items())

    def tq1(self, t: float) -> float:
        """t q'(t), which equals r Q'(r)/2."""
        return sum(m * qm * t ** m for m, qm in self.coeffs.items())

    def normalized(self, c: float) -> "RadialQ":
        """lam Q with the r^{2k} coefficient set to (1+c)/k."""
        lam = (1.0 + c) / (self.k * self.coeffs[self.k])
        return RadialQ({m: lam * qm for m, qm in self.coeffs.items()})

    def _increasing_root(self, f) -> float:
        hi = 1.0
        while f(hi) < 0.0:
            hi *= 2.0
        return optimize.brentq(f, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)

    def droplet_radius(self) -> float:
        return math.sqrt(self._increasing_root(lambda t: self.tq1(t) - 1.0))

    def microscopic_scale(self, c: float, n: int) -> float:
        return math.sqrt(self._increasing_root(lambda t: n * self.tq1(t) - (1.0 + c)))

    def tau0(self) -> float:
        return (self.k * self.coeffs[self.k]) ** (-1.0 / (2 * self.k))

    def log_norm(self, c: float, n: int, j: int) -> float:
        """ln m_j^(n) = ln int_0^inf t^{j+c} e^{-n q(t)} dt by adaptive quadrature.

        With t = t* s, t* the mode (or the weight scale n q = 1 when the
        power is not positive), the integrand is at most 1; below power 1
        the t^{j+c} factor on [0, t*] goes into an algebraic quadrature weight.
        """
        e = j + c
        if e > 0:
            ts = self._increasing_root(lambda t: n * self.tq1(t) - e)
        else:
            ts = self._increasing_root(lambda t: n * self.q(t) - 1.0)
        qs = self.q(ts)
        g = lambda s: e * math.log(s) - n * (self.q(ts * s) - qs)
        if e < 1.0:
            f = lambda s: math.exp(-n * (self.q(ts * s) - qs))
            inner, _ = integrate.quad(f, 0.0, 1.0, weight="alg", wvar=(e, 0.0),
                                      epsabs=0.0, epsrel=1e-13, limit=200)
        else:
            inner, _ = integrate.quad(lambda s: math.exp(g(s)), 0.0, 1.0,
                                      epsabs=0.0, epsrel=1e-13, limit=200)
        top = 2.0
        while g(top) > -60.0:
            top *= 2.0
        outer, _ = integrate.quad(lambda s: math.exp(g(s)), 1.0, top,
                                  epsabs=0.0, epsrel=1e-13, limit=200)
        return (e + 1.0) * math.log(ts) - n * qs + math.log(inner + outer)

    def rescaled_intensity(self, c: float, n: int, log_norms: np.ndarray, rn: float, z) -> np.ndarray:
        """R_n(z) = rn^2 sum_j (rn z)^{2j+2c} e^{-n Q(rn z)} / m_j^(n), z > 0."""
        j = np.arange(n)
        out = []
        for zz in np.asarray(z, dtype=float):
            t = (rn * zz) ** 2
            lt = (j + c) * math.log(t) - n * self.q(t) - log_norms
            out.append(rn * rn * math.exp(float(special.logsumexp(lt))))
        return np.array(out)


def ginibre_bins(n: int, c: float, a: float, edges) -> np.ndarray:
    """Exact bin-averaged intensity of Q = a r^2 in dA = dxdy/pi:
    sum_j [P(j+c+1, n a hi^2) - P(j+c+1, n a lo^2)] / (hi^2 - lo^2)."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    beta = np.arange(n)[:, None] + c + 1.0
    xlo, xhi = n * a * lo**2, n * a * hi**2
    # past the mode of term j both P are near 1: take the Q difference
    mass = np.where(
        xlo > beta,
        special.gammaincc(beta, xlo) - special.gammaincc(beta, xhi),
        special.gammainc(beta, xhi) - special.gammainc(beta, xlo),
    )
    return mass.sum(axis=0) / (hi**2 - lo**2)


def exact_moduli_cdf(k: int, c: float, a: float, n: int):
    """CDF of one modulus drawn from the pooled exact ensemble of Q = a r^{2k}:
    F(r) = (1/n) sum_j P((j+c+1)/k, n a r^{2k})."""
    beta = (np.arange(n) + c + 1.0) / k

    def cdf(r):
        x = n * a * np.asarray(r, dtype=float)[..., None] ** (2 * k)
        return special.gammainc(beta, x).mean(axis=-1)

    return cdf


def ks_pvalue(sample, cdf) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov p-value of ``sample`` against ``cdf``.

    Uses the limiting Kolmogorov distribution at sqrt(n) D with Stephens'
    small-sample correction (sqrt(n) + 0.12 + 0.11/sqrt(n)) D.
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    f = cdf(x)
    d = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
    sn = math.sqrt(n)
    return float(special.kolmogorov((sn + 0.12 + 0.11 / sn) * d))


def fixture_rows(path: Path) -> list[tuple[float, ...]]:
    """Rows (k, c, a, r, R0) of the 50-digit reference table, parsed directly."""
    rows = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            rows.append(tuple(float(v) for v in line))
    return rows


def fixture_selfcheck(path: Path) -> float:
    """Worst relative disagreement of r0() with the 50-digit table (0 where both vanish)."""
    worst = 0.0
    for k, c, a, r, ref in fixture_rows(path):
        got = float(r0(int(k), c, a, r)[0])
        if ref == 0.0:
            worst = max(worst, abs(got))
        else:
            worst = max(worst, abs(got / ref - 1.0))
    return worst
