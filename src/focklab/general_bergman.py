"""Bergman kernels for non-radial homogeneous weights via moment matrices.

For Q0 positive definite homogeneous of degree 2k the monomial moments
A_ij = int z^i conj(z)^j |z|^{2c} e^{-Q0} dA factor into an exact radial
gamma integral times an angular average of q(theta)^{-(i+j+2c+2)/(2k)},
q(theta) = Q0(e^{i theta}).  The truncated reproducing kernel is held as
its orthonormal basis: row j of the inverse Cholesky factor of A holds the
monomial coefficients of the orthonormal polynomial p_j, and the Bergman
density is sum_j |p_j(z)|^2 |z|^{2c} e^{-Q0}.  Raw moments grow
factorially, so the matrix is preconditioned to unit diagonal and
factorization is refused when the scaled condition number exceeds 1e12.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IllConditionedError, NotPositiveDefiniteError, NumericalError
from .potentials import MicroscopicPotential, _check_int, _check_overflow, _check_points, _log_power

__all__ = ["MomentMatrix", "TruncatedKernel", "moment_matrix", "truncated_kernel", "bergman_density"]

COND_LIMIT = 1e12
_ANGULAR_POINTS = 512


def _assemble(p: MicroscopicPotential, N: int, q: np.ndarray) -> tuple[np.ndarray, float]:
    """A_ij, i, j < N, from the angular profile q at theta = 2 pi m / M, m < M = q.size, and the largest change of
    an entry on the grid q[::2]: by the trapezoid rule's aliasing, that is radial * F at frequency j - i + M/2."""
    k, c, M = p.k, p.c, q.size
    A = np.zeros((N, N), dtype=complex)
    change = 0.0
    for d in range(2 * N - 1):
        pw = (d + 2 * c + 2.0) / (2 * k)
        # mean over theta of e^{-i f theta} q^{-pw}, all frequencies at once; q is real, so F(-f) = conj F(f)
        F = np.fft.rfft(q ** (-pw)) / M
        F = np.concatenate((F, F[-2:0:-1].conj()))
        radial = math.exp(math.lgamma(pw) - math.log(k))
        i = np.arange(max(0, d - N + 1), min(d, N - 1) + 1)
        A[i, d - i] = radial * F[(d - 2 * i) % M]
        change = max(change, radial * np.abs(F[(d - 2 * i + M // 2) % M]).max())
    return A, change


def moment_matrix(p: MicroscopicPotential, N: int) -> "MomentMatrix":
    """Moment matrix A_ij, 0 <= i,j < N, for the weight |z|^{2c} e^{-Q0}.

    The angular factor uses periodic trapezoid quadrature (spectrally exact
    up to rounding for trigonometric-polynomial q), Hermitian by construction,
    and its change on a halved grid is held to 1e-12.  An N whose moments pass the largest double is refused first.
    """
    N = _check_int(N, "N", 1)
    q = p.q0.angular_profile(np.pi * np.arange(2 * _ANGULAR_POINTS) / _ANGULAR_POINTS)
    if not q.min() > 0:
        raise NumericalError("angular profile not positive on the quadrature grid")
    pw = (N + p.c) / p.k  # top moments: Gamma(pw)/k times means of q^-pw <= min(q)^-pw, with a factor 2 to spare
    log_gamma = math.lgamma(pw) - math.log(p.k)
    if max(log_gamma, log_gamma + math.log(2.0) - pw * math.log(q.min())) > math.log(np.finfo(float).max):
        raise NumericalError(f"moments of degree {2 * N - 2} overflow double precision at N={N}; reduce N")
    A, change = _assemble(p, N, q)
    if change > 1e-12 * np.abs(A).max():
        raise NumericalError("angular quadrature did not converge under grid doubling")
    return MomentMatrix(weight=p, entries=A, scale=np.sqrt(np.real(np.diag(A))))


class MomentMatrix(NamedTuple):
    """Hermitian monomial Gram matrix of the weight |z|^{2c} e^{-Q0} with its diagonal preconditioner."""

    weight: MicroscopicPotential
    entries: np.ndarray
    scale: np.ndarray

    @property
    def scaled(self) -> np.ndarray:
        """Unit-diagonal preconditioned matrix A_ij / (s_i s_j)."""
        return self.entries / np.outer(self.scale, self.scale)


def truncated_kernel(A: MomentMatrix) -> "TruncatedKernel":
    """Orthonormal polynomials of degree < N from the moment matrix.

    Refuses an order N whose scaled condition number exceeds the
    guardrail: beyond it the inverse Cholesky factor carries no
    retrievable accuracy in double precision.
    """
    As = A.scaled
    cond = float(np.linalg.cond(As))
    if cond > COND_LIMIT:
        raise IllConditionedError(
            f"scaled moment matrix condition {cond:.3e} exceeds {COND_LIMIT:.1e} "
            f"at N={A.scale.size}; reduce N"
        )
    try:
        chol = np.linalg.cholesky(As)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"moment matrix not positive definite: {exc}") from exc
    return TruncatedKernel(weight=A.weight, basis=np.linalg.inv(chol) / A.scale, condition=cond)


class TruncatedKernel(NamedTuple):
    """L^(N)(z,w) = sum_{j<N} p_j(z) conj(p_j(w)) of the weight; row j of basis holds p_j's monomial coefficients."""

    weight: MicroscopicPotential
    basis: np.ndarray
    condition: float


def _density_rows(tk: TruncatedKernel, zz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|p_j(z)|^2 |z|^{2c} e^{-Q0(z)} for j < N (axis 0) at the points of zz, flattened (axis 1), and their sum.

    The basis rows are the orthonormal polynomials in degree order, so the
    first N' rows sum to the density of order N'.  The monomial block
    z^{j+c} e^{-Q0/2} is formed in the log domain, so no factor of it
    over- or underflows on its own, and one product with the basis serves
    every point; the phase e^{ic arg z} is the same for every j, so
    |p_j(z)|^2 does not see it.  Where Q0 passes the largest double it is
    +inf (HomogeneousHermitianPoly.evaluate), so the density is 0; where the
    block or the density does (near 0 for c < 0), it is refused.
    """
    p = tk.weight
    flat = _check_points(p.c, zz.reshape(-1))
    q = p.q0.evaluate(complex(zz) if zz.ndim == 0 else flat)  # a scalar takes the faster Python arithmetic
    # past the largest double a value is refused; ln 0 = -inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = tk.basis @ _check_overflow(np.exp(_log_power(np.arange(len(tk.basis))[:, None] + p.c, flat) - 0.5 * q))
        rows = (y * y.conj()).real
        return rows, _check_overflow(rows.sum(axis=0))


def bergman_density(tk: TruncatedKernel, p: MicroscopicPotential, z):
    """Weighted diagonal L^(N)(z,z) |z|^{2c} e^{-Q0(z)}, damped at the vector level.

    Scalar in, scalar out, elementwise on arrays.  The weight is the
    kernel's own; p must equal it, or ConfigError is raised.
    """
    if p != tk.weight:
        raise ConfigError("potential differs from the weight the kernel was built from")
    zz = np.asarray(z, dtype=complex)
    value = _density_rows(tk, zz)[1]
    return float(value[0]) if zz.ndim == 0 else value.reshape(zz.shape)
