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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, IllConditionedError, NotPositiveDefiniteError, NumericalError
from .potentials import MicroscopicPotential

__all__ = ["MomentMatrix", "TruncatedKernel", "moment_matrix", "truncated_kernel", "bergman_density"]

COND_LIMIT = 1e12
_TAIL_WARN = 1e-8
_ANGULAR_POINTS = 512


def _assemble(p: MicroscopicPotential, N: int, M: int) -> np.ndarray:
    theta = 2 * np.pi * np.arange(M) / M
    q = p.q0.angular_profile(theta)
    if np.any(q <= 0):
        raise NumericalError("angular profile not positive on the quadrature grid")
    k, c = p.k, p.c
    A = np.zeros((N, N), dtype=complex)
    for d in range(2 * N - 1):
        pw = (d + 2 * c + 2.0) / (2 * k)
        # mean over theta of e^{i(i-j)theta} q^{-pw}, all frequencies at once
        F = np.fft.fft(q ** (-pw)) / M
        radial = math.exp(math.lgamma(pw) - math.log(k))
        i = np.arange(max(0, d - N + 1), min(d, N - 1) + 1)
        A[i, d - i] = radial * F[(d - 2 * i) % M]
    return A


def moment_matrix(p: MicroscopicPotential, N: int) -> "MomentMatrix":
    """Moment matrix A_ij, 0 <= i,j < N, for the weight |z|^{2c} e^{-Q0}.

    The angular factor uses periodic trapezoid quadrature (spectrally exact
    up to rounding for trigonometric-polynomial q) and is re-checked on a
    doubled grid to 1e-12.
    """
    if not (isinstance(N, int) and N >= 1):
        raise ConfigError(f"N must be an integer >= 1, got {N}")
    A = _assemble(p, N, _ANGULAR_POINTS)
    A2 = _assemble(p, N, 2 * _ANGULAR_POINTS)
    scale = np.abs(A2).max()
    if np.abs(A - A2).max() > 1e-12 * scale:
        raise NumericalError("angular quadrature did not converge under grid doubling")
    asym = np.abs(A - A.conj().T).max()
    if asym > 1e-12 * scale:
        raise NumericalError(f"moment matrix not Hermitian to tolerance (asymmetry {asym:.2e})")
    A = 0.5 * (A + A.conj().T)
    return MomentMatrix(k=p.k, c=p.c, N=N, entries=A, scale=np.sqrt(np.real(np.diag(A))))


@dataclass(frozen=True)
class MomentMatrix:
    """Hermitian monomial Gram matrix with its diagonal preconditioner."""

    k: int
    c: float
    N: int
    entries: np.ndarray
    scale: np.ndarray

    @property
    def scaled(self) -> np.ndarray:
        """Unit-diagonal preconditioned matrix A_ij / (s_i s_j)."""
        return self.entries / np.outer(self.scale, self.scale)


def truncated_kernel(A: MomentMatrix) -> "TruncatedKernel":
    """Orthonormal polynomials of degree < N from the moment matrix.

    Refuses truncation orders whose scaled condition number exceeds the
    guardrail: beyond it the inverse Cholesky factor carries no
    retrievable accuracy in double precision.
    """
    As = A.scaled
    cond = float(np.linalg.cond(As))
    if cond > COND_LIMIT:
        raise IllConditionedError(
            f"scaled moment matrix condition {cond:.3e} exceeds {COND_LIMIT:.1e} "
            f"at N={A.N}; reduce the truncation order"
        )
    try:
        chol = np.linalg.cholesky(As)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"moment matrix not positive definite: {exc}") from exc
    return TruncatedKernel(k=A.k, c=A.c, N=A.N, basis=np.linalg.inv(chol) / A.scale, condition=cond)


@dataclass(frozen=True)
class TruncatedKernel:
    """L^(N)(z,w) = sum_{j<N} p_j(z) conj(p_j(w)); row j of basis holds the monomial coefficients of p_j."""

    k: int
    c: float
    N: int
    basis: np.ndarray
    condition: float


def bergman_density(tk: TruncatedKernel, p: MicroscopicPotential, z):
    """Weighted diagonal L^(N)(z,z) |z|^{2c} e^{-Q0(z)}, damped at the vector level.

    Scalar in, scalar out, elementwise on arrays.  The monomial block is
    premultiplied by |z|^c e^{-Q0/2} so no intermediate reaches e^{+Q0},
    and one product with the basis serves every point.  Warns once per call
    when the tail indicator |z|^{2N} ||G row N-1|| |z|^{2c} e^{-Q0}, with G
    the inverse moment matrix, suggests the truncation order is too small
    for some z.
    """
    if p.k != tk.k or p.c != tk.c:
        raise ConfigError("kernel and potential disagree on (k, c)")
    zz = np.asarray(z, dtype=complex)
    flat = zz.reshape(-1)
    az = np.abs(flat)
    if tk.c < 0 and np.count_nonzero(az) < az.size:
        raise DivergenceError("density diverges at z = 0 for c < 0")
    q = p.evaluate(complex(zz) if zz.ndim == 0 else flat)  # a scalar takes the faster Python arithmetic
    y = tk.basis @ (flat ** np.arange(tk.N)[:, None] * (az**tk.c * np.exp(-0.5 * q)))
    value = (y * y.conj()).real.sum(axis=0)
    # the basis is lower triangular, so row N-1 of G = basis^T conj(basis) is basis[-1, -1] conj(basis[-1])
    tail = abs(tk.basis[-1, -1]) * np.linalg.norm(tk.basis[-1])
    ind = az ** (2 * (tk.N + tk.c)) * tail * np.exp(-q)
    excess = ind / np.maximum(1.0, value)
    if np.any(excess > _TAIL_WARN):
        i = int(np.argmax(excess))
        warnings.warn(
            f"truncation order N={tk.N} may be too small at |z|={az[i]:.3g} "
            f"(tail indicator {ind[i]:.2e})",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(value[0]) if zz.ndim == 0 else value.reshape(zz.shape)
