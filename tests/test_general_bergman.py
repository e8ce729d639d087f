import math
import warnings

import numpy as np
import pytest

from focklab import (
    ConfigError,
    DivergenceError,
    HomogeneousHermitianPoly,
    IllConditionedError,
    MicroscopicPotential,
    bergman_density,
    moment_matrix,
    truncated_kernel,
)

TWISTED = MicroscopicPotential(
    k=1, c=0.0,
    q0=HomogeneousHermitianPoly(2, {(1, 1): 1.0, (2, 0): 0.3, (0, 2): 0.3}),
)

GINIBRE = MicroscopicPotential(k=1, c=0.0, q0=HomogeneousHermitianPoly(2, {(1, 1): 1.0}))

TWISTED_K2 = MicroscopicPotential(
    k=2, c=0.5,
    q0=HomogeneousHermitianPoly(4, {(2, 2): 1.0, (4, 0): 0.2, (0, 4): 0.2, (3, 1): 0.1j, (1, 3): -0.1j}),
)

EPS = np.finfo(float).eps


def disk_grid(rmax, nr=8, ntheta=12, rmin=0.1):
    r = np.linspace(rmin, rmax, nr)
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()


class TestMomentMatrix:
    def test_radial_gives_diagonal_factorials(self):
        A = moment_matrix(GINIBRE, 12)
        diag = np.real(np.diag(A.entries))
        for j in range(12):
            assert diag[j] == pytest.approx(math.factorial(j), rel=1e-13)
        off = A.entries - np.diag(np.diag(A.entries))
        assert np.max(np.abs(off)) <= 1e-12 * diag.max()

    def test_twisted_gaussian_total_mass(self):
        # int e^{-1.6x^2 - 0.4y^2} dxdy / pi = 1/sqrt(0.64) = 1.25 exactly
        A = moment_matrix(TWISTED, 6)
        assert A.entries[0, 0].real == pytest.approx(1.25, rel=1e-12)
        assert abs(A.entries[0, 0].imag) < 1e-14

    def test_hermitian_and_preconditioned(self):
        A = moment_matrix(TWISTED, 10)
        np.testing.assert_array_equal(A.entries, A.entries.conj().T)
        np.testing.assert_allclose(np.diag(A.scaled).real, 1.0, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ConfigError):
            moment_matrix(GINIBRE, 0)


class TestTruncatedKernel:
    @pytest.mark.filterwarnings("ignore:truncation order:RuntimeWarning")
    def test_radial_kernel_is_truncated_exponential(self):
        # Ginibre's orthonormal polynomials are z^j / sqrt(j!)
        tk = truncated_kernel(moment_matrix(GINIBRE, 24))
        r = np.array([0.7, 2.7, 3.5])
        want = np.exp(-r * r) * sum(r ** (2 * j) / math.factorial(j) for j in range(24))
        np.testing.assert_allclose(bergman_density(tk, GINIBRE, r * np.exp(0.3j)), want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("p,N", [(TWISTED, 12), (TWISTED, 24), (TWISTED_K2, 16)])
    def test_basis_is_orthonormal(self, p, N):
        # the Gram matrix of the p_j is B A B^H; TWISTED_K2's complex moments pin the conjugation
        A = moment_matrix(p, N)
        tk = truncated_kernel(A)
        gram = tk.basis @ A.entries @ tk.basis.conj().T
        assert np.max(np.abs(gram - np.eye(N))) <= 64 * tk.condition * EPS

    def test_condition_grows_with_order(self):
        c24 = truncated_kernel(moment_matrix(TWISTED, 24)).condition
        c36 = truncated_kernel(moment_matrix(TWISTED, 36)).condition
        assert 1.0 < c24 < c36

    def test_refuses_unretrievable_order(self):
        with pytest.raises(IllConditionedError):
            truncated_kernel(moment_matrix(TWISTED, 48))


class TestBergmanDensity:
    def test_radial_density_flat(self):
        tk = truncated_kernel(moment_matrix(GINIBRE, 24))
        for z in disk_grid(1.8):
            assert bergman_density(tk, GINIBRE, z) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.filterwarnings("ignore:truncation order:RuntimeWarning")
    def test_twisted_density_near_flat(self):
        tk = truncated_kernel(moment_matrix(TWISTED, 36))
        err2 = max(abs(bergman_density(tk, TWISTED, z) - 1.0) for z in disk_grid(2.0))
        err1 = max(abs(bergman_density(tk, TWISTED, z) - 1.0) for z in disk_grid(1.0))
        assert err2 <= 3e-2
        assert err1 <= 4e-5

    @pytest.mark.filterwarnings("ignore:truncation order:RuntimeWarning")
    def test_error_decreases_with_order(self):
        grid = disk_grid(2.0)
        sups = []
        for N in (24, 30, 36):
            tk = truncated_kernel(moment_matrix(TWISTED, N))
            sups.append(max(abs(bergman_density(tk, TWISTED, z) - 1.0) for z in grid))
        assert sups[0] > sups[1] > sups[2]

    @pytest.mark.xfail(
        raises=IllConditionedError,
        reason="N=40 needs a scaled condition number of 3.4e12, past the 1e12 "
        "double-precision guardrail, so the 1e-6 accuracy target is unreachable",
    )
    def test_twisted_density_tight_accuracy(self):
        tk = truncated_kernel(moment_matrix(TWISTED, 40))
        err = max(abs(bergman_density(tk, TWISTED, z) - 1.0) for z in disk_grid(1.0))
        assert err <= 1e-6

    def test_origin_branches(self):
        tk0 = truncated_kernel(moment_matrix(GINIBRE, 16))
        assert bergman_density(tk0, GINIBRE, 0.0) == pytest.approx(1.0, abs=1e-12)
        pos = MicroscopicPotential(k=1, c=1.0, q0=GINIBRE.q0)
        tkp = truncated_kernel(moment_matrix(pos, 16))
        assert bergman_density(tkp, pos, 0.0) == 0.0
        neg = MicroscopicPotential(k=1, c=-0.5, q0=GINIBRE.q0)
        tkn = truncated_kernel(moment_matrix(neg, 16))
        with pytest.raises(DivergenceError):
            bergman_density(tkn, neg, 0.0)

    def test_warns_when_truncation_too_small(self):
        tk = truncated_kernel(moment_matrix(GINIBRE, 6))
        with pytest.warns(RuntimeWarning):
            bergman_density(tk, GINIBRE, 2.5)

    def test_array_warns_once(self):
        tk = truncated_kernel(moment_matrix(GINIBRE, 6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bergman_density(tk, GINIBRE, disk_grid(3.0))
        assert [w.category for w in caught] == [RuntimeWarning]
        assert str(caught[0].message).startswith("truncation order N=6 may be too small")

    @pytest.mark.filterwarnings("ignore:truncation order:RuntimeWarning")
    @pytest.mark.parametrize("p,N", [(GINIBRE, 16), (TWISTED, 24), (TWISTED_K2, 16)])
    def test_array_matches_pointwise(self, p, N):
        tk = truncated_kernel(moment_matrix(p, N))
        z = np.concatenate([[0.0], disk_grid(2.0)]).reshape(-1, 1)  # the shape is kept
        want = np.vectorize(lambda x: bergman_density(tk, p, x))(z)
        # one basis product on a block sums in another order than one per point
        np.testing.assert_allclose(bergman_density(tk, p, z), want, rtol=64 * tk.condition * EPS, atol=0.0)

    def test_origin_in_an_array(self):
        tk0 = truncated_kernel(moment_matrix(GINIBRE, 16))
        np.testing.assert_allclose(bergman_density(tk0, GINIBRE, [0.0, 0.5]), 1.0, atol=1e-12)
        pos = MicroscopicPotential(k=1, c=1.0, q0=GINIBRE.q0)
        assert bergman_density(truncated_kernel(moment_matrix(pos, 16)), pos, [0.0, 0.5])[0] == 0.0
        neg = MicroscopicPotential(k=1, c=-0.5, q0=GINIBRE.q0)
        with pytest.raises(DivergenceError):
            bergman_density(truncated_kernel(moment_matrix(neg, 16)), neg, np.array([0.5, 0.0]))

    def test_kernel_potential_mismatch(self):
        tk = truncated_kernel(moment_matrix(GINIBRE, 8))
        other = MicroscopicPotential(k=1, c=1.0, q0=GINIBRE.q0)
        with pytest.raises(ConfigError):
            bergman_density(tk, other, 0.5)
