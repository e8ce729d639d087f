import math

import numpy as np
import pytest

from focklab import (
    ConfigError,
    DivergenceError,
    HomogeneousHermitianPoly,
    IllConditionedError,
    MicroscopicPotential,
    NumericalError,
    bergman_density,
    bergman_function_r0,
    moment_matrix,
    truncated_kernel,
)
from focklab import general_bergman
from focklab.general_bergman import _density_rows

TWISTED = MicroscopicPotential(
    k=1, c=0.0,
    q0=HomogeneousHermitianPoly(2, {(1, 1): 1.0, (2, 0): 0.3, (0, 2): 0.3}),
)

GINIBRE = MicroscopicPotential(k=1, c=0.0, q0=HomogeneousHermitianPoly(2, {(1, 1): 1.0}))

TWISTED_K2 = MicroscopicPotential(
    k=2, c=0.5,
    q0=HomogeneousHermitianPoly(4, {(2, 2): 1.0, (4, 0): 0.2, (0, 4): 0.2, (3, 1): 0.1j, (1, 3): -0.1j}),
)

# the k = 2 mixed weight of the README's gram example: Q0 = |z|^4 + 0.6 Re(z^3 conj(z)), c = 1/2
MIXED = MicroscopicPotential(
    k=2, c=0.5,
    q0=HomogeneousHermitianPoly(4, {(2, 2): 1.0, (3, 1): 0.3, (1, 3): 0.3}),
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

    def test_coarse_grid_is_refused(self, monkeypatch):
        # on 16 angles q^{-pw} aliases visibly: every other angle gives moments more than 1e-12 apart
        monkeypatch.setattr(general_bergman, "_ANGULAR_POINTS", 8)
        with pytest.raises(NumericalError, match="did not converge under grid doubling"):
            moment_matrix(TWISTED, 12)

    @pytest.mark.parametrize("k,c,a,N", [(1, 0.0, 1.0, 171), (1, 3.0, 1.0, 168), (2, 0.5, 1.0, 342), (1, 0.0, 0.5, 150)])
    def test_last_order_inside_the_float_range(self, k, c, a, N, monkeypatch):
        # the top moment Gamma((N+c)/k)/k a^{-(N+c)/k} and twice it stay finite at N, not at N + 1
        p = MicroscopicPotential(k=k, c=c, q0=HomogeneousHermitianPoly(2 * k, {(k, k): a}))
        tk = truncated_kernel(moment_matrix(p, N))
        assert bergman_density(tk, p, 0.5) == pytest.approx(bergman_function_r0(k, c, a, 0.5), rel=1e-12)
        monkeypatch.setattr(general_bergman, "_assemble", lambda *args: pytest.fail("assembled"))
        with pytest.raises(NumericalError, match=f"overflow double precision at N={N + 1}"):
            moment_matrix(p, N + 1)


class TestTruncatedKernel:
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

    def test_twisted_density_near_flat(self):
        tk = truncated_kernel(moment_matrix(TWISTED, 36))
        err2 = max(abs(bergman_density(tk, TWISTED, z) - 1.0) for z in disk_grid(2.0))
        err1 = max(abs(bergman_density(tk, TWISTED, z) - 1.0) for z in disk_grid(1.0))
        assert err2 <= 3e-2
        assert err1 <= 4e-5

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

    @pytest.mark.parametrize("p,N", [(TWISTED, 24), (TWISTED_K2, 16)])
    def test_leading_rows_are_the_lower_order_density(self, p, N):
        # the basis rows are the orthonormal polynomials in degree order, so the first N/2 rows of
        # the order-N kernel sum to the order-N/2 density; the two factorizations round differently
        tk = truncated_kernel(moment_matrix(p, N))
        z = disk_grid(2.0)
        rows, total = _density_rows(tk, z)
        assert rows.shape == (N, z.size)
        np.testing.assert_array_equal(rows.sum(axis=0), total)
        np.testing.assert_array_equal(total, bergman_density(tk, p, z))
        low = bergman_density(truncated_kernel(moment_matrix(p, N // 2)), p, z)
        np.testing.assert_allclose(rows[:N // 2].sum(axis=0), low, rtol=64 * tk.condition * EPS, atol=0.0)

    def test_far_points_give_zero_without_warning(self):
        # e^{-|z|^2} underflows at |z| = 30; the suite turns any RuntimeWarning into an error
        tk = truncated_kernel(moment_matrix(GINIBRE, 6))
        assert bergman_density(tk, GINIBRE, 30.0) == 0.0
        assert np.all(bergman_density(tk, GINIBRE, disk_grid(3.0)) < 1.0)

    @pytest.mark.parametrize("p,N", [(GINIBRE, 48), (TWISTED, 36), (MIXED, 44)])
    @pytest.mark.parametrize("r", [1e10, 1e80, 1e200, 1e300])
    def test_far_points_give_zero(self, p, N, r):
        # z^j alone passes the largest double at these radii, and Q0 does where |z|^{2k} > 1e308
        tk = truncated_kernel(moment_matrix(p, N))
        assert bergman_density(tk, p, r * np.exp(0.3j)) == 0.0
        np.testing.assert_array_equal(bergman_density(tk, p, r * np.exp(1j * np.arange(4.0))), 0.0)

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
        tkn = truncated_kernel(moment_matrix(neg, 16))
        with pytest.raises(DivergenceError):
            bergman_density(tkn, neg, np.array([0.5, 0.0]))
        # a point that is not finite is refused at every charge, in or out of an array
        for tk, p in ((tk0, GINIBRE), (tkn, neg)):
            for z in (math.nan, math.inf, complex(0.5, math.nan), complex(math.inf, 0.0), [0.5, math.inf]):
                with pytest.raises(ConfigError, match="points must be finite"):
                    bergman_density(tk, p, z)

    def test_overflow_near_the_origin_is_refused(self):
        # |z|^{2c} = 1e540 at |z| = 1e-300, c = -0.9: past the largest double, without a RuntimeWarning
        p = MicroscopicPotential(k=1, c=-0.9, q0=GINIBRE.q0)
        tk = truncated_kernel(moment_matrix(p, 16))
        with pytest.raises(DivergenceError, match="series overflow"):
            bergman_density(tk, p, 1e-300)
        with pytest.raises(DivergenceError, match="series overflow"):
            bergman_density(tk, p, np.array([0.5, 1e-300j]))
        assert math.isfinite(bergman_density(tk, p, 1e-100))
        # |z|^c = 1e317 at |z| = 1e-320, c = -0.99: the factor itself passes the largest double
        p = MicroscopicPotential(k=1, c=-0.99, q0=GINIBRE.q0)
        tk = truncated_kernel(moment_matrix(p, 16))
        with pytest.raises(DivergenceError, match="series overflow"):
            bergman_density(tk, p, 1e-320)
        with pytest.raises(DivergenceError, match="series overflow"):
            bergman_density(tk, p, np.array([0.5, 1e-320j]))

    def test_kernel_potential_mismatch(self):
        tk = truncated_kernel(moment_matrix(GINIBRE, 8))
        other = MicroscopicPotential(k=1, c=1.0, q0=GINIBRE.q0)
        with pytest.raises(ConfigError):
            bergman_density(tk, other, 0.5)
        # TWISTED and GINIBRE share (k, c) = (1, 0), so only the kernel's weight tells them apart; the
        # TWISTED kernel on the Ginibre weight would give 1.1618 at z = 0.5 and 0.8607 at z = 0.5i
        A = moment_matrix(TWISTED, 24)
        tk = truncated_kernel(A)
        assert A.weight is TWISTED and tk.weight is TWISTED
        for z in (0.5, 0.5j, [0.5, 0.5j]):
            with pytest.raises(ConfigError, match="differs from the weight the kernel was built from"):
                bergman_density(tk, GINIBRE, z)
        # an equal weight built anew is the kernel's weight
        same = MicroscopicPotential(k=1, c=0.0, q0=HomogeneousHermitianPoly(2, dict(TWISTED.q0.coeffs)))
        assert bergman_density(tk, same, 0.5) == bergman_density(tk, TWISTED, 0.5)
