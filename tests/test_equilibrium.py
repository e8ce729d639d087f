import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from focklab import (
    AsymptoticReport,
    ConfigError,
    HomogeneousHermitianPoly,
    MacroscopicPotential,
    MicroscopicPotential,
    canonical_decompose,
    droplet_radius,
    microscale_asymptotic_check,
    microscopic_scale,
)
from focklab import equilibrium
from conftest import SOLVER_POTENTIALS
from focklab.finite_kernel import _rows


def radial(coeffs, c=0.0):
    return MacroscopicPotential(kind="radial", c=c, radial_coeffs=coeffs)




def mp_mass_root(coeffs, m):
    """The r > 0 with r Q'(r)/2 = sum j q_j r^{2j} = m, to 50 digits, from the roots in x = r^2."""
    with mp.workdps(50):
        poly = [j * mp.mpf(coeffs.get(j, 0.0)) for j in range(max(coeffs), 0, -1)] + [-mp.mpf(m)]
        xs = [x.real for x in mp.polyroots(poly, maxsteps=200, extraprec=200)
              if abs(x.imag) < mp.mpf(10) ** -40 and x.real > 0]
        assert len(xs) == 1
        return mp.sqrt(xs[0])


class TestDropletRadius:
    def test_closed_forms(self):
        assert droplet_radius(radial({1: 1.0})) == pytest.approx(1.0, rel=1e-13)
        assert droplet_radius(radial({2: 1.0})) == pytest.approx(2.0 ** -0.25, rel=1e-13)
        assert droplet_radius(radial({1: 1.0, 2: 1.0})) == pytest.approx(2.0 ** -0.5, rel=1e-13)

    def test_unit_mass_inside_droplet(self):
        Q = radial({1: 0.7, 2: 0.3, 3: 0.1})
        R = droplet_radius(Q)
        # Delta Q = sum m^2 q_m r^{2m-2}
        mass, _ = quad(lambda r: 2.0 * r * (0.7 + 4 * 0.3 * r**2 + 9 * 0.1 * r**4), 0.0, R)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_non_monotone_rejected(self):
        with pytest.raises(ConfigError):
            droplet_radius(radial({1: 1.0, 2: -0.6, 3: 0.15}))

    @pytest.mark.parametrize("coeffs", SOLVER_POTENTIALS)
    def test_matches_mpmath(self, coeffs):
        R = droplet_radius(radial(coeffs))
        assert abs(R / mp_mass_root(coeffs, 1) - 1) <= 1e-15

    def test_requires_radial(self):
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs={(1, 1): 1.0, (2, 0): 0.2, (0, 2): 0.2})
        with pytest.raises(ConfigError):
            droplet_radius(Q)


class TestModulusTau0:
    """tau0 = (k a_kk)^{-1/2k}: a_kk, the amplitude of the split's Q0, is (1/k^2) times the circle mean of Delta Q0."""

    def test_closed_forms(self):
        assert microscale_asymptotic_check(radial({1: 1.0}), 0.0, [100]).tau0 == pytest.approx(1.0, rel=1e-13)
        assert microscale_asymptotic_check(radial({2: 1.0}), 0.0, [100]).tau0 == pytest.approx(
            2.0 ** -0.25, rel=1e-13
        )

    def test_harmonic_twist_does_not_shift(self):
        Q = MacroscopicPotential(kind="hermitian", hermitian_coeffs={(1, 1): 1.0, (2, 0): 0.3, (0, 2): 0.3})
        assert canonical_decompose(Q).q0.amplitude == 1.0

    def test_leading_block_of_perturbed_potential(self):
        Q = radial({1: 1.0, 2: 1.0})
        p = canonical_decompose(Q).q0
        assert (p.k, p.amplitude) == (1, 1.0)
        assert microscale_asymptotic_check(Q, 0.0, [100]).tau0 == pytest.approx(1.0, rel=1e-12)
        assert droplet_radius(Q) == pytest.approx(2.0 ** -0.5, rel=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_is_the_circle_mean(self, seed):
        # k^2 a_kk is the mean of Delta Q0 over the unit circle, on random twisted profiles; the twist is scaled
        # to at most a_kk/2 on the circle, so that Q0 is positive definite
        rng = np.random.default_rng(seed)
        k = 1 + seed % 3
        a_kk = rng.uniform(0.5, 2.0)
        twist = [complex(rng.normal(0.0, 0.2), rng.normal(0.0, 0.2)) for _ in range(k)]
        shrink = min(1.0, 0.25 * a_kk / sum(map(abs, twist)))
        coeffs = {(k, k): a_kk}
        for i, a in zip(range(k + 1, 2 * k + 1), twist):
            coeffs[(i, 2 * k - i)], coeffs[(2 * k - i, i)] = shrink * a, shrink * a.conjugate()
        q = HomogeneousHermitianPoly(2 * k, coeffs)
        theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        mean = float(np.mean(q.laplacian().angular_profile(theta)))
        Q = MacroscopicPotential(kind="hermitian", hermitian_coeffs=coeffs)
        assert canonical_decompose(Q).q0.amplitude == pytest.approx(mean / k**2, rel=1e-15)

    def test_cannot_infer_k_from_degree_zero(self):
        # so the split never gives tau0 a Q0 of degree 0
        with pytest.raises(ConfigError, match="q0 degree 0 != 2k = 2"):
            MicroscopicPotential(k=1, c=0.0, q0=HomogeneousHermitianPoly(0, {(0, 0): 1.0}))

    def test_refuses_a_zero_circle_mean(self):
        # Re(z^2 + conj(z)^2) has no |z|^2 term, so Delta Q0 averages to 0 on the circle: Q0 is not positive
        # definite, and the split never gives tau0 an a_kk <= 0
        with pytest.raises(ConfigError, match="q0 not positive definite"):
            MicroscopicPotential(k=1, c=0.0, q0=HomogeneousHermitianPoly(2, {(2, 0): 1.0, (0, 2): 1.0}))


class TestMicroscopicScale:
    def test_closed_forms(self):
        assert microscopic_scale(radial({1: 1.0}), 0.0, 100) == pytest.approx(0.1, rel=1e-12)
        assert microscopic_scale(radial({1: 1.0}, c=1.0), 1.0, 100) == pytest.approx(
            math.sqrt(2.0 / 100.0), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            radial({1: 1.0}, c=-1.0)
        with pytest.raises(ConfigError):
            microscopic_scale(radial({1: 1.0}), 0.0, 0)

    def test_scale_must_stay_inside_droplet(self):
        with pytest.raises(ConfigError):
            microscopic_scale(radial({1: 1.0}, c=1.0), 1.0, 1)
        with pytest.raises(ConfigError):
            microscopic_scale(radial({1: 1.0}, c=0.5), 0.5, np.array([4, 1]))
        # (1 + c)/n = 1 is the droplet edge itself
        assert microscopic_scale(radial({1: 1.0}, c=1.0), 1.0, 2) == droplet_radius(radial({1: 1.0}))

    def test_non_monotone_rejected(self):
        with pytest.raises(ConfigError):
            microscopic_scale(radial({1: 1.0, 2: -0.6, 3: 0.15}), 0.0, 100)

    @pytest.mark.parametrize("coeffs", SOLVER_POTENTIALS)
    @pytest.mark.parametrize("c", [-0.5, 0.0, 1.0])
    def test_matches_mpmath(self, coeffs, c):
        Q = radial(coeffs, c)
        n = np.array([3, 4, 16, 256, 10_000])
        rn = microscopic_scale(Q, c, n)
        for m, r in zip(n, rn):
            assert abs(r / mp_mass_root(coeffs, (1 + mp.mpf(c)) / int(m)) - 1) <= 1e-15

    @pytest.mark.parametrize("coeffs", SOLVER_POTENTIALS)
    def test_scalar_calls_are_array_elements(self, coeffs):
        # each element of the solver stops on its own step
        Q = radial(coeffs, c=0.5)
        n = np.array([[3, 4, 5], [16, 256, 10_000]])
        rn = microscopic_scale(Q, 0.5, n)
        assert rn.shape == n.shape
        assert rn.ravel().tolist() == [microscopic_scale(Q, 0.5, int(m)) for m in n.ravel()]
        assert isinstance(microscopic_scale(Q, 0.5, 16), float)
        t = equilibrium._ln_mass_roots(Q, np.array([1.0, 0.25, 1.5 / 16]))
        assert np.exp(t[0]) == droplet_radius(Q)
        assert t.tolist() == [float(equilibrium._ln_mass_roots(Q, m)) for m in (1.0, 0.25, 1.5 / 16)]

    def test_charge_mass_balance_by_quadrature(self):
        # n * (mass of Delta Q inside r_n) recovers 1 + c
        c, n = 0.5, 50
        Q = radial({1: 1.0, 2: 1.0}, c)
        rn = microscopic_scale(Q, c, n)
        mass, _ = quad(lambda r: 2.0 * r * (1.0 + 4 * r**2), 0.0, rn)  # Delta Q of r^2 + r^4
        assert n * mass == pytest.approx(1.0 + c, abs=1e-10)

    @pytest.mark.parametrize("coeffs", [{1: 1.0}, {2: 1.0}, {1: 1.0, 2: 1.0}, {2: 1.0, 3: 1.0}])
    @pytest.mark.parametrize("c", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("n", [16, 256])
    def test_matches_the_mode_of_the_first_norm(self, coeffs, c, n):
        # row 0 of the finite-n norms peaks where n r Q'(r) = 2c + 2: the same equation,
        # solved by the same solver, gives the same bits
        Q = radial(coeffs, c)
        t_star = _rows(Q, n)[1][0]
        assert microscopic_scale(Q, c, n) == float(np.exp(t_star))

    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=-0.5, max_value=2.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.integers(min_value=4, max_value=10_000),
    )
    def test_homogeneous_exactness(self, k, c, a, n):
        Q = radial({k: a}, c)
        tau0 = (a * k) ** (-1.0 / (2 * k))
        want = tau0 * ((1.0 + c) / n) ** (1.0 / (2 * k))
        assert microscopic_scale(Q, c, n) == pytest.approx(want, rel=1e-12)


class TestAsymptotics:
    def test_quartic_correction_decay(self):
        rep = microscale_asymptotic_check(radial({1: 1.0, 2: 1.0}), 0.0, [100, 400, 1600])
        assert rep.k == 1 and rep.tau0 == pytest.approx(1.0, rel=1e-12)
        # deviation from the homogeneous law decays like 1/n
        assert rep.en[1] / rep.en[0] == pytest.approx(0.25, abs=0.05)
        assert rep.en[2] / rep.en[1] == pytest.approx(0.25, abs=0.05)
        assert rep.C == pytest.approx(0.0966565568, rel=1e-4)
        assert rep.bound_ok

    def test_homogeneous_deviation_is_zero(self):
        rep = microscale_asymptotic_check(radial({2: 1.0}, c=1.0), 1.0, [10, 100, 1000])
        assert np.max(np.abs(rep.en)) < 1e-11
        assert rep.bound_ok

    def test_bound_fails_when_the_deviation_grows(self):
        # C = max |e_n| n^{1/2k} bounds every e_n by construction; the law bounds them by the constant at n = 100
        n = np.array([100, 400, 1600])
        en = np.array([1e-3, 1e-3, 1e-3])
        rep = AsymptoticReport(k=1, c=0.0, tau0=1.0, n=n, rn=0.1 * n**-0.5, en=en, C=float(np.max(en * n**0.5)))
        assert not rep.bound_ok
        assert rep._replace(en=en * (100 / n) ** 0.5).bound_ok

    def test_empty_n_list(self):
        with pytest.raises(ConfigError):
            microscale_asymptotic_check(radial({1: 1.0}), 0.0, [])

    def test_one_droplet_per_check(self, monkeypatch):
        calls = []
        solve = equilibrium._ln_mass_roots

        def counted(Q, m):
            calls.append(m)
            return solve(Q, m)

        monkeypatch.setattr(equilibrium, "_ln_mass_roots", counted)
        Q = radial({1: 1.0, 2: 1.0}, c=0.5)
        rep = microscale_asymptotic_check(Q, 0.5, [16, 64, 256])
        # one solver call, for the droplet and every n at once
        assert len(calls) == 1 and calls[0].size == 4
        # the scales are those of separate microscopic_scale calls, bit for bit
        np.testing.assert_array_equal(rep.rn, [microscopic_scale(Q, 0.5, n) for n in (16, 64, 256)])
