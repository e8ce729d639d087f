import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from focklab import (
    ConfigError,
    HomogeneousHermitianPoly,
    MacroscopicPotential,
    MicroscopicPotential,
    droplet_radius,
    equilibrium_data,
    microscale_asymptotic_check,
    microscopic_scale,
    modulus_tau0,
)


def radial(coeffs, c=0.0):
    return MacroscopicPotential(kind="radial", c=c, radial_coeffs=coeffs)


class TestDropletRadius:
    def test_closed_forms(self):
        assert droplet_radius(radial({1: 1.0})) == pytest.approx(1.0, rel=1e-13)
        assert droplet_radius(radial({2: 1.0})) == pytest.approx(2.0 ** -0.25, rel=1e-13)
        assert droplet_radius(radial({1: 1.0, 2: 1.0})) == pytest.approx(2.0 ** -0.5, rel=1e-13)

    def test_unit_mass_inside_droplet(self):
        Q = radial({1: 0.7, 2: 0.3, 3: 0.1})
        R = droplet_radius(Q)
        mass, _ = quad(lambda r: 2.0 * r * Q.laplacian_radial(r), 0.0, R)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_non_monotone_rejected(self):
        with pytest.raises(ConfigError):
            droplet_radius(radial({1: 1.0, 2: -0.6, 3: 0.15}))

    def test_requires_radial(self):
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs={(1, 1): 1.0})
        with pytest.raises(ConfigError):
            droplet_radius(Q)


class TestModulusTau0:
    def test_closed_forms(self):
        assert modulus_tau0(HomogeneousHermitianPoly(2, {(1, 1): 1.0})) == pytest.approx(1.0, rel=1e-13)
        assert modulus_tau0(HomogeneousHermitianPoly(4, {(2, 2): 1.0})) == pytest.approx(
            2.0 ** -0.25, rel=1e-13
        )

    def test_harmonic_twist_does_not_shift(self):
        p = MicroscopicPotential(
            k=1, c=0.0,
            q0=HomogeneousHermitianPoly(2, {(1, 1): 1.0, (2, 0): 0.3, (0, 2): 0.3}),
        )
        assert modulus_tau0(p) == pytest.approx(1.0, rel=1e-13)

    def test_cannot_infer_k_from_degree_zero(self):
        with pytest.raises(ConfigError):
            modulus_tau0(HomogeneousHermitianPoly(0, {(0, 0): 1.0}))


class TestMicroscopicScale:
    def test_closed_forms(self):
        assert microscopic_scale(radial({1: 1.0}), 0.0, 100) == pytest.approx(0.1, rel=1e-12)
        assert microscopic_scale(radial({1: 1.0}), 1.0, 100) == pytest.approx(
            math.sqrt(2.0 / 100.0), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            microscopic_scale(radial({1: 1.0}), -1.0, 10)
        with pytest.raises(ConfigError):
            microscopic_scale(radial({1: 1.0}), 0.0, 0)

    def test_scale_must_stay_inside_droplet(self):
        with pytest.raises(ConfigError):
            microscopic_scale(radial({1: 1.0}), 1.0, 1)

    def test_charge_mass_balance_by_quadrature(self):
        # n * (mass of Delta Q inside r_n) recovers 1 + c
        Q = radial({1: 1.0, 2: 1.0})
        c, n = 0.5, 50
        rn = microscopic_scale(Q, c, n)
        mass, _ = quad(lambda r: 2.0 * r * Q.laplacian_radial(r), 0.0, rn)
        assert n * mass == pytest.approx(1.0 + c, abs=1e-10)

    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=-0.5, max_value=2.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.integers(min_value=4, max_value=10_000),
    )
    def test_homogeneous_exactness(self, k, c, a, n):
        Q = radial({k: a})
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
        rep = microscale_asymptotic_check(radial({2: 1.0}), 1.0, [10, 100, 1000])
        assert np.max(np.abs(rep.en)) < 1e-11
        assert rep.bound_ok

    def test_empty_n_list(self):
        with pytest.raises(ConfigError):
            microscale_asymptotic_check(radial({1: 1.0}), 0.0, [])


class TestEquilibriumData:
    def test_bundle(self):
        Q = radial({1: 1.0, 2: 1.0})
        data = equilibrium_data(Q)
        assert data.k == 1
        assert data.droplet_radius == pytest.approx(2.0 ** -0.5, rel=1e-13)
        assert data.tau0 == pytest.approx(1.0, rel=1e-12)
        # the equilibrium density Delta Q inside the droplet
        assert data.potential.laplacian_radial(0.5) == pytest.approx(1.0 + 4 * 0.25, rel=1e-14)
        assert data.c == 0.0

    def test_charge_override(self):
        Q = radial({1: 1.0}, c=0.0)
        data = equilibrium_data(Q, c=1.0)
        assert data.c == 1.0
        assert microscopic_scale(data.potential, data.c, 100) == pytest.approx(math.sqrt(0.02), rel=1e-12)
