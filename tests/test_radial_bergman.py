import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from focklab import (
    ConfigError,
    DivergenceError,
    FitError,
    bergman_function_r0,
    decay_report,
    delta_q0,
    disk_mass,
    moments,
    origin_coefficient,
)
from focklab import fixtures
from focklab.fixtures import load_bergman_r0
from focklab.radial_bergman import fit_error_model


class TestMoments:
    def test_gaussian_half_moment(self):
        # m_0 for |z|^0 e^{-r^4}: (1/2) Gamma(1/2) = sqrt(pi)/2
        assert np.exp(moments(2, 0.0, 1.0, 0)[0]) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_gamma_closed_form(self):
        k, c, a = 2, 1.0, 1.7
        log_m = moments(k, c, a, 8)
        for j in range(9):
            p = (j + c + 1) / k
            want = math.exp(-p * math.log(a) + gammaln(p)) / k
            assert np.exp(log_m[j]) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("k,c,a,j", [(1, 0.0, 1.0, 3), (2, -0.5, 0.8, 0), (3, 1.5, 2.0, 5)])
    def test_quadrature_route(self, k, c, a, j):
        # m_j = int_0^inf 2 r^{2j+2c+1} e^{-a r^{2k}} dr, checked independently
        val, _ = quad(lambda r: 2.0 * r ** (2 * j + 2 * c + 1) * math.exp(-a * r ** (2 * k)),
                      0.0, np.inf)
        assert np.exp(moments(k, c, a, j)[j]) == pytest.approx(val, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ConfigError):
            moments(0, 0.0, 1.0, 4)
        with pytest.raises(ConfigError):
            moments(1, -1.0, 1.0, 4)
        with pytest.raises(ConfigError):
            moments(1, 0.0, 0.0, 4)
        with pytest.raises(ConfigError):
            moments(1, 0.0, 1.0, -1)


class TestBergmanFunctionR0:
    def test_flat_for_unit_gaussian(self):
        r = np.linspace(0.0, 5.0, 101)
        assert np.max(np.abs(bergman_function_r0(1, 0.0, 1.0, r) - 1.0)) <= 1e-12

    def test_k1_c1_closed_form(self):
        r = np.linspace(0.0, 4.0, 81)
        want = 1.0 - np.exp(-(r**2))
        got = bergman_function_r0(1, 1.0, 1.0, r)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_against_reference_table(self):
        for k, c, a, r, want in load_bergman_r0():
            got = bergman_function_r0(int(k), c, a, r)
            assert got == pytest.approx(want, rel=1e-12), (k, c, a, r)

    def test_reference_table_row_width_checked(self, tmp_path, monkeypatch):
        table = tmp_path / "bergman_r0.txt"
        table.write_text("# k c a r R0\n1 0 1 0.5 1.0\n1 0 1 0.5\n", encoding="utf-8")
        monkeypatch.setattr(fixtures, "BERGMAN_R0", table)
        with pytest.raises(ValueError, match="bergman_r0.txt:3: expected 5 columns, got 4"):
            load_bergman_r0()

    @pytest.mark.parametrize("k,c,a", [(2, 1.0, 1.2), (1, 0.5, 0.7)])
    def test_direct_series_route(self, k, c, a):
        # plain double-precision term-by-term sum, no log-domain damping
        j = np.arange(241, dtype=float)
        logm = -((j + c + 1) / k) * math.log(a) - math.log(k) + gammaln((j + c + 1) / k)
        for r in np.linspace(0.2, 2.2, 9):
            direct = float(np.sum(np.exp((2 * j + 2 * c) * math.log(r) - a * r ** (2 * k) - logm)))
            assert bergman_function_r0(k, c, a, r) == pytest.approx(direct, rel=1e-12)

    def test_array_matches_scalars(self):
        r = np.array([0.3, 1.1, 2.4])
        arr = bergman_function_r0(2, 1.0, 0.5, r)
        assert arr.shape == r.shape
        for x, v in zip(r, arr):
            assert bergman_function_r0(2, 1.0, 0.5, float(x)) == v

    def test_origin_branches(self):
        assert bergman_function_r0(2, 0.0, 0.5, 0.0) == pytest.approx(
            origin_coefficient(2, 0.0, 0.5), rel=1e-14
        )
        assert bergman_function_r0(1, 1.0, 2.0, 0.0) == 0.0
        with pytest.raises(DivergenceError):
            bergman_function_r0(1, -0.5, 2.0, 0.0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ConfigError):
            bergman_function_r0(1, 0.0, 1.0, np.array([0.5, -0.1]))

    def test_ginibre_flat_at_unit_amplitude(self):
        for r in [0.0, 0.3, 1.0, 2.5, 4.0]:
            assert bergman_function_r0(1, 0.0, 1.0, r) == pytest.approx(1.0, abs=1e-13)

    def test_origin_branches_at_unit_amplitude(self):
        assert bergman_function_r0(1, 1.0, 1.0, 0.0) == 0.0
        assert bergman_function_r0(2, 0.0, 1.0, 0.0) == pytest.approx(
            2.0 / math.gamma(0.5), rel=1e-13
        )
        with pytest.raises(DivergenceError):
            bergman_function_r0(1, -0.5, 1.0, 0.0)

    def test_damped_equals_explicit_product_in_safe_range(self):
        # R0(r) = r^{2c} e^{-r^{2k}} E(r^2) with E the plain series, for small r
        k, c, r = 2, 1.0, 1.2
        series = sum(
            r ** (2 * j) / math.gamma((j + c + 1) / k) * k for j in range(200)
        )
        want = r ** (2 * c) * math.exp(-r ** (2 * k)) * series
        assert bergman_function_r0(k, c, 1.0, r) == pytest.approx(want, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=-0.9, max_value=3.0),
        st.floats(min_value=1e-3, max_value=3.5),
    )
    def test_positive(self, k, c, r):
        assert bergman_function_r0(k, c, 1.0, r) > 0.0

    @staticmethod
    def mp_series_r0(k, c, a, r):
        """The R0 series at 30 digits, summed by class j = s + k m.

        Class s is a k r^{2k-2} x^{beta_s-1} e^{-x} / Gamma(beta_s) times
        sum_m x^m / (beta_s)_m = 1F1(1; beta_s; x), x = a r^{2k}.
        """
        with mp.workdps(30):
            r, a = mp.mpf(r), mp.mpf(a)
            x = a * r ** (2 * k)
            total = mp.mpf(0)
            for s in range(k):
                beta = (s + mp.mpf(c) + 1) / k
                total += x ** (beta - 1) * mp.exp(-x) / mp.gamma(beta) * mp.hyp1f1(1, beta, x)
            return float(a * k * r ** (2 * k - 2) * total)

    def test_large_argument_accuracy(self):
        # k=3, c=-0.5 on (0, 5] reaches a r^6 = 15625; a log-domain sum of
        # the series loses relative accuracy like a r^6 eps past ~860
        k, c, a = 3, -0.5, 1.0
        r = np.linspace(0.0, 5.0, 1000)[1:]
        assert np.count_nonzero(a * r**6 > 860.0) > 300
        got = bergman_function_r0(k, c, a, r)
        for x, v in zip(r, got):
            assert v == pytest.approx(self.mp_series_r0(k, c, a, x), rel=1e-12), x

    def test_flat_limit_far_out(self):
        # R0/DeltaQ0 - 1 is of order e^{-u}, far below rounding at u = 15625
        k, c, a, r = 3, -0.5, 1.0, 5.0
        assert a * r ** (2 * k) >= 1e4
        ratio = bergman_function_r0(k, c, a, r) / delta_q0(k, c, a, r)
        assert ratio == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("k,c,a", [(1, 0.0, 1.0), (2, 0.0, 0.7), (3, 1.5, 1.3)])
    def test_no_floating_point_warnings(self, k, c, a):
        # r = 0, r so small that x = a r^{2k} underflows, and x up to 1e4,
        # where e^{-x} underflows
        u = np.linspace(0.01, 1e4, 200)
        r = np.concatenate([[0.0, 1e-200], (u / a) ** (1.0 / (2 * k))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = bergman_function_r0(k, c, a, r)
        assert np.all(np.isfinite(vals))


class TestDeltaQ0:
    def test_closed_form(self):
        assert delta_q0(1, 0.0, 1.0, 1.7) == 1.0
        assert delta_q0(2, 1.0, 0.5, 3.0) == pytest.approx(0.5 * 4 * 9.0, rel=1e-14)
        r = np.array([0.5, 2.0])
        np.testing.assert_allclose(delta_q0(2, -0.5, 2.0, r), 8.0 * r**2, rtol=1e-14)

    def test_charge_does_not_enter(self):
        assert delta_q0(2, 0.0, 1.3, 0.9) == delta_q0(2, 1.0, 1.3, 0.9)


class TestOriginCoefficient:
    def test_closed_form(self):
        assert origin_coefficient(1, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert origin_coefficient(2, 0.0, 1.0) == pytest.approx(2 / math.sqrt(math.pi), rel=1e-13)
        k, c, a = 2, 1.0, 1.5
        want = k * a ** ((c + 1) / k) / math.exp(gammaln((c + 1) / k))
        assert origin_coefficient(k, c, a) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("k,c,a", [(1, -0.5, 1.0), (1, 1.0, 2.0), (2, 0.0, 0.5), (2, 1.0, 1.0)])
    def test_inverse_weight_mass(self, k, c, a):
        # 1/m_0 equals the reciprocal total mass of the bare weight
        total, _ = quad(lambda r: 2.0 * r ** (2 * c + 1) * math.exp(-a * r ** (2 * k)), 0.0, np.inf)
        assert origin_coefficient(k, c, a) == pytest.approx(1.0 / total, rel=1e-10)


class TestDiskMass:
    # unit-disk masses for the normalized amplitude a = (1+c)/k; reference
    # values computed with 50-digit arithmetic in tools/make_fixtures.py
    @pytest.mark.parametrize(
        "k,c,a,want",
        [
            (1, 0.0, 1.0, 1.0),
            (1, 1.0, 2.0, 1.0 + math.exp(-2.0)),
            (2, 0.0, 0.5, 1.4246602166562292469682952841996364998),
            (2, 1.0, 1.0, 1.6289041451851547863407444422619733123),
        ],
    )
    def test_normalized_unit_disk(self, k, c, a, want):
        assert disk_mass(k, c, a) == pytest.approx(want, abs=1e-10)

    def test_radius_argument(self):
        assert disk_mass(1, 0.0, 1.0, radius=0.5) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_negative_radius(self):
        with pytest.raises(ConfigError):
            disk_mass(1, 0.0, 1.0, radius=-0.5)

    @pytest.mark.parametrize("k,c,a,radius", [(1, 0.5, 1.0, 1.5), (2, -0.5, 1.0, 1.2),
                                              (3, 1.0, 0.7, 1.1), (3, -0.5, 1.0, 2.0)])
    def test_quadrature_route(self, k, c, a, radius):
        # integral of 2 r R0(r) over [0, radius], checked independently of the closed form
        val, _ = quad(lambda r: 2.0 * r * bergman_function_r0(k, c, a, r), 0.0, radius,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        assert disk_mass(k, c, a, radius) == pytest.approx(val, rel=1e-10)


class TestSmallRadiusLimit:
    @pytest.mark.parametrize(
        "k,c",
        [
            (1, -0.5),
            (1, 0.0),
            (1, 1.0),
            pytest.param(2, -0.5, marks=pytest.mark.xfail(
                reason="next series term (m0/m1) r^2 = 2.96e-6 at r = 1e-3, above the 1e-6 budget")),
            pytest.param(2, 0.0, marks=pytest.mark.xfail(
                reason="next series term (m0/m1) r^2 = 1.77e-6 at r = 1e-3, above the 1e-6 budget")),
            pytest.param(2, 1.0, marks=pytest.mark.xfail(
                reason="next series term (m0/m1) r^2 = 1.13e-6 at r = 1e-3, above the 1e-6 budget")),
        ],
    )
    def test_leading_power_at_small_r(self, k, c):
        r = 1e-3
        ratio = bergman_function_r0(k, c, 1.0, r) / (r ** (2 * c) * origin_coefficient(k, c, 1.0))
        assert abs(ratio - 1.0) <= 1e-6


class TestDecayReport:
    @staticmethod
    def grid(k, a, u_lo=4.0, u_hi=16.0, n=25):
        return (np.linspace(u_lo, u_hi, n) / a) ** (1.0 / (2 * k))

    def test_k1_c1_pure_exponential(self):
        rep = decay_report(1, 1.0, 1.0, self.grid(1, 1.0))
        assert rep.fit_ok and not rep.identically_zero
        assert rep.slope == pytest.approx(-1.0, abs=1e-6)
        assert abs(rep.ln_power) < 1e-4
        assert rep.alpha == pytest.approx(1.0, abs=1e-5)
        assert rep.n_used == 25 and rep.n_excluded == 0

    def test_alpha_tracks_amplitude(self):
        rep = decay_report(1, 1.0, 2.0, self.grid(1, 2.0))
        assert rep.slope == pytest.approx(-1.0, abs=1e-6)
        assert rep.alpha == pytest.approx(2.0, abs=1e-5)

    def test_unit_gaussian_identically_zero(self):
        rep = decay_report(1, 0.0, 1.0, self.grid(1, 1.0))
        assert rep.identically_zero and not rep.fit_ok
        assert rep.slope is None and rep.n_used == 0

    def test_k2_slope_within_band(self):
        rep = decay_report(2, 0.0, 1.0, self.grid(2, 1.0))
        assert -1.05 <= rep.slope <= -0.95

    def test_rounding_dominated_points_excluded(self):
        r = np.sqrt(np.array([4.0, 9.0, 16.0, 25.0, 35.0, 39.0]))
        rep = decay_report(1, 1.0, 1.0, r)
        assert rep.n_used == 4 and rep.n_excluded == 2
        assert rep.fit_ok
        # the fitted mask: the first four points, above the rounding floor
        np.testing.assert_array_equal(rep.usable, [True] * 4 + [False] * 2)

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            decay_report(1, 1.0, 1.0, [2.0, 3.0])
        with pytest.raises(ConfigError):
            decay_report(1, 1.0, 1.0, [3.0, 2.5, 2.0])
        with pytest.raises(ConfigError):
            decay_report(1, 1.0, 1.0, np.linspace(2.0, 10.0, 9))  # u up to 100


class TestFitErrorModel:
    def test_exact_recovery(self):
        u = np.linspace(2.0, 20.0, 12)
        y = 3.5 - 1.25 * u + 0.75 * np.log(u)
        C, s, p = fit_error_model(u, y)
        assert C == pytest.approx(3.5, abs=1e-9)
        assert s == pytest.approx(-1.25, abs=1e-10)
        assert p == pytest.approx(0.75, abs=1e-9)

    def test_fixed_slope(self):
        u = np.linspace(2.0, 20.0, 12)
        y = 3.5 - 1.25 * u + 0.75 * np.log(u)
        C, s, p = fit_error_model(u, y, fix_slope=-1.25)
        assert s == -1.25
        assert C == pytest.approx(3.5, abs=1e-9)
        assert p == pytest.approx(0.75, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_error_model([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(FitError):
            fit_error_model([1.0], [0.0], fix_slope=-1.0)

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-2, max_value=-0.5),
           st.floats(min_value=-2, max_value=2))
    def test_recovery_property(self, C0, s0, p0):
        u = np.linspace(1.0, 9.0, 15)
        y = C0 + s0 * u + p0 * np.log(u)
        C, s, p = fit_error_model(u, y)
        assert s == pytest.approx(s0, abs=1e-7)
        assert p == pytest.approx(p0, abs=1e-6)
