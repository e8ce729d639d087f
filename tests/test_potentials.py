import cmath
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from focklab import (
    ConfigError,
    EnsembleConfig,
    HomogeneousHermitianPoly,
    MacroscopicPotential,
    MicroscopicPotential,
    bergman_function_r0,
    canonical_decompose,
    convergence_report,
    decay_report,
    delta_q0,
    detect_k,
    disk_mass,
    droplet_radius,
    finite_moments,
    load_potential_config,
    microscale_asymptotic_check,
    microscopic_scale,
    moment_matrix,
    moments,
    normalize_potential,
    rescaled_intensity,
    run_mcmc,
    sample_radial_exact,
    truncated_series_r0,
)
from focklab.cli import build_parser, cmd_sample
from focklab.equilibrium import _mass, _mass_terms
from conftest import SOLVER_POTENTIALS

TWIST = {(1, 1): 1.0, (2, 0): 0.3, (0, 2): 0.3}


class TestHomogeneousHermitianPoly:
    def test_evaluate_matches_expansion(self):
        q = HomogeneousHermitianPoly(2, TWIST)
        z = 0.7 + 0.4j
        want = abs(z) ** 2 + 2 * (0.3 * z**2).real
        assert q.evaluate(z) == pytest.approx(want, rel=1e-14)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ConfigError):
            HomogeneousHermitianPoly(2, {(2, 2): 1.0})

    def test_rejects_odd_degree(self):
        with pytest.raises(ConfigError, match="degree must be a nonnegative even integer, got 3"):
            HomogeneousHermitianPoly(3, {(2, 1): 1.0, (1, 2): 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.3, math.nan)])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ConfigError, match="must be finite"):
            HomogeneousHermitianPoly(2, {(1, 1): 1.0, (2, 0): bad, (0, 2): bad})

    def test_rejects_non_hermitian(self):
        with pytest.raises(ConfigError):
            HomogeneousHermitianPoly(2, {(2, 0): 0.3, (0, 2): 0.4})

    def test_rejects_half_integer_indices(self):
        # (0.5, 1.5) has total degree 2, but z^0.5 conj(z)^1.5 is no monomial: the map
        # MacroscopicPotential refuses is refused here with the same message
        with pytest.raises(ConfigError, match="coefficient index must be an integer >= 0, got 0.5"):
            HomogeneousHermitianPoly(2, {(0.5, 1.5): 0.2, (1.5, 0.5): 0.2, (1, 1): 1.0})

    def test_angular_minimum_of_twist(self):
        q = HomogeneousHermitianPoly(2, TWIST)
        theta, qmin = q.angular_minimum()
        assert qmin == pytest.approx(0.4, abs=1e-10)
        assert math.cos(2 * theta) == pytest.approx(-1.0, abs=1e-6)
        MicroscopicPotential(k=1, c=0.0, q0=q)  # positive definite, so accepted

    @pytest.mark.parametrize("seed", range(6))
    def test_angular_minimum_against_a_fine_scan(self, seed):
        rng = np.random.default_rng(seed)
        k = 1 + seed % 3
        coeffs = {(k, k): 1.0}
        for i in range(k + 1, 2 * k + 1):
            a = complex(rng.normal(0.0, 0.2), rng.normal(0.0, 0.2))
            coeffs[(i, 2 * k - i)], coeffs[(2 * k - i, i)] = a, a.conjugate()
        q = HomogeneousHermitianPoly(2 * k, coeffs)
        theta, qmin = q.angular_minimum()
        assert qmin == pytest.approx(q.evaluate(complex(math.cos(theta), math.sin(theta))), abs=1e-14)
        fine = q.angular_profile(np.linspace(0.0, 2 * np.pi, 200_001))
        assert fine.min() - 1e-8 <= qmin <= fine.min() + 1e-15  # the scan step is 3e-5

    def test_indefinite_detected(self):
        q = HomogeneousHermitianPoly(2, {(1, 1): 1.0, (2, 0): 0.51, (0, 2): 0.51})
        assert q.angular_minimum()[1] == pytest.approx(-0.02, abs=1e-10)
        with pytest.raises(ConfigError):
            MicroscopicPotential(k=1, c=0.0, q0=q)

    def test_high_frequency_does_not_alias(self):
        # 1 + 1.8 cos(512 theta) is constant on 512 equispaced angles; its minimum is -0.8 at pi/512
        q = HomogeneousHermitianPoly(600, {(300, 300): 1.0, (556, 44): 0.9, (44, 556): 0.9})
        theta, qmin = q.angular_minimum()
        assert qmin == pytest.approx(-0.8, abs=1e-12)
        assert math.cos(512 * theta) == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ConfigError, match="positive definite"):
            MicroscopicPotential(300, 0.0, q)

    def test_laplacian(self):
        # d/dz d/dzbar |z|^4 = 4 |z|^2
        q = HomogeneousHermitianPoly(4, {(2, 2): 1.0})
        lap = q.laplacian()
        assert lap.coeffs == {(1, 1): 4.0}
        # harmonic terms are annihilated
        q2 = HomogeneousHermitianPoly(2, TWIST)
        assert q2.laplacian().coeffs == {(0, 0): 1.0}

    @given(st.floats(min_value=0.1, max_value=5.0))
    def test_scaled_is_linear(self, f):
        q = HomogeneousHermitianPoly(2, TWIST)
        z = 0.5 - 0.8j
        scaled = HomogeneousHermitianPoly(2, {ij: f * a for ij, a in TWIST.items()})
        assert scaled.evaluate(z) == pytest.approx(f * q.evaluate(z), rel=1e-13)


class TestMicroscopicPotential:
    def test_requires_positive_definite(self):
        bad = HomogeneousHermitianPoly(2, {(1, 1): 1.0, (2, 0): 0.6, (0, 2): 0.6})
        with pytest.raises(ConfigError):
            MicroscopicPotential(k=1, c=0.0, q0=bad)

    def test_requires_degree_2k(self):
        q = HomogeneousHermitianPoly(2, {(1, 1): 1.0})
        with pytest.raises(ConfigError):
            MicroscopicPotential(k=2, c=0.0, q0=q)

    def test_charge_bound(self):
        q = HomogeneousHermitianPoly(2, {(1, 1): 1.0})
        with pytest.raises(ConfigError):
            MicroscopicPotential(k=1, c=-1.0, q0=q)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_rejects_non_finite_charge(self, c):
        with pytest.raises(ConfigError, match="must be finite"):
            MicroscopicPotential(k=1, c=c, q0=HomogeneousHermitianPoly(2, {(1, 1): 1.0}))

    def test_radial_amplitude(self):
        p = MicroscopicPotential(k=1, c=0.5, q0=HomogeneousHermitianPoly(2, TWIST))
        assert not p.is_radial
        assert p.amplitude == pytest.approx(1.0)
        radial = MicroscopicPotential(k=2, c=0.0, q0=HomogeneousHermitianPoly(4, {(2, 2): 0.5}))
        assert radial.is_radial and radial.amplitude == 0.5


class TestMacroscopicPotential:
    def test_radial_closed_forms(self):
        Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: 1.0})
        r = 1.3
        assert Q.q_of_r(r) == pytest.approx(r**2 + r**4, rel=1e-14)
        assert Q.value(r * 1j) == pytest.approx(Q.q_of_r(r), rel=1e-14)
        # the equilibrium mass r Q'(r)/2 and its slope in ln r, 2 r^2 Delta Q, away from the zero of Delta Q
        r = np.array([0.5, 1.3, 2.0])
        for coeffs in SOLVER_POTENTIALS:
            mass, slope = _mass(_mass_terms(MacroscopicPotential(kind="radial", radial_coeffs=coeffs)), np.log(r))
            np.testing.assert_allclose(mass, sum(m * q * r ** (2 * m) for m, q in coeffs.items()), rtol=1e-14)
            np.testing.assert_allclose(slope, 2 * r**2 * sum(m * m * q * r ** (2 * m - 2) for m, q in coeffs.items()),
                                       rtol=1e-14)

    @pytest.mark.parametrize(
        "coeffs", [{1: 1.0}, {2: 1.0}, {3: 0.7}, {1: 1.0, 2: 1.0}, {1: 1.0, 2: -0.6, 3: 0.15}]
    )
    def test_array_evaluation_matches_scalar_calls(self, coeffs):
        Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs=coeffs)
        r = np.concatenate([[0.0], np.geomspace(1e-8, 40.0, 301)]).reshape(2, -1)
        got = Q.q_of_r(r)
        assert isinstance(got, np.ndarray) and got.shape == r.shape
        want = np.array([Q.q_of_r(float(x)) for x in r.ravel()]).reshape(r.shape)
        assert all(type(Q.q_of_r(float(x))) is float for x in r.ravel()[:3])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        # the equilibrium mass r Q'(r)/2 and its slope 2 r^2 Delta Q, elementwise on a 1-d array of t = ln r (r > 0)
        t = np.log(r.ravel()[1:])
        mass, slope = _mass(_mass_terms(Q), t)
        assert mass.shape == slope.shape == t.shape
        np.testing.assert_allclose(mass, sum(m * q * np.exp(2 * m * t) for m, q in coeffs.items()), rtol=1e-14)
        np.testing.assert_allclose(slope, sum(2 * m * m * q * np.exp(2 * m * t) for m, q in coeffs.items()),
                                   rtol=1e-14)

    def test_growth_violation(self):
        with pytest.raises(ConfigError):
            MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: -1.0})

    @pytest.mark.parametrize("kw", [
        dict(kind="radial", c=math.inf, radial_coeffs={1: 1.0}),
        dict(kind="radial", c=0.0, radial_coeffs={1: math.nan, 2: 1.0}),
        dict(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: math.inf}),
        dict(kind="hermitian", c=0.0, hermitian_coeffs={(1, 1): 1.0, (2, 0): math.nan, (0, 2): math.nan}),
    ])
    def test_rejects_non_finite_numbers(self, kw):
        # abs(NaN) > 0 is False, so an unchecked NaN term would drop out of the Taylor map
        with pytest.raises(ConfigError, match="must be finite"):
            MacroscopicPotential(**kw)

    @pytest.mark.parametrize("kw", [
        dict(kind="radial", c=0.0, radial_coeffs={1.5: 1.0, 2: 1.0}),
        dict(kind="hermitian", c=0.0, hermitian_coeffs={(0.5, 0.5): 1.0, (1, 1): 1.0}),
        dict(kind="hermitian", c=0.0, hermitian_coeffs={(1, 1): 1.0, (-1, 3): 0.1, (3, -1): 0.1}),
    ], ids=["radial-half-power", "hermitian-half-index", "hermitian-negative-index"])
    def test_rejects_non_integer_or_negative_indices(self, kw):
        # |z| + |z|^2 spelled {(0.5, 0.5): 1, (1, 1): 1} is no Taylor model; detect_k would read k = 1
        with pytest.raises(ConfigError, match="coefficient index must be an integer >= 0"):
            MacroscopicPotential(**kw)

    def test_both_spellings_are_one_potential(self):
        # r^2 + 0.5 r^4 at c = 0.5: |z|^{2m} terms alone are radial whichever spelling built them
        radial = MacroscopicPotential(kind="radial", c=0.5, radial_coeffs={1: 1.0, 2: 0.5})
        herm = MacroscopicPotential(kind="hermitian", c=0.5, hermitian_coeffs={(1, 1): 1.0, (2, 2): 0.5})
        assert herm == radial
        assert herm.kind == "radial" and herm.radial_coeffs == {1: 1.0, 2: 0.5}
        assert radial.hermitian_coeffs == {(1, 1): 1.0, (2, 2): 0.5}
        assert droplet_radius(herm) == droplet_radius(radial)
        np.testing.assert_array_equal(finite_moments(herm, 0.5, 8).log_norms,
                                      finite_moments(radial, 0.5, 8).log_norms)
        runs = [run_mcmc(EnsembleConfig(n=6, potential=Q, bin_edges=np.linspace(0.0, 2.0, 9),
                                        sweeps=40, burn_in=10, seed=5)) for Q in (herm, radial)]
        np.testing.assert_array_equal(runs[0].histogram.counts, runs[1].histogram.counts)
        assert (runs[0].acceptance_rate, runs[0].delta_final) == (runs[1].acceptance_rate, runs[1].delta_final)

    def test_growth_is_relative_to_the_top_part(self):
        # a zero row is no term, so [2, 0.0] is not the top power: r^2 in either spelling
        zero_top = load_potential_config({"kind": "radial", "c": 1.0, "radial_coeffs": [[1, 1.0], [2, 0.0]]})
        assert zero_top.radial_coeffs == {1: 1.0}
        assert zero_top == load_potential_config(
            {"kind": "hermitian", "c": 1.0, "hermitian_coeffs": [[1, 1, 1.0, 0.0], [2, 2, 0.0, 0.0]]})
        # r^2 + 1e-12 r^4, and its top part twisted by 2e-13 Re(z^3 conj z): tiny, but positive definite
        # relative to its own scale in either spelling
        MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: 1e-12})
        twisted = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs={
            (1, 1): 1.0, (2, 2): 1e-12, (3, 1): 1e-13, (1, 3): 1e-13})
        assert twisted.kind == "hermitian" and detect_k(twisted) == 1
        # a lone (3, 1) term passes the Hermitian tolerance, but its profile 1e-13 cos 2t is indefinite
        with pytest.raises(ConfigError, match="positive definite"):
            MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs={(1, 1): 1.0, (3, 1): 1e-13})

    def test_tiny_weight_is_accepted_by_every_check(self):
        # positive definiteness is relative to the largest coefficient of the part tested, so the
        # constructor, detect_k and the MicroscopicPotential of normalize_potential all take 1e-12 r^2
        Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1e-12})
        assert detect_k(Q) == 1
        assert droplet_radius(Q) == pytest.approx(1e6, rel=1e-12)
        scaled, lam = normalize_potential(Q, 1)
        assert lam == pytest.approx(1e12, rel=1e-12) and scaled.radial_coeffs == {1: pytest.approx(1.0)}
        assert canonical_decompose(Q).q0.amplitude == 1e-12

    def test_lower_terms_past_the_largest_double_keep_sign(self):
        # both weights are taken although their lower terms pass the largest double before the top part wins;
        # a value has the sign of 40-digit mpmath's sum: -inf where the lower terms win, +inf where the top does
        far = {"signed-value": (1e102, 1e250, 1e250j, 1e305), "signed-q_of_r": (1e102, 1e250, 1e305),
               "hermitian-far-value": (1e79, 1e79j, complex(1e79, 1e79), 1e100)}
        for name, points in far.items():
            for z in points:
                check_weight(*WEIGHT_EVALUATORS[name], z)
        # lower terms a_mm |z|^{2m} with a_mm > 0 cannot turn Q's sign
        for coeffs in ({1: 1.0, 2: 1e-12}, {1: 1.0, 2: -1e-4, 3: 1.0}, {1: 1.0, 2: 1e-80}):
            Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs=coeffs)
            assert Q.q_of_r(1e200) == math.inf and Q.q_of_r(2.0) > 0

    def test_no_constant_term(self):
        with pytest.raises(ConfigError):
            MacroscopicPotential(kind="hermitian", c=0.0,
                                 hermitian_coeffs={(0, 0): 1.0, (1, 1): 1.0})

    def test_kind_field_consistency(self):
        with pytest.raises(ConfigError):
            MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0},
                                 hermitian_coeffs={(1, 1): 1.0})
        with pytest.raises(ConfigError):
            MacroscopicPotential(kind="other", c=0.0, radial_coeffs={1: 1.0})


R2_R4 = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: 1.0})
R2_R4_R6 = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: -1e-4, 3: 1.0})
TWISTED = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=TWIST)
MIXED_Q0 = canonical_decompose(MacroscopicPotential(kind="hermitian", c=0.5, hermitian_coeffs={
    (2, 2): 1.0, (3, 1): 0.3, (1, 3): 0.3})).q0.q0
# r^4 alone passes the largest double at r = 1.2e77, but Q = r^2 + 1e-80 r^4 only at 1.2e97
R2_TINY_R4 = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: 1e-80})
# Q passes the largest double negative near r = 116, and its r^6 term wins only past r = 1e300
SIGNED = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: -1e300, 3: 1e-300})
# 1e-80 |z|^4 + 1e-81 Re z^4 - 2 Re(z^2 conj z): the cubic term wins out to |z| of about 2e80
HERMITIAN_FAR = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs={
    (2, 2): 1e-80, (4, 0): 5e-82, (0, 4): 5e-82, (2, 1): -1.0, (1, 2): -1.0})
# 1e-300 r^400 is about 1e187 at r = 16.5, where r^400 passes the largest double and 1e-300 (16.5/32)^400 underflows
TINY_HIGH = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 200: 1e-300})
# past degree 1074 a power of a mantissa in [0.5, 1) underflows: 2^1100 and 1e-300 2^1100 = 1.4e31 at r = 2
R2_R1100 = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 550: 1.0})
R2_TINY_R1100 = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 550: 1e-300})
# the evaluators of a weight and its coefficient map: value and evaluate take points, q_of_r takes their radii
WEIGHT_EVALUATORS = {
    "r2+r4-value": (R2_R4.value, False, R2_R4.hermitian_coeffs),
    "r2+r4-q_of_r": (R2_R4.q_of_r, True, R2_R4.hermitian_coeffs),
    "r2-1e-4r4+r6-value": (R2_R4_R6.value, False, R2_R4_R6.hermitian_coeffs),
    "r2-1e-4r4+r6-q_of_r": (R2_R4_R6.q_of_r, True, R2_R4_R6.hermitian_coeffs),
    "twist-value": (TWISTED.value, False, TWISTED.hermitian_coeffs),
    "k2-mixed-q0-evaluate": (MIXED_Q0.evaluate, False, MIXED_Q0.coeffs),
    "r2+1e-80r4-value": (R2_TINY_R4.value, False, R2_TINY_R4.hermitian_coeffs),
    "r2+1e-80r4-q_of_r": (R2_TINY_R4.q_of_r, True, R2_TINY_R4.hermitian_coeffs),
    "signed-value": (SIGNED.value, False, SIGNED.hermitian_coeffs),
    "signed-q_of_r": (SIGNED.q_of_r, True, SIGNED.hermitian_coeffs),
    "hermitian-far-value": (HERMITIAN_FAR.value, False, HERMITIAN_FAR.hermitian_coeffs),
    "r2+1e-300r400-value": (TINY_HIGH.value, False, TINY_HIGH.hermitian_coeffs),
    "r2+1e-300r400-q_of_r": (TINY_HIGH.q_of_r, True, TINY_HIGH.hermitian_coeffs),
    "r2+r1100-value": (R2_R1100.value, False, R2_R1100.hermitian_coeffs),
    "r2+r1100-q_of_r": (R2_R1100.q_of_r, True, R2_R1100.hermitian_coeffs),
    "r2+1e-300r1100-value": (R2_TINY_R1100.value, False, R2_TINY_R1100.hermitian_coeffs),
    "r2+1e-300r1100-q_of_r": (R2_TINY_R1100.q_of_r, True, R2_TINY_R1100.hermitian_coeffs),
}
LARGEST = mpmath.mpf(np.finfo(float).max)


def weight_oracle(coeffs, z):
    """Re sum a_ij z^i conj(z)^j at the double z, in 40-digit mpmath."""
    with mpmath.workdps(40):
        z = mpmath.mpc(complex(z))
        return sum(mpmath.mpc(a) * z**i * mpmath.conj(z) ** j for (i, j), a in coeffs.items()).real


def check_weight(f, radii, coeffs, point):
    """The weight's mpmath value at point, after checking f there for every input type.

    f gives a Python float for a scalar or a 0-d array and an array of the input's shape otherwise, with
    no OverflowError and no warning; each entry is within 1e-13 of mpmath where that is a double, and
    exactly +-inf with mpmath's sign past the largest double (float(want) is that infinity).
    """
    x = abs(point) if radii else point
    want = weight_oracle(coeffs, x)
    scalars = [float(x), np.float64(x)] if x.imag == 0 else []
    scalars += [] if radii else [complex(x), np.complex128(x)]
    for z in scalars + [np.array(x), np.array([x, x])]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(z)
        if np.ndim(z):
            assert isinstance(got, np.ndarray) and got.shape == z.shape
        else:
            assert type(got) is float
        assert list(np.ravel(got)) == pytest.approx([float(want)] * np.size(z), rel=1e-13), (z, want)
    return want


# the evaluators that take points also get one whose parts are doubles but whose modulus is not
PAST_POINTS = [(name, z) for name, (_, radii, _) in WEIGHT_EVALUATORS.items()
               for z in (1e200, 1e200j, complex(1e200, 1e200), 1e160, *([] if radii else [complex(1.5e308, 1.5e308)]))]


@pytest.mark.parametrize("name,point", PAST_POINTS, ids=[f"{name}-{z}" for name, z in PAST_POINTS])
def test_weight_past_the_largest_double_is_inf(name, point):
    # +inf, or -inf where the lower terms win, with no NaN: a sum of terms of both signs is not inf - inf
    assert abs(check_weight(*WEIGHT_EVALUATORS[name], point)) > LARGEST


# values whose bare power r^4, r^400 or r^1100 passes the largest double (r^2 + r^1100 passes it too)
NEAR_POINTS = [
    *[("r2+1e-80r4-value", z) for z in (1e78, 1e78j, 1e78 * cmath.exp(0.25j * math.pi))],
    *[("r2+1e-80r4-q_of_r", z) for z in (1e78, 1e78 * cmath.exp(0.25j * math.pi))],
    ("r2+1e-300r400-value", 16.5j),
    ("r2+1e-300r400-q_of_r", 16.5),
    *[(name, z) for name in ("r2+r1100-value", "r2+1e-300r1100-value") for z in (2.0, 2j)],
    ("r2+r1100-q_of_r", 2.0),
    ("r2+1e-300r1100-q_of_r", 2.0),
]


@pytest.mark.parametrize("name,point", NEAR_POINTS, ids=[f"{name}-{z}" for name, z in NEAR_POINTS])
def test_weight_near_the_largest_double_matches_mpmath(name, point):
    check_weight(*WEIGHT_EVALUATORS[name], point)


def test_numpy_scalar_coefficients_evaluate_as_python_numbers():
    # the maps keep Python complex values, so a point runs in Python arithmetic: +inf with no warning past
    # the largest double, a float at a finite point, and the bits of the map spelled in Python numbers
    f8, c16 = np.float64, np.complex128
    pairs = [
        (MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs={(1, 1): f8(1.0), (2, 0): c16(0.3),
                                                                         (0, 2): c16(0.3)}).value, TWISTED.value),
        (MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: f8(1.0), 2: f8(1.0)}).value, R2_R4.value),
        (HomogeneousHermitianPoly(4, {(2, 2): f8(1.0), (3, 1): c16(0.3), (1, 3): c16(0.3)}).evaluate,
         MIXED_Q0.evaluate),
    ]
    for f, twin in pairs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far, near = f(complex(1e200, 1e200)), f(0.5 + 0.1j)
        assert type(far) is float and far == math.inf
        assert type(near) is float and near == twin(0.5 + 0.1j)
        z = np.array([0.5 + 0.1j, 1.5 - 2j])
        assert f(z).tobytes() == twin(z).tobytes()


# (k, homogeneous part of degree 2k, whether it is positive definite)
PD_PARTS = {
    "ginibre": (1, {(1, 1): 1.0}, True),
    "tiny": (1, {(1, 1): 1e-12}, True),
    "twist": (1, TWIST, True),
    "indefinite": (1, {(1, 1): 1.0, (2, 0): 0.6, (0, 2): 0.6}, False),
    "k2-mixed": (2, {(2, 2): 1.0, (3, 1): 0.3, (1, 3): 0.3}, True),
    "k2-indefinite": (2, {(2, 2): 1.0, (3, 1): 0.6, (1, 3): 0.6}, False),
}


@pytest.mark.parametrize("k,part,definite", PD_PARTS.values(), ids=list(PD_PARTS))
def test_positive_definiteness_is_one_rule(k, part, definite):
    # the growth test of Q, the Q0 of V0 and detect_k's leading part of Delta Q apply one rule
    def accepts(build) -> bool:
        try:
            build()
        except ConfigError:
            return False
        return True

    macro = accepts(lambda: MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=dict(part)))
    micro = accepts(lambda: MicroscopicPotential(k, 0.0, HomogeneousHermitianPoly(2 * k, dict(part))))
    assert macro == micro == definite
    if definite:
        # Delta of a positive definite part of degree 2k is positive definite of degree 2k - 2
        assert detect_k(MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=dict(part))) == k


class TestDetectK:
    def test_radial_cases(self):
        assert detect_k(MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0})) == 1
        assert detect_k(MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={2: 1.0})) == 2
        assert detect_k(MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: 1.0})) == 1

    def test_hermitian_twist(self):
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=dict(TWIST))
        assert detect_k(Q) == 1

    def test_indefinite_laplacian_rejected(self):
        # lowest-degree block of Delta Q is indefinite even though the
        # potential itself grows (positive definite top block)
        coeffs = {(2, 2): 0.1, (3, 1): 1.0, (1, 3): 1.0, (3, 3): 5.0}
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=coeffs)
        with pytest.raises(ConfigError):
            detect_k(Q)

    def test_pure_harmonic_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            MacroscopicPotential(kind="hermitian", c=0.0,
                                 hermitian_coeffs={(2, 0): 1.0, (0, 2): 1.0})


class TestCanonicalDecompose:
    def test_harmonic_term_goes_to_h(self):
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=dict(TWIST))
        dec = canonical_decompose(Q)
        assert dec.q0.q0.coeffs == {(1, 1): 1.0}
        assert dec.h_coeffs == {2: pytest.approx(0.6)}
        assert not dec.q1_coeffs

    def test_higher_terms_go_to_q1(self):
        coeffs = {(1, 1): 1.0, (3, 0): 0.25, (0, 3): 0.25, (2, 2): 0.05}
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=coeffs)
        dec = canonical_decompose(Q)
        assert dec.q1_coeffs[(3, 0)] == pytest.approx(0.25)
        assert dec.q1_coeffs[(2, 2)] == pytest.approx(0.05)

    @given(st.floats(min_value=-1.4, max_value=1.4), st.floats(min_value=-1.4, max_value=1.4))
    def test_reconstruction(self, x, y):
        coeffs = {(1, 1): 1.0, (2, 0): 0.2, (0, 2): 0.2, (3, 0): 0.1, (0, 3): 0.1, (2, 2): 0.05}
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=coeffs)
        dec = canonical_decompose(Q)
        z = complex(x, y)
        re_h = sum(h * z**m for m, h in dec.h_coeffs.items()).real
        q1 = sum(a * z**i * z.conjugate() ** j for (i, j), a in dec.q1_coeffs.items()).real
        assert dec.q0.q0.evaluate(z) + re_h + q1 == pytest.approx(Q.value(z), rel=1e-12, abs=1e-12)

    def test_degree_below_2k_rejected(self):
        # r^2 has k = 1, so the split has no degree-4 part, and normalize_potential takes no k = 2
        Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0})
        assert canonical_decompose(Q).q0.k == 1
        with pytest.raises(ConfigError, match="k argument k=2 differs from the potential's k=1"):
            normalize_potential(Q, 2)

    def test_low_degree_mixed_term_rejected(self):
        # |z|^2 + |z|^4: the mixed term |z|^2 sets k = 1, so no split at k = 2 leaves it out
        Q = MacroscopicPotential(kind="hermitian", c=0.0,
                                 hermitian_coeffs={(1, 1): 1.0, (2, 2): 1.0})
        assert canonical_decompose(Q).q1_coeffs == {(2, 2): 1.0}
        with pytest.raises(ConfigError, match="k argument k=2 differs from the potential's k=1"):
            normalize_potential(Q, 2)

    def test_k_is_read_off_q(self):
        # a tiny r^2 term still sets k = 1: the split keeps it as Q0 and the normalization scales by it
        Q = MacroscopicPotential(kind="radial", c=0.5, radial_coeffs={1: 1e-13, 2: 1.0})
        dec = canonical_decompose(Q)
        assert dec.q0.k == 1 and dec.q0.q0.coeffs == {(1, 1): 1e-13} and dec.q1_coeffs == {(2, 2): 1.0}
        with pytest.raises(ConfigError, match="k argument k=2 differs from the potential's k=1"):
            normalize_potential(Q, 2)
        assert normalize_potential(Q, 1)[1] == 1.5 / 1e-13


class TestNormalizePotential:
    def test_scaling_factor(self):
        Q = MacroscopicPotential(kind="radial", c=1.0, radial_coeffs={1: 1.0})
        Qn, lam = normalize_potential(Q, 1)
        assert lam == pytest.approx(2.0)
        assert Qn.radial_coeffs[1] == pytest.approx(2.0)
        Q2 = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={2: 4.0})
        Qn2, lam2 = normalize_potential(Q2, 2)
        assert lam2 == pytest.approx(1.0 / 8.0)
        assert Qn2.radial_coeffs[2] == pytest.approx(0.5)

    @given(st.integers(min_value=1, max_value=3), st.floats(min_value=-0.5, max_value=2.0),
           st.floats(min_value=0.2, max_value=5.0))
    def test_normalized_amplitude(self, k, c, a):
        Q = MacroscopicPotential(kind="radial", c=c, radial_coeffs={k: a})
        Qn, _ = normalize_potential(Q, k)
        assert Qn.radial_coeffs[k] == pytest.approx((1 + c) / k, rel=1e-13)


# the five functions that still take a charge argument; Q.c is the charge, and the argument may
# only repeat it.  The expected values pin the results at c = Q.c, so the check changes no number.
CHARGED = MacroscopicPotential(kind="radial", c=1.0, radial_coeffs={1: 1.0, 2: 0.5})
CHARGED_CALLS = {
    "normalize_potential": (lambda c: normalize_potential(CHARGED, 1, c)[1], 2.0),
    "finite_moments": (lambda c: finite_moments(CHARGED, c, 3).log_norms,
                       [-2.7597090896635974, -3.6231840990840967, -4.166318309119602]),
    "microscopic_scale": (lambda c: microscopic_scale(CHARGED, c, 100), 0.1400544261016523),
    "microscale_asymptotic_check": (lambda c: microscale_asymptotic_check(CHARGED, c, [10, 100]).en,
                                    [-0.07582362816955523, -0.009665655683314678]),
    "sample_radial_exact": (lambda c: sample_radial_exact(CHARGED, c, 3, 7, 2),
                            [[0.6799896873866723, 0.8840255639288508, 0.7339139732699613],
                             [0.8784050753060662, 0.5913700942122961, 1.0378543190694653]]),
}


class TestChargeLivesOnQ:
    @pytest.mark.parametrize("name", sorted(CHARGED_CALLS))
    def test_charge_argument_must_repeat_q_c(self, name):
        call, want = CHARGED_CALLS[name]
        np.testing.assert_allclose(call(1.0), want, rtol=1e-14, atol=0.0)
        with pytest.raises(ConfigError, match=r"c=0\.0 differs from .* Q\.c=1\.0"):
            call(0.0)


GINIBRE = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0})
QUARTIC = MacroscopicPotential(kind="radial", c=0.5, radial_coeffs={2: 1.0})


def _sample_files(bins) -> list[str]:
    """The CSV and JSON of `focklab sample` with --bins given as any Python object."""
    args = build_parser().parse_args(["sample", "--n", "4", "--c", "1", "--sweeps", "200", "--burn-in", "100"])
    args.bins = bins
    with tempfile.TemporaryDirectory() as tmp:
        args.out = f"{tmp}/s"
        cmd_sample(args)
        return [Path(f"{tmp}/s.{ext}").read_text() for ext in ("csv", "json")]


def _chain(**change):
    return run_mcmc(EnsembleConfig(**{"n": 4, "potential": GINIBRE, "bin_edges": np.linspace(0.0, 2.0, 9),
                                      "sweeps": 100, "burn_in": 100, "seed": 3, **change}))


# each integer argument: (the name its refusal gives, a call on a value v for it, a valid v)
INTEGER_ARGUMENTS = {
    "k of R0": ("k", lambda v: bergman_function_r0(v, 0.5, 1.0, np.array([0.0, 0.7, 2.0])), 2),
    "k of MicroscopicPotential": ("k", lambda v: MicroscopicPotential(
        k=v, c=0.5, q0=HomogeneousHermitianPoly(4, {(2, 2): 1.0})), 2),
    "k of normalize_potential": ("k", lambda v: normalize_potential(QUARTIC, v), 2),
    "radial power": ("coefficient index", lambda v: MacroscopicPotential(kind="radial", radial_coeffs={v: 1.0}), 2),
    "Hermitian index": ("coefficient index", lambda v: MacroscopicPotential(
        kind="hermitian", hermitian_coeffs={(1, 1): 1.0, (v, 0): 0.3, (0, v): 0.3}), 2),
    "index of a homogeneous part": ("coefficient index", lambda v: HomogeneousHermitianPoly(
        2, {(1, 1): 1.0, (v, 0): 0.3, (0, v): 0.3}), 2),
    "degree": ("degree", lambda v: HomogeneousHermitianPoly(v, {(1, 1): 1.0}), 2),
    "J of moments": ("J", lambda v: moments(1, 0.5, 1.0, v), 4),
    "n of finite_moments": ("n", lambda v: finite_moments(GINIBRE, 0.0, v), 4),
    "n of truncated_series_r0": ("n", lambda v: truncated_series_r0(1, 0.0, 1.0, v, np.array([0.0, 0.5, 1.5])), 4),
    "n of microscopic_scale": ("n", lambda v: microscopic_scale(GINIBRE, 0.0, v), 4),
    "n in an array of microscopic_scale": ("n", lambda v: microscopic_scale(GINIBRE, 0.0, [[v, 16]]), 4),
    "n_list of microscale_asymptotic_check": ("each n in n_list", lambda v: microscale_asymptotic_check(
        CHARGED, 1.0, [16, v]), 4),
    "n_list of convergence_report": ("each n in n_list", lambda v: convergence_report(
        GINIBRE, [8, v], np.linspace(0.1, 1.0, 3)), 4),
    "N of moment_matrix": ("N", lambda v: moment_matrix(canonical_decompose(TWISTED).q0, v), 4),
    **{f"{name} of EnsembleConfig": (name, lambda v, name=name: _chain(**{name: v}), good)
       for name, good in [("n", 4), ("sweeps", 100), ("burn_in", 100), ("seed", 3)]},
    "n of sample_radial_exact": ("n", lambda v: sample_radial_exact(GINIBRE, 0.0, v, 7, 5), 3),
    "seed of sample_radial_exact": ("seed", lambda v: sample_radial_exact(GINIBRE, 0.0, 3, v, 5), 7),
    "draws of sample_radial_exact": ("draws", lambda v: sample_radial_exact(GINIBRE, 0.0, 3, 7, v), 5),
    "sample --bins": ("--bins", _sample_files, 8),
}


def assert_same_bits(got, want):
    """got and want hold the same types and bits, through tuples (so the value types), lists and dicts."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    elif isinstance(want, dict):
        assert_same_bits(list(got.items()), list(want.items()))
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
    else:
        assert repr(got) == repr(want)


@pytest.mark.parametrize("row", INTEGER_ARGUMENTS)
def test_every_integer_argument_is_one_rule(row):
    # a numpy integer gives the bits of the Python int; a bool, a float or a string is refused by name
    what, call, good = INTEGER_ARGUMENTS[row]
    assert_same_bits(call(np.int64(good)), call(good))
    for bad in (True, 2.0, 2.5, "2"):
        refusal = rf"^{re.escape(what)} must be an integer >= \d+, got {re.escape(repr(bad))}$"
        with pytest.raises(ConfigError, match=refusal):
            call(bad)


def _command(argv):
    """Run one command line's handler, so that a refusal is raised rather than printed."""
    args = build_parser().parse_args(argv)
    return args.func(args)


SCALE = " must be finite and > 0, got {v}"
SCALES = (0.0, -1.0, math.inf, math.nan)
# the weight commands, each with valid flags, so that the flag a row adds is the only fault
WEIGHT_COMMANDS = [["r0"], ["verify-thm1"], ["rescale", "--n-list", "4"], ["equilibrium"],
                   ["sample", "--n", "4", "--sweeps", "2", "--burn-in", "0"], ["gram", "--n", "4"]]

# each input rule but the integer one, by caller: (the name its refusal gives, a call on a value v, the values it
# refuses, the exception, and the refusal after the name, with {v} for the value)
INPUT_RULES = {
    **{f"amplitude of {name}": ("amplitude", call, SCALES, ConfigError, SCALE) for name, call in [
        ("bergman_function_r0", lambda v: bergman_function_r0(1, 0.5, v, 0.7)),
        ("decay_report", lambda v: decay_report(1, 0.5, v, np.linspace(1.0, 2.0, 5))),
        ("disk_mass", lambda v: disk_mass(1, 0.5, v))]},
    "rn of rescaled_intensity": (
        "rn", lambda v: rescaled_intensity(finite_moments(GINIBRE, 0.0, 4), 0.5, v), SCALES, ConfigError, SCALE),
    "n_list of microscale_asymptotic_check": (
        "n_list", lambda v: microscale_asymptotic_check(CHARGED, 1.0, v), ([],), ConfigError,
        " must name at least one n"),
    "n_list of convergence_report": (
        "n_list", lambda v: convergence_report(GINIBRE, v, np.linspace(0.1, 1.0, 3)), ([],), ConfigError,
        " must name at least one n"),
    "z_grid of convergence_report": (
        "z_grid", lambda v: convergence_report(GINIBRE, [4], v), ([],), ConfigError, " must hold at least one point"),
    "points of delta_q0": (
        "points", lambda v: delta_q0(2, 0.0, 1.0, v), (math.nan, math.inf, -math.inf), ConfigError, " must be finite"),
    **{f"{argv[0]} --amplitude": ("--amplitude", lambda v, argv=argv: _command(argv + ["--amplitude", str(v)]),
                                  SCALES, ConfigError, SCALE) for argv in WEIGHT_COMMANDS},
    "sample --rmax": ("--rmax", lambda v: _command(WEIGHT_COMMANDS[4] + ["--rmax", str(v)]),
                      (0.0, math.inf, math.nan), ConfigError, SCALE),
}


@pytest.mark.parametrize("row, bad", [(row, bad) for row, (*_, values, _, _) in INPUT_RULES.items() for bad in values],
                         ids=lambda v: repr(v) if isinstance(v, (float, list)) else v)
def test_every_other_input_is_one_rule(row, bad, tmp_path, monkeypatch):
    # each refusal is its rule's, under the name the caller gave
    what, call, _, error, text = INPUT_RULES[row]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match=f"^{re.escape(what + text.format(v=bad))}$"):
        call(bad)
    assert not list(tmp_path.iterdir())


class TestLoadPotentialConfig:
    def test_radial_round_trip(self, tmp_path):
        doc = {"kind": "radial", "c": 1.0, "radial_coeffs": [[1, 1.0], [2, 0.5]]}
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        Q = load_potential_config(path)
        assert Q.kind == "radial" and Q.c == 1.0
        assert Q.radial_coeffs == {1: 1.0, 2: 0.5}

    def test_hermitian_conjugate_autofill(self):
        Q = load_potential_config(
            {"kind": "hermitian", "c": 0.0,
             "hermitian_coeffs": [[1, 1, 1.0, 0.0], [2, 0, 0.3, 0.1]]}
        )
        assert Q.hermitian_coeffs[(0, 2)] == pytest.approx(complex(0.3, -0.1))

    def test_diagonal_hermitian_rows_are_radial(self):
        # zero rows drop out; what is left is a_ii |z|^{2i} alone, the radial weight {i: a_ii}
        Q = load_potential_config({"kind": "hermitian", "c": 0.5, "k": 1, "hermitian_coeffs": [
            [1, 1, 1.0, 0.0], [2, 2, 0.5, 0.0], [2, 0, 0.0, 0.0]]})
        assert Q == MacroscopicPotential(kind="radial", c=0.5, radial_coeffs={1: 1.0, 2: 0.5})

    @pytest.mark.parametrize("rows", [[[1, 1, 1.0, 0.2]], [[1, 1, 0.0, 0.0]]], ids=["imaginary", "zero"])
    def test_diagonal_hermitian_rows_still_validated(self, rows):
        with pytest.raises(ConfigError):
            load_potential_config({"kind": "hermitian", "hermitian_coeffs": rows})

    def test_json_array_refused(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps([["radial_coeffs", [[1, 1.0]]]]))
        with pytest.raises(ConfigError, match="potential config must be a JSON object"):
            load_potential_config(path)

    def test_stated_k_validated(self):
        doc = {"kind": "radial", "c": 0.0, "radial_coeffs": [[2, 1.0]], "k": 1}
        with pytest.raises(ConfigError):
            load_potential_config(doc)
        doc["k"] = 2
        assert detect_k(load_potential_config(doc)) == 2

    def test_bad_json_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_potential_config(bad)
        with pytest.raises(ConfigError):
            load_potential_config(tmp_path / "absent.json")

    def test_bad_rows(self):
        with pytest.raises(ConfigError):
            load_potential_config({"kind": "radial", "radial_coeffs": [[1]]})
        with pytest.raises(ConfigError):
            load_potential_config({"kind": "nope"})

    @pytest.mark.parametrize("change", [
        {"c": "x"}, {"c": None}, {"c": math.nan}, {"c": True}, {"c": 10**400}, {"k": "two"}, {"k": 1.5},
        {"radial_coeffs": [[1.5, 1.0]]}, {"radial_coeffs": [["a", 1.0]]}, {"radial_coeffs": 5},
        {"radial_coeffs": [[1, 1.0, 2.0]]}, {"radial_coeffs": [[1, math.inf]]},
        # spectators is not a config key
        {"spectators": [["a", 0, 0.5]]}, {"spectators": [[1.0, 0.0]]}, {"spectators": {"re": 1.0}},
        {"hermitian_coeffs": [[1, 1, "x", 0.0]], "kind": "hermitian", "radial_coeffs": None},
        {"hermitian_coeffs": [[1, 1.2, 1.0, 0.0]], "kind": "hermitian", "radial_coeffs": None},
        {"hermitian_coeffs": ["x"], "kind": "hermitian", "radial_coeffs": None},
    ], ids=lambda change: repr(change)[:48])
    def test_one_row_reader_refuses(self, change):
        doc = {"kind": "radial", "radial_coeffs": [[1, 1.0]], **change}
        with pytest.raises(ConfigError):
            load_potential_config({key: v for key, v in doc.items() if v is not None or key == "c"})

    @pytest.mark.parametrize("doc", [
        {"kind": "radial", "radial_coeffs": [[1, 1.0]], "hermitian_coeffs": [[2, 0, 5.0, 0.0]]},
        {"kind": "hermitian", "hermitian_coeffs": [[1, 1, 1.0, 0.0]], "radial_coeffs": [[2, 1.0]]},
    ], ids=lambda doc: doc["kind"])
    def test_other_spelling_refused(self, doc):
        # as MacroscopicPotential refuses both fields, a config is refused for the other kind's rows
        with pytest.raises(ConfigError, match="takes no"):
            load_potential_config(doc)

    def test_integral_floats_and_repeated_rows(self):
        Q = load_potential_config({"kind": "radial", "c": 1, "k": 2.0, "radial_coeffs": [[2.0, 1.0], [2, 0.5]]})
        assert Q.c == 1.0 and Q.radial_coeffs == {2: 1.5}
        assert all(type(m) is int for m in Q.radial_coeffs)
