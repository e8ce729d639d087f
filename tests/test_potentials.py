import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from focklab import (
    ConfigError,
    HomogeneousHermitianPoly,
    MacroscopicPotential,
    MicroscopicPotential,
    Spectator,
    canonical_decompose,
    detect_k,
    kappa_shift,
    load_potential_config,
    normalize_potential,
)

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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ConfigError):
            HomogeneousHermitianPoly(2, {(2, 0): 0.3, (0, 2): 0.4})

    def test_angular_minimum_of_twist(self):
        q = HomogeneousHermitianPoly(2, TWIST)
        theta, qmin = q.angular_minimum()
        assert qmin == pytest.approx(0.4, abs=1e-10)
        assert math.cos(2 * theta) == pytest.approx(-1.0, abs=1e-6)
        assert q.is_positive_definite()

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
        assert not q.is_positive_definite()

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
        assert q.scaled(f).evaluate(z) == pytest.approx(f * q.evaluate(z), rel=1e-13)


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

    def test_kappa_radial_amplitude(self):
        p = MicroscopicPotential(k=1, c=0.5, q0=HomogeneousHermitianPoly(2, TWIST))
        assert p.kappa == pytest.approx(0.3)
        assert not p.is_radial
        assert p.amplitude == pytest.approx(1.0)
        radial = MicroscopicPotential(k=2, c=0.0, q0=HomogeneousHermitianPoly(4, {(2, 2): 0.5}))
        assert radial.is_radial and radial.kappa == 0.0 and radial.amplitude == 0.5

    def test_kappa_shift_strips_pure_term(self):
        p = MicroscopicPotential(k=1, c=0.0, q0=HomogeneousHermitianPoly(2, TWIST))
        shifted, kap = kappa_shift(p)
        assert kap == pytest.approx(0.3)
        assert shifted.is_radial
        assert kappa_shift(shifted)[1] == 0.0


class TestSpectator:
    def test_validation(self):
        Spectator(position=1.0 + 0j, charge=0.5)
        with pytest.raises(ConfigError):
            Spectator(position=0j, charge=0.5)
        with pytest.raises(ConfigError):
            Spectator(position=1.0 + 0j, charge=-1.0)


class TestMacroscopicPotential:
    def test_radial_closed_forms(self):
        Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: 1.0})
        r = 1.3
        assert Q.q_of_r(r) == pytest.approx(r**2 + r**4, rel=1e-14)
        assert Q.dq_dr(r) == pytest.approx(2 * r + 4 * r**3, rel=1e-14)
        assert Q.laplacian_radial(r) == pytest.approx(1 + 4 * r**2, rel=1e-14)
        assert Q.value(r * 1j) == pytest.approx(Q.q_of_r(r), rel=1e-14)

    @pytest.mark.parametrize(
        "coeffs", [{1: 1.0}, {2: 1.0}, {3: 0.7}, {1: 1.0, 2: 1.0}, {1: 1.0, 2: -0.6, 3: 0.15}]
    )
    def test_array_evaluation_matches_scalar_calls(self, coeffs):
        Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs=coeffs)
        r = np.concatenate([[0.0], np.geomspace(1e-8, 40.0, 301)]).reshape(2, -1)
        for f in (Q.q_of_r, Q.dq_dr, Q.laplacian_radial):
            got = f(r)
            assert isinstance(got, np.ndarray) and got.shape == r.shape
            want = np.array([f(float(x)) for x in r.ravel()]).reshape(r.shape)
            assert all(type(f(float(x))) is float for x in r.ravel()[:3])
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_growth_violation(self):
        with pytest.raises(ConfigError):
            MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0, 2: -1.0})

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

    def test_spectator_log_weight(self):
        s = Spectator(position=1.0 + 0j, charge=0.5)
        Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0}, spectators=(s,))
        z = 2.0 + 1.0j
        assert Q.spectator_log_weight(z) == pytest.approx(2 * 0.5 * math.log(abs(z - 1.0)))
        assert Q.spectator_log_weight(1.0 + 0j) == -math.inf
        neg = MacroscopicPotential(
            kind="radial", c=0.0, radial_coeffs={1: 1.0},
            spectators=(Spectator(position=1.0 + 0j, charge=-0.5),),
        )
        assert neg.spectator_log_weight(1.0 + 0j) == math.inf

    def test_spectator_log_weight_array(self):
        Q = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0}, spectators=(
            Spectator(position=1.0 + 0j, charge=0.5), Spectator(position=-1j, charge=-0.25)))
        z = np.array([[2.0 + 1.0j, 0j], [1.0 + 0j, -1j]])
        h = Q.spectator_log_weight(z)
        assert h.shape == z.shape
        np.testing.assert_array_equal(h.ravel(), [Q.spectator_log_weight(zz) for zz in z.ravel()])
        assert h[1, 0] == -math.inf and h[1, 1] == math.inf
        free = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0})
        np.testing.assert_array_equal(free.spectator_log_weight(z), np.zeros(z.shape))
        assert free.spectator_log_weight(1.0 + 0j) == 0.0

    def test_duplicate_spectators_rejected(self):
        s = Spectator(position=1.0 + 0j, charge=0.5)
        with pytest.raises(ConfigError):
            MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0},
                                 spectators=(s, s))


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
        dec = canonical_decompose(Q, 1)
        assert dec.q0.q0.coeffs == {(1, 1): 1.0}
        assert dec.h_coeffs == {2: pytest.approx(0.6)}
        assert not dec.q1_coeffs

    def test_higher_terms_go_to_q1(self):
        coeffs = {(1, 1): 1.0, (3, 0): 0.25, (0, 3): 0.25, (2, 2): 0.05}
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=coeffs)
        dec = canonical_decompose(Q, 1)
        assert dec.q1_coeffs[(3, 0)] == pytest.approx(0.25)
        assert dec.q1_coeffs[(2, 2)] == pytest.approx(0.05)

    @given(st.floats(min_value=-1.4, max_value=1.4), st.floats(min_value=-1.4, max_value=1.4))
    def test_reconstruction(self, x, y):
        coeffs = {(1, 1): 1.0, (2, 0): 0.2, (0, 2): 0.2, (3, 0): 0.1, (0, 3): 0.1, (2, 2): 0.05}
        Q = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs=coeffs)
        dec = canonical_decompose(Q, 1)
        z = complex(x, y)
        re_h = sum(h * z**m for m, h in dec.h_coeffs.items()).real
        q1 = sum(a * z**i * z.conjugate() ** j for (i, j), a in dec.q1_coeffs.items()).real
        assert dec.q0.evaluate(z) + re_h + q1 == pytest.approx(Q.value(z), rel=1e-12, abs=1e-12)

    def test_low_degree_mixed_term_rejected(self):
        Q = MacroscopicPotential(kind="hermitian", c=0.0,
                                 hermitian_coeffs={(1, 1): 1.0, (2, 2): 1.0})
        with pytest.raises(ConfigError):
            canonical_decompose(Q, 2)


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


class TestLoadPotentialConfig:
    def test_radial_round_trip(self, tmp_path):
        doc = {"kind": "radial", "c": 1.0, "radial_coeffs": [[1, 1.0], [2, 0.5]],
               "spectators": [[1.0, 0.0, 0.5]]}
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        Q = load_potential_config(path)
        assert Q.kind == "radial" and Q.c == 1.0
        assert Q.radial_coeffs == {1: 1.0, 2: 0.5}
        assert Q.spectators[0].position == 1.0 + 0j

    def test_hermitian_conjugate_autofill(self):
        Q = load_potential_config(
            {"kind": "hermitian", "c": 0.0,
             "hermitian_coeffs": [[1, 1, 1.0, 0.0], [2, 0, 0.3, 0.1]]}
        )
        assert Q.hermitian_coeffs[(0, 2)] == pytest.approx(complex(0.3, -0.1))

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
