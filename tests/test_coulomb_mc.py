import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import kstest

from focklab import (
    ConfigError,
    EnsembleConfig,
    IntensityHistogram,
    MacroscopicPotential,
    delta_energy,
    energy,
    run_mcmc,
    sample_radial_exact,
)
from focklab.coulomb_mc import _BATCHES, _TUNE_INTERVAL, _TUNE_TARGET, _site_energy

GINIBRE = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0})


def radial(coeffs, c=0.0):
    return MacroscopicPotential(kind="radial", c=c, radial_coeffs=coeffs)


class TestEnergy:
    def test_single_point(self):
        assert energy([1.0 + 0j], GINIBRE) == pytest.approx(1.0, rel=1e-14)

    def test_two_points_closed_form(self):
        # 2 (Q(1) + Q(-1)) - 2 log|1 - (-1)| = 4 - 2 log 2
        assert energy([1.0 + 0j, -1.0 + 0j], GINIBRE) == pytest.approx(
            4.0 - 2.0 * math.log(2.0), rel=1e-14
        )

    def test_coincident_points_infinite(self):
        assert energy([0.5 + 0j, 0.5 + 0j], GINIBRE) == math.inf

    def test_origin_charge_branches(self):
        assert energy([0j], radial({1: 1.0}, c=1.0)) == math.inf
        assert energy([0j], radial({1: 1.0}, c=-0.5)) == -math.inf

    def test_explicit_n_overrides_count(self):
        # H depends on n through the site term only
        assert energy([1.0 + 0j], GINIBRE, n=5) == pytest.approx(5.0, rel=1e-14)

    def test_first_singular_particle_decides(self):
        # the origin (c < 0: -inf) and a particle whose r^400 overflows (+inf) in one configuration
        Q = radial({1: 1.0, 200: 1.0}, c=-0.5)
        with np.errstate(over="ignore"):
            assert energy([0j, 10.0 + 0j], Q) == -math.inf
            assert energy([10.0 + 0j, 0j], Q) == math.inf

    def test_overflowing_site_is_inf_without_warning(self):
        # r^400 overflows at r = 10: both energies are +inf, and numpy's overflow warning (an error
        # under the suite's RuntimeWarning filter) stays silent
        Q = radial({1: 1.0, 200: 1.0}, c=0.5)
        assert energy([0.5 + 0j, 10.0 + 0j], Q) == math.inf
        assert delta_energy([0.5 + 0j, 1.0 + 0j], 1, 10.0 + 0j, Q) == math.inf


class TestSiteEnergy:
    POTENTIALS = [
        radial({1: 1.0, 2: 0.5}, c=0.7),
        radial({1: 1.0}, c=-0.5),
        MacroscopicPotential(kind="hermitian", c=0.3, hermitian_coeffs={(1, 1): 1.0, (2, 0): 0.2, (0, 2): 0.2}),
    ]

    @pytest.mark.parametrize("pot", POTENTIALS, ids=["radial", "negative-c", "hermitian"])
    def test_array_equals_scalar_calls(self, pot):
        rng = np.random.default_rng(3)
        z = np.append(rng.standard_normal(9) + 1j * rng.standard_normal(9), 0j)
        with np.errstate(divide="ignore"):
            arr = _site_energy(pot, pot.c, 6, z)
            one = [_site_energy(pot, pot.c, 6, zz) for zz in z]
        assert arr.shape == z.shape
        # a scalar Hermitian sum runs in Python complex arithmetic, an array one in numpy's
        np.testing.assert_array_max_ulp(arr, np.array(one), maxulp=0 if pot.kind == "radial" else 4)
        # the finite values are n Q(z) - 2c log|z|, and the origin keeps the sign of c
        for zz, got in zip(z[:9], arr[:9]):
            want = 6 * pot.value(complex(zz)) - 2.0 * pot.c * math.log(abs(zz))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
        assert arr[9] == (math.inf if pot.c > 0 else -math.inf)


class TestDeltaEnergy:
    def test_matches_full_recompute(self):
        rng = np.random.default_rng(42)
        Q = radial({1: 1.0, 2: 0.5}, c=0.7)
        pts = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for _ in range(20):
            i = int(rng.integers(6))
            znew = complex(*rng.standard_normal(2))
            new_pts = pts.copy()
            new_pts[i] = znew
            want = energy(new_pts, Q, n=6) - energy(pts, Q, n=6)
            got = delta_energy(pts, i, znew, Q, n=6)
            assert got == pytest.approx(want, abs=1e-9)

    def test_move_onto_neighbor_infinite(self):
        pts = np.array([0.1 + 0j, 1.0 + 0j])
        assert delta_energy(pts, 0, 1.0 + 0j, GINIBRE) == math.inf


def reference_chain(cfg):
    """The per-particle Metropolis loop on delta_energy, one histogram per recorded sweep."""
    rng = np.random.default_rng(cfg.seed)
    pot, n, c, edges = cfg.potential, cfg.n, cfg.potential.c, cfg.bin_edges
    pts = edges[-1] * 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    delta = cfg.delta0
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    batch_counts = np.zeros((_BATCHES, edges.size - 1), dtype=np.int64)
    moduli = []
    tuned_acc = rec_acc = recorded = 0
    for sweep in range(cfg.burn_in + cfg.sweeps * cfg.thin):
        burn = sweep < cfg.burn_in
        steps = rng.standard_normal((n, 2)) * delta
        us = rng.random(n)
        for i in range(n):
            znew = pts[i] + complex(steps[i, 0], steps[i, 1])
            with np.errstate(over="ignore"):
                dh = delta_energy(pts, i, znew, pot, n, c)
            if math.isfinite(dh) and (dh <= 0.0 or us[i] < math.exp(-dh)):
                pts[i] = znew
                if burn:
                    tuned_acc += 1
                else:
                    rec_acc += 1
        if burn:
            if (sweep + 1) % _TUNE_INTERVAL == 0:
                rate = tuned_acc / (_TUNE_INTERVAL * n)
                delta = float(np.clip(delta * math.exp(1.5 * (rate - _TUNE_TARGET)), 1e-4, 50.0))
                tuned_acc = 0
            continue
        if (sweep - cfg.burn_in) % cfg.thin != 0:
            continue
        cnt, _ = np.histogram(np.abs(pts), edges)
        counts += cnt
        batch_counts[recorded * _BATCHES // cfg.sweeps] += cnt
        moduli.append(np.abs(pts))
        recorded += 1
    return counts, batch_counts, rec_acc / (cfg.sweeps * cfg.thin * n), delta, np.concatenate(moduli)


@pytest.mark.filterwarnings("ignore:acceptance rate:RuntimeWarning")
class TestSweepBlockedChain:
    """run_mcmc against the per-particle loop: the same RNG stream gives the same chain."""

    EDGES = np.linspace(0.0, 2.0, 11)
    CASES = {
        "radial c=-0.5": dict(n=5, potential=radial({1: 1.0, 2: 0.3}, c=-0.5)),
        "radial c=0": dict(n=5, potential=radial({1: 1.0, 2: 0.3})),
        "radial c=1": dict(n=5, potential=radial({1: 1.0, 2: 0.3}, c=1.0)),
        "hermitian": dict(n=5, potential=MacroscopicPotential(
            kind="hermitian", c=0.3, hermitian_coeffs={(1, 1): 1.0, (2, 0): 0.2, (0, 2): 0.2})),
        "thin=3": dict(n=4, potential=GINIBRE, thin=3),
        "n=1": dict(n=1, potential=GINIBRE),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_per_particle_loop(self, name, monkeypatch):
        cfg = EnsembleConfig(bin_edges=self.EDGES, sweeps=120, burn_in=60, seed=17,
                             collect_moduli=True, **self.CASES[name])
        # every energy change of these chains is finite, so none needs the fallback
        monkeypatch.setattr("focklab.coulomb_mc.delta_energy", None)
        res = run_mcmc(cfg)
        counts, batch_counts, rate, delta, moduli = reference_chain(cfg)
        np.testing.assert_array_equal(res.histogram.counts, counts)
        np.testing.assert_array_equal(res.histogram.batch_counts, batch_counts)
        assert res.acceptance_rate == rate
        assert res.delta_final == delta
        np.testing.assert_array_equal(res.moduli, moduli)

    def test_non_finite_change_falls_back_to_delta_energy(self, monkeypatch):
        # r^400 overflows past r ~ 5.9, so wide proposals have an infinite site energy
        calls = []

        def counted(*args):
            calls.append(args[1])
            return delta_energy(*args)

        monkeypatch.setattr("focklab.coulomb_mc.delta_energy", counted)
        cfg = EnsembleConfig(n=3, potential=radial({1: 1.0, 200: 1.0}), bin_edges=self.EDGES,
                             sweeps=40, burn_in=0, delta0=8.0, seed=5, collect_moduli=True)
        res = run_mcmc(cfg)
        counts, batch_counts, rate, delta, moduli = reference_chain(cfg)
        assert len(calls) > 10
        np.testing.assert_array_equal(res.histogram.counts, counts)
        assert res.acceptance_rate == rate
        np.testing.assert_array_equal(res.moduli, moduli)


class TestEnsembleConfig:
    def test_validation(self):
        edges = np.linspace(0.0, 2.0, 9)
        with pytest.raises(ConfigError):
            EnsembleConfig(n=0, potential=GINIBRE, bin_edges=edges)
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=edges, sweeps=0)
        with pytest.raises(ConfigError):
            # one recorded sweep fills one batch, which has no spread
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=edges, sweeps=1)
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=edges, thin=0)
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=edges, delta0=0.0)
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=[0.0, 0.5, 0.4])
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=[-0.1, 0.5, 1.2])
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=[0.0, 0.5, np.inf])
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=[0.0, 0.5, np.nan])

    def test_bins_must_cover_droplet(self):
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=np.linspace(0.0, 0.5, 5))


class TestRunMcmc:
    def test_deterministic_given_seed(self):
        edges = np.linspace(0.0, 2.0, 9)
        cfg = EnsembleConfig(n=3, potential=GINIBRE, bin_edges=edges,
                             sweeps=60, burn_in=30, seed=123)
        a = run_mcmc(cfg)
        b = run_mcmc(cfg)
        np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)
        assert a.acceptance_rate == b.acceptance_rate
        assert a.delta_final == b.delta_final

    def test_mass_and_batch_bookkeeping(self):
        cfg = EnsembleConfig(n=4, potential=GINIBRE, bin_edges=np.linspace(0.0, 2.0, 9),
                             sweeps=400, burn_in=150, seed=7)
        res = run_mcmc(cfg)
        h = res.histogram
        assert h.recorded == 400
        assert h.mass() == pytest.approx(4.0, abs=0.05)
        np.testing.assert_array_equal(h.batch_counts.sum(axis=0), h.counts)
        assert h.batch_recorded.sum() == h.recorded
        assert 0.2 <= res.acceptance_rate <= 0.6

    def test_single_particle_gaussian_moment(self):
        cfg = EnsembleConfig(n=1, potential=GINIBRE, bin_edges=np.linspace(0.0, 2.5, 11),
                             sweeps=3000, burn_in=500, seed=11, collect_moduli=True)
        res = run_mcmc(cfg)
        assert res.moduli.shape == (3000,)
        # E[r^2] = 1 for the single-particle Gaussian law
        assert float(np.mean(res.moduli**2)) == pytest.approx(1.0, abs=0.1)
        assert res.histogram.mass() >= 0.99

    @pytest.mark.filterwarnings("ignore:acceptance rate:RuntimeWarning")
    def test_thinning_records_requested_sweeps(self):
        cfg = EnsembleConfig(n=2, potential=GINIBRE, bin_edges=np.linspace(0.0, 2.0, 5),
                             sweeps=50, burn_in=10, thin=3, seed=1)
        res = run_mcmc(cfg)
        assert res.histogram.recorded == 50

    def test_stderr_with_fewer_sweeps_than_batches(self, recwarn):
        cfg = EnsembleConfig(n=2, potential=GINIBRE, bin_edges=np.linspace(0.0, 2.0, 9),
                             sweeps=10, burn_in=50, seed=1)
        h = run_mcmc(cfg).histogram
        assert np.count_nonzero(h.batch_recorded) == 10
        se = h.stderr()
        assert np.all(np.isfinite(se))
        assert not [w for w in recwarn if w.category is RuntimeWarning and "acceptance" not in str(w.message)]

    def test_warns_on_poor_acceptance(self):
        cfg = EnsembleConfig(n=3, potential=GINIBRE, bin_edges=np.linspace(0.0, 2.0, 5),
                             sweeps=30, burn_in=0, delta0=50.0, seed=2)
        with pytest.warns(RuntimeWarning, match="acceptance rate"):
            run_mcmc(cfg)


class TestExactRadialSampler:
    def test_deterministic_shape(self):
        a = sample_radial_exact(GINIBRE, 0.0, 2, seed=915, draws=100)
        b = sample_radial_exact(GINIBRE, 0.0, 2, seed=915, draws=100)
        assert a.shape == (100, 2)
        np.testing.assert_array_equal(a, b)

    def test_gaussian_sum_of_squares(self):
        # E[r_0^2 + r_1^2] = (1 + 2)/n = 3/2 for the two-point Gaussian ensemble
        s = sample_radial_exact(GINIBRE, 0.0, 2, seed=915, draws=10_000)
        assert float(np.mean((s**2).sum(axis=1))) == pytest.approx(1.5, abs=0.01)

    def test_per_index_gamma_moments(self):
        # r_j^2 ~ Gamma(j + c + 1, scale 1/n) for the quadratic potential
        c, n = 0.5, 3
        s = sample_radial_exact(GINIBRE, c, n, seed=5, draws=20_000)
        for j in range(n):
            want = (j + c + 1.0) / n
            assert float(np.mean(s[:, j] ** 2)) == pytest.approx(want, abs=0.02)

    def test_integrable_singularity_branch(self):
        # c = -0.75 puts a r^{-1/2} singularity at 0; the mean must still match
        Q = radial({1: 1.0}, c=-0.75)
        s = sample_radial_exact(Q, -0.75, 1, seed=3, draws=20_000)
        assert float(np.mean(s**2)) == pytest.approx(0.25, abs=0.02)
        assert np.all(s > 0)

    def test_rejects_an_empty_ensemble_and_charges_at_most_minus_one(self):
        with pytest.raises(ConfigError):
            sample_radial_exact(GINIBRE, 0.0, 0, seed=0, draws=10)
        with pytest.raises(ConfigError):
            sample_radial_exact(GINIBRE, -1.0, 2, seed=0, draws=10)

    @pytest.mark.parametrize("k,c,n", [(1, 0.0, 8), (2, 0.5, 256), (1, -0.75, 1), (3, -0.9, 16)])
    def test_pooled_moduli_match_the_gamma_law(self, k, c, n):
        # for Q = r^{2k}, n r_j^{2k} ~ Gamma((j+c+1)/k), so the pooled moduli follow the mean of n CDFs
        s = sample_radial_exact(radial({k: 1.0}, c=c), c, n, seed=915, draws=16384 // n)
        shapes = (np.arange(n) + c + 1.0) / k
        cdf = lambda r: gammainc(shapes, n * np.asarray(r)[:, None] ** (2 * k)).mean(axis=1)
        assert kstest(s.ravel(), cdf).pvalue >= 0.01

    def test_memory_peak_is_flat(self):
        tracemalloc.start()
        try:
            sample_radial_exact(radial({1: 1.0}, c=0.5), 0.5, 256, seed=1, draws=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestIntensityHistogram:
    def test_narrow_bin_area_is_exact(self):
        # hi^2 - lo^2 cancels to 6.6e-13 relative on [0.8, 0.8001]; (hi - lo)(hi + lo) does not
        edges = np.array([0.0, 0.8, 0.8001, 2.0])
        h = IntensityHistogram(edges=edges, counts=np.ones(3), recorded=1, batch_counts=np.ones((2, 3)),
                               batch_recorded=np.ones(2))
        exact = [Fraction(hi) ** 2 - Fraction(lo) ** 2 for lo, hi in zip(edges[:-1], edges[1:])]
        for got, want in zip(h.bin_area, exact):
            assert abs(Fraction(got) / want - 1) <= Fraction(1, 10**16)
