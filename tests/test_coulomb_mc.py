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
    bin_averaged_intensity,
    finite_moments,
    run_mcmc,
    sample_radial_exact,
)
from focklab.coulomb_mc import _BATCHES, _DELTA0, _TUNE_INTERVAL, _TUNE_TARGET, _site_energy
from focklab.radial_bergman import _incomplete_gamma

GINIBRE = MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0})
# |z|^2 + 0.3 (z^2 + conj(z)^2)
TWISTED = MacroscopicPotential(kind="hermitian", c=0.0, hermitian_coeffs={(1, 1): 1.0, (2, 0): 0.3, (0, 2): 0.3})


def radial(coeffs, c=0.0):
    return MacroscopicPotential(kind="radial", c=c, radial_coeffs=coeffs)


def energy(points, potential, n=None):
    """Total configuration energy H, on the chain's site energy; +-inf on coincident points or a singular site."""
    z = np.asarray(points, dtype=complex)
    if n is None:
        n = z.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = np.abs(z[:, None] - z[None, :])
        iu = np.triu_indices(z.size, k=1)
        if z.size > 1 and np.any(d[iu] == 0.0):
            return math.inf
        pair = -2.0 * float(np.sum(np.log(d[iu]))) if z.size > 1 else 0.0
        site = _site_energy(potential, n, z)
    singular = np.isinf(site)
    if singular.any():
        return float(site[np.argmax(singular)])  # the first singular particle decides
    return pair + float(np.sum(site))


def delta_energy(points, i, znew, potential, n=None):
    """Energy change from moving particle i to znew, in the incremental form of the plain one-particle loop."""
    z = np.asarray(points, dtype=complex)
    if n is None:
        n = z.size
    others = np.delete(z, i)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_old = np.abs(others - z[i])
        d_new = np.abs(others - znew)
        if np.any(d_new == 0.0):
            return math.inf
        pair = 2.0 * (float(np.sum(np.log(d_old))) - float(np.sum(np.log(d_new))))
        new, old = _site_energy(potential, n, np.array([znew, z[i]])).tolist()
    return pair + new - old


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
        # past the largest double the value of Q is computed with its sign, +inf here, where terms of
        # both signs would give inf - inf = NaN
        assert energy([1e200 + 1e200j, 0.5 + 0j], TWISTED) == math.inf
        assert delta_energy([0.1 + 0j, 0.5 + 0j], 0, 1e200 + 1e200j, TWISTED) == math.inf
        assert energy([1e120 + 0j, 0.5 + 0j], radial({1: 1.0, 2: -1e-4, 3: 1.0})) == math.inf


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
            arr = _site_energy(pot, 6, z)
            one = [_site_energy(pot, 6, zz) for zz in z]
        assert arr.shape == z.shape
        # a scalar Hermitian sum runs in Python complex arithmetic, an array one in numpy's
        np.testing.assert_array_max_ulp(arr, np.array(one), maxulp=0 if pot.kind == "radial" else 4)
        # the finite values are n Q(z) - 2c log|z|, and the origin keeps the sign of c
        for zz, got in zip(z[:9], arr[:9]):
            want = 6 * pot.value(complex(zz)) - 2.0 * pot.c * math.log(abs(zz))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
        assert arr[9] == (math.inf if pot.c > 0 else -math.inf)

    def test_one_point_past_the_largest_double_is_inf(self):
        # one Python complex point, on the diagonal 1e200 (1 + i) and on an axis: Q is +inf, and so is n V_n
        for z in (complex(1e200, 1e200), 1e200j):
            assert TWISTED.value(z) == math.inf
            assert _site_energy(TWISTED, 6, z) == math.inf


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
    """The per-particle Metropolis loop on delta_energy, one histogram per recorded sweep.

    Recorded sweep i goes to batch i * 32 // sweeps as soon as it is drawn.
    """
    rng = np.random.default_rng(cfg.seed)
    pot, n, edges = cfg.potential, cfg.n, cfg.bin_edges
    pts = edges[-1] * 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    delta = _DELTA0
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    batch_counts = np.zeros((_BATCHES, edges.size - 1), dtype=np.int64)
    batch_recorded = np.zeros(_BATCHES, dtype=np.int64)
    moduli = []
    tuned_acc = rec_acc = recorded = 0
    for sweep in range(cfg.burn_in + cfg.sweeps):
        burn = sweep < cfg.burn_in
        steps = rng.standard_normal((n, 2)) * delta
        us = rng.random(n)
        for i in range(n):
            znew = pts[i] + complex(steps[i, 0], steps[i, 1])
            with np.errstate(over="ignore"):
                dh = delta_energy(pts, i, znew, pot, n)
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
        cnt, _ = np.histogram(np.abs(pts), edges)
        counts += cnt
        batch_counts[recorded * _BATCHES // cfg.sweeps] += cnt
        batch_recorded[recorded * _BATCHES // cfg.sweeps] += 1
        moduli.append(np.abs(pts))
        recorded += 1
    rate = rec_acc / (cfg.sweeps * n)
    return counts, batch_counts, batch_recorded, rate, delta, np.concatenate(moduli)


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
        "n=1": dict(n=1, potential=GINIBRE),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_per_particle_loop(self, name):
        # with and without the moduli (the CLI and the benchmark's chains keep none), and at 7 recorded
        # sweeps, where 25 of the 32 batches stay empty
        for sweeps, collect in [(120, True), (120, False), (7, True), (7, False)]:
            cfg = EnsembleConfig(bin_edges=self.EDGES, sweeps=sweeps, burn_in=60, seed=17,
                                 collect_moduli=collect, **self.CASES[name])
            res = run_mcmc(cfg)
            counts, batch_counts, batch_recorded, rate, delta, moduli = reference_chain(cfg)
            h = res.histogram
            np.testing.assert_array_equal(h.counts, counts)
            np.testing.assert_array_equal(h.batch_counts, batch_counts)
            np.testing.assert_array_equal(h.batch_recorded, batch_recorded)
            assert h.recorded == sweeps
            assert res.acceptance_rate == rate
            assert res.delta_final == delta
            if collect:
                np.testing.assert_array_equal(res.moduli, moduli)
            else:
                assert res.moduli is None

    def test_non_finite_change_is_rejected(self, monkeypatch):
        # r^4000 overflows past r ~ 1.19, so proposals of the default step have an infinite site energy
        infinite = []

        def counted(*args):
            out = _site_energy(*args)
            infinite.append(int(np.count_nonzero(np.isinf(out))))
            return out

        monkeypatch.setattr("focklab.coulomb_mc._site_energy", counted)
        cfg = EnsembleConfig(n=3, potential=radial({1: 1.0, 2000: 1.0}), bin_edges=self.EDGES,
                             sweeps=40, burn_in=0, seed=5, collect_moduli=True)
        res = run_mcmc(cfg)
        assert sum(infinite) > 10
        counts, batch_counts, batch_recorded, rate, delta, moduli = reference_chain(cfg)
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

    # one grid rule for the Monte Carlo bins and the exact bin averages: one axis of at least
    # 2 finite radii >= 0, strictly increasing
    @pytest.mark.parametrize("edges", [
        [0.0, 0.5, 0.4], [0.0, 1.0, 0.5], [0.0, 0.5, 0.5], [-0.1, 0.5, 1.2], [-1.0, 1.0], [0.0, 0.5, np.inf],
        [0.0, 0.5, np.nan], [0.0, np.nan, 1.0], [[0.0, 1.0], [1.0, 2.0]], [1.0], [],
    ], ids=str)
    @pytest.mark.parametrize("use", [
        lambda edges: EnsembleConfig(n=2, potential=GINIBRE, bin_edges=edges),
        lambda edges: bin_averaged_intensity(finite_moments(GINIBRE, 0.0, 2), edges),
    ], ids=["EnsembleConfig", "bin_averaged_intensity"])
    def test_bad_edges(self, use, edges):
        with pytest.raises(ConfigError, match="must be one axis of at least 2 finite radii >= 0, strictly increasing"):
            use(edges)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        edges = np.linspace(0.0, 2.0, 9)
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=edges, seed=seed)
        assert EnsembleConfig(n=2, potential=GINIBRE, bin_edges=edges, seed=np.int64(7)).seed == 7

    def test_bins_must_cover_droplet(self):
        with pytest.raises(ConfigError):
            EnsembleConfig(n=2, potential=GINIBRE, bin_edges=np.linspace(0.0, 0.5, 5))

    def test_bins_that_miss_the_ensemble_warn(self):
        # a Q that is not radial has no droplet check: this one is negative out to |z| of about 2e80, where
        # its top part takes over, so no particle stays in [0, 3] although the acceptance is in band
        Q = MacroscopicPotential(kind="hermitian", hermitian_coeffs={
            (2, 2): 1e-80, (4, 0): 5e-82, (0, 4): 5e-82, (2, 1): -1.0, (1, 2): -1.0})
        cfg = EnsembleConfig(n=8, potential=Q, bin_edges=np.linspace(0.0, 3.0, 13), sweeps=400, seed=1)
        with pytest.warns(RuntimeWarning, match="per sweep 0 below n/2 = 4; the bins miss the ensemble"):
            res = run_mcmc(cfg)
        assert 0.2 <= res.acceptance_rate <= 0.6 and res.histogram.mass() == 0.0


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

    def test_stderr_with_fewer_sweeps_than_batches(self, recwarn):
        cfg = EnsembleConfig(n=2, potential=GINIBRE, bin_edges=np.linspace(0.0, 2.0, 9),
                             sweeps=10, burn_in=50, seed=1)
        h = run_mcmc(cfg).histogram
        assert np.count_nonzero(h.batch_recorded) == 10
        se = h.stderr()
        assert np.all(np.isfinite(se))
        assert not [w for w in recwarn if w.category is RuntimeWarning and "acceptance" not in str(w.message)]

    def test_warns_on_poor_acceptance(self):
        # with no burn-in the first step, 0.3, is never tuned: too short for 3 Ginibre particles (acceptance 0.64)
        cfg = EnsembleConfig(n=3, potential=GINIBRE, bin_edges=np.linspace(0.0, 2.0, 5),
                             sweeps=30, burn_in=0, seed=2)
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
        s = sample_radial_exact(radial({1: 1.0}, c=c), c, n, seed=5, draws=20_000)
        for j in range(n):
            want = (j + c + 1.0) / n
            assert float(np.mean(s[:, j] ** 2)) == pytest.approx(want, abs=0.02)

    def test_integrable_singularity_branch(self):
        # c = -0.75 puts a r^{-1/2} singularity at 0; the mean must still match
        Q = radial({1: 1.0}, c=-0.75)
        s = sample_radial_exact(Q, -0.75, 1, seed=3, draws=20_000)
        assert float(np.mean(s**2)) == pytest.approx(0.25, abs=0.02)
        assert np.all(s > 0)

    @pytest.mark.parametrize("seed,draws,what", [(-1, 10, "seed"), (1.5, 10, "seed"), ("7", 10, "seed"),
                                                 (0, -1, "draws"), (0, 2.0, "draws")])
    def test_seed_and_draws_must_be_nonnegative_integers(self, seed, draws, what):
        # the seed rule of EnsembleConfig, and a count of draws
        with pytest.raises(ConfigError, match=f"{what} must be an integer >= 0"):
            sample_radial_exact(GINIBRE, 0.0, 2, seed=seed, draws=draws)
        assert sample_radial_exact(GINIBRE, 0.0, 2, seed=np.int64(7), draws=0).shape == (0, 2)

    def test_rejects_an_empty_ensemble_and_charges_at_most_minus_one(self):
        with pytest.raises(ConfigError):
            sample_radial_exact(GINIBRE, 0.0, 0, seed=0, draws=10)
        with pytest.raises(ConfigError):
            radial({1: 1.0}, c=-1.0)

    @pytest.mark.parametrize("k,c,n", [(1, 0.0, 8), (2, 0.5, 256), (1, -0.75, 1), (3, -0.9, 16)])
    def test_pooled_moduli_match_the_gamma_law(self, k, c, n):
        # for Q = r^{2k}, n r_j^{2k} ~ Gamma((j+c+1)/k), so the pooled moduli follow the mean of n CDFs
        s = sample_radial_exact(radial({k: 1.0}, c=c), c, n, seed=915, draws=16384 // n)
        shapes = (np.arange(n) + c + 1.0) / k
        cdf = lambda r: gammainc(shapes, n * np.asarray(r)[:, None] ** (2 * k)).mean(axis=1)
        assert kstest(s.ravel(), cdf).pvalue >= 0.01

    @pytest.mark.parametrize("k,c,seed,radii", [(1, 1.0, 1601, np.linspace(0.12, 0.45, 12)),
                                                (2, 0.5, 1602, np.linspace(0.14, 0.52, 12))],
                             ids=["ginibre", "quartic"])
    def test_hole_probability_is_the_product_law(self, k, c, seed, radii):
        # the moduli are independent with n r_j^{2k} ~ Gamma(beta_j), beta_j = (j+c+1)/k, so the
        # joint law gives P(min_j r_j > rho) = prod_j Q(beta_j, n rho^{2k}), which one-modulus laws do not pin
        n, draws = 16, 20_000
        s = sample_radial_exact(radial({k: 1.0}, c=c), c, n, seed=seed, draws=draws)
        beta = (np.arange(n) + c + 1.0) / k
        want = np.prod(_incomplete_gamma(beta[:, None], n * radii[None, :] ** (2 * k))[1], axis=0)
        got = np.mean(s.min(axis=1)[:, None] > radii, axis=0)
        assert np.all(np.abs(got - want) <= 3.0 * np.sqrt(want * (1.0 - want) / draws))

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
