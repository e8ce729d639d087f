"""End-to-end acceptance battery.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints a single ``ACCEPTANCE n: PASS/FAIL`` line straight to
the terminal (bypassing capture) so a plain ``pytest`` run shows the full
scorecard.  Criteria that double precision provably cannot meet are
implemented faithfully, print their FAIL line, and are marked strict-xfail
with the measured obstruction in the reason string.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import ks_2samp

from focklab import (
    EnsembleConfig,
    HomogeneousHermitianPoly,
    IllConditionedError,
    MacroscopicPotential,
    MicroscopicPotential,
    bergman_density,
    bergman_function_r0,
    bin_averaged_intensity,
    decay_report,
    droplet_radius,
    finite_moments,
    mass_integral,
    microscale_asymptotic_check,
    microscopic_scale,
    moment_matrix,
    moments,
    normalize_potential,
    rescaled_intensity,
    run_mcmc,
    sample_radial_exact,
    truncated_kernel,
)
from focklab.cli import main
from conftest import BERGMAN_R0


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def radial(coeffs, c=0.0):
    return MacroscopicPotential(kind="radial", c=c, radial_coeffs=coeffs)


def test_criterion_01_flat_gaussian_density(capsys):
    r = np.linspace(0.0, 5.0, 200)
    err = float(np.max(np.abs(bergman_function_r0(1, 0.0, 1.0, r) - 1.0)))
    status = "PASS" if err <= 1e-12 else "FAIL"
    announce(capsys, f"ACCEPTANCE 1: {status} — k=1, c=0: max |R0 - 1| = {err:.2e} "
                     f"on r in [0, 5] (tol 1e-12)")
    assert err <= 1e-12


def test_criterion_02_unit_charge_closed_form(capsys):
    r = np.linspace(0.0, 4.0, 200)
    err = float(np.max(np.abs(bergman_function_r0(1, 1.0, 1.0, r) - (1.0 - np.exp(-r ** 2)))))
    status = "PASS" if err <= 1e-10 else "FAIL"
    announce(capsys, f"ACCEPTANCE 2: {status} — k=1, c=1: max |R0 - (1 - e^(-r^2))| = {err:.2e} "
                     f"on r in [0, 4] (tol 1e-10)")
    assert err <= 1e-10


def test_criterion_03_sharp_exponential_decay(capsys):
    # Part A: the decay rate of R0/DeltaQ0 - 1 in u = r^{2k}, fitted on u in [4, 16].
    slopes = {}
    for k, c in [(1, 1.0), (2, 0.0)]:
        r_grid = np.linspace(4.0, 16.0, 25) ** (1.0 / (2 * k))
        rep = decay_report(k, c, 1.0, r_grid)
        assert rep.fit_ok
        slopes[(k, c)] = rep.slope

    # Part B: the power prefactor of the absolute error R0 - DeltaQ0 for
    # (k, c) = (2, 0), measured against the 50-digit reference table on the
    # far tail u in [16, 49] (the error is ~1e-25 of R0 there, far below
    # double precision, so the fixtures are parsed with mpmath).
    u_fit, y_fit = [], []
    with mp.workdps(60):
        with open(BERGMAN_R0) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                kk, cc, aa, rr, vv = line.split()
                if (kk, cc, aa) != ("2", "0", "1"):
                    continue
                r = mp.mpf(rr)
                u = r ** 4
                if not 16 <= u <= 49:
                    continue
                err = mp.mpf(vv) - 4 * r ** 2
                u_fit.append(float(r ** 2))
                y_fit.append(float(mp.log(abs(err)) + u))
    # y = ln|err| + u ~ A + p ln(r^2): the exponential part is removed (slope 0
    # in the remaining model); fit the power p, expected -2 - 2c = -2.
    u_fit = np.array(u_fit)
    X = np.column_stack([np.ones_like(u_fit), np.log(u_fit)])
    (_, p_hat), *_ = np.linalg.lstsq(X, np.array(y_fit), rcond=None)

    band_ok = all(-1.05 <= s <= -0.95 for s in slopes.values())
    power_ok = abs(p_hat - (-2.0)) <= 0.3
    status = "PASS" if band_ok and power_ok else "FAIL"
    announce(capsys, f"ACCEPTANCE 3: {status} — decay slopes (1,1) {slopes[(1, 1.0)]:+.4f}, "
                     f"(2,0) {slopes[(2, 0.0)]:+.4f} in [-1.05, -0.95]; (2,0) tail power "
                     f"{p_hat:+.3f} within 0.3 of -2 ({len(u_fit)} fixture rows)")
    assert band_ok
    assert power_ok


@pytest.mark.xfail(
    raises=IllConditionedError,
    reason="the N=48 scaled moment matrix has condition 1.647e15, past the 1e12 "
           "double-precision guardrail; even in exact arithmetic the N=48 "
           "truncation leaves a 1.7e-3 error on |z| <= 2, so the 1e-5 target "
           "needs N ~ 72 (condition ~1e23)",
)
def test_criterion_04_harmonic_twist_invariance(capsys):
    p = MicroscopicPotential(
        k=1, c=0.0,
        q0=HomogeneousHermitianPoly(2, {(1, 1): 1.0, (2, 0): 0.3, (0, 2): 0.3}),
    )
    A = moment_matrix(p, 48)
    cond = float(np.linalg.cond(A.scaled))
    try:
        tk = truncated_kernel(A)
    except IllConditionedError:
        announce(capsys, f"ACCEPTANCE 4: FAIL — N=48 twisted moment matrix has scaled "
                         f"condition {cond:.1e} > 1e12, not invertible in double "
                         f"precision; exact arithmetic at N=48 still leaves 1.7e-3 "
                         f"truncation error on |z| <= 2, so the 1e-5 target is out of "
                         f"reach (needs N ~ 72, condition ~1e23)")
        raise
    sup = 0.0
    for r in np.linspace(0.2, 2.0, 10):
        for th in np.linspace(0.0, np.pi, 10):
            z = r * complex(math.cos(th), math.sin(th))
            sup = max(sup, abs(bergman_density(tk, p, z) - 1.0))
    announce(capsys, f"ACCEPTANCE 4: {'PASS' if sup <= 1e-5 else 'FAIL'} — "
                     f"sup |R0^(48) - 1| = {sup:.2e} on |z| <= 2 (tol 1e-5)")
    assert sup <= 1e-5


def test_criterion_05_equilibrium_quantities(capsys):
    ginibre = radial({1: 1.0})
    vals = {
        "R_Q": (droplet_radius(ginibre), 1.0),
        "tau0(|z|^2)": (microscale_asymptotic_check(ginibre, 0.0, [100]).tau0, 1.0),
        "tau0(|z|^4)": (microscale_asymptotic_check(radial({2: 1.0}), 0.0, [100]).tau0, 2.0 ** -0.25),
        "rn(c=0, n=100)": (microscopic_scale(ginibre, 0.0, 100), 0.1),
        "rn(c=1, n=100)": (microscopic_scale(radial({1: 1.0}, c=1.0), 1.0, 100), math.sqrt(2.0 / 100.0)),
    }
    worst = max(abs(got / want - 1.0) for got, want in vals.values())

    rep = microscale_asymptotic_check(radial({1: 1.0, 2: 1.0}), 0.0, [100, 1000, 10000])
    status = "PASS" if worst <= 1e-10 and rep.bound_ok else "FAIL"
    announce(capsys, f"ACCEPTANCE 5: {status} — closed-form equilibrium values to "
                     f"{worst:.1e} (tol 1e-10); Q = r^2 + r^4 microscale deviation "
                     f"|e_n| <= C0 n^(-1/2) with C0 = |e_100| 100^(1/2) holds on n = 100..10000; "
                     f"C = max |e_n| n^(1/2) = {rep.C:.4f}")
    assert worst <= 1e-10
    assert rep.bound_ok


def test_criterion_06_monotone_exhaustion(capsys):
    r = np.linspace(0.1, 2.0, 25)
    sup40 = 0.0
    for k in (1, 2):
        for c in (0.0, 1.0):
            Qn, _ = normalize_potential(radial({k: 1.0}, c=c), k)
            a_tilde = (1.0 + c) / k
            full = bergman_function_r0(k, c, a_tilde, r)
            vals = {}
            for n in (10, 11):
                fk = finite_moments(Qn, c, n)
                rn = microscopic_scale(Qn, c, n)
                vals[n] = np.array([rescaled_intensity(fk, float(x), rn) for x in r])
            assert np.all(vals[10] <= vals[11] + 1e-12)
            assert np.all(vals[11] <= full + 1e-12)
            if k == 1:
                fk40 = finite_moments(Qn, c, 40)
                rn40 = microscopic_scale(Qn, c, 40)
                v40 = np.array([rescaled_intensity(fk40, float(x), rn40) for x in r])
                sup40 = max(sup40, float(np.max(np.abs(v40 - full))))
    status = "PASS" if sup40 <= 1e-8 else "FAIL"
    announce(capsys, f"ACCEPTANCE 6: {status} — R_10 <= R_11 <= R0 pointwise (tol 1e-12) "
                     f"for k in {{1, 2}}, c in {{0, 1}} on r in [0.1, 2]; k=1 "
                     f"sup |R_40 - R0| = {sup40:.2e} (tol 1e-8)")
    assert sup40 <= 1e-8


@pytest.mark.xfail(
    reason="at (k, c) = (2, 1) the next series term r^2/m_1 = 2.26e-6 already "
           "exceeds the 1e-6 budget at r = 1e-3; both k = 1 cases pass "
           "(5.6e-7 and 5.0e-7)",
)
def test_criterion_07_conical_small_radius_limit(capsys):
    r = 1e-3
    devs = {}
    for k, c in [(1, -0.5), (1, 1.0), (2, 1.0)]:
        devs[(k, c)] = abs(
            bergman_function_r0(k, c, 1.0, r) / r ** (2 * c) - math.exp(-moments(k, c, 1.0, 0)[0])
        )
    worst = max(devs.values())
    status = "PASS" if worst <= 1e-6 else "FAIL"
    detail = ", ".join(f"(k={k}, c={c:g}) {d:.2e}" for (k, c), d in devs.items())
    announce(capsys, f"ACCEPTANCE 7: {status} — |R0(r)/r^2c - k/Gamma((c+1)/k)| at "
                     f"r = 1e-3: {detail} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_08_mass_identity(capsys):
    ginibre = radial({1: 1.0})
    rels = {}
    for n in (4, 16, 64):
        fk = finite_moments(ginibre, 0.0, n)
        rels[n] = abs(mass_integral(fk) / n - 1.0)
    worst = max(rels.values())
    status = "PASS" if worst <= 1e-8 else "FAIL"
    detail = ", ".join(f"n={n}: {e:.1e}" for n, e in rels.items())
    announce(capsys, f"ACCEPTANCE 8: {status} — integral of the intensity vs n "
                     f"(relative): {detail} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_09_mcmc_cross_validation(capsys):
    Q = radial({1: 1.0}, c=1.0)
    edges = np.linspace(0.0, 1.25, 37)
    cfg = EnsembleConfig(n=16, potential=Q, bin_edges=edges,
                         sweeps=100_000, burn_in=3000, seed=20260814)
    res = run_mcmc(cfg)
    h = res.histogram
    exact = bin_averaged_intensity(finite_moments(Q, 1.0, 16), edges)
    dev = np.abs(h.intensity() - exact) / h.stderr()
    frac = float(np.mean(dev <= 3.0))

    mids = 0.5 * (edges[1:] + edges[:-1])
    innermost = float(h.intensity()[0])
    bulk = float(np.mean(h.intensity()[(mids >= 0.4) & (mids <= 0.8)]))
    depleted = innermost < 0.5 * bulk

    status = "PASS" if frac >= 0.95 and depleted else "FAIL"
    announce(capsys, f"ACCEPTANCE 9: {status} — n=16, c=1 Metropolis vs exact kernel: "
                     f"{100 * frac:.0f}% of bins within 3 SE (worst {float(np.max(dev)):.2f} SE, "
                     f"need >= 95%); innermost bin {innermost:.3f} vs bulk {bulk:.2f} "
                     f"(charge depletion, need < 0.5x)")
    assert frac >= 0.95
    assert depleted


def test_criterion_10_exact_sampler_vs_mcmc(capsys):
    Q = radial({1: 1.0})
    cfg = EnsembleConfig(n=8, potential=Q, bin_edges=np.linspace(0.0, 2.0, 21),
                         sweeps=100_000, burn_in=2000, seed=20260814, collect_moduli=True)
    # every 10th recorded sweep, so that the KS test sees nearly independent draws
    moduli = run_mcmc(cfg).moduli.reshape(-1, 8)[::10].ravel()
    exact = sample_radial_exact(Q, 0.0, 8, seed=915, draws=10_000).ravel()
    stat = ks_2samp(moduli, exact)
    status = "PASS" if stat.pvalue >= 0.01 else "FAIL"
    announce(capsys, f"ACCEPTANCE 10: {status} — two-sample KS on {moduli.size} MCMC vs "
                     f"{exact.size} exact moduli: D = {stat.statistic:.4f}, "
                     f"p = {stat.pvalue:.3f} (reject below 0.01)")
    assert stat.pvalue >= 0.01


def test_criterion_11_figure_reproduction(tmp_path, capsys):
    prefix = tmp_path / "fig1"
    assert main(["fig1", "--out", str(prefix)]) == 0

    svg = (tmp_path / "fig1.svg").read_text()
    assert svg.count("<polyline") == 3

    # blank cells read as NaN
    r, c1, c2, c3 = np.genfromtxt(tmp_path / "fig1.csv", delimiter=",", skip_header=1).T

    # k=1, c=1, a=2: starts at zero, increases, saturates near a^(1/k) = 2.
    assert c1[0] == 0.0
    assert np.all(np.diff(c1) >= -1e-12)
    ok1 = abs(c1[-1] - 2.0) <= 0.05 * 2.0

    # k=1, c=-1/2, a=1/2: blows up as r -> 0, decreases toward a = 1/2.
    seg = c2[~np.isnan(c2)]
    assert np.all(np.diff(seg) < 0.0)
    assert seg[0] >= 5.0
    ok2 = abs(seg[-1] - 0.5) <= 0.05 * 0.5

    # k=2, c=0, a=1/2: starts at the finite origin value, grows like
    # DeltaQ0 = 2 r^2.
    start = math.exp(-moments(2, 0.0, 0.5, 0)[0])  # 1/m_0
    assert np.all(np.diff(c3) > 0.0)
    ok3 = abs(c3[0] / start - 1.0) <= 0.05 and abs(c3[-1] / (2.0 * 9.0) - 1.0) <= 0.05

    status = "PASS" if ok1 and ok2 and ok3 else "FAIL"
    announce(capsys, f"ACCEPTANCE 11: {status} — figure data: curve 1 rises 0 -> "
                     f"{c1[-1]:.3f} (target 2 within 5%), curve 2 falls {seg[0]:.2f} -> "
                     f"{seg[-1]:.4f} (target 0.5 within 5%), curve 3 rises "
                     f"{c3[0]:.4f} -> {c3[-1]:.2f} (2r^2 at r=3 within 5%); "
                     f"SVG has 3 curves")
    assert ok1
    assert ok2
    assert ok3
