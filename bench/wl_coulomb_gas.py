"""Metropolis chains and exact radial sampling, part of the workload ``ensembles``.

Six ``run_mcmc`` chains (n from 8 to 64, each of c = 0, 1/2, 1 twice) on
the Ginibre-type potential Q = a r^2, and six ``sample_radial_exact``
batches (n = 8, 64, 256; k = 1, 2).  Nothing from radial_bergman or
general_bergman runs here.  The seed sets the chain and sampler seeds and
jitters a and the exact-sampler charge.
"""

from __future__ import annotations

import numpy as np

import oracles as O
from harness import Op

# (n, c, recorded sweeps): 20k-32k moves each, so the chains cost about the same
CHAINS = [(8, 0.0, 2400), (8, 1.0, 2400), (16, 0.5, 1200), (32, 0.0, 600), (32, 1.0, 600), (64, 0.5, 300)]
BURN_IN = 200
BINS = 20
EXACT = [(1, 8, 2000), (1, 64, 200), (1, 256, 30), (2, 8, 2000), (2, 64, 200), (2, 256, 30)]
# Thresholds; the README says how they were set.
TESTED_HITS = 320.0    # bins expecting at least this many hits over the recorded sweeps are tested
Z_MAX = 8.0            # largest |observed - exact| / batch-mean SE over the tested bins
EMPTY_EXPECTED = 30.0  # a bin with zero SE must be empty and expect at most this many hits
ACCEPTANCE = (0.2, 0.6)
KS_P_MIN = 1e-6


def build(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    chains = [dict(n=n, sweeps=s, c=c, a=float(rng.uniform(0.95, 1.05)), seed=int(rng.integers(2**31)))
              for n, c, s in CHAINS]
    exact = [dict(k=k, n=n, draws=d, c=0.5 + float(rng.uniform(-0.1, 0.1)), a=1.0,
                  seed=int(rng.integers(2**31))) for k, n, d in EXACT]
    return dict(chains=chains, exact=exact)


def probe_inputs() -> dict:
    return dict(
        chains=[dict(n=n, sweeps=40, c=0.5, a=1.0, seed=11) for n in (8, 16, 32, 64)],
        exact=[dict(k=1, n=n, draws=d, c=0.5, a=1.0, seed=12) for n, d in ((8, 200), (64, 20), (256, 4))],
    )


def tau_int(series: np.ndarray) -> float:
    """Integrated autocorrelation time with Sokal's automatic window (c = 5)."""
    x = np.asarray(series, dtype=float) - np.mean(series)
    n = x.size
    if n < 4 or not np.any(x):
        return 1.0
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    acf /= acf[0]
    tau = 1.0
    for w in range(1, n):
        tau += 2.0 * acf[w]
        if w >= 5.0 * tau:
            break
    return float(tau)


def histogram_problem(edges, obs, se, recorded, exact) -> str | None:
    """Metropolis bin intensities against the exact bins, in batch-mean standard errors."""
    hits = exact * (edges[1:] ** 2 - edges[:-1] ** 2) * recorded
    flat = se == 0.0
    if np.any(flat & ((obs != 0.0) | (hits > EMPTY_EXPECTED))):
        return "a bin with zero batch-mean SE is not an empty bin of small expected count"
    tested = (hits >= TESTED_HITS) & ~flat
    z = np.abs(obs[tested] - exact[tested]) / se[tested]
    if not np.all(z <= Z_MAX):
        return f"histogram {np.max(z):.2f} batch-mean SE from the exact bins"
    return None


def _chain_op(F, ch: dict) -> Op:
    n, c, a = ch["n"], ch["c"], ch["a"]
    Q = F.MacroscopicPotential(kind="radial", c=c, radial_coeffs={1: a})

    def run(tr):
        R = tr.call("equilibrium.droplet_radius", {}, F.droplet_radius, Q)
        edges = np.linspace(0.0, 1.25 * R, BINS + 1)
        # moduli are collected, and tau_int computed from them, in traced runs only
        cfg = tr.call("coulomb_mc.EnsembleConfig", {}, F.EnsembleConfig, n=n, potential=Q, bin_edges=edges,
                      sweeps=ch["sweeps"], burn_in=BURN_IN, seed=ch["seed"], collect_moduli=tr.enabled)
        moves = (BURN_IN + ch["sweeps"]) * n
        attrs = {"n": n, "moves": moves}
        res = tr.call("coulomb_mc.run_mcmc", attrs, F.run_mcmc, cfg)
        attrs["acceptance"] = res.acceptance_rate
        if tr.enabled:
            attrs["tau_int"] = tau_int((res.moduli.reshape(ch["sweeps"], n) ** 2).mean(axis=1))
        return res

    def check(res, _):
        h = res.histogram
        if not ACCEPTANCE[0] <= res.acceptance_rate <= ACCEPTANCE[1]:
            return f"acceptance {res.acceptance_rate:.3f} outside {ACCEPTANCE}"
        return histogram_problem(h.edges, h.intensity(), h.stderr(), h.recorded, O.ginibre_bins(n, c, a, h.edges))

    return Op(f"run_mcmc n={n} c={c:g} a={a:.4g} sweeps={ch['sweeps']}", run, check)


def _exact_op(F, ex: dict) -> Op:
    k, n, draws, c, a = ex["k"], ex["n"], ex["draws"], ex["c"], ex["a"]
    Q = F.MacroscopicPotential(kind="radial", c=c, radial_coeffs={k: a})

    def run(tr):
        return tr.call("coulomb_mc.sample_radial_exact", {"n": n, "moduli": n * draws},
                       F.sample_radial_exact, Q, c, n, ex["seed"], draws)

    def check(moduli, _):
        if moduli.shape != (draws, n) or not np.all(np.isfinite(moduli)) or np.any(moduli < 0):
            return "moduli array has the wrong shape or values"
        p = O.ks_pvalue(moduli, O.exact_moduli_cdf(k, c, a, n))
        return None if p >= KS_P_MIN else f"one-sample KS p = {p:.2e} against the exact CDF"

    return Op(f"sample_radial_exact k={k} n={n} c={c:.4g} draws={draws}", run, check)


def ops(F, inputs: dict) -> list[Op]:
    return ([_chain_op(F, ch) for ch in inputs["chains"]]
            + [_exact_op(F, ex) for ex in inputs["exact"]])


def warm_up(F, inputs: dict) -> None:
    Q = F.MacroscopicPotential(kind="radial", c=0.5, radial_coeffs={1: 1.0})
    cfg = F.EnsembleConfig(n=4, potential=Q, bin_edges=np.linspace(0.0, 1.5, 5), sweeps=5, burn_in=5)
    F.run_mcmc(cfg)
    F.sample_radial_exact(Q, 0.5, 2, 0, 5)
