"""Metropolis sampling of the n-point Coulomb ensemble and exact cross-checks.

The target law is proportional to e^{-H} with
H = sum_{j != l} log 1/|z_j - z_l| + n sum_j V_n(z_j),
n V_n(z) = n Q(z) - 2c log|z|.
Singular weights are handled by infinite energy (rejection), never by
clipping, so the exact target law is preserved for charges in (-1, inf).
The exact radial sampler draws the moduli multiset directly (independent
r_j with density ~ r^{2j+2c+1} e^{-nQ(r)}) and serves as a validation
oracle for the chain.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .potentials import MacroscopicPotential, _check_grid, _check_int, _validated
from .equilibrium import droplet_radius

__all__ = [
    "EnsembleConfig",
    "IntensityHistogram",
    "McmcResult",
    "run_mcmc",
    "sample_radial_exact",
]

_DELTA0 = 0.3        # first proposal scale, tuned during burn-in
_TUNE_TARGET = 0.35  # burn-in acceptance the proposal scale is tuned toward
_TUNE_INTERVAL = 25  # burn-in sweeps between two tuning steps
_BATCHES = 32        # batch means behind each error bar


def _site_energy(potential: MacroscopicPotential, n: int, z: np.ndarray) -> np.ndarray:
    """n V_n(z) elementwise over an array of particles; +-inf at the origin for c != 0.

    Where Q passes the largest double, n V_n is +-inf with Q's sign (MacroscopicPotential.value).
    Call under np.errstate(divide="ignore", over="ignore", invalid="ignore").
    """
    val = n * potential.value(z)
    if potential.c != 0.0:
        val = val - 2.0 * potential.c * np.log(np.abs(z))
    return val


class EnsembleConfig(_validated("EnsembleConfig", "n potential bin_edges sweeps burn_in seed collect_moduli")):
    """One Metropolis run: ensemble, chain lengths, bins.

    The chain runs burn_in sweeps, then records each of sweeps more, at
    least 2.  The proposal scale starts at 0.3 and is tuned during
    burn-in toward an acceptance of 0.35, every 25 sweeps, and then frozen;
    recorded sweep i falls in batch i * 32 // sweeps of the 32 behind the
    error bars, so at least two are never empty.  collect_moduli returns the
    radii of every recorded sweep, which the chain keeps either way.
    """

    __slots__ = ()

    def __new__(cls, n: int, potential: MacroscopicPotential, bin_edges: np.ndarray, sweeps: int = 10_000,
                burn_in: int = 1_000, seed: int = 0, collect_moduli: bool = False):
        n, sweeps, burn_in, seed = (_check_int(value, name, least) for value, name, least in (
            (n, "n", 1), (sweeps, "sweeps", 2), (burn_in, "burn_in", 0), (seed, "seed", 0)))
        bin_edges = _check_grid(bin_edges, "bin_edges")
        if potential.kind == "radial":
            R = droplet_radius(potential)
            if bin_edges[-1] < R:
                raise ConfigError(f"bins must reach the droplet: outer edge {bin_edges[-1]} < R = {R:.4g}")
        return super().__new__(cls, n, potential, bin_edges, sweeps, burn_in, seed, collect_moduli)


class IntensityHistogram(NamedTuple):
    """Radial counts with batch-mean errors; intensities are per dA = dxdy/pi."""

    edges: np.ndarray
    counts: np.ndarray
    recorded: int
    batch_counts: np.ndarray
    batch_recorded: np.ndarray

    @property
    def bin_area(self) -> np.ndarray:
        """hi^2 - lo^2 per bin, factored so that narrow bins do not cancel."""
        lo, hi = self.edges[:-1], self.edges[1:]
        return (hi - lo) * (hi + lo)

    def intensity(self) -> np.ndarray:
        """Estimated bR_n per bin: mean count per sweep over bin area."""
        return self.counts / (self.recorded * self.bin_area)

    def stderr(self) -> np.ndarray:
        """Batch-means standard error of the per-bin intensity, over the non-empty batches.

        Fewer than 32 recorded sweeps leave some of the 32 batches empty;
        EnsembleConfig's sweeps >= 2 leaves at least two.
        """
        full = self.batch_recorded > 0
        vals = self.batch_counts[full] / (self.batch_recorded[full, None] * self.bin_area[None, :])
        return np.std(vals, axis=0, ddof=1) / math.sqrt(vals.shape[0])

    def mass(self) -> float:
        """Sum of intensity * area = mean in-range particles per sweep (~ n)."""
        return float(self.counts.sum() / self.recorded)


class McmcResult(NamedTuple):
    histogram: IntensityHistogram
    acceptance_rate: float
    delta_final: float
    moduli: np.ndarray | None = None


def run_mcmc(cfg: EnsembleConfig) -> McmcResult:
    """Single-particle Gaussian Metropolis chain; reproducible given the seed.

    Each sweep moves every particle once, in order, so all its proposals
    w_i = p_i + step_i are known when it starts, and its O(n^2) work is one
    block of logs of squared distances over [p; w].  Its row sums give each
    move's pair energy change against the sweep-start positions p; once
    move j is accepted, move i > j also needs 2 E[i, j] with
    E[i, j] = (log|p_i - w_j| - log|p_i - p_j|) - (log|w_i - w_j| - log|w_i - p_j|),
    which is symmetric, so each acceptance adds one row of 2E to a running
    correction.  The moves themselves are scalar arithmetic; a non-finite
    change (a singular site, a coincidence, an overflow) is rejected.
    The chain keeps one record, the radii of each recorded sweep, and cuts
    it into batches after the last sweep: batch b holds the recorded sweeps
    i with i * 32 // sweeps == b.
    """
    rng = np.random.default_rng(cfg.seed)
    pot, n = cfg.potential, cfg.n
    edges = cfg.bin_edges
    # start uniform on the binned disk (measure-zero chance of singular points)
    r0 = edges[-1] * 0.9
    pts = r0 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    delta = _DELTA0

    radii = np.empty((cfg.sweeps, n))  # row i: the radii of recorded sweep i
    diag = np.arange(n) * (2 * n + 1)  # flat indices of the (i, i) entries of an n x 2n block

    tuned_acc = 0
    rec_acc = 0
    total = cfg.burn_in + cfg.sweeps
    # singular and overflowing energies are infinite: those moves are rejected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        site = _site_energy(pot, n, pts).tolist()
        for sweep in range(total):
            burn = sweep < cfg.burn_in
            steps = rng.standard_normal((n, 2)) * delta
            us = rng.random(n).tolist()
            w = pts + steps.view(complex)[:, 0]
            x = np.concatenate((pts, w))
            dx = x.real[:, None] - x.real
            dy = x.imag[:, None] - x.imag
            dx *= dx
            dy *= dy
            dx += dy
            logs = np.log(dx, out=dx)  # log|x_a - x_b|^2, twice the pair log
            pair = logs[:n] - logs[n:]
            pair.flat[diag] = 0.0
            base = pair[:, :n].sum(axis=1).tolist()
            cross = pair[:, n:] - pair[:, :n]  # 2E; entries i <= j of row j are never read
            new = _site_energy(pot, n, w).tolist()
            corr = np.zeros(n)
            moved = []
            for i in range(n):
                dh = (base[i] + float(corr[i])) + (new[i] - site[i])
                if math.isfinite(dh) and (dh <= 0.0 or us[i] < math.exp(-dh)):
                    moved.append(i)
                    site[i] = new[i]
                    corr += cross[i]
            pts[moved] = w[moved]
            if burn:
                tuned_acc += len(moved)
                if (sweep + 1) % _TUNE_INTERVAL == 0:
                    rate = tuned_acc / (_TUNE_INTERVAL * n)
                    delta = float(np.clip(delta * math.exp(1.5 * (rate - _TUNE_TARGET)), 1e-4, 50.0))
                    tuned_acc = 0
                continue
            rec_acc += len(moved)
            np.abs(pts, out=radii[sweep - cfg.burn_in])

    batch = np.arange(cfg.sweeps) * _BATCHES // cfg.sweeps
    batch_counts = np.array([np.histogram(radii[batch == b], edges)[0] for b in range(_BATCHES)])

    rate = rec_acc / (cfg.sweeps * n)
    if not 0.2 <= rate <= 0.6:
        warnings.warn(f"acceptance rate {rate:.3f} outside [0.2, 0.6]; check burn_in", RuntimeWarning,
                      stacklevel=2)
    hist = IntensityHistogram(
        edges=edges,
        counts=batch_counts.sum(axis=0),
        recorded=cfg.sweeps,
        batch_counts=batch_counts,
        batch_recorded=np.bincount(batch, minlength=_BATCHES),
    )
    # a Q that is not radial has no droplet check in EnsembleConfig: its mass may lie past the bins
    if hist.mass() < n / 2:
        warnings.warn(f"mean in-range particles per sweep {hist.mass():.3g} below n/2 = {n / 2:g}; the bins miss "
                      "the ensemble", RuntimeWarning, stacklevel=2)
    return McmcResult(
        histogram=hist,
        acceptance_rate=float(rate),
        delta_final=float(delta),
        moduli=radii.reshape(-1) if cfg.collect_moduli else None,
    )


def sample_radial_exact(Q: MacroscopicPotential, c: float, n: int, seed: int, draws: int) -> np.ndarray:
    """draws x n moduli of the exact radial ensemble of Q, at its charge c = Q.c, by inverse CDFs.

    Rotation invariance makes the moduli multiset independent across the
    monomial indices j = 0..n-1; each r_j is drawn from the CDF of ln r_j
    that finite_kernel tabulates on the grid of its norm m_j.
    """
    from .finite_kernel import _modulus_tables

    Q._check_charge(c)
    n, seed, draws = _check_int(n, "n", 1), _check_int(seed, "seed"), _check_int(draws, "draws")
    rng = np.random.default_rng(seed)
    out = np.empty((draws, n))
    for j, (t, cdf) in enumerate(_modulus_tables(Q, n)):
        out[:, j] = np.exp(np.interp(rng.random(draws), cdf, t))
    return out
