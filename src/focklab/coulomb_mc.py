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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .potentials import MacroscopicPotential
from .equilibrium import droplet_radius
from .finite_kernel import _modulus_tables

__all__ = [
    "EnsembleConfig",
    "IntensityHistogram",
    "McmcResult",
    "energy",
    "delta_energy",
    "run_mcmc",
    "sample_radial_exact",
]

_TUNE_TARGET = 0.35  # burn-in acceptance the proposal scale is tuned toward
_TUNE_INTERVAL = 25  # burn-in sweeps between two tuning steps
_BATCHES = 32        # batch means behind each error bar


def _site_energy(potential: MacroscopicPotential, c: float, n: int, z: np.ndarray) -> np.ndarray:
    """n V_n(z) elementwise over an array of particles; +-inf at the origin for c != 0.

    Callers silence numpy's divide-by-zero warning there.
    """
    r = np.abs(z)
    val = n * (potential.q_of_r(r) if potential.kind == "radial" else potential.value(z))
    if c != 0.0:
        val = val - 2.0 * c * np.log(r)
    return val


def energy(points, potential: MacroscopicPotential, n: int | None = None, c: float | None = None) -> float:
    """Total configuration energy H; +inf on coincident points or zero weight."""
    z = np.asarray(points, dtype=complex)
    if n is None:
        n = z.size
    if c is None:
        c = potential.c
    with np.errstate(divide="ignore", over="ignore"):
        d = np.abs(z[:, None] - z[None, :])
        iu = np.triu_indices(z.size, k=1)
        if z.size > 1 and np.any(d[iu] == 0.0):
            return math.inf
        pair = -2.0 * float(np.sum(np.log(d[iu]))) if z.size > 1 else 0.0
        site = _site_energy(potential, c, n, z)
    singular = np.isinf(site)
    if singular.any():
        return float(site[np.argmax(singular)])  # the first singular particle decides
    return pair + float(np.sum(site))


def delta_energy(points, i: int, znew: complex, potential: MacroscopicPotential,
                 n: int | None = None, c: float | None = None) -> float:
    """Energy change from moving particle i to znew (incremental form)."""
    z = np.asarray(points, dtype=complex)
    if n is None:
        n = z.size
    if c is None:
        c = potential.c
    others = np.delete(z, i)
    with np.errstate(divide="ignore", over="ignore"):
        d_old = np.abs(others - z[i])
        d_new = np.abs(others - znew)
        if np.any(d_new == 0.0):
            return math.inf
        pair = 2.0 * (float(np.sum(np.log(d_old))) - float(np.sum(np.log(d_new))))
        new, old = _site_energy(potential, c, n, np.array([znew, z[i]])).tolist()
    return pair + new - old


@dataclass(frozen=True)
class EnsembleConfig:
    """One Metropolis run: ensemble, chain lengths, proposal scale, bins.

    sweeps counts RECORDED sweeps, at least 2; the chain runs
    burn_in + sweeps*thin single-particle sweeps in total.  delta0 is tuned
    during burn-in toward an acceptance of 0.35, every 25 sweeps, and then
    frozen; the recorded sweeps are split into 32 batches for the error
    bars, so at least two batches are never empty.
    """

    n: int
    potential: MacroscopicPotential
    bin_edges: np.ndarray
    sweeps: int = 10_000
    burn_in: int = 1_000
    thin: int = 1
    delta0: float = 0.3
    seed: int = 0
    collect_moduli: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.sweeps < 2 or self.burn_in < 0 or self.thin < 1:
            raise ConfigError("sweeps >= 2, burn_in >= 0, thin >= 1 required")
        if not self.delta0 > 0:
            raise ConfigError("delta0 must be positive")
        edges = np.asarray(self.bin_edges, dtype=float)
        if (edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
                or np.any(np.diff(edges) <= 0) or edges[0] < 0):
            raise ConfigError("bin_edges must be an increasing nonnegative finite grid")
        object.__setattr__(self, "bin_edges", edges)
        if self.potential.kind == "radial":
            R = droplet_radius(self.potential)
            if edges[-1] < R:
                raise ConfigError(
                    f"bins must cover the droplet with margin (outer edge {edges[-1]} < R = {R:.4g})"
                )


@dataclass(frozen=True)
class IntensityHistogram:
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


@dataclass(frozen=True)
class McmcResult:
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
    change (a singular site, a coincidence, an overflow) is recomputed by
    delta_energy and decides the move from there.
    """
    rng = np.random.default_rng(cfg.seed)
    pot, n, c = cfg.potential, cfg.n, cfg.potential.c
    edges = cfg.bin_edges
    # start uniform on the binned disk (measure-zero chance of singular points)
    r0 = edges[-1] * 0.9
    pts = r0 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    delta = cfg.delta0

    nbins = edges.size - 1
    counts = np.zeros(nbins, dtype=np.int64)
    batch_counts = np.zeros((_BATCHES, nbins), dtype=np.int64)
    batch_recorded = np.zeros(_BATCHES, dtype=np.int64)
    # recorded radii: every sweep's for collect_moduli, else those of the open batch
    held = np.empty((cfg.sweeps if cfg.collect_moduli else -(-cfg.sweeps // _BATCHES), n))
    first = 0  # first recorded sweep of the open batch

    diag = np.arange(n) * (2 * n + 1)  # flat indices of the (i, i) entries of an n x 2n block

    tuned_acc = 0
    rec_acc = 0
    total = cfg.burn_in + cfg.sweeps * cfg.thin
    recorded = 0
    # singular and overflowing energies are infinite: those moves are rejected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        site = _site_energy(pot, c, n, pts).tolist()
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
            new = _site_energy(pot, c, n, w).tolist()
            corr = np.zeros(n)
            moved = []
            for i in range(n):
                dh = (base[i] + float(corr[i])) + (new[i] - site[i])
                if not math.isfinite(dh):
                    cur = pts.copy()
                    cur[moved] = w[moved]
                    dh = delta_energy(cur, i, w[i], pot, n, c)
                    # singular targets (and exact singular-point attractors) are
                    # measure zero: rejecting them keeps the chain ergodic
                    if not math.isfinite(dh):
                        continue
                if dh <= 0.0 or us[i] < math.exp(-dh):
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
            post = sweep - cfg.burn_in
            if post % cfg.thin != 0:
                continue
            np.abs(pts, out=held[recorded if cfg.collect_moduli else recorded - first])
            recorded += 1
            b = first * _BATCHES // cfg.sweeps
            if recorded == cfg.sweeps or recorded * _BATCHES // cfg.sweeps != b:
                radii = held[first:recorded] if cfg.collect_moduli else held[:recorded - first]
                cnt, _ = np.histogram(radii, edges)
                counts += cnt
                batch_counts[b] = cnt
                batch_recorded[b] = recorded - first
                first = recorded

    rate = rec_acc / (cfg.sweeps * cfg.thin * n)
    if not 0.2 <= rate <= 0.6:
        warnings.warn(
            f"acceptance rate {rate:.3f} outside [0.2, 0.6]; check delta0/burn_in",
            RuntimeWarning,
            stacklevel=2,
        )
    hist = IntensityHistogram(
        edges=edges,
        counts=counts,
        recorded=recorded,
        batch_counts=batch_counts,
        batch_recorded=batch_recorded,
    )
    return McmcResult(
        histogram=hist,
        acceptance_rate=float(rate),
        delta_final=float(delta),
        moduli=held.reshape(-1) if cfg.collect_moduli else None,
    )


def sample_radial_exact(Q: MacroscopicPotential, c: float, n: int, seed: int, draws: int) -> np.ndarray:
    """draws x n moduli of the exact radial ensemble by inverse CDFs.

    Rotation invariance makes the moduli multiset independent across the
    monomial indices j = 0..n-1; each r_j is drawn from the CDF of ln r_j
    that finite_kernel tabulates on the grid of its norm m_j.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((draws, n))
    for j, (t, cdf) in enumerate(_modulus_tables(Q, c, n)):
        out[:, j] = np.exp(np.interp(rng.random(draws), cdf, t))
    return out
