"""Metropolis sampling of the n-point Coulomb ensemble and exact cross-checks.

The target law is proportional to e^{-H} with
H = sum_{j != l} log 1/|z_j - z_l| + n sum_j V_n(z_j),
n V_n(z) = n Q(z) - 2c log|z| - h(z), h(z) = sum 2 cj log|z - aj|.
Singular weights are handled by infinite energy (rejection), never by
clipping, so the exact target law is preserved for charges in (-1, inf).
The exact radial sampler draws the moduli multiset directly (independent
r_j with density ~ r^{2j+2c+1} e^{-nQ(r)}) and serves as a validation
oracle for the chain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .potentials import MacroscopicPotential
from .equilibrium import droplet_radius

__all__ = [
    "EnsembleConfig",
    "IntensityHistogram",
    "RescaledHistogram",
    "McmcResult",
    "energy",
    "delta_energy",
    "run_mcmc",
    "sample_radial_exact",
    "rescaled_histogram",
]


def _site_energy(potential: MacroscopicPotential, c: float, n: int, z: complex) -> float:
    """n V_n(z) for one particle; +-inf at the singular points."""
    az = abs(z)
    val = n * potential.value(z)
    if c != 0.0:
        if az == 0.0:
            return math.inf if c > 0 else -math.inf
        val -= 2.0 * c * math.log(az)
    h = potential.spectator_log_weight(z)
    return val - h


def energy(points, potential: MacroscopicPotential, n: int | None = None, c: float | None = None) -> float:
    """Total configuration energy H; +inf on coincident points or zero weight."""
    z = np.asarray(points, dtype=complex)
    if n is None:
        n = z.size
    if c is None:
        c = potential.c
    with np.errstate(divide="ignore"):
        d = np.abs(z[:, None] - z[None, :])
        iu = np.triu_indices(z.size, k=1)
        if z.size > 1 and np.any(d[iu] == 0.0):
            return math.inf
        pair = -2.0 * float(np.sum(np.log(d[iu]))) if z.size > 1 else 0.0
    site = 0.0
    for zz in z:
        site += _site_energy(potential, c, n, complex(zz))
        if math.isinf(site):
            return site
    return pair + site


def delta_energy(points, i: int, znew: complex, potential: MacroscopicPotential,
                 n: int | None = None, c: float | None = None) -> float:
    """Energy change from moving particle i to znew (incremental form)."""
    z = np.asarray(points, dtype=complex)
    if n is None:
        n = z.size
    if c is None:
        c = potential.c
    others = np.delete(z, i)
    with np.errstate(divide="ignore"):
        d_old = np.abs(others - z[i])
        d_new = np.abs(others - znew)
        if np.any(d_new == 0.0):
            return math.inf
        pair = 2.0 * (float(np.sum(np.log(d_old))) - float(np.sum(np.log(d_new))))
    return pair + _site_energy(potential, c, n, complex(znew)) - _site_energy(potential, c, n, complex(z[i]))


@dataclass(frozen=True)
class EnsembleConfig:
    """One Metropolis run: ensemble, chain lengths, proposal scale, bins.

    sweeps counts RECORDED sweeps; the chain runs burn_in + sweeps*thin
    single-particle sweeps in total.  delta0 is tuned during burn-in toward
    tune_target acceptance and then frozen.
    """

    n: int
    potential: MacroscopicPotential
    bin_edges: np.ndarray
    sweeps: int = 10_000
    burn_in: int = 1_000
    thin: int = 1
    delta0: float = 0.3
    seed: int = 0
    tune_target: float = 0.35
    tune_interval: int = 25
    n_batches: int = 32
    collect_moduli: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.sweeps < 1 or self.burn_in < 0 or self.thin < 1:
            raise ConfigError("sweeps >= 1, burn_in >= 0, thin >= 1 required")
        if not self.delta0 > 0:
            raise ConfigError("delta0 must be positive")
        edges = np.asarray(self.bin_edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0) or edges[0] < 0:
            raise ConfigError("bin_edges must be an increasing nonnegative grid")
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
    n: int

    @property
    def bin_area(self) -> np.ndarray:
        return self.edges[1:] ** 2 - self.edges[:-1] ** 2

    def intensity(self) -> np.ndarray:
        """Estimated bR_n per bin: mean count per sweep over bin area."""
        return self.counts / (self.recorded * self.bin_area)

    def stderr(self) -> np.ndarray:
        """Batch-means standard error of the per-bin intensity."""
        vals = self.batch_counts / (self.batch_recorded[:, None] * self.bin_area[None, :])
        B = vals.shape[0]
        return np.std(vals, axis=0, ddof=1) / math.sqrt(B)

    def mass(self) -> float:
        """Sum of intensity * area = mean in-range particles per sweep (~ n)."""
        return float(self.counts.sum() / self.recorded)


@dataclass(frozen=True)
class RescaledHistogram:
    """Histogram mapped to microscopic units z = zeta/rn, values rn^2 bR_n."""

    edges: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray


@dataclass(frozen=True)
class McmcResult:
    histogram: IntensityHistogram
    acceptance_rate: float
    delta_final: float
    seed: int
    config: EnsembleConfig
    moduli: np.ndarray | None = None


def run_mcmc(cfg: EnsembleConfig) -> McmcResult:
    """Single-particle Gaussian Metropolis chain; reproducible given the seed."""
    rng = np.random.default_rng(cfg.seed)
    pot, n, c = cfg.potential, cfg.n, cfg.potential.c
    edges = cfg.bin_edges
    # start uniform on the binned disk (measure-zero chance of singular points)
    r0 = edges[-1] * 0.9
    pts = r0 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    delta = cfg.delta0

    nbins = edges.size - 1
    counts = np.zeros(nbins, dtype=np.int64)
    batch_counts = np.zeros((cfg.n_batches, nbins), dtype=np.int64)
    batch_recorded = np.zeros(cfg.n_batches, dtype=np.int64)
    moduli = np.empty((cfg.sweeps, n)) if cfg.collect_moduli else None

    tuned_acc = 0
    rec_acc = 0
    total = cfg.burn_in + cfg.sweeps * cfg.thin
    recorded = 0
    with np.errstate(divide="ignore"):
        for sweep in range(total):
            burn = sweep < cfg.burn_in
            steps = rng.standard_normal((n, 2)) * delta
            us = rng.random(n)
            for i in range(n):
                zi = pts[i]
                znew = zi + complex(steps[i, 0], steps[i, 1])
                d_old = np.abs(pts - zi)
                d_new = np.abs(pts - znew)
                d_old[i] = 1.0
                d_new[i] = 1.0
                if np.any(d_new == 0.0):
                    continue
                dh = 2.0 * float(np.sum(np.log(d_old)) - np.sum(np.log(d_new)))
                dh += _site_energy(pot, c, n, znew) - _site_energy(pot, c, n, zi)
                # singular targets (and exact singular-point attractors) are
                # measure zero: rejecting them keeps the chain ergodic
                if math.isinf(dh) or math.isnan(dh):
                    continue
                if dh <= 0.0 or us[i] < math.exp(-dh):
                    pts[i] = znew
                    if burn:
                        tuned_acc += 1
                    else:
                        rec_acc += 1
            if burn:
                if (sweep + 1) % cfg.tune_interval == 0:
                    rate = tuned_acc / (cfg.tune_interval * n)
                    delta = float(np.clip(delta * math.exp(1.5 * (rate - cfg.tune_target)), 1e-4, 50.0))
                    tuned_acc = 0
                continue
            post = sweep - cfg.burn_in
            if post % cfg.thin != 0:
                continue
            radii = np.abs(pts)
            cnt, _ = np.histogram(radii, edges)
            counts += cnt
            b = recorded * cfg.n_batches // cfg.sweeps
            batch_counts[b] += cnt
            batch_recorded[b] += 1
            if moduli is not None:
                moduli[recorded] = radii
            recorded += 1

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
        n=n,
    )
    return McmcResult(
        histogram=hist,
        acceptance_rate=float(rate),
        delta_final=float(delta),
        seed=cfg.seed,
        config=cfg,
        moduli=None if moduli is None else moduli.reshape(-1),
    )


def _tabulated_inverse_cdf(Q: MacroscopicPotential, c: float, n: int, j: int, points: int = 4097):
    """Grid and CDF for the modulus density ~ r^{2j+2c+1} e^{-nQ(r)}."""
    e = 2 * j + 2 * c + 1.0

    def g(r: float) -> float:
        return e * math.log(r) - n * Q.q_of_r(r)

    # locate the scale, then extend until the log-density drops 46 below its max
    hi = 1.0
    while n * Q.q_of_r(hi) < 1.0:
        hi *= 2.0
    if e > 0:
        while e - n * hi * Q.dq_dr(hi) > 0:
            hi *= 2.0
        rm = hi
        gref = g(rm)
    else:
        rm = hi
        gref = g(min(rm, 1e-3))  # decreasing density; reference near the left
    rcut = rm
    while g(rcut) > gref - 46.0 or rcut < rm * 1.5:
        rcut *= 1.25
    if e >= 0.0:
        grid = np.linspace(0.0, rcut, points)
        logw = np.where(grid > 0, e * np.log(np.maximum(grid, 1e-300)), 0.0 if e == 0 else -np.inf)
        logw = logw - n * Q.q_of_r(grid)
        w = np.exp(logw - np.max(logw[np.isfinite(logw)]))
        w[~np.isfinite(w)] = 0.0
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(grid))])
        return grid, cdf / cdf[-1], None
    # singular-integrable at 0: tabulate in v = r^(e+1), where the density is flat
    beta = e + 1.0
    vgrid = np.linspace(0.0, rcut**beta, points)
    rv = vgrid ** (1.0 / beta)
    w = np.exp(-n * Q.q_of_r(rv))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(vgrid))])
    return vgrid, cdf / cdf[-1], beta


def sample_radial_exact(Q: MacroscopicPotential, c: float, n: int, seed: int, draws: int) -> np.ndarray:
    """draws x n moduli of the exact radial ensemble via inverse-CDF tables.

    Rotation invariance makes the moduli multiset independent across the
    monomial indices j = 0..n-1, one inverse-CDF table per index.
    """
    Q._require_radial()
    if Q.spectators:
        raise ConfigError("exact radial sampling does not support spectators")
    rng = np.random.default_rng(seed)
    out = np.empty((draws, n))
    for j in range(n):
        grid, cdf, beta = _tabulated_inverse_cdf(Q, c, n, j)
        u = rng.random(draws)
        v = np.interp(u, cdf, grid)
        out[:, j] = v if beta is None else v ** (1.0 / beta)
    return out


def rescaled_histogram(h: IntensityHistogram, rn: float) -> RescaledHistogram:
    """Map a histogram to microscopic units: edges/rn, values and errors rn^2."""
    if not rn > 0:
        raise ConfigError(f"rn must be positive, got {rn}")
    return RescaledHistogram(
        edges=h.edges / rn,
        values=rn * rn * h.intensity(),
        stderrs=rn * rn * h.stderr(),
    )
