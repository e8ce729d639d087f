"""Exact finite-n radial ensembles, part of the workload ``ensembles``.

One operation is one ensemble (Q, c, n): normalize_potential,
finite_moments, droplet_radius, microscopic_scale, rescaled_intensity on a
grid, mass_integral, microscale_asymptotic_check and a few scalar R0
reference calls.  Three of the five potential families are homogeneous
(a r^{2k}, k = 1, 2, 3), two are not (r^2 + b r^4, r^4 + b r^6).
"""

from __future__ import annotations

import numpy as np

import oracles as O
from harness import Op, close

NORM_REL = 1e-12  # finite_moments' documented accuracy
MASS_ABS = 1e-8   # |mass_integral/n - 1|, acceptance criterion 8
SCALE_REL = 1e-12
N_LIST = (16, 64, 256)
# (label, coefficients {m: q_m} of Q = sum q_m r^{2m}); the seed scales the second coefficient by +- 5%
FAMILIES = [
    ("a r^2", {1: 1.0}),
    ("a r^4", {2: 1.0}),
    ("a r^6", {3: 1.0}),
    ("r^2 + b r^4", {1: 1.0, 2: 1.0}),
    ("r^4 + b r^6", {2: 1.0, 3: 1.0}),
]
C_SLOTS = (-0.5, 0.75)  # +- 0.05
Z_POINTS = 20


def build(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    ensembles = []
    for label, coeffs in FAMILIES:
        top = max(coeffs)
        scaled = {m: q * (float(rng.uniform(0.95, 1.05)) if m == top else 1.0) for m, q in coeffs.items()}
        for c in C_SLOTS:
            cc = c + float(rng.uniform(-0.05, 0.05))
            z = np.sort(rng.uniform(0.1, 2.0, Z_POINTS))
            for n in N_LIST:
                ensembles.append(dict(label=label, coeffs=scaled, c=cc, n=n, z=z))
    return dict(ensembles=ensembles)


def probe_inputs() -> dict:
    z = np.linspace(0.1, 2.0, 8)
    return dict(ensembles=[dict(label="r^2 + b r^4", coeffs={1: 1.0, 2: 1.0}, c=0.5, n=n, z=z)
                           for n in N_LIST])


class _References:
    """Oracle values for one ensemble, computed once per run (the inputs repeat every round)."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, e: dict) -> dict:
        key = (tuple(sorted(e["coeffs"].items())), e["c"], e["n"])
        if key not in self._cache:
            self._cache[key] = self._compute(e)
        return self._cache[key]

    @staticmethod
    def _compute(e: dict) -> dict:
        c, n = e["c"], e["n"]
        Q = O.RadialQ(e["coeffs"])
        k = Q.k
        Qn = Q.normalized(c)
        a_micro = (1.0 + c) / k
        homogeneous = len(e["coeffs"]) == 1
        if homogeneous:
            log_norms = O.gamma_log_norms(k, c, a_micro, n)
            rn = ((1.0 + c) / (n * k * a_micro)) ** (1.0 / (2 * k))  # tau0 ((1+c)/n)^{1/2k}
            intensity = O.truncated_r0(k, c, a_micro, n, e["z"])
        else:
            log_norms = np.array([Qn.log_norm(c, n, j) for j in range(n)])
            rn = Qn.microscopic_scale(c, n)
            intensity = Qn.rescaled_intensity(c, n, log_norms, rn, e["z"])
        n_list = np.array([n, 4 * n, 16 * n])
        rns = np.array([Qn.microscopic_scale(c, int(m)) for m in n_list])
        tau0 = Qn.tau0()
        en = rns / (tau0 * ((1.0 + c) / n_list) ** (1.0 / (2 * k))) - 1.0
        return dict(k=k, lam=(1.0 + c) / (k * e["coeffs"][k]), log_norms=log_norms, rn=rn,
                    droplet=Qn.droplet_radius(), intensity=intensity, rns=rns, tau0=tau0,
                    C=float(np.max(np.abs(en) * n_list ** (1.0 / (2 * k)))),
                    r0=O.r0(k, c, a_micro, e["z"][::5]), homogeneous=homogeneous, a_micro=a_micro)


def _intensity_tol(n: int) -> float:
    """Relative accuracy of R_n: a positive sum of n terms with norms at NORM_REL,
    each carrying r_n^{2j+2c+2}, whose root is bisected to about 1e-14."""
    return NORM_REL + 2.0 * (n + 1) * 1e-14


def _name(e: dict) -> str:
    q = "+".join(f"{v:.4g}r^{2 * m}" for m, v in sorted(e["coeffs"].items()))
    return f"ensemble Q={q} c={e['c']:.4g} n={e['n']}"


def _ensemble_op(F, e: dict, refs: _References) -> Op:
    Q = F.MacroscopicPotential(kind="radial", c=e["c"], radial_coeffs=dict(e["coeffs"]))
    c, n, z = e["c"], e["n"], e["z"]
    k = min(e["coeffs"])
    homogeneous = len(e["coeffs"]) == 1
    a_micro = (1.0 + c) / k

    def run(tr):
        Qn, lam = tr.call("potentials.normalize_potential", {}, F.normalize_potential, Q, k, c)
        fk = tr.call("finite_kernel.finite_moments", {"n": n, "homogeneous": homogeneous},
                     F.finite_moments, Qn, c, n)
        droplet = tr.call("equilibrium.droplet_radius", {}, F.droplet_radius, Qn)
        rn = tr.call("equilibrium.microscopic_scale", {}, F.microscopic_scale, Qn, c, n)
        vals = np.array([tr.call("finite_kernel.rescaled_intensity", {}, F.rescaled_intensity, fk, float(x), rn)
                         for x in z])
        mass = tr.call("finite_kernel.mass_integral", {}, F.mass_integral, fk)
        rep = tr.call("equilibrium.microscale_asymptotic_check", {}, F.microscale_asymptotic_check,
                      Qn, c, [n, 4 * n, 16 * n])
        r0 = np.array([tr.call("radial_bergman.bergman_function_r0", {"k": k, "points": 1, "vector": False},
                               F.bergman_function_r0, k, c, a_micro, float(x)) for x in z[::5]])
        return dict(lam=lam, log_norms=fk.log_norms, droplet=droplet, rn=rn, vals=vals, mass=mass,
                    rns=rep.rn, tau0=rep.tau0, C=rep.C, r0=r0)

    def check(got, results):
        ref = refs.get(e)
        if not close(got["lam"], ref["lam"], 1e-14):
            return f"normalization {got['lam']!r} vs {ref['lam']!r}"
        worst = float(np.max(np.abs(np.expm1(got["log_norms"] - ref["log_norms"]))))
        if not worst <= NORM_REL:
            return f"monomial norms off by {worst:.2e} relative"
        if not close(got["droplet"], ref["droplet"], SCALE_REL):
            return f"droplet radius {got['droplet']!r} vs {ref['droplet']!r}"
        if not close(got["rn"], ref["rn"], SCALE_REL):
            return f"microscopic scale {got['rn']!r} vs {ref['rn']!r}"
        tol = _intensity_tol(n)
        worst = float(np.max(np.abs(got["vals"] / ref["intensity"] - 1.0)))
        if not worst <= tol:
            return f"rescaled intensity off by {worst:.2e} relative (tolerance {tol:.1e})"
        if not abs(got["mass"] / n - 1.0) <= MASS_ABS:
            return f"mass_integral/n - 1 = {got['mass'] / n - 1.0:.2e}"
        if not (close(got["tau0"], ref["tau0"], SCALE_REL)
                and np.all(np.abs(got["rns"] / ref["rns"] - 1.0) <= SCALE_REL)
                and abs(got["C"] - ref["C"]) <= 1e-9 * max(1.0, ref["C"])):
            return "microscale_asymptotic_check disagrees with the reference scales"
        if np.any(np.abs(got["r0"] / ref["r0"] - 1.0) > 1e-12):
            return "scalar R0 reference values off"
        if homogeneous and n == N_LIST[-1]:
            # R_16 <= R_64 <= R_256 <= R0 on the grid (monotone exhaustion), up to the
            # accuracy of the larger side
            prev = None
            for m in N_LIST:
                other = results.get(_name(dict(e, n=m)))
                if other is None:
                    return f"the n={m} ensemble of this family failed"
                if prev is not None and np.any(prev > other["vals"] * (1.0 + _intensity_tol(m))):
                    return "R_n decreases in n"
                prev = other["vals"]
            if np.any(prev > O.r0(k, c, a_micro, z) * (1.0 + _intensity_tol(n))):
                return "R_n exceeds R0"
        return None

    return Op(_name(e), run, check)


def ops(F, inputs: dict) -> list[Op]:
    refs = _References()
    return [_ensemble_op(F, e, refs) for e in inputs["ensembles"]]


def warm_up(F, inputs: dict) -> None:
    Q = F.MacroscopicPotential(kind="radial", c=0.5, radial_coeffs={1: 1.0, 2: 1.0})
    Qn, _ = F.normalize_potential(Q, 1, 0.5)
    fk = F.finite_moments(Qn, 0.5, 4)
    rn = F.microscopic_scale(Qn, 0.5, 4)
    F.rescaled_intensity(fk, 0.5, rn)
    F.mass_integral(fk)
    F.microscale_asymptotic_check(Qn, 0.5, [4, 16])
    F.bergman_function_r0(1, 0.5, 1.5, 0.5)
