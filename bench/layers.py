"""Per-layer metrics computed from the spans of a traced run.

Each function takes the spans, the warning counts and the number of
rounds, and returns a number, or None when the run made no call that the
metric measures.  ``run.py`` then takes the value from a probe: a small
fixed set of calls of the other workload, which does make them.
"""

from __future__ import annotations

import statistics


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _select(spans, name: str, **match) -> list[dict]:
    return [s for s in spans if s["name"] == name and "error" not in s["attrs"]
            and all(s["attrs"].get(k) == v for k, v in match.items())]


def _median(spans, name: str, scale: float, **match):
    sel = _select(spans, name, **match)
    return scale * statistics.median(_dur(s) for s in sel) if sel else None


def _per_unit(spans, name: str, unit: str, scale: float, **match):
    sel = _select(spans, name, **match)
    units = sum(s["attrs"][unit] for s in sel)
    return scale * sum(_dur(s) for s in sel) / units if units else None


def _rate(spans, name: str, unit: str, **match):
    per = _per_unit(spans, name, unit, 1.0, **match)
    return 1.0 / per if per else None


def _cli_median(sub: str):
    return lambda spans, ctx: _median(spans, f"cli.{sub}", 1.0, exit=0)


def _refused(spans, ctx):
    tk = [s for s in spans if s["name"] == "general_bergman.truncated_kernel"]
    cli = [s for s in spans if s["name"] in ("cli.r0", "cli.gram") and s["attrs"].get("default_n")]
    if not tk and not cli:
        return None
    count = sum(s["attrs"].get("error") == "IllConditionedError" for s in tk)
    count += sum(bool(s["attrs"].get("refused")) for s in cli)
    return count / ctx["rounds"]


def _max_condition(spans, ctx):
    conds = [s["attrs"]["condition"] for s in spans
             if s["name"] in ("general_bergman.truncated_kernel", "cli.r0", "cli.gram") and "condition" in s["attrs"]]
    return max(conds) if conds else None


def _tail_warnings(spans, ctx):
    if _select(spans, "general_bergman.bergman_density"):
        return ctx["warnings"].get(("general_bergman.bergman_density", "RuntimeWarning"), 0) / ctx["rounds"]
    cli = [s for s in spans if s["name"] in ("cli.r0", "cli.gram")]
    return sum(s["attrs"].get("warnings", 0) for s in cli) / ctx["rounds"] if cli else None


def _quad_warnings(spans, ctx):
    if not any(s["name"].startswith("finite_kernel.") for s in spans):
        return None
    return sum(v for (layer, cat), v in ctx["warnings"].items()
               if layer.startswith("finite_kernel.") and cat == "IntegrationWarning") / ctx["rounds"]


def _homogeneous_share(spans, ctx):
    sel = _select(spans, "finite_kernel.finite_moments")
    total = sum(_dur(s) for s in sel)
    return sum(_dur(s) for s in sel if s["attrs"]["homogeneous"]) / total if total else None


def _mc_attr(attr: str, reduce):
    def metric(spans, ctx):
        vals = [s["attrs"][attr] for s in _select(spans, "coulomb_mc.run_mcmc") if attr in s["attrs"]]
        return reduce(vals) if vals else None
    return metric


def _gram_rate(spans, ctx):
    """Gram points per second of potential construction, assembly, factorisation and evaluation."""
    points = len(_select(spans, "general_bergman.bergman_density"))
    busy = sum(_dur(s) for s in spans if s["name"] in (
        "potentials.MicroscopicPotential", "general_bergman.moment_matrix",
        "general_bergman.truncated_kernel", "general_bergman.bergman_density"))
    return points / busy if points else None


def _import(spans, ctx):
    return ctx["import_s"]


def _trace_wall(spans, ctx):
    return ctx["wall_s"]


def _speed(spans, ctx):
    return ctx["speed"]


def _spans_per_round(spans, ctx):
    return len(spans) / ctx["rounds"]


METRICS = {
    "import.focklab_s": _import,
    **{f"cli.{sub}_s": _cli_median(sub)
       for sub in ("r0", "verify-thm1", "rescale", "equilibrium", "sample", "fig1", "gram")},
    "potentials.microscopic_potential_us": lambda sp, ctx: _median(sp, "potentials.MicroscopicPotential", 1e6),
    "potentials.normalize_potential_us": lambda sp, ctx: _median(sp, "potentials.normalize_potential", 1e6),
    **{f"radial_bergman.r0_us_per_point.k{k}":
       (lambda sp, ctx, k=k: _per_unit(sp, "radial_bergman.bergman_function_r0", "points", 1e6, k=k, vector=True))
       for k in (1, 2, 3)},
    "radial_bergman.r0_scalar_us_per_call":
        lambda sp, ctx: _median(sp, "radial_bergman.bergman_function_r0", 1e6, vector=False),
    "radial_bergman.r0_points_per_s":
        lambda sp, ctx: _rate(sp, "radial_bergman.bergman_function_r0", "points", vector=True),
    "radial_bergman.decay_report_ms": lambda sp, ctx: _median(sp, "radial_bergman.decay_report", 1e3),
    "radial_bergman.disk_mass_ms": lambda sp, ctx: _median(sp, "radial_bergman.disk_mass", 1e3),
    "general_bergman.moment_matrix_ms": lambda sp, ctx: _median(sp, "general_bergman.moment_matrix", 1e3),
    "general_bergman.truncated_kernel_ms": lambda sp, ctx: _median(sp, "general_bergman.truncated_kernel", 1e3),
    "general_bergman.bergman_density_us_per_point":
        lambda sp, ctx: _median(sp, "general_bergman.bergman_density", 1e6),
    "general_bergman.gram_points_per_s": _gram_rate,
    "general_bergman.refused": _refused,
    "general_bergman.max_condition": _max_condition,
    "general_bergman.tail_warnings": _tail_warnings,
    "equilibrium.droplet_radius_us": lambda sp, ctx: _median(sp, "equilibrium.droplet_radius", 1e6),
    "equilibrium.microscopic_scale_us": lambda sp, ctx: _median(sp, "equilibrium.microscopic_scale", 1e6),
    "equilibrium.microscale_asymptotic_check_ms":
        lambda sp, ctx: _median(sp, "equilibrium.microscale_asymptotic_check", 1e3),
    **{f"finite_kernel.finite_moments_ms_per_norm.n{n}":
       (lambda sp, ctx, n=n: _per_unit(sp, "finite_kernel.finite_moments", "n", 1e3, n=n))
       for n in (16, 64, 256)},
    "finite_kernel.norms_per_s": lambda sp, ctx: _rate(sp, "finite_kernel.finite_moments", "n"),
    "finite_kernel.rescaled_intensity_us_per_point":
        lambda sp, ctx: _median(sp, "finite_kernel.rescaled_intensity", 1e6),
    "finite_kernel.mass_integral_ms": lambda sp, ctx: _median(sp, "finite_kernel.mass_integral", 1e3),
    "finite_kernel.quad_warnings": _quad_warnings,
    "finite_kernel.homogeneous_share": _homogeneous_share,
    "coulomb_mc.ensemble_config_ms": lambda sp, ctx: _median(sp, "coulomb_mc.EnsembleConfig", 1e3),
    **{f"coulomb_mc.run_mcmc_us_per_move.n{n}":
       (lambda sp, ctx, n=n: _per_unit(sp, "coulomb_mc.run_mcmc", "moves", 1e6, n=n))
       for n in (8, 16, 32, 64)},
    "coulomb_mc.mc_moves_per_s": lambda sp, ctx: _rate(sp, "coulomb_mc.run_mcmc", "moves"),
    "coulomb_mc.acceptance": _mc_attr("acceptance", statistics.mean),
    "coulomb_mc.tau_int_sweeps": _mc_attr("tau_int", statistics.median),
    **{f"coulomb_mc.sample_radial_exact_us_per_modulus.n{n}":
       (lambda sp, ctx, n=n: _per_unit(sp, "coulomb_mc.sample_radial_exact", "moduli", 1e6, n=n))
       for n in (8, 64, 256)},
    "coulomb_mc.exact_moduli_per_s": lambda sp, ctx: _rate(sp, "coulomb_mc.sample_radial_exact", "moduli"),
    "trace.wall_s": _trace_wall,
    "host.speed": _speed,
    "trace.spans_per_round": _spans_per_round,
}


def compute(spans: list[dict], ctx: dict) -> dict:
    return {name: fn(spans, ctx) for name, fn in METRICS.items()}
