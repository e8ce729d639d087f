"""Command-line front end: tables, verification reports, figures, MC runs.

Subcommands
  r0           R0 table for a radial or Hermitian homogeneous weight
  verify-thm1  decay-rate report for R0/DeltaQ0 - 1 (JSON; exit 0/1/4)
  rescale      finite-n rescaled densities vs R0 over a grid
  equilibrium  droplet radius, tau0, and microscopic scales over n
  sample       Metropolis run artifacts (histogram CSV + config JSON)
  fig1         three reference R0 curves as CSV + SVG
  gram         general-Q0 density via the truncated moment-matrix kernel

CSV files use '.' decimal separator, ',' field separator, a mandatory
header row, and 17 significant digits so values round-trip exactly.
Exit codes: 0 success (verify-thm1: in-band), 1 out-of-band report,
2 configuration error, 3 numerical failure, 4 degenerate fit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, FitError, NumericalError
from .potentials import (
    HomogeneousHermitianPoly,
    MacroscopicPotential,
    MicroscopicPotential,
    load_potential_config,
)
from .radial_bergman import bergman_function_r0, decay_report, delta_q0
from .general_bergman import bergman_density, moment_matrix, truncated_kernel
from .equilibrium import droplet_radius, microscale_asymptotic_check
from .finite_kernel import convergence_report, truncated_series_r0
from .coulomb_mc import EnsembleConfig, run_mcmc
from .svgplot import Curve, write_svg

__all__ = ["main", "build_parser", "parse_grid", "write_csv", "read_table"]


# --- small shared helpers ------------------------------------------------


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'rmin:rmax:points' or 'rmin:rmax:points:log' into a grid."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid spec {spec!r} is not rmin:rmax:points[:log]")
    try:
        lo, hi, npts = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid spec {spec!r}: {exc}") from exc
    if npts < 2:
        raise ConfigError(f"grid needs at least 2 points, got {npts}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid spec {spec!r}: rmin and rmax must be finite")
    if not hi > lo:
        raise ConfigError(f"grid needs rmax > rmin, got [{lo}, {hi}]")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ConfigError(f"grid spacing must be 'log', got {parts[3]!r}")
        if lo <= 0:
            raise ConfigError("log-spaced grid needs rmin > 0")
        return np.geomspace(lo, hi, npts)
    return np.linspace(lo, hi, npts)


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    return "" if math.isnan(f) else format(f, ".17g")


def write_csv(path: str | Path | None, header: list[str], rows) -> None:
    """CSV with mandatory header, ',' fields, 17-significant-digit decimals."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def read_table(path: str | Path) -> tuple[list[str], list[list[float]]]:
    """Read back a CLI-written CSV; blank cells become NaN."""
    raw = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = raw[0].split(",")
    rows = []
    for line in raw[1:]:
        rows.append([math.nan if cell == "" else float(cell) for cell in line.split(",")])
    return header, rows


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _json_text(doc: dict) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _write_json(path: str | Path | None, doc: dict) -> None:
    if path is None:
        sys.stdout.write(_json_text(doc))
    else:
        Path(path).write_text(_json_text(doc), encoding="utf-8")


def _write_table_and_report(prefix: str | None, header: list[str], rows, doc: dict) -> None:
    """CSV and JSON to prefix.csv and prefix.json, or without a prefix CSV to stdout and JSON to stderr."""
    if prefix:
        write_csv(f"{prefix}.csv", header, rows)
        _write_json(f"{prefix}.json", doc)
        print(f"wrote {prefix}.csv, {prefix}.json")
    else:
        write_csv(None, header, rows)
        sys.stderr.write(_json_text(doc))


def _inline_kca(args) -> tuple[int, float, float]:
    k = args.k if args.k is not None else 1
    c = args.c if args.c is not None else 0.0
    a = args.amplitude if args.amplitude is not None else 1.0
    return k, c, a


def _forbid_inline_with_file(args) -> None:
    if args.k is not None or args.c is not None or args.amplitude is not None:
        raise ConfigError("--coeffs-file and inline flags --k/--c/--amplitude are mutually exclusive")


def _macroscopic_from_args(args, require_radial: bool = False) -> MacroscopicPotential:
    if getattr(args, "coeffs_file", None):
        _forbid_inline_with_file(args)
        Q = load_potential_config(args.coeffs_file)
    else:
        k, c, a = _inline_kca(args)
        Q = MacroscopicPotential(kind="radial", c=c, radial_coeffs={k: a})
    if require_radial and Q.kind != "radial":
        raise ConfigError("this subcommand requires a radial potential")
    return Q


def _microscopic_from_args(args) -> MicroscopicPotential:
    """Homogeneous microscopic weight from inline flags or a config file."""
    if getattr(args, "coeffs_file", None):
        _forbid_inline_with_file(args)
        Q = load_potential_config(args.coeffs_file)
        if Q.spectators:
            raise ConfigError("the microscopic-model path does not support spectators")
        taylor = {ij: a for ij, a in Q.taylor_coeffs().items() if abs(a) > 0}
        degrees = sorted({i + j for (i, j) in taylor})
        if len(degrees) != 1 or degrees[0] % 2 != 0:
            raise ConfigError(
                f"the microscopic weight must be homogeneous of even degree, got degrees {degrees}"
            )
        k = degrees[0] // 2
        return MicroscopicPotential(k=k, c=Q.c, q0=HomogeneousHermitianPoly(2 * k, taylor))
    k, c, a = _inline_kca(args)
    return MicroscopicPotential(k=k, c=c, q0=HomogeneousHermitianPoly(2 * k, {(k, k): a}))


def _parse_n_list(text: str | None, default: list[int]) -> list[int]:
    if text is None:
        return list(default)
    try:
        out = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad n list {text!r}: {exc}") from exc
    if not out or any(n < 1 for n in out):
        raise ConfigError(f"n list must contain integers >= 1, got {text!r}")
    return out


def _polar_density(grid: np.ndarray, n_theta: int, density):
    """r, theta, z and density(z) on a polar grid, in one call, with one angle at r = 0.

    A DivergenceError, which arises only at r = 0 (c < 0), prints a note and
    drops that point.
    """
    if np.any(grid < 0):
        raise ConfigError("r must be >= 0")
    thetas = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    r, th = np.array([(x, t) for x in grid for t in (thetas if x > 0 else thetas[:1])]).T
    z = r * np.cos(th) + 1j * (r * np.sin(th))
    try:
        return r, th, z, density(z)
    except DivergenceError as exc:
        print(f"note: grid point r=0 rejected: {exc}", file=sys.stderr)
        keep = r != 0.0
        return r[keep], th[keep], z[keep], density(z[keep])


# --- subcommands ----------------------------------------------------------


def cmd_r0(args) -> int:
    p = _microscopic_from_args(args)
    grid = parse_grid(args.grid or "0:3:241")
    if p.is_radial:
        k, c, a = p.k, p.c, p.amplitude
        try:
            val = bergman_function_r0(k, c, a, grid)
        except DivergenceError as exc:  # only at r = 0, the first point of an increasing grid
            print(f"note: grid point r=0 rejected: {exc}", file=sys.stderr)
            val = np.concatenate([[np.nan], bergman_function_r0(k, c, a, grid[1:])])
        dq = delta_q0(k, c, a, grid)
        rel = val / np.where(dq != 0.0, dq, np.nan) - 1.0
        write_csv(args.out, ["r", "R0", "deltaQ0", "rel_err"], zip(grid, val, dq, rel))
        return 0
    tk = truncated_kernel(moment_matrix(p, args.n))
    r, th, z, val = _polar_density(grid, 24, lambda z: bergman_density(tk, p, z))
    dq = p.q0.laplacian().evaluate(z)
    rel = val / np.where(dq != 0.0, dq, np.nan) - 1.0
    write_csv(args.out, ["r", "theta", "R0", "deltaQ0", "rel_err"], zip(r, th, val, dq, rel))
    return 0


def cmd_verify_thm1(args) -> int:
    k, c, a = _inline_kca(args)
    if args.grid:
        grid = parse_grid(args.grid)
    else:
        u = np.linspace(4.0, 16.0, 25)
        grid = (u / a) ** (1.0 / (2 * k))
    rep = decay_report(k, c, a, grid)
    doc = {
        "k": rep.k,
        "c": rep.c,
        "amplitude": rep.amplitude,
        "n_used": rep.n_used,
        "n_excluded": rep.n_excluded,
        "identically_zero": rep.identically_zero,
        "fit_ok": rep.fit_ok,
        "slope": rep.slope,
        "slope_raw": rep.slope_raw,
        "ln_power": rep.ln_power,
        "intercept": rep.intercept,
        "alpha": rep.alpha,
        "u": rep.u,
        "rel_err": rep.rel_err,
    }
    if rep.identically_zero:
        doc["verdict"] = "identically zero error"
        doc["exit_status"] = 0
        _write_json(args.out, doc)
        return 0
    if not rep.fit_ok:
        raise FitError(
            f"decay fit degenerate: only {rep.n_used} usable points "
            f"(|rel_err| above rounding floor) on the grid"
        )
    mags = np.abs(rep.rel_err[rep.usable])
    in_band = -1.05 <= rep.slope <= -0.95
    decaying = bool(mags[0] > mags[-1]) and bool(np.max(mags) < 1.0)
    doc["slope_in_band"] = in_band
    doc["errors_decaying"] = decaying
    doc["verdict"] = "in band" if (in_band and decaying) else "out of band"
    code = 0 if (in_band and decaying) else 1
    doc["exit_status"] = code
    _write_json(args.out, doc)
    return code


def cmd_rescale(args) -> int:
    Q = _macroscopic_from_args(args, require_radial=True)
    c = Q.c
    n_list = _parse_n_list(args.n_list, default=[16, 64, 256])
    grid = parse_grid(args.grid or "0.1:2:39")
    rejected = grid[grid == 0.0].tolist() if c < 0 else []
    for x in rejected:
        print(f"note: grid point z={x:g} rejected: density diverges at 0 for c = {c} < 0", file=sys.stderr)
    rep = convergence_report(Q, c, n_list, grid[grid != 0.0] if rejected else grid)
    # the report's rows run over the sorted n; the table keeps the order and repeats of n_list
    row = {int(n): i for i, n in enumerate(rep.n)}
    Rn = {n: rep.values[row[n]] for n in n_list}
    a_micro = (1.0 + c) / rep.k
    identity = None
    if set(m for m, q in Q.radial_coeffs.items() if q != 0.0) == {rep.k}:
        identity = {}
        for n in n_list:
            series = truncated_series_r0(rep.k, c, a_micro, n, rep.z)
            identity[n] = bool(np.max(np.abs(Rn[n] - series)) <= 1e-12)
    doc = {
        "k": rep.k,
        "c": c,
        "lambda": rep.lam,
        "micro_amplitude": a_micro,
        "n_list": n_list,
        "rn": {n: rep.rn[row[n]] for n in n_list},
        "sup_err": {n: rep.sup_err[row[n]] for n in n_list},
        "series_identity": identity,
        "rejected_points": rejected,
    }
    header = ["z", "R0"] + [f"Rn_{n}" for n in n_list]
    rows = np.column_stack([rep.z, rep.r0] + [Rn[n] for n in n_list])
    _write_table_and_report(args.out, header, rows, doc)
    return 0


def cmd_equilibrium(args) -> int:
    Q = _macroscopic_from_args(args, require_radial=True)
    c = Q.c
    if args.n is not None and args.n_list is not None:
        raise ConfigError("--n and --n-list are mutually exclusive")
    n_list = [args.n] if args.n is not None else _parse_n_list(args.n_list, default=[100])
    rep = microscale_asymptotic_check(Q, c, n_list)
    R = droplet_radius(Q)
    print(f"R_Q = {R:.12g}")
    print(f"tau0 = {rep.tau0:.12g}")
    print(f"k = {rep.k}, c = {c:g}, fitted C = {rep.C:.6g}")
    for n, rn, en in zip(rep.n, rep.rn, rep.en):
        print(f"n = {int(n):d}: rn = {rn:.12g} (deviation {en:+.3e})")
    if args.out:
        doc = {
            "droplet_radius": R,
            "tau0": rep.tau0,
            "k": rep.k,
            "c": c,
            "C": rep.C,
            "bound_ok": rep.bound_ok,
        }
        _write_table_and_report(args.out, ["n", "rn", "en"], zip(rep.n, rep.rn, rep.en), doc)
    return 0


def cmd_sample(args) -> int:
    Q = _macroscopic_from_args(args, require_radial=True)
    if args.n is None:
        raise ConfigError("sample requires --n (number of particles)")
    rmax = args.rmax if args.rmax is not None else 1.25 * droplet_radius(Q)
    if not math.isfinite(rmax):
        raise ConfigError(f"--rmax must be finite, got {rmax}")
    edges = np.linspace(0.0, rmax, args.bins + 1)
    cfg = EnsembleConfig(
        n=args.n,
        potential=Q,
        bin_edges=edges,
        sweeps=args.sweeps,
        burn_in=args.burn_in,
        thin=args.thin,
        delta0=args.delta0,
        seed=args.seed if args.seed is not None else 0,
    )
    res = run_mcmc(cfg)
    h = res.histogram
    doc = {
        "config": {
            "n": cfg.n,
            "c": Q.c,
            "kind": Q.kind,
            "radial_coeffs": sorted(Q.radial_coeffs.items()) if Q.kind == "radial" else None,
            "spectators": [[s.position.real, s.position.imag, s.charge] for s in Q.spectators],
            "sweeps": cfg.sweeps,
            "burn_in": cfg.burn_in,
            "thin": cfg.thin,
            "seed": cfg.seed,
            "delta0": cfg.delta0,
            "bin_edges": edges,
        },
        "acceptance_rate": res.acceptance_rate,
        "delta_final": res.delta_final,
        "recorded": h.recorded,
        "mass_in_range": h.mass(),
    }
    rows = zip(edges[:-1], edges[1:], h.counts, h.intensity(), h.stderr())
    _write_table_and_report(args.out or "mc_run", ["bin_lo", "bin_hi", "count", "intensity", "stderr"], rows, doc)
    return 0


_FIG1_CASES = [
    # (k, c, amplitude, min_r, column name, curve label)
    (1, 1.0, 2.0, 0.0, "R0_k1_c1_a2", "k=1, c=1, a=2"),
    (1, -0.5, 0.5, 0.05, "R0_k1_c-0.5_a0.5", "k=1, c=-1/2, a=1/2"),
    (2, 0.0, 0.5, 0.0, "R0_k2_c0_a0.5", "k=2, c=0, a=1/2"),
]


def cmd_fig1(args) -> int:
    r = np.linspace(0.0, 3.0, 241)
    cols, curves = [r], []
    for k, c, a, rmin, _, label in _FIG1_CASES:
        ok = r >= rmin
        cols.append(np.full(r.size, np.nan))
        cols[-1][ok] = bergman_function_r0(k, c, a, r[ok])
        curves.append(Curve(x=r[ok].tolist(), y=cols[-1][ok].tolist(), label=label))
    prefix = args.out or "fig1"
    write_csv(f"{prefix}.csv", ["r"] + [case[4] for case in _FIG1_CASES], np.column_stack(cols))
    write_svg(
        f"{prefix}.svg",
        curves,
        title="Radial Bergman densities R0(r)",
        xlabel="r",
        ylabel="R0",
        log_y=True,
    )
    print(f"wrote {prefix}.csv, {prefix}.svg")
    return 0


def cmd_gram(args) -> int:
    p = _microscopic_from_args(args)
    grid = parse_grid(args.grid or "0:2:21")
    tk = truncated_kernel(moment_matrix(p, args.n))
    r, th, z, val = _polar_density(grid, 16, lambda z: bergman_density(tk, p, z))
    doc = {
        "N": args.n,
        "k": p.k,
        "c": p.c,
        "condition_number": tk.condition,
        "kappa": [p.kappa.real, p.kappa.imag],
    }
    _write_table_and_report(args.out, ["r", "theta", "x", "y", "R0N"], zip(r, th, z.real, z.imag, val), doc)
    return 0


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    pot = argparse.ArgumentParser(add_help=False)
    pot.add_argument("--k", type=int, default=None, help="homogeneity index k (degree 2k)")
    pot.add_argument("--c", type=float, default=None, help="origin charge exponent c > -1")
    pot.add_argument("--amplitude", type=float, default=None, help="radial amplitude a in a r^{2k}")
    pot.add_argument("--coeffs-file", dest="coeffs_file", default=None,
                     help="JSON potential config (mutually exclusive with inline flags)")
    gridp = argparse.ArgumentParser(add_help=False)
    gridp.add_argument("--grid", default=None, help="grid spec rmin:rmax:points[:log]")
    outp = argparse.ArgumentParser(add_help=False)
    outp.add_argument("--out", default=None, help="output path or prefix (default: stdout)")

    ap = argparse.ArgumentParser(
        prog="focklab",
        description="Bergman densities of weighted Fock spaces and Coulomb-gas cross-checks.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("r0", parents=[pot, gridp, outp],
                       help="R0 table (radial closed form or Hermitian kernel path)")
    p.add_argument("--n", type=int, default=48, help="truncation order for Hermitian weights (default 48)")
    p.set_defaults(func=cmd_r0)

    p = sub.add_parser("verify-thm1", parents=[pot, gridp, outp],
                       help="decay-rate verification report (JSON)")
    p.set_defaults(func=cmd_verify_thm1)

    p = sub.add_parser("rescale", parents=[pot, gridp, outp],
                       help="finite-n rescaled densities against R0")
    p.add_argument("--n-list", dest="n_list", default=None, help="comma-separated n values (default 16,64,256)")
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("equilibrium", parents=[pot, outp],
                       help="droplet radius, tau0, microscopic scales")
    p.add_argument("--n", type=int, default=None, help="single n")
    p.add_argument("--n-list", dest="n_list", default=None, help="comma-separated n values")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("sample", parents=[pot, outp],
                       help="Metropolis sampling run (writes CSV histogram + JSON)")
    p.add_argument("--n", type=int, default=None, help="number of particles")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--sweeps", type=int, default=10_000, help="recorded sweeps")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=2_000)
    p.add_argument("--thin", type=int, default=1, help="record every thin-th sweep")
    p.add_argument("--bins", type=int, default=36, help="number of radial bins")
    p.add_argument("--rmax", type=float, default=None, help="outer bin edge (default 1.25 R)")
    p.add_argument("--delta0", type=float, default=0.3, help="initial proposal scale")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fig1", parents=[outp], help="three reference R0 curves (CSV + SVG)")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("gram", parents=[pot, gridp, outp],
                       help="general-Q0 density via the moment-matrix kernel")
    p.add_argument("--n", type=int, default=48, help="truncation order N (default 48)")
    p.set_defaults(func=cmd_gram)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except ConfigError as exc:
        print(f"focklab: config error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"focklab: fit failure: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"focklab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
