"""Command-line front end: tables, verification reports, figures, MC runs.

Subcommands
  r0           closed-form R0 table for a radial weight a r^{2k}
  verify-thm1  decay-rate report for R0/DeltaQ0 - 1 (JSON; exit 0/1/4)
  rescale      finite-n rescaled densities vs R0 over a grid
  equilibrium  droplet radius, tau0, and microscopic scales over n
  sample       Metropolis run artifacts (histogram CSV + config JSON)
  fig1         three reference R0 curves as CSV + SVG
  gram         truncated-kernel density of any homogeneous Q0 (JSON: N, condition)

CSV files use '.' decimal separator, ',' field separator, a mandatory
header row, and 17 significant digits so values round-trip exactly.
Exit codes: 0 success (verify-thm1: in-band), 1 out-of-band report,
2 configuration or file error, 3 numerical failure, 4 degenerate fit.
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
    CanonicalDecomposition,
    MacroscopicPotential,
    canonical_decompose,
    detect_k,
    load_potential_config,
)
from .radial_bergman import bergman_function_r0, decay_report, delta_q0
from .general_bergman import bergman_density, moment_matrix, truncated_kernel
from .equilibrium import droplet_radius, microscale_asymptotic_check
from .finite_kernel import convergence_report, truncated_series_r0
from .coulomb_mc import EnsembleConfig, run_mcmc
from .svgplot import write_svg

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


def _potential(args, radial: bool = False) -> MacroscopicPotential:
    """The command's weight: --coeffs-file, or Q = a r^{2k} with charge c from --k/--c/--amplitude (default 1, 0, 1)."""
    inline = (args.k, args.c, args.amplitude)
    if args.coeffs_file:
        if inline != (None, None, None):
            raise ConfigError("--coeffs-file and inline flags --k/--c/--amplitude are mutually exclusive")
        Q = load_potential_config(args.coeffs_file)
    else:
        k, c, a = (d if v is None else v for v, d in zip(inline, (1, 0.0, 1.0)))
        Q = MacroscopicPotential(kind="radial", c=c, radial_coeffs={k: a})
    if radial and Q.kind != "radial":
        raise ConfigError("this subcommand requires a radial potential")
    return Q


def _homogeneous(Q: MacroscopicPotential) -> CanonicalDecomposition:
    """The split Q = Q0 + Re H of a Q without Q1; its q0 is the microscopic weight V0 = Q0 - 2c log|z|.

    f -> f e^{h/2} maps A^2(e^{-Q0}) isometrically onto A^2(e^{-Q0 - Re h}),
    so the pure terms in Re H leave the density R0 unchanged.
    """
    dec = canonical_decompose(Q, detect_k(Q))
    if dec.q1_coeffs:
        raise ConfigError(f"the microscopic weight must be Q0 + Re H, got terms {sorted(dec.q1_coeffs)} of degree > 2k")
    return dec


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


# --- subcommands ----------------------------------------------------------


def cmd_r0(args) -> int:
    p = _homogeneous(_potential(args)).q0
    if not p.is_radial:
        raise ConfigError("r0 requires a radial weight a r^{2k}; gram takes a Q0 with a mixed term")
    grid = parse_grid(args.grid or "0:3:241")
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


def cmd_verify_thm1(args) -> int:
    p = _homogeneous(_potential(args)).q0
    if not p.is_radial:
        raise ConfigError("verify-thm1 requires a radial weight a r^{2k}")
    k, c, a = p.k, p.c, p.amplitude
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
    Q = _potential(args, radial=True)
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
    Q = _potential(args, radial=True)
    c = Q.c
    n_list = _parse_n_list(args.n_list, default=[100])
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
    Q = _potential(args, radial=True)
    if args.n is None:
        raise ConfigError("sample requires --n (number of particles)")
    rmax = args.rmax if args.rmax is not None else 1.25 * droplet_radius(Q)
    if not math.isfinite(rmax):
        raise ConfigError(f"--rmax must be finite, got {rmax}")
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    edges = np.linspace(0.0, rmax, args.bins + 1)
    cfg = EnsembleConfig(
        n=args.n,
        potential=Q,
        bin_edges=edges,
        sweeps=args.sweeps,
        burn_in=args.burn_in,
        seed=args.seed if args.seed is not None else 0,
    )
    res = run_mcmc(cfg)
    h = res.histogram
    doc = {
        "config": {
            "n": cfg.n,
            "c": Q.c,
            "kind": Q.kind,
            "radial_coeffs": sorted(Q.radial_coeffs.items()),
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
        curves.append((r[ok], cols[-1][ok], label))
    prefix = args.out or "fig1"
    write_csv(f"{prefix}.csv", ["r"] + [case[4] for case in _FIG1_CASES], np.column_stack(cols))
    write_svg(f"{prefix}.svg", curves)
    print(f"wrote {prefix}.csv, {prefix}.svg")
    return 0


def cmd_gram(args) -> int:
    dec = _homogeneous(_potential(args))
    p = dec.q0
    grid = parse_grid(args.grid or "0:2:21")
    if np.any(grid < 0):
        raise ConfigError("r must be >= 0")
    tk = truncated_kernel(moment_matrix(p, args.n))
    thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    r, th = np.array([(x, t) for x in grid for t in (thetas if x > 0 else thetas[:1])]).T
    z = r * np.cos(th) + 1j * (r * np.sin(th))
    try:
        val = bergman_density(tk, p, z)
    except DivergenceError as exc:  # only at r = 0 (c < 0): drop that point
        print(f"note: grid point r=0 rejected: {exc}", file=sys.stderr)
        keep = r != 0.0
        r, th, z = r[keep], th[keep], z[keep]
        val = bergman_density(tk, p, z)
    dq = p.q0.laplacian().evaluate(z)
    rel = val / np.where(dq != 0.0, dq, np.nan) - 1.0
    doc = {
        "N": args.n,
        "k": p.k,
        "c": p.c,
        "condition_number": tk.condition,
        "kappa": complex(dec.h_coeffs.get(2 * p.k, 0.0)) / 2,  # the pure z^{2k} coefficient
    }
    header = ["r", "theta", "x", "y", "R0N", "deltaQ0", "rel_err"]
    _write_table_and_report(args.out, header, zip(r, th, z.real, z.imag, val, dq, rel), doc)
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
                       help="R0 table for a radial weight (closed form)")
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
    p.add_argument("--n-list", dest="n_list", default=None, help="comma-separated n values (default 100)")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("sample", parents=[pot, outp],
                       help="Metropolis sampling run (writes CSV histogram + JSON)")
    p.add_argument("--n", type=int, default=None, help="number of particles")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--sweeps", type=int, default=10_000, help="recorded sweeps")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=2_000)
    p.add_argument("--bins", type=int, default=36, help="number of radial bins")
    p.add_argument("--rmax", type=float, default=None, help="outer bin edge (default 1.25 R)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fig1", parents=[outp], help="three reference R0 curves (CSV + SVG)")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("gram", parents=[pot, gridp, outp],
                       help="density of any homogeneous Q0 via the moment-matrix kernel")
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
    except OSError as exc:
        print(f"focklab: file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
