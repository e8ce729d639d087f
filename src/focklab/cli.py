"""Command-line front end: tables, verification reports, figures, MC runs.

Subcommands
  r0           closed-form R0 table for a radial weight a r^{2k}
  verify-thm1  decay-rate report for R0/DeltaQ0 - 1 (JSON; exit 0/1/4)
  rescale      finite-n rescaled densities vs R0 over a grid
  equilibrium  droplet radius, tau0, and microscopic scales over n
  sample       Metropolis run artifacts (histogram CSV + config JSON)
  fig1         three reference R0 curves as CSV + SVG
  gram         truncated-kernel density of any homogeneous Q0 with its truncation estimate

CSV files use '.' decimal separator, ',' field separator, a mandatory
header row, and 17 significant digits so values round-trip exactly.
Exit codes: 0 success (verify-thm1: in-band), 1 out-of-band report,
2 configuration or file error, 3 numerical failure, 4 degenerate fit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, FitError, NumericalError
from .potentials import (
    CanonicalDecomposition,
    MacroscopicPotential,
    _check_exponents,
    _check_grid,
    _check_int,
    _check_n_list,
    _check_overflow,
    _check_points,
    _check_scale,
    canonical_decompose,
    load_potential_config,
)
# each cmd_* imports the layers it runs, so a command loads those and no others

__all__ = ["main", "build_parser", "parse_grid", "write_csv"]


# --- small shared helpers ------------------------------------------------


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'rmin:rmax:points' or 'rmin:rmax:points:log' into a grid, checked as every radial grid is (_check_grid)."""
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
    if len(parts) == 4 and parts[3] != "log":
        raise ConfigError(f"grid spacing must be 'log', got {parts[3]!r}")
    if len(parts) == 4 and not (lo > 0 and hi > 0):
        raise ConfigError("log-spaced grid needs rmin > 0 and rmax > 0")
    # rmax - rmin may pass the largest double: _check_grid refuses what results
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.geomspace(lo, hi, npts) if len(parts) == 4 else np.linspace(lo, hi, npts)
    return _check_grid(grid, "grid")


def _kept(grid: np.ndarray, c: float) -> np.ndarray:
    """The grid points a density at charge c takes, as a mask; at c < 0, r = 0 is dropped with a note."""
    try:
        return np.ones(_check_points(c, grid).size, dtype=bool)
    except DivergenceError as exc:
        print(f"note: grid point r=0 rejected: {exc}", file=sys.stderr)
        return grid != 0.0


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
        k, c = _check_exponents(c, _check_int(k, "--k", 1), "--c")
        Q = MacroscopicPotential(kind="radial", c=c, radial_coeffs={k: _check_scale(a, "--amplitude")})
    if radial and Q.kind != "radial":
        raise ConfigError("this subcommand requires a radial potential")
    return Q


def _homogeneous(Q: MacroscopicPotential) -> CanonicalDecomposition:
    """The split Q = Q0 + Re H of a Q without Q1; its q0 is the microscopic weight V0 = Q0 - 2c log|z|.

    f -> f e^{h/2} maps A^2(e^{-Q0}) isometrically onto A^2(e^{-Q0 - Re h}),
    so the pure terms in Re H leave the density R0 unchanged.
    """
    dec = canonical_decompose(Q)
    if dec.q1_coeffs:
        raise ConfigError(f"the microscopic weight must be Q0 + Re H, got terms {sorted(dec.q1_coeffs)} of degree > 2k")
    return dec


def _parse_n_list(text: str | None, default: list[int]) -> list[int]:
    """The n of --n-list in the user's order, repeats kept, checked as every n list is (_check_n_list)."""
    if text is None:
        return list(default)
    try:
        out = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad --n-list {text!r}: {exc}") from exc
    _check_n_list(out, "--n-list", each="--n-list")  # a flag's refusal names the flag
    return out


# --- subcommands ----------------------------------------------------------


def cmd_r0(args) -> int:
    from .radial_bergman import bergman_function_r0, delta_q0

    p = _homogeneous(_potential(args)).q0
    if not p.is_radial:
        raise ConfigError("r0 requires a radial weight a r^{2k}; gram takes a Q0 with a mixed term")
    grid = parse_grid(args.grid or "0:3:241")
    k, c, a = p.k, p.c, p.amplitude
    keep = _kept(grid, c)
    val = np.full(grid.size, np.nan)
    val[keep] = bergman_function_r0(k, c, a, grid[keep])
    dq = delta_q0(k, c, a, grid)
    rel = val / np.where(dq != 0.0, dq, np.nan) - 1.0
    write_csv(args.out, ["r", "R0", "deltaQ0", "rel_err"], zip(grid, val, dq, rel))
    return 0


def cmd_verify_thm1(args) -> int:
    from .radial_bergman import decay_report

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
    doc = {key: v for key, v in rep._asdict().items() if key not in ("r", "usable")}
    if rep.identically_zero:
        doc.update(verdict="identically zero error", exit_status=0)
    elif not rep.fit_ok:
        raise FitError(
            f"decay fit degenerate: only {rep.n_used} usable points "
            f"(|rel_err| above rounding floor) on the grid"
        )
    else:
        mags = np.abs(rep.rel_err[rep.usable])
        in_band = -1.05 <= rep.slope <= -0.95
        decaying = bool(mags[0] > mags[-1]) and bool(np.max(mags) < 1.0)
        ok = in_band and decaying
        doc.update(slope_in_band=in_band, errors_decaying=decaying, verdict="in band" if ok else "out of band",
                   exit_status=0 if ok else 1)
    _write_json(args.out, doc)
    return doc["exit_status"]


def cmd_rescale(args) -> int:
    from .finite_kernel import convergence_report, truncated_series_r0

    Q = _potential(args, radial=True)
    n_list = _parse_n_list(args.n_list, default=[16, 64, 256])
    grid = parse_grid(args.grid or "0.1:2:39")
    keep = _kept(grid, Q.c)
    rep = convergence_report(Q, n_list, grid[keep])
    # the report's rows run over the sorted n; the table keeps the order and repeats of n_list
    row = {n: i for i, n in enumerate(rep.n.tolist())}
    Rn = {n: rep.values[row[n]] for n in n_list}
    a_micro = (1.0 + rep.c) / rep.k
    identity = None
    if set(Q.radial_coeffs) == {rep.k}:
        identity = {}
        for n in n_list:
            series = truncated_series_r0(rep.k, rep.c, a_micro, n, rep.z)
            identity[n] = bool(np.max(np.abs(Rn[n] - series)) <= 1e-12)
    doc = {
        "k": rep.k,
        "c": rep.c,
        "lambda": rep.lam,
        "micro_amplitude": a_micro,
        "n_list": n_list,
        "rn": {n: rep.rn[row[n]] for n in n_list},
        "sup_err": {n: rep.sup_err[row[n]] for n in n_list},
        "series_identity": identity,
        "rejected_points": grid[~keep].tolist(),
    }
    header = ["z", "R0"] + [f"Rn_{n}" for n in n_list]
    rows = np.column_stack([rep.z, rep.r0] + [Rn[n] for n in n_list])
    _write_table_and_report(args.out, header, rows, doc)
    return 0


def cmd_equilibrium(args) -> int:
    from .equilibrium import droplet_radius, microscale_asymptotic_check

    Q = _potential(args, radial=True)
    n_list = _parse_n_list(args.n_list, default=[100])
    rep = microscale_asymptotic_check(Q, Q.c, n_list)
    R = droplet_radius(Q)
    print(f"R_Q = {R:.12g}")
    print(f"tau0 = {rep.tau0:.12g}")
    print(f"k = {rep.k}, c = {rep.c:g}, fitted C = {rep.C:.6g}")
    for n, rn, en in zip(rep.n, rep.rn, rep.en):
        print(f"n = {n:d}: rn = {rn:.12g} (deviation {en:+.3e})")
    if args.out:
        doc = {
            "droplet_radius": R,
            "tau0": rep.tau0,
            "k": rep.k,
            "c": rep.c,
            "C": rep.C,
            "bound_ok": rep.bound_ok,
        }
        _write_table_and_report(args.out, ["n", "rn", "en"], zip(rep.n, rep.rn, rep.en), doc)
    return 0


def cmd_sample(args) -> int:
    from .coulomb_mc import _DELTA0, EnsembleConfig, run_mcmc
    from .equilibrium import droplet_radius

    Q = _potential(args, radial=True)
    if args.n is None:
        raise ConfigError("sample requires --n (number of particles)")
    n, sweeps, burn_in, seed = (_check_int(value, flag, least) for value, flag, least in (
        (args.n, "--n", 1), (args.sweeps, "--sweeps", 2), (args.burn_in, "--burn-in", 0), (args.seed, "--seed", 0)))
    rmax = _check_scale(args.rmax if args.rmax is not None else 1.25 * droplet_radius(Q), "--rmax")
    edges = np.linspace(0.0, rmax, _check_int(args.bins, "--bins", 1) + 1)
    cfg = EnsembleConfig(n=n, potential=Q, bin_edges=edges, sweeps=sweeps, burn_in=burn_in, seed=seed)
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
            "seed": cfg.seed,
            "delta0": _DELTA0,
            "bin_edges": edges,
        },
        "acceptance_rate": res.acceptance_rate,
        "delta_final": res.delta_final,
        "recorded": h.recorded,
        "mass_in_range": h.mass(),
    }
    rows = zip(edges[:-1], edges[1:], h.counts, h.intensity(), h.stderr())
    _write_table_and_report(args.out, ["bin_lo", "bin_hi", "count", "intensity", "stderr"], rows, doc)
    return 0


_FIG1_CASES = [
    # (k, c, amplitude, min_r, column name, curve label)
    (1, 1.0, 2.0, 0.0, "R0_k1_c1_a2", "k=1, c=1, a=2"),
    (1, -0.5, 0.5, 0.05, "R0_k1_c-0.5_a0.5", "k=1, c=-1/2, a=1/2"),
    (2, 0.0, 0.5, 0.0, "R0_k2_c0_a0.5", "k=2, c=0, a=1/2"),
]


def cmd_fig1(args) -> int:
    from .radial_bergman import bergman_function_r0
    from .svgplot import write_svg

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
    from .general_bergman import _density_rows, moment_matrix, truncated_kernel

    dec = _homogeneous(_potential(args))
    p, N = dec.q0, _check_int(args.n, "--n", 1)
    grid = parse_grid(args.grid or "0:2:21")
    tk = truncated_kernel(moment_matrix(p, N))
    grid = grid[_kept(grid, p.c)]
    thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    r, th = np.array([(x, t) for x in grid for t in (thetas if x > 0 else thetas[:1])]).T
    z = r * np.cos(th) + 1j * (r * np.sin(th))
    rows, val = _density_rows(tk, z)
    dq = _check_overflow(p.q0.laplacian().evaluate(z), "deltaQ0")  # refused past the largest double, as R0 is
    rel = val / np.where(dq != 0.0, dq, np.nan) - 1.0
    # share of the last 8 orthonormal rows, (R^N - R^{N-8}) / R^N; where R^N is 0 it is 0 at the
    # origin (c > 0: every order vanishes there) and 1 elsewhere (R^N underflowed)
    est = np.divide(rows[-8:].sum(axis=0), val, out=np.where(r == 0.0, 0.0, 1.0), where=val > 0.0)
    doc = {
        "N": N,
        "k": p.k,
        "c": p.c,
        "condition_number": tk.condition,
        "kappa": complex(dec.h_coeffs.get(2 * p.k, 0.0)) / 2,  # the pure z^{2k} coefficient
        "trunc_est_max": float(est.max()),
        "trunc_est_above_1e-6": int(np.count_nonzero(est > 1e-6)),
    }
    header = ["r", "theta", "x", "y", "R0N", "deltaQ0", "rel_err", "trunc_est"]
    _write_table_and_report(args.out, header, zip(r, th, z.real, z.imag, val, dq, rel, est), doc)
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

    p = sub.add_parser("sample", parents=[pot],
                       help="Metropolis sampling run (writes CSV histogram + JSON)")
    p.add_argument("--out", default="mc_run", help="output prefix (default mc_run)")
    p.add_argument("--n", type=int, default=None, help="number of particles")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--sweeps", type=int, default=10_000, help="recorded sweeps")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=2_000)
    p.add_argument("--bins", type=int, default=36, help="number of radial bins")
    p.add_argument("--rmax", type=float, default=None, help="outer bin edge (default 1.25 R)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fig1", parents=[outp], help="three reference R0 curves (CSV + SVG)")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("gram", parents=[pot, gridp, outp],
                       help="density of any homogeneous Q0 via the moment-matrix kernel")
    p.add_argument("--n", type=int, default=48, help="order N of the truncated kernel (default 48)")
    p.set_defaults(func=cmd_gram)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    folder = Path(args.out).parent if args.out else None
    if folder and not (folder.is_dir() and os.access(folder, os.W_OK)):  # refused before any work is done
        print(f"focklab: file error: cannot write {args.out!r}: {str(folder)!r} is not a writable directory",
              file=sys.stderr)
        return 2
    # r0 and verify-thm1 write the --out path, the other commands with a weight prefix.csv and prefix.json
    written = [args.out] if args.func in (cmd_r0, cmd_verify_thm1) else [f"{args.out}.csv", f"{args.out}.json"]
    coeffs = getattr(args, "coeffs_file", None)  # fig1 takes no weight
    for path in written if args.out and coeffs else []:
        if Path(path).resolve() == Path(coeffs).resolve():
            print(f"focklab: file error: cannot write {path!r}: it is the --coeffs-file", file=sys.stderr)
            return 2
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
