"""The README's command lines, each a fresh ``python -m focklab`` process.

Every command pays the interpreter start and the package import, which
the in-process operations pay only in set-up.  ``run.py`` puts each
command into the workload whose layers it exercises: ``r0``,
``verify-thm1``, ``fig1``, ``gram`` and the two ``twist.json`` commands
into ``microscopic``; ``rescale``, ``equilibrium`` and ``sample`` (twice
per round with the same seed, so its CSV can be compared byte for byte)
into ``ensembles``.  The seed jitters the charges and amplitudes and
picks the ``sample`` seed; the two ``twist.json`` commands at the default
truncation order do not depend on it.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import oracles as O
from harness import OUT, SRC, Op
from wl_coulomb_gas import ACCEPTANCE, histogram_problem
from wl_microscopic import EPS, R0_REL, SLOPE_BAND, r0_problem, reference_slope

TIMEOUT_S = 120
TWIST = {"kind": "hermitian", "c": 0.0, "k": 1,
         "hermitian_coeffs": [[1, 1, 1.0, 0.0], [2, 0, 0.3, 0.0], [0, 2, 0.3, 0.0]]}
GRAM_FAULT = ("general_bergman refuses the default N=48 for the README's twist.json "
              "(scaled condition 5.6e15), so the command exits 3")
# fig1's three curves: (k, c, a, smallest r), as the README's figure defines them
FIG1_CASES = [(1, 1.0, 2.0, 0.0), (1, -0.5, 0.5, 0.05), (2, 0.0, 0.5, 0.0)]


def command_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    work = OUT / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (work / "twist.json").write_text(json.dumps(TWIST), encoding="utf-8")
    return dict(work=work, r0_c=1.0 + u(-0.1, 0.1), r0_a=1.0 + u(-0.1, 0.1), thm1_c=1.0 + u(-0.2, 0.2),
                rescale_c=0.5 + u(-0.1, 0.1), eq_c=1.0 + u(-0.1, 0.1), sample_seed=int(rng.integers(1, 2**31)))


def probe_inputs() -> dict:
    return build(0)


# peak resident memory of every command run by this process, in MiB, each its own
CHILD_PEAKS_MIB: list[float] = []


def run_command(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run one command, reaped with wait4 so that its own peak memory is known."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "focklab", *argv], cwd=cwd, env=command_env(),
                                stdout=out, stderr=err)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    CHILD_PEAKS_MIB.append(usage.ru_maxrss / 1024.0)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out_path.read_text(), err_path.read_text())


def _csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    rows = [[math.nan if cell == "" else float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float)


def _exit(proc, expected=0) -> str | None:
    if proc.returncode == expected:
        return None
    last = proc.stderr.strip().splitlines()[-1:] or [""]
    return f"exit {proc.returncode}: {last[0][:160]}"


def _sample_files(work: Path, prefix: str) -> tuple[bytes, dict]:
    return (work / f"{prefix}.csv").read_bytes(), json.loads((work / f"{prefix}.json").read_text())


def _argvs(inp: dict) -> dict[str, list[str]]:
    """Command line of every operation, by operation name."""
    twist = str(inp["work"] / "twist.json")
    sample = ["sample", "--n", "16", "--c", "1", "--sweeps", "1000", "--burn-in", "200",
              "--seed", str(inp["sample_seed"])]
    return {
        "r0": ["r0", "--k", "2", "--c", repr(inp["r0_c"]), "--amplitude", repr(inp["r0_a"]), "--grid", "0:3:31"],
        "verify-thm1": ["verify-thm1", "--k", "1", "--c", repr(inp["thm1_c"]), "--grid", "2:4:25"],
        "rescale": ["rescale", "--k", "1", "--c", repr(inp["rescale_c"]), "--n-list", "4,8", "--grid", "0.1:1.5:8"],
        "equilibrium": ["equilibrium", "--k", "1", "--c", repr(inp["eq_c"]), "--n-list", "100,1000"],
        "sample": [*sample, "--out", "sample_a"],
        "fig1": ["fig1", "--out", "fig1"],
        "gram": ["gram", "--coeffs-file", twist, "--n", "24", "--grid", "0:1:5"],
        "r0 twist.json": ["r0", "--coeffs-file", twist],
        "gram twist.json": ["gram", "--coeffs-file", twist],
        "sample repeat": [*sample, "--out", "sample_b"],
    }


def ops(F, inp: dict) -> list[Op]:
    work = inp["work"]
    argvs = _argvs(inp)

    def cmd(name: str, attrs: dict | None = None):
        argv = argvs[name]
        sub = argv[0]

        def run(tr):
            a = dict(attrs or {})
            proc = tr.call(f"cli.{sub}", a, run_command, argv, work)
            a["exit"] = proc.returncode
            a["warnings"] = proc.stderr.count("RuntimeWarning")
            m = re.search(r"condition ([0-9.eE+-]+) exceeds", proc.stderr)
            if m:
                a["refused"], a["condition"] = True, float(m.group(1))
            return proc
        return run

    # r0, radial
    k, c, a = 2, inp["r0_c"], inp["r0_a"]

    def check_r0(proc, _):
        problem = _exit(proc)
        if problem:
            return problem
        header, t = _csv(proc.stdout)
        if header != ["r", "R0", "deltaQ0", "rel_err"] or t.shape != (31, 4):
            return "unexpected table layout"
        r = t[:, 0]
        if np.any(np.abs(t[:, 2] - O.delta_q0(k, a, r)) > 1e-15 * np.abs(t[:, 2])):
            return "deltaQ0 column off"
        pos = r > 0
        ref_rel = O.rel_err(k, c, a, r[pos])
        if np.any(np.abs(t[pos, 3] - ref_rel) > R0_REL * (1.0 + np.abs(ref_rel))):
            return "rel_err column off"
        return r0_problem(k, c, a, r, t[:, 1])

    # verify-thm1
    c1 = inp["thm1_c"]

    def check_thm1(proc, _):
        if proc.returncode not in (0, 1):
            return _exit(proc)
        doc = json.loads(proc.stdout)
        u = np.asarray(doc["u"])
        ref = O.rel_err(1, c1, 1.0, np.sqrt(u))
        if np.any(np.abs(np.asarray(doc["rel_err"]) - ref) > R0_REL * (1.0 + np.abs(ref))):
            return "rel_err off"
        slope = reference_slope(u, ref, np.abs(ref) >= 1e-13)
        in_band = bool(np.all(ref < 0) or np.all(ref > 0)) and SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
        if abs(doc["slope"] - slope) > 0.01:
            return f"slope {doc['slope']:.4f} vs {slope:.4f} fitted to the reference"
        return None if proc.returncode == (0 if in_band else 1) else f"exit {proc.returncode} for slope {slope:.4f}"

    # rescale
    c2 = inp["rescale_c"]

    def check_rescale(proc, _):
        problem = _exit(proc)
        if problem:
            return problem
        header, t = _csv(proc.stdout)
        if header != ["z", "R0", "Rn_4", "Rn_8"]:
            return "unexpected table layout"
        z = t[:, 0]
        problem = r0_problem(1, c2, 1.0 + c2, z, t[:, 1])
        if problem:
            return problem
        for col, n in ((2, 4), (3, 8)):
            ref = O.truncated_r0(1, c2, 1.0 + c2, n, z)
            if np.any(np.abs(t[:, col] / ref - 1.0) > 1e-11):
                return f"R_{n} differs from the {n}-term series"
        return None

    # equilibrium
    c3 = inp["eq_c"]

    def check_equilibrium(proc, _):
        problem = _exit(proc)
        if problem:
            return problem
        text = proc.stdout
        R = float(re.search(r"R_Q = (\S+)", text).group(1))
        tau0 = float(re.search(r"tau0 = (\S+)", text).group(1))
        rns = {int(n): float(v) for n, v in re.findall(r"n = (\d+): rn = (\S+)", text)}
        # Q = r^2: R = tau0 = 1 and rn = ((1+c)/n)^{1/2}; printed to 12 digits
        if abs(R - 1.0) > 1e-11 or abs(tau0 - 1.0) > 1e-11 or sorted(rns) != [100, 1000]:
            return "droplet radius or tau0 off"
        if any(abs(v / math.sqrt((1.0 + c3) / n) - 1.0) > 1e-11 for n, v in rns.items()):
            return "microscopic scales off"
        return None

    # sample, twice with one seed
    def check_sample(prefix):
        def check(proc, results):
            problem = _exit(proc)
            if problem:
                return problem
            csv_bytes, doc = _sample_files(work, prefix)
            if prefix == "sample_b":
                first = results.get("sample")
                if first is None or _sample_files(work, "sample_a")[0] != csv_bytes:
                    return "same seed, different CSV bytes"
            if not ACCEPTANCE[0] <= doc["acceptance_rate"] <= ACCEPTANCE[1]:
                return f"acceptance {doc['acceptance_rate']:.3f}"
            _, t = _csv(csv_bytes.decode())
            edges = np.append(t[:, 0], t[-1, 1])
            return histogram_problem(edges, t[:, 3], t[:, 4], doc["recorded"], O.ginibre_bins(16, 1.0, 1.0, edges))
        return check

    def check_fig1(proc, _):
        problem = _exit(proc)
        if problem:
            return problem
        header, t = _csv((work / "fig1.csv").read_text())
        if len(header) != 4 or t.shape[0] != 241:
            return "unexpected table layout"
        for col, (k, c, a, rmin) in enumerate(FIG1_CASES, start=1):
            r, vals = t[:, 0], t[:, col]
            keep = r >= rmin
            if not np.all(np.isnan(vals[~keep])):
                return f"column {header[col]} not blank below r = {rmin}"
            problem = r0_problem(k, c, a, r[keep], vals[keep])
            if problem:
                return f"{header[col]}: {problem}"
        if len(ET.parse(work / "fig1.svg").getroot().findall(".//{http://www.w3.org/2000/svg}polyline")) != 3:
            return "SVG does not hold three curves"
        return None

    def check_twisted(density_col: int, cond_from_json: bool):
        def check(proc, _):
            problem = _exit(proc)
            if problem:
                return problem
            _, t = _csv(proc.stdout)
            vals = t[:, density_col]
            # the limit of the twisted Gaussian is R0 = 1 (kappa_shift); R^(N) <= 1 up to rounding.
            # r0 prints no condition number: take the 1e12 guardrail, the largest the package accepts
            cond = json.loads(proc.stderr[proc.stderr.index("{\n"):])["condition_number"] if cond_from_json else 1e12
            tol = 64.0 * cond * EPS
            if not np.all(vals > 0):
                return "nonpositive density"
            return None if np.all(vals <= 1.0 + tol) else f"density {np.max(vals):.15g} above 1"
        return check

    return [
        Op("r0", cmd("r0"), check_r0),
        Op("verify-thm1", cmd("verify-thm1"), check_thm1),
        Op("rescale", cmd("rescale"), check_rescale),
        Op("equilibrium", cmd("equilibrium"), check_equilibrium),
        Op("sample", cmd("sample"), check_sample("sample_a")),
        Op("fig1", cmd("fig1"), check_fig1),
        Op("gram", cmd("gram"), check_twisted(4, True)),
        Op("r0 twist.json", cmd("r0 twist.json", {"default_n": True}), check_twisted(2, False), GRAM_FAULT),
        Op("gram twist.json", cmd("gram twist.json", {"default_n": True}), check_twisted(4, True), GRAM_FAULT),
        Op("sample repeat", cmd("sample repeat"), check_sample("sample_b")),
    ]


def warm_up(F, inp: dict) -> None:
    """Parse every command line the round will run, without running it."""
    from focklab.cli import build_parser

    parser = build_parser()
    for argv in _argvs(inp).values():
        parser.parse_args(argv)
