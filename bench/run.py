"""Benchmark of focklab: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload microscopic --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (it imports ``src/focklab``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines before
it repeat the metrics for reading, name every failed operation, count
warnings per layer and give the run record, which is also written with
the spans to ``.bench_out/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # one process, one thread: 2 cores leave one for the rest of the machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import platform
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

from harness import OUT, REF_S, ROOT, SRC, Tracer, mean, median, reference_kernel, run_round, run_rounds, tail

# workload -> its parts: (module, names of the operations it keeps, or None for all of them).
# Each README command line runs in the workload whose layers it exercises.
WORKLOADS = {
    "microscopic": (
        ("wl_microscopic", None),
        ("wl_cli", ("r0", "verify-thm1", "fig1", "gram", "r0 twist.json", "gram twist.json")),
    ),
    "ensembles": (
        ("wl_finite_n", None),
        ("wl_coulomb_gas", None),
        ("wl_cli", ("rescale", "equilibrium", "sample", "sample repeat")),
    ),
}
SETUP_REPEATS = 3  # set-up processes before the rounds, and as many again after them
SETUP_REF = 5  # reference kernels each set-up process times after its set-up
CHILD_TIMEOUT_S = 120
FIXTURE = SRC / "focklab" / "data" / "bergman_r0.txt"


def _parse(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _quietly(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


def _permutation(seed: int, n: int) -> list[int]:
    import numpy as np

    return [int(i) for i in np.random.default_rng([seed, 0]).permutation(n)]


class Workload:
    """The parts of one workload: inputs, operations and warm-up of each, in order."""

    def __init__(self, name: str):
        self.parts = [(importlib.import_module(mod), keep) for mod, keep in WORKLOADS[name]]

    @staticmethod
    def _ops(F, mod, keep, inputs) -> list:
        return [op for op in mod.ops(F, inputs) if keep is None or op.name in keep]

    def build(self, seed: int) -> list[dict]:
        return [mod.build(seed) for mod, _ in self.parts]

    def ops(self, F, inputs: list[dict]) -> list:
        return [op for (mod, keep), inp in zip(self.parts, inputs) for op in self._ops(F, mod, keep, inp)]

    def warm_up(self, F, inputs: list[dict]) -> None:
        for (mod, _), inp in zip(self.parts, inputs):
            _quietly(mod.warm_up, F, inp)

    def probe(self, F) -> Tracer:
        """One traced round of the parts' small fixed probes, without the known faults."""
        tracer = Tracer(True)
        for mod, keep in self.parts:
            inputs = mod.probe_inputs()
            try:
                run_round([op for op in self._ops(F, mod, keep, inputs) if op.fault is None], tracer, 0)
            finally:
                cleanup([inputs])
        return tracer


def cleanup(inputs: list[dict]) -> None:
    for inp in inputs:
        if "work" in inp:
            shutil.rmtree(inp["work"], ignore_errors=True)


def setup_child(workload: str, seed: int) -> int:
    """One set-up as the parent does it: import focklab first, then inputs and warm-up.

    The benchmark's own modules are imported between the two timed parts,
    so their import (the references) is not counted.
    """
    t0 = time.perf_counter()
    import focklab as F

    import_s = time.perf_counter() - t0
    wl = Workload(workload)
    t1 = time.perf_counter()
    inputs = wl.build(seed)
    try:
        wl.warm_up(F, inputs)
    finally:
        cleanup(inputs)
    rest_s = time.perf_counter() - t1
    ref_s = median(reference_kernel() for _ in range(SETUP_REF))
    print(json.dumps({"import_s": import_s, "setup_s": import_s + rest_s, "ref_s": ref_s}))
    return 0


def measure_setup(workload: str, seed: int, setups: list[float], imports: list[float]) -> None:
    """Appends the set-up times of SETUP_REPEATS fresh processes, each at the reference
    speed of the host as that process found it, and their import times as measured."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(doc["setup_s"] * REF_S / doc["ref_s"])
        imports.append(doc["import_s"])


def self_check() -> list[str]:
    """The references themselves, against the 50-digit table and the gamma closed form."""
    import numpy as np

    import oracles as O

    problems = []
    worst = O.fixture_selfcheck(FIXTURE)
    if not worst <= 1e-14:
        problems.append(f"R0 reference misses the 50-digit fixtures by {worst:.2e}")
    Q = O.RadialQ({2: 1.3})
    ref = O.gamma_log_norms(2, 0.5, 1.3, 64)
    got = np.array([Q.log_norm(0.5, 64, j) for j in (0, 7, 31, 63)])
    if not np.max(np.abs(np.expm1(got - ref[[0, 7, 31, 63]]))) <= 1e-13:
        problems.append("quadrature norm reference misses the gamma closed form")
    return problems


def run_record(args, rounds, ops_per_round) -> dict:
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": ops_per_round,
    }


def layer_metrics(F, args, tracer, rounds, import_s) -> dict:
    """Per-layer metrics from the spans; those the workload never reaches come from probes."""
    import layers

    speed = host_speed(rounds)
    ctx = {"import_s": import_s, "wall_s": mean(r.wall for r in rounds) / speed, "speed": speed}
    values = layers.compute(tracer.spans, dict(ctx, rounds=len(rounds), warnings=tracer.warnings))
    for other in WORKLOADS:
        missing = [k for k, v in values.items() if v is None]
        if not missing:
            break
        if other == args.workload:
            continue
        probe = Workload(other).probe(F)
        found = layers.compute(probe.spans, dict(ctx, rounds=1, warnings=probe.warnings))
        for k in missing:
            values[k] = found[k]
    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise RuntimeError(f"no probe reaches {missing}")
    return values


def host_speed(rounds) -> float:
    """Median reference kernel time of the run over REF_S: 1 at the reference speed, above it slower."""
    return median(t for r in rounds for t in r.ref) / REF_S


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, spec)
    if not (SRC / "focklab" / "__init__.py").is_file():
        print(f"bench: no focklab sources under {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    wl = Workload(args.workload)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    # half of the set-up processes run before the rounds and half after them, so that
    # set-up is sampled over the whole run, as the rounds are
    setups, imports = [], []
    measure_setup(args.workload, args.seed, setups, imports)
    import focklab as F
    import wl_cli

    problems = self_check()
    inputs = wl.build(args.seed)
    try:
        ops = wl.ops(F, inputs)
        # a seeded order spreads each kind of operation over the round, so a burst of
        # machine load does not fall on one kind only; checks read results after the round
        ops = [ops[i] for i in _permutation(args.seed, len(ops))]
        wl.warm_up(F, inputs)
        tracer = Tracer(bool(args.trace))
        rounds = run_rounds(ops, tracer, args.seconds)
        # this process before the first checks ran, or the largest command of the first round:
        # a command's peak includes the peak of this process when it was started, which the
        # checks raise after the first round
        commands = sum(len(keep) for mod, keep in wl.parts if mod is wl_cli)
        peak_mib = max([rounds[0].peak_mib, *wl_cli.CHILD_PEAKS_MIB[:commands]])
        measure_setup(args.workload, args.seed, setups, imports)
        if args.trace:
            values = layer_metrics(F, args, tracer, rounds, median(imports))
    finally:
        cleanup(inputs)

    speed = host_speed(rounds)
    outcomes = [o for r in rounds for o in r.outcomes]
    failed = [o for o in outcomes if o.status != "ok"]
    unexpected = [o for o in failed if o.fault is None]
    op_seconds = [o.seconds for o in outcomes]
    if not args.trace:
        values = {
            "setup_s": median(setups),
            "wall_s": mean(r.wall for r in rounds) / speed,
            "peak_rss_mib": peak_mib,
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = run_record(args, len(rounds), len(ops))

    lines = [f"# {args.workload}: seed {args.seed}, {len(rounds)} round(s) of {len(ops)} operations, "
             f"trace {args.trace}"]
    tl = tail(op_seconds)
    lines.append(f"# host: reference kernel {1e3 * REF_S * speed:.4g} ms (median of "
                 f"{sum(len(r.ref) for r in rounds)}), speed {speed:.4g} of the reference; "
                 f"as measured: round {mean(r.wall for r in rounds):.4g} s")
    lines.append(f"# op p50: {1e3 * median(op_seconds):.4g} ms; op tail: "
                 + (f"p{tl[0]:.1f} = {1e3 * tl[1]:.4g} ms" if tl else "none (fewer than 40 operations)")
                 + f"; over {len(op_seconds)} operations")
    for o in {o.name: o for o in failed}.values():
        n = sum(x.name == o.name for x in failed)
        label = f"known fault: {o.fault}" if o.fault else "UNEXPECTED"
        lines.append(f"# failed x{n} {o.status}: {o.name} [{label}]: {o.detail}")
    lines += [f"# self-check: {p}" for p in problems]
    counts = {f"{layer}/{cat}": v for (layer, cat), v in sorted(tracer.warnings.items())}
    lines.append(f"# warnings per layer (all rounds): {json.dumps(counts)}")
    lines += [f"# {name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"# record: {json.dumps(record)}")
    print("\n".join(lines))

    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "record": record, "metrics": metrics, "warnings": counts,
        "outcomes": [vars(o) for o in outcomes], "spans": tracer.spans,
    }, default=str), encoding="utf-8")
    print(json.dumps({"correct": not unexpected and not problems, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
