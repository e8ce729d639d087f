"""Repeat the benchmark over seeds and summarize each metric.

    python3 bench/summarize.py --workload ensembles --seeds 1-10 [--trace] [--seconds S]

Runs ``bench/run.py`` once per seed (and once more per seed with tracing
when ``--trace`` is given), then prints, per metric, the median, the
quartiles and the spread (distance between the quartiles over the
median), with the share of failed operations.  With ``--trace`` it also
gives the tracing overhead: traced ``trace.wall_s`` over untraced
``wall_s``, seed by seed.  The summary and the run record are written to
``.bench_out/summary-<workload>-<seeds>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import OUT, ROOT, median, quartiles

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("# record: "))[len("# record: "):])
    return json.loads(lines[-1]), record


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quartiles(vals)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": q2, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2 if q2 else float("nan"), "values": vals}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    plain, traced, record = [], [], None
    for seed in seeds:
        result, record = run_once(args.workload, seed, args.seconds, 0)
        plain.append(result)
        line = f"seed {seed}: correct={result['correct']} failed {result['failed']}/{result['attempted']}"
        if args.trace:
            traced.append(run_once(args.workload, seed, args.seconds, 1)[0])
            line += f", traced wall {traced[-1]['metrics']['trace.wall_s']['value']:.4g} s"
        print(line + "  " + "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    doc = {"record": dict(record, seed=None, seeds=seeds), "end_to_end": summarize(plain),
           "failed_share": sorted({r["failed"] / r["attempted"] for r in plain}),
           "all_correct": all(r["correct"] for r in plain + traced)}
    if traced:
        doc["per_layer"] = summarize(traced)
        ratios = [t["metrics"]["trace.wall_s"]["value"] / p["metrics"]["wall_s"]["value"] - 1.0
                  for t, p in zip(traced, plain)]
        doc["tracing_overhead"] = {"median": median(ratios), "values": ratios}
    for name, m in doc["end_to_end"].items():
        print(f"{name}: median {m['median']:.5g} {m['unit']}, quartiles {m['q1']:.5g}..{m['q3']:.5g}, "
              f"spread {100 * m['spread']:.2f}%")
    print(f"failed share: {doc['failed_share']}, all correct: {doc['all_correct']}")
    if traced:
        print(f"tracing overhead (traced/untraced wall - 1): median {100 * doc['tracing_overhead']['median']:.2f}%")
    OUT.mkdir(exist_ok=True)
    name = f"summary-{args.workload}-{args.seeds}{'-trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
