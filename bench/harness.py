"""Operations, rounds, spans and warning accounting shared by the workloads.

A workload is a list of operations.  One round runs every operation once,
in order, timing each; the checks run after the round, outside the timed
region.  A run repeats whole rounds while the next one is expected to end
inside the run length, and always runs at least one.

Between operations, at most every REF_EVERY_S, a round also times a fixed
reference kernel that is none of focklab's work; its median over a run
gives the speed of the host during that run (see README.md).
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The reference kernel's time at the reference speed: about its median in the fast state of
# the 2-vCPU host the README's figures come from.  Times divided by the speed of the host
# (the kernel's median over REF_S) are seconds at that speed.
REF_S = 0.010
REF_EVERY_S = 0.5
_REF_DATA: dict = {}


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of pure-Python, numpy, scipy.special, quad and LAPACK work.

    focklab imports these scipy modules itself, so the kernel adds no import
    and no resident memory; and none of its work is focklab's, so no change
    to the package moves it.
    """
    import numpy as np
    from scipy import integrate, linalg, special

    if not _REF_DATA:
        a = np.random.default_rng(0).standard_normal((48, 48))
        _REF_DATA.update(x=np.linspace(0.1, 50.0, 2000), spd=a @ a.T + 48.0 * np.eye(48),
                         powers=np.linspace(0.5, 1.5, 15))
    x, spd = _REF_DATA["x"], _REF_DATA["spd"]
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += math.exp(-i * 1e-5) * (i % 7)
    for _ in range(15):
        special.gammaincc(2.5, x)
        np.log(special.gamma(x[:170] / 10.0 + 1.0))
        acc += float(np.exp(-x) @ x)
    for p in _REF_DATA["powers"]:
        acc += integrate.quad(lambda t: t ** p * math.exp(-t * t), 0.0, 5.0)[0]
    for _ in range(80):
        linalg.cho_factor(spd)
    return time.perf_counter() - t0


@dataclass
class Op:
    """One timed operation and the check of its result.

    ``check(result, results)`` returns a problem description or None;
    ``results`` maps every operation name of the round to its result (None
    when it raised), for checks that compare operations.  ``fault`` names a
    known fault for an operation that is expected to fail.
    """

    name: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any, dict], str | None]
    fault: str | None = None


class Tracer:
    """Wraps each call into a focklab layer.

    Always keeps the layer being called, so warnings can be counted per
    layer.  With ``enabled`` it also keeps one span per call: name, start,
    end, parent span, operation id and attributes, all in memory.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.layer = "bench"
        self.op_id: tuple[int, int] | None = None
        self.warnings: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, attrs: dict, fn, *args, **kwargs):
        outer = self.layer
        self.layer = name
        if not self.enabled:
            try:
                return fn(*args, **kwargs)
            finally:
                self.layer = outer
        span = {"name": name, "op": self.op_id, "parent": self._stack[-1] if self._stack else None,
                "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.layer = outer

    def _count_warning(self, message, category, filename, lineno, file=None, line=None):
        self.warnings[(self.layer, category.__name__)] += 1


class _warning_accounting:
    """RuntimeWarning and IntegrationWarning counted per layer, never printed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._ctx = warnings.catch_warnings()

    def __enter__(self):
        from scipy.integrate import IntegrationWarning

        self._ctx.__enter__()
        warnings.simplefilter("ignore")
        warnings.simplefilter("always", RuntimeWarning)
        warnings.simplefilter("always", IntegrationWarning)
        warnings.showwarning = self.tracer._count_warning
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)


@dataclass
class Outcome:
    name: str
    seconds: float
    status: str  # "ok", "raised" or "wrong"
    detail: str = ""
    fault: str | None = None


@dataclass
class Round:
    wall: float  # the operations' wall time, reference kernels excluded
    peak_mib: float  # peak resident memory of this process when the timed part ended
    ref: list[float]  # reference kernel times taken between the operations
    outcomes: list[Outcome] = field(default_factory=list)


def run_round(ops: list[Op], tracer: Tracer, index: int) -> Round:
    results: dict[str, Any] = {}
    raised: dict[str, str] = {}
    times: dict[str, float] = {}
    ref: list[float] = []
    last_ref = -math.inf
    with _warning_accounting(tracer):
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                ref.append(reference_kernel())
                last_ref = time.perf_counter()
            tracer.op_id = (index, i)
            attrs = {"op": op.name}
            t0 = time.perf_counter()
            try:
                results[op.name] = tracer.call("op", attrs, op.run, tracer)
            except Exception as exc:  # an operation that raises is a failed operation
                results[op.name] = None
                raised[op.name] = f"{type(exc).__name__}: {exc}"
            times[op.name] = time.perf_counter() - t0
        wall = time.perf_counter() - t_round - sum(ref)
        tracer.op_id = None
        rnd = Round(wall=wall, peak_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, ref=ref)
        for op in ops:
            if op.name in raised:
                rnd.outcomes.append(Outcome(op.name, times[op.name], "raised", raised[op.name], op.fault))
                continue
            try:
                problem = op.check(results[op.name], results)
            except Exception as exc:  # a check that cannot read the result: wrong result
                problem = f"check failed on the result: {type(exc).__name__}: {exc}"
            status = "ok" if problem is None else "wrong"
            rnd.outcomes.append(Outcome(op.name, times[op.name], status, problem or "", op.fault))
    return rnd


def run_rounds(ops: list[Op], tracer: Tracer, seconds: float) -> list[Round]:
    """Whole rounds while the next is expected to end within ``seconds``; at least one.

    The next round is expected to take as long as the mean round so far, so
    one slow round does not decide the number of rounds by itself.
    """
    start = time.perf_counter()
    rounds: list[Round] = []
    while True:
        rounds.append(run_round(ops, tracer, len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten values beyond it; None below 40."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def quartiles(values) -> tuple[float, float, float]:
    vals = list(values)
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def close(got: float, ref: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - ref) <= rel * abs(ref)
