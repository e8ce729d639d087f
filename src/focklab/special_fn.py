"""Gamma and Mittag-Leffler primitives, kept for cross-checks.

The radial density R0 is r^{2c} e^{-r^{2k}} k E_{1/k,(1+c)/k}(r^2) at unit
amplitude, a two-parameter Mittag-Leffler function times a decaying
weight.  radial_bergman evaluates it in closed form from incomplete gammas;
``mittag_leffler`` is the undamped series for moderate arguments, which
overflows like e^{x^k} beyond them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError, NumericalError

__all__ = ["MLParams", "log_gamma", "mittag_leffler"]

# Stop a unimodal term series once terms are decreasing and 20 consecutive
# terms fell below 1e-18 of the running sum.
_TAIL_REL = 1e-18
_TAIL_RUN = 20
_MAX_TERMS = 500_000


@dataclass(frozen=True)
class MLParams:
    """Parameters (a, b) of the two-parameter Mittag-Leffler function."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"MLParams requires a > 0 and b > 0, got a={self.a}, b={self.b}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, relative error <= 1e-13 on [1e-3, 1e4]."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def mittag_leffler(p: MLParams, x: float) -> float:
    """E_{a,b}(x) = sum_j x^j / Gamma(a j + b) for x >= 0.

    Raises DivergenceError when the value exceeds the double range.
    """
    if not x >= 0:
        raise ValueError(f"mittag_leffler requires x >= 0, got {x}")
    if x == 0.0:
        return math.exp(-log_gamma(p.b))
    lx = math.log(x)
    terms: list[float] = []
    total = 0.0
    prev = -math.inf
    decreasing = False
    small_run = 0
    for j in range(_MAX_TERMS):
        lt = j * lx - math.lgamma(p.a * j + p.b)
        if lt > 709.0:
            raise DivergenceError(
                f"mittag_leffler overflow: term exp({lt:.1f}) at j={j} exceeds double range"
            )
        t = math.exp(lt)
        terms.append(t)
        total += t
        if lt < prev:
            decreasing = True
        prev = lt
        if decreasing:
            small_run = small_run + 1 if t < _TAIL_REL * total else 0
            if small_run >= _TAIL_RUN:
                break
    else:
        raise NumericalError("mittag_leffler series did not converge within the term budget")
    value = math.fsum(terms)
    if math.isinf(value):
        raise DivergenceError("mittag_leffler overflow: series sum exceeds double range")
    return value
