#!/usr/bin/env python3
"""Generate the 50-digit reference tables in src/focklab/data/.

Everything here is computed from first principles with mpmath at 60
working digits and printed to 50 significant digits; the package itself
is never imported, so these files are an independent oracle for the
library's double-precision results.

Definitions used (and nothing else):
  bergman_r0:      R0(r) = sum_j r^{2j+2c} e^{-a r^{2k}} / m_j,
                   m_j = a^{-(j+c+1)/k} (1/k) Gamma((j+c+1)/k)

Run:  python tools/make_fixtures.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

mp.mp.dps = 60

DATA = Path(__file__).resolve().parent.parent / "src" / "focklab" / "data"


def fmt(x: mp.mpf) -> str:
    return mp.nstr(x, 50, strip_zeros=False)


def bergman_r0(k: int, c: mp.mpf, a: mp.mpf, r: mp.mpf) -> mp.mpf:
    if r == 0:
        if c > 0:
            return mp.mpf(0)
        if c == 0:
            return k * a ** (mp.mpf(1) / k) / mp.gamma(mp.mpf(1) / k)
        raise ValueError("divergent at r = 0 for c < 0")
    w = mp.e ** (-a * r ** (2 * k))
    total = mp.mpf(0)
    small = 0
    for j in range(200_000):
        p = (j + c + 1) / mp.mpf(k)
        inv_m = k * a**p / mp.gamma(p)
        t = r ** (2 * j + 2 * c) * w * inv_m
        total += t
        if t < mp.mpf(10) ** (-58) * max(total, mp.mpf(1) * w):
            small += 1
            if small >= 30:
                return total
        else:
            small = 0
    raise RuntimeError("series did not converge")


def disk_mass(k: int, c: mp.mpf, a: mp.mpf) -> mp.mpf:
    """integral of R0 over |z| <= 1 with dA = dxdy/pi, term by term."""
    total = mp.mpf(0)
    small = 0
    for j in range(100_000):
        p = (j + c + 1) / mp.mpf(k)
        t = mp.gammainc(p, 0, a, regularized=True)
        total += t
        if t < mp.mpf(10) ** (-58):
            small += 1
            if small >= 5:
                return total
        else:
            small = 0
    raise RuntimeError("series did not converge")


def write_bergman_r0() -> None:
    lines = ["# k  c  amplitude  r  R0(r)   [50 significant digits]"]
    spot_tuples = [
        (1, "0", "1"),
        (1, "1", "1"),
        (1, "-0.5", "1"),
        (1, "1", "2"),
        (2, "0", "1"),
        (2, "1", "1"),
        (2, "0", "0.5"),
    ]
    spot_r = ["0", "0.001", "0.5", "1", "2", "3.2"]
    for k, cs, as_ in spot_tuples:
        c, a = mp.mpf(cs), mp.mpf(as_)
        for rs in spot_r:
            r = mp.mpf(rs)
            if r == 0 and c < 0:
                continue  # divergent point
            val = bergman_r0(k, c, a, r)
            lines.append(f"{k} {cs} {as_} {rs} {fmt(val)}")
    # decay-window rows for (k, c, a) = (2, 0, 1): u = r^4 on [4, 16] and [16, 49]
    us: list[mp.mpf] = []
    for i in range(25):
        us.append(mp.mpf(4) + (mp.mpf(16) - 4) * i / 24)
    for i in range(1, 25):
        us.append(mp.mpf(16) + (mp.mpf(49) - 16) * i / 24)
    k, c, a = 2, mp.mpf(0), mp.mpf(1)
    for u in us:
        r = u ** (mp.mpf(1) / 4)
        val = bergman_r0(k, c, a, r)
        lines.append(f"2 0 1 {fmt(r)} {fmt(val)}")
    (DATA / "bergman_r0.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    write_bergman_r0()
    print("wrote", ", ".join(p.name for p in sorted(DATA.glob("*.txt"))))
    # reference constants used by the test suite (printed, not stored):
    for k, cs in [(1, "0"), (1, "1"), (2, "0"), (2, "1")]:
        c = mp.mpf(cs)
        a = (1 + c) / k
        print(f"disk mass k={k} c={cs} (amplitude (1+c)/k = {fmt(a)}):", fmt(disk_mass(k, c, a)))


if __name__ == "__main__":
    main()
