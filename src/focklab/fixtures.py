"""The high-precision reference table of R0.

The table holds whitespace-separated columns, '#' comments, one record per
line, with values printed to 50 significant digits by an independent
multiprecision generator (tools/make_fixtures.py).
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["BERGMAN_R0", "load_bergman_r0"]

BERGMAN_R0 = Path(__file__).with_name("data") / "bergman_r0.txt"


def load_bergman_r0() -> list[tuple[float, float, float, float, float]]:
    """Rows (k, c, amplitude, r, R0(r)), skipping blanks and '#' comments."""
    rows = []
    with open(BERGMAN_R0, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(f"{BERGMAN_R0.name}:{lineno}: expected 5 columns, got {len(parts)}")
            rows.append(tuple(float(p) for p in parts))
    return rows
