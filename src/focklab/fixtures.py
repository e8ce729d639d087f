"""Locating and parsing the high-precision reference tables.

Fixture files are whitespace-separated columns, '#' comments, one record per
line, with values printed to 50 significant digits by an independent
multiprecision generator (tools/make_fixtures.py).  The FOCKLAB_FIXTURES
environment variable overrides the packaged data directory.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

__all__ = [
    "fixture_dir",
    "fixture_path",
    "load_columns",
    "load_bergman_r0",
]

_ENV = "FOCKLAB_FIXTURES"


def fixture_dir() -> Path:
    """Directory holding fixture tables ($FOCKLAB_FIXTURES or packaged data)."""
    env = os.environ.get(_ENV)
    if env:
        p = Path(env)
        if not p.is_dir():
            raise FileNotFoundError(f"{_ENV}={env} is not a directory")
        return p
    return Path(str(resources.files("focklab") / "data"))


def fixture_path(name: str) -> Path:
    path = fixture_dir() / name
    if not path.is_file():
        raise FileNotFoundError(f"fixture table {name!r} not found in {fixture_dir()}")
    return path


def load_columns(name: str, ncols: int) -> list[tuple[float, ...]]:
    """Parse a table into float tuples, skipping blanks and '#' comments."""
    rows: list[tuple[float, ...]] = []
    with open(fixture_path(name), encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != ncols:
                raise ValueError(f"{name}:{lineno}: expected {ncols} columns, got {len(parts)}")
            rows.append(tuple(float(p) for p in parts))
    return rows


def load_bergman_r0() -> list[tuple[float, float, float, float, float]]:
    """Rows (k, c, amplitude, r, R0(r))."""
    return [tuple(r) for r in load_columns("bergman_r0.txt", 5)]
