from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import focklab
from focklab import MacroscopicPotential

# the 50-digit reference table of R0, rows "k c a r R0(r)" with '#' comments, written by tools/make_fixtures.py
BERGMAN_R0 = Path(focklab.__file__).with_name("data") / "bergman_r0.txt"

# r^2 - 0.6 r^4 + 0.16 r^6 has Delta Q = (1 - 1.2 r^2)^2, which vanishes at r^2 = 1/1.2
SOLVER_POTENTIALS = [{1: 1.0}, {1: 1.0, 2: 1.0}, {2: 1.0, 3: 1.0}, {1: 1.0, 2: -0.6, 3: 0.16}]

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


@pytest.fixture
def ginibre():
    """Q = r^2, c = 0: every closed form is elementary."""
    return MacroscopicPotential(kind="radial", c=0.0, radial_coeffs={1: 1.0})


def radial_potential(k: int, c: float, a: float = 1.0) -> MacroscopicPotential:
    return MacroscopicPotential(kind="radial", c=c, radial_coeffs={k: a})


@pytest.fixture
def z_grid():
    return np.linspace(0.1, 2.0, 20)


def load_bergman_r0() -> list[tuple[float, float, float, float, float]]:
    """Rows (k, c, amplitude, r, R0(r)) of BERGMAN_R0, skipping blanks and '#' comments."""
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
