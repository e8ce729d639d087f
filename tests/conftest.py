import numpy as np
import pytest
from hypothesis import settings

from focklab import MacroscopicPotential

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
