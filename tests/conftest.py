import numpy as np
import pytest

from gkdvlab.grid import Field, GridSpec


@pytest.fixture
def grid():
    return GridSpec(domain_length=200.0, num_points=4096, dt=0.02, num_steps=50)


@pytest.fixture
def small_grid():
    return GridSpec(domain_length=50.0, num_points=256, dt=0.05, num_steps=20)


def random_field(grid: GridSpec, rng: np.random.Generator, decay: float = 0.0) -> Field:
    """Random real field; decay > 0 damps high frequencies like |xi|^-decay."""
    v = rng.standard_normal(grid.num_points)
    f = Field.from_values(grid, v)
    if decay > 0:
        xi = grid.frequencies
        damp = (1.0 + np.abs(xi)) ** (-decay)
        c = f.coefficients * damp
        f = Field.from_coefficients(grid, c)
    return f


def gaussian_bump(grid: GridSpec, amp: float = 1.0, width: float = 8.0,
                  carrier: float = 0.0) -> Field:
    x = grid.x - grid.domain_length / 2
    v = amp * np.exp(-(x / width) ** 2)
    if carrier:
        v = v * np.cos(carrier * x)
    return Field.from_values(grid, v)
