import numpy as np
import pytest

from vortexlab.spectral import Grid, SpectralField, State, transform


def random_field(grid: Grid, rng, scale: float = 1.0) -> SpectralField:
    """Smooth random real field with decaying spectrum."""
    raw = rng.standard_normal((grid.n, grid.n))
    f = transform(raw, grid)
    out = SpectralField(grid, f.coeffs * np.exp(-0.5 * grid.eta_sq))
    peak = np.abs(out.values()).max()
    return out * (scale / peak if peak > 0 else 1.0)


def random_state(grid: Grid, rng, scale: float = 1.0) -> State:
    return State(
        random_field(grid, rng, scale),
        (random_field(grid, rng, scale), random_field(grid, rng, scale)),
    )


def zero_state(grid: Grid) -> State:
    z = SpectralField.zero
    return State(z(grid), (z(grid), z(grid)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
