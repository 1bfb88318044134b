import numpy as np
import pytest

from vortexlab.spectral import Grid, derivative, to_physical, to_spectral


def random_field(grid: Grid, rng, scale: float = 1.0) -> np.ndarray:
    """Half spectrum of a smooth random real field with decaying spectrum."""
    raw = rng.standard_normal((grid.n, grid.n))
    out = to_spectral(raw, grid) * np.exp(-0.5 * grid.eta_sq)
    peak = np.abs(to_physical(out, grid)).max()
    return out * (scale / peak if peak > 0 else 1.0)


def random_state(grid: Grid, rng, scale: float = 1.0) -> np.ndarray:
    """A (3, n, n/2 + 1) stack of three `random_field`s: a state (rho_tilde, m1, m2)."""
    return np.stack([random_field(grid, rng, scale) for _ in range(3)])


def zero_state(grid: Grid) -> np.ndarray:
    return np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)


def zero_field(grid: Grid) -> np.ndarray:
    return np.zeros(grid.spectral_shape, dtype=np.complex128)


def divergence(m, grid: Grid) -> np.ndarray:
    """Spectral divergence d1 m1 + d2 m2 of a momentum pair of half spectra."""
    return derivative(m[0], grid, (1, 0)) + derivative(m[1], grid, (0, 1))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
