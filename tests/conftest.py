import numpy as np
import pytest

from vortexlab.spectral import Grid, SpectralField, derivative, transform


def random_field(grid: Grid, rng, scale: float = 1.0) -> SpectralField:
    """Smooth random real field with decaying spectrum."""
    raw = rng.standard_normal((grid.n, grid.n))
    f = transform(raw, grid)
    out = SpectralField(grid, f.coeffs * np.exp(-0.5 * grid.eta_sq))
    peak = np.abs(out.values()).max()
    return out * (scale / peak if peak > 0 else 1.0)


def random_state(grid: Grid, rng, scale: float = 1.0) -> np.ndarray:
    """A (3, n, n/2 + 1) stack of three `random_field`s: a state (rho_tilde, m1, m2)."""
    return np.stack([random_field(grid, rng, scale).coeffs for _ in range(3)])


def zero_state(grid: Grid) -> np.ndarray:
    return np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.spectral_shape, dtype=np.complex128))


def divergence(m: tuple[SpectralField, SpectralField]) -> SpectralField:
    """Spectral divergence d1 m1 + d2 m2 of a momentum pair."""
    return derivative(m[0], (1, 0)) + derivative(m[1], (0, 1))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
