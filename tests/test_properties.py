"""Property tests of the half-spectrum layout, held to the kernel-algebra bounds."""

import numpy as np
from hypothesis import given, settings, strategies as st

from vortexlab.kernels import (
    FAMILIES,
    KernelSymbol,
    heat_weight,
    phi_symbol_grid,
    s_symbol_grid,
)
from vortexlab.profiles import FluidParams
from vortexlab.spectral import (
    FullLattice,
    SpectralField,
    leray_decompose,
    lp_norm,
    make_grid,
    parseval_sum,
    transform,
)

PARAMS = FluidParams()
PROPERTY = settings(max_examples=30, deadline=None, database=None)

grids = st.builds(make_grid, st.sampled_from([8, 16, 32, 64]), st.floats(0.5, 100.0))
seeds = st.integers(0, 2**32 - 1)
times = st.floats(0.01, 3.0)


def _real_field(grid, rng, damping=0.05):
    f = transform(rng.standard_normal((grid.n, grid.n)), grid)
    return SpectralField(grid, f.coeffs * np.exp(-damping * grid.eta_sq))


def _real_state(grid, rng):
    return np.stack([_real_field(grid, rng).coeffs for _ in range(3)])


def _full_spectrum(field):
    # the full-lattice coefficients of the same convention, from ifft2
    return np.fft.ifft2(field.values()) * field.grid.L**2


@PROPERTY
@given(grids, seeds)
def test_transform_values_round_trip(grid, seed):
    values = np.random.default_rng(seed).standard_normal((grid.n, grid.n))
    field = transform(values, grid)
    assert field.coeffs.shape == (grid.n, grid.n // 2 + 1)
    assert np.abs(field.values() - values).max() < 1e-12 * np.abs(values).max()
    # the half spectrum is the k2 >= 0 columns of the full-lattice transform
    full = np.fft.ifft2(values) * grid.L**2
    scale = np.abs(full).max()
    assert np.abs(field.coeffs - full[:, : grid.n // 2 + 1]).max() < 1e-12 * scale
    assert field.hermitian_defect() == 0.0


@PROPERTY
@given(grids, seeds, st.integers(0, 3))
def test_parseval_weights_match_full_lattice_sum(grid, seed, s):
    rng = np.random.default_rng(seed)
    a, b = _real_field(grid, rng, 0.0), _real_field(grid, rng, 0.0)
    weight = (1.0 + grid.eta_sq) ** s
    got = parseval_sum(grid, [(a.coeffs, b.coeffs), (a.coeffs, a.coeffs)], weight)
    full_a, full_b = _full_spectrum(a), _full_spectrum(b)
    full_weight = (1.0 + FullLattice(grid).eta_sq) ** s
    terms = full_weight * (full_a * np.conj(full_b) + np.abs(full_a) ** 2)
    expected = float(np.real(np.sum(terms))) / grid.L**2
    scale = float(np.sum(full_weight * (np.abs(full_a) ** 2 + np.abs(full_b) ** 2))) / grid.L**2
    assert abs(got - expected) < 1e-12 * scale


SYMBOLS = {
    "s": lambda t, g: s_symbol_grid(t, g, PARAMS),
    "spar": lambda t, g: phi_symbol_grid(0, t, g, PARAMS, "spar"),
    "artificial": lambda t, g: phi_symbol_grid(0, t, g, PARAMS, "artificial"),
    "phi2": lambda t, g: phi_symbol_grid(2, t, g, PARAMS),
    "heat": lambda t, g: KernelSymbol.identity(g).scaled(heat_weight(0, t, g, PARAMS.mu)),
}


@PROPERTY
@given(grids, seeds, times, st.sampled_from(sorted(SYMBOLS)))
def test_symbol_keeps_a_real_state_real(grid, seed, t, kind):
    X = _real_state(grid, np.random.default_rng(seed))
    out = SYMBOLS[kind](t, grid).apply(X)
    # the realness report's bound: exactly zero
    assert max(SpectralField(grid, c).hermitian_defect() for c in out) == 0.0


@PROPERTY
@given(grids, seeds)
def test_leray_idempotent_and_orthogonal(grid, seed):
    rng = np.random.default_rng(seed)
    m = (_real_field(grid, rng), _real_field(grid, rng))
    perp, par = leray_decompose(m)
    perp2, par2 = leray_decompose(perp)
    scale = max(np.abs(m[0].coeffs).max(), np.abs(m[1].coeffs).max())
    for i in range(2):
        assert np.abs((perp2[i] - perp[i]).coeffs).max() < 1e-12 * scale
        assert np.abs(par2[i].coeffs).max() < 1e-12 * scale
    inner = parseval_sum(grid, [(a.coeffs, b.coeffs) for a, b in zip(perp, par)])
    na, nb = lp_norm(perp, 2), lp_norm(par, 2)
    assert abs(inner) < 1e-12 * na * nb


@PROPERTY
@given(grids, seeds, times, times, st.sampled_from(sorted(FAMILIES)))
def test_symbol_semigroup_on_dealiased_states(grid, seed, t, s, kind):
    # S(t) S(s) = S(t + s) off the Nyquist lines, which dealiasing zeroes
    X = _real_state(grid, np.random.default_rng(seed)) * grid.dealias_mask
    St, Ss, Sts = (phi_symbol_grid(0, h, grid, PARAMS, kind) for h in (t, s, t + s))
    got, want = St.compose(Ss).apply(X), Sts.apply(X)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
