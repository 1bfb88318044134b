import math
import re
import warnings

import numpy as np
import pytest

from vortexlab.kernels import (
    FAMILIES,
    KernelError,
    KernelSymbol,
    _entries,
    _lambda_pm,
    artificial_diagonal_field,
    cutoff,
    default_cutoff,
    heat_weight,
    low_pass,
    phi,
    phi_divided_difference,
    phi_symbol_grid,
    s_symbol_grid,
)
from vortexlab.harness import _heat_flow_magnitudes
from vortexlab.profiles import FluidParams
from vortexlab.spectral import (
    FullLattice,
    State,
    derivative,
    derivative_multiplier,
    gradient,
    hermitian_defect,
    leray_decompose,
    lp_of_magnitude,
    make_grid,
    over_mag2,
    to_physical,
)
from conftest import random_field, random_state, zero_field, zero_state

PARAMS = FluidParams()  # mu = 1, lam = 0, rho_star = 1 -> mu_par = 2, c = 1
MU_PAR_ONE = FluidParams(mu=0.5)  # mu_par = 1, c = 1: double root at |eta| = 2


# ---------------------------------------------------------------------------
# scalar helpers



def test_subtract_from_is_the_difference_in_place():
    grid = make_grid(32, 20.0)
    a = phi_symbol_grid(0, 0.7, grid, PARAMS, "spar")
    b = phi_symbol_grid(0, 0.7, grid, PARAMS, "artificial_par")
    expected, entries = a - b, b._arrays()
    assert b.subtract_from(a) is b
    assert all(x is y for x, y in zip(b._arrays(), entries))
    assert all(np.array_equal(x, y) for x, y in zip(b._arrays(), expected._arrays()))

def test_phi_matches_series_and_closed_form():
    import math

    zs = np.array([0.0, 1e-8, 0.3j, -0.49, -2.0 + 1.0j, -40.0])
    for k in range(4):
        vals = phi(k, zs)
        for z, v in zip(zs, vals):
            # quadrature oracle: phi_k(z) = int_0^1 e^{z(1-s)} s^{k-1}/(k-1)! ds
            if k == 0:
                expected = np.exp(z)
            else:
                s = np.linspace(0, 1, 200001)
                f = np.exp(z * (1 - s)) * s ** (k - 1) / math.factorial(k - 1)
                expected = np.trapezoid(f, s)
            assert abs(v - expected) < 5e-10 * max(1.0, abs(expected))


def test_divided_difference_stable_across_threshold():
    a = -1.0 + 0.5j
    # exact reference: (e^a - e^{a-d})/d = -e^a expm1(-d)/d for real d;
    # the direct branch (|d| >= 1e-5) loses at most ~eps/|d| relative accuracy
    for d in (1e-3, 1e-4, 1.01e-5, 0.99e-5, 1e-7, 1e-9):
        v = phi_divided_difference(0, np.array([a]), np.array([a - d]))[0]
        exact = -np.exp(a) * np.expm1(-d) / d
        tol = 1e-9 if d >= 1e-5 else 1e-12
        assert abs(v - exact) < tol * abs(exact)
    # phi divided differences: both branches agree with the midpoint-derivative
    # value phi_k'((a+b)/2) up to the direct branch's ~eps/|d| noise
    from vortexlab.kernels import _phi_derivative

    for k in (1, 2, 3):
        for d in (1.1e-5, 0.9e-5):
            got = phi_divided_difference(k, np.array([a]), np.array([a - d]))[0]
            ref = _phi_derivative(k, np.array([a - d / 2]))[0]
            assert abs(got - ref) < 1e-10 * abs(ref)
        coarse = phi_divided_difference(k, np.array([a]), np.array([a - 1e-2]))[0]
        direct = (phi(k, a) - phi(k, a - 1e-2)) / 1e-2
        assert abs(coarse - direct) < 1e-12 * abs(direct)


# Reference: the masked evaluation the branch-wise phi functions replaced, which
# computed the series and the closed form on every entry and picked with np.where.


def _masked_phi(k, z):
    import math

    z = np.asarray(z, dtype=np.complex128)
    if k == 0:
        return np.exp(z)
    small = np.abs(z) < 0.5
    series = np.zeros_like(z)
    for n in range(19, -1, -1):
        series = series * z + 1.0 / math.factorial(n + k)
    tail = np.exp(z)
    for j in range(k):
        tail = tail - z**j / math.factorial(j)
    with np.errstate(invalid="ignore", divide="ignore"):
        closed = tail / np.where(small, 1.0, z) ** k
    return np.where(small, series, closed)


def _masked_phi_derivative(k, z):
    import math

    z = np.asarray(z, dtype=np.complex128)
    if k == 0:
        return np.exp(z)
    small = np.abs(z) < 0.5
    series = np.zeros_like(z)
    for n in range(19, 0, -1):
        series = series * z + n / math.factorial(n + k)
    with np.errstate(invalid="ignore", divide="ignore"):
        closed = (_masked_phi(k - 1, z) - k * _masked_phi(k, z)) / np.where(small, 1.0, z)
    return np.where(small, series, closed)


def _masked_exp_divided_difference(a, b):
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    d = a - b
    small = np.abs(d) < 1e-5
    series = np.exp(0.5 * (a + b)) * (1.0 + d * d / 24.0 + d**4 / 1920.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (np.exp(a) - np.exp(b)) / np.where(small, 1.0, d)
    return np.where(small, series, direct)


def _masked_phi_divided_difference(k, a, b):
    if k == 0:
        return _masked_exp_divided_difference(a, b)
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    d = a - b
    small = np.abs(d) < 1e-5
    near = _masked_phi_derivative(k, 0.5 * (a + b))
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (_masked_phi(k, a) - _masked_phi(k, b)) / np.where(small, 1.0, d)
    return np.where(small, near, direct)


def test_branchwise_phi_functions_equal_the_masked_evaluation():
    from vortexlab.kernels import _phi_derivative

    # both sides of |z| = 0.5, on it, at 0 and far out
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 13))
    radii = 0.5 * (1.0 + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9]))
    zs = np.concatenate([np.outer(radii, angles).ravel(), [0.0, 1e-12, -3.0, -40.0 + 2j, 7j]])
    # both sides of |a - b| = 1e-5, on it, a = b, and far apart
    gaps = 1e-5 * (1.0 + np.array([-1e-6, -1e-12, 0.0, 1e-12, 1e-6]))
    a = np.repeat(zs, len(gaps) + 2)
    b = a - np.tile(np.concatenate([gaps, [0.0, 0.7]]), len(zs))
    # the double root |eta| = 2c/mu_par of the "s" block, at a few step lengths
    mag2 = (2.0 * MU_PAR_ONE.c / MU_PAR_ONE.mu_par) ** 2 * (1.0 + np.array([-1e-9, 0.0, 1e-9]))
    d1, d2, _ = FAMILIES["s"](mag2, MU_PAR_ONE)
    lp, lm = _lambda_pm(d1, d2, mag2, MU_PAR_ONE)
    a = np.concatenate([a] + [t * lp for t in (0.1, 1.0, 30.0)])
    b = np.concatenate([b] + [t * lm for t in (0.1, 1.0, 30.0)])
    assert (np.abs(a - b) < 1e-5).any() and (np.abs(a - b) >= 1e-5).any()
    for k in range(4):
        assert np.array_equal(phi(k, zs), _masked_phi(k, zs))
        assert np.array_equal(_phi_derivative(k, zs), _masked_phi_derivative(k, zs))
        assert np.array_equal(phi_divided_difference(k, a, b),
                              _masked_phi_divided_difference(k, a, b))
    assert np.array_equal(phi_divided_difference(0, a, b), _masked_exp_divided_difference(a, b))
    # 0-d arguments keep giving 0-d results
    assert phi(1, 0.3).shape == () and phi_divided_difference(2, 0.1, 0.1).shape == ()


# ---------------------------------------------------------------------------
# eigenvalues of the curl-free block, on the branch `_entries` takes for "s"


def _s_eigenvalues(eta, params):
    mag2 = np.asarray(eta[0] ** 2 + eta[1] ** 2, dtype=float)
    d1, d2, _ = FAMILIES["s"](mag2, params)
    return _lambda_pm(d1, d2, mag2, params)


def test_eigenvalues_double_root():
    lp, lm = _s_eigenvalues((2.0, 0.0), MU_PAR_ONE)  # |eta| = 2 c / mu_par
    assert lp == pytest.approx(-2.0)
    assert lm == pytest.approx(-2.0)


def test_eigenvalues_oscillatory_pair():
    lp, lm = _s_eigenvalues((1.0, 0.0), MU_PAR_ONE)
    assert lp == pytest.approx(-0.5 + 1j * np.sqrt(3) / 2)
    assert lm == pytest.approx(-0.5 - 1j * np.sqrt(3) / 2)
    assert lp == np.conj(lm)


def test_eigenvalues_real_negative_above_double_root(rng):
    for _ in range(10):
        eta = rng.uniform(2.5, 12.0) * np.array([1.0, 0.0])
        lp, lm = _s_eigenvalues(eta, MU_PAR_ONE)
        assert abs(lp.imag) == 0.0 and abs(lm.imag) == 0.0
        assert lp.real < 0 and lm.real < 0


def test_eigenvalues_small_eta_expansion():
    # lambda_pm = -mu_par |eta|^2/2 +- i c |eta| + O(|eta|^3)
    mags = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    for m in mags:
        lp, _ = _s_eigenvalues((m, 0.0), MU_PAR_ONE)
        err = abs(lp - (-0.5 * MU_PAR_ONE.mu_par * m**2 + 1j * MU_PAR_ONE.c * m))
        assert err < 0.2 * m**3


def test_eigenvalues_zero():
    lp, lm = _s_eigenvalues((0.0, 0.0), PARAMS)
    assert lp == 0.0 and lm == 0.0


# ---------------------------------------------------------------------------
# per-wavevector symbols: an independent 3x3 oracle of the Helmholtz entries


def _expand(entries, eta) -> np.ndarray:
    """3x3 matrix of Helmholtz entries (d, b, c, p, q) at one wavevector:
    rho' = d rho + i b (eta . m),  m' = p m + q eta (eta . m) + i c eta rho."""
    d, b, c, p, q = entries
    out = np.empty((3, 3), dtype=np.complex128)
    out[0, 0] = d
    out[0, 1:] = 1j * b * eta
    out[1:, 0] = 1j * c * eta
    out[1:, 1:] = p * np.eye(2) + q * np.outer(eta, eta)
    return out


def point_symbol(kind, t, eta, params=PARAMS) -> np.ndarray:
    """3x3 symbol of the kind's kernel at time t and one wavevector eta."""
    eta = np.asarray(eta, dtype=float)
    mag2 = np.asarray(eta[0] ** 2 + eta[1] ** 2)
    return _expand(_entries(kind, t, mag2, mag2, params), eta)


def generator_matrix(kind, eta, params=PARAMS) -> np.ndarray:
    """3x3 generator d/dt|_0 of the kind's kernel at one wavevector eta."""
    eta = np.asarray(eta, dtype=float)
    mag2 = float(eta[0] ** 2 + eta[1] ** 2)
    d1, d2, d_perp = FAMILIES[kind](np.asarray(mag2), params)
    q = (d2 - d_perp) / mag2 if mag2 > 0 else 0.0
    return _expand((d1, 1.0, params.c**2, d_perp, q), eta)


def test_spar_symbol_identity_at_zero_time(rng):
    for _ in range(5):
        eta = rng.uniform(-4, 4, size=2)
        block = point_symbol("spar", 0.0, eta)
        assert np.abs(block - np.eye(3)).max() < 1e-12


def test_spar_symbol_mass_mode():
    for t in (0.5, 3.0):
        block = point_symbol("spar", t, (0.0, 0.0))
        assert block[0, 0] == pytest.approx(1.0)
        assert np.abs(block - np.eye(3)).max() < 1e-12


def test_spar_symbol_rejects_negative_time():
    with pytest.raises(KernelError):
        phi_symbol_grid(0, -0.1, make_grid(16, 5.0), PARAMS, "spar")


def test_composed_and_artificial_identity_and_mass_mode(rng):
    for kind in ("s", "artificial_par"):
        for _ in range(3):
            eta = rng.uniform(-4, 4, size=2)
            assert np.abs(point_symbol(kind, 0.0, eta) - np.eye(3)).max() < 1e-12
        for t in (0.5, 2.0):
            block = point_symbol(kind, t, (0.0, 0.0))
            assert block[0, 0] == pytest.approx(1.0)


def _random_eta_t(rng):
    eta = rng.uniform(-5, 5, size=2)
    t = rng.uniform(0.05, 2.0)
    s = rng.uniform(0.05, 2.0)
    return eta, t, s


@pytest.mark.parametrize("kind", ["spar", "s", "wave"], ids=lambda kind: f"{kind}_symbol")
def test_symbol_semigroup_pointwise(kind, rng):
    worst = 0.0
    for _ in range(100):
        eta, t, s = _random_eta_t(rng)
        a = point_symbol(kind, t, eta) @ point_symbol(kind, s, eta)
        b = point_symbol(kind, t + s, eta)
        scale = max(np.abs(b).max(), 1e-300)
        worst = max(worst, np.abs(a - b).max() / scale)
    assert worst < 1e-10


@pytest.mark.parametrize("composed", [False, True])
def test_artificial_semigroup_pointwise(composed, rng):
    kind = "artificial" if composed else "artificial_par"
    worst = 0.0
    for _ in range(100):
        eta, t, s = _random_eta_t(rng)
        a = point_symbol(kind, t, eta) @ point_symbol(kind, s, eta)
        b = point_symbol(kind, t + s, eta)
        worst = max(worst, np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))
    assert worst < 1e-10


def test_symbol_continuity_at_double_root():
    t = 1.3
    mag = 2.0 * PARAMS.c / PARAMS.mu_par
    at = point_symbol("spar", t, (mag, 0.0))
    for eps in (1e-9, -1e-9, 1e-7):
        near = point_symbol("spar", t, (mag + eps, 0.0))
        assert np.abs(near - at).max() < 1e-6
    # at the double root the divided difference collapses to t e^{lambda t}
    lam = -0.5 * PARAMS.mu_par * mag**2
    assert at[0, 1] == pytest.approx(1j * t * np.exp(lam * t) * mag, rel=1e-10)


def test_generator_consistency(rng):
    dt = 1e-6
    for kind in ("spar", "s", "artificial_par"):
        for _ in range(20):
            eta = rng.uniform(-2, 2, size=2)
            block = point_symbol(kind, dt, eta)
            fd = (block - np.eye(3)) / dt
            gen = generator_matrix(kind, eta)
            scale = max(np.abs(gen).max(), 1.0)
            assert np.abs(fd - gen).max() < 1e-5 * scale


def test_artificial_factorizes_into_wave_times_heat(rng):
    # S_tilde_par acts on curl-free data as the wave kernel damped by the
    # half-mu_par heat factor (the two parts commute)
    for _ in range(10):
        eta = rng.uniform(-4, 4, size=2)
        t = rng.uniform(0.1, 2.0)
        rho = rng.standard_normal() + 1j * rng.standard_normal()
        a = rng.standard_normal() + 1j * rng.standard_normal()
        v = np.array([rho, a * eta[0], a * eta[1]])  # curl-free momentum
        lhs = point_symbol("artificial_par", t, eta) @ v
        damp = np.exp(-0.5 * PARAMS.mu_par * (eta[0] ** 2 + eta[1] ** 2) * t)
        rhs = damp * (point_symbol("wave", t, eta) @ v)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(rhs).max(), 1e-300)


def test_artificial_symbol_eigenvalues(rng):
    # parallel-block eigenvalues are exp((-mu_par |eta|^2/2 +- i c |eta|) t)
    for _ in range(10):
        eta = rng.uniform(0.5, 4.0, size=2)
        t = rng.uniform(0.1, 2.0)
        mag = np.hypot(*eta)
        block = point_symbol("artificial_par", t, eta)
        eig = list(np.linalg.eigvals(block))
        lam = -0.5 * PARAMS.mu_par * mag**2
        for expected in (
            np.exp((lam + 1j * PARAMS.c * mag) * t),
            np.exp((lam - 1j * PARAMS.c * mag) * t),
            np.exp(lam * t),  # divergence-free extension
        ):
            j = int(np.argmin([abs(e - expected) for e in eig]))
            assert abs(eig[j] - expected) < 1e-10
            eig.pop(j)


def test_s_symbol_on_divergence_free_data(rng):
    # (0, m_perp) evolves by the mu-heat flow with density untouched
    grid = make_grid(32, 10.0)
    psi = random_field(grid, rng)
    m = (derivative(psi, grid, (0, 1)) * -1.0, derivative(psi, grid, (1, 0)))
    X = np.stack([zero_field(grid), m[0], m[1]])
    out = s_symbol_grid(0.7, grid, PARAMS).apply(X)
    heat = np.exp(-PARAMS.mu * grid.eta_sq * 0.7)
    assert np.abs(out[0]).max() < 1e-12
    for j in range(2):
        assert np.abs(out[1 + j] - heat * m[j]).max() < 1e-12


def test_s_symbol_matches_spar_on_curl_free_data(rng):
    grid = make_grid(32, 10.0)
    rho = random_field(grid, rng)
    m = gradient(random_field(grid, rng), grid)
    X = np.stack([rho, m[0], m[1]])
    t = 0.9
    a = s_symbol_grid(t, grid, PARAMS).apply(X)
    b = phi_symbol_grid(0, t, grid, PARAMS, "spar").apply(X)
    for ca, cb in zip(a, b):
        assert np.abs(ca - cb).max() < 1e-11


def test_apply_rejects_grid_mismatch(rng):
    # the State form checks its grid; the stack form is the solver's, on the symbol's lattice
    a = make_grid(32, 5.0)
    b = make_grid(64, 5.0)
    X = State.from_stack(b, random_state(b, rng))
    with pytest.raises(KernelError):
        s_symbol_grid(1.0, a, PARAMS).apply(X)


@pytest.mark.parametrize("shape", [(3, 64, 33), (3, 21, 11), (2, 32, 17)])
def test_apply_rejects_a_stack_of_another_shape(shape):
    # a stack of another n, a band stack on a grid symbol and a stack of two rows: each is
    # a KernelError naming both shapes, before numpy's arithmetic fails naming neither
    grid = make_grid(32, 5.0)
    assert grid.band.spectral_shape == (21, 11)
    with pytest.raises(KernelError, match=rf"{re.escape(str(shape))}.*\(3, 32, 17\)"):
        s_symbol_grid(1.0, grid, PARAMS).apply(np.zeros(shape, complex))


@pytest.mark.parametrize("n", [16, 64])
def test_apply_state_form_equals_stack_form(rng, n):
    # the benchmark probe times the State form; the runs apply the stack form
    grid = make_grid(n, 20.0)
    X = random_state(grid, rng)
    symbol = phi_symbol_grid(0, 0.8, grid, PARAMS, "s")
    out = symbol.apply(State.from_stack(grid, X))
    assert isinstance(out, State) and out.grid == grid
    got = np.stack([c.coeffs for c in (out.rho, *out.m)])
    assert np.array_equal(got, symbol.apply(X))


def test_apply_identity_and_zero(rng):
    grid = make_grid(32, 5.0)
    X = random_state(grid, rng)
    out = KernelSymbol.identity(grid).apply(X)
    for ca, cb in zip(out, X):
        assert np.array_equal(ca, cb)
    zero = zero_state(grid)
    out = s_symbol_grid(1.0, grid, PARAMS).apply(zero)
    assert all(np.abs(c).max() == 0.0 for c in out)


def test_apply_semigroup_on_grid(rng):
    grid = make_grid(32, 5.0)
    X = random_state(grid, rng)
    t, s = 0.4, 0.9
    st, ss = s_symbol_grid(t, grid, PARAMS), s_symbol_grid(s, grid, PARAMS)
    one = s_symbol_grid(t + s, grid, PARAMS).apply(X)
    for two in (st.apply(ss.apply(X)), st.compose(ss).apply(X)):
        for ca, cb in zip(one, two):
            assert np.abs(ca - cb).max() < 1e-10 * max(np.abs(ca).max(), 1e-300)


def test_apply_preserves_hermitian_symmetry_exactly(rng):
    # half spectra: the self-conjugate columns carry the whole symmetry
    grid = make_grid(32, 5.0)
    X = random_state(grid, rng)
    assert all(hermitian_defect(c, grid) == 0.0 for c in X)
    out = phi_symbol_grid(0, 0.8, grid, PARAMS, "spar").apply(X)
    for comp in out:
        assert hermitian_defect(comp, grid) == 0.0


def test_grid_symbol_matches_pointwise(rng):
    grid = make_grid(16, 7.0)
    t = 0.6
    sym = s_symbol_grid(t, grid, PARAMS)
    for _ in range(10):
        # a stored (half-lattice) wavevector off the Nyquist row and column,
        # where the grid symbol pairs the full |eta|^2 with zeroed odd parts
        i = rng.integers(-grid.n // 2 + 1, grid.n // 2) % grid.n
        j = rng.integers(0, grid.n // 2)
        eta = np.array([grid.eta1_odd[i, 0], grid.eta2_odd[0, j]])
        block = point_symbol("s", t, eta)
        # column k of the grid symbol's matrix at (i, j) is its action on the
        # unit state e_k placed at (i, j)
        got = np.empty((3, 3), dtype=np.complex128)
        for k in range(3):
            unit = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
            unit[k, i, j] = 1.0
            got[:, k] = sym.apply(unit)[:, i, j]
        assert np.abs(got - block).max() < 1e-12


@pytest.mark.parametrize("n, L", [(64, 200.0), (256, 100.0)])
def test_shell_builds_equal_lattice_builds(n, L):
    # entries are elementwise in (|eta|^2, |eta_odd|^2): evaluating them once per
    # distinct pair and gathering must reproduce the lattice evaluation bit for bit
    grid = make_grid(n, L)
    mag2, mag2_odd, inverse = grid.shells
    assert np.array_equal(mag2[inverse], grid.eta_sq)
    assert np.array_equal(mag2_odd[inverse], grid.eta_sq_odd)
    assert len(np.unique(mag2 + 1j * mag2_odd)) == len(mag2) < grid.eta_sq.size
    for kind in FAMILIES:
        for fk in range(4):
            for t in (0.0, 1e-3, 0.37, 1.9, 27.0):
                sym = phi_symbol_grid(fk, t, grid, PARAMS, kind)
                lattice = _entries(kind, t, grid.eta_sq, grid.eta_sq_odd, PARAMS, fk)
                # phi_k weights for k >= 1 carry the step length t
                lattice = [t * e for e in lattice] if fk else lattice
                for got, want in zip(sym._arrays(), lattice, strict=True):
                    assert np.array_equal(got, want), (kind, fk, t)


# ---------------------------------------------------------------------------
# cutoff / low-pass split


def test_cutoff_plateaus():
    spec = 3.0  # the cutoff radius r0
    assert cutoff(1.5, spec) == 1.0
    assert cutoff(5.0, spec) == 0.0
    assert cutoff(3.5, spec) == pytest.approx(0.5)
    # two magnitudes, not one wavevector
    assert np.array_equal(cutoff(np.array([1.0, 3.5]), spec), [1.0, 0.5])
    mags = np.linspace(0, 6, 200)
    vals = cutoff(mags, spec)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0) & (vals <= 1))


def test_cutoff_rejects_bad_radius():
    with pytest.raises(KernelError):
        cutoff(1.0, 0.0)


def test_split_partition_of_unity(rng):
    # the low- and high-frequency parts kernel-rates applies: scalings by one low-pass weight
    grid = make_grid(32, 5.0)
    sym = s_symbol_grid(0.7, grid, PARAMS)
    chi = low_pass(grid, default_cutoff(PARAMS))
    lf, hf = sym.scaled(chi), sym.scaled(1.0 - chi)
    assert (lf + hf - sym).entry_magnitude().max() < 1e-15 * max(1.0, sym.entry_magnitude().max())


# ---------------------------------------------------------------------------
# physical-space kernel fields


def test_artificial_diagonal_field_integrals():
    # the discrete integral of a kernel field is its symbol at eta = 0:
    # 1 for the diagonal entry itself, 0 once it is differentiated
    grid = make_grid(64, 50.0)
    for t in (0.5, 2.0):
        field = artificial_diagonal_field(t, grid, PARAMS)
        assert abs(field.sum() * grid.dx**2 - 1.0) < 1e-12
        derived = artificial_diagonal_field(t, grid, PARAMS, (1, 0))
        assert abs(derived.sum() * grid.dx**2) < 1e-12


def _whole_lattice_artificial_field(t, grid, params, sigma):
    """The diagonal field built on the whole lattice: the derivative multiplier and
    exp, sqrt and cos on every wavevector of a `FullLattice`, then the complex fft2."""
    full = FullLattice(grid)
    mag2 = full.eta_sq
    decay = np.exp(-0.5 * params.mu_par * mag2 * t)
    symbol = derivative_multiplier(full, sigma) * (decay * np.cos(params.c * np.sqrt(mag2) * t))
    return np.fft.fftshift(np.real(np.fft.fft2(symbol)) / grid.L**2)


@pytest.mark.parametrize("sigma", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
@pytest.mark.parametrize("n, L", [(64, 50.0), (128, 200.0)])
def test_artificial_diagonal_field_equals_the_whole_lattice_build(n, L, sigma):
    # the quadrant fold and the broadcast derivative factor give the whole-lattice
    # symbol bit for bit, and the field is C-ordered like the whole-lattice one
    grid = make_grid(n, L)
    for params in (PARAMS, FluidParams(mu=0.25)):
        for t in (1.0, 14.97):
            field = artificial_diagonal_field(t, grid, params, sigma)
            assert np.array_equal(field, _whole_lattice_artificial_field(t, grid, params, sigma))
            assert field.flags.c_contiguous


@pytest.mark.parametrize("sigma", [(0, 0), (1, 0)])
def test_artificial_diagonal_field_allocates_under_three_lattice_arrays(sigma):
    """tracemalloc peak of one warm call at n = 128, in complex n x n arrays.

    The peak is the symbol's product: the mirrored radial factor (half an array of
    floats), the symbol (one array) and numpy's casting buffer for the real-complex
    product (8192 complex values, half an array at n = 128), plus the quadrant's
    arrays (about 0.15): 2.65 arrays.  fft2 then transforms the symbol in place, and
    the shifted real field (half an array) is divided in place after the mirror is
    freed.  The whole-lattice build peaked at 6.0 arrays (the multiplier, three
    wavenumber arrays, the decay and cosine factors and fft2's output on top).  The
    bound of 3.0 leaves a third of an array of headroom and fails that build.
    """
    import tracemalloc

    grid = make_grid(128, 50.0)
    artificial_diagonal_field(2.0, grid, PARAMS, sigma)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        artificial_diagonal_field(2.0, grid, PARAMS, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / np.empty((128, 128), np.complex128).nbytes <= 3.0


def _heat_leray_magnitudes(times, grid, params, sigmas=(1,)):
    """kernel-rates' heat-Leray magnitudes: the heat flow of R_perp's real entries
    (r11, sqrt(2) r12, r22), derived sigma times along x1 for each sigma of `sigmas`."""
    e1, e2, mag2 = grid.eta1_odd, grid.eta2_odd, grid.eta_sq_odd
    entries = (over_mag2(e2 * e2, mag2), over_mag2(-math.sqrt(2.0) * e1 * e2, mag2),
               over_mag2(e1 * e1, mag2))
    return _heat_flow_magnitudes(grid, params.mu, entries, times, sigmas)


def _full_lattice_heat_leray(t, sigma, grid, params):
    """The heat-Leray magnitude built on the whole lattice and transformed with the
    complex fft2, an independent oracle for the half-lattice routine."""
    full = FullLattice(grid)
    mult = derivative_multiplier(full, sigma) * np.exp(-params.mu * full.eta_sq * t)
    e1, e2 = full.eta1_odd, full.eta2_odd
    mag2 = full.eta_sq_odd
    safe = np.where(mag2 == 0.0, 1.0, mag2)

    def entry(r):
        return np.real(np.fft.fft2(mult * np.where(mag2 == 0.0, 0.0, r))) / grid.L**2

    r11, r12, r22 = entry(e2 * e2 / safe), entry(-e1 * e2 / safe), entry(e1 * e1 / safe)
    return np.sqrt(r11**2 + r12**2 + r22**2 + r12**2)


@pytest.mark.parametrize("sigma", [(1, 0)])
@pytest.mark.parametrize("n, L", [(64, 50.0), (256, 200.0), (512, 200.0)])
def test_heat_leray_equals_the_full_lattice_transform(n, L, sigma):
    # the heat flow derives along x1 only, so sigma = (1, 0) is kernel-rates' one case;
    # at n = 512 the time 16 runs on its support band
    grid = make_grid(n, L)
    times = (1.0, 4.0, 16.0)
    for t, field in zip(times, _heat_leray_magnitudes(times, grid, PARAMS), strict=True):
        expected = _full_lattice_heat_leray(t, sigma, grid, PARAMS)
        assert np.abs(field - expected).max() <= 1e-14 * np.abs(expected).max()


def _per_time_heat_leray(t, sigma, grid, params):
    """The heat-Leray magnitude of D^(sigma, 0) with its R_perp entries built, flowed and
    derived for the one time on the whole half lattice, through one stacked
    `to_physical`."""
    e1, e2, mag2 = grid.eta1_odd, grid.eta2_odd, grid.eta_sq_odd
    entries = np.stack([over_mag2(e2 * e2, mag2), over_mag2(-math.sqrt(2.0) * e1 * e2, mag2),
                        over_mag2(e1 * e1, mag2)]) * np.exp(-params.mu * grid.eta_sq * t)
    for _ in range(sigma):
        entries = entries * derivative_multiplier(grid, (1, 0))
    r11, r12, r22 = to_physical(entries, grid)
    return np.sqrt(r11**2 + r12**2 + r22**2)


@pytest.mark.parametrize("sigma", [(1,), (0, 1)])
def test_heat_leray_yields_a_new_array_per_time(sigma):
    # sigma: the derivative orders yielded per time.  The entries are made once for every
    # time, and the listed magnitudes keep each time's values bit for bit (no buffer is
    # reused across times); the last three times run on support bands
    grid = make_grid(128, 40.0)
    times = np.geomspace(1.0, 16.0, 9)
    fields = list(_heat_leray_magnitudes(times, grid, PARAMS, sigma))
    expected = [_per_time_heat_leray(t, s, grid, PARAMS) for t in times for s in sigma]
    assert len(fields) == len(expected)
    for field, want in zip(fields, expected):
        assert np.array_equal(field, want)


def test_heat_leray_time_holds_four_half_lattice_arrays():
    """tracemalloc peak of one warm time of the heat-Leray magnitudes at n = 128, in
    complex half-lattice arrays (an n x n array of samples is 0.99 of one).

    The peak holds the time's heat weight, its gathered copy, the running sum of squares
    and one flowed entry: 3.51 measured.  Holding the last entry while the next one is
    made (`BandTransform.magnitude` without its `del`) measured 4.51, and the removed
    heat-Leray generator, which kept the off-diagonal squares, 4.98.  The bound of 4.0
    leaves half an array of headroom and fails both.
    """
    import tracemalloc

    grid = make_grid(128, 100.0)
    fields = _heat_leray_magnitudes([1.0, 2.0], grid, PARAMS)
    next(fields)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        field = next(fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(field, _per_time_heat_leray(2.0, 1, grid, PARAMS))
    assert (peak - base) / np.empty(grid.spectral_shape, complex).nbytes <= 4.0


def test_heat_leray_calls_no_complex_2d_fft(monkeypatch):
    calls = []
    for name in ("fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, lambda *a, name=name, **k: calls.append(name))
    (field,) = _heat_leray_magnitudes([2.0], make_grid(64, 50.0), PARAMS)
    assert calls == [] and np.isfinite(field).all()


def test_interpolation_inequality_on_heat_flow():
    # ||f||_{3/2} <= C ||f||_2^{2/3} |||x| f||_2^{1/3} with a t-stable ratio:
    # the mechanism behind the small-p rate of second-moment-free data
    from vortexlab.profiles import biot_savart, dipole_vorticity_field
    from vortexlab.spectral import lp_norm

    grid = make_grid(256, 200.0)
    omega = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    m0 = biot_savart(derivative(omega, grid, (1, 0)), grid)
    radius = np.hypot(grid.xc1, grid.xc2)
    ratios = []
    for t in (2.0, 8.0, 32.0, 128.0):
        h = np.exp(-PARAMS.mu * grid.eta_sq * t)
        f = (h * m0[0], h * m0[1])
        mag = np.hypot(to_physical(f[0], grid), to_physical(f[1], grid))
        n32 = (np.sum(mag**1.5) * grid.dx**2) ** (2.0 / 3.0)
        n2 = lp_norm(f, grid, 2)
        nw = float(np.sqrt(np.sum((radius * mag) ** 2) * grid.dx**2))
        ratios.append(n32 / (n2 ** (2.0 / 3.0) * nw ** (1.0 / 3.0)))
    ratios = np.array(ratios)
    assert ratios.max() < 4.0
    assert ratios.max() / ratios.min() < 1.5


def test_heat_leray_decay_slopes():
    grid = make_grid(256, 200.0)
    times = np.geomspace(1.0, 16.0, 7)
    for p, expected in ((2.0, -1.0), (np.inf, -1.5)):
        vals = [lp_of_magnitude(field, grid, p)
                for field in _heat_leray_magnitudes(times, grid, PARAMS)]
        slope = np.polyfit(np.log(times), np.log(vals), 1)[0]
        assert abs(slope - expected) < 0.05


def test_heat_symbol_semigroup(rng):
    grid = make_grid(32, 5.0)
    X = random_state(grid, rng)

    def heat(t):
        return KernelSymbol.identity(grid).scaled(heat_weight(0, t, grid, 1.0))

    a = heat(0.5).apply(heat(0.25).apply(X))
    b = heat(0.75).apply(X)
    for ca, cb in zip(a, b):
        assert np.abs(ca - cb).max() < 1e-12


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_heat_weight_equals_the_lattice_formula_bit_for_bit(n, k):
    # one evaluation per |eta|^2 shell, gathered, is the formula on every entry of the
    # half lattice and of the 2/3-rule band
    grid, mu = make_grid(n, 200.0), 0.7
    for lattice in (grid, grid.band):
        for t in (1e-3, 0.1, 0.2421875, 0.9, 1.5, 8.0, 128.0):
            z = -mu * lattice.eta_sq * t
            expected = np.exp(z) if k == 0 else t * phi(k, z)
            got = heat_weight(k, t, lattice, mu)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_heat_weight_rejects_negative_time():
    for k in (0, 1):
        with pytest.raises(KernelError):
            heat_weight(k, -0.1, make_grid(16, 5.0), PARAMS.mu)


@pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build", ["s", "phi1", "heat", "artificial"])
def test_kernels_reject_a_non_finite_time(build, t):
    # NaN passed the t < 0 check, and NaN and inf built NaN kernels with a RuntimeWarning
    grid = make_grid(16, 5.0)
    call = {"s": lambda: s_symbol_grid(t, grid, PARAMS),
            "phi1": lambda: phi_symbol_grid(1, t, grid, PARAMS),
            "heat": lambda: heat_weight(0, t, grid, 1.0),
            "artificial": lambda: artificial_diagonal_field(t, grid, PARAMS)}[build]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelError, match="^kernel symbols are defined for finite t >= 0"):
            call()
