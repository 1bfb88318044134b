import dataclasses
import itertools
import math
import re
import sys
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

from vortexlab.kernels import (FAMILIES, KernelSymbol, heat_weight, phi, phi_symbol_grid,
                               s_symbol_grid)
from vortexlab.profiles import (
    FluidParams,
    biot_savart,
    dipole_vorticity_field,
    oseen_vorticity_field,
)
from vortexlab import solver, spectral
from vortexlab.solver import (
    SolverAbort,
    SolverConfig,
    SolverError,
    VacuumError,
    cfl_limit,
    pressure_remainder,
    scaled_params,
    simulate,
    step,
    vorticity_simulate,
)
from vortexlab.spectral import (
    FullLattice,
    State,
    derivative,
    gradient,
    leray_decompose,
    lp_norm,
    make_grid,
    parseval_sum,
    sample,
    to_physical,
    to_spectral,
)
from conftest import random_state, zero_field, zero_state

PARAMS = FluidParams()


def _keep(t, X):
    """A measure that keeps a copy of each band snapshot."""
    return X.copy()


def _nothing(t, X):
    """A measure that reads nothing."""
    return None


def _recorder(measured):
    """A measure that appends each snapshot time to `measured`."""
    return lambda t, X: measured.append(t)


def _states(X0: np.ndarray, cfg: SolverConfig):
    """A run kept by `_keep`, and its snapshots expanded to half-lattice stacks."""
    traj = simulate(X0, cfg, _keep)
    return traj, [cfg.grid.band.scatter(X) for X in traj.values]


def _l2(grid, X: np.ndarray) -> float:
    """sqrt of the sum of the squared Riemann L^2 norms of a half-lattice stack's rows."""
    return np.sqrt(sum(lp_norm(f, grid, 2) ** 2 for f in X))


def _density_only(rho: np.ndarray) -> np.ndarray:
    """The state (rho, 0, 0) of a density half spectrum, as a half-lattice stack."""
    X = np.zeros((3,) + rho.shape, complex)
    X[0] = rho
    return X


def _step(X: np.ndarray, dt: float, config: SolverConfig) -> np.ndarray:
    """`step` of the State whose components are a half-lattice stack's rows, as a stack."""
    out = step(State.from_stack(config.grid, X), dt, config)
    return np.stack([c.coeffs for c in (out.rho, *out.m)])


def _omegas(omega0: np.ndarray, grid, nu, times, dt):
    """A vorticity run kept by `_keep`, and its snapshots expanded to half spectra."""
    traj = vorticity_simulate(omega0, grid, nu, times, dt, _keep)
    return traj, [grid.band.scatter(w) for w in traj.values]


def _fourier_source(grid, X: np.ndarray, params: FluidParams) -> np.ndarray:
    """The live nonlinear source of a half-lattice stack's band, through a fresh run's
    scratch, expanded to the half lattice."""
    stack = grid.band.gather(X)
    out = solver._fourier_source(grid, params)(stack, np.empty_like(stack))
    return grid.band.scatter(out)


# Reference: an allocating half-lattice stack form of the live source and step, on the half
# lattice.  The live step must reproduce them bit for bit.  The live source keeps
# to_physical's inverse and runs the forward unscaled, F = conj(f_hat) / dx^2, with dx^2
# in its multipliers: conj s_i = sum_k (-i e_k dx^2) F_ik + sum_k a_ik G_k.


def _products(grid, X: np.ndarray, params: FluidParams) -> np.ndarray:
    """The source's five physical products f11, f12, f22, g1, g2 from to_physical's samples."""
    rho, w1, w2 = to_physical(X, grid)
    one = 1.0 + rho
    a1, a2 = w1 / one, w2 / one
    prem = params.pressure(1.0 + rho) - params.pressure(1.0) - params.c**2 * rho
    return np.stack([w1 * a1 + prem, w1 * a2, w2 * a2 + prem, w1 - a1, w2 - a2])


def _reference_source(grid, X: np.ndarray, params: FluidParams) -> np.ndarray:
    F11, F12, F22, G1, G2 = np.fft.rfft2(_products(grid, X, params))
    e1, e2, dx2, mu_lam = grid.eta1_odd, grid.eta2_odd, grid.dx**2, params.mu + params.lam
    lap = params.mu * grid.eta_sq
    i1, i2 = (-1j * dx2) * e1, (-1j * dx2) * e2
    a11, a12 = (lap + mu_lam * e1**2) * dx2, mu_lam * (e1 * e2) * dx2
    a22 = (lap + mu_lam * e2**2) * dx2
    t1 = a11 * G1 + a12 * G2 + i1 * F11 + i2 * F12
    t2 = a12 * G1 + a22 * G2 + i1 * F12 + i2 * F22
    s1, s2 = grid.make_hermitian(np.conj(np.stack([t1, t2])) * grid.dealias_mask)
    return np.stack([zero_field(grid), s1, s2])


def _scaled_transform_source(grid, X: np.ndarray, params: FluidParams) -> np.ndarray:
    """The source through the scaled half-lattice transforms, with div g formed first:
    a second, independent oracle, equal to the live source up to rounding."""
    f11, f12, f22, g1, g2 = to_spectral(_products(grid, X, params), grid)
    e1, e2 = grid.eta1_odd, grid.eta2_odd
    visc = params.mu * grid.eta_sq
    div_g = (params.mu + params.lam) * (e1 * g1 + e2 * g2)
    s1 = 1j * (e1 * f11 + e2 * f12) + visc * g1 + e1 * div_g
    s2 = 1j * (e1 * f12 + e2 * f22) + visc * g2 + e2 * div_g
    mask = grid.dealias_mask
    return np.stack([zero_field(grid), s1 * mask, s2 * mask])


def _reference_step(grid, X: np.ndarray, h: float, params: FluidParams, scheme: str):
    """One step of length h, its weights built on the grid's half lattice."""
    N = partial(_reference_source, grid)
    exp = s_symbol_grid(h, grid, params)
    phi1, phi2, phi3 = (phi_symbol_grid(k, h, grid, params) for k in (1, 2, 3))
    if scheme == "etd2":
        n0 = N(X, params)
        a = exp.apply(X) + phi1.apply(n0)
        n1 = N(a, params)
        return a + phi2.apply(n1 - n0)
    exp_half = s_symbol_grid(0.5 * h, grid, params)
    phi1_half = phi_symbol_grid(1, 0.5 * h, grid, params)
    p1, p2, p3 = phi1.entries, phi2.entries, phi3.entries
    w_alpha = KernelSymbol(grid, p1 + p2 * -3.0 + p3 * 4.0)
    w_beta = KernelSymbol(grid, p2 * 2.0 + p3 * -4.0)
    w_gamma = KernelSymbol(grid, p3 * 4.0 + p2 * -1.0)
    n0 = N(X, params)
    ex_half = exp_half.apply(X)
    a = ex_half + phi1_half.apply(n0)
    na = N(a, params)
    b = ex_half + phi1_half.apply(na)
    nb = N(b, params)
    c = exp_half.apply(a) + phi1_half.apply(nb * 2.0 - n0)
    nc = N(c, params)
    return exp.apply(X) + w_alpha.apply(n0) + w_beta.apply(na + nb) + w_gamma.apply(nc)


def _bump_state(grid, eps, widths=(8.0, 10.0, 12.0)):
    """Localized zero-mean generic state of amplitude ~eps with all parts."""
    rho = sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / widths[0]) * (1 + 0.3 * a / widths[0]))
    rho[0, 0] = 0.0
    rho *= eps
    par = gradient(sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / widths[1])), grid)
    psi = sample(grid, lambda a, b: np.exp(-((a - 1) ** 2 + b**2) / widths[2]))
    perp = (derivative(psi, grid, (0, 1)) * -1.0, derivative(psi, grid, (1, 0)))
    m = (par[0] * (0.7 * eps) + perp[0] * (0.5 * eps), par[1] * (0.7 * eps) + perp[1] * (0.5 * eps))
    return np.stack((rho, *m)) * grid.dealias_mask


def test_nonlinear_terms_zero_state():
    grid = make_grid(32, 20.0)
    src = _fourier_source(grid, zero_state(grid), PARAMS)
    assert all(np.abs(c).max() == 0.0 for c in src)


def test_nonlinear_terms_density_only():
    grid = make_grid(64, 40.0)
    rho = sample(grid, lambda a, b: 0.01 * np.exp(-(a**2 + b**2) / 8.0)) * grid.dealias_mask
    src = _fourier_source(grid, _density_only(rho), PARAMS)
    assert np.abs(src[0]).max() == 0.0
    # momentum flux and viscous terms vanish: the source is -grad of the
    # dealiased pressure remainder alone, conj((-i eta dx^2) F) for its unscaled
    # forward transform F, and within rounding of the scaled transform's gradient
    mask = grid.dealias_mask
    r = to_physical(rho, grid)
    P = np.fft.rfft2(pressure_remainder(PARAMS, r))
    prem = to_spectral(pressure_remainder(PARAMS, r), grid) * mask
    for m_k, eta in zip(src[1:], (grid.eta1_odd, grid.eta2_odd)):
        unscaled = grid.make_hermitian(np.conj(((-1j * grid.dx**2) * eta) * P) * mask)
        assert np.array_equal(m_k, unscaled)
        scaled = (-1j * eta) * -prem * mask
        assert np.abs(m_k - scaled).max() <= 1e-13 * np.abs(scaled).max()
    # remainder of the gamma law at r: P(1+r)-P(1)-c^2 r = c^2 (gamma-1)/2 r^2 + O(r^3)
    expected = to_spectral(-(PARAMS.c**2 * (PARAMS.gamma - 1) / 2) * r**2, grid)
    scale = np.abs(expected).max()
    assert np.abs(-prem - expected * mask).max() < 0.05 * scale


@pytest.mark.parametrize("n, L, eps", [(16, 20.0, 1e-2), (64, 50.0, 1e-2), (256, 200.0, 3e-2)])
def test_source_matches_the_scaled_transform_form(n, L, eps):
    # the unscaled forward with dx^2 in the multipliers reorders the rounding only;
    # column 0 of the band source is exactly Hermitian
    grid = make_grid(n, L)
    X = _bump_state(grid, eps)
    got, ref = _fourier_source(grid, X, PARAMS), _scaled_transform_source(grid, X, PARAMS)
    scale = max(np.abs(c).max() for c in ref[1:])
    for a, b in zip(got[1:], ref[1:], strict=True):
        assert np.abs(a - b).max() <= 1e-13 * scale
        col = grid.band.gather(a)[:, 0]
        assert np.array_equal(col, np.conj(col[grid.band.conj_rows]))
    assert np.abs(got[0]).max() == 0.0


def test_nonlinear_terms_quadratic_scaling():
    grid = make_grid(64, 40.0)
    vals = []
    for eps in (1e-3, 1e-2):
        X = _bump_state(grid, eps)
        vals.append(_l2(grid, _fourier_source(grid, X, PARAMS)))
    expo = np.log(vals[1] / vals[0]) / np.log(10.0)
    assert abs(expo - 2.0) < 0.05


def test_nonlinear_assembly_matches_direct_divergence():
    # independent oracle on the full lattice with complex transforms:
    # -div(m (x) m/(1+r)) - grad P_rem plus the viscous terms of m r/(1+r)
    grid = make_grid(64, 40.0)
    full = FullLattice(grid)
    X = _bump_state(grid, 1e-2)
    rho, *w = to_physical(X, grid)
    one = 1.0 + rho
    keep = np.abs(full.k_index) <= grid.n // 3  # the 2/3 rule per axis
    mask = keep[:, None] & keep[None, :]
    L2 = grid.L**2
    prem_hat = np.fft.ifft2(pressure_remainder(PARAMS, rho)) * L2 * mask
    e = (full.eta1_odd, full.eta2_odd)
    direct = np.zeros((2, grid.n, grid.n), dtype=np.complex128)
    for i in range(2):
        for k in range(2):
            t_ik = np.fft.ifft2(w[i] * w[k] / one) * L2 * mask
            direct[i] += (-1j * e[k]) * (-t_ik)
        direct[i] += (-1j * e[i]) * (-prem_hat)
    # viscous part
    g = [np.fft.ifft2(w[i] * rho / one) * L2 * mask for i in range(2)]
    div_g = e[0] * g[0] + e[1] * g[1]
    for i in range(2):
        direct[i] += PARAMS.mu * full.eta_sq * g[i] + (PARAMS.mu + PARAMS.lam) * e[i] * div_g
    scale = np.abs(direct).max()
    # the source stores the k2 >= 0 columns of the full lattice
    fast = _fourier_source(grid, X, PARAMS)
    half = grid.n // 2 + 1
    assert np.abs(fast[1] - direct[0][:, :half]).max() < 1e-10 * scale
    assert np.abs(fast[2] - direct[1][:, :half]).max() < 1e-10 * scale
    assert np.abs(fast[0]).max() == 0.0


def test_vacuum_guard():
    grid = make_grid(32, 20.0)
    rho = sample(grid, lambda a, b: -0.7 * np.exp(-(a**2 + b**2) / 8.0))
    with pytest.raises(VacuumError):
        _fourier_source(grid, _density_only(rho), PARAMS)


def _two_dips(grid):
    """A density band stack whose 1 + rho dips below 0.5 in the second slab of rows and
    below 0 in the last, and its samples."""
    dips = ((0.6, -grid.L / 8), (1.2, 3 * grid.L / 8))  # (depth, x1) of the two dips
    rho = sample(grid, lambda a, b: sum(-depth * np.exp(-((a - at) ** 2 + b**2) / 4.0)
                                        for depth, at in dips)) * grid.dealias_mask
    return grid.band.gather(_density_only(rho)), to_physical(rho, grid)


def _nan_in_last_slab(monkeypatch, n):
    """Make each inverse row pass that ends at row n write NaN into one density sample."""
    irfftn = np.fft.irfftn

    def patched(a, *args, **kwargs):
        out = irfftn(a, *args, **kwargs)
        if _first_row(a) + a.shape[-2] == n:
            out[(0,) * (out.ndim - 2) + (-1, 0)] = np.nan
        return out

    monkeypatch.setattr(np.fft, "irfftn", patched)


def test_vacuum_guard_reads_every_slab():
    # the second slab's dip trips the guard, but its minimum is the whole field's, and no
    # slab divides by 1 + rho <= 0
    grid = make_grid(128, 64.0)
    X, rho = _two_dips(grid)
    rows = min(128, spectral.SLAB_ROWS)
    assert 1.0 + rho[rows : 2 * rows].min() < 0.5 and 1.0 + rho[:rows].min() > 0.5
    assert 1.0 + rho[-rows:].min() < 0.0 < 1.0 + rho[:-rows].min()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VacuumError) as info:
            solver._fourier_source(grid, PARAMS)(X, np.empty_like(X))
    assert info.value.min_density == float(1.0 + rho.min())


def test_nan_in_the_last_slab_is_non_finite(monkeypatch):
    # NaN only in the last slab's samples aborts as non-finite, not as the vacuum the
    # earlier dips show, with no warning; the diagnostics report a NaN minimum
    grid = make_grid(128, 64.0)
    X, _ = _two_dips(grid)
    source, diagnostics = solver._fourier_source(grid, PARAMS), solver._diagnostics(grid)
    _nan_in_last_slab(monkeypatch, 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverAbort, match=r"^non-finite state: min\(1 \+ rho_tilde\) = nan$"):
            source(X, np.empty_like(X))
        assert np.isnan(diagnostics(X, 0.0)["min_density"])


def test_min_density_is_the_guarded_ratio_away_from_unit_reference_density():
    # at rho_star = 4 a density dip of -0.6 is min(rho / rho_star) = 0.85, the quantity
    # the vacuum guard bounds, and the run goes on; 1 + min(rho_tilde) would read 0.40
    grid = make_grid(64, 50.0)
    params = FluidParams(rho_star=4.0)
    rho = sample(grid, lambda a, b: -0.6 * np.exp(-(a**2 + b**2) / 8.0)) * grid.dealias_mask
    cfg = SolverConfig(grid=grid, params=params, T=0.5, snapshot_times=(0.5,))
    first = simulate(_density_only(rho), cfg, _nothing).diagnostics[0]["min_density"]
    assert first == pytest.approx(1.0 + to_physical(rho, grid).min() / 4.0, rel=1e-12)
    assert first == pytest.approx(0.85, abs=1e-3)


def _count_calls(monkeypatch, name, replacement=None):
    """Calls of `solver.<name>` (or of `replacement`, standing in for it) from now on, also
    where the scheme table `solver._SCHEMES` holds it."""
    calls, original = [], getattr(solver, name)
    fn = replacement or original

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(solver, name, counted)
    for scheme, pair in list(solver._SCHEMES.items()):
        monkeypatch.setitem(solver._SCHEMES, scheme,
                            tuple(counted if f is original else f for f in pair))
    return calls


def test_non_finite_state_trips_the_guards(monkeypatch):
    grid = make_grid(32, 20.0)
    X0 = _bump_state(grid, 1e-2)
    bad = X0.copy()
    bad[0, 1, 1] = np.nan
    with pytest.raises(SolverAbort, match="non-finite"):
        _fourier_source(grid, bad, PARAMS)
    steps = _count_calls(monkeypatch, "_etd2_step")
    linear_steps = _count_calls(monkeypatch, "s_symbol_grid")
    measured = []
    for nonlinear in (True, False):
        cfg = SolverConfig(
            grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0), nonlinear=nonlinear
        )
        with pytest.raises(SolverAbort, match=r"^non-finite state: H\^s = nan$"):
            simulate(bad, cfg, _recorder(measured))
    assert steps == linear_steps == []  # nothing is integrated from a NaN state
    assert measured == []  # nor is the NaN state measured
    # a step that goes non-finite stops the run at that snapshot: the first gap's
    # two steps run, and none of the second gap's
    def go_non_finite(X, *args):
        X[...] = grid.band.gather(bad)

    steps = _count_calls(monkeypatch, "_etd2_step", go_non_finite)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    with pytest.raises(SolverAbort, match=r"^non-finite state: H\^s = nan$"):
        simulate(X0, cfg, _recorder(measured))
    assert len(steps) == math.ceil(0.5 / cfg.dt_effective) == 2
    assert measured == []  # t = 0 is only checked, and the non-finite snapshot not measured


@pytest.mark.parametrize("bad_step, t_abort, steps_run", [(1, "0.5", 2), (3, "1.2", 5)])
def test_non_finite_vorticity_snapshot_aborts(monkeypatch, bad_step, t_abort, steps_run):
    # a step that writes NaN stops the run at the next snapshot, (0.5, 1.2) taking
    # 2 and 3 steps of the ETD2 step: no step of a later gap runs, and the
    # non-finite snapshot is not measured (t = 0 is checked, never measured)
    grid = make_grid(32, 20.0)
    step_etd2 = solver._etd2_step

    def go_non_finite(X, *args):
        step_etd2(X, *args)
        if len(steps) == bad_step:
            X[0, 1, 1] = np.nan

    steps, measured = _count_calls(monkeypatch, "_etd2_step", go_non_finite), []
    with pytest.raises(SolverAbort, match=f"^non-finite state: vorticity at t = {t_abort}$"):
        vorticity_simulate(_perturbed_dipole(grid, 0.5), grid, 1.0, (0.5, 1.2), 0.25,
                           _recorder(measured))
    assert len(steps) == steps_run
    assert measured == [t for t in (0.5,) if t < float(t_abort)]


def test_step_zero_state():
    grid = make_grid(32, 20.0)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(1.0,))
    out = _step(zero_state(grid), 0.1, cfg)
    assert all(np.abs(c).max() == 0.0 for c in out)


def test_step_linear_limit_exact():
    grid = make_grid(64, 40.0)
    X = _bump_state(grid, 1e-2)
    cfg = SolverConfig(
        grid=grid, params=PARAMS, T=1.0, snapshot_times=(1.0,), nonlinear=False
    )
    out = _step(X, 0.2, cfg)
    direct = s_symbol_grid(0.2, grid, PARAMS).apply(X)
    diff = out - direct
    assert max(np.abs(c).max() for c in diff) == 0.0


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
@pytest.mark.parametrize("dt", [math.nan, math.inf, 100.0, 0.0, -0.1],
                         ids=["nan", "inf", "above-cfl", "zero", "negative"])
def test_step_checks_dt_before_any_build(monkeypatch, dt, nonlinear):
    # step used to build NaN weights at dt = nan or inf and return a NaN state (linear) or
    # abort in the source after the compute, and to step past the CFL bound, 0.3125 here
    grid = make_grid(32, 20.0)
    X = _bump_state(grid, 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, nonlinear=nonlinear)
    _step(X, cfg.dt_effective, cfg)  # at the bound itself, as the benchmark probe steps
    builds = [_count_calls(monkeypatch, name) for name in ("s_symbol_grid", "phi_symbol_grid")]
    with pytest.raises(SolverError, match="^time step must be finite and positive|CFL"):
        _step(X, dt, cfg)
    assert builds == [[], []]


@pytest.mark.parametrize("scheme,min_order", [("etd2", 1.9), ("etd4", 3.7)])
def test_temporal_convergence_order(scheme, min_order):
    # global Richardson self-convergence at fixed horizon
    grid = make_grid(64, 50.0)
    X0 = _bump_state(grid, 1e-2)
    T = 1.0
    cfg = SolverConfig(grid=grid, params=PARAMS, T=T, snapshot_times=(T,), scheme=scheme)

    def advance(h):
        X = X0
        for _ in range(int(round(T / h))):
            X = _step(X, h, cfg)
        return X

    hs = [0.2, 0.1, 0.05, 0.025]
    sols = {h: advance(h) for h in hs + [hs[-1] / 2]}
    errs = [_l2(grid, sols[h] - sols[h / 2]) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= min_order


def test_simulate_zero_initial_data():
    grid = make_grid(32, 20.0)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    traj = simulate(zero_state(grid), cfg, _nothing)
    assert all(d["hs"] == 0.0 and d["min_density"] == 1.0 for d in traj.diagnostics)
    keys = {"t", "mass", "min_density", "hs", "grad_hs1", "kawashima_energy"}
    assert all(set(d) == keys for d in traj.diagnostics)


@pytest.mark.parametrize("case", ["state", "other-n", "band"])
def test_simulate_rejects_data_that_is_not_a_stack_on_its_grid(monkeypatch, case):
    # simulate takes the (3, n, n/2 + 1) half-lattice stack on the config's grid: a State, a
    # stack of another n or a band stack is a SolverError naming that shape before any build
    # (a bare array used to raise AttributeError on its missing grid)
    grid = make_grid(32, 20.0)
    X0 = {"state": lambda: State.from_stack(grid, _bump_state(grid, 1e-2)),
          "other-n": lambda: _bump_state(make_grid(64, 40.0), 1e-2),
          "band": lambda: grid.band.gather(_bump_state(grid, 1e-2))}[case]()
    builds = [_count_calls(monkeypatch, name) for name in ("s_symbol_grid", "phi_symbol_grid")]
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    shape = re.escape("(3, 32, 17)")
    for nonlinear in (True, False):
        with pytest.raises(SolverError, match=f"^initial data must be .* of shape {shape}, got "):
            simulate(X0, dataclasses.replace(cfg, nonlinear=nonlinear), _nothing)
    assert builds == [[], []]


def test_simulate_takes_real_coefficients_as_spectra():
    # a real stack of the right shape is spectra with zero imaginary parts: the run casts
    # it once (its first step used to raise numpy's UFuncTypeError, writing complex into it)
    grid = make_grid(32, 20.0)
    X0 = _bump_state(grid, 1e-2).real.copy()
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    for nonlinear in (True, False):
        run = partial(simulate, config=dataclasses.replace(cfg, nonlinear=nonlinear),
                      measure=_keep)
        got, ref = run(X0), run(X0.astype(complex))
        assert all(np.array_equal(a, b) for a, b in zip(got.values, ref.values, strict=True))


def test_simulate_mass_exactly_conserved():
    grid = make_grid(64, 50.0)
    X0 = _bump_state(grid, 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=2.0, snapshot_times=(1.0, 2.0))
    traj = simulate(X0, cfg, _nothing)
    masses = [d["mass"] for d in traj.diagnostics]
    assert max(abs(m - masses[0]) for m in masses) < 1e-14


def test_simulate_divergence_free_data_keeps_density_second_order():
    grid = make_grid(128, 100.0)
    eps = 1e-2
    omega = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    u = biot_savart(omega, grid)
    amp = eps / max(lp_norm(u, grid, np.inf), 1e-300)
    X0 = np.stack([zero_field(grid), u[0] * amp, u[1] * amp])
    X0 *= grid.dealias_mask
    cfg = SolverConfig(grid=grid, params=PARAMS, T=4.0, snapshot_times=(1.0, 2.0, 4.0))
    traj, states = _states(X0, cfg)
    for t, X in zip(cfg.snapshot_times, states, strict=True):
        rho, *m = X
        assert lp_norm(rho, grid, np.inf) < 30.0 * eps**2
        # m_perp follows the heat flow up to the quadratic coupling
        weight = heat_weight(0, t, grid, PARAMS.mu)
        heat = KernelSymbol(grid, KernelSymbol.identity(grid).entries * weight).apply(X0)
        perp, _ = leray_decompose(m, grid)
        diff = (perp[0] - heat[1], perp[1] - heat[2])
        assert lp_norm(diff, grid, 2) < 30.0 * eps**2


def test_simulate_preserves_reflection_symmetry():
    # under x1 -> -x1: rho even, m1 odd, m2 even is an invariant subspace
    grid = make_grid(64, 50.0)
    eps = 1e-2
    rho = sample(grid, lambda a, b: eps * np.exp(-(a**2 + b**2) / 8.0) * (1 + 0.2 * b))
    rho[0, 0] = 0.0
    phi_f = sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / 10.0) * (1 - 0.1 * b))
    m = gradient(phi_f, grid)
    X0 = np.stack([rho, m[0] * eps, m[1] * eps]) * grid.dealias_mask

    def mirror(v, sign):
        return sign * np.roll(v[::-1, :], 1, axis=0)

    cfg = SolverConfig(grid=grid, params=PARAMS, T=2.0, snapshot_times=(1.0, 2.0))
    for X in _states(X0, cfg)[1]:
        r, m1, m2 = to_physical(X, grid)
        scale = max(np.abs(r).max(), np.abs(m1).max(), np.abs(m2).max())
        assert np.abs(r - mirror(r, +1)).max() < 1e-10 * scale
        assert np.abs(m1 - mirror(m1, -1)).max() < 1e-10 * scale
        assert np.abs(m2 - mirror(m2, +1)).max() < 1e-10 * scale


# Scale covariance.  With x = l x' and t = tau t', a fluid (mu, lam, pressure_scale) in
# reduced variables is the fluid (mu tau/l^2, lam tau/l^2, pressure_scale tau^2/l^2) of
# the same gamma, and a momentum scales by tau/l.  The units l = mu/c and tau = mu/c^2 of
# the reduced fluid make it the unit fluid: mu = rho_star = pressure_scale = 1, with its
# gamma and lam/mu.  On (rho, m1, m2), M = diag(1, tau/l, tau/l) maps a state to the unit
# fluid's.
_FLUID = FluidParams(mu=0.7, lam=0.4, rho_star=3.0, pressure_scale=1.3)


def _natural_units(fluid: FluidParams):
    """(l, tau, the unit fluid, M as a column to broadcast over a (3, ...) stack)."""
    reduced = scaled_params(fluid)
    ell, tau = reduced.mu / reduced.c, reduced.mu / reduced.c**2
    M = np.array([1.0, tau / ell, tau / ell])[:, None, None]
    return ell, tau, FluidParams(lam=fluid.lam / fluid.mu, gamma=fluid.gamma), M


def test_simulate_is_covariant_under_the_fluid_units():
    # the fluid, rho_star, mu, lam and pressure_scale all off their defaults, is the unit
    # fluid on the box, horizon, snapshot times and CFL time step divided by its units,
    # from the same samples: coefficients divided by rho_star l^2 (the cell area and the
    # reduced variables) and the momentum multiplied by tau/l.  Each measured snapshot and
    # the min-density series agree to 1e-12 relative
    ell, tau, unit, M = _natural_units(_FLUID)
    to_unit = M / (_FLUID.rho_star * ell**2)
    unit_grid, times = make_grid(64, 50.0), (1.0, 2.0, 4.0)
    X_unit = _bump_state(unit_grid, 0.1)
    runs = []
    for fluid, L, X0, t_unit in ((_FLUID, 50.0 * ell, X_unit / to_unit, tau),
                                 (unit, 50.0, X_unit, 1.0)):
        cfg = SolverConfig(make_grid(64, L), fluid, T=times[-1] * t_unit,
                           snapshot_times=tuple(t * t_unit for t in times))
        runs.append(simulate(X0, cfg, _keep))
    fluid_run, unit_run = runs
    assert len(fluid_run.values) == len(unit_run.values) == len(times)
    for got, want in zip(fluid_run.values, unit_run.values, strict=True):
        for a, b in zip(got * to_unit, want, strict=True):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    for a, b in zip(fluid_run.diagnostics, unit_run.diagnostics, strict=True):
        assert a["min_density"] == pytest.approx(b["min_density"], rel=1e-12)
    # the quadratic terms matter at this amplitude: the linear flow is off by far more
    linear = s_symbol_grid(times[-1], unit_grid.band, unit).apply(unit_grid.band.gather(X_unit))
    assert np.abs(linear - unit_run.values[-1]).max() > 1e-4 * np.abs(linear).max()


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_phi_symbols_are_covariant_under_the_fluid_units(rng, kind):
    # phi_symbol_grid at (t, eta) of the reduced fluid against the unit fluid's at
    # (t/tau, l eta), as M S M^-1: the k >= 1 weights t phi_k carry one more 1/tau
    ell, tau, unit, M = _natural_units(_FLUID)
    fluid, L = scaled_params(_FLUID), 20.0
    fluid_grid, unit_grid = make_grid(32, L), make_grid(32, L / ell)
    X = random_state(fluid_grid, rng)
    for k, t in itertools.product(range(4), (0.3, 2.0)):
        got = phi_symbol_grid(k, t / tau, unit_grid, unit, kind).apply(M * X)
        want = M * phi_symbol_grid(k, t, fluid_grid, fluid, kind).apply(X) / (tau if k else 1.0)
        for a, b in zip(got, want, strict=True):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_simulate_carries_no_state_across_runs():
    # a repeated run in one process, after runs at another amplitude and on
    # another grid with the same dx (so the same step), reproduces the first
    grid, other = make_grid(32, 20.0), make_grid(16, 10.0)

    def run(g, eps):
        cfg = SolverConfig(grid=g, params=PARAMS, T=1.0, snapshot_times=(0.4, 1.0))
        return simulate(_bump_state(g, eps), cfg, _keep)

    first = run(grid, 1e-2)
    run(grid, 3e-2)
    run(other, 1e-2)
    again = run(grid, 1e-2)
    assert first.times == again.times
    assert first.diagnostics == again.diagnostics
    assert all(np.array_equal(a, b) for a, b in zip(first.values, again.values, strict=True))


# grids of one slab of rows, two (n = 64) and eight, at one spacing
_SLAB_GRIDS = {"n16": (16, 12.5), "n256": (256, 200.0)}


@pytest.mark.parametrize("scheme, n, L", [("etd2", 64, 50.0), ("etd4", 64, 50.0),
                                          *(("etd2", *g) for g in _SLAB_GRIDS.values())],
                         ids=["etd2", "etd4", *(f"etd2-{k}" for k in _SLAB_GRIDS)])
def test_step_bitwise_equals_reference(scheme, n, L):
    # 5 steps over two snapshot gaps (2 + 3), each gap's step as simulate sizes it
    grid = make_grid(n, L)
    X0 = random_state(grid, np.random.default_rng(7), 1e-2) * grid.dealias_mask
    before = X0.copy()
    dt = 0.1
    cfg = SolverConfig(
        grid=grid, params=PARAMS, T=0.5, dt=dt, snapshot_times=(0.2, 0.5), scheme=scheme
    )
    seen = []  # what each measure call is handed
    traj = simulate(X0, cfg, lambda t, X: seen.append(X) or X.copy())
    states = [grid.band.scatter(X) for X in traj.values]
    X, t_prev, expected = X0, 0.0, []
    for t_snap in cfg.snapshot_times:
        gap = t_snap - t_prev
        nsub = max(1, int(np.ceil(gap / dt - 1e-12)))
        # the oracle's weights live on the grid's half lattice, not on the band
        for _ in range(nsub):
            X = _reference_step(grid, X, gap / nsub, PARAMS, scheme)
        expected.append(X)
        t_prev = t_snap
    assert len(traj.times) - 1 == len(traj.values) == 2
    for got, ref in zip(states, expected, strict=True):
        for a, b in zip(got, ref, strict=True):
            assert np.array_equal(a, b)
    # step() makes the same step on its own workspace
    one = _step(X0, dt, cfg)
    ref = _reference_step(grid, X0, dt, PARAMS, scheme)
    for a, b in zip(one, ref, strict=True):
        assert np.array_equal(a, b)
    # simulate leaves X0 alone, and hands each measure a read-only snapshot that shares
    # no memory with X0
    assert np.array_equal(X0, before)
    assert len(seen) == 2 and not any(X.flags.writeable for X in seen)
    assert not any(np.shares_memory(X, X0) for X in seen)


@pytest.mark.parametrize("scheme,nonlinear", [("etd2", True), ("etd4", True), ("etd2", False)])
def test_simulate_snapshots_vanish_off_the_band(scheme, nonlinear):
    # the step stores only the 2/3-rule band; snapshots expand it with exact zeros,
    # from initial data that are not dealiased
    grid = make_grid(32, 20.0)
    X0 = random_state(grid, np.random.default_rng(5), 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.4, 1.0),
                       scheme=scheme, nonlinear=nonlinear)
    traj, states = _states(X0, cfg)
    off = ~grid.dealias_mask
    assert len(traj.times) == 3
    assert any(np.abs(c[off]).max() > 0 for c in X0)
    for X in states:
        assert all(np.all(c[off] == 0.0) for c in X)
        assert np.abs(X[1][grid.dealias_mask]).max() > 0


def test_vorticity_simulate_snapshots_vanish_off_the_band():
    grid = make_grid(64, 50.0)
    omega0 = _perturbed_dipole(grid, 0.5)
    off = ~grid.dealias_mask
    assert np.abs(omega0[off]).max() > 0
    traj, omegas = _omegas(omega0, grid, 1.0, (0.5, 1.2), 0.25)
    assert len(traj.times) == 3
    for w in omegas:
        assert np.all(w[off] == 0.0)
        assert np.abs(w[grid.dealias_mask]).max() > 0


def _run(which, grid, times, measure):
    """A run at n = 64 to t = 2 with the given snapshot times and measure, as a
    zero-argument function, and the size of its band stack in bytes."""
    if which == "compressible":
        cfg = SolverConfig(grid=grid, params=PARAMS, T=2.0, snapshot_times=times)
        run, fields = partial(simulate, _bump_state(grid, 1e-2), cfg, measure), 3
    else:
        omega0 = _perturbed_dipole(grid, 0.5)
        run, fields = partial(vorticity_simulate, omega0, grid, 1.0, times, 0.25, measure), 1
    return run, fields * np.empty(grid.band.spectral_shape, complex).nbytes


def _traced(run):
    """The traced memory `run()` holds on return and its peak, both in bytes, after two
    warm-up runs on the same grid: the first fills its cached wavenumbers and weights, the
    second the interpreter's free lists, whose freed tuples and lists a traced run would
    otherwise count once (about 30 KB for 16 snapshots at n = 64 in a fresh process)."""
    import tracemalloc

    run()
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    del result
    return held, peak


@pytest.mark.parametrize("which", ["compressible", "vorticity"])
def test_runs_measure_only_after_t_0(which):
    # t = 0 is checked, not measured: a run measures each snapshot time once, in order, and
    # returns one value per snapshot time, its times keeping t = 0 (both runs used to
    # measure t = 0 too)
    grid, times, measured = make_grid(32, 20.0), (0.5, 1.0, 1.5), []
    run, _ = _run(which, grid, times, lambda t, X: measured.append(t) or len(measured))
    traj = run()
    assert measured == list(times)
    assert traj.times == (0.0, *times)
    assert traj.values == (1, 2, 3) and len(traj.values) == len(traj.times) - 1


@pytest.mark.parametrize("which", ["compressible", "vorticity"])
def test_trajectory_holds_only_its_band_snapshots(which):
    # with a measure that keeps a copy of each snapshot, the memory a returned trajectory
    # holds is those band snapshots, one per snapshot time, not half spectra
    grid, times = make_grid(64, 50.0), (0.5, 1.0, 1.5, 2.0)
    run, stack_bytes = _run(which, grid, times, _keep)
    held, _ = _traced(run)
    assert held <= 1.1 * len(times) * stack_bytes


@pytest.mark.parametrize("which", ["compressible", "vorticity"])
def test_run_memory_stays_flat_as_snapshots_grow(which):
    # a run holds no snapshot of its own: with a scalar measure, 16 snapshot times
    # peak within half a band stack of 4 (holding every snapshot took 12 stacks more)
    grid = make_grid(64, 50.0)
    peaks = []
    for count in (4, 16):
        times = tuple(np.linspace(2.0 / count, 2.0, count))
        run, stack_bytes = _run(which, grid, times, lambda t, X: float(np.abs(X).max()))
        peaks.append(_traced(run)[1])
    assert abs(peaks[1] - peaks[0]) < 0.5 * stack_bytes


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 a caller's stack holds call arguments")
@pytest.mark.parametrize("which", ["compressible", "vorticity"])
def test_runs_free_their_initial_data_after_the_gather(which):
    # a run reads only its band: once gathered, initial data the caller does not hold
    # are freed before the first measure
    grid, refs = make_grid(32, 20.0), []

    def data(make):
        refs.append(weakref.ref(made := make()))
        return made

    def freed(t, X):
        return refs[0]() is None

    if which == "compressible":
        cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
        traj = simulate(data(partial(_bump_state, grid, 1e-2)), cfg, freed)
    else:
        traj = vorticity_simulate(data(partial(_perturbed_dipole, grid, 0.5)), grid, 1.0,
                                  (0.5, 1.0), 0.25, freed)
    assert traj.values == (True, True)


@pytest.mark.parametrize("n, L", [(16, 20.0), (64, 50.0), (256, 200.0)])
def test_band_diagnostics_equal_the_full_lattice_formulas(n, L):
    # the snapshot diagnostics read the band; on dealiased data they are the
    # half-lattice formulas up to the order of the Parseval sums
    grid = make_grid(n, L)
    X = random_state(grid, np.random.default_rng(n), 0.3) * grid.dealias_mask
    got = solver._diagnostics(grid)(grid.band.gather(X), 0.5)
    pairs = [(c, c) for c in X]
    s = solver.HS_INDEX
    hs = np.sqrt(parseval_sum(grid, pairs, (1.0 + grid.eta_sq) ** s))
    grad = np.sqrt(parseval_sum(grid, pairs, grid.eta_sq * (1.0 + grid.eta_sq) ** (s - 1)))
    assert got["t"] == 0.5 and X[0, 0, 0] != 0.0
    assert got["mass"] == float(X[0, 0, 0].real)
    assert got["min_density"] == float(1.0 + to_physical(X[0], grid).min())
    assert abs(got["hs"] - hs) <= 1e-13 * hs
    assert abs(got["grad_hs1"] - grad) <= 1e-13 * grad


def _warm_step_peak(grid, advance) -> float:
    """tracemalloc peak of 3 calls of `advance` after one warm-up call, in
    half-lattice arrays."""
    import tracemalloc

    advance()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            advance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / np.empty(grid.spectral_shape, dtype=np.complex128).nbytes


def test_etd2_step_allocates_no_lattice_temporaries():
    # after warm-up, 3 ETD2 steps on a run's stages peak at a few half-lattice
    # arrays (apply's scratch among them), not at a state per term
    grid = make_grid(64, 50.0)
    weights = solver._etd2_weights(grid.band, PARAMS, cfl_limit(grid, PARAMS))
    X = grid.band.gather(random_state(grid, np.random.default_rng(3), 1e-2))
    stages, source = np.empty((3,) + X.shape, X.dtype), solver._fourier_source(grid, PARAMS)
    assert _warm_step_peak(grid, lambda: solver._etd2_step(X, stages, source, weights)) <= 4.0


def test_snapshot_diagnostics_allocate_no_lattice_temporaries():
    """A warm diagnostics call transforms the density on the run's band scratch.

    In half-lattice arrays at n = 128: the band Parseval sums' temporaries peak at
    about 1.12 (a complex band array is 0.45 of one).  A fresh samples array (0.98)
    or a fresh complex work array (1.0) would add about 1 more: 2.11 with both."""
    grid = make_grid(128, 100.0)
    X = grid.band.gather(random_state(grid, np.random.default_rng(4), 0.3))
    diagnostics = solver._diagnostics(grid)
    assert _warm_step_peak(grid, lambda: diagnostics(X, 0.5)) <= 1.5


@pytest.mark.parametrize("which, bound", [("compressible", 8.0), ("vorticity", 4.5),
                                          ("diagnostics", 1.5)])
def test_run_scratch_holds_slabs_not_sample_stacks(which, bound):
    """The scratch a run's source or diagnostics make once, at n = 256, in half-lattice
    arrays: 7.34, 4.16 and 1.35 with slabs of samples, 14.29, 6.76 and 2.22 when each
    held whole-array sample (and product) stacks."""
    import tracemalloc

    grid = make_grid(256, 200.0)
    build = {"compressible": partial(solver._fourier_source, grid, PARAMS),
             "vorticity": partial(solver._vorticity_source, grid),
             "diagnostics": partial(solver._diagnostics, grid)}[which]
    build()  # the grid's cached wavenumbers and weights
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scratch = build()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del scratch
    assert held / np.empty(grid.spectral_shape, complex).nbytes <= bound


def test_simulate_vacuum_abort_raises(monkeypatch):
    grid = make_grid(32, 20.0)
    rho = sample(grid, lambda a, b: -0.7 * np.exp(-(a**2 + b**2) / 8.0))
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    steps, measured = _count_calls(monkeypatch, "_etd2_step"), []
    with pytest.raises(VacuumError, match=r"^vacuum guard tripped: min\(1 \+ rho_tilde\) = "):
        simulate(_density_only(rho), cfg, _recorder(measured))
    assert len(steps) == 1  # the first step's source meets the vacuum
    assert measured == []  # t = 0 is checked, not measured


def test_simulate_energy_guard_aborts(monkeypatch):
    # an artificially tight blow-up factor exercises the abort path
    monkeypatch.setattr(solver, "BLOWUP_FACTOR", 0.1)
    grid = make_grid(32, 20.0)
    X0 = _bump_state(grid, 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    steps, measured = _count_calls(monkeypatch, "_etd2_step"), []
    with pytest.raises(SolverAbort, match=r"^energy blow-up: H\^s grew to .* \(> 0\.1 x initial"):
        simulate(X0, cfg, _recorder(measured))
    assert len(steps) == 2  # the first gap's steps; the offending snapshot stops the run
    assert measured == []  # and is not measured, nor is t = 0


def test_solver_config_validation():
    grid = make_grid(32, 20.0)
    limit = cfl_limit(grid, PARAMS)
    with pytest.raises(SolverError):
        SolverConfig(grid=grid, params=PARAMS, T=1.0, dt=2 * limit, snapshot_times=(1.0,))
    with pytest.raises(SolverError):
        SolverConfig(grid=grid, params=PARAMS, T=-1.0, snapshot_times=())
    with pytest.raises(SolverError):
        SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(2.0,))
    with pytest.raises(SolverError):
        SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(1.0,), scheme="rk4")


@pytest.mark.parametrize(
    "dt, times",
    [
        (-0.25, (1.0,)),
        (0.0, (1.0,)),
        (float("nan"), (1.0,)),
        (0.25, (2.0, 1.0)),
        (0.25, (0.0, 1.0)),
        (0.25, (float("nan"),)),
    ],
    ids=["dt-negative", "dt-zero", "dt-nan", "times-decreasing", "times-from-zero", "times-nan"],
)
def test_both_solvers_check_their_time_grid(dt, times):
    # the vorticity solver used to step backward in time, take one step per gap at
    # dt < 0, or fail with ZeroDivisionError at dt = 0; both share SolverConfig's checks
    grid = make_grid(32, 20.0)
    omega0 = dipole_vorticity_field(grid, 1, 4.0, PARAMS) * 1e-2
    with pytest.raises(SolverError):
        vorticity_simulate(omega0, grid, 1.0, times, dt, _nothing)
    with pytest.raises(SolverError):
        SolverConfig(grid=grid, params=PARAMS, T=2.0, dt=dt, snapshot_times=times)


_DTS = {"dt-none": None, "dt-0": 0.0, "dt-negative": -1.0, "dt-inf": math.inf,
        "dt-nan": math.nan}


@pytest.mark.parametrize("case", ["empty", "nu-nan", "nu-inf", "nu-0", "nu-negative",
                                  "omega-nan", *_DTS])
def test_vorticity_simulate_rejects_unusable_input_before_compute(monkeypatch, case):
    # no snapshot time, or a time step or viscosity that is not finite and positive, is a
    # SolverError before the gather, and non-finite data abort at t = 0: no step runs and
    # nothing is measured (the run used to return t = 0 alone, warn, integrate backward
    # heat, measure and step NaN data, or measure t = 0 and then fail on dt = None)
    grid = make_grid(32, 20.0)
    omega0, nu, times, dt = _perturbed_dipole(grid, 0.5), 1.0, (0.5, 1.0), 0.25
    error, match = SolverError, "^viscosity nu must be finite and positive, got "
    if case == "empty":
        times, match = (), "^a run needs at least one snapshot time$"
    elif case == "omega-nan":
        omega0[1, 1] = np.nan
        error, match = SolverAbort, "^non-finite state: vorticity at t = 0$"
    elif case in _DTS:
        dt, match = _DTS[case], "^time step must be finite and positive, got "
    else:
        nu = {"nu-nan": math.nan, "nu-inf": math.inf, "nu-0": 0.0, "nu-negative": -1.0}[case]
    steps, measured = _count_calls(monkeypatch, "_etd2_step"), []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            vorticity_simulate(omega0, grid, nu, times, dt, _recorder(measured))
    assert steps == [] and measured == []


def _steps_per_gap(run, steps) -> list:
    """The calls recorded in `steps` during each gap of `run(measure)`, none before t = 0."""
    return np.diff((0, *run(lambda t, X: len(steps)).values)).tolist()


def test_both_solvers_split_each_gap_into_equal_steps(monkeypatch):
    # each gap takes nsub = ceil(gap/dt - 1e-12) steps of gap/nsub: at dt = 0.25, gaps of
    # 0.5, 0.75 and 0.25 (1 + 1e-9) take 2, 3 and 2, and gaps within 1e-13 relative of
    # 3 dt take 3 (without the slack, the one above would take 4)
    grid, dt, nu = make_grid(32, 20.0), 0.25, 1.0
    times = tuple(itertools.accumulate((0.5, 0.75, 0.25 * (1 + 1e-9), 0.75 * (1 + 1e-13),
                                        0.75 * (1 - 1e-13))))
    gaps, nsubs = [b - a for a, b in zip((0.0,) + times, times)], [2, 3, 2, 3, 3]
    advance = _count_calls(monkeypatch, "_etd2_step")
    tables = _count_calls(monkeypatch, "_etd2_weights")
    cfg = SolverConfig(grid=grid, params=PARAMS, T=times[-1], dt=dt, snapshot_times=times)
    assert _steps_per_gap(partial(simulate, _bump_state(grid, 1e-2), cfg), advance) == nsubs
    assert [args[2] for args in tables] == [gap / nsub for gap, nsub in zip(gaps, nsubs)]

    etd2 = _count_calls(monkeypatch, "_etd2_step")
    run = partial(vorticity_simulate, _perturbed_dipole(grid, 0.5), grid, nu, times, dt)
    assert _steps_per_gap(run, etd2) == nsubs
    mag2, _, inverse = grid.band.shells
    for first, gap, nsub in zip(np.cumsum([0] + nsubs[:-1]), gaps, nsubs):
        heat = etd2[first][3][0].args[0]  # the gap's first step's heat factor
        assert np.array_equal(heat, np.exp(-nu * mag2 * (gap / nsub))[inverse])

    # a linear run applies one exact S(gap) per gap and takes no step
    builds, steps = _count_calls(monkeypatch, "s_symbol_grid"), len(advance)
    linear = dataclasses.replace(cfg, nonlinear=False)
    simulate(_bump_state(grid, 1e-2), linear, _nothing)
    assert [args[0] for args in builds] == gaps and len(advance) == steps


def test_scaled_params_equivalence():
    params = FluidParams(mu=2.0, lam=1.0, rho_star=4.0)
    s = scaled_params(params)
    assert s.rho_star == 1.0
    assert s.mu == pytest.approx(0.5)
    assert s.mu_par == pytest.approx(1.25)
    assert s.c == pytest.approx(params.c)


def test_simulate_reference_density_rescaling():
    # a run at rho_star = 4 is the rho_star = 1 run of the reduced variables,
    # scaled back by rho_star
    grid = make_grid(64, 50.0)
    params4 = FluidParams(mu=2.0, lam=1.0, rho_star=4.0)
    X0 = _bump_state(grid, 4e-2)
    times = (0.5, 1.0)
    cfg4 = SolverConfig(grid=grid, params=params4, T=1.0, snapshot_times=times)
    cfg1 = SolverConfig(grid=grid, params=scaled_params(params4), T=1.0, snapshot_times=times)
    states4, states1 = _states(X0, cfg4)[1], _states(X0 * 0.25, cfg1)[1]
    for X4, X1 in zip(states4, states1, strict=True):
        for ca, cb in zip(X4, X1):
            scale = max(np.abs(ca).max(), 1e-300)
            assert np.abs(ca - 4.0 * cb).max() < 1e-13 * scale


def duhamel_residual(X0: np.ndarray, trajectory, config: SolverConfig) -> float:
    """Residual of X(T) = S(T) X0 + int_0^T S(T-t') sum_k d_k Q_k(t') dt'.

    The integral is recomputed from the band of the initial data X0 and the band
    snapshots a run from X0 measured by `_keep` returns, with trapezoid
    weights, so the result is O(dt^2) plus snapshot-quadrature error.  The
    residual is measured in L^2 relative to the unit-plus-data scale so the
    linear-limit and amplitude-scaling contracts are both meaningful.
    """
    times = np.asarray(trajectory.times)
    if len(times) < 8:
        raise SolverError(f"Duhamel residual needs >= 8 snapshots, got {len(times)}")
    gaps = np.diff(times)
    if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12):
        raise SolverError("Duhamel residual needs uniformly spaced snapshots")
    rs = config.params.rho_star
    params = scaled_params(config.params)
    grid = config.grid
    T = float(times[-1])
    snapshots = (grid.band.scatter(X) for X in trajectory.values)
    states = [X * (1.0 / rs) for X in (X0 * grid.dealias_mask, *snapshots)]
    total = s_symbol_grid(T, grid, params).apply(states[0])
    if config.nonlinear:
        h = float(gaps[0])
        for k, (t_k, X_k) in enumerate(zip(times, states)):
            w = h if 0 < k < len(times) - 1 else 0.5 * h
            src = _fourier_source(grid, X_k, params)
            total = total + s_symbol_grid(T - float(t_k), grid, params).apply(src) * w
    diff = states[-1] - total
    num = _l2(grid, diff)
    den = 1.0 + _l2(grid, states[0])
    return float(num / den)


def _duhamel_setup(grid, eps, dt, T):
    X0 = _bump_state(grid, eps)
    n = int(round(T / dt))
    cfg = SolverConfig(
        grid=grid,
        params=PARAMS,
        T=T,
        dt=dt,
        snapshot_times=tuple(dt * k for k in range(1, n + 1)),
    )
    return X0, cfg


def test_duhamel_residual_linear_run():
    grid = make_grid(64, 50.0)
    X0, cfg = _duhamel_setup(grid, 1e-2, 0.25, 2.0)
    cfg = SolverConfig(
        grid=grid,
        params=PARAMS,
        T=2.0,
        dt=0.25,
        snapshot_times=cfg.snapshot_times,
        nonlinear=False,
    )
    traj = simulate(X0, cfg, _keep)
    assert duhamel_residual(X0, traj, cfg) < 1e-10


def test_duhamel_residual_second_order_in_dt():
    grid = make_grid(64, 50.0)
    res = []
    for dt in (0.25, 0.125):
        X0, cfg = _duhamel_setup(grid, 1e-2, dt, 2.0)
        traj = simulate(X0, cfg, _keep)
        res.append(duhamel_residual(X0, traj, cfg))
    ratio = res[0] / res[1]
    assert 2.5 < ratio < 6.5


def test_duhamel_residual_quadratic_in_amplitude():
    grid = make_grid(64, 50.0)
    res = []
    for eps in (1e-3, 1e-2):
        X0, cfg = _duhamel_setup(grid, eps, 0.25, 2.0)
        traj = simulate(X0, cfg, _keep)
        res.append(duhamel_residual(X0, traj, cfg))
    expo = np.log(res[1] / res[0]) / np.log(10.0)
    assert abs(expo - 2.0) < 0.2


def test_step_rejects_a_state_on_another_grid():
    # same n, different L: the tables and wavenumbers would silently not match
    grid = make_grid(32, 20.0)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(1.0,))
    other = make_grid(32, 30.0)
    X = State.from_stack(other, _bump_state(other, 1e-2))
    for nonlinear in (True, False):
        with pytest.raises(SolverError, match="grid"):
            step(X, 0.1, dataclasses.replace(cfg, nonlinear=nonlinear))


def test_duhamel_residual_needs_enough_snapshots():
    grid = make_grid(32, 20.0)
    X0 = _bump_state(grid, 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    traj = simulate(X0, cfg, _keep)
    with pytest.raises(SolverError):
        duhamel_residual(X0, traj, cfg)
    times = (0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0)  # 8 snapshots, nonuniform
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=times)
    traj = simulate(X0, cfg, _keep)
    with pytest.raises(SolverError):
        duhamel_residual(X0, traj, cfg)


def test_vorticity_simulate_oseen_is_steady_profile():
    # the self-similar vortex is an exact solution: advection vanishes and
    # the heat flow is integrated exactly, so snapshots track the profile
    grid = make_grid(128, 100.0)
    nu = 1.0
    omega0 = oseen_vorticity_field(grid, 1.0, PARAMS)
    times = (1.0, 2.0, 4.0)
    traj, omegas = _omegas(omega0, grid, nu, times, 0.25)
    for t, omega in zip(times, omegas, strict=True):
        ref = oseen_vorticity_field(grid, 1.0 + t, PARAMS)
        err = lp_norm(omega - ref, grid, 2) / lp_norm(ref, grid, 2)
        assert err < 1e-6


def test_vorticity_simulate_conserves_moments():
    from vortexlab.profiles import first_moments_beta

    # width-4 dipole keeps the dealiased spectrum below the localization guard
    grid = make_grid(128, 100.0)
    omega0 = dipole_vorticity_field(grid, 1, 4.0, PARAMS) * 1e-2
    _, omegas = _omegas(omega0, grid, 1.0, (1.0, 3.0), 0.25)
    m0 = first_moments_beta(omega0 * grid.dealias_mask, grid, PARAMS)
    for omega in omegas:
        m = first_moments_beta(omega, grid, PARAMS)
        assert abs(m.beta[0] - m0.beta[0]) < 1e-8 * abs(m0.beta[0])
        assert abs(m.alpha - m0.alpha) < 1e-14


# Reference: an allocating vorticity source and ETD2 loop body in the live source's
# form on the half lattice: Basdevant's products through unscaled transforms, the
# velocity multipliers carrying 1/dx^2 and the wavenumber ones dx^2.
# vorticity_simulate must reproduce them bit for bit.


def _reference_vorticity_source(omega: np.ndarray, grid) -> np.ndarray:
    dx2 = grid.dx**2
    k1, k2 = grid.biot_savart_multiplier
    w = np.conj(omega)
    u1, u2 = np.fft.irfft2(np.stack([np.conj(k1) / dx2 * w, np.conj(k2) / dx2 * w]))
    F_sq, F12 = np.fft.rfft2(np.stack([u2 * u2 - u1 * u1, u1 * u2]))
    e1, e2 = grid.eta1, grid.eta2
    src = np.conj(e1 * e2 * dx2 * F_sq + (e1**2 - e2**2) * dx2 * F12) * grid.dealias_mask
    return grid.make_hermitian(src)


def _scaled_vorticity_source(omega: np.ndarray, grid) -> np.ndarray:
    """Basdevant's form through the scaled half-lattice transforms: a second,
    independent oracle, equal to the live source up to rounding."""
    k1, k2 = grid.biot_savart_multiplier
    u1, u2 = to_physical(np.stack([k1 * omega, k2 * omega]), grid)
    f_sq, f12 = to_spectral(np.stack([u2 * u2 - u1 * u1, u1 * u2]), grid) * grid.dealias_mask
    e1, e2 = grid.eta1, grid.eta2
    return (e1 * e2) * f_sq + (e1**2 - e2**2) * f12


def _flux_form_vorticity_source(omega: np.ndarray, grid) -> np.ndarray:
    """-d_k(u_k omega) from the fluxes u1 omega and u2 omega: an independent oracle."""
    k1, k2 = grid.biot_savart_multiplier
    u1, u2, w = to_physical(np.stack([k1 * omega, k2 * omega, omega]), grid)
    f1, f2 = to_spectral(np.stack([u1 * w, u2 * w]), grid) * grid.dealias_mask
    return -((-1j * grid.eta1_odd) * f1 + (-1j * grid.eta2_odd) * f2)


def _reference_vorticity_step(omega: np.ndarray, grid, nu: float, h: float) -> np.ndarray:
    lam = -nu * grid.eta_sq
    exp_h, p1, p2 = np.exp(lam * h), h * phi(1, lam * h), h * phi(2, lam * h)
    n0 = _reference_vorticity_source(omega, grid)
    a = exp_h * omega + p1 * n0
    n1 = _reference_vorticity_source(a, grid)
    return a + p2 * (n1 - n0)


def _perturbed_dipole(grid, eps):
    bump = sample(grid, lambda a, b: np.exp(-((a - 2.0) ** 2 + (b - 1.0) ** 2) / 6.0))
    pert = derivative(bump, grid, (0, 1))
    return (dipole_vorticity_field(grid, 1, 2.0, PARAMS) + pert * 0.3) * eps


def test_vorticity_simulate_bitwise_equals_reference(n=64, L=50.0):
    # 5 steps over two snapshot gaps of different step lengths (2 x 0.25, 3 x 0.7/3)
    grid = make_grid(n, L)
    omega0 = _perturbed_dipole(grid, 0.5)
    before = omega0.copy()
    nu, dt, times = 1.0, 0.25, (0.5, 1.2)
    seen = []  # what each measure call is handed
    traj = vorticity_simulate(omega0, grid, nu, times, dt,
                              lambda t, w: seen.append(w) or w.copy())
    omegas = [grid.band.scatter(w) for w in traj.values]
    omega, t_prev, expected = omega0 * grid.dealias_mask, 0.0, []
    for t_snap in times:
        nsub = max(1, int(np.ceil((t_snap - t_prev) / dt - 1e-12)))
        for _ in range(nsub):
            omega = _reference_vorticity_step(omega, grid, nu, (t_snap - t_prev) / nsub)
        expected.append(omega)
        t_prev = t_snap
    assert traj.times == (0.0,) + times
    # advection matters at this amplitude: the heat flow alone is off by 0.5%
    heat = np.exp(-nu * grid.eta_sq * times[-1]) * (omega0 * grid.dealias_mask)
    assert np.abs(omegas[-1] - heat).max() > 1e-3 * np.abs(heat).max()
    for got, ref in zip(omegas, expected, strict=True):
        assert np.array_equal(got, ref)
    # the run leaves omega0 alone, and hands each measure a read-only snapshot that
    # shares no memory with omega0
    assert np.array_equal(omega0, before)
    assert len(seen) == 2 and not any(w.flags.writeable for w in seen)
    assert not any(np.shares_memory(w, omega0) for w in seen)


@pytest.mark.parametrize("n, L", _SLAB_GRIDS.values(), ids=_SLAB_GRIDS)
def test_vorticity_simulate_bitwise_equals_reference_in_slabs(n, L):
    test_vorticity_simulate_bitwise_equals_reference(n, L)


@pytest.mark.parametrize("h", [0.25, 0.2421875, 1e-3])
@pytest.mark.parametrize("n, L", [(64, 50.0), (256, 200.0)])
def test_vorticity_shell_weights_equal_the_band_formulas(monkeypatch, n, L, h):
    # the heat factor and the two phi weights are evaluated per |eta|^2 shell and
    # gathered onto the band, bit for bit the formulas on every band entry
    grid, nu = make_grid(n, L), 0.7
    steps = _count_calls(monkeypatch, "_etd2_step")
    vorticity_simulate(_perturbed_dipole(grid, 0.5), grid, nu, (h,), h, _nothing)
    (weights,) = (args[3] for args in steps)
    lam = -nu * grid.band.eta_sq * h
    for got, expected in zip(weights, (np.exp(lam), h * phi(1, lam), h * phi(2, lam)),
                             strict=True):
        assert np.array_equal(got.args[0], expected)


def _live_vorticity_source(omega: np.ndarray, grid) -> np.ndarray:
    band = grid.band
    x = band.gather(omega[None])
    return band.scatter(solver._vorticity_source(grid)(x, np.empty_like(x)))[0]


@pytest.mark.parametrize("n, L", [(16, 50.0), (64, 50.0), (256, 100.0)])
@pytest.mark.parametrize("data", ["dipole", "vortex"])
def test_vorticity_source_matches_the_flux_form(n, L, data):
    # u.grad omega = div(u omega) holds exactly on the band, so the two forms differ
    # by rounding, as do the unscaled and the scaled transforms of Basdevant's form;
    # the vortex carries the dipole, since a bare Oseen vortex's source is itself
    # rounding noise (its advection vanishes)
    grid = make_grid(n, L)
    omega = _perturbed_dipole(grid, 0.5)
    if data == "vortex":
        omega = oseen_vorticity_field(grid, 1.0, PARAMS) + omega
        assert omega[0, 0].real > 0.9  # the circulation
    omega = omega * grid.dealias_mask
    got = _live_vorticity_source(omega, grid)
    for ref in (_flux_form_vorticity_source(omega, grid), _scaled_vorticity_source(omega, grid)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert got[0, 0] == 0.0
    col = grid.band.gather(got)[:, 0]
    assert np.array_equal(col, np.conj(col[grid.band.conj_rows]))


def _first_row(rows: np.ndarray) -> int:
    """The first row of the work array that a view of some of its rows starts at."""
    return (rows.ctypes.data - rows.base.ctypes.data) // rows.strides[-2]


def _record_passes(monkeypatch) -> list:
    """numpy FFT passes from now on, as (name, shape transformed, rows of the work array
    read or written): a row pass's slab, or all rows for a column pass."""
    passes = []
    for name in ("ifftn", "irfftn", "rfftn", "fftn"):
        def record(a, *args, _name=name, _f=getattr(np.fft, name), **kwargs):
            work = kwargs["out"] if _name == "rfftn" else a
            first = _first_row(work)
            passes.append((_name, a.shape, range(first, first + work.shape[-2])))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, record)
    return passes


def _assert_one_round_trip(passes, n, cols, fields_in, fields_out):
    """One column pass each way on the band's columns, and between them row passes of
    slabs that cover each of the n rows exactly once in each direction."""
    inverse, forward = passes[1:-1:2], passes[2:-1:2]
    assert passes[0] == ("ifftn", (fields_in, n, cols), range(n))
    assert passes[-1] == ("fftn", (fields_out, n, cols), range(n))
    assert len(inverse) == len(forward) > 1 and len(passes) == 2 * len(inverse) + 2
    for name, width, fields, slabs in (("irfftn", n // 2 + 1, fields_in, inverse),
                                       ("rfftn", n, fields_out, forward)):
        assert all(p[0] == name and p[1] == (fields, len(p[2]), width) for p in slabs)
        assert sorted(row for p in slabs for row in p[2]) == list(range(n))


def test_vorticity_source_transforms_two_fields_each_way(monkeypatch):
    # (u1, u2) in, (u2^2 - u1^2, u1 u2) out: the flux form took three in and two out.
    # The column passes cover the band's columns only
    grid = make_grid(64, 50.0)
    omega = _perturbed_dipole(grid, 0.5) * grid.dealias_mask
    x = grid.band.gather(omega[None])
    source = solver._vorticity_source(grid)
    passes = _record_passes(monkeypatch)
    source(x, np.empty_like(x))
    _assert_one_round_trip(passes, 64, len(grid.band.k_cols), 2, 2)


def test_fourier_source_transforms_three_fields_in_five_out(monkeypatch):
    # (rho, m1, m2) in, (f11, f12, f22, g1, g2) out
    grid = make_grid(64, 50.0)
    X = grid.band.gather(_bump_state(grid, 1e-2))
    source = solver._fourier_source(grid, PARAMS)
    passes = _record_passes(monkeypatch)
    source(X, np.empty_like(X))
    _assert_one_round_trip(passes, 64, len(grid.band.k_cols), 3, 5)


def test_vorticity_etd2_step_allocates_no_lattice_temporaries():
    # after warm-up, 3 vorticity steps write only into the run's stages and the
    # source's scratch; the allocating loop body peaked at 12 half-lattice arrays
    grid = make_grid(64, 50.0)
    omega = grid.band.gather((dipole_vorticity_field(grid, 1, 2.0, PARAMS) * 1e-2)[None])
    stages, source = np.empty((3,) + omega.shape, omega.dtype), solver._vorticity_source(grid)
    h = 0.25
    lh = -grid.band.eta_sq * h
    weights = [partial(np.multiply, w) for w in (np.exp(lh), h * phi(1, lh), h * phi(2, lh))]
    assert _warm_step_peak(grid, lambda: solver._etd2_step(omega, stages, source, weights)) <= 3.0
