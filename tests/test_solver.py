import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from vortexlab.kernels import heat_symbol_grid, phi, s_symbol_grid
from vortexlab.profiles import FluidParams, biot_savart, dipole_vorticity_field
from vortexlab import solver
from vortexlab.solver import (
    SolverAbort,
    SolverConfig,
    SolverError,
    VacuumError,
    Trajectory,
    cfl_limit,
    pressure_remainder,
    scaled_params,
    simulate,
    step,
    vorticity_simulate,
)
from vortexlab.spectral import (
    FullLattice,
    SpectralField,
    State,
    derivative,
    gradient,
    leray_decompose,
    lp_norm,
    make_grid,
    sample,
    to_physical,
    to_spectral,
    transform,
)
from conftest import random_state, zero_state

PARAMS = FluidParams()


def _fourier_source(X: State, params: FluidParams) -> State:
    """The live nonlinear source of a State's band, through a fresh run's scratch,
    expanded to the half lattice."""
    band = X.grid.band
    stack = band.gather(np.stack([c.coeffs for c in X.components()]))
    out = solver._fourier_source(X.grid, params)(stack, np.empty_like(stack))
    return State.from_stack(X.grid, band.scatter(out))


# Reference: the allocating State-level source and step the in-place path
# replaced.  The live step must reproduce them bit for bit.


def _reference_source(X: State, params: FluidParams) -> State:
    grid = X.grid
    rho, w1, w2 = to_physical(np.stack([c.coeffs for c in X.components()]), grid)
    one = 1.0 + rho
    a1, a2 = w1 / one, w2 / one
    law = params.pressure
    prem = law.value(1.0 + rho) - law.value(1.0) - params.c**2 * rho
    products = np.stack([w1 * a1 + prem, w1 * a2, w2 * a2 + prem, w1 - a1, w2 - a2])
    f11, f12, f22, g1, g2 = to_spectral(products, grid)
    e1, e2 = grid.eta1_odd, grid.eta2_odd
    visc = params.mu * grid.eta_sq
    div_g = (params.mu + params.lam) * (e1 * g1 + e2 * g2)
    s1 = 1j * (e1 * f11 + e2 * f12) + visc * g1 + e1 * div_g
    s2 = 1j * (e1 * f12 + e2 * f22) + visc * g2 + e2 * div_g
    mask = grid.dealias_mask
    zero = SpectralField.zero(grid)
    return State(zero, (SpectralField(grid, s1 * mask), SpectralField(grid, s2 * mask)))


def _reference_step(X: State, tab, params: FluidParams, scheme: str) -> State:
    N = _reference_source
    if scheme == "etd2":
        n0 = N(X, params)
        a = tab.exp_full.apply(X) + tab.phi1.apply(n0)
        n1 = N(a, params)
        return a + tab.phi2.apply(n1 - n0)
    n0 = N(X, params)
    ex_half = tab.exp_half.apply(X)
    a = ex_half + tab.phi1_half.apply(n0)
    na = N(a, params)
    b = ex_half + tab.phi1_half.apply(na)
    nb = N(b, params)
    c = tab.exp_half.apply(a) + tab.phi1_half.apply(nb * 2.0 - n0)
    nc = N(c, params)
    return (
        tab.exp_full.apply(X)
        + tab.w_alpha.apply(n0)
        + tab.w_beta.apply(na + nb)
        + tab.w_gamma.apply(nc)
    )


def _bump_state(grid, eps, widths=(8.0, 10.0, 12.0)):
    """Localized zero-mean generic state of amplitude ~eps with all parts."""
    rho = sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / widths[0]) * (1 + 0.3 * a / widths[0]))
    c = rho.coeffs.copy()
    c[0, 0] = 0.0
    rho = SpectralField(grid, c) * eps
    par = gradient(sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / widths[1])))
    psi = sample(grid, lambda a, b: np.exp(-((a - 1) ** 2 + b**2) / widths[2]))
    perp = (derivative(psi, (0, 1)) * -1.0, derivative(psi, (1, 0)))
    m = (par[0] * (0.7 * eps) + perp[0] * (0.5 * eps), par[1] * (0.7 * eps) + perp[1] * (0.5 * eps))
    return State(rho, m).dealiased()


def test_nonlinear_terms_zero_state():
    grid = make_grid(32, 20.0)
    src = _fourier_source(zero_state(grid), PARAMS)
    assert all(np.abs(c.coeffs).max() == 0.0 for c in src.components())


def test_nonlinear_terms_density_only():
    grid = make_grid(64, 40.0)
    rho = sample(grid, lambda a, b: 0.01 * np.exp(-(a**2 + b**2) / 8.0)).dealiased()
    X = State(rho, (SpectralField.zero(grid), SpectralField.zero(grid)))
    src = _fourier_source(X, PARAMS)
    assert np.abs(src.rho.coeffs).max() == 0.0
    # momentum flux and viscous terms vanish: the source is -grad of the
    # dealiased pressure remainder alone
    mask = grid.dealias_mask
    r = rho.values()
    prem = transform(pressure_remainder(PARAMS, r), grid).coeffs * mask
    for m_k, eta in zip(src.m, (grid.eta1_odd, grid.eta2_odd)):
        assert np.array_equal(m_k.coeffs, (-1j * eta) * -prem * mask)
    # remainder of the gamma law at r: P(1+r)-P(1)-c^2 r = c^2 (gamma-1)/2 r^2 + O(r^3)
    expected = transform(-(PARAMS.c**2 * (PARAMS.pressure.gamma - 1) / 2) * r**2, grid)
    scale = np.abs(expected.coeffs).max()
    assert np.abs(-prem - expected.coeffs * mask).max() < 0.05 * scale


def test_nonlinear_terms_quadratic_scaling():
    grid = make_grid(64, 40.0)
    vals = []
    for eps in (1e-3, 1e-2):
        X = _bump_state(grid, eps)
        src = _fourier_source(X, PARAMS)
        vals.append(np.sqrt(sum(lp_norm(c, 2) ** 2 for c in src.components())))
    expo = np.log(vals[1] / vals[0]) / np.log(10.0)
    assert abs(expo - 2.0) < 0.05


def test_nonlinear_assembly_matches_direct_divergence():
    # independent oracle on the full lattice with complex transforms:
    # -div(m (x) m/(1+r)) - grad P_rem plus the viscous terms of m r/(1+r)
    grid = make_grid(64, 40.0)
    full = FullLattice(grid)
    X = _bump_state(grid, 1e-2)
    rho = X.rho.values()
    w = (X.m[0].values(), X.m[1].values())
    one = 1.0 + rho
    mask = full.dealias_mask
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
    fast = _fourier_source(X, PARAMS)
    half = grid.n // 2 + 1
    assert np.abs(fast.m[0].coeffs - direct[0][:, :half]).max() < 1e-10 * scale
    assert np.abs(fast.m[1].coeffs - direct[1][:, :half]).max() < 1e-10 * scale
    assert np.abs(fast.rho.coeffs).max() == 0.0


def test_vacuum_guard():
    grid = make_grid(32, 20.0)
    rho = sample(grid, lambda a, b: -0.7 * np.exp(-(a**2 + b**2) / 8.0))
    X = State(rho, (SpectralField.zero(grid), SpectralField.zero(grid)))
    with pytest.raises(VacuumError):
        _fourier_source(X, PARAMS)


def _count_calls(monkeypatch, name, replacement=None):
    """Calls of `solver.<name>` (or of `replacement`, standing in for it) from now on."""
    calls, fn = [], replacement or getattr(solver, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(solver, name, counted)
    return calls


def test_non_finite_state_trips_the_guards(monkeypatch):
    grid = make_grid(32, 20.0)
    X0 = _bump_state(grid, 1e-2)
    coeffs = X0.rho.coeffs.copy()
    coeffs[1, 1] = np.nan
    bad = State(SpectralField(grid, coeffs), X0.m)
    with pytest.raises(SolverAbort, match="non-finite"):
        _fourier_source(bad, PARAMS)
    steps = _count_calls(monkeypatch, "_advance")
    linear_steps = _count_calls(monkeypatch, "s_symbol_grid")
    for nonlinear in (True, False):
        cfg = SolverConfig(
            grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0), nonlinear=nonlinear
        )
        with pytest.raises(SolverAbort, match=r"^non-finite state: H\^s = nan$"):
            simulate(bad, cfg)
    assert steps == linear_steps == []  # nothing is integrated from a NaN state
    # a step that goes non-finite stops the run at that snapshot: the first gap's
    # two steps run, and none of the second gap's
    def go_non_finite(X, *args):
        X[...] = grid.band.gather(np.stack([c.coeffs for c in bad.components()]))

    steps = _count_calls(monkeypatch, "_advance", go_non_finite)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    with pytest.raises(SolverAbort, match=r"^non-finite state: H\^s = nan$"):
        simulate(X0, cfg)
    assert len(steps) == math.ceil(0.5 / cfg.dt_effective) == 2


@pytest.mark.parametrize("bad_step, t_abort, steps_run", [(1, "0.5", 2), (3, "1.2", 5)])
def test_non_finite_vorticity_snapshot_aborts(monkeypatch, bad_step, t_abort, steps_run):
    # a step that writes NaN stops the run at the next snapshot, (0.5, 1.2) taking
    # 2 and 3 steps of the ETD2 step: no step of a later gap runs
    grid = make_grid(32, 20.0)
    step_etd2 = solver._etd2_step

    def go_non_finite(X, *args):
        step_etd2(X, *args)
        if len(steps) == bad_step:
            X[0, 1, 1] = np.nan

    steps = _count_calls(monkeypatch, "_etd2_step", go_non_finite)
    with pytest.raises(SolverAbort, match=f"^non-finite state: vorticity at t = {t_abort}$"):
        vorticity_simulate(_perturbed_dipole(grid, 0.5), 1.0, (0.5, 1.2), 0.25)
    assert len(steps) == steps_run


def test_step_zero_state():
    grid = make_grid(32, 20.0)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(1.0,))
    out = step(zero_state(grid), 0.1, cfg)
    assert all(np.abs(c.coeffs).max() == 0.0 for c in out.components())


def test_step_linear_limit_exact():
    grid = make_grid(64, 40.0)
    X = _bump_state(grid, 1e-2)
    cfg = SolverConfig(
        grid=grid, params=PARAMS, T=1.0, snapshot_times=(1.0,), nonlinear=False
    )
    out = step(X, 0.2, cfg)
    direct = s_symbol_grid(0.2, grid, PARAMS).apply(X)
    diff = out - direct
    assert max(np.abs(c.coeffs).max() for c in diff.components()) == 0.0


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
            X = step(X, h, cfg)
        return X

    hs = [0.2, 0.1, 0.05, 0.025]
    sols = {h: advance(h) for h in hs + [hs[-1] / 2]}
    errs = [
        np.sqrt(sum(lp_norm(c, 2) ** 2 for c in (sols[h] - sols[h / 2]).components()))
        for h in hs
    ]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= min_order


def test_simulate_zero_initial_data():
    grid = make_grid(32, 20.0)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    traj = simulate(zero_state(grid), cfg)
    assert all(d["hs"] == 0.0 and d["min_density"] == 1.0 for d in traj.diagnostics)
    keys = {"t", "mass", "min_density", "hs", "grad_hs1", "kawashima_energy"}
    assert all(set(d) == keys for d in traj.diagnostics)


def test_simulate_mass_exactly_conserved():
    grid = make_grid(64, 50.0)
    X0 = _bump_state(grid, 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=2.0, snapshot_times=(1.0, 2.0))
    traj = simulate(X0, cfg)
    masses = [d["mass"] for d in traj.diagnostics]
    assert max(abs(m - masses[0]) for m in masses) < 1e-14


def test_simulate_divergence_free_data_keeps_density_second_order():
    grid = make_grid(128, 100.0)
    eps = 1e-2
    omega = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    u = biot_savart(omega)
    amp = eps / max(lp_norm(u, np.inf), 1e-300)
    X0 = State(SpectralField.zero(grid), (u[0] * amp, u[1] * amp)).dealiased()
    cfg = SolverConfig(grid=grid, params=PARAMS, T=4.0, snapshot_times=(1.0, 2.0, 4.0))
    traj = simulate(X0, cfg)
    for t, X in zip(traj.times[1:], traj.states[1:]):
        assert lp_norm(X.rho, np.inf) < 30.0 * eps**2
        # m_perp follows the heat flow up to the quadratic coupling
        heat = heat_symbol_grid(t, grid, PARAMS.mu).apply(X0)
        perp, _ = leray_decompose(X.m)
        diff = (perp[0] - heat.m[0], perp[1] - heat.m[1])
        assert lp_norm(diff, 2) < 30.0 * eps**2


def test_simulate_preserves_reflection_symmetry():
    # under x1 -> -x1: rho even, m1 odd, m2 even is an invariant subspace
    grid = make_grid(64, 50.0)
    eps = 1e-2
    rho = sample(grid, lambda a, b: eps * np.exp(-(a**2 + b**2) / 8.0) * (1 + 0.2 * b))
    c = rho.coeffs.copy()
    c[0, 0] = 0.0
    rho = SpectralField(grid, c)
    phi_f = sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / 10.0) * (1 - 0.1 * b))
    m = gradient(phi_f)
    X0 = State(rho, (m[0] * eps, m[1] * eps)).dealiased()

    def mirror(v, sign):
        return sign * np.roll(v[::-1, :], 1, axis=0)

    cfg = SolverConfig(grid=grid, params=PARAMS, T=2.0, snapshot_times=(1.0, 2.0))
    traj = simulate(X0, cfg)
    for X in traj.states:
        r = X.rho.values()
        m1 = X.m[0].values()
        m2 = X.m[1].values()
        scale = max(np.abs(r).max(), np.abs(m1).max(), np.abs(m2).max())
        assert np.abs(r - mirror(r, +1)).max() < 1e-10 * scale
        assert np.abs(m1 - mirror(m1, -1)).max() < 1e-10 * scale
        assert np.abs(m2 - mirror(m2, +1)).max() < 1e-10 * scale


def test_simulate_carries_no_state_across_runs():
    # a repeated run in one process, after runs at another amplitude and on
    # another grid with the same dx (so the same step), reproduces the first
    grid, other = make_grid(32, 20.0), make_grid(16, 10.0)

    def run(g, eps):
        cfg = SolverConfig(grid=g, params=PARAMS, T=1.0, snapshot_times=(0.4, 1.0))
        return simulate(_bump_state(g, eps), cfg)

    first = run(grid, 1e-2)
    run(grid, 3e-2)
    run(other, 1e-2)
    again = run(grid, 1e-2)
    assert first.times == again.times
    assert first.diagnostics == again.diagnostics
    for X, Y in zip(first.states, again.states, strict=True):
        for a, b in zip(X.components(), Y.components(), strict=True):
            assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("scheme", ["etd2", "etd4"])
def test_step_bitwise_equals_reference(scheme):
    # 5 steps over two snapshot gaps (2 + 3), each gap's step as simulate sizes it
    grid = make_grid(64, 50.0)
    X0 = random_state(grid, np.random.default_rng(7), 1e-2).dealiased()
    before = [c.coeffs.copy() for c in X0.components()]
    dt = 0.1
    cfg = SolverConfig(
        grid=grid, params=PARAMS, T=0.5, dt=dt, snapshot_times=(0.2, 0.5), scheme=scheme
    )
    traj = simulate(X0, cfg)
    X, t_prev, expected = X0, 0.0, [X0]
    for t_snap in cfg.snapshot_times:
        gap = t_snap - t_prev
        nsub = max(1, int(np.ceil(gap / dt - 1e-12)))
        # the oracle's tables live on the grid's half lattice, not on the band
        tab = solver._tables(grid, PARAMS, gap / nsub, scheme)
        for _ in range(nsub):
            X = _reference_step(X, tab, PARAMS, scheme)
        expected.append(X)
        t_prev = t_snap
    assert len(traj.states) == 3
    for got, ref in zip(traj.states, expected, strict=True):
        for a, b in zip(got.components(), ref.components(), strict=True):
            assert np.array_equal(a.coeffs, b.coeffs)
    # step() makes the same step on its own workspace
    one = step(X0, dt, cfg)
    ref = _reference_step(X0, solver._tables(grid, PARAMS, dt, scheme), PARAMS, scheme)
    for a, b in zip(one.components(), ref.components(), strict=True):
        assert np.array_equal(a.coeffs, b.coeffs)
    # simulate leaves X0 alone and hands out snapshots that share no memory
    assert all(np.array_equal(c.coeffs, b) for c, b in zip(X0.components(), before))
    arrays = [c.coeffs for X in (X0,) + traj.states for c in X.components()]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


@pytest.mark.parametrize("scheme,nonlinear", [("etd2", True), ("etd4", True), ("etd2", False)])
def test_simulate_snapshots_vanish_off_the_band(scheme, nonlinear):
    # the step stores only the 2/3-rule band; snapshots expand it with exact zeros,
    # from initial data that are not dealiased
    grid = make_grid(32, 20.0)
    X0 = random_state(grid, np.random.default_rng(5), 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.4, 1.0),
                       scheme=scheme, nonlinear=nonlinear)
    traj = simulate(X0, cfg)
    off = ~grid.dealias_mask
    assert len(traj.states) == 3
    assert any(np.abs(c.coeffs[off]).max() > 0 for c in X0.components())
    for X in traj.states:
        assert all(np.all(c.coeffs[off] == 0.0) for c in X.components())
        assert np.abs(X.m[0].coeffs[grid.dealias_mask]).max() > 0


def test_vorticity_simulate_snapshots_vanish_off_the_band():
    grid = make_grid(64, 50.0)
    omega0 = _perturbed_dipole(grid, 0.5)
    off = ~grid.dealias_mask
    assert np.abs(omega0.coeffs[off]).max() > 0
    traj = vorticity_simulate(omega0, 1.0, (0.5, 1.2), 0.25)
    assert len(traj.omegas) == 3
    for w in traj.omegas:
        assert np.all(w.coeffs[off] == 0.0)
        assert np.abs(w.coeffs[grid.dealias_mask]).max() > 0


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
    # arrays (apply's scratch among them), not at a State per term
    grid = make_grid(64, 50.0)
    X0 = random_state(grid, np.random.default_rng(3), 1e-2).dealiased()
    tab = solver._tables(grid.band, PARAMS, cfl_limit(grid, PARAMS), "etd2")
    X = grid.band.gather(np.stack([c.coeffs for c in X0.components()]))
    stages, source = np.empty((3,) + X.shape, X.dtype), solver._fourier_source(grid, PARAMS)
    assert _warm_step_peak(grid, lambda: solver._advance(X, stages, source, tab, "etd2")) <= 4.0


def test_simulate_vacuum_abort_raises(monkeypatch):
    grid = make_grid(32, 20.0)
    rho = sample(grid, lambda a, b: -0.7 * np.exp(-(a**2 + b**2) / 8.0))
    X0 = State(rho, (SpectralField.zero(grid), SpectralField.zero(grid)))
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    steps = _count_calls(monkeypatch, "_advance")
    with pytest.raises(VacuumError, match=r"^vacuum guard tripped: min\(1 \+ rho_tilde\) = "):
        simulate(X0, cfg)
    assert len(steps) == 1  # the first step's source meets the vacuum


def test_simulate_energy_guard_aborts(monkeypatch):
    # an artificially tight blow-up factor exercises the abort path
    monkeypatch.setattr(solver, "BLOWUP_FACTOR", 0.1)
    grid = make_grid(32, 20.0)
    X0 = _bump_state(grid, 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    steps = _count_calls(monkeypatch, "_advance")
    with pytest.raises(SolverAbort, match=r"^energy blow-up: H\^s grew to .* \(> 0\.1 x initial"):
        simulate(X0, cfg)
    assert len(steps) == 2  # the first gap's steps; the offending snapshot stops the run


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
        vorticity_simulate(omega0, 1.0, times, dt)
    with pytest.raises(SolverError):
        SolverConfig(grid=grid, params=PARAMS, T=2.0, dt=dt, snapshot_times=times)


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
    traj4 = simulate(X0, cfg4)
    traj1 = simulate(X0 * 0.25, cfg1)
    for a, b in zip(traj4.states, traj1.states):
        for ca, cb in zip(a.components(), b.components()):
            scale = max(np.abs(ca.coeffs).max(), 1e-300)
            assert np.abs(ca.coeffs - 4.0 * cb.coeffs).max() < 1e-13 * scale


def duhamel_residual(trajectory: Trajectory, config: SolverConfig) -> float:
    """Residual of X(T) = S(T) X0 + int_0^T S(T-t') sum_k d_k Q_k(t') dt'.

    The integral is recomputed from the stored snapshots with trapezoid
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
    states = [s * (1.0 / rs) for s in trajectory.states]
    total = s_symbol_grid(T, grid, params).apply(states[0])
    if config.nonlinear:
        h = float(gaps[0])
        for k, (t_k, X_k) in enumerate(zip(times, states)):
            w = h if 0 < k < len(times) - 1 else 0.5 * h
            src = _fourier_source(X_k, params)
            total = total + s_symbol_grid(T - float(t_k), grid, params).apply(src) * w
    diff = states[-1] - total
    num = np.sqrt(sum(lp_norm(c, 2) ** 2 for c in diff.components()))
    den = 1.0 + np.sqrt(sum(lp_norm(c, 2) ** 2 for c in states[0].components()))
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
    traj = simulate(X0, cfg)
    assert duhamel_residual(traj, cfg) < 1e-10


def test_duhamel_residual_second_order_in_dt():
    grid = make_grid(64, 50.0)
    res = []
    for dt in (0.25, 0.125):
        X0, cfg = _duhamel_setup(grid, 1e-2, dt, 2.0)
        traj = simulate(X0, cfg)
        res.append(duhamel_residual(traj, cfg))
    ratio = res[0] / res[1]
    assert 2.5 < ratio < 6.5


def test_duhamel_residual_quadratic_in_amplitude():
    grid = make_grid(64, 50.0)
    res = []
    for eps in (1e-3, 1e-2):
        X0, cfg = _duhamel_setup(grid, eps, 0.25, 2.0)
        traj = simulate(X0, cfg)
        res.append(duhamel_residual(traj, cfg))
    expo = np.log(res[1] / res[0]) / np.log(10.0)
    assert abs(expo - 2.0) < 0.2


def test_step_rejects_a_state_on_another_grid():
    # same n, different L: the tables and wavenumbers would silently not match
    grid = make_grid(32, 20.0)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(1.0,))
    X = _bump_state(make_grid(32, 30.0), 1e-2)
    for nonlinear in (True, False):
        with pytest.raises(SolverError, match="grid"):
            step(X, 0.1, dataclasses.replace(cfg, nonlinear=nonlinear))


def test_duhamel_residual_needs_enough_snapshots():
    grid = make_grid(32, 20.0)
    X0 = _bump_state(grid, 1e-2)
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=(0.5, 1.0))
    traj = simulate(X0, cfg)
    with pytest.raises(SolverError):
        duhamel_residual(traj, cfg)
    times = (0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0)  # 8 snapshots, nonuniform
    cfg = SolverConfig(grid=grid, params=PARAMS, T=1.0, snapshot_times=times)
    traj = simulate(X0, cfg)
    with pytest.raises(SolverError):
        duhamel_residual(traj, cfg)


def test_vorticity_simulate_oseen_is_steady_profile():
    # the self-similar vortex is an exact solution: advection vanishes and
    # the heat flow is integrated exactly, so snapshots track the profile
    from vortexlab.profiles import oseen_vorticity_field

    grid = make_grid(128, 100.0)
    nu = 1.0
    omega0 = oseen_vorticity_field(grid, 1.0, PARAMS)
    times = (1.0, 2.0, 4.0)
    traj = vorticity_simulate(omega0, nu, times, dt=0.25)
    for t, w in zip(traj.times[1:], traj.omegas[1:]):
        ref = oseen_vorticity_field(grid, 1.0 + t, PARAMS)
        err = lp_norm(w - ref, 2) / lp_norm(ref, 2)
        assert err < 1e-6


def test_vorticity_simulate_conserves_moments():
    from vortexlab.profiles import first_moments_beta

    # width-4 dipole keeps the dealiased spectrum below the localization guard
    grid = make_grid(128, 100.0)
    omega0 = dipole_vorticity_field(grid, 1, 4.0, PARAMS) * 1e-2
    traj = vorticity_simulate(omega0, 1.0, (1.0, 3.0), dt=0.25)
    m0 = first_moments_beta(traj.omegas[0], PARAMS)
    for w in traj.omegas[1:]:
        m = first_moments_beta(w, PARAMS)
        assert abs(m.beta[0] - m0.beta[0]) < 1e-8 * abs(m0.beta[0])
        assert abs(m.alpha - m0.alpha) < 1e-14


# Reference: the allocating vorticity source and ETD2 loop body the in-place
# step replaced.  vorticity_simulate must reproduce them bit for bit.


def _reference_vorticity_source(omega: SpectralField) -> np.ndarray:
    grid = omega.grid
    k1, k2 = grid.biot_savart_multiplier
    u1, u2, w = to_physical(np.stack([k1 * omega.coeffs, k2 * omega.coeffs, omega.coeffs]), grid)
    f1, f2 = to_spectral(np.stack([u1 * w, u2 * w]), grid) * grid.dealias_mask
    return -((-1j * grid.eta1_odd) * f1 + (-1j * grid.eta2_odd) * f2)


def _reference_vorticity_step(omega: SpectralField, nu: float, h: float) -> SpectralField:
    grid = omega.grid
    lam = -nu * grid.eta_sq
    exp_h, p1, p2 = np.exp(lam * h), h * phi(1, lam * h), h * phi(2, lam * h)
    n0 = _reference_vorticity_source(omega)
    a = SpectralField(grid, exp_h * omega.coeffs + p1 * n0)
    n1 = _reference_vorticity_source(a)
    return SpectralField(grid, a.coeffs + p2 * (n1 - n0))


def _perturbed_dipole(grid, eps):
    bump = sample(grid, lambda a, b: np.exp(-((a - 2.0) ** 2 + (b - 1.0) ** 2) / 6.0))
    pert = derivative(bump, (0, 1))
    return (dipole_vorticity_field(grid, 1, 2.0, PARAMS) + pert * 0.3) * eps


def test_vorticity_simulate_bitwise_equals_reference():
    # 5 steps over two snapshot gaps of different step lengths (2 x 0.25, 3 x 0.7/3)
    grid = make_grid(64, 50.0)
    omega0 = _perturbed_dipole(grid, 0.5)
    before = omega0.coeffs.copy()
    nu, dt, times = 1.0, 0.25, (0.5, 1.2)
    traj = vorticity_simulate(omega0, nu, times, dt)
    omega, t_prev, expected = omega0.dealiased(), 0.0, [omega0.dealiased()]
    for t_snap in times:
        nsub = max(1, int(np.ceil((t_snap - t_prev) / dt - 1e-12)))
        for _ in range(nsub):
            omega = _reference_vorticity_step(omega, nu, (t_snap - t_prev) / nsub)
        expected.append(omega)
        t_prev = t_snap
    assert traj.times == (0.0,) + times
    # advection matters at this amplitude: the heat flow alone is off by 0.5%
    heat = np.exp(-nu * grid.eta_sq * times[-1]) * omega0.dealiased().coeffs
    assert np.abs(traj.omegas[-1].coeffs - heat).max() > 1e-3 * np.abs(heat).max()
    for got, ref in zip(traj.omegas, expected, strict=True):
        assert np.array_equal(got.coeffs, ref.coeffs)
    # the run leaves omega0 alone and hands out snapshots that share no memory
    assert np.array_equal(omega0.coeffs, before)
    arrays = [w.coeffs for w in (omega0,) + traj.omegas]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


def test_vorticity_etd2_step_allocates_no_lattice_temporaries():
    # after warm-up, 3 vorticity steps write only into the run's stages and the
    # source's scratch; the allocating loop body peaked at 12 half-lattice arrays
    grid = make_grid(64, 50.0)
    omega = grid.band.gather((dipole_vorticity_field(grid, 1, 2.0, PARAMS) * 1e-2).coeffs[None])
    stages, source = np.empty((3,) + omega.shape, omega.dtype), solver._vorticity_source(grid)
    h = 0.25
    lh = -grid.band.eta_sq * h
    weights = [partial(np.multiply, w) for w in (np.exp(lh), h * phi(1, lh), h * phi(2, lh))]
    assert _warm_step_peak(grid, lambda: solver._etd2_step(omega, stages, source, weights)) <= 3.0
