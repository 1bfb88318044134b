"""Exponential time-differencing solver for the nonlinear system near equilibrium.

The linear part is advanced exactly by the closed-form Green-kernel symbols;
the quadratic terms enter through an exponential Runge-Kutta quadrature of
the Duhamel integral (Cox-Matthews ETD2RK by default, ETD4RK optional).

The integrator works in reduced variables (rho_tilde / rho_star, m / rho_star)
so the flux decomposition reads literally with 1 + rho_tilde standing for
rho / rho_star; `simulate` scales physical data in and out at its boundary.

Both solvers take one ETD2 step, `_etd2_step`, in place on a stack of the 2/3-rule
band (`Grid.band`), which dealiased data, the sources and every symbol keep; a
snapshot expands it with exact zeros.  Each run (`simulate`, `vorticity_simulate`
or one `step`) makes its stage buffers and source scratch once; nothing is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .kernels import KernelSymbol, phi, phi_symbol_grid, s_symbol_grid
from .profiles import FluidParams, PowerPressureLaw
from .spectral import (
    Band,
    Grid,
    SpectralField,
    State,
    parseval_sum,
    sobolev_norm,
    to_physical,
    to_spectral,
)


class SolverError(ValueError):
    pass


class SolverAbort(RuntimeError):
    """The state left the regime the solver integrates: the run stops at the step or
    snapshot that shows it, and the message is the abort reason."""


class VacuumError(SolverAbort):
    """Density dropped below the near-equilibrium guard 1 + rho_tilde >= 0.5."""

    def __init__(self, min_density: float):
        super().__init__(
            f"vacuum guard tripped: min(1 + rho_tilde) = {min_density:.4f} < 0.5; "
            "the data left the near-equilibrium regime"
        )
        self.min_density = min_density


def scaled_params(params: FluidParams) -> FluidParams:
    """Equivalent parameters for the reduced variables (rho_star = 1)."""
    if params.rho_star == 1.0:
        return params
    base = params.pressure
    if not isinstance(base, PowerPressureLaw):
        raise SolverError("only power pressure laws support density rescaling")
    scaled_law = PowerPressureLaw(
        gamma=base.gamma, scale=base.scale * params.rho_star ** (base.gamma - 1.0)
    )
    return FluidParams(
        mu=params.mu / params.rho_star,
        lam=params.lam / params.rho_star,
        rho_star=1.0,
        pressure=scaled_law,
    )


def pressure_remainder(params: FluidParams, rho_tilde: np.ndarray, one=None, out=None):
    """P(1 + r) - P(1) - c^2 r for the reduced density oscillation r, written into
    `out` if given; `one` holding 1 + r spares recomputing it, and is overwritten."""
    law, one = params.pressure, 1.0 + rho_tilde if one is None else one
    out = np.multiply(law.scale, np.power(one, law.gamma, out=out), out=out)
    np.subtract(np.divide(out, law.gamma, out=out), law.value(1.0), out=out)
    return np.subtract(out, np.multiply(params.c**2, rho_tilde, out=one), out=out)


def _guard_vacuum(one: np.ndarray) -> np.ndarray:
    m = float(one.min())  # NaN anywhere makes the minimum NaN
    if not np.isfinite(m):
        raise SolverAbort(f"non-finite state: min(1 + rho_tilde) = {m}")
    if m < 0.5:
        raise VacuumError(m)
    return one


def _fourier_source(grid: Grid, params: FluidParams):
    """The assembled nonlinear source sum_k d_k Q_k of a band stack as `source(X, out)`,
    which writes it into `out` (zero density row) through scratch made once per run.

    Q_k = (0, q1[k] + div q2[k]): q1 carries the momentum flux m m/(1+rho)
    and the pressure remainder, q2 the viscous terms of g = m rho/(1+rho).
    One inverse transform of the stack and one forward transform of the five
    stacked products: the pressure remainder only enters the flux diagonal,
    so it is added there before transforming.  The source is linear in the
    transformed products with diagonal multipliers, so keeping the products'
    band dealiases every product.
    """
    band, work = grid.band, np.empty((5,) + grid.spectral_shape, dtype=np.complex128)
    spec = np.empty((7,) + band.spectral_shape, dtype=np.complex128)
    phys, products = np.empty((3, grid.n, grid.n)), np.empty((5, grid.n, grid.n))
    visc, e1, e2 = params.mu * band.eta_sq, band.eta1_odd, band.eta2_odd

    def source(X: np.ndarray, out: np.ndarray) -> np.ndarray:
        rho, w1, w2 = to_physical(X, grid, out=phys, work=work[:3])
        f11, f12, f22, g1, g2 = products  # 1 + rho, a1, a2, P_rem wait in free slots
        one = _guard_vacuum(np.add(1.0, rho, out=f12))
        a1, a2 = np.divide(w1, one, out=g1), np.divide(w2, one, out=g2)
        prem = pressure_remainder(params, rho, one, out=f11)
        np.add(np.multiply(w2, a2, out=f22), prem, out=f22)
        np.add(np.multiply(w1, a1, out=f12), prem, out=f11)
        np.multiply(w1, a2, out=f12)
        np.subtract(w1, a1, out=g1)
        np.subtract(w2, a2, out=g2)
        f11, f12, f22, g1, g2 = to_spectral(products, grid, out=spec[:5], work=work)
        div_g, tmp = spec[5], spec[6]
        np.multiply(e1, g1, out=div_g)
        div_g += np.multiply(e2, g2, out=tmp)
        np.multiply(params.mu + params.lam, div_g, out=div_g)
        # -d_k (m_i m_k/(1+rho) + delta_ik P_rem) - mu Lap g_i - (mu+lam) d_i div g
        out[0] = 0.0
        for s, (fa, fb), g, e in zip(out[1:], ((f11, f12), (f12, f22)), (g1, g2), (e1, e2)):
            np.multiply(e1, fa, out=s)
            s += np.multiply(e2, fb, out=tmp)
            np.multiply(1j, s, out=s)
            s += np.multiply(visc, g, out=tmp)
            s += np.multiply(e, div_g, out=tmp)
        return out

    return source


def _etd2_step(X: np.ndarray, stages: np.ndarray, source, weights) -> None:
    """One Cox-Matthews ETD2RK step of the stack X in place, a = E X + h phi_1 N(X) and
    X <- a + h phi_2 (N(a) - N(X)), from `stages` = (a, n0, n1), `source(x, out)` and
    `weights` = (E, h phi_1, h phi_2) as `f(x, out=)`; n1, then n0, take the weighted terms."""
    (a, n0, n1), (exp, phi1, phi2) = stages, weights
    source(X, n0)
    exp(X, out=a)
    a += phi1(n0, out=n1)
    source(a, n1)
    n1 -= n0
    np.add(a, phi2(n1, out=n0), out=X)


# ---------------------------------------------------------------------------
# configuration and stepping


def cfl_limit(grid: Grid, params: FluidParams) -> float:
    """Acoustic CFL bound 0.5 dx / c for the explicit nonlinear stage."""
    return 0.5 * grid.dx / params.c


def _time_grid(dt: float | None, snapshot_times, T: float = math.inf) -> tuple[float, ...]:
    """The snapshot times as floats; SolverError unless dt (None: a default) is
    finite and positive and the times are finite, increasing and in (0, T]."""
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise SolverError(f"time step must be finite and positive, got {dt}")
    times = tuple(float(t) for t in snapshot_times)
    if not all(math.isfinite(t) and 0 < t <= T + 1e-12 for t in times):
        raise SolverError("snapshot times must be finite and lie in (0, T]")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise SolverError("snapshot times must be strictly increasing")
    return times


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    params: FluidParams
    T: float
    dt: float | None = None
    snapshot_times: tuple[float, ...] = ()
    scheme: str = "etd2"
    nonlinear: bool = True

    def __post_init__(self):
        if not self.T > 0:
            raise SolverError(f"horizon must be positive, got {self.T}")
        if self.scheme not in ("etd2", "etd4"):
            raise SolverError(f"unknown scheme {self.scheme!r} (use 'etd2' or 'etd4')")
        times = _time_grid(self.dt, self.snapshot_times, self.T)
        limit = cfl_limit(self.grid, self.params)
        if self.dt is not None and self.dt > limit * (1 + 1e-12):
            raise SolverError(
                f"dt = {self.dt} violates the acoustic CFL bound 0.5 dx/c = {limit:.4g}"
            )
        object.__setattr__(self, "snapshot_times", times)

    @property
    def dt_effective(self) -> float:
        return self.dt if self.dt is not None else cfl_limit(self.grid, self.params)


@dataclass(frozen=True)
class _StepTables:
    exp_full: KernelSymbol
    phi1: KernelSymbol
    phi2: KernelSymbol
    exp_half: KernelSymbol | None = None
    phi1_half: KernelSymbol | None = None
    w_alpha: KernelSymbol | None = None
    w_beta: KernelSymbol | None = None
    w_gamma: KernelSymbol | None = None


def _tables(grid: Grid | Band, params: FluidParams, h: float, scheme: str) -> _StepTables:
    """Symbol tables of one step of length h on the band, built on every call (no cache)."""
    exp_full = s_symbol_grid(h, grid, params)
    phi1 = phi_symbol_grid(1, h, grid, params).scaled(h)
    phi2 = phi_symbol_grid(2, h, grid, params).scaled(h)
    if scheme == "etd2":
        return _StepTables(exp_full, phi1, phi2)
    phi3 = phi_symbol_grid(3, h, grid, params).scaled(h)
    w_alpha = phi1 + phi2.scaled(-3.0) + phi3.scaled(4.0)
    w_beta = phi2.scaled(2.0) + phi3.scaled(-4.0)
    w_gamma = phi3.scaled(4.0) + phi2.scaled(-1.0)
    return _StepTables(
        exp_full,
        phi1,
        phi2,
        exp_half=s_symbol_grid(0.5 * h, grid, params),
        phi1_half=phi_symbol_grid(1, 0.5 * h, grid, params).scaled(0.5 * h),
        w_alpha=w_alpha,
        w_beta=w_beta,
        w_gamma=w_gamma,
    )


def _advance(X: np.ndarray, stages: np.ndarray, source, tab: _StepTables, scheme: str) -> None:
    """One ETD step of the stack X in place; ETD2 writes only into `stages` and the
    source's scratch, ETD4 calls the same source and `apply` on stages it allocates."""
    if scheme == "etd2":
        _etd2_step(X, stages, source, (tab.exp_full.apply, tab.phi1.apply, tab.phi2.apply))
        return
    n0 = source(X, np.empty_like(X))
    ex_half = tab.exp_half.apply(X)
    a = ex_half + tab.phi1_half.apply(n0)
    na = source(a, np.empty_like(a))
    b = ex_half + tab.phi1_half.apply(na)
    nb = source(b, np.empty_like(b))
    c = tab.exp_half.apply(a) + tab.phi1_half.apply(nb * 2.0 - n0)
    nc = source(c, np.empty_like(c))
    X[...] = tab.exp_full.apply(X) + tab.w_alpha.apply(n0)
    X += tab.w_beta.apply(na + nb)
    X += tab.w_gamma.apply(nc)


def step(X: State, dt: float, config: SolverConfig) -> State:
    """One ETD step of length dt on the band of a reduced-variable state; its symbol
    tables, stages and source scratch are made on every call and nothing is cached."""
    if X.grid != config.grid:
        raise SolverError("state grid does not match config grid")
    params, band = scaled_params(config.params), config.grid.band
    tab = _tables(band, params, dt, config.scheme)
    stack = band.gather(np.stack([c.coeffs for c in X.components()]))
    if not config.nonlinear:
        return State.from_stack(config.grid, band.scatter(tab.exp_full.apply(stack)))
    source = _fourier_source(config.grid, params)
    _advance(stack, np.empty((3,) + stack.shape, stack.dtype), source, tab, config.scheme)
    return State.from_stack(config.grid, band.scatter(stack))


# ---------------------------------------------------------------------------
# simulation

# Sobolev index of the H^s norm behind the blow-up guard and the energy.
HS_INDEX = 3
# A snapshot whose H^s norm exceeds this multiple of the initial one aborts.
BLOWUP_FACTOR = 10.0


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[State, ...]
    diagnostics: tuple[dict, ...]


def _diagnostics(X: State, t: float) -> dict:
    """Snapshot diagnostics; `simulate` adds the Kawashima energy.  `grad_hs1` is
    the H^{s-1} norm of the gradient, the dissipation half of the energy bound."""
    grid = X.grid
    grad_weight = grid.eta_sq * (1.0 + grid.eta_sq) ** (HS_INDEX - 1)
    pairs = [(c.coeffs, c.coeffs) for c in X.components()]
    return {
        "t": t,
        "mass": float(X.rho.coeffs[0, 0].real),
        "min_density": float(1.0 + X.rho.values().min()),
        "hs": sobolev_norm(X, HS_INDEX),
        "grad_hs1": float(np.sqrt(parseval_sum(grid, pairs, grad_weight))),
    }


def _energy_check(hs: float, hs0: float, blowup_factor: float) -> None:
    """SolverAbort unless a snapshot's H^s norm is finite and within the blow-up bound."""
    if not np.isfinite(hs):
        raise SolverAbort(f"non-finite state: H^s = {hs}")
    if hs0 > 0 and hs > blowup_factor * hs0:
        raise SolverAbort(
            f"energy blow-up: H^s grew to {hs:.3e} (> {blowup_factor} x initial {hs0:.3e})"
        )


def simulate(X0: State, config: SolverConfig) -> Trajectory:
    """Advance X0 to the requested snapshot times with diagnostics.

    X0 and the returned snapshots are in physical variables.  Vacuum (in the
    step that meets it), a non-finite state or energy blow-up (at the snapshot
    that shows it) raises SolverAbort, and no later step runs.
    """
    if X0.grid != config.grid:
        raise SolverError("initial state grid does not match config grid")
    if not config.snapshot_times:
        raise SolverError("config.snapshot_times must not be empty")
    rs, band = config.params.rho_star, config.grid.band
    params = scaled_params(config.params)
    X = (X0 * (1.0 / rs)).dealiased()
    dt_target = config.dt_effective
    stack = band.gather(np.stack([c.coeffs for c in X.components()]))
    stages, source = np.empty((3,) + stack.shape, stack.dtype), _fourier_source(config.grid, params)

    times, states = [0.0], [X * rs]
    diagnostics = [_diagnostics(X * rs, 0.0)]
    hs0 = diagnostics[0]["hs"]
    # Kawashima-type energy functional ||X||_{H^s}^2 + int ||grad X||_{H^{s-1}}^2,
    # accumulated by snapshot trapezoid; its boundedness is a run diagnostic
    dissipation = 0.0
    diagnostics[0]["kawashima_energy"] = hs0**2
    _energy_check(hs0, hs0, math.inf)  # only finiteness at t = 0
    t_prev = 0.0
    for t_snap in config.snapshot_times:
        gap = t_snap - t_prev
        nsub = max(1, math.ceil(gap / dt_target - 1e-12))
        h = gap / nsub
        if config.nonlinear:
            tab = _tables(band, params, h, config.scheme)
            for _ in range(nsub):
                _advance(stack, stages, source, tab, config.scheme)
        else:
            stack[...] = s_symbol_grid(gap, band, params).apply(stack)
        t_prev = t_snap
        phys = State.from_stack(config.grid, band.scatter(stack)) * rs
        times.append(t_snap)
        states.append(phys)
        row = _diagnostics(phys, t_snap)
        dissipation += 0.5 * gap * (
            diagnostics[-1]["grad_hs1"] ** 2 + row["grad_hs1"] ** 2
        )
        row["kawashima_energy"] = row["hs"] ** 2 + dissipation
        diagnostics.append(row)
        _energy_check(row["hs"], hs0, BLOWUP_FACTOR)
    return Trajectory(tuple(times), tuple(states), tuple(diagnostics))


# ---------------------------------------------------------------------------
# incompressible vorticity control solver


@dataclass(frozen=True)
class VorticityTrajectory:
    times: tuple[float, ...]
    omegas: tuple[SpectralField, ...]


def _vorticity_source(grid: Grid):
    """-div(u omega) in Fourier coefficients on the band, with u the torus Biot-Savart
    velocity of the zero-mean part of omega, as `source(x, out)` on (1, band) stacks.
    One inverse transform of (u1, u2, omega), one forward transform of the two fluxes:
    the fluxes overwrite u1 and u2, and their band spectra the inverse transform's input."""
    band = grid.band
    (k1, k2), d1, d2 = band.biot_savart_multiplier, -1j * band.eta1_odd, -1j * band.eta2_odd
    spec, phys = np.empty((3,) + band.spectral_shape, complex), np.empty((3, grid.n, grid.n))
    work = np.empty((3,) + grid.spectral_shape, complex)

    def source(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(k1, x[0], out=spec[0])
        np.multiply(k2, x[0], out=spec[1])
        spec[2] = x[0]
        w = to_physical(spec, grid, out=phys, work=work)[2]
        fluxes = np.multiply(phys[:2], w, out=phys[:2])
        f1, f2 = to_spectral(fluxes, grid, out=spec[:2], work=work[:2])
        np.multiply(d1, f1, out=out[0])
        out[0] += np.multiply(d2, f2, out=f2)
        return np.negative(out, out=out)

    return source


def vorticity_simulate(
    omega0: SpectralField, nu: float, snapshot_times, dt: float
) -> VorticityTrajectory:
    """Advance the 2D vorticity equation by ETD2RK with exact heat flow; the
    run's stages and source scratch are made once, and each snapshot is a copy.
    A non-finite snapshot raises SolverAbort, and no later step runs."""
    snapshot_times = _time_grid(dt, snapshot_times)
    grid, band = omega0.grid, omega0.grid.band
    omega = band.gather(omega0.coeffs[None])
    stages, source = np.empty((3,) + omega.shape, omega.dtype), _vorticity_source(grid)
    times, snaps = [0.0], [SpectralField(grid, band.scatter(omega)[0])]
    t_prev = 0.0
    for t_snap in snapshot_times:
        gap = t_snap - t_prev
        nsub = max(1, math.ceil(gap / dt - 1e-12))
        h = gap / nsub
        lh = -nu * band.eta_sq * h
        weights = [partial(np.multiply, w) for w in (np.exp(lh), h * phi(1, lh), h * phi(2, lh))]
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
            for _ in range(nsub):
                _etd2_step(omega, stages, source, weights)
        if not np.isfinite(omega).all():
            raise SolverAbort(f"non-finite state: vorticity at t = {t_snap:g}")
        t_prev = t_snap
        times.append(t_prev)
        snaps.append(SpectralField(grid, band.scatter(omega)[0]))
    return VorticityTrajectory(tuple(times), tuple(snaps))
