"""Exponential time-differencing solver for the nonlinear system near equilibrium.

The linear part is advanced exactly by the closed-form Green-kernel symbols;
the quadratic terms enter through an exponential Runge-Kutta quadrature of
the Duhamel integral (Cox-Matthews ETD2RK by default, ETD4RK optional).

The integrator works in reduced variables (rho_tilde / rho_star, m / rho_star)
so the flux decomposition reads literally with 1 + rho_tilde standing for
rho / rho_star; `simulate` scales physical data in and out at its boundary.

Both solvers step a band stack (`Grid.band`, the 2/3 rule, which data, sources and symbols
keep) in place through one snapshot loop, `_march`, which hands each snapshot to the caller's
`measure(t, X)`: `build(h)` makes a gap's weights as `f(x, out=)` callables, `advance(weights)`
takes a step, `_etd2_step` by default.  `_stepper` picks the compressible scheme (`_SCHEMES`)
or linear branch for `simulate` and `step`.  A run makes its stages and scratch once and caches
no weights; the sources and diagnostics hold samples one slab of rows at a time (`round_trip`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .kernels import heat_weight, phi_symbol_grid, s_symbol_grid
from .profiles import FluidParams
from .spectral import (
    Band,
    BandTransform,
    Grid,
    State,
    parseval_sum,
    sobolev_norm,
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
    r = params.rho_star
    return replace(params, mu=params.mu / r, lam=params.lam / r, rho_star=1.0,
                   pressure_scale=params.pressure_scale * r ** (params.gamma - 1.0))


def pressure_remainder(params: FluidParams, rho_tilde: np.ndarray, one=None, out=None):
    """P(1 + r) - P(1) - c^2 r for the reduced density oscillation r, written into
    `out` if given; `one` holding 1 + r spares recomputing it, and is overwritten."""
    one = 1.0 + rho_tilde if one is None else one
    out = np.multiply(params.pressure_scale, np.power(one, params.gamma, out=out), out=out)
    np.subtract(np.divide(out, params.gamma, out=out), params.pressure(1.0), out=out)
    return np.subtract(out, np.multiply(params.c**2, rho_tilde, out=one), out=out)


def _guard_vacuum(m: float) -> None:
    """SolverAbort unless min(1 + rho_tilde), NaN if any sample is, is finite and >= 0.5."""
    if not np.isfinite(m):
        raise SolverAbort(f"non-finite state: min(1 + rho_tilde) = {m}")
    if m < 0.5:
        raise VacuumError(m)


def _fourier_source(grid: Grid, params: FluidParams):
    """The assembled nonlinear source sum_k d_k Q_k of a band stack as `source(X, out)`,
    which writes it into `out` (zero density row) through scratch made once per run.

    Q_k = (0, q1[k] + div q2[k]): q1 carries the momentum flux m m/(1+rho)
    and the pressure remainder, q2 the viscous terms of g = m rho/(1+rho).
    One round trip (`BandTransform.round_trip`), three fields in and five out, forms
    the products one slab of rows at a time: the pressure remainder only enters the
    flux diagonal, so it is added there before transforming.  The source is linear in
    the transformed products with diagonal multipliers, so keeping the products' band
    dealiases every product.  The vacuum guard reads the running min(1 + rho) over the
    slabs, NaN once a sample is: from the slab where it is not >= 0.5 on, no products are
    formed, and the guard raises after the loop.

    The inverse divides its samples by dx^2, as `to_physical` does: folding that scale into
    the band moves rho by an ulp, which `pressure_remainder`'s cancellation magnifies.
    The forward runs unscaled, F = conj(f_hat) / dx^2, so the multipliers made once
    per run carry dx^2: with s_i = -d_k f_ik - mu Lap g_i - (mu+lam) d_i div g,
    conj s_i = sum_k (-i e_k dx^2) F_ik + sum_k (mu |eta|^2 delta_ik + (mu+lam) e_i e_k) dx^2 G_k.
    """
    # one work array: the state's inverse runs on its first three fields, the products'
    # forward on all five
    band, work = grid.band, np.empty((5,) + grid.spectral_shape, complex)
    state_core, product_core = BandTransform(grid, work[:3]), BandTransform(grid, work)
    phys, products = state_core.sample_slab((3,)), product_core.sample_slab((5,))
    e1, e2, dx2, mu_lam = band.eta1_odd, band.eta2_odd, grid.dx**2, params.mu + params.lam
    lap = params.mu * band.eta_sq  # i1, i2 take its shape: the loop slices them by rows
    i1, i2 = (np.broadcast_to((-1j * dx2) * e, lap.shape) for e in (e1, e2))
    a11, a12, a22 = (
        np.asarray(a * dx2, complex)  # numpy multiplies complex by complex faster than it casts
        for a in (lap + mu_lam * e1**2, mu_lam * (e1 * e2), lap + mu_lam * e2**2)
    )
    # conj s_i as its (multiplier, product) terms, with the products f11, f12, f22, g1, g2
    terms = (((a11, 3), (a12, 4), (i1, 0), (i2, 1)), ((a12, 3), (a22, 4), (i1, 1), (i2, 2)))
    lows = []  # min(1 + rho) of each slab of a call

    def physical(samples: np.ndarray, rows) -> np.ndarray | None:
        rho, w1, w2 = np.divide(samples, dx2, out=samples)
        f11, f12, f22, g1, g2 = products  # 1 + rho, a1, a2, P_rem wait in free slots
        one = np.add(1.0, rho, out=f12)
        lows.append(one.min())
        if not float(np.minimum.reduce(lows)) >= 0.5:  # NaN included, which min() drops
            return None  # no division by 1 + rho <= 0; the guard raises after the loop
        a1, a2 = np.divide(w1, one, out=g1), np.divide(w2, one, out=g2)
        prem = pressure_remainder(params, rho, one, out=f11)
        np.add(np.multiply(w2, a2, out=f22), prem, out=f22)
        np.add(np.multiply(w1, a1, out=f12), prem, out=f11)
        np.multiply(w1, a2, out=f12)
        np.subtract(w1, a1, out=g1)
        np.subtract(w2, a2, out=g2)
        return products

    def source(X: np.ndarray, out: np.ndarray) -> np.ndarray:
        lows.clear()
        blocks = state_core.load(X).round_trip(phys, physical, product_core)
        _guard_vacuum(float(np.minimum.reduce(lows)))
        # eight multiply-adds per row block; the density row is their scratch
        for rows, spectra in zip(product_core.rows, blocks):
            for s, ((m, j), *rest) in zip(out[1:, rows], terms):
                np.multiply(m[rows], spectra[j], out=s)
                for m, j in rest:
                    s += np.multiply(m[rows], spectra[j], out=out[0, rows])
        np.conjugate(out[1:], out=out[1:])
        band.make_hermitian(out[1:])
        out[0] = 0.0
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


def _etd2_weights(band: Band, params: FluidParams, h: float) -> list:
    """`_etd2_step`'s weights E, h phi_1 and h phi_2 of a step of length h on the band."""
    return [s_symbol_grid(h, band, params).apply, phi_symbol_grid(1, h, band, params).apply,
            phi_symbol_grid(2, h, band, params).apply]


def _etd4_weights(band: Band, params: FluidParams, h: float) -> list:
    """`_etd4_step`'s weights of a step of length h on the band: E(h/2), h/2 phi_1(h/2),
    E(h) and the quadrature weights of N(X), N(a) + N(b) and N(c)."""
    exp = s_symbol_grid(h, band, params)
    phi1, phi2, phi3 = (phi_symbol_grid(k, h, band, params) for k in (1, 2, 3))
    w_alpha = phi1 + phi2.scaled(-3.0) + phi3.scaled(4.0)
    w_beta = phi2.scaled(2.0) + phi3.scaled(-4.0)
    w_gamma = phi3.scaled(4.0) + phi2.scaled(-1.0)
    half = s_symbol_grid(0.5 * h, band, params), phi_symbol_grid(1, 0.5 * h, band, params)
    return [w.apply for w in (*half, exp, w_alpha, w_beta, w_gamma)]


def _etd4_step(X: np.ndarray, stages: np.ndarray, source, weights) -> None:
    """One Cox-Matthews ETD4RK step of X in place from `_etd4_weights`, on stages it allocates."""
    exp_half, phi1_half, exp, w_alpha, w_beta, w_gamma = weights
    n0 = source(X, np.empty_like(X))
    ex_half = exp_half(X)
    a = ex_half + phi1_half(n0)
    na = source(a, np.empty_like(a))
    b = ex_half + phi1_half(na)
    nb = source(b, np.empty_like(b))
    c = exp_half(a) + phi1_half(nb * 2.0 - n0)
    nc = source(c, np.empty_like(c))
    X[...] = exp(X) + w_alpha(n0)
    X += w_beta(na + nb)
    X += w_gamma(nc)


# scheme -> (its weights of a step of length h, its step): the one list of the schemes
_SCHEMES = {"etd2": (_etd2_weights, _etd2_step), "etd4": (_etd4_weights, _etd4_step)}


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
        if self.scheme not in _SCHEMES:
            raise SolverError(f"unknown scheme {self.scheme!r} (use one of {', '.join(_SCHEMES)})")
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


def _stepper(config: SolverConfig, stack: np.ndarray):
    """`_march`'s (dt, build, advance) stepping the band `stack` in place: the scheme's, with its
    stages and source scratch made once, or a linear run's one exact S(gap) per gap (dt = inf)."""
    band, params = config.grid.band, scaled_params(config.params)
    if not config.nonlinear:
        return (math.inf, lambda h: s_symbol_grid(h, band, params),
                lambda symbol: np.copyto(stack, symbol.apply(stack)))
    weights, take = _SCHEMES[config.scheme]
    stages, source = np.empty((3,) + stack.shape, stack.dtype), _fourier_source(config.grid, params)
    return config.dt_effective, partial(weights, band, params), partial(take, stack, stages, source)


def step(X: State, dt: float, config: SolverConfig) -> State:
    """One step of length dt of a reduced-variable state's band as `simulate` takes it, made
    anew on each call; SolverError before any build unless dt passes `SolverConfig`'s checks."""
    if X.grid != config.grid:
        raise SolverError("state grid does not match config grid")
    config, band = replace(config, dt=dt), config.grid.band
    stack = band.gather(np.stack([c.coeffs for c in (X.rho, *X.m)]))
    _, build, advance = _stepper(config, stack)
    advance(build(dt))
    return State.from_stack(config.grid, band.scatter(stack))


# ---------------------------------------------------------------------------
# simulation

# Sobolev index of the H^s norm behind the blow-up guard and the energy.
HS_INDEX = 3
# A snapshot whose H^s norm exceeds this multiple of the initial one aborts.
BLOWUP_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run's times, t = 0 first, `measure(t, X)` at each time after t = 0 (t = 0 is
    checked, not measured) and, for `simulate`, the diagnostics of each time."""

    times: tuple[float, ...]
    values: tuple
    diagnostics: tuple[dict, ...] = ()


def _run_times(snapshot_times) -> tuple[float, ...]:
    """t = 0 and a run's snapshot times; SolverError if none (a `SolverConfig` may have none)."""
    if not snapshot_times:
        raise SolverError("a run needs at least one snapshot time")
    return (0.0, *snapshot_times)


def _march(times, dt, build, advance, snapshot, check, measure, diagnostics=()) -> Trajectory:
    """The snapshot loop of both runs, through `times` from t = 0.

    Each gap is split into nsub = ceil(gap/dt - 1e-12) equal steps, at least one, of
    length h = gap/nsub: `build(h)` makes the gap's weights, `advance(weights)` takes one
    step in place, and the weights are freed before the snapshot.  At t = 0 and at each
    snapshot time, `check(t, gap)` fills `snapshot` (unless it is the live state) and
    raises SolverAbort if the run left its regime: no later step runs.  t = 0 is only
    checked; at each snapshot time after it, `measure(t, X)` reads the snapshot through a
    read-only view, valid only during the call.  The Trajectory keeps the times, what the
    measures returned, one per snapshot time, and the `diagnostics` the checks wrote.
    """
    view, values = snapshot.view(), []
    view.flags.writeable = False  # a writing measure would change the live state
    check(times[0], 0.0)
    for t_prev, t in zip(times, times[1:]):
        gap = t - t_prev
        nsub = max(1, math.ceil(gap / dt - 1e-12))
        weights = build(gap / nsub)
        for _ in range(nsub):
            advance(weights)
        del weights  # freed before the measure and the next gap's build
        check(t, gap)
        values.append(measure(t, view))
    return Trajectory(times, tuple(values), tuple(diagnostics))


def _diagnostics(grid: Grid, rho_star: float = 1.0):
    """Diagnostics of a physical band snapshot as `diagnostics(X, t)`, from Parseval weights
    and transform scratch made once per run; `simulate` adds the Kawashima energy.  `hs` and
    `grad_hs1`, the H^{s-1} norm of the gradient (the dissipation half of the energy
    bound), are band Parseval sums; `mass` is the density's eta = 0 entry, and `min_density`
    is the vacuum guard's min(rho / rho_star), slab by slab (NaN if a sample is)."""
    band, core, scale = grid.band, BandTransform(grid, ()), grid.dx**2 * rho_star
    grad_weight = band.eta_sq * band.sobolev_weight(HS_INDEX - 1)
    phys = core.sample_slab()

    def diagnostics(X: np.ndarray, t: float) -> dict:
        lows = []  # the density's minimum per slab; the step forms no products
        core.load(X[0]).round_trip(phys, lambda rho, rows: lows.append(
            np.divide(rho, scale, out=rho).min()))
        return {
            "t": t,
            "mass": float(X[0, 0, 0].real),
            "min_density": float(1.0 + np.minimum.reduce(lows)),
            "hs": sobolev_norm(X, HS_INDEX, band),
            "grad_hs1": float(np.sqrt(parseval_sum(band, [(c, c) for c in X], grad_weight))),
        }

    return diagnostics


def _energy_check(hs: float, hs0: float, blowup_factor: float) -> None:
    """SolverAbort unless a snapshot's H^s norm is finite and within the blow-up bound."""
    if not np.isfinite(hs):
        raise SolverAbort(f"non-finite state: H^s = {hs}")
    if hs0 > 0 and hs > blowup_factor * hs0:
        raise SolverAbort(
            f"energy blow-up: H^s grew to {hs:.3e} (> {blowup_factor} x initial {hs0:.3e})"
        )


def simulate(X0: np.ndarray, config: SolverConfig, measure: Callable) -> Trajectory:
    """Advance X0, the (3, n, n/2 + 1) half-spectrum stack of (rho_tilde, m1, m2) on the config's
    grid, through its snapshot times with diagnostics, measuring each snapshot (`_march`): the band
    stack in physical variables, in one array made once per run, from which each check computes the
    diagnostics.  The run gathers X0's band, dropping the other coefficients, then drops X0.
    SolverError before any build unless X0 has that shape; vacuum (in the step that meets it), a
    non-finite state or energy blow-up (at the snapshot that shows it) raises SolverAbort."""
    times, grid, band = _run_times(config.snapshot_times), config.grid, config.grid.band
    if getattr(X0, "shape", None) != (shape := (3,) + grid.spectral_shape):
        raise SolverError(f"initial data must be a half-lattice stack of shape {shape}, "
                          f"got {getattr(X0, 'shape', type(X0).__name__)}")
    rs = config.params.rho_star
    stack = band.gather(np.asarray(X0, complex))  # real coefficients too, cast once
    del X0  # the run reads only its band
    stack *= 1.0 / rs
    dt, build, advance = _stepper(config, stack)
    snapshot, diagnose, diagnostics = np.empty_like(stack), _diagnostics(grid, rs), []
    dissipation = 0.0

    def check(t, gap):
        # Kawashima-type energy functional ||X||_{H^s}^2 + int ||grad X||_{H^{s-1}}^2,
        # accumulated by snapshot trapezoid; its boundedness is a run diagnostic
        nonlocal dissipation
        row = diagnose(np.multiply(stack, rs, out=snapshot), t)
        last = diagnostics[-1] if diagnostics else row
        dissipation += 0.5 * gap * (last["grad_hs1"] ** 2 + row["grad_hs1"] ** 2)
        row["kawashima_energy"] = row["hs"] ** 2 + dissipation
        diagnostics.append(row)
        # only finiteness at t = 0
        _energy_check(row["hs"], diagnostics[0]["hs"], BLOWUP_FACTOR if gap else math.inf)

    return _march(times, dt, build, advance, snapshot, check, measure, diagnostics)


# ---------------------------------------------------------------------------
# incompressible vorticity control solver


def _vorticity_source(grid: Grid):
    """-u.grad omega in Fourier coefficients on the band, with u the torus Biot-Savart velocity
    of the zero-mean part of omega, as `source(x, out)` on (1, band) stacks.  Basdevant's form
    u.grad omega = d1 d2 (u2^2 - u1^2) + (d1^2 - d2^2)(u1 u2): one inverse transform of (u1, u2),
    one forward of the two products, whose aliases fall off the band |k_i| <= n/3 and are cut.
    Both transforms run unscaled: the velocity multipliers carry the inverse's 1/dx^2 and
    `cross` and `diff` the forward's dx^2, so conj of the assembled forward blocks is the source.
    One round trip, two fields each way, forms the products one slab of rows at a time."""
    band, core, dx2 = grid.band, BandTransform(grid, (2,)), grid.dx**2
    (k1, k2), e1, e2 = band.biot_savart_multiplier, band.eta1, band.eta2
    velocity = np.conj(k1) / dx2, np.conj(k2) / dx2
    # both vanish at eta = 0: circulation is kept; complex, as in `_fourier_source`
    cross, diff = (np.asarray(m * dx2, complex) for m in (e1 * e2, e1**2 - e2**2))
    phys = core.sample_slab((3,))

    def products(velocity_rows: np.ndarray, rows) -> np.ndarray:
        u1, u2 = velocity_rows
        np.multiply(u1, u2, out=phys[2])
        np.subtract(np.multiply(u2, u2, out=u2), np.multiply(u1, u1, out=u1), out=u2)
        return phys[1:]

    def source(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        for rows, (v1, v2) in zip(core.rows, core.blocks):
            np.conjugate(x[0, rows], out=v1)
            np.multiply(velocity[1][rows], v1, out=v2)
            v1 *= velocity[0][rows]
        for rows, (f_sq, f12) in zip(core.rows, core.round_trip(phys[:2], products)):
            np.multiply(cross[rows], f_sq, out=out[0, rows])
            out[0, rows] += np.multiply(diff[rows], f12, out=f12)
        np.conjugate(out, out=out)
        band.make_hermitian(out)
        return out

    return source


def vorticity_simulate(omega0: np.ndarray, grid: Grid, nu: float, snapshot_times, dt: float,
                       measure: Callable) -> Trajectory:
    """Advance omega0, an (n, n/2 + 1) half spectrum on the grid, by the 2D vorticity equation
    with ETD2RK and exact heat flow, measuring each snapshot (`_march`) of the band spectrum,
    the live state.  The run's stages and source scratch are made once, and it drops omega0
    after the gather.  A non-finite snapshot, t = 0 included, raises SolverAbort.  SolverError,
    before the gather, unless dt and nu are finite and positive, the snapshot times are valid
    and omega0 has that shape (as has one of another L at the same n, run on this grid)."""
    if dt is None:  # SolverConfig's None is the acoustic CFL default; this run has none
        raise SolverError("time step must be finite and positive, got None")
    times = _run_times(_time_grid(dt, snapshot_times))
    if not (math.isfinite(nu) and nu > 0):
        raise SolverError(f"viscosity nu must be finite and positive, got {nu}")
    if getattr(omega0, "shape", None) != (shape := grid.spectral_shape):
        raise SolverError(f"initial vorticity must be a half spectrum of shape {shape}, "
                          f"got {getattr(omega0, 'shape', type(omega0).__name__)}")
    band = grid.band
    omega = band.gather(np.asarray(omega0, complex)[None])
    del omega0  # the run reads only its band
    stages, source = np.empty((3,) + omega.shape, omega.dtype), _vorticity_source(grid)

    def build(h):  # exp(-nu |eta|^2 h), h phi_1 and h phi_2 of -nu |eta|^2 h
        return [partial(np.multiply, heat_weight(k, h, band, nu)) for k in range(3)]

    def advance(weights):
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the check
            _etd2_step(omega, stages, source, weights)

    def check(t, gap):
        if not np.isfinite(omega).all():
            raise SolverAbort(f"non-finite state: vorticity at t = {t:g}")

    return _march(times, dt, build, advance, omega[0], check, measure)
