"""Decay-rate experiments: fits, reports, and the experiment registry.

Every experiment collects its `ExperimentReport` rows in an
`ExperimentResult(name)`: `add` appends one row, `rate` fits a (t, value)
series against the predicted exponent, `decay` reports that a residual
weighted by t^(predicted exponent) decays (both keep their series for
export), and `bound` reports the worst of some deviations as a one-sided
bound, NaN if any of them is.  Predicted exponents come from one formula
table keyed by (estimate, p, |sigma|), never from per-case constants.

Report pass semantics (`mode`):
  "match"     |fitted - predicted| <= tolerance   (two-sided rate statements)
  "bound"     fitted <= predicted + tolerance     (one-sided upper bounds)
  "positive"  fitted > 0 with r2 >= 0.98          (exponential-decay rate b)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .kernels import (
    KernelError,
    KernelSymbol,
    artificial_diagonal_field,
    default_cutoff,
    generator_symbol_grid,
    heat_leray_kernel_magnitudes,
    heat_weight,
    low_pass,
    phi_symbol_grid,
    s_symbol_grid,
)
from .profiles import (
    LOCALIZED_EDGE,
    FluidParams,
    ProfileError,
    biot_savart,
    circulation_alpha,
    dipole_vorticity_field,
    first_moments_beta,
    oseen_pair_fields,
    oseen_vorticity_field,
    profile_vorticity,
    vorticity_of,
)
from .solver import (SolverAbort, SolverConfig, SolverError, Trajectory, scaled_params, simulate,
                     vorticity_simulate)
from .spectral import (
    BandTransform,
    Grid,
    SpectralError,
    derivative,
    derivative_multiplier,
    gradient,
    hermitian_defect,
    leray_decompose,
    lp_norm,
    lp_of_magnitude,
    magnitude,
    make_grid,
    parseval_sum,
    sample,
    sobolev_norm,
    support_band,
    to_spectral,
)


class HarnessError(ValueError):
    pass


class ConfigError(ValueError):
    """An invalid run configuration; the message starts with the offending key."""


# ---------------------------------------------------------------------------
# fitting


# fewest samples a rate fit takes
_MIN_FIT_SAMPLES = 6


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float


def fit_rate(t, values, log_correction: bool = False) -> FitResult:
    """Least-squares slope in log t - log value coordinates of positive samples
    on a strictly increasing time grid, at least `_MIN_FIT_SAMPLES` of them.

    With log_correction the values are divided by ln(1+t) first, matching
    logarithmic envelopes.
    """
    t, v = np.asarray(t, dtype=float), np.asarray(values, dtype=float)
    if len(t) < _MIN_FIT_SAMPLES:
        raise HarnessError(f"rate fit needs >= {_MIN_FIT_SAMPLES} samples, got {len(t)}")
    if len(t) != len(v):
        raise HarnessError("times and values differ in length")
    if np.any(np.diff(t) <= 0):
        raise HarnessError("rate fit times must be strictly increasing")
    if not np.all(v > 0):
        raise HarnessError("rate fit values must be positive")
    if log_correction:
        v = v / np.log1p(t)
    return _least_squares(np.log(t), np.log(v))


def _least_squares(x, y) -> FitResult:
    """Straight-line least-squares fit y ~ slope x + intercept with its r^2."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return FitResult(float(slope), float(intercept), r2)


# ---------------------------------------------------------------------------
# predicted exponents: one formula table


_EXPONENT_FORMULAS = {
    # L^p decay of the low-frequency curl-free kernel applied to data
    "lf_kernel": lambda p, s: -(1.0 - 1.0 / p + s / 2.0),
    # L^p decay of the artificial-viscosity kernel (wave * heat)
    "artificial_kernel": lambda p, s: -(1.25 - 1.5 / p + s / 2.0),
    # improvement of the artificial kernel over the true low-frequency part
    "kernel_difference": lambda p, s: -(1.0 - 1.0 / p + s / 2.0 + 0.5),
    # derived heat-Leray kernel norms
    "heat_leray": lambda p, s: -(1.0 - 1.0 / p + s / 2.0),
    # heat flow of divergence-free data with (1+|x|) rot m integrable
    "heat_dipole_data": lambda p, s: -(1.0 - 1.0 / p + s / 2.0),
    # heat flow of data with vanishing circulation and first moments
    "heat_second_moment_data": lambda p, s: -(1.0 - 1.0 / p + s / 2.0 + 0.5),
    # sound (curl-free) part of the nonlinear solution
    "sound_part": lambda p, s: -(1.25 - 1.5 / p + s / 2.0),
    # difference between the solution and the linear evolution, p >= 2
    "nonlinear_correction": lambda p, s: -(1.0 - 1.0 / p + s / 2.0 + 0.5),
    # weights of the profile-convergence statements
    "incompressible_weight": lambda p, s: 1.0 - 1.0 / p + s / 2.0,
    "dipole_weight": lambda p, s: 1.5 - 1.0 / p + s / 2.0,
}


def predicted_exponent(estimate: str, p: float, sigma: int) -> float:
    """Exponent of the named estimate at Lebesgue index p and |sigma|."""
    try:
        formula = _EXPONENT_FORMULAS[estimate]
    except KeyError:
        raise HarnessError(f"unknown estimate {estimate!r}") from None
    return formula(float(p), int(sigma))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    label: str
    predicted: float
    fitted: float
    tolerance: float
    p: float | None = None
    sigma: int | None = None
    r2: float | None = None
    mode: str = "match"
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if not np.isfinite(self.fitted):
            return False
        if self.mode == "match":
            return bool(abs(self.fitted - self.predicted) <= self.tolerance)
        if self.mode == "bound":
            return bool(self.fitted <= self.predicted + self.tolerance)
        if self.mode == "positive":
            return bool(self.fitted > 0 and (self.r2 is None or self.r2 >= 0.98))
        raise HarnessError(f"unknown report mode {self.mode!r}")


def _worst(values) -> float:
    """The largest of 0.0 and the values (a number, a list or an array), NaN if any is:
    Python's max(0.0, nan) is 0.0, so a NaN would pass."""
    return float(np.max(values, initial=0.0))


@dataclass
class ExperimentResult:
    """One experiment's rows, collected as it runs: `add` appends a report, `bound`
    a worst case, and `rate` and `decay` also keep the series they judge under `series`."""

    name: str
    reports: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def add(self, label, predicted, fitted, tolerance, **optional) -> None:
        """Append one report; `optional` holds its p, sigma, r2, mode and meta."""
        report = ExperimentReport(self.name, label, predicted, fitted, tolerance, **optional)
        self.reports.append(report)

    def bound(self, label, predicted, values, tolerance, **optional) -> None:
        """Append a one-sided bound row whose `fitted` is `_worst(values)`; `optional`
        holds its p, sigma and meta."""
        self.add(label, predicted, _worst(values), tolerance, mode="bound", **optional)

    def rate(self, label, estimate, p, sigma, t, values, tolerance, mode="match",
             allow_log=False, fit_window=None) -> None:
        """Keep the samples as series[label] and fit them, restricted to
        `fit_window` = (t_min, t_max) if given (edges inclusive to 1e-12),
        against the formula table, optionally with a log envelope."""
        t, values = np.asarray(t), np.asarray(values)
        self.series[label] = (t, values)
        if fit_window:
            keep = (t >= fit_window[0] - 1e-12) & (t <= fit_window[1] + 1e-12)
            t, values = t[keep], values[keep]
        predicted = predicted_exponent(estimate, p, sigma)
        try:
            fit = fit_rate(t, values)
            used_log = False
            if allow_log and abs(fit.slope - predicted) > tolerance:
                logfit = fit_rate(t, values, log_correction=True)
                if abs(logfit.slope - predicted) < abs(fit.slope - predicted):
                    fit, used_log = logfit, True
        except HarnessError as err:
            raise HarnessError(f"{self.name}/{label}: {err}") from None
        self.add(label, predicted, fit.slope, tolerance, p=p, sigma=sigma, r2=fit.r2,
                 mode=mode, meta={"log_envelope": used_log})

    def decay(self, label, estimate, p, sigma, t, values, horizon, final_fraction, key=None):
        """Weight each value by t^predicted_exponent(estimate, p, sigma), keep
        the weighted residual as series[key or label] and report that it decays:
        monotone over the last half of the run (HarnessError unless two samples lie in
        it), and a final value below `final_fraction` of the first."""
        e = predicted_exponent(estimate, p, sigma)
        t = np.asarray(t)
        # per element on Python floats, as a vectorised power may round differently
        values = np.array([float(ti) ** e * v for ti, v in zip(t, values)])
        self.series[key or label] = (t, values)
        half = values[t >= horizon / 2.0 - 1e-9]
        if len(half) < 2:
            raise HarnessError(f"{self.name}/{label}: a decay needs >= 2 samples in the last "
                               f"half [h/2, h], got {len(half)}")
        self.bound(f"{label}-monotone", 1.0, half[1:] / half[:-1], 0.0, p=p, sigma=sigma)
        self.bound(f"{label}-final-fraction", final_fraction, values[-1] / values[0], 0.0,
                   p=p, sigma=sigma)


def _lp_series(grid: Grid, magnitudes, ps):
    """L^p norms of each pointwise-magnitude array, one list per p in `ps`.  Pass a
    generator: each array is then made only after the previous one was measured at
    every p and released."""
    vals = [[] for _ in ps]
    for mag in magnitudes:
        for out, p in zip(vals, ps):
            out.append(lp_of_magnitude(mag, grid, p))
        del mag  # before the next array is made
    return vals


def _perp_residual(grid: Grid, X: np.ndarray, uref, scale):
    """Divergence-free part of the band snapshot X's momentum, scattered to the half
    lattice, minus scale * uref."""
    perp, _ = leray_decompose(X[1:], grid.band)
    return tuple(grid.band.scatter(c) - u * scale for c, u in zip(perp, uref))


def _random_stack(grid: Grid, rng, k: int = 3) -> np.ndarray:
    """The half spectra of k smooth random real fields, normal samples with damped high
    modes, drawn row by row: by default a state (rho_tilde, m1, m2)."""
    X = np.empty((k,) + grid.spectral_shape, complex)
    for row in X:
        np.multiply(to_spectral(rng.standard_normal((grid.n, grid.n)), grid),
                    np.exp(-0.05 * grid.eta_sq), out=row)
    return X


# ---------------------------------------------------------------------------
# experiment: kernel algebra


def _relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest coefficient deviation of the stack a from b, per row relative to b's peak."""
    return float(np.max([
        np.abs(ca - cb).max() / max(np.abs(cb).max(), 1e-300) for ca, cb in zip(a, b)
    ]))


def _generator_samples(grid: Grid) -> np.ndarray:
    """Where kernel-algebra's generator rows sample: the wavevectors with |eta1|, |eta2| <= 2
    off eta = 0 and the Nyquist lines."""
    box = (np.abs(grid.eta1) <= 2.0) & (np.abs(grid.eta2) <= 2.0)
    return box & (grid.eta_sq > 0.0) & (grid.eta_sq_odd == grid.eta_sq)


def run_kernel_algebra(ctx: RunManifest) -> ExperimentResult:
    """Exact-identity suite on the grid symbols the solver applies: semigroup,
    generator, projectors, splitting.

    The semigroup rows compare S(t) S(s) with S(t + s) on a random state in
    the dealiased band.  On the Nyquist row and column a grid symbol pairs
    the full |eta|^2 with zeroed odd wavenumbers, so it is not a semigroup
    there; the solver never carries those modes, since the 2/3 rule zeroes
    them.
    """
    name = "kernel-algebra"
    params = scaled_params(ctx.params)
    small = RECORDS[name].grid(ctx)
    rng = np.random.default_rng(ctx.seed)
    # the random state is drawn 2,000 values in and the (t, s) pairs take the next 200, as
    # in earlier versions, so semigroup-heat and realness keep their values
    rng.bit_generator.advance(2000)
    Xr = _random_stack(small, rng)
    X = Xr * small.dealias_mask
    result = ExperimentResult(name)
    for kind in ("spar", "s", "artificial_par", "artificial", "wave"):
        deviations = []
        for t, s in rng.uniform(0.05, 2.0, size=(20, 2)):
            # phi_0 = exp: the kernel symbol itself
            St, Ss, Sts = (phi_symbol_grid(0, h, small, params, kind) for h in (t, s, t + s))
            deviations.append(_relative_deviation(St.compose(Ss).apply(X), Sts.apply(X)))
        result.bound(f"semigroup-{kind.replace('_', '-')}", 0.0, deviations, 1e-10)

    # the heat semigroup, through the weights the vorticity solver applies
    a = (Xr * heat_weight(0, 0.9, small, params.mu)) * heat_weight(0, 0.6, small, params.mu)
    b = Xr * heat_weight(0, 1.5, small, params.mu)
    result.bound("semigroup-heat", 0.0, _relative_deviation(a, b), 1e-10)

    # (S(dt) - I)/dt against the generator, per sampled wavevector, relative to
    # max(|generator entries|, 1)
    dt, sampled = 1e-6, _generator_samples(small)
    for kind in ("spar", "s"):
        gen = generator_symbol_grid(kind, small, params)
        increment = phi_symbol_grid(0, dt, small, params, kind) - KernelSymbol.identity(small)
        error = (increment.scaled(1.0 / dt) - gen).entry_magnitude()
        scale = np.maximum(gen.entry_magnitude(), 1.0)
        result.bound(f"generator-{kind}", 0.0, (error / scale)[sampled], 1e-5)

    idempotency, orthogonality = [], []
    for _ in range(100):
        m = _random_stack(small, rng, 2)
        perp, par = leray_decompose(m, small)
        perp2, par2 = leray_decompose(perp, small)
        scale = max(np.abs(m[0]).max(), np.abs(m[1]).max(), 1e-300)
        idempotency += [np.abs(perp2[0] - perp[0]).max() / scale,
                        np.abs(perp2[1] - perp[1]).max() / scale,
                        np.abs(par2[0]).max() / scale]
        inner = parseval_sum(small, zip(perp, par))
        na, nb = lp_norm(perp, small, 2), lp_norm(par, small, 2)
        if na != 0 and nb != 0:  # not `> 0`, which would skip a NaN norm
            orthogonality.append(abs(inner) / (na * nb))
    result.bound("leray-idempotency", 0.0, idempotency, 1e-12)
    result.bound("leray-orthogonality", 0.0, orthogonality, 1e-12)

    # the low- and high-frequency parts, scaled by the weight kernel-rates applies
    sym, chi = s_symbol_grid(0.8, small, params), low_pass(small, default_cutoff(params))
    deviation = (sym.scaled(chi) + sym.scaled(1.0 - chi) - sym).entry_magnitude().max()
    result.bound("split-partition", 0.0, deviation / max(sym.entry_magnitude().max(), 1e-300),
                 1e-15)

    # a real state keeps an exactly Hermitian spectrum under the symbol
    out = phi_symbol_grid(0, 0.7, small, params, "spar").apply(Xr)
    result.bound("realness", 0.0, [hermitian_defect(c, small) for c in out], 0.0)
    return result


# ---------------------------------------------------------------------------
# experiment: kernel rates


def _localized_sound_state(grid: Grid) -> np.ndarray:
    """Tightly localized state with density mass and curl-free momentum."""
    rho = sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / 4.0))
    m = gradient(sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / 6.0)), grid)
    return np.stack((rho, *m))


def _lf_kernel_rows(result: ExperimentResult, grid: Grid, params, chi) -> None:
    """kernel-rates' low-frequency rows, on the smallest band that holds the low-pass
    weight `chi`: the curl-free LF kernel and the kernel difference on a localized state."""
    band = support_band(grid, chi)
    chi, core = band.gather(chi), BandTransform(grid, (), band)
    X0 = band.gather(_localized_sound_state(grid))
    lf_times = np.geomspace(6.0, 56.0, 9)
    diff_vals = []

    def lf_magnitudes():
        # sigma = 0 and 1 of each LF state in turn: one state alive at a time, and no
        # array of one time alive while the next time's are made (the heap fragmented
        # and grew otherwise)
        for t in lf_times:
            lf = phi_symbol_grid(0, t, band, params, "spar").scale(chi)
            lf_art = phi_symbol_grid(0, t, band, params, "artificial_par").scale(chi)
            diff_vals.append(sobolev_norm((lf - lf_art).apply(X0), 0, band))
            del lf_art
            X = lf.apply(X0)
            del lf
            yield core.magnitude(X)
            yield core.magnitude(X * derivative_multiplier(band, (1, 0)))
            del X

    lf_ps = (2.0, np.inf)
    lf_vals = _lp_series(grid, lf_magnitudes(), lf_ps)
    for i, p in enumerate(lf_ps):
        for sigma in (0, 1):
            # this estimate is an upper bound; it is saturated at p=2
            # while the sup norm genuinely decays faster (ring spreading)
            result.rate(f"lf-kernel-p{p:g}-s{sigma}", "lf_kernel", p, sigma, lf_times,
                        lf_vals[i][sigma::2], 0.1, mode="match" if p == 2.0 else "bound")

    # kernel difference: LF parts of the true and artificial kernels
    result.rate("kernel-difference-p2-s0", "kernel_difference", 2.0, 0, lf_times, diff_vals,
                0.1, mode="bound")


def _hf_decay_rows(result: ExperimentResult, grid: Grid, params, hf_pass, rng) -> None:
    """kernel-rates' high-frequency exponential decay with fitted rate b, measured on
    a random state held as one stack, applied into one output stack; each time's symbol
    is scaled in place and freed before the output's norm."""
    hf_times = np.linspace(1.0, 10.0, 10)
    Xr = _random_stack(grid, rng)
    denom = sobolev_norm(Xr, 0, grid)
    out, hf_vals = np.empty_like(Xr), []
    for t in hf_times:
        phi_symbol_grid(0, t, grid, params, "spar").scale(hf_pass).apply(Xr, out)
        hf_vals.append(sobolev_norm(out, 0, grid) / denom)
    result.series["hf-decay"] = (hf_times, np.array(hf_vals))
    fit = _least_squares(hf_times, np.log(hf_vals))
    result.add("hf-exponential-rate", 0.0, -fit.slope, 0.0, r2=fit.r2, mode="positive",
               meta={"envelope": "exp(-b t)"})


def _heat_flow_magnitudes(grid: Grid, mu: float, data, times, max_sigma: int):
    """Per time, the magnitudes of D^(sigma, 0) of the heat flow exp(mu t Delta) of the
    data fields for sigma = 0, ..., max_sigma in turn, on the smallest band that holds the
    heat factor: one flow per time, each derivative made in place on the last."""
    work = np.empty(grid.spectral_shape, complex)
    for t in times:
        h = heat_weight(0, t, grid, mu)
        band = support_band(grid, h)
        h, core = band.gather(h), BandTransform(grid, work, band)
        fields = [band.gather(f) for f in data]
        for f in fields:
            np.multiply(h, f, out=f)
        for sigma in range(max_sigma + 1):
            if sigma:
                for f in fields:
                    f *= derivative_multiplier(band, (1, 0))
            yield core.magnitude(fields)


def run_kernel_rates(ctx: RunManifest) -> ExperimentResult:
    """Fitted L^p decay exponents of the linear kernels against the formulas.

    Window and parameter choices keep the asymptotic regime inside the box:
    the artificial-kernel family runs at mu_par = 1/2 so the acoustic ring
    separates from its width well before it reaches the boundary, and the
    heat-flow families fit on t in [8, 128] where the age of the sampled
    profile data no longer biases the slope.
    """
    name = "kernel-rates"
    params = scaled_params(ctx.params)
    grid = RECORDS[name].grid(ctx)
    rng = np.random.default_rng(ctx.seed)
    result = ExperimentResult(name)

    # artificial-viscosity kernel norms (diagonal entry, thin-ring viscosity)
    ring_params = replace(params, mu=0.25, lam=0.0)
    art_times = np.geomspace(4.0, 56.0, 9)
    art_ps = (1.0, 2.0, np.inf)
    for sigma in (0, 1):
        fields = (artificial_diagonal_field(t, grid, ring_params, (sigma, 0)) for t in art_times)
        for p, vals in zip(art_ps, _lp_series(grid, (np.abs(f, out=f) for f in fields), art_ps)):
            result.rate(f"artificial-p{p:g}-s{sigma}", "artificial_kernel", p, sigma, art_times,
                        vals, 0.1, allow_log=(sigma == 0 and p in (1.0, np.inf)))

    # the LF and HF parts are the symbols' scalings by one low-pass weight made once and
    # by its complement, made in place; each section's state is made and freed inside
    # its helper
    chi = low_pass(grid, default_cutoff(params))
    _lf_kernel_rows(result, grid, params, chi)
    _hf_decay_rows(result, grid, params, np.subtract(1.0, chi, out=chi), rng)
    del chi

    # heat-Leray kernel norms (non-zero multi-index only; exact power laws)
    hl_times = np.geomspace(1.0, 16.0, 9)
    hl_ps = (1.0, 2.0, np.inf)
    hl_mags = heat_leray_kernel_magnitudes(hl_times, (1, 0), grid, params)
    for p, vals in zip(hl_ps, _lp_series(grid, hl_mags, hl_ps)):
        result.rate(f"heat-leray-p{p:g}-s1", "heat_leray", p, 1, hl_times, vals, 0.1)

    # heat flow of Biot-Savart data (fit past the age of the sampled profile), one data set
    # at a time: the second-moment data are made once the dipole data's rows are measured,
    # and the dipole vorticity is freed once they are made
    perp_times, perp_ps = np.geomspace(8.0, 128.0, 9), (2.0, np.inf)
    omega_dipole = dipole_vorticity_field(grid, 1, 1.0, params)
    dipole_mags = _heat_flow_magnitudes(grid, params.mu, biot_savart(omega_dipole, grid),
                                        perp_times, 1)
    dipole_vals = _lp_series(grid, dipole_mags, perp_ps)
    m_second = biot_savart(derivative(omega_dipole, grid, (1, 0)), grid)
    del omega_dipole
    second_ps = perp_ps + (1.5,)
    second_vals, weighted_vals = [[] for _ in second_ps], []
    for mag in _heat_flow_magnitudes(grid, params.mu, m_second, perp_times, 0):
        for vals, p in zip(second_vals, second_ps):
            vals.append(lp_of_magnitude(mag, grid, p))
        weighted_vals.append(lp_of_magnitude(mag * np.hypot(grid.xc1, grid.xc2), grid, 2.0))
        del mag  # before the next array is made
    for vals, p in zip(dipole_vals, perp_ps):
        for sigma in (0, 1):
            result.rate(f"perp-dipole-p{p:g}-s{sigma}", "heat_dipole_data", p, sigma, perp_times,
                        vals[sigma::2], 0.1)
    for vals, p in zip(second_vals, perp_ps):
        result.rate(f"perp-second-moment-p{p:g}-s0", "heat_second_moment_data", p, 0, perp_times,
                    vals, 0.1)
    # weighted norm |x| K_mu m0 stays on the part-1 rate
    result.rate("perp-weighted-p2-s0", "heat_dipole_data", 2.0, 0, perp_times, weighted_vals, 0.1)
    # small-p interpolation corollary at p = 3/2
    result.rate("perp-small-p1.5-s0", "heat_second_moment_data", 1.5, 0, perp_times,
                second_vals[2], 0.15)
    return result


# ---------------------------------------------------------------------------
# experiment: pointwise bounds


# relative magnitude below which a kernel field is transform noise, not its tail
_RESOLVED_FLOOR = 1e-13


def _fit_pointwise_constant(field, radius, t, c, mu_par):
    """Smallest K with |field| <= K t^{-5/4} * envelope, the envelope being
    t^{3/4} s^{-3/2} inside |x| <= c(t - sqrt t) and exp(-s^2/(K t)) outside.

    Points below `_RESOLVED_FLOOR` of the peak are excluded: they sit at the
    double-precision transform floor, not on the kernel's analytic tail.
    """
    mag = np.abs(field)
    if not np.isfinite(peak := mag.max()):  # a NaN or infinite sample: no K bounds the field
        return float("nan")
    resolved = mag > _RESOLVED_FLOOR * peak
    s = np.abs(radius - c * t)
    inner = (radius <= c * (t - np.sqrt(t))) & resolved
    k_inner = 0.0
    if inner.any():
        k_inner = float((mag[inner] * t**0.5 * s[inner] ** 1.5).max())
    outer = ~inner & resolved
    logmag = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -np.inf)
    log_out = logmag[outer] + 1.25 * np.log(t)
    s2_out = s[outer] ** 2

    def feasible(k):
        # need max over outer points of log|F| + 5/4 log t + s^2/(k t) <= log k
        return float((log_out + s2_out / (k * t)).max()) <= np.log(k)

    lo = max(k_inner, float(peak) * t**1.25, 1e-12)
    hi = lo
    for _ in range(200):
        if feasible(hi):
            break
        hi *= 2.0
    else:
        return float("inf")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid) and mid >= k_inner:
            hi = mid
        else:
            lo = mid
    return hi


# (label, fluid parameters, sampled times); None stands for the run's scaled
# parameters.  Every sampled t is >= 1, where the envelope bounds are stated.
_POINTWISE_CONFIGS = (
    ("default", None, (1.0, 2.0, 4.0, 8.0)),
    # thinner ring: the peak visibly tracks |x| = c t
    ("resolved-ring", FluidParams(mu=0.25, lam=0.0), (2.0, 4.0, 8.0, 16.0)),
)


def _ring_edge(params: FluidParams, t: float) -> float:
    """Outer edge c t + 3 sqrt(mu_par t) of the acoustic ring at time t."""
    return params.c * t + 3.0 * np.sqrt(params.mu_par * t)


def run_pointwise_bound(ctx: RunManifest) -> ExperimentResult:
    """Two-regime envelope of the artificial kernel on the expanding ring.

    For each t the scalar entry of S_tilde_par(t) is evaluated in physical
    space; the samples record the fitted envelope constant K, the radius of
    the magnitude peak against the ring c t +- 3 sqrt(mu_par t), and the far
    tail beyond c t + 6.5 sqrt(mu_par t).  The heat smoothing scale is
    sqrt(2 mu_par t), so 6.5 widths leave the Gaussian tail below 1e-8 with
    margin for its algebraic prefactor (6 widths sit right at e^{-18}).  The
    bounds are stated for t >= 1, and every time in `_POINTWISE_CONFIGS` is.

    Runs on the half-size box: the kernel's heat width sqrt(2 mu_par t) needs
    a few grid points already at t = 1, and the ring stays far from the
    boundary for every sampled time.
    """
    name = "pointwise-bound"
    grid = RECORDS[name].grid(ctx)
    radius = np.hypot(grid.xc1, grid.xc2)
    result = ExperimentResult(name)
    for label, params, times in _POINTWISE_CONFIGS:
        params = params or scaled_params(ctx.params)
        c, mu_par = params.c, params.mu_par
        samples = []
        for t in times:
            width = 3.0 * np.sqrt(mu_par * t)
            if _ring_edge(params, t) >= grid.L / 2.0:  # backstop: the record's precheck comes first
                raise KernelError(
                    f"acoustic ring leaves the box at t={t} (L={grid.L}); enlarge the box"
                )
            diag = artificial_diagonal_field(t, grid, params)
            mag = np.abs(diag)
            far = radius > c * t + 6.5 * np.sqrt(mu_par * t)
            samples.append(
                {
                    "t": t,
                    "k_fit": _fit_pointwise_constant(diag, radius, t, c, mu_par),
                    "peak_radius": float(radius.flat[int(np.argmax(mag))]),
                    "ring": [c * t - width, c * t + width],
                    "tail_ratio": float(mag[far].max() / mag.max()) if far.any() else 0.0,
                }
            )
        result.extras[label] = {"samples": samples}
        ks = np.array([s["k_fit"] for s in samples])
        k_stability = float(ks.max() / ks.min()) if np.all(np.isfinite(ks)) else float("inf")
        ring_ok = all(s["ring"][0] <= s["peak_radius"] <= s["ring"][1] for s in samples)
        result.bound(f"{label}-k-stability", 2.0, k_stability, 0.0)
        result.add(f"{label}-ring-location", 1.0, float(ring_ok), 0.0)
        result.bound(f"{label}-far-tail", 0.0, [s["tail_ratio"] for s in samples], 1e-8)
    return result


# ---------------------------------------------------------------------------
# solver-based experiments


def _generic_state(grid: Grid, eps: float) -> np.ndarray:
    """Zero-mean localized state with sound and incompressible content.

    Width ~3 keeps the acoustic transit over the data below t = 1, so the
    quadratic interaction is developed when the fit windows open.
    """
    rho = sample(
        grid, lambda a, b: np.exp(-(a**2 + b**2) / 9.0) * (1.0 + 0.3 * b / 4.0)
    )
    rho[0, 0] = 0.0
    par = gradient(sample(grid, lambda a, b: np.exp(-(a**2 + b**2) / 12.0)), grid)
    psi = sample(grid, lambda a, b: np.exp(-((a - 1.0) ** 2 + b**2) / 10.0))
    perp = (derivative(psi, grid, (0, 1)) * -1.0, derivative(psi, grid, (1, 0)))
    m = (par[0] * 0.7 + perp[0] * 0.5, par[1] * 0.7 + perp[1] * 0.5)
    scale = max(lp_norm(rho, grid, np.inf), lp_norm(m, grid, np.inf))
    return np.stack((rho, *m)) * (eps / scale)


# sound-decay: geometric snapshots on [1, h], its rates fit on [h / _SOUND_WINDOW, h]
_SOUND_SNAPSHOTS, _SOUND_WINDOW = 14, 4.0
# the runs with `decay` rows: geometric snapshots on [1, h], read on the last half [h/2, h]
_DECAY_SNAPSHOTS = 12


def _snapshot_times(T: float, n: int = _SOUND_SNAPSHOTS) -> tuple[float, ...]:
    return tuple(np.geomspace(1.0, T, n))


def _acoustic_horizon(ctx: RunManifest, grid: Grid) -> float:
    """Largest horizon keeping the sound ring c T + 3 sqrt(mu_par T) inside
    0.45 L; protects measurements when a config requests a long run."""
    params = scaled_params(ctx.params)
    c, mu_par = params.c, params.mu_par
    root = (-3.0 * np.sqrt(mu_par) + np.sqrt(9.0 * mu_par + 1.8 * grid.L * c)) / (2.0 * c)
    return min(ctx.T, float(root**2))


def _diffusive_horizon(ctx: RunManifest, grid: Grid) -> float:
    """Largest horizon keeping three diffusive widths of age-1 profile data,
    2 sqrt(nu (T+1)) each, inside 0.45 L."""
    nu = ctx.params.nu
    return min(ctx.T, (0.075 * grid.L) ** 2 / nu - 1.0)


def _measured(what: str, run: Callable[[], Trajectory]) -> tuple:
    """The values the solver run `what`, `run()`, measured, one per snapshot time; a SolverAbort
    raises HarnessError("<what> run aborted: <reason>"), so an aborted run reaches no fit."""
    try:
        return run().values
    except SolverAbort as err:
        raise HarnessError(f"{what} run aborted: {err}") from err


def _simulate(ctx: RunManifest, grid: Grid, data: list[np.ndarray], horizon, times, what,
              measure, nonlinear=True) -> tuple:
    """The values `measure` took of the compressible solver run `what` on `grid` with the
    manifest's fluid and dt.  `data` holds the initial stack and is emptied, so the solver
    holds the only reference and frees the stack after its gather."""
    cfg = SolverConfig(grid, ctx.params, T=horizon, dt=ctx.dt, snapshot_times=times,
                       nonlinear=nonlinear)
    return _measured(what, lambda: simulate(data.pop(), cfg, measure))


def run_sound_decay(ctx: RunManifest) -> ExperimentResult:
    """L^p decay of the curl-free part of a small-amplitude nonlinear run."""
    name = "sound-decay"
    grid, horizon = RECORDS[name].grid(ctx), RECORDS[name].horizon(ctx)
    ps = (2.0, np.inf, 1.0)

    def measure(t, X):
        # the L^p norms of the sound part's pointwise magnitude, from the band
        par = leray_decompose(X[1:], grid.band)[1]
        mag = BandTransform(grid, ()).magnitude((X[0], *par))
        return [lp_of_magnitude(mag, grid, p) for p in ps]

    times = _snapshot_times(horizon)
    values = _simulate(ctx, grid, [_generic_state(grid, ctx.epsilon)], horizon, times, name,
                       measure)
    result = ExperimentResult(name, extras={"horizon": horizon})
    for p, vals in zip(ps, zip(*values)):
        result.rate(f"sound-p{p:g}-s0", "sound_part", p, 0, times, vals, 0.15,
                    allow_log=(p == 1.0), fit_window=(horizon / _SOUND_WINDOW, horizon))
    return result


def _linear_deviations(ctx: RunManifest, grid: Grid, eps, horizon, times, what,
                       nonlinear=True) -> list[float]:
    """L^2 norms of X(t) - S(t) X(0), as band Parseval sums, at each snapshot of the solver
    run `what` from the generic state of amplitude eps, whose band X(0) is gathered before
    the run; each band symbol S(t) is built at its snapshot and freed before the next."""
    band, params = grid.band, scaled_params(ctx.params)
    data = [_generic_state(grid, eps)]
    X0 = band.gather(data[0])

    def measure(t, X):
        return sobolev_norm(X - s_symbol_grid(t, band, params).apply(X0), 0, band)

    return list(_simulate(ctx, grid, data, horizon, times, what, measure, nonlinear))


def run_nonlinear_smallness(ctx: RunManifest) -> ExperimentResult:
    """Quadratic smallness of the deviation from the linear evolution."""
    name = "nonlinear-smallness"
    grid, horizon = RECORDS[name].grid(ctx), RECORDS[name].horizon(ctx)
    times = _snapshot_times(horizon, 12)
    eps_sweep = (0.1 * ctx.epsilon, 0.3 * ctx.epsilon, ctx.epsilon)
    result = ExperimentResult(name)
    deviations = {}
    for eps in eps_sweep:
        deviations[eps] = np.array(_linear_deviations(ctx, grid, eps, horizon, times,
                                                      f"{name} eps={eps:g}"))
        result.series[f"deviation-eps{eps:g}"] = (np.array(times), deviations[eps])

    # amplitude scaling at a mid-horizon time
    mid = len(times) // 2
    eps_arr = np.array(eps_sweep)
    dmid = np.array([deviations[e][mid] for e in eps_sweep])
    slope = _least_squares(np.log(eps_arr), np.log(dmid)).slope
    result.add("amplitude-scaling", 2.0, slope, 0.2, p=2.0, sigma=0,
               meta={"t_probe": times[mid]})

    # envelope-normalized boundedness at the largest amplitude
    t_arr = np.array(times)
    envelope = np.log1p(t_arr) * (1.0 + t_arr) ** predicted_exponent(
        "nonlinear_correction", 2.0, 0
    )
    normalized = deviations[ctx.epsilon] / envelope
    ratio = float(normalized.max() / normalized.min())
    result.series["envelope-normalized"] = (t_arr, normalized)
    result.bound("envelope-boundedness", 3.0, ratio, 0.0, p=2.0, sigma=0)

    # linear-only control: the deviation vanishes identically
    control = _linear_deviations(ctx, grid, ctx.epsilon, horizon, times,
                                 f"{name} linear-control", False)
    result.bound("linear-control", 0.0, control, 1e-12)
    return result


def _dipole_data(ctx: RunManifest, grid: Grid):
    """incompressible-limit's dipole-data case, zero circulation and nonzero first
    moments: the momentum of a dipole's Biot-Savart velocity at amplitude epsilon, as
    `_momentum_data` gives it, and the first moments of its vorticity (ProfileError if
    that is not localized)."""
    params = ctx.params
    data, _ = _momentum_data(ctx, grid,
                             biot_savart(dipole_vorticity_field(grid, 1, 1.0, params), grid))
    return data, first_moments_beta(vorticity_of(data[0][1:], grid, params), grid, params)


def _momentum_data(ctx: RunManifest, grid: Grid, u):
    """Dealiased zero-density data of momentum rho_star amp u, amp = epsilon / sup |u|, as
    a one-element list for `_simulate`; and amp."""
    amp = ctx.epsilon / lp_norm(u, grid, np.inf)
    m = [f * (amp * ctx.params.rho_star) for f in u]
    return [np.stack([np.zeros_like(m[0]), *m]) * grid.dealias_mask], amp


def _beta_drift(late, moments) -> float:
    """max_i |beta_i(late) - beta_i| / max_i |beta_i| of two moment records, NaN if a term is."""
    scale = max(abs(moments.beta[0]), abs(moments.beta[1]))
    return np.max([abs(late.beta[i] - moments.beta[i]) for i in (0, 1)]) / scale


def _dipole_measurements(ctx: RunManifest, grid: Grid, horizon, times, ps):
    """incompressible-limit's dipole-data run, measured at each snapshot, so that no
    snapshot or residual outlives its measure: the data's first moments, the L^p norms
    (indexed by snapshot, sigma, p) of the weighted residuals against the dipole profile,
    and the relative beta drift at the moment probe with its time."""
    params, rs = ctx.params, ctx.params.rho_star
    data, moments = _dipole_data(ctx, grid)
    # moment consistency along the run, probed while the vorticity is still compactly
    # supported in the box
    t_probe = float(max(t for t in times if t <= 8.0))

    def measure(t, X):
        # one Leray split and one reference profile per snapshot
        uref = biot_savart(profile_vorticity(moments, t, params, grid), grid)
        d = _perp_residual(grid, X, uref, rs)
        mags = (magnitude([derivative(f, grid, (sigma, 0)) for f in d] if sigma else d, grid)
                for sigma in (0, 1))
        norms = [[lp_of_magnitude(mag, grid, p) for p in ps] for mag in mags]
        if t != t_probe:
            return norms, None
        m = grid.band.scatter(X[1:])
        late = first_moments_beta(vorticity_of(m, grid, params), grid, params)
        return norms, float(_beta_drift(late, moments))

    values = _simulate(ctx, grid, data, horizon, times, "incompressible-limit dipole-data",
                       measure)
    (drift,) = (drift for _, drift in values if drift is not None)
    return moments, np.array([norms for norms, _ in values]), drift, t_probe


def run_incompressible_limit(ctx: RunManifest) -> ExperimentResult:
    """Convergence of the divergence-free momentum to the dipole profile."""
    name = "incompressible-limit"
    # finer box: the profile data must be spectrally resolved from t ~ 1.
    # The measured fields are divergence-free (sound is projected out), so
    # the horizon is capped by the diffusive support, not the acoustic ring.
    grid, horizon = RECORDS[name].grid(ctx), RECORDS[name].horizon(ctx)
    params = ctx.params
    rs = params.rho_star
    result = ExperimentResult(name)
    times = _snapshot_times(horizon, _DECAY_SNAPSHOTS)
    ps = (2.0, np.inf)

    moments, norms, drift, t_probe = _dipole_measurements(ctx, grid, horizon, times, ps)
    for i, p in enumerate(ps):
        for sigma in (0, 1):
            result.decay(f"dipole-residual-p{p:g}-s{sigma}", "incompressible_weight", p, sigma,
                         times, norms[:, sigma, i], horizon, 0.2)
    # the beta drift within 2% of the initial values
    result.bound("beta-consistency", 0.0, drift, 0.02, meta={"t_probe": t_probe})

    # vortex-data control: nonzero circulation follows the vortex profile.
    # No rate is asserted for this limit, so the criterion is the weaker
    # "weighted residual decays": monotone over the last half, final below
    # half the t=1 value (the dipole case above carries the 20% threshold).
    omega_g, ug = oseen_pair_fields(grid, 1.0, params)
    data, ampg = _momentum_data(ctx, grid, ug)
    alpha_scaled = circulation_alpha(omega_g, params) * ampg

    def measure(t, X):
        uref = oseen_pair_fields(grid, t, params)[1]
        mag = magnitude(_perp_residual(grid, X, uref, rs * alpha_scaled), grid)
        return [lp_of_magnitude(mag, grid, p) for p in ps]

    values = _simulate(ctx, grid, data, horizon, times, f"{name} vortex-data", measure)
    for p, norms in zip(ps, zip(*values)):
        result.decay(f"vortex-residual-p{p:g}-s0", "incompressible_weight", p, 0, times, norms,
                     horizon, 0.5)
    result.extras = {"beta": list(moments.beta), "alpha_scaled": alpha_scaled,
                     "grid": {"n": grid.n, "L": grid.L}}
    return result


def _vorticity_dipole_data(ctx: RunManifest, grid: Grid) -> np.ndarray:
    """vorticity-profiles' dipole data: the age-1 dipole plus an off-center perturbation
    of 0.3 its peak, at amplitude epsilon."""
    base = dipole_vorticity_field(grid, 1, 1.0, ctx.params)
    pert = derivative(
        sample(grid, lambda a, b: np.exp(-((a - 2.0) ** 2 + (b - 1.0) ** 2) / 6.0)), grid, (0, 1)
    )
    pscale = 0.3 * lp_norm(base, grid, np.inf) / lp_norm(pert, grid, np.inf)
    return (base + pert * pscale) * ctx.epsilon


def run_vorticity_profiles(ctx: RunManifest) -> ExperimentResult:
    """Constant-density vorticity control: vortex exactness, dipole attraction."""
    name = "vorticity-profiles"
    grid, T = RECORDS[name].grid(ctx), RECORDS[name].horizon(ctx)
    params = ctx.params
    nu = params.nu
    result = ExperimentResult(name)

    # exact self-similar vortex: the numerical flow tracks the shifted profile.
    # The full box keeps the finite-size strain of the circulation background
    # (which scales like 1/L^2) two orders below the 1e-6 criterion; the same
    # run on the half box is recorded to document that box-size sensitivity.
    times_a = (1.0, 2.0, 4.0, 8.0, 16.0)
    box_residuals = {}
    for vortex_grid in (ctx.grid, grid):
        def relative_residual(t, w):
            ref = oseen_vorticity_field(vortex_grid, 2.0 + t, params)
            omega = vortex_grid.band.scatter(w)
            return lp_norm(omega - ref, vortex_grid, 2) / lp_norm(ref, vortex_grid, 2)

        residuals = _measured(f"{name} vortex L={vortex_grid.L:g}", lambda: vorticity_simulate(
            oseen_vorticity_field(vortex_grid, 2.0, params), vortex_grid, nu, times_a, 0.25,
            relative_residual))
        box_residuals[vortex_grid.L] = _worst(residuals)
    result.bound("vortex-exactness", 0.0, box_residuals[ctx.grid.L], 1e-6,
                 meta={"box_sensitivity": box_residuals})

    # perturbed dipole: weighted residual against the first-moment profile, and the
    # moments while the field is still well localized
    omega0 = _vorticity_dipole_data(ctx, grid)
    moments = first_moments_beta(omega0, grid, params)
    times_b = _snapshot_times(T, _DECAY_SNAPSHOTS)

    def measure(t, w):
        omega = grid.band.scatter(w)
        residual = lp_norm(omega - profile_vorticity(moments, t, params, grid), grid, 2)
        return residual, (first_moments_beta(omega, grid, params) if t <= 16.0 else None)

    values = _measured(f"{name} dipole-data",
                       lambda: vorticity_simulate(omega0, grid, nu, times_b, 0.25, measure))
    residuals = [residual for residual, _ in values]
    result.decay("dipole-residual", "dipole_weight", 2.0, 0, times_b, residuals, T, 0.2,
                 key="dipole-residual-p2")

    drifts = []
    for m in (m for _, m in values if m is not None):
        drifts += [_beta_drift(m, moments),
                   abs(m.alpha - moments.alpha) / max(abs(moments.alpha), 1e-12)]
    result.bound("moment-conservation", 0.0, drifts, 1e-8)
    return result


# ---------------------------------------------------------------------------
# experiment records


def _half_box(grid: Grid) -> Grid:
    return make_grid(grid.n, grid.L / 2.0)


def _check_cfl(record, ctx: RunManifest):
    """A requested dt must pass the solver's CFL check on the record's box (the
    horizon plays no part in it)."""
    grid = record.grid(ctx)
    try:
        SolverConfig(grid, ctx.params, T=1.0, dt=ctx.dt)
    except SolverError as err:
        raise ConfigError(f"dt: {err} on the {record.name} box (L = {grid.L:g})") from None


def _check_window(snapshots: int, window: float, least: int, record, ctx: RunManifest):
    """N geometric snapshots on [1, h] put the last m in the window [h/w, h] iff
    h <= w^((N - 1)/(m - 1)): 4^(13/5) for sound-decay's rate fits (N = 14, w = 4,
    m = 6), 2^11 for the decay rows' last half (N = 12, w = 2, m = 2)."""
    horizon, most = record.horizon(ctx), window ** ((snapshots - 1) / (least - 1))
    if horizon > most:
        raise ConfigError(
            f"T: {record.name} needs a horizon h <= {most:.4g} to keep {least} snapshots "
            f"in its window [h/{window:g}, h]; T = {ctx.T:g} gives h = {horizon:.4g}"
        )


_check_sound_window = partial(_check_window, _SOUND_SNAPSHOTS, _SOUND_WINDOW, _MIN_FIT_SAMPLES)
_check_decay_window = partial(_check_window, _DECAY_SNAPSHOTS, 2.0, 2)


def _check_dipole_horizon(record, ctx: RunManifest):
    """The age-1 dipole run to the horizon h keeps two diffusive widths 2 sqrt(nu (h + 1))
    inside L/2, where its nearest periodic image is as close: h <= (L/8)^2 / nu - 1."""
    h, box = record.horizon(ctx), record.grid(ctx).L
    if h > (most := (box / 8.0) ** 2 / ctx.params.nu - 1.0):
        raise ConfigError(f"{'T' if ctx.T >= h else 'n/L'}: {record.name} needs a dipole horizon "
                          f"h <= (L/8)^2/nu - 1 = {most:.4g} on its box (L = {box:g}), not {h:.4g}")


def _check_vorticity_data(record, ctx: RunManifest):
    """The age-1 dipole data, heat-flowed to the first moment probe t_1 = 1, keeps its
    band-edge tail exp(-nu (1 + t_1) eta_K^2), eta_K = 2 pi floor(n/3)/L, below the edge/peak
    ratio `first_moments_beta` takes as localized, on the record's box."""
    grid, t1 = record.grid(ctx), 1.0
    k = int(grid.band.k_cols[-1])  # the band's edge index floor(n/3)
    tail = math.exp(-ctx.params.nu * (1.0 + t1) * (2.0 * math.pi * k / grid.L) ** 2)
    if not tail < LOCALIZED_EDGE:
        raise ConfigError(
            f"n/L: {record.name} dipole data is not localized on its box (n = {grid.n}, L = "
            f"{grid.L:g}): band-edge tail exp(-nu (1 + t) (2 pi floor(n/3)/L)^2) = {tail:.2g} "
            f"at t = {t1:g}, not below {LOCALIZED_EDGE:g}"
        )


def _check_hf_band(record, ctx: RunManifest):
    """The high-frequency fit needs grid wavenumbers beyond the cutoff radius."""
    grid = record.grid(ctx)
    top = np.sqrt(2.0) * np.pi * grid.n / grid.L
    r0 = default_cutoff(scaled_params(ctx.params))
    if not top > r0:
        raise ConfigError(
            f"n/L: {record.name} needs wavenumbers above the cutoff radius {r0:.4g}, "
            f"but the largest on the grid, sqrt(2) pi n/L, is {top:.4g}"
        )


def _check_pointwise_box(record, ctx: RunManifest):
    """On the record's box, each config's kernel is resolved at its first sampled time
    t_0, exp(-mu_par (pi n/L)^2 t_0 / 2) below the fit's floor, and its acoustic ring
    stays inside the box up to its last, c t + 3 sqrt(mu_par t) < L/2."""
    grid = record.grid(ctx)
    for label, params, times in _POINTWISE_CONFIGS:
        params, t0, t = params or scaled_params(ctx.params), times[0], times[-1]
        nyquist = math.exp(-params.mu_par * (math.pi * grid.n / grid.L) ** 2 * t0 / 2.0)
        if not nyquist < _RESOLVED_FLOOR:
            raise ConfigError(
                f"n/L: {record.name} ({label}) needs exp(-mu_par (pi n/L)^2 t/2) < "
                f"{_RESOLVED_FLOOR:g} on its box at t = {t0:g}, got {nyquist:.2g}"
            )
        if not _ring_edge(params, t) < grid.L / 2.0:
            raise ConfigError(
                f"n/L: {record.name} ({label}) needs its acoustic ring c t + 3 sqrt(mu_par t) "
                f"below L/2 = {grid.L / 2.0:g} on its box up to t = {t:g}"
            )


def _check_generator_samples(record, ctx: RunManifest):
    """The generator rows need a wavevector to sample on the record's box: its smallest
    nonzero wavenumber 2 pi/L is at most 2."""
    grid = record.grid(ctx)
    if not _generator_samples(grid).any():
        raise ConfigError(
            f"n/L: {record.name} samples its generator rows at |eta_1|, |eta_2| <= 2 off eta = 0, "
            f"but its box (n = {grid.n}, L = {grid.L:g}) has none: its smallest nonzero "
            f"wavenumber 2 pi/L = {2.0 * math.pi / grid.L:.4g} exceeds 2 (L = {ctx.L:g} < 4 pi)"
        )


def _check_dipole_data(record, ctx: RunManifest):
    """incompressible-limit's dipole data must be localized on the record's box."""
    grid = record.grid(ctx)
    try:
        _dipole_data(ctx, grid)
    except ProfileError as err:
        raise ConfigError(
            f"n/L: {record.name} initial data on its box (n = {grid.n}, L = {grid.L:g}): {err}"
        ) from None


@dataclass(frozen=True)
class Experiment:
    """One experiment: its run function, the grid it measures on (from the
    configured grid), its horizon rule (None without one) and the checks
    `precheck` makes before any experiment runs."""

    name: str
    run: Callable[[RunManifest], ExperimentResult]
    box: Callable[[Grid], Grid] = lambda grid: grid
    horizon_rule: Callable[[RunManifest, Grid], float] | None = None
    checks: tuple = ()

    def grid(self, ctx: RunManifest) -> Grid:
        try:
            return self.box(ctx.grid)
        except SpectralError as err:
            raise ConfigError(f"n/L: {self.name} cannot build its box: {err}") from None

    def horizon(self, ctx: RunManifest) -> float:
        return self.horizon_rule(ctx, self.grid(ctx))

    def precheck(self, ctx: RunManifest) -> None:
        """Raise ConfigError if ctx cannot give this experiment a valid run.  A run
        with a horizon takes its snapshots on [1, h], so it needs h > 1."""
        if self.horizon_rule is not None and not (h := self.horizon(ctx)) > 1.0:
            raise ConfigError(
                f"{'T' if ctx.T <= 1.0 else 'n/L'}: {self.name} takes snapshots on [1, h] and "
                f"needs a horizon h > 1; T = {ctx.T:g}, n = {ctx.n}, L = {ctx.L:g} give "
                f"h = {h:.4g}"
            )
        for check in self.checks:
            check(self, ctx)


RECORDS = {
    record.name: record
    for record in (
        Experiment("kernel-algebra", run_kernel_algebra, box=lambda g: make_grid(64, g.L / 4),
                   checks=(_check_generator_samples,)),
        Experiment("kernel-rates", run_kernel_rates, checks=(_check_hf_band,)),
        Experiment("pointwise-bound", run_pointwise_bound, box=_half_box,
                   checks=(_check_pointwise_box,)),
        Experiment("sound-decay", run_sound_decay, horizon_rule=_acoustic_horizon,
                   checks=(_check_cfl, _check_sound_window)),
        Experiment("nonlinear-smallness", run_nonlinear_smallness,
                   horizon_rule=_acoustic_horizon, checks=(_check_cfl,)),
        Experiment("incompressible-limit", run_incompressible_limit, box=_half_box,
                   horizon_rule=_diffusive_horizon,
                   checks=(_check_cfl, _check_decay_window, _check_dipole_data)),
        Experiment("vorticity-profiles", run_vorticity_profiles, box=_half_box,
                   horizon_rule=lambda ctx, grid: max(ctx.T, 64.0),
                   checks=(_check_dipole_horizon, _check_vorticity_data, _check_decay_window)),
    )
}

# name -> run function, the table `cli.run` dispatches through; callers may
# wrap or replace its values, validation reads only the records
EXPERIMENTS = {name: record.run for name, record in RECORDS.items()}


@dataclass(frozen=True)
class RunManifest:
    """One run's configuration, a field per config key (`lam` for `lambda`, and
    `dt = None` for the acoustic CFL bound), valid by construction: a bad value
    raises ConfigError naming the key.  Experiments and record checks take it as `ctx`."""

    experiments: tuple[str, ...] = tuple(RECORDS)
    n: int = 256
    L: float = 200.0
    mu: float = 1.0
    lam: float = 0.0
    rho_star: float = 1.0
    gamma: float = 1.4
    pressure_scale: float = 1.0
    epsilon: float = 1e-2
    dt: float | None = None
    T: float = 30.0
    seed: int = 0
    # nonlinear-smallness's deviation at 0.1 epsilon, squared in L^2: (0.1 eps)^4 stays normal
    EPSILON_MIN = 10.0 * float(np.finfo(float).tiny) ** 0.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, numbers.Real):
                continue
            if not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
            kind = int if f.type == "int" else float  # the annotation, as a string
            if kind is int and value != int(value):
                raise ConfigError(f"{f.name}: must be an integer, got {value}")
            # one number type per field, so equal manifests write equal summaries
            object.__setattr__(self, f.name, kind(value))
        self.grid, self.params  # build both now: their errors name the keys
        if self.dt is not None and not self.dt > 0:
            raise ConfigError(f"dt: must be positive, got {self.dt}")
        if not self.T > 0:
            raise ConfigError(f"T: must be positive, got {self.T}")
        if not self.epsilon >= (least := self.EPSILON_MIN):
            raise ConfigError(f"epsilon: must be at least {least:.3g}, got {self.epsilon}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed: must be a nonnegative integer, got {self.seed}")
        if not self.experiments:
            raise ConfigError("experiments: the list names no experiment")
        for i, name in enumerate(self.experiments):
            if name not in RECORDS:
                raise ConfigError(
                    f"experiments: unknown name {name!r}; available: {', '.join(RECORDS)}"
                )
            if name in self.experiments[:i]:
                raise ConfigError(f"experiments: {name!r} is named twice")

    @cached_property
    def grid(self) -> Grid:
        try:
            return make_grid(self.n, self.L)
        except SpectralError as err:
            raise ConfigError(f"n/L: {err}") from None

    @cached_property
    def params(self) -> FluidParams:
        try:
            return FluidParams(mu=self.mu, lam=self.lam, rho_star=self.rho_star,
                               gamma=self.gamma, pressure_scale=self.pressure_scale)
        except ProfileError as err:
            raise ConfigError(f"{err.param}: {err}") from None

    def context(self) -> RunManifest:
        """Run the selected experiments' prechecks (ConfigError before any compute)."""
        for name in self.experiments:
            RECORDS[name].precheck(self)
        return self


def list_experiments() -> tuple[str, ...]:
    return tuple(RECORDS)


def run_experiment(name: str, ctx: RunManifest) -> ExperimentResult:
    """Run one experiment (the library's and the CLI's one dispatch path): its record's
    checks raise ConfigError before any compute; mid-run, a box it cannot run on raises
    HarnessError naming ``n/L``, and an aborted solver run HarnessError naming the run."""
    if name not in RECORDS:
        raise HarnessError(f"unknown experiment {name!r}; available: {', '.join(RECORDS)}")
    RECORDS[name].precheck(ctx)
    try:
        return EXPERIMENTS[name](ctx)
    except (KernelError, ProfileError, SolverError) as err:
        raise HarnessError(f"n/L: {name} cannot run at n = {ctx.n}, L = {ctx.L:g}: {err}") from err


# ---------------------------------------------------------------------------
# report serialisation

REPORTS_HEADER = "# vortexlab reports v1"
SERIES_HEADER = "# vortexlab series v1"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if np.isinf(x):
            return "inf"
        return repr(x)
    return str(x)


def reports_to_csv(reports) -> str:
    lines = [REPORTS_HEADER, "experiment,p,sigma,predicted,fitted,r2,tolerance,pass"]
    for r in reports:
        lines.append(
            ",".join(
                [
                    f"{r.experiment}/{r.label}",
                    _fmt(float(r.p) if r.p is not None else None),
                    _fmt(r.sigma),
                    _fmt(float(r.predicted)),
                    _fmt(float(r.fitted)),
                    _fmt(float(r.r2) if r.r2 is not None else None),
                    _fmt(float(r.tolerance)),
                    "true" if r.passed else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def series_to_csv(t, values) -> str:
    lines = [SERIES_HEADER, "t,value"]
    for ti, vi in zip(t, values):
        lines.append(f"{_fmt(float(ti))},{_fmt(float(vi))}")
    return "\n".join(lines) + "\n"


def summary_dict(results, ctx: RunManifest) -> dict:
    context = {f.name: getattr(ctx, f.name) for f in fields(ctx) if f.name != "experiments"}
    return {
        "version": 1,
        "context": context,
        "experiments": [
            {
                "name": res.name,
                "passed": res.passed,
                "reports": [
                    {f.name: getattr(r, f.name) for f in fields(r) if f.name != "experiment"}
                    | {"p": None if r.p is None else ("inf" if np.isinf(r.p) else r.p),
                       "passed": r.passed}
                    for r in res.reports
                ],
                "extras": res.extras,
            }
            for res in results
        ],
        "passed": all(res.passed for res in results),
    }
