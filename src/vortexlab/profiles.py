"""Vortex and dipole asymptotic profiles, Biot-Savart law, vorticity moments.

Closed forms implemented here:

    gauss_profile(xi)      = (1/4pi) exp(-|xi|^2/4)
    vortex_velocity(xi)    = (1/2pi) xi^perp / |xi|^2 (1 - exp(-|xi|^2/4))
    dipole_profile_i(xi)   = d_i gauss_profile(xi) = -(xi_i/2) gauss_profile(xi)

with the self-similar scalings

    oseen_vorticity(t, x)  = gauss_profile(x / sqrt(nu t)) / t
    oseen_velocity(t, x)   = sqrt(nu/t) vortex_velocity(x / sqrt(nu t))
    dipole_vorticity(t, x) = dipole_profile_i(x / sqrt(nu t)) / (sqrt(nu) t^{3/2})
    dipole_velocity(t, x)  = d_i vortex_velocity evaluated at x/sqrt(nu t), / t.

Grid-level velocity fields are reconstructed through the Biot-Savart law in
Fourier space (u_hat = i eta^perp / |eta|^2 omega_hat), which keeps them
exactly divergence-free; the pointwise closed forms remain available for
direct evaluation and far-field comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import Grid, SpectralField, curl, lp_norm, sample, transform


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class PowerPressureLaw:
    """Isentropic pressure P(rho) = scale * rho^gamma / gamma."""

    gamma: float = 1.4
    scale: float = 1.0

    def value(self, rho):
        return self.scale * np.asarray(rho) ** self.gamma / self.gamma

    def derivative(self, rho):
        return self.scale * np.asarray(rho) ** (self.gamma - 1.0)


@dataclass(frozen=True)
class FluidParams:
    """Viscosities, reference density and pressure law with derived constants."""

    mu: float = 1.0
    lam: float = 0.0
    rho_star: float = 1.0
    pressure: PowerPressureLaw = field(default_factory=PowerPressureLaw)

    def __post_init__(self):
        if not self.mu > 0:
            raise ProfileError(f"shear viscosity must be positive, got {self.mu}")
        if not self.lam + 2 * self.mu > 0:
            raise ProfileError(
                f"ellipticity requires lambda + 2 mu > 0, got {self.lam + 2 * self.mu}"
            )
        if not self.rho_star > 0:
            raise ProfileError(f"reference density must be positive, got {self.rho_star}")
        if not self.pressure.derivative(self.rho_star) > 0:
            raise ProfileError("pressure law must be increasing at the reference density")

    @cached_property
    def c(self) -> float:
        """Reference sound speed sqrt(P'(rho_star))."""
        return float(np.sqrt(self.pressure.derivative(self.rho_star)))

    @property
    def mu_par(self) -> float:
        return self.lam + 2.0 * self.mu

    @property
    def nu(self) -> float:
        return self.mu / self.rho_star


def default_params() -> FluidParams:
    return FluidParams()


@dataclass(frozen=True)
class Moments:
    """Circulation alpha and first moments (beta1, beta2) of a vorticity."""

    alpha: float
    beta: tuple[float, float]


def gauss_profile(xi1, xi2):
    return np.exp(-(np.asarray(xi1) ** 2 + np.asarray(xi2) ** 2) / 4.0) / (4.0 * np.pi)


def vortex_velocity_profile(xi1, xi2):
    """Azimuthal velocity profile of the unit vortex; removable singularity at 0."""
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    r2 = xi1**2 + xi2**2
    small = r2 < 1e-6
    safe = np.where(small, 1.0, r2)
    g = np.where(small, (1.0 - r2 / 8.0) / 4.0, -np.expm1(-r2 / 4.0) / safe)
    coef = g / (2.0 * np.pi)
    return -coef * xi2, coef * xi1


def _dipole_velocity_profile(i: int, xi1, xi2):
    """d_i of the vortex velocity profile, in closed form."""
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    r2 = xi1**2 + xi2**2
    small = r2 < 1e-6
    safe = np.where(small, 1.0, r2)
    e = np.exp(-r2 / 4.0)
    # g(r) = (1 - e^{-r^2/4}) / r^2 and g'(r)/r, with two-term series at 0
    g = np.where(small, (1.0 - r2 / 8.0) / 4.0, -np.expm1(-r2 / 4.0) / safe)
    gp_over_r = np.where(
        small,
        -1.0 / 16.0 + r2 / 96.0,
        (0.5 * e - 2.0 * g) / safe,
    )
    if i == 1:
        v1 = -(xi2 * xi1) * gp_over_r
        v2 = g + xi1**2 * gp_over_r
    else:
        v1 = -(g + xi2**2 * gp_over_r)
        v2 = xi1 * xi2 * gp_over_r
    return v1 / (2.0 * np.pi), v2 / (2.0 * np.pi)


def _check_axis(i: int):
    if i not in (1, 2):
        raise ProfileError(f"dipole axis must be 1 or 2, got {i}")


def _check_time(t: float):
    if not t > 0:
        raise ProfileError(f"profiles require t > 0, got {t}")


def oseen_vorticity(t: float, x, params: FluidParams):
    """Self-similar vortex vorticity at time t and point(s) x = (x1, x2)."""
    _check_time(t)
    s = np.sqrt(params.nu * t)
    return gauss_profile(np.asarray(x[0]) / s, np.asarray(x[1]) / s) / t


def oseen_velocity(t: float, x, params: FluidParams):
    _check_time(t)
    s = np.sqrt(params.nu * t)
    v1, v2 = vortex_velocity_profile(np.asarray(x[0]) / s, np.asarray(x[1]) / s)
    amp = np.sqrt(params.nu / t)
    return amp * v1, amp * v2


def dipole_vorticity(i: int, t: float, x, params: FluidParams):
    _check_axis(i)
    _check_time(t)
    s = np.sqrt(params.nu * t)
    xi1 = np.asarray(x[0]) / s
    xi2 = np.asarray(x[1]) / s
    xi_i = xi1 if i == 1 else xi2
    return -(xi_i / 2.0) * gauss_profile(xi1, xi2) / (np.sqrt(params.nu) * t**1.5)


def dipole_velocity(i: int, t: float, x, params: FluidParams):
    _check_axis(i)
    _check_time(t)
    s = np.sqrt(params.nu * t)
    v1, v2 = _dipole_velocity_profile(i, np.asarray(x[0]) / s, np.asarray(x[1]) / s)
    return v1 / t, v2 / t


def dipole_farfield(i: int, xi):
    """Leading algebraic far-field of the dipole velocity profile, |xi| >= 5."""
    _check_axis(i)
    xi1 = np.asarray(xi[0], dtype=float)
    xi2 = np.asarray(xi[1], dtype=float)
    r2 = xi1**2 + xi2**2
    if np.any(r2 < 25.0):
        raise ProfileError("far-field expansion is reserved for |xi| >= 5")
    coef = 1.0 / (2.0 * np.pi * r2**2)
    if i == 1:
        return coef * 2.0 * xi1 * xi2, coef * (xi2**2 - xi1**2)
    return coef * (xi2**2 - xi1**2), -coef * 2.0 * xi1 * xi2


def oseen_vorticity_field(grid: Grid, t: float, params: FluidParams) -> SpectralField:
    return sample(grid, lambda x1, x2: oseen_vorticity(t, (x1, x2), params))


def dipole_vorticity_field(grid: Grid, i: int, t: float, params: FluidParams) -> SpectralField:
    return sample(grid, lambda x1, x2: dipole_vorticity(i, t, (x1, x2), params))


def biot_savart(omega: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Divergence-free velocity with curl omega; requires zero circulation.

    Fourier side: u_hat = i eta^perp / |eta|^2 omega_hat, zero mode set to 0
    (`Grid.biot_savart_multiplier`, shared with the vorticity solver).
    """
    grid = omega.grid
    mean = abs(omega.coeffs[0, 0])
    if mean > 1e-10 * max(lp_norm(omega, 1), 1e-300):
        raise ProfileError(
            f"Biot-Savart needs zero-mean vorticity; got mean {omega.coeffs[0, 0].real:.3e}"
        )
    k1, k2 = grid.biot_savart_multiplier
    return SpectralField(grid, k1 * omega.coeffs), SpectralField(grid, k2 * omega.coeffs)


def circulation_alpha(omega0: SpectralField, params: FluidParams) -> float:
    """alpha with nu * alpha = integral of omega0."""
    return float(omega0.coeffs[0, 0].real) / params.nu


def first_moments_beta(omega0: SpectralField, params: FluidParams) -> Moments:
    """Moments with nu * beta_i = -integral of x_i omega0, x from box center.

    The vorticity must be localized: its magnitude on the outermost grid ring
    has to stay below 1e-10 of its peak.
    """
    grid = omega0.grid
    w = omega0.values()
    peak = np.abs(w).max()
    if peak > 0:
        edge = max(
            np.abs(w[0, :]).max(),
            np.abs(w[-1, :]).max(),
            np.abs(w[:, 0]).max(),
            np.abs(w[:, -1]).max(),
        )
        if edge > 1e-10 * peak:
            raise ProfileError(
                f"vorticity is not localized inside the box (edge/peak = {edge / peak:.2e})"
            )
    dx2 = grid.dx**2
    beta1 = -float(np.sum(grid.xc1 * w)) * dx2 / params.nu
    beta2 = -float(np.sum(grid.xc2 * w)) * dx2 / params.nu
    return Moments(alpha=circulation_alpha(omega0, params), beta=(beta1, beta2))


def profile_superposition(
    moments: Moments, t: float, params: FluidParams, grid: Grid
) -> tuple[SpectralField, tuple[SpectralField, SpectralField]]:
    """Dipole-family profile beta1 F1 + beta2 F2 at time t with its velocity.

    The vorticity is sampled in physical space; the velocity is derived
    through the spectral Biot-Savart law so it is exactly divergence-free.
    """
    _check_time(t)
    b1, b2 = moments.beta
    w = np.zeros((grid.n, grid.n))
    if b1 != 0.0:
        w = w + b1 * dipole_vorticity(1, t, (grid.xc1, grid.xc2), params)
    if b2 != 0.0:
        w = w + b2 * dipole_vorticity(2, t, (grid.xc1, grid.xc2), params)
    coeffs = (transform(w, grid)).coeffs
    # the family has zero mean exactly; the lattice mean is truncation noise
    coeffs[0, 0] = 0.0
    omega = SpectralField(grid, coeffs)
    u = biot_savart(omega)
    return omega, u


def oseen_pair_fields(
    grid: Grid, t: float, params: FluidParams, alpha: float = 1.0
) -> tuple[SpectralField, tuple[SpectralField, SpectralField]]:
    """Torus realization of the vortex pair (alpha omega_G, alpha u_G).

    The plane vortex velocity is not periodic (circulation at infinity), so
    the velocity is reconstructed by the torus Biot-Savart law from the
    sampled vorticity with its lattice mean removed.
    """
    omega = oseen_vorticity_field(grid, t, params) * alpha
    coeffs = omega.coeffs.copy()
    coeffs[0, 0] = 0.0
    u = biot_savart(SpectralField(grid, coeffs))
    return omega, u


def vorticity_of(m: tuple[SpectralField, SpectralField], params: FluidParams) -> SpectralField:
    """rot(m / rho_star), the vorticity entering the beta moments of momentum data."""
    return curl(m) * (1.0 / params.rho_star)
