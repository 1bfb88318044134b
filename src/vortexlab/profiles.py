"""Vortex and dipole asymptotic profiles, Biot-Savart law, vorticity moments.

Closed forms implemented here:

    gauss_profile(xi)      = (1/4pi) exp(-|xi|^2/4)
    dipole_profile_i(xi)   = d_i gauss_profile(xi) = -(xi_i/2) gauss_profile(xi)

with the self-similar scalings

    oseen_vorticity(t, x)  = gauss_profile(x / sqrt(nu t)) / t
    dipole_vorticity(t, x) = dipole_profile_i(x / sqrt(nu t)) / (sqrt(nu) t^{3/2})

Velocity fields are reconstructed through the Biot-Savart law in Fourier
space (u_hat = i eta^perp / |eta|^2 omega_hat), which keeps them exactly
divergence-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import Grid, SpectralField, curl, lp_norm, sample, transform


class ProfileError(ValueError):
    """A profile or fluid-parameter error; `param` names the rejected parameter, if one."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


# Largest edge/peak ratio of |omega| that `first_moments_beta` accepts as localized.
LOCALIZED_EDGE = 1e-10


@dataclass(frozen=True)
class FluidParams:
    """The fluid config keys: viscosities, reference density and the isentropic pressure
    law P(rho) = pressure_scale * rho^gamma / gamma (gamma != 0, pressure_scale > 0)."""

    mu: float = 1.0
    lam: float = 0.0
    rho_star: float = 1.0
    gamma: float = 1.4
    pressure_scale: float = 1.0

    def __post_init__(self):
        if self.gamma == 0:
            raise ProfileError("pressure law P = scale rho^gamma / gamma needs gamma != 0", "gamma")
        if not self.pressure_scale > 0:
            raise ProfileError(f"pressure law must be increasing, got scale {self.pressure_scale}",
                               "pressure_scale")
        if not self.mu > 0:
            raise ProfileError(f"shear viscosity must be positive, got {self.mu}", "mu")
        if not self.lam + 2 * self.mu > 0:
            raise ProfileError(
                f"ellipticity requires lambda + 2 mu > 0, got {self.lam + 2 * self.mu}", "lam"
            )
        if not self.rho_star > 0:
            raise ProfileError(f"reference density must be positive, got {self.rho_star}",
                               "rho_star")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected here
            slope = self.pressure_derivative(self.rho_star)
        if not (np.isfinite(slope) and slope > 0):
            raise ProfileError(f"pressure law must have a finite P'(rho_star) > 0, got {slope}",
                               "rho_star")

    def pressure(self, rho):
        return self.pressure_scale * np.asarray(rho) ** self.gamma / self.gamma

    def pressure_derivative(self, rho):
        return self.pressure_scale * np.asarray(rho) ** (self.gamma - 1.0)

    @cached_property
    def c(self) -> float:
        """Reference sound speed sqrt(P'(rho_star))."""
        return float(np.sqrt(self.pressure_derivative(self.rho_star)))

    @property
    def mu_par(self) -> float:
        return self.lam + 2.0 * self.mu

    @property
    def nu(self) -> float:
        return self.mu / self.rho_star


@dataclass(frozen=True)
class Moments:
    """Circulation alpha and first moments (beta1, beta2) of a vorticity."""

    alpha: float
    beta: tuple[float, float]


def gauss_profile(xi1, xi2):
    return np.exp(-(np.asarray(xi1) ** 2 + np.asarray(xi2) ** 2) / 4.0) / (4.0 * np.pi)


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


def dipole_vorticity(i: int, t: float, x, params: FluidParams):
    _check_axis(i)
    _check_time(t)
    s = np.sqrt(params.nu * t)
    xi1 = np.asarray(x[0]) / s
    xi2 = np.asarray(x[1]) / s
    xi_i = xi1 if i == 1 else xi2
    return -(xi_i / 2.0) * gauss_profile(xi1, xi2) / (np.sqrt(params.nu) * t**1.5)


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
    has to stay below LOCALIZED_EDGE (1e-10) of its peak.
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
        if edge > LOCALIZED_EDGE * peak:
            raise ProfileError(
                f"vorticity is not localized inside the box (edge/peak = {edge / peak:.2e})"
            )
    dx2 = grid.dx**2
    beta1 = -float(np.sum(grid.xc1 * w)) * dx2 / params.nu
    beta2 = -float(np.sum(grid.xc2 * w)) * dx2 / params.nu
    return Moments(alpha=circulation_alpha(omega0, params), beta=(beta1, beta2))


def profile_vorticity(moments: Moments, t: float, params: FluidParams, grid: Grid) -> SpectralField:
    """Dipole-family vorticity profile beta1 F1 + beta2 F2 at time t, sampled in
    physical space; `biot_savart` of it is its exactly divergence-free velocity."""
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
    return SpectralField(grid, coeffs)


def oseen_pair_fields(
    grid: Grid, t: float, params: FluidParams
) -> tuple[SpectralField, tuple[SpectralField, SpectralField]]:
    """Torus realization of the vortex pair (omega_G, u_G).

    The plane vortex velocity is not periodic (circulation at infinity), so
    the velocity is reconstructed by the torus Biot-Savart law from the
    sampled vorticity with its lattice mean removed.
    """
    omega = oseen_vorticity_field(grid, t, params)
    coeffs = omega.coeffs.copy()
    coeffs[0, 0] = 0.0
    u = biot_savart(SpectralField(grid, coeffs))
    return omega, u


def vorticity_of(m: tuple[SpectralField, SpectralField], params: FluidParams) -> SpectralField:
    """rot(m / rho_star), the vorticity entering the beta moments of momentum data."""
    return curl(m) * (1.0 / params.rho_star)
