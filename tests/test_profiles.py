import numpy as np
import pytest

from vortexlab.profiles import (
    FluidParams,
    Moments,
    ProfileError,
    biot_savart,
    circulation_alpha,
    dipole_vorticity,
    dipole_vorticity_field,
    first_moments_beta,
    oseen_pair_fields,
    oseen_vorticity,
    oseen_vorticity_field,
    profile_vorticity,
    vorticity_of,
)
from vortexlab.spectral import (
    SpectralError,
    curl,
    derivative,
    lp_norm,
    make_grid,
    sample,
    to_physical,
)
from conftest import divergence, random_field

PARAMS = FluidParams()


# ---------------------------------------------------------------------------
# closed-form velocities: the reference the spectral Biot-Savart law is held to


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


def dipole_velocity_profile(i: int, xi1, xi2):
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


def oseen_velocity(t: float, x, params: FluidParams):
    """sqrt(nu/t) vortex_velocity(x / sqrt(nu t))."""
    s = np.sqrt(params.nu * t)
    v1, v2 = vortex_velocity_profile(np.asarray(x[0]) / s, np.asarray(x[1]) / s)
    amp = np.sqrt(params.nu / t)
    return amp * v1, amp * v2


def dipole_velocity(i: int, t: float, x, params: FluidParams):
    """d_i vortex_velocity evaluated at x / sqrt(nu t), divided by t."""
    s = np.sqrt(params.nu * t)
    v1, v2 = dipole_velocity_profile(i, np.asarray(x[0]) / s, np.asarray(x[1]) / s)
    return v1 / t, v2 / t


# ---------------------------------------------------------------------------


def test_fluid_params_derived_constants():
    p = FluidParams(mu=2.0, lam=1.0, rho_star=4.0, gamma=2.0)
    assert p.mu_par == pytest.approx(5.0)
    assert p.nu == pytest.approx(0.5)
    assert p.c == pytest.approx(2.0)  # P'(rho) = rho, so c = sqrt(4)


def test_fluid_params_rejects_bad_viscosity():
    with pytest.raises(ProfileError):
        FluidParams(mu=-1.0)
    with pytest.raises(ProfileError):
        FluidParams(mu=1.0, lam=-3.0)


def test_oseen_vorticity_values():
    assert oseen_vorticity(1.0, (0.0, 0.0), PARAMS) == pytest.approx(1.0 / (4 * np.pi))
    assert oseen_vorticity(4.0, (0.0, 0.0), PARAMS) == pytest.approx(1.0 / (16 * np.pi))
    with pytest.raises(ProfileError):
        oseen_vorticity(0.0, (0.0, 0.0), PARAMS)


def test_oseen_vorticity_unit_mass():
    grid = make_grid(256, 100.0)
    for t in (1.0, 5.0):
        w = oseen_vorticity_field(grid, t, PARAMS)
        assert abs(w[0, 0].real - 1.0) < 1e-8


def test_oseen_velocity_closed_form():
    # v^G((2,0)) = (0, (1/4pi)(1 - e^{-1})) at t = 1, nu = 1
    u1, u2 = oseen_velocity(1.0, (2.0, 0.0), PARAMS)
    assert u1 == pytest.approx(0.0, abs=1e-15)
    assert u2 == pytest.approx((1 - np.exp(-1)) / (4 * np.pi))


def test_oseen_velocity_center_limit():
    # |v^G(xi)| / |xi| -> 1/(8 pi) as xi -> 0 (series branch)
    for r in (1e-6, 1e-4, 9e-4):
        u1, u2 = oseen_velocity(1.0, (r, 0.0), PARAMS)
        assert np.hypot(u1, u2) / r == pytest.approx(1.0 / (8 * np.pi), rel=1e-6)


def test_oseen_velocity_azimuthal(rng):
    pts = rng.uniform(-5, 5, size=(20, 2))
    u1, u2 = oseen_velocity(2.0, (pts[:, 0], pts[:, 1]), PARAMS)
    dots = pts[:, 0] * u1 + pts[:, 1] * u2
    assert np.abs(dots).max() < 1e-14


def test_dipole_vorticity_values():
    assert dipole_vorticity(1, 1.0, (0.0, 0.0), PARAMS) == 0.0
    expected = -(1.0 / (4 * np.pi)) * np.exp(-1.0)
    assert dipole_vorticity(1, 1.0, (2.0, 0.0), PARAMS) == pytest.approx(expected)
    with pytest.raises(ProfileError):
        dipole_vorticity(3, 1.0, (0.0, 0.0), PARAMS)


def test_dipole_vorticity_first_moment():
    # integral of xi_1 F_1 over the plane is -1 (by parts against the unit Gaussian mass)
    grid = make_grid(256, 80.0)
    w = to_physical(dipole_vorticity_field(grid, 1, 1.0, PARAMS), grid)
    moment = np.sum(grid.xc1 * w) * grid.dx**2
    assert moment == pytest.approx(-1.0, abs=1e-8)


def test_dipole_velocity_matches_difference_quotient():
    # oracle: d_i v^G by central differences of the vortex profile, both axes
    h = 1e-6
    for pt in [(1.3, -0.7), (0.2, 0.15), (3.0, 2.0), (0.5, 6.0)]:
        for i, step in ((1, (h, 0.0)), (2, (0.0, h))):
            vp = vortex_velocity_profile(pt[0] + step[0], pt[1] + step[1])
            vm = vortex_velocity_profile(pt[0] - step[0], pt[1] - step[1])
            fd = ((vp[0] - vm[0]) / (2 * h), (vp[1] - vm[1]) / (2 * h))
            v = dipole_velocity(i, 1.0, pt, PARAMS)
            assert v[0] == pytest.approx(fd[0], abs=2e-9)
            assert v[1] == pytest.approx(fd[1], abs=2e-9)


def test_dipole_velocity_field_divergence_free():
    # grid velocity comes from Biot-Savart, so its spectral divergence vanishes
    grid = make_grid(128, 60.0)
    omega = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    u = biot_savart(omega, grid)
    div = divergence(u, grid)
    assert np.abs(div).max() < 1e-10 * max(1.0, np.abs(u[0]).max())


def test_biot_savart_inverts_curl(rng):
    grid = make_grid(64, 10.0)
    psi = random_field(grid, rng)
    u = (derivative(psi, grid, (0, 1)) * -1.0, derivative(psi, grid, (1, 0)))
    omega = curl(u, grid)
    rec = biot_savart(omega, grid)
    scale = max(np.abs(u[0]).max(), 1e-300)
    assert np.abs(rec[0] - u[0]).max() < 1e-10 * scale
    assert np.abs(rec[1] - u[1]).max() < 1e-10 * scale
    back = curl(rec, grid)
    assert np.abs(back - omega).max() < 1e-10 * max(np.abs(omega).max(), 1e-300)


def test_biot_savart_matches_dipole_closed_form():
    # quadrature accuracy: periodic images contribute O(L^-2) background
    grid = make_grid(256, 160.0)
    omega = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    u = biot_savart(omega, grid)
    v1, v2 = dipole_velocity(1, 1.0, (grid.xc1, grid.xc2), PARAMS)
    err = max(np.abs(to_physical(u[0], grid) - v1).max(),
              np.abs(to_physical(u[1], grid) - v2).max())
    scale = max(np.abs(v1).max(), np.abs(v2).max())
    assert err < 1e-3 * scale


def test_biot_savart_rejects_nonzero_mean():
    grid = make_grid(64, 40.0)
    omega = oseen_vorticity_field(grid, 1.0, PARAMS)
    with pytest.raises(ProfileError):
        biot_savart(omega, grid)


def test_circulation_alpha():
    grid = make_grid(128, 60.0)
    g = oseen_vorticity_field(grid, 1.0, PARAMS)
    assert circulation_alpha(g, PARAMS) == pytest.approx(1.0, abs=1e-10)
    f1 = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    assert circulation_alpha(f1, PARAMS) == pytest.approx(0.0, abs=1e-12)
    half = FluidParams(mu=2.0)  # nu = 2
    assert circulation_alpha(g, half) == pytest.approx(0.5, abs=1e-10)


def test_first_moments_recover_dipole():
    grid = make_grid(256, 80.0)
    f1 = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    m = first_moments_beta(f1, grid, PARAMS)
    assert m.beta[0] == pytest.approx(1.0, abs=1e-6)
    assert m.beta[1] == pytest.approx(0.0, abs=1e-10)
    g = oseen_vorticity_field(grid, 1.0, PARAMS)
    mg = first_moments_beta(g, grid, PARAMS)
    assert abs(mg.beta[0]) < 1e-10 and abs(mg.beta[1]) < 1e-10


def test_first_moments_linear_combination():
    grid = make_grid(256, 80.0)
    f1 = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    f2 = dipole_vorticity_field(grid, 2, 1.0, PARAMS)
    combo = f1 * 0.7 + f2 * (-1.3)
    m = first_moments_beta(combo, grid, PARAMS)
    assert m.beta[0] == pytest.approx(0.7, abs=1e-6)
    assert m.beta[1] == pytest.approx(-1.3, abs=1e-6)


def test_first_moments_rejects_delocalized():
    grid = make_grid(64, 10.0)
    wide = sample(grid, lambda x1, x2: np.cos(2 * np.pi * x1 / grid.L))
    with pytest.raises(ProfileError):
        first_moments_beta(wide, grid, PARAMS)


def test_profile_superposition_zero():
    grid = make_grid(64, 40.0)
    omega = profile_vorticity(Moments(0.0, (0.0, 0.0)), 2.0, PARAMS, grid)
    u = biot_savart(omega, grid)
    assert np.abs(omega).max() == 0.0
    assert np.abs(u[0]).max() == 0.0


def test_profile_superposition_velocity_scaling():
    # sup-norm of the dipole velocity scales as 1/t: t * sup stays within 1%
    grid = make_grid(256, 160.0)
    vals = []
    for t in (1.0, 2.0, 4.0, 8.0, 16.0):
        u = biot_savart(profile_vorticity(Moments(0.0, (1.0, 0.0)), t, PARAMS, grid), grid)
        vals.append(t * lp_norm(u, grid, np.inf))
    vals = np.array(vals)
    assert vals.max() / vals.min() - 1.0 < 0.01


def test_profile_superposition_preserves_moments():
    grid = make_grid(256, 160.0)
    for t in (1.0, 4.0, 9.0):
        omega = profile_vorticity(Moments(0.0, (0.4, -0.2)), t, PARAMS, grid)
        m = first_moments_beta(omega, grid, PARAMS)
        assert m.beta[0] == pytest.approx(0.4, abs=1e-6)
        assert m.beta[1] == pytest.approx(-0.2, abs=1e-6)


def test_oseen_self_similar_norm_scaling():
    # ||omega_G(t)||_p = C t^{-(1-1/p)}: log-log slope exact to 1e-3
    grid = make_grid(256, 160.0)
    times = np.array([1.0, 2.0, 4.0, 8.0])
    for p, expo in ((1.0, 0.0), (2.0, -0.5), (np.inf, -1.0)):
        norms = [lp_norm(oseen_vorticity_field(grid, t, PARAMS), grid, p) for t in times]
        slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
        assert abs(slope - expo) < 1e-3


def test_oseen_solves_vorticity_equation():
    # advection term vanishes and the heat balance is spectrally exact;
    # box/width ratio of 100 keeps the periodic-image flow below 1e-8
    grid = make_grid(256, 200.0)
    t = 4.0
    omega = oseen_vorticity_field(grid, t, PARAMS)
    xi1, xi2 = grid.xc1 / np.sqrt(t), grid.xc2 / np.sqrt(t)
    gauss = np.exp(-(xi1**2 + xi2**2) / 4.0) / (4 * np.pi)
    dt_omega = -(1.0 / t**2) * gauss * (1.0 - (xi1**2 + xi2**2) / 4.0)
    lap = derivative(omega, grid, (2, 0)) + derivative(omega, grid, (0, 2))
    coeffs = omega.copy()
    coeffs[0, 0] = 0.0
    u = biot_savart(coeffs, grid)
    grad = (to_physical(derivative(omega, grid, (1, 0)), grid),
            to_physical(derivative(omega, grid, (0, 1)), grid))
    advect = to_physical(u[0], grid) * grad[0] + to_physical(u[1], grid) * grad[1]
    residual = dt_omega - PARAMS.nu * to_physical(lap, grid) + advect
    assert np.abs(residual).max() < 1e-8 * np.abs(to_physical(omega, grid)).max()
    assert np.abs(advect).max() < 1e-8 * np.abs(to_physical(omega, grid)).max()


def test_field_profiles_take_the_grid_beside_the_half_spectrum():
    # the builders return (n, n/2 + 1) arrays; the operations check each array's shape
    # against the grid passed beside it
    grid, other = make_grid(64, 40.0), make_grid(32, 40.0)
    omega = dipole_vorticity_field(grid, 1, 1.0, PARAMS)
    assert isinstance(omega, np.ndarray) and omega.shape == grid.spectral_shape
    u = biot_savart(omega, grid)
    assert isinstance(u, tuple) and all(c.shape == grid.spectral_shape for c in u)
    pair = oseen_pair_fields(grid, 1.0, PARAMS)
    assert isinstance(pair, tuple) and isinstance(pair[1], tuple)
    assert np.array_equal(vorticity_of(u, grid, FluidParams(rho_star=2.0)), curl(u, grid) * 0.5)
    for call in (lambda: biot_savart(omega, other),
                 lambda: first_moments_beta(omega, other, PARAMS),
                 lambda: vorticity_of(u, other, PARAMS)):
        with pytest.raises(SpectralError, match=r"shape \(64, 33\) does not match grid n=32"):
            call()
