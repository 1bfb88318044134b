"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Shared experiment results are computed once per session at the default desk
scale (n = 256, L = 200, T = 30).  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import numpy as np
import pytest

from vortexlab import harness, profiles, spectral
from vortexlab.cli import RunManifest
from vortexlab.harness import (
    run_incompressible_limit,
    run_kernel_algebra,
    run_kernel_rates,
    run_nonlinear_smallness,
    run_pointwise_bound,
    run_sound_decay,
    run_vorticity_profiles,
)
from vortexlab.profiles import (
    FluidParams,
    biot_savart,
    oseen_vorticity_field,
)
from vortexlab.spectral import (
    derivative,
    lp_norm,
    make_grid,
    to_physical,
)


def _run(experiment, ctx):
    """`experiment(ctx)` with `SpectralField` refusing to be built, and `lp_norm` refusing
    p = 2: a run passes its fields as half-spectrum arrays, and the class is only the
    benchmark probe's form; a norm at L^2 alone is the Parseval sum `sobolev_norm(X, 0, .)`."""

    def refuse(self):
        raise AssertionError("the run path built a SpectralField")

    def lp_norm_off_l2(fields, grid, p):
        if p == 2:
            raise AssertionError("the run path took lp_norm at p = 2")
        return lp_norm(fields, grid, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral.SpectralField, "__post_init__", refuse)
        for module in (harness, profiles):
            patch.setattr(module, "lp_norm", lp_norm_off_l2)
        return experiment(ctx)


@pytest.fixture(scope="module")
def ctx():
    return RunManifest().context()


@pytest.fixture(scope="module")
def kernel_algebra(ctx):
    return _run(run_kernel_algebra, ctx)


@pytest.fixture(scope="module")
def kernel_rates(ctx):
    return _run(run_kernel_rates, ctx)


@pytest.fixture(scope="module")
def pointwise(ctx):
    return _run(run_pointwise_bound, ctx)


@pytest.fixture(scope="module")
def sound(ctx):
    return _run(run_sound_decay, ctx)


@pytest.fixture(scope="module")
def nonlinear(ctx):
    return _run(run_nonlinear_smallness, ctx)


@pytest.fixture(scope="module")
def incompressible(ctx):
    return _run(run_incompressible_limit, ctx)


@pytest.fixture(scope="module")
def vorticity(ctx):
    return _run(run_vorticity_profiles, ctx)


def test_the_run_guard_refuses_a_field(ctx):
    # the guard the seven experiments run under is live: building a field fails
    grid = make_grid(16, 1.0)
    with pytest.raises(AssertionError, match="built a SpectralField"):
        _run(lambda ctx: spectral.transform(np.zeros((16, 16)), grid), ctx)
    assert spectral.transform(np.zeros((16, 16)), grid).coeffs.shape == (16, 9)


@pytest.mark.parametrize("module", [harness, profiles], ids=["harness", "profiles"])
def test_the_run_guard_refuses_an_l2_riemann_norm(ctx, module):
    # the guard also refuses lp_norm at p = 2 through either module, and passes other p
    f = np.zeros((16, 9), complex)
    grid = make_grid(16, 1.0)
    with pytest.raises(AssertionError, match="lp_norm at p = 2"):
        _run(lambda ctx: module.lp_norm(f, grid, 2), ctx)
    assert _run(lambda ctx: module.lp_norm(f, grid, np.inf), ctx) == 0.0
    assert module.lp_norm(f, grid, 2) == 0.0


def _verdict(num, title, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _rows(result, prefix):
    rows = [r for r in result.reports if r.label.startswith(prefix)]
    assert rows, f"no reports matching {prefix!r}"
    return rows


def test_criterion_01_kernel_algebra(kernel_algebra):
    # semigroup/generator/projector/partition/realness at 1e-10 .. 1e-12
    failing = [r.label for r in kernel_algebra.reports if not r.passed]
    detail = f"{len(kernel_algebra.reports)} identities"
    if failing:
        detail += f"; failing: {failing}"
    _verdict(1, "kernel algebra suite", not failing, detail)


def test_criterion_02_artificial_kernel_rates(kernel_rates):
    rows = _rows(kernel_rates, "artificial-")
    assert len(rows) == 6  # p in {1,2,inf} x sigma in {0,1}
    bad = [f"{r.label}:{r.fitted:+.3f}vs{r.predicted:+.3f}" for r in rows if not r.passed]
    worst = max(abs(r.fitted - r.predicted) for r in rows)
    _verdict(
        2,
        "artificial-kernel rates within 0.1",
        not bad,
        f"worst |fit-pred| = {worst:.3f}" + (f"; {bad}" if bad else ""),
    )


def test_criterion_03_kernel_difference_rate(kernel_rates):
    row = _rows(kernel_rates, "kernel-difference-p2-s0")[0]
    ok = row.fitted <= -0.9
    _verdict(3, "kernel-difference rate <= -0.9", ok, f"fitted = {row.fitted:+.3f}")


def test_criterion_04_hf_exponential_decay(kernel_rates):
    row = _rows(kernel_rates, "hf-exponential-rate")[0]
    ok = row.fitted > 0 and row.r2 >= 0.98
    _verdict(
        4,
        "high-frequency exponential decay",
        ok,
        f"b = {row.fitted:.3f}, R^2 = {row.r2:.4f}",
    )


def test_criterion_05_heat_leray_rates(kernel_rates):
    rows = [
        r
        for r in kernel_rates.reports
        if r.label.startswith(("heat-leray-", "perp-dipole-", "perp-second-moment-",
                               "perp-weighted-", "perp-small-"))
    ]
    assert len(rows) == 11
    bad = [f"{r.label}:{r.fitted:+.3f}" for r in rows if not r.passed]
    worst = max(abs(r.fitted - r.predicted) for r in rows)
    _verdict(
        5,
        "heat-Leray and moment-data rates",
        not bad,
        f"11 rates, worst |fit-pred| = {worst:.3f}" + (f"; {bad}" if bad else ""),
    )


def test_criterion_06_pointwise_bound(pointwise):
    failing = [r.label for r in pointwise.reports if not r.passed]
    ks = [r.fitted for r in pointwise.reports if r.label.endswith("k-stability")]
    _verdict(
        6,
        "pointwise two-regime envelope",
        not failing,
        f"K stability ratios {['%.3f' % k for k in ks]}"
        + (f"; failing: {failing}" if failing else ""),
    )


def test_criterion_07_oseen_exactness(vorticity):
    # residual of the full vorticity equation for the self-similar vortex
    params = FluidParams()
    grid = make_grid(256, 200.0)
    t = 4.0
    omega = oseen_vorticity_field(grid, t, params)
    s = np.sqrt(params.nu * t)
    xi1, xi2 = grid.xc1 / s, grid.xc2 / s
    gauss = np.exp(-(xi1**2 + xi2**2) / 4.0) / (4 * np.pi)
    dt_omega = -(1.0 / t**2) * gauss * (1.0 - (xi1**2 + xi2**2) / 4.0)
    lap = to_physical(derivative(omega, grid, (2, 0)) + derivative(omega, grid, (0, 2)), grid)
    coeffs = omega.copy()
    coeffs[0, 0] = 0.0
    u = biot_savart(coeffs, grid)
    adv = to_physical(u[0], grid) * to_physical(derivative(omega, grid, (1, 0)), grid) + (
        to_physical(u[1], grid) * to_physical(derivative(omega, grid, (0, 1)), grid)
    )
    residual = np.abs(dt_omega - params.nu * lap + adv).max()
    rel = residual / np.abs(to_physical(omega, grid)).max()
    # and the vorticity solver tracks the vortex to 1e-6 (the experiment's row)
    exact = _rows(vorticity, "vortex-exactness")[0]
    ok = rel < 1e-8 and exact.passed

    # self-similar norm scaling exponents exact to 1e-3
    times = np.array([1.0, 2.0, 4.0, 8.0])
    worst_slope_err = 0.0
    for p, expo in ((1.0, 0.0), (2.0, -0.5), (np.inf, -1.0)):
        norms = [lp_norm(oseen_vorticity_field(grid, tt, params), grid, p) for tt in times]
        slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
        worst_slope_err = max(worst_slope_err, abs(slope - expo))
    ok = ok and worst_slope_err < 1e-3
    _verdict(
        7,
        "vortex exactness and self-similar scaling",
        ok,
        f"equation residual = {rel:.2e}, solver residual = {exact.fitted:.2e}, "
        f"worst slope error = {worst_slope_err:.2e}",
    )


def test_criterion_08_nonlinear_smallness(nonlinear):
    scaling = _rows(nonlinear, "amplitude-scaling")[0]
    envelope = _rows(nonlinear, "envelope-boundedness")[0]
    control = _rows(nonlinear, "linear-control")[0]
    ok = (
        abs(scaling.fitted - 2.0) <= 0.2
        and envelope.fitted < 3.0
        and control.passed
    )
    _verdict(
        8,
        "quadratic smallness of the nonlinear correction",
        ok,
        f"eps-exponent = {scaling.fitted:.3f}, envelope ratio = {envelope.fitted:.2f}",
    )


def test_criterion_09_sound_part_decay(sound):
    p2 = next(r for r in sound.reports if r.label == "sound-p2-s0")
    pinf = next(r for r in sound.reports if r.label == "sound-pinf-s0")
    ok = abs(p2.fitted + 0.5) <= 0.15 and abs(pinf.fitted + 1.25) <= 0.15
    _verdict(
        9,
        "sound-part decay exponents",
        ok,
        f"L2: {p2.fitted:+.3f} (want -0.5), Linf: {pinf.fitted:+.3f} (want -1.25)",
    )


def test_criterion_10_incompressible_profile(incompressible):
    rows = [r for r in incompressible.reports if r.label.startswith("dipole-residual-")]
    mono = [r for r in rows if r.label.endswith("monotone")]
    frac = [r for r in rows if r.label.endswith("final-fraction")]
    assert len(mono) == 4 and len(frac) == 4
    beta = _rows(incompressible, "beta-consistency")[0]
    ok = all(r.passed for r in mono + frac) and beta.passed
    worst = max(r.fitted for r in frac)
    _verdict(
        10,
        "incompressible-profile convergence",
        ok,
        f"worst final fraction = {worst:.3f} (< 0.2), beta drift = {beta.fitted:.2e}",
    )


def test_criterion_11_determinism(tmp_path):
    from vortexlab.cli import main

    cfg = tmp_path / "lab.cfg"
    cfg.write_text("n = 128\nL = 100\nexperiments = kernel-algebra, pointwise-bound\n")
    for sub in ("first", "second"):
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / sub)]) == 0
    pairs = [
        ((tmp_path / "first" / f).read_bytes(), (tmp_path / "second" / f).read_bytes())
        for f in ("reports.csv", "summary.json")
    ]
    ok = all(a == b for a, b in pairs)
    _verdict(11, "byte-identical repeated runs", ok)
