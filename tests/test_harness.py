import dataclasses
import json

import numpy as np
import pytest

from vortexlab import harness
from vortexlab.harness import (
    EXPERIMENTS,
    RECORDS,
    ConfigError,
    ExperimentReport,
    ExperimentResult,
    FitResult,
    HarnessError,
    RunManifest,
    fit_rate,
    list_experiments,
    predicted_exponent,
    reports_to_csv,
    run_experiment,
    run_pointwise_bound,
    series_to_csv,
    summary_dict,
)
from conftest import zero_state


def test_fit_rate_exact_power_law():
    t = np.geomspace(1.0, 30.0, 8)
    fit = fit_rate(t, 2.7 * t**-1.5)
    assert abs(fit.slope + 1.5) < 1e-12
    assert fit.r2 == pytest.approx(1.0)
    assert fit.r2 >= 0.98


def test_fit_rate_log_correction():
    t = np.geomspace(1.0, 50.0, 12)
    values = t**-1.0 * np.log1p(t)
    fit = fit_rate(t, values, log_correction=True)
    assert abs(fit.slope + 1.0) < 0.02
    raw = fit_rate(t, values)
    assert abs(raw.slope + 1.0) > abs(fit.slope + 1.0)


def test_fit_rate_constant_series():
    t = np.linspace(1.0, 10.0, 8)
    fit = fit_rate(t, np.full(8, 3.25))
    assert abs(fit.slope) < 1e-12
    assert fit.r2 == 1.0


def test_rate_series_validation():
    with pytest.raises(HarnessError):
        fit_rate((1.0, 2.0, 3.0), (1.0, 1.0, 1.0))  # too few
    t = tuple(np.linspace(1, 8, 8))
    with pytest.raises(HarnessError):
        fit_rate(t, tuple([1.0] * 7 + [0.0]))  # nonpositive value
    with pytest.raises(HarnessError):
        fit_rate(tuple([1.0] * 8), tuple([1.0] * 8))  # nonincreasing times


def test_window_selects_samples(monkeypatch):
    # the fit sees exactly the samples in [3, 8], both edges included
    seen = []

    def recording_fit(t, values, **kw):
        seen.append(t)
        return fit_rate(t, values, **kw)

    monkeypatch.setattr(harness, "fit_rate", recording_fit)
    t = np.linspace(1, 10, 10)
    result = ExperimentResult("e")
    result.rate("l", "lf_kernel", 2.0, 0, t, t**-1.0, 0.1, fit_window=(3.0, 8.0))
    (s,) = seen
    assert len(s) == 6
    assert s[0] == 3.0 and s[-1] == 8.0
    # the whole series is kept for export, not only the window
    assert len(result.series["l"][0]) == 10
    # the edges are inclusive to 1e-12: a window a hair inside [3, 8] keeps both ends
    seen.clear()
    result.rate("m", "lf_kernel", 2.0, 0, t, t**-1.0, 0.1, fit_window=(3.0 + 5e-13, 8.0 - 5e-13))
    assert len(seen[0]) == 6
    # and no further: past 1e-12 the end sample drops out
    seen.clear()
    result.rate("n", "lf_kernel", 2.0, 0, t, t**-1.0, 0.1, fit_window=(3.0 + 2e-12, 9.0))
    assert len(seen[0]) == 6 and seen[0][0] == 4.0
    seen.clear()
    result.rate("o", "lf_kernel", 2.0, 0, t, t**-1.0, 0.1, fit_window=(2.0, 8.0 - 2e-12))
    assert len(seen[0]) == 6 and seen[0][-1] == 7.0


def test_fit_errors_name_their_row():
    # a fit that cannot be made says which experiment row asked for it
    t = np.linspace(1.0, 10.0, 8)
    result = ExperimentResult("sound-decay")
    with pytest.raises(HarnessError, match="^sound-decay/sound-p2-s0: rate fit needs >= 6"):
        result.rate("sound-p2-s0", "sound_part", 2.0, 0, t, t**-1.0, 0.15, fit_window=(9.0, 10.0))
    values = t**-1.0
    values[3] = 0.0
    with pytest.raises(HarnessError, match="^sound-decay/sound-p1-s0: rate fit values must be"):
        result.rate("sound-p1-s0", "sound_part", 1.0, 0, t, values, 0.15)
    assert result.reports == []


def test_result_collects_rows():
    t = np.geomspace(1.0, 16.0, 8)
    result = ExperimentResult("e")
    result.add("a", 0.0, 1e-14, 1e-10, mode="bound")
    result.rate("b", "lf_kernel", 2.0, 0, t, 3.0 * t**-0.5, 0.1)
    # the decay residual is weighted by t^predicted_exponent: t^(1/2) at p = 2, sigma = 0
    result.decay("c", "incompressible_weight", 2.0, 0, t, t**-1.0, 16.0, 0.5, key="c-series")
    assert [r.label for r in result.reports] == ["a", "b", "c-monotone", "c-final-fraction"]
    assert all(r.experiment == "e" for r in result.reports)
    assert result.reports[1].fitted == pytest.approx(-0.5)
    assert result.reports[1].meta == {"log_envelope": False}
    assert np.allclose(result.series["c-series"][1], t**-0.5)
    assert result.reports[2].fitted < 1.0
    assert result.reports[3].fitted == pytest.approx(16.0**-0.5)
    assert result.passed
    assert set(result.series) == {"b", "c-series"}


def test_predicted_exponent_table():
    assert predicted_exponent("artificial_kernel", 2.0, 0) == pytest.approx(-0.5)
    assert predicted_exponent("artificial_kernel", np.inf, 0) == pytest.approx(-1.25)
    assert predicted_exponent("artificial_kernel", 1.0, 0) == pytest.approx(0.25)
    assert predicted_exponent("heat_second_moment_data", 1.5, 0) == pytest.approx(-5.0 / 6.0)
    assert predicted_exponent("nonlinear_correction", 2.0, 0) == pytest.approx(-1.0)
    assert predicted_exponent("lf_kernel", 2.0, 1) == pytest.approx(-1.0)
    assert predicted_exponent("heat_leray", np.inf, 1) == pytest.approx(-1.5)
    assert predicted_exponent("incompressible_weight", np.inf, 0) == pytest.approx(1.0)
    with pytest.raises(HarnessError):
        predicted_exponent("no-such-estimate", 2.0, 0)


def test_report_pass_semantics():
    r = ExperimentReport("e", "l", predicted=-1.0, fitted=-1.05, tolerance=0.1)
    assert r.passed
    r = ExperimentReport("e", "l", predicted=-1.0, fitted=-1.2, tolerance=0.1)
    assert not r.passed
    r = ExperimentReport("e", "l", predicted=-1.0, fitted=-1.6, tolerance=0.1, mode="bound")
    assert r.passed  # faster decay satisfies an upper bound
    r = ExperimentReport("e", "l", predicted=0.0, fitted=0.4, tolerance=0.0, r2=0.999, mode="positive")
    assert r.passed
    r = ExperimentReport("e", "l", predicted=0.0, fitted=0.4, tolerance=0.0, r2=0.5, mode="positive")
    assert not r.passed
    r = ExperimentReport("e", "l", predicted=0.0, fitted=float("nan"), tolerance=1.0)
    assert not r.passed


def test_reports_csv_format_and_determinism():
    reports = [
        ExperimentReport("exp", "a", -0.5, -0.52, 0.1, p=2.0, sigma=0, r2=0.999),
        ExperimentReport("exp", "b", -1.25, -1.3, 0.1, p=np.inf, sigma=1, r2=0.99),
        ExperimentReport("exp", "c", 0.0, 1e-14, 1e-10, mode="bound"),
    ]
    text = reports_to_csv(reports)
    again = reports_to_csv(list(reports))
    assert text == again
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")  # version header
    assert lines[1] == "experiment,p,sigma,predicted,fitted,r2,tolerance,pass"
    assert len(lines) == 2 + 3
    assert "inf" in lines[3]
    assert lines[2].endswith("true")


def test_series_csv_format():
    text = series_to_csv([1.0, 2.0], [0.5, 0.25])
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "t,value"
    assert lines[2] == "1.0,0.5"


def test_registry_contents():
    names = list_experiments()
    assert "kernel-rates" in names
    assert "incompressible-limit" in names
    assert len(names) == len(EXPERIMENTS) == 7
    # the dispatch table is derived from the records
    assert all(EXPERIMENTS[name] is RECORDS[name].run for name in names)
    with pytest.raises(HarnessError):
        run_experiment("bogus", RunManifest().context())


def test_run_experiment_prechecks_before_compute(monkeypatch):
    # the library entry makes the record's checks, as the CLI does: T = 40 leaves
    # sound-decay 5 snapshots in its fit window, so it fails naming T, before compute
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "sound-decay", calls.append)
    ctx = RunManifest(T=40.0)
    with pytest.raises(ConfigError, match="^T: "):
        run_experiment("sound-decay", ctx)
    assert calls == []


def test_run_experiment_rejects_a_horizon_of_one_or_less(monkeypatch):
    # nonlinear-smallness takes its snapshots on [1, h]: T = 0.5 used to end in a
    # bare SolverError from the solver's snapshot-time check
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "nonlinear-smallness", calls.append)
    for T in (0.5, 1.0):
        with pytest.raises(ConfigError, match=r"^T: nonlinear-smallness .* h > 1"):
            run_experiment("nonlinear-smallness", RunManifest(T=T))
    assert calls == []


@pytest.mark.parametrize(
    "key, values",
    [
        ("epsilon", {"epsilon": -0.01}),
        ("epsilon", {"epsilon": 0.0}),
        ("epsilon", {"epsilon": float("-inf")}),
        # (0.1 epsilon)^4 underflows: sound-decay used to run, then fail its rate fit
        ("epsilon", {"epsilon": 1e-300}),
        ("T", {"T": float("inf")}),
        ("T", {"T": 0.0}),
        ("T", {"T": float("nan")}),
        ("dt", {"dt": 0.0}),
        ("dt", {"dt": -0.1}),
        ("seed", {"seed": -1}),
        ("mu", {"mu": float("inf")}),
    ],
    ids=["epsilon-negative", "epsilon-zero", "epsilon-minus-inf", "epsilon-underflow", "T-inf",
         "T-zero", "T-nan",
         "dt-zero", "dt-negative", "seed-negative", "mu-inf"],
)
def test_context_rejects_bad_values_before_compute(monkeypatch, key, values):
    # the library entry gets the checks the CLI makes (a negative epsilon used to run
    # three nonlinear-smallness solves, then fail inside numpy's SVD; mu = inf printed
    # four FAIL rows in kernel-algebra); kernel-algebra has no record prechecks, so
    # only the manifest can reject the values
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "kernel-algebra", calls.append)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ctx = RunManifest(n=64, L=50.0, **values)
        run_experiment("kernel-algebra", ctx)
    assert calls == []


def test_epsilon_bound_keeps_the_fourth_power_normal():
    # nonlinear-smallness's deviation at 0.1 epsilon, squared by the p = 2 quadrature
    assert (0.1 * RunManifest.EPSILON_MIN) ** 4 == pytest.approx(np.finfo(float).tiny, rel=1e-12)
    assert RunManifest(epsilon=RunManifest.EPSILON_MIN).epsilon == RunManifest.EPSILON_MIN
    with pytest.raises(ConfigError, match="^epsilon: must be at least 1.22e-76"):
        RunManifest(epsilon=RunManifest.EPSILON_MIN * (1.0 - 1e-12))


def test_dipole_horizon_bound(monkeypatch):
    # two diffusive widths of the age-(h + 1) dipole inside L/2 of the half box:
    # h <= (100/8)^2 - 1 = 155.25 at L = 200; the default horizon max(T, 64) = 64 runs
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "vorticity-profiles", calls.append)
    for values in ({}, {"T": 155.25}):
        RunManifest(experiments=("vorticity-profiles",), **values).context()
    with pytest.raises(ConfigError, match=r"^T: vorticity-profiles needs a dipole horizon h <= "):
        run_experiment("vorticity-profiles", RunManifest(T=300.0))
    # on L = 128 the fixed minimum 64 exceeds the bound 63: the box is too small
    with pytest.raises(ConfigError, match=r"^n/L: vorticity-profiles .* = 63 on its box"):
        RunManifest(L=128.0, experiments=("vorticity-profiles",)).context()
    assert calls == []


def test_non_integral_n_is_rejected_before_compute(monkeypatch):
    # n = 256.5 used to run at n = 256 and record 256.5 in the summary
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "kernel-algebra", calls.append)
    with pytest.raises(ConfigError, match="^n: "):
        run_experiment("kernel-algebra", RunManifest(n=256.5))
    assert calls == []


@pytest.mark.parametrize(
    "given, plain",
    [
        ({"mu": 1}, {"mu": 1.0}),
        ({"L": 200}, {"L": 200.0}),
        ({"T": np.float64(30.0)}, {"T": 30.0}),
        ({"n": np.int64(256), "seed": np.int64(0)}, {"n": 256, "seed": 0}),
    ],
    ids=["mu-int", "L-int", "T-numpy", "n-seed-numpy"],
)
def test_equal_manifests_write_equal_contexts(given, plain):
    # each field keeps one number type, so equal manifests write the same summary bytes
    a, b = RunManifest(experiments=(), **given), RunManifest(experiments=(), **plain)
    assert a == b
    dumps = [json.dumps(summary_dict([], ctx)["context"], sort_keys=True) for ctx in (a, b)]
    assert dumps[0] == dumps[1]
    assert all(type(getattr(a, key)) is type(value) for key, value in plain.items())


def test_sound_window_bound_keeps_a_full_fit():
    # the precheck's bound 4^(13/5) is where the run's 14 snapshots on [1, h] stop
    # putting the 6 samples a fit needs in its window [h/4, h]
    most = 4.0 ** (13.0 / 5.0)
    below, above = most * (1.0 - 1e-6), most * (1.0 + 1e-6)
    for h, count in ((below, 6), (above, 5)):
        times = harness._snapshot_times(h)
        assert sum(h / 4.0 - 1e-12 <= t <= h + 1e-12 for t in times) == count
    t = np.array(harness._snapshot_times(above))
    with pytest.raises(HarnessError, match="needs >= 6 samples, got 5"):
        ExperimentResult("sound-decay").rate(
            "sound-p2-s0", "sound_part", 2.0, 0, t, t**-0.5, 0.15, fit_window=(above / 4.0, above)
        )
    RECORDS["sound-decay"].precheck(RunManifest(T=below))
    with pytest.raises(ConfigError, match=r"^T: .* h <= 36\.76 to keep 6 snapshots"):
        RECORDS["sound-decay"].precheck(RunManifest(T=above))


def test_pointwise_bound_smoke():
    # measured on the half box, 256 points on L = 100
    result = run_pointwise_bound(RunManifest())
    rows = {r.label: r.fitted for r in result.reports}
    for label in ("default", "resolved-ring"):
        assert rows[f"{label}-ring-location"] == 1.0
        assert rows[f"{label}-far-tail"] < 1e-8
        assert np.isfinite(rows[f"{label}-k-stability"])


def test_pointwise_bound_rejects_escaping_ring():
    from vortexlab.kernels import KernelError

    # half box L = 10: the default ring c t + 3 sqrt(mu_par t) reaches 10 by t = 4
    ctx = RunManifest(n=64, L=40.0)
    with pytest.raises(KernelError, match="acoustic ring leaves the box at t=4.0"):
        run_pointwise_bound(ctx)


def test_kernel_algebra_runs_small():
    ctx = RunManifest(n=64, L=50.0)
    res = run_experiment("kernel-algebra", ctx)
    assert res.passed
    assert len(res.reports) >= 10


def test_zero_amplitude_residuals_vanish_identically():
    # the eps = 0 limit of the profile-convergence residual is exactly zero
    from vortexlab.profiles import FluidParams, Moments, profile_superposition
    from vortexlab.solver import SolverConfig, simulate
    from vortexlab.spectral import leray_decompose, lp_norm, make_grid

    grid = make_grid(32, 50.0)
    params = FluidParams()
    cfg = SolverConfig(grid=grid, params=params, T=2.0, snapshot_times=(1.0, 2.0))
    traj = simulate(zero_state(grid), cfg)
    moments = Moments(0.0, (0.0, 0.0))
    for t, X in zip(traj.times[1:], traj.states[1:]):
        perp, _ = leray_decompose(X.m)
        _, uref = profile_superposition(moments, t, params, grid)
        diff = (perp[0] - uref[0], perp[1] - uref[1])
        assert lp_norm(diff, 2) == 0.0
        assert lp_norm(diff, np.inf) == 0.0


def _stub_solvers(monkeypatch, abort_call):
    """Stand-ins for both solvers: every run returns its initial data at each
    snapshot, except run number `abort_call`, which raises SolverAbort."""
    from vortexlab.solver import SolverAbort, Trajectory, VorticityTrajectory

    calls = []

    def run(x0, snapshot_times):
        calls.append(snapshot_times)
        if len(calls) - 1 == abort_call:
            raise SolverAbort("stub abort")
        times = (0.0, *snapshot_times)
        return times, (x0,) * len(times)

    def simulate(X0, cfg):
        times, states = run(X0, cfg.snapshot_times)
        return Trajectory(times, states, ({},) * len(times))

    def vorticity_simulate(omega0, nu, snapshot_times, dt):
        return VorticityTrajectory(*run(omega0, snapshot_times))

    monkeypatch.setattr(harness, "simulate", simulate)
    monkeypatch.setattr(harness, "vorticity_simulate", vorticity_simulate)


@pytest.mark.parametrize(
    "experiment, L, abort_call, message",
    [
        ("sound-decay", 100.0, 0, "sound-decay run aborted"),
        ("nonlinear-smallness", 100.0, 0, "nonlinear-smallness eps=0.001 run aborted"),
        ("nonlinear-smallness", 100.0, 3, "nonlinear-smallness linear-control run aborted"),
        ("incompressible-limit", 100.0, 0, "incompressible-limit dipole-data run aborted"),
        ("incompressible-limit", 100.0, 1, "incompressible-limit vortex-data run aborted"),
        # the dipole horizon needs the default box, L = 200, and its half
        ("vorticity-profiles", 200.0, 0, "vorticity-profiles vortex L=200 run aborted"),
        ("vorticity-profiles", 200.0, 1, "vorticity-profiles vortex L=100 run aborted"),
        ("vorticity-profiles", 200.0, 2, "vorticity-profiles dipole-data run aborted"),
    ],
    ids=["sound", "nonlinear", "linear-control", "dipole-data", "vortex-data",
         "vorticity-full-box", "vorticity-half-box", "vorticity-dipole"],
)
def test_aborted_solver_run_raises(monkeypatch, experiment, L, abort_call, message):
    # no solver run reaches a fit once it has aborted, the linear control included
    _stub_solvers(monkeypatch, abort_call)
    ctx = RunManifest(n=128, L=L)
    with pytest.raises(HarnessError, match=f"^{message}: stub abort$"):
        run_experiment(experiment, ctx)


def test_non_finite_vorticity_run_raises():
    # at this amplitude the dipole run overflows by its first snapshot; it used to
    # reach its fits, and moment-conservation passed on a NaN field (max(0, nan) = 0)
    with pytest.raises(HarnessError, match="^vorticity-profiles dipole-data run aborted: "
                                           "non-finite state: vorticity at t = 1$"):
        run_experiment("vorticity-profiles", RunManifest(n=128, epsilon=1e6))


def test_run_experiment_names_n_L_for_a_library_error_mid_run(monkeypatch):
    # the setup of test_cli's exit-2 case: with pointwise-bound's ring check taken
    # away, its own KernelError comes back as the CLI reports it (it used to escape bare)
    from vortexlab.kernels import KernelError

    record = RECORDS["pointwise-bound"]
    monkeypatch.setitem(RECORDS, "pointwise-bound", dataclasses.replace(record, checks=()))
    message = "^n/L: pointwise-bound cannot run at n = 64, L = 50: acoustic ring leaves the box"
    with pytest.raises(HarnessError, match=message) as info:
        run_experiment("pointwise-bound", RunManifest(n=64, L=50.0))
    assert isinstance(info.value.__cause__, KernelError)
