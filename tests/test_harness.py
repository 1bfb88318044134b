import dataclasses
import json
import sys
import weakref

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


def test_decay_needs_two_samples_in_its_last_half():
    # with one sample in [h/2, h] the monotone row used to pass on no ratio at all
    t = np.geomspace(1.0, 2400.0, 12)
    result = ExperimentResult("vorticity-profiles")
    with pytest.raises(HarnessError, match=r"^vorticity-profiles/r: a decay needs >= 2 samples "
                                           r"in the last half \[h/2, h\], got 1$"):
        result.decay("r", "dipole_weight", 2.0, 0, t, t**-2.0, 2400.0, 0.2)
    assert result.reports == []


def test_decay_window_precheck(monkeypatch):
    # h <= 2^11 keeps two of 12 geometric snapshots in [h/2, h], on both records with decay
    # rows; the first config reached a one-sample monotone row, the second's diffusive
    # horizon is capped at (0.075 * 650)^2 - 1 = 2375.6 on its half box
    calls = []
    for name in ("vorticity-profiles", "incompressible-limit"):
        monkeypatch.setitem(harness.EXPERIMENTS, name, calls.append)
    RunManifest(n=1024, L=800.0, T=2048.0, experiments=("vorticity-profiles",)).context()
    for values in ({"n": 1024, "L": 800.0, "T": 2400.0, "experiments": ("vorticity-profiles",)},
                   {"n": 2048, "L": 1300.0, "T": 2100.0, "experiments": ("incompressible-limit",)}):
        ctx = RunManifest(**values)
        with pytest.raises(ConfigError, match=r"^T: .* needs a horizon h <= 2048 .* \[h/2, h\]"):
            ctx.context()
    assert calls == []


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


@pytest.mark.parametrize("values", [
    [float("nan"), 1e-3, 0.0],
    [1e-3, float("nan"), 0.0],
    [1e-3, 0.0, float("nan")],
    np.array([[1e-3, 0.0], [float("nan"), 2e-3]]),
    float("nan"),
])
def test_bound_row_fails_on_a_nan_anywhere(values):
    # Python's max(0.0, nan) is 0.0: a fold that drops the NaN would pass the row
    result = ExperimentResult("e")
    result.bound("l", 0.0, values, 1.0)
    (row,) = result.reports
    assert row.mode == "bound" and np.isnan(row.fitted)
    assert not row.passed and not result.passed


@pytest.mark.parametrize("values", [[], np.array([]), ()])
def test_bound_row_of_no_values_reads_zero(values):
    result = ExperimentResult("e")
    result.bound("l", 0.0, values, 0.0)
    assert result.reports[0].fitted == 0.0 and result.passed


def test_bound_row_takes_the_worst_value():
    result = ExperimentResult("e")
    result.bound("l", 1.0, np.array([0.25, 1.5, 0.5]), 0.0, p=2.0, sigma=1, meta={"k": 1})
    row = result.reports[0]
    assert (row.fitted, row.p, row.sigma, row.meta) == (1.5, 2.0, 1, {"k": 1})
    assert isinstance(row.fitted, float) and not row.passed


def test_summary_report_keys_are_the_report_fields():
    result = ExperimentResult("e")
    result.add("rate", -1.0, -1.02, 0.1, p=np.inf, sigma=0, r2=0.99)
    result.bound("worst", 0.0, [1e-14, 0.0], 1e-12)
    summary = summary_dict([result], RunManifest(experiments=("kernel-algebra",)))
    reports = summary["experiments"][0]["reports"]
    keys = {f.name for f in dataclasses.fields(ExperimentReport)} - {"experiment"} | {"passed"}
    assert [set(r) for r in reports] == [keys, keys]
    assert reports[0]["p"] == "inf" and reports[1]["p"] is None
    assert [r["passed"] for r in reports] == [True, True]


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
        # each fluid-parameter error names its one key (all four used to start with
        # "mu/lambda/rho_star/gamma:"); gamma = 0 used to run and divide by zero
        ("mu", {"mu": 0.0}),
        ("lam", {"lam": -3.0}),
        ("rho_star", {"rho_star": 0.0}),
        ("gamma", {"gamma": 0.0}),
        ("pressure_scale", {"pressure_scale": 0.0}),
        ("pressure_scale", {"pressure_scale": -1.0}),
        # P'(rho_star) overflows to inf, so c = inf: it used to run with the semigroup
        # rows reading 0 (PASS), or stop on an overflow warning under -W error
        ("rho_star", {"rho_star": 1e10, "pressure_scale": 1e308}),
    ],
    ids=["epsilon-negative", "epsilon-zero", "epsilon-minus-inf", "epsilon-underflow", "T-inf",
         "T-zero", "T-nan",
         "dt-zero", "dt-negative", "seed-negative", "mu-inf",
         "mu-zero", "lam-elliptic", "rho_star-zero", "gamma-zero", "pressure_scale-zero",
         "pressure_scale-negative", "rho_star-slope-overflow"],
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


def test_manifest_params_carry_the_fluid_keys():
    params = RunManifest(gamma=2.0, pressure_scale=3.0, rho_star=4.0).params
    assert (params.gamma, params.pressure_scale, params.rho_star) == (2.0, 3.0, 4.0)
    assert params.c == np.sqrt(3.0 * 4.0**1.0)


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


@pytest.mark.parametrize(
    "n, L, localized",
    [(64, 200.0, False), (128, 200.0, False), (256, 340.0, False), (256, 400.0, False),
     (512, 700.0, False), (256, 200.0, True), (256, 300.0, True), (512, 600.0, True)],
)
def test_vorticity_data_check_matches_the_heat_flowed_data(n, L, localized):
    # the closed-form tail rule against the measurement it stands for: the run's
    # dealiased dipole data, heat-flowed to the first moment probe t = 1, through
    # first_moments_beta; at n = 128 that is the edge/peak the dipole run used to
    # stop on after its vortex runs and its whole dipole run
    from vortexlab.profiles import ProfileError, first_moments_beta

    ctx, record = RunManifest(n=n, L=L), RECORDS["vorticity-profiles"]
    grid = record.grid(ctx)
    omega = harness._vorticity_dipole_data(ctx, grid) * grid.dealias_mask
    heat = np.exp(-ctx.params.nu * grid.eta_sq) * omega
    try:
        first_moments_beta(heat, grid, ctx.params)
        measured = None
    except ProfileError as err:
        measured = str(err)
    try:
        harness._check_vorticity_data(record, ctx)
        rule = None
    except ConfigError as err:
        rule = str(err)
    assert (measured is None) == (rule is None) == localized
    if not localized:
        assert rule.startswith(f"n/L: vorticity-profiles dipole data is not localized on its "
                               f"box (n = {n}, L = {L / 2:g}): band-edge tail")
    if n == 128:
        assert measured.endswith("(edge/peak = 2.28e-07)")


@pytest.mark.parametrize(
    "n, L, mu, localized",
    [(128, 130.0, 1.0, False), (128, 150.0, 1.0, False), (128, 155.0, 1.0, False),
     (256, 150.0, 1.0, False), (256, 160.0, 1.0, False), (256, 200.0, 2.0, False),
     (256, 170.0, 1.0, True), (256, 200.0, 1.0, True), (256, 130.0, 0.5, True),
     (1024, 800.0, 1.0, True)],
)
def test_moment_probe_check_matches_the_heat_flowed_data(monkeypatch, n, L, mu, localized):
    # the closed-form bound against the measurement it stands for: the run's dealiased
    # dipole data, heat-flowed to the last moment probe, through first_moments_beta.  At
    # n = 128 every box the other checks admit (129 <= L <= 155) used to exit 2 mid-run
    from vortexlab.kernels import heat_weight
    from vortexlab.profiles import ProfileError, first_moments_beta

    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "vorticity-profiles", calls.append)
    ctx, record = RunManifest(n=n, L=L, mu=mu), RECORDS["vorticity-profiles"]
    grid, nu = record.grid(ctx), ctx.params.nu
    t = max(t for t in harness._snapshot_times(64.0, 12) if t <= 16.0)
    omega = harness._vorticity_dipole_data(ctx, grid) * grid.dealias_mask
    try:
        first_moments_beta(omega * heat_weight(0, t, grid, nu), grid, ctx.params)
    except ProfileError:
        assert not localized
    else:
        assert localized
    if localized:
        run_experiment("vorticity-profiles", ctx)
        assert len(calls) == 1
    else:
        with pytest.raises(ConfigError, match=rf"^n/L: vorticity-profiles dipole data is not "
                           rf"localized on its box \(n = {n}, L = {L / 2:g}\) at its last "
                           rf"moment probe t = 14.11: heat-flowed edge/peak bound"):
            run_experiment("vorticity-profiles", ctx)
        assert calls == []


@pytest.mark.parametrize(
    "n, L, localized",
    [(256, 100.0, False), (256, 105.0, False), (256, 110.0, False), (512, 110.0, False),
     (128, 110.0, False), (256, 115.0, True), (256, 120.0, True)],
)
def test_dipole_probe_check_rejects_the_boxes_whose_run_stopped_mid_run(
    monkeypatch, n, L, localized
):
    # the rejected boxes passed every precheck and exited 2 at the moment probe, where
    # first_moments_beta read the dipole's edge/peak at 1.7e-9 to 5.8e-9; the closed-form
    # bound reads 3 to 7 times that, and 1.3e-11 and 4.9e-12 on the two admitted boxes
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "incompressible-limit", calls.append)
    ctx = RunManifest(n=n, L=L)
    if localized:
        run_experiment("incompressible-limit", ctx)
        assert len(calls) == 1
    else:
        with pytest.raises(ConfigError, match=rf"^n/L: incompressible-limit dipole data is not "
                           rf"localized on its box \(n = {n}, L = {L / 2:g}\) at its moment "
                           rf"probe t = [0-9.]+: heat-flowed edge/peak bound"):
            run_experiment("incompressible-limit", ctx)
        assert calls == []


@pytest.mark.parametrize("key, value", [("mu", 1.5), ("mu", 5.0), ("mu", 20.0), ("lam", 2.0),
                                        ("rho_star", 0.2)])
def test_kernel_algebra_passes_every_row_on_a_viscous_fluid(key, value):
    # the generator rows compared (S(dt) - I)/dt with G, so they read the difference
    # quotient's truncation error, about (dt/2)|G|, which grows with the viscosity:
    # generator-spar read 1.07e-5 > 1e-5 at mu = 1.5 and 1.42e-4 at mu = 20.  The exact
    # identity S(dt) - I = (dt phi_1(dt G)) G reads rounding only, at most 6.2e-9 here
    result = run_experiment("kernel-algebra", RunManifest(**{key: value}))
    assert [(r.label, r.fitted) for r in result.reports if not r.passed] == []
    generator = [r for r in result.reports if r.label.startswith("generator-")]
    assert len(generator) == 2 and all(r.fitted < 1e-8 for r in generator)


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
    a, b = (RunManifest(experiments=("kernel-algebra",), **kw) for kw in (given, plain))
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


def test_far_tail_fails_on_a_nan_sample(monkeypatch):
    # max over the samples keeps the first of a NaN and a number: a NaN at a later
    # time used to read as the earlier samples' tail
    real, calls = harness.artificial_diagonal_field, []

    def field(t, grid, params, *args):
        calls.append(None)
        diag = real(t, grid, params, *args)
        if len(calls) == 2:
            diag[0, 0] = np.nan  # the box corner, far outside the ring
        return diag

    monkeypatch.setattr(harness, "artificial_diagonal_field", field)
    # the K fit reads NaN on such a field (its own test below); this test is of the tail
    monkeypatch.setattr(harness, "_fit_pointwise_constant", lambda *args: 1.0)
    rows = {r.label: r for r in run_pointwise_bound(RunManifest()).reports}
    assert np.isnan(rows["default-far-tail"].fitted)
    assert not rows["default-far-tail"].passed


def test_k_stability_fails_on_a_nan_field(monkeypatch):
    # a NaN sample leaves no resolved point, and the K fit took the max of nothing, a bare
    # ValueError past run_experiment's remap; it now reads NaN, and the row FAILs
    real, calls = harness.artificial_diagonal_field, []

    def field(t, grid, params, *args):
        calls.append(None)
        diag = real(t, grid, params, *args)
        if len(calls) == 1:
            diag[0, 0] = np.nan
        return diag

    monkeypatch.setattr(harness, "artificial_diagonal_field", field)
    result = run_pointwise_bound(RunManifest())
    rows = {r.label: r for r in result.reports}
    assert np.isnan(result.extras["default"]["samples"][0]["k_fit"])
    assert not np.isfinite(rows["default-k-stability"].fitted)
    assert not rows["default-k-stability"].passed
    assert rows["resolved-ring-k-stability"].passed


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


def test_semigroup_rows_fail_on_a_nan_deviation(monkeypatch):
    # max(worst, nan) keeps worst, so one NaN pair used to read as an exact pass
    real, calls = harness._relative_deviation, []

    def deviation(a, b):
        calls.append(None)
        # call 20 k + 7 is the eighth (t, s) pair of the k-th semigroup row
        return float("nan") if len(calls) <= 100 and len(calls) % 20 == 8 else real(a, b)

    monkeypatch.setattr(harness, "_relative_deviation", deviation)
    res = run_experiment("kernel-algebra", RunManifest(n=64, L=50.0))
    rows = {r.label: r for r in res.reports}
    for kind in ("spar", "s", "artificial-par", "artificial", "wave"):
        assert np.isnan(rows[f"semigroup-{kind}"].fitted)
        assert not rows[f"semigroup-{kind}"].passed
    assert rows["semigroup-heat"].passed


def test_leray_orthogonality_fails_on_a_nan_norm(monkeypatch):
    # the row skips a pair with a zero norm; a NaN norm used to be skipped as well
    real, calls = harness.sobolev_norm, []

    def norm(f, s, lattice):
        calls.append(None)
        return float("nan") if len(calls) == 3 else real(f, s, lattice)

    monkeypatch.setattr(harness, "sobolev_norm", norm)
    res = run_experiment("kernel-algebra", RunManifest(n=64, L=50.0))
    (row,) = (r for r in res.reports if r.label == "leray-orthogonality")
    assert np.isnan(row.fitted) and not row.passed


def test_linear_control_fails_on_a_nan_deviation(monkeypatch):
    # max(0.0, *values) is 0.0 when one value is NaN: the row used to pass
    def deviations(ctx, grid, eps, horizon, times, what, nonlinear=True):
        if nonlinear:
            return [eps**2 * np.log1p(t) for t in times]
        return [0.0, float("nan")] + [0.0] * (len(times) - 2)

    monkeypatch.setattr(harness, "_linear_deviations", deviations)
    res = run_experiment("nonlinear-smallness", RunManifest(n=64, L=50.0))
    (row,) = (r for r in res.reports if r.label == "linear-control")
    assert np.isnan(row.fitted) and not row.passed


def _rates_params():
    from vortexlab.solver import scaled_params

    return scaled_params(RunManifest().params)


def test_kernel_rates_support_bands():
    # the low-pass weight is nonzero on |k| <= 95 at n = 512 and reaches the Nyquist
    # lines at n = 128; the heat factor underflows past a radius for 7 of 9 times
    from vortexlab.kernels import default_cutoff, low_pass
    from vortexlab.spectral import make_grid, support_band

    params = _rates_params()
    for n, half_width in ((512, 95), (128, None)):
        grid = make_grid(n, 200.0)
        band = support_band(grid, low_pass(grid, default_cutoff(params)))
        if half_width is None:
            assert band is grid
        else:
            assert band.spectral_shape == (2 * half_width + 1, half_width + 1)
    grid = make_grid(512, 200.0)
    bands = [support_band(grid, np.exp(-params.mu * grid.eta_sq * t))
             for t in np.geomspace(8.0, 128.0, 9)]
    assert bands[:2] == [grid, grid]
    assert [b.k_cols[-1] for b in bands[2:]] == [217, 182, 153, 129, 108, 91, 76]


def _half_lattice_rates_series(grid, params):
    """kernel-rates' low-frequency, heat-Leray and heat-flow series with every spectrum
    built, applied and transformed on the whole half lattice."""
    from vortexlab.kernels import KernelSymbol, default_cutoff, low_pass, phi_symbol_grid
    from vortexlab.profiles import biot_savart, dipole_vorticity_field
    from vortexlab.spectral import (derivative, lp_of_magnitude, magnitude, over_mag2,
                                    sobolev_norm)

    def dx(fields, sigma):
        return tuple(derivative(f, grid, (1, 0)) for f in fields) if sigma else tuple(fields)

    series = {}
    chi = low_pass(grid, default_cutoff(params))
    X0 = harness._localized_sound_state(grid, grid)
    for t in np.geomspace(6.0, 56.0, 9):
        lf = phi_symbol_grid(0, t, grid, params, "spar").entries * chi
        lf_art = phi_symbol_grid(0, t, grid, params, "artificial_par").entries * chi
        series.setdefault("kernel-difference-p2-s0", []).append(
            sobolev_norm(KernelSymbol(grid, lf - lf_art).apply(X0), 0, grid))
        X = KernelSymbol(grid, lf).apply(X0)
        for sigma in (0, 1):
            mag = magnitude(dx(X, sigma), grid)
            for p in (2.0, np.inf):
                series.setdefault(f"lf-kernel-p{p:g}-s{sigma}", []).append(
                    lp_of_magnitude(mag, grid, p))
    e1, e2, mag2 = grid.eta1_odd, grid.eta2_odd, grid.eta_sq_odd
    r_perp = (over_mag2(e2 * e2, mag2), over_mag2(-np.sqrt(2.0) * e1 * e2, mag2),
              over_mag2(e1 * e1, mag2))
    for t in np.geomspace(1.0, 16.0, 9):
        mag = magnitude(dx([np.exp(-params.mu * grid.eta_sq * t) * r for r in r_perp], 1), grid)
        for p in (1.0, 2.0, np.inf):
            series.setdefault(f"heat-leray-p{p:g}-s1", []).append(lp_of_magnitude(mag, grid, p))
    omega = dipole_vorticity_field(grid, 1, 1.0, params)
    m_dipole = biot_savart(omega, grid)
    m_second = biot_savart(derivative(omega, grid, (1, 0)), grid)
    radius = np.hypot(grid.xc1, grid.xc2)
    for t in np.geomspace(8.0, 128.0, 9):
        h = np.exp(-params.mu * grid.eta_sq * t)
        for m0, sigmas in ((m_dipole, (0, 1)), (m_second, (0,))):
            flowed = [h * f for f in m0]
            for sigma in sigmas:
                mag = magnitude(dx(flowed, sigma), grid)
                rows = ([(f"perp-dipole-p{p:g}-s{sigma}", mag, p) for p in (2.0, np.inf)]
                        if m0 is m_dipole else
                        [(f"perp-second-moment-p{p:g}-s0", mag, p) for p in (2.0, np.inf)]
                        + [("perp-weighted-p2-s0", mag * radius, 2.0),
                           ("perp-small-p1.5-s0", mag, 1.5)])
                for label, values, p in rows:
                    series.setdefault(label, []).append(lp_of_magnitude(values, grid, p))
    return series


@pytest.mark.parametrize("n", [256, 128])
def test_kernel_rates_band_series_equal_the_half_lattice_ones(n):
    # n = 256 runs both sections on bands; at n = 128 the low-pass weight reaches the
    # Nyquist lines and the LF rows and the first two heat-flow times run on the grid
    ctx = RunManifest(n=n)
    result = run_experiment("kernel-rates", ctx)
    expected = _half_lattice_rates_series(ctx.grid, _rates_params())
    assert len(expected) == 16
    for label, values in expected.items():
        got = result.series[label][1]
        if label.startswith("kernel-difference"):
            assert np.allclose(got, values, rtol=1e-15, atol=0.0), label
        else:
            assert np.array_equal(got, values), label


def _cold_peak(run, ctx) -> float:
    """tracemalloc peak of one run of an experiment function, in complex half-lattice
    arrays of the manifest's grid; the manifest holds no grid, so the run starts cold."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / np.empty(ctx.grid.spectral_shape, complex).nbytes


@pytest.mark.parametrize("name, n, bound", [
    ("kernel-rates", 256, 12.5),
    ("kernel-rates", 512, 8.5),
    ("pointwise-bound", 512, 6.5),
], ids=["kernel-rates-256", "kernel-rates-512", "pointwise-bound-512"])
def test_kernel_lab_cold_peak_in_half_lattice_arrays(name, n, bound):
    """Each kernel-lab section holds each lattice-size quantity once and only while it is
    used: the HF rows bin their random state's shell moments and free it before any
    symbol is evaluated, the LF rows gather their localized state one field at a time,
    the heat flows transform one data field at a time and weight the second-moment
    magnitude in place, the Biot-Savart multiplier is not cached, the squares of a
    transform are written slab by slab, and the pointwise fit takes the log of its outer
    points only.

    Measured 11.28, 7.73 and 5.93 arrays.  The HF rows' shell form lowered the n = 256
    peak from 11.78 and raised the n = 512 one from 7.31, where the grid's shells, built
    before the state is drawn, now meet it; with the state alive through the per-time
    shell evaluations, n = 512 read 8.90.  Before the section-wise
    layout they measured 13.93, 12.29 and 8.40 (the HF output stack, the heat flows' two
    data fields and cached multiplier, and the fit's three-array log path).  Each bound
    leaves over half an array of headroom and fails that layout."""
    assert _cold_peak(RECORDS[name].run, RunManifest(n=n, experiments=(name,))) <= bound


def test_kernel_rates_grid_is_freed_when_the_run_returns(monkeypatch):
    # the manifest used to cache its grid, so the caches kernel-rates fills on it (7.8 MB
    # at 512^2) lived to the end of the run
    import gc

    grids, low_pass = [], harness.low_pass

    def spy(grid, r0):
        grids.append(weakref.ref(grid))
        return low_pass(grid, r0)

    monkeypatch.setattr(harness, "low_pass", spy)
    ctx = RunManifest(n=128, L=150.0, experiments=("kernel-rates",))
    run_experiment("kernel-rates", ctx)
    gc.collect()
    assert len(grids) == 1 and grids[0]() is None


@pytest.mark.parametrize("L, admitted", [(100.0, False), (143.0, False), (144.0, True),
                                         (200.0, True)])
def test_kernel_rates_ring_check_keeps_the_artificial_ring_in_the_box(monkeypatch, L, admitted):
    # at L = 100 kernel-rates used to pass every precheck and FAIL artificial-pinf-s0
    # (-1.085 against -1.25): the thin ring's edge c t + 3 sqrt(mu_par t) reaches 71.9 at
    # its last time t = 56, so the rule admits L > 143.75
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "kernel-rates", calls.append)
    ctx = RunManifest(L=L, experiments=("kernel-rates",))
    if admitted:
        run_experiment("kernel-rates", ctx)
        assert len(calls) == 1
    else:
        with pytest.raises(ConfigError, match=rf"^n/L: kernel-rates \(artificial\) needs its "
                           rf"acoustic ring c t \+ 3 sqrt\(mu_par t\) = 71.87 below "
                           rf"L/2 = {L / 2:g} on its box up to t = 56$"):
            run_experiment("kernel-rates", ctx)
        assert calls == []


@pytest.mark.parametrize("n", [128, 256])
def test_hf_norms_from_shell_moments_equal_the_whole_lattice_ones(n):
    # at n = 128 the low-pass band reaches the Nyquist lines, so the HF weight is nonzero on
    # the Nyquist row and column, whose odd wavenumbers are 0
    from vortexlab.kernels import KernelSymbol, default_cutoff, low_pass, phi_symbol_grid
    from vortexlab.spectral import make_grid, sobolev_norm

    params, grid = _rates_params(), make_grid(n, 200.0)
    r0 = default_cutoff(params)
    hf = 1.0 - low_pass(grid, r0)
    X = harness._random_stack(grid, np.random.default_rng(3))
    times = np.linspace(1.0, 10.0, 10)

    def hf_part(t):
        return KernelSymbol(grid, phi_symbol_grid(0, t, grid, params, "spar").entries * hf)

    expected = [sobolev_norm(hf_part(t).apply(X), 0, grid) for t in times]
    moments = harness._shell_moments(grid, X)
    got = harness._hf_norms(grid, params, harness._hf_shell_weight(grid, r0), moments, times)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [64, 128])
def test_shell_moments_sum_to_the_stack_l2_norm(n):
    from vortexlab.spectral import make_grid, sobolev_norm

    grid = make_grid(n, 200.0)
    X = harness._random_stack(grid, np.random.default_rng(5))
    moments = harness._shell_moments(grid, X)
    assert moments.shape == (4, len(grid.shells[0]))
    rr, _, _, mm = moments.sum(axis=1) / grid.L**2
    assert rr + mm == pytest.approx(sobolev_norm(X, 0, grid) ** 2, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [128, 512])
def test_hf_shell_weight_gathers_to_the_low_pass_complement(n):
    from vortexlab.kernels import default_cutoff, low_pass
    from vortexlab.spectral import make_grid

    grid, r0 = make_grid(n, 200.0), default_cutoff(_rates_params())
    gathered = harness._hf_shell_weight(grid, r0)[grid.shells[2]]
    assert np.array_equal(gathered, 1.0 - low_pass(grid, r0))


def test_zero_amplitude_residuals_vanish_identically():
    # the eps = 0 limit of the profile-convergence residual is exactly zero
    from vortexlab.profiles import FluidParams, Moments, biot_savart, profile_vorticity
    from vortexlab.solver import SolverConfig, simulate
    from vortexlab.spectral import leray_decompose, lp_norm, make_grid

    grid = make_grid(32, 50.0)
    params = FluidParams()
    cfg = SolverConfig(grid=grid, params=params, T=2.0, snapshot_times=(1.0, 2.0))
    moments = Moments(0.0, (0.0, 0.0))

    def residual_norms(t, X):
        perp, _ = leray_decompose(grid.band.scatter(X[1:]), grid)
        uref = biot_savart(profile_vorticity(moments, t, params, grid), grid)
        diff = (perp[0] - uref[0], perp[1] - uref[1])
        return lp_norm(diff, grid, 2), lp_norm(diff, grid, np.inf)

    traj = simulate(zero_state(grid), cfg, residual_norms)
    assert traj.values == ((0.0, 0.0), (0.0, 0.0))


def test_linear_control_vanishes_at_a_reference_density_of_three():
    # X(0) is the band of the run's own data, not the solver's reduced-variable round trip
    # (x / rho_star) * rho_star, so the linear control at rho_star = 3 reads rounding only
    result = run_experiment("nonlinear-smallness", RunManifest(n=64, L=50.0, rho_star=3.0))
    (control,) = (r for r in result.reports if r.label == "linear-control")
    assert 0.0 <= control.fitted < 1e-15


def _stub_solvers(monkeypatch, abort_call, data_alive=None):
    """Stand-ins for both solvers: every run measures the band of its initial data at
    each snapshot time after t = 0, except run number `abort_call`, which raises
    SolverAbort.  After the gather, `simulate` drops its initial stack and appends to
    `data_alive` (if given) whether anything else still holds it."""
    from vortexlab.solver import SolverAbort, Trajectory

    calls = []

    def run(band_coeffs, snapshot_times, measure):
        calls.append(snapshot_times)
        if len(calls) - 1 == abort_call:
            raise SolverAbort("stub abort")
        return (0.0, *snapshot_times), tuple(measure(t, band_coeffs) for t in snapshot_times)

    def simulate(X0, cfg, measure):
        band_coeffs = cfg.grid.band.gather(X0)
        data = weakref.ref(X0)
        del X0
        if data_alive is not None:
            data_alive.append(data() is not None)
        times, values = run(band_coeffs, cfg.snapshot_times, measure)
        return Trajectory(times, values, ({},) * len(times))

    def vorticity_simulate(omega0, grid, nu, snapshot_times, dt, measure):
        return Trajectory(*run(grid.band.gather(omega0), snapshot_times, measure))

    monkeypatch.setattr(harness, "simulate", simulate)
    monkeypatch.setattr(harness, "vorticity_simulate", vorticity_simulate)


@pytest.mark.parametrize(
    "experiment, n, L, abort_call, message",
    [
        ("sound-decay", 128, 100.0, 0, "sound-decay run aborted"),
        ("nonlinear-smallness", 128, 100.0, 0, "nonlinear-smallness eps=0.001 run aborted"),
        ("nonlinear-smallness", 128, 100.0, 3, "nonlinear-smallness linear-control run aborted"),
        # no box at n = 128 keeps either experiment's dipole data localized up to its
        # (last) moment probe
        ("incompressible-limit", 256, 200.0, 0, "incompressible-limit dipole-data run aborted"),
        ("incompressible-limit", 256, 200.0, 1, "incompressible-limit vortex-data run aborted"),
        ("vorticity-profiles", 256, 200.0, 0, "vorticity-profiles vortex L=200 run aborted"),
        ("vorticity-profiles", 256, 200.0, 1, "vorticity-profiles vortex L=100 run aborted"),
        ("vorticity-profiles", 256, 200.0, 2, "vorticity-profiles dipole-data run aborted"),
    ],
    ids=["sound", "nonlinear", "linear-control", "dipole-data", "vortex-data",
         "vorticity-full-box", "vorticity-half-box", "vorticity-dipole"],
)
def test_aborted_solver_run_raises(monkeypatch, experiment, n, L, abort_call, message):
    # no solver run reaches a fit once it has aborted, the linear control included
    _stub_solvers(monkeypatch, abort_call)
    ctx = RunManifest(n=n, L=L)
    with pytest.raises(HarnessError, match=f"^{message}: stub abort$"):
        run_experiment(experiment, ctx)


def test_incompressible_limit_frees_the_dipole_run_before_the_vortex_run(monkeypatch):
    # the dipole-data trajectory and measure live only inside the helper that runs
    # them, so both are gone before the vortex-data run starts
    _stub_solvers(monkeypatch, None)
    run, refs, alive = harness.simulate, [], []

    def simulate(X0, cfg, measure):
        alive.append([ref() is not None for ref in refs])
        traj = run(X0, cfg, measure)
        refs.extend((weakref.ref(traj), weakref.ref(measure)))
        return traj

    monkeypatch.setattr(harness, "simulate", simulate)
    run_experiment("incompressible-limit", RunManifest(n=256, L=200.0))
    assert alive == [[], [False, False]]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 a caller's stack holds call arguments")
@pytest.mark.parametrize("experiment", ["sound-decay", "nonlinear-smallness",
                                        "incompressible-limit"])
def test_compressible_runs_hand_their_initial_data_to_the_solver(monkeypatch, experiment):
    # the harness keeps no reference to a run's initial stack, so the solver frees it
    # once it has gathered its band
    data_alive = []
    _stub_solvers(monkeypatch, None, data_alive)
    # incompressible-limit's dipole data stays localized up to its moment probe only at
    # n >= 256 (`_check_dipole_data`)
    n, L = (256, 200.0) if experiment == "incompressible-limit" else (128, 100.0)
    run_experiment(experiment, RunManifest(n=n, L=L))
    runs = {"sound-decay": 1, "nonlinear-smallness": 4, "incompressible-limit": 2}
    assert data_alive == [False] * runs[experiment]


def test_sound_decay_aborted_mid_run_measures_only_the_snapshots_before(monkeypatch):
    # a vacuum met on the way to the third snapshot: the run is measured at the two
    # snapshots before (t = 0 is checked, not measured), and run_experiment raises
    # HarnessError
    from vortexlab import solver

    ctx = RunManifest(n=64, L=50.0)
    times, measured = harness._snapshot_times(RECORDS["sound-decay"].horizon(ctx)), []
    simulate, guard = harness.simulate, solver._guard_vacuum

    def recording(X0, cfg, measure):
        return simulate(X0, cfg, lambda t, X: measured.append(t) or measure(t, X))

    def trip_at_the_third_snapshot(one):
        if len(measured) == 2:
            raise solver.VacuumError(0.25)
        return guard(one)

    monkeypatch.setattr(harness, "simulate", recording)
    monkeypatch.setattr(solver, "_guard_vacuum", trip_at_the_third_snapshot)
    message = r"^sound-decay run aborted: vacuum guard tripped: min\(1 \+ rho_tilde\) = 0\.2500"
    with pytest.raises(HarnessError, match=message):
        run_experiment("sound-decay", ctx)
    assert measured == [times[0], times[1]]


def test_non_finite_vorticity_run_raises():
    # at this amplitude the dipole run overflows by its first snapshot; it used to
    # reach its fits, and moment-conservation passed on a NaN field (max(0, nan) = 0)
    with pytest.raises(HarnessError, match="^vorticity-profiles dipole-data run aborted: "
                                           "non-finite state: vorticity at t = 1$"):
        run_experiment("vorticity-profiles", RunManifest(epsilon=1e6))


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
