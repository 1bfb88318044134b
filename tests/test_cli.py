import dataclasses
import json
import re
from pathlib import Path

import pytest

from vortexlab import harness
from vortexlab.cli import ConfigError, RunManifest, _config_values, main, run
from vortexlab.harness import EXPERIMENTS, summary_dict


def _manifest(text: str) -> RunManifest:
    """The manifest `main` runs for config text, its prechecks passed."""
    return RunManifest(**_config_values(text)).context()


def _stub_record(monkeypatch, run_fn, checks=()):
    """Register a record named "stub" with the given run function and checks."""
    monkeypatch.setitem(harness.RECORDS, "stub", harness.Experiment("stub", run_fn, checks=checks))
    monkeypatch.setitem(harness.EXPERIMENTS, "stub", run_fn)


def _never_run(ctx):
    raise AssertionError("an experiment ran although validation should have failed")


def test_parse_empty_config_gives_defaults():
    m = _manifest("")
    assert m == RunManifest()
    assert m.n == 256 and m.L == 200.0
    assert m.mu == 1.0 and m.lam == 0.0 and m.rho_star == 1.0
    assert m.gamma == 1.4 and m.epsilon == 1e-2
    assert m.dt is None and m.T == 30.0
    assert m.experiments == tuple(EXPERIMENTS)


def test_parse_config_values_and_comments():
    text = """
    # grid
    n = 128
    L = 100.0
    lambda = 0.5   # bulk viscosity
    epsilon = 3e-3
    experiments = kernel-algebra, pointwise-bound
    """
    m = _manifest(text)
    assert m.n == 128 and m.L == 100.0
    assert m.lam == 0.5
    assert m.epsilon == 3e-3
    assert m.experiments == ("kernel-algebra", "pointwise-bound")
    with pytest.raises(ConfigError, match="threads"):
        _manifest("threads = 2\n")


def test_readme_example_config_parses():
    # the untagged fenced block of README.md is its example config file
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", readme, flags=re.M | re.S)
    (block,) = [text for lang, text in blocks if not lang]
    assert "experiments =" in block
    assert _manifest(block) == RunManifest()


def test_parse_config_names_the_key_as_written():
    with pytest.raises(ConfigError, match="^L: expected a number, got 'x'$"):
        _manifest("L = x\n")
    with pytest.raises(ConfigError, match="^T: expected a number"):
        _manifest("T = y\n")
    with pytest.raises(ConfigError, match="^Seed: expected an integer"):
        _manifest("Seed = 1.5\n")
    assert _manifest("LAMBDA = 0.5\nexperiments = kernel-algebra\n").lam == 0.5


def test_parse_config_rejects_bad_ellipticity():
    with pytest.raises(ConfigError, match="lambda"):
        _manifest("lambda = -3\nmu = 1\n")


def test_parse_config_rejects_bad_grid():
    with pytest.raises(ConfigError, match="n"):
        _manifest("n = 100\n")


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="viscosityy"):
        _manifest("viscosityy = 2\n")


def test_parse_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="experiments"):
        _manifest("experiments = not-an-experiment\n")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        _manifest("just some words\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ("n = 32\nL = 50\ndt = 10\nexperiments = sound-decay\n", "dt"),
        # valid on the full box (bound 0.39), not on the half box (0.195)
        ("dt = 0.3\nexperiments = kernel-algebra, incompressible-limit\n", "dt"),
        ("T = inf\n", "T"),
        ("mu = nan\n", "mu"),
        ("epsilon = -inf\n", "epsilon"),
        # eps = 0 used to end in ZeroDivisionError inside vorticity-profiles (exit 1)
        ("epsilon = 0\nexperiments = vorticity-profiles\n", "epsilon"),
        # (0.1 eps)^4 underflows: sound-decay used to run, then fail its rate fit
        ("epsilon = 1e-300\nexperiments = sound-decay\n", "epsilon"),
        # largest |eta| = sqrt(2) pi 64/200 = 1.42 lies inside the cutoff radius 2
        ("n = 64\nL = 200\nexperiments = kernel-rates\n", "n/L"),
    ],
    ids=["dt-full-box", "dt-half-box", "T-inf", "mu-nan", "epsilon-minus-inf", "epsilon-zero",
         "epsilon-underflow", "hf-band-empty"],
)
def test_invalid_config_exits_2_before_any_output(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = main(["--config", str(cfg), "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {key}:" in err
    assert not (tmp_path / "out" / "reports.csv").exists()


def test_library_error_in_an_experiment_exits_2(tmp_path, capsys, monkeypatch):
    # the acoustic ring of pointwise-bound leaves a box this small at once; with
    # the record's ring check taken away, the experiment's own KernelError is the
    # backstop, and the experiment that ran before it leaves no partial output
    record = harness.RECORDS["pointwise-bound"]
    monkeypatch.setitem(harness.RECORDS, "pointwise-bound", dataclasses.replace(record, checks=()))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n = 64\nL = 50\nexperiments = kernel-algebra, pointwise-bound\n")
    code = main(["--config", str(cfg), "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: n/L: pointwise-bound cannot run at n = 64, L = 50: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "reports.csv").exists()
    # the output directory the write probe created is gone again
    assert not (tmp_path / "out").exists()


def test_aborted_run_removes_every_directory_the_probe_made(tmp_path, capsys, monkeypatch):
    # a nested output directory: the write probe makes new/, new/a/ and new/a/b/, and a run
    # that stops before its outputs removes all three (it used to leave new/ and new/a/)
    def aborted(ctx):
        raise harness.HarnessError("vorticity-profiles dipole-data run aborted: stub abort")

    monkeypatch.setitem(harness.EXPERIMENTS, "vorticity-profiles", aborted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiments = vorticity-profiles\n")
    code = main(["--config", str(cfg), "--outdir", str(tmp_path / "new" / "a" / "b")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: vorticity-profiles dipole-data run aborted: stub abort" in err
    assert not (tmp_path / "new").exists()


def test_non_finite_vorticity_run_exits_2(tmp_path, capsys):
    # the dipole run overflows by its first snapshot: it used to reach its fits and
    # exit 1, with moment-conservation passing on a NaN field (max(0, nan) = 0)
    cfg = tmp_path / "loud.cfg"
    cfg.write_text("epsilon = 1e6\nexperiments = vorticity-profiles\n")
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: vorticity-profiles dipole-data run aborted: "
        "non-finite state: vorticity at t = 1\n"
    )
    assert "moment-conservation" not in captured.out
    assert not outdir.exists()


def test_pointwise_ring_outside_the_box_exits_2_before_compute(tmp_path, capsys, monkeypatch):
    # half box L = 25: the default ring c t + 3 sqrt(mu_par t) reaches 20 > 12.5 at t = 8
    monkeypatch.setitem(harness.EXPERIMENTS, "pointwise-bound", _never_run)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n = 64\nL = 50\nexperiments = pointwise-bound\n")
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: n/L: pointwise-bound (default) needs its acoustic ring")
    assert not outdir.exists()


def test_unresolved_pointwise_kernel_exits_2_before_compute(tmp_path, capsys, monkeypatch):
    # half box L = 100 at n = 128: the Nyquist heat factor exp(-mu_par (pi n/L)^2 t/2)
    # at the first sampled time is 9.5e-8 (default) and 3.1e-4 (resolved-ring), far
    # above the fit's 1e-13 floor, while the acoustic rings stay inside the box
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "pointwise-bound", calls.append)
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("n = 128\nexperiments = pointwise-bound\n")
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: n/L: pointwise-bound (default) needs exp(")
    assert not outdir.exists()
    assert calls == []


def test_dt_bound_follows_the_selected_experiments(tmp_path, capsys):
    assert _manifest("dt = 0.3\nexperiments = sound-decay\n").dt == 0.3
    # the command-line filter decides which boxes the bound covers
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("n = 32\nL = 50\ndt = 10\n")
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir), "--experiments", "kernel-algebra"])
    capsys.readouterr()
    assert code == 0


def test_list_experiments_flag(capsys):
    assert main(["--list-experiments"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out == list(EXPERIMENTS)


def test_run_writes_reports_and_exits_zero(tmp_path, capsys):
    manifest = RunManifest(n=128, L=100.0, experiments=("kernel-algebra",))
    code = run(manifest, tmp_path / "out")
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS kernel-algebra/semigroup-spar" in out
    reports = (tmp_path / "out" / "reports.csv").read_text()
    assert reports.startswith("# vortexlab reports v1")
    assert (tmp_path / "out" / "summary.json").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert "threads" not in summary["context"]


def test_kernel_rates_csv_has_enough_rows(tmp_path, capsys):
    manifest = RunManifest(experiments=("kernel-rates",))
    run(manifest, tmp_path / "out")
    capsys.readouterr()
    lines = (tmp_path / "out" / "reports.csv").read_text().strip().split("\n")
    assert len(lines) - 2 >= 10  # version + header + rows
    series = list((tmp_path / "out" / "series").glob("kernel-rates__*.csv"))
    assert len(series) >= 10


def test_unwritable_outdir_fails_without_partial_files(tmp_path, capsys):
    # a regular file where the output directory should go: mkdir must fail
    # before any experiment runs, so nothing is written anywhere
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(
        ["--outdir", str(blocker / "out"), "--experiments", "kernel-algebra"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "not writable" in err
    assert not (blocker / "out").exists()


def test_failing_report_gives_nonzero_exit(tmp_path, capsys, monkeypatch):
    def failing_experiment(ctx):
        result = harness.ExperimentResult("stub")
        result.add("always-fails", 0.0, 1.0, 0.1)
        return result

    _stub_record(monkeypatch, failing_experiment)
    manifest = RunManifest(experiments=("stub",))
    code = run(manifest, tmp_path / "out")
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL stub/always-fails" in out
    reports = (tmp_path / "out" / "reports.csv").read_text()
    assert reports.strip().endswith("false")


def test_prechecks_run_before_any_experiment(tmp_path, capsys, monkeypatch):
    # the stub's check fails after kernel-algebra was selected: neither runs
    def reject(record, ctx):
        raise harness.ConfigError(f"seed: {record.name} rejects seed {ctx.seed}")

    _stub_record(monkeypatch, _never_run, checks=(reject,))
    monkeypatch.setitem(harness.EXPERIMENTS, "kernel-algebra", _never_run)
    outdir = tmp_path / "out"
    code = main(["--outdir", str(outdir), "--experiments", "kernel-algebra,stub"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: seed: stub rejects seed 0")
    assert not outdir.exists()


def test_sound_decay_horizon_beyond_its_fit_window_exits_2_before_compute(
    tmp_path, capsys, monkeypatch
):
    # 14 geometric snapshots on [1, T] leave 5 in the fit window [T/4, T] at T = 40
    monkeypatch.setitem(harness.EXPERIMENTS, "sound-decay", _never_run)
    cfg = tmp_path / "long.cfg"
    cfg.write_text("T = 40\nexperiments = sound-decay\n")
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: T:")
    assert not outdir.exists()
    assert _manifest("T = 36\nexperiments = sound-decay\n").T == 36.0


def test_decay_horizon_beyond_its_window_exits_2_before_compute(tmp_path, capsys, monkeypatch):
    # 12 geometric snapshots on [1, 2400] leave 1 in the decay window [1200, 2400]: the run
    # passed every other precheck and its dipole-residual-monotone row passed on one sample
    monkeypatch.setitem(harness.EXPERIMENTS, "vorticity-profiles", _never_run)
    cfg = tmp_path / "window.cfg"
    cfg.write_text("n = 1024\nL = 800\nT = 2400\nexperiments = vorticity-profiles\n")
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: T: vorticity-profiles needs a horizon h <= 2048")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "text, run, start",
    [
        # snapshots on [1, h]: T = 0.5 gives h = 0.5; kernel-algebra, selected first, does not run
        ("T = 0.5\nexperiments = kernel-algebra, sound-decay\n", "sound-decay",
         "error: T: sound-decay takes snapshots on [1, h]"),
        # T = 30 is capped by the acoustic ring on L = 8: h = 0.53
        ("n = 64\nL = 8\nexperiments = sound-decay\n", "sound-decay",
         "error: n/L: sound-decay takes snapshots on [1, h]"),
        # the dipole data's edge/peak vorticity on the half box L = 100 is 1.5e-4 > 1e-10
        ("n = 128\nexperiments = incompressible-limit\n", "incompressible-limit",
         "error: n/L: incompressible-limit initial data on its box (n = 128, L = 100): vorticity"),
        # the dipole run to t = 300 on the half box used to FAIL its decay rows (exit 1)
        ("T = 300\nexperiments = vorticity-profiles\n", "vorticity-profiles",
         "error: T: vorticity-profiles needs a dipole horizon h <= (L/8)^2/nu - 1 = 155.2"),
        # the dipole data's band-edge tail on the half box L = 100 is 8.9e-7 > 1e-10 at
        # t = 1; the run used to stop there only after its vortex runs and its dipole run
        ("n = 128\nexperiments = vorticity-profiles\n", "vorticity-profiles",
         "error: n/L: vorticity-profiles dipole data is not localized on its box (n = 128, "
         "L = 100): band-edge tail"),
    ],
    ids=["horizon-T", "horizon-n-L", "dipole-data-not-localized", "dipole-horizon-T",
         "vorticity-data-not-localized"],
)
def test_unusable_horizon_or_data_exits_2_before_compute(
    tmp_path, capsys, monkeypatch, text, run, start
):
    calls = []
    for name in ("kernel-algebra", run):
        monkeypatch.setitem(harness.EXPERIMENTS, name, calls.append)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(start)
    assert not outdir.exists()
    assert calls == []


def test_negative_seed_exits_2_before_compute(tmp_path, capsys, monkeypatch):
    # kernel-algebra seeds numpy's generator, which raised a ValueError on -1
    monkeypatch.setitem(harness.EXPERIMENTS, "kernel-algebra", _never_run)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\nexperiments = kernel-algebra\n")
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: seed:")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "text, flag",
    [("experiments =\n", []), ("n = 64\n", ["--experiments", ","]),
     ("n = 64\n", ["--experiments", ""])],
    ids=["config", "flag", "flag-empty"],
)
def test_empty_experiment_list_exits_2_before_any_output(tmp_path, capsys, text, flag):
    # a list that names no experiment used to print "ALL PASS: 0/0", write outputs and exit 0
    cfg = tmp_path / "none.cfg"
    cfg.write_text(text)
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir), *flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: experiments:")
    assert captured.out == ""
    assert not outdir.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("n = 64\nexperiments = kernel-algebra\nn = 128\n",
         "n: set twice, as 'n' on line 1 and as 'n' on line 3"),
        # both spellings set the bulk viscosity
        ("lambda = 1\nlam = 2\nexperiments = kernel-algebra\n",
         "lam: set twice, as 'lambda' on line 1 and as 'lam' on line 2"),
    ],
    ids=["n", "lambda-lam"],
)
def test_repeated_config_key_exits_2_before_compute(tmp_path, capsys, monkeypatch, text, message):
    # the later line used to override the earlier one silently
    monkeypatch.setitem(harness.EXPERIMENTS, "kernel-algebra", _never_run)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
    assert not outdir.exists()
    with pytest.raises(ConfigError, match=f"^{message}$"):
        _config_values(text)


def test_summary_context_records_the_pressure_law():
    base = summary_dict([], RunManifest(experiments=("kernel-algebra",)).context())["context"]
    stiff = RunManifest(experiments=("kernel-algebra",), gamma=2.0, pressure_scale=3.0).context()
    stiff = summary_dict([], stiff)["context"]
    assert (base["gamma"], base["pressure_scale"]) == (1.4, 1.0)
    assert (stiff["gamma"], stiff["pressure_scale"]) == (2.0, 3.0)
    # every config key but the experiment list, which the summary lists with results
    keys = {f.name for f in dataclasses.fields(RunManifest)} - {"experiments"}
    assert set(base) == set(stiff) == keys


def test_cli_determinism_byte_identical(tmp_path, capsys):
    manifest_text = "n = 128\nL = 100\nexperiments = kernel-algebra\n"
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(manifest_text)
    for sub in ("a", "b"):
        code = main(["--config", str(cfg), "--outdir", str(tmp_path / sub)])
        assert code == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "reports.csv").read_bytes()
    b = (tmp_path / "b" / "reports.csv").read_bytes()
    assert a == b
    sa = (tmp_path / "a" / "summary.json").read_bytes()
    sb = (tmp_path / "b" / "summary.json").read_bytes()
    assert sa == sb
