"""Tests of the benchmark's own code: python3 -m pytest perfbench/test_perfbench.py"""

import pytest

import run
import tracing
import worker


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
    ]
    times = tracing.self_times(spans)
    assert times["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert times["a"]["calls"] == 2
    assert times["a"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert times["b"]["self_s"] == 1.0


def test_tracer_records_parent_of_nested_calls():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: 7)
    outer = tracer.wrap("outer", lambda: inner() + 1)
    assert outer() == 8
    (outer_span, inner_span) = tracer.spans
    assert outer_span[0] == "outer" and outer_span[3] == -1
    assert inner_span[0] == "inner" and inner_span[3] == 0
    assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]


def test_summary_reports_a_percentile_with_its_sample_count():
    assert run.summarize(range(1, 101)) == {"n": 100, "median": 50.5, "p90": 90}
    assert run.summarize(range(1, 41)) == {"n": 40, "median": 20.5, "p75": 30}
    # fewer than ten samples beyond p75: the median and count only
    assert run.summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}


def _rep(path, reports, summary="{}"):
    path.mkdir()
    (path / "reports.csv").write_text(reports)
    (path / "summary.json").write_text(summary)
    (path / "series").mkdir()
    return {"error": None, "outdir": str(path)}


def test_matching_repetitions_pass(tmp_path):
    text = (run.BENCH_DIR / "reference" / "vorticity-control.csv").read_text()
    reps = [_rep(tmp_path / "a", text), _rep(tmp_path / "b", text)]
    assert run.score(reps, *run.load_reference("vorticity-control")) == (8, 0, [])


def test_reference_mismatch_is_detected(tmp_path):
    text = (run.BENCH_DIR / "reference" / "vorticity-control.csv").read_text()
    moved = text.replace("0.8188707448936435", "0.8188717448936435")
    assert moved != text
    attempted, failed, problems = run.score(
        [_rep(tmp_path / "a", moved)], *run.load_reference("vorticity-control")
    )
    assert (attempted, failed) == (4, 1)
    assert "dipole-residual-monotone" in problems[0]


def test_seeded_rows_are_held_to_their_own_allowance(tmp_path):
    text = (run.BENCH_DIR / "reference" / "kernel-lab.csv").read_text()
    reseeded = text.replace("6.632615765771846e-06", "5.302290232979993e-06")
    assert reseeded != text
    reps = [_rep(tmp_path / "a", reseeded)]
    assert run.score(reps, *run.load_reference("kernel-lab"))[1] == 0


def test_differing_output_bytes_fail_the_whole_repetition(tmp_path):
    text = (run.BENCH_DIR / "reference" / "vorticity-control.csv").read_text()
    reps = [_rep(tmp_path / "a", text), _rep(tmp_path / "b", text, summary='{"x": 1}')]
    attempted, failed, problems = run.score(reps, *run.load_reference("vorticity-control"))
    assert (attempted, failed) == (8, 4)
    assert "differ" in problems[0]


def test_fail_ratio_counts_every_report_when_an_experiment_raises(tmp_path, monkeypatch):
    worker.load_program()
    from vortexlab import harness

    def raises(ctx):
        raise harness.HarnessError("no result")

    monkeypatch.setitem(harness.EXPERIMENTS, "sound-decay", raises)
    manifest = worker.manifest(("sound-decay", "nonlinear-smallness"), 32, 0)
    rep = worker.run_rep(manifest, tmp_path / "out")
    assert rep["error"] == "HarnessError: no result"
    attempted, failed, problems = run.score(
        [{**rep, "outdir": str(tmp_path / "out")}], *run.load_reference("etd-solver")
    )
    assert attempted == failed == 6
    assert "HarnessError" in problems[0]
