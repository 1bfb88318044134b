"""vortexlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload etd-solver --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each repetition is a fresh process running the workload's experiments through
`vortexlab.cli.run` (see worker.py).  With `--trace 0` it prints the
end-to-end metrics of BENCHMARK.json; with `--trace 1` one more repetition
runs with spans at the layer boundaries (see tracing.py), followed by layer
probes, and it prints the per-layer metrics.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  Why the workloads
and metrics are what they are is in README.md beside this file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = {
    "etd-solver": {"experiments": ("sound-decay", "nonlinear-smallness"), "n": 256},
    "kernel-lab": {
        "experiments": ("kernel-algebra", "kernel-rates", "pointwise-bound"),
        "n": 512,
    },
    "vorticity-control": {"experiments": ("vorticity-profiles",), "n": 256},
}
EXPERIMENTS = tuple(e for w in WORKLOADS.values() for e in w["experiments"])
PROBE_SIZES = (128, 256, 512)
PROBES = (
    "spectral.transform",
    "spectral.leray",
    "kernels.s_build",
    "kernels.apply",
    "solver.step_etd2",
    "solver.step_etd4",
)
# ROADMAP item-1 baseline at n=256 (2-core sandbox, numpy 2.4.6), printed
# beside the n=256 probe column of a traced run:
# (what, baseline ms, probe, probe calls per baseline item).
BASELINE_N256 = (
    ("complex fft2/ifft2", "1.0-1.4", "spectral.transform", 1),
    ("KernelSymbol.apply", "1.7", "kernels.apply", 1),
    ("ETD2 step", "41.7", "solver.step_etd2", 1),
    ("_tables cold, etd2 (builds s, phi1, phi2)", "130", "kernels.s_build", 3),
)
# Set-up-only processes started before the first repetition and after each
# one, so set-up is sampled across the whole run, not in one burst.
SETUP_BATCH = 3
# Set-up and run time follow the host's speed, which drifts by a third within
# minutes on a shared host. Each set-up-only process is therefore followed by
# a baseline process (interpreter and numpy import only): set-up is reported
# as the median ratio of the pairs, and wall time divided by the run's median
# baseline, both times this constant, the baseline's median on the reference
# host (README.md). The unit stays seconds and drift cancels. Raw samples are
# printed and kept in result.json.
BASELINE_REF_S = 0.13
MIN_REPS = 2  # the second repetition is compared byte for byte with the first
DEADLINE_S = 170.0
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
OUTPUTS = ("reports.csv", "summary.json")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# statistics


def percentile(sorted_xs, q: float):
    """Nearest-rank q-th percentile of an ascending list."""
    rank = max(1, -(-len(sorted_xs) * q // 100))
    return sorted_xs[int(rank) - 1]


def summarize(samples) -> dict:
    """Median, sample count, and the highest of p99/p95/p90/p75 with >= 10 samples beyond it."""
    xs = sorted(samples)
    out = {"n": len(xs), "median": statistics.median(xs)}
    for q in (99, 95, 90, 75):
        if len(xs) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = percentile(xs, q)
            break
    return out


def describe(summary: dict, fmt: str = ".6g") -> str:
    tail = [f", {k}={v:{fmt}}" for k, v in summary.items() if k.startswith("p")]
    return f"median of {summary['n']}" + (tail[0] if tail else ", fewer than 10 beyond p75")


# ---------------------------------------------------------------------------
# output checks


def read_reports(path: Path) -> list[dict]:
    """Rows of a reports.csv (its first line is a version header)."""
    lines = path.read_text().splitlines()
    return list(csv.DictReader(lines[1:]))


def load_reference(name: str) -> tuple[list[dict], dict]:
    """The workload's reference reports and the tolerance its fitted values are held to."""
    reference = read_reports(BENCH_DIR / "reference" / f"{name}.csv")
    tolerance = json.loads((BENCH_DIR / "reference" / "tolerance.json").read_text())
    return reference, tolerance


def check_reports(rows, reference, tolerance) -> list[str]:
    """One problem per report that failed, is missing, or left the reference."""
    by_label = {row["experiment"]: row for row in rows}
    extra = by_label.keys() - {ref["experiment"] for ref in reference}
    problems = [f"{label}: not in the reference" for label in sorted(extra)]
    for ref in reference:
        label = ref["experiment"]
        row = by_label.get(label)
        if row is None:
            problems.append(f"{label}: missing")
        elif row["pass"] != "true":
            problems.append(f"{label}: FAIL (fitted {row['fitted']})")
        elif (row["predicted"], row["tolerance"]) != (ref["predicted"], ref["tolerance"]):
            problems.append(f"{label}: predicted/tolerance changed")
        else:
            fitted, expected = float(row["fitted"]), float(ref["fitted"])
            atol = tolerance["seeded_atol"].get(label, tolerance["atol"])
            if not abs(fitted - expected) <= tolerance["rtol"] * abs(expected) + atol:
                problems.append(f"{label}: fitted {fitted!r} left the reference {expected!r}")
    return problems


def output_digest(outdir: Path) -> str:
    """Hash of the deterministic outputs: reports.csv, summary.json and series/."""
    h = hashlib.sha256()
    files = [outdir / name for name in OUTPUTS] + sorted((outdir / "series").glob("*"))
    for path in files:
        h.update(str(path.relative_to(outdir)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def score(reps, reference, tolerance) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the reference reports of every repetition.

    A repetition that raised counts all its reports as failed, and so does one
    whose output bytes differ from the first repetition that produced outputs.
    """
    attempted = failed = 0
    problems: list[str] = []
    first = None
    for i, rep in enumerate(reps):
        attempted += len(reference)
        if rep["error"] is not None:
            failed += len(reference)
            problems.append(f"repetition {i} raised {rep['error']}")
            continue
        outdir = Path(rep["outdir"])
        rep_problems = check_reports(read_reports(outdir / "reports.csv"), reference, tolerance)
        digest = output_digest(outdir)
        first = first or digest
        if digest != first:
            rep_problems.append("outputs differ from the first repetition's")
            failed += len(reference)
        else:
            failed += min(len(rep_problems), len(reference))
        problems += [f"repetition {i}: {p}" for p in rep_problems]
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn(mode: str, result: Path, deadline: float, *args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} process")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode]
    cmd += ["--spawned-at", repr(spawned_at), "--result", str(result), *args]
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip()[-2000:]
        raise BenchError(f"{mode} process exited with {proc.returncode}: {tail}")
    return json.loads(result.read_text())


def environment(seed: int, numpy_version: str) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    models = [
        line.split(":", 1)[1].strip()
        for line in read("/proc/cpuinfo").splitlines()
        if line.startswith("model name")
    ]
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": models[0] if models else platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "l2_per_core": read(cache.format(2)),
        "l3": read(cache.format(3)),
        "thread_cap": THREAD_CAP,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the run


def run_dir(name: str, trace: bool) -> Path:
    return OUT / (f"{name}-trace" if trace else name)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    out = run_dir(name, trace)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    common = ["--experiments", ",".join(workload["experiments"])]
    common += ["--n", str(workload["n"]), "--seed", str(seed)]

    setups = []
    baselines = []

    def sample_setup():
        for _ in range(SETUP_BATCH):
            i = len(baselines)
            setup = spawn("setup", out / f"setup{i}.json", deadline, *common)["setup_s"]
            baseline = spawn("baseline", out / f"baseline{i}.json", deadline)["setup_s"]
            setups.append(setup)
            baselines.append(baseline)

    def repetition(tag: str, *extra: str) -> dict:
        outdir = str(out / tag)
        rep = spawn("rep", out / f"{tag}.json", deadline, *common, "--outdir", outdir, *extra)
        return {**rep, "outdir": outdir}

    sample_setup()
    reps = []
    start = time.monotonic()
    min_reps = 1 if trace else MIN_REPS
    while len(reps) < min_reps or (
        time.monotonic() - start + max(r["wall_s"] for r in reps) <= seconds
    ):
        reps.append(repetition(f"rep{len(reps)}"))
        sample_setup()
    speed = BASELINE_REF_S / statistics.median(baselines)
    untraced = list(reps)

    traced = None
    if trace:
        spans = out / "spans.json"
        reps.append(repetition("traced", "--spans", str(spans)))
        traced = {"trace": json.loads(spans.read_text()), "probes_ms": {}}
        for n in PROBE_SIZES:
            probe_args = ("--n", str(n), "--seed", str(seed))
            result = spawn("probe", out / f"probe{n}.json", deadline, *probe_args)
            traced["probes_ms"][n] = result["probes_ms"]

    attempted, failed, problems = score(reps, *load_reference(name))
    return {
        "workload": name,
        "env": environment(seed, untraced[0]["numpy"]),
        "setup_s": summarize([BASELINE_REF_S * s / b for s, b in zip(setups, baselines)]),
        "setup_raw_s": summarize(setups),
        "baseline_s": summarize(baselines),
        "wall_s": summarize([r["wall_s"] * speed for r in untraced]),
        "wall_raw_s": summarize([r["wall_s"] for r in untraced]),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in untraced]),
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "traced": traced,
    }


def end_to_end(run: dict) -> dict:
    return {
        "wall_s": run["wall_s"]["median"],
        "setup_s": run["setup_s"]["median"],
        "peak_rss_mb": run["peak_rss_mb"]["median"],
        "pass_ratio": 1.0 - run["failed"] / run["attempted"],
    }


def per_layer(run: dict) -> dict:
    traced = run["traced"]
    spans = [tuple(s) for s in traced["trace"]["spans"]]
    counters = traced["trace"]["counters"]
    times = tracing.self_times(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {}
    for layer in tracing.LAYERS + tuple(f"harness.{e}" for e in EXPERIMENTS):
        row = times.get(layer, empty)
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
        if layer == "cli.run" or layer.startswith("harness."):
            values[f"{layer}.s"] = row["total_s"]
    gaps = counters.get("solver.snapshot_gaps", 0)
    builds = counters.get("solver.symbol_builds", 0)
    values["solver.snapshot_gaps"] = gaps
    values["solver.symbol_builds"] = builds
    values["solver.builds_per_gap"] = builds / gaps if gaps else 0.0
    values["spectral.fft.bytes_computed"] = counters.get("spectral.fft.bytes_computed", 0)
    values["trace.overhead"] = values["cli.run.s"] / run["wall_raw_s"]["median"] - 1.0
    for n, probes in traced["probes_ms"].items():
        for probe in PROBES:
            values[f"probe.{probe}.n{n}_ms"] = statistics.median(probes[probe])
    return values


def print_report(run: dict, values: dict) -> None:
    print(f"workload {run['workload']}: {len(run['reps'])} repetitions")
    print("env " + json.dumps(run["env"], sort_keys=True))
    for key, unit in (
        ("wall_s", "s"),
        ("wall_raw_s", "s"),
        ("setup_s", "s"),
        ("setup_raw_s", "s"),
        ("baseline_s", "s"),
        ("peak_rss_mb", "MB"),
    ):
        print(f"{key} = {run[key]['median']:.6g} {unit} ({describe(run[key])})")
    print(f"fail_ratio = {run['failed']}/{run['attempted']} reports failed")
    for problem in run["problems"]:
        print(f"  {problem}")
    if run["traced"] is None:
        return
    probes = run["traced"]["probes_ms"]
    for probe in PROBES:
        cols = []
        for n in PROBE_SIZES:
            s = summarize(probes[n][probe])
            cols.append(f"n{n}={s['median']:.4g} ms ({describe(s, '.4g')})")
        print(f"probe {probe}: " + "  ".join(cols))
    print("n=256 probes beside the ROADMAP item-1 baseline:")
    for what, baseline, probe, calls in BASELINE_N256:
        ms = calls * statistics.median(probes[256][probe])
        print(f"  {what}: baseline {baseline} ms, {calls} x probe {probe} = {ms:.4g} ms")
    if values["kernels.build.calls"]:
        mean = values["kernels.build.self_s"] / values["kernels.build.calls"] * 1e3
        print(f"  traced kernels.build: {mean:.4g} ms per grid-symbol build of this workload")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "vortexlab" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)

    try:
        run = run_workload(args.workload, args.seed, args.seconds, trace)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    values = per_layer(run) if trace else end_to_end(run)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    print_report(run, values)
    record = {k: v for k, v in run.items() if k != "traced"}
    record["probes_ms"] = run["traced"]["probes_ms"] if trace else None
    record["metrics"] = metrics
    (run_dir(args.workload, trace) / "result.json").write_text(json.dumps(record, indent=1))
    line = {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"]}
    print(json.dumps({**line, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
