"""Command-line experiment runner: parse config, run experiments, write reports.

Config files are plain ``key = value`` text (``#`` comments allowed).  Each
key sets one field of ``harness.RunManifest``, the run's one configuration, once
(``lambda`` and ``lam`` name one field; a repeat exits 2 naming both lines):

    experiments   comma-separated experiment names (default: all; none, or one
                  named twice, exits 2)
    n, L          grid resolution (power of two) and box size
    mu, lambda    shear and bulk viscosity (lambda + 2 mu > 0)
    rho_star      reference density
    gamma, pressure_scale
                  isentropic pressure law P(rho) = pressure_scale rho^gamma / gamma
    epsilon       initial-data amplitude for solver experiments
    dt            time step of the compressible runs (default: acoustic CFL
                  bound; a larger value is rejected on the box of each selected
                  compressible experiment); vorticity-profiles always steps at 0.25
    T             experiment horizon
    seed          seed for randomized checks

Outputs: ``reports.csv`` (one row per report), ``summary.json`` and one
``series/<experiment>__<label>.csv`` per measured series.  Exit status is 0
exactly when every report passes; an invalid config (a value the manifest
rejects when it is built, or one a selected experiment's precheck rejects)
exits 2, naming the key, before any output is written.  So does a box an
experiment cannot run on (its data or acoustic ring leaves the box, or
pointwise-bound's kernel is unresolved): exit 2 naming ``n/L``, no outputs.
Each experiment runs through ``harness.run_experiment``, so a solver run that
leaves its regime exits 2 with the run's abort reason, and writes no outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .harness import (
    ConfigError,
    HarnessError,
    RunManifest,
    list_experiments,
    reports_to_csv,
    run_experiment,
    series_to_csv,
    summary_dict,
)


# config key, in any case -> manifest field; "lambda" names the bulk viscosity
_KEYS = {f.name.lower(): f.name for f in fields(RunManifest)} | {"lambda": "lam"}
# the manifest fields annotated int (n and seed); the other numbers are floats
_INTEGERS = {f.name for f in fields(RunManifest) if f.type == "int"}


def _config_values(text: str) -> dict:
    """Manifest fields set by key=value config text; ConfigError if one is set twice."""
    values: dict = {}
    first: dict = {}  # manifest field -> where the text set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        name = _KEYS.get(key.lower())
        if name is None:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if name in first:
            raise ConfigError(f"{key}: set twice, {first[name]} and as {key!r} on line {lineno}")
        first[name] = f"as {key!r} on line {lineno}"
        if name == "experiments":
            values[name] = _experiment_names(value)
            continue
        kind, noun = (int, "an integer") if name in _INTEGERS else (float, "a number")
        try:
            values[name] = kind(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {noun}, got {value!r}") from None
    return values


def _experiment_names(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _probe_writable(outdir: Path):
    """ConfigError unless `outdir` can be made and written; every directory made for the
    probe is removed again, deepest first, so a run that stops before its outputs leaves
    none."""
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write-probe"
        probe.write_text("")
        probe.unlink()
        for d in created:
            d.rmdir()
    except OSError as err:
        raise ConfigError(f"output directory {outdir} is not writable: {err}") from None


def run(manifest: RunManifest, outdir) -> int:
    """Execute the manifest's experiments and write reports; 0 iff all pass."""
    out = Path(outdir)
    manifest.context()
    _probe_writable(out)
    results = []
    all_reports = []
    for name in manifest.experiments:
        result = run_experiment(name, manifest)
        results.append(result)
        for rep in result.reports:
            all_reports.append(rep)
            status = "PASS" if rep.passed else "FAIL"
            print(
                f"{status} {rep.experiment}/{rep.label}: "
                f"fitted={rep.fitted:.6g} predicted={rep.predicted:.6g} "
                f"tol={rep.tolerance:g} mode={rep.mode}"
            )
    # nothing is written before every experiment ran
    out.mkdir(parents=True, exist_ok=True)
    (out / "reports.csv").write_text(reports_to_csv(all_reports))
    summary = summary_dict(results, manifest)
    # strict JSON: summary_dict writes each non-finite value as its reports.csv string
    text = json.dumps(summary, indent=1, sort_keys=True, allow_nan=False)
    (out / "summary.json").write_text(text)
    series_dir = out / "series"
    series_dir.mkdir(exist_ok=True)
    for result in results:
        for label, (t, values) in result.series.items():
            safe = label.replace("/", "-")
            (series_dir / f"{result.name}__{safe}.csv").write_text(series_to_csv(t, values))
    passed = all(rep.passed for rep in all_reports)
    print(f"{'ALL PASS' if passed else 'FAILURES'}: {sum(r.passed for r in all_reports)}"
          f"/{len(all_reports)} reports passed")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Run decay-rate and profile-convergence experiments.",
    )
    parser.add_argument("--config", type=Path, help="path to a key=value config file")
    parser.add_argument(
        "--outdir", type=Path, default=Path("vortexlab-out"), help="output directory"
    )
    parser.add_argument(
        "--experiments",
        help="comma-separated experiment filter (overrides the config)",
    )
    parser.add_argument(
        "--list-experiments", action="store_true", help="print experiment names and exit"
    )
    args = parser.parse_args(argv)

    if args.list_experiments:
        for name in list_experiments():
            print(name)
        return 0

    try:
        values = {}
        if args.config is not None:
            values = _config_values(Path(args.config).read_text())
        if args.experiments is not None:
            values["experiments"] = _experiment_names(args.experiments)
        return run(RunManifest(**values), args.outdir)
    except (ConfigError, HarnessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
