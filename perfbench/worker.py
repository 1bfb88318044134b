"""One benchmark process: a repetition of a workload, a set-up sample, or layer probes.

Run by `run.py`, one fresh interpreter per call, so per-process caches (the
solver's table cache, the grid's cached properties) start cold every time:

    worker.py rep   --spawned-at T --result R --experiments A,B --n N --seed S --outdir D
                    [--spans F]
    worker.py setup --spawned-at T --result R --experiments A,B --n N --seed S
    worker.py baseline --spawned-at T --result R
    worker.py probe --spawned-at T --result R --n N --seed S

`--spawned-at` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start-up and all imports.
`baseline` stops after importing numpy: the part of set-up that is not the
program's, timed the same way.
The result is one JSON object written to R.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
L = 200.0
T = 30.0
PROBE_MIN_SAMPLES = 7
PROBE_MIN_SECONDS = 0.25
PROBE_MAX_SAMPLES = 200


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_program():
    """Import vortexlab from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "vortexlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import vortexlab

    if Path(vortexlab.__file__).resolve().parent != src / "vortexlab":
        raise SystemExit(f"perfbench: imported vortexlab from {vortexlab.__file__}, not {src}")
    return vortexlab


def manifest(experiments, n: int, seed: int):
    """A validated run manifest; validation is the last step of set-up."""
    from vortexlab.cli import RunManifest

    m = RunManifest(experiments=tuple(experiments), n=n, L=L, T=T, seed=seed)
    m.context()
    return m


def run_rep(m, outdir: Path, tracer=None) -> dict:
    """Run the manifest through `vortexlab.cli.run`; time it and record any exception."""
    from vortexlab.cli import run

    if tracer is not None:
        run = tracer.wrap("cli.run", run)
    error = None
    exit_code = None
    start = monotonic()
    try:
        exit_code = run(m, outdir)
    except Exception as err:  # the experiment's failure is scored, not fatal
        error = f"{type(err).__name__}: {err}"
    wall = monotonic() - start
    return {"wall_s": wall, "exit_code": exit_code, "error": error}


def _random_state(grid, rng, amplitude):
    """A smooth random real state of the given amplitude (damped high modes)."""
    import numpy as np
    from vortexlab.spectral import SpectralField, State, transform

    def one():
        f = transform(amplitude * rng.standard_normal((grid.n, grid.n)), grid)
        return SpectralField(grid, f.coeffs * np.exp(-0.05 * grid.eta_sq))

    return State(one(), (one(), one()))


def _time_calls(fn) -> list[float]:
    """Per-call milliseconds of fn() after one untimed warm-up call."""
    fn()
    samples = []
    start = time.perf_counter()
    while len(samples) < PROBE_MAX_SAMPLES and (
        len(samples) < PROBE_MIN_SAMPLES or time.perf_counter() - start < PROBE_MIN_SECONDS
    ):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return samples


def probe(n: int, seed: int) -> dict:
    """Direct calls to the per-layer public functions on generated inputs at size n."""
    import numpy as np
    from vortexlab.kernels import s_symbol_grid
    from vortexlab.solver import SolverConfig, scaled_params, step
    from vortexlab.spectral import leray_decompose, transform

    ctx = manifest(("kernel-algebra",), n, seed).context()
    grid = ctx.grid
    params = scaled_params(ctx.params)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, n))
    X = _random_state(grid, rng, 1e-2)
    symbol = s_symbol_grid(0.5, grid, params)
    calls = {
        "spectral.transform": lambda: transform(values, grid),
        "spectral.leray": lambda: leray_decompose(X.m),
        "kernels.s_build": lambda: s_symbol_grid(0.5, grid, params),
        "kernels.apply": lambda: symbol.apply(X),
    }
    for scheme in ("etd2", "etd4"):
        config = SolverConfig(grid, ctx.params, T=1.0, scheme=scheme)
        # the warm-up call builds and caches the step tables; timed calls reuse them
        calls[f"solver.step_{scheme}"] = (
            lambda config=config: step(X, config.dt_effective, config)
        )
    return {name: _time_calls(fn) for name, fn in calls.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("rep", "setup", "baseline", "probe"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--experiments")
    parser.add_argument("--n", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--outdir", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    if args.mode == "baseline":
        import numpy  # noqa: F401  (the interpreter and numpy, none of the program)

        args.result.write_text(json.dumps({"setup_s": monotonic() - args.spawned_at}))
        return 0
    vortexlab = load_program()
    if args.mode == "probe":
        result = {"probes_ms": probe(args.n, args.seed)}
    else:
        m = manifest(args.experiments.split(","), args.n, args.seed)
        result = {"setup_s": monotonic() - args.spawned_at}
        if args.mode == "rep":
            tracer = None
            if args.spans is not None:
                import tracing

                tracer = tracing.Tracer()
                tracing.install(tracer)
            result.update(run_rep(m, args.outdir, tracer))
            if tracer is not None:
                with args.spans.open("w") as fh:
                    json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    import numpy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    result["vortexlab"] = vortexlab.__version__
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
