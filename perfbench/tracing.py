"""Spans and counters recorded around the program's public functions.

The program itself is not instrumented: `install` replaces names in the
program's module namespaces with wrappers that record a span
(name, start, end, parent) per call, and counters at the same boundaries.
Spans stay in memory until the run ends; `self_times` turns them into
per-layer call counts and self time (span minus the part its children cover).
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

# Grid-symbol builders; every other public kernels function called from the
# harness counts as `kernels.other`.
BUILDS = frozenset(
    {
        "s_symbol_grid",
        "spar_symbol_grid",
        "artificial_symbol_grid",
        "phi_symbol_grid",
        "heat_symbol_grid",
    }
)
NORMS = frozenset(
    {"leray_decompose", "lp_norm", "lp_norm_vector", "lp_norm_state", "sobolev_norm"}
)
# Every 2-D (and n-D) transform entry of numpy.fft.
FFT_ENTRIES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

LAYERS = (
    "cli.run",
    "solver.simulate",
    "solver.vorticity_simulate",
    "kernels.build",
    "kernels.apply",
    "kernels.other",
    "spectral.diag",
    "spectral.norms",
    "spectral.fft",
    "profiles",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_return=None):
        """Return fn recording one span named `name` per call.

        on_return(counters, args, result) runs after a successful call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(self.counters, args, result)
            return result

        return traced


def _count_fft_bytes(counters, args, result):
    # computed from array sizes: one read of the input, one write of the output
    counters["spectral.fft.bytes_computed"] += getattr(args[0], "nbytes", 0) + result.nbytes


def _count_build(counters, args, result):
    counters["solver.symbol_builds"] += 1


def _count_gaps(counters, args, result):
    counters["solver.snapshot_gaps"] += len(result.times) - 1


def _layer(namespace: str, source: str, name: str):
    """Layer of function `name` defined in module `source`, as bound in `namespace`."""
    if source == "kernels":
        if name in BUILDS:
            return "kernels.build"
        return "kernels.other" if namespace == "harness" else None
    if source == "spectral" and name in NORMS:
        return "spectral.diag" if namespace == "solver" else "spectral.norms"
    if namespace == "harness" and source == "profiles":
        return "profiles"
    if namespace == "harness" and source == "solver" and name in ("simulate", "vorticity_simulate"):
        return f"solver.{name}"
    return None


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries for the rest of the process."""
    import numpy.fft

    from vortexlab import harness, kernels, solver

    for entry in FFT_ENTRIES:
        wrapped = tracer.wrap("spectral.fft", getattr(numpy.fft, entry), _count_fft_bytes)
        setattr(numpy.fft, entry, wrapped)
    symbol = kernels.KernelSymbol
    symbol.apply = tracer.wrap("kernels.apply", symbol.apply)
    symbol.compose = tracer.wrap("kernels.other", symbol.compose)
    for module, namespace in ((harness, "harness"), (solver, "solver")):
        for attr, fn in sorted(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            source = fn.__module__.rpartition(".")[2]
            layer = _layer(namespace, source, attr)
            if layer is None:
                continue
            on_return = None
            if namespace == "solver" and layer == "kernels.build":
                on_return = _count_build
            elif layer == "solver.simulate":
                on_return = _count_gaps
            setattr(module, attr, tracer.wrap(layer, fn, on_return))
    for name, fn in list(harness.EXPERIMENTS.items()):
        harness.EXPERIMENTS[name] = tracer.wrap(f"harness.{name}", fn)


def self_times(spans) -> dict:
    """Per span name: {"calls", "total_s", "self_s"}.

    Self time is a span's duration minus the part of its interval that its
    direct children cover (overlapping children are merged, not summed).
    """
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
    return out
