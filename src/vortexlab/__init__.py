"""Pseudo-spectral laboratory for near-equilibrium 2D compressible flows.

The package is organised in six modules:

``spectral``
    Periodic grid, Fourier transforms, derivatives, Leray decomposition
    and norm quadrature.
``profiles``
    Closed-form vortex and dipole asymptotic profiles, Biot-Savart
    reconstruction and vorticity moments.
``kernels``
    Exact Fourier-side Green kernels of the linearised system, the
    artificial-viscosity approximation, frequency splitting and
    physical-space kernel fields.
``solver``
    Exponential time-differencing integrator for the nonlinear system
    near equilibrium, whose state is one (3, n, n/2 + 1) stack of half
    spectra, plus an incompressible vorticity control solver; both hand each
    snapshot to the caller's ``measure(t, X)`` and return a ``Trajectory`` of
    the measured values, holding no snapshots.
``harness``
    The run manifest, decay-rate experiments and the pointwise-bound
    verification, producing machine-readable reports.
``cli``
    Command-line experiment runner.
"""

from .spectral import Grid, SpectralField, make_grid, transform
from .profiles import FluidParams, Moments
from .solver import SolverConfig, Trajectory, simulate
from .harness import RunManifest, list_experiments, run_experiment

__all__ = [
    "Grid",
    "SpectralField",
    "make_grid",
    "transform",
    "FluidParams",
    "Moments",
    "SolverConfig",
    "Trajectory",
    "simulate",
    "RunManifest",
    "list_experiments",
    "run_experiment",
]

__version__ = "0.1.0"
