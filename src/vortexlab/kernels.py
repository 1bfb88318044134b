"""Fourier-side Green kernels of the linearised system and their surrogates.

Every kernel family has, per wavevector eta, the same generator: on the
curl-free part the 2x2 system for (rho_hat, eta . m_hat)

    d/dt [y, u] = M [y, u],   M = [[d1, i], [i c^2 |eta|^2, d2]],

and on the divergence-free part of m the heat factor d_perp.  The table
`FAMILIES` gives (d1, d2, d_perp) as functions of |eta|^2 for each kind; the
eigenvalues of M are

    lambda_pm = (d1 + d2)/2 +- sqrt(((d1 - d2)/2)^2 - c^2 |eta|^2).

Any entire function f of t*M follows from the Sylvester formula

    f(tM) = f(a) I + (tM - a I) * (f(a) - f(b)) / (a - b),

with a = t lambda_plus, b = t lambda_minus; the divided difference (one entry for every
k) is the only numerically delicate piece and switches to a series when |a - b| is
small (double root |eta| = 2c/mu_par).  Taking f = exp yields the kernels
themselves, f = phi_k yields the exponential-integrator weights used by the
solver.

Symbols are stored in Helmholtz form, five real entries per wavevector
(`KernelSymbol`); sums, scalings (the low/high-frequency split is the scalings by
`low_pass` and its complement) and products stay in that form, so every time-indexed
family is an exact matrix semigroup on the modes off the Nyquist row and column.
`phi_symbol_grid` builds every time-indexed symbol and `heat_weight` the scalar heat
family exp(-mu |eta|^2 t), t phi_k(-mu |eta|^2 t); both evaluate once per shell and gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .profiles import FluidParams
from .spectral import (Band, BandTransform, FullLattice, Grid, State, as_multi_index,
                       derivative_multiplier, over_mag2)


class KernelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalar phi functions and stable divided differences

_DD_TOL = 1e-5
_PHI_SERIES_RADIUS = 0.5
_PHI_SERIES_TERMS = 20


def _branchwise(small, series, closed, *args):
    """One complex array: `series` of the args' entries where `small`, `closed` of the
    others; each branch sees only its own entries, so no guard against 0/0 is needed."""
    args = np.broadcast_arrays(*(np.asarray(x, dtype=np.complex128) for x in args))
    out = np.empty(args[0].shape, dtype=np.complex128)
    out[small] = series(*(x[small] for x in args))
    out[~small] = closed(*(x[~small] for x in args))
    return out


def _horner(z, coeffs):
    out = np.zeros_like(z)
    for c in coeffs:
        out = out * z + c
    return out


def _near(a, b):
    """Where |a - b| < 1e-5, the divided differences' series branch."""
    return np.abs(np.subtract(a, b, dtype=np.complex128)) < _DD_TOL


def phi(k: int, z):
    """phi_0 = exp, phi_k(z) = (phi_{k-1}(z) - 1/(k-1)!) / z, entire in z: a 20-term
    Taylor series where |z| < 0.5, the closed form elsewhere."""
    z = np.asarray(z, dtype=np.complex128)
    if k == 0:
        return np.exp(z)
    coeffs = [1.0 / math.factorial(n + k) for n in range(_PHI_SERIES_TERMS - 1, -1, -1)]

    def closed(z):
        tail = np.exp(z)
        for j in range(k):
            tail = tail - z**j / math.factorial(j)
        return tail / z**k

    return _branchwise(np.abs(z) < _PHI_SERIES_RADIUS, partial(_horner, coeffs=coeffs), closed, z)


def _phi_derivative(k: int, z):
    """d/dz phi_k: exp for k = 0; for k >= 1 the recurrence
    z phi_k'(z) = phi_{k-1}(z) - k phi_k(z), with a series where |z| < 0.5."""
    z = np.asarray(z, dtype=np.complex128)
    if k == 0:
        return np.exp(z)
    coeffs = [n / math.factorial(n + k) for n in range(_PHI_SERIES_TERMS - 1, 0, -1)]
    return _branchwise(np.abs(z) < _PHI_SERIES_RADIUS, partial(_horner, coeffs=coeffs),
                       lambda z: (phi(k - 1, z) - k * phi(k, z)) / z, z)


def phi_divided_difference(k: int, a, b):
    """(phi_k(a) - phi_k(b)) / (a - b); where |d| = |a - b| < 1e-5, phi_k'((a+b)/2) for
    k >= 1 and, for k = 0, the symmetric series exp((a+b)/2) * sinh(d/2)/(d/2)."""

    def series(a, b):
        if k:
            return _phi_derivative(k, 0.5 * (a + b))
        d = a - b
        return np.exp(0.5 * (a + b)) * (1.0 + d * d / 24.0 + d**4 / 1920.0)

    return _branchwise(_near(a, b), series, lambda a, b: (phi(k, a) - phi(k, b)) / (a - b), a, b)


# ---------------------------------------------------------------------------
# the family table

# kind -> generator diagonals (d1, d2, d_perp) as functions of |eta|^2
FAMILIES = {
    "s": lambda mag2, fp: (np.zeros_like(mag2), -fp.mu_par * mag2, -fp.mu * mag2),
    "spar": lambda mag2, fp: (np.zeros_like(mag2), -fp.mu_par * mag2, -fp.mu_par * mag2),
    "artificial": lambda mag2, fp: (-0.5 * fp.mu_par * mag2,) * 2 + (-fp.mu * mag2,),
    "artificial_par": lambda mag2, fp: (-0.5 * fp.mu_par * mag2,) * 3,
    "wave": lambda mag2, fp: (np.zeros_like(mag2),) * 3,
}


def _diagonals(kind: str, mag2, params: FluidParams):
    try:
        family = FAMILIES[kind]
    except KeyError:
        raise KernelError(f"unknown kernel kind {kind!r}") from None
    return family(np.asarray(mag2, dtype=float), params)


def _lambda_pm(d1, d2, mag2, params: FluidParams):
    """Eigenvalues lambda_pm of the curl-free block, principal branch: for "s",
    a conjugate pair below the double root |eta| = 2c/mu_par, real above it."""
    mean = 0.5 * (d1 + d2)
    disc = (0.5 * (d1 - d2)) ** 2 - params.c**2 * mag2
    root = np.sqrt(disc.astype(np.complex128))
    return mean + root, mean - root


def _entries(kind: str, t: float, mag2, mag2_odd, params: FluidParams, fk: int = 0):
    """Helmholtz entries (d, b, c, p, q) of phi_fk(t * generator).

    d = f11, b = coupling, c = c^2 coupling, p = f_perp and
    q = (f22 - f_perp)/|eta_odd|^2 (0 where |eta_odd|^2 = 0).  All five are
    exactly real: the eigenvalues come in conjugate pairs and phi_k has real
    Taylor coefficients, so the imaginary residue is pure rounding and is
    dropped to keep real states exactly real under application.
    """
    d1, d2, d_perp = _diagonals(kind, mag2, params)
    lam_plus, lam_minus = _lambda_pm(d1, d2, mag2, params)
    a, b = t * lam_plus, t * lam_minus
    fa = phi(fk, a)
    fdd = phi_divided_difference(fk, a, b)
    f11 = np.real(fa + (t * d1 - a) * fdd)
    f22 = np.real(fa + (t * d2 - a) * fdd)
    coupling = np.real(t * fdd)
    f_perp = np.real(phi(fk, t * d_perp))
    return f11, coupling, params.c**2 * coupling, f_perp, over_mag2(f22 - f_perp, mag2_odd)


# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True)
class KernelSymbol:
    """Blockwise Fourier multiplier on states (rho_hat, m_hat), in Helmholtz form.

    Five real arrays on a grid's half lattice or its band; with eta the odd wavevector,

        rho' = d rho + i b (eta . m)
        m'   = p m + q eta (eta . m) + i c eta rho
    """

    grid: Grid | Band
    d: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def _arrays(self):
        return (self.d, self.b, self.c, self.p, self.q)

    def apply(self, X, out: np.ndarray | None = None):
        """The symbol applied to a State, or to a (3, ...) coefficient stack on its lattice,
        giving the same kind; a stack's result goes into `out` (not overlapping X) if given.
        KernelError for a State on another grid or a stack of another shape; a stack of the
        same shape on a box of another L cannot be told apart, and is applied as given."""
        # with u = i eta . m:  rho' = d rho + b u,  m' = p m + i eta (c rho - q u)
        g = self.grid
        is_state = isinstance(X, State)
        if is_state and X.grid != g:
            raise KernelError("state grid does not match symbol grid")
        if not is_state and X.shape != (shape := (3,) + g.spectral_shape):
            raise KernelError(f"stack of shape {X.shape} does not match the symbol's {shape}")
        ie1, ie2 = 1j * g.eta1_odd, 1j * g.eta2_odd
        r, m0, m1 = (f.coeffs for f in (X.rho, *X.m)) if is_state else X
        if out is None:
            out = np.empty((3,) + r.shape, dtype=np.complex128)
        rho, out0, u = out  # u lives in the last row until m1' replaces it
        tmp = np.empty_like(r)
        np.multiply(ie1, m0, out=u)
        u += np.multiply(ie2, m1, out=tmp)
        np.multiply(self.d, r, out=rho)
        rho += np.multiply(self.b, u, out=tmp)
        np.multiply(self.q, u, out=u)
        np.subtract(np.multiply(self.c, r, out=tmp), u, out=u)
        np.multiply(self.p, m0, out=out0)
        out0 += np.multiply(ie1, u, out=tmp)
        np.multiply(ie2, u, out=tmp)
        np.multiply(self.p, m1, out=u)
        u += tmp
        return State.from_stack(g, out) if is_state else out

    def compose(self, other: "KernelSymbol") -> "KernelSymbol":
        """Matrix product self · other, closed in Helmholtz form."""
        if other.grid != self.grid:
            raise KernelError("symbol grids do not match")
        A, B = self, other
        s = self.grid.eta_sq_odd
        return KernelSymbol(
            self.grid,
            A.d * B.d - s * A.b * B.c,
            A.d * B.b + A.b * (B.p + s * B.q),
            A.c * B.d + B.c * (A.p + s * A.q),
            A.p * B.p,
            A.p * B.q + A.q * B.p + s * A.q * B.q - A.c * B.b,
        )

    def scaled(self, factor) -> "KernelSymbol":
        """Multiply every entry by a scalar or per-wavevector array."""
        return KernelSymbol(self.grid, *(x * factor for x in self._arrays()))

    def scale(self, factor) -> "KernelSymbol":
        """`scaled` in place, on entries that no other symbol shares; returns this symbol."""
        for x in self._arrays():
            x *= factor
        return self

    def __add__(self, other: "KernelSymbol") -> "KernelSymbol":
        return KernelSymbol(self.grid, *(x + y for x, y in zip(self._arrays(), other._arrays())))

    def __sub__(self, other: "KernelSymbol") -> "KernelSymbol":
        return KernelSymbol(self.grid, *(x - y for x, y in zip(self._arrays(), other._arrays())))

    def entry_magnitude(self) -> np.ndarray:
        """Largest entry magnitude at each wavevector."""
        return np.abs(np.stack(self._arrays())).max(axis=0)

    @staticmethod
    def identity(grid: Grid) -> "KernelSymbol":
        one = np.ones(grid.spectral_shape)
        zero = np.zeros(grid.spectral_shape)
        return KernelSymbol(grid, one, zero, zero, one, zero)


def _check_nonnegative_time(t: float):
    if not (math.isfinite(t) and t >= 0):
        raise KernelError(f"kernel symbols are defined for finite t >= 0, got {t}")


def phi_symbol_grid(
    k: int, t: float, grid: Grid | Band, params: FluidParams, kind: str = "s"
) -> KernelSymbol:
    """The exponential-integrator weight of a step of length t as a blockwise symbol:
    the kernel exp(t * generator) for k = 0, t phi_k(t * generator) for k >= 1; its
    entries are evaluated once per (|eta|^2, |eta_odd|^2) shell, then gathered."""
    _check_nonnegative_time(t)
    mag2, mag2_odd, inverse = grid.shells
    entries = _entries(kind, t, mag2, mag2_odd, params, k)
    return KernelSymbol(grid, *((e * t if k else e)[inverse] for e in entries))


def s_symbol_grid(t: float, grid: Grid | Band, params: FluidParams) -> KernelSymbol:
    """The solver's kernel S(t), `phi_symbol_grid(0, t, grid, params)`; named, because the
    benchmark probe imports it, its tracer counts it as a build and solver tests patch it."""
    return phi_symbol_grid(0, t, grid, params)


def heat_weight(k: int, t: float, lattice: Grid | Band, mu: float) -> np.ndarray:
    """The scalar heat family on a lattice: the semigroup exp(-mu |eta|^2 t) for k = 0,
    the exponential-integrator weight t phi_k(-mu |eta|^2 t) for k >= 1; evaluated once
    per |eta|^2 shell, then gathered.  The k = 0 weight is real."""
    _check_nonnegative_time(t)
    mag2, _, inverse = lattice.shells
    z = -mu * mag2 * t
    return (np.exp(z) if k == 0 else t * phi(k, z))[inverse]


def generator_symbol_grid(kind: str, grid: Grid, params: FluidParams) -> KernelSymbol:
    """The generator d/dt|_0 of the kind's symbols, entries
    (d1, 1, c^2, d_perp, (d2 - d_perp)/|eta|^2)."""
    d1, d2, d_perp = _diagonals(kind, grid.eta_sq, params)
    one = np.ones(grid.spectral_shape)
    q = over_mag2(d2 - d_perp, grid.eta_sq_odd)
    return KernelSymbol(grid, d1, one, params.c**2 * one, d_perp, q)


# ---------------------------------------------------------------------------
# frequency cutoff

def default_cutoff(params: FluidParams) -> float:
    """Cutoff radius r0; the oscillatory/diffusive transition |eta| = 2c/mu_par sits inside LF."""
    return 2.0 * params.c / params.mu_par + 1.0


def cutoff(mag, r0: float):
    """Smooth radial cutoff chi in [0, 1] at wavevector magnitudes |eta|: 1 for
    |eta| <= r0, 0 for |eta| >= r0 + 1, quintic between."""
    if not r0 > 0:
        raise KernelError(f"cutoff radius must be positive, got {r0}")
    s = np.clip(np.asarray(mag, dtype=float) - r0, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 + s * (-15.0 + 6.0 * s))


def low_pass(grid: Grid | Band, r0: float) -> np.ndarray:
    """The low-pass weight chi = cutoff(|eta|, r0) on a grid's wavevectors; a symbol's
    low- and high-frequency parts are its scalings by chi and 1 - chi."""
    return cutoff(np.sqrt(grid.eta_sq), r0)


# ---------------------------------------------------------------------------
# physical-space kernel fields

def artificial_diagonal_field(t: float, grid: Grid, params: FluidParams, sigma=(0, 0)):
    """Physical-space scalar (diagonal) entry of D^sigma S_tilde_par(t), with
    the kernel at the box center.

    The radial factor exp(-mu_par |eta|^2 t / 2) cos(c |eta| t) depends on |k1| and
    |k2| only, so it is evaluated on the quadrant |k1|, |k2| <= n/2 (the first n/2 + 1
    rows of the grid's cached `eta_sq`) and mirrored onto the fft-ordered lattice by
    |k|; the derivative factor is the `FullLattice` multiplier, whose wavenumber column
    and row broadcast.  Both are the whole-lattice values bit for bit.  The mirror must
    be C-ordered: an F-ordered copy holds the same field, but `np.sum`'s pairwise order
    follows the memory layout and moved a `kernel-rates` series by an ulp.  The symbol is
    transformed in place with the complex `fft2`: a real transform rounds differently
    near the 1e-13 resolved floor of the pointwise fit, which moves the fitted
    envelope constants.
    """
    _check_nonnegative_time(t)
    mag2 = grid.eta_sq[: grid.n // 2 + 1]
    radial = np.exp(-0.5 * params.mu_par * mag2 * t) * np.cos(params.c * np.sqrt(mag2) * t)
    k = np.abs(grid.k_index)
    symbol = derivative_multiplier(FullLattice(grid), sigma) * radial[np.ix_(k, k)]
    # fftshift moves the kernel from the lattice origin to the box center
    field = np.fft.fftshift(np.real(np.fft.fft2(symbol, out=symbol)))
    field /= grid.L**2
    return field


def heat_leray_kernel_magnitudes(times, sigma, grid: Grid, params: FluidParams):
    """Pointwise Frobenius magnitudes of D^sigma (K_mu(t) * R_perp), the heat-Leray
    kernel, made in turn for each time t > 0, each a new array, for a non-zero
    multi-index (the underived kernel is not integrable); the arguments are checked on
    the call.

    The symbol is on the grid's half lattice, its three R_perp entries built once, and
    each entry goes through the grid's `BandTransform` (`to_physical` on one work array):
    the odd factors use the Nyquist-zeroed wavenumbers, so the symbol is Hermitian on the
    self-conjugate columns and the samples are the full-lattice complex transform's, to
    rounding.  The entries' squares are summed into the first one's samples, so one
    time holds its multiplier, the sum, the off-diagonal squares and one entry's
    product and samples."""
    s1, s2 = as_multi_index(sigma)
    if s1 + s2 == 0:
        raise KernelError("heat-Leray kernel norms require a non-zero multi-index")
    if bad := [t for t in times if not t > 0]:
        raise KernelError(f"kernel norm requires t > 0, got {bad[0]}")
    e1, e2, mag2 = grid.eta1_odd, grid.eta2_odd, grid.eta_sq_odd
    r_perp = np.stack([over_mag2(e2 * e2, mag2), over_mag2(-e1 * e2, mag2),
                       over_mag2(e1 * e1, mag2)])
    derivative_factor, core = derivative_multiplier(grid, sigma), BandTransform(grid, (), grid)

    def magnitude(t):
        # ((r11^2 + r12^2) + r22^2) + r12^2, accumulated in a new array: R_perp is
        # symmetric, so the off-diagonal entry counts twice
        mult = derivative_factor * heat_weight(0, t, grid, params.mu)
        total, r12 = (core.squares(r * mult) for r in r_perp[:2])
        total += r12
        total += core.squares(r_perp[2] * mult)
        total += r12
        return np.sqrt(total, out=total)

    return (magnitude(t) for t in times)
