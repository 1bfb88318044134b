"""Fourier-side Green kernels of the linearised system and their surrogates.

The curl-free block of the linearised system reduces, per wavevector eta, to
the 2x2 system for (rho_hat, eta . m_hat)

    d/dt [y, u] = M [y, u],   M = [[d1, i], [i c^2 |eta|^2, d2]],

whose eigenvalues for the true kernel (d1 = 0, d2 = -mu_par |eta|^2) are

    lambda_pm = -mu_par |eta|^2 / 2 +- sqrt(mu_par^2 |eta|^4 - 4 c^2 |eta|^2) / 2

and for the artificial-viscosity kernel (d1 = d2 = -mu_par |eta|^2 / 2) are
-mu_par |eta|^2 / 2 +- i c |eta|.  Any entire function f of t*M follows from
the Sylvester formula

    f(tM) = f(a) I + (tM - a I) * (f(a) - f(b)) / (a - b),

with a = t lambda_plus, b = t lambda_minus; the divided difference is the
only numerically delicate piece and switches to a series when |a - b| is
small (double root |eta| = 2c/mu_par).  Taking f = exp yields the kernels
themselves, f = phi_k yields the exponential-integrator weights used by the
solver.

On the divergence-free complement the momentum block acts diagonally (heat
flow); symbols carry that part explicitly so every time-indexed family is an
exact matrix semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import FluidParams
from .spectral import FullLattice, Grid, SpectralField, State


class KernelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalar phi functions and stable divided differences

_DD_TOL = 1e-5
_PHI_SERIES_RADIUS = 0.5
_PHI_SERIES_TERMS = 20


def phi(k: int, z):
    """phi_0 = exp, phi_k(z) = (phi_{k-1}(z) - 1/(k-1)!) / z, entire in z."""
    z = np.asarray(z, dtype=np.complex128)
    if k == 0:
        return np.exp(z)
    small = np.abs(z) < _PHI_SERIES_RADIUS
    series = np.zeros_like(z)
    for n in range(_PHI_SERIES_TERMS - 1, -1, -1):
        series = series * z + 1.0 / math.factorial(n + k)
    tail = np.exp(z)
    for j in range(k):
        tail = tail - z**j / math.factorial(j)
    with np.errstate(invalid="ignore", divide="ignore"):
        closed = tail / np.where(small, 1.0, z) ** k
    return np.where(small, series, closed)


def _phi_derivative(k: int, z):
    """d/dz phi_k, via the recurrence z phi_k' = phi_{k-1} - (k) phi_k ... for k >= 1,
    and exp for k = 0; series branch near z = 0."""
    z = np.asarray(z, dtype=np.complex128)
    if k == 0:
        return np.exp(z)
    small = np.abs(z) < _PHI_SERIES_RADIUS
    series = np.zeros_like(z)
    for n in range(_PHI_SERIES_TERMS - 1, 0, -1):
        series = series * z + n / math.factorial(n + k)
    with np.errstate(invalid="ignore", divide="ignore"):
        closed = (phi(k - 1, z) - k * phi(k, z)) / np.where(small, 1.0, z)
    return np.where(small, series, closed)


def exp_divided_difference(a, b):
    """(exp(a) - exp(b)) / (a - b), switching to the symmetric series
    exp((a+b)/2) * sinh(d/2)/(d/2) when |a - b| < 1e-5."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    d = a - b
    small = np.abs(d) < _DD_TOL
    mid = 0.5 * (a + b)
    series = np.exp(mid) * (1.0 + d * d / 24.0 + d**4 / 1920.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (np.exp(a) - np.exp(b)) / np.where(small, 1.0, d)
    return np.where(small, series, direct)


def phi_divided_difference(k: int, a, b):
    """(phi_k(a) - phi_k(b)) / (a - b), using phi_k'((a+b)/2) when a ~ b."""
    if k == 0:
        return exp_divided_difference(a, b)
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    d = a - b
    small = np.abs(d) < _DD_TOL
    near = _phi_derivative(k, 0.5 * (a + b))
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (phi(k, a) - phi(k, b)) / np.where(small, 1.0, d)
    return np.where(small, near, direct)


# ---------------------------------------------------------------------------
# eigenvalues

def eigenvalues(eta, params: FluidParams):
    """Eigenvalues lambda_pm of the curl-free block at wavevector eta.

    Principal branch: Re lambda_pm <= 0, complex-conjugate pair below the
    double root |eta| = 2c/mu_par, real pair above it.
    """
    eta = np.asarray(eta, dtype=float)
    mag2 = eta[0] ** 2 + eta[1] ** 2
    return _lambda_pm(mag2, params)


def _lambda_pm(mag2, params: FluidParams):
    mag2 = np.asarray(mag2, dtype=float)
    mu_par, c = params.mu_par, params.c
    disc = (mu_par * mag2) ** 2 - 4.0 * c**2 * mag2
    sq = np.sqrt(disc.astype(np.complex128))
    lam_plus = 0.5 * (-mu_par * mag2 + sq)
    lam_minus = 0.5 * (-mu_par * mag2 - sq)
    return lam_plus, lam_minus


def _artificial_lambda_pm(mag2, params: FluidParams):
    mag2 = np.asarray(mag2, dtype=float)
    real = -0.5 * params.mu_par * mag2
    imag = params.c * np.sqrt(mag2)
    return real + 1j * imag, real - 1j * imag


# ---------------------------------------------------------------------------
# symbols

@dataclass(frozen=True)
class KernelSymbol:
    """Blockwise Fourier multiplier acting on states (rho_hat, m_hat).

    a00: scalar block, a01/a10: coupling row/column, a11: 2x2 momentum block.
    """

    grid: Grid
    a00: np.ndarray
    a01: np.ndarray  # (2, n, n/2+1), half lattice like every block
    a10: np.ndarray  # (2, n, n/2+1)
    a11: np.ndarray  # (2, 2, n, n/2+1)

    def apply(self, X: State) -> State:
        if X.grid != self.grid:
            raise KernelError("state grid does not match symbol grid")
        r = X.rho.coeffs
        m0 = X.m[0].coeffs
        m1 = X.m[1].coeffs
        rho = self.a00 * r + self.a01[0] * m0 + self.a01[1] * m1
        out0 = self.a10[0] * r + self.a11[0, 0] * m0 + self.a11[0, 1] * m1
        out1 = self.a10[1] * r + self.a11[1, 0] * m0 + self.a11[1, 1] * m1
        g = self.grid
        return State(
            SpectralField(g, rho), (SpectralField(g, out0), SpectralField(g, out1))
        )

    def compose(self, other: "KernelSymbol") -> "KernelSymbol":
        """Blockwise matrix product self · other."""
        if other.grid != self.grid:
            raise KernelError("symbol grids do not match")
        A, B = self, other
        a00 = A.a00 * B.a00 + A.a01[0] * B.a10[0] + A.a01[1] * B.a10[1]
        a01 = np.stack(
            [
                A.a00 * B.a01[k] + A.a01[0] * B.a11[0, k] + A.a01[1] * B.a11[1, k]
                for k in range(2)
            ]
        )
        a10 = np.stack(
            [
                A.a10[j] * B.a00 + A.a11[j, 0] * B.a10[0] + A.a11[j, 1] * B.a10[1]
                for j in range(2)
            ]
        )
        a11 = np.stack(
            [
                np.stack(
                    [
                        A.a10[j] * B.a01[k]
                        + A.a11[j, 0] * B.a11[0, k]
                        + A.a11[j, 1] * B.a11[1, k]
                        for k in range(2)
                    ]
                )
                for j in range(2)
            ]
        )
        return KernelSymbol(self.grid, a00, a01, a10, a11)

    def scaled(self, factor) -> "KernelSymbol":
        """Multiply every block by a scalar or per-wavevector array."""
        return KernelSymbol(
            self.grid,
            self.a00 * factor,
            self.a01 * factor,
            self.a10 * factor,
            self.a11 * factor,
        )

    def __add__(self, other: "KernelSymbol") -> "KernelSymbol":
        return KernelSymbol(
            self.grid,
            self.a00 + other.a00,
            self.a01 + other.a01,
            self.a10 + other.a10,
            self.a11 + other.a11,
        )

    def __sub__(self, other: "KernelSymbol") -> "KernelSymbol":
        return self + other.scaled(-1.0)

    def max_abs(self) -> float:
        return max(
            np.abs(self.a00).max(),
            np.abs(self.a01).max(),
            np.abs(self.a10).max(),
            np.abs(self.a11).max(),
        )

    @staticmethod
    def identity(grid: Grid) -> "KernelSymbol":
        one = np.ones(grid.spectral_shape, dtype=np.complex128)
        zero = np.zeros(grid.spectral_shape, dtype=np.complex128)
        return KernelSymbol(
            grid,
            one.copy(),
            np.stack([zero, zero]),
            np.stack([zero, zero]),
            np.stack([np.stack([one.copy(), zero]), np.stack([zero, one.copy()])]),
        )


def _kind_eigens(kind: str, mag2, params: FluidParams, t: float):
    """Per-kind (a, b, t*d1, t*d2, lambda_perp) with a,b already t-scaled."""
    mu, mu_par = params.mu, params.mu_par
    if kind in ("spar", "s"):
        lp, lm = _lambda_pm(mag2, params)
        d1 = np.zeros_like(mag2)
        d2 = -mu_par * mag2
        lperp = -mu_par * mag2 if kind == "spar" else -mu * mag2
    elif kind in ("artificial_par", "artificial"):
        lp, lm = _artificial_lambda_pm(mag2, params)
        d1 = d2 = -0.5 * mu_par * mag2
        lperp = -0.5 * mu_par * mag2 if kind == "artificial_par" else -mu * mag2
    elif kind == "wave":
        sq = params.c * np.sqrt(mag2)
        lp, lm = 1j * sq, -1j * sq
        d1 = d2 = np.zeros_like(mag2)
        lperp = np.zeros_like(mag2)
    else:
        raise KernelError(f"unknown kernel kind {kind!r}")
    return t * lp, t * lm, t * d1, t * d2, t * lperp


def _block_entries(kind: str, t: float, mag2, params: FluidParams, fk: int = 0):
    """Scalar pieces of f(t * generator): (f11, coupling, f22_par, f_perp).

    coupling multiplies i*eta_j in the (1,2)/(2,1) entries (the (2,1) column
    carries an extra c^2).  All four pieces are exactly real: the eigenvalues
    come in conjugate pairs and phi_k has real Taylor coefficients, so the
    imaginary residue is pure rounding and is dropped to keep real states
    exactly real under application.
    """
    a, b, d1t, d2t, lperp = _kind_eigens(kind, mag2, params, t)
    fa = phi(fk, a)
    fdd = phi_divided_difference(fk, a, b)
    f11 = np.real(fa + (d1t - a) * fdd)
    f22 = np.real(fa + (d2t - a) * fdd)
    coupling = np.real(t * fdd)
    fperp = np.real(phi(fk, lperp))
    return f11, coupling, f22, fperp


def _assemble_symbol(
    grid: Grid, kind: str, t: float, params: FluidParams, fk: int = 0
) -> KernelSymbol:
    f11, coupling, f22, fperp = _block_entries(kind, t, grid.eta_sq, params, fk)
    e1, e2 = grid.eta1_odd, grid.eta2_odd
    mag2o = grid.eta_sq_odd
    safe = np.where(mag2o == 0.0, 1.0, mag2o)
    rpar = [
        [np.where(mag2o == 0.0, 0.0, e1 * e1 / safe), np.where(mag2o == 0.0, 0.0, e1 * e2 / safe)],
        [np.where(mag2o == 0.0, 0.0, e2 * e1 / safe), np.where(mag2o == 0.0, 0.0, e2 * e2 / safe)],
    ]
    c2 = params.c**2
    a01 = np.stack([1j * coupling * e1, 1j * coupling * e2])
    a10 = np.stack([1j * c2 * coupling * e1, 1j * c2 * coupling * e2])
    eye = np.eye(2)
    a11 = np.stack(
        [
            np.stack([f22 * rpar[j][k] + fperp * (eye[j, k] - rpar[j][k]) for k in range(2)])
            for j in range(2)
        ]
    )
    return KernelSymbol(grid, f11.astype(np.complex128), a01, a10, a11)


def _block_3x3(kind: str, t: float, eta, params: FluidParams, fk: int = 0) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    mag2 = np.asarray(eta[0] ** 2 + eta[1] ** 2)
    f11, coupling, f22, fperp = _block_entries(kind, t, mag2, params, fk)
    out = np.zeros((3, 3), dtype=np.complex128)
    out[0, 0] = f11
    c2 = params.c**2
    if mag2 > 0:
        rpar = np.outer(eta, eta) / mag2
    else:
        rpar = np.zeros((2, 2))
    rperp = np.eye(2) - rpar
    for j in range(2):
        out[0, 1 + j] = 1j * coupling * eta[j]
        out[1 + j, 0] = 1j * c2 * coupling * eta[j]
        for k in range(2):
            out[1 + j, 1 + k] = f22 * rpar[j, k] + fperp * rperp[j, k]
    return out


def _check_nonnegative_time(t: float):
    if t < 0:
        raise KernelError(f"kernel symbols are defined for t >= 0, got {t}")


def spar_symbol(t: float, eta, params: FluidParams) -> np.ndarray:
    """3x3 symbol of the curl-free Green kernel at one wavevector."""
    _check_nonnegative_time(t)
    return _block_3x3("spar", t, eta, params)


def s_symbol(t: float, eta, params: FluidParams) -> np.ndarray:
    """3x3 symbol of the full linearised Green kernel at one wavevector."""
    _check_nonnegative_time(t)
    return _block_3x3("s", t, eta, params)


def artificial_symbol(t: float, eta, params: FluidParams, composed: bool = False) -> np.ndarray:
    """3x3 symbol of the artificial-viscosity kernel (composed=True gives the
    version whose divergence-free part is the mu-heat flow)."""
    _check_nonnegative_time(t)
    return _block_3x3("artificial" if composed else "artificial_par", t, eta, params)


def wave_symbol(t: float, eta, params: FluidParams) -> np.ndarray:
    """3x3 symbol of the acoustic wave-system kernel."""
    _check_nonnegative_time(t)
    return _block_3x3("wave", t, eta, params)


def spar_symbol_grid(t: float, grid: Grid, params: FluidParams) -> KernelSymbol:
    _check_nonnegative_time(t)
    return _assemble_symbol(grid, "spar", t, params)


def s_symbol_grid(t: float, grid: Grid, params: FluidParams) -> KernelSymbol:
    _check_nonnegative_time(t)
    return _assemble_symbol(grid, "s", t, params)


def artificial_symbol_grid(
    t: float, grid: Grid, params: FluidParams, composed: bool = False
) -> KernelSymbol:
    _check_nonnegative_time(t)
    return _assemble_symbol(grid, "artificial" if composed else "artificial_par", t, params)


def phi_symbol_grid(
    k: int, t: float, grid: Grid, params: FluidParams, kind: str = "s"
) -> KernelSymbol:
    """phi_k(t * generator) as a blockwise symbol (exponential-integrator weights)."""
    _check_nonnegative_time(t)
    return _assemble_symbol(grid, kind, t, params, fk=k)


def heat_symbol_grid(t: float, grid: Grid, mu: float) -> KernelSymbol:
    """Diagonal heat semigroup exp(mu t Laplacian) on all three components."""
    _check_nonnegative_time(t)
    h = np.exp(-mu * grid.eta_sq * t).astype(np.complex128)
    return KernelSymbol.identity(grid).scaled(h)


def generator_block(kind: str, eta, params: FluidParams) -> np.ndarray:
    """3x3 generator matrix d/dt|_0 of the chosen kernel family at eta."""
    eta = np.asarray(eta, dtype=float)
    mag2 = float(eta[0] ** 2 + eta[1] ** 2)
    mu, mu_par, c2 = params.mu, params.mu_par, params.c**2
    out = np.zeros((3, 3), dtype=np.complex128)
    if kind == "spar":
        diag_par, diag_perp = -mu_par * mag2, -mu_par * mag2
    elif kind == "s":
        diag_par, diag_perp = -mu_par * mag2, -mu * mag2
    elif kind in ("artificial_par", "artificial"):
        out[0, 0] = -0.5 * mu_par * mag2
        diag_par = -0.5 * mu_par * mag2
        diag_perp = diag_par if kind == "artificial_par" else -mu * mag2
    elif kind == "wave":
        diag_par = diag_perp = 0.0
    else:
        raise KernelError(f"unknown kernel kind {kind!r}")
    rpar = np.outer(eta, eta) / mag2 if mag2 > 0 else np.zeros((2, 2))
    rperp = np.eye(2) - rpar
    for j in range(2):
        out[0, 1 + j] = 1j * eta[j]
        out[1 + j, 0] = 1j * c2 * eta[j]
        for k in range(2):
            out[1 + j, 1 + k] = diag_par * rpar[j, k] + diag_perp * rperp[j, k]
    return out


# ---------------------------------------------------------------------------
# frequency splitting

@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff: 1 for |eta| <= r0, 0 for |eta| >= r0 + 1, quintic between."""

    r0: float

    def __post_init__(self):
        if not self.r0 > 0:
            raise KernelError(f"cutoff radius must be positive, got {self.r0}")


def default_cutoff(params: FluidParams) -> CutoffSpec:
    # oscillatory/diffusive transition |eta| = 2c/mu_par sits inside LF
    return CutoffSpec(2.0 * params.c / params.mu_par + 1.0)


def cutoff(eta, spec: CutoffSpec):
    """Smooth cutoff value chi(eta) in [0, 1]; accepts a wavevector or |eta|."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim >= 1 and eta.shape[0] == 2:
        mag = np.sqrt(eta[0] ** 2 + eta[1] ** 2)
    else:
        mag = np.abs(eta)
    s = np.clip(mag - spec.r0, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 + s * (-15.0 + 6.0 * s))


def cutoff_grid(grid: Grid, spec: CutoffSpec) -> np.ndarray:
    mag = np.sqrt(grid.eta_sq)
    s = np.clip(mag - spec.r0, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 + s * (-15.0 + 6.0 * s))


def split(symbol: KernelSymbol, spec: CutoffSpec) -> tuple[KernelSymbol, KernelSymbol]:
    """(low-frequency, high-frequency) parts; their sum is the original symbol."""
    chi = cutoff_grid(symbol.grid, spec)
    return symbol.scaled(chi), symbol.scaled(1.0 - chi)


# ---------------------------------------------------------------------------
# explicit wave kernel

def wave_kernel_w(t: float, x, c: float):
    """Fundamental wave kernel: 1/(2 pi c sqrt(c^2 t^2 - |x|^2)) inside the
    light cone, 0 outside."""
    if not t > 0:
        raise KernelError(f"wave kernel requires t > 0, got {t}")
    x1 = np.asarray(x[0], dtype=float)
    x2 = np.asarray(x[1], dtype=float)
    r2 = x1**2 + x2**2
    inside = r2 < (c * t) ** 2
    safe = np.where(inside, (c * t) ** 2 - r2, 1.0)
    return np.where(inside, 1.0 / (2.0 * np.pi * c * np.sqrt(safe)), 0.0)


# ---------------------------------------------------------------------------
# physical-space kernel fields and norms

def artificial_entry_fields(t: float, grid: Grid, params: FluidParams, sigma=(0, 0)):
    """Physical-space entries of D^sigma S_tilde_par(t), kernel at the box center.

    Returns the scalar diagonal entry and the coupling-column magnitude (the
    coupling row is the column divided by c^2).  The symbols are built and
    transformed on the full lattice with the complex FFT: a real transform
    rounds differently near the 1e-13 resolved floor of the pointwise fit,
    which moves the fitted envelope constants.
    """
    from .spectral import derivative_multiplier

    _check_nonnegative_time(t)
    full = FullLattice(grid)
    mag2 = full.eta_sq
    mag = np.sqrt(mag2)
    c = params.c
    decay = np.exp(-0.5 * params.mu_par * mag2 * t)
    diag = decay * np.cos(c * mag * t)
    small = mag2 == 0.0
    sinc = np.where(small, t, np.sin(c * mag * t) / np.where(small, 1.0, c * mag))
    mult = derivative_multiplier(full, sigma)

    def to_field(symbol):
        # fftshift moves the kernel from the lattice origin to the box center
        return np.fft.fftshift(np.real(np.fft.fft2(symbol)) / grid.L**2)

    diag_field = to_field(mult * diag)
    col1 = to_field(mult * 1j * c**2 * decay * sinc * full.eta1_odd)
    col2 = to_field(mult * 1j * c**2 * decay * sinc * full.eta2_odd)
    return diag_field, np.hypot(col1, col2)


@dataclass(frozen=True)
class PointwiseBoundSample:
    t: float
    k_fit: float
    peak_radius: float
    ring_lo: float
    ring_hi: float
    tail_ratio: float


@dataclass(frozen=True)
class PointwiseBoundReport:
    samples: tuple[PointwiseBoundSample, ...]
    k_stability: float
    ring_ok: bool
    tail_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.k_stability < 2.0
            and self.ring_ok
            and self.tail_ok
            and all(np.isfinite(s.k_fit) for s in self.samples)
        )


def _fit_pointwise_constant(field, radius, t, c, mu_par):
    """Smallest K with |field| <= K t^{-5/4} * envelope, the envelope being
    t^{3/4} s^{-3/2} inside |x| <= c(t - sqrt t) and exp(-s^2/(K t)) outside.

    Points below 1e-13 of the peak are excluded: they sit at the double-
    precision transform floor, not on the kernel's analytic tail.
    """
    mag = np.abs(field)
    resolved = mag > 1e-13 * mag.max()
    s = np.abs(radius - c * t)
    inner = (radius <= c * (t - np.sqrt(t))) & resolved
    k_inner = 0.0
    if inner.any():
        k_inner = float((mag[inner] * t**0.5 * s[inner] ** 1.5).max())
    outer = ~inner & resolved
    logmag = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -np.inf)
    log_out = logmag[outer] + 1.25 * np.log(t)
    s2_out = s[outer] ** 2

    def feasible(k):
        # need max over outer points of log|F| + 5/4 log t + s^2/(k t) <= log k
        return float((log_out + s2_out / (k * t)).max()) <= np.log(k)

    lo = max(k_inner, float(mag.max()) * t**1.25, 1e-12)
    hi = lo
    for _ in range(200):
        if feasible(hi):
            break
        hi *= 2.0
    else:
        return float("inf")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid) and mid >= k_inner:
            hi = mid
        else:
            lo = mid
    return hi


def pointwise_bound_report(
    params: FluidParams, grid: Grid, times=(1.0, 2.0, 4.0, 8.0)
) -> PointwiseBoundReport:
    """Check the two-regime pointwise envelope of the artificial kernel.

    For each t the scalar entry of S_tilde_par(t) is evaluated in physical
    space; the report records the fitted envelope constant K, the radius of
    the magnitude peak against the expanding ring |x| ~ c t, and the far tail
    beyond c t + 6.5 sqrt(mu_par t).  The heat smoothing scale is
    sqrt(2 mu_par t), so 6.5 widths leave the Gaussian tail below 1e-8 with
    margin for its algebraic prefactor (6 widths sit right at e^{-18}).
    """
    c, mu_par = params.c, params.mu_par
    samples = []
    for t in times:
        if t < 1.0:
            raise KernelError(f"pointwise bounds are stated for t >= 1, got {t}")
        if c * t + 3.0 * np.sqrt(mu_par * t) >= grid.L / 2.0:
            raise KernelError(
                f"acoustic ring leaves the box at t={t} (L={grid.L}); enlarge the box"
            )
        diag, _ = artificial_entry_fields(t, grid, params)
        radius = np.hypot(grid.xc1, grid.xc2)
        mag = np.abs(diag)
        k_fit = _fit_pointwise_constant(diag, radius, t, c, mu_par)
        peak_radius = float(radius.flat[int(np.argmax(mag))])
        width = 3.0 * np.sqrt(mu_par * t)
        ring_lo, ring_hi = c * t - width, c * t + width
        far = radius > c * t + 6.5 * np.sqrt(mu_par * t)
        tail_ratio = float(mag[far].max() / mag.max()) if far.any() else 0.0
        samples.append(
            PointwiseBoundSample(t, k_fit, peak_radius, ring_lo, ring_hi, tail_ratio)
        )
    ks = np.array([s.k_fit for s in samples])
    k_stability = float(ks.max() / ks.min()) if np.all(np.isfinite(ks)) else float("inf")
    ring_ok = all(s.ring_lo <= s.peak_radius <= s.ring_hi for s in samples)
    tail_ok = all(s.tail_ratio < 1e-8 for s in samples)
    return PointwiseBoundReport(tuple(samples), k_stability, ring_ok, tail_ok)


def heat_leray_kernel_norms(
    t: float, sigma, p: float, grid: Grid, params: FluidParams
) -> float:
    """L^p norm of D^sigma (K_mu(t) * R_perp), the heat-Leray kernel.

    The multi-index must be non zero: the underived kernel is not integrable
    and the estimate excludes it.  The symbols are built and transformed on
    the full lattice with the complex FFT.
    """
    from .spectral import as_multi_index, derivative_multiplier, lp_of_magnitude

    s1, s2 = as_multi_index(sigma)
    if s1 + s2 == 0:
        raise KernelError("heat-Leray kernel norms require a non-zero multi-index")
    if not t > 0:
        raise KernelError(f"kernel norm requires t > 0, got {t}")
    full = FullLattice(grid)
    mult = derivative_multiplier(full, sigma) * np.exp(-params.mu * full.eta_sq * t)
    e1, e2 = full.eta1_odd, full.eta2_odd
    mag2 = full.eta_sq_odd
    safe = np.where(mag2 == 0.0, 1.0, mag2)
    rperp = {
        (0, 0): np.where(mag2 == 0.0, 0.0, e2 * e2 / safe),
        (0, 1): np.where(mag2 == 0.0, 0.0, -e1 * e2 / safe),
        (1, 1): np.where(mag2 == 0.0, 0.0, e1 * e1 / safe),
    }
    rperp[(1, 0)] = rperp[(0, 1)]
    sq_sum = np.zeros((grid.n, grid.n))
    for (j, k), r in rperp.items():
        field = np.real(np.fft.fft2(mult * r)) / grid.L**2
        sq_sum += field**2
    return lp_of_magnitude(np.sqrt(sq_sum), grid, p)
