"""Periodic spectral substrate: grid, transforms, derivatives, Leray split, norms.

Fields live on a uniform n x n grid over the periodic box [0, L)^2.  Fourier
coefficients follow the convention

    f_hat(eta) = sum_x f(x) exp(+i eta . x) dx^2,

so the coefficient at eta = 0 is the discrete integral of f and partial_k
acts as multiplication by -i eta_k.  Profiles and moments treat the box
center L/2 as the origin of the plane.  Each lattice axis is stored once, as a
column (eta1, eta1_odd, `Grid.xc1`) or a row (eta2, eta2_odd, `Grid.xc2`) that
numpy broadcasts; eta_sq and the other arrays that are not separable are full.

Half-spectrum layout.  Every field is real, so its spectrum is Hermitian,
f_hat(-eta) = conj f_hat(eta), and only the k2 >= 0 columns of the
fft-ordered lattice are stored: an n x (n/2 + 1) array in numpy's rfft2
layout (rows k1 = 0..n/2-1, -n/2..-1; columns k2 = 0..n/2-1, then the
Nyquist column k2 = -n/2).  Columns 1..n/2-1 also stand for their unstored
conjugate partners; the columns k2 = 0 and n/2 are their own partners.  Sums
over the full lattice (Parseval) therefore weigh those two self-conjugate
columns by 1 and every other column by 2 (`hermitian_weight`).
`to_physical`/`to_spectral` are numpy's real 2-D FFTs of half spectra and accept
stacks of fields along leading axes; `to_spectral` makes the self-conjugate columns
exactly Hermitian, and every multiplier here keeps them so.  A field is such an array,
passed with its grid (`check_spectra`); `SpectralField` wraps one for the benchmark probe.

Band layout.  A band is the square |k1|, |k2| <= k of the half lattice, 0 <= k < n/2:
rows k1 = 0..k, -k..-1 and columns k2 = 0..k, `gather`ed from and `scatter`ed to the
half lattice as its row blocks k1 >= 0 and, for k > 0, k1 < 0.  The grid is the band of
every row and column, in one block.  The solvers store only the 2/3-rule band of
dealiased spectra (`Grid.band`, k = n/3); `support_band` is the smallest band that holds
a weight's nonzero entries.  Band spectra are transformed only by `BandTransform`, a
core on one half-lattice work array for both directions.  Each direction is a column
pass (along axis -2), in place on the band's columns only, and a row pass (along the
last axis).  Each inverse first zeroes the dropped columns and the gap rows between the
blocks, which the last forward row pass and inverse column pass filled; the grid's core
has nothing to zero, and it is `to_physical`.  The solvers' physical stage,
`round_trip`, runs the row passes and a pointwise step between them one slab of rows at
a time, so it holds no n x n stack of samples.  The core runs unscaled, so its callers
carry the dx^2 and the conjugation of the convention: the diagnostics divide the
density's samples by dx^2, and the sources fold both into multipliers made once per run.
The rows are symmetric under k1 -> -k1 (`conj_rows` indexes each row's partner), so
column 0 is fixed as above.  A band below the Nyquist lines has no Nyquist column, so
its Parseval sums weigh column 0 by 1, the others by 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_DERIVATIVE_ORDER = 8
# rows per slab of `BandTransform.round_trip` (every row of a smaller grid)
SLAB_ROWS = 32


class SpectralError(ValueError):
    """Raised on violated grid/field contracts."""


class _Wavenumbers:
    """fft-ordered wavenumbers 2*pi*k/L: eta1 a column on the rows ``k_index``
    and eta2 a row on the columns ``k_cols`` of the lattice.

    The odd twins zero the Nyquist row and column: the -n/2 mode has no +n/2
    partner, so odd multipliers there would break Hermitian symmetry.
    """

    @cached_property
    def eta1(self) -> np.ndarray:
        return (2.0 * np.pi / self.L) * self.k_index[:, None]

    @cached_property
    def eta2(self) -> np.ndarray:
        return (2.0 * np.pi / self.L) * self.k_cols[None, :]

    @cached_property
    def eta_sq(self) -> np.ndarray:
        return self.eta1**2 + self.eta2**2

    @cached_property
    def eta1_odd(self) -> np.ndarray:
        return np.where(self.k_index[:, None] == -(self.n // 2), 0.0, self.eta1)

    @cached_property
    def eta2_odd(self) -> np.ndarray:
        return np.where(self.k_cols[None, :] == -(self.n // 2), 0.0, self.eta2)

    @cached_property
    def eta_sq_odd(self) -> np.ndarray:
        return self.eta1_odd**2 + self.eta2_odd**2

    @property
    def biot_savart_multiplier(self) -> tuple[np.ndarray, np.ndarray]:
        """i eta^perp / |eta|^2, zero at eta = 0: the torus Biot-Savart law
        u_hat = multiplier * omega_hat for zero-mean vorticity.  Made at each read, not
        cached: its two complex arrays live only while their reader holds them."""
        factor = over_mag2(1.0, self.eta_sq_odd)
        return 1j * (-self.eta2_odd) * factor, 1j * self.eta1_odd * factor

    @cached_property
    def hermitian_weight(self) -> np.ndarray:
        """Parseval weight per stored column: 1 on the self-conjugate columns and 2 on
        the others, each of which also stands for its conjugate partner."""
        weight = np.full(len(self.k_cols), 2.0)
        weight[list(self.self_conjugate)] = 1.0
        return weight

    @property
    def spectral_shape(self) -> tuple[int, int]:
        return (len(self.k_index), len(self.k_cols))

    @cached_property
    def conj_rows(self) -> np.ndarray:
        """Row index of each row's k1 -> -k1 partner (a Nyquist row is its own)."""
        return -np.arange(len(self.k_index)) % len(self.k_index)

    def make_hermitian(self, coeffs: np.ndarray) -> np.ndarray:
        """Spectra on this lattice with their self-conjugate columns replaced, in place,
        by their Hermitian parts."""
        for j in self.self_conjugate:
            col = coeffs[..., j]
            col[...] = 0.5 * (col + np.conj(col[..., self.conj_rows]))
        return coeffs

    @cached_property
    def shells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mag2, mag2_odd, inverse): the distinct float pairs (eta_sq, eta_sq_odd)
        and the index with eta_sq == mag2[inverse], eta_sq_odd == mag2_odd[inverse]."""
        keys, inverse = np.unique((self.eta_sq + 1j * self.eta_sq_odd).ravel(), return_inverse=True)
        return keys.real.copy(), keys.imag.copy(), inverse.reshape(self.spectral_shape)

    def sobolev_weight(self, s: int) -> np.ndarray:
        """(1 + |eta|^2)^s, built once per lattice and index."""
        weights = self.__dict__.setdefault("_sobolev_weights", {})
        if s not in weights:
            weights[s] = (1.0 + self.eta_sq) ** s
        return weights[s]


class _BandLayout(_Wavenumbers):
    """A band of a grid's half lattice, stored as the row blocks `blocks`: pairs of
    (band rows, half-lattice rows) slices (see the module docstring)."""

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """The band of half-lattice arrays, as a new array of their dtype."""
        out = np.empty(coeffs.shape[:-2] + self.spectral_shape, coeffs.dtype)
        for rows, lattice in self.blocks:
            out[..., rows, :] = coeffs[..., lattice, : len(self.k_cols)]
        return out

    def scatter(self, coeffs: np.ndarray) -> np.ndarray:
        """Half-lattice arrays, as a new array: band arrays on the band, 0 off it."""
        out = np.zeros(coeffs.shape[:-2] + (self.n, self.n // 2 + 1), coeffs.dtype)
        for rows, lattice in self.blocks:
            out[..., lattice, : len(self.k_cols)] = coeffs[..., rows, :]
        return out


@dataclass(frozen=True)
class Grid(_BandLayout):
    """Uniform periodic grid; its wavenumber arrays cover the stored half
    lattice, the k2 >= 0 columns (see the module docstring), the band of all of it.

    Parameters
    ----------
    n : int
        Points per axis; must be a power of two, at least 8.
    L : float
        Physical side length of the box.
    """

    n: int
    L: float
    self_conjugate = (0, -1)  # the stored columns k2 = 0 and n/2
    blocks = ((slice(None),) * 2,)

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise SpectralError(f"grid size must be a power of two >= 8, got {self.n}")
        if not 0 < self.L < np.inf:
            raise SpectralError(f"box size must be positive and finite, got {self.L}")
        if not 0 < self.dx * self.dx < np.inf:  # a multiply: dx**2 raises OverflowError
            raise SpectralError(f"cell area dx^2 = (L/n)^2 must be a positive finite float, "
                                f"got n = {self.n}, L = {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @cached_property
    def k_index(self) -> np.ndarray:
        # integer lattice -n/2 .. n/2-1 in fft order
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @cached_property
    def k_cols(self) -> np.ndarray:
        # stored columns: k2 = 0 .. n/2-1 and the Nyquist column -n/2
        return self.k_index[: self.n // 2 + 1]

    @cached_property
    def band(self) -> "Band":
        """The 2/3-rule band |k1|, |k2| <= n/3, where dealiased spectra live."""
        return Band(self, self.n // 3)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True on the half lattice's entries in `band`, False off it."""
        return self.band.scatter(np.ones(self.band.spectral_shape, bool))

    @cached_property
    def xc1(self) -> np.ndarray:
        """Coordinates measured from the box center: xc1 a column, xc2 the row."""
        return (np.arange(self.n) * self.dx - self.L / 2.0)[:, None]

    @cached_property
    def xc2(self) -> np.ndarray:
        return self.xc1.T


class FullLattice(_Wavenumbers):
    """The whole n x n fft-ordered lattice of a grid, for symbols of the complex FFT:
    the artificial kernel's derivative factor and the tests' oracles."""

    def __init__(self, grid: Grid):
        self.n, self.L = grid.n, grid.L
        self.k_index = self.k_cols = grid.k_index


class RowSlab(_Wavenumbers):
    """The rows `rows` (a slice) of a grid's half lattice, every column: a lattice on which
    a symbol is built and applied and its Parseval sum taken one slab of rows at a time,
    with the grid's column weights.  Its rows' k1 -> -k1 partners lie on other slabs, so
    nothing is made Hermitian on it."""

    def __init__(self, grid: Grid, rows: slice):
        self.n, self.L, self.rows = grid.n, grid.L, rows
        self.k_index, self.k_cols = grid.k_index[rows], grid.k_cols
        self.self_conjugate = grid.self_conjugate


def row_slabs(grid: Grid):
    """The grid's half lattice as `RowSlab`s of `SLAB_ROWS` rows, top to bottom."""
    return (RowSlab(grid, slice(i, i + SLAB_ROWS)) for i in range(0, grid.n, SLAB_ROWS))


class Band(_BandLayout):
    """The square band |k1|, |k2| <= k of a grid's half lattice, 0 <= k < n/2."""

    self_conjugate = (0,)  # the column k2 = 0

    def __init__(self, grid: Grid, k: int):
        if not 0 <= k < grid.n // 2:
            raise SpectralError(f"band half-width must satisfy 0 <= k < n/2, got {k}")
        self.n, self.L = grid.n, grid.L
        self.k_index, self.k_cols = np.r_[0 : k + 1, -k:0], np.arange(k + 1)
        # the row blocks k1 >= 0 and k1 < 0; the band k = 0 has no second one
        blocks = (slice(0, k + 1),) * 2, (slice(k + 1, None), slice(self.n - k, None))
        self.blocks = blocks[: 2 if k else 1]


def support_band(grid: Grid, weight) -> Grid | Band:
    """The smallest band that holds every nonzero entry of a half-lattice weight, or the
    grid itself when that band would need k >= n/2."""
    rows, cols = np.nonzero(np.broadcast_to(weight, grid.spectral_shape))
    k = max(np.abs(grid.k_index[rows]).max(initial=0), np.abs(grid.k_cols[cols]).max(initial=0))
    return grid if k >= grid.n // 2 else Band(grid, int(k))


class BandTransform:
    """The transform core of a band (the 2/3-rule band by default, or the grid): numpy's
    two passes each way, unscaled, on one half-lattice work array (see the module
    docstring), given, or made with the leading shape `work` of the stacks it transforms.

    `blocks` are the views of the work array's row blocks, whose band rows are `rows`.
    A caller writes conjugated band spectra into them (`load(c)` writes conj c) and
    `inverse(out)` returns dx^2 times their samples; `round_trip` makes them hold
    conj(f_hat) / dx^2 of the products of the samples, slab by slab.  `samples` and
    `magnitude` carry the conjugation and dx^2 themselves."""

    def __init__(self, grid: Grid, work, band: Grid | Band | None = None):
        band = grid.band if band is None else band
        self.n, self.cols, self.dx2 = grid.n, len(band.k_cols), grid.dx**2
        if not isinstance(work, np.ndarray):
            work = np.empty(tuple(work) + grid.spectral_shape, complex)
        self.work, self.rows = work, tuple(rows for rows, _ in band.blocks)
        self.blocks = tuple(work[..., lattice, : self.cols] for _, lattice in band.blocks)

    def load(self, coeffs: np.ndarray) -> "BandTransform":
        """Write the conjugates of band spectra into the blocks."""
        for rows, block in zip(self.rows, self.blocks):
            np.conjugate(coeffs[..., rows, :], out=block)
        return self

    def inverse(self, out=None) -> np.ndarray:
        """irfft2 of the work, into `out` (real) if given: `round_trip` with one slab of
        every row and no products."""
        out = np.empty(self.work.shape[:-1] + (self.n,)) if out is None else out
        self.round_trip(out, lambda samples, rows: None)
        return out

    def sample_slab(self, fields=()) -> np.ndarray:
        """An empty slab of `SLAB_ROWS` rows (every row on a smaller grid) of samples."""
        return np.empty(tuple(fields) + (min(self.n, SLAB_ROWS), self.n))

    def round_trip(self, samples: np.ndarray, step, out: "BandTransform | None" = None):
        """`inverse`, `products = step(samples, rows)` and rfft2 of the products into the
        work of `out` (a core of the band, this one by default), slab by slab into `samples`
        (of the work's fields); each column pass runs once, in place.  Returns `out`'s
        blocks, or None, with no forward column pass, if a step returned None."""
        work, k, height, complete = self.work, self.cols, samples.shape[-2], True
        out = self if out is None else out
        # the dropped columns and the gap rows, which the last calls filled, read as zeros
        work[..., k:], work[..., k : self.n + 1 - k, :k] = 0.0, 0.0
        np.fft.ifftn(work[..., :k], axes=(-2,), out=work[..., :k])
        for start in range(0, self.n, height):
            rows = slice(start, start + height)
            np.fft.irfftn(work[..., rows, :], s=(self.n,), axes=(-1,), out=samples)
            products = step(samples, rows)
            complete = complete and products is not None
            if products is not None:
                np.fft.rfftn(products, axes=(-1,), out=out.work[..., rows, :])
        if complete:
            np.fft.fftn(out.work[..., :k], axes=(-2,), out=out.work[..., :k])
        return out.blocks if complete else None

    def samples(self, coeffs: np.ndarray) -> np.ndarray:
        """Physical samples of band spectra, as a new array."""
        out = self.load(coeffs).inverse()
        out /= self.dx2
        return out

    def squares(self, coeffs: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
        """The squares of the physical samples of band spectra, as a new array, or added
        into `total`: either is written slab by slab, so no other array of samples is made."""
        add, dx2 = total is not None, self.dx2
        total = np.empty(self.work.shape[:-1] + (self.n,)) if total is None else total

        def step(samples, rows):
            samples /= dx2
            if add:
                total[..., rows, :] += np.square(samples, out=samples)
            else:
                np.square(samples, out=total[..., rows, :])

        self.load(coeffs).round_trip(self.sample_slab(self.work.shape[:-2]), step)
        return total

    def magnitude(self, fields) -> np.ndarray:
        """Pointwise sqrt(f1^2 + f2^2 + ...) of band spectra, one transform per field on a
        one-field work array, each field's squares added into the total (`squares`)."""
        total = None
        for coeffs in fields:
            total = self.squares(coeffs, total)
            del coeffs  # before the next field is made
        return np.sqrt(total, out=total)


def make_grid(n: int, L: float) -> Grid:
    """Validated grid constructor."""
    return Grid(int(n), float(L))


@dataclass(frozen=True)
class SpectralField:
    """A real field as its half spectrum on a grid: the probe's `transform` and `State`."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.spectral_shape:
            raise SpectralError(
                f"coefficient shape {self.coeffs.shape} does not match grid n={self.grid.n}"
            )


def check_spectra(coeffs, grid: Grid | Band) -> np.ndarray:
    """`coeffs`, spectra on the grid (or a band) along their last two axes, or SpectralError
    naming its shape.  A shape cannot tell apart another L at the same n: such spectra pass."""
    if getattr(coeffs, "shape", ())[-2:] != grid.spectral_shape:
        raise SpectralError(f"spectrum shape {getattr(coeffs, 'shape', None)} does not match "
                            f"grid n={grid.n}, shape {grid.spectral_shape}")
    return coeffs


def to_physical(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Samples of a half spectrum, or of a stack of them along leading axes: irfft2's
    two transforms run axis by axis on one conjugated copy, the column pass in place."""
    return BandTransform(grid, check_spectra(coeffs, grid).shape[:-2], grid).samples(coeffs)


def to_spectral(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectra of real samples, or of a stack of them along leading axes.

    rfft2 rounds the self-conjugate columns to slightly non-Hermitian values;
    they are replaced by their Hermitian parts, so real fields have exactly
    Hermitian spectra.
    """
    out = np.fft.rfft2(values)
    np.conjugate(out, out=out)
    out *= grid.dx**2
    return grid.make_hermitian(out)


def hermitian_defect(coeffs: np.ndarray, grid: Grid) -> float:
    """Max |coeffs(-k1, k2) - conj coeffs(k1, k2)| of a half spectrum on the grid over the
    self-conjugate columns k2 = 0, n/2: every other stored coefficient stands for a
    conjugate pair, so this is the whole realness defect of the field (`check_spectra`)."""
    cols = check_spectra(coeffs, grid)[:, list(grid.self_conjugate)]
    return float(np.abs(cols - np.conj(cols[grid.conj_rows])).max())


def _check_same_grid(*grids: Grid):
    if len(set(grids)) > 1:
        raise SpectralError("fields live on different grids")


@dataclass(frozen=True)
class State:
    """X = (rho_tilde, m) as three fields, the benchmark probe's form; the runs use stacks."""

    rho: SpectralField
    m: tuple[SpectralField, SpectralField]

    def __post_init__(self):
        _check_same_grid(self.rho.grid, self.m[0].grid, self.m[1].grid)

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    @staticmethod
    def from_stack(grid: Grid, coeffs: np.ndarray) -> "State":
        """The state whose components view the rows of a (3, n, n/2+1) array."""
        rho, m0, m1 = (SpectralField(grid, c) for c in coeffs)
        return State(rho, (m0, m1))


def transform(values: np.ndarray, grid: Grid) -> SpectralField:
    """Forward transform of physical samples, the probe's form; coeffs(0,0) is sum f dx^2."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.n, grid.n):
        raise SpectralError(f"sample shape {values.shape} does not match grid n={grid.n}")
    return SpectralField(grid, to_spectral(values, grid))


def _integer(value, what: str) -> int:
    """`value` as an int; SpectralError naming it unless it is integral (NaN is not)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise SpectralError(f"{what} must be an integer, got {value!r}")


def as_multi_index(sigma) -> tuple[int, int]:
    """Validate a derivative multi-index (sigma1, sigma2) of integers, |sigma| <= 8."""
    s1, s2 = (_integer(s, f"multi-index {tuple(sigma)} entry") for s in sigma[:2])
    if s1 < 0 or s2 < 0:
        raise SpectralError(f"multi-index must be nonnegative, got {sigma}")
    if s1 + s2 > MAX_DERIVATIVE_ORDER:
        raise SpectralError(f"|sigma| capped at {MAX_DERIVATIVE_ORDER}, got {s1 + s2}")
    return s1, s2


def derivative_multiplier(grid: Grid, sigma) -> np.ndarray:
    """Fourier multiplier of D^sigma: (-i eta1)^s1 (-i eta2)^s2 on the grid's
    half lattice, its band or a `FullLattice`, as an array that broadcasts over
    that lattice: a column or a row when one order is 0, full ones when both are.

    Odd powers use the Nyquist-zeroed wavenumbers so that real fields stay
    real; even powers keep the full lattice.  An order-1 factor is the product
    -i eta_odd, with no power taken.
    """
    s1, s2 = as_multi_index(sigma)
    mult = None
    for order, eta, eta_odd in ((s1, grid.eta1, grid.eta1_odd), (s2, grid.eta2, grid.eta2_odd)):
        if order == 0:
            continue
        factor = -1j * (eta_odd if order % 2 else eta)
        factor = factor if order == 1 else factor**order
        mult = factor if mult is None else mult * factor
    return np.ones(grid.spectral_shape, dtype=np.complex128) if mult is None else mult


def derivative(coeffs: np.ndarray, grid: Grid, sigma) -> np.ndarray:
    """Spectral derivative D^sigma of half spectra on the grid (`check_spectra`)."""
    return check_spectra(coeffs, grid) * derivative_multiplier(grid, sigma)


def gradient(coeffs: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    return derivative(coeffs, grid, (1, 0)), derivative(coeffs, grid, (0, 1))


def curl(m, grid: Grid) -> np.ndarray:
    """Scalar vorticity d1 m2 - d2 m1 of a pair or (2, ...) stack of half spectra."""
    return derivative(m[1], grid, (1, 0)) - derivative(m[0], grid, (0, 1))


def over_mag2(x, mag2_odd):
    """x / |eta_odd|^2, and 0 where |eta_odd|^2 = 0."""
    flat = mag2_odd == 0.0
    return np.where(flat, 0.0, x / np.where(flat, 1.0, mag2_odd))


def leray_decompose(m, band: Grid | Band | None = None):
    """Split m = m_perp + m_par into divergence-free and curl-free parts: two pairs of
    arrays when `m` is a pair or stack of the two components' spectra on `band` (a band
    or the grid), as the runs pass it, or of SpectralFields from a pair of them, the
    benchmark probe's form.

    The zero mode (and the partnerless Nyquist rows) is assigned to m_perp:
    a constant momentum field is divergence-free.
    """
    if band is None:
        _check_same_grid(m[0].grid, m[1].grid)
        perp, par = leray_decompose([f.coeffs for f in m], m[0].grid)
        return tuple(tuple(SpectralField(m[0].grid, c) for c in part) for part in (perp, par))
    e1, e2 = band.eta1_odd, band.eta2_odd
    dot = over_mag2(e1 * m[0] + e2 * m[1], band.eta_sq_odd)
    par = (e1 * dot, e2 * dot)
    return (m[0] - par[0], m[1] - par[1]), par


def magnitude(fields, grid: Grid) -> np.ndarray:
    """Pointwise magnitude sqrt(f1^2 + f2^2 + ...) of a half spectrum on the grid, or of a
    sequence or stack of them, each checked by `check_spectra`."""
    fields = (fields,) if isinstance(fields, np.ndarray) and fields.ndim == 2 else fields
    return BandTransform(grid, (), grid).magnitude(check_spectra(f, grid) for f in fields)


def lp_norm(fields, grid: Grid, p: float) -> float:
    """Riemann-sum L^p norm of `magnitude(fields, grid)`; p = inf gives the max."""
    return lp_of_magnitude(magnitude(fields, grid), grid, p)


def lp_of_magnitude(mag: np.ndarray, grid: Grid, p: float) -> float:
    """Riemann-sum L^p norm of pointwise magnitude samples."""
    p = float(p)
    if not p >= 1.0:  # NaN included
        raise SpectralError(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    if np.isinf(p):
        return float(mag.max())
    return float((np.sum(mag**p) * grid.dx**2) ** (1.0 / p))


def parseval_sum(grid: Grid | Band, pairs, weight=1.0) -> float:
    """(1/L^2) sum over the full lattice of weight * Re(a conj b), summed over
    the (a, b) pairs of half spectra, or of band spectra when `grid` is a band,
    each checked by `check_spectra`; `weight` must be even in eta."""
    w = grid.hermitian_weight * weight
    return float(sum(np.sum(w * (check_spectra(a, grid) * np.conj(check_spectra(b, grid))).real)
                     for a, b in pairs)) / grid.L**2


def sobolev_norm(fields, s: int, lattice: Grid | Band) -> float:
    """H^s norm from Fourier coefficients with the discrete measure 1/L^2 of a spectrum on
    `lattice` (a band or the grid), or of a sequence or stack of them, each checked by
    `check_spectra`; at s = 0 it is the L^2 norm, the Parseval twin of `lp_norm(.., 2)`."""
    s = _integer(s, "Sobolev index")
    if s < 0:
        raise SpectralError(f"Sobolev index must be nonnegative, got {s}")
    fields = (fields,) if isinstance(fields, np.ndarray) and fields.ndim == 2 else fields
    pairs = [(c, c) for c in fields]
    # (1 + |eta|^2)^0 is 1: the scalar weight needs no lattice of ones
    return float(np.sqrt(parseval_sum(lattice, pairs, lattice.sobolev_weight(s) if s else 1.0)))


def sample(grid: Grid, func) -> np.ndarray:
    """Half spectrum of func(xc1, xc2) of the box-centered coordinate column and row,
    broadcast to the grid, so a function of one coordinate samples too."""
    return to_spectral(np.broadcast_to(func(grid.xc1, grid.xc2), (grid.n, grid.n)), grid)
