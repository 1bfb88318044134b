import numpy as np
import pytest

from vortexlab import spectral
from vortexlab.spectral import (
    Band,
    BandTransform,
    FullLattice,
    SpectralError,
    as_multi_index,
    curl,
    derivative,
    derivative_multiplier,
    gradient,
    hermitian_defect,
    leray_decompose,
    lp_norm,
    lp_of_magnitude,
    magnitude,
    make_grid,
    parseval_sum,
    sample,
    sobolev_norm,
    support_band,
    to_physical,
    to_spectral,
    transform,
)
from conftest import divergence, random_field, random_state, zero_state


def test_make_grid_integer_lattice():
    grid = make_grid(8, 2 * np.pi)
    assert sorted(grid.k_index.tolist()) == list(range(-4, 4))
    # L = 2*pi makes the wavenumbers integers
    assert np.allclose(sorted(np.unique(grid.eta1)), np.arange(-4, 4))


def test_make_grid_dx():
    grid = make_grid(256, 200.0)
    assert grid.dx == pytest.approx(0.78125)


@pytest.mark.parametrize(
    "n,L", [(6, 1.0), (100, 1.0), (4, 1.0), (256, 0.0), (256, -3.0), (64, np.inf), (64, np.nan)]
)
def test_make_grid_rejects(n, L):
    # a box of infinite side would sample every field to NaN coefficients
    with pytest.raises(SpectralError):
        make_grid(n, L)


@pytest.mark.parametrize("n, L", [(256, 1e300), (64, 1e200), (64, 1e-160)],
                         ids=["overflow-256", "overflow-64", "underflow"])
def test_make_grid_rejects_a_cell_area_that_is_not_a_positive_finite_float(n, L):
    # every transform scales by dx^2: grid.dx**2 raised a bare OverflowError mid-run, and a
    # product that underflows to 0 would divide by zero
    with pytest.raises(SpectralError, match=r"^cell area dx\^2 = \(L/n\)\^2 must be a positive"):
        make_grid(n, L)
    for side in (1e150, 1e-150):  # far boxes whose dx^2 is still a normal float pass
        assert 0 < make_grid(n, side).dx ** 2 < np.inf


@pytest.mark.parametrize("n, L", [(16, 7.0), (64, 50.0)])
def test_lattice_axes_are_separable(n, L):
    # each axis is one column or one row, and broadcast it is the full-lattice formula
    grid = make_grid(n, L)
    x = np.arange(n) * grid.dx
    xc1 = x[:, None] * np.ones((1, n)) - L / 2.0
    assert grid.xc1.shape == (n, 1) and grid.xc2.shape == (1, n)
    assert np.array_equal(np.broadcast_to(grid.xc1, (n, n)), xc1)
    assert np.array_equal(np.broadcast_to(grid.xc2, (n, n)), xc1.T)
    for lattice in (grid, grid.band, FullLattice(grid)):
        rows, cols = lattice.spectral_shape
        k1, k2 = lattice.k_index[:, None], lattice.k_cols[None, :]
        eta1 = (2.0 * np.pi / L) * k1 * np.ones((1, cols))
        eta2 = (2.0 * np.pi / L) * k2 * np.ones((rows, 1))
        eta1_odd, eta2_odd = eta1.copy(), eta2.copy()
        eta1_odd[lattice.k_index == -(n // 2), :] = 0.0
        eta2_odd[:, lattice.k_cols == -(n // 2)] = 0.0
        for axis, shape, full in ((lattice.eta1, (rows, 1), eta1), (lattice.eta2, (1, cols), eta2),
                                  (lattice.eta1_odd, (rows, 1), eta1_odd),
                                  (lattice.eta2_odd, (1, cols), eta2_odd)):
            assert axis.shape == shape
            assert np.array_equal(np.broadcast_to(axis, full.shape), full)
        assert np.array_equal(lattice.eta_sq, eta1**2 + eta2**2)
        assert np.array_equal(lattice.eta_sq_odd, eta1_odd**2 + eta2_odd**2)


def test_lattice_axes_retain_two_half_lattice_arrays():
    # of the wavenumbers and coordinates a 512^2 grid caches, only eta_sq and
    # eta_sq_odd are lattice-sized; the axes are columns and rows
    import tracemalloc

    grid = make_grid(512, 200.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for name in ("eta1", "eta2", "eta1_odd", "eta2_odd", "eta_sq", "eta_sq_odd", "xc1", "xc2"):
            getattr(grid, name)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 2.5 * np.empty(grid.spectral_shape).nbytes


def test_transform_constant():
    grid = make_grid(16, 3.0)
    f = transform(np.full((16, 16), 2.5), grid)
    assert f.coeffs[0, 0] == pytest.approx(2.5 * grid.L**2)
    rest = f.coeffs.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_transform_cosine_two_modes():
    grid = make_grid(32, 5.0)
    # x1 is measured from the box center; the cosine is in x1 from the origin
    f = sample(grid, lambda x1, x2: np.cos(2 * np.pi * (x1 + grid.L / 2) / grid.L))
    nonzero = np.argwhere(np.abs(f) > 1e-9 * grid.L**2)
    assert len(nonzero) == 2
    ks = sorted(grid.k_index[i] for i, _ in nonzero)
    assert ks == [-1, 1]
    # each cosine mode carries half the mass: L^2 / 2
    assert np.abs(f[1, 0] - grid.L**2 / 2) < 1e-10


def test_round_trip_identity(rng):
    grid = make_grid(64, 7.0)
    values = rng.standard_normal((64, 64))
    back = to_physical(transform(values, grid).coeffs, grid)
    assert np.abs(back - values).max() < 1e-12 * np.abs(values).max()


def _forward(core: BandTransform, values) -> tuple:
    """The core's blocks after the forward transform of real samples: a round trip whose
    one slab of every row has `values` as its products."""
    samples = np.empty(core.work.shape[:-1] + values.shape[-1:])
    return core.round_trip(samples, lambda samples, rows: values)


def _band_spectra(core: BandTransform, values, grid) -> np.ndarray:
    """Band spectra of real samples through the core, with the conjugation, dx^2 and
    Hermitian column 0 that `to_spectral` gives half spectra."""
    spec = np.empty(values.shape[:-2] + grid.band.spectral_shape, complex)
    for rows, block in zip(core.rows, _forward(core, values)):
        np.conjugate(block, out=spec[..., rows, :])
    spec *= grid.dx**2
    return grid.band.make_hermitian(spec)


def test_band_transforms_equal_the_half_lattice_ones(rng):
    # band spectra convert bit for bit as their half spectra do; the second pass on the
    # same scratch checks that the gap rows the first inverse's column pass filled are re-zeroed
    grid = make_grid(64, 7.0)
    band = grid.band
    assert band.spectral_shape == (43, 22) and band.k_index.tolist()[20:23] == [20, 21, -21]
    values = rng.standard_normal((3, 64, 64))
    full = to_spectral(values, grid) * grid.dealias_mask
    core = BandTransform(grid, np.full((3,) + grid.spectral_shape, np.nan, dtype=complex))
    phys = np.empty((3, 64, 64))
    for _ in range(2):
        spec = _band_spectra(core, values, grid)
        assert np.array_equal(spec, band.gather(full))
        assert core.load(spec).inverse(phys) is phys
        phys /= grid.dx**2
        assert np.array_equal(phys, to_physical(full, grid))
    assert np.array_equal(band.scatter(spec), full)


@pytest.mark.parametrize("n, L", [(16, 3.0), (64, 7.0), (256, 200.0)])
def test_band_transform_round_trip_equals_the_half_lattice_transforms(rng, n, L):
    # the core runs unscaled: its callers carry the conjugation and dx^2
    grid = make_grid(n, L)
    band, dx2 = grid.band, grid.dx**2
    full = to_spectral(rng.standard_normal((2, n, n)), grid) * grid.dealias_mask
    values = to_physical(full, grid)
    core = BandTransform(grid, (2,))
    spec = np.empty((2,) + band.spectral_shape, complex)
    for rows, block in zip(core.rows, _forward(core, values)):
        spec[:, rows] = np.conj(block) * dx2
    ref = band.gather(to_spectral(values, grid))
    assert np.abs(spec - ref).max() <= 1e-15 * np.abs(ref).max()
    back = core.load(band.gather(full)).inverse() / dx2
    assert np.abs(back - values).max() <= 1e-15 * np.abs(values).max()


def test_band_transform_zeroes_what_the_last_calls_filled(rng):
    # forward row passes fill the dropped columns of the one work array, and the inverse's
    # column pass fills the gap rows; every inverse reads both as zeros again
    grid = make_grid(64, 7.0)
    band, core = grid.band, BandTransform(grid, (3,))
    spec = band.gather(to_spectral(rng.standard_normal((3, 64, 64)), grid))
    first = core.load(spec).inverse()
    for _ in range(3):
        _forward(core, rng.standard_normal((3, 64, 64)))
        assert np.abs(core.work[..., core.cols :]).max() > 0.0
        assert np.array_equal(core.load(spec).inverse(), first)
        assert np.all(core.work[..., core.cols :] == 0.0)
        assert np.abs(core.work[..., core.cols : 1 - core.cols, : core.cols]).max() > 0.0


@pytest.mark.parametrize("n", [16, 256])
def test_round_trip_in_slabs_equals_the_whole_array_passes(rng, n):
    # one slab of rows (n = 16) or eight: two fields in, three products out through another
    # core, bit for bit the whole-array inverse and forward; a slab with no products
    # gives None
    grid = make_grid(n, 7.0)
    spec = grid.band.gather(to_spectral(rng.standard_normal((2, n, n)), grid))
    u = BandTransform(grid, (2,)).load(spec).inverse()
    expected = _forward(BandTransform(grid, (3,)), np.stack([u[0] ** 2, u[1] ** 2, u[0] * u[1]]))
    core, out = BandTransform(grid, (2,)), BandTransform(grid, (3,))
    slab, starts = core.sample_slab((3,)), []

    def products(samples, rows):
        starts.append(rows.start)
        np.multiply(samples[0], samples[1], out=slab[2])
        np.square(samples, out=samples)
        return slab

    got = core.load(spec).round_trip(slab[:2], products, out)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))
    assert starts == list(range(0, n, min(n, spectral.SLAB_ROWS)))
    assert core.load(spec).round_trip(slab[:2], lambda samples, rows: None, out) is None


@pytest.mark.parametrize("k", [0, 1, "n/3", "n/2-1", "grid"])
def test_every_band_and_the_grid_gather_scatter_and_transform_as_the_half_lattice(rng, k):
    # any square band |k1|, |k2| <= k, and the grid as the band of every row and column:
    # the round trip through the half lattice is exact, and the band's core is irfft2 on
    # the scattered spectra bit for bit, as `to_physical` is, also from a work array whose
    # dropped columns and gap rows hold NaN
    n = 32
    grid = make_grid(n, 7.0)
    band = grid if k == "grid" else Band(grid, {"n/3": n // 3, "n/2-1": n // 2 - 1}.get(k, k))
    spec = band.gather(to_spectral(rng.standard_normal((2, n, n)), grid))
    half = band.scatter(spec)
    assert np.array_equal(band.gather(half), spec)
    width = np.abs(band.k_cols).max()
    inside = (np.abs(grid.k_index)[:, None] <= width) & (np.abs(grid.k_cols)[None, :] <= width)
    assert np.all(half[:, ~inside] == 0.0) and np.count_nonzero(half[0]) == spec[0].size
    expected = np.fft.irfft2(np.conj(half), s=(n, n)) / grid.dx**2
    core = BandTransform(grid, np.full((2,) + grid.spectral_shape, np.nan, complex), band)
    for _ in range(2):
        assert np.array_equal(core.samples(spec), expected)
    assert np.array_equal(to_physical(half, grid), expected)
    magnitude = BandTransform(grid, (), band).magnitude(spec)
    assert np.array_equal(magnitude, np.sqrt(expected[0] ** 2 + expected[1] ** 2))


def test_magnitude_holds_one_field_of_samples_beside_its_total(rng):
    """tracemalloc peak of `BandTransform.magnitude` of 3 fields at n = 128, beyond its
    work array, in n x n sample arrays.

    Each field's samples are squared in place and added to the total, so the total and
    one field's samples are alive: 2.02 measured.  Squaring into a new array held a
    third (3.01; numpy reuses a temporary operand in place only from 256 KiB, n = 256).
    The bound of 2.25 leaves a quarter of an array of headroom and fails that version.
    """
    import tracemalloc

    grid = make_grid(128, 50.0)
    spec = to_spectral(rng.standard_normal((3, 128, 128)), grid)
    core = BandTransform(grid, (), grid)
    expected = core.magnitude(spec)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = core.magnitude(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert (peak - base) / np.empty((128, 128)).nbytes <= 2.25


def test_band_of_half_width_0_is_the_zero_mode():
    grid = make_grid(16, 10.0)
    band = Band(grid, 0)
    assert band.spectral_shape == (1, 1) and len(band.blocks) == 1
    half = np.arange(16 * 9).reshape(16, 9) + 1j
    assert np.array_equal(band.gather(half), half[:1, :1])
    assert np.count_nonzero(band.scatter(band.gather(half))) == 1
    assert np.array_equal(band.gather(np.ones((16, 9), complex)), np.ones((1, 1), complex))


@pytest.mark.parametrize("k", [-1, 8, 9])
def test_band_rejects_half_widths_outside_the_lattice(k):
    with pytest.raises(SpectralError, match="0 <= k < n/2"):
        Band(make_grid(16, 10.0), k)


def test_support_band_is_the_smallest_band_holding_the_weight():
    grid = make_grid(32, 10.0)
    weight = np.zeros(grid.spectral_shape)
    assert support_band(grid, weight).spectral_shape == (1, 1)
    weight[0, 0] = 1.0
    assert support_band(grid, weight).spectral_shape == (1, 1)
    weight[-3, 1] = 0.5  # k1 = -3
    assert support_band(grid, weight).k_cols.tolist() == [0, 1, 2, 3]
    weight[2, 5] = -1e-300
    assert support_band(grid, weight).spectral_shape == (11, 6)
    weight[0, 15] = 1.0  # k2 = 15 = n/2 - 1: the widest band
    assert support_band(grid, weight).spectral_shape == (31, 16)
    weight[16, 0] = 1.0  # the Nyquist row
    assert support_band(grid, weight) is grid
    column = np.zeros((32, 1))
    column[1] = 1.0  # a column broadcasts over the columns, so it reaches k2 = -n/2
    assert support_band(grid, column) is grid


def test_band_spectra_have_exactly_hermitian_column_0(rng):
    grid = make_grid(64, 7.0)
    band = grid.band
    spec = _band_spectra(BandTransform(grid, (2,)), rng.standard_normal((2, 64, 64)), grid)
    col = spec[..., 0]
    assert np.array_equal(col, np.conj(col[..., band.conj_rows]))
    assert band.conj_rows.tolist()[:3] == [0, 42, 41] and grid.conj_rows[32] == 32
    assert np.abs(col.imag).max() > 0.0 and np.all(col[:, 0].imag == 0.0)


def test_transform_shape_mismatch():
    grid = make_grid(16, 1.0)
    with pytest.raises(SpectralError):
        transform(np.zeros((8, 8)), grid)


def test_derivative_identity_and_sine():
    grid = make_grid(64, 4.0)
    f = sample(grid, lambda x1, x2: np.sin(2 * np.pi * x1 / grid.L))
    assert np.abs(derivative(f, grid, (0, 0)) - f).max() < 1e-14
    df = to_physical(derivative(f, grid, (1, 0)), grid)
    expected = (2 * np.pi / grid.L) * np.cos(2 * np.pi * grid.xc1 / grid.L)
    assert np.abs(df - expected).max() < 1e-12


def test_derivative_matches_finite_differences_second_order():
    # centered-difference oracle on a Gaussian, refined once: error ratio ~ 4
    errors = []
    for n in (64, 128):
        grid = make_grid(n, 24.0)
        g = sample(grid, lambda x1, x2: np.exp(-(x1**2 + x2**2) / 4.0))
        spec = to_physical(derivative(g, grid, (1, 1)), grid)
        v = to_physical(g, grid)
        d1 = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * grid.dx)
        fd = (np.roll(d1, -1, axis=1) - np.roll(d1, 1, axis=1)) / (2 * grid.dx)
        errors.append(np.abs(spec - fd).max())
    ratio = errors[0] / errors[1]
    assert 3.0 < ratio < 5.0


def _power_derivative_multiplier(grid, sigma) -> np.ndarray:
    """Reference: the multiplier as a lattice of ones times (-i eta)^order per axis."""
    mult = np.ones(grid.spectral_shape, dtype=np.complex128)
    for order, eta, eta_odd in ((sigma[0], grid.eta1, grid.eta1_odd),
                                (sigma[1], grid.eta2, grid.eta2_odd)):
        if order:
            mult = mult * (-1j * (eta_odd if order % 2 else eta)) ** order
    return mult


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("full", [False, True], ids=["half", "full-lattice"])
def test_derivative_multiplier_equals_the_power_formula(n, full):
    # order-1 factors are formed without a power; every |sigma| <= 8 keeps its values
    lattice = FullLattice(make_grid(n, 7.0)) if full else make_grid(n, 7.0)
    for s1 in range(9):
        for s2 in range(9 - s1):
            got = derivative_multiplier(lattice, (s1, s2))
            assert got.dtype == np.complex128
            want = _power_derivative_multiplier(lattice, (s1, s2))
            assert np.array_equal(np.broadcast_to(got, want.shape), want)


def test_derivative_rejects_bad_multi_index():
    grid = make_grid(16, 1.0)
    f = to_spectral(np.zeros((16, 16)), grid)
    with pytest.raises(SpectralError):
        derivative(f, grid, (-1, 0))
    with pytest.raises(SpectralError):
        derivative(f, grid, (5, 4))


def test_leray_gradient_field_is_pure_par(rng):
    grid = make_grid(64, 10.0)
    phi = random_field(grid, rng)
    m = gradient(phi, grid)
    perp, par = leray_decompose(m, grid)
    scale = max(lp_norm(m[0], grid, np.inf), lp_norm(m[1], grid, np.inf))
    assert lp_norm(perp[0], grid, np.inf) < 1e-12 * scale
    assert lp_norm(perp[1], grid, np.inf) < 1e-12 * scale


def test_leray_perp_field_untouched(rng):
    grid = make_grid(64, 10.0)
    psi = random_field(grid, rng)
    m = (derivative(psi, grid, (0, 1)) * -1.0, derivative(psi, grid, (1, 0)))  # grad^perp
    perp, par = leray_decompose(m, grid)
    scale = lp_norm(m[0], grid, np.inf)
    assert lp_norm(par[0], grid, np.inf) < 1e-12 * scale
    assert lp_norm(par[1], grid, np.inf) < 1e-12 * scale


def test_leray_idempotent_orthogonal_and_exact(rng):
    grid = make_grid(32, 5.0)
    for _ in range(10):
        m = (random_field(grid, rng), random_field(grid, rng))
        perp, par = leray_decompose(m, grid)
        # reconstruction is exact
        for i in range(2):
            assert np.abs(perp[i] + par[i] - m[i]).max() < 1e-13
        # idempotency
        perp2, par2 = leray_decompose(perp, grid)
        assert np.abs(perp2[0] - perp[0]).max() < 1e-12
        assert lp_norm(par2[0], grid, np.inf) < 1e-12
        # spectral divergence of perp and curl of par vanish
        assert np.abs(divergence(perp, grid)).max() < 1e-11
        assert np.abs(curl(par, grid)).max() < 1e-11
        # L2 orthogonality
        inner = parseval_sum(grid, list(zip(perp, par)))
        na, nb = lp_norm(perp, grid, 2), lp_norm(par, grid, 2)
        if na > 0 and nb > 0:
            assert abs(inner) < 1e-12 * na * nb


def test_leray_zero_mode_goes_to_perp():
    grid = make_grid(16, 2.0)
    const = transform(np.full((16, 16), 3.0), grid)
    zero = transform(np.zeros((16, 16)), grid)
    perp, par = leray_decompose((const, zero))
    assert perp[0].coeffs[0, 0] == pytest.approx(3.0 * grid.L**2)
    assert np.abs(par[0].coeffs).max() == 0.0


def test_leray_of_band_stacks_is_the_gathered_split(rng):
    # the same formula on a band stack: bit for bit the band of the half-lattice split
    grid = make_grid(64, 5.0)
    m = (random_field(grid, rng) * grid.dealias_mask, random_field(grid, rng) * grid.dealias_mask)
    band = grid.band
    for got, part in zip(leray_decompose(band.gather(np.stack(m)), band),
                         leray_decompose(m, grid), strict=True):
        assert np.array_equal(got, band.gather(np.stack(part)))


def test_derivative_commutes_with_leray(rng):
    grid = make_grid(32, 5.0)
    m = (random_field(grid, rng), random_field(grid, rng))
    perp, _ = leray_decompose(m, grid)
    d_then = derivative(perp[0], grid, (1, 0))
    perp2, _ = leray_decompose((derivative(m[0], grid, (1, 0)), derivative(m[1], grid, (1, 0))),
                               grid)
    assert np.abs(d_then - perp2[0]).max() < 1e-12 * max(
        1.0, np.abs(d_then).max()
    )


def test_lp_norm_sup_of_unit_bump():
    grid = make_grid(64, 20.0)
    f = sample(grid, lambda x1, x2: np.exp(-(x1**2 + x2**2)))
    assert lp_norm(f, grid, np.inf) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_gaussian_mass():
    # analytic oracle: integral of (1/4pi) exp(-|x|^2/4) over the plane is 1
    grid = make_grid(256, 40.0)
    g = sample(grid, lambda x1, x2: np.exp(-(x1**2 + x2**2) / 4.0) / (4 * np.pi))
    assert lp_norm(g, grid, 1) == pytest.approx(1.0, abs=1e-6)


def test_lp_norm_parseval(rng):
    grid = make_grid(64, 9.0)
    f = random_field(grid, rng)
    grid_sum = lp_norm(f, grid, 2)
    # half spectrum: columns other than k2 = 0, n/2 stand for two modes each
    parseval = np.sqrt(np.sum(grid.hermitian_weight * np.abs(f) ** 2)) / grid.L
    assert abs(grid_sum - parseval) < 1e-10 * parseval


def test_lp_norm_rejects_small_p(rng):
    grid = make_grid(16, 1.0)
    f = random_field(grid, rng)
    with pytest.raises(SpectralError):
        lp_norm(f, grid, 0.5)


def test_magnitude_and_lp_norm_of_several_fields(rng):
    grid = make_grid(32, 6.0)
    fields = [random_field(grid, rng) for _ in range(3)]
    values = [to_physical(f, grid) for f in fields]
    assert np.array_equal(magnitude(fields[0], grid), np.abs(values[0]))
    for k in (2, 3):
        rss = np.sqrt(sum(v**2 for v in values[:k]))
        assert np.array_equal(magnitude(fields[:k], grid), rss)
        assert np.array_equal(magnitude(np.stack(fields[:k]), grid), rss)
    pair = tuple(fields[:2])
    components = np.hypot(lp_norm(pair[0], grid, 2), lp_norm(pair[1], grid, 2))
    assert lp_norm(pair, grid, 2) == pytest.approx(components, rel=1e-14)
    with pytest.raises(SpectralError):
        lp_norm(pair, grid, 0.5)
    # one grid is passed: a stack of another n is rejected by its shape
    with pytest.raises(SpectralError, match=r"shape \(16, 9\) does not match grid n=32"):
        magnitude(random_state(make_grid(16, 6.0), rng), grid)


def test_sobolev_norm_basics(rng):
    grid = make_grid(32, 6.0)
    assert sobolev_norm(zero_state(grid), 3, grid) == 0.0
    X = random_state(grid, rng)
    l2 = np.sqrt(sum(lp_norm(c, grid, 2) ** 2 for c in X))
    assert sobolev_norm(X, 0, grid) == pytest.approx(l2, rel=1e-10)
    values = [sobolev_norm(X, s, grid) for s in range(4)]
    assert all(values[i] <= values[i + 1] for i in range(3))
    with pytest.raises(SpectralError):
        sobolev_norm(X, -1, grid)


@pytest.mark.parametrize("n, L", [(32, 6.0), (256, 200.0)])
@pytest.mark.parametrize("layout", ["half", "band"])
def test_l2_sobolev_norm_is_the_riemann_l2_norm(rng, layout, n, L):
    # an L^2-only norm is taken as a Parseval sum: the discrete identity is exact
    grid = make_grid(n, L)
    X = random_state(grid, rng)
    if layout == "band":
        band = grid.band
        stack = band.gather(X)
        X = band.scatter(stack)
        fourier = sobolev_norm(stack, 0, band)
    else:
        fourier = sobolev_norm(X, 0, grid)
    riemann = lp_norm(X, grid, 2)
    assert abs(fourier - riemann) <= 1e-14 * riemann


@pytest.mark.parametrize("layout", ["half", "band"])
def test_l2_sobolev_norm_uses_a_scalar_weight(rng, layout):
    # s = 0 weighs by 1, bit for bit the sum with a lattice of ones, and caches no weight
    grid = make_grid(512, 200.0)
    stack = random_state(grid, rng)
    lattice = grid if layout == "half" else grid.band
    if layout == "band":
        stack = lattice.gather(stack)
    ones = (1.0 + lattice.eta_sq) ** 0
    expected = float(np.sqrt(parseval_sum(lattice, [(c, c) for c in stack], ones)))
    assert sobolev_norm(stack, 0, lattice) == expected
    assert 0 not in lattice.__dict__.get("_sobolev_weights", {})
    assert sobolev_norm(stack, 1, lattice) > expected
    assert 1 in lattice.__dict__["_sobolev_weights"]


def test_realness_of_roundtrip(rng):
    grid = make_grid(32, 3.0)
    f = random_field(grid, rng)
    assert hermitian_defect(f, grid) < 1e-14 * max(1.0, np.abs(f).max())


def test_field_operations_reject_spectra_of_another_shape(rng):
    # the grid is passed beside each array, and its shape is checked; a spectrum of the
    # same n on a box of another L has the grid's shape, and passes
    grid = make_grid(32, 6.0)
    f, other = random_field(grid, rng), random_field(make_grid(16, 6.0), rng)
    for op in (lambda c: derivative(c, grid, (1, 0)), lambda c: gradient(c, grid),
               lambda c: curl((c, c), grid), lambda c: magnitude(c, grid),
               lambda c: lp_norm(c, grid, 2), lambda c: hermitian_defect(c, grid),
               lambda c: to_physical(c, grid)):
        with pytest.raises(SpectralError, match=r"shape \(16, 9\) does not match grid n=32"):
            op(other)
        op(f)
    assert lp_norm(random_field(make_grid(32, 7.0), rng), grid, 2) > 0.0


@pytest.mark.parametrize("p", [np.nan, -np.inf, 0.5])
def test_lebesgue_exponent_must_satisfy_p_at_least_1(p):
    # `not p >= 1`: a NaN exponent returned NaN, or 1.0 for a magnitude of 1
    grid = make_grid(16, 1.0)
    with pytest.raises(SpectralError, match="p >= 1"):
        lp_of_magnitude(np.ones((16, 16)), grid, p)


@pytest.mark.parametrize("s", [1.5, np.nan, np.inf, "1"])
def test_sobolev_index_must_be_an_integer(rng, s):
    # 1.5 was truncated to 1, and NaN raised a bare ValueError
    grid = make_grid(16, 1.0)
    X = random_state(grid, rng)
    with pytest.raises(SpectralError, match=f"Sobolev index must be an integer, got {s!r}"):
        sobolev_norm(X, s, grid)
    assert sobolev_norm(X, 1.0, grid) == sobolev_norm(X, 1, grid)
    assert sobolev_norm(X, np.int64(2), grid) == sobolev_norm(X, 2, grid)


@pytest.mark.parametrize("sigma", [(1.7, 0), (0, np.nan), (np.inf, 0)])
def test_multi_index_entries_must_be_integers(sigma):
    # (1.7, 0) was truncated to (1, 0)
    with pytest.raises(SpectralError, match=r"multi-index .* entry must be an integer"):
        as_multi_index(sigma)
    assert as_multi_index((2.0, np.int64(1))) == (2, 1)
