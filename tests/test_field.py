"""Ensemble spec arithmetic, coefficient law, and synthesis checks."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandsphere import field as fm
from bandsphere import specfun as sf
from bandsphere.grid import build_grid
from references import integrate

FOUR_PI = 4 * math.pi


def test_make_spec_reference_values():
    spec = fm.make_spec(100, 0.5)
    assert spec.alpha == pytest.approx(0.9486832980505138, abs=1e-15)
    assert spec.ell_min == 95
    assert spec.dof == 101**2 - 95**2 == 1176
    assert spec.c_norm * spec.dof == pytest.approx(FOUR_PI, abs=0)
    # the idealized count n^(2-beta) + 2n + 1 would be 1201; the integer band
    # edge makes the exact count differ whenever alpha*n is not an integer
    assert 100 ** 1.5 + 201 == 1201.0
    assert spec.dof != 1201


def test_make_spec_rejects_boundary_beta():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            fm.make_spec(64, bad)
    with pytest.raises(ValueError):
        fm.make_spec(1, 0.5)


def test_band_rounding_switch():
    up = fm.make_spec(100, 0.5, band_rounding="ceil")
    down = fm.make_spec(100, 0.5, band_rounding="floor")
    assert up.ell_min == 95 and down.ell_min == 94
    with pytest.raises(ValueError):
        fm.make_spec(100, 0.5, band_rounding="nearest")


def test_boundary_mode_specs():
    one = fm.single_ell_spec(40)
    assert one.ell_min == one.n == 40 and one.dof == 81
    full = fm.full_band_spec(40)
    assert full.ell_min == 0 and full.dof == 41**2


@given(n=st.integers(2, 2000), beta=st.floats(0.01, 0.99))
@settings(max_examples=80, deadline=None)
def test_spec_arithmetic_property(n, beta):
    spec = fm.make_spec(n, beta)
    alpha = math.sqrt(1.0 - n ** (-beta))
    assert 0.0 < spec.alpha < 1.0
    assert spec.alpha == pytest.approx(alpha, abs=1e-15)
    assert spec.ell_min == math.ceil(alpha * n)
    assert spec.ell_min <= spec.n
    assert spec.dof == (n + 1) ** 2 - spec.ell_min**2 >= 1
    assert spec.c_norm * spec.dof == pytest.approx(FOUR_PI, rel=1e-15)


def test_sample_determinism():
    spec = fm.make_spec(20, 0.5)
    a = fm.sample_coefficients(spec, fm.replicate_rng(123, 7))
    b = fm.sample_coefficients(spec, fm.replicate_rng(123, 7))
    assert np.array_equal(a.matrix, b.matrix)
    c = fm.sample_coefficients(spec, fm.replicate_rng(123, 8))
    assert not np.array_equal(a.matrix, c.matrix)


def test_coefficient_count_and_accessor():
    spec = fm.make_spec(12, 0.4)
    coeffs = fm.sample_coefficients(spec, fm.replicate_rng(5, 0))
    assert np.count_nonzero(coeffs.matrix) == spec.dof


def test_coefficient_entries_standard_normal():
    # entries of one large draw have mean ~ 0 and variance ~ 1 at 3 SE
    spec = fm.make_spec(100, 0.5)
    coeffs = fm.sample_coefficients(spec, fm.replicate_rng(13, 0))
    entries = coeffs.matrix[np.nonzero(coeffs.matrix)]
    assert entries.size == spec.dof == 1176
    assert abs(entries.mean()) <= 3.0 / math.sqrt(spec.dof)
    assert abs(entries.var(ddof=1) - 1.0) <= 3.0 * math.sqrt(2.0 / spec.dof)


def test_sum_of_squares_is_chi_square():
    # mean of sum(coeffs^2) over draws approaches D at the chi-square rate
    spec = fm.make_spec(10, 0.5)
    reps = 100_000
    rng = fm.replicate_rng(2024, 0)
    total = 0.0
    for _ in range(reps):
        total += fm.sample_coefficients(spec, rng).sum_of_squares()
    mean = total / reps
    tol = 3.0 * math.sqrt(2.0 * spec.dof / reps)
    assert abs(mean - spec.dof) <= tol
    # E[c_norm * sum coeffs^2] = 4*pi
    assert abs(spec.c_norm * mean - FOUR_PI) <= 3.0 * spec.c_norm * math.sqrt(2 * spec.dof / reps)


def test_synthesize_single_coefficient_is_scaled_harmonic():
    spec = fm.make_spec(16, 0.5)
    grid = build_grid(2 * spec.n)
    matrix = np.zeros((spec.band_width, 2 * spec.n + 1))
    ell = spec.ell_min + 1
    matrix[ell - spec.ell_min, spec.n] = 1.0  # (ell, m=0)
    sample = fm.synthesize(fm.HarmonicCoefficients(spec=spec, matrix=matrix), grid)
    band = sf.assoc_legendre_band(ell, ell, grid.cos_nodes)
    expected = math.sqrt(spec.c_norm) * np.outer(band[0, 0], np.ones(grid.n_phi))
    assert np.abs(sample.values - expected).max() <= 1e-10


def test_synthesize_rejects_under_resolved_grid():
    spec = fm.make_spec(32, 0.5)
    grid = build_grid(16)
    coeffs = fm.sample_coefficients(spec, fm.replicate_rng(0, 0))
    with pytest.raises(ValueError):
        fm.synthesize(coeffs, grid)


def test_synthesize_bit_determinism():
    spec = fm.make_spec(18, 0.5)
    grid = build_grid(2 * spec.n)
    v1 = fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(77, 4)), grid).values
    v2 = fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(77, 4)), grid).values
    assert np.array_equal(v1, v2)


def test_unit_variance_at_pole():
    # at the pole only m=0 contributes: T(N) = sqrt(c_norm) sum_l c_{l,0} sqrt((2l+1)/4pi)
    spec = fm.make_spec(10, 0.5)
    rng = fm.replicate_rng(314, 0)
    amp = np.sqrt((2 * np.arange(spec.ell_min, spec.n + 1) + 1) / FOUR_PI)
    reps = 10_000
    vals = np.empty(reps)
    for r in range(reps):
        coeffs = fm.sample_coefficients(spec, rng)
        c0 = coeffs.matrix[:, spec.n]
        vals[r] = math.sqrt(spec.c_norm) * float(np.dot(c0, amp))
    var = vals.var()
    assert abs(var - 1.0) <= 3.0 * math.sqrt(2.0 / reps)


def test_unit_variance_weighted_over_nodes():
    # quadrature-weighted second moment over the grid equals chi2_D / D per
    # realization; its average over replicates approaches 1
    spec = fm.make_spec(16, 0.5)
    grid = build_grid(2 * spec.n)
    rng = fm.replicate_rng(55, 0)
    reps = 60
    acc = 0.0
    for _ in range(reps):
        sample = fm.synthesize(fm.sample_coefficients(spec, rng), grid)
        acc += integrate(grid, sample.values**2) / FOUR_PI
    assert abs(acc / reps - 1.0) <= 3.0 * math.sqrt(2.0 / (spec.dof * reps))


def test_isotropy_smoke_node_variance():
    spec = fm.make_spec(16, 0.5)
    grid = build_grid(2 * spec.n)
    rng = fm.replicate_rng(2718, 0)
    reps = 1500
    vals = np.empty(reps)
    for r in range(reps):
        sample = fm.synthesize(fm.sample_coefficients(spec, rng), grid)
        vals[r] = sample.values[grid.n_theta // 3, 7]
    assert abs(vals.var() - 1.0) <= 3.0 * math.sqrt(2.0 / reps)


def test_field_csv_dump(tmp_path):
    spec = fm.make_spec(8, 0.5)
    grid = build_grid(2 * spec.n)
    sample = fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(1, 0)), grid)
    path = tmp_path / "field.csv"
    fm.write_field_csv(sample, str(path), header_lines=("seed = 1",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 1"
    assert lines[1] == "theta_index,phi_index,value"
    assert len(lines) == 2 + grid.n_theta * grid.n_phi
    i, j, v = lines[2].split(",")
    assert (int(i), int(j)) == (0, 0)
    assert float(v) == sample.values[0, 0]


def test_field_csv_golden_bytes():
    # theta_index,phi_index as integers, each value as f"{v:.16e}", and NaN
    # as an empty field, one block of the writer per colatitude
    rng = np.random.default_rng(5)
    grid = build_grid(16)
    shape = (grid.n_theta, grid.n_phi)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    special = [-0.0, 0.0, math.inf, -math.inf, 5e-324, math.nan, 1e300, -1e-300]
    values[1, : len(special)] = special
    sample = fm.FieldSample(spec=fm.make_spec(8, 0.5), grid=grid, values=values)
    buf = io.StringIO()
    fm.write_field_csv(sample, buf, header_lines=("seed = 1", "n = 8"))
    expect = "# seed = 1\n# n = 8\ntheta_index,phi_index,value\n" + "".join(
        f"{i},{j},{'' if v != v else f'{v:.16e}'}\n"
        for i, row in enumerate(values.tolist()) for j, v in enumerate(row)
    )
    assert buf.getvalue() == expect


def full_node_sum(coeffs, grid):
    """Reference synthesis: the whole band table on every grid node and a
    direct cos/sin sum over m, with no parity split and no FFT."""
    spec = coeffs.spec
    n = spec.n
    table = sf.assoc_legendre_band(spec.ell_min, n, grid.cos_nodes)  # [m, l, t]
    a = np.einsum("lm,mlt->tm", coeffs.matrix[:, n:], table)
    b = np.einsum("lm,mlt->tm", coeffs.matrix[:, n::-1], table)
    mphi = np.outer(np.arange(n + 1), grid.phi_nodes)
    values = a[:, :1] + math.sqrt(2.0) * (a[:, 1:] @ np.cos(mphi[1:]) + b[:, 1:] @ np.sin(mphi[1:]))
    return math.sqrt(spec.c_norm) * values


@pytest.mark.parametrize("make", [
    lambda: fm.make_spec(20, 0.5),
    lambda: fm.make_spec(17, 0.3, band_rounding="floor"),
    lambda: fm.full_band_spec(12),
    lambda: fm.single_ell_spec(15),
], ids=["make_spec", "make_spec_floor", "full_band", "single_ell"])
@pytest.mark.parametrize("times, extra", [(2, 0), (2, 1), (2, 2), (2, 3), (1, 0), (1, 1)],
                         ids=["0", "1", "2", "3", "n", "n+1"])
def test_synthesize_matches_full_node_sum(monkeypatch, make, times, extra):
    # grid degrees 2n..2n+3 give both parities of n_theta; on degrees n and
    # n + 1, n_phi <= 2n, so orders above n_phi / 2 fold onto lower bins and
    # the Nyquist bin carries a mode
    spec = make()
    grid = build_grid(times * spec.n + extra)
    assert times == 2 or grid.n_phi <= 2 * spec.n
    coeffs = fm.sample_coefficients(spec, fm.replicate_rng(31, spec.n, extra))
    values = fm.synthesize(coeffs, grid).values
    assert np.abs(values - full_node_sum(coeffs, grid)).max() <= 1e-12
    if times == 1:  # the fold runs on every block: one row each gives the same bits
        monkeypatch.setattr(fm, "_BLOCK_BYTES", 1)
        assert np.array_equal(fm.synthesize(coeffs, grid).values, values)


def test_field_blocks_cover_every_row_once():
    spec = fm.make_spec(20, 0.5)
    coeffs = fm.sample_coefficients(spec, fm.replicate_rng(5, spec.n))
    for grid in (build_grid(80), build_grid(81)):  # both parities of n_theta
        whole = fm.synthesize(coeffs, grid).values
        seen = np.zeros(grid.n_theta, dtype=int)
        for rows, values in fm.field_blocks(coeffs, grid):
            seen[rows] += 1
            assert values.shape == (len(range(grid.n_theta)[rows]), grid.n_phi)
            assert np.array_equal(values, whole[rows])
        assert (seen == 1).all()


def parity_split_reference(coeffs, grid):
    """The field by the even/odd split: the coefficients of even and of odd
    l + m contracted separately against the northern table, each northern row
    read as even + odd and its southern mirror as even - odd, then one
    whole-grid zero-padded irfft."""
    spec = coeffs.spec
    n = spec.n
    scale = np.full(n + 1, math.sqrt(0.5 * spec.c_norm))
    scale[0] = math.sqrt(spec.c_norm)
    parts = np.stack((coeffs.matrix[:, n:] * scale, coeffs.matrix[:, n::-1] * -scale))  # [re/im, l, m]
    parts[1, :, 0] = 0.0
    ell = np.arange(spec.ell_min, n + 1)
    odd = parts * ((ell[:, None] + np.arange(n + 1)) % 2)
    split = np.concatenate((parts - odd, odd)).transpose(2, 0, 1)  # [m, (re, im) x (even, odd), l]
    rows = np.matmul(np.ascontiguousarray(split), fm.band_table(spec, grid))
    even, odd = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]  # [m, t]
    amp = np.concatenate(((even + odd).T, (even - odd)[:, : grid.n_theta // 2].T[::-1]))  # [theta, m]
    half = grid.n_phi // 2
    spectrum = np.zeros((grid.n_theta, half + 1), dtype=complex)
    spectrum[:, : min(n, half) + 1] = amp[:, : half + 1]
    folded = np.arange(half + 1, n + 1)
    spectrum[:, grid.n_phi - folded] += amp[:, folded].conj()
    if n >= half:
        spectrum[:, half] = 2.0 * spectrum[:, half].real
    return np.fft.irfft(spectrum, n=grid.n_phi, axis=1, norm="forward")


@pytest.mark.parametrize("beta", [0.5, 0.8])
@pytest.mark.parametrize("times, extra", [(2, 0), (2, 2), (1, 0), (1, 1)], ids=["2n", "2n+2", "n", "n+1"])
def test_signed_contraction_matches_the_parity_split(beta, times, extra):
    # the sign (-1)^(l+m) on the coefficients gives the southern rows in the
    # same matmul; it rounds differently from even - odd, by about an ulp
    spec = fm.make_spec(64, beta)
    grid = build_grid(times * spec.n + extra)
    assert times == 2 or grid.n_phi <= 2 * spec.n
    coeffs = fm.sample_coefficients(spec, fm.replicate_rng(7, spec.n, extra))
    values = fm.synthesize(coeffs, grid).values
    reference = parity_split_reference(coeffs, grid)
    assert np.abs(values - reference).max() <= 1e-15 * np.abs(reference).max()


def test_band_table_is_northern_half():
    for spec, degree in ((fm.make_spec(40, 0.5), 160), (fm.make_spec(40, 0.5), 161), (fm.full_band_spec(9), 36)):
        grid = build_grid(degree)
        table = fm.band_table(spec, grid)
        north = (grid.n_theta + 1) // 2
        assert table.shape == (spec.n + 1, spec.band_width, north)
        assert table.flags.c_contiguous
        assert table.nbytes == fm.band_table_bytes(spec, grid.n_theta)
        assert table.nbytes == 8 * spec.band_width * (spec.n + 1) * math.ceil(grid.n_theta / 2)
        full = sf.assoc_legendre_band(spec.ell_min, spec.n, grid.cos_nodes)
        assert np.array_equal(table, full[:, :, :north])
        # parity on the mirrored southern nodes: N_l^m(-x) = (-1)^(l+m) N_l^m(x)
        ell = np.arange(spec.ell_min, spec.n + 1)
        sign = (-1.0) ** (np.arange(spec.n + 1)[:, None] + ell)
        south = full[:, :, ::-1][:, :, :north]
        assert np.abs(south - sign[:, :, None] * full[:, :, :north]).max() <= 1e-13


def test_band_table_build_peaks_near_one_table():
    # the recurrence writes the (m, l, t) table in place: no second copy, on
    # the full band and on a narrow one
    import tracemalloc

    for spec, grid in ((fm.full_band_spec(64), build_grid(128)), (fm.make_spec(512, 0.5), build_grid(2048))):
        fm.clear_table_cache()
        tracemalloc.start()
        try:
            table = fm.band_table(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == fm.band_table_bytes(spec, grid.n_theta)
        assert peak <= 1.25 * fm.band_table_bytes(spec, grid.n_theta)


def test_band_table_build_peaks_within_a_tenth_of_the_table_at_n512():
    # the scaling sweep's largest table (25 MB): the recurrence's buffers
    # cover one block of colatitudes, not the whole table
    import tracemalloc

    spec, grid = fm.make_spec(512, 0.5), build_grid(2048)
    north = grid.cos_nodes[: (grid.n_theta + 1) // 2]
    tracemalloc.start()
    try:
        table = sf.assoc_legendre_band(spec.ell_min, spec.n, north)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == fm.band_table_bytes(spec, grid.n_theta)
    assert peak <= 1.1 * table.nbytes


def _profile_csv(out):
    from bandsphere import covariance as cv

    prof = cv.profile(fm.make_spec(50, 0.5), np.linspace(0.0, 30.0, 40))
    cv.write_profile_csv(prof, out, header_lines=("n = 50", "beta = 0.5"))


def _field_csv(out):
    spec = fm.make_spec(8, 0.5)
    sample = fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(1, 0)), build_grid(2 * spec.n))
    fm.write_field_csv(sample, out, header_lines=("seed = 1",))


def _replicate_csv(out):
    from bandsphere import experiments as ex

    cfg = ex.ExperimentConfig(n_list=(12,), beta=0.5, replicates=100, master_seed=3, q_max=3)
    ex.write_replicate_csv(ex.run_variance_sweep(cfg), 12, out, header_lines=("master_seed = 3",))


@pytest.mark.parametrize("write", [_profile_csv, _field_csv, _replicate_csv], ids=["profile", "field", "replicate"])
def test_csv_writer_path_and_stream_agree(tmp_path, write):
    import io

    path = tmp_path / "out.csv"
    write(str(path))
    buf = io.StringIO()
    write(buf)
    assert not buf.closed
    assert path.read_text() == buf.getvalue()
    assert buf.getvalue().startswith("# ")
