"""Excursion areas, chaos projections, and the chi-square oracle."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandsphere import chaos as ch
from bandsphere import experiments as ex
from bandsphere import field as fm
from bandsphere.grid import build_grid
from bandsphere.specfun import FOUR_PI, gaussian_cdf, hermite_all, jq_coefficient
from references import chaos_projection, integrate, ks_statistic


@pytest.fixture(scope="module")
def small_batch():
    """2000 replicates at n=24 with area and low-order chaos functionals."""
    spec = fm.make_spec(24, 0.5)
    grid = build_grid(4 * spec.n)
    reps = 2000
    areas = np.empty(reps)
    h = np.empty((reps, 5))
    h2x = np.empty(reps)
    samples = []
    for r in range(reps):
        coeffs = fm.sample_coefficients(spec, fm.replicate_rng(99, r))
        sample = fm.synthesize(coeffs, grid)
        h[r] = ch.chaos_integrals(sample, 4)
        h2x[r] = ch.h2_exact_from_coeffs(coeffs)
        areas[r] = ch.excursion_area(sample, 1.0).area
        if r < 3:
            samples.append(sample)
    return spec, grid, areas, h, h2x, samples


def test_excursion_full_sphere(small_batch):
    _, _, _, _, _, samples = small_batch
    res = ch.excursion_area(samples[0], -10.0)
    assert res.area == pytest.approx(FOUR_PI, abs=1e-9)
    assert ch.excursion_area(samples[0], 10.0).area == 0.0


def test_excursion_mean_area(small_batch):
    _, _, areas, _, _, _ = small_batch
    target = FOUR_PI * (1.0 - gaussian_cdf(1.0))
    se = areas.std(ddof=1) / math.sqrt(areas.size)
    assert abs(areas.mean() - target) <= 3.0 * se


def test_excursion_complementary_symmetry(small_batch):
    spec, grid, _, _, _, samples = small_batch
    s = samples[1]
    flipped = fm.FieldSample(spec=spec, grid=grid, values=-s.values)
    total = ch.excursion_area(s, 0.0).area + ch.excursion_area(flipped, 0.0).area
    assert total == pytest.approx(FOUR_PI, abs=1e-9)


def test_excursion_monotone_in_u(small_batch):
    _, _, _, _, _, samples = small_batch
    s = samples[2]
    us = np.linspace(-3, 3, 25)
    areas = [ch.excursion_area(s, float(u)).area for u in us]
    assert all(a >= b for a, b in zip(areas, areas[1:]))


def test_areas_within_bounds(small_batch):
    _, _, areas, _, _, _ = small_batch
    assert np.all(areas >= 0.0) and np.all(areas <= FOUR_PI)


def test_first_chaos_vanishes(small_batch):
    _, _, _, h, _, _ = small_batch
    # quadrature of H_1(field) is the band-limited mean: zero up to roundoff
    assert np.abs(h[:, 1]).max() <= 1e-9


def test_second_chaos_quadrature_equals_coefficient_route(small_batch):
    _, _, _, h, h2x, _ = small_batch
    assert np.abs(h[:, 2] - h2x).max() <= 1e-8


def test_chaos_projection_api(small_batch):
    _, _, _, h, _, samples = small_batch
    proj = chaos_projection(samples[0], 2)
    assert proj.value == pytest.approx(h[0, 2], abs=1e-12)
    with pytest.raises(ValueError):
        chaos_projection(samples[0], 0)


def test_chaos_projection_warns_on_coarse_grid():
    spec = fm.make_spec(16, 0.5)
    grid = build_grid(spec.n)  # resolves degree n only
    sample = fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(3, 0)), grid)
    with pytest.warns(UserWarning, match="not exact"):
        chaos_projection(sample, 3)


def test_h2_constant_unit_field_is_zero():
    spec = fm.make_spec(8, 0.5)
    grid = build_grid(2 * spec.n)
    synthetic = fm.FieldSample(spec=spec, grid=grid, values=np.ones((grid.n_theta, grid.n_phi)))
    assert ch.chaos_integrals(synthetic, 2)[2] == pytest.approx(0.0, abs=1e-12)


def test_h2_exact_centered_and_scaled():
    # mean -> 0 and variance -> 2 (4 pi)^2 / D at the chi-square rates
    spec = fm.make_spec(10, 0.5)
    rng = fm.replicate_rng(41, 0)
    reps = 100_000
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = ch.h2_exact_from_coeffs(fm.sample_coefficients(spec, rng))
    d = spec.dof
    se_mean = spec.c_norm * math.sqrt(2.0 * d / reps)
    assert abs(vals.mean()) <= 3.0 * se_mean
    target = ch.h2_variance_formula(spec)
    se_var = target * math.sqrt((2.0 + 12.0 / d) / reps) * math.sqrt(2.0)
    assert abs(vals.var(ddof=1) - target) <= 3.0 * se_var


def test_h2_variance_formula_reference():
    assert ch.h2_variance_formula(fm.make_spec(100, 0.5)) == pytest.approx(
        0.2685606639752206, rel=1e-12
    )


def test_h2_direct_matches_exact_in_distribution():
    spec = fm.make_spec(30, 0.5)
    rng = fm.replicate_rng(11, 1)
    a = np.array(
        [ch.h2_exact_from_coeffs(fm.sample_coefficients(spec, rng)) for _ in range(10_000)]
    )
    b = ch.h2_sample_direct(spec, fm.replicate_rng(11, 2), size=10_000)
    stat = pytest.importorskip("scipy.stats").ks_2samp(a, b).statistic
    assert stat < ex.KS_COEFF_1PCT * math.sqrt((a.size + b.size) / (a.size * b.size))


def test_h2_direct_mean_and_clt():
    spec = fm.make_spec(100, 0.5)
    draws = ch.h2_sample_direct(spec, fm.replicate_rng(13, 0), size=10_000)
    assert abs(draws.mean()) <= 3.0 * draws.std(ddof=1) / math.sqrt(draws.size)
    assert spec.dof >= 1000
    z = (draws - draws.mean()) / draws.std(ddof=1)
    assert ks_statistic(z) < ex.ks_critical_one_sample(draws.size)


def test_functional_orthogonality(small_batch):
    _, _, _, h, _, _ = small_batch
    reps = h.shape[0]
    for p in range(1, 5):
        for q in range(p + 1, 5):
            prod = h[:, p] * h[:, q]
            cov = prod.mean() - h[:, p].mean() * h[:, q].mean()
            se = prod.std(ddof=1) / math.sqrt(reps)
            assert abs(cov) <= 3.0 * se + 1e-15


def test_chaos_variance_prediction_leading_term():
    # the q = 2 term of the prediction chaos_weight(q, u) * chaos_variance(spec, q)
    # is the leading term u^2 phi(u)^2 / 4 * 2 (4 pi)^2 / D
    spec = fm.make_spec(100, 0.5)
    leading = ex.chaos_weight(2, 1.0) * ch.h2_variance_formula(spec)
    phi1 = 0.24197072451914337
    expected = phi1**2 / 4.0 * 2.0 * FOUR_PI**2 / 1176
    assert leading == pytest.approx(expected, rel=1e-12)
    # leading coefficient scaled by D reproduces 32 pi^2 u^2 phi(1)^2 / 4 = 4.6229
    assert leading * spec.dof == pytest.approx(4.622909399163687, rel=1e-12)
    assert ex.chaos_weight(2, 1.0) * ch.chaos_variance(spec, 2) == pytest.approx(leading, rel=1e-12)


def test_chaos_variance_prediction_vanishes_at_zero_threshold():
    spec = fm.make_spec(64, 0.5)
    assert ex.chaos_weight(2, 0.0) * ch.h2_variance_formula(spec) == 0.0
    assert jq_coefficient(2, 0.0) == 0.0


@functools.cache
def _sweep_row_n64_q6():
    """Row of a 3000-replicate sweep at n = 64, beta 0.5, q_max 6, seed 7."""
    cfg = ex.ExperimentConfig(n_list=(64,), beta=0.5, u=1.0, replicates=3000, master_seed=7, q_max=6)
    return ex.run_variance_sweep(cfg).rows[0]


def test_partial_sum_accounts_for_variance():
    # sum over q = 2..6 of J_q^2/q!^2 Var(h_q), exact, captures >= 95% of Var_hat(S(1))
    spec = fm.make_spec(64, 0.5)
    row = _sweep_row_n64_q6()
    total = sum(ex.chaos_weight(q, 1.0) * ch.chaos_variance(spec, q) for q in range(2, 7))
    assert total >= 0.95 * row.var_s_hat


def test_chaos_variance_matches_sweep_estimates():
    # the sweep's Var_hat(h_q) sits within 3 SE of the exact Var(h_q) for q = 3, 4;
    # no such gate above q = 4, where the sample variance is too skewed at 3000 draws
    spec = fm.make_spec(64, 0.5)
    row = _sweep_row_n64_q6()
    for q in (3, 4):
        assert abs(row.var_hq[q] - ch.chaos_variance(spec, q)) <= 3.0 * row.var_hq_se[q]


def test_chaos_variance_second_order_is_the_chi_square_variance():
    specs = [fm.full_band_spec(n) for n in range(4, 65)] + [fm.make_spec(n, 0.5) for n in range(16, 257)]
    for spec in specs:
        assert ch.chaos_variance(spec, 2) == pytest.approx(ch.h2_variance_formula(spec), rel=1e-12)


def test_chaos_variance_matches_numpy_legendre_reference():
    # Gamma as a Legendre series, raised to the q-th power by numpy's series
    # product; the integral over [-1, 1] of sum_l c_l P_l is 2 c_0, exactly
    from numpy.polynomial import legendre

    for spec in (fm.make_spec(12, 0.5), fm.make_spec(16, 0.5), fm.make_spec(20, 0.3), fm.full_band_spec(6),
                 fm.full_band_spec(12)):
        ell = np.arange(spec.ell_min, spec.n + 1)
        gamma_coeffs = np.zeros(spec.n + 1)
        gamma_coeffs[ell] = spec.c_norm * (2 * ell + 1) / FOUR_PI
        for q in range(2, 7):
            expected = math.factorial(q) * 8.0 * math.pi**2 * 2.0 * legendre.legpow(gamma_coeffs, q)[0]
            assert ch.chaos_variance(spec, q) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        ch.chaos_variance(fm.full_band_spec(6), 0)


def test_chaos_variance_regression_values():
    # the scaled higher-chaos variances that criterion 10 bands, at n = 64, beta 0.5
    spec = fm.make_spec(64, 0.5)
    assert ch.chaos_variance(spec, 3) * 64**2 == pytest.approx(184.1, abs=0.05)
    assert ch.chaos_variance(spec, 4) * 64**2 / math.log(64) == pytest.approx(371.5, abs=0.05)


@functools.cache
def _fixed_sample():
    spec = fm.make_spec(10, 0.5)
    grid = build_grid(2 * spec.n)
    return fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(0, 0)), grid)


@given(u=st.floats(-4, 4))
@settings(max_examples=20, deadline=None)
def test_excursion_between_thresholds_property(u):
    # monotone bounds hold for any threshold on a fixed realization
    sample = _fixed_sample()
    area = ch.excursion_area(sample, u).area
    assert 0.0 <= area <= FOUR_PI
    assert ch.excursion_area(sample, u - 0.5).area >= area


@pytest.mark.parametrize("spec", [fm.make_spec(20, 0.5), fm.full_band_spec(10)], ids=["band", "full_band"])
def test_chaos_integrals_match_hermite_quadrature(spec):
    grid = build_grid(6 * spec.n + 1)
    for r in range(3):
        sample = fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(8, r)), grid)
        got = ch.chaos_integrals(sample, 6)
        expected = [integrate(grid, hq) for hq in hermite_all(6, sample.values)]
        assert np.abs(got - expected).max() <= 1e-12


def test_excursion_area_matches_indicator_quadrature():
    spec = fm.make_spec(20, 0.5)
    grid = build_grid(4 * spec.n)
    sample = fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(4, 0)), grid)
    for u in (-2.0, -0.5, 0.0, 1.0, 2.5):
        expected = integrate(grid, (sample.values > u).astype(float))
        assert abs(ch.excursion_area(sample, u).area - expected) <= 1e-12
