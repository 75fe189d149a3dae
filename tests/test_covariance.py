"""Covariance evaluators: closed-form identity, Bessel approximation error
scaling, rescaled-regime convergence, profile CSV round-trip."""

import io
import math

import numpy as np
import pytest

from bandsphere import covariance as cv
from bandsphere import field as fm
from bandsphere.grid import build_grid


def test_gamma_exact_unit_at_zero():
    spec = fm.make_spec(100, 0.5)
    assert cv.gamma_exact(spec, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert cv.gamma_cd(spec, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_gamma_is_exactly_one_at_zero_angle():
    # both forms divide by the integer D: scaling by c_norm / (4 pi) rounded
    # Gamma(0) to 0.99999999999999989 at n = 200 and at 499 of n = 2..2000
    spec = fm.make_spec(200, 0.5)
    assert cv.gamma_exact(spec, 0.0) == cv.gamma_cd(spec, 0.0) == 1.0
    for n in [*range(2, 401), *range(401, 2001, 199)]:
        spec = fm.make_spec(n, 0.5)
        assert cv.gamma_exact(spec, 0.0) == cv.gamma_cd(spec, 0.0) == 1.0, n
    assert cv.gamma_at_cos(fm.full_band_spec(50), np.ones(3)).tolist() == [1.0, 1.0, 1.0]


def test_gamma_exact_unit_at_zero_and_equal_to_cd_at_large_n():
    # n = 6400 is the largest n the covariance benchmark runs; a recurrence
    # that rounds P_l(1) away from 1 moves Gamma(0) by ~1e-11 here
    spec = fm.make_spec(6400, 0.5)
    psi = np.linspace(0.0, spec.alpha * spec.n * (math.pi - 0.05), 2001)
    theta = cv.psi_to_theta(spec, psi)
    exact = cv.gamma_exact(spec, theta)
    assert exact[0] == 1.0
    assert np.abs(exact - cv.gamma_cd(spec, theta)).max() <= 1e-10


def test_gamma_exact_correlation_bound():
    spec = fm.make_spec(64, 0.7)
    th = np.linspace(0, math.pi, 500)
    assert np.abs(cv.gamma_exact(spec, th)).max() <= 1.0 + 1e-12


def test_exact_equals_cd_at_random_angles():
    rng = np.random.default_rng(17)
    for n in (64, 256, 512):
        spec = fm.make_spec(n, 0.5)
        th = rng.uniform(0.0, math.pi, 200)
        assert np.abs(cv.gamma_exact(spec, th) - cv.gamma_cd(spec, th)).max() <= 1e-10


def test_single_ell_reduces_to_legendre():
    # one-frequency band: covariance is P_n(cos theta); at n = 1 that is cos(theta)
    one = fm.single_ell_spec(1)
    for t in (0.0, 0.3, 1.2, 2.9):
        assert cv.gamma_exact(one, t) == pytest.approx(math.cos(t), abs=1e-14)
        assert cv.gamma_cd(one, t) == pytest.approx(math.cos(t), abs=1e-13)


def test_gamma_domain_errors():
    spec = fm.make_spec(32, 0.5)
    with pytest.raises(ValueError):
        cv.gamma_exact(spec, -0.1)
    with pytest.raises(ValueError):
        cv.gamma_cd(spec, math.pi + 0.1)
    with pytest.raises(ValueError):
        cv.gamma_hilb(spec, 1e-6)  # below validity window
    with pytest.raises(ValueError):
        cv.gamma_lemma1(spec, 0.5)  # psi <= 1


def test_hilb_error_envelope_at_n200():
    n = 200
    spec = fm.make_spec(n, 0.5)
    th = np.linspace(1.0 / n, math.pi - 0.1, 3000)
    err = np.abs(cv.gamma_hilb(spec, th, c=0.9) - cv.gamma_exact(spec, th))
    k_fit = (err / (np.sqrt(th) * n**-1.5 * n * spec.c_norm)).max()
    assert k_fit <= 10.0


def test_hilb_error_decreases_with_n():
    errs = {}
    for n in (200, 400):
        spec = fm.make_spec(n, 0.5)
        th = np.linspace(1.0 / n, math.pi - 0.1, 3000)
        errs[n] = np.abs(cv.gamma_hilb(spec, th, c=0.9) - cv.gamma_exact(spec, th)).max()
    assert errs[400] < errs[200]


def test_hilb_finite_near_right_edge():
    spec = fm.make_spec(128, 0.5)
    v = cv.gamma_hilb(spec, math.pi - 0.100001)
    assert np.isfinite(v)


def test_lemma1_regime1_convergence():
    devs = []
    for n in (100, 400, 1600):
        spec = fm.make_spec(n, 0.5)
        split = cv.lemma1_regime_boundary(spec)
        psi = np.linspace(1.0001, split * 0.9999, 1200)
        approx = cv.gamma_lemma1(spec, psi)
        exact = cv.gamma_exact(spec, cv.psi_to_theta(spec, psi))
        devs.append(np.abs(approx - exact).max() / np.abs(exact).max())
    assert devs[0] > devs[1] > devs[2]


def test_lemma1_regime_boundary_both_branches_evaluable():
    spec = fm.make_spec(100, 0.5)
    split = cv.lemma1_regime_boundary(spec)
    below = cv.gamma_lemma1(spec, split * (1 - 1e-9))
    above = cv.gamma_lemma1(spec, split)
    assert np.isfinite(below) and np.isfinite(above)


def test_lemma1_regime2_envelope_factor_two_at_n400():
    spec = fm.make_spec(400, 0.5)
    lo = cv.lemma1_regime_boundary(spec)
    hi = cv.lemma1_window(spec)[1]
    psi = np.linspace(lo, hi, 20000)
    ratio = np.abs(cv.gamma_exact(spec, cv.psi_to_theta(spec, psi))) / cv.lemma1_regime2_envelope(spec, psi)
    assert 0.5 <= ratio.max() <= 2.0


def test_empirical_covariance_matches_gamma_exact():
    # Monte Carlo oracle: empirical covariance between grid-node pairs on one
    # meridian reproduces the Legendre-sum covariance
    spec = fm.make_spec(24, 0.5)
    grid = build_grid(2 * spec.n)
    reps = 2000
    pairs = [(6, 7), (6, 9), (6, 12), (6, 16), (6, 21)]
    vals = np.empty((reps, len(pairs) + 1))
    for r in range(reps):
        sample = fm.synthesize(fm.sample_coefficients(spec, fm.replicate_rng(600, r)), grid)
        col = sample.values[:, 0]
        vals[r, 0] = col[6]
        for k, (_, j) in enumerate(pairs):
            vals[r, k + 1] = col[j]
    for k, (i, j) in enumerate(pairs):
        theta = abs(grid.theta_nodes[j] - grid.theta_nodes[i])
        rho = cv.gamma_exact(spec, theta)
        emp = np.mean(vals[:, 0] * vals[:, k + 1])  # both margins have mean 0, variance 1
        se = math.sqrt((1.0 + rho * rho) / reps)
        assert abs(emp - rho) <= 3.0 * se


def test_profile_columns_and_validity_masks():
    spec = fm.make_spec(100, 0.5)
    psi = np.linspace(0.0, cv.lemma1_window(spec)[1], 400)
    prof = cv.profile(spec, psi)
    assert prof.exact[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(prof.exact - prof.cd).max() <= 1e-10
    split = cv.lemma1_regime_boundary(spec)
    in_r1 = (psi > 1.0) & (psi < split)
    assert np.all(np.isfinite(prof.lemma1_r1[in_r1]))
    assert np.all(np.isnan(prof.lemma1_r1[~in_r1]))
    in_r2 = (psi >= split) & (psi <= cv.lemma1_window(spec)[1])
    assert np.all(np.isfinite(prof.lemma1_r2[in_r2]))
    assert np.all(np.isnan(prof.lemma1_r2[~in_r2]))
    lo = 1.0 / (spec.alpha * spec.n)
    in_h = (prof.theta >= lo) & (prof.theta <= math.pi - 0.1)
    assert np.all(np.isfinite(prof.hilb[in_h]))
    assert np.all(np.isnan(prof.hilb[~in_h]))


def test_profile_csv_roundtrip_bit_exact():
    spec = fm.make_spec(50, 0.5)
    psi = np.linspace(0.0, 30.0, 64)
    prof = cv.profile(spec, psi)
    buf = io.StringIO()
    cv.write_profile_csv(prof, buf, header_lines=("n = 50",))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# n = 50"
    assert lines[1] == "psi,theta,exact,cd,hilb,lemma1_r1,lemma1_r2"
    body = lines[2:]
    assert len(body) == 64
    arrays = (prof.psi, prof.theta, prof.exact, prof.cd, prof.hilb, prof.lemma1_r1, prof.lemma1_r2)
    for i, line in enumerate(body):
        fields = line.split(",")
        for arr, text in zip(arrays, fields):
            if text == "":
                assert math.isnan(arr[i])
            else:
                assert float(text) == arr[i]  # 17 significant digits round-trip


def test_profile_csv_golden_bytes():
    # each value is "" when NaN, else f"{v:.16e}", whatever the row's NaN
    # pattern; enough rows for several blocks of the writer
    rng = np.random.default_rng(31)
    rows = 2 * cv._CSV_BLOCK + 37
    cols = rng.normal(size=(7, rows)) * 10.0 ** rng.integers(-300, 300, size=(7, rows))
    special = [-0.0, 0.0, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300]
    cols[:, : len(special)] = np.array(special)[None, :]
    cols[2:, 20:40] = np.nan  # only psi and theta set
    cols[:, 50:60] = np.nan  # nothing set
    mixed = rng.random((7, rows)) < 0.3
    mixed[:, :60] = False
    cols[mixed] = np.nan
    prof = cv.CovarianceProfile(fm.make_spec(50, 0.5), 0.1, *cols)
    buf = io.StringIO()
    cv.write_profile_csv(prof, buf, header_lines=("n = 50", "beta = 0.5"))
    expect = "# n = 50\n# beta = 0.5\npsi,theta,exact,cd,hilb,lemma1_r1,lemma1_r2\n" + "".join(
        ",".join("" if v != v else f"{v:.16e}" for v in row) + "\n" for row in cols.T
    )
    assert buf.getvalue() == expect
    empty = io.StringIO()
    cv.write_profile_csv(cv.CovarianceProfile(prof.spec, 0.1, *np.empty((7, 0))), empty)
    assert empty.getvalue() == "psi,theta,exact,cd,hilb,lemma1_r1,lemma1_r2\n"


def test_gamma_cd_one_pass_matches_two_recurrences():
    from bandsphere.specfun import jacobi_p10

    rng = np.random.default_rng(23)
    for spec in (fm.make_spec(64, 0.5), fm.make_spec(1600, 0.5), fm.single_ell_spec(30), fm.full_band_spec(25)):
        th = rng.uniform(0.0, math.pi, 300)
        x = np.cos(th)
        two_pass = (spec.n + 1) * jacobi_p10(spec.n, x)
        if spec.ell_min >= 1:
            two_pass = two_pass - spec.ell_min * jacobi_p10(spec.ell_min - 1, x)
        two_pass *= spec.c_norm / (4.0 * math.pi)
        assert np.abs(cv.gamma_cd(spec, th) - two_pass).max() <= 1e-13
