"""Special-function kernels against independent oracles and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandsphere import specfun as sf
from bandsphere.experiments import _KS_SLACK
from bandsphere.field import make_spec
from bandsphere.grid import build_grid
from references import assoc_legendre_band_scalar, assoc_legendre_normalized, legendre_all


# ---------------------------------------------------------------------------
# independent oracles (deliberately different code paths from the package)

def jacobi10_binomial_sum(n, x):
    """Explicit binomial-sum definition of P_n^(1,0)."""
    return sum(
        math.comb(n + 1, k) * math.comb(n, n - k) * ((x - 1) / 2) ** (n - k) * ((x + 1) / 2) ** k
        for k in range(n + 1)
    )


def j1_power_series(x, kmax=60):
    total = 0.0
    term = x / 2.0
    for k in range(kmax):
        total += term
        term *= -(x * x / 4.0) / ((k + 1) * (k + 2))
    return total


def simpson_gaussian_cdf(u, n=200001):
    h = u / (n - 1)
    xs = [i * h for i in range(n)]
    f = [math.exp(-x * x / 2) for x in xs]
    s = f[0] + f[-1] + 4 * sum(f[1:-1:2]) + 2 * sum(f[2:-1:2])
    return 0.5 + (h / 3) * s / math.sqrt(2 * math.pi)


LEGENDRE_CLOSED = {
    0: lambda x: 1.0,
    1: lambda x: x,
    2: lambda x: (3 * x**2 - 1) / 2,
    3: lambda x: (5 * x**3 - 3 * x) / 2,
    4: lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
    5: lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
}


# ---------------------------------------------------------------------------
# Legendre

def test_legendre_at_one_all_ones():
    assert np.allclose(legendre_all(5, 1.0).values, 1.0, rtol=0, atol=0)


def test_legendre_p2_at_half():
    assert legendre_all(2, 0.5).values[2] == pytest.approx(-0.125, abs=1e-15)


def test_legendre_p1_is_identity():
    assert legendre_all(1, -0.3).values[1] == -0.3


def test_legendre_against_closed_forms():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-1, 1, 100):
        table = legendre_all(5, float(x)).values
        for ell, closed in LEGENDRE_CLOSED.items():
            assert abs(table[ell] - closed(x)) <= 1e-13


def test_legendre_domain_errors():
    with pytest.raises(ValueError):
        legendre_all(3, 1.0001)
    with pytest.raises(ValueError):
        legendre_all(-1, 0.5)


@given(x=st.floats(-1.0, 1.0), ell_max=st.integers(0, 64))
@settings(max_examples=60, deadline=None)
def test_legendre_bound_property(x, ell_max):
    values = legendre_all(ell_max, x).values
    assert np.all(np.abs(values) <= 1.0 + 1e-12)
    assert values[0] == 1.0
    if ell_max >= 1:
        assert values[1] == x


def test_legendre_band_sum_matches_tables():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, 30)
    for lmin, lmax in [(0, 12), (4, 9), (95, 100), (0, 0), (7, 7)]:
        direct = np.array(
            [sum((2 * l + 1) * legendre_all(lmax, float(x)).values[l] for l in range(lmin, lmax + 1)) for x in xs]
        )
        assert np.abs(sf.legendre_band_sum(lmin, lmax, xs) - direct).max() <= 1e-11


# ---------------------------------------------------------------------------
# associated Legendre / spherical harmonics

def test_y00_value():
    tab = assoc_legendre_normalized(0, 0.3141)
    assert tab.values[0, 0] == pytest.approx(0.28209479177387814, abs=1e-15)


def test_addition_formula_ell3():
    tab = assoc_legendre_normalized(3, math.cos(0.7))
    assert tab.addition_sum(3) == pytest.approx(7 / (4 * math.pi), rel=1e-12)


def test_sectoral_vanishes_at_pole():
    tab = assoc_legendre_normalized(1, 1.0)
    assert tab.values[1, 1] == 0.0


def test_addition_formula_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(50):
        ell = int(rng.integers(0, 513))
        theta = float(rng.uniform(1e-3, math.pi - 1e-3))
        tab = assoc_legendre_normalized(ell, math.cos(theta))
        target = (2 * ell + 1) / (4 * math.pi)
        assert abs(tab.addition_sum(ell) / target - 1.0) <= 1e-10


def test_assoc_normalized_finite_at_high_degree():
    tab = assoc_legendre_normalized(2048, math.cos(1.234))
    assert np.all(np.isfinite(tab.values))
    target = (2 * 2048 + 1) / (4 * math.pi)
    assert abs(tab.addition_sum(2048) / target - 1.0) <= 1e-10


def test_assoc_matches_scipy_orthonormal_convention():
    sp = pytest.importorskip("scipy.special")
    theta = 0.7
    tab = assoc_legendre_normalized(30, math.cos(theta))
    for ell in (0, 1, 2, 5, 17, 30):
        for m in range(ell + 1):
            ref = sp.sph_harm_y(ell, m, theta, 0.0).real
            assert tab.values[ell, m] == pytest.approx(ref, abs=5e-14)


def test_assoc_band_table_matches_scalar_table():
    # bitwise, on many colatitudes, the poles included
    thetas = np.concatenate(([0.0, math.pi, 0.7], np.linspace(0.01, 3.13, 297)))
    for ell_min in (0, 5, 24):
        band = sf.assoc_legendre_band(ell_min, 24, np.cos(thetas))
        assert band.shape == (25, 25 - ell_min, thetas.size)
        for j, theta in enumerate(thetas):
            assert np.array_equal(band[:, :, j], assoc_legendre_band_scalar(ell_min, 24, math.cos(theta)))
    assert sf.assoc_legendre_band(5, 24, np.array([])).shape == (25, 20, 0)
    # near the poles the m-recurrence of degree 300 grows from its sectoral
    # value by far more than 2^300, so its columns are rescaled on the way
    thetas = np.array([1e-3, 2e-3, 5e-3, 0.02, 0.7, math.pi / 2, math.pi - 1e-3])
    for ell_min, ell_max in ((300, 310), (1, 6), (6, 6)):
        band = sf.assoc_legendre_band(ell_min, ell_max, np.cos(thetas))
        for j, theta in enumerate(thetas):
            assert np.array_equal(band[:, :, j], assoc_legendre_band_scalar(ell_min, ell_max, math.cos(theta)))


@pytest.mark.parametrize("n, beta", [(64, 0.5), (512, 0.5), (512, 0.8)])
def test_assoc_band_table_near_the_climb_from_the_sectoral_values(n, beta):
    # the table against the l-recurrence climbed from m = l, which is
    # exact to ~1e-11 at these degrees; the largest gap (5.8e-12 at n = 512)
    # sits next to the pole
    spec, grid = make_spec(n, beta), build_grid(4 * n)
    north = grid.cos_nodes[: (grid.n_theta + 1) // 2]
    picked = np.unique(np.concatenate((np.arange(8), np.arange(0, north.size, 32))))
    band = sf.assoc_legendre_band(spec.ell_min, n, north[picked])
    for j, x in enumerate(north[picked]):
        climbed = assoc_legendre_normalized(n, float(x)).values[spec.ell_min :].T
        assert np.abs(band[:, :, j] - climbed).max() <= 1e-11


def test_assoc_band_table_holds_no_subnormal_number():
    # subnormal entries slow every matmul against the table
    spec, grid = make_spec(512, 0.5), build_grid(4 * 512)
    band = sf.assoc_legendre_band(spec.ell_min, spec.n, grid.cos_nodes[: (grid.n_theta + 1) // 2])
    assert not np.any((band != 0.0) & (np.abs(band) < np.finfo(float).tiny))


@pytest.mark.parametrize("n, beta", [(2048, 0.5), (2048, 0.8), (3072, 0.5), (3072, 0.8), (2560, 0.05)])
def test_assoc_band_table_addition_theorem_past_the_sectoral_underflow(n, beta):
    # c_norm * sum_l sum_m w_m (N_l^m)^2 = 1 where sin^m theta drops below the
    # normal range for orders that still oscillate (worst near theta = 0.367
    # at n ~ 1925 and 0.525 at n = 2048); the wide band at beta = 0.05 (a
    # 68 MB table) has orders above ell_min that do so near theta = 0.65
    spec = make_spec(n, beta)
    thetas = (0.6, 0.65, 0.7) if beta == 0.05 else (0.3, 0.367, 0.45, 0.525)
    band = sf.assoc_legendre_band(spec.ell_min, n, np.cos(thetas))
    weights = np.full(n + 1, 2.0)
    weights[0] = 1.0
    variance = spec.c_norm * np.einsum("m,mlt->t", weights, band * band)
    assert np.abs(variance - 1.0).max() <= 1e-12


def test_assoc_domain_error():
    with pytest.raises(ValueError):
        assoc_legendre_normalized(4, -1.2)


# ---------------------------------------------------------------------------
# Jacobi P^(1,0)

def test_jacobi_degree_zero():
    for x in (-1.0, 0.2, 1.0):
        assert sf.jacobi_p10(0, x) == 1.0


def test_jacobi_p1_at_zero():
    assert sf.jacobi_p10(1, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_jacobi_value_at_one_is_n_plus_1():
    for n in (1, 2, 5, 9):
        assert sf.jacobi_p10(n, 1.0) == pytest.approx(jacobi10_binomial_sum(n, 1.0), abs=1e-12)
        assert sf.jacobi_p10(n, 1.0) == pytest.approx(n + 1, abs=1e-12)


def test_band_sums_exact_at_the_poles_at_large_degree():
    # P_l(+-1) = (+-1)^l exactly, so the band sums are the integers
    n = 6400
    ell_min = math.ceil(math.sqrt(1.0 - n**-0.5) * n)
    for lo in (0, 1, ell_min):
        ells = range(lo, n + 1)
        at_one, at_minus_one = sf.legendre_band_sum(lo, n, np.array([1.0, -1.0]))
        assert at_one == sum(2 * l + 1 for l in ells)
        assert at_minus_one == sum((2 * l + 1) * (-1) ** l for l in ells)
    assert sf.legendre_band_sum(ell_min, n, 1.0) == (n + 1) ** 2 - ell_min**2


def test_jacobi_value_at_one_exact_at_large_degree():
    for n in (6400, 6401):
        assert sf.jacobi_p10(n, 1.0) == n + 1
    rows = sf.jacobi_p10((6320, 6400), np.array([1.0, 0.5, 1.0]))
    assert rows[:, 0].tolist() == rows[:, 2].tolist() == [6321.0, 6401.0]


def test_jacobi_recurrence_vs_binomial_sum():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, 20)
    for n in range(11):
        for x in xs:
            assert abs(sf.jacobi_p10(n, float(x)) - jacobi10_binomial_sum(n, float(x))) <= 1e-11


def test_jacobi_domain_error():
    with pytest.raises(ValueError):
        sf.jacobi_p10(3, 1.5)
    with pytest.raises(ValueError):
        sf.jacobi_p10(-1, 0.0)


# ---------------------------------------------------------------------------
# Bessel J1

def test_j1_at_zero():
    assert sf.bessel_j1(0.0) == 0.0


def test_j1_at_one_vs_series_oracle():
    assert sf.bessel_j1(1.0) == pytest.approx(0.4400505857449335, abs=1e-14)
    assert sf.bessel_j1(1.0) == pytest.approx(j1_power_series(1.0), abs=1e-14)


def test_j1_branches_agree_in_crossover_window():
    xs = np.linspace(11.0, 13.0, 200)
    assert np.abs(sf._j1_series(xs) - sf._j1_asymptotic(xs)).max() <= 1e-10


def test_j1_absolute_accuracy_vs_scipy():
    sp = pytest.importorskip("scipy.special")
    xs = np.concatenate([np.linspace(1e-9, 20, 700), np.linspace(20, 2000, 500)])
    err = np.abs(sf.bessel_j1(xs) - sp.j1(xs))
    assert err.max() <= 1e-12


def test_j1_three_term_truncation_envelope():
    # two-term trig truncation of the large-argument expansion obeys an
    # O(x^{-5/2}) residual envelope on [20, 2000]
    xs = np.linspace(20, 2000, 800)
    chi = xs - 0.75 * math.pi
    trunc = np.sqrt(2 / (math.pi * xs)) * np.cos(chi) - 3 / (4 * math.sqrt(2 * math.pi) * xs**1.5) * np.sin(chi)
    diff = np.abs(sf.bessel_j1(xs) - trunc)
    k_fit = (diff * xs**2.5).max()
    assert k_fit <= 0.5
    # fitted decay exponent of the residual peaks is ~ -5/2
    logx = np.log(xs)
    upper = np.maximum.accumulate((diff * xs**2.5)[::-1])[::-1]  # envelope of residual * x^2.5
    assert upper.max() / max(upper.min(), 1e-300) <= 5.0


def test_j1_domain_error():
    with pytest.raises(ValueError):
        sf.bessel_j1(-0.5)


# ---------------------------------------------------------------------------
# Hermite

def test_hermite_h2_at_two():
    assert sf.hermite_all(2, 2.0)[2] == 3.0


def test_hermite_h0_is_one():
    assert sf.hermite_all(0, -17.3)[0] == 1.0


def test_hermite_h3_at_two():
    assert sf.hermite_all(3, 2.0)[3] == 2.0


def test_hermite_matches_derivative_recursion():
    # H_k(t) = t H_{k-1}(t) - H'_{k-1}(t) with the derivative taken
    # symbolically through the hermite_e coefficient basis
    from numpy.polynomial import hermite_e as he

    rng = np.random.default_rng(3)
    ts = rng.normal(size=9)
    for q in range(1, 9):
        c_prev = np.zeros(q)
        c_prev[q - 1] = 1.0
        deriv = he.hermeder(c_prev)
        expected = ts * he.hermeval(ts, c_prev) - he.hermeval(ts, deriv)
        got = sf.hermite_all(q, ts)[q]
        assert np.abs(got - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())


def test_hermite_orthogonality_under_gaussian_weight():
    from numpy.polynomial import hermite_e as he

    nodes, weights = he.hermegauss(64)
    H = sf.hermite_all(8, nodes)
    for p in range(9):
        for q in range(9):
            inner = np.sum(weights * H[p] * H[q]) / math.sqrt(2 * math.pi)
            target = math.factorial(q) if p == q else 0.0
            assert inner == pytest.approx(target, abs=1e-8 * max(1.0, math.factorial(max(p, q))))


# ---------------------------------------------------------------------------
# Gaussian pdf/cdf and J_q coefficients

def test_gaussian_pdf_at_zero():
    assert sf.gaussian_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-16)


def test_gaussian_cdf_at_zero():
    assert sf.gaussian_cdf(0.0) == 0.5


def test_gaussian_cdf_vs_quadrature_oracle():
    for u in (0.25, 1.0, 2.5):
        assert sf.gaussian_cdf(u) == pytest.approx(simpson_gaussian_cdf(u), abs=1e-12)
    assert sf.gaussian_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-13)


@given(u=st.floats(-8, 8))
@settings(max_examples=80, deadline=None)
def test_gaussian_cdf_symmetry(u):
    assert sf.gaussian_cdf(u) + sf.gaussian_cdf(-u) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_cdf_array_path_vs_math_erfc():
    # the array path is its own kernel; the scalar path is math.erfc itself
    u = np.linspace(-40.0, 40.0, 160_001)
    exact = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in u.tolist()])
    got = sf.gaussian_cdf(u)
    assert np.max(np.abs(got - exact)) <= 1e-14
    # the lower tail keeps its relative accuracy down to u = -30
    tail = (u < -1.0) & (u > -30.0)
    assert np.max(np.abs(got[tail] / exact[tail] - 1.0)) <= 1e-12


def test_gaussian_cdf_array_path_vs_scipy_ndtr():
    special = pytest.importorskip("scipy.special")
    u = np.linspace(-40.0, 40.0, 2_000_001)
    assert np.max(np.abs(sf.gaussian_cdf(u) - special.ndtr(u))) <= 1e-14


def test_gaussian_cdf_array_non_finite_values():
    u = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0])
    got = sf.gaussian_cdf(u)
    assert np.isnan(got[0])
    assert got[1:].tolist() == [1.0, 0.0, 1.0, 0.0, 0.5, 0.5]


def test_gaussian_cdf_array_shapes():
    x = np.random.default_rng(4).standard_normal((300, 70)) * 3.0
    flat = sf.gaussian_cdf(x.ravel())
    assert np.array_equal(sf.gaussian_cdf(x), flat.reshape(x.shape))
    assert np.array_equal(sf.gaussian_cdf(np.asfortranarray(x)), flat.reshape(x.shape))
    strided = x[::3, ::2]
    assert np.array_equal(sf.gaussian_cdf(strided), sf.gaussian_cdf(np.ascontiguousarray(strided)))
    assert sf.gaussian_cdf(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("grid", ["interval_edges", "dense"])
def test_gaussian_cdf_array_path_decreases_less_than_the_ks_slack(grid):
    # experiments._ks_sorted prunes blocks on the assumption that Phi does not
    # fall, between ascending inputs, by more than its slack; the worst step
    # is -1.1e-16, at the edges of the 1/32 Mills-ratio intervals
    if grid == "interval_edges":
        j = np.arange(-40 * 32, 40 * 32)
        edges = np.concatenate(((j + 0.5) * sf._MILLS_STEP, [-sf._MILLS_CUT, 0.0, sf._MILLS_CUT]))
        u = np.concatenate((np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)))
    else:
        u = np.linspace(-40.0, 40.0, 1_600_001)
    steps = np.diff(sf.gaussian_cdf(np.sort(u)))
    assert steps.min() >= -_KS_SLACK / 10


def test_gaussian_cdf_array_symmetry():
    u = np.linspace(0.0, 12.0, 100_001)
    assert np.max(np.abs(sf.gaussian_cdf(u) + sf.gaussian_cdf(-u) - 1.0)) <= 1e-15


def test_gaussian_cdf_zero_dimensional_input():
    for u in (-2.5, 0.0, 0.3, 7.0):
        got = sf.gaussian_cdf(np.array(u))
        assert isinstance(got, float) and got == sf.gaussian_cdf(u)
        for q in range(4):
            assert sf.jq_coefficient(q, np.array(u)) == sf.jq_coefficient(q, u)


def test_jq_low_order_closed_forms():
    # J_1 = -phi, J_2 = -u phi, J_3 = (1 - u^2) phi
    for u in (-1.4, 0.0, 0.33, 2.2):
        phi = sf.gaussian_pdf(u)
        assert sf.jq_coefficient(0, u) == pytest.approx(sf.gaussian_cdf(u), abs=0)
        assert sf.jq_coefficient(1, u) == pytest.approx(-phi, abs=1e-15)
        assert sf.jq_coefficient(2, u) == pytest.approx(-u * phi, abs=1e-15)
        assert sf.jq_coefficient(3, u) == pytest.approx((1 - u * u) * phi, abs=1e-14)


def test_j2_at_one():
    assert sf.jq_coefficient(2, 1.0) == pytest.approx(-0.24197072451914337, abs=1e-15)


def test_j3_vanishes_at_one():
    assert sf.jq_coefficient(3, 1.0) == pytest.approx(0.0, abs=1e-16)


def test_jacobi_degree_sequence_matches_single_calls():
    x = np.linspace(-1.0, 1.0, 41)
    degrees = (7, 0, 30, 7, 1)
    rows = sf.jacobi_p10(degrees, x)
    assert rows.shape == (len(degrees), x.size)
    for row, d in zip(rows, degrees):
        assert np.array_equal(row, sf.jacobi_p10(d, x))
    at_half = sf.jacobi_p10(degrees, 0.5)
    assert at_half.shape == (len(degrees),)
    assert [float(v) for v in at_half] == [sf.jacobi_p10(d, 0.5) for d in degrees]
    with pytest.raises(ValueError):
        sf.jacobi_p10((3, -1), 0.0)
