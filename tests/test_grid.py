"""Sphere quadrature: node accuracy, polynomial exactness, indicator behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandsphere import specfun as sf
from bandsphere.grid import SphereGrid, build_grid, fft_length, gauss_legendre_nodes
from references import gauss_legendre_nodes_allocating, integrate, legendre_all, quad_weights

FOUR_PI = 4 * math.pi


def real_harmonic_on_grid(grid: SphereGrid, ell: int, m: int) -> np.ndarray:
    """Real spherical harmonic Y_{ell,m} sampled on the grid (test helper)."""
    band = sf.assoc_legendre_band(ell, ell, grid.cos_nodes)  # (ell+1, 1, n_theta)
    n_lm = band[abs(m), 0]  # (n_theta,)
    phi = grid.phi_nodes
    if m == 0:
        ang = np.ones_like(phi)
    elif m > 0:
        ang = math.sqrt(2.0) * np.cos(m * phi)
    else:
        ang = math.sqrt(2.0) * np.sin(-m * phi)
    return np.outer(n_lm, ang)


def test_gauss_nodes_match_numpy():
    for n in (1, 2, 5, 40, 257):
        x, w = gauss_legendre_nodes(n)
        xr, wr = np.polynomial.legendre.leggauss(n)
        assert np.abs(np.sort(x) - np.sort(xr)).max() <= 1e-13
        assert np.abs(np.sort(w) - np.sort(wr)).max() <= 1e-13


def test_gauss_rule_matches_the_allocating_recurrence_bitwise():
    # the in-place recurrence keeps the operations of the allocating one, and
    # the nodes come out descending, as build_grid takes them
    for n in range(1, 301):
        x, w = gauss_legendre_nodes(n)
        xr, wr = gauss_legendre_nodes_allocating(n)
        assert np.array_equal(x, xr) and np.array_equal(w, wr)
        assert np.all(np.diff(x) < 0.0)


def test_nodes_are_legendre_roots():
    g = build_grid(101)
    p_at_nodes = np.array(
        [legendre_all(g.n_theta, float(c)).values[g.n_theta] for c in g.cos_nodes]
    )
    assert np.abs(p_at_nodes).max() <= 1e-13


def test_weights_sum_to_sphere_area():
    for degree in (1, 2, 17, 64, 301):
        g = build_grid(degree)
        assert quad_weights(g).sum() == pytest.approx(FOUR_PI, abs=1e-10)


def test_exact_degree_formula():
    for degree in (1, 2, 9, 10, 33):
        g = build_grid(degree)
        assert g.exact_degree == min(2 * g.n_theta - 1, g.n_phi - 1)
        assert g.exact_degree >= degree
        assert g.n_phi % 2 == 0


def test_harmonic_integrates_to_zero():
    g = build_grid(24)
    rng = np.random.default_rng(5)
    for _ in range(10):
        ell = int(rng.integers(1, g.exact_degree + 1))
        m = int(rng.integers(-ell, ell + 1))
        assert abs(integrate(g, real_harmonic_on_grid(g, ell, m))) <= 1e-10


def test_harmonic_squared_integrates_to_one():
    g = build_grid(24)
    y = real_harmonic_on_grid(g, 3, 2)
    assert integrate(g, y * y) == pytest.approx(1.0, abs=1e-10)


def test_orthonormality_random_products():
    g = build_grid(40)
    rng = np.random.default_rng(99)
    for _ in range(30):
        ell1 = int(rng.integers(0, 21))
        ell2 = int(rng.integers(0, g.exact_degree - ell1 + 1))
        m1 = int(rng.integers(-ell1, ell1 + 1))
        m2 = int(rng.integers(-ell2, ell2 + 1))
        prod = real_harmonic_on_grid(g, ell1, m1) * real_harmonic_on_grid(g, ell2, m2)
        target = 1.0 if (ell1, m1) == (ell2, m2) else 0.0
        assert integrate(g, prod) == pytest.approx(target, abs=1e-9)


def test_integrate_constant_field():
    g = build_grid(9)
    assert integrate(g, np.ones((g.n_theta, g.n_phi))) == pytest.approx(FOUR_PI, abs=1e-10)


def test_integrate_half_space_indicator():
    # hemisphere area 2*pi within O(grid spacing)
    g = build_grid(80)
    values = (np.outer(g.cos_nodes, np.ones(g.n_phi)) > 0).astype(float)
    spacing = math.pi / g.n_theta
    assert abs(integrate(g, values) - 2 * math.pi) <= FOUR_PI * spacing


def test_integrate_refinement_stability():
    # doubling the resolution barely moves the integral of a smooth function
    def f(grid):
        ct = np.outer(grid.cos_nodes, np.ones(grid.n_phi))
        ph = np.outer(np.ones(grid.n_theta), grid.phi_nodes)
        return np.exp(ct) * (1.0 + 0.3 * np.sin(3 * ph))

    g1 = build_grid(60)
    g2 = build_grid(121)
    assert abs(integrate(g1, f(g1)) - integrate(g2, f(g2))) <= 1e-10


def test_integrate_shape_mismatch():
    g = build_grid(4)
    with pytest.raises(ValueError):
        integrate(g, np.ones((g.n_theta, g.n_phi + 1)))


def test_build_grid_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_grid(0)


@given(degree=st.integers(1, 60))
@settings(max_examples=25, deadline=None)
def test_area_property(degree):
    g = build_grid(degree)
    assert abs(quad_weights(g).sum() - FOUR_PI) <= 1e-10
    assert g.theta_nodes.min() > 0 and g.theta_nodes.max() < math.pi


def is_5_smooth(k: int) -> bool:
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_n_phi_is_minimal_even_5_smooth():
    for minimum in range(1, 5000):
        length = fft_length(minimum)
        assert length % 2 == 0 and is_5_smooth(length) and length >= minimum
        assert not any(is_5_smooth(k) for k in range(minimum + minimum % 2, length, 2))
    for degree in (1, 2, 9, 10, 33, 301):
        assert build_grid(degree).n_phi == fft_length(degree + 1)
    assert [build_grid(4 * n).n_phi for n in (64, 128, 256, 512)] == [270, 540, 1080, 2160]


def test_exact_degree_unchanged_by_longitude_rounding():
    # the colatitude rule sets exact_degree, as it did with n_phi = degree + 1
    # rounded up to even
    for degree in range(1, 120):
        g = build_grid(degree)
        assert g.exact_degree == 2 * g.n_theta - 1 == degree + 1 - degree % 2


def test_nodes_mirror_symmetric():
    for degree in (1, 2, 7, 8, 100, 101, 256, 2048):
        g = build_grid(degree)
        assert np.array_equal(g.cos_nodes[::-1], -g.cos_nodes)
        assert np.array_equal(g.theta_weights[::-1], g.theta_weights)
