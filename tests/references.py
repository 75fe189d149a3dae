"""Reference implementations that only the tests call.

The engine in ``src/bandsphere`` is held against these: scalar Legendre
tables at one argument (the band-table recurrence must match them bit for
bit), the whole-field quadrature, the Kolmogorov-Smirnov distance of an
unsorted sample and the single-order chaos projection, which warns when the
grid does not resolve H_q(field).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from bandsphere.chaos import chaos_integrals
from bandsphere.field import FieldSample
from bandsphere.grid import SphereGrid, integrate_rows
from bandsphere.specfun import _BIG, _SHIFT, _SHRINK, _TINY, FOUR_PI, gaussian_cdf


# --- Legendre tables at one argument ----------------------------------------

@dataclass(frozen=True)
class LegendreTable:
    """Values of P_0..P_max_degree at a single argument x in [-1, 1]."""

    max_degree: int
    argument: float
    values: np.ndarray


@dataclass(frozen=True)
class AssocLegendreTable:
    """Fully normalized associated Legendre values N_l^m(cos_theta).

    Normalization is the spherical-harmonic one (Condon-Shortley phase
    included): the real harmonics

        Y_{l,0}  = N_l^0,
        Y_{l,m}  = sqrt(2) * N_l^m * cos(m*phi)   (m > 0),
        Y_{l,-m} = sqrt(2) * N_l^m * sin(m*phi)   (m > 0),

    are orthonormal on the sphere and satisfy
    sum_m Y_{l,m}(x)^2 = (2l+1)/(4*pi) at every point.

    ``values[l, m]`` holds N_l^m for 0 <= m <= l; slots with m > l are zero.
    """

    max_degree: int
    argument: float
    values: np.ndarray

    def addition_sum(self, ell: int) -> float:
        """sum_{m=-ell}^{ell} Y_{ell,m}^2, which must equal (2*ell+1)/(4*pi)."""
        row = self.values[ell]
        return float(row[0] ** 2 + 2.0 * np.sum(row[1 : ell + 1] ** 2))


def legendre_all(ell_max: int, x: float) -> LegendreTable:
    """Table of Legendre polynomials P_0(x)..P_ell_max(x).

    Uses the stable upward recurrence
    (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}.
    """
    if ell_max < 0:
        raise ValueError(f"ell_max must be >= 0, got {ell_max}")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"Legendre argument must lie in [-1, 1], got {x}")
    values = np.empty(ell_max + 1)
    values[0] = 1.0
    if ell_max >= 1:
        values[1] = x
    for ell in range(1, ell_max):
        values[ell + 1] = ((2 * ell + 1) * x * values[ell] - ell * values[ell - 1]) / (ell + 1)
    return LegendreTable(max_degree=ell_max, argument=x, values=values)


def assoc_legendre_normalized(ell_max: int, cos_theta: float) -> AssocLegendreTable:
    """Fully normalized associated Legendre table at a single colatitude.

    The normalization is applied inside the recurrence, so the values stay
    O(sqrt(l)) up to ell_max ~ a few thousand (the unnormalized P_l^m would
    overflow near l ~ 150).
    """
    if not -1.0 <= cos_theta <= 1.0:
        raise ValueError(f"cos_theta must lie in [-1, 1], got {cos_theta}")
    if ell_max < 0:
        raise ValueError(f"ell_max must be >= 0, got {ell_max}")
    x = float(cos_theta)
    s = math.sqrt(max(0.0, 1.0 - x * x))
    vals = np.zeros((ell_max + 1, ell_max + 1))
    vals[0, 0] = 1.0 / math.sqrt(FOUR_PI)
    for ell in range(1, ell_max + 1):
        m = np.arange(0, ell - 1)
        if m.size:
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = -np.sqrt(
                (2.0 * ell + 1.0)
                * ((ell - 1.0) ** 2 - m * m)
                / ((2.0 * ell - 3.0) * (ell * ell - m * m))
            )
            vals[ell, : ell - 1] = a * x * vals[ell - 1, : ell - 1] + b * vals[ell - 2, : ell - 1]
        vals[ell, ell - 1] = math.sqrt(2.0 * ell + 1.0) * x * vals[ell - 1, ell - 1]
        vals[ell, ell] = -math.sqrt((2.0 * ell + 1.0) / (2.0 * ell)) * s * vals[ell - 1, ell - 1]
    return AssocLegendreTable(max_degree=ell_max, argument=x, values=vals)


def assoc_legendre_band_scalar(ell_min: int, ell_max: int, cos_theta: float) -> np.ndarray:
    """The band table's recurrence at one colatitude, value by value: the
    (ell_max + 1, ell_max - ell_min + 1) array [m, l - ell_min] of N_l^m that
    ``specfun.assoc_legendre_band`` must match bit for bit.

    Each degree starts from the mantissa and exponent of its sectoral value
    and runs the m-recurrence down to m = 0; a value past 2^300 scales the
    two live values by 2^-300 and adds 300 to the exponent, and values below
    the normal range are flushed to 0.  The poles are set directly."""
    x = float(cos_theta)
    s = math.sqrt(max(0.0, 1.0 - x * x))
    vals = np.zeros((ell_max + 1, ell_max - ell_min + 1))
    if s == 0.0:
        for ell in range(ell_min, ell_max + 1):
            vals[0, ell - ell_min] = x**ell * math.sqrt((2.0 * ell + 1.0) / FOUR_PI)
        return vals
    cot = x / s
    mantissa, e = math.frexp(1.0 / math.sqrt(FOUR_PI))
    for ell in range(ell_max + 1):
        if ell:
            mantissa, k = math.frexp(mantissa * (-math.sqrt((2.0 * ell + 1.0) / (2.0 * ell)) * s))
            e += k
        if ell < ell_min:
            continue
        cur, prev, exponent = mantissa, 0.0, e
        for m in range(ell, -1, -1):
            value = math.ldexp(cur, exponent)
            vals[m, ell - ell_min] = value if abs(value) >= _TINY else 0.0
            if m == 0:
                break
            c = math.sqrt((ell + m) * (ell - m + 1.0))
            new = (-2.0 * m / c * cot) * cur + (-math.sqrt((ell + m + 1.0) * (ell - m)) / c) * prev
            if abs(new) > _BIG:
                new, cur, exponent = new * _SHRINK, cur * _SHRINK, exponent + _SHIFT
            prev, cur = cur, new
    return vals


# --- quadrature on the grid -------------------------------------------------

def gauss_legendre_nodes_allocating(n: int):
    """``grid.gauss_legendre_nodes`` as first written, a new array for every
    term of the Legendre recurrence; the in-place rule must match it bit for
    bit."""
    j = np.arange(1, n + 1)
    x = np.cos(math.pi * (j - 0.25) / (n + 0.5))

    def eval_pn(x):
        p_prev = np.ones_like(x)
        p_cur = x.copy()
        for k in range(2, n + 1):
            p_prev, p_cur = p_cur, ((2 * k - 1) * x * p_cur - (k - 1) * p_prev) / k
        dp = n * (p_prev - x * p_cur) / (1.0 - x * x)
        return p_cur, dp

    for _ in range(100):
        p_cur, dp = eval_pn(x)
        dx = p_cur / dp
        x = x - dx
        if np.abs(dx).max() <= 1e-14:
            break
    _, dp = eval_pn(x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def quad_weights(grid: SphereGrid) -> np.ndarray:
    """Combined per-cell weights (steradians), row-major theta x phi."""
    return np.repeat(grid.theta_weights * (2.0 * math.pi / grid.n_phi), grid.n_phi)


def integrate(grid: SphereGrid, values: np.ndarray) -> float:
    """Quadrature sum over the sphere of point values on the grid.

    Accepts a (n_theta, n_phi) array or its flattened row-major form.
    """
    values = np.asarray(values)
    if values.shape == (grid.n_theta, grid.n_phi):
        rows = values.sum(axis=1)
    elif values.shape == (grid.n_theta * grid.n_phi,):
        rows = values.reshape(grid.n_theta, grid.n_phi).sum(axis=1)
    else:
        raise ValueError(
            f"values shape {values.shape} does not match grid "
            f"({grid.n_theta}, {grid.n_phi})"
        )
    return float(integrate_rows(grid, rows))


# --- statistics and chaos ---------------------------------------------------

def ks_sorted_full(z: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance of an ascending sample to the
    standard normal CDF, with Phi at every point and the two maxima over the
    i/r steps."""
    r = z.size
    cdf = gaussian_cdf(z)
    steps = np.arange(r + 1, dtype=float) / r
    return float(max((cdf - steps[:-1]).max(), (steps[1:] - cdf).max()))


def ks_statistic(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance to the standard normal CDF."""
    return ks_sorted_full(np.sort(np.asarray(sample, dtype=float)))


@dataclass(frozen=True)
class ChaosProjection:
    q: int
    value: float


def chaos_projection(sample: FieldSample, q: int) -> ChaosProjection:
    """Quadrature of H_q(field) over the sphere.

    Exact (up to roundoff) when the grid resolves degree q * n; warns when it
    does not.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if sample.grid.exact_degree < q * sample.spec.n:
        warnings.warn(
            f"grid degree {sample.grid.exact_degree} < {q} * n = {q * sample.spec.n}; "
            "chaos projection quadrature is not exact",
            stacklevel=2,
        )
    value = chaos_integrals(sample, q)[q]
    return ChaosProjection(q=q, value=value)
