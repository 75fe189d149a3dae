"""Excursion-set area and Hermite-chaos functionals of a field realization.

The q-th chaos functional is the sphere integral of H_q(field).  For q = 2 it
collapses to c_norm * sum(coeffs^2) - 4*pi, a shifted chi-square with
``spec.dof`` degrees of freedom, which doubles as a fast sampling oracle that
needs no synthesis.  The variance of every chaos functional is fixed by the
covariance alone (chaos_variance).

Excursion areas use the strict inequality field > u; the boundary set
{field = u} has measure zero almost surely, so the non-strict variant is
indistinguishable in law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import gamma_at_cos
from .field import FieldSample, FieldSpec, HarmonicCoefficients
from .grid import SphereGrid, gauss_legendre_nodes, integrate_rows
from .specfun import FOUR_PI


@dataclass(frozen=True)
class ExcursionResult:
    u: float
    area: float
    spec: FieldSpec


@dataclass(frozen=True)
class ChaosProjection:
    q: int
    value: float


def excursion_area(sample: FieldSample, u: float) -> ExcursionResult:
    """Area of the region where the realization exceeds u (steradians)."""
    counts = np.count_nonzero(sample.values > u, axis=1)
    return ExcursionResult(u=u, area=float(integrate_rows(sample.grid, counts)), spec=sample.spec)


def _hermite_power_coefficients(q_max: int) -> np.ndarray:
    """c[q, k] with H_q(t) = sum_k c[q, k] t^k (probabilists' Hermite)."""
    c = np.zeros((q_max + 1, q_max + 1))
    c[0, 0] = 1.0
    for q in range(1, q_max + 1):
        c[q, 1:] = c[q - 1, :-1]
        if q >= 2:
            c[q] -= (q - 1) * c[q - 2]
    return c


def power_row_sums(values: np.ndarray, q_max: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of the powers values^k for k = 0..q_max, shape
    (q_max + 1, rows), written into ``out`` when given.

    One in-place running power, no array per order; each row's sums depend
    on that row alone, so a field reduced block of rows by block of rows
    gives the same bits as the whole field."""
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    v = values
    sums = np.empty((q_max + 1, v.shape[0])) if out is None else out
    sums[0] = v.shape[1]
    if q_max >= 1:
        sums[1] = v.sum(axis=1)
    power = v
    for k in range(2, q_max + 1):
        sums[k] = np.einsum("ij,ij->i", power, v)  # rows of v^(k-1) * v
        if k < q_max:
            power = v * v if power is v else np.multiply(power, v, out=power)
    return sums


def hermite_integrals(grid: SphereGrid, sums: np.ndarray) -> np.ndarray:
    """Sphere integrals of H_q(field) for q = 0..q_max from the
    (q_max + 1, n_theta) power_row_sums of the whole field."""
    return _hermite_power_coefficients(sums.shape[0] - 1) @ integrate_rows(grid, sums)


def chaos_integrals(sample: FieldSample, q_max: int) -> np.ndarray:
    """Sphere integrals of H_q(field) for q = 0..q_max: the moments of the
    field combined with the Hermite coefficients once."""
    return hermite_integrals(sample.grid, power_row_sums(sample.values, q_max))


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


def h2_exact_from_coeffs(coeffs: HarmonicCoefficients) -> float:
    """Second-chaos functional from the coefficients alone:
    c_norm * sum(coeffs^2) - 4*pi."""
    return coeffs.spec.c_norm * coeffs.sum_of_squares() - FOUR_PI


def h2_variance_formula(spec: FieldSpec) -> float:
    """Exact variance of the second-chaos functional: 2 (4 pi)^2 / D."""
    return 2.0 * FOUR_PI**2 / spec.dof


def chaos_variance(spec: FieldSpec, q: int) -> float:
    """Exact variance of the q-th chaos functional from the covariance alone:
    q! 8 pi^2 int_{-1}^{1} Gamma(t)^q dt.

    Gamma^q is a polynomial of degree q * n in t, so the Gauss-Legendre rule
    with q*n//2 + 1 nodes integrates it exactly.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    t, w = gauss_legendre_nodes(q * spec.n // 2 + 1)
    gamma = gamma_at_cos(spec, t)
    return math.factorial(q) * 8.0 * math.pi**2 * float(w @ gamma**q)


def h2_sample_direct(spec: FieldSpec, rng: np.random.Generator, size: int | None = None):
    """Draw the second-chaos functional directly as c_norm * chi2(D) - 4*pi,
    without synthesizing a field."""
    draws = rng.chisquare(spec.dof, size=size)
    return spec.c_norm * draws - FOUR_PI
