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

import functools
import math
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


@functools.cache  # every replicate's reduce_blocks reads it
def _hermite_power_coefficients(q_max: int) -> np.ndarray:
    """c[q, k] with H_q(t) = sum_k c[q, k] t^k (probabilists' Hermite), read-only:
    specfun.hermite_all's recurrence on coefficient rows, exact integers to q_max = 28."""
    c = np.zeros((q_max + 1, q_max + 1))
    c[0, 0] = 1.0
    for q in range(1, q_max + 1):
        c[q, 1:] = c[q - 1, :-1]  # t H_{q-1}
        if q >= 2:
            c[q] -= (q - 1) * c[q - 2]
    c.flags.writeable = False
    return c


def reduce_blocks(blocks, grid: SphereGrid, u: float, q_max: int) -> tuple[float, np.ndarray]:
    """Area above u and the sphere integrals of H_q(field), q = 0..q_max, of
    a field given as ``(rows, values)`` blocks of rows (field_blocks, or the
    whole field as one block).  Each block gives per-row power sums, by one
    in-place running power, and exceedance counts; both are integrated once.
    A row's sums depend on that row alone, so any blocking gives the same bits."""
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    sums = np.empty((q_max + 1, grid.n_theta))
    counts = np.empty(grid.n_theta, dtype=np.min_scalar_type(grid.n_phi))  # exact up to n_phi
    mask = None
    for rows, v in blocks:
        sums[0, rows] = v.shape[1]
        if q_max >= 1:
            sums[1, rows] = v.sum(axis=1)
        power = v
        for k in range(2, q_max + 1):
            sums[k, rows] = np.einsum("ij,ij->i", power, v)  # rows of v^(k-1) * v
            if k < q_max:
                power = v * v if power is v else np.multiply(power, v, out=power)
        if mask is None:  # the first block is the largest
            mask = np.empty(v.shape, dtype=bool)
        above = np.greater(v, u, out=mask[: len(v)])
        np.add.reduce(above.view(np.uint8), axis=1, dtype=counts.dtype, out=counts[rows])
    h = _hermite_power_coefficients(q_max) @ integrate_rows(grid, sums)
    return float(integrate_rows(grid, counts)), h


def excursion_area(sample: FieldSample, u: float) -> ExcursionResult:
    """Area of the region where the realization exceeds u (steradians)."""
    area = reduce_blocks([(slice(None), sample.values)], sample.grid, u, 0)[0]
    return ExcursionResult(u=u, area=area, spec=sample.spec)


def chaos_integrals(sample: FieldSample, q_max: int) -> np.ndarray:
    """Sphere integrals of H_q(field) for q = 0..q_max (reduce_blocks)."""
    return reduce_blocks([(slice(None), sample.values)], sample.grid, math.inf, q_max)[1]


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
