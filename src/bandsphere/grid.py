"""Gauss-Legendre x uniform-longitude quadrature grids on the 2-sphere.

The product rule integrates spherical polynomials exactly up to
``exact_degree = min(2*n_theta - 1, n_phi - 1)``: the longitude trapezoid rule
is exact for trigonometric degree < n_phi and the colatitude Gauss rule for
polynomial degree <= 2*n_theta - 1 in cos(theta).  Grids are immutable and
safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def gauss_legendre_nodes(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], the
    nodes in descending order.

    Newton iteration on P_n starting from Chebyshev-type initial guesses;
    raises RuntimeError if any step still exceeds 1e-14 after 100 iterations.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    j = np.arange(1, n + 1)
    x = np.cos(math.pi * (j - 0.25) / (n + 0.5))
    bufs = np.empty((3, n))

    def eval_pn(x):
        p_prev, p_cur, t = bufs
        p_prev.fill(1.0)
        np.copyto(p_cur, x)
        for k in range(2, n + 1):
            # P_k = ((2k - 1) x P_{k-1} - (k - 1) P_{k-2}) / k, in place, the
            # operations in that order
            np.multiply(x, 2 * k - 1, out=t)
            t *= p_cur
            p_prev *= k - 1
            np.subtract(t, p_prev, out=p_prev)
            p_prev /= k
            p_prev, p_cur = p_cur, p_prev
        dp = n * (p_prev - x * p_cur) / (1.0 - x * x)
        return p_cur, dp

    for _ in range(100):
        p_cur, dp = eval_pn(x)
        dx = p_cur / dp
        x = x - dx
        if np.abs(dx).max() <= 1e-14:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration failed to reach 1e-14 for n={n}")
    _, dp = eval_pn(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Quadrature grid: Gauss-Legendre colatitudes x uniform longitudes."""

    n_theta: int
    n_phi: int
    theta_nodes: np.ndarray   # ascending colatitudes, radians
    cos_nodes: np.ndarray     # cos(theta_nodes), Gauss-Legendre points
    theta_weights: np.ndarray  # 1-d Gauss weights (sum to 2)
    exact_degree: int

    @property
    def phi_nodes(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi


def theta_count(target_degree: int) -> int:
    """Gauss-Legendre colatitude count of ``build_grid(target_degree)``."""
    return (target_degree + 2) // 2  # ceil((d+1)/2)


def fft_length(minimum: int) -> int:
    """Smallest even 5-smooth integer >= minimum: a longitude count whose
    real FFT factors into radix-2/3/5 passes only."""
    length = max(2, minimum + minimum % 2)
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 2


def build_grid(target_degree: int) -> SphereGrid:
    """Smallest product grid integrating spherical polynomials of the target
    degree exactly.  n_phi is the smallest even 5-smooth count >= degree + 1,
    so the longitude FFT never runs at a length with a large prime factor.

    The colatitudes are mirror-symmetric about the equator bit for bit
    (cos_nodes[-1 - j] == -cos_nodes[j]); field synthesis relies on it to
    evaluate the southern rows from the northern Legendre table."""
    if target_degree < 1:
        raise ValueError(f"target_degree must be >= 1, got {target_degree}")
    n_theta = theta_count(target_degree)
    n_phi = fft_length(target_degree + 1)
    x, w = gauss_legendre_nodes(n_theta)  # descending x = ascending theta
    south = n_theta // 2
    x = np.concatenate((x[:south], [0.0] * (n_theta % 2), -x[:south][::-1]))
    w = np.concatenate((w[: n_theta - south], w[:south][::-1]))
    return SphereGrid(
        n_theta=n_theta,
        n_phi=n_phi,
        theta_nodes=np.arccos(x),
        cos_nodes=x,
        theta_weights=w,
        exact_degree=min(2 * n_theta - 1, n_phi - 1),
    )


def integrate_rows(grid: SphereGrid, rows: np.ndarray):
    """Quadrature from per-colatitude longitude sums: ``rows[..., i]`` is the
    sum over the longitudes of row i.  Reduces the last axis."""
    return np.dot(rows, grid.theta_weights) * (2.0 * math.pi / grid.n_phi)
