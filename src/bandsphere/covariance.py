"""Covariance of the band-limited ensemble: exact Legendre sum, the
Christoffel-Darboux closed form, Hilb-type Bessel approximation, and the two
rescaled high-frequency approximants with their validity windows.

Conventions settled numerically (see tests):

* The closed form uses the (1,0) Jacobi polynomial.  The identity
  sum_{l=0}^{n} (2l+1) P_l(x) = (n+1) P_n^{(1,0)}(x) holds to machine
  precision; the (0,1) variant does not.
* P_l(1) = 1 is the normalization used throughout (P_l at coincident points,
  where <x, x> = 1).
* Band edges inside the exact and Hilb-type formulas are the FieldSpec's
  integer ell_min; the idealized non-integer edge alpha*n is recovered
  whenever alpha*n is an integer.  The rescaled approximants keep alpha*n
  literally, as their error terms are controlled only in that variable.

The rescaled angle is psi = theta * alpha * n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import FieldSpec, write_table
from .specfun import FOUR_PI, bessel_j1, jacobi_p10, legendre_band_sum


def psi_to_theta(spec: FieldSpec, psi):
    return np.asarray(psi, dtype=float) / (spec.alpha * spec.n)


def theta_to_psi(spec: FieldSpec, theta):
    return np.asarray(theta, dtype=float) * (spec.alpha * spec.n)


def _check_theta(theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any((theta < 0.0) | (theta > math.pi)):
        raise ValueError("theta must lie in [0, pi]")
    return theta


def gamma_at_cos(spec: FieldSpec, x) -> np.ndarray:
    """Covariance at the cosines x of the geodesic angle: the band Legendre
    sum divided by the integer D, so Gamma(1) = D / D = 1.0 exactly."""
    return legendre_band_sum(spec.ell_min, spec.n, x) / spec.dof


def gamma_exact(spec: FieldSpec, theta) -> np.ndarray | float:
    """Covariance at geodesic angle theta: the band-limited Legendre sum
    sum_{l=ell_min}^{n} (2l+1) P_l(cos theta) / D (gamma_at_cos)."""
    scalar = np.ndim(theta) == 0
    th = _check_theta(theta)
    out = gamma_at_cos(spec, np.cos(th))
    return float(out[0]) if scalar else out


def gamma_cd(spec: FieldSpec, theta) -> np.ndarray | float:
    """Covariance via the Christoffel-Darboux two-term closed form:
    [ (n+1) P_n^{(1,0)}(cos theta) - ell_min P_{ell_min-1}^{(1,0)}(cos theta) ] / D.
    """
    scalar = np.ndim(theta) == 0
    th = _check_theta(theta)
    x = np.cos(th)
    if spec.ell_min >= 1:
        # one recurrence to n passes through ell_min - 1 on the way
        lower, upper = jacobi_p10((spec.ell_min - 1, spec.n), x)
        out = ((spec.n + 1) * upper - spec.ell_min * lower) / spec.dof
    else:
        out = (spec.n + 1) * jacobi_p10(spec.n, x) / spec.dof
    return float(out[0]) if scalar else out


def _hilb_values(spec: FieldSpec, theta: np.ndarray) -> np.ndarray:
    pref = (1.0 / np.sin(theta / 2.0)) * np.sqrt(theta / np.sin(theta))
    upper = (spec.n + 1) * bessel_j1((spec.n + 1) * theta)
    lower = spec.ell_min * bessel_j1(spec.ell_min * theta) if spec.ell_min >= 1 else 0.0
    return spec.c_norm / FOUR_PI * pref * (upper - lower)


def _hilb_window(spec: FieldSpec, theta: np.ndarray, epsilon: float, c: float) -> np.ndarray:
    """Mask of the theta in gamma_hilb's window [c/(alpha n), pi - epsilon]."""
    return (theta >= c / (spec.alpha * spec.n)) & (theta <= math.pi - epsilon)


def gamma_hilb(spec: FieldSpec, theta, epsilon: float = 0.1, c: float = 1.0) -> np.ndarray | float:
    """Hilb-type Bessel approximation of the covariance, dropping the Jacobi
    remainder terms.  Valid on c/(alpha n) <= theta <= pi - epsilon."""
    scalar = np.ndim(theta) == 0
    th = _check_theta(theta)
    if not np.all(_hilb_window(spec, th, epsilon, c)):
        raise ValueError(f"gamma_hilb valid only on [{c / (spec.alpha * spec.n):.3g}, {math.pi - epsilon:.3g}]")
    out = _hilb_values(spec, th)
    return float(out[0]) if scalar else out


def _lemma1_prefactor(spec: FieldSpec, psi: np.ndarray) -> np.ndarray:
    an = spec.alpha * spec.n
    theta = psi / an
    return (
        spec.c_norm / FOUR_PI / np.sin(theta / 2.0) * np.sqrt(theta / np.sin(theta))
    )


def _gamma1_values(spec: FieldSpec, psi: np.ndarray) -> np.ndarray:
    # leading regime-1 form: slowly modulated single-frequency oscillation,
    # amplitude down by n^(-beta)
    an = spec.alpha * spec.n
    nb = spec.n**spec.beta
    phase = psi - 0.75 * math.pi
    bracket = -np.cos(phase) * psi / (4.0 * nb) - np.sin(phase)
    return (
        _lemma1_prefactor(spec, psi)
        * an
        * (np.sqrt(psi) / nb)
        * math.sqrt(2.0 / math.pi)
        * 0.5
        * bracket
    )


def _gamma2_values(spec: FieldSpec, psi: np.ndarray) -> np.ndarray:
    # leading regime-2 form: product of a fast oscillation and a slow beat
    # between the two band-edge frequencies
    ratio = (spec.n + 1.0) / (spec.alpha * spec.n)
    s_fast = np.sin(psi / 2.0 - 0.75 * math.pi + 0.5 * ratio * psi)
    s_slow = np.sin(0.5 * ratio * psi - psi / 2.0)
    return -lemma1_regime2_envelope(spec, psi) * s_fast * s_slow


def lemma1_regime_boundary(spec: FieldSpec) -> float:
    """psi value separating the two asymptotic regimes (n^beta)."""
    return spec.n**spec.beta


def lemma1_window(spec: FieldSpec, epsilon: float = 0.1) -> tuple[float, float]:
    """(psi_min, psi_max) on which the rescaled approximants are defined."""
    return 1.0, spec.alpha * spec.n * (math.pi - epsilon)


def _lemma1_regimes(spec: FieldSpec, psi: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the psi in the window (psi_min, psi_max] of lemma1_window
    below the regime boundary and at or above it."""
    lo, hi = lemma1_window(spec, epsilon)
    inside = (psi > lo) & (psi <= hi)
    first = psi < lemma1_regime_boundary(spec)
    return inside & first, inside & ~first


def gamma_lemma1(spec: FieldSpec, psi, epsilon: float = 0.1) -> np.ndarray | float:
    """Leading rescaled approximant: regime-1 form for psi < n^beta, regime-2
    form for psi >= n^beta, error terms dropped.  No continuity is claimed at
    the regime boundary."""
    scalar = np.ndim(psi) == 0
    ps = np.atleast_1d(np.asarray(psi, dtype=float))
    first, second = _lemma1_regimes(spec, ps, epsilon)
    if not np.all(first | second):
        lo, hi = lemma1_window(spec, epsilon)
        raise ValueError(f"gamma_lemma1 valid only on ({lo}, {hi:.6g}]")
    out = np.where(first, _gamma1_values(spec, ps), _gamma2_values(spec, ps))
    return float(out[0]) if scalar else out


def lemma1_regime2_envelope(spec: FieldSpec, psi) -> np.ndarray | float:
    """Tight oscillation envelope of the regime-2 approximant (sines replaced
    by 1)."""
    scalar = np.ndim(psi) == 0
    ps = np.atleast_1d(np.asarray(psi, dtype=float))
    an = spec.alpha * spec.n
    out = _lemma1_prefactor(spec, ps) * (an / np.sqrt(ps)) * math.sqrt(2.0 / math.pi) * 2.0
    return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class CovarianceProfile:
    """Batch evaluation of every covariance formula on a shared psi grid.

    Entries outside a formula's validity window are NaN (written as empty
    fields in CSV).
    """

    spec: FieldSpec
    epsilon: float
    psi: np.ndarray
    theta: np.ndarray
    exact: np.ndarray
    cd: np.ndarray
    hilb: np.ndarray
    lemma1_r1: np.ndarray
    lemma1_r2: np.ndarray


def _on_window(values, spec: FieldSpec, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """values(spec, x) where mask holds, NaN elsewhere."""
    out = np.full_like(x, np.nan)
    out[mask] = values(spec, x[mask])
    return out


# Peak bytes per psi point of profile, counted from the code at its largest
# step, the lower Bessel term of the Hilb column: the columns psi, theta,
# exact and cd and three window masks (35), _on_window's output and windowed
# theta (16), _hilb_values' prefactor, upper term and Bessel argument (24),
# bessel_j1's output, mask and argument copy (17), and the eight buffers of
# _j1_series (64), its larger branch (_j1_asymptotic holds 50).
# write_profile_csv then holds the seven columns and one block of rows.
PROFILE_BYTES_PER_POINT = 35 + 16 + 24 + 17 + 64


def profile(spec: FieldSpec, psi_grid, epsilon: float = 0.1) -> CovarianceProfile:
    psi = np.atleast_1d(np.asarray(psi_grid, dtype=float))
    if np.any(psi > theta_to_psi(spec, math.pi)):
        raise ValueError("psi must lie in [0, alpha*n*pi]")
    theta = psi_to_theta(spec, psi)
    np.minimum(theta, math.pi, out=theta)  # psi = alpha*n*pi can round above pi on the way back
    exact = gamma_exact(spec, theta)  # raises for theta < 0
    first, second = _lemma1_regimes(spec, psi, epsilon)
    return CovarianceProfile(
        spec=spec,
        epsilon=epsilon,
        psi=psi,
        theta=theta,
        exact=exact,
        cd=gamma_cd(spec, theta),
        hilb=_on_window(_hilb_values, spec, theta, _hilb_window(spec, theta, epsilon, 1.0)),
        lemma1_r1=_on_window(_gamma1_values, spec, psi, first),
        lemma1_r2=_on_window(_gamma2_values, spec, psi, second),
    )


def write_profile_csv(prof: CovarianceProfile, out, header_lines: tuple[str, ...] = ()) -> None:
    """CSV with columns psi,theta,exact,cd,hilb,lemma1_r1,lemma1_r2; absent
    values are empty fields; 17 significant digits (field.write_table)."""
    columns = (prof.psi, prof.theta, prof.exact, prof.cd, prof.hilb, prof.lemma1_r1, prof.lemma1_r2)
    names = ("psi", "theta", "exact", "cd", "hilb", "lemma1_r1", "lemma1_r2")
    write_table(out, header_lines, names, [columns])
