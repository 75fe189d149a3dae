"""Correctness checks the benchmark applies to the program's outputs.

Each check compares an output with a computation made here from numpy and
scipy, or with a property the method must have; none compares with a stored
copy of an earlier output.  Every check returns a list of failure messages,
empty when the output passes.

Statistical checks use the exact standard deviations that the chi-square
moments give, at five of them: the program's bootstrap standard errors are
themselves estimates, unreliable near 100 replicates.
"""

from __future__ import annotations

import io
import math

import numpy as np
from scipy import special, stats

FOUR_PI = 4.0 * math.pi
Z = 5.0  # statistical checks allow five standard deviations

# The leading-order exponent of 1/D(n) leaves out the sub-leading terms of
# Var(S(u)); their ratio to the leading term runs 1.034 -> 1.011 over
# n = 64..512 at beta = 0.5, which tilts the fitted slope by about -0.01.
EXPONENT_MODEL_SLACK = 0.05

PROFILE_COLUMNS = ("psi", "theta", "exact", "cd", "hilb", "lemma1_r1", "lemma1_r2")


# --- the band, computed here from its definition ------------------------------

def band(n: int, beta: float) -> tuple[int, int]:
    """(ell_min, D) of the band [ceil(alpha n), n], alpha = sqrt(1 - n^-beta)."""
    alpha = math.sqrt(1.0 - n ** (-beta))
    ell_min = min(max(math.ceil(alpha * n), 0), n)
    return ell_min, (n + 1) ** 2 - ell_min**2


def dof_exponent(n_list, beta: float) -> float:
    """OLS slope of log(1/D(n)) against log n."""
    logn = np.log(np.asarray(n_list, dtype=float))
    logd = np.log([band(n, beta)[1] for n in n_list])
    return float(np.polyfit(logn, -logd, 1)[0])


def exponent_bound(n_list, replicates: int) -> float:
    """Five standard deviations of the OLS slope of log(sample variance)
    against log n, each variance from `replicates` near-Gaussian values
    (sd of log s^2 = sqrt(2/(R-1))), plus EXPONENT_MODEL_SLACK."""
    logn = np.log(np.asarray(n_list, dtype=float))
    sxx = float(np.sum((logn - logn.mean()) ** 2))
    return Z * math.sqrt(2.0 / (replicates - 1)) / math.sqrt(sxx) + EXPONENT_MODEL_SLACK


def h2_sigmas(dof: int, replicates: int) -> tuple[float, float, float]:
    """For h2 = c (chi2_D - D), c = 4 pi / D, over R draws: the exact
    variance 2 (4 pi)^2 / D, the sd of the sample mean and the sd of the
    sample variance, sqrt(sigma^4 (2/(R-1) + kappa/R)) with kappa = 12/D."""
    var = 2.0 * FOUR_PI**2 / dof
    sd_mean = math.sqrt(var / replicates)
    sd_var = var * math.sqrt(2.0 / (replicates - 1) + (12.0 / dof) / replicates)
    return var, sd_mean, sd_var


# --- field workloads -----------------------------------------------------------

def direct_field(matrix, n: int, ell_min: int, c_norm: float, theta, phi) -> np.ndarray:
    """Field values at points (theta, phi) as the direct sum of a_lm Y_lm in
    the real harmonic basis, built from scipy's complex harmonics:
    Y_l0 = Re Y_l^0, Y_lm = sqrt(2) Re Y_l^m, Y_l,-m = sqrt(2) Im Y_l^m (m > 0).
    ``matrix[l - ell_min, n + m]`` holds a_lm."""
    ls, ms = [], []
    for ell in range(ell_min, n + 1):
        ls.append(np.full(ell + 1, ell))
        ms.append(np.arange(ell + 1))
    ls, ms = np.concatenate(ls), np.concatenate(ms)
    row = ls - ell_min
    cos_coef = matrix[row, n + ms] * np.where(ms == 0, 1.0, math.sqrt(2.0))
    sin_coef = np.where(ms == 0, 0.0, matrix[row, n - ms] * math.sqrt(2.0))
    out = np.empty(len(theta))
    for k, (th, ph) in enumerate(zip(theta, phi)):
        y = special.sph_harm_y(ls, ms, th, ph)
        out[k] = np.dot(cos_coef, y.real) + np.dot(sin_coef, y.imag)
    return math.sqrt(c_norm) * out


def check_direct_sum(matrix, n, ell_min, c_norm, theta, phi, values, tol=1e-10) -> list[str]:
    expect = direct_field(matrix, n, ell_min, c_norm, theta, phi)
    err = float(np.max(np.abs(np.asarray(values) - expect)))
    return [] if err <= tol else [f"field differs from the direct sum by {err:.3g} > {tol:g}"]


def check_close(got, expect, label: str, rtol=1e-10) -> list[str]:
    """max |got - expect| <= rtol * max(1, max |expect|)."""
    got, expect = np.asarray(got, dtype=float), np.asarray(expect, dtype=float)
    if got.shape != expect.shape:
        return [f"{label}: shape {got.shape} != {expect.shape}"]
    scale = max(1.0, float(np.max(np.abs(expect)))) if expect.size else 1.0
    err = float(np.max(np.abs(got - expect))) if got.size else 0.0
    return [] if err <= rtol * scale else [f"{label}: off by {err:.3g} (scale {scale:.3g})"]


def check_h2_identity(h2_quad, h2_exact, tol=1e-8) -> list[str]:
    err = float(np.max(np.abs(np.asarray(h2_quad) - np.asarray(h2_exact))))
    return [] if err <= tol else [f"quadrature h2 differs from c*sum(a^2) - 4pi by {err:.3g}"]


def check_h1_zero(h1, tol=1e-10) -> list[str]:
    worst = float(np.max(np.abs(h1)))
    return [] if worst <= tol else [f"|h1| reaches {worst:.3g}; the band has no l = 0 term"]


def check_zero_mean(values, label: str) -> list[str]:
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size)
    mean = float(values.mean())
    return [] if abs(mean) <= Z * se else [f"mean {label} = {mean:.4g}, {abs(mean) / se:.1f} SE from 0"]


def check_mean_area(areas, u: float) -> list[str]:
    areas = np.asarray(areas, dtype=float)
    target = FOUR_PI * 0.5 * special.erfc(u / math.sqrt(2.0))
    se = areas.std(ddof=1) / math.sqrt(areas.size)
    mean = float(areas.mean())
    if abs(mean - target) <= Z * se:
        return []
    return [f"mean area {mean:.6g} is {abs(mean - target) / se:.1f} SE from 4pi(1-Phi(u)) = {target:.6g}"]


def check_h2_moments(h2, dof: int) -> list[str]:
    h2 = np.asarray(h2, dtype=float)
    var, sd_mean, sd_var = h2_sigmas(dof, h2.size)
    fails = []
    mean = float(h2.mean())
    if abs(mean) > Z * sd_mean:
        fails.append(f"mean h2 = {mean:.4g}, {abs(mean) / sd_mean:.1f} sigma from 0")
    v = float(h2.var(ddof=1))
    if abs(v - var) > Z * sd_var:
        fails.append(f"Var(h2) = {v:.6g}, {abs(v - var) / sd_var:.1f} sigma from 2(4pi)^2/D = {var:.6g}")
    return fails


def check_row_band(row: dict, n: int, beta: float) -> list[str]:
    ell_min, dof = band(n, beta)
    fails = []
    if row.get("error") is not None:
        fails.append(f"row error: {row['error']}")
    if row.get("ell_min") != ell_min or row.get("dof") != dof:
        fails.append(f"band ({row.get('ell_min')}, {row.get('dof')}) != ({ell_min}, {dof})")
    formula = row.get("var_h2_exact_formula")
    if formula is None or abs(formula - 2.0 * FOUR_PI**2 / dof) > 1e-12 * formula:
        fails.append(f"var_h2_exact_formula {formula} != 2(4pi)^2/D")
    return fails


def check_exponent(slope, n_list, beta: float, replicates: int) -> list[str]:
    if slope is None:
        return ["no fitted exponent"]
    target = dof_exponent(n_list, beta)
    bound = exponent_bound(n_list, replicates)
    if abs(slope - target) <= bound:
        return []
    return [f"fitted exponent {slope:.4f} is {abs(slope - target):.3f} from the D(n) exponent {target:.4f} (bound {bound:.3f})"]


# --- h2-direct -------------------------------------------------------------------

def check_h2_direct(row: dict, draws, n: int, beta: float) -> list[str]:
    """The reported statistics against the draws they came from, and the
    draws against the chi-square law."""
    draws = np.asarray(draws, dtype=float)
    fails = check_row_band(row, n, beta)
    _, dof = band(n, beta)
    fails += check_h2_moments(draws, dof)
    fails += check_close(row["var_h2_hat"], draws.var(ddof=1), "var_h2_hat", rtol=1e-12)
    _, _, sd_var = h2_sigmas(dof, draws.size)
    ratio = row["var_h2_se"] / sd_var
    if not 0.8 <= ratio <= 1.2:
        fails.append(f"bootstrap SE / exact sigma = {ratio:.3f}, outside [0.8, 1.2]")
    z = (draws - draws.mean()) / draws.std(ddof=1)
    ks = stats.kstest(z, "norm").statistic
    if row["clt_ks_stat"] is None or abs(row["clt_ks_stat"] - ks) > 1e-12:
        fails.append(f"KS statistic {row['clt_ks_stat']} != scipy's {ks!r}")
    return fails


# --- covariance profile ---------------------------------------------------------

def parse_profile_csv(text: str) -> dict[str, np.ndarray]:
    """Columns of a covariance CSV; empty fields become NaN."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = tuple(lines[0].split(","))
    if header != PROFILE_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    table = np.genfromtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", dtype=float)
    table = np.atleast_2d(table)
    return {name: table[:, k] for k, name in enumerate(PROFILE_COLUMNS)}


def legendre_covariance(n: int, ell_min: int, dof: int, theta) -> np.ndarray:
    """(1/D) sum_{l=ell_min}^{n} (2l+1) P_l(cos theta), from scipy."""
    ls = np.arange(ell_min, n + 1)[:, None]
    x = np.cos(np.asarray(theta, dtype=float))[None, :]
    return np.sum((2 * ls + 1) * special.eval_legendre(ls, x), axis=0) / dof


def check_profile(parsed: dict, arrays: dict, n: int, beta: float, rows) -> list[str]:
    """CSV columns against the profile's arrays, Gamma_exact against
    Gamma_cd and against scipy's Legendre sum at the given rows, Gamma(0) = 1."""
    fails = []
    for name in PROFILE_COLUMNS:
        if not np.array_equal(parsed[name], arrays[name], equal_nan=True):
            fails.append(f"CSV column {name} does not parse back to the profile")
    exact, cd, psi = parsed["exact"], parsed["cd"], parsed["psi"]
    gap = float(np.max(np.abs(exact - cd)))
    if not gap <= 1e-10:
        fails.append(f"|gamma_exact - gamma_cd| reaches {gap:.3g}")
    if psi[0] != 0.0 or not abs(exact[0] - 1.0) <= 1e-12:
        fails.append(f"Gamma(0) = {exact[0]!r} at psi = {psi[0]!r}")
    ell_min, dof = band(n, beta)
    expect = legendre_covariance(n, ell_min, dof, parsed["theta"][rows])
    err = float(np.max(np.abs(exact[rows] - expect)))
    if not err <= 1e-10:
        fails.append(f"gamma_exact differs from scipy's Legendre sum by {err:.3g}")
    return fails
