"""Scalar special-function kernels: Legendre, normalized associated Legendre,
Jacobi P_n^(1,0), Bessel J1, probabilists' Hermite, Gaussian pdf/cdf and the
Hermite-expansion coefficients of a Gaussian level indicator.

Everything here is a pure function of its inputs, safe to share across
threads and processes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
FOUR_PI = 4.0 * math.pi

# Crossover between the J1 power series and the large-argument (Hankel)
# expansion.  Both branches bottom out near 1.5e-12 absolute around x ~ 12;
# see tests for the measured error envelope.
_J1_CROSSOVER = 12.0


def legendre_band_sum(ell_min: int, ell_max: int, x: np.ndarray | float) -> np.ndarray | float:
    """sum_{l=ell_min}^{ell_max} (2l+1) P_l(x), vectorized over x.

    Runs the three-term recurrence once, in place on three buffers,
    accumulating only the band terms.  The division-free form
    P_l = x P_{l-1} + ((l-1)/l) (x P_{l-1} - P_{l-2}) keeps P_l(+-1) = (+-1)^l
    exact: the bracket is exactly 0 there.
    """
    if ell_min < 0 or ell_max < ell_min:
        raise ValueError(f"need 0 <= ell_min <= ell_max, got [{ell_min}, {ell_max}]")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0):
        raise ValueError("Legendre argument must lie in [-1, 1]")
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    acc = np.zeros_like(x)
    if ell_min == 0:
        acc += p_prev
    if ell_max >= 1 and ell_min <= 1:
        acc += 3.0 * p_cur
    xp = np.empty_like(x)
    for ell in range(2, ell_max + 1):
        np.multiply(x, p_cur, out=xp)
        np.subtract(xp, p_prev, out=p_prev)
        p_prev *= (ell - 1) / ell
        p_prev += xp
        p_prev, p_cur = p_cur, p_prev
        if ell >= ell_min:
            np.multiply(p_cur, 2 * ell + 1, out=xp)
            acc += xp
    return float(acc[0]) if scalar else acc


# The m-recurrence of each degree runs on mantissas, each column (degree,
# colatitude) with its own power-of-two exponent.  A column whose newest value
# passes _BIG has its two live values scaled by _SHRINK, an exact power of two,
# and _SHIFT added to its exponent, so the mantissas never overflow; entries
# that end below the normal range (_TINY) are flushed to 0.
_SHIFT = 300
_BIG = 2.0**_SHIFT
_SHRINK = 2.0**-_SHIFT
_TINY = float(np.finfo(float).tiny)


def assoc_legendre_band(ell_min: int, ell_max: int, cos_theta: np.ndarray) -> np.ndarray:
    """Band-limited normalized associated Legendre table over many colatitudes.

    Returns a C-contiguous array of shape
    (ell_max + 1, ell_max - ell_min + 1, len(cos_theta)) with entry
    [m, l - ell_min, j] = N_l^m(cos_theta[j]); slots with m > l are zero.  The
    normalization is the spherical-harmonic one, Condon-Shortley phase
    included: N_l^0 and sqrt(2) N_l^m cos(m phi), sqrt(2) N_l^m sin(m phi)
    (m > 0) are the orthonormal real harmonics.

    One recurrence builds every entry: each degree l starts from its sectoral
    value N_l^l = -sqrt((2l+1)/(2l)) sin(theta) N_{l-1}^{l-1}, carried up the
    chain as a mantissa and a power-of-two exponent (np.frexp), and runs
    N_l^{m-1} = -[2m cot(theta) N_l^m + sqrt((l+m+1)(l-m)) N_l^{m+1}]
    / sqrt((l+m)(l-m+1)) down to m = 0, the direction in which the recurrence
    is stable (Gautschi, SIAM Review 9, 1967), on (band width, colatitude)
    arrays: all degrees and colatitudes at once.  The exponents keep values
    far below the float range exact (Fukushima, J. Geodesy 86, 2012); each
    order's slab is written once into out[m] by np.ldexp, with entries below
    the normal range flushed to 0, so the table holds no subnormal number.
    The poles are set directly.  The build costs
    O(ell_max * (ell_max - ell_min + 1)) per colatitude and takes little more
    memory than the table itself.
    """
    x = np.asarray(cos_theta, dtype=float)
    if x.ndim != 1:
        raise ValueError("cos_theta must be one-dimensional")
    if np.any(np.abs(x) > 1.0):
        raise ValueError("cos_theta must lie in [-1, 1]")
    if not 0 <= ell_min <= ell_max:
        raise ValueError(f"need 0 <= ell_min <= ell_max, got [{ell_min}, {ell_max}]")
    shape = (ell_max - ell_min + 1, x.size)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    pole = np.flatnonzero(s == 0.0)
    cot = x / np.where(s == 0.0, 1.0, s)
    out = np.zeros((ell_max + 1,) + shape)
    if not x.size:
        return out
    # the sectoral chain: the mantissa and exponent of N_l^l for every band degree
    sectoral, exponent = np.empty(shape), np.empty(shape, dtype=np.intc)
    mantissa, power = np.frexp(np.full(x.size, 1.0 / math.sqrt(FOUR_PI)))
    for ell in range(ell_max + 1):
        if ell:
            mantissa *= -math.sqrt((2.0 * ell + 1.0) / (2.0 * ell)) * s
            mantissa, k = np.frexp(mantissa)
            power += k
        if ell >= ell_min:
            sectoral[ell - ell_min], exponent[ell - ell_min] = mantissa, power
    # recurrence coefficients [m, l - ell_min]; those with m > l are never read
    degrees = np.arange(ell_min, ell_max + 1.0)
    orders = np.arange(ell_max + 1.0)[:, None]
    c = np.sqrt(np.maximum((degrees + orders) * (degrees - orders + 1.0), 1.0))
    p = -2.0 * orders / c
    q = -np.sqrt(np.maximum((degrees + orders + 1.0) * (degrees - orders), 0.0)) / c
    # the rows l >= m of cur hold N_l^m and those of prev N_l^{m+1}, both
    # scaled by 2^-exponent; degree m joins at order m
    cur, prev, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    for m in range(ell_max, -1, -1):
        live = slice(max(0, m - ell_min), None)  # contiguous rows
        if m >= ell_min:
            cur[m - ell_min], prev[m - ell_min] = sectoral[m - ell_min], 0.0
        slab, now, last, t, e = out[m, live], cur[live], prev[live], tmp[live], exponent[live]
        np.ldexp(now, e, out=slab)
        np.copyto(slab, 0.0, where=np.abs(slab, out=t) < _TINY)
        if m == 0:
            break
        # N^{m-1} = (p cot) N^m + q N^{m+1}, into the buffer of N^{m+1}
        np.multiply(p[m, live, None], cot, out=t)
        t *= now
        last *= q[m, live, None]
        last += t
        if last.max() > _BIG or last.min() < -_BIG:
            big = np.flatnonzero(np.abs(last, out=t) > _BIG)
            last.flat[big] *= _SHRINK
            now.flat[big] *= _SHRINK
            e.flat[big] += _SHIFT
        cur, prev = prev, cur
    if pole.size:
        out[0][:, pole] = x[pole] ** degrees[:, None] * np.sqrt((2.0 * degrees[:, None] + 1.0) / FOUR_PI)
    return out


def jacobi_p10(n, x: np.ndarray | float) -> np.ndarray | float:
    """Jacobi polynomial P_n^(1,0)(x) by three-term recurrence, vectorized in x.

    Satisfies P_0 = 1, P_1 = (3x+1)/2 and
    (n+1)(2n-1) P_n = [(2n+1)(2n-1)x + 1] P_{n-1} - (n-1)(2n+1) P_{n-2}.

    ``n`` may also be a sequence of degrees: the recurrence then runs once, to
    the highest, and the result has one row per degree.
    """
    degrees = np.atleast_1d(np.asarray(n, dtype=int))
    if degrees.min() < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0):
        raise ValueError("Jacobi argument must lie in [-1, 1]")
    wanted = set(degrees.tolist())
    out = np.empty((degrees.size, x.size))
    p_prev = np.ones_like(x)
    p_cur = (3.0 * x + 1.0) / 2.0
    for k, p in ((0, p_prev), (1, p_cur)):
        if k in wanted:
            out[degrees == k] = p
    # in place on rolling buffers, with the operations of the formula above in
    # its order, so the values are those of evaluating it as written
    t = np.empty_like(x)
    for k in range(2, int(degrees.max()) + 1):
        np.multiply(x, (2 * k + 1) * (2 * k - 1), out=t)
        t += 1.0
        t *= p_cur
        p_prev *= (k - 1) * (2 * k + 1)
        np.subtract(t, p_prev, out=p_prev)
        p_prev /= (k + 1) * (2 * k - 1)
        p_prev, p_cur = p_cur, p_prev
        if k in wanted:
            out[degrees == k] = p_cur
    if np.ndim(n) == 0:
        return float(out[0, 0]) if scalar else out[0]
    return out[:, 0] if scalar else out


def _j1_series(x: np.ndarray) -> np.ndarray:
    # J1(x) = (x/2) sum_k (-x^2/4)^k / (k! (k+1)!); compensated summation
    # keeps the accumulation error at the level of the term roundoff.
    u = -(x * x) / 4.0
    term = x / 2.0
    total = term.copy()
    comp = np.zeros_like(x)
    for k in range(1, 60):
        term = term * u / (k * (k + 1))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)):
            break
    return total


def _j1_asymptotic(x: np.ndarray) -> np.ndarray:
    # Hankel expansion: J1 = sqrt(2/(pi x)) [cos(chi) P(x) - sin(chi) Q(x)],
    # chi = x - 3 pi/4, with a_k = prod_{i<=k} (4 - (2i-1)^2) / (k! 8^k).
    # Terms are added while they keep decreasing (optimal truncation).  The
    # sums run in place on reused buffers, each step the operation of the
    # plain formula, so the values are those of evaluating it as written.
    p_sum = np.ones_like(x)
    q_sum = np.zeros_like(x)
    a = 1.0
    xk = np.ones_like(x)
    last = np.full_like(x, np.inf)
    active = np.ones_like(x, dtype=bool)
    shrinking = np.empty_like(active)
    term = np.empty_like(x)
    mag = np.empty_like(x)
    for k in range(1, 40):
        a *= (4.0 - (2 * k - 1) ** 2) / (k * 8.0)
        np.divide(xk, x, out=xk)
        np.multiply(xk, a, out=term)
        np.abs(term, out=mag)
        active &= np.less(mag, last, out=shrinking)
        if not np.any(active):
            break
        np.copyto(last, mag, where=active)
        if (k // 2) % 2:
            np.negative(term, out=term)
        total = q_sum if k % 2 == 1 else p_sum
        np.add(total, term, out=total, where=active)
    chi = np.subtract(x, 0.75 * math.pi, out=xk)
    np.multiply(np.cos(chi, out=term), p_sum, out=p_sum)
    np.multiply(np.sin(chi, out=term), q_sum, out=q_sum)
    p_sum -= q_sum
    np.multiply(x, math.pi, out=chi)
    np.divide(2.0, chi, out=chi)
    np.sqrt(chi, out=chi)
    chi *= p_sum
    return chi


def bessel_j1(x: np.ndarray | float) -> np.ndarray | float:
    """Bessel function J1 for x >= 0.

    Power series below the crossover, Hankel-type large-argument expansion
    above; absolute error stays below ~2e-12 everywhere and below 1e-13 away
    from the crossover region.
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise ValueError("bessel_j1 requires x >= 0")
    out = np.empty_like(x)
    small = x <= _J1_CROSSOVER
    if np.any(small):
        out[small] = _j1_series(x[small])
    if np.any(~small):
        out[~small] = _j1_asymptotic(x[~small])
    return float(out[0]) if scalar else out


def hermite_all(q_max: int, t: np.ndarray | float) -> np.ndarray:
    """Probabilists' Hermite polynomials H_0..H_q_max at t (scalar or array),
    shape (q_max + 1,) + shape(t), by H_0 = 1, H_1 = t and
    H_k = t H_{k-1} - (k-1) H_{k-2}."""
    t = np.asarray(t, dtype=float)
    h = np.empty((q_max + 1,) + t.shape)
    h[0] = 1.0
    if q_max >= 1:
        h[1] = t
    for k in range(2, q_max + 1):
        h[k] = h[k - 1] * t - (k - 1) * h[k - 2]
    return h


def gaussian_pdf(u: np.ndarray | float) -> np.ndarray | float:
    """Standard Gaussian density."""
    return np.exp(-0.5 * np.square(u)) / SQRT_2PI


# The array path of gaussian_cdf writes Phi(-a) = g(a) exp(-a^2/2), a = |u|,
# where g(a) = exp(a^2/2) Phi(-a) is the Mills ratio over sqrt(2 pi): smooth and
# slowly varying, so a low-degree polynomial per short interval holds it to a
# few ulp.  Interval j is centred on a = j * _MILLS_STEP, up to _MILLS_CUT;
# beyond it the Mills ratio's continued fraction converges in _MILLS_CF_DEPTH
# steps (relative error < 1e-15 for a > 6).
_MILLS_STEP = 1.0 / 32.0
_MILLS_DEGREE = 6
_MILLS_CUT = 6.0
_MILLS_CF_DEPTH = 20
# points per block: a block's temporaries stay in cache, and a call needs
# little memory beyond its output array
_CDF_BLOCK = 8192


@functools.cache
def _mills_table() -> np.ndarray:
    """Row j holds the monomial coefficients in t = a/_MILLS_STEP - j, |t| <= 1/2,
    of the polynomial through g at the interval's Chebyshev nodes.  Built on
    first use: a run that never takes the array path does not pay for it."""
    k = np.arange(_MILLS_DEGREE + 1)
    t = 0.5 * np.cos((2 * k + 1) * math.pi / (2 * _MILLS_DEGREE + 2))
    x = (np.arange(round(_MILLS_CUT / _MILLS_STEP) + 1) + t[:, None]) * (_MILLS_STEP / math.sqrt(2.0))
    g = 0.5 * np.exp(x * x) * np.fromiter(map(math.erfc, x.flat), float, x.size).reshape(x.shape)
    return np.ascontiguousarray(np.linalg.solve(t[:, None] ** k, g).T)


def _mills_tail(a: np.ndarray) -> np.ndarray:
    # g(a) = 1 / (sqrt(2 pi) (a + 1/(a + 2/(a + 3/(a + ...)))))
    f = a
    for k in range(_MILLS_CF_DEPTH, 0, -1):
        f = a + k / f
    return 1.0 / (SQRT_2PI * f)


def _gaussian_cdf_block(u: np.ndarray, out: np.ndarray) -> None:
    # exp(-a^2/2) is 0 long before a = 40, and the cap keeps a*a and the tail
    # finite; NaN stays NaN
    a = np.abs(u)
    np.minimum(a, 40.0, out=a)
    # interval index and local variable; fmin sends NaN to the last interval,
    # whose value the NaN factor exp(-a^2/2) replaces
    t = np.fmin(a, _MILLS_CUT)
    t *= 1.0 / _MILLS_STEP
    j = np.rint(t)
    t -= j
    coeffs = _mills_table().take(j.astype(np.intp), axis=0)
    g = coeffs[:, _MILLS_DEGREE].copy()
    for k in range(_MILLS_DEGREE - 1, -1, -1):
        g *= t
        g += coeffs[:, k]
    far = a > _MILLS_CUT
    if far.any():
        g[far] = _mills_tail(a[far])
    np.multiply(a, a, out=t)
    t *= -0.5
    np.exp(t, out=t)
    g *= t
    # Phi(u) = |s - Phi(-|u|)| with s = 1 for u > 0 and s = 0 for u < 0; at
    # u = 0 either s gives 1/2.  s = ceil(clip(u, 0, 1)) keeps it in floats.
    np.clip(u, 0.0, 1.0, out=out)
    np.ceil(out, out=out)
    out -= g
    np.abs(out, out=out)


def gaussian_cdf(u: np.ndarray | float) -> np.ndarray | float:
    """Standard Gaussian distribution function Phi(u), |error| <= 1e-12.

    A scalar or 0-d input gives a float from ``math.erfc``.  An array gives
    an array of its shape, computed in blocks with numpy alone: a degree-6
    polynomial per interval of width 1/32 in |u| interpolates the scaled
    Mills ratio exp(u^2/2) Phi(-|u|) below |u| = 6, its continued fraction
    takes over above, and exp(-u^2/2) restores the scale.  Against
    ``math.erfc`` the absolute error is at most ~3e-16 everywhere, and the
    relative error in the lower tail stays below ~u^2 * 2e-16 (2.4e-13 at
    u = -38, where Phi underflows); NaN stays NaN and -inf, inf give 0, 1.
    """
    if np.ndim(u) == 0:
        return 0.5 * math.erfc(-float(u) / math.sqrt(2.0))
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    flat_u, flat_out = u.ravel(), out.reshape(-1)
    for start in range(0, flat_u.size, _CDF_BLOCK):
        stop = start + _CDF_BLOCK
        _gaussian_cdf_block(flat_u[start:stop], flat_out[start:stop])
    return out


def jq_coefficient(q: int, u: float) -> float:
    """Hermite-expansion coefficient of the level-u indicator:
    J_0 = Phi(u), J_q = -H_{q-1}(u) * phi(u) for q >= 1."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if q == 0:
        return float(gaussian_cdf(u))
    h = hermite_all(q - 1, float(u))
    return -float(h[q - 1]) * float(gaussian_pdf(u))
