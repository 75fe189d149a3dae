"""Band-limited Gaussian ensemble on the sphere: spec, coefficient sampling,
synthesis of field values on a quadrature grid, and the one CSV table writer
of every output file.

The ensemble keeps frequencies ell in [ell_min, n] with
ell_min = ceil(alpha * n), alpha = sqrt(1 - n^(-beta)), and renormalizes by
c_norm = 4*pi / D with the exact integer degree-of-freedom count
D = (n+1)^2 - ell_min^2, so the field has unit variance for every (n, beta)
even when alpha * n is not an integer.  Coefficients are i.i.d. standard
normals in the real spherical-harmonic basis, which is equal in law to the
complex convention with conjugate symmetry.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .grid import SphereGrid
from .specfun import FOUR_PI, assoc_legendre_band

_ROUNDINGS = ("ceil", "floor")


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of the band-limited ensemble."""

    n: int
    beta: float
    alpha: float
    ell_min: int
    dof: int
    c_norm: float
    band_rounding: str = "ceil"

    @property
    def band_width(self) -> int:
        return self.n - self.ell_min + 1


def _finish_spec(n: int, beta: float, alpha: float, ell_min: int, rounding: str) -> FieldSpec:
    dof = (n + 1) ** 2 - ell_min**2
    return FieldSpec(
        n=n,
        beta=beta,
        alpha=alpha,
        ell_min=ell_min,
        dof=dof,
        c_norm=FOUR_PI / dof,
        band_rounding=rounding,
    )


def make_spec(n: int, beta: float, band_rounding: str = "ceil") -> FieldSpec:
    """Build the ensemble spec for top frequency n and bandwidth exponent beta.

    beta must lie strictly inside (0, 1); the boundary regimes are exposed
    separately as single_ell_spec (one frequency) and full_band_spec (all
    frequencies from 0).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if band_rounding not in _ROUNDINGS:
        raise ValueError(f"band_rounding must be one of {_ROUNDINGS}")
    alpha = math.sqrt(1.0 - n ** (-beta))
    edge = alpha * n
    ell_min = math.ceil(edge) if band_rounding == "ceil" else math.floor(edge)
    ell_min = max(0, min(ell_min, n))
    return _finish_spec(n, beta, alpha, ell_min, band_rounding)


def single_ell_spec(n: int) -> FieldSpec:
    """Degenerate one-frequency ensemble (band [n, n]), the beta -> 1 regime."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _finish_spec(n, 1.0, 1.0, n, "ceil")


def full_band_spec(n: int) -> FieldSpec:
    """Full-band ensemble (band [0, n]), the beta -> 0 regime."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _finish_spec(n, 0.0, 0.0, 0, "ceil")


@dataclass(frozen=True, eq=False)
class HarmonicCoefficients:
    """One realization's random coefficients in the real-harmonic basis.

    ``matrix[l - ell_min, n + m]`` holds the coefficient of Y_{l,m}; slots
    outside the band or with |m| > l are zero.
    """

    spec: FieldSpec
    matrix: np.ndarray

    def sum_of_squares(self) -> float:
        return float(np.sum(self.matrix * self.matrix))


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Field values on a grid, row-major (theta outer, phi inner)."""

    spec: FieldSpec
    grid: SphereGrid
    values: np.ndarray


def replicate_rng(master_seed: int, *stream_key: int) -> np.random.Generator:
    """Deterministic per-replicate generator keyed by (master_seed, *key).

    The key tuple feeds a SeedSequence, so streams are independent of worker
    scheduling and of each other.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, stream_key)]))


def sample_coefficients(spec: FieldSpec, rng: np.random.Generator) -> HarmonicCoefficients:
    """Draw the D i.i.d. standard-normal coefficients of one realization.

    Values are drawn in a fixed order (ell ascending, m from -ell to ell), so a
    given generator state always produces the same realization.
    """
    flat = rng.standard_normal(spec.dof)
    matrix = np.zeros((spec.band_width, 2 * spec.n + 1))
    pos = 0
    for ell in range(spec.ell_min, spec.n + 1):
        count = 2 * ell + 1
        matrix[ell - spec.ell_min, spec.n - ell : spec.n + ell + 1] = flat[pos : pos + count]
        pos += count
    return HarmonicCoefficients(spec=spec, matrix=matrix)


# --- synthesis ---------------------------------------------------------------
#
# Band table layout: N_l^m(x) at the northern Gauss nodes only (the first
# ceil(n_theta/2), the equator included when n_theta is odd), stored as a
# contiguous (m, l, t) array so that each m is one (band_width, n_half) matrix.
# The southern rows follow from the parity N_l^m(-x) = (-1)^(l+m) N_l^m(x) on
# the mirror-symmetric nodes of build_grid: the sign goes on the coefficients,
# and one batched matmul contracts the coefficients and their signed copy
# against the northern table, giving each northern row and its southern mirror.

_TABLE_CACHE: dict[tuple, np.ndarray] = {}


def band_table_bytes(spec: FieldSpec, n_theta: int) -> int:
    """Bytes of ``band_table(spec, grid)`` on a grid with n_theta colatitudes."""
    return 8 * (spec.n + 1) * spec.band_width * ((n_theta + 1) // 2)


def parity_rows_bytes(spec: FieldSpec, n_theta: int) -> int:
    """Bytes of the half-spectra that field_blocks holds while it runs."""
    return 32 * (spec.n + 1) * ((n_theta + 1) // 2)


def band_table(spec: FieldSpec, grid: SphereGrid) -> np.ndarray:
    """Normalized associated-Legendre table of the band on the northern grid
    nodes, shape (n + 1, band_width, ceil(n_theta / 2)), entry [m, l - ell_min, t]
    = N_l^m(cos_nodes[t]).  Cached per (band, grid geometry); a sweep builds
    every n's table before it forks its one pool, so the workers share them."""
    key = (spec.ell_min, spec.n, grid.n_theta, grid.n_phi)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = assoc_legendre_band(spec.ell_min, spec.n, grid.cos_nodes[: (grid.n_theta + 1) // 2])
        _TABLE_CACHE[key] = table
    return table


def clear_table_cache() -> None:
    _TABLE_CACHE.clear()


# Bytes of half-spectrum per block of field_blocks: a block's spectrum and
# field rows stay in cache between the FFT and the reductions that read them,
# and a replicate's block buffers together stay below one field.
_BLOCK_BYTES = 1 << 19


def _parity_rows(coeffs: HarmonicCoefficients, table: np.ndarray) -> np.ndarray:
    """Longitude half-spectra X_m of every northern row t and of its southern
    mirror, a complex (n + 1, ceil(n_theta / 2), 2) array [m, t, (north, south)]
    with T(theta, phi) = Re sum_m w_m X_m(theta) exp(i m phi), w_0 = 1,
    w_m = 2 (m > 0).  The mirror takes (-1)^(l+m) c_l for the coefficient c_l.
    X_0 = A_0 and X_m = (A_m - i B_m) / 2 for the cos/sin amplitudes of the
    real harmonics; sqrt(2), 1/2 and sqrt(c_norm) go into the coefficients."""
    spec = coeffs.spec
    n = spec.n
    scale = np.full(n + 1, math.sqrt(0.5 * spec.c_norm))
    scale[0] = math.sqrt(spec.c_norm)
    signed = np.empty((n + 1, spec.band_width, 4))  # [m, l, (re, im) x (north, south)]
    signed[:, :, 0] = (coeffs.matrix[:, n:] * scale).T
    signed[:, :, 1] = (coeffs.matrix[:, n::-1] * -scale).T
    signed[0, :, 1] = 0.0  # no sin term at m = 0
    sign = 1.0 - 2.0 * ((np.arange(n + 1)[:, None] + np.arange(spec.ell_min, n + 1)) % 2)  # (-1)^(l+m)
    np.multiply(signed[:, :, :2], sign[:, :, None], out=signed[:, :, 2:])
    return np.matmul(table.transpose(0, 2, 1), signed).view(complex)


def field_blocks(coeffs: HarmonicCoefficients, grid: SphereGrid):
    """Evaluate the realization block of rows by block of rows.

    Yields ``(rows, values)``: ``rows`` is a slice of colatitude indices,
    descending for the southern blocks, and ``values`` the field on them,
    shape (len(rows), n_phi), in one reused buffer that the next block
    overwrites.

    One batched matmul gives the half-spectra of every northern row and its
    southern mirror (_parity_rows).  Each block of northern rows, and its
    southern mirror, is copied transposed into a reused zero-padded
    half-spectrum of n_phi / 2 + 1 bins, about _BLOCK_BYTES of it, and
    evaluated by one real FFT per row.  On a ring with n_phi <= 2n
    longitudes the orders m > n_phi / 2 alias onto n_phi - m and are folded
    there, conjugated, so every grid that resolves degree n takes this path.
    """
    spec = coeffs.spec
    if grid.exact_degree < spec.n:
        raise ValueError(
            f"grid resolves degree {grid.exact_degree} < field degree {spec.n}"
        )
    n = spec.n
    rows = _parity_rows(coeffs, band_table(spec, grid))
    north = rows.shape[1]
    south = grid.n_theta // 2
    half = grid.n_phi // 2  # build_grid makes n_phi even
    size = max(1, min(north, _BLOCK_BYTES // (16 * (half + 1))))
    spectrum = np.zeros((size, half + 1), dtype=complex)
    kept = min(n, half) + 1
    folded = np.arange(half + 1, n + 1)
    buffer = np.empty((size, grid.n_phi))
    last = grid.n_theta - 1
    for t0 in range(0, north, size):
        t1 = min(t0 + size, north)
        s1 = min(t1, south)  # the equator row, when n_theta is odd, has no mirror
        for k, count, target in ((0, t1 - t0, slice(t0, t1)), (1, s1 - t0, slice(last - t0, last - s1, -1))):
            if count <= 0:
                continue
            spectrum[:count, :kept] = rows[:kept, t0:t0 + count, k].T
            if n >= half:  # add the conjugates of the orders above n_phi / 2
                spectrum[:count, grid.n_phi - folded] += rows[folded, t0:t0 + count, k].T.conj()
                # irfft reads only the real part of the Nyquist bin, at half weight
                spectrum[:count, half] = 2.0 * spectrum[:count, half].real
            values = np.fft.irfft(spectrum[:count], n=grid.n_phi, axis=1, norm="forward", out=buffer[:count])
            yield target, values


def synthesize(coeffs: HarmonicCoefficients, grid: SphereGrid) -> FieldSample:
    """Evaluate the realization on all grid nodes (see field_blocks)."""
    values = np.empty((grid.n_theta, grid.n_phi))
    for rows, block in field_blocks(coeffs, grid):
        values[rows] = block
    return FieldSample(spec=coeffs.spec, grid=grid, values=values)


@contextlib.contextmanager
def text_sink(out):
    """``out`` itself when it is an open text stream; the file at path
    ``out``, opened for writing and closed on exit, when it is a path."""
    if isinstance(out, (str, bytes)):
        with open(out, "w") as fh:
            yield fh
    else:
        yield out


# rows per chunk of write_table: a chunk's strings stay small
_TABLE_BLOCK = 256


def write_table(out, header_lines, names, blocks) -> None:
    """Write a CSV table to a path or an open text stream (text_sink): the
    ``# `` header lines, the column names, then the rows of every tuple of
    equal-length column arrays that ``blocks`` yields, in order.

    Integer columns are written with %d and float columns with %.16e, 17
    significant digits, so every value reads back bit for bit; NaN is an
    empty field.  Each row is one % call from the block's one format,
    _TABLE_BLOCK rows a chunk.  %.16e prints every NaN as "nan", and no %d
    or %.16e field of a finite or infinite value holds that string, so
    deleting it from a formatted chunk empties exactly the NaN fields."""
    with text_sink(out) as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write(",".join(names) + "\n")
        for columns in blocks:
            columns = [np.asarray(col) for col in columns]
            fmt = ",".join("%.16e" if col.dtype.kind == "f" else "%d" for col in columns) + "\n"
            for start in range(0, len(columns[0]), _TABLE_BLOCK):
                rows = zip(*(col[start : start + _TABLE_BLOCK].tolist() for col in columns))
                fh.write("".join(fmt % row for row in rows).replace("nan", ""))


def write_field_csv(sample: FieldSample, out, header_lines: tuple[str, ...] = ()) -> None:
    """Dump a realization as flat rows theta_index,phi_index,value, one block
    of rows per colatitude."""
    phi = np.arange(sample.grid.n_phi)
    blocks = ((np.full(phi.size, i), phi, row) for i, row in enumerate(sample.values))
    write_table(out, header_lines, ("theta_index", "phi_index", "value"), blocks)
