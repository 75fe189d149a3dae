"""Monte Carlo experiment orchestration: variance sweeps over the top
frequency, scaling-exponent regression, CLT testing, and chaos-dominance
diagnostics, with closed-form standard errors and a delta-method exponent CI.

Reproducibility contract: a config plus master seed determines every output
bit, independently of the worker count and of the process start method.
Every generator comes from field.replicate_rng: replicate streams are keyed
by (master_seed, n, replicate_index); replicate results are collected into
arrays indexed by replicate, so reductions always run in the same order.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat

import numpy as np

from .chaos import (
    chaos_variance, h2_exact_from_coeffs, h2_sample_direct, h2_variance_formula, hermite_integrals, power_row_sums,
)
from .field import FieldSpec, band_table, field_blocks, make_spec, replicate_rng, sample_coefficients, write_csv
from .grid import build_grid, integrate_rows
# no sweep calls these whole-field functions; they stay attributes of this
# module because the benchmark's layer tracer wraps them here
from .chaos import chaos_integrals, excursion_area  # noqa: F401
from .field import synthesize  # noqa: F401
from .specfun import gaussian_cdf, gaussian_pdf, jq_coefficient

# Asymptotic two-sided Kolmogorov-Smirnov critical coefficient at the 1% level
KS_COEFF_1PCT = 1.628

BOOTSTRAP_RESAMPLES = 1000  # per bootstrap standard error (a test reference only)

MODES = ("field_full", "h2_direct")


@dataclass(frozen=True)
class ExperimentConfig:
    n_list: tuple[int, ...]
    beta: float
    u: float = 1.0
    replicates: int = 2000
    master_seed: int = 20260808
    oversample: float = 4.0
    mode: str = "field_full"
    q_max: int = 4
    workers: int = 1
    band_rounding: str = "ceil"

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if self.replicates < 100:
            raise ValueError("need at least 100 replicates for variance estimates")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.q_max < 2:
            raise ValueError("q_max must be >= 2")
        if self.oversample < 1.0:
            raise ValueError("oversample must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for n in self.n_list:  # a bad band is a config error, not a failed row
            make_spec(n, self.beta, self.band_rounding)


@dataclass(frozen=True)
class SweepRow:
    n: int
    ell_min: int
    dof: int
    var_s_hat: float | None = None
    var_s_se: float | None = None
    mean_s_hat: float | None = None
    mean_s_se: float | None = None
    var_h2_hat: float | None = None
    var_h2_se: float | None = None
    var_h2_exact_formula: float | None = None
    clt_ks_stat: float | None = None
    clt_pass: bool | None = None
    var_hq: dict[int, float] = field(default_factory=dict)
    var_hq_se: dict[int, float] = field(default_factory=dict)
    chaos_ratios: dict[int, float] = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[SweepRow, ...]
    fitted_exponent: float | None = None
    exponent_ci: tuple[float, float] | None = None
    replicate_data: dict = field(default_factory=dict, repr=False)


# --- statistics helpers ------------------------------------------------------

def ks_statistic(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance to the standard normal CDF."""
    return _ks_sorted(np.sort(np.asarray(sample, dtype=float)))


def _ks_sorted(z: np.ndarray) -> float:
    """ks_statistic of an ascending sample; overwrites z."""
    r = z.size
    cdf = gaussian_cdf(z)
    steps = np.arange(r + 1, dtype=float)
    steps /= r  # i/r for i = 0..r
    d_minus = np.subtract(cdf, steps[:-1], out=z).max()
    d_plus = np.subtract(steps[1:], cdf, out=z).max()
    return float(max(d_plus, d_minus))


def ks_critical_one_sample(r: int) -> float:
    """Asymptotic 1% two-sided critical value for a sample of size r."""
    return KS_COEFF_1PCT / math.sqrt(r)


def clt_test(samples: np.ndarray) -> tuple[float, bool]:
    """Standardize the samples and KS-test them against the standard normal
    at the 1% level."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 500:
        raise ValueError(f"need >= 500 samples, got {samples.size}")
    sd = samples.std(ddof=1)
    if not sd > 0:
        raise ValueError("degenerate sample: zero standard deviation")
    z = samples - samples.mean()
    z /= sd
    z.sort()
    stat = _ks_sorted(z)
    return stat, stat < ks_critical_one_sample(samples.size)


def variance_se(values: np.ndarray) -> float:
    """Moment standard error of the sample variance s^2 (ddof=1) of r values:
    sqrt((m4 - s^4 (r-3)/(r-1)) / r), m4 the fourth central sample moment.
    The radicand is never negative: m4 >= m2^2 = s^4 ((r-1)/r)^2, and
    (r-1)^3 - r^2 (r-3) = 3r - 1 > 0."""
    r = values.size
    dev = values - values.mean()
    dev2 = dev * dev
    s2 = float(dev2.sum()) / (r - 1)
    m4 = float(dev2 @ dev2) / r
    return math.sqrt((m4 - s2 * s2 * (r - 3) / (r - 1)) / r)


def bootstrap_variance_se(values: np.ndarray, rng: np.random.Generator) -> float:
    """Bootstrap standard error of the sample variance (ddof=1); the
    reference that the tests hold variance_se against."""
    values = np.asarray(values, dtype=float)
    r = values.size
    boots = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        boots[b] = values[rng.integers(0, r, r)].var(ddof=1)
    return float(boots.std(ddof=1))


def bootstrap_mean_se(values: np.ndarray, rng: np.random.Generator) -> float:
    """Bootstrap standard error of the mean; a test reference like
    bootstrap_variance_se."""
    values = np.asarray(values, dtype=float)
    r = values.size
    boots = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        boots[b] = values[rng.integers(0, r, r)].mean()
    return float(boots.std(ddof=1))


# --- replicate evaluation ----------------------------------------------------

def _replicate_row(spec: FieldSpec, grid, u: float, q_max: int, master_seed: int, r: int):
    """Seed id, area, chaos integrals and exact h2 of replicate r.  The field
    is reduced block of rows by block of rows as field_blocks yields it, to
    per-row power sums and exceedance counts; no whole field is built."""
    rng = replicate_rng(master_seed, spec.n, r)
    seed_id = rng.bit_generator.seed_seq.generate_state(1, np.uint64)[0]
    coeffs = sample_coefficients(spec, rng)
    sums = np.empty((q_max + 1, grid.n_theta))
    counts = np.empty(grid.n_theta, dtype=np.intp)
    for rows, values in field_blocks(coeffs, grid):
        power_row_sums(values, q_max, out=sums[:, rows])
        counts[rows] = np.count_nonzero(values > u, axis=1)
    area = float(integrate_rows(grid, counts))
    return seed_id, area, hermite_integrals(grid, sums), h2_exact_from_coeffs(coeffs)


def _replicate_chunk(spec: FieldSpec, grid, u: float, q_max: int, master_seed: int, bounds):
    """Arrays of replicates lo..hi-1, bounds = (lo, hi): the one replicate
    kernel, called in-process or, pickled, by a pool worker."""
    reps = range(*bounds)
    data = {
        "area": np.empty(len(reps)),
        "h": np.empty((len(reps), q_max + 1)),
        "h2_exact": np.empty(len(reps)),
        "seed": np.empty(len(reps), dtype=np.uint64),
    }
    for i, r in enumerate(reps):
        data["seed"][i], data["area"][i], data["h"][i], data["h2_exact"][i] = _replicate_row(
            spec, grid, u, q_max, master_seed, r
        )
    return data


def _run_replicates(spec, grid, u, q_max, master_seed, replicates, workers):
    """Evaluate all replicates in chunks, in this process or on a pool of at
    most one worker per CPU, and join the chunks in replicate order.  The
    chunks depend on ``workers`` only, so the output does not depend on the
    CPU count.  Workers fork where the platform can, so they share the band
    table built before the pool."""
    size = max(1, replicates // (workers * 8))
    bounds = [(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]
    kernel = functools.partial(_replicate_chunk, spec, grid, u, q_max, master_seed)
    if workers <= 1:
        chunks = list(map(kernel, bounds))
    else:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        mp_ctx = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1), mp_context=mp_ctx) as pool:
            chunks = list(pool.map(kernel, bounds))
    return {key: np.concatenate([chunk[key] for chunk in chunks]) for key in chunks[0]}


def grid_degree(n: int, oversample: float, q_max: int = 2) -> int:
    """Degree of the field grid at top frequency n: oversample * n, and at
    least q_max * n, the degree of H_q(field) for q <= q_max, so the chaos
    quadratures up to q_max are exact."""
    return max(int(math.ceil(oversample * n)), q_max * n)


def chaos_weight(q: int, u: float) -> float:
    """J_q(u)^2 / q!^2, the weight of Var(h_q) in the variance of the area."""
    return jq_coefficient(q, u) ** 2 / math.factorial(q) ** 2


def _sweep_row(config: ExperimentConfig, n: int):
    """Summary row and replicate arrays at top frequency n.

    The mode chooses only where the arrays come from: synthesized fields
    (area, chaos integrals and exact h2 of each replicate) or direct
    chi-square draws of h2.  Every statistic of the row is computed from the
    arrays present, and every standard error in closed form: the exact one
    for Var(h2), the moment one for the other variances, s/sqrt(r) for the
    mean.
    """
    spec = make_spec(n, config.beta, config.band_rounding)
    if config.mode == "field_full":
        grid = build_grid(grid_degree(n, config.oversample, config.q_max))
        band_table(spec, grid)  # build before forking so workers share it
        data = _run_replicates(
            spec, grid, config.u, config.q_max, config.master_seed, config.replicates, config.workers
        )
    else:
        draws = h2_sample_direct(spec, replicate_rng(config.master_seed, n, 0), size=config.replicates)
        data = {"h2_exact": draws}
    areas = data.get("area")
    h2x = data["h2_exact"]
    r = h2x.size
    var_h2 = h2_variance_formula(spec)
    # h2 = c (chi2_D - D) in both modes, with excess kurtosis 12/D, so the
    # standard error of its sample variance is known exactly
    stats = {
        "var_h2_hat": float(h2x.var(ddof=1)),
        "var_h2_se": var_h2 * math.sqrt(2.0 / (r - 1) + 12.0 / (spec.dof * r)),
    }
    if areas is not None:
        h = data["h"]
        var_s = float(areas.var(ddof=1))
        var_hq = {q: float(h[:, q].var(ddof=1)) for q in range(3, config.q_max + 1)}
        stats.update(
            var_s_hat=var_s,
            var_s_se=variance_se(areas),
            mean_s_hat=float(areas.mean()),
            mean_s_se=math.sqrt(var_s / r),
            var_hq=var_hq,
            var_hq_se={q: variance_se(h[:, q]) for q in var_hq},
            chaos_ratios={q: chaos_weight(q, config.u) * v / var_s
                          for q, v in {2: stats["var_h2_hat"], **var_hq}.items()} if var_s > 0 else {2: math.nan},
        )
    clt_sample = h2x if areas is None else areas
    ks_stat, ks_pass = clt_test(clt_sample) if clt_sample.size >= 500 else (None, None)
    row = SweepRow(
        n=n,
        ell_min=spec.ell_min,
        dof=spec.dof,
        var_h2_exact_formula=var_h2,
        clt_ks_stat=ks_stat,
        clt_pass=ks_pass,
        **stats,
    )
    return row, data


def run_variance_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Run the per-n Monte Carlo and aggregate summary rows.

    A failure for one n is recorded in its row and does not abort the others.
    """
    rows = []
    replicate_data = {}
    for n in config.n_list:
        try:
            row, replicate_data[n] = _sweep_row(config, n)
        except Exception as exc:  # propagate per-n without aborting the sweep
            spec = make_spec(n, config.beta, config.band_rounding)  # checked by the config
            row = SweepRow(n=n, ell_min=spec.ell_min, dof=spec.dof, error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    result = ExperimentResult(config=config, rows=tuple(rows), replicate_data=replicate_data)
    if len(usable_rows(rows)) >= 3:  # h2_direct rows carry no area variance
        slope, ci = fit_scaling_exponent(rows)
        result = replace(result, fitted_exponent=slope, exponent_ci=ci)
    return result


def usable_rows(rows) -> list[SweepRow]:
    """The rows the exponent fit uses: those with a positive area variance."""
    return [r for r in rows if r.var_s_hat is not None and r.var_s_hat > 0]


def fit_scaling_exponent(rows):
    """Ordinary least squares of log(var_S_hat) against log(n) over the
    usable rows.

    Returns (slope, ci).  The 95% confidence interval is the delta-method
    one: with Var(log v_i) ~ (se_i / v_i)^2 and independent rows, the slope
    sum_i c_i log v_i, c_i = (x_i - mean x) / S_xx, x_i = log n_i, has
    variance sum_i (c_i se_i / v_i)^2.  It is None when a row has no
    var_s_se.
    """
    usable = usable_rows(rows)
    if len(usable) < 3:
        raise ValueError("need at least 3 rows with positive variances")
    x = np.log(np.array([r.n for r in usable], dtype=float))
    vs = np.array([r.var_s_hat for r in usable], dtype=float)
    slope = float(np.polyfit(x, np.log(vs), 1)[0])
    if any(r.var_s_se is None for r in usable):
        return slope, None
    dx = x - x.mean()
    c = dx / (dx @ dx)
    ses = np.array([r.var_s_se for r in usable], dtype=float)
    half = 1.96 * math.sqrt(float(np.sum((c * ses / vs) ** 2)))
    return slope, (slope - half, slope + half)


def dof_scaling_exponent(n_list, beta: float, band_rounding: str = "ceil") -> float:
    """Exact finite-n target for the exponent that fit_scaling_exponent measures.

    Returns the ordinary least-squares slope of log(1/D(n)) against log(n),
    where D(n) is the integer degree-of-freedom count of
    make_spec(n, beta, band_rounding).  To leading order
    Var(S(u)) = (u phi(u))^2 / 4 * 2 (4 pi)^2 / D, so this is the exponent a
    variance sweep over n_list estimates.  The paper's -(2 - beta) is only its
    n -> infinity limit: for beta near 1 the integer band width stays pinned
    over wide ranges of n (at beta = 0.8 it is two frequencies for every n in
    [64, 512], so D = 4n and the exponent there is exactly -1).
    """
    ns = [int(n) for n in n_list]
    if len(set(ns)) < 2:
        raise ValueError("need at least 2 distinct values of n")
    dofs = np.array([make_spec(n, beta, band_rounding).dof for n in ns], dtype=float)
    return float(np.polyfit(np.log(np.array(ns, dtype=float)), -np.log(dofs), 1)[0])


@dataclass(frozen=True)
class ChaosVarianceRow:
    q: int
    weight: float          # J_q(u)^2 / q!^2
    var_hq: float          # exact Var(h_q)
    contribution: float    # weight * var_hq


@dataclass(frozen=True)
class ChaosVariancePrediction:
    spec: FieldSpec
    u: float
    leading_term: float    # u^2 phi(u)^2 / 4 * 2 (4 pi)^2 / D
    rows: tuple[ChaosVarianceRow, ...]


def chaos_variance_prediction(spec: FieldSpec, u: float, q_max: int) -> ChaosVariancePrediction:
    """Predicted per-chaos contributions J_q(u)^2/q!^2 Var(h_q) to Var(area)
    for q = 2..q_max, each from the exact chaos_variance.  The leading term
    is u^2 phi(u)^2/4 * 2 (4 pi)^2 / D.
    """
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    rows = []
    for q in range(2, q_max + 1):
        w, v = chaos_weight(q, u), chaos_variance(spec, q)
        rows.append(ChaosVarianceRow(q=q, weight=w, var_hq=v, contribution=w * v))
    leading = (u * float(gaussian_pdf(u))) ** 2 / 4.0 * h2_variance_formula(spec)
    return ChaosVariancePrediction(spec=spec, u=u, leading_term=leading, rows=tuple(rows))


@dataclass(frozen=True)
class ChaosDominanceReport:
    config: ExperimentConfig
    rows: tuple[SweepRow, ...]
    h2_normalized: dict[int, float]      # n -> Var_hat(h2) * D / (2 (4 pi)^2)
    q3_scaled: dict[int, float]          # n -> Var_hat(h3) * n^2
    q4_scaled: dict[int, float]          # n -> Var_hat(h4) * n^2 / log n
    h3_h2_ratio: dict[int, float]
    flags: dict[str, bool]


def chaos_report_config(config: ExperimentConfig) -> ExperimentConfig:
    """The config that chaos_dominance_report runs: q_max is at least 4, the
    highest chaos order the report tables."""
    return replace(config, q_max=max(config.q_max, 4))


def chaos_dominance_report(config: ExperimentConfig) -> ChaosDominanceReport:
    """Scaled higher-chaos variance table with boundedness/decay flags, from
    a sweep run at chaos_report_config(config)."""
    if config.mode != "field_full":
        raise ValueError("chaos dominance report requires field_full mode")
    config = chaos_report_config(config)
    result = run_variance_sweep(config)
    h2_norm, q3s, q4s, ratio = {}, {}, {}, {}
    h2_ok = True
    for row in result.rows:
        if row.error is not None:
            continue
        norm = row.var_h2_hat / row.var_h2_exact_formula
        h2_norm[row.n] = norm
        se_norm = row.var_h2_se / row.var_h2_exact_formula
        if abs(norm - 1.0) > 3.0 * se_norm:
            h2_ok = False
        q3s[row.n] = row.var_hq[3] * row.n**2
        q4s[row.n] = row.var_hq[4] * row.n**2 / math.log(row.n)
        ratio[row.n] = row.var_hq[3] / row.var_h2_hat
    def within_band(d, factor=3.0):
        vals = list(d.values())
        return bool(vals) and max(vals) <= factor * min(vals)

    ns = sorted(ratio)
    decay_ok = True
    for a, b in zip(ns, ns[1:]):
        expected = (a / b) ** config.beta  # ratio should shrink like n^-beta
        if not 0.5 * expected <= ratio[b] / ratio[a] <= 1.5 * expected:
            decay_ok = False
    flags = {
        "h2_identity_ok": h2_ok,
        "q3_band_ok": within_band(q3s),
        "q4_band_ok": within_band(q4s),
        "h3_h2_decay_ok": decay_ok,
    }
    return ChaosDominanceReport(
        config=config,
        rows=result.rows,
        h2_normalized=h2_norm,
        q3_scaled=q3s,
        q4_scaled=q4s,
        h3_h2_ratio=ratio,
        flags=flags,
    )


# --- serialization -----------------------------------------------------------

def write_replicate_csv(result: ExperimentResult, n: int, out, header_lines: tuple[str, ...] = ()) -> None:
    """Replicate-level CSV: replicate,seed,u,area,h1,h2_quad,h2_exact,h3,h4."""
    data = result.replicate_data.get(n)
    if data is None:
        raise KeyError(f"no replicate data for n={n}")
    reps = data["h2_exact"].size
    h = data.get("h")
    seeds = data.get("seed")

    def column(values):
        return repeat("", reps) if values is None else (f"{v:.16e}" for v in values.tolist())

    def chaos_column(q: int):
        return column(h[:, q] if h is not None and h.shape[1] > q else None)

    cols = (  # lazy, so the rows stream to the file
        map(str, range(reps)),
        repeat("", reps) if seeds is None else map(str, seeds),
        repeat(f"{result.config.u:.16e}", reps),
        column(data.get("area")),
        chaos_column(1),
        chaos_column(2),
        column(data["h2_exact"]),
        chaos_column(3),
        chaos_column(4),
    )
    names = ("replicate", "seed", "u", "area", "h1", "h2_quad", "h2_exact", "h3", "h4")
    write_csv(out, header_lines, names, (",".join(row) + "\n" for row in zip(*cols)))


def row_to_dict(row: SweepRow) -> dict:
    return asdict(row)


def result_to_dict(result: ExperimentResult) -> dict:
    """The result without its replicate arrays."""
    body = asdict(replace(result, replicate_data={}))
    del body["replicate_data"]
    return body
