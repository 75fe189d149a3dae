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

import contextlib
import functools
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .chaos import h2_exact_from_coeffs, h2_sample_direct, h2_variance_formula, reduce_blocks
from .field import FieldSpec, band_table, field_blocks, make_spec, replicate_rng, sample_coefficients, write_table
from .field import band_table_bytes, parity_rows_bytes
from .grid import build_grid, theta_count
# no sweep calls these whole-field functions; they stay attributes of this
# module because the benchmark's layer tracer wraps them here
from .chaos import chaos_integrals, excursion_area  # noqa: F401
from .field import synthesize  # noqa: F401
from .specfun import FOUR_PI, gaussian_cdf, jq_coefficient

# Asymptotic two-sided Kolmogorov-Smirnov critical coefficient at the 1% level
KS_COEFF_1PCT = 1.628

BOOTSTRAP_RESAMPLES = 1000  # per bootstrap standard error (a test reference only)

MODES = ("field_full", "h2_direct")

DEFAULT_SEED = 20260808

CLT_MIN_SAMPLES = 500  # the KS test of clt_test, and so the clt subcommand, needs this many

# ranks per block of _ks_sorted, and its slack over gaussian_cdf's largest
# decrease between ascending inputs: 1.1e-16, at the edges of its 1/32
# intervals (tests/test_specfun.py holds it below a tenth of the slack)
_KS_BLOCK = 32
_KS_SLACK = 1e-14


@dataclass(frozen=True)
class ExperimentConfig:
    n_list: tuple[int, ...]
    beta: float
    u: float = 1.0
    replicates: int = 2000
    master_seed: int = DEFAULT_SEED
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
        if not math.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u}")
        check_oversample(self.oversample, self.n_list[-1])
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.master_seed < 0:  # SeedSequence takes non-negative integers only
            raise ValueError(f"seed must be a non-negative integer, got {self.master_seed}")
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
    targets: dict[str, dict[str, float]] = field(default_factory=dict)  # name -> estimate, se, target, z
    error: str | None = None


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[SweepRow, ...]
    fitted_exponent: float | None = None
    exponent_ci: tuple[float, float] | None = None
    replicate_data: dict = field(default_factory=dict, repr=False)


# --- statistics helpers ------------------------------------------------------

def _ks_terms(cdf: np.ndarray, i: np.ndarray, r: int) -> float:
    """The largest KS term max(Phi(z_i) - i/r, (i+1)/r - Phi(z_i)) over ranks i."""
    return float(max((cdf - i / r).max(), ((i + 1) / r - cdf).max()))


def _ks_sorted(z: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance of a finite ascending sample to
    the standard normal CDF, evaluating Phi only where the supremum can be.

    The ranks are split into blocks of _KS_BLOCK.  Phi at each block's first
    and last point gives exact terms, whose largest, L, is a lower bound on
    the distance.  Phi is nondecreasing along an ascending sample, so no term
    inside a block exceeds Phi(z_last) - first/r or (last+1)/r - Phi(z_first);
    Phi is evaluated in full only in the blocks where that bound plus
    _KS_SLACK reaches L, and the largest term found is returned.  The block
    holding the supremum is always among them, and its terms are the same
    gaussian_cdf floats minus the same i/r as a full evaluation's, so the
    result is that evaluation's bit for bit."""
    r = z.size
    first = np.arange(0, r, _KS_BLOCK)
    last = np.minimum(first + (_KS_BLOCK - 1), r - 1)
    ends = np.stack((first, last))
    cdf = gaussian_cdf(z[ends])
    lower = _ks_terms(cdf, ends, r)
    cdf_first, cdf_last = cdf
    bound = np.maximum(cdf_last - first / r, (last + 1) / r - cdf_first)
    ranks = first[bound + _KS_SLACK >= lower, None] + np.arange(_KS_BLOCK)
    ranks = ranks[ranks < r]
    return max(lower, _ks_terms(gaussian_cdf(z[ranks]), ranks, r))


def _target(estimate: float, se: float, target: float) -> dict[str, float]:
    """A row's target entry; z = (estimate - target) / se is NaN or +-inf,
    never an exception, when se is 0."""
    diff = estimate - target
    z = diff / se if se else (math.copysign(math.inf, diff) if diff else math.nan)
    return {"estimate": estimate, "se": se, "target": target, "z": z}


def within_3se(entry: dict[str, float]) -> bool:
    """The agreement flag of every report: a target entry's estimate lies
    within three standard errors of its exact target."""
    return abs(entry["estimate"] - entry["target"]) <= 3.0 * entry["se"]


def ks_critical_one_sample(r: int) -> float:
    """Asymptotic 1% two-sided critical value for a sample of size r."""
    return KS_COEFF_1PCT / math.sqrt(r)


def clt_test(samples: np.ndarray) -> tuple[float, bool]:
    """Standardize the samples and KS-test them against the standard normal
    at the 1% level."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < CLT_MIN_SAMPLES:
        raise ValueError(f"need >= {CLT_MIN_SAMPLES} samples, got {samples.size}")
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

# Largest |quadrature h2 - coefficient h2| of a sound replicate: the grid
# integrates H_2(field) exactly, and the two agree to ~6e-14 wherever the band
# table is right, so a larger gap means a wrong field.
_H2_MISMATCH = 1e-8 * FOUR_PI


def _replicate_row(spec: FieldSpec, grid, u: float, q_max: int, master_seed: int, r: int):
    """Seed id, area, chaos integrals and exact h2 of replicate r.  The field
    is reduced as field_blocks yields it; no whole field is built.  Raises
    when the field's quadrature h2 misses the h2 of its coefficients."""
    rng = replicate_rng(master_seed, spec.n, r)
    seed_id = rng.bit_generator.seed_seq.generate_state(1, np.uint64)[0]
    coeffs = sample_coefficients(spec, rng)
    area, h = reduce_blocks(field_blocks(coeffs, grid), grid, u, q_max)
    h2x = h2_exact_from_coeffs(coeffs)
    if abs(h[2] - h2x) > _H2_MISMATCH:
        raise ValueError(f"replicate {r}: quadrature h2 {h[2]!r} differs from the coefficients' {h2x!r} "
                         f"by more than {_H2_MISMATCH:.3g}")
    return seed_id, area, h, h2x


def _replicate_chunk(spec: FieldSpec, grid, u: float, q_max: int, master_seed: int, bounds):
    """Arrays of replicates lo..hi-1, bounds = (lo, hi): the one replicate
    kernel, called in-process or, pickled, by a pool worker."""
    seed, area, h, h2x = zip(*(_replicate_row(spec, grid, u, q_max, master_seed, r) for r in range(*bounds)))
    return {"area": np.array(area), "h": np.array(h), "h2_exact": np.array(h2x),
            "seed": np.array(seed, dtype=np.uint64)}


def pool_size(workers: int) -> int:
    """Processes that a sweep with ``workers`` runs on: at most one per CPU
    that this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


def start_method() -> str:
    """The pool's start method: fork where the platform can, so workers share
    the band tables built before the pool, and spawn otherwise."""
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@contextlib.contextmanager
def _phase(errors: dict, n: int, name: str):
    """Record an exception of the block as n's row error, prefixed with the phase."""
    try:
        yield
    except Exception as exc:  # a failure stays in its row
        errors[n] = f"{name}: {type(exc).__name__}: {exc}"


def _finite(data: dict) -> dict:
    """The replicate arrays; a NaN or infinity is an error, not a NaN statistic."""
    for key, values in data.items():
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"non-finite {key} at replicate {bad[0][0]}")
    return data


def _run_replicates(kernels: dict, replicates: int, workers: int, errors: dict) -> dict:
    """Every n's replicate arrays from its chunk kernel, joined in replicate
    order, or an error if a chunk raised.  With workers > 1, one pool of at
    most one worker per CPU queues every n's chunks at once, largest n first,
    so the tail of the queue is cheap.  The chunks depend on ``workers``
    only, so the output does not depend on the CPU count.  The pool modules
    are imported here, so a one-worker run never loads them."""
    size = max(1, replicates // (workers * 8))
    bounds = [(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]
    pool, run, data = contextlib.nullcontext(), map, {}
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context(start_method())
        pool = ProcessPoolExecutor(max_workers=pool_size(workers), mp_context=context)
        run = pool.map
    with pool:
        pending = {n: run(kernels[n], bounds) for n in reversed(kernels)}  # largest n first
        for n in kernels:
            with _phase(errors, n, "replicates"):
                chunks = list(pending[n])
                data[n] = _finite({key: np.concatenate([chunk[key] for chunk in chunks]) for key in chunks[0]})
    return data


def sweep_bytes(config: ExperimentConfig) -> int:
    """Bytes that run_variance_sweep(config) keeps: every n's band table (the
    cache keeps each), one more copy of each per spawned worker, and one
    half-spectra array of the largest n per synthesizing process; 0 in
    h2_direct mode.  It builds no grid and no table, and asks for the start
    method only when there is a pool, so a one-worker run loads no pool modules."""
    if config.mode != "field_full":
        return 0
    bands = [(make_spec(n, config.beta, config.band_rounding),
              theta_count(grid_degree(n, config.oversample, config.q_max))) for n in config.n_list]
    tables = sum(band_table_bytes(spec, n_theta) for spec, n_theta in bands)
    workers = pool_size(config.workers)
    if config.workers > 1 and start_method() == "spawn":
        tables *= 1 + workers
    return tables + workers * parity_rows_bytes(*bands[-1])


def check_oversample(oversample: float, n: int) -> None:
    """The oversample rule: finite, at least 1, and a finite grid degree
    oversample * n at the largest n."""
    if not 1.0 <= oversample < math.inf:  # NaN fails too
        raise ValueError(f"oversample must be finite and >= 1, got {oversample}")
    if oversample * n == math.inf:
        raise ValueError(f"oversample * n must be finite, got {oversample} * {n}")


def grid_degree(n: int, oversample: float, q_max: int = 2) -> int:
    """Degree of the field grid at top frequency n: oversample * n, and at
    least q_max * n, the degree of H_q(field) for q <= q_max, so the chaos
    quadratures up to q_max are exact."""
    return max(int(math.ceil(oversample * n)), q_max * n)


def chaos_weight(q: int, u: float) -> float:
    """J_q(u)^2 / q!^2, the weight of Var(h_q) in the variance of the area."""
    return jq_coefficient(q, u) ** 2 / math.factorial(q) ** 2


def _sweep_row(config: ExperimentConfig, spec: FieldSpec, data: dict) -> SweepRow:
    """Summary row of one n from its replicate arrays.

    The mode chooses only where the arrays come from: synthesized fields
    (area, chaos integrals and exact h2 of each replicate) or direct
    chi-square draws of h2.  Every statistic of the row is computed from the
    arrays present, and every standard error in closed form: the exact one
    for Var(h2), the moment one for the other variances, s/sqrt(r) for the
    mean.  The row's targets hold Var(h2) against 2 (4 pi)^2 / D and, in
    field mode, the mean area against 4 pi (1 - Phi(u)).
    """
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
    targets = {"var_h2": _target(stats["var_h2_hat"], stats["var_h2_se"], var_h2)}
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
        mean_area = FOUR_PI * (1.0 - gaussian_cdf(config.u))
        targets["mean_area"] = _target(stats["mean_s_hat"], stats["mean_s_se"], mean_area)
    clt_sample = h2x if areas is None else areas
    ks_stat, ks_pass = clt_test(clt_sample) if clt_sample.size >= CLT_MIN_SAMPLES else (None, None)
    return SweepRow(
        n=spec.n,
        ell_min=spec.ell_min,
        dof=spec.dof,
        var_h2_exact_formula=var_h2,
        clt_ks_stat=ks_stat,
        clt_pass=ks_pass,
        targets=targets,
        **stats,
    )


def run_variance_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Run the per-n Monte Carlo and aggregate summary rows.

    In field mode every n's grid and band table is built before one pool
    runs every n's replicates.  A failure for one n is recorded in its row,
    after the phase that failed, and does not abort the others.
    """
    specs = {n: make_spec(n, config.beta, config.band_rounding) for n in config.n_list}  # checked by the config
    errors, data = {}, {}
    if config.mode == "field_full":
        kernels = {}
        for n, spec in specs.items():
            with _phase(errors, n, "setup"):
                grid = build_grid(grid_degree(n, config.oversample, config.q_max))
                band_table(spec, grid)  # build before forking so workers share it
                kernels[n] = functools.partial(_replicate_chunk, spec, grid, config.u, config.q_max, config.master_seed)
        data = _run_replicates(kernels, config.replicates, config.workers, errors)
    else:
        for n, spec in specs.items():
            with _phase(errors, n, "replicates"):
                rng = replicate_rng(config.master_seed, n, 0)
                data[n] = _finite({"h2_exact": h2_sample_direct(spec, rng, size=config.replicates)})
    rows, replicate_data = [], {}
    for n, spec in specs.items():
        if n in data:
            with _phase(errors, n, "statistics"):
                rows.append(_sweep_row(config, spec, data[n]))
                replicate_data[n] = data[n]
        if n in errors:
            rows.append(SweepRow(n=n, ell_min=spec.ell_min, dof=spec.dof, error=errors[n]))
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
class ChaosDominanceReport:
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
        h2_norm[row.n] = row.var_h2_hat / row.var_h2_exact_formula
        h2_ok &= within_3se(row.targets["var_h2"])
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
        rows=result.rows,
        h2_normalized=h2_norm,
        q3_scaled=q3s,
        q4_scaled=q4s,
        h3_h2_ratio=ratio,
        flags=flags,
    )


# --- serialization -----------------------------------------------------------

def write_replicate_csv(result: ExperimentResult, n: int, out, header_lines: tuple[str, ...] = ()) -> None:
    """Replicate-level CSV: replicate,seed,u,area,h1,h2_quad,h2_exact,h3,h4;
    the columns a mode does not compute are empty (field.write_table)."""
    data = result.replicate_data.get(n)
    if data is None:
        raise KeyError(f"no replicate data for n={n}")
    reps = data["h2_exact"].size
    absent = np.full(reps, np.nan)
    h = data.get("h")
    q_max = -1 if h is None else h.shape[1] - 1
    h1, h2_quad, h3, h4 = (h[:, q] if q <= q_max else absent for q in (1, 2, 3, 4))
    u = np.full(reps, result.config.u, dtype=float)
    columns = (np.arange(reps), data.get("seed", absent), u, data.get("area", absent),
               h1, h2_quad, data["h2_exact"], h3, h4)
    names = ("replicate", "seed", "u", "area", "h1", "h2_quad", "h2_exact", "h3", "h4")
    write_table(out, header_lines, names, [columns])


def row_to_dict(row: SweepRow) -> dict:
    return asdict(row)
