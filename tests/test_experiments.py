"""Experiment orchestration: reproducibility, estimator calibration, fits."""

import concurrent.futures
import io
import math
import multiprocessing
import os
import pathlib
import statistics
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import bandsphere
from bandsphere import experiments as ex
from bandsphere import field
from bandsphere.chaos import (
    chaos_integrals, excursion_area, h2_exact_from_coeffs, h2_sample_direct, h2_variance_formula,
)
from bandsphere.field import band_table, make_spec, replicate_rng, sample_coefficients, synthesize
from bandsphere.grid import build_grid
from bandsphere.specfun import gaussian_cdf
from references import ks_sorted_full, ks_statistic


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(n_list=(), beta=0.5)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(n_list=(64, 64), beta=0.5)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(n_list=(128, 64), beta=0.5)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(n_list=(64,), beta=0.5, replicates=50)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(n_list=(64,), beta=0.5, mode="warp")
    with pytest.raises(ValueError):
        ex.ExperimentConfig(n_list=(64,), beta=0.5, q_max=1)


def test_negative_seed_is_a_config_error():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        ex.ExperimentConfig(n_list=(16,), beta=0.5, master_seed=-1)
    assert ex.ExperimentConfig(n_list=(16,), beta=0.5, master_seed=0).master_seed == 0


@pytest.mark.parametrize("mode", ex.MODES)
def test_row_targets_hold_the_exact_identities(mode):
    cfg = ex.ExperimentConfig(n_list=(16,), beta=0.5, u=0.75, replicates=150, mode=mode, master_seed=4)
    row = ex.run_variance_sweep(cfg).rows[0]
    expected = {"var_h2": (row.var_h2_hat, row.var_h2_se, h2_variance_formula(make_spec(16, 0.5)))}
    if mode == "field_full":
        expected["mean_area"] = (row.mean_s_hat, row.mean_s_se, 4.0 * math.pi * (1.0 - gaussian_cdf(0.75)))
    assert list(row.targets) == list(expected)  # var_h2 first, as the flags are ordered
    for name, (estimate, se, target) in expected.items():
        entry = row.targets[name]
        assert (entry["estimate"], entry["se"], entry["target"]) == (estimate, se, target)
        assert entry["z"] == (estimate - target) / se
        assert ex.within_3se(entry) == (abs(estimate - target) <= 3.0 * se)


@pytest.mark.parametrize("estimate, target, z", [(1.0, 1.0, math.nan), (1.0, 2.0, -math.inf), (2.0, 1.0, math.inf)])
def test_target_z_at_zero_se_never_raises(estimate, target, z):
    entry = ex._target(estimate, 0.0, target)
    assert entry["z"] == z or (math.isnan(z) and math.isnan(entry["z"]))
    # the rule compares |estimate - target| with 3 se, not |z| with 3
    assert ex.within_3se(entry) == (estimate == target)


def test_direct_mode_variance_matches_formula():
    cfg = ex.ExperimentConfig(n_list=(100,), beta=0.5, replicates=20_000, mode="h2_direct", master_seed=42)
    row = ex.run_variance_sweep(cfg).rows[0]
    assert row.dof == 1176
    assert row.var_h2_exact_formula == pytest.approx(0.2685606639752206, rel=1e-12)
    assert abs(row.var_h2_hat - row.var_h2_exact_formula) <= 3.0 * row.var_h2_se


def test_row_structure_invariants():
    cfg = ex.ExperimentConfig(n_list=(16, 24), beta=0.5, replicates=600, mode="field_full", master_seed=2, q_max=3)
    res = ex.run_variance_sweep(cfg)
    assert [r.n for r in res.rows] == [16, 24]
    for row in res.rows:
        assert row.var_s_hat >= 0 and row.var_h2_hat >= 0
        assert row.var_s_se > 0 and row.var_h2_se > 0 and row.mean_s_se > 0
        assert all(v >= 0 for v in row.var_hq.values())


def test_result_invariant_under_worker_count(monkeypatch):
    base = dict(n_list=(16, 24), beta=0.5, replicates=150, mode="field_full", master_seed=5, q_max=3)
    r1 = ex.run_variance_sweep(ex.ExperimentConfig(**base))
    others = [ex.run_variance_sweep(ex.ExperimentConfig(**base, workers=w)) for w in (2, 3)]
    # the same pool with spawned workers, which start from a fresh import
    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: methods.append(m) or get_context(m))
    others.append(ex.run_variance_sweep(ex.ExperimentConfig(**base, workers=2)))
    assert methods == ["spawn"]  # one pool per sweep
    for r2 in others:
        for a, b in zip(r1.rows, r2.rows, strict=True):
            assert a.error is None
            assert ex.row_to_dict(a) == ex.row_to_dict(b)
        for n in (16, 24):
            for key in ("area", "h", "h2_exact", "seed"):
                assert np.array_equal(r1.replicate_data[n][key], r2.replicate_data[n][key])


def test_pool_is_bounded_by_the_cpu_count(monkeypatch):
    base = dict(n_list=(16,), beta=0.5, replicates=100, mode="field_full", master_seed=5, q_max=2)
    r1 = ex.run_variance_sweep(ex.ExperimentConfig(**base))
    sizes = []
    pool = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        sizes.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    # without an affinity call, the CPU count bounds the pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    r2 = ex.run_variance_sweep(ex.ExperimentConfig(**base, workers=64))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    r3 = ex.run_variance_sweep(ex.ExperimentConfig(**base, workers=3))
    assert sizes == [2, 1]
    # with one, the CPUs this process may run on bound it, not the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    r4 = ex.run_variance_sweep(ex.ExperimentConfig(**base, workers=64))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert ex.pool_size(64) == 1
    assert sizes == [2, 1, 2]
    for r in (r2, r3, r4):
        assert ex.row_to_dict(r.rows[0]) == ex.row_to_dict(r1.rows[0])
        for key in ("area", "h", "h2_exact", "seed"):
            assert np.array_equal(r.replicate_data[16][key], r1.replicate_data[16][key])


def test_rerun_is_bit_identical():
    cfg = ex.ExperimentConfig(n_list=(16,), beta=0.5, replicates=120, mode="field_full", master_seed=77)
    r1 = ex.run_variance_sweep(cfg)
    r2 = ex.run_variance_sweep(cfg)
    assert [ex.row_to_dict(row) for row in r1.rows] == [ex.row_to_dict(row) for row in r2.rows]
    assert (r1.config, r1.fitted_exponent, r1.exponent_ci) == (r2.config, r2.fitted_exponent, r2.exponent_ci)


def test_se_scales_with_replicates():
    se = {}
    for r in (4000, 16000):
        cfg = ex.ExperimentConfig(n_list=(100,), beta=0.5, replicates=r, mode="h2_direct", master_seed=9)
        se[r] = ex.run_variance_sweep(cfg).rows[0].var_h2_se
    assert 0.3 <= se[16000] / se[4000] <= 0.7


def test_modes_statistically_indistinguishable():
    f = ex.run_variance_sweep(
        ex.ExperimentConfig(n_list=(48,), beta=0.5, replicates=1500, mode="field_full", master_seed=21, q_max=2)
    ).rows[0]
    d = ex.run_variance_sweep(
        ex.ExperimentConfig(n_list=(48,), beta=0.5, replicates=100_000, mode="h2_direct", master_seed=22)
    ).rows[0]
    lo1, hi1 = f.var_h2_hat - 2.576 * f.var_h2_se, f.var_h2_hat + 2.576 * f.var_h2_se
    lo2, hi2 = d.var_h2_hat - 2.576 * d.var_h2_se, d.var_h2_hat + 2.576 * d.var_h2_se
    assert max(lo1, lo2) <= min(hi1, hi2)


def test_var_h2_flag_null_false_failure_rate():
    # the 3-SE var_h2 flag of `excursion` over 2000 null sweeps at D = 93 and
    # r = 120, near the 100-replicate minimum; nominal two-sided rate 0.27%
    assert make_spec(16, 0.5).dof == 93
    trials, fails = 2000, 0
    for seed in range(trials):
        cfg = ex.ExperimentConfig(n_list=(16,), beta=0.5, replicates=120, mode="h2_direct", master_seed=seed)
        row = ex.run_variance_sweep(cfg).rows[0]
        fails += abs(row.var_h2_hat - row.var_h2_exact_formula) > 3.0 * row.var_h2_se
    assert fails / trials <= 0.01


def test_closed_form_ses_agree_with_the_bootstrap():
    cfg = ex.ExperimentConfig(n_list=(16,), beta=0.5, replicates=600, mode="field_full", master_seed=7, q_max=4)
    res = ex.run_variance_sweep(cfg)
    row, data = res.rows[0], res.replicate_data[16]
    rng = np.random.default_rng(7)
    pairs = [
        (row.var_s_se, ex.bootstrap_variance_se(data["area"], rng)),
        (row.mean_s_se, ex.bootstrap_mean_se(data["area"], rng)),
        (row.var_hq_se[3], ex.bootstrap_variance_se(data["h"][:, 3], rng)),
        (row.var_hq_se[4], ex.bootstrap_variance_se(data["h"][:, 4], rng)),
    ]
    for closed, boot in pairs:
        assert abs(closed / boot - 1.0) <= 0.10


def test_variance_se_moment_formula():
    # values 0, 0, 0, 4: mean 1, s^2 = 12 / 3 = 4, m4 = (3 * 1 + 81) / 4 = 21,
    # (r - 3) / (r - 1) = 1/3
    se = ex.variance_se(np.array([0.0, 0.0, 0.0, 4.0]))
    assert se == pytest.approx(math.sqrt((21.0 - 16.0 / 3.0) / 4.0), rel=1e-14)
    assert ex.variance_se(np.full(100, 2.5)) == 0.0


@pytest.mark.parametrize("mode", ex.MODES)
def test_sweep_rows_use_no_bootstrap(monkeypatch, mode):
    def spy(*args, **kwargs):
        raise AssertionError("bootstrap called")

    monkeypatch.setattr(ex, "bootstrap_variance_se", spy)
    monkeypatch.setattr(ex, "bootstrap_mean_se", spy)
    cfg = ex.ExperimentConfig(n_list=(16, 24), beta=0.5, replicates=500, mode=mode, master_seed=3, q_max=3)
    for row in ex.run_variance_sweep(cfg).rows:
        assert row.error is None
        assert row.var_h2_se > 0


def test_per_n_failure_does_not_abort_sweep(monkeypatch):
    real = ex._sweep_row

    def flaky(config, spec, data):
        if spec.n == 24:
            raise RuntimeError("synthetic failure")
        return real(config, spec, data)

    monkeypatch.setattr(ex, "_sweep_row", flaky)
    cfg = ex.ExperimentConfig(n_list=(16, 24, 32), beta=0.5, replicates=120, mode="field_full", master_seed=3)
    res = ex.run_variance_sweep(cfg)
    assert res.rows[1].error is not None and "synthetic failure" in res.rows[1].error
    assert res.rows[0].error is None and res.rows[2].error is None
    assert res.rows[0].var_s_hat is not None


def _assert_same_rows(res, clean, ns):
    for n in ns:
        i = clean.config.n_list.index(n)
        assert ex.row_to_dict(res.rows[i]) == ex.row_to_dict(clean.rows[i])
        for key in ("area", "h", "h2_exact", "seed"):
            assert np.array_equal(res.replicate_data[n][key], clean.replicate_data[n][key])


def test_one_pool_per_sweep(monkeypatch):
    base = dict(n_list=(16, 24, 32), beta=0.5, replicates=100, mode="field_full", master_seed=5, q_max=2)
    r1 = ex.run_variance_sweep(ex.ExperimentConfig(**base))
    pools = []
    pool = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        pools.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    r2 = ex.run_variance_sweep(ex.ExperimentConfig(**base, workers=2))
    assert len(pools) == 1
    _assert_same_rows(r2, r1, base["n_list"])
    ex.run_variance_sweep(ex.ExperimentConfig(**base))
    assert len(pools) == 1  # one worker runs in this process, with no pool


@pytest.mark.parametrize("phase, target, workers", [
    ("setup", "band_table", 1),
    ("replicates", "_replicate_row", 1),
    # forked workers inherit the patch; the chunk raises in a pool worker
    pytest.param("replicates", "_replicate_row", 2, marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")),
    ("statistics", "h2_variance_formula", 1),
])
def test_row_error_names_the_phase(monkeypatch, phase, target, workers):
    base = dict(n_list=(16, 24, 32), beta=0.5, replicates=120, mode="field_full", master_seed=3, workers=workers)
    clean = ex.run_variance_sweep(ex.ExperimentConfig(**base))
    real = getattr(ex, target)

    def flaky(spec, *args):
        if spec.n == 24:
            raise RuntimeError("synthetic failure")
        return real(spec, *args)

    monkeypatch.setattr(ex, target, flaky)
    done = []
    sweep = threading.Thread(target=lambda: done.append(ex.run_variance_sweep(ex.ExperimentConfig(**base))),
                             daemon=True)
    sweep.start()
    sweep.join(timeout=300)
    assert not sweep.is_alive(), "the sweep did not return"
    res = done[0]
    assert res.rows[1].error == f"{phase}: RuntimeError: synthetic failure"
    assert res.rows[1].var_s_hat is None and 24 not in res.replicate_data
    _assert_same_rows(res, clean, (16, 32))
    assert res.fitted_exponent is None  # two usable rows are too few to fit


def test_replicate_whose_quadrature_h2_misses_its_coefficients_is_a_row_error(monkeypatch):
    # a wrong band table (here scaled by 1.01) gives a field whose quadrature
    # h2 is not the h2 of its coefficients: the row fails in its replicates
    # phase and names the replicate, and the other rows stand
    base = dict(n_list=(16, 24), beta=0.5, replicates=120, mode="field_full", master_seed=3)
    clean = ex.run_variance_sweep(ex.ExperimentConfig(**base))
    real = field.band_table

    def scaled(spec, grid):
        return real(spec, grid) * (1.01 if spec.n == 24 else 1.0)

    monkeypatch.setattr(field, "band_table", scaled)
    res = ex.run_variance_sweep(ex.ExperimentConfig(**base))
    assert res.rows[1].error.startswith("replicates: ValueError: replicate 0: quadrature h2 ")
    assert res.rows[1].var_s_hat is None and 24 not in res.replicate_data
    _assert_same_rows(res, clean, (16,))


@pytest.mark.parametrize("column", ["area", "h", "h2_exact"])
def test_non_finite_replicate_is_a_row_error(monkeypatch, column):
    base = dict(n_list=(16, 24), beta=0.5, replicates=120, mode="field_full", master_seed=3, q_max=3)
    clean = ex.run_variance_sweep(ex.ExperimentConfig(**base))
    real = ex._replicate_row

    def poisoned(spec, grid, u, q_max, master_seed, r):
        seed_id, area, h, h2x = real(spec, grid, u, q_max, master_seed, r)
        if spec.n == 24 and r == 7:
            if column == "area":
                area = math.nan
            elif column == "h":
                h = h.copy()
                h[q_max] = math.inf
            else:
                h2x = -math.inf
        return seed_id, area, h, h2x

    monkeypatch.setattr(ex, "_replicate_row", poisoned)
    res = ex.run_variance_sweep(ex.ExperimentConfig(**base))
    assert res.rows[1].error == f"replicates: ValueError: non-finite {column} at replicate 7"
    _assert_same_rows(res, clean, (16,))


def test_fit_scaling_exponent_exact_synthetic():
    rows = [ex.SweepRow(n=n, ell_min=0, dof=1, var_s_hat=3.7 * n**-2.0) for n in (64, 128, 256, 512)]
    slope, ci = ex.fit_scaling_exponent(rows)
    assert abs(slope + 2.0) <= 1e-12
    assert ci is None


def test_fit_scaling_exponent_delta_method_ci():
    # x = log n = log 64 + k log 2, k = 0..3: x - mean(x) = (k - 1.5) log 2 and
    # S_xx = 5 (log 2)^2, so c_k = (k - 1.5) / (5 log 2).  Relative SEs
    # se/v = 0.1, 0.2, 0.1, 0.2 give Var(slope) = (2.25 * 0.01 + 0.25 * 0.04
    # + 0.25 * 0.01 + 2.25 * 0.04) / (25 (log 2)^2) = 0.125 / (25 (log 2)^2).
    rel = (0.1, 0.2, 0.1, 0.2)
    rows = [ex.SweepRow(n=n, ell_min=0, dof=1, var_s_hat=3.7 * n**-1.5, var_s_se=f * 3.7 * n**-1.5)
            for n, f in zip((64, 128, 256, 512), rel)]
    slope, ci = ex.fit_scaling_exponent(rows)
    half = 1.96 * math.sqrt(0.125) / (5.0 * math.log(2.0))
    assert abs(slope + 1.5) <= 1e-12
    assert ci == pytest.approx((slope - half, slope + half), rel=1e-12)


def test_dof_scaling_exponent_two_frequency_band():
    # beta = 0.8 with ceil keeps ell_min = n - 1 over 64..512, so D = 4n
    n_list = (64, 128, 256, 512)
    assert [make_spec(n, 0.8).dof for n in n_list] == [4 * n for n in n_list]
    assert ex.dof_scaling_exponent(n_list, 0.8, "ceil") == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("beta", [0.5, 0.8])
def test_dof_scaling_exponent_matches_fit_on_exact_variances(beta):
    n_list = (64, 128, 256, 512)
    rows = [ex.SweepRow(n=n, ell_min=0, dof=1, var_s_hat=0.37 / make_spec(n, beta).dof) for n in n_list]
    slope, _ = ex.fit_scaling_exponent(rows)
    assert abs(slope - ex.dof_scaling_exponent(n_list, beta)) <= 1e-12


@pytest.mark.parametrize("beta", [0.5, 0.8])
def test_dof_scaling_exponent_large_n_limit(beta):
    n_list = (10**6, 2 * 10**6, 4 * 10**6, 8 * 10**6)
    assert abs(ex.dof_scaling_exponent(n_list, beta) + (2.0 - beta)) <= 0.05


def test_dof_scaling_exponent_needs_two_values():
    with pytest.raises(ValueError):
        ex.dof_scaling_exponent((64, 64), 0.5)


def test_fit_scaling_exponent_needs_three_rows():
    rows = [ex.SweepRow(n=n, ell_min=0, dof=1, var_s_hat=1.0 / n) for n in (64, 128)]
    with pytest.raises(ValueError):
        ex.fit_scaling_exponent(rows)


def test_clt_test_calibration():
    # true standard normal input passes at the 1% level ~99% of the time
    rng = np.random.default_rng(123)
    passes = sum(ex.clt_test(rng.standard_normal(10_000))[1] for _ in range(100))
    assert passes >= 95


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_clt_ks_statistic_matches_scipy(n):
    stats = pytest.importorskip("scipy.stats")
    draws = h2_sample_direct(make_spec(n, 0.5), replicate_rng(7, n, 0), size=100_000)
    z = (draws - draws.mean()) / draws.std(ddof=1)
    reference = stats.kstest(z, "norm").statistic
    inputs = draws.copy(), z.copy()
    assert ex.clt_test(draws)[0] == pytest.approx(reference, abs=1e-12)
    assert ks_statistic(z) == pytest.approx(reference, abs=1e-12)
    # both sort their own copy in place, never the caller's array
    assert np.array_equal(draws, inputs[0]) and np.array_equal(z, inputs[1])


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_clt_test_evaluates_the_cdf_at_few_points(n, monkeypatch):
    # the block-pruned KS distance needs Phi at the block ends and in the few
    # blocks that can hold the supremum, not at every point
    draws = h2_sample_direct(make_spec(n, 0.5), replicate_rng(7, n, 0), size=100_000)
    expected = ex.clt_test(draws)
    evaluated = []

    def counting_cdf(u):
        evaluated.append(np.size(u))
        return gaussian_cdf(u)

    monkeypatch.setattr(ex, "gaussian_cdf", counting_cdf)
    assert ex.clt_test(draws) == expected
    assert sum(evaluated) <= 0.15 * draws.size


def _quantile_sample(r):
    # Phi(z_i) = (i + 1/2)/r: every KS term is 1/(2r), and a few moved points set D
    normal = statistics.NormalDist()
    return np.array([normal.inv_cdf((i + 0.5) / r) for i in range(r)])


def _ks_samples():
    rng = np.random.default_rng(16)
    draws = {
        "normal": rng.standard_normal,
        "chi2_40": lambda r: rng.chisquare(40, r),
        "chi2_625": lambda r: rng.chisquare(625, r),
        "student_t3": lambda r: rng.standard_t(3, r),
        "rounded": lambda r: np.round(rng.standard_normal(r), 1),
    }
    for name, draw in draws.items():
        for r in (5, 32, 33, 100, 500, 2000, 100_000):
            x = draw(r)
            yield pytest.param(np.sort((x - x.mean()) / x.std(ddof=1)), None, id=f"{name}-{r}")
    # the supremum strictly inside the first block (ranks 0..15 far left)
    # and inside the last block (its ranks from the fifth on far right)
    r = 2000
    low = _quantile_sample(r)
    low[:16] = -10.0
    yield pytest.param(low, 15, id="sup-in-first-block")
    high = _quantile_sample(r)
    k = (r - 1) // ex._KS_BLOCK * ex._KS_BLOCK + 4
    high[k:] = 10.0
    yield pytest.param(high, k, id="sup-in-last-block")


@pytest.mark.parametrize("z, sup_rank", _ks_samples())
def test_ks_sorted_matches_full_evaluation_bit_for_bit(z, sup_rank):
    if sup_rank is not None:  # the constructed supremum is where it is meant to be
        cdf = gaussian_cdf(z)
        i = np.arange(z.size)
        terms = np.maximum(cdf - i / z.size, (i + 1) / z.size - cdf)
        assert np.argmax(terms) == sup_rank and sup_rank % ex._KS_BLOCK not in (0, ex._KS_BLOCK - 1)
    assert ex._ks_sorted(z) == ks_sorted_full(z)


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency in pyproject.toml
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from bandsphere import experiments, specfun\n"
        "z = np.random.default_rng(0).standard_normal(1000)\n"
        "assert specfun.gaussian_cdf(z).shape == z.shape\n"
        "experiments.clt_test(z)\n"
    )
    src = str(pathlib.Path(bandsphere.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_one_process_runs_load_no_pool_modules(tmp_path):
    # covariance, h2-direct and a one-worker field run stay in one process and
    # load no pool modules, nor numpy.polynomial; a two-worker sweep builds one pool and leaves no
    # process running
    code = textwrap.dedent(f"""
        import sys
        import bandsphere, bandsphere.cli
        from bandsphere import experiments as ex
        band = ["--beta", "0.5", "--seed", "42"]
        for argv in (["covariance", "--n", "64", "--points", "50"],
                     ["excursion", "--mode", "h2-direct", "--n", "100", "--replicates", "1000"],
                     ["excursion", "--n", "16", "--replicates", "100", "--q-max", "2", "--workers", "1"]):
            assert bandsphere.cli.main(argv + band + ["--out", {str(tmp_path / "out")!r}]) == 0, argv
            assert "multiprocessing" not in sys.modules and "concurrent.futures" not in sys.modules, argv
            assert "numpy.polynomial" not in sys.modules, argv  # H_q by one recurrence, in specfun and chaos
        import concurrent.futures, multiprocessing
        pools, pool = [], concurrent.futures.ProcessPoolExecutor
        concurrent.futures.ProcessPoolExecutor = lambda **kwargs: pools.append(kwargs) or pool(**kwargs)
        config = ex.ExperimentConfig(n_list=(16, 24), beta=0.5, replicates=100, workers=2, q_max=2)
        assert all(row.error is None for row in ex.run_variance_sweep(config).rows)
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
    """)
    src = str(pathlib.Path(bandsphere.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_sweep_bytes_count_what_a_one_worker_sweep_allocates():
    # every n's band table and the half-spectra of the largest n, and, on
    # top of them, the replicate kernel's block buffers at the largest n: a
    # half-spectrum, a field block, a running power and a mask.  The rest
    # (coefficients, row sums, replicate arrays) measured under a tenth of
    # the buffers, so the slack is 1.25 times them
    import tracemalloc

    import numpy.fft  # noqa: F401  # numpy loads it at the first FFT; an import allocates too

    config = ex.ExperimentConfig(n_list=(64, 128, 256), beta=0.5, replicates=100, q_max=4, workers=1)
    grid = build_grid(ex.grid_degree(256, config.oversample, config.q_max))
    rows = max(1, field._BLOCK_BYTES // (16 * (grid.n_phi // 2 + 1)))
    blocks = rows * (16 * (grid.n_phi // 2 + 1) + 17 * grid.n_phi)
    need = ex.sweep_bytes(config)
    field.clear_table_cache()
    tracemalloc.start()
    try:
        result = ex.run_variance_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row.error is None for row in result.rows)
    assert need <= peak <= need + 1.25 * blocks


def test_sweep_bytes_builds_no_grid_and_no_table(monkeypatch):
    def no_build(*args):
        raise AssertionError("sweep_bytes counts from theta_count alone")

    monkeypatch.setattr(ex, "build_grid", no_build)
    monkeypatch.setattr(ex, "band_table", no_build)
    config = ex.ExperimentConfig(n_list=(16, 32), beta=0.5, replicates=100, q_max=4)
    n_theta = 65  # grid degree 128
    spec = make_spec(32, 0.5)
    tables = field.band_table_bytes(make_spec(16, 0.5), 33) + field.band_table_bytes(spec, n_theta)
    assert ex.sweep_bytes(config) == tables + field.parity_rows_bytes(spec, n_theta)
    # h2_direct mode synthesizes no field
    assert ex.sweep_bytes(ex.ExperimentConfig(n_list=(16, 32), beta=0.5, replicates=100, mode="h2_direct")) == 0


def test_clt_test_degenerate_input():
    with pytest.raises(ValueError):
        ex.clt_test(np.ones(600))
    with pytest.raises(ValueError):
        ex.clt_test(np.random.default_rng(0).standard_normal(100))


def test_chaos_dominance_report_small():
    cfg = ex.ExperimentConfig(n_list=(32, 64), beta=0.5, replicates=800, mode="field_full", master_seed=17, q_max=4)
    rep = ex.chaos_dominance_report(cfg)
    assert set(rep.h2_normalized) == {32, 64}
    assert rep.flags["h2_identity_ok"]
    assert rep.flags["q3_band_ok"] and rep.flags["q4_band_ok"]
    for n in (32, 64):
        spec = make_spec(n, 0.5)
        assert rep.rows[[r.n for r in rep.rows].index(n)].var_h2_exact_formula == pytest.approx(
            h2_variance_formula(spec), rel=1e-12
        )


def test_chaos_report_judges_h2_by_the_row_targets():
    cfg = ex.ExperimentConfig(n_list=(16, 24), beta=0.5, replicates=150, master_seed=6, q_max=4)
    rep = ex.chaos_dominance_report(cfg)
    assert rep.flags["h2_identity_ok"] == all(ex.within_3se(row.targets["var_h2"]) for row in rep.rows)
    for row in rep.rows:
        assert rep.h2_normalized[row.n] == row.var_h2_hat / row.var_h2_exact_formula


def test_replicate_csv_schema(tmp_path):
    cfg = ex.ExperimentConfig(n_list=(16,), beta=0.5, replicates=120, mode="field_full", master_seed=8, q_max=4)
    res = ex.run_variance_sweep(cfg)
    path = tmp_path / "reps.csv"
    ex.write_replicate_csv(res, 16, str(path), header_lines=("master_seed = 8",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# master_seed = 8"
    assert lines[1] == "replicate,seed,u,area,h1,h2_quad,h2_exact,h3,h4"
    assert len(lines) == 2 + 120
    fields = lines[2].split(",")
    assert fields[0] == "0"
    data = res.replicate_data[16]
    assert float(fields[3]) == data["area"][0]
    assert float(fields[6]) == data["h2_exact"][0]
    # quadrature and coefficient routes agree in the emitted file as well
    assert abs(float(fields[5]) - float(fields[6])) <= 1e-8


def test_replicate_csv_direct_mode(tmp_path):
    cfg = ex.ExperimentConfig(n_list=(32,), beta=0.5, replicates=200, mode="h2_direct", master_seed=4)
    res = ex.run_variance_sweep(cfg)
    path = tmp_path / "direct.csv"
    ex.write_replicate_csv(res, 32, str(path))
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    header = lines[0].split(",")
    assert header == ["replicate", "seed", "u", "area", "h1", "h2_quad", "h2_exact", "h3", "h4"]
    assert row[3] == "" and row[6] != ""


@pytest.mark.parametrize("mode", ["field_full", "h2_direct"])
def test_replicate_csv_golden_bytes(mode):
    # replicate and seed as integers, every other value as f"{v:.16e}", and
    # an empty field for NaN and for the columns the mode does not compute
    rng = np.random.default_rng(17)
    reps = 2 * field._TABLE_BLOCK + 11
    h2_exact = rng.normal(size=reps) * 10.0 ** rng.integers(-300, 300, size=reps)
    h2_exact[:6] = [-0.0, math.inf, -math.inf, 5e-324, math.nan, 1e300]
    data = {"h2_exact": h2_exact}
    if mode == "field_full":  # chaos integrals up to q = 3: h4 stays empty
        data.update(seed=rng.integers(0, 2**64, size=reps, dtype=np.uint64), area=rng.random(reps),
                    h=rng.normal(size=(reps, 4)))
        data["area"][[3, 9]] = math.nan
    cfg = ex.ExperimentConfig(n_list=(16,), beta=0.5, u=0.75, replicates=reps, mode=mode)
    buf = io.StringIO()
    ex.write_replicate_csv(ex.ExperimentResult(cfg, (), replicate_data={16: data}), 16, buf, ("seed = 1",))

    def text(v):
        return "" if v != v else f"{v:.16e}"

    lines = ["# seed = 1", "replicate,seed,u,area,h1,h2_quad,h2_exact,h3,h4"]
    for r in range(reps):
        if mode == "field_full":
            seed, area, h1, h2q, h3 = (str(data["seed"][r]), text(data["area"][r]),
                                       *(text(data["h"][r, q]) for q in (1, 2, 3)))
        else:
            seed = area = h1 = h2q = h3 = ""
        lines.append(",".join([str(r), seed, "7.5000000000000000e-01", area, h1, h2q, text(h2_exact[r]), h3, ""]))
    assert buf.getvalue() == "\n".join(lines) + "\n"


def test_chaos_sweep_grid_resolves_q_max():
    # oversample 2 alone gives a degree-2n grid, on which H_3 and H_4 of a
    # degree-n field are not integrated exactly; the sweep must raise the
    # grid degree to q_max * n
    n, q_max = 64, 4
    cfg = ex.ExperimentConfig(n_list=(n,), beta=0.5, replicates=100, master_seed=20260808,
                              oversample=2.0, q_max=q_max)
    h = ex.run_variance_sweep(cfg).replicate_data[n]["h"]
    spec = make_spec(n, 0.5)
    grid = build_grid(q_max * n)
    for r in range(cfg.replicates):
        coeffs = sample_coefficients(spec, replicate_rng(cfg.master_seed, n, r))
        redo = chaos_integrals(synthesize(coeffs, grid), q_max)
        assert np.abs(h[r, 3:] - redo[3:]).max() <= 1e-10


def test_grid_degree_floor():
    assert ex.grid_degree(64, 4.0, 2) == 256
    assert ex.grid_degree(64, 2.0, 4) == 256
    assert ex.grid_degree(64, 2.0) == 128
    assert ex.grid_degree(10, 2.55, 2) == 26


def _row_bits(row):
    seed, area, h, h2x = row
    return int(seed), np.float64(area).tobytes(), np.asarray(h).tobytes(), np.float64(h2x).tobytes()


@pytest.mark.parametrize("rows_per_block", [1, 3, None], ids=["1-row", "3-rows", "default"])
def test_replicate_row_is_bitwise_the_whole_field_reduction(monkeypatch, rows_per_block):
    # the block kernel reduces each block of rows as it is synthesized; every
    # output bit must equal synthesize + chaos_integrals + excursion_area on
    # the whole field, whatever the block size
    for beta in (0.5, 0.8):
        spec = make_spec(24, beta)
        for q_max in range(2, 7):
            for degree in (q_max * spec.n, q_max * spec.n + 2):  # both parities of n_theta
                grid = build_grid(degree)
                if rows_per_block is not None:
                    monkeypatch.setattr(field, "_BLOCK_BYTES", rows_per_block * 16 * (grid.n_phi // 2 + 1))
                got = ex._replicate_row(spec, grid, 0.7, q_max, 11, q_max)
                rng = replicate_rng(11, spec.n, q_max)
                seed = rng.bit_generator.seed_seq.generate_state(1, np.uint64)[0]
                coeffs = sample_coefficients(spec, rng)
                sample = synthesize(coeffs, grid)
                want = (seed, excursion_area(sample, 0.7).area, chaos_integrals(sample, q_max),
                        h2_exact_from_coeffs(coeffs))
                assert _row_bits(got) == _row_bits(want), (beta, q_max, degree)


def test_replicate_row_counts_every_longitude_of_a_wide_ring():
    # n_phi > 255: the per-row exceedance counts need more than eight bits
    spec = make_spec(64, 0.5)
    grid = build_grid(4 * spec.n)
    assert grid.n_phi > 255
    area = ex._replicate_row(spec, grid, -1e300, 2, 1, 0)[1]
    assert abs(area - 4 * math.pi) <= 1e-12


def test_excursion_area_counts_every_longitude_of_a_wide_ring():
    # the whole-field counterpart: one block of every row, n_phi > 255
    spec = make_spec(64, 0.5)
    grid = build_grid(4 * spec.n)
    assert grid.n_phi >= 270
    sample = synthesize(sample_coefficients(spec, replicate_rng(1, spec.n, 0)), grid)
    assert abs(excursion_area(sample, -1e300).area - 4 * math.pi) <= 1e-12


def test_replicate_row_peaks_below_one_field():
    # the field is reduced in blocks of rows: no replicate holds a whole
    # (n_theta, n_phi) field, let alone a copy of it
    import tracemalloc

    spec = make_spec(256, 0.5)
    grid = build_grid(ex.grid_degree(256, 4.0, 4))
    band_table(spec, grid)
    tracemalloc.start()
    try:
        ex._replicate_row(spec, grid, 1.0, 4, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.n_theta * grid.n_phi * 8
