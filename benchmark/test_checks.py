"""Self-tests of the benchmark's checks: each check passes a correct output
and rejects a corrupted one.

    python3 -m pytest -q benchmark
"""

import io
import json
import math
import os
import sys

import numpy as np
import pytest

import checks
import run
import workload as wl

sys.path.insert(0, wl.SRC)

from bandsphere import chaos, covariance, field, grid  # noqa: E402


@pytest.fixture(scope="module")
def small_field():
    spec = field.make_spec(16, wl.BETA)
    g = grid.build_grid(wl.grid_degree(spec.n))
    coeffs = field.sample_coefficients(spec, field.replicate_rng(7, spec.n, 0))
    return spec, g, coeffs


def _probe(spec, g, coeffs, values):
    i = np.array([1, 5, 9, 20])
    j = np.array([0, 17, 33, 60])
    ell_min, dof = checks.band(spec.n, wl.BETA)
    return checks.check_direct_sum(coeffs.matrix, spec.n, ell_min, checks.FOUR_PI / dof,
                                   g.theta_nodes[i], g.phi_nodes[j], values[i, j])


def test_band_matches_program():
    for n in (64, 100, 512, 6400):
        spec = field.make_spec(n, wl.BETA)
        assert checks.band(n, wl.BETA) == (spec.ell_min, spec.dof)


def test_direct_sum_rejects_swapped_cos_sin(small_field):
    spec, g, coeffs = small_field
    sample = field.synthesize(coeffs, g)
    assert _probe(spec, g, coeffs, sample.values) == []
    # m <-> -m swaps every cos column with its sin column
    swapped = field.HarmonicCoefficients(spec=spec, matrix=coeffs.matrix[:, ::-1].copy())
    bad = field.synthesize(swapped, g)
    # the h2 identity cannot see the swap ...
    h2_quad = chaos.chaos_integrals(bad, 2)[2]
    assert checks.check_h2_identity([h2_quad], [chaos.h2_exact_from_coeffs(coeffs)]) == []
    # ... the direct sum can
    assert _probe(spec, g, coeffs, bad.values) != []


def test_h2_moments_reject_variance_moved_by_ten_sigma():
    _, dof = checks.band(400, wl.BETA)
    reps = 100_000
    rng = np.random.default_rng(11)
    h2 = checks.FOUR_PI / dof * rng.chisquare(dof, reps) - checks.FOUR_PI
    assert checks.check_h2_moments(h2, dof) == []
    var, _, sd_var = checks.h2_sigmas(dof, reps)
    moved = h2 * math.sqrt(1.0 + 10.0 * sd_var / var)
    fails = checks.check_h2_moments(moved, dof)
    assert len(fails) == 1 and "Var(h2)" in fails[0]


def test_h1_check_rejects_a_band_with_l0():
    spec = field.full_band_spec(8)  # keeps l = 0, so h1 = a_00 sqrt(4 pi c) != 0
    g = grid.build_grid(4 * spec.n)
    sample = field.synthesize(field.sample_coefficients(spec, field.replicate_rng(1, 8, 0)), g)
    assert checks.check_h1_zero([chaos.chaos_integrals(sample, 1)[1]]) != []
    band_spec = field.make_spec(8, wl.BETA)
    band_sample = field.synthesize(
        field.sample_coefficients(band_spec, field.replicate_rng(1, 8, 0)), g)
    assert checks.check_h1_zero([chaos.chaos_integrals(band_sample, 1)[1]]) == []


def test_zero_mean_and_area_checks_reject_shifts():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(300)
    assert checks.check_zero_mean(x, "h3") == []
    assert checks.check_zero_mean(x + 10.0 / math.sqrt(300), "h3") != []
    target = checks.FOUR_PI * 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    areas = target + 0.1 * rng.standard_normal(300)
    assert checks.check_mean_area(areas, 1.0) == []
    assert checks.check_mean_area(areas + 0.1, 1.0) != []


def test_exponent_check():
    ns = (64, 128, 256, 512)
    target = checks.dof_exponent(ns, wl.BETA)
    bound = checks.exponent_bound(ns, 100)
    assert checks.check_exponent(target + 0.9 * bound, ns, wl.BETA, 100) == []
    assert checks.check_exponent(target - 1.1 * bound, ns, wl.BETA, 100) != []
    assert checks.check_exponent(target + 0.1, ns, wl.BETA, 100_000) != []
    assert checks.check_exponent(None, ns, wl.BETA, 100) != []


def test_ks_check_rejects_a_wrong_statistic():
    n = 100
    _, dof = checks.band(n, wl.BETA)
    rng = np.random.default_rng(5)
    draws = checks.FOUR_PI / dof * rng.chisquare(dof, 20_000) - checks.FOUR_PI
    var, _, sd_var = checks.h2_sigmas(dof, draws.size)
    from scipy import stats

    z = (draws - draws.mean()) / draws.std(ddof=1)
    row = {"error": None, "ell_min": checks.band(n, wl.BETA)[0], "dof": dof,
           "var_h2_exact_formula": var, "var_h2_hat": float(draws.var(ddof=1)),
           "var_h2_se": sd_var, "clt_ks_stat": float(stats.kstest(z, "norm").statistic)}
    assert checks.check_h2_direct(row, draws, n, wl.BETA) == []
    assert checks.check_h2_direct({**row, "clt_ks_stat": row["clt_ks_stat"] + 1e-9}, draws, n, wl.BETA) != []
    assert checks.check_h2_direct({**row, "var_h2_se": 1.3 * sd_var}, draws, n, wl.BETA) != []


def test_profile_check_rejects_an_altered_csv_column():
    n = 200
    spec = field.make_spec(n, wl.BETA)
    psi = np.linspace(0.0, covariance.lemma1_window(spec, 0.1)[1], 400)
    prof = covariance.profile(spec, psi, epsilon=0.1)
    buf = io.StringIO()
    covariance.write_profile_csv(prof, buf, header_lines=("n = 200",))
    text = buf.getvalue()
    arrays = {col: getattr(prof, col) for col in checks.PROFILE_COLUMNS}
    rows = np.array([0, 57, 123, 399])
    assert checks.check_profile(checks.parse_profile_csv(text), arrays, n, wl.BETA, rows) == []

    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("psi")) + 10
    cols = lines[k].split(",")
    cols[3] = f"{float(cols[3]) * (1 + 1e-15) + 1e-17:.16e}"  # the cd column, last digits
    lines[k] = ",".join(cols)
    fails = checks.check_profile(checks.parse_profile_csv("\n".join(lines)), arrays, n, wl.BETA, rows)
    assert fails == ["CSV column cd does not parse back to the profile"]


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
