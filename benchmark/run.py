"""bandsphere benchmark: run one workload, check its outputs, print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh interpreter
(workload.py); this process times bandsphere's import in five more fresh
interpreters, checks every operation's output against computations made here
(checks.py), and prints one line per metric followed, as its last line, by a
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones, from
the span dump of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import workload as wl

IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150
RECOMPUTED_REPLICATES = 3  # chaos-q4 replicates redone here per n
FIELD_PROBES = 4           # grid nodes compared with the direct harmonic sum
LEGENDRE_PROBES = 5        # covariance rows compared with scipy's Legendre sum
MEASURED_NS = (64, 128, 256, 512)  # the n of the field workloads

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
)

# span name -> per-layer time metric (seconds per execution of the workload)
LAYER_TIMES = (
    ("specfun.assoc_legendre_band", "specfun.assoc_legendre_band_s"),
    ("specfun.legendre_band_sum", "specfun.legendre_band_sum_s"),
    ("specfun.jacobi_p10", "specfun.jacobi_p10_s"),
    ("specfun.bessel_j1", "specfun.bessel_j1_s"),
    ("specfun.gaussian_cdf", "specfun.gaussian_cdf_s"),
    ("grid.build_grid", "grid.build_grid_s"),
    ("field.sample_coefficients", "field.sample_coefficients_s"),
    ("field.synthesize", "field.synthesize_s"),
    ("chaos.chaos_integrals", "chaos.chaos_integrals_s"),
    ("chaos.excursion_area", "chaos.excursion_area_s"),
    ("chaos.h2_sample_direct", "chaos.h2_sample_direct_s"),
    ("experiments.bootstrap_variance_se", "experiments.bootstrap_variance_se_s"),
    ("experiments.bootstrap_mean_se", "experiments.bootstrap_mean_se_s"),
    ("experiments.clt_test", "experiments.clt_test_s"),
    ("experiments.fit_scaling_exponent", "experiments.fit_scaling_exponent_s"),
    ("covariance.gamma_exact", "covariance.gamma_exact_s"),
    ("covariance.gamma_cd", "covariance.gamma_cd_s"),
    ("covariance.write_profile_csv", "covariance.write_profile_csv_s"),
)
# span name -> metric of its self time (duration minus what its children cover)
SELF_TIMES = (
    ("experiments.run_variance_sweep", "experiments.run_variance_sweep_self_s"),
    ("covariance.profile", "covariance.profile_self_s"),
    ("cli.main", "cli.main_self_s"),
)

PER_LAYER = (
    [(metric, "s") for _, metric in LAYER_TIMES]
    + [(metric, "s") for _, metric in SELF_TIMES]
    + [(f"grid.n_phi.{n}", "count") for n in MEASURED_NS]
    + [(f"field.synthesize_ms.{n}", "ms") for n in MEASURED_NS]
    + [(f"chaos.chaos_integrals_ms.{n}", "ms") for n in MEASURED_NS]
    + [
        ("specfun.table_bytes", "bytes"),
        ("field.contraction_flops", "flop"),
        ("field.table_bytes_read", "bytes"),
        ("experiments.replicates", "count"),
        ("covariance.csv_bytes", "bytes"),
        ("cli.import_s", "s"),
        ("package.src_lines", "count"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)


def time_imports() -> list[float]:
    """bandsphere's import time, each in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import bandsphere, bandsphere.cli; print(repr(time.perf_counter() - t))"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# --- checks, per operation of the first round --------------------------------

def check_field_ops(name: str, seed: int, out_dir: str, ns) -> dict[int, list[str]]:
    import checks
    from bandsphere import chaos, field, grid

    cfg = wl.WORKLOADS[name]
    reps = cfg["replicates"]
    rng = np.random.default_rng(seed)
    fails: dict[int, list[str]] = {}
    for n in ns:
        with open(os.path.join(out_dir, f"r0-n{n}.json")) as fh:
            meta = json.load(fh)
        data = np.load(os.path.join(out_dir, f"r0-n{n}.npz"))
        area, h, h2x = data["area"], data["h"], data["h2_exact"]
        ell_min, dof = checks.band(n, wl.BETA)
        f = checks.check_row_band(meta["row"], n, wl.BETA)
        f += checks.check_h2_identity(h[:, 2], h2x)
        f += checks.check_mean_area(area, wl.U)
        f += checks.check_h2_moments(h2x, dof)
        if cfg["kind"] == "chaos":
            f += checks.check_h1_zero(h[:, 1])
            f += checks.check_zero_mean(h[:, 3], "h3")
            f += checks.check_zero_mean(h[:, 4], "h4")
        elif len(ns) == len(cfg["n"]):  # the exponent is fitted over every n
            f += checks.check_exponent(meta["fitted_exponent"], cfg["n"], wl.BETA, reps)
        # replicates redone here, in one process, through the public functions
        spec = field.make_spec(n, wl.BETA)
        g = grid.build_grid(wl.grid_degree(n))
        redo = [0] if cfg["kind"] == "sweep" else sorted(
            rng.choice(reps, RECOMPUTED_REPLICATES, replace=False).tolist())
        for r in redo:
            coeffs = field.sample_coefficients(spec, field.replicate_rng(seed, n, r))
            sample = field.synthesize(coeffs, g)
            f += checks.check_close(chaos.chaos_integrals(sample, cfg["q_max"]), h[r],
                                    f"chaos integrals of replicate {r}")
            f += checks.check_close(chaos.excursion_area(sample, wl.U).area, area[r],
                                    f"area of replicate {r}")
            if r == redo[0]:
                i = rng.integers(g.n_theta, size=FIELD_PROBES)
                j = rng.integers(g.n_phi, size=FIELD_PROBES)
                f += checks.check_direct_sum(
                    coeffs.matrix, n, ell_min, checks.FOUR_PI / dof,
                    g.theta_nodes[i], g.phi_nodes[j], sample.values[i, j])
        field.clear_table_cache()
        fails[n] = f
    return fails


def check_h2_ops(name: str, seed: int, out_dir: str, ns) -> dict[int, list[str]]:
    import checks

    fails = {}
    for n in ns:
        with open(os.path.join(out_dir, f"r0-n{n}.json")) as fh:
            row = json.load(fh)["rows"][0]
        draws = np.load(os.path.join(out_dir, f"r0-n{n}.npy"))
        fails[n] = checks.check_h2_direct(row, draws, n, wl.BETA)
    return fails


def check_covariance_ops(name: str, seed: int, out_dir: str, ns) -> dict[int, list[str]]:
    import checks
    from bandsphere import covariance, field

    rng = np.random.default_rng(seed)
    fails = {}
    for n in ns:
        with open(os.path.join(out_dir, f"r0-n{n}.csv")) as fh:
            parsed = checks.parse_profile_csv(fh.read())
        prof = covariance.profile(field.make_spec(n, wl.BETA), parsed["psi"],
                                  epsilon=wl.covariance_epsilon(seed))
        arrays = {col: getattr(prof, col) for col in checks.PROFILE_COLUMNS}
        rows = rng.choice(parsed["psi"].size, LEGENDRE_PROBES, replace=False)
        fails[n] = checks.check_profile(parsed, arrays, n, wl.BETA, rows)
    return fails


CHECKS = {"sweep": check_field_ops, "chaos": check_field_ops,
          "h2": check_h2_ops, "covariance": check_covariance_ops}


def check_run(name: str, seed: int, out_dir: str, record: dict) -> tuple[int, int, list[str]]:
    """Checks the outputs of the first round's operations, and every later
    round's against the first by digest (a config and seed fix every output
    bit).  Returns the number of failed operations, how many of them ran but
    gave a wrong output, and the failure messages."""
    first = {op["n"]: op for op in record["rounds"][0]["ops"]}
    ran = [n for n, op in first.items() if op.get("error") is None]
    fails = CHECKS[wl.WORKLOADS[name]["kind"]](name, seed, out_dir, ran)
    failed = wrong = 0
    messages = []
    for k, rnd in enumerate(record["rounds"]):
        for op in rnd["ops"]:
            n = op["n"]
            if op.get("error") is not None:
                why = [f"error: {op['error']}"]
            elif k == 0:
                why = fails[n]
            elif op.get("digest") != first[n].get("digest"):
                why = ["output differs from round 0 with the same seed"]
            else:
                why = []
            if why:
                failed += 1
                wrong += op.get("error") is None
                messages += [f"round {k} n={n}: {w}" for w in why]
    return failed, wrong, messages


# --- metrics ------------------------------------------------------------------

def end_to_end(record: dict, import_samples: list[float]) -> dict[str, float]:
    setup = statistics.median(import_samples)
    if record["setup_s"]:
        setup += statistics.median(record["setup_s"])
    rounds = record["rounds"]
    return {
        "wall_s": setup + statistics.median(r["seconds"] for r in rounds),
        "setup_s": setup,
        "items_per_s": statistics.median(r["items"] / r["seconds"] for r in rounds),
        "peak_rss_mb": record["peak_rss_kb"] * 1024 / 1e6,
    }


def per_layer(record: dict, spans: list[dict], import_samples) -> dict[str, float]:
    import tracer

    traced = [r["seconds"] for r in record["rounds"] if r["traced"]]
    untraced = [r["seconds"] for r in record["rounds"] if not r["traced"]]
    n_rounds = len(traced)
    n_setups = len(record["setup_s"])
    in_round = [s for s in spans if s["phase"] == "round"]
    in_setup = [s for s in spans if s["phase"] == "setup"]

    def dur(s):
        return s["end"] - s["start"]

    def per_exec(values_round, values_setup=()):
        total = sum(values_round) / n_rounds
        if n_setups:
            total += sum(values_setup) / n_setups
        return total

    metrics = {}
    for span_name, metric in LAYER_TIMES:
        metrics[metric] = per_exec([dur(s) for s in in_round if s["name"] == span_name],
                                   [dur(s) for s in in_setup if s["name"] == span_name])
    self_s = tracer.self_times(spans)
    for span_name, metric in SELF_TIMES:
        metrics[metric] = per_exec([self_s[s["id"]] for s in in_round if s["name"] == span_name])
    synth = [s for s in in_round if s["name"] == "field.synthesize"]
    chaos = [s for s in in_round if s["name"] == "chaos.chaos_integrals"]
    for n in MEASURED_NS:
        at_n = [s for s in synth if s["n"] == n]
        metrics[f"grid.n_phi.{n}"] = at_n[0]["n_phi"] if at_n else 0
        metrics[f"field.synthesize_ms.{n}"] = 1e3 * statistics.fmean(map(dur, at_n)) if at_n else 0.0
        ch = [s for s in chaos if s["n"] == n]
        metrics[f"chaos.chaos_integrals_ms.{n}"] = 1e3 * statistics.fmean(map(dur, ch)) if ch else 0.0
    # the contraction is two einsums "lm,lmt->tm" over the (band_width, n+1, n_theta)
    # table: a multiply and an add per entry each, and each reads the table once
    entries = [s["band_width"] * (s["n"] + 1) * s["n_theta"] for s in synth]
    metrics["specfun.table_bytes"] = per_exec(
        [], [s["bytes"] for s in in_setup if s["name"] == "specfun.assoc_legendre_band"])
    metrics["field.contraction_flops"] = 4.0 * statistics.fmean(entries) if entries else 0.0
    metrics["field.table_bytes_read"] = 16.0 * statistics.fmean(entries) if entries else 0.0
    metrics["experiments.replicates"] = per_exec(
        [s["replicates"] for s in in_round if s["name"] == "experiments.run_variance_sweep"])
    metrics["covariance.csv_bytes"] = sum(op.get("csv_bytes", 0) for op in record["rounds"][0]["ops"])
    metrics["cli.import_s"] = statistics.median(import_samples)
    lines = 0
    for path in glob.glob(os.path.join(wl.SRC, "bandsphere", "*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    metrics["package.src_lines"] = lines
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.spans"] = len(in_round) / n_rounds
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bandsphere benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(wl.SRC, "bandsphere", "__init__.py")):
        sys.stderr.write(f"no bandsphere package under {wl.SRC}; run from a full checkout\n")
        return 2
    out_dir = os.path.join(wl.HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    import_samples = time_imports()
    cmd = [sys.executable, os.path.join(wl.HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    t0 = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=wl.ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the workload and its pool workers
        child.wait()
        code = "a timeout"
    if code != 0:
        sys.stderr.write(f"workload process ended with {code}\n")
        return 1
    child_s = time.perf_counter() - t0
    with open(os.path.join(out_dir, "workload.json")) as fh:
        record = json.load(fh)

    sys.path.insert(0, wl.SRC)
    failed, wrong, messages = check_run(args.workload, args.seed, out_dir, record)
    attempted = sum(len(r["ops"]) for r in record["rounds"])
    if args.trace:
        import tracer

        spans = tracer.load_spans(os.path.join(out_dir, "spans.jsonl"))
        values = per_layer(record, spans, import_samples)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(record, import_samples)
        units = dict(END_TO_END)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {"correct": wrong == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({**result, "messages": messages, "rounds": len(record["rounds"]),
                   "workload_process_s": child_s, "import_samples_s": import_samples}, fh, indent=1)
    for path in glob.glob(os.path.join(out_dir, "r[0-9]*")):
        os.remove(path)

    for msg in messages:
        print(f"FAILED {msg}")
    print(f"{args.workload} seed={args.seed} rounds={len(record['rounds'])} "
          f"attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
