"""One benchmark workload in a fresh interpreter: set-up, then whole rounds of
the workload's operations until the run's time is spent.

    python3 benchmark/workload.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

Writes DIR/workload.json (timings, one record per operation, a digest of each
operation's output), DIR/r0-* (the first round's outputs) and, with
``--trace 1``, DIR/spans.jsonl.  Run it through run.py, which times the
import, checks the outputs and prints the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BETA = 0.5
U = 1.0
OVERSAMPLE = 4.0
SETUP_REPS = 3  # grid and band-table builds per run; set-up reports their median

WORKLOADS = {
    "scaling-sweep": {"kind": "sweep", "n": (64, 128, 256, 512), "q_max": 2, "workers": 1, "replicates": 100},
    "chaos-q4": {"kind": "chaos", "n": (64, 128, 256), "q_max": 4, "workers": 2, "replicates": 100},
    "h2-direct": {"kind": "h2", "n": (100, 400, 1600), "replicates": 100_000},
    "covariance-profile": {"kind": "covariance", "n": (1600, 6400), "points": 20_000},
}


def grid_degree(n: int) -> int:
    """The grid degree run_variance_sweep builds for n."""
    return max(int(math.ceil(OVERSAMPLE * n)), 2 * n)


def covariance_epsilon(seed: int) -> float:
    """Polar-cap exclusion drawn from the seed in [0.05, 0.15); it sets the
    upper end of the psi grid and the Hilb and Lemma-1 windows."""
    return 0.05 + 0.1 * ((seed * 0.6180339887498949) % 1.0)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()


class Capture:
    """Keeps the last ExperimentResult of run_variance_sweep: the CLI and
    chaos_dominance_report drop the replicate arrays the checks need."""

    def __init__(self, experiments):
        self.last = None
        original = experiments.run_variance_sweep

        def run_variance_sweep(config):
            self.last = original(config)
            return self.last

        experiments.run_variance_sweep = run_variance_sweep


class Runner:
    def __init__(self, name: str, seed: int, out_dir: str, tracer):
        from bandsphere import experiments

        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.capture = Capture(experiments)

    def span(self, name: str):
        if self.tracer is not None and self.tracer.active:
            return self.tracer.span(name)
        return contextlib.nullcontext()

    def cli_main(self, argv):
        """bandsphere's CLI entry point; an exception it lets through becomes
        the operation's exit status, so the round goes on."""
        from bandsphere import cli

        with self.span("cli.main"):
            try:
                return cli.main(argv)
            except Exception as exc:
                return f"{type(exc).__name__}: {exc}"

    def path(self, k: int, name: str) -> str:
        return os.path.join(self.out_dir, f"r{k}-{name}")

    def setup(self) -> float:
        """Build every n's grid and band table, as the sweep does before its
        first replicate.  The tables stay cached for the rounds."""
        from bandsphere import field, grid

        field.clear_table_cache()
        t0 = time.perf_counter()
        for n in self.cfg["n"]:
            spec = field.make_spec(n, BETA)
            field.band_table(spec, grid.build_grid(grid_degree(n)))
        return time.perf_counter() - t0

    def config(self):
        from bandsphere import experiments

        return experiments.ExperimentConfig(
            n_list=self.cfg["n"], beta=BETA, u=U, replicates=self.cfg["replicates"],
            master_seed=self.seed, oversample=OVERSAMPLE, mode="field_full",
            q_max=self.cfg["q_max"], workers=self.cfg["workers"],
        )

    def round(self, k: int) -> dict:
        """One round: the workload's operations, timed, then their outputs
        recorded.  Returns {"seconds", "items", "ops": [{"n", "error", "digest"}]}."""
        kind = self.cfg["kind"]
        if kind in ("sweep", "chaos"):
            return self._field_round(k)
        if kind == "h2":
            return self._h2_round(k)
        return self._covariance_round(k)

    def _field_round(self, k: int) -> dict:
        import numpy as np
        from bandsphere import experiments

        config = self.config()
        items = self.cfg["replicates"] * len(self.cfg["n"])
        t0 = time.perf_counter()
        try:
            if self.cfg["kind"] == "sweep":
                result = experiments.run_variance_sweep(config)
                extra = {"fitted_exponent": result.fitted_exponent}
            else:
                report = experiments.chaos_dominance_report(config)
                result = self.capture.last
                extra = {"flags": report.flags}
        except Exception as exc:  # every operation of the round failed; keep running
            error = f"{type(exc).__name__}: {exc}"
            return {"seconds": time.perf_counter() - t0, "items": items,
                    "ops": [{"n": n, "error": error} for n in self.cfg["n"]]}
        seconds = time.perf_counter() - t0
        ops = []
        for row in result.rows:
            meta = json.dumps({"row": experiments.row_to_dict(row), **extra}, sort_keys=True)
            data = result.replicate_data.get(row.n, {})
            arrays = {key: data[key] for key in ("area", "h", "h2_exact") if key in data}
            if k == 0:
                with open(self.path(k, f"n{row.n}.json"), "w") as fh:
                    fh.write(meta)
                if arrays:
                    np.savez(self.path(k, f"n{row.n}.npz"), **arrays)
            ops.append({"n": row.n, "error": row.error,
                        "digest": digest(meta.encode(), *arrays.values())})
        return {"seconds": seconds, "items": items, "ops": ops}

    def _h2_round(self, k: int) -> dict:
        import numpy as np

        seconds = 0.0
        ops = []
        for n in self.cfg["n"]:
            out = self.path(k, f"n{n}.json")
            argv = ["excursion", "--mode", "h2-direct", "--n", str(n), "--beta", str(BETA),
                    "--u", str(U), "--replicates", str(self.cfg["replicates"]),
                    "--seed", str(self.seed), "--out", out]
            self.capture.last = None
            t0 = time.perf_counter()
            code = self.cli_main(argv)
            seconds += time.perf_counter() - t0
            op = {"n": n, "exit": code, "error": None}
            result = self.capture.last
            if code not in (0, 1) or result is None or not os.path.exists(out):
                op["error"] = f"exit status {code}"
            else:
                draws = result.replicate_data[n]["h2_exact"]
                with open(out, "rb") as fh:
                    text = fh.read()
                op["digest"] = digest(text, draws)
                if k == 0:
                    np.save(self.path(k, f"n{n}.npy"), draws)
                else:
                    os.remove(out)
            ops.append(op)
        return {"seconds": seconds, "items": self.cfg["replicates"] * len(self.cfg["n"]), "ops": ops}

    def _covariance_round(self, k: int) -> dict:
        seconds = 0.0
        ops = []
        for n in self.cfg["n"]:
            out = self.path(k, f"n{n}.csv")
            argv = ["covariance", "--n", str(n), "--beta", str(BETA),
                    "--points", str(self.cfg["points"]),
                    "--epsilon", repr(covariance_epsilon(self.seed)),
                    "--seed", str(self.seed), "--out", out]
            t0 = time.perf_counter()
            code = self.cli_main(argv)
            seconds += time.perf_counter() - t0
            op = {"n": n, "exit": code, "error": None}
            if code != 0 or not os.path.exists(out):
                op["error"] = f"exit status {code}"
            else:
                op["csv_bytes"] = os.path.getsize(out)
                with open(out, "rb") as fh:
                    op["digest"] = digest(fh.read())
                if k > 0:
                    os.remove(out)
            ops.append(op)
        return {"seconds": seconds, "items": self.cfg["points"] * len(self.cfg["n"]), "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import bandsphere
    import bandsphere.cli  # noqa: F401  (the package does not import its CLI module)

    if not os.path.abspath(bandsphere.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"bandsphere imported from {bandsphere.__file__}, not {SRC}\n")
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}", out_dir=args.out)
    runner = Runner(args.workload, args.seed, args.out, tracer)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": [], "rounds": []}

    if tracer:
        tracer.install(bandsphere)
    if runner.cfg["kind"] in ("sweep", "chaos"):
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.round = rep
            record["setup_s"].append(runner.setup())
    if tracer:
        # traced and untraced rounds alternate; the difference of their
        # medians is the tracing overhead.  An untraced warm-up round first
        # keeps the first round's extra cost (page faults while the allocator
        # grows) out of that difference.
        tracer.uninstall()
        tracer.phase = "round"
        runner.round(1000)

    t_loop = time.perf_counter()
    while True:
        k = len(record["rounds"])
        traced = tracer is not None and k % 2 == 0
        if traced:
            tracer.round = k
            tracer.install(bandsphere)
        rec = runner.round(k)
        if traced:
            tracer.uninstall()
        rec["traced"] = traced
        record["rounds"].append(rec)
        elapsed = time.perf_counter() - t_loop
        if elapsed + rec["seconds"] > args.seconds and (tracer is None or k >= 1):
            break
    if tracer:
        record["spans"] = tracer.dump(os.path.join(args.out, "spans.jsonl"))

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_kb"] = max(self_kb, child_kb)
    with open(os.path.join(args.out, "workload.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
