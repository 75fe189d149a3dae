"""Span recording around the calls into bandsphere's modules, from outside.

The tracer replaces a function at the module attribute the program calls it
through (for example ``bandsphere.experiments.synthesize``) with a wrapper
that records a span: name, start, end, parent span, run id and a few
attributes.  Nothing under ``src/`` changes.

Spans finished in the benchmark's process stay in memory until ``dump``.
Spans finished in a forked worker (the process pool of ``run_variance_sweep``)
inherit the wrappers and the open span stack at fork time, so their parent is
the sweep's span; since a worker ends without notice, each of its spans is
appended as one line to ``spans-<pid>.jsonl`` as soon as it finishes, and
``dump`` folds those files into the one span dump.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import time

import numpy as np


def _attrs_synthesize(args, kwargs, result):
    coeffs, grid = args[0], args[1]
    spec = coeffs.spec
    return {"n": spec.n, "band_width": spec.band_width, "n_theta": grid.n_theta, "n_phi": grid.n_phi}


def _attrs_n_of_sample(args, kwargs, result):
    return {"n": args[0].spec.n}


def _attrs_table(args, kwargs, result):
    return {"bytes": int(np.prod(result.shape)) * result.itemsize}


def _attrs_sweep(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"replicates": config.replicates * len(config.n_list)}


# (module, attribute the program calls through, span name, attribute hook)
TARGETS = (
    ("field", "assoc_legendre_band", "specfun.assoc_legendre_band", _attrs_table),
    ("covariance", "legendre_band_sum", "specfun.legendre_band_sum", None),
    ("covariance", "jacobi_p10", "specfun.jacobi_p10", None),
    ("covariance", "bessel_j1", "specfun.bessel_j1", None),
    ("experiments", "gaussian_cdf", "specfun.gaussian_cdf", None),
    ("cli", "gaussian_cdf", "specfun.gaussian_cdf", None),
    ("grid", "build_grid", "grid.build_grid", None),
    ("experiments", "build_grid", "grid.build_grid", None),
    ("field", "band_table", "field.band_table", None),
    ("experiments", "band_table", "field.band_table", None),
    ("experiments", "sample_coefficients", "field.sample_coefficients", None),
    ("experiments", "synthesize", "field.synthesize", _attrs_synthesize),
    ("experiments", "chaos_integrals", "chaos.chaos_integrals", _attrs_n_of_sample),
    ("experiments", "excursion_area", "chaos.excursion_area", None),
    ("experiments", "h2_sample_direct", "chaos.h2_sample_direct", None),
    ("experiments", "bootstrap_variance_se", "experiments.bootstrap_variance_se", None),
    ("experiments", "bootstrap_mean_se", "experiments.bootstrap_mean_se", None),
    ("experiments", "clt_test", "experiments.clt_test", None),
    ("experiments", "fit_scaling_exponent", "experiments.fit_scaling_exponent", None),
    ("experiments", "run_variance_sweep", "experiments.run_variance_sweep", _attrs_sweep),
    ("experiments", "chaos_dominance_report", "experiments.chaos_dominance_report", None),
    ("covariance", "profile", "covariance.profile", None),
    ("covariance", "gamma_exact", "covariance.gamma_exact", None),
    ("covariance", "gamma_cd", "covariance.gamma_cd", None),
    ("covariance", "write_profile_csv", "covariance.write_profile_csv", None),
)


class Tracer:
    """In-memory span recorder; ``phase`` and ``round`` tag every new span."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.phase = "setup"
        self.round = -1
        self._counter = 0
        self._spill = None
        self._spill_pid = None
        self._installed: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        self._counter += 1
        span_id = f"{os.getpid()}:{self._counter}"
        record = {
            "name": name,
            "id": span_id,
            "parent": self.stack[-1] if self.stack else None,
            "run": self.run_id,
            "phase": self.phase,
            "round": self.round,
            "pid": os.getpid(),
            **attrs,
        }
        self.stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self._finish(record)

    def _finish(self, record: dict) -> None:
        pid = record["pid"]
        if pid == self.pid:
            self.spans.append(record)
            return
        if self._spill_pid != pid:  # first span finished in this worker
            path = os.path.join(self.out_dir, f"spans-{pid}.jsonl")
            self._spill = open(path, "a", buffering=1)
            self._spill_pid = pid
        self._spill.write(json.dumps(record) + "\n")

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if hook is not None:
                    record.update(hook(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self, package) -> None:
        """Wrap every target of ``TARGETS`` in the imported package."""
        for module_name, attr, name, hook in TARGETS:
            self.wrap(getattr(package, module_name), attr, name, hook)

    @property
    def active(self) -> bool:
        return bool(self._installed)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def dump(self, path: str) -> int:
        """Write this process's spans and every worker's spill file to one
        JSON-lines file; returns the number of spans written."""
        count = 0
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
                count += 1
            for spill in sorted(glob.glob(os.path.join(self.out_dir, "spans-*.jsonl"))):
                with open(spill) as fh:
                    for line in fh:
                        out.write(line)
                        count += 1
                os.remove(spill)
        return count


def load_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            lo = max(s["start"], parent["start"])
            hi = min(s["end"], parent["end"])
            if hi > lo:
                children.setdefault(parent["id"], []).append((lo, hi))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], ()))
        for s in spans
    }
