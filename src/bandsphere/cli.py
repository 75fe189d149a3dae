"""Command-line interface.

Subcommands: covariance, simulate, excursion, scaling, clt, chaos.  Every run
embeds its fully resolved configuration (including the master seed) in the
output header, so any output file can be regenerated bit-identically.  Flags
override values from an optional flat key=value config file, which overrides
built-in defaults.

Exit codes: 0 all acceptance flags pass, 1 numerical/acceptance failure,
2 usage error.  The default master seed comes from BANDSPHERE_SEED when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import covariance as cov
from . import experiments as ex
from .field import (
    band_table_bytes, make_spec, parity_rows_bytes, replicate_rng, sample_coefficients, synthesize, text_sink,
    write_field_csv,
)
from .grid import build_grid, fft_length, theta_count
# no subcommand computes a target (experiments does); gaussian_cdf stays an
# attribute of this module because the benchmark's layer tracer wraps it here
from .specfun import gaussian_cdf  # noqa: F401

SEED_ENV_VAR = "BANDSPHERE_SEED"
SLOPE_TOLERANCE = 0.15


class UsageError(Exception):
    pass


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return ex.DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in str(text).split(","))
    except ValueError as exc:
        # argparse reports this error's text and exits 2
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _mode(text: str) -> str:
    """A mode in either spelling, h2-direct or h2_direct, as ex.MODES spells it."""
    return text.replace("-", "_")

# every setting a flag or a config file can give: key -> (type, help, choices).
# The flag is --key with dashes, except n_list, which the sweeps over n take as --n.
_FLAGS = {
    "n": (int, "top frequency of the band", None),
    "n_list": (_int_list, "comma-separated top frequencies, e.g. 64,128,256", None),
    "beta": (float, "bandwidth exponent in (0, 1)", None),
    "seed": (int, f"master seed (default: ${SEED_ENV_VAR} or {ex.DEFAULT_SEED})", None),
    "band_rounding": (str, "rounding of the band edge alpha*n", ("ceil", "floor")),
    "out": (str, "output path (default: stdout)", None),
    "u": (float, "threshold", None),
    "replicates": (int, "Monte Carlo replicates per n", None),
    "mode": (_mode, "full synthesis or direct chi-square draws", ex.MODES),
    "oversample": (float, "grid degree / n", None),
    "q_max": (int, "highest chaos order", None),
    "workers": (int, "parallel workers; output-invariant", None),
    "format": (str, "report or replicate CSV", ("json", "csv")),
    "points": (int, "number of psi grid points", None),
    "psi_min": (float, "lower psi", None),
    "psi_max": (float, "upper psi (default: alpha*n*(pi - epsilon))", None),
    "epsilon": (float, "polar-cap exclusion", None),
}


def _read_config_file(args: argparse.Namespace) -> dict:
    """The --config file's settings, each one the subcommand takes; on a sweep
    over n, n means n_list, as --n does."""
    path, values, settings = args.config, {}, _SUBCOMMANDS[args.command][2]
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                name, _, val = line.partition("=")
                name = name.strip().replace("-", "_")
                key = "n_list" if name == "n" and "n_list" in settings else name
                if key not in settings:
                    raise UsageError(f"{path}:{lineno}: {args.command} takes no key {name!r}")
                kind, _, choices = _FLAGS[key]
                try:
                    values[key] = kind(val.strip())
                    if choices is not None and values[key] not in choices:
                        raise ValueError(f"invalid choice: {values[key]!r} (choose from {', '.join(map(repr, choices))})")
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise UsageError(f"{path}:{lineno}: bad value for {name}: {exc}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return values


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge CLI flags over config-file values over defaults, and check that
    the band is given and the seed is non-negative."""
    file_values = _read_config_file(args) if args.config else {}
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            resolved[key] = file_values[key]
        else:
            resolved[key] = default
    if resolved["seed"] is None:
        resolved["seed"] = _default_seed()
    if resolved["seed"] < 0:
        raise UsageError(f"seed must be a non-negative integer, got {resolved['seed']}")
    if resolved.get("n", resolved.get("n_list")) is None or resolved["beta"] is None:
        raise UsageError(f"{args.command} requires --n and --beta")
    return resolved


def _echo_config(resolved: dict) -> dict:
    # the output path is not part of the run's semantics; dropping it keeps
    # regenerated files bit-identical wherever they are written
    return {k: v for k, v in sorted(resolved.items()) if k != "out"}


def _header_lines(resolved: dict) -> tuple[str, ...]:
    return tuple(f"{k} = {v}" for k, v in _echo_config(resolved).items())


def _emit_json(payload: dict, out: str | None) -> None:
    with text_sink(out or sys.stdout) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _make_spec(r: dict):
    try:
        return make_spec(r["n"], r["beta"], r["band_rounding"])
    except ValueError as exc:
        raise UsageError(str(exc))


def _experiment_config(r: dict) -> ex.ExperimentConfig:
    try:
        return ex.ExperimentConfig(
            n_list=r["n_list"] if "n_list" in r else (r["n"],),
            beta=r["beta"],
            u=r["u"],
            replicates=r["replicates"],
            master_seed=r["seed"],
            oversample=r["oversample"],
            mode=r.get("mode", "field_full"),
            q_max=r["q_max"],
            workers=r["workers"],
            band_rounding=r["band_rounding"],
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _sweep(r: dict) -> ex.ExperimentResult:
    """Config, memory pre-flight and variance sweep of excursion, scaling and clt."""
    config = _experiment_config(r)
    _check_sweep_fits(config)
    return ex.run_variance_sweep(config)


def _config_payload(r: dict) -> dict:
    return {**_echo_config(r), "master_seed": r["seed"]}


def _report_payload(resolved: dict, result: ex.ExperimentResult, flags: dict) -> dict:
    return {
        "config": _config_payload(resolved),
        "rows": [ex.row_to_dict(row) for row in result.rows],
        "fitted_exponent": result.fitted_exponent,
        "exponent_ci": result.exponent_ci,
        "flags": flags,
        "pass": all(flags.values()) if flags else True,
    }


def _physical_memory_bytes() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no known limit
        return math.inf


def _check_fits(bands, workers: int = 1, whole_field: bool = False, table_copies: int = 1) -> None:
    """Usage error, before anything is allocated, when the run would not fit
    in physical memory: ``table_copies`` copies of the band table of every
    (spec, grid degree) in ``bands`` (the table cache keeps each until the
    process exits), one half-spectra array of the last, largest band per
    synthesizing process and, with ``whole_field``, that band's whole field."""
    need = table_copies * sum(band_table_bytes(spec, theta_count(degree)) for spec, degree in bands)
    spec, degree = bands[-1]
    n_theta = theta_count(degree)
    need += workers * parity_rows_bytes(spec, n_theta)
    limit = _physical_memory_bytes()
    if whole_field:
        # at least degree + 1 longitudes; fft_length's search is short only
        # for a field that can fit
        need += 8 * n_theta * (degree + 1)
        if need <= limit:
            need += 8 * n_theta * (fft_length(degree + 1) - degree - 1)
    if need > limit:
        gigabytes = need / 1e9 if need < 1e300 else math.inf  # an int past float range reads inf
        raise UsageError(
            f"n = {','.join(str(s.n) for s, _ in bands)}: the band tables and field buffers need "
            f"{gigabytes:.2f} GB, more than the {limit / 1e9:.2f} GB of physical memory"
        )


def _check_sweep_fits(config: ex.ExperimentConfig) -> None:
    """_check_fits for every n of a field-mode sweep: one pool per sweep,
    and every n's table is built before it starts.  Forked workers share
    those tables; each spawned worker builds its own copy of every table.
    The start method is asked for only when there is a pool, so a one-worker
    run loads no pool modules."""
    if config.mode != "field_full":
        return
    bands = [(make_spec(n, config.beta, config.band_rounding), ex.grid_degree(n, config.oversample, config.q_max))
             for n in config.n_list]  # the config has checked every band
    workers = ex.pool_size(config.workers)
    spawned = config.workers > 1 and ex.start_method() == "spawn"
    _check_fits(bands, workers, table_copies=1 + workers if spawned else 1)


# --- subcommands: each takes the resolved settings ----------------------------

def cmd_covariance(r: dict) -> int:
    if not 0.0 < r["epsilon"] < math.pi:
        raise UsageError(f"epsilon must lie in (0, pi), got {r['epsilon']}")
    if r["points"] < 2:
        raise UsageError("need at least 2 grid points")
    spec = _make_spec(r)
    psi_max = r["psi_max"] if r["psi_max"] is not None else cov.lemma1_window(spec, r["epsilon"])[1]
    if not 0.0 <= r["psi_min"] < psi_max <= cov.theta_to_psi(spec, math.pi):
        raise UsageError(f"need 0 <= psi_min < psi_max <= alpha*n*pi = {cov.theta_to_psi(spec, math.pi):.6g}")
    psi = np.linspace(r["psi_min"], psi_max, r["points"])
    prof = cov.profile(spec, psi, epsilon=r["epsilon"])
    cov.write_profile_csv(prof, r["out"] or sys.stdout, header_lines=_header_lines(dict(r, psi_max=psi_max)))
    return 0


def cmd_simulate(r: dict) -> int:
    try:
        ex.check_oversample(r["oversample"], r["n"])
    except ValueError as exc:
        raise UsageError(str(exc))
    spec = _make_spec(r)
    degree = ex.grid_degree(spec.n, r["oversample"])
    _check_fits([(spec, degree)], whole_field=True)
    sample = synthesize(sample_coefficients(spec, replicate_rng(r["seed"], spec.n, 0)), build_grid(degree))
    write_field_csv(sample, r["out"] or sys.stdout, header_lines=_header_lines(r))
    return 0


def cmd_excursion(r: dict) -> int:
    result = _sweep(r)
    row = result.rows[0]
    if row.error is not None:
        sys.stderr.write(f"excursion failed: {row.error}\n")
        return 1
    # a named subset of the row's targets: an entry added later is no flag by itself
    flags = {f"{name}_ok": ex.within_3se(row.targets[name])
             for name in ("var_h2", "mean_area") if name in row.targets}
    if r["format"] == "csv":
        header = _header_lines(r) + tuple(f"flag {k} = {v}" for k, v in sorted(flags.items()))
        ex.write_replicate_csv(result, r["n"], r["out"] or sys.stdout, header_lines=header)
    else:
        _emit_json(_report_payload(r, result, flags), r["out"])
    return 0 if all(flags.values()) else 1


def cmd_scaling(r: dict) -> int:
    result = _sweep(r)
    flags = {"all_rows_ok": all(row.error is None for row in result.rows)}
    # the slope is judged against the exponent of the exact integer D(n) over
    # the fitted n; -(2 - beta) is only its large-n limit
    target_finite_n = None
    if result.fitted_exponent is not None:
        fitted_ns = [row.n for row in ex.usable_rows(result.rows)]
        target_finite_n = ex.dof_scaling_exponent(fitted_ns, r["beta"], r["band_rounding"])
        flags["slope_within_band"] = abs(result.fitted_exponent - target_finite_n) <= SLOPE_TOLERANCE
    else:
        flags["slope_within_band"] = False
    payload = _report_payload(r, result, flags)
    payload["slope_target"] = -(2.0 - r["beta"])
    payload["slope_target_finite_n"] = target_finite_n
    payload["slope_tolerance"] = SLOPE_TOLERANCE
    _emit_json(payload, r["out"])
    return 0 if all(flags.values()) else 1


def cmd_clt(r: dict) -> int:
    if r["replicates"] < ex.CLT_MIN_SAMPLES:
        raise UsageError(f"clt requires at least {ex.CLT_MIN_SAMPLES} replicates")
    result = _sweep(r)
    row = result.rows[0]
    if row.error is not None:
        sys.stderr.write(f"clt failed: {row.error}\n")
        return 1
    flags = {"clt_pass": bool(row.clt_pass)}
    payload = _report_payload(r, result, flags)
    payload["ks_critical"] = ex.ks_critical_one_sample(r["replicates"])
    _emit_json(payload, r["out"])
    return 0 if all(flags.values()) else 1


def cmd_chaos(r: dict) -> int:
    config = ex.chaos_report_config(_experiment_config(r))
    r = dict(r, q_max=config.q_max)  # echo the q_max the report runs
    _check_sweep_fits(config)
    report = ex.chaos_dominance_report(config)
    payload = {
        "config": _config_payload(r),
        "rows": [ex.row_to_dict(row) for row in report.rows],
        # keyed by ascending int n, which json writes as the same strings
        "h2_normalized": report.h2_normalized,
        "q3_scaled": report.q3_scaled,
        "q4_scaled": report.q4_scaled,
        "h3_h2_ratio": report.h3_h2_ratio,
        "flags": report.flags,
        "pass": all(report.flags.values()),
    }
    _emit_json(payload, r["out"])
    return 0 if all(report.flags.values()) else 1


# --- parser -------------------------------------------------------------------

_BAND = {"beta": None, "seed": None, "band_rounding": "ceil", "out": None}
_MONTE_CARLO = {"u": 1.0, "replicates": 2000, "oversample": 4.0, "workers": 1}

# name -> (handler, help, defaults); each default key is a setting of the
# subcommand and, unless _NO_FLAG lists it, a flag whose help shows
# "(default: X)" from the same value
_SUBCOMMANDS = {
    "covariance": (cmd_covariance, "emit the covariance profile CSV",
                   {"n": None, **_BAND, "points": 500, "psi_min": 0.0, "psi_max": None, "epsilon": 0.1}),
    "simulate": (cmd_simulate, "synthesize one realization and dump it as CSV",
                 {"n": None, **_BAND, "oversample": 4.0}),
    "excursion": (cmd_excursion, "excursion-area and h2 Monte Carlo at one n",
                  {"n": None, **_BAND, **_MONTE_CARLO, "mode": "field_full", "q_max": 4, "format": "json"}),
    "scaling": (cmd_scaling, "variance scaling sweep and log-log exponent fit",
                {"n_list": None, **_BAND, **_MONTE_CARLO, "q_max": 2}),
    "clt": (cmd_clt, "KS normality test of the standardized excursion area",
            {"n": None, **_BAND, **_MONTE_CARLO, "mode": "field_full", "q_max": 2}),
    "chaos": (cmd_chaos, "chaos-dominance diagnostics across n",
              {"n_list": None, **_BAND, **_MONTE_CARLO, "q_max": 4}),
}
# settings that only a default or a config file gives: clt has no --q-max
_NO_FLAG = {("clt", "q_max")}


@functools.cache  # parsing does not change the parser, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandsphere",
        description="Band-limited Gaussian spherical fields: covariance tables, "
        "simulation, and excursion-area Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file; flags override it")
        for key, default in defaults.items():
            if (name, key) in _NO_FLAG:
                continue
            kind, text, choices = _FLAGS[key]
            flag = "--n" if key == "n_list" else "--" + key.replace("_", "-")
            if default is not None:
                text = f"{text} (default: {default})"
            p.add_argument(flag, dest=key, type=kind, choices=choices, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, defaults = _SUBCOMMANDS[args.command]
    try:
        return handler(_resolve(args, defaults))
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
