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
import json
import math
import os
import sys

import numpy as np

from . import covariance as cov
from . import experiments as ex
from .field import band_table_bytes, make_spec, replicate_rng, sample_coefficients, synthesize, write_field_csv
from .grid import build_grid, theta_count
from .specfun import FOUR_PI, gaussian_cdf

SEED_ENV_VAR = "BANDSPHERE_SEED"
DEFAULT_SEED = 20260808
SLOPE_TOLERANCE = 0.15


class UsageError(Exception):
    pass


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else DEFAULT_SEED


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in str(text).split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


_CONVERTERS = {
    "n": int,
    "n_list": _int_list,
    "beta": float,
    "u": float,
    "replicates": int,
    "seed": int,
    "oversample": float,
    "mode": str,
    "q_max": int,
    "workers": int,
    "points": int,
    "psi_min": float,
    "psi_max": float,
    "epsilon": float,
    "out": str,
    "format": str,
    "band_rounding": str,
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _CONVERTERS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _CONVERTERS[key](val.strip())
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return values


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            resolved[key] = file_values[key]
        else:
            resolved[key] = default
    if resolved.get("seed") is None:
        resolved["seed"] = _default_seed()
    return resolved


def _echo_config(resolved: dict) -> dict:
    # the output path is not part of the run's semantics; dropping it keeps
    # regenerated files bit-identical wherever they are written
    return {k: v for k, v in sorted(resolved.items()) if k != "out"}


def _header_lines(resolved: dict) -> tuple[str, ...]:
    return tuple(f"{k} = {v}" for k, v in _echo_config(resolved).items())


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _experiment_config(resolved: dict, n_list: tuple[int, ...], mode: str) -> ex.ExperimentConfig:
    try:
        return ex.ExperimentConfig(
            n_list=n_list,
            beta=resolved["beta"],
            u=resolved["u"],
            replicates=resolved["replicates"],
            master_seed=resolved["seed"],
            oversample=resolved["oversample"],
            mode=mode,
            q_max=resolved["q_max"],
            workers=resolved["workers"],
            band_rounding=resolved["band_rounding"],
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _report_payload(resolved: dict, result: ex.ExperimentResult, flags: dict) -> dict:
    body = ex.result_to_dict(result)
    return {
        "config": {**_echo_config(resolved), "master_seed": resolved["seed"]},
        "rows": body["rows"],
        "fitted_exponent": body["fitted_exponent"],
        "exponent_ci": body["exponent_ci"],
        "flags": flags,
        "pass": all(flags.values()) if flags else True,
    }


def _physical_memory_bytes() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no known limit
        return math.inf


def _check_table_fits(spec, degree: int) -> None:
    """Usage error, before anything is allocated, when the band table of the
    field grid would not fit in physical memory."""
    need = band_table_bytes(spec, theta_count(degree))
    limit = _physical_memory_bytes()
    if need > limit:
        raise UsageError(
            f"n = {spec.n}: the band table needs {need / 1e9:.2f} GB, more than "
            f"the {limit / 1e9:.2f} GB of physical memory"
        )


def _check_sweep_fits(config: ex.ExperimentConfig, q_max: int) -> None:
    """_check_table_fits for the largest n of a field-mode sweep."""
    if config.mode != "field_full":
        return
    n = config.n_list[-1]
    try:
        spec = make_spec(n, config.beta, config.band_rounding)
    except ValueError:
        return  # the sweep reports the bad spec in its row
    _check_table_fits(spec, ex.grid_degree(n, config.oversample, q_max))


# --- subcommands --------------------------------------------------------------

def cmd_covariance(args) -> int:
    defaults = {
        "n": None, "beta": None, "points": 500, "psi_min": 0.0, "psi_max": None,
        "epsilon": 0.1, "out": None, "seed": None, "band_rounding": "ceil",
    }
    r = _resolve(args, defaults)
    if r["n"] is None or r["beta"] is None:
        raise UsageError("covariance requires --n and --beta")
    if not 0.0 < r["epsilon"] < math.pi:
        raise UsageError(f"epsilon must lie in (0, pi), got {r['epsilon']}")
    if r["points"] < 2:
        raise UsageError("need at least 2 grid points")
    try:
        spec = make_spec(r["n"], r["beta"], r["band_rounding"])
    except ValueError as exc:
        raise UsageError(str(exc))
    psi_max = r["psi_max"] if r["psi_max"] is not None else cov.lemma1_window(spec, r["epsilon"])[1]
    if not 0.0 <= r["psi_min"] < psi_max:
        raise UsageError("need 0 <= psi_min < psi_max")
    psi = np.linspace(r["psi_min"], psi_max, r["points"])
    prof = cov.profile(spec, psi, epsilon=r["epsilon"])
    resolved = dict(r, psi_max=psi_max)
    if r["out"]:
        cov.write_profile_csv(prof, r["out"], header_lines=_header_lines(resolved))
    else:
        cov.write_profile_csv(prof, sys.stdout, header_lines=_header_lines(resolved))
    return 0


def cmd_simulate(args) -> int:
    defaults = {
        "n": None, "beta": None, "seed": None, "oversample": 4.0, "out": None,
        "band_rounding": "ceil",
    }
    r = _resolve(args, defaults)
    if r["n"] is None or r["beta"] is None:
        raise UsageError("simulate requires --n and --beta")
    if r["oversample"] < 1.0:
        raise UsageError("oversample must be >= 1")
    try:
        spec = make_spec(r["n"], r["beta"], r["band_rounding"])
    except ValueError as exc:
        raise UsageError(str(exc))
    degree = ex.grid_degree(spec.n, r["oversample"])
    _check_table_fits(spec, degree)
    grid = build_grid(degree)
    sample = synthesize(sample_coefficients(spec, replicate_rng(r["seed"], spec.n, 0)), grid)
    if r["out"]:
        write_field_csv(sample, r["out"], header_lines=_header_lines(r))
    else:
        write_field_csv(sample, sys.stdout, header_lines=_header_lines(r))
    return 0


_MODE_ALIASES = {"field-full": "field_full", "h2-direct": "h2_direct"}


def cmd_excursion(args) -> int:
    defaults = {
        "n": None, "beta": None, "u": 1.0, "replicates": 2000, "seed": None,
        "oversample": 4.0, "mode": "field_full", "q_max": 4, "workers": 1,
        "out": None, "format": "json", "band_rounding": "ceil",
    }
    r = _resolve(args, defaults)
    if r["n"] is None or r["beta"] is None:
        raise UsageError("excursion requires --n and --beta")
    mode = _MODE_ALIASES.get(r["mode"], r["mode"])
    r["mode"] = mode
    config = _experiment_config(r, (r["n"],), mode)
    _check_sweep_fits(config, config.q_max)
    result = ex.run_variance_sweep(config)
    row = result.rows[0]
    if row.error is not None:
        sys.stderr.write(f"excursion failed: {row.error}\n")
        return 1
    flags = {}
    flags["var_h2_ok"] = abs(row.var_h2_hat - row.var_h2_exact_formula) <= 3.0 * row.var_h2_se
    if mode == "field_full":
        target = FOUR_PI * (1.0 - gaussian_cdf(r["u"]))
        flags["mean_area_ok"] = abs(row.mean_s_hat - target) <= 3.0 * row.mean_s_se
    if r["format"] == "csv":
        out = r["out"]
        header = _header_lines(r) + tuple(f"flag {k} = {v}" for k, v in sorted(flags.items()))
        ex.write_replicate_csv(result, r["n"], out if out else sys.stdout, header_lines=header)
    else:
        _emit_json(_report_payload(r, result, flags), r["out"])
    return 0 if all(flags.values()) else 1


def cmd_scaling(args) -> int:
    defaults = {
        "n_list": None, "beta": None, "u": 1.0, "replicates": 2000, "seed": None,
        "oversample": 4.0, "q_max": 2, "workers": 1, "out": None, "band_rounding": "ceil",
    }
    r = _resolve(args, defaults)
    if r["n_list"] is None or r["beta"] is None:
        raise UsageError("scaling requires --n and --beta")
    config = _experiment_config(r, tuple(r["n_list"]), "field_full")
    _check_sweep_fits(config, config.q_max)
    result = ex.run_variance_sweep(config)
    flags = {"all_rows_ok": all(row.error is None for row in result.rows)}
    # the slope is judged against the exponent of the exact integer D(n) over
    # the fitted n; -(2 - beta) is only its large-n limit
    target_finite_n = None
    if result.fitted_exponent is not None:
        fitted_ns = [row.n for row in result.rows if row.var_s_hat is not None and row.var_s_hat > 0]
        target_finite_n = ex.dof_scaling_exponent(fitted_ns, r["beta"], r["band_rounding"])
        flags["slope_within_band"] = abs(result.fitted_exponent - target_finite_n) <= SLOPE_TOLERANCE
    else:
        flags["slope_within_band"] = False
    payload = _report_payload(dict(r, n_list=list(r["n_list"])), result, flags)
    payload["slope_target"] = -(2.0 - r["beta"])
    payload["slope_target_finite_n"] = target_finite_n
    payload["slope_tolerance"] = SLOPE_TOLERANCE
    _emit_json(payload, r["out"])
    return 0 if all(flags.values()) else 1


def cmd_clt(args) -> int:
    defaults = {
        "n": None, "beta": None, "u": 1.0, "replicates": 2000, "seed": None,
        "oversample": 4.0, "mode": "field_full", "q_max": 2, "workers": 1,
        "out": None, "band_rounding": "ceil",
    }
    r = _resolve(args, defaults)
    if r["n"] is None or r["beta"] is None:
        raise UsageError("clt requires --n and --beta")
    if r["replicates"] < 500:
        raise UsageError("clt requires at least 500 replicates")
    mode = _MODE_ALIASES.get(r["mode"], r["mode"])
    r["mode"] = mode
    config = _experiment_config(r, (r["n"],), mode)
    _check_sweep_fits(config, config.q_max)
    result = ex.run_variance_sweep(config)
    row = result.rows[0]
    if row.error is not None:
        sys.stderr.write(f"clt failed: {row.error}\n")
        return 1
    flags = {"clt_pass": bool(row.clt_pass)}
    payload = _report_payload(r, result, flags)
    payload["ks_critical"] = ex.ks_critical_one_sample(r["replicates"])
    _emit_json(payload, r["out"])
    return 0 if all(flags.values()) else 1


def cmd_chaos(args) -> int:
    defaults = {
        "n_list": None, "beta": None, "u": 1.0, "replicates": 2000, "seed": None,
        "oversample": 4.0, "q_max": 4, "workers": 1, "out": None, "band_rounding": "ceil",
    }
    r = _resolve(args, defaults)
    if r["n_list"] is None or r["beta"] is None:
        raise UsageError("chaos requires --n and --beta")
    config = _experiment_config(r, tuple(r["n_list"]), "field_full")
    _check_sweep_fits(config, max(config.q_max, 4))  # the report runs at q_max >= 4
    try:
        report = ex.chaos_dominance_report(config)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {
        "config": {**{k: (list(v) if isinstance(v, tuple) else v) for k, v in _echo_config(r).items()},
                   "master_seed": r["seed"]},
        "rows": [ex.row_to_dict(row) for row in report.rows],
        "h2_normalized": {str(k): v for k, v in sorted(report.h2_normalized.items())},
        "q3_scaled": {str(k): v for k, v in sorted(report.q3_scaled.items())},
        "q4_scaled": {str(k): v for k, v in sorted(report.q4_scaled.items())},
        "h3_h2_ratio": {str(k): v for k, v in sorted(report.h3_h2_ratio.items())},
        "flags": report.flags,
        "pass": all(report.flags.values()),
    }
    _emit_json(payload, r["out"])
    return 0 if all(report.flags.values()) else 1


# --- parser -------------------------------------------------------------------

def _add_common(p, *, n_as_list: bool):
    p.add_argument("--config", help="flat key = value config file; flags override it")
    if n_as_list:
        p.add_argument("--n", dest="n_list", type=_int_list,
                       help="comma-separated top frequencies, e.g. 64,128,256")
    else:
        p.add_argument("--n", type=int, help="top frequency of the band")
    p.add_argument("--beta", type=float, help="bandwidth exponent in (0, 1)")
    p.add_argument("--seed", type=int,
                   help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--band-rounding", dest="band_rounding", choices=("ceil", "floor"),
                   help="rounding of the band edge alpha*n (default: ceil)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandsphere",
        description="Band-limited Gaussian spherical fields: covariance tables, "
        "simulation, and excursion-area Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("covariance", help="emit the covariance profile CSV")
    _add_common(p, n_as_list=False)
    p.add_argument("--points", type=int, help="number of psi grid points (default: 500)")
    p.add_argument("--psi-min", dest="psi_min", type=float, help="lower psi (default: 0)")
    p.add_argument("--psi-max", dest="psi_max", type=float,
                   help="upper psi (default: alpha*n*(pi - epsilon))")
    p.add_argument("--epsilon", type=float, help="polar-cap exclusion (default: 0.1)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("simulate", help="synthesize one realization and dump it as CSV")
    _add_common(p, n_as_list=False)
    p.add_argument("--oversample", type=float, help="grid degree / n (default: 4)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("excursion", help="excursion-area and h2 Monte Carlo at one n")
    _add_common(p, n_as_list=False)
    p.add_argument("--u", type=float, help="threshold (default: 1.0)")
    p.add_argument("--replicates", type=int, help="Monte Carlo replicates (default: 2000)")
    p.add_argument("--mode", choices=("field-full", "h2-direct", "field_full", "h2_direct"),
                   help="full synthesis or direct chi-square draws (default: field-full)")
    p.add_argument("--oversample", type=float, help="grid degree / n (default: 4)")
    p.add_argument("--q-max", dest="q_max", type=int, help="highest chaos order (default: 4)")
    p.add_argument("--workers", type=int, help="parallel workers; output-invariant (default: 1)")
    p.add_argument("--format", choices=("json", "csv"), help="report or replicate CSV (default: json)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_excursion)

    p = sub.add_parser("scaling", help="variance scaling sweep and log-log exponent fit")
    _add_common(p, n_as_list=True)
    p.add_argument("--u", type=float, help="threshold (default: 1.0)")
    p.add_argument("--replicates", type=int, help="replicates per n (default: 2000)")
    p.add_argument("--oversample", type=float, help="grid degree / n (default: 4)")
    p.add_argument("--q-max", dest="q_max", type=int, help="highest chaos order (default: 2)")
    p.add_argument("--workers", type=int, help="parallel workers (default: 1)")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("clt", help="KS normality test of the standardized excursion area")
    _add_common(p, n_as_list=False)
    p.add_argument("--u", type=float, help="threshold (default: 1.0)")
    p.add_argument("--replicates", type=int, help="replicates, >= 500 (default: 2000)")
    p.add_argument("--mode", choices=("field-full", "h2-direct", "field_full", "h2_direct"),
                   help="sample source (default: field-full)")
    p.add_argument("--oversample", type=float, help="grid degree / n (default: 4)")
    p.add_argument("--workers", type=int, help="parallel workers (default: 1)")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("chaos", help="chaos-dominance diagnostics across n")
    _add_common(p, n_as_list=True)
    p.add_argument("--u", type=float, help="threshold (default: 1.0)")
    p.add_argument("--replicates", type=int, help="replicates per n (default: 2000)")
    p.add_argument("--oversample", type=float, help="grid degree / n (default: 4)")
    p.add_argument("--q-max", dest="q_max", type=int, help="highest chaos order (default: 4)")
    p.add_argument("--workers", type=int, help="parallel workers (default: 1)")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_chaos)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
