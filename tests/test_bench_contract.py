"""What the benchmark in ``benchmark/`` relies on in the package.

The benchmark traces layers by wrapping module attributes (``tracer.TARGETS``)
and builds the band tables in its untimed set-up, expecting the sweeps to
find them in the cache.  A refactor under ``src/`` that renames an attribute
or changes the grid or cache rule would silently break ``--trace 1`` or move
table builds into the timed rounds; these tests catch that.
"""

import importlib.util
import os

import pytest

import bandsphere
import bandsphere.cli  # noqa: F401  (the package does not import its CLI module)
from bandsphere import experiments, field, grid

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_bench_module("tracer")
    for module_name, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(getattr(bandsphere, module_name), attr)), (module_name, attr)


@pytest.mark.parametrize("workload_name", ["scaling-sweep", "chaos-q4"])
def test_setup_tables_are_the_ones_the_sweep_uses(monkeypatch, workload_name):
    wl = load_bench_module("workload")
    cfg = wl.WORKLOADS[workload_name]
    ns = (16, 24, 32)  # the workload's rules at small n
    field.clear_table_cache()
    built = {n: field.band_table(field.make_spec(n, wl.BETA), grid.build_grid(wl.grid_degree(n)))
             for n in ns}

    def no_build(*args, **kwargs):
        raise AssertionError("band table built during the sweep")

    used = {}
    original = experiments.band_table

    def spy(spec, g):
        used[spec.n] = original(spec, g)
        return used[spec.n]

    monkeypatch.setattr(field, "assoc_legendre_band", no_build)
    monkeypatch.setattr(experiments, "band_table", spy)
    config = experiments.ExperimentConfig(
        n_list=ns, beta=wl.BETA, u=wl.U, replicates=100, master_seed=1,
        oversample=wl.OVERSAMPLE, q_max=cfg["q_max"], workers=1,
    )
    try:
        result = experiments.run_variance_sweep(config)
    finally:
        field.clear_table_cache()
    assert all(row.error is None for row in result.rows)
    assert all(used[n] is built[n] for n in ns)
