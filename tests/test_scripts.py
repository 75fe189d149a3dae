"""Smoke test of the experiment driver in scripts/."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_band_mode_table(capsys):
    from bandsphere.chaos import h2_variance_formula
    from bandsphere.field import full_band_spec

    script = _load("full_band_mode")
    script.main(["--n", "16,64"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "D", "Var(h2)*n^2", "Var(h3)*n^2", "Var(h4)*n^2"]
    assert len(lines) == 3
    for line, n, exact in zip(lines[1:], (16, 64), (["492.9465", "1546.1891"], ["538.7849", "1688.9777"])):
        cols = line.split()
        assert int(cols[0]) == n and int(cols[1]) == (n + 1) ** 2
        # the q = 2 column is the exact 2 (4 pi)^2 / D, the others the exact q! 8 pi^2 int Gamma^q
        assert cols[2] == f"{h2_variance_formula(full_band_spec(n)) * n**2:.4f}"
        assert cols[3:] == exact
    # deterministic: a rerun prints the same table
    script.main(["--n", "16,64"])
    assert capsys.readouterr().out.splitlines() == lines
