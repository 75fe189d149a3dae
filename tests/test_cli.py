"""CLI surface: subcommands, config precedence, determinism, exit codes."""

import json
import math

import pytest

from bandsphere.cli import main
from bandsphere.experiments import dof_scaling_exponent
from bandsphere.grid import build_grid


def run_cli(argv):
    return main(argv)


def test_covariance_csv_output(tmp_path):
    out = tmp_path / "prof.csv"
    rc = run_cli(["covariance", "--n", "200", "--beta", "0.5", "--points", "500", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header_comments = [l for l in lines if l.startswith("#")]
    assert any("seed = " in l for l in header_comments)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "psi,theta,exact,cd,hilb,lemma1_r1,lemma1_r2"
    rows = body[1:]
    assert len(rows) == 500
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)  # exact column starts at 1
    # exact and cd columns identical after rounding at 1e-10
    for row in rows[:: 50]:
        cols = row.split(",")
        assert round(float(cols[2]), 10) == round(float(cols[3]), 10)


def test_covariance_epsilon_validation():
    assert run_cli(["covariance", "--n", "50", "--beta", "0.5", "--epsilon", str(math.pi)]) == 2
    assert run_cli(["covariance", "--beta", "0.5"]) == 2


def test_covariance_psi_max_past_the_sphere_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    assert run_cli(["covariance", "--n", "64", "--beta", "0.5", "--psi-max", "1000", "--out", str(out)]) == 2
    assert "psi_max <= alpha*n*pi" in capsys.readouterr().err
    assert not out.exists()


def test_covariance_psi_max_at_the_sphere_end_is_accepted(tmp_path, capsys):
    # psi = alpha*n*pi itself: its round trip to theta rounds above pi at n = 1600
    out = tmp_path / "prof.csv"
    bound = 4963.318706784709
    argv = ["covariance", "--n", "1600", "--beta", "0.5", "--points", "50", "--psi-max"]
    assert run_cli(argv + [repr(bound), "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert float(last[0]) == bound and float(last[1]) == math.pi
    above = tmp_path / "above.csv"
    assert run_cli(argv + [repr(math.nextafter(bound, math.inf)), "--out", str(above)]) == 2
    assert "psi_max <= alpha*n*pi" in capsys.readouterr().err
    assert not above.exists()


def test_simulate_dump(tmp_path):
    out = tmp_path / "field.csv"
    rc = run_cli(["simulate", "--n", "12", "--beta", "0.5", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "theta_index,phi_index,value"
    i, j, v = lines[1].split(",")
    assert (i, j) == ("0", "0")
    float(v)


def test_excursion_direct_mode_flag_and_exit(tmp_path):
    out = tmp_path / "exc.json"
    rc = run_cli([
        "excursion", "--mode", "h2-direct", "--n", "100", "--beta", "0.5",
        "--replicates", "20000", "--seed", "42", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["flags"]["var_h2_ok"] is True
    assert payload["pass"] is True
    assert payload["config"]["master_seed"] == 42
    assert payload["config"]["mode"] == "h2_direct"
    row = payload["rows"][0]
    assert row["dof"] == 1176
    assert abs(row["var_h2_hat"] - row["var_h2_exact_formula"]) <= 3 * row["var_h2_se"]
    # either spelling, from a flag or a config file, runs the same mode
    again = tmp_path / "again.json"
    argv = ["excursion", "--n", "100", "--beta", "0.5", "--replicates", "20000", "--seed", "42"]
    assert run_cli(argv + ["--mode", "h2_direct", "--out", str(again)]) == 0
    assert again.read_text() == out.read_text()
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("mode = field-full\n")
    field_out = tmp_path / "field.json"
    argv = ["excursion", "--config", str(cfg), "--n", "16", "--beta", "0.5", "--replicates", "100"]
    assert run_cli(argv + ["--out", str(field_out)]) == 0
    payload = json.loads(field_out.read_text())
    assert payload["config"]["mode"] == "field_full"
    assert payload["rows"][0]["var_s_hat"] is not None


def test_clt_byte_identical_reruns(tmp_path):
    args = [
        "clt", "--n", "24", "--beta", "0.5", "--u", "1.0",
        "--replicates", "600", "--seed", "42",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = run_cli(args + ["--out", str(out1)])
    rc2 = run_cli(args + ["--out", str(out2)])
    assert rc1 == rc2
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert "ks_critical" in payload
    assert payload["rows"][0]["clt_ks_stat"] is not None


def test_scaling_report_structure(tmp_path):
    out = tmp_path / "scaling.json"
    rc = run_cli([
        "scaling", "--n", "16,24,32", "--beta", "0.5", "--replicates", "150",
        "--seed", "11", "--out", str(out),
    ])
    assert rc in (0, 1)  # slope band is not claimed at these tiny n
    payload = json.loads(out.read_text())
    assert payload["slope_target"] == -1.5
    assert payload["fitted_exponent"] is not None
    # the flag is judged against the exact finite-n exponent of D(n)
    finite_n = payload["slope_target_finite_n"]
    assert finite_n == dof_scaling_exponent((16, 24, 32), 0.5)
    assert payload["flags"]["slope_within_band"] == (
        abs(payload["fitted_exponent"] - finite_n) <= payload["slope_tolerance"]
    )
    assert len(payload["rows"]) == 3
    assert payload["exponent_ci"] is not None


def test_chaos_report_structure(tmp_path):
    out = tmp_path / "chaos.json"
    rc = run_cli([
        "chaos", "--n", "16,32", "--beta", "0.5", "--replicates", "300",
        "--seed", "17", "--out", str(out),
    ])
    assert rc in (0, 1)
    payload = json.loads(out.read_text())
    assert set(payload["q3_scaled"]) == {"16", "32"}
    assert set(payload["flags"]) == {"h2_identity_ok", "q3_band_ok", "q4_band_ok", "h3_h2_decay_ok"}


def test_chaos_echoes_the_q_max_it_runs(tmp_path):
    # the report tables Var(h3) and Var(h4), so it runs at q_max 4 and says so
    out = tmp_path / "chaos.json"
    run_cli(["chaos", "--n", "16,24,32", "--beta", "0.5", "--replicates", "100", "--q-max", "2",
             "--seed", "1", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["config"]["q_max"] == 4
    for row in payload["rows"]:
        assert sorted(map(int, row["var_hq"])) == [3, 4]


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 100\nbeta = 0.5\nreplicates = 20000\nmode = h2_direct\nseed = 7\n")
    out1 = tmp_path / "one.json"
    rc = run_cli(["excursion", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    payload = json.loads(out1.read_text())
    assert payload["config"]["replicates"] == 20000
    assert payload["config"]["master_seed"] == 7
    # a flag overrides the file value
    out2 = tmp_path / "two.json"
    rc = run_cli(["excursion", "--config", str(cfg), "--seed", "8", "--out", str(out2)])
    assert rc == 0
    assert json.loads(out2.read_text())["config"]["master_seed"] == 8


def test_seed_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("BANDSPHERE_SEED", "31415")
    out = tmp_path / "env.json"
    rc = run_cli([
        "excursion", "--mode", "h2-direct", "--n", "50", "--beta", "0.5",
        "--replicates", "5000", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["master_seed"] == 31415


def test_bad_seed_env_var_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BANDSPHERE_SEED", "abc")
    out = tmp_path / "env.json"
    argv = ["excursion", "--mode", "h2-direct", "--n", "16", "--beta", "0.5", "--replicates", "100"]
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert "error: BANDSPHERE_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()
    # a --seed flag is used without reading the variable
    assert run_cli(argv + ["--seed", "7", "--out", str(out)]) == 0


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 3\n")
    assert run_cli(["excursion", "--config", str(cfg)]) == 2


def test_bad_integer_list_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--n", "a,b", "--beta", "0.5"])
    assert exc.value.code == 2
    assert "expected comma-separated integers, got 'a,b'" in capsys.readouterr().err
    cfg = tmp_path / "list.cfg"
    cfg.write_text("beta = 0.5\nn_list = a,b\n")
    assert run_cli(["scaling", "--config", str(cfg)]) == 2
    assert f"{cfg}:2: bad value for n_list: expected comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["band_rounding = up", "format = xml"])
def test_config_file_values_obey_flag_choices(tmp_path, capsys, line):
    cfg = tmp_path / "choice.cfg"
    cfg.write_text(f"mode = h2-direct\n{line}\n")
    out = tmp_path / "out"
    argv = ["excursion", "--config", str(cfg), "--n", "100", "--beta", "0.5", "--replicates", "2000"]
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert f"{cfg}:2: bad value for {line.split()[0]}: invalid choice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("band", [["--n", "1", "--beta", "0.5"], ["--n", "64", "--beta", "1.5"]])
@pytest.mark.parametrize("command", ["excursion", "clt", "scaling", "chaos"])
def test_bad_band_is_a_usage_error(tmp_path, capsys, command, band):
    if command in ("scaling", "chaos"):
        band = ["--n", f"{band[1]},128,256", *band[2:]]
    out = tmp_path / "out"
    argv = [command, *band, "--replicates", "500", "--out", str(out)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


def test_excursion_replicate_csv_format(tmp_path):
    out = tmp_path / "reps.csv"
    rc = run_cli([
        "excursion", "--n", "16", "--beta", "0.5", "--replicates", "120",
        "--seed", "5", "--format", "csv", "--out", str(out),
    ])
    assert rc in (0, 1)
    lines = out.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "replicate,seed,u,area,h1,h2_quad,h2_exact,h3,h4"
    assert len(body) == 1 + 120


def test_worker_flag_does_not_change_output(tmp_path):
    base = ["excursion", "--n", "16", "--beta", "0.5", "--replicates", "150", "--seed", "5"]
    out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
    run_cli(base + ["--workers", "1", "--out", str(out1)])
    run_cli(base + ["--workers", "2", "--out", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["rows"] == b["rows"]


def test_parser_reused_across_calls_gives_identical_files(tmp_path):
    from bandsphere import cli

    calls = [
        ["excursion", "--mode", "h2-direct", "--n", "100", "--beta", "0.5", "--replicates", "2000",
         "--seed", "11", "--u", "0.5"],
        ["covariance", "--n", "64", "--beta", "0.4", "--points", "50"],
        ["excursion", "--mode", "h2-direct", "--n", "100", "--beta", "0.5", "--replicates", "2000"],
    ]
    files = {}
    for label in ("fresh", "reused"):
        for k, argv in enumerate(calls):
            if label == "fresh":
                cli.build_parser.cache_clear()
            out = tmp_path / f"{label}{k}"
            assert run_cli(argv + ["--out", str(out)]) in (0, 1)
            files[label, k] = out.read_bytes()
    assert cli.build_parser() is cli.build_parser()
    for k in range(len(calls)):
        assert files["reused", k] == files["fresh", k]


def test_help_lists_defaults(capsys):
    from bandsphere import cli

    for cmd in ("covariance", "simulate", "excursion", "scaling", "clt", "chaos"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default" in text
        # each default of the subcommand table shows in its flag's help
        flat = " ".join(text.split())
        for key, default in cli._SUBCOMMANDS[cmd][2].items():
            if default is not None and (cmd, key) not in cli._NO_FLAG:
                assert f"(default: {default})" in flat, (cmd, key)


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "64", "--beta", "0.5"],
    ["excursion", "--n", "64", "--beta", "0.5", "--replicates", "100"],
    ["clt", "--n", "64", "--beta", "0.5", "--replicates", "500"],
    ["scaling", "--n", "16,32,64", "--beta", "0.5", "--replicates", "100"],
    ["chaos", "--n", "16,32,64", "--beta", "0.5", "--replicates", "100", "--q-max", "2"],
])
def test_memory_preflight_refuses_table_larger_than_memory(tmp_path, monkeypatch, capsys, argv):
    from bandsphere import cli, experiments, field

    def no_sweep(*args, **kwargs):
        raise AssertionError("the pre-flight must stop the run before it starts")

    monkeypatch.setattr(experiments, "run_variance_sweep", no_sweep)
    monkeypatch.setattr(cli, "synthesize", no_sweep)
    # n = 64 at beta 0.5, oversample 4: 8 * 5 * 65 * 65 = 169000 bytes
    need = field.band_table_bytes(field.make_spec(64, 0.5), 129)
    assert need == 169_000
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: need - 1)
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, extra", [
    (["simulate", "--n", "64", "--beta", "0.5"], "field"),
    (["scaling", "--n", "16,32,64", "--beta", "0.5", "--replicates", "100", "--workers", "1"], "rows"),
], ids=["simulate", "scaling"])
def test_memory_preflight_counts_the_field_buffers(tmp_path, monkeypatch, capsys, argv, extra):
    # memory for the band table alone is not enough: the half-spectra of
    # field_blocks, and for simulate the whole field, are counted too
    from bandsphere import cli, field

    spec, grid = field.make_spec(64, 0.5), build_grid(256)  # oversample 4
    table = field.band_table_bytes(spec, grid.n_theta)
    rows = field.parity_rows_bytes(spec, grid.n_theta)
    assert rows == 32 * 65 * 65
    need = table + rows + (8 * grid.n_theta * grid.n_phi if extra == "field" else 0)
    out = tmp_path / "out"
    for limit in (table, need - 1):  # enough by the old count, short by the new
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: limit)
        assert run_cli(argv + ["--out", str(out)]) == 2, limit
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()


def test_memory_preflight_counts_every_table_of_a_sweep(tmp_path, monkeypatch, capsys):
    # the table cache keeps the band table of every n of a sweep until the
    # process exits, so the tables of the smaller n count as well
    from bandsphere import cli, field

    spec, grid = field.make_spec(64, 0.5), build_grid(256)  # oversample 4
    limit = field.band_table_bytes(spec, grid.n_theta) + field.parity_rows_bytes(spec, grid.n_theta)
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: limit)
    out = tmp_path / "out"
    argv = ["scaling", "--n", "16,32,64", "--beta", "0.5", "--replicates", "100", "--workers", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


def test_memory_preflight_counts_the_tables_of_spawned_workers(tmp_path, monkeypatch, capsys):
    # forked workers share the parent's tables; each spawned worker builds
    # its own copy of every table of the sweep
    import multiprocessing

    from bandsphere import cli, experiments, field

    started = []

    def no_sweep(config):
        started.append(config)
        raise RuntimeError("stop after the pre-flight")

    monkeypatch.setattr(experiments, "run_variance_sweep", no_sweep)
    ns, workers = (16, 32, 64), experiments.pool_size(2)
    tables = sum(field.band_table_bytes(field.make_spec(n, 0.5), build_grid(4 * n).n_theta) for n in ns)
    rows = field.parity_rows_bytes(field.make_spec(64, 0.5), build_grid(256).n_theta)
    forked = tables + workers * rows
    argv = ["scaling", "--n", "16,32,64", "--beta", "0.5", "--replicates", "100", "--workers", "2"]
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: forked)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    assert run_cli(argv + ["--out", str(out)]) == 1 and len(started) == 1  # fits when workers fork
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    for limit in (forked, forked + workers * tables - 1):
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: limit)
        assert run_cli(argv + ["--out", str(out)]) == 2, limit
        assert "physical memory" in capsys.readouterr().err
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: forked + workers * tables)
    assert run_cli(argv + ["--out", str(out)]) == 1 and len(started) == 2
    assert not out.exists()


def test_memory_preflight_passes_fitting_and_direct_runs(tmp_path, monkeypatch):
    from bandsphere import cli, field

    spec = field.make_spec(12, 0.5)  # oversample 4: 25 x 50 grid
    need = field.band_table_bytes(spec, 25) + field.parity_rows_bytes(spec, 25) + 8 * 25 * 50
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: need)
    assert run_cli(["simulate", "--n", "12", "--beta", "0.5", "--out", str(tmp_path / "f.csv")]) == 0
    # h2-direct synthesizes no field, so no table limits it
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 0)
    rc = run_cli(["excursion", "--mode", "h2-direct", "--n", "100", "--beta", "0.5",
                  "--replicates", "20000", "--seed", "42", "--out", str(tmp_path / "e.json")])
    assert rc == 0


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("argv", [
    ["covariance", "--n", "64", "--beta", "0.5", "--points", "20"],
    ["simulate", "--n", "12", "--beta", "0.5"],
    ["excursion", "--n", "16", "--beta", "0.5", "--replicates", "100"],
    ["clt", "--n", "16", "--beta", "0.5", "--replicates", "500"],
    ["scaling", "--n", "16,24,32", "--beta", "0.5", "--replicates", "100"],
    ["chaos", "--n", "16,24", "--beta", "0.5", "--replicates", "100"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, source):
    # SeedSequence takes non-negative integers only; a negative seed fails
    # before anything runs, from wherever it comes
    monkeypatch.delenv("BANDSPHERE_SEED", raising=False)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n")
    if source == "flag":
        argv = argv + ["--seed", "-1"]
    elif source == "config":
        argv = argv + ["--config", str(cfg)]
    else:
        monkeypatch.setenv("BANDSPHERE_SEED", "-1")
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["scaling", "chaos"])
def test_config_file_n_on_a_sweep_is_its_n_list(tmp_path, command):
    # in a config file, n means what --n means for the subcommand; n_list still works
    argv = [command, "--beta", "0.5", "--replicates", "100", "--seed", "4"]
    flag = tmp_path / "flag.json"
    assert run_cli(argv + ["--n", "16,24,32", "--out", str(flag)]) in (0, 1)
    for key in ("n", "n_list"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = 16,24,32\n")
        out = tmp_path / f"{key}.json"
        assert run_cli(argv + ["--config", str(cfg), "--out", str(out)]) in (0, 1)
        assert out.read_bytes() == flag.read_bytes(), key


def test_excursion_flags_are_the_3se_rule_over_the_row_targets(tmp_path):
    from bandsphere import experiments as ex

    argv = ["excursion", "--n", "16", "--beta", "0.5", "--replicates", "120", "--seed", "5"]
    out, csv = tmp_path / "exc.json", tmp_path / "exc.csv"
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert run_cli(argv + ["--format", "csv", "--out", str(csv)]) == 1
    payload = json.loads(out.read_text())
    targets = payload["rows"][0]["targets"]
    assert list(targets) == ["var_h2", "mean_area"]
    assert targets["var_h2"]["z"] == 3.756815919124871  # Var(h2) sits 3.76 SE above 2 (4 pi)^2 / D
    assert payload["flags"] == {f"{name}_ok": ex.within_3se(entry) for name, entry in targets.items()}
    assert payload["flags"] == {"var_h2_ok": False, "mean_area_ok": True}
    header = [line for line in csv.read_text().splitlines() if line.startswith("# flag ")]
    assert header == [f"# flag {k} = {v}" for k, v in sorted(payload["flags"].items())]


def test_excursion_computes_no_target_in_the_cli(tmp_path, monkeypatch):
    from bandsphere import cli

    argv = ["excursion", "--n", "16", "--beta", "0.5", "--replicates", "120", "--seed", "5"]
    before = tmp_path / "before.json"
    run_cli(argv + ["--out", str(before)])

    def no_target(u):
        raise AssertionError("the CLI must not compute a target")

    monkeypatch.setattr(cli, "gaussian_cdf", no_target)
    after = tmp_path / "after.json"
    assert run_cli(argv + ["--out", str(after)]) == 1
    assert after.read_bytes() == before.read_bytes()


@pytest.mark.parametrize("u, z, rc", [("40", "NaN", 0), ("-40", "-Infinity", 1)])
def test_excursion_zero_se_targets(tmp_path, u, z, rc):
    # at |u| = 40 every replicate's area is 0 or 4 pi, so the mean area's SE is
    # 0: z is NaN for 0/0 and -inf for the 3-ulp quadrature shortfall at u = -40
    out = tmp_path / "exc.json"
    argv = ["excursion", "--n", "16", "--beta", "0.5", "--u", u, "--replicates", "100", "--seed", "3"]
    assert run_cli(argv + ["--out", str(out)]) == rc
    text = out.read_text()
    assert f'"z": {z}' in text
    payload = json.loads(text)
    entry = payload["rows"][0]["targets"]["mean_area"]
    assert entry["se"] == 0.0
    assert payload["flags"] == {"var_h2_ok": True, "mean_area_ok": rc == 0}
    if u == "-40":
        assert (entry["estimate"], entry["target"]) == (12.566370614359169, 4.0 * math.pi)
