import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adsbqp
from adsbqp import bqp, cli
from adsbqp.channel import ScenarioConfig
from adsbqp.cli import (
    RunManifest,
    ScenarioParseError,
    load_scenario,
    main,
    run_compare,
    scenario_hash,
)
from adsbqp.driver import AdConfig, solve
from adsbqp.rate import build_esr_problem

SCENARIO = """\
# desk-scale selection scenario
n_tx = 8
n_users = 8
seed = 1
r_th_mode = fraction
r_th_value = 0.5
noise_n0b = 3e-14
"""


def write_scenario(tmp_path, text=SCENARIO, name="scen.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_scenario_parses_keys_and_defaults(tmp_path):
    cfg = load_scenario(write_scenario(tmp_path))
    assert cfg.n_tx == 8 and cfg.n_users == 8 and cfg.seed == 1
    assert cfg.r_th_mode == "fraction" and cfg.r_th_value == 0.5
    assert cfg.noise_n0b == 3e-14
    assert cfg.pathloss_exponent_eta == 3.67  # untouched default


def test_load_scenario_parses_tuple_keys(tmp_path):
    path = write_scenario(
        tmp_path, "n_tx = 4\nn_users = 3\ncell_center = (50, 10)\nbs_position = 0, 0\n"
    )
    cfg = load_scenario(path)
    assert cfg.cell_center == (50.0, 10.0)
    assert cfg.bs_position == (0.0, 0.0)


def test_load_scenario_reports_the_offending_line(tmp_path):
    path = write_scenario(tmp_path, "n_tx = 4\nnot a pair\n")
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(path)
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


def test_load_scenario_rejects_duplicate_keys(tmp_path):
    path = write_scenario(tmp_path, "n_tx = 4\nseed = 1\nn_tx = 6\n")
    with pytest.raises(ScenarioParseError, match="duplicate key 'n_tx', first set on line 1") as err:
        load_scenario(path)
    assert err.value.line_no == 3


def test_duplicate_scenario_keys_exit_with_usage_error(tmp_path, capsys):
    scen = write_scenario(tmp_path, SCENARIO + "n_tx = 6\n")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: line 8: duplicate key 'n_tx', first set on line 2\n"


def test_load_scenario_rejects_unknown_keys_and_bad_values(tmp_path):
    with pytest.raises(ScenarioParseError, match="unknown key"):
        load_scenario(write_scenario(tmp_path, "voltage = 3\n"))
    with pytest.raises(ScenarioParseError, match="bad value"):
        load_scenario(write_scenario(tmp_path, "n_tx = eight\n"))
    with pytest.raises(ScenarioParseError, match="two coordinates"):
        load_scenario(write_scenario(tmp_path, "cell_center = 1, 2, 3\n"))


def finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def scenario_configs(draw):
    """Valid ScenarioConfigs; a None draw leaves the field to its default."""
    mode = draw(st.sampled_from([None, "absolute", "fraction"]))
    positive = finite(0.0, 1e12, exclude_min=True)
    point = st.tuples(finite(-1e6, 1e6), finite(-1e6, 1e6))
    value = {None: st.none(), "absolute": positive,
             "fraction": finite(0.0, 1.0, exclude_min=True, exclude_max=True)}[mode]
    return ScenarioConfig(
        n_tx=draw(st.integers(1, 128)), n_users=draw(st.integers(1, 128)),
        bandwidth_b=draw(positive), noise_n0b=draw(positive),
        pathloss_t0_db=draw(finite(-200.0, 200.0)), pathloss_exponent_eta=draw(finite(0.0, 10.0)),
        cell_center=draw(point), cell_radius=draw(finite(0.0, 1e6)), bs_position=draw(point),
        seed=draw(st.integers(0, 2 ** 32 - 1)), p_rf=draw(finite(0.0, 1e3)),
        p_th=draw(st.none() | positive), r_th_mode=mode, r_th_value=draw(value))


def scenario_text(cfg):
    """cfg as a key = value file, one line per field, tuples as (x, y)."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        text = f"({value[0]!r}, {value[1]!r})" if isinstance(value, tuple) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def test_scenario_files_round_trip(tmp_path):
    # Every valid config written as a scenario file loads back equal, each
    # float exactly (repr round-trips).
    path = tmp_path / "scen.txt"

    @settings(max_examples=300, deadline=None, database=None, print_blob=True)
    @given(scenario_configs())
    def check(cfg):
        path.write_text(scenario_text(cfg))
        assert load_scenario(path) == cfg

    t0 = time.perf_counter()
    check()
    assert time.perf_counter() - t0 < 10.0


def test_scenario_hash_is_stable_and_sensitive():
    a = ScenarioConfig(n_tx=8, n_users=8, seed=1)
    b = ScenarioConfig(n_tx=8, n_users=8, seed=1)
    c = ScenarioConfig(n_tx=8, n_users=8, seed=2)
    assert scenario_hash(a) == scenario_hash(b)
    assert scenario_hash(a) != scenario_hash(c)
    assert len(scenario_hash(a)) == 16


def test_run_manifest_rejects_unknown_methods(tmp_path):
    with pytest.raises(ValueError):
        RunManifest(
            scenario_path=None,
            methods=["AD-SBQP", "MAGIC"],
            seed=0,
            out_dir=tmp_path,
            config=ScenarioConfig(),
            ad_config=AdConfig(),
        )


def test_run_subcommand_writes_expected_artifacts(tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scen), "--out", str(out)])
    assert code == 0
    for name in (
        "manifest.json",
        "comparison.csv",
        "comparison.json",
        "timings.json",
        "trace_AD-SBQP.csv",
        "trace_AD-SBQP.json",
        "selection_AD-SBQP.txt",
        "selection_AD-SBQP.json",
    ):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_tx"] == 8
    assert manifest["scenario_hash"] in (out / "comparison.csv").read_text()


def test_selection_report_recomputes_consistently(tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
    payload = json.loads((out / "selection_AD-SBQP.json").read_text())
    cfg = load_scenario(scen)
    prob = build_esr_problem(cfg)
    # The per-antenna powers plus the selection reproduce the reported cost.
    row_power = np.array(payload["per_antenna_power"])
    x = np.zeros(prob.n_tx)
    x[payload["selected_antennas"]] = 1.0
    assert payload["n_selected"] == len(payload["selected_antennas"])
    assert payload["achieved_rate"] >= payload["rate_threshold"] - 1e-6
    assert payload["objective"] == pytest.approx(
        float(x @ row_power) + prob.cfg.p_rf * payload["n_selected"], rel=1e-9
    )


def test_trace_files_count_the_rounds_of_each_ad2(tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
    _, trace = solve(build_esr_problem(load_scenario(scen)))
    rounds = [len(row.ad2_trace) for row in trace.rows]
    payload = json.loads((out / "trace_AD-SBQP.json").read_text())
    assert payload["schema"] == "adsbqp-trace-v3"
    assert [row["ad2_rounds"] for row in payload["rows"]] == rounds
    assert [row["ad2_status"] for row in payload["rows"]] == [row.ad2_status for row in trace.rows]
    lines = (out / "trace_AD-SBQP.csv").read_text().splitlines()
    assert lines[1].split(",")[-2:] == ["ad2_rounds", "ad2_status"]
    assert [int(line.split(",")[-2]) for line in lines[2:]] == rounds


def test_trace_files_are_byte_identical_across_reruns(tmp_path):
    scen = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scen), "--out", str(out_a)]) == 0
    assert main(["run", "--scenario", str(scen), "--out", str(out_b)]) == 0
    for name in ("trace_AD-SBQP.csv", "trace_AD-SBQP.json", "comparison.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_seed_override_changes_the_draw(tmp_path):
    scen = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scen), "--out", str(out_a)]) == 0
    assert main(["run", "--scenario", str(scen), "--seed", "3", "--out", str(out_b)]) == 0
    m_a = json.loads((out_a / "manifest.json").read_text())
    m_b = json.loads((out_b / "manifest.json").read_text())
    assert m_a["scenario_hash"] != m_b["scenario_hash"]


def test_compare_exit_code_reflects_partial_failures(tmp_path):
    # The smooth penalty baselines stall on complementarity by design, so a
    # compare including them cannot report all-success.
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "compare",
            "--scenario",
            str(scen),
            "--out",
            str(out),
            "--methods",
            "AD-SBQP,AD-SPen",
        ]
    )
    assert code == 1
    assert (out / "trace_AD-SPen.csv").exists()
    assert not (out / "selection_AD-SPen.txt").exists()
    comparison = (out / "comparison.csv").read_text().splitlines()
    assert comparison[1].startswith("method,")
    assert len(comparison) == 4  # schema line + header + two methods


def test_compare_isolates_a_method_that_raises(tmp_path, monkeypatch, capsys):
    # A method that raises becomes an error row; the methods after it still
    # run and write their files, and the exit code is 1 without a traceback.
    def boom(prob, ad_config):
        raise RuntimeError("barrier iterate left the feasible interior")

    monkeypatch.setitem(cli._RUNNERS, "AD-SPen", boom)
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(write_scenario(tmp_path)), "--out", str(out),
                 "--methods", "AD-SPen,AD-SBQP"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "AD-SPen" in err
    rows = {r["method"]: r for r in json.loads((out / "comparison.json").read_text())["rows"]}
    assert rows["AD-SPen"]["status"] == "error" and rows["AD-SPen"]["objective"] == "nan"
    assert rows["AD-SBQP"]["status"] == "success"
    for name in ("trace_AD-SBQP.csv", "selection_AD-SBQP.json", "timings.json", "comparison.csv"):
        assert (out / name).is_file(), name
    assert not (out / "trace_AD-SPen.csv").exists()
    assert "RuntimeError: barrier iterate" in (out / "error_AD-SPen.txt").read_text()


def test_compare_writes_every_row_when_the_qp_raises(tmp_path, monkeypatch, capsys):
    # A QP solve that raises ends AD-SBQP's AD2 as "qp_failed" inside the
    # solve, so AD-SBQP still reports a solution and ENUM runs after it.
    def raising(*args, **kwargs):
        raise np.linalg.LinAlgError("the normal matrix is not positive definite")

    monkeypatch.setattr(bqp, "solve_qp", raising)
    out = tmp_path / "out"
    main(["compare", "--scenario", str(write_scenario(tmp_path)), "--out", str(out),
          "--methods", "AD-SBQP,ENUM"])
    assert "Traceback" not in capsys.readouterr().err
    rows = {r["method"]: r for r in json.loads((out / "comparison.json").read_text())["rows"]}
    assert sorted(rows) == ["AD-SBQP", "ENUM"]
    assert "error" not in (rows["AD-SBQP"]["status"], rows["ENUM"]["status"])
    assert not (out / "error_AD-SBQP.txt").exists()
    # The trace file names the failed AD2.
    lines = (out / "trace_AD-SBQP.csv").read_text().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["ad2_status", "qp_failed"]


def test_enumerate_subcommand_prints_the_optimum(tmp_path, capsys):
    scen = write_scenario(
        tmp_path,
        "n_tx = 4\nn_users = 2\nseed = 1\nr_th_mode = fraction\n"
        "r_th_value = 0.5\nnoise_n0b = 3e-14\n",
    )
    code = main(["enumerate", "--scenario", str(scen)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ENUM optimum objective" in out


def test_enumerate_subcommand_refuses_oversized_instances(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    code = main(["enumerate", "--scenario", str(scen), "--n-limit", "4"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_enum_beyond_its_limit_is_a_typed_status_in_run_and_compare(tmp_path, capsys):
    # An instance ENUM refuses for size is a "too_large" row, not an error:
    # no traceback file, one line on stderr, the other methods unaffected.
    scen = write_scenario(tmp_path, SCENARIO.replace("= 8", "= 18"))
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scen), "--out", str(out), "--methods", "AD-SBQP,ENUM"]) == 1
    assert capsys.readouterr().err == "ENUM: enumeration refused: 18 antennas exceeds the limit of 16\n"
    rows = {r["method"]: r for r in json.loads((out / "comparison.json").read_text())["rows"]}
    assert rows["ENUM"] == {"method": "ENUM", "objective": "nan", "complementarity": "nan",
                            "iterations": 0, "status": "too_large"}
    assert rows["AD-SBQP"]["status"] == "success"
    assert not list(out.glob("error_*"))
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scen), "--out", str(out), "--method", "ENUM"]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert "too_large" in (out / "comparison.csv").read_text() and not list(out.glob("error_*"))


def test_non_finite_scenario_values_exit_with_usage_error(tmp_path, capsys):
    # The message names the line of the rejected key, the 8th of the file;
    # line 7 no longer sets noise_n0b, since a key set twice is an error too.
    base = SCENARIO.replace("noise_n0b = 3e-14", "# noise_n0b is set below")
    for line in ("pathloss_exponent_eta = nan", "noise_n0b = inf", "p_rf = nan"):
        scen = write_scenario(tmp_path, base + line + "\n")
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(scen)
        assert err.value.line_no == 8
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
        key, value = line.split(" = ")
        assert capsys.readouterr().err == f"error: line 8: {key} must be finite, got {value}\n"


def test_bad_numeric_flags_exit_with_usage_error(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    out = str(tmp_path / "out")
    for argv, message in (
        (["run", "--max-ad-iter", "0"], "max_ad_iter must be >= 1"),
        (["compare", "--max-ad-iter", "0"], "max_ad_iter must be >= 1"),
    ):
        assert main(argv + ["--scenario", str(scen), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_the_complementarity_tolerance_is_not_an_option(tmp_path, capsys):
    # AD2's complementarity tolerance is the constant bqp.EPS_COMP.
    with pytest.raises(SystemExit) as exited:
        main(["run", "--scenario", str(write_scenario(tmp_path)), "--out", str(tmp_path / "out"),
              "--eps-comp", "1e-3"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --eps-comp" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_enumerate_rejects_the_ad_options(tmp_path):
    # ENUM runs no AD loop, so the AD options are usage errors there.
    scen = write_scenario(tmp_path, "n_tx = 4\nn_users = 2\nr_th_mode = fraction\n")
    env = dict(os.environ, PYTHONPATH=str(Path(adsbqp.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "adsbqp.cli", "enumerate", "--scenario", str(scen),
         "--max-ad-iter", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --max-ad-iter" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_scenario_path_exits_with_usage_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "missing.txt")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_compare_shares_one_channel_draw(tmp_path):
    cfg = ScenarioConfig(
        n_tx=8, n_users=8, seed=1, r_th_mode="fraction", r_th_value=0.5,
        noise_n0b=3e-14,
    )
    manifest = RunManifest(
        scenario_path=None,
        methods=["AD-SBQP"],
        seed=cfg.seed,
        out_dir=tmp_path / "out",
        config=cfg,
        ad_config=AdConfig(),
    )
    reports, all_success = run_compare(manifest)
    assert all_success
    assert [r.method for r in reports] == ["AD-SBQP"]
    assert reports[0].status == "success"
