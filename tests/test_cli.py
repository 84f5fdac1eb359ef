import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import adhocnet
from adhocnet.cli import _build_parser, _given, main
from adhocnet.experiments import ExperimentConfig
from adhocnet.netmodel import Scenario, save_scenario

FEASIBLE = Scenario(n_nodes=10, spreading_gain=64, master_seed=6,
                    area_side=150.0)
README = Path(__file__).resolve().parents[1] / "README.md"


def write_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(FEASIBLE, path)
    return str(path)


def test_gain_subcommand(capsys):
    assert main(["gain", "30", "32", "55", "128"]) == 0
    assert capsys.readouterr().out.strip() == "2.181818"


def test_run_subcommand(tmp_path, capsys):
    code = main(["run", "--config", write_scenario(tmp_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert (tmp_path / "out" / "trace.csv").exists()


def test_run_with_phase_budget(tmp_path):
    code = main(["run", "--config", write_scenario(tmp_path),
                 "--out", str(tmp_path / "out"), "--phase-budget", "5"])
    assert code == 0
    lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
    assert len(lines) == 6


def test_flag_overrides_reach_the_manifest(tmp_path):
    code = main(["run", "--config", write_scenario(tmp_path),
                 "--out", str(tmp_path / "out"), "--seed", "123",
                 "--nodes", "8"])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["scenario"]["master_seed"] == 123
    assert manifest["config"]["scenario"]["n_nodes"] == 8


def test_every_experiment_flag_is_named_after_a_config_field():
    fields = {f.name for cls in (Scenario, ExperimentConfig)
              for f in dataclasses.fields(cls)}
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command in ("run", "multistart", "fairness", "capacity"):
        dests = {action.dest
                 for action in subparsers.choices[command]._actions}
        assert dests - {"help", "config"} <= fields, command


@pytest.mark.parametrize("command",
                         ["run", "multistart", "fairness", "capacity"])
def test_experiment_defaults_come_from_the_config(command):
    # flags left out give no value, so ExperimentConfig's defaults apply
    args = _build_parser().parse_args([command])
    assert _given(args, ExperimentConfig) == {"out_dir": "out"}


@pytest.mark.parametrize("command, flags, expected", [
    ("fairness", ["--trials", "2", "--threshold", "0.2"],
     {"trials": 2, "fairness_threshold": 0.2}),
    ("capacity", ["--trials", "2", "--target", "0.4", "--n-min", "6",
                  "--n-max", "10", "--n-step", "4"],
     {"trials": 2, "feasibility_target": 0.4, "n_min": 6, "n_max": 10,
      "n_step": 4}),
])
def test_experiment_flags_reach_the_manifest(tmp_path, command, flags,
                                             expected):
    out = tmp_path / "out"
    code = main([command, "--config", write_scenario(tmp_path),
                 "--out", str(out), "--spreading-gain", "32",
                 "--receiver", "lmmse"] + flags)
    assert code in (0, 3)
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert {key: config[key] for key in expected} == expected
    assert (config["kind"], config["out_dir"]) == (command, str(out))
    assert config["scenario"]["spreading_gain"] == 32
    assert config["scenario"]["receiver"] == "lmmse"


def test_multistart_subcommand(tmp_path):
    code = main(["multistart", "--config", write_scenario(tmp_path),
                 "--out", str(tmp_path / "out"), "--trials", "3"])
    assert code == 0
    lines = (tmp_path / "out" / "trials.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_fairness_subcommand(tmp_path):
    code = main(["fairness", "--config", write_scenario(tmp_path),
                 "--out", str(tmp_path / "out"), "--trials", "4"])
    assert code == 0
    assert (tmp_path / "out" / "weights.csv").exists()


def test_capacity_subcommand(tmp_path):
    code = main(["capacity", "--config", write_scenario(tmp_path),
                 "--out", str(tmp_path / "out"), "--trials", "5",
                 "--target", "0.4", "--n-min", "6", "--n-max", "10",
                 "--n-step", "4"])
    assert code in (0, 3)
    assert (tmp_path / "out" / "capacity.csv").exists()


def test_emit_plots_subcommand(tmp_path, capsys):
    main(["run", "--config", write_scenario(tmp_path),
          "--out", str(tmp_path / "out")])
    capsys.readouterr()
    code = main(["emit-plots", "--out", str(tmp_path / "out")])
    assert code == 0
    assert "plot_total_power_vs_phase.csv" in capsys.readouterr().out


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unreadable_config_exits_2_without_traceback(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "scenario file" in err
    assert "Traceback" not in err


def test_invalid_scenario_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_nodes": 10, "mystery": 5}')
    assert main(["run", "--config", str(path)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_infeasible_scenario_exits_3(tmp_path):
    hard = Scenario(n_nodes=12, spreading_gain=1, master_seed=2,
                    pc_max_iter=1500)
    path = tmp_path / "hard.json"
    save_scenario(hard, path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3


@pytest.mark.parametrize("body, field", [
    ('{"n_nodes": "5"}', "n_nodes"),
    ('{"pc_tol": -1}', "pc_tol"),
    ('{"n_nodes": 8, "noise_power": Infinity}', "noise_power"),
    ('{"n_nodes": 8, "initial_power_range": 5}', "initial_power_range"),
])
def test_bad_scenario_value_exits_2_without_traceback(tmp_path, capsys, body,
                                                      field):
    path = tmp_path / "bad.json"
    path.write_text(body)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, field", [
    (["--n-min", "10", "--n-max", "6"], "n_max"),
    (["--n-step", "0"], "n_step"),
])
def test_bad_capacity_scan_exits_2_without_traceback(tmp_path, capsys, flags,
                                                     field):
    code = main(["capacity", "--config", write_scenario(tmp_path),
                 "--out", str(tmp_path / "out"), "--trials", "2"] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "capacity.csv").exists()


def test_bad_fairness_threshold_exits_2_before_any_trial(tmp_path, capsys):
    code = main(["fairness", "--nodes", "8", "--trials", "3",
                 "--threshold", "-1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "fairness_threshold" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_out_of_range_seed_exits_2_without_traceback(tmp_path, capsys, seed):
    # derive_seed folds seeds mod 2^64, so these would alias 2^64 - 1 and 0
    code = main(["run", "--nodes", "6", "--seed", seed,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "master_seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body", ["[]", '{"artifacts": 5}'])
def test_malformed_manifest_exits_2_without_traceback(tmp_path, capsys, body):
    (tmp_path / "manifest.json").write_text(body)
    assert main(["emit-plots", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "manifest" in err
    assert "Traceback" not in err


def test_readme_command_line_matches_parser():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    common = text.split("Common flags:", 1)[1].split("Exit codes", 1)[0]
    documented = {}
    for line in block.strip().splitlines():
        words = line.split()
        if words[0] == "adhocnet":
            command = words[1]
            documented[command] = set()
        documented[command] |= set(re.findall(r"--[a-z-]+", line))
    for flags in documented.values():
        if "--config" in flags:
            flags |= set(re.findall(r"`(--[a-z-]+)", common))

    parser = _build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    actual = {
        command: {option for action in sub._actions
                  for option in action.option_strings
                  if option not in ("-h", "--help")}
        for command, sub in subparsers.choices.items()
    }
    assert documented == actual


def test_import_does_not_load_scipy_optimize():
    # importing scipy.optimize would add about 0.25 s to every process's
    # start-up and 16 MiB to its peak RSS, and the library does not need it
    src = str(Path(adhocnet.__file__).resolve().parents[1])
    code = ("import sys, adhocnet; "
            "print([m for m in sys.modules if m.startswith('scipy.optimize')])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
