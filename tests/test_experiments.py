import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from adhocnet import crosslayer, experiments, netmodel
from adhocnet.crosslayer import joint_optimize, multi_start
from adhocnet.errors import (
    CoincidentNodesError,
    ConfigError,
    MissingArtifactError,
)
from adhocnet.experiments import (
    EXPERIMENT_KINDS,
    CapacityResult,
    ExperimentConfig,
    capacity_search,
    config_from_manifest,
    emit_plot_data,
    run_experiment,
    throughput_gain,
)
from adhocnet.netmodel import (
    Scenario,
    build_network,
    compute_link_gains,
    leading_gains,
    pair_gains,
)
from helpers import capacity_search_loop

FEASIBLE = Scenario(n_nodes=10, spreading_gain=64, master_seed=6,
                    area_side=150.0)
README = Path(__file__).resolve().parents[1] / "README.md"


def read(path):
    with open(path, "rb") as f:
        return f.read()


def data_files(result):
    return [a for a in result.artifacts if a != "manifest.json"]


def test_throughput_gain_reference_value():
    assert throughput_gain(30, 32, 55, 128) == pytest.approx(2.18, abs=0.005)


def test_throughput_gain_trivial_values():
    assert throughput_gain(30, 32, 30, 32) == 1.0
    assert throughput_gain(44, 64, 22, 64) == 2.0
    with pytest.raises(ValueError):
        throughput_gain(0, 32, 55, 128)


@pytest.mark.parametrize("args, name", [
    ((True, 2, 3, 4), "n_a"),
    ((1.5, 2, 3, 4), "n_a"),
    ((1, 0, 3, 4), "spreading_a"),
    ((1, 2, 3.0, 4), "n_b"),
    ((1, 2, 3, np.int64(0)), "spreading_b"),
])
def test_throughput_gain_names_a_bad_argument(args, name):
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        throughput_gain(*args)
    assert throughput_gain(np.int64(2), 4, 1, 4) == 2.0


def test_run_experiment_artifacts_and_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    config = ExperimentConfig(scenario=FEASIBLE, kind="run",
                              out_dir=str(tmp_path))
    result = run_experiment(config)
    assert result.status == "ok"
    for name in ("trace.csv", "node_powers.csv", "routes.csv", "topology.csv",
                 "sessions.csv", "sir_matrix.csv", "manifest.json"):
        assert name in result.artifacts
        assert os.path.exists(tmp_path / name)
    trace_lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) - 1 >= 2  # at least two phases
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["scenario"]["n_nodes"] == 10
    assert "adhocnet" in manifest["versions"]
    # every pc_solve and LMMSE bit comes from scipy's LAPACK
    assert manifest["versions"]["scipy"] == scipy.__version__
    assert manifest["environment"] == {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None,
        "cpu_count": os.cpu_count()}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_run_experiment_deterministic(tmp_path, kind):
    configs = [ExperimentConfig(scenario=FEASIBLE, kind=kind,
                                out_dir=str(tmp_path / side), trials=4,
                                feasibility_target=0.5, n_min=6, n_max=10,
                                n_step=4)
               for side in ("a", "b")]
    r1, r2 = map(run_experiment, configs)
    assert r1.status == "ok" and r1.artifacts == r2.artifacts
    assert data_files(r1)
    for name in data_files(r1):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def test_rerun_from_manifest_reproduces_data(tmp_path):
    config = ExperimentConfig(scenario=FEASIBLE, kind="run",
                              out_dir=str(tmp_path / "orig"))
    original = run_experiment(config)
    recovered = config_from_manifest(tmp_path / "orig" / "manifest.json")
    rerun = dataclasses.replace(recovered, out_dir=str(tmp_path / "rerun"))
    run_experiment(rerun)
    for name in data_files(original):
        assert read(tmp_path / "orig" / name) == read(tmp_path / "rerun" / name)


def test_multistart_experiment(tmp_path):
    config = ExperimentConfig(scenario=FEASIBLE, kind="multistart",
                              out_dir=str(tmp_path), trials=5)
    result = run_experiment(config)
    assert result.status == "ok"
    lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,status,total_power_W,energy_per_bit_J"
    assert len(lines) == 6
    assert "best_trace.csv" in result.artifacts


def test_fairness_experiment(tmp_path):
    config = ExperimentConfig(scenario=FEASIBLE, kind="fairness",
                              out_dir=str(tmp_path), trials=8)
    result = run_experiment(config)
    assert result.status == "ok"
    assert result.extras["n_candidates"] >= 1
    lines = (tmp_path / "fairness_powers.csv").read_text().strip().splitlines()
    assert lines[0] == "node,power_min_energy_W,power_mixture_W"
    assert len(lines) == FEASIBLE.n_nodes + 1
    weights = (tmp_path / "weights.csv").read_text().strip().splitlines()[1:]
    total = sum(float(line.split(",")[1]) for line in weights)
    assert total == pytest.approx(1.0, abs=1e-9)
    support = sum(float(line.split(",")[1]) != 0.0 for line in weights)
    assert 1 <= result.extras["mixture_support"] == support


def readme_artifact_headers():
    """File name -> CSV header row, from the README tables whose column cell
    names one backquoted column list per backquoted file."""
    headers = {}
    for line in README.read_text().splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) != 2:
            continue
        names = re.findall(r"`([\w.]+\.csv)`", cells[0])
        columns = re.findall(r"`([^`]+)`", cells[1])
        if names and len(names) == len(columns):
            headers.update((name, cols.replace(" ", ""))
                           for name, cols in zip(names, columns))
    return headers


@pytest.mark.parametrize("kind", ["run", "multistart"])
def test_solution_artifacts_match_readme_table(tmp_path, kind):
    config = ExperimentConfig(scenario=FEASIBLE, kind=kind,
                              out_dir=str(tmp_path), trials=5)
    assert run_experiment(config).status == "ok"
    if kind == "run":
        prefix = ""
        net = build_network(FEASIBLE)
        solution = joint_optimize(FEASIBLE, net.topology, net.gains,
                                  net.sessions, net.codebook)
    else:
        prefix = "best_"
        solution = multi_start(FEASIBLE, config.trials).best
    n = FEASIBLE.n_nodes
    counts = {"trace.csv": len(solution.trace), "node_powers.csv": n,
              "routes.csv": sum(len(path) for path in solution.routes.paths)}
    files = {prefix + name: (name, count) for name, count in counts.items()}
    if kind == "run":
        files.update({name: (name, n) for name in ("topology.csv",
                                                   "sessions.csv")})
    headers = readme_artifact_headers()
    for file, (name, count) in files.items():
        lines = (tmp_path / file).read_text().strip().splitlines()
        assert lines[0] == headers[name], file
        assert len(lines) == count + 1, file
    rows = [line.split(",") for line in
            (tmp_path / f"{prefix}routes.csv").read_text().splitlines()[1:]]
    paths = [[] for _ in solution.routes.paths]
    for session, hop, node in rows:
        assert int(hop) == len(paths[int(session)])
        paths[int(session)].append(int(node))
    assert tuple(map(tuple, paths)) == solution.routes.paths


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_manifest_lists_every_file_written(tmp_path, kind):
    config = ExperimentConfig(scenario=FEASIBLE, kind=kind,
                              out_dir=str(tmp_path), trials=4,
                              feasibility_target=0.5, n_min=6, n_max=10,
                              n_step=4)
    result = run_experiment(config)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    written = set(os.listdir(tmp_path))
    assert set(manifest["artifacts"]) | {"manifest.json"} == written
    assert set(result.artifacts) == written


def test_capacity_trivial_target_reaches_scan_ceiling():
    easy = Scenario(n_nodes=10, spreading_gain=64, target_sir=1e-6,
                    master_seed=2)
    result = capacity_search(easy, 64, trials=10, feasibility_target=0.95,
                             seed=5, n_min=4, n_max=12, n_step=4)
    assert result.n_star == 12
    assert result.rates == (1.0, 1.0, 1.0)


def test_capacity_rates_non_increasing_and_result_fields():
    scenario = Scenario(n_nodes=10, spreading_gain=64, master_seed=2)
    result = capacity_search(scenario, 64, trials=15, feasibility_target=0.5,
                             seed=9, n_min=6, n_max=26, n_step=5)
    assert isinstance(result, CapacityResult)
    rates = list(result.rates)
    assert all(b <= a for a, b in zip(rates[:-1], rates[1:]))
    assert result.spreading_gain == 64
    if result.n_star is not None:
        idx = result.n_values.index(result.n_star)
        assert result.rates[idx] >= 0.5
        if idx + 1 < len(rates):
            assert rates[idx + 1] < 0.5


@pytest.mark.parametrize("mode", ["equal", "random"])
@pytest.mark.parametrize("receiver, length, scan", [
    ("matched", 64, dict(trials=5, feasibility_target=0.2, n_min=6,
                         n_max=26, n_step=5)),
    ("lmmse", 8, dict(trials=4, feasibility_target=0.25, n_min=6, n_max=22,
                      n_step=4)),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_capacity_search_matches_per_instance_loop(receiver, length, scan,
                                                   mode, seed):
    # per-size scenarios and per-trial gains judge every instance as the
    # scan that builds each instance from scratch; the LMMSE scan crosses
    # n = L, so both kernel coordinate systems are judged
    template = Scenario(n_nodes=10, spreading_gain=length, receiver=receiver,
                        initial_power_mode=mode, master_seed=2)
    want = capacity_search_loop(template, length, seed=seed, **scan)
    assert capacity_search(template, length, seed=seed, **scan) == want
    assert len(set(want.rates)) > 1  # the scan judged both verdicts


def test_size_gains_are_the_leading_block_until_a_coincident_pair():
    # nodes 3 and 9 share a position: sizes up to 9 are unaffected, and
    # every size from 10 on raises, as gains built from scratch do
    positions = np.random.default_rng(7).uniform(0.0, 200.0, size=(14, 2))
    positions[9] = positions[3]
    trial_gains = pair_gains(positions, 2.0)
    for n in range(2, 15):
        topology = positions[:n]
        if n <= 9:
            got = leading_gains(trial_gains, n)
            assert got.tobytes() == \
                compute_link_gains(topology, 2.0).tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable
            continue
        for build in (lambda: leading_gains(trial_gains, n),
                      lambda: compute_link_gains(topology, 2.0)):
            with pytest.raises(CoincidentNodesError):
                build()


def test_capacity_scan_raises_at_the_first_size_holding_a_coincident_pair(
        monkeypatch):
    # trial 1 places node 9 on node 3: sizes 4 and 8 are judged in full,
    # and the scan raises at size 12, before judging that size's trial 1
    drawn, judged = [], []
    feasible = experiments._capacity_instance_feasible

    def coincide(positions, path_loss_exp):
        drawn.append(positions)
        if len(drawn) == 2:
            positions[9] = positions[3]
        return pair_gains(positions, path_loss_exp)

    def judge(scenario, gains, seed, trial):
        judged.append((scenario.n_nodes, trial))
        return feasible(scenario, gains, seed, trial)

    monkeypatch.setattr(experiments, "pair_gains", coincide)
    monkeypatch.setattr(experiments, "_capacity_instance_feasible", judge)
    easy = Scenario(n_nodes=10, spreading_gain=64, target_sir=1e-6)
    with pytest.raises(CoincidentNodesError):
        capacity_search(easy, 64, trials=3, feasibility_target=0.5, seed=5,
                        n_min=4, n_max=16, n_step=4)
    assert judged == [(n, t) for n in (4, 8) for t in range(3)] + [(12, 0)]


def test_capacity_experiment_writes_rate_table(tmp_path):
    scenario = Scenario(n_nodes=10, spreading_gain=64, master_seed=2)
    config = ExperimentConfig(scenario=scenario, kind="capacity",
                              out_dir=str(tmp_path), trials=8,
                              feasibility_target=0.5, n_min=6, n_max=14,
                              n_step=4)
    result = run_experiment(config)
    lines = (tmp_path / "capacity.csv").read_text().strip().splitlines()
    assert lines[0] == "n_nodes,feasibility_rate,trials"
    assert "n_star" in result.extras


def test_emit_plot_data_from_run(tmp_path):
    config = ExperimentConfig(scenario=FEASIBLE, kind="run",
                              out_dir=str(tmp_path))
    run_experiment(config)
    emitted = emit_plot_data(str(tmp_path))
    assert "plot_total_power_vs_phase.csv" in emitted
    assert "plot_energy_vs_phase.csv" in emitted
    assert "plot_power_vs_node.csv" in emitted
    power_lines = (tmp_path / "plots" / "plot_total_power_vs_phase.csv") \
        .read_text().strip().splitlines()
    trace_lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert len(power_lines) == len(trace_lines)
    for plot_row, trace_row in zip(power_lines[1:], trace_lines[1:]):
        phase, total = plot_row.split(",")
        cells = trace_row.split(",")
        assert phase == cells[0] and total == cells[2]


def test_emit_plot_data_multistart_sorted(tmp_path):
    config = ExperimentConfig(scenario=FEASIBLE, kind="multistart",
                              out_dir=str(tmp_path), trials=5)
    run_experiment(config)
    emitted = emit_plot_data(str(tmp_path))
    assert "plot_trial_power_spread.csv" in emitted
    lines = (tmp_path / "plots" / "plot_trial_power_spread.csv") \
        .read_text().strip().splitlines()[1:]
    values = [float(line.split(",")[1]) for line in lines]
    assert values == sorted(values)


# plot file -> (source artifact, plot header, source columns)
_PLOT_PROJECTIONS = {
    "plot_total_power_vs_phase.csv": ("best_trace.csv",
                                      "phase,total_power_W", (0, 2)),
    "plot_energy_vs_phase.csv": ("best_trace.csv", "phase,energy_per_bit_J",
                                 (0, 3)),
    "plot_power_vs_node.csv": ("best_node_powers.csv", "node,power_W",
                               (0, 3)),
    "plot_fairness_before_after.csv": (
        "fairness_powers.csv", "node,power_before_W,power_after_W",
        (0, 1, 2)),
    "plot_feasibility_vs_nodes.csv": ("capacity.csv",
                                      "n_nodes,feasibility_rate", (0, 1)),
}


@pytest.mark.parametrize("kind, plots", [
    ("capacity", {"plot_feasibility_vs_nodes.csv"}),
    ("fairness", {"plot_fairness_before_after.csv"}),
    ("multistart", {"plot_total_power_vs_phase.csv",
                    "plot_energy_vs_phase.csv", "plot_power_vs_node.csv",
                    "plot_trial_power_spread.csv"}),
])
def test_emit_plot_data_projects_each_source(tmp_path, kind, plots):
    config = ExperimentConfig(scenario=FEASIBLE, kind=kind,
                              out_dir=str(tmp_path), trials=6,
                              feasibility_target=0.5, n_min=6, n_max=10,
                              n_step=4)
    run_experiment(config)
    assert set(emit_plot_data(str(tmp_path))) == plots

    def lines(path):
        return path.read_text().strip().splitlines()

    for plot in plots:
        got = lines(tmp_path / "plots" / plot)
        if plot == "plot_trial_power_spread.csv":
            totals = sorted(float(row.split(",")[2])
                            for row in lines(tmp_path / "trials.csv")[1:])
            assert got[0] == "rank,total_power_W"
            assert [row.split(",") for row in got[1:]] == \
                [[str(k), f"{v:.15e}"] for k, v in enumerate(totals)]
            continue
        name, header, columns = _PLOT_PROJECTIONS[plot]
        source = [row.split(",") for row in lines(tmp_path / name)[1:]]
        assert got[0] == header
        assert got[1:] == [",".join(row[c] for c in columns)
                           for row in source]


def test_emit_plot_data_missing_artifact_is_named(tmp_path):
    config = ExperimentConfig(scenario=FEASIBLE, kind="run",
                              out_dir=str(tmp_path))
    run_experiment(config)
    os.remove(tmp_path / "trace.csv")
    with pytest.raises(MissingArtifactError, match="trace.csv"):
        emit_plot_data(str(tmp_path))
    with pytest.raises(MissingArtifactError, match="manifest"):
        emit_plot_data(str(tmp_path / "nowhere"))


@pytest.mark.parametrize("body", ["[]", '{"artifacts": 5}',
                                  '{"artifacts": ["trace.csv", 1]}'])
def test_malformed_manifest_is_a_config_error(tmp_path, body):
    (tmp_path / "manifest.json").write_text(body)
    with pytest.raises(ConfigError, match="manifest"):
        config_from_manifest(tmp_path / "manifest.json")
    with pytest.raises(ConfigError, match="manifest"):
        emit_plot_data(str(tmp_path))


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario=FEASIBLE, kind="bogus", out_dir="x")
    for threshold in (-1.0, float("nan"), float("inf"), "0.1"):
        with pytest.raises(ConfigError, match="fairness_threshold"):
            ExperimentConfig(scenario=FEASIBLE, kind="fairness", out_dir="x",
                             fairness_threshold=threshold)
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario=FEASIBLE, kind="run", out_dir="x", trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario=FEASIBLE, kind="run", out_dir="x",
                         feasibility_target=1.5)
    with pytest.raises(ConfigError, match="bad_key"):
        ExperimentConfig.from_dict({"scenario": FEASIBLE.to_dict(),
                                    "kind": "run", "out_dir": "x",
                                    "bad_key": 1})


@pytest.mark.parametrize("key, value", [
    ("initial_power_range", [1e-7, 1e-5]), ("phase_cap", 100)])
def test_a_manifest_naming_a_removed_scenario_key_is_refused(key, value):
    scenario = {**FEASIBLE.to_dict(), key: value}
    with pytest.raises(ConfigError, match=f"unknown scenario key: '{key}'"):
        ExperimentConfig.from_dict({"scenario": scenario, "kind": "run",
                                    "out_dir": "x"})


@pytest.mark.parametrize("changes, field", [
    ({"n_min": 1}, "n_min"),
    ({"n_min": 6.0}, "n_min"),
    ({"n_max": "65"}, "n_max"),
    ({"n_min": 10, "n_max": 6}, "n_max"),
    ({"n_step": 0}, "n_step"),
    ({"n_step": True}, "n_step"),
])
def test_experiment_config_rejects_bad_capacity_scan(changes, field):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(scenario=FEASIBLE, kind="capacity", out_dir="x",
                         **changes)


@pytest.mark.parametrize("changes, field", [
    ({"n_min": 10, "n_max": 6}, "n_max"),
    ({"n_step": 0}, "n_step"),
    ({"trials": 2.5}, "trials"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
])
def test_capacity_search_names_a_bad_argument_before_any_work(monkeypatch,
                                                              changes, field):
    def no_work(*args):
        raise AssertionError("an instance was judged")

    monkeypatch.setattr(experiments, "_capacity_instance_feasible", no_work)
    arguments = {"trials": 2, "n_min": 4, "n_max": 8, "n_step": 2, "seed": 1,
                 **changes}
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        capacity_search(FEASIBLE, 64, feasibility_target=0.5, **arguments)


def test_multi_start_names_a_float_trial_count_before_any_work(monkeypatch):
    def no_work(scenario):
        raise AssertionError("a network was built")

    monkeypatch.setattr(crosslayer, "build_network", no_work)
    with pytest.raises(ValueError, match=r"^trials\b"):
        multi_start(FEASIBLE, trials=2.5)


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**64])
def test_multi_start_names_a_bad_seed_before_any_work(monkeypatch, seed):
    def no_work(scenario):
        raise AssertionError("a network was built")

    monkeypatch.setattr(crosslayer, "build_network", no_work)
    problem = {-1: "at least 0", 2**64: "at most 18446744073709551615"}.get(
        seed, "an integer")
    with pytest.raises(ConfigError, match=rf"^seed must be {problem}"):
        multi_start(FEASIBLE, trials=2, seed=seed)


def valid_config(**changes):
    return ExperimentConfig(**{"scenario": FEASIBLE, "kind": "run",
                               "out_dir": "x", **changes})


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_every_config_field_rejects_a_wrong_type(field):
    wrong = 1 if isinstance(getattr(valid_config(), field), str) else "1"
    with pytest.raises(ConfigError, match=rf"^{field}\b"):
        dataclasses.replace(valid_config(), **{field: wrong})


@pytest.mark.parametrize("changes, field", [
    ({"scenario": 5}, "scenario"),
    ({"trials": "3"}, "trials"),
    ({"phase_budget": "3"}, "phase_budget"),
    ({"feasibility_target": "0.5"}, "feasibility_target"),
    ({"trials": 2.5}, "trials"),
    ({"out_dir": 5}, "out_dir"),
])
def test_malformed_config_names_the_field(tmp_path, changes, field):
    with pytest.raises(ConfigError, match=field):
        valid_config(**changes)
    config = {"scenario": FEASIBLE.to_dict(), "kind": "run", "out_dir": "x",
              **changes}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": config}))
    with pytest.raises(ConfigError, match=field):
        config_from_manifest(path)


@pytest.mark.parametrize("body, field", [
    ({"config": 5}, "config"),
    ({"config": {"scenario": FEASIBLE.to_dict(), "kind": "run"}}, "out_dir"),
])
def test_manifest_config_that_is_not_a_whole_object_is_named(tmp_path, body,
                                                             field):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(body))
    with pytest.raises(ConfigError, match=field):
        config_from_manifest(path)


def test_multistart_builds_its_network_once(tmp_path, monkeypatch):
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return build_network(scenario)

    for module in (netmodel, crosslayer, experiments):
        monkeypatch.setattr(module, "build_network", counting)
    result = run_experiment(ExperimentConfig(
        scenario=FEASIBLE, kind="multistart", out_dir=str(tmp_path),
        trials=2))
    assert result.status == "ok"
    assert len(calls) == 1


def test_infeasible_scenario_reported_in_manifest(tmp_path):
    # spreading gain 1 cannot support a 12-node network at the default target
    hard = Scenario(n_nodes=12, spreading_gain=1, master_seed=2,
                    pc_max_iter=1500)
    config = ExperimentConfig(scenario=hard, kind="run", out_dir=str(tmp_path))
    result = run_experiment(config)
    assert result.status == "infeasible"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "infeasible"


@pytest.mark.parametrize("kind, changes", [
    ("multistart", {}), ("fairness", {}),
    ("capacity", {"n_min": 4, "n_max": 8, "n_step": 4}),
])
def test_an_experiment_without_a_feasible_trial_reports_infeasible(
        tmp_path, kind, changes):
    # spreading gain 1 supports no trial here, nor any size of the scan
    hard = Scenario(n_nodes=12, spreading_gain=1, master_seed=2,
                    pc_max_iter=1500)
    config = ExperimentConfig(scenario=hard, kind=kind, out_dir=str(tmp_path),
                              trials=2, **changes)
    result = run_experiment(config)
    assert result.status == "infeasible"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "infeasible"
    if kind == "capacity":
        assert result.extras["n_star"] is None
