"""Reproduction harness: named experiments, file artifacts and the manifest.

Every experiment writes CSV artifacts plus a ``manifest.json`` that echoes
the full configuration, seeds, library versions, BLAS thread variables and
CPU count; re-running from the manifest alone reproduces every data file
byte for byte. This module owns every artifact: each file name and CSV
header is written here and only here, through ``_write``, so the layer
modules hold numerics alone.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
import scipy

from . import __version__
from .crosslayer import (
    JointSolution,
    initial_powers,
    joint_optimize,
    multi_start,
    run_power_control,
)
from .csvio import read_csv, write_csv
from .errors import (
    ConfigError,
    MissingArtifactError,
    check_fields,
    check_keys,
    check_value,
    checked,
    read_json_object,
)
from .fairness import effective_node_powers, optimize_mixture, select_candidates
from .netmodel import (
    Network,
    Scenario,
    build_network,
    generate_sessions,
    generate_spreading_codebook,
    leading_gains,
    pair_gains,
)
from .phy import matched_sir_matrix
from .routing import initial_routes
from .seeds import derive_seed

EXPERIMENT_KINDS = ("run", "multistart", "fairness", "capacity")

# Capacity-search seed streams (folded after the experiment seed).
_CAP_POSITION_STREAM = 1
_CAP_SESSION_STREAM = 2
_CAP_CODEBOOK_STREAM = 3
_CAP_POWER_STREAM = 4

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"

_MANIFEST = "manifest.json"
# emit_plot_data writes into this subdirectory of the artifact directory
_PLOT_DIR = "plots"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario = checked(Scenario)
    kind: str = checked(str, choices=EXPERIMENT_KINDS)
    out_dir: str = checked(str)
    trials: int = checked(Integral, 100, low=1)
    phase_budget: int | None = checked(Integral, None, low=1)
    fairness_threshold: float = checked(Real, 0.10, low=0)
    feasibility_target: float = checked(Real, 0.95, above=0, high=1)
    n_min: int = checked(Integral, 40, low=2)
    n_max: int = checked(Integral, 65)  # __post_init__ checks >= n_min
    n_step: int = checked(Integral, 5, low=1)

    def __post_init__(self):
        check_fields(self)
        check_value("n_max", self.n_max, Integral, low=self.n_min)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        check_keys(data, cls, "experiment config")
        scenario = Scenario.from_dict(data["scenario"])
        return cls(**{**data, "scenario": scenario})


@dataclass(frozen=True)
class ExperimentResult:
    status: str
    out_dir: str
    artifacts: tuple[str, ...]
    extras: dict


@dataclass(frozen=True)
class CapacityResult:
    """Largest network size whose feasibility rate meets the target."""

    spreading_gain: int
    n_star: int | None
    n_values: tuple[int, ...]
    rates: tuple[float, ...]
    trials: int


def throughput_gain(n_a: int, spreading_a: int, n_b: int,
                    spreading_b: int) -> float:
    """Normalized throughput of system A relative to system B:
    (n_a / spreading_a) / (n_b / spreading_b)."""
    for name, value in zip(("n_a", "spreading_a", "n_b", "spreading_b"),
                           (n_a, spreading_a, n_b, spreading_b)):
        check_value(name, value, Integral, low=1)
    return (n_a * spreading_b) / (spreading_a * n_b)


def _capacity_instance_feasible(scenario: Scenario, gains: np.ndarray,
                                seed: int, trial: int) -> bool:
    """Judge one Monte Carlo instance of the scenario's size: do the initial
    routes admit a converged power-control run at the initial powers? (For
    the matched receiver, their exact ``pc_solve`` check.)"""
    n_nodes = scenario.n_nodes
    sessions = generate_sessions(
        n_nodes, derive_seed(seed, _CAP_SESSION_STREAM, trial, n_nodes)
    )
    p0 = initial_powers(scenario, np.random.default_rng(
        derive_seed(seed, _CAP_POWER_STREAM, trial, n_nodes))
        if scenario.initial_power_mode == "random" else None)
    routes, check = initial_routes(scenario, gains, sessions, p0)
    if scenario.receiver == "matched":
        return check.converged
    codebook = generate_spreading_codebook(
        n_nodes, scenario.spreading_gain,
        derive_seed(seed, _CAP_CODEBOOK_STREAM, trial, n_nodes),
    )
    return run_power_control(scenario, p0, routes, gains, codebook).converged


def capacity_search(scenario_template: Scenario, spreading_gain: int,
                    trials: int, feasibility_target: float, seed: int, *,
                    n_min: int = 40, n_max: int = 65,
                    n_step: int = 5) -> CapacityResult:
    """Scan network sizes upward and find the largest one whose feasibility
    rate still meets the target.

    Each trial grows one fixed random deployment node by node (common random
    numbers): size N uses the first N of the trial's n_max positions, and a
    trial that has become infeasible at some size counts as infeasible at
    every larger size. This makes the per-size feasibility rates non-
    increasing by construction, so the scan can stop at the first size below
    the target. Sessions are redrawn per size since each added node also
    adds a traffic session.
    """
    check_value("trials", trials, Integral, low=1)
    check_value("feasibility_target", feasibility_target, Real, above=0,
                high=1)
    check_value("n_min", n_min, Integral, low=2)
    check_value("n_max", n_max, Integral, low=n_min)
    check_value("n_step", n_step, Integral, low=1)
    check_value("seed", seed, Integral, low=0, high=2**64 - 1)

    trial_gains = []  # each trial's n_max nodes; size N reads the N x N block
    for trial in range(trials):
        rng = np.random.default_rng(
            derive_seed(seed, _CAP_POSITION_STREAM, trial))
        trial_gains.append(pair_gains(
            rng.uniform(0.0, scenario_template.area_side, size=(n_max, 2)),
            scenario_template.path_loss_exp))

    alive = np.ones(trials, dtype=bool)
    n_values: list[int] = []
    rates: list[float] = []
    n_star: int | None = None
    for n_nodes in range(n_min, n_max + 1, n_step):
        scenario = scenario_template.replace(n_nodes=n_nodes,
                                             spreading_gain=spreading_gain)
        for trial in range(trials):
            if not alive[trial]:
                continue
            alive[trial] = _capacity_instance_feasible(
                scenario, leading_gains(trial_gains[trial], n_nodes), seed,
                trial,
            )
        rate = float(np.mean(alive))
        n_values.append(n_nodes)
        rates.append(rate)
        if rate >= feasibility_target:
            n_star = n_nodes
        else:
            break
    return CapacityResult(
        spreading_gain=spreading_gain, n_star=n_star,
        n_values=tuple(n_values), rates=tuple(rates), trials=trials,
    )


def _write(out_dir: str, artifacts: list[str], name: str, header,
           rows) -> None:
    """Write one CSV artifact and list it for the manifest."""
    write_csv(os.path.join(out_dir, name), header, rows)
    artifacts.append(name)


def _write_manifest(config: ExperimentConfig, status: str, extras: dict,
                    artifacts: list[str]) -> None:
    manifest = {
        "config": config.to_dict(),
        "status": status,
        "extras": extras,
        "artifacts": sorted(artifacts),
        "versions": {
            "adhocnet": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
        # settings the LAPACK bits may depend on, null where unset
        "environment": {
            "cpu_count": os.cpu_count(),
            **{name: os.environ.get(name) for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    path = os.path.join(config.out_dir, _MANIFEST)
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_manifest(path) -> dict:
    """Parse a manifest and check the parts its readers use."""
    manifest = read_json_object(path, "manifest")
    listed = manifest.get("artifacts", [])
    if not isinstance(listed, list) \
            or not all(isinstance(name, str) for name in listed):
        raise ConfigError("manifest artifacts must be a list of file names, "
                          f"got {listed!r}")
    return manifest


def config_from_manifest(path) -> ExperimentConfig:
    """Rebuild the experiment configuration recorded in a manifest."""
    return ExperimentConfig.from_dict(_read_manifest(path).get("config"))


def _export_solution(net: Network, solution: JointSolution, out_dir: str,
                     artifacts: list[str], prefix: str = "") -> None:
    scenario = net.scenario
    _write(out_dir, artifacts, prefix + "trace.csv",
           ("phase_index", "phase_kind", "total_power_W", "energy_per_bit_J"),
           [(k, rec.phase, rec.total_power, rec.energy_per_bit)
            for k, rec in enumerate(solution.trace)])
    _write(out_dir, artifacts, prefix + "node_powers.csv",
           ("node", "x_m", "y_m", "power_W"),
           [(i, float(x), float(y), float(pw))
            for i, ((x, y), pw) in enumerate(zip(net.topology,
                                                 solution.powers))])
    _write(out_dir, artifacts, prefix + "routes.csv",
           ("session", "hop", "node"),
           [(k, hop, node) for k, path in enumerate(solution.routes.paths)
            for hop, node in enumerate(path)])
    sir = matched_sir_matrix(solution.powers, net.gains,
                             scenario.spreading_gain, scenario.noise_power)
    header = ("node",) + tuple(f"to_{j}" for j in range(scenario.n_nodes))
    rows = [(i,) + tuple(float(v) for v in sir[i]) for i in range(scenario.n_nodes)]
    _write(out_dir, artifacts, prefix + "sir_matrix.csv", header, rows)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured experiment and write its artifacts."""
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    scenario = config.scenario
    artifacts: list[str] = []
    extras: dict = {}
    status = STATUS_OK

    if config.kind == "run":
        net = build_network(scenario)
        _write(out_dir, artifacts, "topology.csv", ("node", "x_m", "y_m"),
               [(i, float(x), float(y))
                for i, (x, y) in enumerate(net.topology)])
        _write(out_dir, artifacts, "sessions.csv",
               ("session", "source", "destination"),
               [(k, s, d) for k, (s, d) in enumerate(net.sessions)])
        solution = joint_optimize(scenario, net.topology, net.gains,
                                  net.sessions, net.codebook,
                                  phase_budget=config.phase_budget)
        if solution.converged:
            _export_solution(net, solution, out_dir, artifacts)
            extras["total_power_W"] = solution.total_power
            extras["energy_per_bit_J"] = solution.energy_per_bit
            extras["initial_energy_per_bit_J"] = solution.initial_energy_per_bit
            extras["phases"] = len(solution.trace)
        else:
            status = STATUS_INFEASIBLE
            extras["pc_status"] = solution.pc_diagnostics.status

    elif config.kind == "multistart":
        result = multi_start(scenario, config.trials)
        _write(out_dir, artifacts, "trials.csv",
               ("trial", "status", "total_power_W", "energy_per_bit_J"),
               [(k, t.status, t.total_power, t.energy_per_bit)
                for k, t in enumerate(result.trials)])
        if result.best is None:
            status = STATUS_INFEASIBLE
        else:
            _export_solution(result.network, result.best, out_dir, artifacts,
                             prefix="best_")
            extras["best_total_power_W"] = result.best.total_power
            extras["best_energy_per_bit_J"] = result.best.energy_per_bit
            extras["initial_energy_per_bit_J"] = result.best.initial_energy_per_bit

    elif config.kind == "fairness":
        result = multi_start(scenario, config.trials)
        if result.best is None:
            status = STATUS_INFEASIBLE
        else:
            candidates = select_candidates(result.trials,
                                           config.fairness_threshold)
            weights = optimize_mixture(candidates)
            mixed = effective_node_powers(candidates, weights)
            _write(out_dir, artifacts, "candidates.csv",
                   ("candidate", "trial", "total_power_W"),
                   [(k, trial, c.total_power) for k, (trial, c) in enumerate(
                       zip(candidates.trials, candidates.candidates))])
            _write(out_dir, artifacts, "candidate_powers.csv",
                   ("candidate", "node", "power_W"),
                   [(k, i, float(pw))
                    for k, c in enumerate(candidates.candidates)
                    for i, pw in enumerate(c.powers)])
            _write(out_dir, artifacts, "weights.csv", ("candidate", "weight"),
                   [(k, float(w)) for k, w in enumerate(weights.w)])
            _write(out_dir, artifacts, "fairness_powers.csv",
                   ("node", "power_min_energy_W", "power_mixture_W"),
                   [(i, float(a), float(b)) for i, (a, b) in enumerate(
                       zip(result.best.powers, mixed))])
            extras["n_candidates"] = len(candidates)
            extras["mixture_support"] = int(np.count_nonzero(weights.w))
            extras["power_target_W"] = candidates.power_target
            extras["variance_min_energy"] = float(np.var(result.best.powers))
            extras["variance_mixture"] = float(np.var(mixed))

    elif config.kind == "capacity":
        result = capacity_search(
            scenario, scenario.spreading_gain, config.trials,
            config.feasibility_target, scenario.master_seed,
            n_min=config.n_min, n_max=config.n_max, n_step=config.n_step,
        )
        _write(out_dir, artifacts, "capacity.csv",
               ("n_nodes", "feasibility_rate", "trials"),
               [(n, r, config.trials)
                for n, r in zip(result.n_values, result.rates)])
        extras["spreading_gain"] = result.spreading_gain
        extras["n_star"] = result.n_star
        if result.n_star is None:
            status = STATUS_INFEASIBLE

    _write_manifest(config, status, extras, artifacts)
    artifacts.append(_MANIFEST)
    return ExperimentResult(status=status, out_dir=out_dir,
                            artifacts=tuple(sorted(artifacts)), extras=extras)


# Plot-data emission: source artifact -> plot files, each as (file name,
# header, row transform of the source rows).
def _columns(*columns):
    return lambda rows: [tuple(r[c] for c in columns) for r in rows]


def _ranked_totals(rows):
    return list(enumerate(sorted(float(r[2]) for r in rows)))


_TRACE_PLOTS = (
    ("plot_total_power_vs_phase.csv", ("phase", "total_power_W"),
     _columns(0, 2)),
    ("plot_energy_vs_phase.csv", ("phase", "energy_per_bit_J"),
     _columns(0, 3)),
)
_NODE_POWER_PLOTS = (
    ("plot_power_vs_node.csv", ("node", "power_W"), _columns(0, 3)),
)
_PLOT_SOURCES = {
    "trace.csv": _TRACE_PLOTS,
    "best_trace.csv": _TRACE_PLOTS,
    "node_powers.csv": _NODE_POWER_PLOTS,
    "best_node_powers.csv": _NODE_POWER_PLOTS,
    "trials.csv": (
        ("plot_trial_power_spread.csv", ("rank", "total_power_W"),
         _ranked_totals),
    ),
    "fairness_powers.csv": (
        ("plot_fairness_before_after.csv",
         ("node", "power_before_W", "power_after_W"), _columns(0, 1, 2)),
    ),
    "capacity.csv": (
        ("plot_feasibility_vs_nodes.csv", ("n_nodes", "feasibility_rate"),
         _columns(0, 1)),
    ),
}


def emit_plot_data(artifact_dir) -> list[str]:
    """Project experiment artifacts onto plot-ready two/three-column files.

    Reads the manifest to learn which artifacts the experiment produced and
    emits the corresponding plot files into ``artifact_dir/plots``.
    Raises MissingArtifactError when the manifest or a manifest-listed
    artifact is absent, and ConfigError when the manifest is malformed.
    """
    manifest_path = os.path.join(artifact_dir, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise MissingArtifactError(f"missing artifact: {manifest_path}")
    listed = _read_manifest(manifest_path).get("artifacts", [])
    out_dir = os.path.join(artifact_dir, _PLOT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    emitted = []
    for name in listed:
        if name not in _PLOT_SOURCES:
            continue
        path = os.path.join(artifact_dir, name)
        if not os.path.exists(path):
            raise MissingArtifactError(f"missing artifact: {path}")
        _, rows = read_csv(path)
        for plot, header, transform in _PLOT_SOURCES[name]:
            write_csv(os.path.join(out_dir, plot), header, transform(rows))
            emitted.append(plot)
    return sorted(set(emitted))
