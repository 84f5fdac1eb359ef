"""Energy-efficient power control, routing and multiuser detection for
synchronous DS-CDMA ad hoc networks.

The library is organized bottom-up: ``netmodel`` generates the static
network, ``phy`` holds the SIR and energy models, ``powercontrol`` solves
the fixed-point power problem, ``routing`` assigns SIR-gated minimum-power
routes, ``crosslayer`` alternates the two until a local minimum,
``fairness`` blends near-optimal solutions for uniform consumption, and
``experiments`` reproduces the published experiments with file artifacts.
"""

__version__ = "0.1.0"

from .errors import (
    AdhocnetError,
    ConfigError,
    CoincidentNodesError,
    MissingArtifactError,
    UnreachableSessionError,
)
from .netmodel import (
    Network,
    Scenario,
    SpreadingCodebook,
    build_network,
    compute_link_gains,
    generate_sessions,
    generate_spreading_codebook,
    generate_topology,
    load_scenario,
    save_scenario,
)
from .phy import (
    FilterBank,
    efficiency,
    energy_per_bit_link,
    lmmse_filter,
    received_powers,
    sir_lmmse,
    sir_matched,
)
from .powercontrol import (
    ActiveLinkSet,
    PcResult,
    pc_iterate,
    pc_mud_iterate,
    pc_mud_solve,
    pc_solve,
    power_targets,
)
from .routing import (
    RouteSet,
    assign_routes,
    build_link_costs,
    initial_routes,
)
from .crosslayer import (
    JointSolution,
    MultiStartResult,
    PhaseRecord,
    initial_powers,
    joint_optimize,
    multi_start,
    network_energy_per_bit,
)
from .fairness import (
    MixtureWeights,
    RouteCandidateSet,
    effective_node_powers,
    optimize_mixture,
    select_candidates,
)
from .experiments import (
    CapacityResult,
    ExperimentConfig,
    ExperimentResult,
    capacity_search,
    config_from_manifest,
    emit_plot_data,
    run_experiment,
    throughput_gain,
)
from .seeds import derive_seed
