"""Hierarchical joint power control and routing.

The loop alternates a converged power-control run with a route reassignment
on SIR-gated power costs. Every link admitted by the gate already meets the
SIR target at the pre-routing powers, so the next power-control run starts
from a feasible point and descends; total transmitted power is therefore
non-increasing across phase boundaries and the loop stops at a local
minimum once rerouting stops paying.

Energy per bit is recorded along the trace but is not monotone: right after
rerouting the powers are not yet re-optimized for the new routes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .netmodel import (
    INIT_POWER_STREAM,
    Network,
    Scenario,
    SpreadingCodebook,
    build_network,
)
from .phy import (
    link_energies,
    lmmse_link_sir,
    lmmse_sir_matrix,
    lmmse_solve,
    matched_link_sir,
    matched_sir_matrix,
)
from .powercontrol import PcResult, pc_iterate, pc_mud_solve
from .errors import (UnreachableSessionError, check_gains, check_powers,
                     check_value)
from .routing import RouteSet, assign_routes, build_link_costs, initial_routes
from .seeds import derive_seed

PHASE_POWER_CONTROL = "power_control"
PHASE_ROUTING = "routing"

STATUS_LOCAL_MIN = "local_min"
STATUS_INFEASIBLE_INIT = "infeasible_init"

# Stream index offset for per-trial power initializations in multi_start.
TRIAL_STREAM_BASE = 16


@dataclass(frozen=True)
class PhaseRecord:
    phase: str
    total_power: float
    energy_per_bit: float


@dataclass(frozen=True)
class JointSolution:
    """Converged powers and routes with the full phase trace."""

    status: str
    powers: np.ndarray
    routes: RouteSet
    trace: tuple[PhaseRecord, ...]
    total_power: float
    energy_per_bit: float
    initial_total_power: float
    initial_energy_per_bit: float
    pc_diagnostics: PcResult | None = None

    @property
    def converged(self) -> bool:
        return self.status == STATUS_LOCAL_MIN


@dataclass(frozen=True)
class MultiStartResult:
    best: JointSolution | None
    trials: tuple[JointSolution, ...]  # trial k's solution at position k
    network: Network


def initial_powers(scenario: Scenario, rng: np.random.Generator | None = None) -> np.ndarray:
    """Initial transmit powers per the scenario's initialization mode.

    Random mode draws log-uniformly over the configured range; the stream
    defaults to the master seed's dedicated initialization stream.
    """
    n = scenario.n_nodes
    if scenario.initial_power_mode == "equal":
        return np.full(n, scenario.initial_power)
    if rng is None:
        rng = np.random.default_rng(
            derive_seed(scenario.master_seed, INIT_POWER_STREAM)
        )
    lo, hi = scenario.power_init_range()
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def network_energy_per_bit(routes: RouteSet, p: np.ndarray, scenario: Scenario,
                           gains: np.ndarray,
                           codebook: SpreadingCodebook | None = None) -> float:
    """Total energy per delivered bit, summed over sessions and route links.

    Each link's energy uses the SIR model matching the scenario's receiver.
    For the LMMSE receiver the SIR is ``phy.lmmse_link_sir`` of one kernel
    call over the route receivers; a route transmitter at zero power keeps
    the reference filter's value, SIR inf and energy 0. ConfigError names
    ``gains`` or ``p`` unless they fit ``routes``.
    """
    check_gains(gains, routes.n_nodes)
    p = check_powers("p", p, routes.n_nodes)
    i_idx, j_idx = routes.active_links.link_arrays
    if scenario.receiver == "matched":
        sir = matched_link_sir(i_idx, j_idx, p, gains,
                               scenario.spreading_gain, scenario.noise_power)
    else:
        if codebook is None:
            raise ValueError("LMMSE energy needs the spreading codebook")
        q = lmmse_solve(p, gains, codebook, scenario.noise_power, i_idx,
                        j_idx)
        sir = lmmse_link_sir(p[i_idx] * gains[i_idx, j_idx], q)
    return _route_energy(routes, p, sir, scenario)


def _route_energy(routes: RouteSet, p: np.ndarray, link_sir: np.ndarray,
                 scenario: Scenario) -> float:
    """``network_energy_per_bit`` from the SIR of every active link, given
    in ``routes.active_links.links`` order."""
    energy = link_energies(p[routes.active_links.link_arrays[0]], link_sir,
                           scenario.bit_rate, scenario.packet_bits)
    # added strictly left to right from 0.0, path by path, link by link
    path_energy = np.append(0.0, energy[routes.path_links])
    return float(np.add.accumulate(path_energy)[-1])


def run_power_control(scenario: Scenario, p: np.ndarray, routes: RouteSet,
                      gains: np.ndarray,
                      codebook: SpreadingCodebook) -> PcResult:
    """Power control from ``p`` on ``routes`` with the scenario's receiver."""
    active = routes.active_links
    if scenario.receiver == "lmmse":
        return pc_mud_solve(
            p, active, gains, codebook, scenario.noise_power,
            scenario.target_sir, tol=scenario.pc_tol,
            max_iter=scenario.pc_max_iter, power_cap=scenario.power_cap,
        )
    return pc_iterate(
        p, active, gains, scenario.spreading_gain, scenario.noise_power,
        scenario.target_sir, tol=scenario.pc_tol,
        max_iter=scenario.pc_max_iter, power_cap=scenario.power_cap,
    )


def joint_optimize(scenario: Scenario, topology: np.ndarray | None,
                   gains: np.ndarray,
                   sessions: tuple[tuple[int, int], ...],
                   codebook: SpreadingCodebook,
                   p_init: np.ndarray | None = None,
                   phase_budget: int | None = None) -> JointSolution:
    """Alternate converged power control with route reassignment.

    The route gate admits links whose receiver SIR reaches the target up to
    the power-control tolerance jitter, and a rerouting step is accepted
    only when the re-optimized powers do not regress the total, so the
    recorded trace is non-increasing by construction. Natural termination:
    routes unchanged, no non-regressing step available, or relative
    improvement below the scenario threshold; a phase cap bounds
    pathological cases. With ``phase_budget`` set, the improvement
    threshold is ignored and the budget is the cap; once the loop stops,
    repeats of its last record, alternating phase kinds, pad the trace to
    exactly that many phases, which reproduces fixed-length published
    traces.

    An initial power-control failure yields status "infeasible_init" with
    the failing PcResult attached: with the matched receiver, a failed
    ``pc_solve`` check of the initial routes.

    ``topology`` is not read (the gains carry all the loop needs of the
    positions); it keeps its place for callers that pass it by position.
    """
    if phase_budget is not None:
        check_value("phase_budget", phase_budget, Integral, low=1)
    if p_init is None:
        p_init = initial_powers(scenario)
    p_init = np.asarray(p_init, dtype=float)

    routes, pc = initial_routes(scenario, gains, sessions, p_init)
    init_total = float(p_init.sum())
    init_energy = network_energy_per_bit(routes, p_init, scenario, gains,
                                         codebook)

    cap = phase_budget if phase_budget is not None else scenario.phase_cap
    # converged links sit at the target within the solver tolerance, so the
    # gate must not reject them over that jitter
    gate_sir = scenario.target_sir * (1.0 - 10.0 * scenario.pc_tol)
    records: list[PhaseRecord] = []

    def record(phase, p, routes, link_sir=None):
        # link SIRs at p, from a power-control run or the gate's matrix that
        # every route link passed, are what network_energy_per_bit solves
        energy = (_route_energy(routes, p, link_sir, scenario)
                  if link_sir is not None else network_energy_per_bit(
                      routes, p, scenario, gains, codebook))
        records.append(PhaseRecord(phase, float(p.sum()), energy))

    def repeat(phase):
        # only called while p and routes are still the last record's
        records.append(replace(records[-1], phase=phase))

    if scenario.receiver == "lmmse" or pc.converged:
        pc = run_power_control(scenario, p_init, routes, gains, codebook)
    if not pc.converged:
        frozen = np.array(p_init)
        frozen.setflags(write=False)
        return JointSolution(
            status=STATUS_INFEASIBLE_INIT, powers=frozen, routes=routes,
            trace=(), total_power=init_total,
            energy_per_bit=init_energy, initial_total_power=init_total,
            initial_energy_per_bit=init_energy, pc_diagnostics=pc,
        )
    p = pc.powers
    record(PHASE_POWER_CONTROL, p, routes, pc.link_sir)

    while len(records) < cap:
        # gate with the SIR the receiver in use actually achieves
        if scenario.receiver == "lmmse":
            sir = lmmse_sir_matrix(p, gains, codebook, scenario.noise_power,
                                   gate_sir)
        else:
            sir = matched_sir_matrix(p, gains, scenario.spreading_gain,
                                     scenario.noise_power)
        costs = build_link_costs(p, sir, gate_sir)
        try:
            new_routes = assign_routes(sessions, costs)
        except UnreachableSessionError:
            # gate jitter disconnected the graph: no improving move exists
            new_routes = routes
        if new_routes.paths == routes.paths:
            repeat(PHASE_ROUTING)
            break
        # tentatively re-optimize powers for the new routes; accept only
        # non-regressing steps so total power descends by construction
        new_pc = run_power_control(scenario, p, new_routes, gains, codebook)
        if not new_pc.converged or float(new_pc.powers.sum()) \
                > records[-1].total_power * (1.0 + 1e-12):
            break
        record(PHASE_ROUTING, p, new_routes,
               sir[new_routes.active_links.link_arrays])
        routes = new_routes
        if len(records) >= cap:
            break
        p = new_pc.powers
        record(PHASE_POWER_CONTROL, p, routes, new_pc.link_sir)
        # the routing record before it holds the previous run's total
        before = records[-2].total_power
        improvement = (before - records[-1].total_power) / before
        if improvement < scenario.improvement_tol and phase_budget is None:
            break

    # a stopped loop's powers and routes stay put for the rest of a budget
    while phase_budget is not None and len(records) < phase_budget:
        repeat(PHASE_ROUTING if records[-1].phase == PHASE_POWER_CONTROL
               else PHASE_POWER_CONTROL)

    return JointSolution(
        status=STATUS_LOCAL_MIN, powers=p, routes=routes,
        trace=tuple(records), total_power=records[-1].total_power,
        energy_per_bit=records[-1].energy_per_bit,
        initial_total_power=init_total, initial_energy_per_bit=init_energy,
    )


def multi_start(scenario: Scenario, trials: int,
                seed: int | None = None) -> MultiStartResult:
    """Repeat the joint loop from random power initializations.

    Each trial draws a log-uniform initial power vector from its own derived
    stream; the best (lowest total power) converged solution is returned
    together with every trial's solution and the network they share, which
    the scenario fixes (topology, sessions, codebook).
    """
    check_value("trials", trials, Integral, low=1)
    if seed is None:
        seed = scenario.master_seed
    check_value("seed", seed, Integral, low=0, high=2**64 - 1)
    net = build_network(scenario)
    # every trial starts from a random draw, whatever the scenario's mode
    random_init = scenario.replace(initial_power_mode="random")
    solutions = []
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(seed, TRIAL_STREAM_BASE, trial))
        solutions.append(joint_optimize(
            scenario, net.topology, net.gains, net.sessions, net.codebook,
            p_init=initial_powers(random_init, rng)))
    # the first of equal totals, as min returns it
    best = min((s for s in solutions if s.converged),
               key=lambda s: s.total_power, default=None)
    return MultiStartResult(best=best, trials=tuple(solutions), network=net)
