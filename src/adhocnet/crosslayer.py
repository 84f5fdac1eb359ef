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
    LinkGainMatrix,
    Network,
    Scenario,
    SessionSet,
    SpreadingCodebook,
    Topology,
    build_network,
)
from .phy import (
    incoming_slots,
    link_energies,
    lmmse_kernel,
    lmmse_link_sir,
    lmmse_sir_matrix,
    matched_link_sir,
    matched_sir_matrix,
)
from .powercontrol import PcResult, pc_iterate, pc_mud_iterate
from .errors import UnreachableSessionError, check_value
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
class TrialSummary:
    trial: int
    status: str
    total_power: float
    energy_per_bit: float
    powers: np.ndarray
    routes: RouteSet


@dataclass(frozen=True)
class MultiStartResult:
    best: JointSolution | None
    trials: tuple[TrialSummary, ...]
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
                           gains: LinkGainMatrix,
                           codebook: SpreadingCodebook | None = None) -> float:
    """Total energy per delivered bit, summed over sessions and route links.

    Each link's energy uses the SIR model matching the scenario's receiver.
    For the LMMSE receiver the SIR is ``phy.lmmse_link_sir`` of one kernel
    call over the route receivers; a route transmitter at zero power keeps
    the reference filter's value, SIR inf and energy 0.
    """
    i_idx, j_idx = routes.active_links.link_arrays
    if scenario.receiver == "matched":
        sir = matched_link_sir(i_idx, j_idx, p, gains,
                               scenario.spreading_gain, scenario.noise_power)
    else:
        if codebook is None:
            raise ValueError("LMMSE energy needs the spreading codebook")
        receivers, senders, rows, cols = incoming_slots(i_idx, j_idx)
        q = lmmse_kernel(p, gains, codebook, scenario.noise_power,
                         receivers, senders)[0][rows, cols]
        sir = lmmse_link_sir(p[i_idx] * gains.gains[i_idx, j_idx], q)
    return _route_energy(routes, p, sir, scenario)


def _route_energy(routes: RouteSet, p: np.ndarray, link_sir: np.ndarray,
                 scenario: Scenario) -> float:
    """``network_energy_per_bit`` from the SIR of every active link, given
    in ``routes.active_links.links`` order."""
    active = routes.active_links
    energy = dict(zip(active.links, link_energies(
        p[active.link_arrays[0]], link_sir, scenario.bit_rate,
        scenario.packet_bits).tolist()))
    total = 0.0
    for path in routes.paths:
        for link in zip(path[:-1], path[1:]):
            total += energy[link]
    return total


def run_power_control(scenario: Scenario, p: np.ndarray, routes: RouteSet,
                      gains: LinkGainMatrix, codebook: SpreadingCodebook, *,
                      probe: PcResult | None = None) -> PcResult:
    """Power control from ``p`` on ``routes`` with the scenario's receiver.

    ``probe`` is an earlier matched run from the same ``p`` on the same
    routes with the scenario's tolerance and power cap, such as
    ``routes.probe`` from ``initial_routes``. The matched run then resumes
    from the probe's last iterate with the budget it has left and splices
    the two; the result equals a fresh run bit for bit (powercontrol module
    docstring). Without budget left it runs fresh. LMMSE ignores the probe.
    """
    active = routes.active_links
    if scenario.receiver == "lmmse":
        return pc_mud_iterate(
            p, active, gains, codebook, scenario.noise_power,
            scenario.target_sir, tol=scenario.pc_tol,
            max_iter=scenario.pc_max_iter, power_cap=scenario.power_cap,
        )[0]
    if probe is not None and len(probe.trace) - 1 < scenario.pc_max_iter:
        start, done = probe.powers, len(probe.trace) - 1
    else:
        start, done, probe = p, 0, None
    result = pc_iterate(
        start, active, gains, scenario.spreading_gain, scenario.noise_power,
        scenario.target_sir, tol=scenario.pc_tol,
        max_iter=scenario.pc_max_iter - done, power_cap=scenario.power_cap,
    )
    if probe is not None:
        result = PcResult(result.status, result.powers,
                          done + result.iterations,
                          np.concatenate((probe.trace, result.trace[1:])))
    return result


def joint_optimize(scenario: Scenario, topology: Topology,
                   gains: LinkGainMatrix, sessions: SessionSet,
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
    pathological cases. With ``phase_budget`` set, exactly that many phases
    are recorded instead (power control first, alternating; flat once the
    loop has stalled), which reproduces fixed-length published traces.

    An initial power-control failure yields status "infeasible_init" with
    the failing PcResult attached.
    """
    if p_init is None:
        p_init = initial_powers(scenario)
    p_init = np.asarray(p_init, dtype=float)

    routes = initial_routes(scenario, gains, sessions, p_init)
    init_total = float(p_init.sum())
    init_energy = network_energy_per_bit(routes, p_init, scenario, gains,
                                         codebook)

    cap = phase_budget if phase_budget is not None else scenario.phase_cap
    budget_mode = phase_budget is not None
    # converged links sit at the target within the solver tolerance, so the
    # gate must not reject them over that jitter
    gate_sir = scenario.target_sir * (1.0 - 10.0 * scenario.pc_tol)
    records: list[PhaseRecord] = []

    def record(phase, p, routes, link_sir=None):
        # a power-control run that reports its link SIRs at p has already
        # solved what network_energy_per_bit would solve again
        if link_sir is None:
            energy = network_energy_per_bit(routes, p, scenario, gains,
                                            codebook)
        else:
            energy = _route_energy(routes, p, link_sir, scenario)
        records.append(PhaseRecord(phase, float(p.sum()), energy))

    def repeat(phase):
        # only called while p and routes are still the last record's
        records.append(replace(records[-1], phase=phase))

    pc = run_power_control(scenario, p_init, routes, gains, codebook,
                           probe=routes.probe)
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
    prev_pc_total = records[-1].total_power
    stalled = False

    while len(records) < cap:
        new_routes = routes
        if not stalled:
            # gate with the SIR the receiver in use actually achieves
            if scenario.receiver == "lmmse":
                sir = lmmse_sir_matrix(p, gains, codebook,
                                       scenario.noise_power)
            else:
                sir = matched_sir_matrix(p, gains, scenario.spreading_gain,
                                         scenario.noise_power)
            costs = build_link_costs(p, sir, gate_sir)
            try:
                new_routes = assign_routes(sessions, costs)
            except UnreachableSessionError:
                # gate jitter disconnected the graph: no improving move exists
                new_routes = routes
        unchanged = new_routes.paths == routes.paths
        if unchanged:
            repeat(PHASE_ROUTING)
            if not budget_mode:
                break
            if len(records) >= cap:
                break
            repeat(PHASE_POWER_CONTROL)
            continue
        # tentatively re-optimize powers for the new routes; accept only
        # non-regressing steps so total power descends by construction
        new_pc = run_power_control(scenario, p, new_routes, gains, codebook)
        if not new_pc.converged \
                or float(new_pc.powers.sum()) > prev_pc_total * (1.0 + 1e-12):
            stalled = True
            if not budget_mode:
                break
            continue
        record(PHASE_ROUTING, p, new_routes)
        routes = new_routes
        if len(records) >= cap:
            break
        p = new_pc.powers
        record(PHASE_POWER_CONTROL, p, routes, new_pc.link_sir)
        total = records[-1].total_power
        improvement = (prev_pc_total - total) / prev_pc_total
        prev_pc_total = total
        if improvement < scenario.improvement_tol and not budget_mode:
            break

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
    together with per-trial summaries and the network they share, which the
    scenario fixes (topology, sessions, codebook).
    """
    check_value("trials", trials, Integral, low=1)
    if seed is None:
        seed = scenario.master_seed
    net = build_network(scenario)
    # every trial starts from a random draw, whatever the scenario's mode
    random_init = scenario.replace(initial_power_mode="random")
    summaries = []
    best: JointSolution | None = None
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(seed, TRIAL_STREAM_BASE, trial))
        p_init = initial_powers(random_init, rng)
        solution = joint_optimize(scenario, net.topology, net.gains,
                                  net.sessions, net.codebook, p_init=p_init)
        summaries.append(TrialSummary(
            trial=trial, status=solution.status,
            total_power=solution.total_power,
            energy_per_bit=solution.energy_per_bit,
            powers=solution.powers, routes=solution.routes,
        ))
        if solution.converged and (best is None
                                   or solution.total_power < best.total_power):
            best = solution
    return MultiStartResult(best=best, trials=tuple(summaries), network=net)
