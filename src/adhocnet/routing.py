"""Power-aware route computation.

The routing layer sees only the node powers and link gains. From them the
receiver's SIR of every potential link (active or not) is computed in phy:
``phy.matched_sir_matrix`` for the matched filter, the one place the
matched SIR is computed, or ``phy.lmmse_sir_matrix``. The gate gives links
below the SIR target infinite cost, prices the remaining links at the
transmitter's power, and finds all distances to the session destinations
with one csgraph Dijkstra call. Each session then follows per-destination
next-hop pointers along the lexicographically smallest minimum-cost route.
The SIR matrices read only powers and gains, so they do not depend on which
routes are in use.

Initialization differs: before the first power-control run there are no
optimized powers to price links with, so links are priced by the energy per
bit they would consume if operated at the SIR target given the initial
interference, every link stays finite, and the route assignment is built on
a sparse strongly-connected skeleton of locally strong links and verified
(and repaired if needed) to admit a convergent power-control run. That
verification is a matched power-control run from the initial powers with
the scenario's tolerance and power cap; the returned routes carry the last
one as ``RouteSet.probe``, so the first full run can resume from it instead
of solving the same fixed point again (see ``crosslayer.run_power_control``).
The probe runs at most ``_PROBE_ITERATIONS`` steps, and a diverging probe
triggers at most ``_REPAIR_ROUNDS`` skeleton repairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import UnreachableSessionError
from .netmodel import LinkGainMatrix, Scenario, SessionSet
from .phy import efficiency, matched_sir_matrix
from .powercontrol import ActiveLinkSet, PcResult, pc_iterate

# Cost matrices are plain (n, n) float arrays with +inf for unusable links.
LinkCostMatrix = np.ndarray

# Skeleton repairs after a diverging probe, and the probe's step budget.
_REPAIR_ROUNDS = 8
_PROBE_ITERATIONS = 1500


def build_link_costs(p: np.ndarray, sir: np.ndarray,
                     target_sir: float) -> LinkCostMatrix:
    """SIR-gated link costs: the transmitter's power when the link's SIR in
    ``sir`` reaches the target (boundary included), +inf otherwise.

    ``sir`` is the all-pairs SIR matrix of the receiver in use at ``p``:
    ``phy.matched_sir_matrix`` or ``phy.lmmse_sir_matrix``.
    """
    costs = np.where(sir >= target_sir, np.broadcast_to(p[:, None], sir.shape),
                     np.inf)
    np.fill_diagonal(costs, np.inf)
    return costs


def initial_route_costs(scenario: Scenario, sir: np.ndarray,
                        p_init: np.ndarray) -> LinkCostMatrix:
    """Energy-per-bit link costs for the initialization phase (no SIR gate).

    A link is priced by the energy per bit it would consume when operated at
    the SIR target under the interference seen at the initial powers: the
    required transmit power is P_i * target / sir, and the packet
    success probability at target operation is a constant factor. The cost
    is finite for every link with nonzero SIR, also below the
    target, so a starting route assignment always exists. ``sir`` is
    ``phy.matched_sir_matrix`` at ``p_init``.
    """
    success = float(efficiency(scenario.target_sir, scenario.packet_bits))
    # the success factor is a link-independent scale; if it underflows for a
    # tiny target, drop it rather than blanking every cost
    scale = scenario.bit_rate * success if success > 0.0 else scenario.bit_rate
    with np.errstate(divide="ignore"):
        required = scenario.target_sir * p_init[:, None] / sir
    costs = required / scale
    costs[~np.isfinite(costs)] = np.inf
    np.fill_diagonal(costs, np.inf)
    return costs


@dataclass(frozen=True)
class RouteSet:
    """One node path per session plus the derived active link set.

    ``probe`` is the matched power-control run ``initial_routes`` made on
    these routes from its initial powers, or None; it takes no part in
    equality or repr.
    """

    paths: tuple[tuple[int, ...], ...]
    n_nodes: int
    probe: PcResult | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for path in self.paths:
            if len(path) < 2:
                raise ValueError("a route needs at least two nodes")
            if len(set(path)) != len(path):
                raise ValueError(f"route {path} repeats a node")

    @cached_property
    def active_links(self) -> ActiveLinkSet:
        links = []
        for path in self.paths:
            links.extend(zip(path[:-1], path[1:]))
        return ActiveLinkSet.from_links(self.n_nodes, links)


def _heap_lex_path(costs: np.ndarray, source: int,
                   dest: int) -> list[int] | None:
    """Reference Dijkstra carrying whole paths for exact lexicographic ties."""
    n = costs.shape[0]
    heap = [(0.0, (source,))]
    closed = np.zeros(n, dtype=bool)
    while heap:
        d, path = heapq.heappop(heap)
        u = path[-1]
        if closed[u]:
            continue
        closed[u] = True
        if u == dest:
            return list(path)
        row = costs[u, :]
        for v in np.flatnonzero(np.isfinite(row)):
            if not closed[v]:
                heapq.heappush(heap, (d + row[v], path + (int(v),)))
    return None


def _csr_graph(mask: np.ndarray, values: np.ndarray) -> sp.csr_matrix:
    """CSR matrix holding ``values`` at the True entries of ``mask`` in
    row-major order, explicit zeros included."""
    rows, cols = np.nonzero(mask)
    indptr = np.searchsorted(rows, np.arange(mask.shape[0] + 1))
    return sp.csr_matrix((values, cols, indptr), shape=mask.shape)


def _lex_paths(costs: np.ndarray,
               pairs: tuple[tuple[int, int], ...]) -> list[list[int] | None]:
    """Lexicographically smallest min-cost path per (source, dest) pair.

    One csgraph search on the reversed graph, stored as CSR with every
    finite entry of ``costs.T`` (explicit zeros included), gives the
    distances to all destinations. A neighbor v continues a shortest path
    from u exactly when cost(u, v) + rdist(v) == rdist(u); each node's next
    hop is its smallest such neighbor, which for strictly positive costs
    gives the lexicographically smallest shortest path, and each pair
    follows these pointers. A walk that finds no next hop or revisits a node
    (zero costs, or costs lost to rounding) is redone by ``_heap_lex_path``.
    """
    dests = sorted({d for _, d in pairs})
    finite = np.isfinite(costs.T)
    rdist = csgraph.dijkstra(_csr_graph(finite, costs.T[finite]),
                             directed=True, indices=dests)
    tight = costs[None, :, :] + rdist[:, None, :] == rdist[:, :, None]
    next_hop = np.where(tight.any(axis=2), tight.argmax(axis=2), -1).tolist()
    row_of = {d: r for r, d in enumerate(dests)}
    paths: list[list[int] | None] = []
    for source, dest in pairs:
        r = row_of[dest]
        path = [source] if np.isfinite(rdist[r, source]) else None
        while path is not None and path[-1] != dest:
            u = next_hop[r][path[-1]]
            if u < 0 or u in path:
                path = _heap_lex_path(costs, source, dest)
                break
            path.append(u)
        paths.append(path)
    return paths


def shortest_path(costs: LinkCostMatrix, source: int,
                  dest: int) -> list[int] | None:
    """Minimum-total-cost simple path, or None when unreachable.

    Ties break to the path whose node sequence is lexicographically
    smallest. Costs must be nonnegative; entries of +inf mark absent links.
    """
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    if costs.shape != (n, n):
        raise ValueError("cost matrix must be square")
    if not (0 <= source < n and 0 <= dest < n):
        raise ValueError("source or destination outside node range")
    if np.any(costs < 0):
        raise ValueError("costs must be nonnegative")
    return _lex_paths(costs, ((source, dest),))[0]


def assign_routes(sessions: SessionSet, costs: LinkCostMatrix) -> RouteSet:
    """Minimum-cost route per session; raises when a session is unreachable."""
    costs = np.asarray(costs, dtype=float)
    paths = _lex_paths(costs, sessions.sessions)
    for k, path in enumerate(paths):
        if path is None:
            source, dest = sessions.sessions[k]
            raise UnreachableSessionError(k, source, dest)
    return RouteSet(paths=tuple(map(tuple, paths)), n_nodes=costs.shape[0])


def _initial_skeleton(sir: np.ndarray, forbidden: np.ndarray) -> np.ndarray:
    """Sparse strongly-connected digraph of locally strong links.

    Every node contributes its best outgoing link and receives its best
    incoming link (by matched SIR); remaining strongly connected
    components are then merged rounds-wise through their best outgoing
    links. Keeping the skeleton sparse matters: each extra outgoing link
    tightens a node's worst-link power constraint. Ties go to the first
    link in row-major order.
    """
    n = sir.shape[0]
    nodes = np.arange(n)
    usable = np.where(forbidden, -1.0, sir)
    allowed = np.zeros((n, n), dtype=bool)
    best_out = usable.argmax(axis=1)
    strong = usable[nodes, best_out] > 0
    allowed[nodes[strong], best_out[strong]] = True
    best_in = usable.argmax(axis=0)
    strong = usable[best_in, nodes] > 0
    allowed[best_in[strong], nodes[strong]] = True
    while True:
        n_comp, labels = csgraph.connected_components(
            _csr_graph(allowed, np.ones(np.count_nonzero(allowed))),
            directed=True, connection="strong",
        )
        if n_comp == 1:
            break
        # each node's best link out of its own component, then each
        # component's best such node (highest SIR, lowest index first)
        cross = np.where(labels[:, None] != labels[None, :], usable, -np.inf)
        out = cross.argmax(axis=1)
        value = cross[nodes, out]
        order = np.lexsort((nodes, -value, labels))
        first = order[np.flatnonzero(np.diff(labels[order], prepend=-1))]
        i, j = first, out[first]
        new = (value[first] > 0) & ~allowed[i, j]
        if not np.any(new):
            break
        allowed[i[new], j[new]] = True
    return allowed


def _probe_diverging(result) -> bool:
    """Did a short power-control probe show divergence?"""
    if result.status == "infeasible":
        return True
    if result.status == "converged":
        return False
    trace = result.trace
    return len(trace) > 60 and trace[-1] > trace[-51] * 1.001


def initial_routes(scenario: Scenario, gains: LinkGainMatrix,
                   sessions: SessionSet, p_init: np.ndarray) -> RouteSet:
    """Route assignment for the initialization phase.

    Sessions are routed over the skeleton digraph with the target-operated
    energy-per-bit costs, and the resulting active link set is probed with a
    bounded power-control run. When the probe diverges, the weakest link
    among the fastest-growing nodes is banned, the skeleton is rebuilt and
    the sessions rerouted, up to ``_REPAIR_ROUNDS`` times. The last candidate
    is returned even if no repair succeeded; the subsequent full
    power-control run then reports infeasibility honestly.

    The returned routes carry their own probe as ``RouteSet.probe``: a
    synchronous ``pc_iterate`` run from ``p_init`` with the scenario's
    ``pc_tol`` and ``power_cap`` and at most ``_PROBE_ITERATIONS`` steps.
    When a repair round ends in an unreachable session, the previous
    candidate is returned with the probe made on it.
    """
    p_init = np.asarray(p_init, dtype=float)
    sir = matched_sir_matrix(p_init, gains, scenario.spreading_gain,
                             scenario.noise_power)
    base_costs = initial_route_costs(scenario, sir, p_init)

    forbidden = np.zeros_like(sir, dtype=bool)
    routes = None
    for _ in range(_REPAIR_ROUNDS + 1):
        allowed = _initial_skeleton(sir, forbidden)
        costs = np.where(allowed, base_costs, np.inf)
        np.fill_diagonal(costs, np.inf)
        try:
            candidate = assign_routes(sessions, costs)
        except UnreachableSessionError:
            if routes is None:
                raise
            break
        routes = candidate
        probe = pc_iterate(
            p_init, routes.active_links, gains, scenario.spreading_gain,
            scenario.noise_power, scenario.target_sir, tol=scenario.pc_tol,
            max_iter=_PROBE_ITERATIONS, power_cap=scenario.power_cap,
        )
        # attach in place: the candidate is not shared yet, and a copy
        # would drop its cached active link set
        object.__setattr__(routes, "probe", probe)
        if not _probe_diverging(probe):
            break
        # ban the weakest link among the fastest-growing transmitters
        core = np.argsort(probe.powers)[::-1][:max(3, scenario.n_nodes // 12)]
        worst = None
        for i in core:
            for j in routes.active_links.outgoing.get(int(i), ()):
                if worst is None or sir[i, j] < worst[0]:
                    worst = (float(sir[i, j]), int(i), int(j))
        if worst is None:
            break
        forbidden[worst[1], worst[2]] = True
    return routes
