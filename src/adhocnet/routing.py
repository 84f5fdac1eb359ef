"""Power-aware route computation.

The routing layer sees only the node powers and link gains. From them the
receiver's SIR of every potential link (active or not) is computed in phy:
``phy.matched_sir_matrix`` for the matched filter, the one place the matched
SIR is computed, or ``phy.lmmse_sir_matrix``, zero on the links whose
single-user bound rules out the gate. The gate gives links below the SIR
target infinite cost, prices the remaining links at the transmitter's power,
and finds all distances to the session destinations with one csgraph
Dijkstra call. Each session then follows per-destination next-hop pointers,
found on the finite links alone, along the lexicographically smallest
minimum-cost route. The SIR matrices read only powers and gains, so they do
not depend on which routes are in use.

Initialization differs: before the first power-control run there are no
optimized powers to price links with, so links are priced by the energy per
bit they would consume if operated at the SIR target given the initial
interference, every link stays finite, and the route assignment is built on
a sparse strongly-connected skeleton of locally strong links, merged
without a graph search per round, and checked by ``powercontrol.pc_solve``
to admit feasible matched power control; ``initial_routes`` returns that
check beside the routes. The check alone decides: after a failed one, a
``pc_iterate`` probe from the initial powers only ranks the nodes for the
next of ``_REPAIR_ROUNDS`` skeleton repairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import (ConfigError, UnreachableSessionError, check_gains,
                     check_links, check_powers)
from .netmodel import Scenario
from .phy import efficiency, matched_sir_matrix
from .powercontrol import ActiveLinkSet, PcResult, pc_iterate, pc_solve

# Skeleton repairs after a failed check, and the ranking probe's step budget.
_REPAIR_ROUNDS = 8
_PROBE_ITERATIONS = 1500


def build_link_costs(p: np.ndarray, sir: np.ndarray,
                     target_sir: float) -> np.ndarray:
    """SIR-gated link costs: the transmitter's power when the link's SIR in
    ``sir`` reaches the target (boundary included), +inf otherwise.

    ``sir`` is the all-pairs SIR matrix of the receiver in use at ``p``:
    ``phy.matched_sir_matrix`` or ``phy.lmmse_sir_matrix``. ConfigError
    names ``sir`` unless it is square, or ``p`` as ``check_powers`` does.
    """
    if sir.ndim != 2 or sir.shape[0] != sir.shape[1]:
        raise ConfigError(f"sir must be square, got shape {sir.shape}")
    p = check_powers("p", p, len(sir))
    costs = np.where(sir >= target_sir, p[:, None], np.inf)
    np.fill_diagonal(costs, np.inf)
    return costs


def initial_route_costs(scenario: Scenario, sir: np.ndarray,
                        p_init: np.ndarray) -> np.ndarray:
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
    """One node path per session plus the derived active link set."""

    paths: tuple[tuple[int, ...], ...]
    n_nodes: int
    active_links: ActiveLinkSet = field(init=False, repr=False, compare=False)
    _pairs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        senders, receivers = [], []
        for path in self.paths:
            if len(path) < 2:
                raise ValueError("a route needs at least two nodes")
            senders.extend(path[:-1])
            receivers.extend(path[1:])
        pairs = np.array((senders, receivers))  # the nodes' dtype, path order
        object.__setattr__(self, "_pairs", pairs)
        # a bad link (a self loop too) is named first, by its own nodes
        links = ActiveLinkSet(self.n_nodes, pairs.T if pairs.dtype.kind in "iu"
                              else zip(senders, receivers))
        object.__setattr__(self, "active_links", links)
        for path in self.paths:
            if len(set(path)) != len(path):
                raise ValueError(f"route {path} repeats a node")

    @cached_property
    def path_links(self) -> np.ndarray:
        """Each path link's index in ``active_links.links``, in path order."""
        i, j = self.active_links.link_arrays
        codes = self._pairs[0] * self.n_nodes + self._pairs[1]
        return np.searchsorted(i * self.n_nodes + j, codes)


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


def _lex_paths(costs: np.ndarray,
               pairs: tuple[tuple[int, int], ...]) -> list[list[int] | None]:
    """Lexicographically smallest min-cost path per (source, dest) pair.

    One csgraph search on the reversed graph, stored as CSR with every
    finite entry of ``costs.T`` (explicit zeros included), gives the
    distances to all destinations. A finite link (u, v) continues a shortest
    path from u exactly when cost(u, v) + rdist(v) == rdist(u); each node's
    next hop is its smallest such neighbor, which for strictly positive
    costs gives the lexicographically smallest shortest path, and each pair
    follows these pointers. A walk that finds no next hop or reaches n nodes
    without the destination, so revisits one (zero costs, or costs lost to
    rounding), is redone by ``_heap_lex_path``.
    """
    n = costs.shape[0]
    dests = sorted({d for _, d in pairs})
    v, u = np.nonzero(np.isfinite(costs.T))
    indptr = np.searchsorted(v, np.arange(n + 1))
    reverse = sp.csr_matrix((costs[u, v], u, indptr), shape=(n, n))
    rdist = csgraph.dijkstra(reverse, directed=True, indices=dests)
    u, v = np.nonzero(np.isfinite(costs))
    rows, links = np.nonzero(costs[u, v] + rdist[:, v] == rdist[:, u])
    # links run in row-major order, so each (row, u)'s first has the lowest v
    first = np.diff(rows * n + u[links], prepend=-1) > 0
    next_hop = np.full(rdist.shape, -1)
    next_hop[rows[first], u[links[first]]] = v[links[first]]
    next_hop, reached = next_hop.tolist(), np.isfinite(rdist).tolist()
    row_of = {d: r for r, d in enumerate(dests)}
    paths: list[list[int] | None] = []
    for source, dest in pairs:
        r = row_of[dest]
        path = [source] if reached[r][source] else None
        while path is not None and path[-1] != dest:
            hop = next_hop[r][path[-1]]
            if hop < 0 or len(path) == n:
                path = _heap_lex_path(costs, source, dest)
                break
            path.append(hop)
        paths.append(path)
    return paths


def assign_routes(sessions: tuple[tuple[int, int], ...],
                  costs: np.ndarray) -> RouteSet:
    """Minimum-cost route per session. ConfigError names ``costs`` unless
    square with entries >= 0 or +inf (no link), else the first bad session
    (``errors.check_links``); UnreachableSessionError the first unreachable."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1] \
            or not (costs >= 0).all():
        raise ConfigError("costs must be square with entries >= 0 or +inf")
    n = costs.shape[0]
    check_links("session", sessions, n)
    paths = _lex_paths(costs, sessions)
    for k, path in enumerate(paths):
        if path is None:
            source, dest = sessions[k]
            raise UnreachableSessionError(k, source, dest)
    return RouteSet(paths=tuple(map(tuple, paths)), n_nodes=n)


def _initial_skeleton(sir: np.ndarray, forbidden: np.ndarray) -> np.ndarray:
    """Sparse strongly-connected digraph of locally strong links.

    Every node contributes its best outgoing link and receives its best
    incoming link (by matched SIR); remaining strongly connected
    components are then merged rounds-wise through their best outgoing
    links. Keeping the skeleton sparse matters: each extra outgoing link
    tightens a node's worst-link power constraint. Ties go to the first
    link in row-major order.

    Components are read off a reflexive reachability matrix, closed once
    by squaring and kept closed with one outer product per added link. Each
    round re-scans every node's links out of its own component. A component
    that did not grow re-picks a link already in the skeleton or without
    positive SIR, so the rounds end at one component or no link added.
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
    # square until closed; float32 counts up to n paths exactly
    reach, closed = None, allowed | np.eye(n, dtype=bool)
    while not np.array_equal(reach, closed):
        reach = closed
        step = reach.astype(np.float32)
        closed = step @ step > 0
    while True:
        same = reach & reach.T
        heads = np.flatnonzero(same.argmax(axis=1) == nodes)
        if len(heads) == 1:
            break
        # each node's best link out of its own component, then each
        # component's best such node (highest SIR, lowest index first)
        cross = np.where(same, -np.inf, usable)
        out = cross.argmax(axis=1)
        value = cross[nodes, out]
        i = np.where(same[heads], value, -np.inf).argmax(axis=1)
        j = out[i]
        new = (value[i] > 0) & ~allowed[i, j]
        if not np.any(new):
            break
        for a, b in zip(i[new].tolist(), j[new].tolist()):
            allowed[a, b] = True
            reach |= reach[:, a, None] & reach[b]
    return allowed


def initial_routes(scenario: Scenario, gains: np.ndarray,
                   sessions: tuple[tuple[int, int], ...],
                   p_init: np.ndarray) -> tuple[RouteSet, PcResult]:
    """Route assignment for the initialization phase, and its check.

    Sessions are routed over the skeleton digraph with the target-operated
    energy-per-bit costs, and a candidate is accepted when its ``pc_solve``
    check passes. Otherwise the weakest link among the nodes of largest
    power in a ``pc_iterate`` probe from ``p_init`` is banned, the skeleton
    rebuilt and the sessions rerouted, up to ``_REPAIR_ROUNDS`` times.
    Returns the last candidate, even if no repair passed, or the previous
    one when a repair strands a session, each with its own ``pc_solve``
    check. ConfigError names ``gains`` unless they are a finite, nonnegative
    square array, or ``p_init`` unless it holds one such power per node.
    """
    check_gains(gains, len(gains))
    p_init = check_powers("p_init", p_init, len(gains))
    sir = matched_sir_matrix(p_init, gains, scenario.spreading_gain,
                             scenario.noise_power)
    base_costs = initial_route_costs(scenario, sir, p_init)

    forbidden = np.zeros_like(sir, dtype=bool)
    found = None
    for repairs in range(_REPAIR_ROUNDS + 1):
        costs = np.where(_initial_skeleton(sir, forbidden), base_costs, np.inf)
        try:
            routes = assign_routes(sessions, costs)
        except UnreachableSessionError:
            if found is None:
                raise
            break
        model = (routes.active_links, gains, scenario.spreading_gain,
                 scenario.noise_power, scenario.target_sir)
        check = pc_solve(*model, power_cap=scenario.power_cap)
        found = routes, check
        if check.converged or repairs == _REPAIR_ROUNDS:
            break
        probe = pc_iterate(p_init, *model, tol=scenario.pc_tol,
                           max_iter=_PROBE_ITERATIONS,
                           power_cap=scenario.power_cap)
        # ban the weakest link among the fastest-growing transmitters (the
        # top one sends: only senders have power), the first on ties
        core = np.argsort(probe.powers)[::-1][:max(3, scenario.n_nodes // 12)]
        links = [(i, j) for i in core.tolist()
                 for j in routes.active_links.outgoing.get(i, ())]
        forbidden[min(links, key=sir.__getitem__)] = True
    return found
