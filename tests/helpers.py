"""Shared builders and brute-force oracles for the test suite."""

import itertools
import warnings

import mpmath
import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from adhocnet import phy
from adhocnet.crosslayer import initial_powers, run_power_control
from adhocnet.experiments import (
    _CAP_CODEBOOK_STREAM,
    _CAP_POSITION_STREAM,
    _CAP_POWER_STREAM,
    _CAP_SESSION_STREAM,
    CapacityResult,
)
from adhocnet.netmodel import (
    SpreadingCodebook,
    compute_link_gains,
    generate_sessions,
    generate_spreading_codebook,
    pair_gains,
)
from adhocnet.phy import (
    CONDITION_WARN_THRESHOLD,
    _interference_covariance,
    link_energies,
    lmmse_filter,
    lmmse_solve,
)
from adhocnet.powercontrol import (
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    ActiveLinkSet,
    PcResult,
    power_targets,
)
from adhocnet.routing import initial_routes
from adhocnet.seeds import derive_seed


def _residual(new: np.ndarray, ref: np.ndarray) -> float:
    """Largest relative update |new - ref| / max(ref, eps), the power
    solvers' stopping test."""
    return float(np.max(np.abs(new - ref) / np.maximum(ref, 1e-30)))


def generate_sessions_loop(n_nodes: int, seed: int):
    """Per-node scalar draws of ``netmodel.generate_sessions``, kept as its
    reference: each source draws one of the other n - 1 nodes."""
    rng = np.random.default_rng(seed)
    sessions = []
    for source in range(n_nodes):
        dest = int(rng.integers(0, n_nodes - 1))
        if dest >= source:
            dest += 1
        sessions.append((source, dest))
    return tuple(sessions)


def topology_from_positions(positions):
    """Read-only float (n, 2) positions, as ``generate_topology`` returns."""
    pos = np.asarray(positions, dtype=float)
    pos.setflags(write=False)
    return pos


def random_network(rng, n, area=200.0, path_loss_exp=2.0):
    positions = rng.uniform(0.0, area, size=(n, 2))
    topology = topology_from_positions(positions)
    return topology, compute_link_gains(topology, path_loss_exp)


def random_active_links(rng, n, max_out=2, min_out=1):
    """Random active link set; each node gets min_out..max_out outgoing
    links."""
    links = []
    for i in range(n):
        n_out = int(rng.integers(min_out, max_out + 1))
        targets = rng.choice([j for j in range(n) if j != i],
                             size=min(n_out, n - 1), replace=False)
        links.extend((i, int(j)) for j in targets)
    return ActiveLinkSet(n, links)


def single_outgoing_instance(rng, n, spreading_gain, target_sir, noise,
                             area=200.0, rho_max=0.9):
    """Random instance where every node has exactly one outgoing link and
    the linearized system is feasible with margin; returns the exact fixed
    point from the linear solve as an oracle, or None when infeasible.

    Draws exactly what ``single_outgoing_instance_loop`` draws and returns
    the same instances; the destinations come from one ``rng.integers``
    call instead of ``rng.choice`` per node, the coupling matrix is built
    from ``netmodel.pair_gains`` with array operations, and the read-only
    topology, gains and link set only for accepted instances. Draws whose
    two-cycle bound on the spectral radius already reaches ``rho_max`` are
    rejected before ``eigvals``; every draw comes earlier.
    """
    positions = rng.uniform(0.0, area, size=(n, 2))
    # the bounded integers rng.choice(others) draws one node at a time
    nodes = np.arange(n)
    dests = rng.integers(0, n - 1, size=n)
    dests += dests >= nodes  # skip the node itself
    g = pair_gains(positions, 2.0)
    g_link = g[nodes, dests]
    m = target_sir / spreading_gain * g[:, dests].T / g_link[:, None]
    m[nodes, nodes] = 0.0
    m[nodes, dests] = 0.0
    b = target_sir * noise / g_link
    # rho(m) >= max sqrt(m_ik m_ki) for a nonnegative m
    if np.sqrt(np.max(m * m.T)) >= rho_max:
        return None
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    if rho >= rho_max:
        return None
    fixed_point = np.linalg.solve(np.eye(n) - m, b)
    if np.any(fixed_point <= 0):
        return None
    topology = topology_from_positions(positions)
    gains = compute_link_gains(topology, 2.0)
    active = ActiveLinkSet(n, np.column_stack([nodes, dests]))
    return topology, gains, active, fixed_point, rho


def single_outgoing_instance_loop(rng, n, spreading_gain, target_sir, noise,
                                  area=200.0, rho_max=0.9):
    """Per-entry loop form of ``single_outgoing_instance``, kept as its
    reference."""
    topology, gains = random_network(rng, n, area)
    dests = [int(rng.choice([j for j in range(n) if j != i])) for i in range(n)]
    active = ActiveLinkSet(n, [(i, dests[i]) for i in range(n)])
    g = gains
    m = np.zeros((n, n))
    b = np.zeros(n)
    for i in range(n):
        j = dests[i]
        for k in range(n):
            if k != i and k != j:
                m[i, k] = target_sir / spreading_gain * g[k, j] / g[i, j]
        b[i] = target_sir * noise / g[i, j]
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    if rho >= rho_max:
        return None
    fixed_point = np.linalg.solve(np.eye(n) - m, b)
    if np.any(fixed_point <= 0):
        return None
    return topology, gains, active, fixed_point, rho


def enumerate_simple_paths(costs, source, dest):
    """All simple paths with finite total cost, as (cost, path) pairs."""
    n = costs.shape[0]
    others = [v for v in range(n) if v not in (source, dest)]
    results = []
    for r in range(len(others) + 1):
        for middle in itertools.permutations(others, r):
            path = (source,) + middle + (dest,)
            total = 0.0
            for a, b in zip(path[:-1], path[1:]):
                total += costs[a, b]
                if not np.isfinite(total):
                    break
            if np.isfinite(total):
                results.append((total, path))
    return results


def brute_force_shortest(costs, source, dest):
    """Minimum-cost simple path with lexicographic tie-break, or None."""
    paths = enumerate_simple_paths(costs, source, dest)
    if not paths:
        return None
    best_cost = min(c for c, _ in paths)
    ties = [p for c, p in paths if c == best_cost]
    return list(min(ties))


def simplex_grid_search(pmat, target, step=1e-3):
    """Objective minimum of ||P w - target||^2 over a simplex grid.

    Supports up to three candidates; the grid walks the first N_s - 1
    coordinates in increments of ``step``.
    """
    n_cand = pmat.shape[1]
    if n_cand == 1:
        w = np.array([1.0])
        r = pmat @ w - target
        return float(r @ r), w
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    best = (np.inf, None)
    if n_cand == 2:
        w1 = ticks
        weights = np.stack([w1, 1.0 - w1])
    else:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        arr = np.stack([a[keep], b[keep]])
        weights = np.vstack([arr, 1.0 - arr.sum(axis=0)])
    residual = pmat @ weights - target[:, None]
    objectives = np.einsum("ij,ij->j", residual, residual)
    k = int(np.argmin(objectives))
    return float(objectives[k]), weights[:, k].copy()


def initial_skeleton_loop(sir, forbidden):
    """Per-node and per-component loop form of ``routing._initial_skeleton``.

    Kept as the reference for the vectorised version: best outgoing and
    incoming link per node, then component merges through each component's
    best outgoing link, ties to the first entry in row-major order.
    """
    n = sir.shape[0]
    usable = np.where(forbidden, -1.0, sir)
    allowed = np.zeros((n, n), dtype=bool)
    for i in range(n):
        j = int(np.argmax(usable[i]))
        if usable[i, j] > 0:
            allowed[i, j] = True
    for j in range(n):
        i = int(np.argmax(usable[:, j]))
        if usable[i, j] > 0:
            allowed[i, j] = True
    while True:
        n_comp, labels = csgraph.connected_components(
            sp.csr_matrix(allowed), directed=True, connection="strong"
        )
        if n_comp == 1:
            break
        added = False
        for comp in range(n_comp):
            members = np.flatnonzero(labels == comp)
            outside = np.flatnonzero(labels != comp)
            block = usable[np.ix_(members, outside)]
            k = int(np.argmax(block))
            i = int(members[k // outside.size])
            j = int(outside[k % outside.size])
            if block.flat[k] > 0 and not allowed[i, j]:
                allowed[i, j] = True
                added = True
        if not added:
            break
    return allowed


def mud_targets(p: np.ndarray, active: ActiveLinkSet, gains: np.ndarray,
                codebook: SpreadingCodebook, noise: float, target_sir: float,
                filters: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """Per-node power update for given receiver filters (worst outgoing link).

    Per link: target_sir * ( sum_{k != i,j} P_k h(k,j) (c's_k)^2
    + noise c'c ) / ( h(i,j) (c's_i)^2 ).
    """
    g = gains
    seqs = codebook.sequences
    targets = np.zeros(active.n_nodes)
    for (i, j) in active.links:
        c = filters[(i, j)]
        x = seqs @ c
        weights = p * g[:, j] * x * x
        weights[i] = 0.0
        weights[j] = 0.0
        num = float(np.sum(weights)) + noise * float(c @ c)
        required = target_sir * num / (g[i, j] * x[i] * x[i])
        if required > targets[i]:
            targets[i] = required
    return targets


def pc_mud_two_step(p0: np.ndarray, active: ActiveLinkSet,
                    gains: np.ndarray, codebook: SpreadingCodebook,
                    noise: float, target_sir: float, *,
                    tol: float = 1e-6, max_iter: int = 10_000,
                    power_cap: float = 1.0,
                    filter_mode: str = "lmmse") -> PcResult:
    """Two-step loop form of ``powercontrol.pc_mud_iterate``, kept as its
    reference: alternate receiver-filter and power updates until the powers
    settle.

    Step 1 recomputes the per-link filters from the current powers (LMMSE,
    or the fixed matched filters when ``filter_mode="matched"``, which gives
    the exact-cross-correlation matched iteration that
    ``exact_matched_solve`` solves exactly). Step 2 applies the
    corresponding power update per worst outgoing link.
    """
    if np.any(np.asarray(p0) < 0):
        raise ValueError("initial powers must be nonnegative")
    if filter_mode not in ("lmmse", "matched"):
        raise ValueError(f"unknown filter_mode {filter_mode!r}")
    p = np.array(p0, dtype=float)
    mask = np.zeros(active.n_nodes, dtype=bool)
    mask[list(active.transmitters)] = True
    p[~mask] = 0.0
    totals = [float(p.sum())]
    if np.any(p > power_cap):
        frozen = p.copy()
        frozen.setflags(write=False)
        return PcResult(STATUS_INFEASIBLE, frozen, 0, np.asarray(totals))

    matched = {(i, j): codebook.sequences[i] for (i, j) in active.links}

    def filters_at(powers):
        if filter_mode == "matched":
            return matched
        out = {}
        for (i, j) in active.links:
            c = lmmse_filter(i, powers, gains, codebook, noise, j)
            if not np.any(c):
                # zero power zeroes the MMSE scale; the power update is
                # scale invariant, so keep the optimal direction instead
                cov = _interference_covariance(i, powers, gains, codebook,
                                               noise, j)
                c = np.linalg.solve(cov, codebook.sequences[i])
            out[(i, j)] = c
        return out

    filters = filters_at(p)
    for iteration in range(1, max_iter + 1):
        t = mud_targets(p, active, gains, codebook, noise, target_sir, filters)
        if _residual(t, p) <= tol:
            powers = p.copy()
            powers.setflags(write=False)
            return PcResult(STATUS_CONVERGED, powers, iteration,
                            np.asarray(totals))
        p = t
        totals.append(float(p.sum()))
        if np.any(p > power_cap):
            break
        filters = filters_at(p)
    status = STATUS_INFEASIBLE if np.any(p > power_cap) else STATUS_MAX_ITER
    powers = p.copy()
    powers.setflags(write=False)
    return PcResult(status, powers, min(iteration, max_iter),
                    np.asarray(totals))


def exact_matched_solve(active: ActiveLinkSet, gains: np.ndarray,
                        codebook: SpreadingCodebook, noise: float,
                        target_sir: float, *,
                        power_cap: float = 1.0) -> PcResult:
    """Minimal fixed point of the exact-cross-correlation matched update,
    the baseline the LMMSE receiver is compared with, for a link set with
    one link per sender.

    Link (i, j) needs target_sir * (sum_{k != i,j} P_k h(k,j) rho_ik^2
    + noise) / h(i,j), rho the Gram matrix of the sequences, so the senders'
    powers solve (I - F) p = a. F is nonnegative and a positive, so the
    iteration from zero converges exactly when the solution is nonnegative
    (Perron-Frobenius), and stays under the cap exactly when the solution
    does: "converged" when it lies in [0, power_cap], else "infeasible",
    a singular system included. ``iterations`` is 1, the one solve.
    """
    i_idx, j_idx = active.link_arrays
    if len(set(i_idx.tolist())) != len(i_idx):
        raise ValueError("exact_matched_solve needs one link per sender")
    g = gains[i_idx, j_idx]
    f = target_sir * (codebook.gram[np.ix_(i_idx, i_idx)] ** 2
                      * gains[np.ix_(i_idx, j_idx)].T / g[:, None])
    np.fill_diagonal(f, 0.0)  # k = i; k = j has zero gain h(j, j)
    try:
        x = np.linalg.solve(np.eye(len(g)) - f, target_sir * noise / g)
        feasible = bool(x.min() >= 0.0 and x.max() <= power_cap)
    except np.linalg.LinAlgError:
        x, feasible = np.full(len(g), np.nan), False
    powers = np.zeros(active.n_nodes)
    powers[i_idx] = x
    powers.setflags(write=False)
    return PcResult(STATUS_CONVERGED if feasible else STATUS_INFEASIBLE,
                    powers, 1, np.array([float(x.sum())]))


def pc_iterate_loop(p0: np.ndarray, active: ActiveLinkSet,
                    gains: np.ndarray, spreading_gain: int, noise: float,
                    target_sir: float, *, tol: float = 1e-6,
                    max_iter: int = 10_000,
                    power_cap: float = 1.0) -> PcResult:
    """Per-step synchronous loop of ``powercontrol.pc_iterate`` in its
    ``power_targets`` form, kept as the reference for the fixed-policy
    blocks of ``powercontrol._affine_steps``."""
    if np.any(np.asarray(p0) < 0):
        raise ValueError("initial powers must be nonnegative")
    p = np.array(p0, dtype=float)
    # nodes outside the transmitter set hold zero power throughout
    mask = np.zeros(active.n_nodes, dtype=bool)
    mask[list(active.transmitters)] = True
    p[~mask] = 0.0
    totals = [float(p.sum())]

    def finish(status, powers, iterations):
        powers = powers.copy()
        powers.setflags(write=False)
        return PcResult(status, powers, iterations, np.asarray(totals))

    if np.any(p > power_cap):
        return finish(STATUS_INFEASIBLE, p, 0)
    for iteration in range(1, max_iter + 1):
        t = power_targets(p, active, gains, spreading_gain, noise, target_sir)
        if _residual(t, p) <= tol:
            return finish(STATUS_CONVERGED, p, iteration)
        p = t
        totals.append(float(p.sum()))
        if np.any(p > power_cap):
            return finish(STATUS_INFEASIBLE, p, iteration)
    return finish(STATUS_MAX_ITER, p, max_iter)


def gauss_seidel_sweep(p0: np.ndarray, active: ActiveLinkSet,
                       gains: np.ndarray, spreading_gain: int,
                       noise: float, target_sir: float, *, tol: float,
                       max_sweeps: int) -> np.ndarray | None:
    """Matched power iteration under an asynchronous schedule, kept as the
    reference that the fixed point does not depend on the update order.

    Each sweep updates the transmitters in node order and in place, each to
    its ``power_targets`` entry at the latest powers (Gauss-Seidel). Stops
    once a sweep moves no power by more than ``tol`` (relative) and the
    synchronous residual passes as well; returns None when that takes more
    than ``max_sweeps`` sweeps.
    """
    p = np.zeros(active.n_nodes)
    senders = list(active.transmitters)
    p[senders] = np.asarray(p0, dtype=float)[senders]
    for _ in range(max_sweeps):
        previous = p.copy()
        for i in senders:
            p[i] = power_targets(p, active, gains, spreading_gain, noise,
                                 target_sir)[i]
        if _residual(p, previous) <= tol:
            t = power_targets(p, active, gains, spreading_gain, noise,
                              target_sir)
            if _residual(t, p) <= tol:
                return p
    return None


def same_pc_result(a: PcResult, b: PcResult) -> bool:
    """Bit-for-bit equality of two power-control results."""
    return (a.status, a.iterations, a.powers.tobytes(), a.trace.tobytes()) \
        == (b.status, b.iterations, b.powers.tobytes(), b.trace.tobytes())


def same_pc_steps(got: PcResult, want: PcResult, rtol: float = 1e-10):
    """Assert that two power-control runs took the same steps: equal status,
    iteration count and trace length, powers and trace equal within ``rtol``
    (relative), as two float orders of the same update give."""
    assert (got.status, got.iterations, len(got.trace)) \
        == (want.status, want.iterations, len(want.trace))
    assert np.allclose(got.powers, want.powers, rtol=rtol, atol=0.0)
    assert np.allclose(got.trace, want.trace, rtol=rtol, atol=0.0)


def count_factorizations(monkeypatch, fail=()) -> list:
    """Empty ``phy.lmmse_solve``'s memo, then record the shape of every
    matrix it factors; the factorizations numbered in ``fail`` (from 1)
    report a failure."""
    factored = []
    monkeypatch.setattr(phy, "_memo", ((), {}))
    for name in ("dpotrf", "dgetrf"):
        def counted(a, _factor=getattr(phy, name), **kwargs):
            factored.append(a.shape)
            *factor, info = _factor(a, **kwargs)
            return (*factor, 1 if len(factored) in fail else info)

        monkeypatch.setattr(phy, name, counted)
    return factored


def count_solves(monkeypatch) -> list:
    """Record the name of every solve ``phy.lmmse_solve`` makes on a kept
    factor: ``dpotrs`` (Cholesky) or ``dgetrs`` (LU)."""
    solves = []
    for name in ("dpotrs", "dgetrs"):
        def counted(*args, _name=name, _solve=getattr(phy, name), **kwargs):
            solves.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(phy, name, counted)
    return solves


def route_energy_loop(routes, p, link_sir, scenario) -> float:
    """``crosslayer._route_energy`` as a dict of link energies and a loop
    over every path's links, kept as its reference."""
    active = routes.active_links
    energy = dict(zip(active.links, link_energies(
        p[active.link_arrays[0]], link_sir, scenario.bit_rate,
        scenario.packet_bits).tolist()))
    total = 0.0
    for path in routes.paths:
        for link in zip(path[:-1], path[1:]):
            total += energy[link]
    return total


def link_set_loop(n_nodes: int, links) -> tuple[tuple[int, int], ...]:
    """Per-link form of the ``ActiveLinkSet`` constructor, kept as its
    reference: the sorted unique links, or the ValueError of the first bad
    one in sorted order (a non-integer node, a self loop or a node outside
    0..n_nodes-1)."""
    for i, j in sorted(set(map(tuple, links))):
        if not (isinstance(i, (int, np.integer))
                and isinstance(j, (int, np.integer))
                and i != j and 0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"link ({i}, {j}) needs two distinct integer "
                             f"nodes in 0..{n_nodes - 1}")
    return tuple(sorted(set((int(i), int(j)) for i, j in links)))


def route_set_loop(n_nodes: int, paths) -> tuple[tuple[int, int], ...]:
    """Per-path form of the ``RouteSet`` constructor, kept as its reference:
    every path's length (two nodes at least) first, then ``link_set_loop``
    over the consecutive pairs, then that no path repeats a node."""
    for path in paths:
        if len(path) < 2:
            raise ValueError("a route needs at least two nodes")
    links = link_set_loop(n_nodes, [link for path in paths
                                    for link in zip(path[:-1], path[1:])])
    for path in paths:
        if len(set(path)) != len(path):
            raise ValueError(f"route {path} repeats a node")
    return links


def all_pairs(n: int):
    """(i_idx, j_idx) of every ordered pair of n nodes, self-pairs included,
    in row-major order: ``lmmse_solve`` of them reshapes to q[i, j]."""
    return np.divmod(np.arange(n * n), n)


def lmmse_sir_matrix_all_pairs(p: np.ndarray, gains: np.ndarray,
                               codebook: SpreadingCodebook,
                               noise: float) -> np.ndarray:
    """``phy.lmmse_sir_matrix`` with every pair solved, kept as the
    reference for its gate pruning: SIR c q / (1 - c q) of c = P_i h(i,j),
    zero where c is zero, q is NaN or i = j."""
    n = p.shape[0]
    q = lmmse_solve(p, gains, codebook, noise, *all_pairs(n)).reshape(n, n)
    c = p[:, None] * gains
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = c * q / (1.0 - c * q)
    sir[np.isnan(q) | (c == 0.0)] = 0.0
    np.fill_diagonal(sir, 0.0)
    return sir


def lmmse_kernel_lu(p: np.ndarray, gains: np.ndarray,
                    codebook: SpreadingCodebook, noise: float,
                    i_idx: np.ndarray, j_idx: np.ndarray):
    """The LU form of ``phy.lmmse_solve``, kept as its reference.

    q[l] = s_i' B_j^-1 s_i for i = i_idx[l] and j = j_idx[l], from one LU
    solve per distinct receiver. For n <= L it solves the non-symmetric
    A_j = noise I + D_j G in sequence space (B_j^-1 S' = S' A_j^-1,
    q = G[i] z for z = A_j^-1 e_i); for n > L it solves
    K_j = noise I + U D_j U' in the span of the sequences (S' = Q U).
    """
    n = p.shape[0]
    i_idx, j_idx = np.asarray(i_idx), np.asarray(j_idx)
    w_link = p[i_idx] * gains[i_idx, j_idx]
    bound = ((p @ gains)[j_idx] - w_link
             + codebook.length * noise) / noise
    if bound.size and float(bound.max()) > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"LMMSE covariance condition bound {float(bound.max()):.3e} "
            f"exceeds {CONDITION_WARN_THRESHOLD:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    q = np.empty(len(i_idx))
    for j in np.unique(j_idx):
        at = j_idx == j
        senders = i_idx[at]
        w = p * gains[:, j]  # zero at the receiver
        if n <= codebook.length:
            # sequence space: A_j = noise I + D_j G, right-hand sides e_i,
            # and q = G[i] z, G being symmetric
            gram = codebook.gram
            a = w[:, None] * gram
            rhs = np.eye(n)[senders].T  # (n, d)
            lhs = gram[senders].T
        else:
            # span: K_j = noise I + U D_j U', right-hand sides u_i
            u = codebook.span
            a = (u * w) @ u.T
            rhs = lhs = u[:, senders]  # (r, d)
        a[np.diag_indices_from(a)] += noise
        q[at] = np.einsum("rd,rd->d", lhs, np.linalg.solve(a, rhs))
    return q


def lmmse_q_mpmath(p: np.ndarray, gains: np.ndarray,
                   codebook: SpreadingCodebook, noise: float, links,
                   digits: int = 40) -> np.ndarray:
    """q = s_i' B_j^-1 s_i of each link (i, j) at ``digits`` significant
    digits: B_j = sum_{k != j} P_k h(k,j) s_k s_k' + noise I is formed
    from the float inputs in the full L-dimensional chip space and factored
    by one mpmath LU per receiver."""
    q = {}
    with mpmath.workdps(digits):
        rows = codebook.sequences.tolist()
        seqs = mpmath.matrix(rows)
        for j in sorted({j for _, j in links}):
            weights = [mpmath.mpf(pk) * mpmath.mpf(hk) for pk, hk
                       in zip(p.tolist(), gains[:, j].tolist())]
            scaled = mpmath.matrix([[w * x for x in row]
                                    for w, row in zip(weights, rows)])
            cov = seqs.T * scaled + noise * mpmath.eye(codebook.length)
            lu, perm = mpmath.mp.LU_decomp(cov)
            for i in sorted({i for i, jj in links if jj == j}):
                s_i = seqs[i, :].T
                x = mpmath.mp.U_solve(lu, mpmath.mp.L_solve(lu, s_i.copy(),
                                                            perm))
                q[i, j] = float((s_i.T * x)[0])
    return np.array([q[link] for link in links])


def _capacity_instance_feasible_loop(template, spreading_gain, n_nodes,
                                     positions_all, seed, trial) -> bool:
    """One instance of ``capacity_search_loop``, built from scratch."""
    scenario = template.replace(n_nodes=n_nodes, spreading_gain=spreading_gain)
    gains = compute_link_gains(positions_all[:n_nodes], scenario.path_loss_exp)
    sessions = generate_sessions(
        n_nodes, derive_seed(seed, _CAP_SESSION_STREAM, trial, n_nodes)
    )
    p0 = initial_powers(scenario, np.random.default_rng(
        derive_seed(seed, _CAP_POWER_STREAM, trial, n_nodes)))
    routes, check = initial_routes(scenario, gains, sessions, p0)
    if scenario.receiver == "matched":
        return check.converged
    codebook = generate_spreading_codebook(
        n_nodes, spreading_gain,
        derive_seed(seed, _CAP_CODEBOOK_STREAM, trial, n_nodes),
    )
    return run_power_control(scenario, p0, routes, gains, codebook).converged


def capacity_search_loop(scenario_template, spreading_gain, trials,
                         feasibility_target, seed, *, n_min=40, n_max=65,
                         n_step=5) -> CapacityResult:
    """Per-instance form of ``experiments.capacity_search``, kept as its
    reference: every judged instance builds its scenario, topology, gains
    and initial-power generator anew from the trial's n_max positions."""
    positions = []
    for trial in range(trials):
        rng = np.random.default_rng(
            derive_seed(seed, _CAP_POSITION_STREAM, trial)
        )
        positions.append(
            rng.uniform(0.0, scenario_template.area_side, size=(n_max, 2))
        )

    alive = np.ones(trials, dtype=bool)
    n_values, rates, n_star = [], [], None
    for n_nodes in range(n_min, n_max + 1, n_step):
        for trial in range(trials):
            if not alive[trial]:
                continue
            alive[trial] = _capacity_instance_feasible_loop(
                scenario_template, spreading_gain, n_nodes, positions[trial],
                seed, trial,
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
