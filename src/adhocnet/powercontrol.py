"""Fixed-point transmit power solvers.

The per-node update T_i(p) is the smallest power letting the node's worst
outgoing active link reach the target SIR given everyone else's current
power. T is a standard interference function (positive, monotone, scalable),
so iterating p <- T(p) converges to the minimal feasible power vector under
any update schedule whenever the system is feasible; divergence is detected
by the power cap or the iteration budget.

Every receiver runs the same synchronous loop, ``_fixed_point``. A receiver
supplies only the power each active link requires at the current iterate;
the loop takes each node's worst outgoing link, applies the residual test,
the power cap and the iteration budget, and records the total power of
every iterate. ``pc_iterate`` requires
target * ((1/L) sum_{k != i,j} h(k,j) P_k + noise) / h(i,j), the 1/L
matched-filter model; ``pc_mud_iterate`` uses the exact sequence
cross-correlations, with the LMMSE filter or fixed matched filters.

The 1/L matched update is a maximum of affine maps, T(p) = max a + F p over
each node's links, so ``pc_solve`` finds its minimal fixed point exactly by
policy iteration (Howard): solve (I - F) p = a for one link per node,
re-pick each node's worst link at p, repeat until none changes. T is
monotone (Yates), so the solutions rise to the minimal fixed point; a
singular, negative or over-cap solve proves infeasibility (Perron-Frobenius;
Zander, Foschini-Miljanic). Verdicts come from it, powers from iteration.

With the LMMSE receiver, optimizing the filter at the current powers and
then solving for the power that meets the target collapses to the closed
form of Ulukus and Yates: T_i(p) = max_j target * (1 - c q) / (h(i,j) q), with
q = s_i' B_j^-1 s_i from the kernel ``phy.lmmse_solve`` and c = P_i h(i,j).
The kernel takes one Cholesky factorization per receiver, of
noise G^-1 + D_j on the codebook's cached inverse Gram matrix or, for an
ill-conditioned G, of noise I + U D_j U' in the span of the sequences; the
phy module docstring gives both. Each step solves every receiver in use
once, for q only. The solve at the returned powers also gives every link's
output SIR c q / (1 - c q), which the run returns as ``PcResult.link_sir``,
and the returned filter bank finishes that solve with
``phy.lmmse_directions``. With fixed matched filters the required power is
target * (sum_{k != i,j} P_k h(k,j) rho_ik^2 + noise) / h(i,j), rho the
Gram matrix of the sequences.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgesv

from .netmodel import LinkGainMatrix, SpreadingCodebook
from .phy import (
    FilterBank,
    incoming_slots,
    kernel_basis,
    lmmse_directions,
    lmmse_link_sir,
    lmmse_solve,
    received_powers,
)

STATUS_CONVERGED = "converged"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max_iter"
STATUS_NONFINITE = "nonfinite"

_RESIDUAL_FLOOR = 1e-30


@dataclass(frozen=True)
class ActiveLinkSet:
    """Directed links used by the current routes, with per-node outgoing sets.

    ``links`` is sorted by (i, j) and free of duplicates, as ``from_links``
    builds it.
    """

    n_nodes: int
    links: tuple[tuple[int, int], ...]

    @classmethod
    def from_links(cls, n_nodes: int, links) -> "ActiveLinkSet":
        """From (i, j) pairs: any iterable, or an (m, 2) integer array."""
        links = links if isinstance(links, np.ndarray) else list(links)
        pairs = np.array(links, dtype=np.int64).reshape(len(links), 2)
        i, j = pairs.T
        bad = (i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n_nodes)
        if bad.any():
            # report the first offending link in sorted order
            first = np.lexsort((j[bad], i[bad]))[0]
            i, j = int(i[bad][first]), int(j[bad][first])
            if i == j:
                raise ValueError(f"self loop ({i}, {j}) in active link set")
            raise ValueError(f"link ({i}, {j}) outside node range")
        codes = np.unique(i * n_nodes + j)
        i, j = codes // n_nodes, codes % n_nodes
        active = cls(n_nodes=n_nodes, links=tuple(zip(i.tolist(), j.tolist())))
        active.__dict__["link_arrays"] = (i, j)  # fill the cached property
        return active

    @cached_property
    def outgoing(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for i, j in self.links:
            out.setdefault(i, []).append(j)
        return {i: tuple(js) for i, js in out.items()}

    @cached_property
    def transmitters(self) -> tuple[int, ...]:
        return tuple(sorted(self.outgoing))

    @cached_property
    def link_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(self.links, dtype=int).reshape(len(self.links), 2)
        return arr[:, 0], arr[:, 1]


@dataclass(frozen=True)
class PcResult:
    """Outcome of a power-control run.

    ``trace`` holds the total transmitted power of every iterate, starting
    from the initial vector. ``link_sir`` is the SIR of every active link,
    in ``ActiveLinkSet.links`` order, at the returned powers; the LMMSE
    solver takes it from its last kernel solve, the others leave it None.
    """

    status: str
    powers: np.ndarray
    iterations: int
    trace: np.ndarray
    link_sir: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def power_targets(p: np.ndarray, active: ActiveLinkSet, gains: LinkGainMatrix,
                  spreading_gain: int, noise: float,
                  target_sir: float) -> np.ndarray:
    """T_i(p) for every node; zero for nodes with no outgoing active link.

    T_i = max over outgoing links (i, j) of
    target_sir * ( (1/L) sum_{k != i,j} h(k,j) P_k + noise ) / h(i,j).
    """
    i_idx, j_idx = active.link_arrays
    s = received_powers(gains, p)
    g = gains.gains[i_idx, j_idx]
    interference = (s[j_idx] - g * p[i_idx]) / spreading_gain + noise
    targets = np.zeros(active.n_nodes)
    np.maximum.at(targets, i_idx, target_sir * interference / g)
    return targets


def _fixed_point(p0: np.ndarray, active: ActiveLinkSet,
                 required: Callable[[np.ndarray], np.ndarray], *,
                 tol: float, max_iter: int, power_cap: float) -> PcResult:
    """Synchronous iteration p <- T(p) shared by every receiver.

    ``required(p)`` gives the power each link of ``active.links`` needs at
    the iterate p; T_i(p) is the largest over node i's outgoing links, and
    zero for a node without one. The stopping rules are ``pc_iterate``'s; a
    NaN update (failed LMMSE factorization) ends the run as "nonfinite".
    """
    if np.any(np.asarray(p0) < 0):
        raise ValueError("initial powers must be nonnegative")
    p = np.array(p0, dtype=float)
    # the links are sorted by transmitter, so each transmitter's outgoing
    # links form one run starting at its first index
    senders, starts = np.unique(active.link_arrays[0], return_index=True)
    # nodes outside the transmitter set hold zero power throughout
    silent = np.ones(active.n_nodes, dtype=bool)
    silent[senders] = False
    p[silent] = 0.0
    totals = [float(p.sum())]
    status, iteration = STATUS_INFEASIBLE, 0
    if not (p > power_cap).any():
        status = STATUS_MAX_ITER
        # bound once: this loop runs up to thousands of short steps per call
        worst = np.maximum.reduceat
        for iteration in range(1, max_iter + 1):
            t = np.zeros(active.n_nodes)
            t[senders] = np.maximum(0.0, worst(required(p), starts))
            residual = (np.abs(t - p) / np.maximum(p, _RESIDUAL_FLOOR)).max()
            if residual <= tol or math.isnan(residual):
                status = (STATUS_CONVERGED if residual <= tol
                          else STATUS_NONFINITE)
                break
            p = t
            totals.append(float(p.sum()))
            if (p > power_cap).any():
                status = STATUS_INFEASIBLE
                break
    p.setflags(write=False)
    return PcResult(status, p, iteration, np.asarray(totals))


def pc_iterate(p0: np.ndarray, active: ActiveLinkSet, gains: LinkGainMatrix,
               spreading_gain: int, noise: float, target_sir: float, *,
               tol: float = 1e-6, max_iter: int = 10_000,
               power_cap: float = 1.0) -> PcResult:
    """Iterate the matched-filter power update until the residual test.

    Converged means every node's update residual |P_i - T_i(p)| / max(P_i, eps)
    is at most ``tol`` at the returned vector. Any power exceeding
    ``power_cap`` stops the run as infeasible; running out of iterations
    yields status "max_iter". The powers are returned either way for
    diagnosis. All nodes update from the previous iterate.
    """
    i_idx, j_idx = active.link_arrays
    g_t = gains.gains.T
    g_link = gains.gains[i_idx, j_idx]

    def required(p):
        # power_targets' per-link expression with the gathers hoisted: the
        # same float operations in the same order
        s = g_t @ p
        interference = (s[j_idx] - g_link * p[i_idx]) / spreading_gain + noise
        return target_sir * interference / g_link

    return _fixed_point(p0, active, required, tol=tol, max_iter=max_iter,
                        power_cap=power_cap)


def pc_solve(active: ActiveLinkSet, gains: LinkGainMatrix,
             spreading_gain: int, noise: float, target_sir: float, *,
             power_cap: float = 1.0) -> PcResult:
    """Minimal fixed point of ``pc_iterate``'s update, by policy iteration.

    "converged" gives the exact minimal fixed point; "infeasible" means none
    within ``power_cap`` exists (module docstring). ``iterations`` counts the
    linear solves, ``trace`` holds each accepted solution's total power, and
    ``active`` must hold a link.
    """
    i_idx, j_idx = active.link_arrays
    senders, starts, owner = np.unique(i_idx, return_index=True,
                                       return_inverse=True)
    links = np.arange(len(i_idx))
    # over the senders, link l needs a_l + F_l p: F_l is column l of coupling,
    # zero at i_l and at j_l (zero gain diagonal); system holds e_{i_l} - F_l
    g_link = gains.gains[i_idx, j_idx]
    a = target_sir * noise / g_link
    coupling = gains.gains[senders][:, j_idx] \
        * (target_sir / spreading_gain / g_link)
    coupling[owner, links] = 0.0
    system = -coupling
    system[owner, links] = 1.0
    # first policy: the worst links two synchronous steps up from zero
    policy, p, totals, need = starts, np.zeros(len(senders)), [], a
    for _ in range(2):
        need = a + np.maximum.reduceat(need, starts) @ coupling
    status = STATUS_INFEASIBLE
    for iteration in itertools.count(1):
        # each sender's first worst link, keeping the current one on ties
        current, worst = need[policy], np.maximum.reduceat(need, starts)
        first = np.minimum.reduceat(
            np.where(need == worst[owner], links, len(links)), starts)
        policy = np.where(current == worst, policy, first)
        x, info = dgesv(system[:, policy].T, a[policy], overwrite_a=True,
                        overwrite_b=True)[2:]
        if info or not (x.min() >= 0.0 and x.max() <= power_cap):
            break
        p, need = x, a + x @ coupling
        totals.append(float(p.sum()))
        # done when no link needs more than its sender's policy link, or
        # when the total did not rise: every real switch raises it
        if not (need > need[policy][owner]).any() \
                or len(totals) > 1 and totals[-1] <= totals[-2]:
            status = STATUS_CONVERGED
            break
    powers = np.zeros(active.n_nodes)
    powers[senders] = p
    powers.setflags(write=False)
    return PcResult(status, powers, iteration, np.asarray(totals))


def pc_mud_iterate(p0: np.ndarray, active: ActiveLinkSet,
                   gains: LinkGainMatrix, codebook: SpreadingCodebook,
                   noise: float, target_sir: float, *,
                   tol: float = 1e-6, max_iter: int = 10_000,
                   power_cap: float = 1.0,
                   filter_mode: str = "lmmse") -> tuple[PcResult, FilterBank]:
    """Iterate the exact-cross-correlation power update until it settles.

    With ``filter_mode="lmmse"`` every step is the closed-form LMMSE update
    (module docstring), equal to recomputing each link's LMMSE filter at the
    current powers and then applying the power update for those filters.
    ``filter_mode="matched"`` keeps the matched filters fixed, which gives
    the exact-cross-correlation matched baseline. The stopping rules are
    ``pc_iterate``'s. The returned filter bank, and with the LMMSE filter
    the returned ``link_sir``, are computed at the returned power vector.
    """
    if filter_mode not in ("lmmse", "matched"):
        raise ValueError(f"unknown filter_mode {filter_mode!r}")
    i_idx, j_idx = active.link_arrays
    g = gains.gains[i_idx, j_idx]
    stop = dict(tol=tol, max_iter=max_iter, power_cap=power_cap)

    if filter_mode == "matched":
        rho2 = codebook.gram ** 2
        np.fill_diagonal(rho2, 0.0)
        # row l: the interferers' power weights at link l's receiver
        coupling = rho2[i_idx] * gains.gains[:, j_idx].T
        result = _fixed_point(
            p0, active, lambda p: target_sir * (coupling @ p + noise) / g,
            **stop)
        return result, FilterBank.matched(codebook, active.links)

    receivers, senders, rows, cols = incoming_slots(i_idx, j_idx)
    last_solve = []

    def required(p):
        q, solve = lmmse_solve(p, gains, codebook, noise, receivers, senders)
        q = q[rows, cols]
        last_solve[:] = [q, solve]
        return target_sir * (1.0 - p[i_idx] * g * q) / (g * q)

    result = _fixed_point(p0, active, required, **stop)
    p = result.powers
    if not result.converged:
        required(p)  # the last solve must be at the returned powers
    q, solve = last_solve
    link_sir = lmmse_link_sir(p[i_idx] * g, q)
    link_sir.setflags(write=False)
    result = replace(result, link_sir=link_sir)
    # lmmse_filter's scale, with C^-1 s_i = B_j^-1 s_i / (1 - c q) for the
    # covariance C without link i (Sherman-Morrison)
    downdate = 1.0 - p[i_idx] * g * q
    scale = np.sqrt(p[i_idx]) / (1.0 + p[i_idx] * q / downdate) / downdate
    x = lmmse_directions(solve)[rows, :, cols]
    filters = (x @ kernel_basis(codebook).T) * scale[:, None]
    return result, FilterBank(dict(zip(active.links, filters)))
