"""Fixed-point transmit power solvers.

The per-node update T_i(p) is the smallest power letting the node's worst
outgoing active link reach the target SIR given everyone else's current
power. T is a standard interference function (positive, monotone, scalable),
so iterating p <- T(p) converges to the minimal feasible power vector under
any update schedule whenever the system is feasible; divergence is detected
by the power cap or the iteration budget.

Each synchronous step and each stopping test reads only the current
iterate, so a run restarted from the k-th iterate of an earlier run on the
same inputs, with the iteration budget less k, repeats that run's remaining
steps float for float. ``crosslayer.run_power_control`` relies on this to
resume the matched first run from the probe that ``routing.initial_routes``
has already run, rather than replaying it.

``pc_mud_iterate`` uses the exact sequence cross-correlations. With the
LMMSE receiver, optimizing the filter at the current powers and then
solving for the power that meets the target collapses to the closed form
of Ulukus and Yates: T_i(p) = max_j target * (1 - c q) / (h(i,j) q), with
q = s_i' B_j^-1 s_i from the batched kernel ``phy.lmmse_kernel`` and
c = P_i h(i,j). With fixed matched filters the required power is
target * (sum_{k != i,j} P_k h(k,j) rho_ik^2 + noise) / h(i,j), rho the
Gram matrix of the sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .netmodel import LinkGainMatrix, SpreadingCodebook
from .phy import FilterBank, incoming_slots, lmmse_kernel, received_powers

STATUS_CONVERGED = "converged"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max_iter"

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
        links = list(links)
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
        unique = zip((codes // n_nodes).tolist(), (codes % n_nodes).tolist())
        return cls(n_nodes=n_nodes, links=tuple(unique))

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
        if not self.links:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        arr = np.asarray(self.links, dtype=int)
        return arr[:, 0], arr[:, 1]


@dataclass(frozen=True)
class PcResult:
    """Outcome of a power-control run.

    ``trace`` holds the total transmitted power of every iterate, starting
    from the initial vector.
    """

    status: str
    powers: np.ndarray
    iterations: int
    trace: np.ndarray

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
    return _worst_link(active.n_nodes, i_idx, target_sir * interference / g)


def _worst_link(n_nodes: int, i_idx: np.ndarray,
                required: np.ndarray) -> np.ndarray:
    """Per node, the largest per-link required power; zero without links."""
    targets = np.zeros(n_nodes)
    np.maximum.at(targets, i_idx, required)
    return targets


def interference_target(i: int, p: np.ndarray, active: ActiveLinkSet,
                        gains: LinkGainMatrix, spreading_gain: int,
                        noise: float, target_sir: float) -> float:
    """T_i(p) for one node; the node must have outgoing active links."""
    if i not in active.outgoing:
        raise ValueError(f"node {i} has no outgoing active links")
    return float(power_targets(p, active, gains, spreading_gain, noise,
                               target_sir)[i])


def _residual(new: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(new - ref) / np.maximum(ref, _RESIDUAL_FLOOR)))


def pc_iterate(p0: np.ndarray, active: ActiveLinkSet, gains: LinkGainMatrix,
               spreading_gain: int, noise: float, target_sir: float, *,
               tol: float = 1e-6, max_iter: int = 10_000,
               power_cap: float = 1.0,
               schedule: str = "synchronous") -> PcResult:
    """Iterate the matched-filter power update until the residual test.

    Converged means every node's update residual |P_i - T_i(p)| / max(P_i, eps)
    is at most ``tol`` at the returned vector. Any power exceeding
    ``power_cap`` stops the run as infeasible; running out of iterations
    yields status "max_iter". The powers are returned either way for
    diagnosis. ``schedule`` is "synchronous" (all nodes update from the
    previous iterate) or "async-sweep" (in-place Gauss-Seidel sweep in node
    order); both terminate only once the synchronous residual passes.
    """
    if np.any(np.asarray(p0) < 0):
        raise ValueError("initial powers must be nonnegative")
    if schedule not in ("synchronous", "async-sweep"):
        raise ValueError(f"unknown schedule {schedule!r}")
    p = np.array(p0, dtype=float)
    # the links are sorted by transmitter, so each transmitter's outgoing
    # links form one run starting at its first index
    i_idx, j_idx = active.link_arrays
    senders, starts = np.unique(i_idx, return_index=True)
    # nodes outside the transmitter set hold zero power throughout
    mask = np.zeros(active.n_nodes, dtype=bool)
    mask[senders] = True
    p[~mask] = 0.0
    totals = [float(p.sum())]

    def finish(status, powers, iterations):
        powers = powers.copy()
        powers.setflags(write=False)
        return PcResult(status, powers, iterations, np.asarray(totals))

    if (p > power_cap).any():
        return finish(STATUS_INFEASIBLE, p, 0)
    g = gains.gains
    g_t = g.T
    g_link = g[i_idx, j_idx]
    for iteration in range(1, max_iter + 1):
        if schedule == "synchronous":
            # power_targets and _residual with the per-link gathers hoisted:
            # the same float operations in the same order
            s = g_t @ p
            interference = (s[j_idx] - g_link * p[i_idx]) / spreading_gain + noise
            worst = np.maximum.reduceat(target_sir * interference / g_link,
                                        starts)
            t = np.zeros(active.n_nodes)
            t[senders] = np.maximum(0.0, worst)
            if (np.abs(t - p) / np.maximum(p, _RESIDUAL_FLOOR)).max() <= tol:
                return finish(STATUS_CONVERGED, p, iteration)
            p = t
        else:
            p_prev = p.copy()
            s = received_powers(gains, p)
            for i in active.transmitters:
                best = 0.0
                for j in active.outgoing[i]:
                    interference = (s[j] - g[i, j] * p[i]) / spreading_gain + noise
                    required = target_sir * interference / g[i, j]
                    if required > best:
                        best = required
                delta = best - p[i]
                if delta != 0.0:
                    s = s + g[i, :] * delta
                    p[i] = best
            if _residual(p, p_prev) <= tol:
                t = power_targets(p, active, gains, spreading_gain, noise,
                                  target_sir)
                if _residual(t, p) <= tol:
                    return finish(STATUS_CONVERGED, p, iteration)
        totals.append(float(p.sum()))
        if (p > power_cap).any():
            return finish(STATUS_INFEASIBLE, p, iteration)
    return finish(STATUS_MAX_ITER, p, max_iter)


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
    the exact-cross-correlation matched baseline. The returned filter bank
    is computed at the returned power vector.
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
    i_idx, j_idx = active.link_arrays
    g = gains.gains[i_idx, j_idx]

    if filter_mode == "matched":
        seqs = codebook.sequences
        rho2 = (seqs @ seqs.T) ** 2
        np.fill_diagonal(rho2, 0.0)
        # row l: the interferers' power weights at link l's receiver
        coupling = rho2[i_idx] * gains.gains[:, j_idx].T

        def required(powers):
            return target_sir * (coupling @ powers + noise) / g
    else:
        receivers, senders, rows, cols = incoming_slots(i_idx, j_idx)
        last_solve = []

        def required(powers):
            q, x = lmmse_kernel(powers, gains, codebook, noise, receivers,
                                senders)
            q = q[rows, cols]
            last_solve[:] = [q, x]
            return target_sir * (1.0 - powers[i_idx] * g * q) / (g * q)

    status, iteration = STATUS_INFEASIBLE, 0
    if not np.any(p > power_cap):
        status = STATUS_MAX_ITER
        for iteration in range(1, max_iter + 1):
            t = _worst_link(active.n_nodes, i_idx, required(p))
            if _residual(t, p) <= tol:
                status = STATUS_CONVERGED
                break
            p = t
            totals.append(float(p.sum()))
            if np.any(p > power_cap):
                status = STATUS_INFEASIBLE
                break
    powers = p.copy()
    powers.setflags(write=False)
    result = PcResult(status, powers, iteration, np.asarray(totals))
    if filter_mode == "matched":
        return result, FilterBank.matched(codebook, active.links)
    if status != STATUS_CONVERGED:
        required(p)  # the last solve must be at the returned powers
    q, x = last_solve
    # lmmse_filter's scale, with A^-1 s_i = B_j^-1 s_i / (1 - c q) for the
    # covariance A without link i (Sherman-Morrison)
    downdate = 1.0 - p[i_idx] * g * q
    scale = np.sqrt(p[i_idx]) / (1.0 + p[i_idx] * q / downdate) / downdate
    basis = np.linalg.qr(codebook.sequences.T)[0]
    filters = (x[rows, :, cols] @ basis.T) * scale[:, None]
    return result, FilterBank(dict(zip(active.links, filters)))


def pc_trace_to_csv(result: PcResult, path) -> None:
    from .csvio import write_csv

    rows = [(k, float(total)) for k, total in enumerate(result.trace)]
    write_csv(path, ("iteration", "total_power_W"), rows)
