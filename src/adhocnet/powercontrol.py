"""Fixed-point transmit power solvers.

The per-node update T_i(p) is the smallest power letting the node's worst
outgoing active link reach the target SIR given everyone else's current
power. T is a standard interference function (positive, monotone, scalable),
so iterating p <- T(p) converges to the minimal feasible power vector under
any update schedule whenever the system is feasible; divergence is detected
by the power cap or the iteration budget.

Every receiver runs the synchronous loop ``_fixed_point`` with its own
step. ``pc_iterate``'s 1/L matched update (``power_targets``) is a maximum
of affine maps (``_affine_form``). While every node keeps its worst link
(its policy) a step is linear, so ``_affine_steps`` takes blocks of steps
at one matrix product each and checks each block with one more; statuses,
iteration counts, powers and traces are the per-step loop's up to rounding.
``pc_solve`` finds the minimal fixed point of the 1/L update exactly by
policy iteration (Howard): solve (I - F) p = a for one link per node,
re-pick each node's worst link at p, repeat until none changes. T is
monotone (Yates), so the solutions rise to the minimal fixed point; a
singular, negative or over-cap solve proves infeasibility (Perron-Frobenius;
Zander, Foschini-Miljanic). Verdicts come from it, powers from iteration.
The exact-correlation matched update, rho_ik^2 (Gram matrix rho) for 1/L,
is only a test baseline: ``tests/helpers.exact_matched_solve`` solves it.

The LMMSE update is not affine; ``pc_mud_iterate`` takes one step per
kernel solve. Optimizing the filter at the current powers and then solving
for the power that meets the target collapses to the closed form of Ulukus
and Yates ("Adaptive power control and MMSE interference suppression",
1998): T_i(p) = max_j target * (1 - c q) / (h(i,j) q), with c = P_i h(i,j)
and q = s_i' B_j^-1 s_i from the kernel ``phy.lmmse_solve``. Per link, T
is the minimum over filters of maps affine in p, so the filters frozen at
p give tangent maps, equal to T at p and above it elsewhere; with x = S c
from the kernel's solve at p, each is ``_affine_form``'s map with weights
target (x_k / q)^2, shifted to meet T at p. ``pc_mud_solve`` solves their
maximum exactly by ``pc_solve``'s policy iteration: a Newton step, which
lands on or above the minimal fixed point (Yates, "A framework for uplink
power control", 1995), and steps descend from there. A failed tangent
solve proves nothing for LMMSE, and a step from p <= T(p) that lands below
T(p) is rounding: either gives way to the plain step T(p), and after the
k-th such step the next 2^(k-1) steps are plain too, so a diverging run
pays for few tangent solves. Either solver returns p converged only when
it passes the residual test. The solve at the returned powers also gives
every link's output SIR c q / (1 - c q), ``PcResult.link_sir``. No
solver builds filters; ``phy.lmmse_filter`` gives any link's on demand.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgesv

from .errors import check_gains, check_powers
from .netmodel import SpreadingCodebook
from .phy import lmmse_link_sir, lmmse_solve, received_powers

STATUS_CONVERGED = "converged"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max_iter"
STATUS_NONFINITE = "nonfinite"

_RESIDUAL_FLOOR = 1e-30
_BLOCK_MAX = 32


@dataclass(frozen=True)
class ActiveLinkSet:
    """Directed links used by the current routes, with per-node outgoing sets.

    ``links`` may be any iterable of (i, j) node pairs or an (m, 2) array.
    The set keeps them sorted by (i, j) and free of duplicates, and
    ``link_arrays`` holds their senders and receivers as read-only int64
    arrays, as ``sender_groups`` holds its own. A ValueError at construction
    names the first bad link in sorted order: a self loop, or a node outside
    0..n_nodes-1. Node ids must have an integer type; any other (1.5, and
    also 1.0) is a ValueError.
    """

    n_nodes: int
    links: tuple[tuple[int, int], ...]
    link_arrays: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        n, links = self.n_nodes, self.links
        links = links if isinstance(links, np.ndarray) else list(links)
        pairs = np.asarray(links).reshape(len(links), 2)
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValueError(f"active link nodes must be integers, got "
                             f"{pairs.dtype} values")
        i, j = pairs.astype(np.int64, copy=False).T
        bad = (i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)
        if bad.any():
            # report the first offending link in sorted order
            first = np.lexsort((j[bad], i[bad]))[0]
            i, j = int(i[bad][first]), int(j[bad][first])
            if i == j:
                raise ValueError(f"self loop ({i}, {j}) in active link set")
            raise ValueError(f"link ({i}, {j}) outside node range")
        codes = np.sort(i * n + j)  # np.unique costs more on few links
        codes = codes[np.diff(codes, prepend=-1) > 0]
        i, j = codes // n, codes % n
        i.setflags(write=False)  # shared by every holder of the set
        j.setflags(write=False)
        object.__setattr__(self, "links", tuple(zip(i.tolist(), j.tolist())))
        object.__setattr__(self, "link_arrays", (i, j))

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
    def sender_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Senders, each one's first link and each link's sender index."""
        groups = np.unique(self.link_arrays[0], return_index=True,
                           return_inverse=True)
        for array in groups:
            array.setflags(write=False)
        return groups


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


def power_targets(p: np.ndarray, active: ActiveLinkSet, gains: np.ndarray,
                  spreading_gain: int, noise: float,
                  target_sir: float) -> np.ndarray:
    """T_i(p) for every node; zero for nodes with no outgoing active link.

    T_i = max over outgoing links (i, j) of
    target_sir * ( (1/L) sum_{k != i,j} h(k,j) P_k + noise ) / h(i,j).
    ConfigError names ``gains`` or ``p`` unless they fit ``active``.
    """
    check_gains(gains, active.n_nodes)
    p = check_powers("p", p, active.n_nodes)
    i_idx, j_idx = active.link_arrays
    s = received_powers(gains, p)
    g = gains[i_idx, j_idx]
    interference = (s[j_idx] - g * p[i_idx]) / spreading_gain + noise
    targets = np.zeros(active.n_nodes)
    np.maximum.at(targets, i_idx, target_sir * interference / g)
    return targets


def _fixed_point(p0: np.ndarray, active: ActiveLinkSet,
                 advance: Callable[[np.ndarray], np.ndarray], *,
                 tol: float, max_iter: int, power_cap: float,
                 leap: Callable | None = None) -> PcResult:
    """Synchronous iteration p <- T(p) shared by every receiver.

    ``advance(x)`` returns the senders' powers x (other nodes stay silent)
    and one or more next iterates as rows; rows past ``max_iter`` are
    dropped. The stopping rules, in order: the residual test or a NaN
    update ("nonfinite", a failed LMMSE factorization) at step k, the cap
    on iterate k, the budget. ``leap(t)``, if given, replaces a last row t
    that fails the residual test before the cap is tested.
    A ``p0`` that ``errors.check_powers`` rejects raises ConfigError.
    """
    senders = active.sender_groups[0]
    x = check_powers("p0", p0, active.n_nodes)[senders]
    totals, done = [float(x.sum())], 0
    status = STATUS_INFEASIBLE if (x > power_cap).any() else STATUS_MAX_ITER
    with np.errstate(invalid="ignore"):  # inf - inf after an overflow
        while status == STATUS_MAX_ITER and done < max_iter:
            rows = advance(x)[:max_iter - done + 1]
            prev, new = rows[:-1], rows[1:]
            residual = (np.abs(new - prev) / np.maximum(prev, _RESIDUAL_FLOOR)
                        ).max(axis=1, initial=0.0)
            settled = ~(residual > tol)  # the residual test, or NaN
            if leap is not None and not settled[-1]:
                new[-1] = leap(new[-1])
            stop = (settled | (new > power_cap).any(axis=1)).nonzero()[0]
            end = int(stop[0]) if stop.size else len(new) - 1
            done, kept = done + end + 1, end + (not settled[end])
            if stop.size:
                status = (STATUS_INFEASIBLE if not settled[end]
                          else STATUS_CONVERGED if residual[end] <= tol
                          else STATUS_NONFINITE)
            totals.extend(new[:kept].sum(axis=1).tolist())
            x = rows[kept].copy()
    powers = np.zeros(active.n_nodes)
    powers[senders] = x
    powers.setflags(write=False)
    return PcResult(status, powers, done, np.asarray(totals))


def _affine_form(active: ActiveLinkSet, gains: np.ndarray, noise: float,
                 target_sir: float, weights) -> tuple:
    """Senders, first link of each, sender of each link, a and coupling: link
    l = (i, j) needs a_l + x @ coupling[:, l] at the senders' powers x, with
    a_l = target_sir noise / h(i,j) and coupling[k, l] = w h(k,j) / h(i,j),
    zero at k = i and (zero gain diagonal) at k = j. ``weights`` gives w, a
    scalar or one value per sender k and link l."""
    i_idx, j_idx = active.link_arrays
    senders, starts, owner = active.sender_groups
    g_link = gains[i_idx, j_idx]
    coupling = gains[senders][:, j_idx] * (weights / g_link)
    coupling[owner, np.arange(len(i_idx))] = 0.0
    return senders, starts, owner, target_sir * noise / g_link, coupling


def _repick(need, policy, starts, owner) -> np.ndarray:
    """Each sender's first link of largest need; its policy on ties or NaN."""
    current, worst = need[policy], np.maximum.reduceat(need, starts)
    first = np.minimum.reduceat(
        np.where(need == worst[owner], np.arange(len(need)), len(need)),
        starts)
    return np.where(current < worst, first, policy)


def _policy_iteration(a, coupling, starts, owner, need,
                      power_cap) -> tuple[list, bool]:
    """Policy iteration (module docstring) on each sender's max over its
    links l of a_l + x @ coupling[:, l], from the worst links under ``need``:
    the solutions, and False if one is singular, negative or over the cap."""
    policy, solutions = starts, []
    while True:
        policy = _repick(need, policy, starts, owner)
        system = -coupling[:, policy].T  # Fortran order, factored in place
        np.fill_diagonal(system, 1.0)  # coupling is zero at a link's sender
        x, info = dgesv(system, a[policy], overwrite_a=True,
                        overwrite_b=True)[2:]
        if info or not (x.min() >= 0.0 and x.max() <= power_cap):
            return solutions, False
        solutions.append(x)
        need = a + x @ coupling
        # done when no link needs more than its sender's policy link, or
        # when the total did not rise: every real switch raises it
        if not (need > need[policy][owner]).any() or len(solutions) > 1 \
                and x.sum() <= solutions[-2].sum():
            return solutions, True


def _affine_steps(form: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """``_fixed_point``'s ``advance`` for the update ``_affine_form`` gives.

    While each sender keeps its worst link (its policy), a step is one dot
    of the row [x 1] with [coupling_policy 0; a_policy 1]. Each block takes
    ``_BLOCK_MAX`` steps; one product checks them against every link, and
    the iterates up to the first at which a policy link is not worst are
    returned, so the next block re-picks the policies there. A NaN need
    also ends the block, at an iterate where ``_fixed_point`` stops anyway.
    """
    senders, starts, owner, a, coupling = form
    m = len(senders)
    augmented = np.vstack([coupling, a])
    rows, step = np.ones((_BLOCK_MAX + 1, m + 1)), np.eye(m + 1)
    policy = starts

    def advance(x):
        nonlocal policy
        rows[0, :m] = x
        policy = _repick(rows[0] @ augmented, policy, starts, owner)
        step[:, :m] = augmented[:, policy]
        for k in range(_BLOCK_MAX):
            np.dot(rows[k], step, out=rows[k + 1])
        need = rows[1:_BLOCK_MAX] @ augmented
        held = (need <= need[:, policy[owner]]).all(axis=1)
        kept = _BLOCK_MAX if held.all() else 1 + int(np.argmin(held))
        return rows[:kept + 1, :m]

    return advance


def pc_iterate(p0: np.ndarray, active: ActiveLinkSet, gains: np.ndarray,
               spreading_gain: int, noise: float, target_sir: float, *,
               tol: float = 1e-6, max_iter: int = 10_000,
               power_cap: float = 1.0) -> PcResult:
    """Iterate the matched-filter power update until the residual test.

    Converged means every node's update residual |P_i - T_i(p)| / max(P_i, eps)
    is at most ``tol`` at the returned vector, which is then only within
    about tol / (1 - r) of the fixed point, r the update's contraction
    factor. Any power exceeding ``power_cap`` stops the run as infeasible;
    running out of iterations yields status "max_iter". The powers are
    returned either way for diagnosis. All nodes update from the previous
    iterate, in blocks of steps on which no node changes its worst link
    (``_affine_steps``).
    """
    check_gains(gains, active.n_nodes)
    form = _affine_form(active, gains, noise, target_sir,
                        target_sir / spreading_gain)
    return _fixed_point(p0, active, _affine_steps(form), tol=tol,
                        max_iter=max_iter, power_cap=power_cap)


def pc_solve(active: ActiveLinkSet, gains: np.ndarray,
             spreading_gain: int, noise: float, target_sir: float, *,
             power_cap: float = 1.0) -> PcResult:
    """Minimal fixed point of ``pc_iterate``'s update, by policy iteration.

    "converged" gives the exact minimal fixed point; "infeasible" means none
    within ``power_cap`` exists (module docstring). ``iterations`` counts the
    linear solves and ``trace`` holds each accepted solution's total power;
    a set without links converges at zero powers with no solve.
    """
    check_gains(gains, active.n_nodes)
    senders, starts, owner, a, coupling = _affine_form(
        active, gains, noise, target_sir, target_sir / spreading_gain)
    # first policy: the worst links two synchronous steps up from zero
    need = a
    for _ in range(2):
        need = a + np.maximum.reduceat(need, starts) @ coupling
    solutions, solved = _policy_iteration(
        a, coupling, starts, owner, need, power_cap) if len(a) else ([], True)
    powers = np.zeros(active.n_nodes)  # no link, no solve
    powers[senders] = solutions[-1] if solutions else 0.0
    powers.setflags(write=False)
    return PcResult(STATUS_CONVERGED if solved else STATUS_INFEASIBLE, powers,
                    len(solutions) + (not solved),
                    np.array([float(x.sum()) for x in solutions]))


def pc_mud_iterate(p0: np.ndarray, active: ActiveLinkSet,
                   gains: np.ndarray, codebook: SpreadingCodebook,
                   noise: float, target_sir: float, *,
                   tol: float = 1e-6, max_iter: int = 10_000,
                   power_cap: float = 1.0) -> tuple[PcResult, None]:
    """Iterate the closed-form LMMSE power update until it settles.

    Every step (module docstring) equals recomputing each link's LMMSE
    filter at the current powers and then applying the power update for
    those filters. The stopping rules, and the distance tol / (1 - r) from
    the fixed point that a residual of ``tol`` allows, are ``pc_iterate``'s.
    The result's ``link_sir`` is computed at the returned power vector. The
    second item is None: it keeps the place of the filter bank this function
    once returned, for callers that unpack two values.
    """
    check_gains(gains, active.n_nodes)
    codebook.check_nodes(active.n_nodes)
    return _lmmse_fixed_point(p0, active, gains, codebook, noise, target_sir,
                              False, tol=tol, max_iter=max_iter,
                              power_cap=power_cap), None


def pc_mud_solve(p0: np.ndarray, active: ActiveLinkSet, gains: np.ndarray,
                 codebook: SpreadingCodebook, noise: float, target_sir: float,
                 *, tol: float = 1e-6, max_iter: int = 10_000,
                 power_cap: float = 1.0) -> PcResult:
    """``pc_mud_iterate``'s LMMSE fixed point by Newton steps (module
    docstring), with its statuses, ``iterations`` and ``link_sir``."""
    check_gains(gains, active.n_nodes)
    return _lmmse_fixed_point(p0, active, gains, codebook, noise, target_sir,
                              True, tol=tol, max_iter=max_iter,
                              power_cap=power_cap)


def _lmmse_fixed_point(p0, active, gains, codebook, noise, target_sir,
                       newton, **stop) -> PcResult:
    """``_fixed_point`` on the closed-form LMMSE update, with Newton steps
    if ``newton``; ``link_sir`` comes from a solve at the returned p."""
    i_idx, j_idx = active.link_arrays
    senders, starts, owner = active.sender_groups
    g = gains[i_idx, j_idx]
    last = None  # (x, need, q, S c or None) of the last step
    # plain steps before the next tangent solve, and after the next refusal
    wait, pause = 0 if newton else np.inf, 1

    def advance(x):  # one step per kernel solve
        nonlocal last
        p = np.zeros(active.n_nodes)
        p[senders] = x
        solved = lmmse_solve(p, gains, codebook, noise, i_idx, j_idx,
                             wait == 0)
        q, sc = solved if wait == 0 else (solved, None)
        need = target_sir * (1.0 - p[i_idx] * g * q) / (g * q)
        last = x, need, q, sc
        return np.array((x, np.maximum(0.0,
                                       np.maximum.reduceat(need, starts))))

    def leap(t):
        nonlocal wait, pause
        x, need, q, sc = last
        if sc is None:
            wait -= 1
            return t
        # with every filter frozen at x, link l needs need[l] at x and
        # need[l] + (x' - x) @ coupling[:, l] at other senders' powers x'
        coupling = _affine_form(active, gains, noise, target_sir,
                                target_sir * (sc[senders] / q) ** 2)[-1]
        solutions, solved = _policy_iteration(
            need - x @ coupling, coupling, starts, owner, need,
            stop["power_cap"])
        # a step from x <= t lands at or above t, or else it is rounding
        if solved and not ((t >= x).all() and (solutions[-1] < t).any()):
            return solutions[-1]
        wait, pause = pause, 2 * pause
        return t

    result = _fixed_point(p0, active, advance, leap=leap, **stop)
    p = result.powers
    if result.status in (STATUS_INFEASIBLE, STATUS_MAX_ITER):
        wait = np.inf
        advance(p[senders])  # no solve at the returned powers yet
    link_sir = lmmse_link_sir(p[i_idx] * g, last[2])
    link_sir.setflags(write=False)
    return replace(result, link_sir=link_sir)
