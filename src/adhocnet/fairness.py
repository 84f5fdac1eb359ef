"""Uniform energy consumption through route mixtures.

The minimal-energy solution can load a few relay nodes heavily. To even
consumption out, near-optimal solutions from a multi-start run are blended:
candidate i (routes plus its power vector) is used a fraction w_i of the
time, and the weights minimize the squared deviation of the expected
per-node powers from the average power of the minimal-energy solution,
over the probability simplex.

The quadratic program is solved by accelerated projected gradient descent
with an exact equality-constrained polish on the identified support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crosslayer import TrialSummary
from .routing import RouteSet

# Stopping rule of the projected-gradient solve in optimize_mixture: the
# gradient-mapping residual bound and the iteration cap.
_GRAD_TOL = 1e-12
_MAX_ITER = 200_000


@dataclass(frozen=True)
class RouteCandidate:
    trial: int
    routes: RouteSet
    powers: np.ndarray
    total_power: float


@dataclass(frozen=True)
class RouteCandidateSet:
    """Near-optimal candidates plus the per-node power target."""

    candidates: tuple[RouteCandidate, ...]
    power_target: float  # average node power of the minimal-energy solution

    def __len__(self) -> int:
        return len(self.candidates)

    def power_matrix(self) -> np.ndarray:
        """Columns are candidate power vectors, shape (n_nodes, n_candidates)."""
        return np.column_stack([c.powers for c in self.candidates])


@dataclass(frozen=True)
class MixtureWeights:
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w)
        if np.any(w < -1e-12) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must lie on the probability simplex")


def select_candidates(trials, threshold: float = 0.10) -> RouteCandidateSet:
    """Keep converged trials whose total power is within ``threshold`` of the
    best one; the power target is the best trial's mean node power."""
    converged: list[TrialSummary] = [t for t in trials if t.status == "local_min"]
    if not converged:
        raise ValueError("no converged trials to select candidates from")
    best = min(converged, key=lambda t: t.total_power)
    limit = (1.0 + threshold) * best.total_power
    selected = [t for t in converged if t.total_power <= limit]
    candidates = tuple(
        RouteCandidate(trial=t.trial, routes=t.routes, powers=t.powers,
                       total_power=t.total_power)
        for t in selected
    )
    target = float(np.mean(best.powers))
    return RouteCandidateSet(candidates=candidates, power_target=target)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    n = v.shape[0]
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, n + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _polish_on_support(pmat: np.ndarray, target: np.ndarray,
                       w: np.ndarray) -> np.ndarray | None:
    """Solve the equality-constrained least squares exactly on the active
    support; returns None when the result leaves the simplex."""
    support = np.flatnonzero(w > 1e-12)
    if support.size == 0:
        return None
    sub = pmat[:, support]
    k = support.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * (sub.T @ sub)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * (sub.T @ target), [1.0]])
    # lstsq tolerates duplicate candidates (singular KKT) symmetrically
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    w_sub = sol[:k]
    if np.any(w_sub < -1e-12):
        return None
    w_new = np.zeros_like(w)
    w_new[support] = np.clip(w_sub, 0.0, None)
    total = w_new.sum()
    if total <= 0:
        return None
    return w_new / total


def optimize_mixture(candidates: RouteCandidateSet) -> MixtureWeights:
    """Weights minimizing || P w - target ||^2 over the probability simplex.

    The problem is normalized by its largest power entry so the stopping
    rule (projected-gradient mapping residual) is scale free. Starting from
    the uniform point keeps duplicate candidates at equal weight, which is
    the deterministic tie break.
    """
    n_cand = len(candidates)
    if n_cand < 1:
        raise ValueError("need at least one candidate")
    pmat = candidates.power_matrix()
    target = np.full(pmat.shape[0], candidates.power_target)
    w = np.full(n_cand, 1.0 / n_cand)
    if n_cand == 1:
        return MixtureWeights(w=w)

    scale = float(np.max(np.abs(pmat)))
    if scale == 0.0:
        return MixtureWeights(w=w)
    pn = pmat / scale
    tn = target / scale
    gram = pn.T @ pn
    lipschitz = 2.0 * float(np.linalg.eigvalsh(gram)[-1])
    if lipschitz == 0.0:
        return MixtureWeights(w=w)
    step = 1.0 / lipschitz

    def grad(x):
        return 2.0 * (gram @ x - pn.T @ tn)

    # FISTA with the convex-combination restart-free schedule
    y = w.copy()
    t_prev = 1.0
    w_prev = w.copy()
    for _ in range(_MAX_ITER):
        w_new = project_to_simplex(y - step * grad(y))
        residual = float(np.linalg.norm(
            w_new - project_to_simplex(w_new - step * grad(w_new))
        )) / step
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        y = w_new + ((t_prev - 1.0) / t_new) * (w_new - w_prev)
        w_prev = w_new
        t_prev = t_new
        if residual <= _GRAD_TOL:
            break
    w = w_prev

    def objective(x):
        r = pn @ x - tn
        return float(r @ r)

    polished = _polish_on_support(pn, tn, w)
    if polished is not None and objective(polished) <= objective(w) + 1e-18:
        w = polished
    w = project_to_simplex(w)
    return MixtureWeights(w=w)


def effective_node_powers(candidates: RouteCandidateSet,
                          weights: MixtureWeights) -> np.ndarray:
    """Time-average per-node power under the mixture: P @ w."""
    return candidates.power_matrix() @ np.asarray(weights.w)
