"""Uniform energy consumption through route mixtures.

The minimal-energy solution can load a few relay nodes heavily. To even
consumption out, near-optimal solutions from a multi-start run are blended:
candidate i, the ``JointSolution`` of one trial as ``multi_start`` returns
it, is used a fraction w_i of the time, and the weights minimize the
squared deviation of the expected per-node powers from the average power
of the minimal-energy solution, over the probability simplex.

The quadratic program is solved exactly. On the simplex P w - target = A w
with A = (P - target) / max|P|, and the u >= 0 minimizing ||A u||^2 +
(1'u - 1)^2 is w* / (1 + ||A w*||^2) for the simplex minimizer w*. So one
Lawson–Hanson NNLS solve (Solving Least Squares Problems, 1974, ch. 23) of
[A; 1'] u against the last unit vector gives w* = u / 1'u.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .crosslayer import JointSolution
from .errors import check_value


@dataclass(frozen=True)
class RouteCandidateSet:
    """Near-optimal trial solutions plus the per-node power target."""

    candidates: tuple[JointSolution, ...]
    trials: tuple[int, ...]  # the multi-start trial of each candidate
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
        # written so that NaN fails it
        if not (np.all(w >= -1e-12) and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise ValueError("weights must lie on the probability simplex")


def select_candidates(trials, threshold: float = 0.10) -> RouteCandidateSet:
    """Keep the converged trials (``MultiStartResult.trials``, trial k at
    position k) whose total power is within ``threshold`` of the best one;
    the power target is the best trial's mean node power."""
    check_value("threshold", threshold, Real, low=0)
    converged = [k for k, t in enumerate(trials) if t.converged]
    if not converged:
        raise ValueError("no converged trials to select candidates from")
    best = min((trials[k] for k in converged), key=lambda t: t.total_power)
    limit = (1.0 + threshold) * best.total_power
    selected = tuple(k for k in converged if trials[k].total_power <= limit)
    return RouteCandidateSet(candidates=tuple(trials[k] for k in selected),
                             trials=selected,
                             power_target=float(np.mean(best.powers)))


def _nnls(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Lawson–Hanson active set: the x >= 0 that minimizes ||e x - f||.

    A column enters while its dual entry exceeds the tolerance and leaves at
    the step that zeroes it. Each pass must lower the residual, so no passive
    set repeats; a pass that does not (rounding) ends the solve.
    """
    n = e.shape[1]
    tol = 10.0 * max(e.shape) * np.finfo(float).eps
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    residual = f

    def solve():
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(e[:, passive], f, rcond=None)[0]
        return z

    while True:
        dual = np.where(passive, -np.inf, e.T @ residual)
        j = int(np.argmax(dual))
        if dual[j] <= tol:
            return x
        passive[j] = True
        y, z = x, solve()
        while (z < 0.0).any():
            blocked = z < 0.0
            step = y[blocked] / (y[blocked] - z[blocked])
            y = y + step.min() * (z - y)
            y[np.flatnonzero(blocked)[np.argmin(step)]] = 0.0
            passive &= y > 0.0
            z = solve()
        new_residual = f - e @ z
        if new_residual @ new_residual >= residual @ residual:
            return x
        x, residual = z, new_residual


def optimize_mixture(candidates: RouteCandidateSet) -> MixtureWeights:
    """Weights minimizing || P w - target ||^2 over the probability simplex.

    Identical candidates are solved as one column and split its weight
    evenly, the deterministic tie break; one distinct column is uniform.
    """
    n_cand = len(candidates)
    if n_cand < 1:
        raise ValueError("need at least one candidate")
    pmat = candidates.power_matrix()
    columns, column_of, counts = np.unique(
        pmat, axis=1, return_inverse=True, return_counts=True)
    if columns.shape[1] == 1:
        return MixtureWeights(w=np.full(n_cand, 1.0 / n_cand))
    a = (columns - candidates.power_target) / float(np.max(np.abs(pmat)))
    e = np.vstack([a, np.ones(columns.shape[1])])
    u = _nnls(e, np.eye(e.shape[0])[-1])
    return MixtureWeights(w=(u / u.sum())[column_of] / counts[column_of])


def effective_node_powers(candidates: RouteCandidateSet,
                          weights: MixtureWeights) -> np.ndarray:
    """Time-average per-node power under the mixture: P @ w."""
    return candidates.power_matrix() @ np.asarray(weights.w)
