import numpy as np
import pytest
from scipy.optimize import nnls

from adhocnet.crosslayer import JointSolution
from adhocnet.errors import ConfigError
from adhocnet.fairness import (
    MixtureWeights,
    RouteCandidateSet,
    _nnls,
    effective_node_powers,
    optimize_mixture,
    select_candidates,
)
from adhocnet.routing import RouteSet
from helpers import simplex_grid_search


def solution(powers, status="local_min"):
    powers = np.asarray(powers, dtype=float)
    total = float(powers.sum())
    return JointSolution(
        status=status, powers=powers,
        routes=RouteSet(paths=((0, 1),), n_nodes=powers.shape[0]), trace=(),
        total_power=total, energy_per_bit=1.0, initial_total_power=total,
        initial_energy_per_bit=1.0)


def candidate_set(power_columns, target=None):
    pmat = np.asarray(power_columns, dtype=float)
    candidates = tuple(solution(pmat[:, k]) for k in range(pmat.shape[1]))
    if target is None:
        best = min(candidates, key=lambda c: c.total_power)
        target = float(np.mean(best.powers))
    return RouteCandidateSet(candidates=candidates,
                             trials=tuple(range(len(candidates))),
                             power_target=target)


def test_select_single_trial():
    trials = [solution([1.0, 2.0, 3.0])]
    selected = select_candidates(trials)
    assert len(selected) == 1
    assert selected.power_target == pytest.approx(2.0)


def test_select_zero_threshold_keeps_only_ties():
    trials = [solution([1.0, 1.0]), solution([1.0, 1.0]),
              solution([1.2, 1.0])]
    selected = select_candidates(trials, threshold=0.0)
    assert list(selected.trials) == [0, 1]


@pytest.mark.parametrize("threshold", [-0.1, float("nan"), float("inf"),
                                       True])
def test_select_rejects_a_bad_threshold(threshold):
    # a negative or NaN threshold would leave out even the best trial
    trials = [solution([1.0, 1.0]), solution([1.05, 1.0])]
    with pytest.raises(ConfigError, match=r"^threshold must be"):
        select_candidates(trials, threshold=threshold)


def test_select_threshold_band_and_skips_infeasible():
    trials = [solution([1.0, 1.0]), solution([1.05, 1.0]),
              solution([1.3, 1.0]),
              solution([0.1, 0.1], status="infeasible_init")]
    selected = select_candidates(trials, threshold=0.10)
    assert list(selected.trials) == [0, 1]
    assert selected.power_target == pytest.approx(1.0)


def test_nnls_matches_scipy_on_full_rank_problems():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        e = rng.normal(size=(int(rng.integers(n, 20)), n))
        f = rng.normal(size=e.shape[0])
        x = _nnls(e, f)
        reference = nnls(e, f)[0]
        assert np.all(x >= 0.0)
        assert np.allclose(x, reference, rtol=0, atol=1e-10)


def test_nnls_recovers_tiny_positive_entries():
    # f = e x for an x >= 0 with entries down to 1e-9: the dual tolerance must
    # not stop the solve before those columns enter
    rng = np.random.default_rng(10)
    for _ in range(100):
        e = rng.normal(size=(12, 6))
        x_true = np.where(rng.random(6) < 0.4, 0.0,
                          10.0 ** rng.uniform(-9.0, 0.0, size=6))
        assert np.allclose(_nnls(e, e @ x_true), x_true, rtol=0, atol=1e-12)


def test_nnls_matches_scipy_objective_on_rank_deficient_problems():
    rng = np.random.default_rng(6)
    for _ in range(200):
        m, rank = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        n = rank + int(rng.integers(1, 6))
        e = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        f = rng.normal(size=m)
        x = _nnls(e, f)
        reference = nnls(e, f)[0]
        assert np.all(x >= 0.0)
        assert (np.linalg.norm(e @ x - f)
                <= np.linalg.norm(e @ reference - f) + 1e-10)


def test_mixture_single_candidate_forced():
    cands = candidate_set(np.array([[0.3], [0.1]]))
    weights = optimize_mixture(cands)
    assert np.array_equal(weights.w, [1.0])


def test_mixture_duplicate_candidates_tie_break_uniform():
    column = np.array([0.3, 0.1, 0.2])
    cands = candidate_set(np.stack([column, column], axis=1))
    weights = optimize_mixture(cands)
    assert np.allclose(weights.w, [0.5, 0.5], atol=1e-9)


def test_mixture_repeated_candidate_splits_its_weight_exactly():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b, c = rng.uniform(0.0, 0.3, size=(3, 5))
        for columns in ([a, b, a], [a, b, a, c], [b, a, c, a, a]):
            weights = optimize_mixture(candidate_set(np.stack(columns, axis=1),
                                                     target=0.1)).w
            same = [k for k, col in enumerate(columns) if col is a]
            assert all(weights[k] == weights[same[0]] for k in same)


def test_mixture_permuting_candidates_permutes_weights():
    rng = np.random.default_rng(8)
    for _ in range(25):
        pmat = rng.uniform(0.0, 0.3, size=(6, int(rng.integers(2, 7))))
        order = rng.permutation(pmat.shape[1])
        weights = optimize_mixture(candidate_set(pmat, target=0.1)).w
        permuted = optimize_mixture(candidate_set(pmat[:, order], target=0.1)).w
        assert np.allclose(permuted, weights[order], rtol=0, atol=1e-12)


def test_mixture_zero_powers_give_uniform_weights():
    weights = optimize_mixture(candidate_set(np.zeros((4, 3)), target=0.0))
    assert np.array_equal(weights.w, np.full(3, 1.0 / 3.0))


def test_mixture_kkt_certificate_at_the_workload_shape():
    # 55 nodes and 2-8 candidates within about 10% of each other, at the
    # power scale of the multi-start workload
    rng = np.random.default_rng(9)
    for _ in range(50):
        base = rng.uniform(1e-10, 1.3e-8, size=55)
        n_cands = int(rng.integers(2, 9))
        pmat = base[:, None] * rng.uniform(0.8, 1.2, size=(55, n_cands))
        cands = candidate_set(pmat)
        w = optimize_mixture(cands).w
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
        scaled = pmat / pmat.max()
        grad = 2.0 * scaled.T @ (scaled @ w - cands.power_target / pmat.max())
        assert np.all(grad[w > 0.0] - grad.min() <= 1e-9)


def test_mixture_matches_grid_search_oracle():
    rng = np.random.default_rng(1)
    for trial in range(25):
        n_nodes = int(rng.integers(3, 7))
        n_cands = int(rng.integers(1, 4))
        pmat = rng.uniform(0.0, 0.15, size=(n_nodes, n_cands))
        target = float(rng.uniform(0.0, 0.15))
        cands = candidate_set(pmat, target=target)
        weights = optimize_mixture(cands)
        residual = pmat @ weights.w - target
        objective = float(residual @ residual)
        grid_obj, _ = simplex_grid_search(pmat, np.full(n_nodes, target))
        assert objective <= grid_obj + 1e-9
        assert abs(objective - grid_obj) <= 1e-6


def test_mixture_kkt_certificate():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n_nodes = int(rng.integers(3, 8))
        n_cands = int(rng.integers(2, 6))
        pmat = rng.uniform(0.0, 0.5, size=(n_nodes, n_cands))
        target = float(rng.uniform(0.0, 0.5))
        cands = candidate_set(pmat, target=target)
        weights = optimize_mixture(cands)
        grad = 2.0 * pmat.T @ (pmat @ weights.w - target)
        active = weights.w > 1e-9
        assert np.all(grad[active] - grad.min() <= 1e-7)


def test_mixture_never_worse_than_any_vertex():
    rng = np.random.default_rng(3)
    for trial in range(25):
        pmat = rng.uniform(0.0, 0.4, size=(5, 4))
        target = float(rng.uniform(0.0, 0.4))
        cands = candidate_set(pmat, target=target)
        weights = optimize_mixture(cands)
        residual = pmat @ weights.w - target
        objective = float(residual @ residual)
        for k in range(4):
            vertex = pmat[:, k] - target
            assert objective <= float(vertex @ vertex) + 1e-12


def test_mixture_weights_validate_simplex():
    with pytest.raises(ValueError):
        MixtureWeights(w=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        MixtureWeights(w=np.array([-0.1, 1.1]))
    for w in ([np.nan, np.nan], [np.nan, 1.0], [0.5, 0.5, np.nan]):
        with pytest.raises(ValueError, match="simplex"):
            MixtureWeights(w=np.array(w))


def test_effective_powers_one_hot_and_uniform():
    pmat = np.array([[0.3, 0.5], [0.1, 0.2]])
    cands = candidate_set(pmat)
    one_hot = effective_node_powers(cands, MixtureWeights(w=np.array([0.0, 1.0])))
    assert np.array_equal(one_hot, pmat[:, 1])
    mean = effective_node_powers(cands, MixtureWeights(w=np.array([0.5, 0.5])))
    assert np.allclose(mean, pmat.mean(axis=1))


def test_optimized_mixture_objective_not_above_single_candidates():
    rng = np.random.default_rng(4)
    for trial in range(10):
        pmat = rng.uniform(0.0, 0.3, size=(6, 3))
        cands = candidate_set(pmat)
        weights = optimize_mixture(cands)
        mixed = effective_node_powers(cands, weights)
        objective = float(((mixed - cands.power_target) ** 2).sum())
        best_single = min(
            float(((pmat[:, k] - cands.power_target) ** 2).sum())
            for k in range(3)
        )
        assert objective <= best_single + 1e-12
