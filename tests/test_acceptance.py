"""Acceptance suite: one test per quantitative behavior the library must
reproduce, each at its stated tolerance. Every test prints a summary line so
a verbose run doubles as the acceptance report."""

import numpy as np
import pytest

from adhocnet.crosslayer import (_PHASE_CAP, multi_start,
                                  network_energy_per_bit)
from adhocnet.experiments import capacity_search, throughput_gain
from adhocnet.fairness import (
    MixtureWeights,
    effective_node_powers,
    optimize_mixture,
    select_candidates,
)
from adhocnet.netmodel import Scenario, build_network, \
    generate_spreading_codebook
from adhocnet.phy import (
    FilterBank,
    efficiency,
    lmmse_filter,
    matched_link_sir,
    matched_sir_matrix,
    sir_lmmse,
    sir_matched,
)
from adhocnet.powercontrol import pc_iterate, pc_mud_solve, power_targets
from adhocnet.routing import RouteSet, initial_routes
from helpers import (
    exact_matched_solve,
    random_active_links,
    random_network,
    simplex_grid_search,
    single_outgoing_instance,
)
from test_fairness import candidate_set

NOISE = 1e-13
GAMMA = 12.5


def report(criterion, message):
    print(f"[criterion {criterion:02d}] PASS: {message}")


def test_criterion_01_throughput_gain():
    value = throughput_gain(30, 32, 55, 128)
    assert value == pytest.approx(2.18, abs=0.005)
    report(1, f"throughput gain (30, 32) vs (55, 128) = {value:.4f}")


def test_criterion_02_standard_interference_function_axioms():
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(4, 21))
        _, gains = random_network(rng, n)
        active = random_active_links(rng, n)
        spreading = int(rng.choice([8, 16, 32, 128]))
        gamma = float(rng.uniform(1.0, 15.0))
        p = np.exp(rng.uniform(np.log(1e-9), np.log(1e-5), n))
        smaller = p * rng.uniform(0.0, 1.0, n)
        alpha = float(rng.uniform(1.001, 10.0))
        t = power_targets(p, active, gains, spreading, NOISE, gamma)
        t_small = power_targets(smaller, active, gains, spreading, NOISE,
                                gamma)
        t_scaled = power_targets(alpha * p, active, gains, spreading, NOISE,
                                 gamma)
        tx = list(active.transmitters)
        if not np.all(t[tx] > 0.0):
            violations += 1
        if np.any(t[tx] < t_small[tx] * (1.0 - 1e-12)):
            violations += 1
        if np.any(alpha * t[tx] <= t_scaled[tx] * (1.0 - 1e-12)):
            violations += 1
    assert violations == 0
    report(2, "positivity, monotonicity, scalability on 1000 instances, "
              "0 violations")


def test_criterion_03_fixed_point_matches_linear_solve():
    rng = np.random.default_rng(303)
    checked = 0
    worst = 0.0
    while checked < 100:
        inst = single_outgoing_instance(rng, int(rng.integers(3, 7)), 16,
                                        GAMMA, NOISE)
        if inst is None:
            continue
        _, gains, active, oracle, _ = inst
        result = pc_iterate(np.zeros(oracle.shape[0]), active, gains, 16,
                            NOISE, GAMMA, tol=1e-12, max_iter=200_000)
        assert result.converged
        rel = float(np.max(np.abs(result.powers - oracle) / oracle))
        worst = max(worst, rel)
        assert rel <= 1e-8
        checked += 1
    report(3, f"100 fixed points match the linear solve, worst rel err "
              f"{worst:.2e}")


def test_criterion_04_converged_sir_tightness():
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 12))
        _, gains = random_network(rng, n)
        active = random_active_links(rng, n, max_out=2)
        spreading = int(rng.choice([32, 64, 128]))
        result = pc_iterate(np.zeros(n), active, gains, spreading, NOISE,
                            GAMMA, tol=1e-6)
        if not result.converged:
            continue
        for i in active.transmitters:
            sirs = [sir_matched((i, j), result.powers, gains, spreading,
                                NOISE) for j in active.outgoing[i]]
            assert min(sirs) >= GAMMA * (1.0 - 1e-5)
            assert min(sirs) <= GAMMA * (1.0 + 1e-5)
            assert all(s >= GAMMA * (1.0 - 1e-5) for s in sirs)
        checked += 1
    report(4, "per-node worst SIR within 1e-5 of the target on 100 "
              "converged instances")


def test_criterion_05_joint_loop_descends_at_forty_nodes():
    converged = 0
    max_phases = 0
    for seed in range(50):
        scenario = Scenario(n_nodes=40, spreading_gain=128,
                            master_seed=500 + seed)
        net = build_network(scenario)
        solution = None
        from adhocnet.crosslayer import joint_optimize

        solution = joint_optimize(scenario, net.topology, net.gains,
                                  net.sessions, net.codebook)
        assert len(solution.trace) <= _PHASE_CAP
        max_phases = max(max_phases, len(solution.trace))
        if not solution.converged:
            continue
        converged += 1
        totals = [r.total_power for r in solution.trace]
        for before, after in zip(totals[:-1], totals[1:]):
            assert after <= before + 1e-12
    assert converged >= 45
    report(5, f"{converged}/50 N=40 runs converged, all traces "
              f"non-increasing, longest trace {max_phases} phases")


def test_criterion_06_route_invariance_of_link_sir():
    rng = np.random.default_rng(606)
    for trial in range(20):
        n = int(rng.integers(5, 12))
        scenario = Scenario(n_nodes=n, spreading_gain=64,
                            master_seed=600 + trial, area_side=150.0)
        net = build_network(scenario)
        p0 = np.full(n, scenario.initial_power)
        routes_a, _ = initial_routes(scenario, net.gains, net.sessions, p0)
        result = pc_iterate(p0, routes_a.active_links, net.gains, 64, NOISE,
                            GAMMA)
        if not result.converged:
            continue
        matrix = matched_sir_matrix(result.powers, net.gains, 64, NOISE)
        # a completely different route assignment: shifted ring sessions
        ring = RouteSet(paths=tuple((i, (i + 1) % n) for i in range(n)),
                        n_nodes=n)
        # each route set's links read their SIR off the one matrix
        for routes in (routes_a, ring):
            links = routes.active_links.link_arrays
            sir = matched_link_sir(*links, result.powers, net.gains, 64,
                                   NOISE)
            assert sir.tobytes() == matrix[links].tobytes()
    report(6, "estimated link SIR identical across route assignments at "
              "fixed powers (20 instances)")


def test_criterion_07_multi_start_energy_improvement():
    scenario_base = Scenario(n_nodes=55, spreading_gain=128, target_sir=GAMMA,
                             noise_power=NOISE, initial_power=1e-6)
    good = 0
    ratios = []
    for seed in range(20):
        scenario = scenario_base.replace(master_seed=seed)
        net = build_network(scenario)
        p0 = np.full(55, scenario.initial_power)
        routes0, _ = initial_routes(scenario, net.gains, net.sessions, p0)
        initial_energy = network_energy_per_bit(routes0, p0, scenario,
                                                net.gains, net.codebook)
        result = multi_start(scenario, trials=100, seed=seed)
        if result.best is None:
            continue
        ratio = result.best.energy_per_bit / initial_energy
        ratios.append(ratio)
        if ratio <= 0.2:
            good += 1
    assert good >= 18
    report(7, f"energy per bit improved at least 5x in {good}/20 seeds "
              f"(median ratio {float(np.median(ratios)):.2e})")


@pytest.mark.filterwarnings(
    "ignore:LMMSE covariance condition bound:RuntimeWarning")
def test_criterion_08_lmmse_dominance_and_power_savings():
    rng = np.random.default_rng(808)
    link_checks = 0
    total_pairs = 0
    while link_checks < 100:
        n = int(rng.integers(4, 9))
        _, gains = random_network(rng, n)
        book = generate_spreading_codebook(n, int(rng.choice([8, 16])),
                                           seed=int(rng.integers(1 << 30)))
        p = np.exp(rng.uniform(np.log(1e-9), np.log(1e-6), n))
        i, j = 0, 1
        lm = FilterBank({(i, j): lmmse_filter(i, p, gains, book, NOISE, j)})
        mf = {(i, j): book.sequences[i]}
        s_l = sir_lmmse((i, j), p, lm, gains, book, NOISE)
        s_m = sir_lmmse((i, j), p, mf, gains, book, NOISE)
        assert s_l >= s_m - 1e-9
        link_checks += 1
    while total_pairs < 25:
        n = int(rng.integers(4, 8))
        _, gains = random_network(rng, n)
        book = generate_spreading_codebook(n, 8,
                                           seed=int(rng.integers(1 << 30)))
        active = random_active_links(rng, n, max_out=1)
        matched = exact_matched_solve(active, gains, book, NOISE, GAMMA)
        if not matched.converged:
            continue
        mud = pc_mud_solve(np.zeros(n), active, gains, book, NOISE, GAMMA,
                           tol=1e-10, max_iter=50_000)
        if not mud.converged:
            continue
        assert mud.powers.sum() <= matched.powers.sum() * (1.0 + 1e-9)
        total_pairs += 1
    report(8, "LMMSE SIR dominates on 100 links; the LMMSE fixed point's "
              "total power never above the exact matched fixed point's on "
              "25 instances")


def test_criterion_09_capacity_band_around_published_value():
    scenario = Scenario(spreading_gain=128, receiver="matched",
                        target_sir=GAMMA, noise_power=NOISE)
    result = capacity_search(scenario, 128, trials=100,
                             feasibility_target=0.95, seed=11)
    rates = list(result.rates)
    assert all(b <= a for a, b in zip(rates[:-1], rates[1:]))
    assert result.n_star is not None
    assert 45 <= result.n_star <= 65
    table = ", ".join(f"{n}:{r:.2f}" for n, r in zip(result.n_values, rates))
    report(9, f"matched-filter capacity N*={result.n_star} (rates {table})")


def test_criterion_10_fairness_mixture():
    rng = np.random.default_rng(1010)
    worst_gap = 0.0
    for _ in range(100):
        n_nodes = int(rng.integers(3, 7))
        n_cands = int(rng.integers(1, 4))
        pmat = rng.uniform(0.0, 0.15, size=(n_nodes, n_cands))
        target = float(rng.uniform(0.0, 0.15))
        cands = candidate_set(pmat, target=target)
        weights = optimize_mixture(cands)
        residual = pmat @ weights.w - target
        objective = float(residual @ residual)
        grid_obj, _ = simplex_grid_search(pmat, np.full(n_nodes, target))
        worst_gap = max(worst_gap, abs(objective - grid_obj))
        assert abs(objective - grid_obj) <= 1e-6
        grad = 2.0 * pmat.T @ residual
        active = weights.w > 1e-9
        assert np.all(grad[active] - grad.min() <= 1e-7)

    # route-mixture reproduction at the published 40-node scale
    scenario = Scenario(n_nodes=40, spreading_gain=128, master_seed=21)
    result = multi_start(scenario, trials=100, seed=21)
    assert result.best is not None
    candidates = select_candidates(result.trials, threshold=0.10)
    weights = optimize_mixture(candidates)
    mixed = effective_node_powers(candidates, weights)
    best_single = min(candidates.candidates, key=lambda c: c.total_power)
    assert float(np.var(mixed)) <= float(np.var(best_single.powers)) + 1e-30
    report(10, f"mixture QP matches the grid oracle (worst gap "
               f"{worst_gap:.2e}); {len(candidates)} candidates at N=40, "
               f"variance {float(np.var(mixed)):.3e} vs single "
               f"{float(np.var(best_single.powers)):.3e}")


def test_criterion_11_energy_optimal_target_sir():
    grid = np.arange(0.5, 30.0, 1e-3)
    ratio = efficiency(grid, 80) / grid
    best = float(grid[int(np.argmax(ratio))])
    assert 12.0 <= best <= 13.0
    report(11, f"argmax of f(sir)/sir for 80-bit packets at sir={best:.3f}")
