import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocnet.crosslayer import (
    initial_powers,
    joint_optimize,
    multi_start,
    network_energy_per_bit,
)
from adhocnet import crosslayer, phy, powercontrol
from adhocnet.errors import ConfigError, UnreachableSessionError
from adhocnet.fairness import select_candidates
from adhocnet.netmodel import Scenario, build_network
from adhocnet.phy import (
    FilterBank,
    energy_per_bit_link,
    lmmse_filter,
    matched_sir_matrix,
    sir_lmmse,
    sir_matched,
)
from adhocnet import routing
from adhocnet.powercontrol import pc_iterate, pc_solve
from adhocnet.routing import (
    RouteSet,
    assign_routes,
    build_link_costs,
    initial_routes,
)
from adhocnet.seeds import derive_seed

from helpers import (
    count_factorizations,
    random_network,
    route_energy_loop,
    same_pc_result,
)

GAMMA = 12.5
NOISE = 1e-13


def run_joint(scenario, **kwargs):
    net = build_network(scenario)
    solution = joint_optimize(scenario, net.topology, net.gains, net.sessions,
                              net.codebook, **kwargs)
    return net, solution


def test_two_node_network_terminates_after_first_routing_pass():
    scenario = Scenario(n_nodes=2, spreading_gain=16, master_seed=1)
    _, solution = run_joint(scenario)
    assert solution.status == "local_min"
    assert [r.phase for r in solution.trace] == ["power_control", "routing"]
    assert solution.trace[0].total_power == \
        pytest.approx(solution.trace[1].total_power, rel=1e-12)


def test_trace_descends_and_final_routes_are_locally_optimal():
    scenario = Scenario(n_nodes=10, spreading_gain=64, master_seed=6,
                        area_side=150.0)
    net, solution = run_joint(scenario)
    assert solution.converged
    totals = [r.total_power for r in solution.trace]
    for before, after in zip(totals[:-1], totals[1:]):
        assert after <= before * (1 + 1e-12)
    # one extra routing pass cannot find a cheaper assignment
    sir = matched_sir_matrix(solution.powers, net.gains,
                             scenario.spreading_gain, scenario.noise_power)
    gate = scenario.target_sir * (1.0 - 10.0 * scenario.pc_tol)
    costs = build_link_costs(solution.powers, sir, gate)
    extra = assign_routes(net.sessions, costs)

    def route_cost(routes):
        return sum(costs[a, b] for path in routes.paths
                   for a, b in zip(path[:-1], path[1:]))

    assert route_cost(extra) >= route_cost(solution.routes) * (1 - 1e-9)


def test_fifty_five_node_run_descends_with_phase_budget():
    scenario = Scenario(n_nodes=55, spreading_gain=128, master_seed=0)
    _, solution = run_joint(scenario, phase_budget=5)
    phases = [r.phase for r in solution.trace]
    assert phases == ["power_control", "routing", "power_control",
                      "routing", "power_control"]
    totals = [r.total_power for r in solution.trace]
    for before, after in zip(totals[:-1], totals[1:]):
        assert after <= before * (1 + 1e-12)
    assert totals[-1] < totals[0]


def test_energy_per_bit_recorded_but_not_required_monotone():
    scenario = Scenario(n_nodes=12, spreading_gain=64, master_seed=8)
    _, solution = run_joint(scenario)
    assert all(np.isfinite(r.energy_per_bit) or r.energy_per_bit == np.inf
               for r in solution.trace)
    assert solution.energy_per_bit == solution.trace[-1].energy_per_bit


def test_infeasible_initialization_is_reported():
    # spreading gain 1 with many users cannot meet the target
    scenario = Scenario(n_nodes=12, spreading_gain=1, master_seed=2,
                        pc_max_iter=2000)
    _, solution = run_joint(scenario)
    assert solution.status == "infeasible_init"
    assert solution.trace == ()
    assert solution.pc_diagnostics is not None
    assert solution.pc_diagnostics.status in ("infeasible", "max_iter")


@pytest.mark.parametrize("receiver", ["matched", "lmmse"])
@pytest.mark.parametrize("entry, value, size", [
    (3, -1e-6, 12), (3, np.nan, 12), (3, np.inf, 12), (None, None, 11)])
def test_bad_initial_powers_raise_a_named_config_error(receiver, entry,
                                                        value, size):
    # without the check a bad vector is judged an unreachable session, or
    # fails inside numpy with a dimension error
    scenario = Scenario(n_nodes=12, receiver=receiver, master_seed=0)
    net = build_network(scenario)
    p_init = np.full(size, scenario.initial_power)
    if entry is not None:
        p_init[entry] = value
    with pytest.raises(ConfigError, match="p_init"):
        joint_optimize(scenario, net.topology, net.gains, net.sessions,
                       net.codebook, p_init=p_init)


def test_a_nan_gain_raises_a_named_config_error():
    # before, the NaN was judged an unreachable session
    scenario = Scenario(n_nodes=6, spreading_gain=8, master_seed=3)
    net = build_network(scenario)
    gains = np.array(net.gains)
    gains[0, 1] = np.nan
    with pytest.raises(ConfigError, match="^gains must be"):
        initial_routes(scenario, gains, net.sessions,
                       initial_powers(scenario))
    with pytest.raises(ConfigError, match="^gains must be"):
        joint_optimize(scenario, net.topology, gains, net.sessions,
                       net.codebook)


@pytest.mark.parametrize("receiver", ["matched", "lmmse"])
@pytest.mark.parametrize("case", ["nan", "negative", "short", "small_gains"])
def test_network_energy_names_bad_powers_and_gains(receiver, case):
    # before, a NaN power gave an energy of nan, a power of -1e-6 an energy
    # of about 1e110, and gains for too few nodes an error naming p
    scenario = Scenario(n_nodes=6, spreading_gain=8, receiver=receiver,
                        master_seed=3)
    net = build_network(scenario)
    routes = RouteSet(paths=net.sessions, n_nodes=6)
    p, gains = np.full(6, 1e-6), net.gains
    assert np.isfinite(network_energy_per_bit(routes, p, scenario, gains,
                                              net.codebook))
    if case == "small_gains":
        gains, name = gains[:5, :5], "gains"
    else:
        p = p[:5] if case == "short" else p.copy()
        p[2] = {"nan": np.nan, "negative": -1e-6}.get(case, p[2])
        name = "p"
    with pytest.raises(ConfigError, match=f"^{name} "):
        network_energy_per_bit(routes, p, scenario, gains, net.codebook)


def test_lmmse_energy_without_a_codebook_is_named():
    scenario = Scenario(n_nodes=6, spreading_gain=8, receiver="lmmse",
                        master_seed=3)
    net = build_network(scenario)
    routes = RouteSet(paths=net.sessions, n_nodes=6)
    with pytest.raises(ValueError, match="needs the spreading codebook"):
        network_energy_per_bit(routes, np.full(6, 1e-6), scenario, net.gains)


def test_a_rerouting_step_that_raises_the_total_by_1e_9_is_rejected(
        monkeypatch):
    # the acceptance slack is 1e-12 of the total: a re-optimization that
    # lands at the previous powers times 1 + 1e-9 regresses, so the loop
    # records no routing phase and keeps its routes
    scenario = Scenario(n_nodes=12, spreading_gain=64, master_seed=8)
    net, natural = run_joint(scenario)
    assert [r.phase for r in natural.trace[:2]] == ["power_control",
                                                    "routing"]
    runs, real = [], crosslayer.run_power_control

    def run(scenario, p, routes, gains, codebook):
        runs.append(routes)
        result = real(scenario, p, routes, gains, codebook)
        if len(runs) == 1:
            return result
        return replace(result, status="converged", powers=p * (1.0 + 1e-9))

    monkeypatch.setattr(crosslayer, "run_power_control", run)
    solution = joint_optimize(scenario, net.topology, net.gains,
                              net.sessions, net.codebook)
    assert len(runs) == 2 and runs[1].paths != runs[0].paths
    assert [r.phase for r in solution.trace] == ["power_control"]
    assert solution.routes.paths == runs[0].paths


def test_a_gate_that_strands_a_session_ends_the_loop_on_its_routes(
        monkeypatch):
    # gate jitter can leave a session without a link at the target: no
    # improving move exists, so the loop repeats its last record and stops
    scenario = Scenario(n_nodes=12, spreading_gain=64, master_seed=8)
    net = build_network(scenario)
    first, _ = initial_routes(scenario, net.gains, net.sessions,
                              initial_powers(scenario))

    def stranded(sessions, costs):
        raise UnreachableSessionError(0, *sessions[0])

    monkeypatch.setattr(crosslayer, "assign_routes", stranded)
    solution = joint_optimize(scenario, net.topology, net.gains,
                              net.sessions, net.codebook)
    assert solution.status == "local_min"
    assert [r.phase for r in solution.trace] == ["power_control", "routing"]
    assert solution.trace[1] == replace(solution.trace[0], phase="routing")
    assert solution.routes.paths == first.paths


@pytest.mark.parametrize("budget", [0, -3, 2.5])
def test_bad_phase_budget_raises_a_named_config_error(budget):
    # without the check a budget below 1 returns a one-record trace
    scenario = Scenario(n_nodes=12, master_seed=0)
    with pytest.raises(ConfigError, match="phase_budget"):
        run_joint(scenario, phase_budget=budget)


@pytest.mark.parametrize("receiver", ["matched", "lmmse"])
def test_phase_budget_pads_without_rerouting_again(monkeypatch, receiver):
    # once the routes come back unchanged, a budget run repeats its last
    # record instead of gating and routing again at the same powers
    calls = []

    def assign(*args, **kwargs):
        calls.append(1)
        return assign_routes(*args, **kwargs)

    monkeypatch.setattr(crosslayer, "assign_routes", assign)
    scenario = Scenario(n_nodes=12, spreading_gain=128, receiver=receiver,
                        master_seed=0)
    _, natural = run_joint(scenario)
    last, before = natural.trace[-1], natural.trace[-2]
    assert last.phase == "routing"
    assert (last.total_power, last.energy_per_bit) == (
        before.total_power, before.energy_per_bit)
    natural_calls = len(calls)
    calls.clear()
    budget = len(natural.trace) + 4
    _, padded = run_joint(scenario, phase_budget=budget)
    assert len(calls) == natural_calls
    assert padded.trace[:len(natural.trace)] == natural.trace
    assert [r.phase for r in padded.trace[len(natural.trace):]] == [
        "power_control", "routing", "power_control", "routing"]
    assert {(r.total_power, r.energy_per_bit)
            for r in padded.trace[len(natural.trace) - 1:]} == {
        (last.total_power, last.energy_per_bit)}


def test_multi_start_single_trial_equals_joint_run():
    scenario = Scenario(n_nodes=8, spreading_gain=64, master_seed=5,
                        area_side=120.0)
    result = multi_start(scenario, trials=1, seed=77)
    net = build_network(scenario)
    lo, hi = scenario.power_init_range()
    rng = np.random.default_rng(derive_seed(77, 16, 0))
    p_init = np.exp(rng.uniform(np.log(lo), np.log(hi), 8))
    direct = joint_optimize(scenario, net.topology, net.gains, net.sessions,
                            net.codebook, p_init=p_init)
    assert result.best is not None
    assert np.array_equal(result.best.powers, direct.powers)
    assert result.best.routes.paths == direct.routes.paths


def test_multi_start_minimum_not_above_median():
    scenario = Scenario(n_nodes=10, spreading_gain=64, master_seed=6,
                        area_side=150.0)
    result = multi_start(scenario, trials=15)
    totals = [t.total_power for t in result.trials if t.status == "local_min"]
    assert len(totals) >= 2
    assert result.best.total_power <= float(np.median(totals))


def test_multi_start_deterministic_given_seed():
    scenario = Scenario(n_nodes=8, spreading_gain=64, master_seed=9,
                        area_side=120.0)
    a = multi_start(scenario, trials=4, seed=3)
    b = multi_start(scenario, trials=4, seed=3)
    assert np.array_equal(a.best.powers, b.best.powers)
    assert [t.total_power for t in a.trials] == \
        [t.total_power for t in b.trials]


def test_multi_start_keeps_each_trial_solution():
    # best is the trial object of lowest converged total, and each fairness
    # candidate is its trial's own solution
    scenario = Scenario(n_nodes=10, spreading_gain=64, master_seed=6,
                        area_side=150.0)
    result = multi_start(scenario, trials=6)
    assert len(result.trials) == 6
    converged = [t for t in result.trials if t.converged]
    assert result.best is min(converged, key=lambda t: t.total_power)
    candidates = select_candidates(result.trials, threshold=0.10)
    assert len(candidates.trials) == len(candidates) >= 1
    for k, trial in enumerate(candidates.trials):
        assert candidates.candidates[k] is result.trials[trial]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(6, 10), receiver=st.sampled_from(["matched", "lmmse"]),
       spreading_gain=st.sampled_from([32, 64, 128]),
       mode=st.sampled_from(["equal", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_joint_trace_never_increases(n, receiver, spreading_gain, mode, seed):
    # a rerouting step is accepted only within the loop's 1e-12 relative
    # slack, and a routing record repeats the last run's total
    scenario = Scenario(n_nodes=n, spreading_gain=spreading_gain,
                        receiver=receiver, initial_power_mode=mode,
                        master_seed=seed)
    _, solution = run_joint(scenario)
    totals = [r.total_power for r in solution.trace]
    for before, after in zip(totals[:-1], totals[1:]):
        assert after <= before * (1 + 1e-12)


def test_initial_powers_modes():
    equal = initial_powers(Scenario(n_nodes=5, spreading_gain=8))
    assert np.all(equal == 1e-6)
    scenario = Scenario(n_nodes=200, spreading_gain=8,
                        initial_power_mode="random", master_seed=11)
    random_draw = initial_powers(scenario)
    assert random_draw.shape == (200,)
    assert np.all(random_draw >= 1e-7) and np.all(random_draw <= 1e-5)
    assert np.array_equal(random_draw, initial_powers(scenario))
    # log-uniform: median near the geometric center
    assert np.median(random_draw) == pytest.approx(1e-6, rel=0.5)


def test_an_explicit_power_range_bounds_the_random_draw():
    scenario = Scenario(n_nodes=200, spreading_gain=8,
                        initial_power_mode="random",
                        initial_power_range=(2e-7, 3e-7), master_seed=11)
    assert scenario.power_init_range() == (2e-7, 3e-7)
    draw = initial_powers(scenario)
    # exp(log(hi)) may round one ulp above hi
    assert draw.min() >= 2e-7 and draw.max() <= 3e-7 * (1 + 1e-12)
    assert np.median(draw) == pytest.approx(np.sqrt(6e-14), rel=0.05)


def test_network_metrics_degenerate_zero_powers():
    scenario = Scenario(n_nodes=4, spreading_gain=8)
    _, gains = random_network(np.random.default_rng(4), 4)
    routes = RouteSet(paths=(), n_nodes=4)
    energy = network_energy_per_bit(routes, np.zeros(4), scenario, gains)
    assert energy == 0.0


def test_network_metrics_single_link_fixed_point():
    from adhocnet.netmodel import compute_link_gains
    from adhocnet.powercontrol import ActiveLinkSet, pc_iterate
    from adhocnet.crosslayer import network_energy_per_bit
    from helpers import topology_from_positions

    scenario = Scenario(n_nodes=2, spreading_gain=128, master_seed=1)
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(2, [(0, 1)])
    res = pc_iterate(np.zeros(2), active, gains, 128, scenario.noise_power,
                     scenario.target_sir, tol=1e-10)
    assert res.powers.sum() == pytest.approx(1.25e-8, rel=1e-8)
    routes = RouteSet(paths=((0, 1),), n_nodes=2)
    energy = network_energy_per_bit(routes, res.powers, scenario, gains)
    f = (1.0 - np.exp(-scenario.target_sir / 2.0)) ** scenario.packet_bits
    expected = 1.25e-8 / (scenario.bit_rate * f)
    assert energy == pytest.approx(expected, rel=1e-6)


def reference_energy(routes, p, scenario, net):
    """Per-link reference sum: a fresh filter and scalar SIR per route link."""
    total = 0.0
    per_link = {}
    for path in routes.paths:
        for link in zip(path[:-1], path[1:]):
            i, j = link
            if scenario.receiver == "matched":
                sir = sir_matched(link, p, net.gains, scenario.spreading_gain,
                                  scenario.noise_power)
            else:
                c = lmmse_filter(i, p, net.gains, net.codebook,
                                 scenario.noise_power, j)
                sir = sir_lmmse(link, p, FilterBank({link: c}), net.gains,
                                net.codebook, scenario.noise_power)
            per_link[link] = (sir, energy_per_bit_link(
                link, p, sir, scenario.bit_rate, scenario.packet_bits))
            total += per_link[link][1]
    return total, per_link


ROUTES_5 = RouteSet(paths=((0, 1, 2), (3, 4), (2, 0), (4, 3), (1, 2)),
                    n_nodes=5)


@pytest.mark.parametrize("receiver", ["matched", "lmmse"])
def test_network_energy_matches_per_link_reference(receiver):
    scenario = Scenario(n_nodes=5, spreading_gain=8, receiver=receiver,
                        master_seed=3)
    net = build_network(scenario)
    p = np.array([4e-7, 2e-7, 5e-7, 1e-7, 3e-7])
    got = network_energy_per_bit(ROUTES_5, p, scenario, net.gains,
                                 net.codebook)
    want, _ = reference_energy(ROUTES_5, p, scenario, net)
    if receiver == "matched":
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-9)


def test_lmmse_energy_of_silent_transmitter_is_zero():
    # the reference filter of a zero-power transmitter is the zero vector,
    # whose SIR evaluates to inf, so the link costs no energy
    scenario = Scenario(n_nodes=5, spreading_gain=8, receiver="lmmse",
                        master_seed=3)
    net = build_network(scenario)
    p = np.array([0.0, 2e-7, 5e-7, 1e-7, 3e-7])
    want, per_link = reference_energy(ROUTES_5, p, scenario, net)
    assert per_link[(0, 1)] == (np.inf, 0.0)
    got = network_energy_per_bit(ROUTES_5, p, scenario, net.gains,
                                 net.codebook)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n_nodes, spreading_gain, seed, unreachable", [
    (8, 32, 27, False),  # one repair round, then a feasible check
    (8, 16, 0, True),    # repairs end when a rebuilt skeleton strands a session
])
def test_initial_routes_return_the_check_of_the_returned_routes(
        monkeypatch, n_nodes, spreading_gain, seed, unreachable):
    # the routes come back beside the pc_solve check made on them, and a
    # pc_iterate probe runs after every failed check but a last round's and
    # never otherwise
    scenario = Scenario(n_nodes=n_nodes, spreading_gain=spreading_gain,
                        master_seed=seed)
    net = build_network(scenario)
    p0 = initial_powers(scenario)
    calls = []
    seen = {"unreachable": 0}

    def check(*args, **kwargs):
        result = pc_solve(*args, **kwargs)
        calls.append("check" if result.converged else "failed check")
        return result

    def probe(*args, **kwargs):
        calls.append("probe")
        return pc_iterate(*args, **kwargs)

    def assign(*args, **kwargs):
        try:
            return assign_routes(*args, **kwargs)
        except UnreachableSessionError:
            seen["unreachable"] += 1
            raise

    monkeypatch.setattr(routing, "pc_solve", check)
    monkeypatch.setattr(routing, "pc_iterate", probe)
    monkeypatch.setattr(routing, "assign_routes", assign)
    routes, got = initial_routes(scenario, net.gains, net.sessions, p0)
    checks = [c for c in calls if c != "probe"]
    assert checks.count("failed check") > 0 and "check" not in checks[:-1]
    assert calls == [c for check in checks
                     for c in [check] + ["probe"] * (check == "failed check")]
    assert bool(seen["unreachable"]) == unreachable
    want = pc_solve(routes.active_links, net.gains, spreading_gain,
                    scenario.noise_power, scenario.target_sir,
                    power_cap=scenario.power_cap)
    assert same_pc_result(got, want)
    assert got.converged == (checks[-1] == "check")


@pytest.mark.parametrize("receiver", ["lmmse", "matched"])
def test_recorded_energies_equal_fresh_network_energy(receiver):
    # power-control records take their energy from the run's own link SIRs
    # and unchanged-route records repeat the last one; both must equal a
    # fresh network_energy_per_bit at the record's powers and routes. A run
    # with phase_budget=k ends at its k-th record's powers and routes, and
    # its records are the first k of every longer run
    repeated = 0
    for seed, n in ((0, 12), (1, 12), (2, 20), (3, 20), (4, 30)):
        scenario = Scenario(n_nodes=n, spreading_gain=128, receiver=receiver,
                            master_seed=seed)
        net, natural = run_joint(scenario)
        assert natural.converged
        budget = len(natural.trace) + 2
        _, full = run_joint(scenario, phase_budget=budget)
        assert natural.trace == full.trace[:len(natural.trace)]
        for k in range(1, budget + 1):
            _, prefix = run_joint(scenario, phase_budget=k)
            assert prefix.trace == full.trace[:k]
            fresh = network_energy_per_bit(prefix.routes, prefix.powers,
                                           scenario, net.gains, net.codebook)
            assert prefix.trace[-1].energy_per_bit == fresh
            assert prefix.trace[-1].total_power == float(prefix.powers.sum())
        repeated += sum(
            (a.total_power, a.energy_per_bit) == (b.total_power,
                                                  b.energy_per_bit)
            for a, b in zip(full.trace[:-1], full.trace[1:]))
    assert repeated > 0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 9), data=st.data())
def test_route_energy_matches_loop_oracle_bit_for_bit(n, data):
    # paths share links, and some links have zero SIR and infinite energy
    path = st.lists(st.integers(0, n - 1), min_size=2, max_size=n,
                    unique=True)
    paths = tuple(map(tuple, data.draw(st.lists(path, max_size=8))))
    routes = RouteSet(paths=paths, n_nodes=n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = np.exp(rng.uniform(np.log(1e-9), np.log(1e-3), n))
    link_sir = rng.choice([0.0, 5.0, 12.5, 30.0, np.inf],
                          len(routes.active_links.links))
    scenario = Scenario(n_nodes=n)
    got = crosslayer._route_energy(routes, p, link_sir, scenario)
    assert np.float64(got).tobytes() == np.float64(
        route_energy_loop(routes, p, link_sir, scenario)).tobytes()


def test_lmmse_joint_loop_factors_each_receiver_once_per_power_vector(
        monkeypatch):
    # every node sources a session, so the first power-control step runs
    # at the initial energy's powers; the gate runs at the last step's
    # powers and a rerouted run starts from them. Each receiver is factored
    # once per power vector, never again at powers already solved
    factored, solve = count_factorizations(monkeypatch), phy.lmmse_solve
    events = []  # (site, factorizations, powers, receivers)
    for site, module in (("energy", crosslayer), ("step", powercontrol),
                         ("gate", phy)):
        def logged(p, gains, codebook, noise, i_idx, j_idx, vectors=False,
                   _site=site):
            before = len(factored)
            solved = solve(p, gains, codebook, noise, i_idx, j_idx, vectors)
            events.append((_site, len(factored) - before, p.tobytes(),
                           set(j_idx.tolist())))
            return solved

        monkeypatch.setattr(module, "lmmse_solve", logged)
    scenario = Scenario(n_nodes=55, spreading_gain=128, receiver="lmmse",
                        master_seed=5)
    _, solution = run_joint(scenario)
    assert solution.converged
    sites = [site for site, *_ in events]
    assert sites[:2] == ["energy", "step"]
    (_, initial, p_init, heard), (_, first, p_first, heard_first) = events[:2]
    assert (p_first, heard_first) == (p_init, heard)
    assert (initial, first) == (len(heard), 0)
    gates = [k for k, site in enumerate(sites) if site == "gate"]
    assert gates[0] + 1 < len(events)  # a rerouted run
    for k in gates:
        _, count, p, heard = events[k]
        _, _, p_last, heard_last = events[k - 1]
        assert sites[k - 1] == "step" and p_last == p
        assert count == len(heard - heard_last)
        if k + 1 < len(events):
            assert sites[k + 1] == "step" and events[k + 1][1] == 0
    # in all: one factorization per power vector and receiver
    assert len(factored) == len({(p, j) for _, _, p, heard in events
                                 for j in heard})


_BLAS_THREADS_SCRIPT = """
import json
from adhocnet import Scenario, build_network, joint_optimize, multi_start

def summary(status, powers, routes):
    return [status, powers.tobytes().hex(), routes.paths]

def trace(solution):
    return [(r.phase, r.total_power.hex(), r.energy_per_bit.hex())
            for r in solution.trace]

lmmse = Scenario(n_nodes=40, spreading_gain=128, receiver="lmmse",
                 master_seed=5)
net = build_network(lmmse)
joint = joint_optimize(lmmse, net.topology, net.gains, net.sessions,
                       net.codebook)
matched = multi_start(Scenario(n_nodes=40, spreading_gain=128,
                               master_seed=5), trials=3)
print(json.dumps({
    "joint": summary(joint.status, joint.powers, joint.routes)
    + [trace(joint)],
    "multi_start": [summary(t.status, t.powers, t.routes)
                    for t in matched.trials] + [trace(matched.best)],
}))
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # an LMMSE joint run and a matched multi-start, with one BLAS thread and
    # with two, in fresh interpreters: same powers to the bit, routes and
    # traces
    src = str(Path(crosslayer.__file__).resolve().parents[1])
    runs = [subprocess.Popen(
        [sys.executable, "-c", _BLAS_THREADS_SCRIPT], stdout=subprocess.PIPE,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                 PYTHONPATH=os.pathsep.join(
                     [src, os.environ.get("PYTHONPATH", "")])))
        for threads in ("1", "2")]
    outputs = [json.loads(run.communicate(timeout=120)[0]) for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0]["joint"][0] == "local_min"
    assert outputs[0] == outputs[1]
