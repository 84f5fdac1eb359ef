import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adhocnet import phy, routing
from adhocnet.errors import ConfigError, UnreachableSessionError
from adhocnet.netmodel import (
    Scenario,
    build_network,
    compute_link_gains,
    generate_spreading_codebook,
)
from adhocnet.phy import (
    lmmse_sir_matrix,
    lmmse_solve,
    matched_link_sir,
    matched_sir_matrix,
    sir_matched,
)
from adhocnet.powercontrol import ActiveLinkSet, pc_iterate, pc_solve
from adhocnet.routing import (
    RouteSet,
    _heap_lex_path,
    _initial_skeleton,
    _lex_paths,
    assign_routes,
    build_link_costs,
    initial_routes,
)
from helpers import brute_force_shortest, initial_skeleton_loop, \
    random_network, route_set_loop, topology_from_positions

GAMMA = 12.5
NOISE = 1e-13


# The routing gate's estimated SIR is phy.matched_sir_matrix.


def test_estimated_sir_no_other_transmitters():
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0], [50.0, 80.0]])
    gains = compute_link_gains(topo, 2.0)
    p = np.array([1e-6, 0.0, 0.0])
    got = matched_sir_matrix(p, gains, 16, NOISE)[0, 1]
    assert got == pytest.approx(gains[0, 1] * p[0] / NOISE, rel=1e-12)


def test_estimated_sir_equals_matched_sir_exactly():
    rng = np.random.default_rng(0)
    _, gains = random_network(rng, 9)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), 9))
    matrix = matched_sir_matrix(p, gains, 32, NOISE)
    i_idx, j_idx = np.nonzero(~np.eye(9, dtype=bool))
    links = matched_link_sir(i_idx, j_idx, p, gains, 32, NOISE)
    assert matrix[i_idx, j_idx].tobytes() == links.tobytes()


def test_estimated_sir_matrix_matches_scalar_path():
    rng = np.random.default_rng(1)
    _, gains = random_network(rng, 7)
    p = rng.uniform(0.0, 1e-6, 7)
    p[3] = 0.0
    matrix = matched_sir_matrix(p, gains, 16, NOISE)
    for i in range(7):
        for j in range(7):
            if i == j:
                assert matrix[i, j] == 0.0
            else:
                assert matrix[i, j] == sir_matched((i, j), p, gains, 16, NOISE)
    assert np.all(matrix[3, :] == 0.0)  # zero power cannot reach anyone


def test_estimated_sir_zero_over_zero_is_zero():
    # without noise and interference a silent transmitter reads 0/0 and is
    # gated out, while a sending one reads x/0 and is admitted
    gains = np.array([[0.0, 2.0 ** -10, 0.0],
                      [2.0 ** -10, 0.0, 0.0],
                      [0.0, 0.0, 0.0]])
    gains.setflags(write=False)
    matrix = matched_sir_matrix(np.array([1.0, 0.0, 0.0]), gains, 4, 0.0)
    assert matrix[0, 1] == np.inf
    assert matrix[1, 0] == 0.0
    assert np.all(np.diag(matrix) == 0.0)


def test_link_costs_boundary_sir_is_admitted():
    # powers of two keep the arithmetic exact, so the estimated SIR equals
    # the target exactly and the boundary rule (>=) is visible
    gains = np.array([[0.0, 2.0 ** -10], [2.0 ** -10, 0.0]])
    gains.setflags(write=False)
    noise = 2.0 ** -40
    target = 12.5
    p_exact = target * noise / 2.0 ** -10  # receiver sees exactly target
    p = np.array([p_exact, 0.0])
    sir = matched_sir_matrix(p, gains, 1, noise)
    assert sir[0, 1] == target
    costs = build_link_costs(p, sir, target)
    assert costs[0, 1] == p_exact
    # strictly below target gates out
    p_low = np.array([p_exact * 0.999, 0.0])
    costs_low = build_link_costs(p_low, matched_sir_matrix(p_low, gains, 1,
                                                           noise), target)
    assert costs_low[0, 1] == np.inf


def test_link_costs_zero_power_is_gated():
    rng = np.random.default_rng(3)
    _, gains = random_network(rng, 4)
    p = np.array([0.0, 1e-6, 1e-6, 1e-6])
    costs = build_link_costs(p, matched_sir_matrix(p, gains, 16, NOISE),
                             GAMMA)
    assert np.all(costs[0, :] == np.inf)


def test_shortest_path_two_nodes():
    costs = np.array([[np.inf, 3.0], [3.0, np.inf]])
    assert assign_routes(((0, 1),), costs).paths == ((0, 1),)


def test_shortest_path_triangle():
    costs = np.full((3, 3), np.inf)
    costs[0, 2] = 5.0
    costs[0, 1] = 2.0
    costs[1, 2] = 2.0
    assert assign_routes(((0, 2),), costs).paths == ((0, 1, 2),)


def test_shortest_path_unreachable_is_none():
    costs = np.full((3, 3), np.inf)
    costs[0, 1] = 1.0
    assert _lex_paths(costs, ((0, 2),)) == [None]


def test_shortest_path_matches_enumeration_oracle():
    rng = np.random.default_rng(4)
    for trial in range(30):
        n = 8
        costs = rng.uniform(0.5, 3.0, size=(n, n))
        costs[rng.uniform(size=(n, n)) < 0.35] = np.inf
        np.fill_diagonal(costs, np.inf)
        got = _lex_paths(costs, ((0, n - 1),))
        assert got == [brute_force_shortest(costs, 0, n - 1)]


def test_shortest_path_lexicographic_ties():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = 7
        # small integer costs force plenty of exact ties
        costs = rng.choice([1.0, 2.0], size=(n, n))
        costs[rng.uniform(size=(n, n)) < 0.25] = np.inf
        np.fill_diagonal(costs, np.inf)
        got = _lex_paths(costs, ((0, n - 1),))
        assert got == [brute_force_shortest(costs, 0, n - 1)]


def test_assign_routes_direct_when_cheapest():
    n = 4
    costs = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                costs[i, j] = 1.0
    sessions = ((0, 3), (1, 2), (2, 0), (3, 1))
    routes = assign_routes(sessions, costs)
    assert routes.paths == ((0, 3), (1, 2), (2, 0), (3, 1))


def test_assign_routes_unreachable_names_session():
    costs = np.full((3, 3), np.inf)
    costs[0, 1] = 1.0
    sessions = ((0, 1), (1, 2))
    with pytest.raises(UnreachableSessionError) as err:
        assign_routes(sessions, costs)
    assert err.value.session == 1
    assert err.value.source == 1
    assert err.value.destination == 2


def ring_costs(n):
    costs = np.full((n, n), np.inf)
    costs[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return costs


@pytest.mark.parametrize("sessions, costs, message", [
    # numpy would read node -1 as node 3 of the ring
    (((-1, 2),), ring_costs(4), "session 0 (-1, 2) needs nodes in 0..3"),
    (((0, 1), (0, -1)), ring_costs(4),
     "session 1 (0, -1) needs nodes in 0..3"),
    (((0, 10),), np.ones((10, 10)), "session 0 (0, 10) needs nodes in 0..9"),
    (((0, 1.0),), ring_costs(4), "session 0 (0, 1.0) needs nodes in 0..3"),
])
def test_assign_routes_rejects_endpoints_that_are_not_nodes(sessions, costs,
                                                           message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        assign_routes(sessions, costs)


def test_assign_routes_total_cost_matches_brute_force():
    rng = np.random.default_rng(6)
    n = 6
    costs = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(costs, np.inf)
    sessions = tuple((i, int((i + 2) % n)) for i in range(n))
    routes = assign_routes(sessions, costs)
    for (s, d), path in zip(sessions, routes.paths):
        total = sum(costs[a, b] for a, b in zip(path[:-1], path[1:]))
        oracle = brute_force_shortest(costs, s, d)
        oracle_cost = sum(costs[a, b] for a, b in zip(oracle[:-1], oracle[1:]))
        assert total == pytest.approx(oracle_cost, rel=1e-12)


def test_active_links_derived_from_paths():
    routes = RouteSet(paths=((0, 2, 1), (1, 0)), n_nodes=3)
    assert set(routes.active_links.links) == {(0, 2), (2, 1), (1, 0)}
    assert routes.active_links.outgoing[0] == (2,)


def sized_paths(n_max: int, node_max, max_paths: int):
    """(n, paths) for 2 <= n <= n_max, with nodes up to ``node_max(n)``."""
    def paths(n):
        path = st.lists(st.integers(0, node_max(n)), min_size=2, max_size=n,
                        unique=True)
        return st.tuples(st.just(n), st.lists(path, max_size=max_paths).map(
            lambda drawn: tuple(map(tuple, drawn))))
    return st.integers(2, n_max).flatmap(paths)


# inputs the draws rarely or never make: an empty route set, numpy-integer
# nodes, a float node, and a short first path before an out-of-range node,
# where the path error must come first
ROUTE_SET_EXAMPLES = [
    (3, ()),
    (3, ((np.int64(0), np.int32(2), 1), (np.uint8(1), 0))),
    (3, ((0, 1.5),)),
    (3, ((0,), (1, 7))),
]


def with_route_set_examples(test):
    for case in ROUTE_SET_EXAMPLES:
        test = example(case=case)(test)
    return test


@settings(max_examples=200, deadline=None)
# node n is out of range, so some draws must fail like the oracle
@given(case=sized_paths(9, lambda n: n, 6))
@with_route_set_examples
def test_active_links_match_loop_oracle(case):
    n, paths = case
    try:
        want = route_set_loop(n, paths)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            RouteSet(paths=paths, n_nodes=n)
    else:
        active = RouteSet(paths=paths, n_nodes=n).active_links
        assert active.links == want
        i_idx, j_idx = active.link_arrays
        assert list(zip(i_idx.tolist(), j_idx.tolist())) == list(want)


@settings(max_examples=200, deadline=None)
# few nodes and many paths, so paths share links; two-node paths are one hop
@given(case=sized_paths(6, lambda n: n - 1, 8))
@with_route_set_examples
def test_active_links_equal_the_link_set_of_consecutive_pairs(case):
    n, paths = case
    try:
        route_set_loop(n, paths)
    except ValueError as exc:  # only some of the examples
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            RouteSet(paths=paths, n_nodes=n)
        return
    routes = RouteSet(paths=paths, n_nodes=n)
    links = [link for p in paths for link in zip(p[:-1], p[1:])]
    got, want = routes.active_links, ActiveLinkSet(n, links)
    assert got == want and got.links == want.links
    for a, b in zip(got.link_arrays, want.link_arrays):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    # path_links indexes the set's links with every path link, in order
    assert [got.links[k] for k in routes.path_links.tolist()] == links


@pytest.mark.parametrize("paths, message", [
    (((0, 1), (2, 5, 1)), "link (2, 5) outside node range"),
    (((3, 0, -1), (1, 2)), "link (0, -1) outside node range"),
])
def test_active_links_name_an_out_of_range_node_as_a_link_set(paths,
                                                               message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ActiveLinkSet(
            4, [link for p in paths for link in zip(p[:-1], p[1:])])
    # the route set builds its link set, with these checks, when it is built
    with pytest.raises(ValueError, match=re.escape(message)):
        RouteSet(paths=paths, n_nodes=4)


@pytest.mark.parametrize("paths", [((0, 1.5),), ((0, 1), (2, 1.0, 0))])
def test_active_links_reject_non_integer_nodes(paths):
    with pytest.raises(ValueError, match="must be integers"):
        RouteSet(paths=paths, n_nodes=3)


def test_route_set_rejects_degenerate_paths():
    for paths, message in [
        (((0,),), "a route needs at least two nodes"),
        (((0, 1, 0),), "route (0, 1, 0) repeats a node"),
        (((np.int64(1), np.int64(1)),), "repeats a node"),
        (((0, 1.5),), "active link nodes must be integers"),
        # the path checks come before the link-set checks
        (((0,), (1, 7)), "a route needs at least two nodes"),
        (((0, 1), (2, 7), (1, 0, 1)), "route (1, 0, 1) repeats a node"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            RouteSet(paths=paths, n_nodes=3)
    # neither an empty set nor numpy-integer nodes are degenerate
    assert RouteSet(paths=(), n_nodes=3).active_links.links == ()
    routes = RouteSet(paths=((np.int64(0), np.int32(2)),), n_nodes=3)
    assert routes.active_links.links == ((0, 2),)


def test_initial_routes_two_nodes_direct():
    scenario = Scenario(n_nodes=2, spreading_gain=16, master_seed=1)
    net = build_network(scenario)
    p0 = np.full(2, scenario.initial_power)
    routes, _ = initial_routes(scenario, net.gains, net.sessions, p0)
    assert routes.paths == ((0, 1), (1, 0))


def test_initial_routes_collinear_multihop_beats_direct():
    from adhocnet.phy import energy_per_bit_link

    scenario = Scenario(n_nodes=4, spreading_gain=32, master_seed=1,
                        target_sir=12.5)
    topo = topology_from_positions(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    sessions = ((0, 3), (1, 0), (2, 1), (3, 2))
    p0 = np.full(4, scenario.initial_power)
    routes, _ = initial_routes(scenario, gains, sessions, p0)
    assert routes.paths[0] == (0, 1, 2, 3)
    # oracle: energy per bit of the hop path beats the direct link

    def link_energy(link):
        sir = sir_matched(link, p0, gains, scenario.spreading_gain,
                          scenario.noise_power)
        return energy_per_bit_link(link, p0, sir, scenario.bit_rate,
                                   scenario.packet_bits)

    direct = link_energy((0, 3))
    hops = sum(link_energy(l) for l in [(0, 1), (1, 2), (2, 3)])
    assert hops < direct


def test_initial_routes_smoke_at_full_scale():
    scenario = Scenario(n_nodes=55, spreading_gain=128, master_seed=0)
    net = build_network(scenario)
    p0 = np.full(55, scenario.initial_power)
    routes, _ = initial_routes(scenario, net.gains, net.sessions, p0)
    assert len(routes.paths) == 55
    from adhocnet.powercontrol import pc_iterate

    result = pc_iterate(p0, routes.active_links, net.gains, 128,
                        scenario.noise_power, scenario.target_sir)
    assert result.status in ("converged", "infeasible", "max_iter")


@pytest.mark.parametrize("case, spreading_gain", [
    ("probe_converges", 128),  # the first check is made to fail
    ("rounds_run_out", 16),    # every check is made to fail
])
def test_the_check_alone_decides_and_the_probe_only_ranks_the_ban(
        monkeypatch, case, spreading_gain):
    # a failed pc_solve check is always followed by a ban, whatever the
    # probe's status, and the last round's check is followed by no probe
    scenario = Scenario(n_nodes=10, spreading_gain=spreading_gain,
                        master_seed=0)
    net = build_network(scenario)
    p0 = np.full(10, scenario.initial_power)
    checked, probes, bans = [], [], []

    def check(active, *args, **kwargs):
        checked.append(active.links)
        result = pc_solve(active, *args, **kwargs)
        fail = case == "rounds_run_out" or len(checked) == 1
        return replace(result, status="infeasible") if fail else result

    def probe(*args, **kwargs):
        result = pc_iterate(*args, **kwargs)
        probes.append(replace(result, status="converged")
                      if case == "probe_converges" else result)
        return probes[-1]

    def skeleton(sir, forbidden):
        bans.append({tuple(link) for link in np.argwhere(forbidden).tolist()})
        return _initial_skeleton(sir, forbidden)

    monkeypatch.setattr(routing, "pc_solve", check)
    monkeypatch.setattr(routing, "pc_iterate", probe)
    monkeypatch.setattr(routing, "_initial_skeleton", skeleton)
    routes, got = initial_routes(scenario, net.gains, net.sessions, p0)
    rounds = len(checked)
    assert len(bans) == rounds and len(probes) == rounds - 1
    for k in range(1, rounds):
        # one more banned link per round, taken from the last candidate
        (added,) = bans[k] - bans[k - 1]
        assert bans[k - 1] < bans[k] and added in checked[k - 1]
    assert routes.active_links.links == checked[-1]
    if case == "rounds_run_out":
        assert rounds == routing._REPAIR_ROUNDS + 1 and not got.converged
    else:
        assert rounds == 2 and got.converged


def test_route_invariance_of_estimated_sir():
    # the estimate reads only gains and powers, so the links of any two
    # route sets read their values off one matrix at fixed converged powers
    scenario = Scenario(n_nodes=10, spreading_gain=64, master_seed=4)
    net = build_network(scenario)
    p0 = np.full(10, scenario.initial_power)
    routes_a, _ = initial_routes(scenario, net.gains, net.sessions, p0)
    from adhocnet.powercontrol import pc_iterate

    res = pc_iterate(p0, routes_a.active_links, net.gains, 64,
                     scenario.noise_power, scenario.target_sir)
    assert res.converged
    matrix = matched_sir_matrix(res.powers, net.gains, 64,
                                scenario.noise_power)
    # a different (arbitrary) route set
    paths = tuple((i, int((i + 3) % 10)) for i in range(10))
    for routes in (routes_a, RouteSet(paths=paths, n_nodes=10)):
        links = routes.active_links.link_arrays
        sir = matched_link_sir(*links, res.powers, net.gains, 64,
                               scenario.noise_power)
        assert sir.tobytes() == matrix[links].tobytes()


@st.composite
def route_set_pairs(draw):
    """A random 6-12-node network at fixed random powers, a codebook of a
    length that puts it in any LMMSE kernel form, and two random route sets
    of one path per node, the second keeping some of the first's paths."""
    n = draw(st.integers(6, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, gains = random_network(rng, n)
    book = generate_spreading_codebook(
        n, draw(st.sampled_from([4, 8, 32])), seed=int(rng.integers(2**32)))
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))

    def random_path():
        return tuple(rng.choice(n, size=int(rng.integers(2, 5)),
                                replace=False).tolist())

    paths_a = [random_path() for _ in range(n)]
    kept = [path for path in paths_a if rng.random() < 0.5] or paths_a[:1]
    paths_b = kept + [random_path() for _ in range(n - len(kept))]
    return (p, gains, book, RouteSet(paths=tuple(paths_a), n_nodes=n),
            RouteSet(paths=tuple(paths_b), n_nodes=n))


@settings(max_examples=200, deadline=None)
@given(route_set_pairs())
def test_link_sir_does_not_depend_on_the_routes(instance):
    # at fixed powers a link's SIR reads only the powers, gains and
    # codebook: the same for every route set it is on, and the all-pairs
    # matrix's entry
    p, gains, book, routes_a, routes_b = instance
    link_sets = [routes.active_links for routes in (routes_a, routes_b)]
    shared = sorted(set(link_sets[0].links) & set(link_sets[1].links))
    at_a, at_b = ([active.links.index(link) for link in shared]
                  for active in link_sets)
    arrays = [active.link_arrays for active in link_sets]

    matrix = matched_sir_matrix(p, gains, book.length, NOISE)
    sir_a, sir_b = (matched_link_sir(*links, p, gains, book.length, NOISE)
                    for links in arrays)
    assert sir_a[at_a].tobytes() == sir_b[at_b].tobytes()
    for links, sir in zip(arrays, (sir_a, sir_b)):
        assert sir.tobytes() == matrix[links].tobytes()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # condition bound
        phy._memo = ((), {})
        q_a = lmmse_solve(p, gains, book, NOISE, *arrays[0])
        q_b_warmed = lmmse_solve(p, gains, book, NOISE, *arrays[1])
        phy._memo = ((), {})
        q_b = lmmse_solve(p, gains, book, NOISE, *arrays[1])
        q_a_warmed = lmmse_solve(p, gains, book, NOISE, *arrays[0])
        matrix = lmmse_sir_matrix(p, gains, book, NOISE, gate=0.0)
    # 1e-13 relative: the kernel's permutation tolerance, in every form
    for q_first in (q_a, q_a_warmed):
        for q_second in (q_b, q_b_warmed):
            assert (np.abs(q_first[at_a] - q_second[at_b])
                    <= 1e-13 * q_second[at_b]).all()
    for links, q in zip(arrays, (q_a, q_b)):
        # the matrix holds s = c q / (1 - c q); s / (1 + s) gives c q back
        # without the 1 / (1 - c q) growth of the rounding in s
        sir = matrix[links]
        cq = p[links[0]] * gains[links] * q
        assert (np.abs(sir / (1.0 + sir) - cq) <= 1e-13 * cq).all()


def test_gating_soundness_of_assigned_routes():
    scenario = Scenario(n_nodes=10, spreading_gain=64, master_seed=12)
    net = build_network(scenario)
    p0 = np.full(10, scenario.initial_power)
    routes0, _ = initial_routes(scenario, net.gains, net.sessions, p0)
    from adhocnet.powercontrol import pc_iterate

    res = pc_iterate(p0, routes0.active_links, net.gains, 64,
                     scenario.noise_power, scenario.target_sir)
    assert res.converged
    matrix = matched_sir_matrix(res.powers, net.gains, 64,
                                scenario.noise_power)
    costs = build_link_costs(res.powers, matrix, scenario.target_sir)
    routes = assign_routes(net.sessions, costs)
    for i, j in routes.active_links.links:
        assert matrix[i, j] >= scenario.target_sir


@st.composite
def zero_cost_instances(draw):
    """5-7 nodes, costs from {0, 1, 2, inf}, one session per node."""
    n = draw(st.integers(5, 7))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, np.inf]),
                           min_size=n * n, max_size=n * n))
    costs = np.array(values).reshape(n, n)
    np.fill_diagonal(costs, np.inf)
    offsets = draw(st.lists(st.integers(1, n - 1), min_size=n, max_size=n))
    sessions = tuple((i, (i + off) % n) for i, off in enumerate(offsets))
    return costs, sessions


@settings(max_examples=150, deadline=None)
@given(zero_cost_instances())
def test_routes_match_enumeration_oracle_with_zero_costs(instance):
    costs, sessions = instance
    expected = [brute_force_shortest(costs, s, d) for s, d in sessions]
    assert _lex_paths(costs, sessions) == expected
    unreachable = [k for k, path in enumerate(expected) if path is None]
    if unreachable:
        with pytest.raises(UnreachableSessionError) as err:
            assign_routes(sessions, costs)
        assert err.value.session == unreachable[0]
    else:
        routes = assign_routes(sessions, costs)
        assert [list(p) for p in routes.paths] == expected
        # path_links indexes the set's links with every path link, in order
        links = [link for p in expected for link in zip(p[:-1], p[1:])]
        active = routes.active_links
        assert [active.links[k] for k in routes.path_links.tolist()] == links


def test_initial_skeleton_matches_loop_oracle():
    rng = np.random.default_rng(9)
    for trial in range(200):
        n = int(rng.integers(4, 16))
        # few distinct values force ties in every argmax
        sir = rng.choice([0.0, 0.5, 1.0, 2.0, np.inf],
                         p=[0.2, 0.3, 0.3, 0.15, 0.05], size=(n, n))
        np.fill_diagonal(sir, 0.0)
        forbidden = rng.uniform(size=(n, n)) < 0.2
        assert np.array_equal(_initial_skeleton(sir, forbidden),
                              initial_skeleton_loop(sir, forbidden))


@pytest.mark.parametrize("n", [2, 3, 7])
def test_initial_skeleton_keeps_a_strongly_connected_first_phase(n):
    # every node's best link out and in runs along the ring i -> i + 1, so
    # the first phase is one component and no merge round adds a link
    rng = np.random.default_rng(n)
    sir = rng.choice([0.0, 0.5, 1.0], size=(n, n))
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    sir[ring] = 2.0
    np.fill_diagonal(sir, 0.0)
    forbidden = np.zeros((n, n), dtype=bool)
    skeleton = _initial_skeleton(sir, forbidden)
    assert np.array_equal(skeleton, initial_skeleton_loop(sir, forbidden))
    assert np.array_equal(skeleton, ring)


SIR_LEVELS = [0.0, 0.5, 1.0, 2.0, np.inf]


@st.composite
def skeleton_instances(draw):
    """4-40 nodes with SIR from SIR_LEVELS and a random forbidden mask.

    Half the instances are chains of clusters: strong inside a cluster, 1.0
    back to the previous cluster and 0.5 forward to the next, so each merge
    round joins only one more cluster to the first, in a random node order
    with at most a few links redrawn.
    """
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        cluster = np.cumsum(rng.uniform(size=n) < 0.6)
        step = cluster[None, :] - cluster[:, None]
        sir = np.select([step == 0, step == -1, step == 1], [2.0, 1.0, 0.5],
                        0.0)
        order = rng.permutation(n)
        sir = sir[np.ix_(order, order)]
        redraw = rng.uniform(size=(n, n)) < draw(st.sampled_from([0, 0.01]))
        sir[redraw] = rng.choice(SIR_LEVELS, size=np.count_nonzero(redraw))
    else:
        sir = rng.choice(SIR_LEVELS, size=(n, n))
    np.fill_diagonal(sir, 0.0)
    share = draw(st.sampled_from([0.0, 0.02, 0.2]))
    return sir, rng.uniform(size=(n, n)) < share


@settings(max_examples=200, deadline=None)
@given(skeleton_instances())
def test_initial_skeleton_matches_loop_oracle_on_drawn_instances(instance):
    sir, forbidden = instance
    assert np.array_equal(_initial_skeleton(sir, forbidden),
                          initial_skeleton_loop(sir, forbidden))


def test_initial_skeleton_matches_loop_oracle_on_a_65_node_network():
    scenario = Scenario(n_nodes=65, spreading_gain=128, master_seed=11)
    net = build_network(scenario)
    p0 = np.full(65, scenario.initial_power)
    sir = matched_sir_matrix(p0, net.gains, 128, scenario.noise_power)
    forbidden = np.zeros_like(sir, dtype=bool)
    for _ in range(2):
        skeleton = _initial_skeleton(sir, forbidden)
        assert np.array_equal(skeleton, initial_skeleton_loop(sir, forbidden))
        # ban a skeleton link and rebuild, as a repair round does
        i, j = np.nonzero(skeleton)
        k = np.argmin(sir[i, j])
        forbidden[i[k], j[k]] = True


@st.composite
def sparse_cost_instances(draw):
    """10-40 nodes with 1-3 finite out-links each at tied integer costs, one
    session per node; the last ``trapped`` nodes link only among themselves,
    so they cannot reach the others."""
    n = draw(st.integers(10, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    trapped = draw(st.sampled_from([0, 2, 3]))
    costs = np.full((n, n), np.inf)
    for u in range(n):
        group = range(n - trapped, n) if u >= n - trapped else range(n)
        others = [v for v in group if v != u]
        k = int(rng.integers(1, min(3, len(others)) + 1))
        costs[u, rng.choice(others, size=k, replace=False)] = \
            rng.integers(1, 4, size=k)
    offsets = draw(st.lists(st.integers(1, n - 1), min_size=n, max_size=n))
    sessions = tuple((i, (i + off) % n) for i, off in enumerate(offsets))
    return costs, sessions


@settings(max_examples=100, deadline=None)
@given(sparse_cost_instances())
def test_routes_match_heap_search_on_sparse_graphs(instance):
    costs, sessions = instance
    expected = [_heap_lex_path(costs, s, d) for s, d in sessions]
    assert _lex_paths(costs, sessions) == expected
    unreachable = [k for k, path in enumerate(expected) if path is None]
    if unreachable:
        with pytest.raises(UnreachableSessionError) as err:
            assign_routes(sessions, costs)
        assert err.value.session == unreachable[0]
    else:
        routes = assign_routes(sessions, costs)
        assert [list(p) for p in routes.paths] == expected
