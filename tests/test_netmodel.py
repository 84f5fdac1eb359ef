import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from adhocnet import crosslayer, experiments, netmodel, phy
from adhocnet.errors import CoincidentNodesError, ConfigError
from adhocnet.netmodel import (
    Scenario,
    SpreadingCodebook,
    build_network,
    compute_link_gains,
    generate_sessions,
    generate_spreading_codebook,
    generate_topology,
    load_scenario,
    save_scenario,
)
from adhocnet.phy import lmmse_solve
from adhocnet.seeds import derive_seed
from helpers import generate_sessions_loop, topology_from_positions


def test_topology_two_nodes_inside_area():
    topo = generate_topology(2, 200.0, seed=7)
    assert topo.shape == (2, 2)
    assert np.all(topo >= 0.0) and np.all(topo <= 200.0)


def test_topology_deterministic_same_seed():
    a = generate_topology(55, 200.0, seed=42)
    b = generate_topology(55, 200.0, seed=42)
    assert np.array_equal(a, b)
    c = generate_topology(55, 200.0, seed=43)
    assert not np.array_equal(a, c)


def test_topology_quadrant_counts_within_binomial_bound():
    # 4-sigma bound for Bin(1000, 1/4) per quadrant
    topo = generate_topology(1000, 200.0, seed=3)
    x, y = topo[:, 0], topo[:, 1]
    counts = [
        int(np.sum((x < 100) & (y < 100))),
        int(np.sum((x < 100) & (y >= 100))),
        int(np.sum((x >= 100) & (y < 100))),
        int(np.sum((x >= 100) & (y >= 100))),
    ]
    sigma = np.sqrt(1000 * 0.25 * 0.75)
    assert sum(counts) == 1000
    for c in counts:
        assert abs(c - 250) <= 4 * sigma


def test_topology_rejects_single_node():
    with pytest.raises(ConfigError):
        generate_topology(1, 200.0, seed=0)


def test_gains_hand_values():
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    assert gains[0, 1] == pytest.approx(1e-4, rel=1e-12)
    topo = topology_from_positions([[0.0, 0.0], [1.0, 0.0]])
    for exponent in (2.0, 3.0, 4.0):
        gains = compute_link_gains(topo, exponent)
        assert gains[0, 1] == 1.0


def test_gains_match_elementwise_oracle():
    pos = generate_topology(20, 200.0, seed=11)
    gains = compute_link_gains(pos, 2.0)
    for i in range(20):
        for j in range(20):
            if i == j:
                assert gains[i, j] == 0.0
                continue
            d = np.hypot(pos[i, 0] - pos[j, 0], pos[i, 1] - pos[j, 1])
            assert gains[i, j] == pytest.approx(d ** -2.0, rel=1e-12)


def test_gains_symmetric():
    topo = generate_topology(30, 200.0, seed=5)
    gains = compute_link_gains(topo, 2.0)
    assert np.array_equal(gains, gains.T)


def test_gains_coincident_nodes_rejected():
    topo = topology_from_positions([[5.0, 5.0], [5.0, 5.0], [1.0, 1.0]])
    with pytest.raises(CoincidentNodesError):
        compute_link_gains(topo, 2.0)


def test_sessions_two_nodes_forced():
    sessions = generate_sessions(2, seed=0)
    assert set(sessions) == {(0, 1), (1, 0)}


def test_sessions_no_self_loops_and_one_per_node():
    sessions = generate_sessions(55, seed=9)
    assert len(sessions) == 55
    assert [s for s, _ in sessions] == list(range(55))
    for s, d in sessions:
        assert s != d
        assert 0 <= d < 55


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 55, 100, 513, 1000])
def test_sessions_equal_per_node_scalar_draws(n):
    for seed in range(60):
        assert generate_sessions(n, seed=seed) == \
            generate_sessions_loop(n, seed)


def test_sessions_destination_uniform_chi_squared():
    # pool destination ranks over many seeds; chi^2 test at the 1% level
    n = 10
    counts = np.zeros(n - 1)
    for seed in range(500):
        for s, d in generate_sessions(n, seed=seed):
            rank = d if d < s else d - 1
            counts[rank] += 1
    expected = counts.sum() / (n - 1)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(0.99, n - 2)


def test_codebook_unit_norms():
    book = generate_spreading_codebook(1, 4, seed=0)
    assert abs(np.linalg.norm(book.sequences[0]) - 1.0) <= 1e-12
    book = generate_spreading_codebook(30, 32, seed=1)
    norms = np.linalg.norm(book.sequences, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)


def test_codebook_cross_correlation_near_one_over_length():
    # E[(s1' s2)^2] = 1/L for independent random binary sequences
    length = 128
    samples = []
    for seed in range(10_000):
        book = generate_spreading_codebook(2, length, seed=seed)
        samples.append(float(book.sequences[0] @ book.sequences[1]) ** 2)
    assert np.mean(samples) == pytest.approx(1.0 / length, rel=0.10)


def test_codebook_keeps_a_copy_of_the_sequences(monkeypatch):
    # gram is cached and the LMMSE memo keys the codebook by identity, so
    # editing the caller's array afterwards must reach neither
    seqs = np.array(generate_spreading_codebook(6, 16, seed=3).sequences)
    original = seqs.copy()
    positions = np.random.default_rng(3).uniform(0.0, 200.0, size=(6, 2))
    gains = compute_link_gains(topology_from_positions(positions), 2.0)
    p = np.full(6, 1e-7)
    i_idx, j_idx = np.array([0, 2]), np.array([1, 1])
    book = SpreadingCodebook(sequences=seqs)
    gram = book.gram
    q = lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx)
    seqs[2] = seqs[3]
    monkeypatch.setattr(phy, "_memo", ((), {}))  # solve again
    fresh = SpreadingCodebook(sequences=original)
    assert np.array_equal(book.sequences, original)
    assert not book.sequences.flags.writeable
    assert np.array_equal(gram, fresh.gram) and book.gram is gram
    again = lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx)
    assert np.array_equal(again, q)
    monkeypatch.setattr(phy, "_memo", ((), {}))
    assert np.array_equal(lmmse_solve(p, gains, fresh, 1e-13, i_idx, j_idx),
                          q)


def test_build_network_deterministic():
    scenario = Scenario(n_nodes=12, spreading_gain=16, master_seed=21)
    a = build_network(scenario)
    b = build_network(scenario)
    assert np.array_equal(a.topology, b.topology)
    assert a.sessions == b.sessions
    assert np.array_equal(a.codebook.sequences, b.codebook.sequences)


def test_build_network_redraws_a_topology_with_coincident_nodes(monkeypatch):
    # attempt k draws from derive_seed(master, TOPOLOGY_STREAM, k); a draw
    # that places two nodes at one point is redrawn from the next attempt
    scenario = Scenario(n_nodes=6, spreading_gain=8, master_seed=4)
    seeds, real = [], generate_topology

    def draw(n, side, seed):
        seeds.append(seed)
        topology = np.array(real(n, side, seed))
        if len(seeds) < 3:
            topology[1] = topology[0]
        return topology

    monkeypatch.setattr(netmodel, "generate_topology", draw)
    net = build_network(scenario)
    assert seeds == [derive_seed(4, netmodel.TOPOLOGY_STREAM, k)
                     for k in range(3)]
    np.testing.assert_array_equal(net.topology, real(6, scenario.area_side,
                                                     seeds[2]))
    np.testing.assert_array_equal(
        net.gains, compute_link_gains(net.topology, scenario.path_loss_exp))
    monkeypatch.setattr(netmodel, "_MAX_ATTEMPTS", 2)
    seeds.clear()
    with pytest.raises(CoincidentNodesError, match="in 2 attempts"):
        build_network(scenario)
    assert len(seeds) == 2


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(n_nodes=1)
    with pytest.raises(ConfigError):
        Scenario(target_sir=0.0)
    with pytest.raises(ConfigError):
        Scenario(noise_power=0.0)
    with pytest.raises(ConfigError):
        Scenario(receiver="zf")
    with pytest.raises(ConfigError):
        Scenario(initial_power_mode="fixed")


def test_scenario_json_roundtrip_and_unknown_key(tmp_path):
    scenario = Scenario(n_nodes=20, spreading_gain=64, master_seed=5,
                        receiver="lmmse", initial_power_mode="random")
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario
    path.write_text('{"n_nodes": 5, "bogus_key": 1}')
    with pytest.raises(ConfigError, match="bogus_key"):
        load_scenario(path)


@pytest.mark.parametrize("key, value", [
    ("initial_power_range", [1e-7, 1e-5]), ("phase_cap", 100)])
def test_a_removed_scenario_key_is_named_as_unknown(tmp_path, key, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n_nodes": 5, key: value}))
    with pytest.raises(ConfigError, match=f"unknown scenario key: '{key}'"):
        load_scenario(path)


def test_arrays_are_read_only():
    net = build_network(Scenario(n_nodes=4, spreading_gain=8, master_seed=3))
    with pytest.raises(ValueError):
        net.topology[0, 0] = 1.0
    with pytest.raises(ValueError):
        net.gains[0, 1] = 2.0


@pytest.mark.parametrize("field, value", [
    ("n_nodes", "5"), ("n_nodes", 5.0), ("spreading_gain", 2.5),
    ("packet_bits", "80"), ("pc_max_iter", 10.0), ("pc_max_iter", None),
    ("master_seed", "1"), ("pc_tol", "1e-6"), ("pc_tol", 0.0),
    ("pc_tol", -1.0), ("pc_max_iter", 0),
    ("improvement_tol", -1.0), ("path_loss_exp", 0.0),
    ("path_loss_exp", -2.0), ("noise_power", float("inf")),
    ("target_sir", float("inf")), ("initial_power", float("inf")),
    ("power_cap", float("inf")), ("area_side", float("nan")),
    ("master_seed", -1), ("master_seed", 2**64),
])
def test_scenario_rejects_bad_field_naming_it(field, value):
    with pytest.raises(ConfigError, match=field):
        Scenario(**{field: value})


def test_master_seed_spans_the_64_bit_range():
    for seed in (0, 2**64 - 1):
        assert Scenario(master_seed=seed).master_seed == seed


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)])
def test_every_scenario_field_rejects_a_wrong_type(field):
    wrong = 1 if isinstance(getattr(Scenario(), field), str) else "1"
    with pytest.raises(ConfigError, match=rf"^{field}\b"):
        Scenario(**{field: wrong})


seeds = st.integers(0, 2**64 - 1)
indices = st.lists(st.integers(0, 2**64), max_size=3)


@settings(max_examples=200, deadline=None)
@given(seeds, indices, indices)
def test_derive_seed_folds_its_indices_one_at_a_time(master, head, tail):
    assert derive_seed(master, *head, *tail) == \
        derive_seed(derive_seed(master, *head), *tail)


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_every_stream_the_library_draws_gets_its_own_seed(master):
    # the index tuples build_network, multi_start (up to 1000 trials) and
    # capacity_search (up to 100 trials, n up to 65) fold in
    streams = [(netmodel.TOPOLOGY_STREAM, attempt)
               for attempt in range(netmodel._MAX_ATTEMPTS)]
    streams += [(netmodel.SESSION_STREAM,), (netmodel.CODEBOOK_STREAM,),
                (netmodel.INIT_POWER_STREAM,)]
    streams += [(crosslayer.TRIAL_STREAM_BASE, trial)
                for trial in range(1000)]
    streams += [(experiments._CAP_POSITION_STREAM, trial)
                for trial in range(100)]
    streams += [(stream, trial, n) for stream in (
        experiments._CAP_SESSION_STREAM, experiments._CAP_POWER_STREAM,
        experiments._CAP_CODEBOOK_STREAM)
        for trial in range(100) for n in range(2, 66)]
    children = {derive_seed(master, *stream) for stream in streams}
    assert len(children) == len(streams)
