import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adhocnet import phy
from adhocnet.errors import ConfigError
from adhocnet.netmodel import (
    SpreadingCodebook,
    generate_spreading_codebook,
)
from adhocnet.phy import (
    FilterBank,
    efficiency,
    energy_per_bit_link,
    link_energies,
    lmmse_filter,
    lmmse_sir_matrix,
    lmmse_solve,
    sir_lmmse,
    sir_matched,
)
from helpers import (
    all_pairs,
    count_factorizations,
    count_solves,
    lmmse_kernel_lu,
    lmmse_q_mpmath,
    lmmse_sir_matrix_all_pairs,
    random_network,
    topology_from_positions,
)
from adhocnet.netmodel import compute_link_gains
from adhocnet.routing import build_link_costs


def make_codebook(rows):
    seqs = np.asarray(rows, dtype=float)
    seqs = seqs / np.linalg.norm(seqs, axis=1, keepdims=True)
    seqs.setflags(write=False)
    return SpreadingCodebook(sequences=seqs)


def test_sir_matched_isolated_link():
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    p = np.array([1e-6, 0.0])
    sir = sir_matched((0, 1), p, gains, 16, 1e-13)
    assert sir == pytest.approx(1000.0, rel=1e-12)


def test_sir_matched_single_interferer_hand_value():
    topo = topology_from_positions([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    gains = compute_link_gains(topo, 2.0)
    p = np.array([2e-6, 0.0, 5e-7])
    spreading, noise = 8, 1e-13
    g = gains
    expected = g[0, 1] * p[0] / ((g[2, 1] * p[2]) / spreading + noise)
    assert sir_matched((0, 1), p, gains, spreading, noise) == \
        pytest.approx(expected, rel=1e-12)


def test_sir_matched_scale_invariant_without_noise():
    rng = np.random.default_rng(0)
    _, gains = random_network(rng, 6)
    p = rng.uniform(1e-8, 1e-6, 6)
    for link in [(0, 1), (2, 5), (4, 3)]:
        base = sir_matched(link, p, gains, 16, 0.0)
        scaled = sir_matched(link, 7.5 * p, gains, 16, 0.0)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_sir_matched_monotone_in_powers():
    rng = np.random.default_rng(1)
    _, gains = random_network(rng, 6)
    p = rng.uniform(1e-8, 1e-6, 6)
    link = (0, 1)
    base = sir_matched(link, p, gains, 16, 1e-13)
    up = p.copy()
    up[0] *= 1.01
    assert sir_matched(link, up, gains, 16, 1e-13) > base
    for k in (2, 3, 4, 5):
        bumped = p.copy()
        bumped[k] *= 1.01
        assert sir_matched(link, bumped, gains, 16, 1e-13) < base


@pytest.mark.parametrize("function, args, name", [
    (phy.received_powers, (np.ones((4, 3)), np.ones(4)), "gains"),
    (phy.received_powers, (np.ones((4, 4)), np.ones(3)), "p"),
    (build_link_costs, (np.ones(4), np.ones((4, 5)), 1.0), "sir"),
    (build_link_costs, (np.ones(3), np.ones((4, 4)), 1.0), "p"),
], ids=["gains-4x3", "p-3-for-4x4-gains", "sir-4x5", "p-3-for-4x4-sir"])
def test_shape_mismatches_raise_a_config_error_naming_the_argument(
        function, args, name):
    with pytest.raises(ConfigError, match=f"^{name} "):
        function(*args)


def test_lmmse_filter_collinear_with_sequence_when_no_interference():
    rng = np.random.default_rng(2)
    _, gains = random_network(rng, 4)
    book = generate_spreading_codebook(4, 8, seed=3)
    p = np.array([1e-6, 0.0, 0.0, 0.0])
    c = lmmse_filter(0, p, gains, book, 1e-13, receiver_node=1)
    s = book.sequences[0]
    cross = c - (c @ s) * s
    assert np.linalg.norm(cross) / np.linalg.norm(c) < 1e-10


def test_lmmse_filter_rejects_equal_endpoints():
    # as sir_matched and sir_lmmse do: a node does not receive itself
    rng = np.random.default_rng(4)
    _, gains = random_network(rng, 3)
    book = generate_spreading_codebook(3, 4, seed=5)
    p = np.full(3, 1e-7)
    with pytest.raises(ValueError, match="link endpoints must differ"):
        lmmse_filter(1, p, gains, book, 1e-13, receiver_node=1)


@pytest.mark.parametrize("rows", [12, 8])
def test_lmmse_filter_rejects_a_codebook_of_the_wrong_size(rows):
    rng = np.random.default_rng(4)
    _, gains = random_network(rng, 10)
    book = generate_spreading_codebook(rows, 16, seed=5)
    message = f"codebook has {rows} rows for 10 nodes"
    with pytest.raises(ConfigError, match=message):
        lmmse_filter(0, np.full(10, 1e-7), gains, book, 1e-13, 1)


@pytest.mark.parametrize("rows", [12, 8])
def test_lmmse_solve_rejects_a_codebook_of_the_wrong_size(rows):
    # and so does every LMMSE quantity solved through it
    rng = np.random.default_rng(4)
    _, gains = random_network(rng, 10)
    book = generate_spreading_codebook(rows, 16, seed=5)
    p = np.full(10, 1e-7)
    message = f"codebook has {rows} rows for 10 nodes"
    with pytest.raises(ConfigError, match=message):
        lmmse_solve(p, gains, book, 1e-13, np.array([0]), np.array([1]))
    with pytest.raises(ConfigError, match=message):
        lmmse_sir_matrix(p, gains, book, 1e-13, 0.0)


def test_lmmse_filter_matches_dense_solve():
    rng = np.random.default_rng(4)
    _, gains = random_network(rng, 3)
    book = generate_spreading_codebook(3, 4, seed=5)
    p = rng.uniform(1e-8, 1e-6, 3)
    noise = 1e-13
    c = lmmse_filter(0, p, gains, book, noise, receiver_node=1)
    seqs = book.sequences
    cov = noise * np.eye(4)
    cov += p[2] * gains[2, 1] * np.outer(seqs[2], seqs[2])
    base = np.linalg.inv(cov) @ seqs[0]
    expected = np.sqrt(p[0]) / (1.0 + p[0] * seqs[0] @ base) * base
    assert np.allclose(c, expected, rtol=1e-10)


def test_sir_lmmse_orthogonal_matched_is_noise_limited():
    book = make_codebook([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                          [0, 0, 0, 1]])
    topo = topology_from_positions([[0, 0], [10, 0], [20, 0], [30, 0]])
    gains = compute_link_gains(topo, 2.0)
    p = np.array([1e-6, 0.0, 2e-6, 1e-6])
    noise = 1e-13
    filters = {(0, 1): book.sequences[0]}
    sir = sir_lmmse((0, 1), p, filters, gains, book, noise)
    expected = gains[0, 1] * p[0] / noise
    assert sir == pytest.approx(expected, rel=1e-12)


def test_sir_lmmse_matched_filters_use_exact_cross_correlations():
    rng = np.random.default_rng(6)
    _, gains = random_network(rng, 5)
    book = generate_spreading_codebook(5, 8, seed=7)
    p = rng.uniform(1e-8, 1e-6, 5)
    noise = 1e-13
    link = (0, 1)
    filters = {link: book.sequences[link[0]]}
    got = sir_lmmse(link, p, filters, gains, book, noise)
    seqs = book.sequences
    g = gains
    interference = sum(
        p[k] * g[k, 1] * float(seqs[0] @ seqs[k]) ** 2
        for k in range(5) if k not in (0, 1)
    )
    expected = g[0, 1] * p[0] / (interference + noise)
    assert got == pytest.approx(expected, rel=1e-12)
    # differs from the 1/L expectation model in general
    assert got != pytest.approx(sir_matched(link, p, gains, 8, noise), rel=1e-6)


def test_sir_lmmse_matches_closed_form():
    rng = np.random.default_rng(8)
    _, gains = random_network(rng, 3)
    book = generate_spreading_codebook(3, 4, seed=9)
    p = rng.uniform(1e-8, 1e-6, 3)
    noise = 1e-13
    link = (0, 1)
    filters = FilterBank(
        {link: lmmse_filter(0, p, gains, book, noise, receiver_node=1)}
    )
    got = sir_lmmse(link, p, filters, gains, book, noise)
    seqs = book.sequences
    cov = noise * np.eye(4)
    cov += p[2] * gains[2, 1] * np.outer(seqs[2], seqs[2])
    closed = gains[0, 1] * p[0] * seqs[0] @ np.linalg.solve(cov, seqs[0])
    assert got == pytest.approx(closed, rel=1e-10)


def test_lmmse_dominates_matched_per_instance():
    rng = np.random.default_rng(10)
    for trial in range(25):
        n = int(rng.integers(4, 9))
        _, gains = random_network(rng, n)
        book = generate_spreading_codebook(n, 8, seed=100 + trial)
        p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
        i, j = 0, 1
        lm = FilterBank({(i, j): lmmse_filter(i, p, gains, book, 1e-13, j)})
        mf = {(i, j): book.sequences[i]}
        s_l = sir_lmmse((i, j), p, lm, gains, book, 1e-13)
        s_m = sir_lmmse((i, j), p, mf, gains, book, 1e-13)
        assert s_l >= s_m - 1e-9


def test_sir_lmmse_filter_scale_invariant():
    rng = np.random.default_rng(11)
    _, gains = random_network(rng, 5)
    book = generate_spreading_codebook(5, 8, seed=12)
    p = rng.uniform(1e-8, 1e-6, 5)
    link = (0, 1)
    c = lmmse_filter(0, p, gains, book, 1e-13, receiver_node=1)
    base = sir_lmmse(link, p, FilterBank({link: c}), gains, book, 1e-13)
    for alpha in (1e-3, 0.5, 42.0):
        scaled = sir_lmmse(link, p, FilterBank({link: alpha * c}), gains,
                           book, 1e-13)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_lmmse_sir_matrix_consistent_with_filters():
    rng = np.random.default_rng(13)
    _, gains = random_network(rng, 6)
    book = generate_spreading_codebook(6, 8, seed=14)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), 6))
    matrix = lmmse_sir_matrix(p, gains, book, 1e-13, gate=0.0)
    for link in [(0, 1), (2, 5), (3, 0)]:
        i, j = link
        fb = FilterBank({link: lmmse_filter(i, p, gains, book, 1e-13, j)})
        direct = sir_lmmse(link, p, fb, gains, book, 1e-13)
        assert matrix[i, j] == pytest.approx(direct, rel=1e-9)
    assert np.all(np.diag(matrix) == 0.0)


def test_efficiency_limits_and_monotonicity():
    assert efficiency(1e9, 80) == pytest.approx(1.0, abs=1e-15)
    assert efficiency(0.0, 80) == 0.0
    assert efficiency(0.0, 1) == 0.0
    grid = np.linspace(0.0, 40.0, 2000)
    values = efficiency(grid, 80)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all((values >= 0.0) & (values < 1.0))


def test_efficiency_energy_optimum_near_twelve_and_a_half():
    # argmax of f(x)/x sits in [12, 13] for 80-bit packets
    grid = np.arange(0.5, 30.0, 1e-3)
    ratio = efficiency(grid, 80) / grid
    best = grid[int(np.argmax(ratio))]
    assert 12.0 <= best <= 13.0


def test_energy_per_bit_perfect_link():
    p = np.array([2e-6, 0.0])
    assert energy_per_bit_link((0, 1), p, 1e9, 7812.5, 80) == \
        pytest.approx(2e-6 / 7812.5, rel=1e-12)


def test_energy_per_bit_zero_sir_unusable():
    p = np.array([2e-6, 0.0])
    assert energy_per_bit_link((0, 1), p, 0.0, 7812.5, 80) == np.inf


@pytest.mark.parametrize("bit_rate", [0.0, -1.0, np.nan],
                         ids=["zero", "negative", "nan"])
def test_energies_reject_a_bit_rate_that_is_not_positive(bit_rate):
    p = np.array([2e-6, 0.0])
    with pytest.raises(ValueError, match="bit_rate must be positive"):
        link_energies(p[:1], np.array([12.5]), bit_rate, 80)
    with pytest.raises(ValueError, match="bit_rate must be positive"):
        energy_per_bit_link((0, 1), p, 12.5, bit_rate, 80)


def test_energy_per_bit_closed_form():
    p = np.array([1.25e-8, 0.0])
    bit_rate = 1e6 / 128
    sir = 12.5
    packet_bits = 80
    f = (1.0 - np.exp(-sir / 2.0)) ** packet_bits
    expected = p[0] / (bit_rate * f)
    assert energy_per_bit_link((0, 1), p, sir, bit_rate, packet_bits) == \
        pytest.approx(expected, rel=1e-12)


@st.composite
def kernel_instances(draw):
    """Small random networks, n > L included (span dimension r = L), with
    some nodes silent, and a random set of links."""
    n = draw(st.integers(3, 9))
    length = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, gains = random_network(rng, n)
    book = generate_spreading_codebook(n, length, seed=int(rng.integers(1e6)))
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
    p[draw(st.lists(st.integers(0, n - 1), max_size=n // 2))] = 0.0
    links = sorted({(int(i), int(j)) for i, j in rng.integers(0, n, (2 * n, 2))
                    if i != j})
    return p, gains, book, links


@settings(max_examples=150, deadline=None)
@given(kernel_instances())
def test_lmmse_kernel_matches_per_link_reference(instance):
    p, gains, book, links = instance
    noise = 1e-13
    i_idx, j_idx = np.array(links, dtype=int).reshape(-1, 2).T  # may be empty
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        q = lmmse_solve(p, gains, book, noise, i_idx, j_idx)
    seqs = book.sequences
    for (i, j), q_link in zip(links, q):
        weights = p * gains[:, j]
        cov = (seqs.T * weights) @ seqs + noise * np.eye(book.length)
        assert q_link == pytest.approx(
            seqs[i] @ np.linalg.solve(cov, seqs[i]), rel=1e-9)
        if p[i] == 0.0:
            continue
        c = p[i] * gains[i, j]
        filters = FilterBank({(i, j): lmmse_filter(i, p, gains, book, noise,
                                                   j)})
        reference = sir_lmmse((i, j), p, filters, gains, book, noise)
        assert c * q_link / (1.0 - c * q_link) == pytest.approx(reference,
                                                                rel=1e-9)


@st.composite
def shuffled_link_instances(draw):
    """``kernel_instances`` whose links, self-pairs and repeats included,
    come sorted by receiver and in a random order."""
    p, gains, book, _ = draw(kernel_instances())
    n = p.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i_idx, j_idx = rng.integers(0, n, (2, 3 * n))
    order = np.lexsort((i_idx, j_idx))
    return p, gains, book, i_idx[order], j_idx[order], rng.permutation(3 * n)


@settings(max_examples=100, deadline=None)
@given(shuffled_link_instances())
def test_lmmse_kernel_gives_each_link_its_q_in_any_order(instance):
    p, gains, book, i_idx, j_idx, shuffle = instance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        q = lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx)
        q_shuffled = lmmse_solve(p, gains, book, 1e-13, i_idx[shuffle],
                                 j_idx[shuffle])
    np.testing.assert_allclose(q_shuffled, q[shuffle], rtol=1e-13, atol=0.0)


def test_lmmse_lu_form_gives_a_link_its_q_whichever_links_share_it():
    # the LU form solves each link's right-hand side alone, so a link's q
    # solved alone matches the all-pairs solve's; one blocked solve of a
    # receiver's links put them up to 4e-11 apart over 1,500 such draws
    rng = np.random.default_rng(61)
    drawn = 0
    while drawn < 30:
        n = int(rng.integers(6, 9))
        book = generate_spreading_codebook(n, 8,
                                           seed=int(rng.integers(2**32)))
        if book.inverse_gram is not None:  # the LU form only
            continue
        drawn += 1
        _, gains = random_network(rng, n)
        p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
        i_idx, j_idx = all_pairs(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            q_all = lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx)
            q_alone = [lmmse_solve(p, gains, book, 1e-13, i_idx[k:k + 1],
                                   j_idx[k:k + 1])[0]
                       for k in range(n * n)]
        np.testing.assert_allclose(q_alone, q_all, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("length", [16, 4], ids=["inverse-Gram", "span"])
def test_lmmse_kernel_factors_each_receiver_once(monkeypatch, length):
    factored = count_factorizations(monkeypatch)
    rng = np.random.default_rng(47)
    _, gains = random_network(rng, 8)
    book = generate_spreading_codebook(8, length, seed=48)
    assert (book.inverse_gram is not None) == (length == 16)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), 8))
    i_idx = np.array([0, 5, 2, 7, 1, 3, 6, 2, 4])
    j_idx = np.array([3, 1, 3, 6, 3, 1, 1, 6, 4])
    q = lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx)
    # one n x n (inverse-Gram) or L x L (span) system per distinct receiver
    assert len(np.unique(j_idx)) == 4
    assert factored == [(min(8, length), min(8, length))] * 4
    assert np.isfinite(q).all() and q.shape == i_idx.shape


@pytest.mark.parametrize("length", [16, 4], ids=["inverse-Gram", "span"])
def test_lmmse_kernel_of_no_links_is_empty(length):
    rng = np.random.default_rng(49)
    _, gains = random_network(rng, 8)
    book = generate_spreading_codebook(8, length, seed=50)
    none = np.array([], dtype=int)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = lmmse_solve(np.full(8, 1e-6), gains, book, 1e-13, none, none)
    assert q.shape == (0,)


def test_lmmse_kernel_warns_once_on_tiny_noise():
    rng = np.random.default_rng(21)
    _, gains = random_network(rng, 6)
    book = generate_spreading_codebook(6, 8, seed=22)
    p = np.full(6, 1e-3)
    i_idx, j_idx = np.array([(0, 1), (2, 1), (3, 4), (5, 4)]).T
    with pytest.warns(RuntimeWarning, match="condition bound") as record:
        lmmse_solve(p, gains, book, 1e-30, i_idx, j_idx)
    assert len(record) == 1
    # every receiver factored: the warning names no NaN q
    assert "NaN q" not in str(record[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx)


def _identical_pair_codebook():
    book = generate_spreading_codebook(6, 16, seed=41)
    seqs = np.array(book.sequences)
    seqs[4] = seqs[1]
    seqs.setflags(write=False)
    return SpreadingCodebook(sequences=seqs)


@pytest.mark.parametrize("book", [
    generate_spreading_codebook(6, 128, seed=40),
    generate_spreading_codebook(6, 7, seed=40),
    generate_spreading_codebook(6, 6, seed=40),
    generate_spreading_codebook(6, 5, seed=40),
    _identical_pair_codebook(),
], ids=["L128", "L7", "L6", "L5", "L16-identical-pair"])
def test_lmmse_kernel_both_coordinates_match_dense_reference(book):
    # n <= L solves in sequence space, n > L in the span of the sequences
    rng = np.random.default_rng(42)
    n, noise = 6, 1e-13
    _, gains = random_network(rng, n)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
    p[3] = 0.0
    seqs = book.sequences
    links = [(i, j) for i in range(n) for j in range(n) if i != j]
    i_idx, j_idx = np.array(links).T
    q = lmmse_solve(p, gains, book, noise, i_idx, j_idx)
    q_all = lmmse_solve(p, gains, book, noise, *all_pairs(n)).reshape(n, n)
    for (i, j), q_link in zip(links, q):
        cov = (seqs.T * (p * gains[:, j])) @ seqs \
            + noise * np.eye(book.length)
        want = np.linalg.solve(cov, seqs[i])
        assert q_link == pytest.approx(seqs[i] @ want, rel=1e-9)
        assert q_all[i, j] == pytest.approx(seqs[i] @ want, rel=1e-9)


@st.composite
def realistic_kernel_instances(draw):
    """Networks of the benchmark's scale, n <= L, a quarter of the nodes or
    fewer silent, and up to two incoming links per node on average."""
    length = draw(st.integers(32, 128))
    n = draw(st.integers(10, min(60, length)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, gains = random_network(rng, n)
    book = generate_spreading_codebook(n, length, seed=int(rng.integers(1e6)))
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
    p[draw(st.lists(st.integers(0, n - 1), max_size=n // 4))] = 0.0
    links = sorted({(int(i), int(j)) for i, j in rng.integers(0, n, (2 * n, 2))
                    if i != j})
    return p, gains, book, links


@settings(max_examples=100, deadline=None)
@given(realistic_kernel_instances())
def test_lmmse_kernel_matches_lu_oracle_at_realistic_sizes(instance):
    p, gains, book, links = instance
    noise, n = 1e-13, p.shape[0]
    i_idx, j_idx = np.array(links).T
    q = lmmse_solve(p, gains, book, noise, i_idx, j_idx)
    q_lu = lmmse_kernel_lu(p, gains, book, noise, i_idx, j_idx)
    np.testing.assert_allclose(q, q_lu, rtol=1e-10)
    np.testing.assert_allclose(
        lmmse_solve(p, gains, book, noise, *all_pairs(n)),
        lmmse_kernel_lu(p, gains, book, noise, *all_pairs(n)), rtol=1e-10)


def near_switch_instance(n, length, seed):
    """An n-node network with an (n, L) codebook drawn from ``seed``, and
    every link into three receivers."""
    rng = np.random.default_rng(seed)
    book = generate_spreading_codebook(n, length, seed=int(rng.integers(1e6)))
    _, gains = random_network(rng, n)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
    links = [(i, int(j)) for j in rng.choice(n, 3, replace=False)
             for i in range(n) if i != j]
    return p, gains, book, links


@st.composite
def near_switch_instances(draw):
    """Square or nearly square codebooks, n from L - 2 to L, with cond(G)
    from 1e3 to 1e7, on both sides of ``netmodel.GRAM_CONDITION_LIMIT``."""
    length = draw(st.integers(16, 28))
    instance = near_switch_instance(length - draw(st.integers(0, 2)), length,
                                    draw(st.integers(0, 2**32 - 1)))
    assume(1e3 <= np.linalg.cond(instance[2].gram) <= 1e7)
    return instance


@settings(max_examples=10, deadline=None)
@given(near_switch_instances())
# n = L = 32 and cond(G) 5e4 and 2e5, where the span form's q is 9e-11 and
# 4e-11 off and the LU form's within 2e-14
@example(near_switch_instance(32, 32, 221))
@example(near_switch_instance(32, 32, 622))
def test_lmmse_kernel_matches_mpmath_near_the_coordinate_switch(instance):
    # the inverse-Gram form up to the limit, the LU form above it; both
    # agree with a 40-digit solve of the L x L covariance
    p, gains, book, links = instance
    if p.shape[0] >= 32:  # the pinned examples
        assert np.linalg.cond(book.gram) >= 1e4
    i_idx, j_idx = np.array(links).T
    np.testing.assert_allclose(
        lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx),
        lmmse_q_mpmath(p, gains, book, 1e-13, links), rtol=1e-11)


def _perturbed_pair_codebook(n, length, scale):
    """A random codebook whose sequence 4 is sequence 1 plus ``scale``
    times a random unit vector, renormalized; scale 0 duplicates it."""
    book = generate_spreading_codebook(n, length, seed=43)
    seqs = np.array(book.sequences)
    bend = np.random.default_rng(44).standard_normal(length)
    seqs[4] = seqs[1] + scale * bend / np.linalg.norm(bend)
    seqs[4] /= np.linalg.norm(seqs[4])
    seqs.setflags(write=False)
    return SpreadingCodebook(sequences=seqs)


@pytest.mark.parametrize("book, inverse_gram", [
    (generate_spreading_codebook(12, 64, seed=45), True),
    (_perturbed_pair_codebook(12, 32, 0.0), False),
    (_perturbed_pair_codebook(12, 32, 1e-5), False),
    (generate_spreading_codebook(16, 16, seed=45), None),
    (generate_spreading_codebook(12, 8, seed=45), False),
], ids=["well-conditioned", "duplicated", "nearly-dependent", "n=L", "n>L"])
def test_coordinate_switch_matches_dense_reference(book, inverse_gram):
    # G's condition picks the inverse-Gram form or the span form once per
    # codebook; both must agree with the dense L x L solve
    if inverse_gram is not None:
        assert (book.inverse_gram is not None) == inverse_gram
    rng = np.random.default_rng(46)
    n, noise = book.sequences.shape[0], 1e-13
    _, gains = random_network(rng, n)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
    p[[3, 7]] = 0.0
    seqs = book.sequences
    links = [(i, j) for i in range(n) for j in range(n) if i != j]
    i_idx, j_idx = np.array(links).T
    q = lmmse_solve(p, gains, book, noise, i_idx, j_idx)
    q_all = lmmse_solve(p, gains, book, noise, *all_pairs(n)).reshape(n, n)
    for (i, j), q_link in zip(links, q):
        cov = (seqs.T * (p * gains[:, j])) @ seqs \
            + noise * np.eye(book.length)
        want = np.linalg.solve(cov, seqs[i])
        assert q_link == pytest.approx(seqs[i] @ want, rel=1e-9)
        assert q_all[i, j] == pytest.approx(seqs[i] @ want, rel=1e-9)


# one codebook per form of the LMMSE kernel
kernel_forms = pytest.mark.parametrize("book, form", [
    (generate_spreading_codebook(12, 64, seed=45), "inverse-Gram"),
    (_perturbed_pair_codebook(12, 32, 1e-5), "LU"),
    (generate_spreading_codebook(12, 8, seed=45), "span"),
], ids=["inverse-Gram", "LU", "span"])


@kernel_forms
def test_lmmse_kernel_vectors_are_the_filters_seen_through_the_sequences(
        monkeypatch, book, form):
    # x = S c for the LMMSE direction c = B_j^-1 s_i, against the dense
    # L x L solve; q is lmmse_solve's to the bit, from its kept factors
    n, noise = book.sequences.shape[0], 1e-13
    assert (book.inverse_gram is not None) == (form == "inverse-Gram")
    assert (n <= book.length) == (form != "span")
    rng = np.random.default_rng(46)
    _, gains = random_network(rng, n)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
    p[[3, 7]] = 0.0
    seqs = book.sequences
    links = [(i, j) for i in range(n) for j in range(n) if i != j]
    i_idx, j_idx = np.array(links)[rng.permutation(len(links))].T
    factored = count_factorizations(monkeypatch)
    q = lmmse_solve(p, gains, book, noise, i_idx, j_idx)
    count = len(factored)
    q_vectors, x = lmmse_solve(p, gains, book, noise, i_idx, j_idx, True)
    assert len(factored) == count == n
    assert q_vectors.tobytes() == q.tobytes()
    assert x.shape == (n, len(links))
    for l, (i, j) in enumerate(zip(i_idx, j_idx)):
        cov = (seqs.T * (p * gains[:, j])) @ seqs \
            + noise * np.eye(book.length)
        want = seqs @ np.linalg.solve(cov, seqs[i])
        np.testing.assert_allclose(x[:, l], want, rtol=1e-8,
                                   atol=1e-9 * np.abs(want).max())
        assert x[i, l] == pytest.approx(q[l], rel=1e-12)


@kernel_forms
def test_lmmse_kernel_solves_each_factored_receiver_once(
        monkeypatch, book, form):
    # one dpotrs per receiver on its Cholesky factor (one dgetrs per link in
    # the LU form) gives q and, on request, x: no second solve for x
    n = book.sequences.shape[0]
    rng = np.random.default_rng(47)
    _, gains = random_network(rng, n)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
    links = [(i, j) for i in range(n) for j in (0, 2, 5, 9) if i != j]
    i_idx, j_idx = np.array(links)[rng.permutation(len(links))].T
    factored = count_factorizations(monkeypatch)
    solves = count_solves(monkeypatch)
    for vectors in (False, True, True):
        solves.clear()
        lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx, vectors)
        assert solves == (["dgetrs"] * len(links) if form == "LU"
                          else ["dpotrs"] * 4)
    assert len(factored) == 4  # kept for the later calls


def test_failed_span_factorization_gives_nan_and_names_the_receiver():
    # n = 5 > L = 4 with span coordinates U = S' exactly. At receiver 0 the
    # interference covariance is ones + diag(0, 4, 4, 0), singular in exact
    # arithmetic, and noise 1e-30 vanishes in rounding: its factorization
    # meets an exactly zero pivot. Receiver 3 hears every other direction.
    seqs = np.vstack([np.eye(4), np.full(4, 0.5)])
    seqs.setflags(write=False)
    book = SpreadingCodebook(sequences=seqs)
    gains = 4.0 * (1.0 - np.eye(5))
    p = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
    i_idx, j_idx = np.array([4, 1, 4, 1]), np.array([0, 0, 3, 3])
    with pytest.warns(RuntimeWarning,
                      match=r"condition bound.*NaN q: \[0\]") as record:
        q = lmmse_solve(p, gains, book, 1e-30, i_idx, j_idx)
    assert len(record) == 1
    assert np.isnan(q[:2]).all()
    assert np.isfinite(q[2:]).all() and (q[2:] > 0).all()
    with pytest.warns(RuntimeWarning, match="condition bound"):
        sir = lmmse_sir_matrix(p, gains, book, 1e-30, gate=0.0)
    # a receiver without a q passes no link through the routing gate
    assert (sir[:, 0] == 0.0).all()


@st.composite
def memo_instances(draw):
    """Networks of up to 9 nodes in every coordinate form (a repeated
    sequence sends n <= L to the LU form), noise at which the span form can
    fail to factor, two link sets with repeated receivers and self-pairs,
    and at times one receiver whose gains are NaN, which fails to factor in
    the Cholesky forms."""
    n = draw(st.integers(3, 9))
    length = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, gains = random_network(rng, n)
    seqs = np.array(generate_spreading_codebook(
        n, length, seed=int(rng.integers(1e6))).sequences)
    if draw(st.booleans()):
        seqs[1] = seqs[0]
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
    p[draw(st.lists(st.integers(0, n - 1), max_size=n // 2))] = 0.0
    nan_receiver = draw(st.none() | st.integers(0, n - 1))
    if nan_receiver is not None:
        gains = np.array(gains)
        gains[:, nan_receiver] = np.nan
    noise = draw(st.sampled_from([1e-13, 1e-30]))
    first, links = rng.integers(0, n, (2, 2, 2 * n))
    return p, gains, make_codebook(seqs), noise, first, links


@settings(max_examples=100, deadline=None)
@given(memo_instances())
def test_lmmse_kernel_memo_gives_the_fresh_q_bit_for_bit(instance):
    # q from factors the memo kept since an earlier call at the same powers
    # is q factored afresh, NaN included
    p, gains, book, noise, first, links = instance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        phy._memo = ((), {})
        fresh = lmmse_solve(p, gains, book, noise, *links)
        phy._memo = ((), {})
        lmmse_solve(p, gains, book, noise, *first)
        partly_kept = lmmse_solve(p, gains, book, noise, *links)
        kept = lmmse_solve(p, gains, book, noise, *links)
        with_vectors, x = lmmse_solve(p, gains, book, noise, *links, True)
    assert partly_kept.tobytes() == fresh.tobytes()
    assert kept.tobytes() == fresh.tobytes()
    assert with_vectors.tobytes() == fresh.tobytes()
    assert (np.isnan(x).any(axis=0) == np.isnan(fresh)).all()


def test_lmmse_kernel_memo_is_never_stale(monkeypatch):
    # the memo holds one key: p, noise and gains by value, the codebook by
    # identity; any other key factors every receiver again
    factored = count_factorizations(monkeypatch)
    rng = np.random.default_rng(53)
    _, gains = random_network(rng, 8)
    book = generate_spreading_codebook(8, 16, seed=54)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), 8))
    i_idx = np.array([0, 5, 2, 7, 1, 3, 6, 2, 4])
    j_idx = np.array([3, 1, 3, 6, 3, 1, 1, 6, 4])

    def solve(p, gains, book, noise):
        factored.clear()
        q = lmmse_solve(p, gains, book, noise, i_idx, j_idx)
        assert len(factored) in (0, 4)  # none, or all 4 receivers again
        return q, len(factored)

    q, count = solve(p, gains, book, 1e-13)
    assert count == 4
    q_kept, count = solve(p.copy(), gains, book, 1e-13)
    assert count == 0 and q_kept.tobytes() == q.tobytes()
    assert solve(p, gains, book, 2e-13)[1] == 4
    assert solve(p, gains, book, 1e-13)[1] == 4  # one key at a time
    twin = SpreadingCodebook(sequences=book.sequences)
    assert solve(p, gains, twin, 1e-13)[1] == 4
    writable = np.array(gains)
    assert solve(p, writable, twin, 1e-13)[1] == 0  # equal values
    writable[2, 3] *= 2.0
    q_changed, count = solve(p, writable, twin, 1e-13)
    assert count == 4
    moved = np.array(p)
    moved[5] *= 2.0
    assert solve(moved, writable, twin, 1e-13)[1] == 4
    monkeypatch.setattr(phy, "_memo", ((), {}))
    assert solve(p, writable, twin, 1e-13)[0].tobytes() == q_changed.tobytes()


@pytest.mark.parametrize("seqs", [
    generate_spreading_codebook(6, 16, seed=55).sequences,
    np.repeat(generate_spreading_codebook(3, 16, seed=55).sequences, 2, 0),
], ids=["inverse-Gram", "LU"])
def test_failed_factorization_is_kept_as_such(monkeypatch, seqs):
    # the receiver whose factorization failed keeps NaN q at its powers,
    # without factoring again; the others are factored once
    book = make_codebook(seqs)
    rng = np.random.default_rng(56)
    _, gains = random_network(rng, 6)
    p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), 6))
    i_idx, j_idx = np.array([[0, 1], [2, 1], [3, 4], [5, 4], [1, 0]]).T
    factored = count_factorizations(monkeypatch, fail=(2,))
    for _ in range(2):
        with pytest.warns(RuntimeWarning, match=r"NaN q: \[1\]"):
            q = lmmse_solve(p, gains, book, 1e-13, i_idx, j_idx)
        assert np.isnan(q[:2]).all() and np.isfinite(q[2:]).all()
        assert len(factored) == 3


@st.composite
def gate_instances(draw):
    """4-20 nodes with some silent, L from 4 to 32 (the span form when
    n > L, or a sequence repeated or nearly repeated), noise from 1e-13 to
    1e-6, and powers that put the single-user bounds c / noise of the pairs
    on both sides of the gate."""
    n = draw(st.integers(4, 20))
    length = draw(st.integers(4, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, gains = random_network(rng, n)
    seqs = np.array(generate_spreading_codebook(
        n, length, seed=int(rng.integers(1e6))).sequences)
    bend = draw(st.sampled_from([None, 0.0, 1e-6, 1e-3]))
    if bend is not None:
        seqs[1] = seqs[0] + bend * rng.standard_normal(length)
        seqs[1] /= np.linalg.norm(seqs[1])
    book = make_codebook(seqs)
    noise = float(np.exp(rng.uniform(np.log(1e-13), np.log(1e-6))))
    p = noise * np.exp(rng.uniform(np.log(1e2), np.log(1e9), n))
    p[draw(st.lists(st.integers(0, n - 1), max_size=n // 2))] = 0.0
    gate = draw(st.floats(1.0, 50.0))
    return p, gains, book, noise, gate


@settings(max_examples=150, deadline=None)
@given(gate_instances())
def test_gate_pruned_sir_matrix_routes_as_the_all_pairs_matrix(instance):
    # no pair below half the gate in its single-user bound c / noise can
    # reach the gate, so pruning them changes no link cost
    p, gains, book, noise, gate = instance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pruned = lmmse_sir_matrix(p, gains, book, noise, gate)
        full = lmmse_sir_matrix_all_pairs(p, gains, book, noise)
    np.testing.assert_array_equal(build_link_costs(p, pruned, gate),
                                  build_link_costs(p, full, gate))
    solved = p[:, None] * gains >= 0.5 * gate * noise
    np.testing.assert_allclose(pruned[solved], full[solved], rtol=1e-9,
                               atol=0.0)
    assert (pruned[~solved] == 0.0).all()


@pytest.mark.parametrize("link", [(-1, 2), (2, -1), (0, 4), (4, 0),
                                  (1.0, 2), (1.5, 2)])
def test_per_link_functions_reject_links_outside_the_network(link):
    # ActiveLinkSet's rule: before, node -1 aliased node 3, node 4 raised
    # numpy's IndexError, and a float id was used as an index or failed
    rng = np.random.default_rng(4)
    _, gains = random_network(rng, 4)
    book = generate_spreading_codebook(4, 8, seed=5)
    p = np.full(4, 1e-7)
    filters = {link: book.sequences[0]}
    i, j = np.asarray(link)  # as the message prints it
    message = rf"link \({i}, {j}\) needs nodes in 0\.\.3"
    calls = [
        lambda: sir_matched(link, p, gains, 8, 1e-13),
        lambda: energy_per_bit_link(link, p, 10.0, 1e4, 80),
        lambda: lmmse_filter(link[0], p, gains, book, 1e-13, link[1]),
        lambda: sir_lmmse(link, p, filters, gains, book, 1e-13),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
