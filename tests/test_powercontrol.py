import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocnet.crosslayer import initial_powers
from adhocnet.errors import ConfigError
from adhocnet import powercontrol
from adhocnet.phy import FilterBank, lmmse_filter, lmmse_solve, sir_lmmse
from adhocnet.netmodel import Scenario, SpreadingCodebook, build_network, \
    compute_link_gains, generate_spreading_codebook
from adhocnet.powercontrol import (
    ActiveLinkSet,
    PcResult,
    pc_iterate,
    pc_mud_iterate,
    pc_mud_solve,
    pc_solve,
    power_targets,
)
from adhocnet.routing import initial_routes
from helpers import (
    exact_matched_solve,
    gauss_seidel_sweep,
    link_set_loop,
    mud_targets,
    pc_iterate_loop,
    pc_mud_two_step,
    random_active_links,
    random_network,
    same_pc_steps,
    single_outgoing_instance,
    single_outgoing_instance_loop,
    topology_from_positions,
)

GAMMA = 12.5
NOISE = 1e-13


def test_interference_target_single_isolated_link():
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(2, [(0, 1)])
    t = power_targets(np.zeros(2), active, gains, 128, NOISE, GAMMA)
    assert t[0] == pytest.approx(1.25e-8, rel=1e-12)
    assert t[1] == 0.0  # no outgoing link


def test_interference_target_takes_worst_outgoing_link():
    topo = topology_from_positions([[0.0, 0.0], [10.0, 0.0], [50.0, 0.0],
                                    [0.0, 30.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(4, [(0, 1), (0, 2), (3, 1)])
    rng = np.random.default_rng(0)
    p = rng.uniform(1e-8, 1e-6, 4)
    got = power_targets(p, active, gains, 16, NOISE, GAMMA)[0]
    g = gains
    per_link = []
    for j in (1, 2):
        interference = sum(g[k, j] * p[k] for k in range(4)
                           if k not in (0, j)) / 16 + NOISE
        per_link.append(GAMMA * interference / g[0, j])
    assert got == pytest.approx(max(per_link), rel=1e-12)


def test_interference_target_zero_powers_noise_floor():
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0], [40.0, 70.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(3, [(0, 1), (0, 2)])
    t = power_targets(np.zeros(3), active, gains, 16, NOISE, GAMMA)[0]
    g = gains
    assert t == pytest.approx(max(GAMMA * NOISE / g[0, 1],
                                  GAMMA * NOISE / g[0, 2]), rel=1e-12)


def test_pc_single_link_converges_in_two_iterations():
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(2, [(0, 1)])
    result = pc_iterate(np.zeros(2), active, gains, 128, NOISE, GAMMA)
    assert result.converged
    assert result.iterations <= 2
    assert result.powers[0] == pytest.approx(1.25e-8, rel=1e-10)
    assert result.powers[1] == 0.0


def test_pc_two_link_fixed_point_matches_linear_solve():
    topo = topology_from_positions([[0.0, 0.0], [10.0, 0.0],
                                    [60.0, 5.0], [70.0, 5.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(4, [(0, 1), (2, 3)])
    spreading = 16
    g = gains
    # p0 = a01 * p2 + b0 ; p2 = a23 * p0 + b2
    a01 = GAMMA / spreading * g[2, 1] / g[0, 1]
    b0 = GAMMA * NOISE / g[0, 1]
    a23 = GAMMA / spreading * g[0, 3] / g[2, 3]
    b2 = GAMMA * NOISE / g[2, 3]
    m = np.array([[0.0, a01], [a23, 0.0]])
    expected = np.linalg.solve(np.eye(2) - m, [b0, b2])
    result = pc_iterate(np.zeros(4), active, gains, spreading, NOISE, GAMMA,
                        tol=1e-12, max_iter=100_000)
    assert result.converged
    assert result.powers[0] == pytest.approx(expected[0], rel=1e-9)
    assert result.powers[2] == pytest.approx(expected[1], rel=1e-9)


def test_pc_detects_infeasible_instance():
    # two crossing links close together, spectral radius above one
    topo = topology_from_positions([[0.0, 0.0], [10.0, 0.0],
                                    [0.0, 1.0], [10.0, 1.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(4, [(0, 1), (2, 3)])
    spreading, gamma = 2, 5.0
    g = gains
    ratio = (gamma / spreading) ** 2 * (g[2, 1] / g[0, 1]) * (g[0, 3] / g[2, 3])
    assert ratio > 1.0  # spectral oracle: product of coupling ratios
    result = pc_iterate(np.full(4, 1e-6), active, gains, spreading, NOISE,
                        gamma)
    assert result.status == "infeasible"


def test_pc_converged_powers_meet_target_sir():
    from adhocnet.phy import sir_matched

    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        inst = single_outgoing_instance(rng, 6, 16, GAMMA, NOISE)
        if inst is None:
            continue
        _, gains, active, _, _ = inst
        result = pc_iterate(np.zeros(6), active, gains, 16, NOISE, GAMMA,
                            tol=1e-8)
        assert result.converged
        for i in active.transmitters:
            sirs = [sir_matched((i, j), result.powers, gains, 16, NOISE)
                    for j in active.outgoing[i]]
            assert min(sirs) == pytest.approx(GAMMA, rel=1e-6)
        checked += 1


def test_pc_monotone_from_zero():
    rng = np.random.default_rng(7)
    topology, gains = random_network(rng, 8)
    active = random_active_links(rng, 8)
    p = np.zeros(8)
    previous = p
    for _ in range(40):
        p = power_targets(previous, active, gains, 64, NOISE, GAMMA)
        assert np.all(p >= previous - 1e-25)
        previous = p


def test_pc_schedules_agree():
    rng = np.random.default_rng(9)
    found = 0
    while found < 5:
        inst = single_outgoing_instance(rng, 8, 32, GAMMA, NOISE)
        if inst is None:
            continue
        _, gains, active, oracle, _ = inst
        tol = 1e-9
        sync = pc_iterate(np.zeros(8), active, gains, 32, NOISE, GAMMA,
                          tol=tol, max_iter=100_000)
        askew = gauss_seidel_sweep(np.zeros(8), active, gains, 32, NOISE,
                                   GAMMA, tol=tol, max_sweeps=100_000)
        assert sync.converged and askew is not None
        assert np.allclose(sync.powers, askew, rtol=10 * tol)
        assert np.allclose(sync.powers, oracle, rtol=1e-6)
        found += 1


def test_standard_interference_function_axioms_small():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(4, 10))
        _, gains = random_network(rng, n)
        active = random_active_links(rng, n)
        spreading = int(rng.choice([8, 16, 64]))
        gamma = float(rng.uniform(1.0, 15.0))
        p = np.exp(rng.uniform(np.log(1e-9), np.log(1e-5), n))
        shrink = rng.uniform(0.0, 1.0, n)
        smaller = p * shrink
        alpha = float(rng.uniform(1.01, 10.0))
        t = power_targets(p, active, gains, spreading, NOISE, gamma)
        t_small = power_targets(smaller, active, gains, spreading, NOISE, gamma)
        t_scaled = power_targets(alpha * p, active, gains, spreading, NOISE,
                                 gamma)
        tx = list(active.transmitters)
        assert np.all(t[tx] > 0.0)
        assert np.all(t[tx] >= t_small[tx] * (1 - 1e-12))
        assert np.all(alpha * t[tx] > t_scaled[tx] * (1 - 1e-12))


def test_pc_mud_zero_interference_equals_matched():
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    book = generate_spreading_codebook(2, 8, seed=1)
    active = ActiveLinkSet(2, [(0, 1)])
    matched = pc_iterate(np.zeros(2), active, gains, 8, NOISE, GAMMA,
                         tol=1e-10)
    mud, _ = pc_mud_iterate(np.zeros(2), active, gains, book, NOISE, GAMMA,
                            tol=1e-10)
    assert mud.converged
    assert mud.powers[0] == pytest.approx(matched.powers[0], rel=1e-8)


def test_pc_mud_beats_exact_matched_power():
    rng = np.random.default_rng(13)
    done = 0
    while done < 5:
        topology, gains = random_network(rng, 6)
        book = generate_spreading_codebook(6, 8, seed=int(rng.integers(1e6)))
        active = random_active_links(rng, 6, max_out=1)
        mf = exact_matched_solve(active, gains, book, NOISE, GAMMA)
        if not mf.converged:  # the LMMSE run draws nothing from rng
            continue
        mud = pc_mud_solve(np.zeros(6), active, gains, book, NOISE, GAMMA,
                           tol=1e-10, max_iter=50_000)
        if not mud.converged:
            continue
        assert mud.powers.sum() <= mf.powers.sum() * (1 + 1e-9)
        done += 1


def test_pc_mud_feasible_where_matched_is_not():
    # crossing links, nearly orthogonal sequences: the LMMSE receiver can
    # null the single interferer while the 1/L matched model diverges
    topo = topology_from_positions([[0.0, 0.0], [10.0, 0.0],
                                    [0.0, 1.0], [10.0, 1.0]])
    gains = compute_link_gains(topo, 2.0)
    seqs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.5, -0.5]])
    seqs = seqs / np.linalg.norm(seqs, axis=1, keepdims=True)
    seqs.setflags(write=False)
    book = SpreadingCodebook(sequences=seqs)
    active = ActiveLinkSet(4, [(0, 1), (2, 3)])
    spreading, gamma = 2, 5.0
    matched = pc_iterate(np.full(4, 1e-6), active, gains, spreading, NOISE,
                         gamma)
    assert matched.status == "infeasible"
    mud, _ = pc_mud_iterate(np.full(4, 1e-6), active, gains, book, NOISE,
                            gamma)
    assert mud.converged


def test_pc_mud_converged_sir_meets_target():
    from adhocnet.phy import sir_lmmse

    rng = np.random.default_rng(15)
    topology, gains = random_network(rng, 6)
    book = generate_spreading_codebook(6, 16, seed=8)
    active = random_active_links(rng, 6, max_out=2)
    result, _ = pc_mud_iterate(np.zeros(6), active, gains, book, NOISE,
                               GAMMA, tol=1e-9, max_iter=50_000)
    assert result.converged
    filters = FilterBank({(i, j): lmmse_filter(i, result.powers, gains, book,
                                               NOISE, j)
                          for i, j in active.links})
    for i in active.transmitters:
        sirs = [sir_lmmse((i, j), result.powers, filters, gains, book, NOISE)
                for j in active.outgoing[i]]
        assert min(sirs) == pytest.approx(GAMMA, rel=1e-6)


def test_trace_records_totals():
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(2, [(0, 1)])
    result = pc_iterate(np.zeros(2), active, gains, 128, NOISE, GAMMA)
    assert result.trace[0] == 0.0
    assert result.trace[-1] == pytest.approx(result.powers.sum(), rel=1e-12)


def mud_instances(seed, count):
    """Small random networks for the two-step oracle, n > L included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 8))
        length = int(rng.choice([2, 4, 8, 16]))
        _, gains = random_network(rng, n)
        book = generate_spreading_codebook(n, length,
                                           seed=int(rng.integers(1e6)))
        active = random_active_links(rng, n, max_out=2)
        p0 = np.exp(rng.uniform(np.log(1e-9), np.log(1e-6), n))
        p0[rng.random(n) < 0.3] = 0.0
        yield gains, book, active, p0


def test_pc_mud_iterate_matches_two_step_loop():
    statuses = set()
    for gains, book, active, p0 in mud_instances(31, 30):
        for max_iter in (3, 300):
            # the cap stops diverging runs before the covariances become so
            # ill-conditioned that both solvers lose the ninth digit
            kwargs = dict(tol=1e-8, max_iter=max_iter, power_cap=1e-4)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got, _ = pc_mud_iterate(p0, active, gains, book, NOISE,
                                        GAMMA, **kwargs)
                want = pc_mud_two_step(p0, active, gains, book, NOISE,
                                       GAMMA, **kwargs)
            same_pc_steps(got, want, rtol=1e-9)
            statuses.add(got.status)
    assert statuses == {"converged", "infeasible", "max_iter"}


def test_exact_matched_solve_is_the_matched_iteration_fixed_point():
    # the exact-correlation matched baseline of the LMMSE comparisons: one
    # solve gives the powers and the verdict of the two-step loop with the
    # matched filters held fixed, run to a tight residual
    rng = np.random.default_rng(37)
    statuses = []
    while statuses.count("converged") < 30:
        n = int(rng.integers(3, 7))
        _, gains = random_network(rng, n)
        book = generate_spreading_codebook(n, int(rng.choice([8, 16, 32])),
                                           seed=int(rng.integers(1 << 30)))
        active = random_active_links(rng, n, max_out=1)
        got = exact_matched_solve(active, gains, book, NOISE, GAMMA)
        want = pc_mud_two_step(np.zeros(n), active, gains, book, NOISE,
                               GAMMA, tol=1e-12, max_iter=20_000,
                               filter_mode="matched")
        assert got.status == want.status
        if got.converged:
            np.testing.assert_allclose(got.powers, want.powers, rtol=1e-9,
                                       atol=0.0)
        statuses.append(got.status)
    assert statuses.count("infeasible") >= 30


def test_pc_mud_iterate_builds_no_filter(monkeypatch):
    # the second item only keeps the place of the old filter bank, and the
    # run itself never calls phy.lmmse_filter
    from adhocnet import phy

    reads = []
    monkeypatch.setattr(phy, "lmmse_filter", lambda *args: reads.append(args))
    for gains, book, active, p0 in mud_instances(33, 10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result, bank = pc_mud_iterate(p0, active, gains, book, NOISE,
                                          GAMMA, tol=1e-8, max_iter=300)
            assert isinstance(result, PcResult)
            assert bank is None
    assert reads == []


@pytest.mark.parametrize("rows", [12, 8])
def test_pc_mud_iterate_rejects_a_codebook_of_the_wrong_size(rows):
    rng = np.random.default_rng(6)
    _, gains = random_network(rng, 10)
    book = generate_spreading_codebook(rows, 16, seed=7)
    active = ActiveLinkSet(10, [(0, 1), (1, 2)])
    message = f"codebook has {rows} rows for 10 nodes"
    with pytest.raises(ConfigError, match=message):
        pc_mud_iterate(np.zeros(10), active, gains, book, NOISE, GAMMA)
    with pytest.raises(ConfigError, match=message):
        pc_mud_solve(np.zeros(10), active, gains, book, NOISE, GAMMA)


def test_pc_mud_link_sir_matches_fresh_filters():
    # every status: the SIRs come from a solve at the returned powers
    from adhocnet.phy import FilterBank, lmmse_filter, sir_lmmse

    statuses = set()
    for gains, book, active, p0 in mud_instances(34, 12):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for max_iter in (3, 300):
                result = pc_mud_iterate(p0, active, gains, book, NOISE, GAMMA,
                                        tol=1e-8, max_iter=max_iter,
                                        power_cap=1e-4)[0]
                statuses.add(result.status)
                assert result.link_sir.shape == (len(active.links),)
                for (i, j), got in zip(active.links, result.link_sir):
                    fresh = lmmse_filter(i, result.powers, gains, book, NOISE,
                                         j)
                    want = sir_lmmse((i, j), result.powers,
                                     FilterBank({(i, j): fresh}), gains, book,
                                     NOISE)
                    # compare c q = SIR / (1 + SIR): the SIR itself
                    # magnifies q's rounding by 1 + SIR, up to 1e7 here
                    assert got / (1.0 + got) == pytest.approx(
                        want / (1.0 + want), rel=1e-9)
    assert statuses == {"converged", "infeasible", "max_iter"}


def test_pc_mud_warns_on_tiny_noise():
    rng = np.random.default_rng(35)
    _, gains = random_network(rng, 5)
    book = generate_spreading_codebook(5, 4, seed=36)
    active = random_active_links(rng, 5, max_out=1)
    with pytest.warns(RuntimeWarning, match="condition bound"):
        pc_mud_iterate(np.full(5, 1e-3), active, gains, book, 1e-30, GAMMA,
                       max_iter=1)


def test_pc_mud_stops_at_first_nonfinite_iterate():
    # the tiny-noise instance fails its span factorization: the run ends
    # at the last finite iterate instead of iterating NaN to max_iter
    rng = np.random.default_rng(35)
    _, gains = random_network(rng, 5)
    book = generate_spreading_codebook(5, 4, seed=36)
    active = random_active_links(rng, 5, max_out=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = pc_mud_iterate(np.full(5, 1e-3), active, gains, book, 1e-30,
                                GAMMA, max_iter=10_000)[0]
    assert result.status == "nonfinite"
    assert result.iterations <= 3
    assert np.isfinite(result.powers).all()
    assert np.isfinite(result.trace).all()


def test_lmmse_filter_raises_where_the_covariance_is_singular():
    # test_pc_mud_stops_at_first_nonfinite_iterate's instance: noise 1e-30
    # vanishes next to the interference, so every link's covariance is
    # singular in floating point
    rng = np.random.default_rng(35)
    _, gains = random_network(rng, 5)
    book = generate_spreading_codebook(5, 4, seed=36)
    active = random_active_links(rng, 5, max_out=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for max_iter, status in ((1, "max_iter"), (10_000, "nonfinite")):
            result = pc_mud_iterate(np.full(5, 1e-3), active, gains, book,
                                    1e-30, GAMMA, max_iter=max_iter)[0]
            assert result.status == status
            for i, j in active.links:
                with pytest.raises(np.linalg.LinAlgError):
                    lmmse_filter(i, result.powers, gains, book, 1e-30, j)


def test_pc_mud_solves_again_only_past_the_last_solve(monkeypatch):
    # a run of k iterations makes k kernel solves, and one more at the
    # returned powers when they are the step past the last solve
    from adhocnet import powercontrol

    solves = []

    def counted(*args):
        solves.append(args)
        return lmmse_solve(*args)

    monkeypatch.setattr(powercontrol, "lmmse_solve", counted)
    rng = np.random.default_rng(35)
    _, gains = random_network(rng, 5)
    book = generate_spreading_codebook(5, 4, seed=36)
    # test_pc_mud_stops_at_first_nonfinite_iterate's instance, then
    # test_pc_mud_link_sir_matches_fresh_filters's
    runs = [(gains, book, random_active_links(rng, 5, max_out=1),
             np.full(5, 1e-3), 1e-30, 10_000, 1.0)]
    runs += [(gains, book, active, p0, NOISE, max_iter, 1e-4)
             for gains, book, active, p0 in mud_instances(34, 12)
             for max_iter in (3, 300)]
    statuses = set()
    for gains, book, active, p0, noise, max_iter, power_cap in runs:
        solves.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = pc_mud_iterate(p0, active, gains, book, noise, GAMMA,
                                    tol=1e-8, max_iter=max_iter,
                                    power_cap=power_cap)[0]
        statuses.add(result.status)
        past = result.status in ("infeasible", "max_iter")
        assert len(solves) == result.iterations + past
        assert solves[-1][0].tolist() == result.powers.tolist()
    assert statuses == {"converged", "nonfinite", "infeasible", "max_iter"}


def lmmse_certificate(result, active, gains, book, noise, gamma):
    """max_i |T_i(p) - P_i| / P_i at the returned powers, T from the
    reference filters ``lmmse_filter`` and ``helpers.mud_targets``."""
    p = result.powers
    filters = {(i, j): lmmse_filter(i, p, gains, book, noise, j)
               for (i, j) in active.links}
    t = mud_targets(p, active, gains, book, noise, gamma, filters)
    tx = list(active.transmitters)
    return float(np.max(np.abs(t[tx] - p[tx]) / p[tx]))


def kernel_form(book, n):
    if book.inverse_gram is not None:
        return "inverse-Gram"
    return "LU" if n <= book.length else "span"


def test_pc_mud_solve_reaches_pc_mud_iterate_fixed_point():
    # every kernel form: the same verdict as the fixed-point iteration, and
    # converged powers within 1e-6 that pass the residual test under the
    # reference filters
    forms, statuses = set(), set()
    for gains, book, active, p0 in mud_instances(31, 30):
        forms.add(kernel_form(book, active.n_nodes))
        for power_cap in (1e-4, 1.0):
            kwargs = dict(tol=1e-10, max_iter=50_000, power_cap=power_cap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = pc_mud_iterate(p0, active, gains, book, NOISE, GAMMA,
                                      **kwargs)[0]
                got = pc_mud_solve(p0, active, gains, book, NOISE, GAMMA,
                                   **kwargs)
            assert got.status == want.status
            statuses.add(got.status)
            if got.converged:
                np.testing.assert_allclose(got.powers, want.powers,
                                           rtol=1e-6, atol=0.0)
                assert lmmse_certificate(got, active, gains, book, NOISE,
                                         GAMMA) <= 1e-10 + 1e-12
                assert got.iterations <= want.iterations
    assert forms == {"inverse-Gram", "LU", "span"}
    assert statuses == {"converged", "infeasible"}


def test_pc_mud_solve_reaches_every_status(monkeypatch):
    # a run of k steps makes k kernel solves, and one more at the returned
    # powers when they are a step past the last solve; link_sir is read
    # from the solve at the returned powers
    solves, solve = [], powercontrol.lmmse_solve

    def counted(p, *args):
        solves.append(p.copy())
        return solve(p, *args)

    monkeypatch.setattr(powercontrol, "lmmse_solve", counted)
    rng = np.random.default_rng(35)
    _, gains = random_network(rng, 5)
    book = generate_spreading_codebook(5, 4, seed=36)
    # test_pc_mud_stops_at_first_nonfinite_iterate's instance, then
    # test_pc_mud_link_sir_matches_fresh_filters's
    runs = [(gains, book, random_active_links(rng, 5, max_out=1),
             np.full(5, 1e-3), 1e-30, 10_000, 1.0)]
    runs += [(gains, book, active, p0, NOISE, max_iter, 1e-4)
             for gains, book, active, p0 in mud_instances(34, 12)
             for max_iter in (1, 300)]
    statuses = set()
    for gains, book, active, p0, noise, max_iter, power_cap in runs:
        solves.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = pc_mud_solve(p0, active, gains, book, noise, GAMMA,
                                  tol=1e-8, max_iter=max_iter,
                                  power_cap=power_cap)
        statuses.add(result.status)
        past = result.status in ("infeasible", "max_iter")
        assert len(solves) == result.iterations + past
        assert solves[-1].tolist() == result.powers.tolist()
        assert len(result.trace) == result.iterations + 1 - (
            result.status in ("converged", "nonfinite"))
        assert np.isfinite(result.powers).all()
        if result.status == "nonfinite":
            continue
        if result.converged:
            assert lmmse_certificate(result, active, gains, book, noise,
                                     GAMMA) <= 1e-8 + 1e-12
        for (i, j), got in zip(active.links, result.link_sir):
            fresh = lmmse_filter(i, result.powers, gains, book, noise, j)
            want = sir_lmmse((i, j), result.powers,
                             FilterBank({(i, j): fresh}), gains, book, noise)
            assert got / (1.0 + got) == pytest.approx(want / (1.0 + want),
                                                      rel=1e-9)
    assert statuses == {"converged", "nonfinite", "infeasible", "max_iter"}


@pytest.mark.parametrize("rho, power_cap", [(0.6, 1.0), (0.0268, 5e-10)],
                         ids=["negative", "over-the-cap"])
def test_pc_mud_solve_falls_back_to_a_plain_step(monkeypatch, rho,
                                                  power_cap):
    # crossing links, each sender beside the other's receiver, sequences 0
    # and 2 correlated at rho in L = 2 chips. At p = 0 every filter is
    # matched; the tangent system there has spectral radius 1250 rho^2, so
    # its solution is negative (rho 0.6) or ten times the single-user
    # powers, over a cap of four times them (rho 0.0268). The first step
    # is then T(0), the next one plain too, and from there the LMMSE
    # filters' tangents solve
    topo = topology_from_positions([[0.0, 0.0], [10.0, 0.0], [11.0, 0.0],
                                    [1.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    c = np.sqrt(1.0 - rho ** 2)
    seqs = np.array([[1.0, 0.0], [0.0, 1.0], [rho, c], [rho, -c]])
    seqs.setflags(write=False)
    book = SpreadingCodebook(sequences=seqs)
    active = ActiveLinkSet(4, [(0, 1), (2, 3)])
    solved, policy_iteration = [], powercontrol._policy_iteration

    def counted(*args):
        solutions, reached = policy_iteration(*args)
        solved.append(reached)
        return solutions, reached

    monkeypatch.setattr(powercontrol, "_policy_iteration", counted)
    kwargs = dict(tol=1e-10, max_iter=50_000, power_cap=power_cap)
    result = pc_mud_solve(np.zeros(4), active, gains, book, NOISE, GAMMA,
                          **kwargs)
    assert solved == [False] + [True] * (len(solved) - 1)
    assert result.converged and result.iterations == len(solved) + 2
    # the fallback step is T(0), the single-user powers
    single_user = GAMMA * NOISE / gains[[0, 2], [1, 3]]
    assert result.trace[1] == pytest.approx(single_user.sum(), rel=1e-12)
    want = pc_mud_iterate(np.zeros(4), active, gains, book, NOISE, GAMMA,
                          **kwargs)[0]
    np.testing.assert_allclose(result.powers, want.powers, rtol=1e-6)
    assert lmmse_certificate(result, active, gains, book, NOISE,
                             GAMMA) <= 1e-10 + 1e-12


def count_vector_requests(monkeypatch):
    """Patch the solvers' kernel entry to log, per call, whether it asked
    for the filter vectors."""
    vectors, solve = [], powercontrol.lmmse_solve

    def counted(*args):
        vectors.append(args[6:] == (True,))
        return solve(*args)

    monkeypatch.setattr(powercontrol, "lmmse_solve", counted)
    return vectors


def test_pc_mud_solve_backs_off_where_no_tangent_solves(monkeypatch):
    # where no fixed point lies under the cap no tangent solve succeeds
    # within it, so every step is plain: the run is pc_mud_iterate's, step
    # for step. After the k-th refusal 2^(k-1) steps skip the tangent, so
    # n steps ask for the filter vectors at most 1 + log2(n + 1) times
    vectors = count_vector_requests(monkeypatch)
    infeasible = 0
    for gains, book, active, p0 in mud_instances(31, 60):
        kwargs = dict(tol=1e-10, max_iter=50_000, power_cap=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = pc_mud_iterate(p0, active, gains, book, NOISE, GAMMA,
                                  **kwargs)[0]
            vectors.clear()
            got = pc_mud_solve(p0, active, gains, book, NOISE, GAMMA,
                               **kwargs)
        assert got.status == want.status
        if got.status != "infeasible":
            continue
        infeasible += 1
        assert vectors[0] and not vectors[-1]  # none at the returned p
        assert sum(vectors) <= 1 + np.log2(got.iterations + 1)
        assert got.iterations == want.iterations
        for field in ("powers", "trace", "link_sir"):
            assert getattr(got, field).tobytes() == \
                getattr(want, field).tobytes()
    assert infeasible >= 10


def six_node_draws(seed):
    """Endless six-node networks, L = 8, with one or two outgoing links per
    sender."""
    rng = np.random.default_rng(seed)
    while True:
        _, gains = random_network(rng, 6)
        book = generate_spreading_codebook(6, 8, seed=int(rng.integers(1e6)))
        yield gains, book, random_active_links(rng, 6,
                                               max_out=int(rng.integers(1, 3)))


def test_pc_mud_solve_diverges_where_the_iteration_does(monkeypatch):
    # draws on which the fixed-point iteration climbs past the cap. Near
    # the cap the kernel is ill-conditioned (noise / power about 1e-13), and
    # a tangent solve there can land far below T(p) although p < T(p); the
    # solver must refuse that step rather than cycle to the budget, and
    # back off from tangent solves as it refuses them
    vectors = count_vector_requests(monkeypatch)
    draws = dict(itertools.islice(enumerate(six_node_draws(13)), 78))
    for k in (43, 77):
        gains, book, active = draws[k]
        kwargs = dict(tol=1e-10, max_iter=2_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = pc_mud_iterate(np.zeros(6), active, gains, book, NOISE,
                                  GAMMA, **kwargs)[0]
            vectors.clear()
            got = pc_mud_solve(np.zeros(6), active, gains, book, NOISE,
                               GAMMA, **kwargs)
        assert want.status == got.status == "infeasible"
        assert got.iterations <= want.iterations
        assert sum(vectors) <= 1 + np.log2(got.iterations + 1)


def one_update(p, active, gains, book):
    """T(p) of ``pc_mud_iterate``'s update: one step without a cap from p
    (a zero residual stops there, at T(p))."""
    return pc_mud_iterate(p, active, gains, book, NOISE, GAMMA, tol=0.0,
                          max_iter=1, power_cap=np.inf)[0].powers


@st.composite
def update_instances(draw):
    """mud_instances-sized networks with two positive power vectors, p and
    one at most p, and a scale factor above 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(3, 8))
    length = int(rng.choice([2, 4, 8, 16]))
    _, gains = random_network(rng, n)
    book = generate_spreading_codebook(n, length, seed=int(rng.integers(1e6)))
    active = random_active_links(rng, n, max_out=2)
    p = np.exp(rng.uniform(np.log(1e-9), np.log(1e-6), n))
    smaller = p * rng.uniform(0.0, 1.0, n)
    return active, gains, book, p, smaller, float(rng.uniform(1.01, 10.0))


@settings(max_examples=200, deadline=None)
@given(update_instances())
def test_mud_updates_are_standard_interference_functions(instance):
    # positivity, monotonicity and scalability (Yates 1995) of the LMMSE
    # update
    active, gains, book, p, smaller, alpha = instance
    tx = list(active.transmitters)
    t = one_update(p, active, gains, book)[tx]
    t_small = one_update(smaller, active, gains, book)[tx]
    t_scaled = one_update(alpha * p, active, gains, book)[tx]
    assert (one_update(np.zeros(active.n_nodes), active, gains,
                       book)[tx] > 0.0).all()
    assert (t_small > 0.0).all()
    assert (t >= t_small * (1 - 1e-9)).all()
    assert (alpha * t > t_scaled * (1 + 1e-12)).all()


@settings(max_examples=200, deadline=None)
@given(update_instances())
def test_lmmse_update_lies_below_its_frozen_filter_tangents(instance):
    # the Newton step's premise: filters frozen at p need T(p) at p and at
    # least T(p') at any other p', per node
    active, gains, book, p, other, alpha = instance
    frozen = {(i, j): lmmse_filter(i, p, gains, book, NOISE, j)
              for (i, j) in active.links}
    tx = list(active.transmitters)
    for at in (p, other, alpha * p, other + alpha * p):
        tangent = mud_targets(at, active, gains, book, NOISE, GAMMA, frozen)
        t = one_update(at, active, gains, book)
        if at is p:
            np.testing.assert_allclose(tangent[tx], t[tx], rtol=1e-9)
        else:
            assert (tangent[tx] >= t[tx] * (1 - 1e-9)).all()


def test_lmmse_tangent_is_the_frozen_filter_update():
    # pc_mud_solve's tangent: from the kernel's (q, x) at p, _affine_form's
    # coupling with weights target (x_k / q)^2 moves each link's need at p
    # to the power at which its filter frozen at p meets the target at p'
    rng = np.random.default_rng(48)
    for form in ["inverse-Gram", "LU", "span"] * 10:
        n = int(rng.integers(9 if form == "span" else 6, 13))
        length = {"inverse-Gram": 64, "LU": 16, "span": 8}[form]
        _, gains = random_network(rng, n)
        seqs = np.array(generate_spreading_codebook(
            n, length, seed=int(rng.integers(1e6))).sequences)
        if form == "LU":  # sequence 1 within 1e-3 of sequence 0
            seqs[1] = seqs[0] + 1e-3 * rng.standard_normal(length)
            seqs[1] /= np.linalg.norm(seqs[1])
        seqs.setflags(write=False)
        book = SpreadingCodebook(sequences=seqs)
        assert (book.inverse_gram is None) == (form != "inverse-Gram")
        active = random_active_links(rng, n, max_out=2)
        i_idx, j_idx = active.link_arrays
        senders = active.sender_groups[0]
        p = np.exp(rng.uniform(np.log(1e-8), np.log(1e-6), n))
        q, x = lmmse_solve(p, gains, book, NOISE, i_idx, j_idx, True)
        g = gains[i_idx, j_idx]
        need = GAMMA * (1.0 - p[i_idx] * g * q) / (g * q)
        weights = GAMMA * (x[senders] / q) ** 2
        coupling = powercontrol._affine_form(active, gains, NOISE, GAMMA,
                                             weights=weights)[-1]
        frozen = FilterBank({(i, j): lmmse_filter(i, p, gains, book, NOISE, j)
                             for (i, j) in active.links})
        for _ in range(4):
            other = p * np.exp(rng.uniform(-2.0, 2.0, n))
            tangent = need + (other - p)[senders] @ coupling
            for l, (i, j) in enumerate(active.links):
                sir = sir_lmmse((i, j), other, frozen, gains, book, NOISE)
                assert tangent[l] == pytest.approx(other[i] * GAMMA / sir,
                                                   rel=1e-9)


def test_pc_solve_matches_single_outgoing_linear_solve():
    # one outgoing link per node leaves a single policy, so the check is the
    # helper's linear solve; rho_max=1 makes None mean exactly infeasible
    rng = np.random.default_rng(17)
    outcomes = set()
    for _ in range(300):
        state = rng.bit_generator.state
        inst = single_outgoing_instance(rng, 6, 64, GAMMA, NOISE, rho_max=1.0)
        if inst is None:
            # draw the network and links again to check the rejected one
            rng.bit_generator.state = state
            _, gains = random_network(rng, 6)
            dests = [int(rng.integers(0, 5)) for _ in range(6)]
            links = [(i, d + (d >= i)) for i, d in enumerate(dests)]
            active = ActiveLinkSet(6, links)
        else:
            _, gains, active, fixed_point, _ = inst
        result = pc_solve(active, gains, 64, NOISE, GAMMA, power_cap=np.inf)
        outcomes.add(result.status)
        if inst is None:
            assert result.status == "infeasible"
        else:
            assert result.converged and result.iterations == 1
            assert np.allclose(result.powers, fixed_point, rtol=1e-12, atol=0)
            # a cap just below the fixed point leaves no feasible powers
            capped = pc_solve(active, gains, 64, NOISE, GAMMA,
                              power_cap=0.999 * fixed_point.max())
            assert capped.status == "infeasible"
    assert outcomes == {"converged", "infeasible"}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
       spreading=st.sampled_from([2, 8, 128]),
       power_cap=st.sampled_from([1e-7, 1.0]))
def test_pc_solve_is_the_fixed_point_pc_iterate_reaches(seed, n, spreading,
                                                        power_cap):
    rng = np.random.default_rng(seed)
    _, gains = random_network(rng, n)
    active = random_active_links(rng, n, max_out=3, min_out=1)
    model = (active, gains, spreading, NOISE, GAMMA)
    exact = pc_solve(*model, power_cap=power_cap)
    start = np.zeros(n)
    if exact.converged:
        p = exact.powers
        assert np.allclose(power_targets(p, *model), p, rtol=1e-12, atol=0)
        assert p.max() <= power_cap
        iterated = pc_iterate(start, *model, tol=1e-10, max_iter=100_000,
                              power_cap=power_cap)
        assert iterated.converged
        assert np.allclose(iterated.powers, p, rtol=1e-6, atol=0)
    else:
        assert exact.status == "infeasible"
        assert not pc_iterate(start, *model, max_iter=10_000,
                              power_cap=power_cap).converged


def test_pc_solve_agrees_with_pc_iterate_on_initial_routes():
    # several outgoing links per node: the cases that switch policies
    statuses, solves = set(), set()
    for seed in range(8):
        scenario = Scenario(n_nodes=40, spreading_gain=128, master_seed=seed)
        net = build_network(scenario)
        routes, _ = initial_routes(scenario, net.gains, net.sessions,
                                   initial_powers(scenario))
        model = (routes.active_links, net.gains, 128, scenario.noise_power,
                 scenario.target_sir)
        exact = pc_solve(*model)
        iterated = pc_iterate(np.zeros(40), *model, tol=1e-10,
                              max_iter=100_000)
        assert exact.status == iterated.status
        if exact.converged:
            p = exact.powers
            assert np.allclose(power_targets(p, *model), p, rtol=1e-12, atol=0)
            assert np.allclose(iterated.powers, p, rtol=1e-6, atol=0)
        statuses.add(exact.status)
        solves.add(exact.iterations)
    assert statuses == {"converged", "infeasible"} and max(solves) > 1


def test_single_outgoing_instance_draws_match_loop():
    for spreading_gain in (16, 128):
        fast_rng = np.random.default_rng(5)
        loop_rng = np.random.default_rng(5)
        accepted = 0
        for _ in range(200):
            fast = single_outgoing_instance(fast_rng, 6, spreading_gain,
                                            GAMMA, NOISE)
            loop = single_outgoing_instance_loop(loop_rng, 6, spreading_gain,
                                                 GAMMA, NOISE)
            assert (fast is None) == (loop is None)
            if fast is not None:
                accepted += 1
                assert np.array_equal(fast[0], loop[0])
                assert np.array_equal(fast[1], loop[1])
                assert fast[2] == loop[2]
                assert np.array_equal(fast[3], loop[3])
                assert fast[4] == loop[4]
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
        if spreading_gain == 128:
            assert accepted > 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       spreading=st.sampled_from([2, 8, 128]),
       zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
       power_cap=st.sampled_from([1e-7, 1.0]),
       max_iter=st.sampled_from([1, 5, 300]))
def test_pc_iterate_matches_loop_oracle(seed, n, spreading, zero_frac,
                                        power_cap, max_iter):
    """The fixed-policy blocks take the power_targets loop's steps, with
    silent nodes (no outgoing link) and zero initial powers."""
    rng = np.random.default_rng(seed)
    _, gains = random_network(rng, n)
    active = random_active_links(rng, n, max_out=2, min_out=0)
    p0 = np.exp(rng.uniform(np.log(1e-10), np.log(1e-6), n))
    p0[rng.random(n) < zero_frac] = 0.0
    kwargs = dict(tol=1e-8, max_iter=max_iter, power_cap=power_cap)
    got = pc_iterate(p0, active, gains, spreading, NOISE, GAMMA, **kwargs)
    want = pc_iterate_loop(p0, active, gains, spreading, NOISE, GAMMA,
                           **kwargs)
    same_pc_steps(got, want)


def test_pc_iterate_oracle_cases_cover_all_statuses():
    statuses = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        _, gains = random_network(rng, n)
        active = random_active_links(rng, n, max_out=2, min_out=0)
        p0 = np.zeros(n) if seed % 4 == 0 else \
            np.exp(rng.uniform(np.log(1e-10), np.log(1e-6), n))
        for spreading, cap in ((2, 1e-7), (128, 1.0)):
            for max_iter in (5, 300):
                kwargs = dict(tol=1e-8, max_iter=max_iter, power_cap=cap)
                got = pc_iterate(p0, active, gains, spreading, NOISE, GAMMA,
                                 **kwargs)
                same_pc_steps(got, pc_iterate_loop(
                    p0, active, gains, spreading, NOISE, GAMMA, **kwargs))
                statuses.add(got.status)
    assert statuses == {"converged", "infeasible", "max_iter"}


def _choice_case(seed, n, start):
    """A network whose senders have 2-3 links each, some nodes silent.

    ``start`` is "random" (log-uniform powers, some zero), "silent" (all
    zero) or "empty" (no active link at all).
    """
    rng = np.random.default_rng(seed)
    _, gains = random_network(rng, n)
    links = random_active_links(rng, n, max_out=3, min_out=2).links
    keep = rng.random(n) < 0.8
    links = [] if start == "empty" else [l for l in links if keep[l[0]]]
    p0 = np.exp(rng.uniform(np.log(1e-10), np.log(1e-6), n))
    p0[rng.random(n) < 0.3] = 0.0
    if start == "silent":
        p0[:] = 0.0
    return gains, ActiveLinkSet(n, links), p0


def _worst_links(p, active, gains, spreading):
    """Each sender's link of largest requirement at p, as power_targets
    takes it."""
    i_idx, j_idx = active.link_arrays
    g = gains[i_idx, j_idx]
    need = ((gains[:, j_idx].T @ p - g * p[i_idx]) / spreading
            + NOISE) / g
    return [int(np.flatnonzero(i_idx == i)[np.argmax(need[i_idx == i])])
            for i in active.transmitters]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10),
       spreading=st.sampled_from([2, 8, 128]),
       power_cap=st.sampled_from([1e-7, 1e-5, 1.0]),
       max_iter=st.integers(1, 400),
       start=st.sampled_from(["random", "random", "silent", "empty"]))
def test_pc_iterate_blocks_take_the_loop_steps(seed, n, spreading, power_cap,
                                               max_iter, start):
    """Policy switches, stops inside a block and degenerate starts; a
    converged run passes the residual test at its returned powers."""
    gains, active, p0 = _choice_case(seed, n, start)
    model = (active, gains, spreading, NOISE, GAMMA)
    kwargs = dict(tol=1e-8, max_iter=max_iter, power_cap=power_cap)
    got = pc_iterate(p0, *model, **kwargs)
    same_pc_steps(got, pc_iterate_loop(p0, *model, **kwargs))
    if got.converged:
        p = got.powers
        t = power_targets(p, *model)
        assert np.all(np.abs(t - p) <= 1e-8 * np.maximum(p, 1e-30))


def test_pc_iterate_block_cases_switch_and_stop_inside_blocks():
    # the cases above switch policies mid-run and stop at every status, at
    # iteration counts other than the ends of unbroken full-length blocks
    unbroken_ends = set(range(powercontrol._BLOCK_MAX, 10_000,
                              powercontrol._BLOCK_MAX))
    switched, inside = 0, set()
    for seed in range(60):
        gains, active, p0 = _choice_case(seed, 3 + seed % 8, "random")
        model = (active, gains, 8 if seed % 2 else 128, NOISE, GAMMA)
        got = pc_iterate(p0, *model, tol=1e-8, max_iter=37 + seed,
                         power_cap=1e-5 if seed % 4 < 2 else 1.0)
        p = p0 * np.isin(np.arange(len(p0)), active.transmitters)
        switched += _worst_links(p, *model[:3]) \
            != _worst_links(got.powers, *model[:3])
        if got.iterations not in unbroken_ends:
            inside.add(got.status)
    assert switched >= 5
    assert inside == {"converged", "infeasible", "max_iter"}


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6),
       links=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)),
                      max_size=12),
       form=st.sampled_from(["list", "generator", "array"]))
def test_link_set_constructor_matches_loop_oracle(n, links, form):
    given_links = {
        "list": lambda: list(links),
        "generator": lambda: (link for link in links),
        "array": lambda: np.array(links, dtype=np.int64).reshape(-1, 2),
    }[form]
    try:
        want = link_set_loop(n, links)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            ActiveLinkSet(n, given_links())
        assert str(err.value) == str(exc)
    else:
        active = ActiveLinkSet(n, given_links())
        assert active.links == want
        i_idx, j_idx = active.link_arrays
        assert i_idx.dtype == j_idx.dtype == np.int64
        assert list(zip(i_idx.tolist(), j_idx.tolist())) == list(want)


def test_a_link_set_is_checked_sorted_and_deduplicated_when_built():
    # the solvers group links by sender: unsorted, these links once got a
    # "converged" verdict from pc_solve that their sorted twin refutes
    _, gains = random_network(np.random.default_rng(3), 4)
    links = ((0, 1), (0, 2), (2, 3), (1, 0))
    active = ActiveLinkSet(4, links)
    assert active == ActiveLinkSet(4, sorted(links))
    assert active.links == ((0, 1), (0, 2), (1, 0), (2, 3))
    for got, want in zip(active.link_arrays, ([0, 0, 1, 2], [1, 2, 0, 3])):
        assert got.tolist() == want
    assert pc_solve(active, gains, 16, NOISE, GAMMA).status == "infeasible"
    assert pc_iterate(np.zeros(4), active, gains, 16, NOISE,
                      GAMMA).status == "infeasible"
    assert ActiveLinkSet(4, ((0, 1), (2, 3), (0, 1))).links == ((0, 1), (2, 3))
    for bad, message in ((((1, 1),), "self loop"), (((0, 4),), "outside"),
                         (((-1, 0),), "outside")):
        with pytest.raises(ValueError, match=message):
            ActiveLinkSet(4, bad)
    assert ActiveLinkSet(4, ()).link_arrays[0].size == 0


@pytest.mark.parametrize("links", [
    [(0, 1.5)], [(0, 1), (2, 1.0)], np.array([[0.0, 1.0]]), [("0", "1")],
], ids=["fraction", "integral-float", "float-array", "strings"])
def test_a_link_set_rejects_non_integer_nodes(links):
    with pytest.raises(ValueError, match="must be integers"):
        ActiveLinkSet(3, links)


def test_a_link_sets_arrays_are_read_only():
    # every holder of the set shares them, and links is not rebuilt from them
    active = ActiveLinkSet(4, [(0, 1), (1, 2), (1, 3)])
    for array in (*active.link_arrays, *active.sender_groups):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2
    assert active.links == ((0, 1), (1, 2), (1, 3))
    assert active.link_arrays[0].tolist() == [0, 1, 1]
    assert [g.tolist() for g in active.sender_groups] == [[0, 1], [0, 1],
                                                          [0, 1, 1]]


def test_every_solver_reads_the_link_sets_one_sender_grouping(monkeypatch):
    # the grouping is np.unique of the senders, computed once per link set:
    # the check, the probe and the joint loop's first run share it
    topo = topology_from_positions([[0.0, 0.0], [30.0, 0.0], [60.0, 5.0],
                                    [20.0, 40.0]])
    gains = compute_link_gains(topo, 2.0)
    book = generate_spreading_codebook(4, 64, seed=2)
    active = ActiveLinkSet(4, [(3, 1), (0, 1), (3, 2), (2, 0)])
    want = np.unique([0, 2, 3, 3], return_index=True, return_inverse=True)
    groups = active.sender_groups
    for got, expected in zip(groups, want):
        assert got.tolist() == expected.tolist()
    calls = []
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a))
    p0 = np.full(4, 1e-9)
    assert pc_solve(active, gains, 64, NOISE, GAMMA).converged
    assert pc_iterate(p0, active, gains, 64, NOISE, GAMMA).converged
    assert pc_mud_iterate(p0, active, gains, book, NOISE, GAMMA)[0].converged
    assert pc_mud_solve(p0, active, gains, book, NOISE, GAMMA).converged
    assert calls == [] and active.sender_groups is groups


def _three_node_solvers():
    """Each power-control entry point on one three-node, two-link instance,
    as a function of the initial powers (pc_solve takes none)."""
    topo = topology_from_positions([[0.0, 0.0], [30.0, 0.0], [60.0, 5.0]])
    gains = compute_link_gains(topo, 2.0)
    book = generate_spreading_codebook(3, 64, seed=2)
    active = ActiveLinkSet(3, [(0, 1), (2, 1)])
    return {
        "pc_iterate": lambda p0: pc_iterate(p0, active, gains, 64, NOISE,
                                            GAMMA),
        "lmmse": lambda p0: pc_mud_iterate(p0, active, gains, book, NOISE,
                                           GAMMA)[0],
        "newton": lambda p0: pc_mud_solve(p0, active, gains, book, NOISE,
                                          GAMMA),
    }


@pytest.mark.parametrize("solver", ["pc_iterate", "lmmse", "newton"])
@pytest.mark.parametrize("p0", [
    np.zeros(2), np.zeros(4), np.zeros((3, 1)), [0.0, np.nan, 0.0],
    [0.0, np.inf, 0.0], [1e-9, -1e-12, 0.0],
], ids=["short", "long", "column", "nan", "inf", "negative"])
def test_power_control_rejects_bad_initial_powers(solver, p0):
    run = _three_node_solvers()[solver]
    assert run(np.full(3, 1e-9)).converged
    with pytest.raises(ConfigError, match=r"^p0 needs 3 finite"):
        run(p0)


@pytest.mark.parametrize("p", [[1e-9, np.nan, 1e-9], [1e-9, -1e-9, 1e-9],
                               [1e-9, 1e-9]], ids=["nan", "negative", "short"])
def test_power_targets_name_bad_powers(p):
    # before, a NaN power warned and gave NaN targets
    gains = compute_link_gains(
        topology_from_positions([[0.0, 0.0], [30.0, 0.0], [60.0, 5.0]]), 2.0)
    active = ActiveLinkSet(3, [(0, 1), (2, 1)])
    assert np.isfinite(power_targets(np.full(3, 1e-9), active, gains, 8,
                                     NOISE, GAMMA)).all()
    with pytest.raises(ConfigError, match=r"^p needs 3 finite"):
        power_targets(np.array(p), active, gains, 8, NOISE, GAMMA)


def test_solvers_on_a_link_set_without_links():
    gains = compute_link_gains(
        topology_from_positions([[0.0, 0.0], [30.0, 0.0], [60.0, 5.0]]), 2.0)
    book = generate_spreading_codebook(3, 8, seed=2)
    empty = ActiveLinkSet(3, [])
    exact = pc_solve(empty, gains, 8, NOISE, GAMMA)
    assert exact.converged and exact.iterations == 0
    results = [exact, pc_iterate(np.full(3, 1e-9), empty, gains, 8, NOISE,
                                 GAMMA)]
    results.append(pc_mud_iterate(np.full(3, 1e-9), empty, gains, book,
                                  NOISE, GAMMA)[0])
    results.append(pc_mud_solve(np.full(3, 1e-9), empty, gains, book, NOISE,
                                GAMMA))
    for result in results:
        assert result.converged
        assert result.powers.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("case", ["more_nodes", "fewer_nodes", "not_square",
                                  "nan", "inf", "negative"])
def test_power_control_rejects_bad_gains(case):
    # before, gains for more nodes than the link set gave "converged", a NaN
    # gain on a link gave "infeasible" or "nonfinite", and a shape mismatch
    # raised numpy's errors
    topo = topology_from_positions([[0.0, 0.0], [30.0, 0.0], [60.0, 5.0],
                                    [20.0, 40.0]])
    gains = compute_link_gains(topo, 2.0)
    bad = {"more_nodes": gains, "fewer_nodes": gains[:2, :2],
           "not_square": gains[:3]}.get(case, np.array(gains[:3, :3]))
    if case in ("nan", "inf", "negative"):
        bad[0, 1] = {"nan": np.nan, "inf": np.inf, "negative": -1e-9}[case]
    book = generate_spreading_codebook(3, 64, seed=2)
    active = ActiveLinkSet(3, [(0, 1), (2, 1)])
    p0 = np.full(3, 1e-9)
    calls = [
        lambda g: power_targets(p0, active, g, 64, NOISE, GAMMA),
        lambda g: pc_iterate(p0, active, g, 64, NOISE, GAMMA),
        lambda g: pc_solve(active, g, 64, NOISE, GAMMA),
        lambda g: pc_mud_iterate(p0, active, g, book, NOISE, GAMMA),
        lambda g: pc_mud_solve(p0, active, g, book, NOISE, GAMMA),
    ]
    for call in calls:
        assert call(gains[:3, :3]) is not None
        with pytest.raises(ConfigError, match="^gains must be"):
            call(bad)


def test_repick_keeps_the_policy_link_on_a_tie():
    # a sender switches only to a link that needs strictly more; one whose
    # policy ties with an earlier link keeps it, as on a NaN need
    starts, owner = np.array([0, 2]), np.array([0, 0, 1, 1])
    need = np.array([2.0, 2.0, 1.0, np.nan])
    for policy, want in (([1, 3], [1, 3]), ([0, 2], [0, 2])):
        got = powercontrol._repick(need, np.array(policy), starts, owner)
        assert got.tolist() == want
    # otherwise each sender takes its first link of largest need
    assert powercontrol._repick(np.array([1.0, 3.0, 3.0, 1.0]),
                                np.array([0, 3]), starts, owner
                                ).tolist() == [1, 2]


def test_the_residual_test_and_the_cap_are_inclusive():
    # a lone link's update is constant: a step from zero lands exactly on
    # the fixed point a = target * noise / h, and the next has residual 0.
    # A zero tol accepts that, and a cap equal to a does not refuse it
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0]])
    gains = compute_link_gains(topo, 2.0)
    active = ActiveLinkSet(2, [(0, 1)])
    a = GAMMA * NOISE / gains[0, 1]
    iterated = pc_iterate(np.zeros(2), active, gains, 8, NOISE, GAMMA,
                          tol=0.0, max_iter=50, power_cap=a)
    assert iterated.status == "converged" and iterated.iterations == 2
    solved = pc_solve(active, gains, 8, NOISE, GAMMA, power_cap=a)
    assert solved.converged
    assert iterated.powers.tolist() == solved.powers.tolist() == [a, 0.0]
