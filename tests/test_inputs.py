"""Every public entry names a bad argument.

One property test draws a small valid instance, applies one corruption from
a fixed list to one argument, and calls every public entry that takes that
argument. Each call must raise an ``AdhocnetError`` or a ``ValueError``
whose message names the argument; a numpy error, a returned status or a
NaN result fails. ``received_powers``, ``matched_link_sir`` and
``lmmse_solve`` run on every solver step and check shapes only, so they are
not entries here.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocnet import (
    ActiveLinkSet,
    RouteSet,
    Scenario,
    assign_routes,
    build_link_costs,
    build_network,
    energy_per_bit_link,
    initial_routes,
    joint_optimize,
    lmmse_filter,
    network_energy_per_bit,
    pc_iterate,
    pc_mud_iterate,
    pc_mud_solve,
    pc_solve,
    power_targets,
    sir_lmmse,
    sir_matched,
)
from adhocnet.errors import AdhocnetError
from adhocnet.netmodel import generate_spreading_codebook
from adhocnet.phy import matched_sir_matrix

# entry -> (the arguments it takes, its call on an instance's arguments a)
ENTRIES = {
    "power_targets": (("p", "gains"), lambda s, a: power_targets(
        a["p"], a["active"], a["gains"], s.spreading_gain, s.noise_power,
        s.target_sir)),
    "pc_iterate": (("p", "gains"), lambda s, a: pc_iterate(
        a["p"], a["active"], a["gains"], s.spreading_gain, s.noise_power,
        s.target_sir)),
    "pc_solve": (("gains",), lambda s, a: pc_solve(
        a["active"], a["gains"], s.spreading_gain, s.noise_power,
        s.target_sir)),
    "pc_mud_iterate": (("p", "gains", "codebook"), lambda s, a: pc_mud_iterate(
        a["p"], a["active"], a["gains"], a["codebook"], s.noise_power,
        s.target_sir)[0]),
    "pc_mud_solve": (("p", "gains", "codebook"), lambda s, a: pc_mud_solve(
        a["p"], a["active"], a["gains"], a["codebook"], s.noise_power,
        s.target_sir)),
    "initial_routes": (("p", "gains", "sessions"), lambda s, a: initial_routes(
        s, a["gains"], a["sessions"], a["p"])),
    "assign_routes": (("sessions",), lambda s, a: assign_routes(
        a["sessions"], a["costs"])),
    "build_link_costs": (("p",), lambda s, a: build_link_costs(
        a["p"], a["sir"], s.target_sir)),
    "network_energy_per_bit": (("p", "gains", "codebook"),
                               lambda s, a: network_energy_per_bit(
        a["routes"], a["p"], s, a["gains"], a["codebook"])),
    "joint_optimize": (("p", "gains", "sessions", "codebook"),
                       lambda s, a: joint_optimize(
        s, None, a["gains"], a["sessions"], a["codebook"], p_init=a["p"])),
    "sir_matched": (("link",), lambda s, a: sir_matched(
        a["link"], a["p"], a["gains"], s.spreading_gain, s.noise_power)),
    "energy_per_bit_link": (("link",), lambda s, a: energy_per_bit_link(
        a["link"], a["p"], s.target_sir, s.bit_rate, s.packet_bits)),
    "lmmse_filter": (("link", "codebook"), lambda s, a: lmmse_filter(
        a["link"][0], a["p"], a["gains"], a["codebook"], s.noise_power,
        a["link"][1])),
    "sir_lmmse": (("link", "codebook"), lambda s, a: sir_lmmse(
        a["link"], a["p"], {a["link"]: a["codebook"].sequences[0]},
        a["gains"], a["codebook"], s.noise_power)),
    "ActiveLinkSet": (("link",), lambda s, a: ActiveLinkSet(
        len(a["p"]), [a["link"], (1, 2)])),
    "RouteSet": (("link",), lambda s, a: RouteSet(
        paths=(a["link"], (1, 2)), n_nodes=len(a["p"]))),
}

# each power argument's name in its entry's signature
POWER_NAMES = {"pc_iterate": "p0", "pc_mud_iterate": "p0",
               "pc_mud_solve": "p0", "initial_routes": "p_init",
               "joint_optimize": "p_init"}

CORRUPTIONS = [
    ("gains", "more nodes"), ("gains", "not square"), ("gains", "nan"),
    ("gains", "inf"), ("gains", "negative"),
    ("p", "more nodes"), ("p", "nan"), ("p", "negative"),
    ("link", -1), ("link", "n"), ("link", 1.5),
    ("sessions", -1), ("sessions", "n"), ("sessions", 1.5),
    ("codebook", "more nodes"), ("codebook", "fewer nodes"),
]


def corrupt(args, argument, case, n, seed):
    """``args`` with ``argument`` replaced by its ``case`` corruption."""
    bad = dict(args)
    if argument == "gains":
        g = np.array(args["gains"])
        if case in ("nan", "inf", "negative"):
            g[0, 1] = {"nan": np.nan, "inf": np.inf, "negative": -1e-9}[case]
        bad["gains"] = {"more nodes": np.pad(g, (0, 1)),
                        "not square": g[:-1]}.get(case, g)
    elif argument == "p":
        p = np.append(args["p"], 1e-7) if case == "more nodes" \
            else np.array(args["p"])
        p[1] = {"nan": np.nan, "negative": -1e-9}.get(case, p[1])
        bad["p"] = p
    elif argument == "codebook":
        bad["codebook"] = generate_spreading_codebook(
            n + 1 if case == "more nodes" else n - 1,
            args["codebook"].length, seed)
    else:
        node = n if case == "n" else case
        bad["link"] = (node, 1)
        bad["sessions"] = ((node, 1),) + args["sessions"][1:]
    return bad


def expected_name(entry, argument, case):
    """The argument the entry's message must name."""
    if argument == "p":
        return POWER_NAMES.get(entry, "p")
    if argument == "gains" and case == "more nodes" \
            and entry in ("initial_routes", "joint_optimize"):
        return "p_init"  # the gains set n there, so the powers are short
    return {"link": "link", "sessions": "session"}.get(argument, argument)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 6), spreading_gain=st.sampled_from([4, 16]),
       receiver=st.sampled_from(["matched", "lmmse"]),
       seed=st.integers(0, 2**16), corruption=st.sampled_from(CORRUPTIONS))
def test_every_public_entry_names_a_corrupted_argument(n, spreading_gain,
                                                       receiver, seed,
                                                       corruption):
    argument, case = corruption
    if argument == "codebook":
        receiver = "lmmse"  # the matched energy never reads the codebook
    scenario = Scenario(n_nodes=n, spreading_gain=spreading_gain,
                        receiver=receiver, master_seed=seed)
    net = build_network(scenario)
    p = np.exp(np.random.default_rng(seed).uniform(np.log(1e-8),
                                                   np.log(1e-6), n))
    routes = RouteSet(paths=net.sessions, n_nodes=n)
    args = {"p": p, "gains": net.gains, "codebook": net.codebook,
            "sessions": net.sessions, "link": (0, 1), "routes": routes,
            "active": routes.active_links,
            "sir": matched_sir_matrix(p, net.gains, spreading_gain,
                                      scenario.noise_power),
            "costs": np.where(np.eye(n, dtype=bool), np.inf, 1.0)}
    bad = corrupt(args, argument, case, n, seed)
    for entry, (takes, call) in ENTRIES.items():
        if argument not in takes:
            continue
        call(scenario, args)  # the valid instance passes
        name = expected_name(entry, argument, case)
        with pytest.raises((AdhocnetError, ValueError)) as raised:
            result = call(scenario, bad)
            pytest.fail(f"{entry} returned {result!r} for {corruption}")
        message = str(raised.value)
        assert re.search(rf"\b{name}\b", message), (entry, corruption,
                                                    message)
