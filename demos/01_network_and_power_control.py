#!/usr/bin/env python3
"""Build a small CDMA ad hoc network and solve its transmit powers.

Walks through the basic objects: a scenario, the generated topology, link
gains and sessions, an active link set, and the fixed-point power solver.
Ends with an infeasible example to show how divergence is reported.
"""

import numpy as np

from adhocnet import (
    ActiveLinkSet,
    Scenario,
    build_network,
    initial_routes,
    pc_iterate,
    sir_matched,
)

scenario = Scenario(n_nodes=10, spreading_gain=64, area_side=150.0,
                    master_seed=6)
net = build_network(scenario)

print("=== network ===")
print(f"{scenario.n_nodes} nodes on a {scenario.area_side:.0f} m square, "
      f"spreading gain {scenario.spreading_gain}, "
      f"target SIR {scenario.target_sir}")
for i, (x, y) in enumerate(net.topology):
    print(f"  node {i}: ({x:6.1f}, {y:6.1f})")
print("sessions:", net.sessions)

p0 = np.full(scenario.n_nodes, scenario.initial_power)
routes, _ = initial_routes(scenario, net.gains, net.sessions, p0)
print("\n=== initial routes (energy-per-bit costs at the starting powers) ===")
for k, path in enumerate(routes.paths):
    print(f"  session {k}: {' -> '.join(map(str, path))}")

result = pc_iterate(p0, routes.active_links, net.gains,
                    scenario.spreading_gain, scenario.noise_power,
                    scenario.target_sir, tol=scenario.pc_tol,
                    power_cap=scenario.power_cap)
print(f"\n=== power control: {result.status} "
      f"after {result.iterations} iterations ===")
print(f"total power {result.powers.sum():.3e} W "
      f"(started at {p0.sum():.3e} W)")
print("iteration trace (total transmitted power, W):")
for k in range(0, len(result.trace), max(1, len(result.trace) // 8)):
    print(f"  iter {k:4d}: {result.trace[k]:.6e}")

print("\nworst outgoing SIR per transmitting node (target "
      f"{scenario.target_sir}):")
for i in routes.active_links.transmitters:
    sirs = [sir_matched((i, j), result.powers, net.gains,
                        scenario.spreading_gain, scenario.noise_power)
            for j in routes.active_links.outgoing[i]]
    print(f"  node {i}: {min(sirs):.6f}")

print("\n=== an infeasible configuration ===")
# two tightly coupled crossing links with a small spreading gain diverge
from adhocnet.netmodel import compute_link_gains

positions = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0], [10.0, 1.0]])
gains = compute_link_gains(positions, 2.0)
active = ActiveLinkSet(4, [(0, 1), (2, 3)])
bad = pc_iterate(np.full(4, 1e-6), active, gains, 2, 1e-13, 5.0)
print(f"status: {bad.status} (powers blew past the cap after "
      f"{bad.iterations} iterations)")
