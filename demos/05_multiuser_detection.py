#!/usr/bin/env python3
"""LMMSE multiuser detection versus the matched filter, 30 nodes at L=32.

Each LMMSE power-control step optimizes the receiver filters and then
applies the matching power update, which collapses to one closed-form
update per node. The LMMSE receiver suppresses interference with the exact
sequence cross-correlations, so it sustains loads the matched filter cannot:
here the full joint loop runs at a load where the matched-filter model
diverges, and the normalized throughput gain over the 55-user, L=128
matched-filter operating point works out to 2.18.
"""

import numpy as np

from adhocnet import (
    Scenario,
    build_network,
    initial_powers,
    initial_routes,
    joint_optimize,
    pc_iterate,
    pc_mud_iterate,
    throughput_gain,
)

scenario = Scenario(n_nodes=30, spreading_gain=32, receiver="lmmse",
                    initial_power_mode="random", master_seed=9)
net = build_network(scenario)
p0 = initial_powers(scenario)
routes, _ = initial_routes(scenario, net.gains, net.sessions, p0)
active = routes.active_links

print("=== power control on the initial routes ===")
matched = pc_iterate(p0, active, net.gains, scenario.spreading_gain,
                     scenario.noise_power, scenario.target_sir)
print(f"matched filter (1/L model): {matched.status}")
mud = pc_mud_iterate(p0, active, net.gains, net.codebook,
                     scenario.noise_power, scenario.target_sir)[0]
print(f"LMMSE power control:        {mud.status} after {mud.iterations} "
      f"iterations, total {mud.powers.sum():.3e} W")

print("\n=== full joint loop with the LMMSE receiver ===")
solution = joint_optimize(scenario, net.topology, net.gains, net.sessions,
                          net.codebook)
print(f"status {solution.status} after {len(solution.trace)} phases")
for k, record in enumerate(solution.trace):
    print(f"  phase {k} {record.phase:15s} total {record.total_power:.4e} W")
print(f"initial powers (random draw): {solution.initial_total_power:.3e} W")
print(f"energy per bit {solution.initial_energy_per_bit:.3e} J -> "
      f"{solution.energy_per_bit:.3e} J")

gain = throughput_gain(30, 32, 55, 128)
print(f"\nnormalized throughput gain of (N=30, L=32) LMMSE over "
      f"(N=55, L=128) matched: {gain:.2f}")
