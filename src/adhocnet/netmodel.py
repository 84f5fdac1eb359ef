"""Static network description for a synchronous DS-CDMA ad hoc network.

Holds the scenario (all experiment knobs), node placement on a square area,
path-loss link gains, one traffic session per node, and the random spreading
codebook. Everything is generated deterministically from the scenario's
master seed; identical seeds reproduce identical arrays bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import (
    CoincidentNodesError,
    ConfigError,
    check_fields,
    check_keys,
    checked,
    read_json_object,
)
from .seeds import derive_seed

# Stream indices hung off the master seed, one per generated component.
TOPOLOGY_STREAM = 0
SESSION_STREAM = 1
CODEBOOK_STREAM = 2
INIT_POWER_STREAM = 3

RECEIVERS = ("matched", "lmmse")
POWER_MODES = ("equal", "random")

# build_network redraws a topology with coincident nodes at most this often.
_MAX_ATTEMPTS = 100

# Largest cond(G) at which the LMMSE kernel uses noise G^-1 (phy docstring):
# q loses about cond(G) float epsilons to it; above, an LU or the span form.
GRAM_CONDITION_LIMIT = 1e4


@dataclass(frozen=True)
class Scenario:
    """Complete description of one experiment setup.

    Fields
    ------
    n_nodes : number of terminals.
    area_side : side of the square deployment area in meters.
    spreading_gain : CDMA processing gain L (chips per symbol).
    target_sir : SIR every active link must reach.
    noise_power : background noise power in watts.
    path_loss_exp : exponent of the distance power law.
    receiver : "matched" or "lmmse".
    initial_power_mode : "equal" (all nodes at ``initial_power``) or
        "random" (log-uniform over ``initial_power_range``).
    initial_power : common transmit power for equal mode, watts.
    initial_power_range : (low, high) watts for random mode; defaults to
        (0.1, 10) times ``initial_power`` when omitted.
    packet_bits : packet length used by the retransmission model.
    chip_bandwidth : chip-rate bandwidth in Hz; bit rate is
        ``chip_bandwidth / spreading_gain``.
    power_cap : per-node transmit power ceiling in watts; exceeding it is
        treated as evidence of infeasibility.
    pc_tol, pc_max_iter : power-control stopping rule.
    improvement_tol : relative total-power improvement below which the joint
        loop stops.
    phase_cap : hard bound on recorded joint-loop phases.
    master_seed : root of every random stream, in [0, 2^64).
    """

    n_nodes: int = checked(Integral, 55, low=2)
    area_side: float = checked(Real, 200.0, above=0)
    spreading_gain: int = checked(Integral, 128, low=1)
    target_sir: float = checked(Real, 12.5, above=0)
    noise_power: float = checked(Real, 1e-13, above=0)
    path_loss_exp: float = checked(Real, 2.0, above=0)
    receiver: str = checked(str, "matched", choices=RECEIVERS)
    initial_power_mode: str = checked(str, "equal", choices=POWER_MODES)
    initial_power: float = checked(Real, 1e-6, above=0)
    # checked and normalised to a tuple of floats in __post_init__
    initial_power_range: tuple[float, float] | None = None
    packet_bits: int = checked(Integral, 80, low=1)
    chip_bandwidth: float = checked(Real, 1e6, above=0)
    power_cap: float = checked(Real, 1.0, above=0)
    pc_tol: float = checked(Real, 1e-6, above=0)
    pc_max_iter: int = checked(Integral, 10_000, low=1)
    improvement_tol: float = checked(Real, 1e-4, low=0)
    phase_cap: int = checked(Integral, 100, low=1)
    master_seed: int = checked(Integral, 1, low=0, high=2**64 - 1)

    def __post_init__(self):
        check_fields(self)
        rng = self.initial_power_range
        if rng is None:
            return
        if not (isinstance(rng, (list, tuple)) and len(rng) == 2
                and all(isinstance(v, Real) and not isinstance(v, bool)
                        for v in rng)
                and 0 < rng[0] <= rng[1] < math.inf):
            raise ConfigError("initial_power_range must be two numbers low, "
                              f"high with 0 < low <= high < inf, got {rng!r}")
        object.__setattr__(self, "initial_power_range",
                           (float(rng[0]), float(rng[1])))

    @property
    def bit_rate(self) -> float:
        """Link bit rate in bits/s (chip bandwidth divided by spreading gain)."""
        return self.chip_bandwidth / self.spreading_gain

    def power_init_range(self) -> tuple[float, float]:
        """Range for random power initialization, in watts."""
        if self.initial_power_range is not None:
            return self.initial_power_range
        return (0.1 * self.initial_power, 10.0 * self.initial_power)

    def replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if d["initial_power_range"] is not None:
            d["initial_power_range"] = list(d["initial_power_range"])
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        check_keys(data, cls, "scenario")
        return cls(**data)


def load_scenario(path) -> Scenario:
    """Read a scenario from a JSON file whose keys match the field names."""
    return Scenario.from_dict(read_json_object(path, "scenario file"))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as f:
        json.dump(scenario.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpreadingCodebook:
    """Per-node spreading sequences, shape (n, L), each row unit norm."""

    sequences: np.ndarray

    def __post_init__(self):
        # a copy: later edits must not reach the caches or the LMMSE memo
        self.__dict__["sequences"] = _readonly(np.array(self.sequences, float))

    @property
    def length(self) -> int:
        return self.sequences.shape[1]

    def check_nodes(self, n_nodes: int) -> None:
        """ConfigError unless the codebook holds one sequence per node."""
        if (rows := self.sequences.shape[0]) != n_nodes:
            raise ConfigError(f"codebook has {rows} rows for {n_nodes} nodes")

    @cached_property
    def span(self) -> np.ndarray:
        """U (r, n) of the thin QR factorization S' = Q U, r = min(n, L).

        Column i holds sequence i in the orthonormal basis Q of the
        sequences' span.
        """
        return _readonly(np.linalg.qr(self.sequences.T)[1])

    @cached_property
    def gram(self) -> np.ndarray:
        """G = S S' (n, n): entry (i, k) is the cross-correlation s_i' s_k."""
        return _readonly(self.sequences @ self.sequences.T)

    @cached_property
    def inverse_gram(self) -> np.ndarray | None:
        """G^-1, or None when cond(G) > ``GRAM_CONDITION_LIMIT`` or n > L."""
        eig = np.linalg.eigvalsh(self.gram)  # ascending
        if eig[0] * GRAM_CONDITION_LIMIT < eig[-1]:
            return None
        return _readonly(np.linalg.inv(self.gram))


def generate_topology(n_nodes: int, area_side: float, seed: int) -> np.ndarray:
    """Place ``n_nodes`` points i.i.d. uniformly on the square area: the
    read-only (n, 2) positions in meters."""
    if n_nodes < 2:
        raise ConfigError("n_nodes must be at least 2")
    rng = np.random.default_rng(seed)
    return _readonly(rng.uniform(0.0, area_side, size=(n_nodes, 2)))


def pair_gains(positions: np.ndarray, path_loss_exp: float) -> np.ndarray:
    """d(i, j)^-n of each ordered pair of positions (n, 2): 0 on the diagonal,
    NaN where two coincide. m nodes' gains are the leading m x m block."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    with np.errstate(divide="ignore"):
        gains = dist ** (-path_loss_exp)
    gains[dist == 0.0] = np.nan
    np.fill_diagonal(gains, 0.0)
    return gains


def leading_gains(gains: np.ndarray, n_nodes: int) -> np.ndarray:
    """Gains of the first ``n_nodes`` nodes of a ``pair_gains`` array, as a
    read-only contiguous block; CoincidentNodesError when two coincide."""
    block = np.ascontiguousarray(gains[:n_nodes, :n_nodes])
    if np.isnan(block).any():
        raise CoincidentNodesError("two nodes share a position")
    return _readonly(block)


def compute_link_gains(positions: np.ndarray,
                       path_loss_exp: float) -> np.ndarray:
    """Read-only (n, n) gains h(i, j) = d(i, j)^-n of the positions (n, 2),
    zero on the diagonal; CoincidentNodesError when two nodes coincide (the
    caller should redraw the topology)."""
    return leading_gains(pair_gains(positions, path_loss_exp), len(positions))


def generate_sessions(n_nodes: int, seed: int) -> tuple[tuple[int, int], ...]:
    """Draw one session per node toward a uniformly random other node: the
    (source, destination) pairs, session k from source k."""
    if n_nodes < 2:
        raise ConfigError("n_nodes must be at least 2")
    dest = np.random.default_rng(seed).integers(0, n_nodes - 1, size=n_nodes)
    sources = np.arange(n_nodes)
    dest += dest >= sources  # skip the source itself
    return tuple(zip(sources.tolist(), dest.tolist()))


def generate_spreading_codebook(n_nodes: int, length: int, seed: int) -> SpreadingCodebook:
    """Random binary chips +-1/sqrt(L), one independent sequence per node."""
    if length < 1:
        raise ConfigError("spreading sequence length must be at least 1")
    rng = np.random.default_rng(seed)
    chips = rng.integers(0, 2, size=(n_nodes, length)).astype(float) * 2.0 - 1.0
    return SpreadingCodebook(sequences=chips / np.sqrt(length))


@dataclass(frozen=True)
class Network:
    """A scenario together with its generated static state; ``topology``
    holds the node positions."""

    scenario: Scenario
    topology: np.ndarray
    gains: np.ndarray
    sessions: tuple[tuple[int, int], ...]
    codebook: SpreadingCodebook


def build_network(scenario: Scenario) -> Network:
    """Generate topology, gains, sessions and codebook from the master seed.

    Coincident nodes (a measure-zero event) trigger regeneration of the
    topology from the next derived seed.
    """
    for attempt in range(_MAX_ATTEMPTS):
        seed = derive_seed(scenario.master_seed, TOPOLOGY_STREAM, attempt)
        topology = generate_topology(scenario.n_nodes, scenario.area_side, seed)
        try:
            gains = compute_link_gains(topology, scenario.path_loss_exp)
        except CoincidentNodesError:
            continue
        break
    else:
        raise CoincidentNodesError(
            f"could not place {scenario.n_nodes} distinct nodes "
            f"in {_MAX_ATTEMPTS} attempts"
        )
    sessions = generate_sessions(
        scenario.n_nodes, derive_seed(scenario.master_seed, SESSION_STREAM)
    )
    codebook = generate_spreading_codebook(
        scenario.n_nodes,
        scenario.spreading_gain,
        derive_seed(scenario.master_seed, CODEBOOK_STREAM),
    )
    return Network(scenario, topology, gains, sessions, codebook)
