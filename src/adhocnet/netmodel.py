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
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoincidentNodesError, ConfigError
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

_INTEGER_FIELDS = ("n_nodes", "spreading_gain", "packet_bits", "pc_max_iter",
                   "phase_cap", "master_seed")
_REAL_FIELDS = ("area_side", "target_sir", "noise_power", "path_loss_exp",
                "initial_power", "chip_bandwidth", "power_cap", "pc_tol",
                "improvement_tol")


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
    master_seed : root of every random stream.
    """

    n_nodes: int = 55
    area_side: float = 200.0
    spreading_gain: int = 128
    target_sir: float = 12.5
    noise_power: float = 1e-13
    path_loss_exp: float = 2.0
    receiver: str = "matched"
    initial_power_mode: str = "equal"
    initial_power: float = 1e-6
    initial_power_range: tuple[float, float] | None = None
    packet_bits: int = 80
    chip_bandwidth: float = 1e6
    power_cap: float = 1.0
    pc_tol: float = 1e-6
    pc_max_iter: int = 10_000
    improvement_tol: float = 1e-4
    phase_cap: int = 100
    master_seed: int = 1

    def __post_init__(self):
        for names, kind, noun in ((_INTEGER_FIELDS, numbers.Integral,
                                   "an integer"),
                                  (_REAL_FIELDS, numbers.Real, "a number")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ConfigError(f"{name} must be {noun}, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.n_nodes < 2:
            raise ConfigError("n_nodes must be at least 2")
        if self.spreading_gain < 1:
            raise ConfigError("spreading_gain must be at least 1")
        if not self.target_sir > 0:
            raise ConfigError("target_sir must be positive")
        if not self.noise_power > 0:
            raise ConfigError("noise_power must be positive")
        if not self.area_side > 0:
            raise ConfigError("area_side must be positive")
        if not self.power_cap > 0:
            raise ConfigError("power_cap must be positive")
        if self.receiver not in RECEIVERS:
            raise ConfigError(f"receiver must be one of {RECEIVERS}")
        if self.initial_power_mode not in POWER_MODES:
            raise ConfigError(f"initial_power_mode must be one of {POWER_MODES}")
        if not self.initial_power > 0:
            raise ConfigError("initial_power must be positive")
        if self.initial_power_range is not None:
            rng = self.initial_power_range
            if not (isinstance(rng, (list, tuple)) and len(rng) == 2 and all(
                    isinstance(v, numbers.Real) and not isinstance(v, bool)
                    for v in rng)):
                raise ConfigError("initial_power_range must be a list of two "
                                  f"numbers, got {rng!r}")
            lo, hi = float(rng[0]), float(rng[1])
            object.__setattr__(self, "initial_power_range", (lo, hi))
            if not all(map(math.isfinite, (lo, hi))):
                raise ConfigError("initial_power_range must be finite, "
                                  f"got {self.initial_power_range!r}")
            if not (0 < lo <= hi):
                raise ConfigError("initial_power_range must satisfy 0 < low <= high")
        if self.packet_bits < 1:
            raise ConfigError("packet_bits must be at least 1")
        if not self.chip_bandwidth > 0:
            raise ConfigError("chip_bandwidth must be positive")
        if not self.path_loss_exp > 0:
            raise ConfigError("path_loss_exp must be positive")
        if not self.pc_tol > 0:
            raise ConfigError("pc_tol must be positive")
        if self.pc_max_iter < 1:
            raise ConfigError("pc_max_iter must be at least 1")
        if not self.improvement_tol >= 0:
            raise ConfigError("improvement_tol must be nonnegative")
        if self.phase_cap < 1:
            raise ConfigError("phase_cap must be at least 1")

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
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown scenario key: {key!r}")
        return cls(**data)


def load_scenario(path) -> Scenario:
    """Read a scenario from a JSON file whose keys match the field names."""
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("scenario file must hold a JSON object")
    return Scenario.from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as f:
        json.dump(scenario.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Topology:
    """Node positions, shape (n, 2), meters."""

    positions: np.ndarray
    area_side: float

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class LinkGainMatrix:
    """Pairwise path-loss gains h(i, j) = d(i, j)^-n; the diagonal is unused
    and stored as zero."""

    gains: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True)
class SessionSet:
    """One (source, destination) pair per node, destination chosen uniformly
    among the other nodes."""

    sessions: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.sessions)


@dataclass(frozen=True)
class SpreadingCodebook:
    """Per-node spreading sequences, shape (n, L), each row unit norm."""

    sequences: np.ndarray

    @property
    def length(self) -> int:
        return self.sequences.shape[1]

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


def generate_topology(n_nodes: int, area_side: float, seed: int) -> Topology:
    """Place ``n_nodes`` points i.i.d. uniformly on the square area."""
    if n_nodes < 2:
        raise ConfigError("n_nodes must be at least 2")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, area_side, size=(n_nodes, 2))
    return Topology(positions=_readonly(positions), area_side=float(area_side))


def compute_link_gains(topology: Topology, path_loss_exp: float) -> LinkGainMatrix:
    """Distance power-law gains for every ordered pair.

    Raises CoincidentNodesError when two nodes coincide (infinite gain); the
    caller should regenerate the topology with a new seed.
    """
    pos = topology.positions
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    off_diag = ~np.eye(topology.n_nodes, dtype=bool)
    if np.any(dist[off_diag] == 0.0):
        raise CoincidentNodesError("two nodes share a position")
    gains = np.zeros_like(dist)
    gains[off_diag] = dist[off_diag] ** (-path_loss_exp)
    return LinkGainMatrix(gains=_readonly(gains))


def generate_sessions(n_nodes: int, seed: int) -> SessionSet:
    """Draw one session per node toward a uniformly random other node."""
    if n_nodes < 2:
        raise ConfigError("n_nodes must be at least 2")
    rng = np.random.default_rng(seed)
    sessions = []
    for source in range(n_nodes):
        dest = int(rng.integers(0, n_nodes - 1))
        if dest >= source:
            dest += 1
        sessions.append((source, dest))
    return SessionSet(sessions=tuple(sessions))


def generate_spreading_codebook(n_nodes: int, length: int, seed: int) -> SpreadingCodebook:
    """Random binary chips +-1/sqrt(L), one independent sequence per node."""
    if length < 1:
        raise ConfigError("spreading sequence length must be at least 1")
    rng = np.random.default_rng(seed)
    chips = rng.integers(0, 2, size=(n_nodes, length)).astype(float) * 2.0 - 1.0
    sequences = chips / np.sqrt(length)
    return SpreadingCodebook(sequences=_readonly(sequences))


@dataclass(frozen=True)
class Network:
    """A scenario together with its generated static state."""

    scenario: Scenario
    topology: Topology
    gains: LinkGainMatrix
    sessions: SessionSet
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
