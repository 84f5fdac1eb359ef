"""Exception types shared across the package, and the checks that turn bad
configuration input into a ConfigError naming the field at fault."""

import dataclasses
import json
import math
import numbers

import numpy as np


class AdhocnetError(Exception):
    """Base class for all package errors."""


class ConfigError(AdhocnetError, ValueError):
    """A configuration field or a public function's argument is invalid."""


class CoincidentNodesError(AdhocnetError):
    """Two nodes share a position, so a path-loss gain would be infinite.

    The caller is expected to regenerate the topology with a fresh seed.
    """


class UnreachableSessionError(AdhocnetError):
    """A session cannot be routed on the current link cost matrix."""

    def __init__(self, session, source, destination):
        self.session = session
        self.source = source
        self.destination = destination
        super().__init__(
            f"session {session} ({source} -> {destination}) is unreachable"
        )


class MissingArtifactError(AdhocnetError):
    """A required experiment artifact file is absent."""


def checked(kind, default=dataclasses.MISSING, *, low=None, above=None,
            high=None, choices=()):
    """A dataclass field whose rule check_fields applies: the value must be
    a ``kind`` (never a bool, and finite if a number) that is at least
    ``low``, above ``above``, at most ``high`` and one of ``choices`` where
    these are given. A field whose default is None also accepts None."""
    return dataclasses.field(default=default, metadata={
        "kind": kind, "low": low, "above": above, "high": high,
        "choices": choices})


_NOUNS = {numbers.Integral: "an integer", numbers.Real: "a number",
          str: "a string"}


def check_value(name: str, value, kind, low=None, above=None, high=None,
                choices=()) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` meets the rule
    that ``checked`` describes."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = _NOUNS.get(kind, f"a {kind.__name__}")
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if isinstance(value, numbers.Real) and not math.isfinite(value):
        problem = "finite"
    elif low is not None and not value >= low:
        problem = f"at least {low}"
    elif above is not None and not value > above:
        problem = f"above {above}"
    elif high is not None and not value <= high:
        problem = f"at most {high}"
    elif choices and value not in choices:
        problem = f"one of {choices}"
    else:
        return
    raise ConfigError(f"{name} must be {problem}, got {value!r}")


def check_powers(name: str, p, n_nodes: int) -> np.ndarray:
    """``p`` as a float array; ConfigError naming ``name`` unless it holds
    one finite, nonnegative power per node."""
    p = np.asarray(p, dtype=float)
    if p.shape != (n_nodes,) or not (np.isfinite(p) & (p >= 0)).all():
        raise ConfigError(f"{name} needs {n_nodes} finite, nonnegative powers")
    return p


def check_gains(gains, n_nodes: int) -> None:
    """ConfigError naming ``gains`` unless they are a finite, nonnegative
    (n_nodes, n_nodes) array."""
    g = np.asarray(gains, dtype=float)
    if g.shape != (n_nodes, n_nodes) or not (np.isfinite(g) & (g >= 0)).all():
        raise ConfigError(f"gains must be a finite, nonnegative {n_nodes} x "
                          f"{n_nodes} array")


def check_links(what: str, links, n_nodes: int) -> tuple:
    """The int64 senders and receivers of ``links``, node pairs or an (m, 2)
    array. ConfigError names the first bad pair in sorted order, as ``what``,
    unless each joins two distinct nodes in 0..n_nodes-1 of an integer type
    (1.5, and also 1.0, is not a node)."""
    links = links if isinstance(links, np.ndarray) else list(links)
    pairs = np.asarray(links).reshape(len(links), 2)
    if pairs.dtype.kind in "iu" or not pairs.size:
        i, j = pairs.astype(np.int64, copy=False).T
        if not ((i == j) | (np.minimum(i, j) < 0)
                | (np.maximum(i, j) >= n_nodes)).any():
            return i, j
    # only the pairs themselves tell an integer node from 1.0 in a float array
    i, j = min(pair for pair in map(tuple, links) if not (
        all(isinstance(v, numbers.Integral) for v in pair)
        and pair[0] != pair[1] and 0 <= min(pair) and max(pair) < n_nodes))
    raise ConfigError(f"{what} ({i}, {j}) needs two distinct integer nodes "
                      f"in 0..{n_nodes - 1}")


def check_fields(config) -> None:
    """Apply ``check_value`` to every field of the dataclass ``config`` made
    by ``checked``, so the first that breaks its rule is named."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if "kind" in f.metadata and not (value is None and f.default is None):
            check_value(f.name, value, **f.metadata)


def check_keys(data, cls, what: str) -> None:
    """Raise ConfigError unless ``data`` is a dict that names every field of
    the dataclass ``cls`` without a default and no key that is not a field;
    ``what`` names the object in the message."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {data!r}")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown {what} key: {key!r}")
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in data:
            raise ConfigError(f"{what} lacks the field {f.name!r}")


def read_json_object(path, what: str) -> dict:
    """Parse the JSON object in the file at ``path``. A file that cannot be
    read, is not JSON or holds something else raises ConfigError naming
    ``what`` the file should hold."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must hold a JSON object: {path}")
    return data
