"""Boundary spans around the public functions of the adhocnet layers.

The library imports functions by name (``from .routing import
assign_routes``), so wrapping ``routing.assign_routes`` alone would miss the
copy that ``crosslayer`` holds. ``patch_everywhere`` therefore replaces a
function object in every loaded ``adhocnet.*`` module that refers to it,
and the tracer and the output capture both go through it.

Spans are kept in memory as flat records (id, parent, trace id, name,
start, end, attributes) and reduced to per-layer metrics after the run.
Nothing under ``src/`` is touched on disk.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Boundary functions per layer module. Per-element helpers such as
# received_powers, power_targets or energy_per_bit_link are deliberately
# absent: they run hundreds of thousands of times per workload, and a span
# around each would measure the wrapper rather than the layer.
BOUNDARIES = {
    "netmodel": ("build_network", "generate_topology", "compute_link_gains",
                 "generate_sessions", "generate_spreading_codebook"),
    "phy": ("sir_matched", "lmmse_filter", "sir_lmmse", "lmmse_sir_matrix"),
    "powercontrol": ("pc_iterate", "pc_mud_iterate"),
    "routing": ("build_link_costs", "assign_routes", "initial_routes"),
    "crosslayer": ("network_energy_per_bit", "joint_optimize", "multi_start"),
    "fairness": ("select_candidates", "optimize_mixture",
                 "effective_node_powers"),
    "experiments": ("run_experiment", "capacity_search"),
}

PACKAGE = "adhocnet"


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def patch_everywhere(original, replacement) -> list:
    """Point every adhocnet module attribute that is ``original`` at
    ``replacement``; returns the (module, attribute) pairs patched."""
    patched = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr))
    return patched


@contextmanager
def interposed(original, replacement):
    """Patch ``original`` everywhere for the duration of the block."""
    patched = patch_everywhere(original, replacement)
    try:
        yield
    finally:
        for module, attr in patched:
            setattr(module, attr, original)


def boundary_functions() -> dict:
    """Qualified name ('routing.assign_routes') -> function currently bound
    in the defining module."""
    found = {}
    for layer, names in BOUNDARIES.items():
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name in names:
            found[f"{layer}.{name}"] = getattr(module, name)
    return found


def _observe(name, args, result) -> dict:
    """Counts read from a boundary call's result, kept on its span."""
    if name == "powercontrol.pc_iterate":
        return {"iterations": result.iterations,
                "converged": int(result.converged)}
    if name == "powercontrol.pc_mud_iterate":
        pc = result[0]
        return {"iterations": pc.iterations, "converged": int(pc.converged)}
    if name == "crosslayer.joint_optimize":
        kept = sum(1 for r in result.trace if r.phase == "power_control")
        return {"phases": len(result.trace), "pc_kept": kept}
    if name == "fairness.select_candidates":
        return {"candidates": len(result)}
    if name == "phy.lmmse_sir_matrix":
        # one covariance solve per receiver node
        return {"solves": int(args[0].shape[0])}
    return {}


class Tracer:
    """Records one span per boundary call while installed and enabled."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = 0
        self.enabled = True
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = len(tracer.spans)
            record = [span_id, stack[-1] if stack else None,
                      tracer.trace_id, name, 0.0, 0.0, None]
            tracer.spans.append(record)
            stack.append(span_id)
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = clock()
                record[6] = {"raised": 1}
                raise
            finally:
                stack.pop()
            record[5] = clock()
            record[6] = _observe(name, args, result)
            return result

        return span

    def install(self) -> None:
        for name, fn in boundary_functions().items():
            wrapper = self._wrap(name, fn)
            for module, attr in patch_everywhere(fn, wrapper):
                self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextmanager
    def paused(self):
        """Run output checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def layer_metrics(spans, counters: dict, overhead_frac: float) -> dict:
    """Per-layer metrics named as in BENCHMARK.json (values only).

    ``counters`` holds the counts the workloads read from call outputs;
    ``overhead_frac`` is the traced pass's time over the untraced one's - 1.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in BOUNDARIES}
    children: dict[tuple[str, str], int] = {}
    for s, t in zip(spans, own):
        name = s[3]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        layer_self[name.split(".")[0]] += t
        for key, value in (s[6] or {}).items():
            attrs[f"{name}:{key}"] = attrs.get(f"{name}:{key}", 0) + value
        if s[1] is not None:
            pair = (spans[s[1]][3], name)
            children[pair] = children.get(pair, 0) + 1

    def ratio(num, den):
        return num / den if den else 0.0

    init_calls = calls.get("routing.initial_routes", 0)
    probes = children.get(("routing.initial_routes", "powercontrol.pc_iterate"), 0)
    pc_runs = sum(children.get(("crosslayer.joint_optimize", f"powercontrol.{f}"), 0)
                  for f in ("pc_iterate", "pc_mud_iterate"))
    out = {
        "routing.assign_routes.calls": calls.get("routing.assign_routes", 0),
        "routing.assign_routes.self_s": self_s.get("routing.assign_routes", 0.0),
        "routing.initial_routes.calls": init_calls,
        "routing.initial_routes.self_s": self_s.get("routing.initial_routes", 0.0),
        "routing.initial_routes.probes_per_call": ratio(probes, init_calls),
        "routing.build_link_costs.self_s": self_s.get("routing.build_link_costs", 0.0),
        "routing.self_s": layer_self["routing"],
        "phy.lmmse_filter.calls": calls.get("phy.lmmse_filter", 0),
        "phy.lmmse_filter.self_s": self_s.get("phy.lmmse_filter", 0.0),
        "phy.lmmse_sir_matrix.calls": calls.get("phy.lmmse_sir_matrix", 0),
        "phy.lmmse_sir_matrix.self_s": self_s.get("phy.lmmse_sir_matrix", 0.0),
        "phy.sir_lmmse.calls": calls.get("phy.sir_lmmse", 0),
        "phy.sir_matched.calls": calls.get("phy.sir_matched", 0),
        "phy.lmmse_solves": calls.get("phy.lmmse_filter", 0)
        + attrs.get("phy.lmmse_sir_matrix:solves", 0),
        "phy.self_s": layer_self["phy"],
        "crosslayer.joint_optimize.calls": calls.get("crosslayer.joint_optimize", 0),
        "crosslayer.phases": attrs.get("crosslayer.joint_optimize:phases", 0),
        "crosslayer.pc_runs": pc_runs,
        "crosslayer.pc_accept_frac": ratio(
            attrs.get("crosslayer.joint_optimize:pc_kept", 0), pc_runs),
        "crosslayer.network_energy_per_bit.self_s":
            self_s.get("crosslayer.network_energy_per_bit", 0.0),
        "crosslayer.self_s": layer_self["crosslayer"],
        "netmodel.build_network.calls": calls.get("netmodel.build_network", 0),
        "netmodel.self_s": layer_self["netmodel"],
        "fairness.candidates": attrs.get("fairness.select_candidates:candidates", 0),
        "fairness.optimize_mixture.self_s": self_s.get("fairness.optimize_mixture", 0.0),
        "experiments.self_s": layer_self["experiments"],
        "experiments.artifact_bytes": counters.get("experiments.artifact_bytes", 0),
        "experiments.capacity_search.instances":
            counters.get("experiments.capacity_search.instances", 0),
        "trace.overhead_frac": overhead_frac,
    }
    for solver in ("pc_iterate", "pc_mud_iterate"):
        name = f"powercontrol.{solver}"
        n = calls.get(name, 0)
        out[f"{name}.calls"] = n
        out[f"{name}.iterations"] = attrs.get(f"{name}:iterations", 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.converged_frac"] = ratio(attrs.get(f"{name}:converged", 0), n)
    return out
