"""The benchmark's tracer (``bench/tracer.py``) wraps library functions by
name and reads their results; these checks keep a change to the library
from silently breaking it."""

import importlib.util
import os

import numpy as np
import pytest

import adhocnet
from adhocnet.netmodel import compute_link_gains, generate_spreading_codebook
from adhocnet.powercontrol import (
    ActiveLinkSet,
    PcResult,
    pc_iterate,
    pc_mud_iterate,
)
from helpers import topology_from_positions

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_name_resolves(tracer):
    found = tracer.boundary_functions()
    assert len(found) == sum(len(names)
                             for names in tracer.BOUNDARIES.values())
    for name, fn in found.items():
        layer, attr = name.split(".")
        assert getattr(getattr(adhocnet, layer), attr) is fn
        assert callable(fn)


def test_power_control_results_have_the_shape_the_tracer_reads(tracer):
    topo = topology_from_positions([[0.0, 0.0], [100.0, 0.0], [40.0, 70.0]])
    gains = compute_link_gains(topo, 2.0)
    book = generate_spreading_codebook(3, 8, seed=1)
    active = ActiveLinkSet(3, [(0, 1), (1, 2)])
    p0 = np.full(3, 1e-7)
    matched = pc_iterate(p0, active, gains, 128, 1e-13, 12.5)
    assert isinstance(matched, PcResult)
    counts = tracer._observe("powercontrol.pc_iterate", (), matched)
    assert counts == {"iterations": matched.iterations, "converged": 1}
    result = pc_mud_iterate(p0, active, gains, book, 1e-13, 12.5)
    assert isinstance(result[0], PcResult)
    counts = tracer._observe("powercontrol.pc_mud_iterate", (), result)
    assert counts == {"iterations": result[0].iterations, "converged": 1}
