"""Self-tests of the benchmark: the tracer, the output checks and the
launcher's result line. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import pytest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import adhocnet as api  # noqa: E402
from tracer import (  # noqa: E402
    Tracer, boundary_functions, layer_metrics, self_times)
from workloads import (  # noqa: E402
    WORKLOADS, CapacityMatched, trace_problems)

# Cheap inputs: capacity seed 9 stops at the first size.
SEEDS = {"multistart_matched": 3, "joint_lmmse": 3, "capacity_matched": 9}


def _package_values():
    for name, module in list(sys.modules.items()):
        if name == "adhocnet" or name.startswith("adhocnet."):
            for attr, value in vars(module).items():
                yield name, attr, value


def _traced_run(name, scratch):
    workload = WORKLOADS[name]()
    tracer = Tracer()
    with tracer:
        items = workload.make_inputs(api, SEEDS[name], str(scratch))
        tracer.trace_id = 0
        with workload.capture(api):
            workload.call(api, items[0])
        workload.cleanup(items[0])
    return tracer.spans


def test_no_module_keeps_an_unwrapped_boundary_function():
    originals = boundary_functions()
    by_id = {id(fn): name for name, fn in originals.items()}
    holders = {(m, a) for m, a, v in _package_values() if id(v) in by_id}
    tracer = Tracer()
    with tracer:
        left = [(m, a, by_id[id(v)]) for m, a, v in _package_values()
                if id(v) in by_id]
        assert left == []
        for module, attr in holders:
            wrapped = getattr(sys.modules[module], attr).__wrapped__
            assert id(wrapped) in by_id
    assert boundary_functions() == originals
    assert {(m, a) for m, a, v in _package_values() if id(v) in by_id} == holders


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_nest_and_counts_repeat(name, tmp_path):
    first = _traced_run(name, tmp_path / "a")
    assert first
    for span in first:
        if span[1] is not None:
            parent = first[span[1]]
            assert parent[4] <= span[4] <= span[5] <= parent[5]
            assert parent[2] == span[2]
    assert min(self_times(first)) >= -1e-9
    second = _traced_run(name, tmp_path / "b")
    counts = {k: v for k, v in layer_metrics(first, {}, 0.0).items()
              if not k.endswith("self_s")}
    again = {k: v for k, v in layer_metrics(second, {}, 0.0).items()
             if not k.endswith("self_s")}
    assert counts == again
    assert [s[3] for s in first] == [s[3] for s in second]


def test_metric_names_match_the_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(layer_metrics([], {}, 0.0)) == {m["name"] for m in spec["per_layer"]}


def test_checks_flag_bad_outputs():
    rising = SimpleNamespace(trace=[SimpleNamespace(total_power=1.0),
                                    SimpleNamespace(total_power=1.0 + 1e-9)])
    assert trace_problems(rising)
    flat = SimpleNamespace(trace=[SimpleNamespace(total_power=1.0)] * 3)
    assert trace_problems(flat) == []
    capacity = CapacityMatched()
    assert capacity.target == 0.5
    good = api.CapacityResult(spreading_gain=128, n_star=45,
                              n_values=(40, 45, 50), rates=(1.0, 0.6, 0.4),
                              trials=10)
    assert capacity.check(api, None, good) == (0, [])
    assert capacity.units(None, good) == 10 + 10 + 6
    for bad in (good.__class__(128, 45, (40, 45, 50), (0.6, 1.0, 0.4), 10),
                good.__class__(128, 50, (40, 45, 50), (1.0, 0.6, 0.4), 10),
                good.__class__(128, 45, (40, 45), (1.0, 0.6), 10)):
        failed, problems = capacity.check(api, None, bad)
        assert failed > 0 and problems


def test_launcher_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "joint_lmmse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_launcher_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "joint_lmmse",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
