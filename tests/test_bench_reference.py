"""The benchmark's reference batches (``bench/workloads.py`` against
``bench/reference.json``) pass their output checks, so a change that the
benchmark would call incorrect fails here first: the LMMSE kernel through
``joint_lmmse``, and matched verdicts and power totals through
``capacity_matched`` and ``multistart_matched``. Both files are only
read."""

import json
import os

import pytest

import adhocnet

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(BENCH_DIR)  # workloads imports tracer
        import workloads
    return workloads


def check_reference_batch(workload, seed, scratch):
    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        refs = json.load(f)[workload.name][str(seed)]
    items = workload.make_inputs(adhocnet, seed, scratch)
    assert len(refs) == workload.batch
    for item, ref in zip(items[:workload.batch], refs):
        with workload.capture(adhocnet):
            result = workload.call(adhocnet, item)
        assert workload.check(adhocnet, item, result) == (0, [])
        assert workload.compare(item, result, ref) == (0, [])
        workload.cleanup(item)


@pytest.mark.parametrize("seed", [11, 12])
def test_joint_lmmse_reference_batch_is_correct(workloads, seed, tmp_path):
    check_reference_batch(workloads.JointLmmse(), seed, str(tmp_path))


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("name", ["capacity_matched", "multistart_matched"])
def test_matched_reference_batch_is_correct(workloads, name, seed, tmp_path):
    check_reference_batch(workloads.WORKLOADS[name](), seed, str(tmp_path))
