"""The benchmark's reference batches (``bench/workloads.py`` against
``bench/reference.json``) pass their output checks, so a change that the
benchmark would call incorrect fails here first: the LMMSE kernel through
``joint_lmmse``, and matched verdicts and power totals through
``capacity_matched`` and ``multistart_matched``. Both files are only
read.

The same calls are hashed as the benchmark hashes its first batch, and the
six digests must equal ``bench_digests.json``, so a result that moves by a
bit fails even inside the references' tolerances. A change meant to alter
results records the values again from ``python3 bench/run.py --workload W
--seed S --seconds 1 --trace 1`` and says why in CHANGES.md. The batches'
operation counts (``count_operations``) must equal the file's ``counts``
too, so work that grows without moving a result fails; a change meant to
alter them records them again from ``count_operations`` and quotes them in
CHANGES.md. Digests and counts depend on the numpy, scipy and OpenBLAS
builds, which that file records: a value that differs on another build is
reported as an expected failure naming what differs, never skipped; on the
recorded build it fails.
"""

import ctypes
import glob
import inspect
import json
import os
import sys

import numpy as np
import pytest
import scipy

import adhocnet
from adhocnet import crosslayer, phy, powercontrol, routing

from helpers import count_factorizations

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.join(os.path.dirname(TESTS_DIR), "bench")

with open(os.path.join(TESTS_DIR, "bench_digests.json")) as f:
    RECORDED = json.load(f)


def blas_build() -> dict:
    """This process's builds in the form ``bench_digests.json`` records
    them: numpy, scipy, the OpenBLAS configuration each bundles, and the
    kernel core numpy's OpenBLAS picked for this CPU."""
    build = {"numpy": np.__version__, "scipy": scipy.__version__}
    for module in (np, scipy):
        try:
            config = module.show_config(mode="dicts")
            blas = config["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            blas = {}
        build[f"{module.__name__}_blas"] = blas.get("openblas configuration")
    build["openblas_core"] = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_",
                           None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            build["openblas_core"] = corename().decode()
    return build


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(BENCH_DIR)  # workloads imports tracer
        import workloads
    return workloads


def count_operations(monkeypatch):
    """From here on, count the operations ``bench_digests.json`` pins; the
    returned function reads the counts. LMMSE factorizations (``dpotrf``
    and ``dgetrf`` from an empty factor memo), ``lmmse_solve`` calls and
    the links they solve, policy solves (``dgesv``), ``csgraph.dijkstra``
    calls, ``initial_routes`` probes, matched ``_fixed_point`` rounds
    (``_affine_steps`` advances), matched and LMMSE ``_fixed_point``
    iterations, and ``_initial_skeleton`` merge rounds."""
    factored = count_factorizations(monkeypatch)
    counts = dict.fromkeys((
        "dgesv", "dijkstra", "probes", "matched_rounds", "lmmse_solves",
        "lmmse_links", "matched_iterations", "lmmse_iterations",
        "skeleton_rounds"), 0)

    def counting(key, function):
        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return counted

    steps = powercontrol._affine_steps
    monkeypatch.setattr(powercontrol, "dgesv",
                        counting("dgesv", powercontrol.dgesv))
    monkeypatch.setattr(routing.csgraph, "dijkstra",
                        counting("dijkstra", routing.csgraph.dijkstra))
    monkeypatch.setattr(routing, "pc_iterate",
                        counting("probes", routing.pc_iterate))
    monkeypatch.setattr(powercontrol, "_affine_steps",
                        lambda form: counting("matched_rounds", steps(form)))

    solve = phy.lmmse_solve

    def solved(p, gains, codebook, noise, i_idx, j_idx, *args, **kwargs):
        counts["lmmse_solves"] += 1
        counts["lmmse_links"] += len(i_idx)
        return solve(p, gains, codebook, noise, i_idx, j_idx, *args, **kwargs)

    for module in (phy, powercontrol, crosslayer):  # each holds the kernel
        monkeypatch.setattr(module, "lmmse_solve", solved)
    fixed_point = powercontrol._fixed_point

    def iterated(*args, leap=None, **kwargs):  # only LMMSE runs leap
        result = fixed_point(*args, leap=leap, **kwargs)
        counts["matched_iterations" if leap is None
               else "lmmse_iterations"] += result.iterations
        return result

    monkeypatch.setattr(powercontrol, "_fixed_point", iterated)
    # a merge round begins at this line; only the skeleton's own frame is
    # traced, and only while it runs
    skeleton = routing._initial_skeleton
    lines, first = inspect.getsourcelines(skeleton)
    (merge,) = [first + k for k, line in enumerate(lines)
                if line.strip() == "same = reach & reach.T"]

    def lines_of_skeleton(frame, event, arg):
        if event == "line" and frame.f_lineno == merge:
            counts["skeleton_rounds"] += 1
        return lines_of_skeleton

    def traced(*args):
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: lines_of_skeleton
                     if frame.f_code is skeleton.__code__ else None)
        try:
            return skeleton(*args)
        finally:
            sys.settrace(previous)

    monkeypatch.setattr(routing, "_initial_skeleton", traced)
    return lambda: {"factorizations": len(factored), **counts}


def check_reference_batch(workloads, name, seed, scratch, monkeypatch):
    workload = workloads.WORKLOADS[name]()
    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        refs = json.load(f)[name][str(seed)]
    items = workload.make_inputs(adhocnet, seed, scratch)
    assert len(refs) == workload.batch
    chunks = []
    counted = count_operations(monkeypatch)
    for item, ref in zip(items[:workload.batch], refs):
        with workload.capture(adhocnet):
            result = workload.call(adhocnet, item)
        assert workload.check(adhocnet, item, result) == (0, [])
        assert workload.compare(item, result, ref) == (0, [])
        chunks.append(workload.digest_bytes(item, result))
        workload.cleanup(item)
    counts = counted()
    got, want = workloads.digest(chunks), RECORDED["digests"][name][str(seed)]
    want_counts = RECORDED["counts"][name][str(seed)]
    build = blas_build()
    moved = {k: (v, build[k]) for k, v in RECORDED["build"].items()
             if build[k] != v}
    if (got != want or counts != want_counts) and moved:
        pytest.xfail(f"{name} seed {seed} digest {got} or counts {counts} "
                     f"differ on another build than the recorded one, "
                     f"(recorded, here): {moved}")
    assert got == want, f"{name} seed {seed}: digest {got} != {want}"
    assert counts == want_counts, f"{name} seed {seed}: operation counts"


@pytest.mark.parametrize("seed", [11, 12])
def test_joint_lmmse_reference_batch_is_correct(workloads, seed, tmp_path,
                                                monkeypatch):
    check_reference_batch(workloads, "joint_lmmse", seed, str(tmp_path),
                          monkeypatch)


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("name", ["capacity_matched", "multistart_matched"])
def test_matched_reference_batch_is_correct(workloads, name, seed, tmp_path,
                                            monkeypatch):
    check_reference_batch(workloads, name, seed, str(tmp_path), monkeypatch)
