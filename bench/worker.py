"""One benchmark process: set-up, then a timed or a traced run of a workload.

``run.py`` starts this script in a fresh interpreter for every measurement;
it prints one JSON object on its last line. Modes:

  setup    imports and input generation only (a set-up time sample)
  measure  untraced calls until ``--seconds`` have passed, each followed by
           a host-speed probe
  trace    the workload's fixed batch untraced, then again with spans
  record   rewrite reference.json from the reference seeds

BLAS threads are pinned to one before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = (11, 12)
OUT_DIR = os.path.join(ROOT, ".bench_out")
# host probing after each timed call, as a share of that call's time
PROBE_SHARE = 0.1
# host probing after set-up, in seconds
SETUP_PROBE_S = 0.1

sys.path.insert(0, os.path.join(ROOT, "src"))


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    src_lines += f.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
    }


class Tally:
    """Outcome of a sequence of calls."""

    def __init__(self):
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.chunks: list[bytes] = []
        self.counters: dict[str, int] = {}


def run_one(api, workload, item, tally, *, ref=None, quiet=contextlib.nullcontext,
            keep_digest=False):
    """Time one public call, then check its output outside the timed part.

    A call that raises, or whose output cannot even be checked, fails
    ``units_if_raised`` units."""
    units = workload.units_if_raised
    with workload.capture(api):
        start = time.perf_counter()
        try:
            result = workload.call(api, item)
        except Exception:
            result = None
            failed, problems = units, [traceback.format_exc()]
        tally.durations.append(time.perf_counter() - start)
        if result is not None:
            with quiet():
                try:
                    units = workload.units(item, result)
                    failed, problems = workload.check(api, item, result)
                    if ref is not None:
                        ref_failed, ref_problems = workload.compare(
                            item, result, ref)
                        failed = max(failed, ref_failed)
                        problems += ref_problems
                    for key, value in workload.counters(item, result).items():
                        tally.counters[key] = tally.counters.get(key, 0) + value
                    if keep_digest:
                        tally.chunks.append(workload.digest_bytes(item, result))
                except Exception:
                    failed, problems = units, [traceback.format_exc()]
    workload.cleanup(item)
    tally.attempted += units
    tally.failed += min(failed, units)
    tally.problems += problems


def references(workload_name: str, seed: int) -> list:
    with open(REFERENCE) as f:
        return json.load(f).get(workload_name, {}).get(str(seed), [])


def report(tally, refs, extra) -> dict:
    from workloads import digest

    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.failed == 0 and not tally.problems,
        "calls": len(tally.durations),
        "problems": tally.problems[:5],
        "digest": {"calls": len(tally.chunks),
                   "sha256": digest(tally.chunks)},
        "reference_calls": len(refs),
    }
    out.update(extra)
    return out


class HostProbe:
    """Fixed reference work timed right after every measurement.

    The host's speed drifts by up to 2x over minutes on shared machines, far
    more than the changes the benchmark must resolve. The probe is shaped
    like the library's hot loops (a dense Dijkstra, a power fixed point and
    LMMSE-sized solves) but shares no code with it, so a faster library
    leaves the probe unchanged while a slower host slows both.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        n, length = 55, 128
        pos = rng.uniform(0.0, 200.0, (n, 2))
        dist = np.sqrt(((pos[:, None] - pos[None]) ** 2).sum(-1)) + np.eye(n)
        self.np = np
        self.gains = dist ** -2.0 * (1.0 - np.eye(n))
        self.costs = np.where(rng.random((n, n)) < 0.2, rng.random((n, n)),
                              np.inf)
        self.seqs = rng.choice([-1.0, 1.0], (n, length)) / np.sqrt(length)
        self.powers = np.full(n, 1e-6)
        self.eye = np.eye(length)

    def _once(self):
        np = self.np
        n = self.powers.shape[0]
        for source in range(0, n, 5):
            dist = np.full(n, np.inf)
            dist[source] = 0.0
            done = np.zeros(n, dtype=bool)
            for _ in range(n):
                candidate = np.where(done, np.inf, dist)
                u = int(np.argmin(candidate))
                if not np.isfinite(candidate[u]):
                    break
                done[u] = True
                dist = np.minimum(dist, dist[u] + self.costs[u])
        p = self.powers.copy()
        for _ in range(150):
            s = self.gains.T @ p
            p = 0.5 * p + 1e-7 * s / (float(s.max()) + 1e-30)
        for j in range(3):
            weights = self.powers * self.gains[:, j]
            cov = (self.seqs.T * weights) @ self.seqs + 1e-13 * self.eye
            np.linalg.solve(cov, self.seqs[j])

    def seconds(self, budget: float) -> float:
        """Mean time of one probe repetition, repeating for ``budget`` s."""
        reps, start = 0, time.perf_counter()
        while True:
            self._once()
            reps += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                return elapsed / reps


def measure(api, workload, items, seed, seconds) -> dict:
    refs = references(workload.name, seed)
    tally = Tally()
    probe = HostProbe()
    probes = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        run_one(api, workload, items[k % len(items)], tally,
                ref=refs[k] if k < len(refs) else None,
                keep_digest=k < workload.batch)
        probes.append(probe.seconds(PROBE_SHARE * tally.durations[-1]))
        k += 1
        if time.perf_counter() >= deadline:
            break
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report(tally, refs, {
        "durations": tally.durations,
        "probes": probes,
        "peak_rss_mib": rss_kib / 1024.0,
    })


def trace(api, workload, seed, scratch) -> dict:
    from tracer import Tracer, layer_metrics

    refs = references(workload.name, seed)
    tracer = Tracer()
    with tracer:
        # input generation is traced too, so set-up work shows per layer
        tracer.trace_id = -1
        items = workload.make_inputs(api, seed, scratch)
    plain = Tally()
    traced = Tally()
    for k, item in enumerate(items[:workload.batch]):
        ref = refs[k] if k < len(refs) else None
        tracer.trace_id = k
        # each input runs untraced and traced back to back, in alternating
        # order, so host speed drift cancels out of the overhead ratio
        for tally in ((plain, traced) if k % 2 == 0 else (traced, plain)):
            if tally is plain:
                run_one(api, workload, item, plain, ref=ref)
                continue
            with tracer:
                run_one(api, workload, item, traced, ref=ref,
                        quiet=tracer.paused, keep_digest=True)
    metrics = layer_metrics(
        tracer.spans, traced.counters,
        sum(traced.durations) / sum(plain.durations) - 1.0)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{workload.name}-{seed}.json"), "w") as f:
        json.dump({"fields": ["id", "parent", "trace", "name", "start", "end",
                              "attrs"], "spans": tracer.spans}, f)
    traced.problems += plain.problems
    traced.failed += plain.failed
    traced.attempted += plain.attempted
    return report(traced, refs, {"per_layer": metrics,
                                 "spans": len(tracer.spans)})


def record(api, scratch) -> dict:
    from workloads import WORKLOADS

    table = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        table[name] = {}
        for seed in REFERENCE_SEEDS:
            items = workload.make_inputs(api, seed, scratch)
            rows = []
            for item in items[:workload.batch]:
                with workload.capture(api):
                    result = workload.call(api, item)
                    failed, problems = workload.check(api, item, result)
                    if failed or problems:
                        raise RuntimeError(f"{name} seed {seed}: {problems}")
                    rows.append(workload.summary(item, result))
                workload.cleanup(item)
            table[name][str(seed)] = rows
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return {"recorded": {k: list(v) for k, v in table.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace", "record"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t0", type=float, default=None,
                        help="perf_counter reading taken just before this "
                             "process was started")
    args = parser.parse_args()
    t0 = time.perf_counter() if args.t0 is None else args.t0

    warnings.simplefilter("ignore", RuntimeWarning)
    import adhocnet as api
    from workloads import WORKLOADS

    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    try:
        if args.mode == "record":
            out = record(api, scratch)
        elif args.mode == "trace":
            out = trace(api, WORKLOADS[args.workload](), args.seed, scratch)
            out["env"] = environment()
        else:
            workload = WORKLOADS[args.workload]()
            items = workload.make_inputs(api, args.seed, scratch)
            out = {"setup_s": time.perf_counter() - t0,
                   "setup_probe_s": HostProbe().seconds(SETUP_PROBE_S)}
            if args.mode == "measure":
                out.update(measure(api, workload, items, args.seed,
                                   args.seconds))
                out["env"] = environment()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
