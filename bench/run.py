"""adhocnet benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every measurement runs in a fresh
single-threaded interpreter (``worker.py``); this launcher uses the standard
library only. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
record the environment, the call count and the result digest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("multistart_matched", "joint_lmmse", "capacity_matched")
# set-up is sampled in this many extra fresh processes besides the measured one
SETUP_PROBES = 6
# Timings are reported in reference-host seconds: each measured time is
# scaled by PROBE_REF_S over the host probe's time measured right after it
# (see worker.HostProbe). PROBE_REF_S is about the probe's time on a 2-vCPU
# x86 virtual machine.
PROBE_REF_S = 0.008
TIMEOUT_S = 170

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def worker(mode: str, args, timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--t0", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "adhocnet", "__init__.py")):
        print("bench: no adhocnet sources under src/; run from a source "
              "checkout", file=sys.stderr)
        return 2

    try:
        if args.trace:
            out = worker("trace", args, TIMEOUT_S)
            values = out["per_layer"]
        else:
            # set-up samples before and after the measured run sample the
            # host across the whole run, not only its first seconds
            runs = [worker("setup", args, 60) for _ in range(SETUP_PROBES // 2)]
            out = worker("measure", args, TIMEOUT_S - 60)
            runs.append(out)
            runs += [worker("setup", args, 60)
                     for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            setups = [r["setup_s"] * PROBE_REF_S / r["setup_probe_s"]
                      for r in runs]
            durations = [d * PROBE_REF_S / p
                         for d, p in zip(out["durations"], out["probes"])]
            values = {
                "units_per_s": out["attempted"] / sum(durations),
                "call_s.p50": statistics.median(durations),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": out["peak_rss_mib"],
                "ok_rate": 1.0 - out["failed"] / out["attempted"],
            }
            out["raw"] = {
                "units_per_s": out["attempted"] / sum(out["durations"]),
                "call_s.p50": statistics.median(out["durations"]),
                "setup_s": statistics.median(r["setup_s"] for r in runs),
                "probe_s.p50": statistics.median(out["probes"]),
            }
        with open(SPEC) as f:
            spec = json.load(f)
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in sorted(values.items())}
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for problem in out["problems"]:
        print(f"bench: problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(f"calls {out['calls']} (call_s.p50 is the median over these), "
          f"units {out['attempted']}, reference calls checked "
          f"{min(out['reference_calls'], out['calls'])}")
    print(f"digest {args.workload} seed={args.seed} "
          f"first_calls={out['digest']['calls']} sha256={out['digest']['sha256']}")
    if "raw" in out:
        print("unscaled " + json.dumps(out["raw"]))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
