"""Command-line front end for the experiment harness.

Subcommands: run, multistart, fairness, capacity, gain, emit-plots.
Exit codes: 0 success, 2 configuration error, 3 infeasible scenario.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, MissingArtifactError
from .experiments import (
    ExperimentConfig,
    STATUS_OK,
    emit_plot_data,
    run_experiment,
    throughput_gain,
)
from .netmodel import Scenario, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_scenario_flags(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="JSON scenario file; keys match Scenario fields")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override the master seed")
    parser.add_argument("--receiver", choices=("matched", "lmmse"))
    parser.add_argument("--nodes", type=int, metavar="N")
    parser.add_argument("--spreading-gain", type=int, metavar="L")


def _build_scenario(args) -> Scenario:
    scenario = load_scenario(args.config) if args.config else Scenario()
    changes = {}
    if args.seed is not None:
        changes["master_seed"] = args.seed
    if args.receiver is not None:
        changes["receiver"] = args.receiver
    if args.nodes is not None:
        changes["n_nodes"] = args.nodes
    if getattr(args, "spreading_gain", None) is not None:
        changes["spreading_gain"] = args.spreading_gain
    return scenario.replace(**changes) if changes else scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adhocnet",
        description="Energy-efficient power control and routing experiments "
                    "for CDMA ad hoc networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single joint optimization run")
    _add_scenario_flags(p_run)
    p_run.add_argument("--out", default="out", metavar="DIR")
    p_run.add_argument("--phase-budget", type=int, metavar="K",
                       help="record exactly K alternating phases")

    p_multi = sub.add_parser("multistart",
                             help="repeat the joint loop from random inits")
    _add_scenario_flags(p_multi)
    p_multi.add_argument("--out", default="out", metavar="DIR")
    p_multi.add_argument("--trials", type=int, default=100, metavar="N")

    p_fair = sub.add_parser("fairness",
                            help="multi-start plus route-mixture balancing")
    _add_scenario_flags(p_fair)
    p_fair.add_argument("--out", default="out", metavar="DIR")
    p_fair.add_argument("--trials", type=int, default=100, metavar="N")
    p_fair.add_argument("--threshold", type=float, default=0.10,
                        help="admission band above the best total power")

    p_cap = sub.add_parser("capacity",
                           help="Monte Carlo search for the largest feasible "
                                "network size")
    _add_scenario_flags(p_cap)
    p_cap.add_argument("--out", default="out", metavar="DIR")
    p_cap.add_argument("--trials", type=int, default=100, metavar="N")
    p_cap.add_argument("--target", type=float, default=0.95,
                       help="required feasibility rate")
    p_cap.add_argument("--n-min", type=int, default=40)
    p_cap.add_argument("--n-max", type=int, default=65)
    p_cap.add_argument("--n-step", type=int, default=5)

    p_gain = sub.add_parser("gain", help="normalized throughput gain")
    p_gain.add_argument("n_a", type=int)
    p_gain.add_argument("spreading_a", type=int)
    p_gain.add_argument("n_b", type=int)
    p_gain.add_argument("spreading_b", type=int)

    p_emit = sub.add_parser("emit-plots",
                            help="project artifacts onto plot-ready files")
    p_emit.add_argument("--out", default="out", metavar="DIR",
                        help="artifact directory of a previous experiment")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gain":
            value = throughput_gain(args.n_a, args.spreading_a, args.n_b,
                                    args.spreading_b)
            print(f"{value:.6f}")
            return EXIT_OK

        if args.command == "emit-plots":
            emitted = emit_plot_data(args.out)
            for name in emitted:
                print(name)
            return EXIT_OK

        scenario = _build_scenario(args)
        if args.command == "run":
            config = ExperimentConfig(scenario=scenario, kind="run",
                                      out_dir=args.out,
                                      phase_budget=args.phase_budget)
        elif args.command == "multistart":
            config = ExperimentConfig(scenario=scenario, kind="multistart",
                                      out_dir=args.out, trials=args.trials)
        elif args.command == "fairness":
            config = ExperimentConfig(scenario=scenario, kind="fairness",
                                      out_dir=args.out, trials=args.trials,
                                      fairness_threshold=args.threshold)
        else:
            config = ExperimentConfig(
                scenario=scenario, kind="capacity", out_dir=args.out,
                trials=args.trials, feasibility_target=args.target,
                n_min=args.n_min, n_max=args.n_max, n_step=args.n_step,
            )
        result = run_experiment(config)
        print(f"status: {result.status}")
        for key, value in sorted(result.extras.items()):
            print(f"{key}: {value}")
        print(f"artifacts in {result.out_dir}: "
              + ", ".join(result.artifacts))
        return EXIT_OK if result.status == STATUS_OK else EXIT_INFEASIBLE
    except (ConfigError, MissingArtifactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
