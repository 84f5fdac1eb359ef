"""Command-line front end for the experiment harness.

Subcommands: run, multistart, fairness, capacity, gain, emit-plots.
Exit codes: 0 success, 2 configuration error, 3 infeasible scenario.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _add_experiment_flags(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="JSON scenario file; keys match Scenario fields")
    parser.add_argument("--seed", dest="master_seed", type=int, metavar="U64",
                        help="override the master seed")
    parser.add_argument("--receiver", choices=("matched", "lmmse"))
    parser.add_argument("--nodes", dest="n_nodes", type=int, metavar="N")
    parser.add_argument("--spreading-gain", type=int, metavar="L")
    parser.add_argument("--out", dest="out_dir", default="out", metavar="DIR")


def _given(args, cls) -> dict:
    """The flags given whose dests name fields of the dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {name: value for name, value in vars(args).items()
            if name in names and value is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adhocnet",
        description="Energy-efficient power control and routing experiments "
                    "for CDMA ad hoc networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single joint optimization run")
    _add_experiment_flags(p_run)
    p_run.add_argument("--phase-budget", type=int, metavar="K",
                       help="record exactly K alternating phases")

    p_multi = sub.add_parser("multistart",
                             help="repeat the joint loop from random inits")
    _add_experiment_flags(p_multi)
    p_multi.add_argument("--trials", type=int, metavar="N")

    p_fair = sub.add_parser("fairness",
                            help="multi-start plus route-mixture balancing")
    _add_experiment_flags(p_fair)
    p_fair.add_argument("--trials", type=int, metavar="N")
    p_fair.add_argument("--threshold", dest="fairness_threshold", type=float,
                        metavar="THRESHOLD",
                        help="admission band above the best total power")

    p_cap = sub.add_parser("capacity",
                           help="Monte Carlo search for the largest feasible "
                                "network size")
    _add_experiment_flags(p_cap)
    p_cap.add_argument("--trials", type=int, metavar="N")
    p_cap.add_argument("--target", dest="feasibility_target", type=float,
                       metavar="TARGET", help="required feasibility rate")
    p_cap.add_argument("--n-min", type=int)
    p_cap.add_argument("--n-max", type=int)
    p_cap.add_argument("--n-step", type=int)

    p_gain = sub.add_parser("gain", help="normalized throughput gain")
    p_gain.add_argument("n_a", type=int)
    p_gain.add_argument("spreading_a", type=int)
    p_gain.add_argument("n_b", type=int)
    p_gain.add_argument("spreading_b", type=int)

    p_emit = sub.add_parser("emit-plots",
                            help="project artifacts onto plot-ready files")
    p_emit.add_argument("--out", dest="out_dir", default="out", metavar="DIR",
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
            for name in emit_plot_data(args.out_dir):
                print(name)
            return EXIT_OK

        scenario = load_scenario(args.config) if args.config else Scenario()
        config = ExperimentConfig(
            scenario=scenario.replace(**_given(args, Scenario)),
            kind=args.command, **_given(args, ExperimentConfig))
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
