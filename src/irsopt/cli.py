"""Command-line interface: solve, sweep, validate.

`solve` runs the optimizer on one realization and emits a per-iteration
trace CSV; `sweep` runs a Monte-Carlo experiment over a power or
element-count axis; `validate` executes the randomized invariant suite.
Set IRSOPT_LOG=debug|info|warning for logging verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from .channels import draw_channels
from .errors import ConfigError
from .experiments import (SCHEMES, SWEEP_AXES, ExperimentSpec, run_experiment,
                          summarize)
from .scenario import ScenarioParams, desk_scenario, load_scenario, full_scenario
from .selfcheck import run_all
from .solver import solve

log = logging.getLogger(__name__)

# The *_ms columns are wall times: they differ between reruns of one solve,
# every other column is reproduced byte for byte.
TRACE_HEADER = ("iter,wsr_nats,wsr_bits,wmse_obj,lambda,inner_iters,time_ms,probes,"
                "inner_converged,line_search_failed,extrap_accepted,phase_grad0,wsr_delta,"
                "channel_ms,decoder_ms,beamformer_ms,assembly_ms,descent_ms")
LAYERS = ("channel_s", "decoder_s", "beamformer_s", "assembly_s", "descent_s")


def _configure_logging() -> None:
    level = os.environ.get("IRSOPT_LOG", "warning").strip().lower()
    numeric = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING}.get(level, logging.WARNING)
    logging.basicConfig(level=numeric, format="%(levelname)s %(name)s: %(message)s")


def _load_base_scenario(args) -> ScenarioParams:
    if args.config is not None:
        return load_scenario(args.config)
    if args.preset == "full":
        return full_scenario(user_seed=args.seed)
    return desk_scenario(user_seed=args.seed)


def _add_scenario_args(parser: argparse.ArgumentParser, seed_help: str) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="scenario config file (overrides --preset)")
    parser.add_argument("--preset", choices=("desk", "full"), default="desk",
                        help="bundled scenario preset (default: desk)")
    parser.add_argument("--seed", type=int, default=0, help=seed_help + " (default: 0)")


def _cmd_solve(args) -> int:
    scenario = _load_base_scenario(args)
    channels = draw_channels(scenario, np.random.default_rng([args.seed, 0]))
    beams, _, trace = solve(scenario, channels)
    lines = [TRACE_HEADER]
    for i in range(trace.n_outer):
        lines.append(",".join([
            str(i), repr(float(trace.wsr[i])),
            repr(float(trace.wsr[i]) / math.log(2.0)),
            repr(float(trace.wmse_obj[i])), repr(float(trace.lam[i])),
            str(int(trace.inner_iters[i])), f"{1e3 * trace.wall_time_s[i]:.3f}",
            str(int(trace.probes[i])), str(int(trace.inner_converged[i])),
            str(int(trace.line_search_failed[i])), str(int(trace.extrap_accepted[i])),
            repr(float(trace.phase_grad0[i])), repr(float(trace.wsr_delta[i])),
            *(f"{1e3 * getattr(trace, name)[i]:.3f}" for name in LAYERS)]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(f"# converged={trace.converged} outer={trace.n_outer} "
          f"wsr={trace.wsr[-1]:.6f} nats ({trace.wsr[-1] / math.log(2.0):.6f} bits) "
          f"power={beams.total_power:.6f} W", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_base_scenario(args)
    try:
        values = tuple(float(tok) for tok in args.values.split(","))
    except ValueError:
        raise ConfigError(f"--values must be a comma list of numbers, got {args.values!r}")
    schemes = tuple(tok.strip() for tok in args.schemes.split(","))
    spec = ExperimentSpec(scenario=scenario, sweep_name=args.axis,
                          sweep_values=values, n_trials=args.trials,
                          schemes=schemes, base_seed=args.seed,
                          out_path=args.out, workers=args.workers)
    rows = run_experiment(spec)
    for (scheme, value), (mean, std, n) in summarize(rows).items():
        print(f"{scheme:>14s} {args.axis}={value:<10g} "
              f"wsr = {mean:8.4f} +/- {std:.4f} nats  (n={n})")
    return 0


def _cmd_validate(args) -> int:
    results = run_all(args.seed)
    failures = 0
    for res in results:
        status = "ok" if res.ok else "FAIL"
        print(f"{status:>4s}: {res.name} ({res.detail})")
        failures += 0 if res.ok else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsopt",
        description="Weighted sum-rate optimization for a multi-IRS downlink")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimize one channel realization")
    _add_scenario_args(p_solve, "seed of the preset's user drop and of the channel draw; the "
                       "solve starts from the energy start, which draws nothing")
    p_solve.add_argument("--out", metavar="PATH", help="trace CSV path (default: stdout)")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over an axis")
    _add_scenario_args(p_sweep, "base seed of the preset's user drop, each cell's channel draw "
                       "and the random_phase baseline's phases")
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, default="p_max")
    p_sweep.add_argument("--values", default="0.1,0.5,1,2",
                         help="comma list of sweep values (default: 0.1,0.5,1,2)")
    p_sweep.add_argument("--trials", type=int, default=10,
                         help="Monte-Carlo trials per sweep point (default: 10)")
    p_sweep.add_argument("--schemes", default=",".join(SCHEMES),
                         help=f"comma list from {SCHEMES}")
    p_sweep.add_argument("--out", metavar="PATH", help="results CSV path")
    p_sweep.add_argument("--workers", type=int, default=1, metavar="N",
                         help="processes for the cells: the caller plus N-1 forked "
                         "processes; process r takes cells r, r+N, ... (default: 1)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the randomized invariant suite")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
