"""Outer iterations and final WSR of uncapped solves, with and without
the extrapolation trial.

Runs ``--draws`` solves per preset with default ``SolverOptions``
(``max_outer`` 100), each on the draw perfbench would make for operation i
of workload seed ``--seed``: ``SeedSequence([seed, i])`` gives the user
drop and start seeds and, spawned once, the channel generator. Each draw
is solved twice in this process: as the solver stands, and as the plain
alternating loop, with ``solver.EXTRAP_START`` set to ``max_outer`` so that
no trial runs. For each preset it prints, per loop, the mean and largest
outer iteration count, the cap hits, the mean final WSR, the mean wall
time per solve (ms) and the wall time per outer iteration (µs, total time
over total outer iterations), then the paired WSR difference
(extrapolated minus plain): its mean, the standard error of that mean,
and every draw whose final WSR moved by more than 1e-3 relative. Wall
times are single-process perf_counter readings on whatever host runs it;
compare them only within one run.

Usage: python benchmarks/bench_outer.py [--presets desk,full] [--draws 200]
                                        [--seed 1]
"""

import argparse
import time
from unittest import mock

import numpy as np

from irsopt import SolverOptions, desk_scenario, draw_channels, full_scenario
from irsopt import solver

PRESETS = {"desk": desk_scenario, "full": full_scenario}
MOVED_REL = 1e-3


def perfbench_draw(preset, seed, i):
    """The scenario and channels of perfbench's operation i."""
    seq = np.random.SeedSequence([seed, i])
    user_seed, init_seed = (int(x) for x in seq.generate_state(2))
    scenario = preset(user_seed=user_seed, rng_seed=init_seed)
    return scenario, draw_channels(scenario, np.random.default_rng(seq.spawn(1)[0]))


def summary(name, outer, wsr, wall_s, max_outer):
    return (f"{name:>14s} {outer.mean():8.2f} {outer.max():6d} "
            f"{int(np.sum(outer >= max_outer)):6d} {wsr.mean():12.6f} "
            f"{1e3 * wall_s.mean():10.3f} {1e6 * wall_s.sum() / outer.sum():10.1f}")


def timed_solve(scenario, channels, opts):
    t0 = time.perf_counter()
    _, _, trace = solver.solve(scenario, channels, opts)
    return trace, time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", default="desk,full")
    parser.add_argument("--draws", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    opts = SolverOptions()

    for name in args.presets.split(","):
        preset = PRESETS[name]
        outer = {"extrapolated": [], "plain": []}
        wsr = {"extrapolated": [], "plain": []}
        wall = {"extrapolated": [], "plain": []}
        for i in range(args.draws):
            scenario, channels = perfbench_draw(preset, args.seed, i)
            trace, trace_s = timed_solve(scenario, channels, opts)
            with mock.patch.object(solver, "EXTRAP_START", opts.max_outer):
                plain, plain_s = timed_solve(scenario, channels, opts)
            for loop, t, s in (("extrapolated", trace, trace_s), ("plain", plain, plain_s)):
                outer[loop].append(t.n_outer)
                wsr[loop].append(t.wsr[-1])
                wall[loop].append(s)
        print(f"{name}: {args.draws} draws, seed {args.seed}, max_outer {opts.max_outer}")
        print(f"{'loop':>14s} {'outer':>8s} {'max':>6s} {'caps':>6s} {'wsr_nats':>12s} "
              f"{'ms_solve':>10s} {'us_outer':>10s}")
        for loop in outer:
            print(summary(loop, np.array(outer[loop]), np.array(wsr[loop]),
                          np.array(wall[loop]), opts.max_outer))
        diff = np.array(wsr["extrapolated"]) - np.array(wsr["plain"])
        sem = diff.std(ddof=1) / np.sqrt(diff.size) if diff.size > 1 else np.nan
        rel = diff / np.abs(np.array(wsr["plain"]))
        moved = np.flatnonzero(np.abs(rel) > MOVED_REL)
        print(f"paired wsr: mean {diff.mean():+.3e} nats, standard error {sem:.1e}, "
              f"{moved.size} draws moved by more than {MOVED_REL:g} relative")
        for i in moved:
            print(f"  draw {i}: {wsr['plain'][i]:.6f} -> {wsr['extrapolated'][i]:.6f} "
                  f"({rel[i]:+.2e})")


if __name__ == "__main__":
    main()
