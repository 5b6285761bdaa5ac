"""Outer iterations and final WSR of solves from two starts, with and
without the extrapolation trial, on two builds of the descent kernel, or
on two source trees, paired draw by draw.

Runs ``--draws`` solves per preset with default ``SolverOptions`` apart
from ``--max-outer`` (default 100), each on the draw perfbench would make
for operation i of workload seed ``--seed``: ``SeedSequence([seed, i])``
gives the user drop and start seeds and, spawned once, the channel
generator. Each draw is solved twice in this process, the two variants
alternating which goes first from draw to draw:

- ``--compare starts`` (the default): from the random start, uniform
  random phases drawn from a generator seeded with the scenario's
  ``rng_seed`` plus matched-filter beamformers, passed as ``warm_start``,
  and from the energy start that ``solve`` takes by itself
  (``solver.energy_phases``);
- ``--compare loops``: from the energy start, as the plain alternating
  loop, with ``solver.EXTRAP_START`` set to ``max_outer`` so that no trial
  runs, and as the solver stands;
- ``--compare builds``: from the energy start, on the ``rmcg-*.so`` kernel
  build at ``--against PATH`` (for instance the parent commit's, from its
  kernel cache), loaded with ctypes, and on the build this process loaded
  (``_kernels.KERNEL_PATH``), by setting ``_kernels._run``. Only the
  descent kernel is swapped: the beamformer step (``beamformer_run``)
  runs on the loaded build in both. One process runs both, since a
  shared host's speed can drift more between processes than two builds
  differ;
- ``--compare trees``: from the energy start, on another source tree's
  ``irsopt``, imported from the directory ``--against PATH`` that holds
  its ``irsopt`` package (a tree's ``src``) under the module name
  ``irsopt_against``, and on the ``irsopt`` this process imported. Each
  tree solves its own copy of the draw's channels, a ``ChannelSet`` of
  its own built from the same three links.

For each preset it prints, per variant, the mean and largest outer
iteration count, the cap hits, the mean final WSR, the mean number of
served users (rate above 1e-3 nats), the mean wall time per solve (ms, the
start included), the wall time per outer iteration (µs, total time
over total outer iterations) and, from each solve's ``SolveTrace``, the
same per-outer-iteration mean (µs) of its five layers: ``channel_s``,
``decoder_s``, ``beamformer_s``, ``assembly_s`` and ``descent_s``,
printed as ``channel_us`` to ``descent_us``. Then the paired WSR
difference (second variant minus first): its mean, the standard error of
that mean, the number of draws that gain and that lose more than 1e-3
relative, and each losing draw with the users both variants serve.
With ``--compare builds`` and ``trees`` more lines follow: the number
of draws whose outer iteration count changed and the largest relative
WSR move; with ``trees`` alone, whether one SHA-256 per tree over every
draw's ``w``, ``v_hat`` and non-timing ``SolveTrace`` fields (every
field but the ``*_s`` times) is ``equal`` or ``differ``; then the paired
time ratio (loaded over against): its median over the draws, the ratio
of the total times, and the number of draws on which each side is
faster.
Last, a ``setup_ms`` line: the mean wall time (ms) of making one draw's
scenario and channels, the preset's ``ring_scenario`` call plus
``draw_channels``, as perfbench's operation makes them, so the split
between set-up and solve shows without perfbench. One untimed draw
per preset comes first, so the mean leaves out first-call costs.
Wall times are single-process perf_counter readings on whatever host
runs it; compare them only within one run.

Usage: python benchmarks/bench_outer.py [--compare starts|loops|builds|trees]
                                        [--against PATH]
                                        [--presets desk,full] [--draws 200]
                                        [--seed 1] [--max-outer 100]
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from irsopt import (PhaseConfig, SolverOptions, compute_rates, desk_scenario,
                    draw_channels, effective_channels, full_scenario, initialize)
from irsopt import _kernels, solver

PRESETS = {"desk": desk_scenario, "full": full_scenario}
MOVED_REL = 1e-3
SERVED_NATS = 1e-3
LAYERS = ("channel_s", "decoder_s", "beamformer_s", "assembly_s", "descent_s")
AGAINST_MODULE = "irsopt_against"


def perfbench_draw(preset, seed, i):
    """The scenario and channels of perfbench's operation i."""
    seq = np.random.SeedSequence([seed, i])
    user_seed, init_seed = (int(x) for x in seq.generate_state(2))
    scenario = preset(user_seed=user_seed, rng_seed=init_seed)
    return scenario, draw_channels(scenario, np.random.default_rng(seq.spawn(1)[0]))


def random_start(scenario, channels):
    """The start solve took before the energy start: phases drawn from
    the scenario's rng_seed, then matched-filter beamformers."""
    rng = np.random.default_rng(scenario.rng_seed)
    return initialize(scenario, channels,
                      PhaseConfig.random(channels.n_irs, channels.n_elements, rng))


def import_tree(src):
    """The ``irsopt`` package under the directory src, imported as
    AGAINST_MODULE, beside the ``irsopt`` this process imported."""
    init = Path(src) / "irsopt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        AGAINST_MODULE, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST_MODULE] = module
    spec.loader.exec_module(module)
    return module


def output_digest(digest, beams, phases, trace):
    """Feed a solve's w, v_hat and non-timing trace fields to digest."""
    values = [("w", beams.w), ("v_hat", phases.v_hat)]
    values += [(f.name, getattr(trace, f.name)) for f in dataclasses.fields(trace)
               if not f.name.endswith("_s")]
    for name, value in values:
        value = np.asarray(value)
        digest.update(f"{name} {value.dtype} {value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())


def same(channels):
    return channels


def variants(compare, opts, against=None):
    """(name, prepare, solve) triples: prepare maps a draw's channels to
    the ones the variant solves, untimed, and solve maps (scenario, those
    channels) to solve's (beams, phases, trace). against is the path of
    the other kernel build for ``builds`` and of the other tree's ``src``
    for ``trees``."""
    def energy(scenario, channels):
        return solver.solve(scenario, channels, opts)

    if compare == "trees":
        other = import_tree(against)
        other_opts = other.SolverOptions(max_outer=opts.max_outer)

        def other_channels(channels):
            return other.ChannelSet(channels.h_direct, channels.g_bs_irs,
                                    channels.h_irs_user)

        def on_other(scenario, channels):
            return other.solve(scenario, channels, other_opts)
        return (("against", other_channels, on_other), ("loaded", same, energy))

    if compare == "builds":
        def on_build(run):
            def solve_on(scenario, channels):
                _kernels._run = run
                return energy(scenario, channels)
            return solve_on
        return (("against", same, on_build(_kernels._open(against))),
                ("loaded", same, on_build(_kernels._run)))

    if compare == "starts":
        def from_random(scenario, channels):
            return solver.solve(scenario, channels, opts,
                                warm_start=random_start(scenario, channels))
        return (("random_start", same, from_random), ("energy_start", same, energy))

    def plain(scenario, channels):
        with mock.patch.object(solver, "EXTRAP_START", opts.max_outer):
            return solver.solve(scenario, channels, opts)
    return (("plain", same, plain), ("extrapolated", same, energy))


def served_users(scenario, channels, beams, phases):
    rates = compute_rates(effective_channels(channels, phases.v_hat), beams.w,
                          scenario.noise_power)
    return tuple(int(k) for k in np.flatnonzero(rates > SERVED_NATS))


def summary(name, outer, wsr, served, wall_s, layer_s, max_outer):
    per_outer = 1e6 / outer.sum()
    return (f"{name:>14s} {outer.mean():8.2f} {outer.max():6d} "
            f"{int(np.sum(outer >= max_outer)):6d} {wsr.mean():12.6f} "
            f"{served.mean():7.2f} {1e3 * wall_s.mean():10.3f} "
            f"{per_outer * wall_s.sum():10.1f}"
            + "".join(f" {per_outer * s:13.1f}" for s in layer_s))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", choices=("starts", "loops", "builds", "trees"),
                        default="starts")
    parser.add_argument("--against", help="the other kernel build, for --compare "
                        "builds, or the other tree's src, for --compare trees")
    parser.add_argument("--presets", default="desk,full")
    parser.add_argument("--draws", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-outer", type=int, default=SolverOptions().max_outer)
    args = parser.parse_args()
    paired = args.compare in ("builds", "trees")
    if paired != (args.against is not None):
        parser.error("--against goes with --compare builds or trees, and only with them")
    if args.compare == "builds" and not _kernels.JIT_ENABLED:
        parser.error("--compare builds needs the compiled kernel, which did not load")
    opts = SolverOptions(max_outer=args.max_outer)
    pair = variants(args.compare, opts, args.against)

    for name in args.presets.split(","):
        preset = PRESETS[name]
        outer, wsr, served, wall = ({v: [] for v, *_ in pair} for _ in range(4))
        layers = {v: np.zeros(len(LAYERS)) for v, *_ in pair}   # seconds, summed
        digests = {v: hashlib.sha256() for v, *_ in pair}
        perfbench_draw(preset, args.seed, 0)
        setup_s = 0.0
        for i in range(args.draws):
            t0 = time.perf_counter()
            scenario, channels = perfbench_draw(preset, args.seed, i)
            setup_s += time.perf_counter() - t0
            for variant, prepare, run in pair[::-1] if i % 2 else pair:
                own = prepare(channels)
                t0 = time.perf_counter()
                beams, phases, trace = run(scenario, own)
                wall[variant].append(time.perf_counter() - t0)
                outer[variant].append(trace.n_outer)
                wsr[variant].append(trace.wsr[-1])
                served[variant].append(served_users(scenario, channels, beams, phases))
                layers[variant] += [getattr(trace, layer).sum() for layer in LAYERS]
                output_digest(digests[variant], beams, phases, trace)
        print(f"{name}: {args.draws} draws, seed {args.seed}, max_outer {opts.max_outer}")
        print(f"{'variant':>14s} {'outer':>8s} {'max':>6s} {'caps':>6s} {'wsr_nats':>12s} "
              f"{'served':>7s} {'ms_solve':>10s} {'us_outer':>10s}"
              + "".join(f" {layer[:-2] + '_us':>13s}" for layer in LAYERS))
        for variant, *_ in pair:
            print(summary(variant, np.array(outer[variant]), np.array(wsr[variant]),
                          np.array([len(s) for s in served[variant]]),
                          np.array(wall[variant]), layers[variant], opts.max_outer))
        (base, *_), (new, *_) = pair
        diff = np.array(wsr[new]) - np.array(wsr[base])
        sem = diff.std(ddof=1) / np.sqrt(diff.size) if diff.size > 1 else np.nan
        rel = diff / np.abs(np.array(wsr[base]))
        lost = np.flatnonzero(rel < -MOVED_REL)
        print(f"paired wsr ({new} minus {base}): mean {diff.mean():+.3e} nats, "
              f"standard error {sem:.1e}; {int(np.sum(rel > MOVED_REL))} draws gain and "
              f"{lost.size} lose more than {MOVED_REL:g} relative")
        for i in lost:
            print(f"  draw {i}: {wsr[base][i]:.6f} -> {wsr[new][i]:.6f} ({rel[i]:+.2e}), "
                  f"served {list(served[base][i])} -> {list(served[new][i])}")
        if paired:
            changed = int(np.sum(np.array(outer[new]) != np.array(outer[base])))
            ratio = np.array(wall[new]) / np.array(wall[base])
            print(f"outer count changed on {changed} of {args.draws} draws; largest "
                  f"relative wsr move {np.max(np.abs(rel)):.2e}")
            if args.compare == "trees":
                equal = digests[new].digest() == digests[base].digest()
                print(f"sha256 of w, v_hat and the non-timing trace: "
                      f"{'equal' if equal else 'differ'}")
            print(f"time ratio ({new} over {base}): median {np.median(ratio):.4f}, "
                  f"total {np.sum(wall[new]) / np.sum(wall[base]):.4f}; {new} faster on "
                  f"{int(np.sum(ratio < 1.0))} draws, {base} on {int(np.sum(ratio > 1.0))}")
        print(f"setup_ms {1e3 * setup_s / args.draws:.3f} per draw "
              f"(ring_scenario plus draw_channels)")


if __name__ == "__main__":
    main()
