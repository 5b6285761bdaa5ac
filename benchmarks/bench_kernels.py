"""Benchmark the phase-descent kernel (compiled vs numpy reference) and
the assembly of its quadratic.

The first table runs each kernel on Khatri-Rao forms shaped like the
solver's: F^H the product of two (K, size) operands, with K = --users
(rank K^2), and columns and z scaled by blocks like surfaces at different
distances (``selfcheck.khatri_rao_form``). Each call descends from a
random start to the solver's relative tolerance ``PHASE_REL_TOL``, with
the solver's absolute floor and iteration cap, as the solver calls it.
The table gives the iterations and the median microseconds per call.
Both kernels take their products from the form's two operands and keep
nothing on the form between calls, so each timed call pays its own
once-per-call work: the compiled kernel's planar copy of the operands
and both kernels' diagonal of Q. Time per iteration is not reported: it
reads a kernel that does fewer, dearer iterations as slower.

The second table times ``phaseopt.assemble_quadratic`` on one draw of the
full preset at 240 and 480 phase elements (60 and 120 per surface), at
seeded random phases with matched-filter beamformers and their MMSE
decoders and weights: median
microseconds per call, and minor page faults per call (``ru_minflt``,
counted over the timed calls, after a warm-up call).

Usage: python benchmarks/bench_kernels.py [--sizes 32,120,240,480]
                                          [--users 8] [--repeats 7]
"""

import argparse
import resource
import statistics
import time

import numpy as np

from irsopt import (PhaseConfig, _kernels, assemble_quadratic, compute_mse, draw_channels,
                    effective_channels, full_scenario, initialize)
from irsopt.selfcheck import khatri_rao_form
from irsopt.solver import MAX_INNER, PHASE_REL_TOL
from irsopt.wmmse import update_decoders, update_weights

ASSEMBLY_ELEMENTS = (60, 120)   # full preset, 4 surfaces: N = 240 and 480


def time_call(fn, args, repeats):
    """fn(*args) once to warm up, then its median seconds and its minor
    page faults per call over repeats calls, with the last call's result."""
    out = fn(*args)
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return statistics.median(times), faults / repeats, out


def assembly_args(n_elements, seed):
    scenario = full_scenario(n_elements=n_elements)
    channels = draw_channels(scenario, np.random.default_rng(seed))
    phases = PhaseConfig.random(scenario.n_irs, n_elements, np.random.default_rng(seed + 1))
    beams, phases = initialize(scenario, channels, phases)
    hbar = effective_channels(channels, phases)
    u = update_decoders(hbar, beams, scenario.noise_power)
    q = update_weights(compute_mse(hbar, beams, u, scenario.noise_power))
    return channels, beams, u, q, scenario.weights, scenario.noise_power


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="32,120,240,480")
    parser.add_argument("--users", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]
    rng = np.random.default_rng(args.seed)

    kernels = {"numpy": _kernels.rmcg_core_numpy}
    if _kernels.JIT_ENABLED:
        kernels = {"compiled": _kernels.rmcg_core_compiled, **kernels}

    print(f"Khatri-Rao forms, two K = {args.users} operands, to rel_tol "
          f"{PHASE_REL_TOL:g}: iterations and us per call")
    columns = [f"{what} {name}" for name in kernels for what in ("iters", "us")]
    print(f"{'size':>6s}" + "".join(f"{c:>16s}" for c in columns))
    for size in sizes:
        form = khatri_rao_form(rng, size, args.users, args.users)
        v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
        call = (form, v0, 1e-6 * np.sqrt(size), PHASE_REL_TOL, MAX_INNER)
        row = ""
        for kernel in kernels.values():
            t, _, (_, n_done, *_) = time_call(kernel, call, args.repeats)
            row += f"{n_done:16d}{1e6 * t:16.1f}"
        print(f"{size:6d}" + row)

    print("assemble_quadratic, one full draw: us and minor faults per call")
    print(f"{'size':>6s}{'us':>16s}{'faults':>16s}")
    for n_elements in ASSEMBLY_ELEMENTS:
        call = assembly_args(n_elements, args.seed)
        t, faults, form = time_call(assemble_quadratic, call, args.repeats)
        print(f"{form.size:6d}{1e6 * t:16.1f}{faults:16.1f}")


if __name__ == "__main__":
    main()
