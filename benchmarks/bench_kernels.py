"""Benchmark the phase-descent kernel: compiled vs numpy reference.

Runs the conjugate-gradient inner loop on random PSD phase quadratics
j_hat = F F^H, each given by its (K**2, size) factor F^H as the solver's
forms are, K users, and reports the wall time per iteration of each
kernel, plus its fitted scaling exponent. The compiled kernel is timed
when it loaded, the numpy reference always.

Time per iteration alone misreads a preconditioned descent, whose
iterations cost a little more and are far fewer. A second table runs each kernel on
block-scaled factored forms (``selfcheck.block_scaled_form``, shaped like
the solver's) from a random start to the solver's relative tolerance
``PHASE_REL_TOL``, as the solver does, and reports the iterations and the
milliseconds that takes.

Usage: python benchmarks/bench_kernels.py [--sizes 32,120,240,480]
                                          [--users 8] [--iters 30]
"""

import argparse
import time

import numpy as np

from irsopt import _kernels
from irsopt.phaseopt import QuadraticForm
from irsopt.selfcheck import block_scaled_form
from irsopt.solver import PHASE_REL_TOL, SolverOptions


def make_form(rng, size, n_users):
    shape = (n_users ** 2, size)
    factor_h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    return QuadraticForm(factor_h, z, 1, size), v0


def time_kernel(kernel, form, v0, iters, repeats=5):
    """Best seconds per iteration of the kernel on the form."""
    kernel(form, v0, 0.0, 0.0, 3)  # warm path
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, n_done, *_ = kernel(form, v0, 0.0, 0.0, iters)
        if n_done > 0:
            best = min(best, (time.perf_counter() - t0) / n_done)
    return best


def time_to_tolerance(kernel, form, v0, repeats=5):
    """Iterations and best seconds of one descent to PHASE_REL_TOL, with
    the solver's default absolute floor and iteration cap."""
    args = (form, v0, 1e-6 * np.sqrt(form.size), PHASE_REL_TOL, SolverOptions().max_inner)
    kernel(*args)  # warm path
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, n_done, *_ = kernel(*args)
        best = min(best, time.perf_counter() - t0)
    return n_done, best


def fit_exponent(sizes, times):
    x = np.log2(np.asarray(sizes, dtype=float))
    y = np.log2(np.asarray(times))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="32,120,240,480")
    parser.add_argument("--users", type=int, default=8)
    parser.add_argument("--iters", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]
    rng = np.random.default_rng(args.seed)

    kernels = {"numpy": _kernels.rmcg_core_numpy}
    if _kernels.JIT_ENABLED:
        kernels = {"compiled": _kernels.rmcg_core_compiled, **kernels}

    print(f"factor rank K^2 = {args.users ** 2}; us per iteration")
    print(f"{'size':>6s}" + "".join(f"{name:>16s}" for name in kernels))
    times = {name: [] for name in kernels}
    for size in sizes:
        form, v0 = make_form(rng, size, args.users)
        for name, kernel in kernels.items():
            times[name].append(time_kernel(kernel, form, v0, args.iters))
        print(f"{size:6d}" + "".join(f"{1e6 * t[-1]:16.2f}" for t in times.values()))
    print("scaling exponent: " + ", ".join(
        f"{name} {fit_exponent(sizes, t):.2f}" for name, t in times.items()))

    print(f"block-scaled factored forms, to rel_tol {PHASE_REL_TOL:g}: "
          "iterations and ms per descent")
    columns = [f"{what} {name}" for name in kernels for what in ("iters", "ms")]
    print(f"{'size':>6s}" + "".join(f"{c:>16s}" for c in columns))
    for size in sizes:
        form = block_scaled_form(rng, size, args.users ** 2)
        v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
        row = ""
        for kernel in kernels.values():
            n_done, t = time_to_tolerance(kernel, form, v0)
            row += f"{n_done:16d}{1e3 * t:16.3f}"
        print(f"{size:6d}" + row)


if __name__ == "__main__":
    main()
