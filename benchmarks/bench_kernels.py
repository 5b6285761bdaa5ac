"""Benchmark the phase-descent kernel: factored operator vs dense matrix.

Runs the conjugate-gradient inner loop on random PSD phase quadratics
j_hat = F F^H with a (size, K**2) factor, K users, and reports the wall
time per iteration with the kernel applying the factor matrix-free (what
``rmcg_solve`` does for an assembled form) next to the same kernel on the
dense (size, size) matrix, plus the fitted scaling exponent of each.

Usage: python benchmarks/bench_kernels.py [--sizes 32,120,240,480]
                                          [--users 8] [--iters 30]
"""

import argparse
import time

import numpy as np

from irsopt import _kernels
from irsopt.phaseopt import QuadraticForm


def make_forms(rng, size, n_users):
    shape = (size, n_users ** 2)
    factor = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    factored = QuadraticForm(None, z, 0.0, 0.0, 1, size, factor=factor)
    dense = QuadraticForm(factored.j_hat, z, 0.0, 0.0, 1, size)
    v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    return factored, dense, v0


def time_kernel(form, v0, iters, repeats=5):
    """Best seconds per iteration of rmcg_core on the form's operator."""
    q_op, step0 = form.operator(), 0.5 / form.shifted_trace()
    _kernels.rmcg_core(q_op, form.z, v0, 0.0, 3, step0, 0.5, 1e-4, 40)  # warm path
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, n_done, *_ = _kernels.rmcg_core(q_op, form.z, v0, 0.0, iters, step0,
                                           0.5, 1e-4, 40)
        if n_done > 0:
            best = min(best, (time.perf_counter() - t0) / n_done)
    return best


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

    print(f"factor rank K^2 = {args.users ** 2}")
    print(f"{'size':>6s} {'factored us/iter':>17s} {'dense us/iter':>14s} {'dense/factored':>15s}")
    t_fac, t_dense = [], []
    for size in sizes:
        factored, dense, v0 = make_forms(rng, size, args.users)
        tf = time_kernel(factored, v0, args.iters)
        td = time_kernel(dense, v0, args.iters)
        t_fac.append(tf)
        t_dense.append(td)
        print(f"{size:6d} {1e6 * tf:17.2f} {1e6 * td:14.2f} {td / tf:14.2f}x")
    print(f"scaling exponent: factored {fit_exponent(sizes, t_fac):.2f}, "
          f"dense {fit_exponent(sizes, t_dense):.2f}")


if __name__ == "__main__":
    main()
