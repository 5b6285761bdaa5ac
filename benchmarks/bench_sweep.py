"""Paired wall time and rows of sweeps on two source trees.

Replays ``--ops`` operations shaped like perfbench's ``element_sweep``:
each is one ``run_experiment`` call along n_elements 30, 60 and 120 on the
full preset, 2 trials, all three schemes, ``SolverOptions(max_outer=20)``
and ``--workers`` processes (default 2), with operation i's user drop and
base seed drawn from ``SeedSequence([seed, i])`` as perfbench draws them.
Each operation runs once on another source tree's ``irsopt``, imported
from the directory ``--against PATH`` that holds its ``irsopt`` package (a
tree's ``src``; by default the one this process imported) under the module
name ``irsopt_against``, as ``bench_outer.py --compare trees`` does, and
once on the ``irsopt`` this process imported. Both run in this process,
alternating which goes first from operation to operation, since a shared
host's speed can drift more between processes than two trees differ. One
untimed operation per tree comes first, so first-call costs are left out.

It prints the mean wall time per operation of each tree, each tree's
mean ``time_ms`` per scheme over its rows (so a change shows which
scheme's solves it moved; a batched baseline's ``time_ms`` is its share of
its batch), whether one SHA-256 per tree over every row's fields but
``time_ms`` is ``equal`` or ``differ`` (with both digests' first 16 hex
digits) and, where they differ, per scheme the number of rows whose
``outer_iters`` changed and the largest relative ``wsr_nats`` move between
the two trees' rows of one cell, as ``bench_outer.py --compare trees``
reports them per draw, and the paired time
ratio (loaded over against): its median over the operations, the ratio of
the total times, and the number of operations on which each side is
faster. Wall times are perf_counter readings on whatever host runs it;
compare them only within one run.

Usage: python benchmarks/bench_sweep.py [--against PATH] [--ops 20] [--seed 1]
                                        [--workers 2]
"""

import os

# One BLAS thread per process unless the caller says otherwise, as
# perfbench runs, so that sweep processes x BLAS threads fit the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import irsopt  # noqa: E402
from bench_outer import import_tree  # noqa: E402

SWEEP_VALUES = (30, 60, 120)
N_TRIALS = 2
MAX_OUTER = 20


def sweep_op(lib, seed, i, workers):
    """perfbench element_sweep's operation i, run on the package lib."""
    seq = np.random.SeedSequence([seed, i])
    user_seed, base_seed = (int(x) for x in seq.generate_state(2))
    spec = lib.ExperimentSpec(lib.full_scenario(user_seed=user_seed), "n_elements",
                              SWEEP_VALUES, N_TRIALS, base_seed=base_seed,
                              workers=workers,
                              options=lib.SolverOptions(max_outer=MAX_OUTER))
    return lib.run_experiment(spec)


def rows_digest(digest, rows):
    """Feed every field of rows but time_ms to digest."""
    for row in rows:
        fields = [repr(getattr(row, f.name)) for f in dataclasses.fields(row)
                  if f.name != "time_ms"]
        digest.update(",".join(fields).encode() + b"\n")


def row_moves(base, new):
    """{scheme: (rows, rows whose outer_iters changed, largest relative
    wsr_nats move)} between the rows of two trees, paired cell by cell."""
    moves = {}
    for a, b in zip(base, new, strict=True):
        if (a.scheme, a.sweep_value, a.trial) != (b.scheme, b.sweep_value, b.trial):
            raise RuntimeError("the two trees' rows are not of the same cells")
        n, changed, top = moves.get(a.scheme, (0, 0, 0.0))
        rel = abs(b.wsr_nats - a.wsr_nats) / max(abs(a.wsr_nats), 1e-300)
        moves[a.scheme] = (n + 1, changed + (a.outer_iters != b.outer_iters), max(top, rel))
    return moves


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default=str(Path(irsopt.__file__).parent.parent),
                        help="the other tree's src (default: this process's own)")
    parser.add_argument("--ops", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    trees = (("against", import_tree(args.against)), ("loaded", irsopt))

    wall = {name: [] for name, _ in trees}
    scheme_ms = {name: {} for name, _ in trees}
    digests = {name: hashlib.sha256() for name, _ in trees}
    all_rows = {name: [] for name, _ in trees}
    for _, lib in trees:
        sweep_op(lib, args.seed, 0, args.workers)
    for i in range(args.ops):
        for name, lib in trees[::-1] if i % 2 else trees:
            t0 = time.perf_counter()
            rows = sweep_op(lib, args.seed, i, args.workers)
            wall[name].append(time.perf_counter() - t0)
            rows_digest(digests[name], rows)
            all_rows[name] += rows
            for row in rows:
                scheme_ms[name].setdefault(row.scheme, []).append(row.time_ms)

    print(f"element_sweep: {args.ops} ops, seed {args.seed}, workers {args.workers}, "
          f"n_elements {SWEEP_VALUES}, {N_TRIALS} trials, max_outer {MAX_OUTER}")
    for name, _ in trees:
        print(f"{name:>8s} ms_op {1e3 * np.mean(wall[name]):10.3f}")
    for name, _ in trees:
        print(f"{name:>8s} time_ms" + "".join(f" {scheme} {np.mean(ms):.3f}"
                                          for scheme, ms in scheme_ms[name].items()))
    hexes = {name: d.hexdigest() for name, d in digests.items()}
    equal = hexes["against"] == hexes["loaded"]
    print(f"sha256 of the rows without time_ms: {'equal' if equal else 'differ'} "
          f"(against {hexes['against'][:16]}, loaded {hexes['loaded'][:16]})")
    if not equal:
        for scheme, (n, changed, top) in row_moves(all_rows["against"],
                                                   all_rows["loaded"]).items():
            print(f"  {scheme}: outer_iters changed on {changed} of {n} rows; "
                  f"largest relative wsr move {top:.2e}")
    ratio = np.array(wall["loaded"]) / np.array(wall["against"])
    print(f"time ratio (loaded over against): median {np.median(ratio):.4f}, "
          f"total {np.sum(wall['loaded']) / np.sum(wall['against']):.4f}; loaded faster "
          f"on {int(np.sum(ratio < 1.0))} ops, against on {int(np.sum(ratio > 1.0))}")


if __name__ == "__main__":
    main()
