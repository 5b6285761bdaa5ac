"""The benchmark's workloads: closed loops with one caller.

desk_solve and full_solve make one ``solve`` call per operation, each on
a fresh user drop and channel draw; element_sweep makes one
``run_experiment`` call per operation, a small grid along n_elements on
the full preset with every scheme and a process pool. All inputs come
from the workload seed and the operation index.
"""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from irsopt import (ExperimentSpec, SolverOptions, desk_scenario, draw_channels,
                    full_scenario, run_experiment)
from irsopt import solver as solver_mod

from checks import check_rows, check_solve

# Every solve runs with at most OUTER_BUDGET outer iterations and default
# settings otherwise. Run to the default cap of 100, full-preset solves take
# 13 to 100 outer iterations (one in ten hits the cap) at a near-constant
# cost per iteration, so the number of slow draws a run happens to get
# would set its throughput. The budget keeps the work per solve nearly
# fixed; a change to convergence shows in wsr_nats_mean instead.
OUTER_BUDGET = 20
OPTIONS = SolverOptions(max_outer=OUTER_BUDGET)


def no_span(name):
    return nullcontext()


@dataclass
class OpResult:
    """What one operation did. ``wsr`` holds the final WSR of each
    ``proposed`` solve; ``digest`` the values hashed for the output digest."""

    op_s: float = 0.0
    scale: float = 1.0            # host-speed correction, set by the caller
    attempted: int = 0
    failed: int = 0
    cells: int = 0
    solves: int = 0
    busy_s: float = 0.0           # summed solve() time inside the operation
    solve_ms: list = field(default_factory=list)   # (phase count N, ms) per proposed solve
    wsr: list = field(default_factory=list)
    digest: list = field(default_factory=list)


def _report_failure(where: str, detail: str) -> None:
    print(f"FAILED {where}: {detail}", file=sys.stderr)


class SolveWorkload:
    """One solve per operation on the preset's geometry, with OPTIONS.
    Solves always run in this process; run_op takes ``workers`` only to
    share SweepWorkload's signature."""

    workers = 1

    def __init__(self, preset, seed: int, trace_ops: int):
        self.preset = preset
        self.seed = seed
        self.trace_ops = trace_ops

    def run_op(self, i: int, span=no_span, workers: int = workers) -> OpResult:
        res = OpResult(attempted=1)
        seq = np.random.SeedSequence([self.seed, i])
        user_seed, init_seed = (int(x) for x in seq.generate_state(2))
        t_op = time.perf_counter()
        try:
            with span("scenario"):
                scenario = self.preset(user_seed=user_seed, rng_seed=init_seed)
            with span("channels.draw"):
                channels = draw_channels(scenario, np.random.default_rng(seq.spawn(1)[0]))
            t_solve = time.perf_counter()
            with span("solver"):
                beams, phases, trace = solver_mod.solve(scenario, channels, OPTIONS)
            done = time.perf_counter()
        except Exception:  # a failed solve is counted, never fatal
            res.op_s = time.perf_counter() - t_op
            res.failed = 1
            _report_failure(f"solve {i}", traceback.format_exc())
            return res
        res.op_s = done - t_op
        res.busy_s = done - t_solve
        problems = check_solve(scenario, channels, beams, phases, trace)
        if problems:
            res.failed = 1
            _report_failure(f"solve {i}", "; ".join(problems))
            return res
        res.solves = res.cells = 1
        res.solve_ms.append((phases.size, 1e3 * res.busy_s))
        res.wsr.append(float(trace.wsr[-1]))
        res.digest.append(float(trace.wsr[-1]))
        return res


class SweepWorkload:
    """One ``run_experiment`` grid per operation: n_elements in
    SWEEP_VALUES (N = 120, 240, 480 phases), N_TRIALS realizations each,
    all three schemes."""

    workers = 2
    SWEEP_VALUES = (30, 60, 120)
    N_TRIALS = 2

    def __init__(self, seed: int, trace_ops: int):
        self.seed = seed
        self.trace_ops = trace_ops

    def run_op(self, i: int, span=no_span, workers: int = workers) -> OpResult:
        n_cells = len(self.SWEEP_VALUES) * self.N_TRIALS
        res = OpResult(attempted=n_cells)
        seq = np.random.SeedSequence([self.seed, i])
        user_seed, base_seed = (int(x) for x in seq.generate_state(2))
        t_op = time.perf_counter()
        try:
            spec = ExperimentSpec(full_scenario(user_seed=user_seed), "n_elements",
                                  self.SWEEP_VALUES, self.N_TRIALS,
                                  base_seed=base_seed, workers=workers,
                                  options=OPTIONS)
            rows = run_experiment(spec)
        except Exception:  # a failed grid fails all its cells
            res.op_s = time.perf_counter() - t_op
            res.failed = n_cells
            _report_failure(f"sweep {i}", traceback.format_exc())
            return res
        res.op_s = time.perf_counter() - t_op
        problems = check_rows(rows, self.SWEEP_VALUES, self.N_TRIALS)
        if problems:
            res.failed = n_cells
            _report_failure(f"sweep {i}", "; ".join(problems))
            return res
        res.cells = n_cells
        res.solves = len(rows)
        res.busy_s = 1e-3 * sum(r.time_ms for r in rows)
        for r in rows:
            res.digest.append((r.scheme, r.sweep_value, r.trial, r.wsr_nats))
            if r.scheme == "proposed":
                res.solve_ms.append((spec.scenario.n_irs * int(r.sweep_value), r.time_ms))
                res.wsr.append(r.wsr_nats)
        return res


def make_workload(name: str, seed: int):
    if name == "desk_solve":
        return SolveWorkload(desk_scenario, seed, trace_ops=240)
    if name == "full_solve":
        return SolveWorkload(full_scenario, seed, trace_ops=16)
    if name == "element_sweep":
        return SweepWorkload(seed, trace_ops=2)
    raise ValueError(f"unknown workload {name!r}")
