"""Monte-Carlo experiment harness: baselines, sweeps, CSV emission.

Channel realizations are seeded per (sweep point, trial) so every scheme
sees the same fading in a given cell and a rerun reproduces the CSV
byte-for-byte apart from the timing column. Trials are independent work
items; with workers > 1 they run in a process pool and the rows are
sorted into a deterministic order before writing.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channels import ChannelSet, draw_channels, strip_irs
from .scenario import ScenarioParams, check_count
from .solver import SolverOptions, SolveTrace, solve

log = logging.getLogger(__name__)

SCHEMES = ("proposed", "random_phase", "no_irs")
SWEEP_AXES = ("p_max", "n_elements")
CSV_FIELDS = ("scheme", "sweep_name", "sweep_value", "trial", "seed",
              "wsr_nats", "wsr_bits", "outer_iters", "time_ms", "inner_unconverged")


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: scenario template, axis, values, trials, schemes."""

    scenario: ScenarioParams
    sweep_name: str
    sweep_values: tuple
    n_trials: int
    schemes: tuple = SCHEMES
    base_seed: int = 0
    out_path: str | Path | None = None
    workers: int = 1
    options: SolverOptions = SolverOptions()

    def __post_init__(self):
        if self.sweep_name not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
        values = tuple(self.sweep_values)
        if not values or any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be non-empty and strictly increasing")
        # scenario_at takes int(value) elements, so a fractional value would
        # solve one count and record another
        if self.sweep_name == "n_elements" and not all(float(v).is_integer() for v in values):
            raise ValueError(f"n_elements sweep values must be whole numbers, got {values}")
        # every point's scenario is built once here, so that an out-of-range
        # value raises before run_experiment opens (and empties) out_path
        for value in values:
            scenario_at(self.scenario, self.sweep_name, value)
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise ValueError(f"unknown schemes: {unknown}")
        # checked here, not when run_experiment first uses them, so that a
        # bad count or seed cannot empty an existing out_path either
        check_count("n_trials", self.n_trials)
        check_count("workers", self.workers)
        check_count("base_seed", self.base_seed, minimum=0)
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "schemes", tuple(self.schemes))


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    sweep_name: str
    sweep_value: float
    trial: int
    seed: int
    wsr_nats: float
    wsr_bits: float
    outer_iters: int
    time_ms: float
    inner_unconverged: int   # phase descents of the solve that stopped unconverged


def scenario_at(base: ScenarioParams, sweep_name: str, value) -> ScenarioParams:
    if sweep_name == "p_max":
        return base.replace(p_max=float(value))
    if sweep_name == "n_elements":
        return base.replace(n_elements=int(value))
    raise ValueError(f"unknown sweep axis {sweep_name!r}")


def _trial_seed(base_seed: int, sweep_idx: int, trial: int) -> int:
    """Stable scalar seed recorded in the CSV for one (sweep, trial) cell."""
    seq = np.random.SeedSequence([base_seed, sweep_idx, trial])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _cell_rngs(base_seed: int, sweep_idx: int, trial: int):
    channel_rng = np.random.default_rng([base_seed, sweep_idx, trial, 0])
    init_seed = [base_seed, sweep_idx, trial, 1]
    return channel_rng, init_seed


def run_scheme(scheme: str, scenario: ScenarioParams, channels: ChannelSet,
               opts: SolverOptions, rng: np.random.Generator) -> SolveTrace:
    """Solve one scheme on a fixed realization; returns its trace.

    no_irs drops every reflected path and freezes the (empty) phases;
    random_phase keeps the reflected paths but freezes the uniform random
    phases that ``solve`` draws from ``rng`` when the phases are frozen,
    so both baselines are plain alternating beamforming runs. proposed
    starts from the energy start, which does not read ``rng``.
    """
    if scheme == "proposed":
        pass
    elif scheme == "no_irs":
        channels = strip_irs(channels)
        opts = replace(opts, optimize_phases=False)
    elif scheme == "random_phase":
        opts = replace(opts, optimize_phases=False)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    _, _, trace = solve(scenario, channels, opts, rng=rng)
    return trace


def run_baseline(scheme: str, scenario: ScenarioParams, channels: ChannelSet,
                 opts: SolverOptions | None = None,
                 rng: np.random.Generator | None = None) -> float:
    """Weighted sum rate of one benchmark scheme on a fixed realization."""
    if scheme not in ("random_phase", "no_irs"):
        raise ValueError(f"unknown baseline scheme {scheme!r}")
    if rng is None:
        rng = np.random.default_rng(scenario.rng_seed)
    trace = run_scheme(scheme, scenario, channels, opts or SolverOptions(), rng)
    return float(trace.wsr[-1])


def _run_cell(args) -> list[ResultRow]:
    """Worker: all schemes for one (sweep point, trial)."""
    base, sweep_name, value, sweep_idx, trial, schemes, base_seed, opts = args
    scenario = scenario_at(base, sweep_name, value)
    channel_rng, init_seed = _cell_rngs(base_seed, sweep_idx, trial)
    channels = draw_channels(scenario, channel_rng)
    seed = _trial_seed(base_seed, sweep_idx, trial)
    rows = []
    for scheme in schemes:
        t0 = time.perf_counter()
        trace = run_scheme(scheme, scenario, channels, opts,
                           np.random.default_rng(init_seed))
        elapsed_ms = 1e3 * (time.perf_counter() - t0)
        wsr = float(trace.wsr[-1])
        rows.append(ResultRow(scheme, sweep_name, float(value), trial, seed,
                              wsr, wsr / math.log(2.0), trace.n_outer, elapsed_ms,
                              int(np.count_nonzero(~trace.inner_converged))))
    return rows


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Execute the sweep, optionally writing the CSV, and return all rows.

    The output file is opened before any computation so an unwritable path
    fails fast.
    """
    handle = None
    if spec.out_path is not None:
        handle = open(spec.out_path, "w", newline="")
    try:
        jobs = [(spec.scenario, spec.sweep_name, value, sweep_idx, trial,
                 spec.schemes, spec.base_seed, spec.options)
                for sweep_idx, value in enumerate(spec.sweep_values)
                for trial in range(spec.n_trials)]
        if spec.workers > 1:
            with ProcessPoolExecutor(max_workers=spec.workers) as pool:
                chunks = list(pool.map(_run_cell, jobs))
        else:
            chunks = [_run_cell(job) for job in jobs]
        rows = [row for chunk in chunks for row in chunk]
        order = {s: i for i, s in enumerate(spec.schemes)}
        rows.sort(key=lambda r: (order[r.scheme], r.sweep_value, r.trial))
        if handle is not None:
            write_rows(handle, rows)
            log.info("wrote %d rows to %s", len(rows), spec.out_path)
        return rows
    finally:
        if handle is not None:
            handle.close()


def write_rows(handle, rows: list[ResultRow]) -> None:
    writer = csv.writer(handle)
    writer.writerow(CSV_FIELDS)
    for r in rows:
        writer.writerow([r.scheme, r.sweep_name, repr(r.sweep_value), r.trial,
                         r.seed, repr(r.wsr_nats), repr(r.wsr_bits),
                         r.outer_iters, f"{r.time_ms:.3f}", r.inner_unconverged])


def read_rows(path) -> list[ResultRow]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != CSV_FIELDS:
            raise ValueError(f"unexpected CSV header in {path}")
        return [ResultRow(r["scheme"], r["sweep_name"], float(r["sweep_value"]),
                          int(r["trial"]), int(r["seed"]), float(r["wsr_nats"]),
                          float(r["wsr_bits"]), int(r["outer_iters"]),
                          float(r["time_ms"]), int(r["inner_unconverged"]))
                for r in reader]


def summarize(rows: list[ResultRow]) -> dict:
    """Mean and sample std of WSR (nats) per (scheme, sweep value)."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.scheme, r.sweep_value), []).append(r.wsr_nats)
    return {key: (float(np.mean(vals)),
                  float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                  len(vals))
            for key, vals in sorted(groups.items())}
