"""Monte-Carlo experiment harness: baselines, sweeps, CSV emission.

Channel realizations are seeded per (sweep point, trial) so every scheme
sees the same fading in a given cell and a rerun reproduces the CSV
byte-for-byte apart from the timing column. Cells (one sweep point and
trial, every scheme) are independent work items. With ``workers`` = N the
caller is process 0 and forks N − 1 more, never more processes than cells;
process r takes cells r, r + N, ... and each forked one sends its rows, or
its exception, back on a pipe. A process solves its proposed cells one by
one, then the share's baselines as one batch: every random_phase and
no_irs solve of its cells beamforms on a fixed effective channel, so
``solver.solve_fixed`` runs them in lockstep, each draw bit for bit as
``run_scheme``'s stack of one. The rows are sorted into a deterministic
order before writing, so the CSV does not depend on N.
"""

from __future__ import annotations

import csv
import logging
import math
import multiprocessing
import os
import stat
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channels import ChannelSet, PhaseConfig, draw_channels, effective_channels, strip_irs
from .errors import NumericalError
from .scenario import ScenarioParams, check_count
from .solver import SolverOptions, SolveTrace, matched_filter, solve, solve_fixed

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
        # value raises before run_experiment starts
        for value in values:
            scenario_at(self.scenario, self.sweep_name, value)
        schemes = tuple(self.schemes)
        unknown = [s for s in schemes if s not in SCHEMES]
        if unknown:
            raise ValueError(f"unknown schemes: {unknown}")
        # an empty tuple would write a header-only CSV, a repeated scheme
        # every one of its cells twice
        if not schemes or len(set(schemes)) != len(schemes):
            raise ValueError(f"schemes must be non-empty and distinct, got {schemes}")
        # checked here, not when run_experiment first uses them, so that a
        # bad count or seed fails before any solve
        check_count("n_trials", self.n_trials)
        check_count("workers", self.workers)
        check_count("base_seed", self.base_seed, minimum=0)
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "schemes", schemes)


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

    proposed is ``solve``, whose energy start does not read ``rng``. Each
    baseline beamforms on the fixed channel of ``_baseline_point``, so it
    is ``solve_fixed`` on a stack of one, with forming that channel counted
    in its start_s. A sweep runs its proposed cells through here and its
    baselines as one batch (``_solve_baselines``), with the same bits.
    """
    if scheme == "proposed":
        return solve(scenario, channels, opts)[2]
    t0 = time.perf_counter()
    hbar, w0 = _baseline_point(scheme, scenario, channels, rng)
    t_fixed = time.perf_counter()
    _, (trace,) = solve_fixed(hbar[None], w0[None], scenario, np.array([scenario.p_max]), opts)
    return replace(trace, start_s=trace.start_s + t_fixed - t0)


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


def _row(scheme: str, cell: tuple, trace: SolveTrace, seconds: float) -> ResultRow:
    """The row of one solve of the cell (sweep_name, value, trial, seed)."""
    sweep_name, value, trial, seed = cell
    wsr = float(trace.wsr[-1])
    return ResultRow(scheme, sweep_name, value, trial, seed, wsr, wsr / math.log(2.0),
                     trace.n_outer, 1e3 * seconds,
                     int(np.count_nonzero(~trace.inner_converged)))


def _name_solve(exc: BaseException, scheme: str, cell: tuple) -> None:
    sweep_name, value, trial, _ = cell
    exc.add_note(f"in the {scheme} solve at {sweep_name} = {value!r}, trial {trial}")


def _baseline_point(scheme: str, scenario: ScenarioParams, channels: ChannelSet,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The fixed effective channels and matched-filter starting beamformers
    of a baseline: no_irs on the direct links alone, random_phase at
    uniform random phases drawn from ``rng``."""
    if scheme == "no_irs":
        channels = strip_irs(channels)
    elif scheme != "random_phase":
        raise ValueError(f"unknown scheme {scheme!r}")
    hbar = effective_channels(channels, PhaseConfig.random(channels.n_irs,
                                                           channels.n_elements, rng))
    return hbar, matched_filter(hbar, scenario.p_max).w


def _solve_baselines(baselines: list, scenario: ScenarioParams,
                     opts: SolverOptions) -> list[ResultRow]:
    """Rows of the (scheme, cell, p_max, hbar, w0, prep_s) baseline draws,
    solved as one ``solve_fixed`` batch with the weights and noise of
    ``scenario``. A row's time is its draw's preparation plus its share of
    the batch (``SolveTrace``'s times).

    A ``NumericalError`` is raised with a note naming the scheme, sweep
    value and trial of a draw that raises it: each draw's values are those
    of its own stack of one, so the draw that failed the batch fails alone.
    """
    schemes, cells, p_max, hbar, w0, prep_s = zip(*baselines)
    try:
        _, traces = solve_fixed(np.stack(hbar), np.stack(w0), scenario, np.array(p_max), opts)
    except NumericalError:
        for i, (scheme, cell) in enumerate(zip(schemes, cells)):
            try:
                solve_fixed(hbar[i][None], w0[i][None], scenario, np.array(p_max[i:i + 1]),
                            opts)
            except NumericalError as exc:
                _name_solve(exc, scheme, cell)
                raise
        raise
    return [_row(scheme, cell, trace, prep + trace.start_s + trace.wall_time_s.sum())
            for scheme, cell, trace, prep in zip(schemes, cells, traces, prep_s)]


def _solve_share(jobs, rank: int, n_procs: int) -> list[ResultRow]:
    """Rows of cells rank, rank + n_procs, ... of jobs: the proposed solves
    one by one, then every baseline solve of the share as one batch."""
    rows, baselines = [], []
    for job in jobs[rank::n_procs]:
        base, sweep_name, value, sweep_idx, trial, schemes, base_seed, opts = job
        scenario = scenario_at(base, sweep_name, value)
        channel_rng, init_seed = _cell_rngs(base_seed, sweep_idx, trial)
        channels = draw_channels(scenario, channel_rng)
        cell = (sweep_name, float(value), trial, _trial_seed(base_seed, sweep_idx, trial))
        for scheme in schemes:
            t0 = time.perf_counter()
            rng = np.random.default_rng(init_seed)
            if scheme != "proposed":
                point = _baseline_point(scheme, scenario, channels, rng)
                baselines.append((scheme, cell, scenario.p_max, *point,
                                  time.perf_counter() - t0))
                continue
            try:
                trace = run_scheme(scheme, scenario, channels, opts, rng)
            except NumericalError as exc:
                _name_solve(exc, scheme, cell)
                raise
            rows.append(_row(scheme, cell, trace, time.perf_counter() - t0))
    if baselines:   # every job of a sweep has the same base scenario and options
        rows += _solve_baselines(baselines, base, opts)
    return rows


def _forked_share(jobs, rank: int, n_procs: int, conn) -> None:
    """Body of forked process rank: send its share's rows, or the exception
    that stopped it, with the child's traceback as a note, to the caller."""
    try:
        result = _solve_share(jobs, rank, n_procs)
    except BaseException as exc:
        exc.add_note(f"raised in sweep process {rank}:\n"
                     + "".join(traceback.format_exception(exc)))
        result = exc
    conn.send(result)
    conn.close()


def _run_cells(jobs, workers: int) -> list[ResultRow]:
    """Rows of every job, from the caller and min(workers, len(jobs)) − 1
    forked processes, all of which have ended when this returns or raises.

    A child's exception is re-raised here with its own type; a child that
    ends without sending raises RuntimeError. On any error the remaining
    children are terminated before they are joined."""
    n_procs = min(workers, len(jobs))
    children = []
    try:
        for rank in range(1, n_procs):
            reader, writer = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_forked_share,
                                            args=(jobs, rank, n_procs, writer))
            child.start()
            # closed here, so the reader sees EOF once the child has ended
            writer.close()
            children.append((child, reader))
        rows = _solve_share(jobs, 0, n_procs)
        for child, reader in children:
            try:
                result = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"sweep process {child.pid} exited with code "
                                   f"{child.exitcode} before sending its rows") from None
            if isinstance(result, BaseException):
                raise result
            rows += result
        return rows
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader in children:
            child.join()
            reader.close()


def _temp_beside(target: str):
    """(handle, name) of a new text file beside ``target``, with the mode
    ``open(target, "w")`` leaves: target's own where it exists (it must then
    be writable, which opening it in "r+" checks without emptying it), else
    0o666 less the umask."""
    mode = None
    if os.path.exists(target):
        open(target, "r+").close()
        mode = stat.S_IMODE(os.stat(target).st_mode)
    name = f"{target}.{os.urandom(4).hex()}.tmp"
    fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    if mode is not None:
        os.fchmod(fd, mode)
    return os.fdopen(fd, "w", newline=""), name


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Execute the sweep, optionally writing the CSV, and return all rows.

    The CSV goes to a temporary file beside the output path, created before
    any computation so that an unwritable path fails fast, and replaces the
    output file only once it is complete: a sweep that fails or is
    interrupted leaves an existing file as it was.
    """
    handle = None
    if spec.out_path is not None:
        target = os.path.realpath(spec.out_path)
        handle, tmp = _temp_beside(target)
    try:
        jobs = [(spec.scenario, spec.sweep_name, value, sweep_idx, trial,
                 spec.schemes, spec.base_seed, spec.options)
                for sweep_idx, value in enumerate(spec.sweep_values)
                for trial in range(spec.n_trials)]
        rows = _run_cells(jobs, spec.workers)
        order = {s: i for i, s in enumerate(spec.schemes)}
        rows.sort(key=lambda r: (order[r.scheme], r.sweep_value, r.trial))
        if handle is not None:
            with handle:
                write_rows(handle, rows)
            os.replace(tmp, target)
            log.info("wrote %d rows to %s", len(rows), spec.out_path)
        return rows
    except BaseException:
        if handle is not None:
            handle.close()
            os.unlink(tmp)
        raise


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
