"""End-to-end and per-layer benchmark of irsopt's solver and sweeps.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk_solve --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
runs each of the workload's first operations untraced and right after
traced (the sweep also once through its pool, untraced), and reports the
per-layer split. The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics; a fuller record, with the
environment fingerprint and the output digest, goes to
.bench_out/<workload>-seed<seed>-trace<0|1>.json (spans next to it as
.spans.csv.gz).
"""

from __future__ import annotations

import os

# One BLAS thread per benchmark process, set before numpy loads, so that
# pool workers x BLAS threads never exceeds the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from reference import NOMINAL_S, ParallelReference, Reference  # noqa: E402
from tracing import Tracer, layer_totals, solve_accounting_error  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
KERNEL_SIZES = (32, 120, 240, 480)   # phase counts the three workloads run
ACCOUNTING_TOL = 1e-9
REF_SHARE = 0.1     # reference-task time after an operation, as a share of its time
REF_WARM_S = 0.05
WORKLOADS = ("desk_solve", "full_solve", "element_sweep")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def measure_setup(ref) -> tuple[float, float]:
    """Median time of SETUP_REPEATS fresh interpreters running warmup.py,
    host-speed corrected and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "warmup.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up interpreter failed:\n{proc.stderr}")
        scaled.append(raw[-1] * NOMINAL_S / ref.measure(REF_SHARE * raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


def _children() -> list[int]:
    """Pids of this process's live children, read from /proc."""
    me, pids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:   # it ended while we looked
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


def stop_children(grace_s: float = 30.0) -> None:
    """Stop every process this run started and wait until each has ended.

    multiprocessing's resource tracker and fork server, if anything
    started them, otherwise end only after this process does; any other
    child still running here is a leak, and is terminated and reported."""
    from multiprocessing import forkserver, resource_tracker
    for helper in (getattr(resource_tracker, "_resource_tracker", None),
                   getattr(forkserver, "_forkserver", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass
    leaked = _children()
    if leaked:
        print(f"stopping leftover child processes {leaked}", file=sys.stderr)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in leaked:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while leaked and time.monotonic() < deadline:
            time.sleep(0.05)
            leaked = [pid for pid in leaked if pid in _children()]
        if not leaked:
            break
    while True:   # reap whatever has ended
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def fingerprint() -> dict:
    from irsopt import _kernels
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": blas_threads(), "kernel_jit": bool(_kernels.JIT_ENABLED),
            "nproc": os.cpu_count(), "git_sha": git_sha()}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_ops(workload, ref, seconds=None):
    """Closed loop over operations 0, 1, ...: the first workload.trace_ops,
    and with seconds, on until that much operation time is spent.

    The reference task runs after each operation, in as many processes at
    once as the operation used, and the operation's scale is NOMINAL_S over
    the task's recent median time, which spans the calls made just before
    and just after the operation."""
    results, spent, i = [], 0.0, 0
    with ExitStack() as stack:
        if workload.workers > 1:
            ref = stack.enter_context(ParallelReference(workload.workers))
        ref.measure(REF_WARM_S)
        while i < workload.trace_ops or (seconds is not None and spent < seconds):
            res = workload.run_op(i)
            res.scale = NOMINAL_S / ref.measure(REF_SHARE * res.op_s)
            results.append(res)
            spent += res.op_s
            i += 1
    return results


def run_pairs(workload, ref, tracer):
    """The first workload.trace_ops operations in this process, each once
    untraced and right after traced, so host drift between the two
    cancels in trace.overhead_ratio. Returns (untraced, traced)."""
    plain, traced = [], []
    for i in range(workload.trace_ops):
        plain.append(workload.run_op(i, workers=1))
        tracer.op = i
        with tracer.installed():
            traced.append(workload.run_op(i, span=tracer.span, workers=1))
        busy = plain[-1].op_s + traced[-1].op_s
        plain[-1].scale = traced[-1].scale = NOMINAL_S / ref.measure(REF_SHARE * busy)
    return plain, traced


def digest_of(results) -> str:
    from checks import Digest
    d = Digest()
    for r in results:
        d.add(*r.digest)
    return d.hexdigest()


def totals(results) -> dict:
    """Counts summed over operations; times summed host-speed corrected."""
    t = {key: sum(getattr(r, key) for r in results)
         for key in ("attempted", "failed", "cells", "solves")}
    for key in ("op_s", "busy_s"):
        t[key] = sum(getattr(r, key) * r.scale for r in results)
    t["raw_op_s"] = sum(r.op_s for r in results)
    return t


def end_to_end(results, setup_s) -> tuple[dict, dict]:
    t = totals(results)
    by_size = {}
    for r in results:
        for n, ms in r.solve_ms:
            by_size.setdefault(n, []).append(ms * r.scale)
    wsr = [x for r in results for x in r.wsr]
    if not by_size:
        raise RuntimeError("no operation completed")
    # The sweep's solves fall in one cluster per phase count: a pooled median
    # would be the middle cluster's median alone, a pooled p90 a quantile of
    # the top cluster's few samples. So each percentile is the geometric
    # mean of the per-size percentiles (with one size, the plain one).
    p50, p90 = np.exp(np.mean([np.log(np.percentile(g, [50, 90])) for g in by_size.values()],
                              axis=0))
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (t["solves"] / t["op_s"], "1/s"),
        "cells_per_s": (t["cells"] / t["op_s"], "1/s"),
        "solve_ms_p50": (float(p50), "ms"),
        "solve_ms_p90": (float(p90), "ms"),
        "wsr_nats_mean": (float(np.mean(wsr)), "nats"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {"solve_ms_samples": {n: len(g) for n, g in sorted(by_size.items())},
        "wsr_samples": len(wsr),
        "operations": len(results), "raw_solves_per_s": t["solves"] / t["raw_op_s"],
        "host_speed_scale": t["op_s"] / t["raw_op_s"]}


def per_layer(tracer, workload, untraced, traced, inproc) -> dict:
    scale = [r.scale for r in traced]
    calls, incl, own = layer_totals(tracer.spans, scale)
    solve_total = incl["solver"]
    kernel = tracer.kernel_calls
    n_kernel = max(len(kernel), 1)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "solver.wall_s": (solve_total, "s"),
        "solver.self_s": (own["solver"], "s"),
        "solver.outer_per_solve": (ratio(calls["beamformer"], calls["solver"]), "count"),
        "scenario.self_s": (own["scenario"], "s"),
        "channels.draw.self_s": (own["channels.draw"], "s"),
        "channels.effective.self_s": (own["channels.effective"], "s"),
        "wmmse.self_s": (own["wmmse"], "s"),
        "wmmse.calls": (calls["wmmse"], "count"),
        "beamformer.self_s": (own["beamformer"], "s"),
        "beamformer.share": (ratio(incl["beamformer"], solve_total), "ratio"),
        "beamformer.eig.self_s": (own["beamformer.eig"], "s"),
        "beamformer.dual.self_s": (own["beamformer.dual"], "s"),
        "beamformer.probes_per_call": (ratio(calls["beamformer.dual"], calls["beamformer"]),
                                       "count"),
        "phaseopt.assembly.self_s": (own["phaseopt.assembly"], "s"),
        "phaseopt.assembly.share": (ratio(incl["phaseopt.assembly"], solve_total), "ratio"),
        "phaseopt.descent.self_s": (own["phaseopt.descent"], "s"),
        "phaseopt.descent.inner_iters_per_call": (sum(k[1] for k in kernel) / n_kernel, "count"),
        "phaseopt.descent.unconverged_ratio": (sum(not k[2] for k in kernel) / n_kernel, "ratio"),
        "phaseopt.descent.line_search_failed": (sum(k[3] for k in kernel), "count"),
        "kernels.core.self_s": (own["kernels.core"], "s"),
    }
    for n in KERNEL_SIZES:
        iters = sum(k[1] for k in kernel if k[0] == n)
        secs = sum(k[4] * scale[k[5]] for k in kernel if k[0] == n)
        # zero means the workload never ran the kernel at this size
        m[f"kernels.us_per_iter.N{n}"] = (1e6 * ratio(secs, iters), "us")
        m[f"kernels.bytes_per_matvec.N{n}"] = (16 * n * n if iters else 0, "B_computed")
    t = totals(untraced)
    capacity = t["op_s"] * workload.workers
    m["experiments.busy_s"] = (t["busy_s"], "s")
    m["experiments.idle_s"] = (capacity - t["busy_s"], "s")
    m["experiments.worker_utilization"] = (ratio(t["busy_s"], capacity), "ratio")
    m["trace.overhead_ratio"] = (ratio(totals(traced)["op_s"], totals(inproc)["op_s"]), "ratio")
    return m


def run(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "irsopt" / "__init__.py").is_file():
        print(f"irsopt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import make_workload

    ref = Reference()
    ref.measure(REF_WARM_S)
    setup_s, raw_setup_s = measure_setup(ref)
    env = fingerprint()
    make_workload("desk_solve", args.seed).run_op(0)  # in-process warm-up, untimed
    workload = make_workload(args.workload, args.seed)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    problems = []
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        results = run_ops(workload, ref, seconds=args.seconds)
        metrics, samples = end_to_end(results, setup_s)
        record["samples"] = dict(samples, raw_setup_s=raw_setup_s)
        record["digest"] = digest_of(results[:workload.trace_ops])
        counted = results
    else:
        tracer = Tracer()
        inproc, traced = run_pairs(workload, ref, tracer)
        # spans do not come back from pool workers: the sweep's layer split
        # comes from the same cells run in-process, its pool cost from a
        # separate untraced pass through the pool
        pooled = run_ops(workload, ref) if workload.workers > 1 else []
        untraced = pooled or inproc
        record["digest"] = digest_of(untraced)
        record["traced_digest"] = digest_of(traced)
        if digest_of(inproc) != record["digest"]:
            problems.append("in-process digest differs from the pool's")
        if record["traced_digest"] != record["digest"]:
            problems.append("traced digest differs from the untraced one")
        gap = solve_accounting_error(tracer.spans)
        record["accounting_gap"] = gap
        if not gap <= ACCOUNTING_TOL:
            problems.append(f"layer self times miss the solve wall time by {gap:.3e}")
        metrics = per_layer(tracer, workload, untraced, traced, inproc)
        tracer.write(out_dir / f"{stem}.spans.csv.gz")
        counted = pooled + inproc + traced

    t = totals(counted)
    correct = t["failed"] == 0 and not problems
    record.update(problems=problems, attempted=t["attempted"], failed=t["failed"],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env: {json.dumps(env)}")
    for key in ("samples", "digest", "traced_digest"):
        if key in record:
            print(f"{key}: {record[key]}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": t["attempted"], "failed": t["failed"],
                      "metrics": record["metrics"]}))
    return 0


def main(argv=None) -> int:
    main_pid = os.getpid()

    def on_term(signum, frame):
        # forked helpers inherit this handler; only the main process unwinds
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return run(argv)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
