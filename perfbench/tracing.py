"""Span recording around the library's public functions.

The traced pass replaces each name below in the module where its caller
looks it up, records one span per call and restores the originals on
exit. Spans stay in memory as (name, start, end, parent, op) tuples and
are written out only when the run ends; the self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, layer) for every wrapped call site. The solver's
# helpers are looked up in irsopt.solver's namespace, the beamformer's in
# irsopt.beamformer's, and the sweep's per-cell calls in
# irsopt.experiments', so wrapping those names catches every call made
# during a solve or a sweep cell and nothing else.
WRAPPED = (
    ("irsopt.solver", "effective_channels", "channels.effective"),
    ("irsopt.solver", "update_decoders", "wmmse"),
    ("irsopt.solver", "compute_mse", "wmmse"),
    ("irsopt.solver", "update_weights", "wmmse"),
    ("irsopt.solver", "compute_rates", "wmmse"),
    ("irsopt.solver", "solve_beamforming", "beamformer"),
    ("irsopt.solver", "assemble_quadratic", "phaseopt.assembly"),
    ("irsopt.solver", "rmcg_solve", "phaseopt.descent"),
    ("irsopt.beamformer", "assemble_context", "beamformer.eig"),
    ("irsopt.beamformer", "power_g", "beamformer.dual"),
    ("irsopt._kernels", "rmcg_core", "kernels.core"),
    ("irsopt.experiments", "scenario_at", "scenario"),
    ("irsopt.experiments", "draw_channels", "channels.draw"),
    ("irsopt.experiments", "solve", "solver"),
)


class Tracer:
    """In-memory span recorder. ``op`` tags every span with the index of
    the workload operation it belongs to."""

    def __init__(self):
        self.spans: list = []
        # (size, n_iters, converged, line_search_failed, seconds, op) per rmcg_core call
        self.kernel_calls: list = []
        self.op = -1
        self._stack: list = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name, idx, parent, start):
        self.spans[idx] = (name, start, time.perf_counter(), parent, self.op)
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx, parent, start = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)
            if name == "kernels.core":
                # rmcg_core(q_mat, z, v0, ...) -> (v, n_iters, _, _, _, failed, converged)
                _, start, end, _, _ = self.spans[idx]
                self.kernel_calls.append((args[1].shape[0], int(out[1]),
                                          bool(out[6]), bool(out[5]), end - start, self.op))
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, layer in WRAPPED:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, layer))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("name", "start_s", "end_s", "parent", "op"))
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, op in self.spans:
                writer.writerow((name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                                 parent, op))


def self_times(spans) -> list[float]:
    """Self seconds of every span, in span order."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans, scale) -> tuple[dict, dict, dict]:
    """Per layer: call count, inclusive seconds and self seconds, each
    span's times multiplied by scale[op] of its operation."""
    calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for (name, start, end, _, op), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        incl[name] += (end - start) * scale[op]
        own[name] += self_s * scale[op]
    return calls, incl, own


def solve_accounting_error(spans) -> float:
    """Relative gap between the summed self times of every span inside a
    solve and the summed solve durations; zero up to rounding when the
    recorded layers nest properly."""
    inside = []
    for name, _, _, parent, _ in spans:
        inside.append(name == "solver" or (parent >= 0 and inside[parent]))
    total = sum(end - start for name, start, end, _, _ in spans if name == "solver")
    if total <= 0.0:
        return float("inf")
    accounted = sum(s for s, keep in zip(self_times(spans), inside) if keep)
    return abs(accounted - total) / total
