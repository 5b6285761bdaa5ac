"""Fixed reference task for correcting the host's speed drift.

On a shared 2-core host the same solve takes anywhere from 0.85x to 1.35x
its usual time, in swings lasting tens of seconds, and that drift, not the
code, then sets a run's numbers. The benchmark therefore runs this task
between operations and reports every time scaled by NOMINAL_S / (the
task's measured duration around that operation): seconds on a host
running at the speed where the task takes NOMINAL_S.

The task uses numpy only, never irsopt, so no change to the library can
move it. Its mix mirrors the solver's: small Hermitian eigendecompositions
and power sums (beamformer), dense complex mat-vecs at N = 240 (descent),
a pairwise einsum (assembly) and plain interpreted arithmetic (the
per-call overhead everywhere).
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from collections import deque

import numpy as np

NOMINAL_S = 4.0e-3   # duration of one run_once on the 2-core box the bounds were set on
WINDOW = 15          # recent calls whose median estimates the host's current speed


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20200212)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.h = cn(8, 8)
        self.q = cn(240, 240)
        self.v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 240))
        self.h_ru = cn(4, 8, 60)
        self.weights = rng.uniform(0.5, 1.0, 8)
        self._recent = deque(maxlen=WINDOW)

    def run_once(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(8):
            gram = self.h @ self.h.conj().T
            lam, _ = np.linalg.eigh(gram)
            for mu in np.linspace(0.1, 2.0, 8):
                acc += float(np.sum(lam / (lam + mu) ** 2))
            qv = self.q @ self.v
            cand = self.v + 1e-3 * qv
            cand /= np.abs(cand)
            acc += float(np.vdot(cand, self.q @ cand).real)
        pair = np.einsum("k,ikm,jkn->ijmn", self.weights, self.h_ru, np.conj(self.h_ru))
        acc += float(pair[0, 0, 0, 0].real)
        s = 0
        for i in range(2000):
            s += i * i
        if not np.isfinite(acc + s):
            raise ArithmeticError("reference task produced a non-finite value")
        return time.perf_counter() - t0

    def measure(self, budget_s: float) -> float:
        """Run the task at least once and for budget_s seconds; return the
        median duration of the last WINDOW calls, so that one slow call
        does not set an operation's scale."""
        spent = 0.0
        while True:
            self._recent.append(self.run_once())
            spent += self._recent[-1]
            if spent >= budget_s:
                return statistics.median(self._recent)


def _serve(conn) -> None:
    ref = Reference()
    while (budget_s := conn.recv()) is not None:
        conn.send(ref.measure(budget_s))


class ParallelReference:
    """The reference task run in ``n`` helper processes at once, for work
    that itself runs in ``n`` processes at once: the host's speed then is
    the speed two busy processes see, not one. The helpers wait on a pipe,
    idle, while the measured work runs. They are forked: a spawned helper
    would also start multiprocessing's resource tracker, a process that
    outlives the benchmark."""

    def __init__(self, n: int):
        ctx = multiprocessing.get_context("fork")
        self._conns, self._procs = [], []
        try:
            for _ in range(n):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(child,), daemon=True)
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def measure(self, budget_s: float) -> float:
        """Mean over the helpers of their Reference.measure."""
        for conn in self._conns:
            conn.send(budget_s)
        return statistics.mean(conn.recv() for conn in self._conns)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:   # the helper is gone already
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
