"""Per-operation correctness gate and the output digest.

The gate does not trust ``SolveTrace.converged``: it recomputes the final
weighted sum rate from the returned beamformers and phases and checks
the solver's invariants directly. Any problem makes the operation count
as failed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from irsopt.channels import effective_channels
from irsopt.experiments import SCHEMES
from irsopt.wmmse import compute_rates, weighted_sum_rate

POWER_SLACK = 1e-8       # relative, on p_max
MODULUS_TOL = 1e-12      # absolute, on |v_i| - 1
WSR_REL_TOL = 1e-9       # recomputed vs reported final WSR
MONOTONE_REL_TOL = 1e-12  # allowed rounding-level dip between outer iterations


def check_solve(scenario, channels, beams, phases, trace) -> list[str]:
    """Problems found in one solve's outputs; empty when it is valid."""
    problems = []
    w, v = beams.w, phases.v_hat
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))
            and np.all(np.isfinite(trace.wsr)) and math.isfinite(trace.initial_wsr)):
        return ["non-finite output"]
    power = float(np.sum(np.abs(w) ** 2))
    if power > scenario.p_max * (1.0 + POWER_SLACK):
        problems.append(f"power {power!r} exceeds p_max {scenario.p_max!r}")
    if v.size and float(np.max(np.abs(np.abs(v) - 1.0))) > MODULUS_TOL:
        problems.append("phases are not unit modulus")
    if trace.n_outer < 1:
        return problems + ["no outer iteration recorded"]
    hbar = effective_channels(channels, phases)
    wsr = weighted_sum_rate(scenario.weights,
                            compute_rates(hbar, beams, scenario.noise_power))
    if abs(wsr - trace.wsr[-1]) > WSR_REL_TOL * max(abs(wsr), 1.0):
        problems.append(f"recomputed WSR {wsr!r} != reported {trace.wsr[-1]!r}")
    history = np.concatenate(([trace.initial_wsr], trace.wsr))
    dips = np.diff(history) < -MONOTONE_REL_TOL * np.abs(history[:-1])
    if np.any(dips):
        problems.append(f"WSR decreased at outer iteration {int(np.argmax(dips))}")
    return problems


def check_rows(rows, sweep_values, n_trials) -> list[str]:
    """Problems in one sweep's rows: every (scheme, value, trial) exactly
    once, finite positive rates, consistent units, at least one outer
    iteration."""
    want = {(s, float(x), t) for s in SCHEMES for x in sweep_values
            for t in range(n_trials)}
    got = [(r.scheme, r.sweep_value, r.trial) for r in rows]
    problems = []
    if len(got) != len(want) or set(got) != want:
        problems.append(f"incomplete rows: {len(got)} rows for {len(want)} cells")
    for r in rows:
        if not (math.isfinite(r.wsr_nats) and r.wsr_nats > 0 and r.outer_iters >= 1
                and math.isclose(r.wsr_bits, r.wsr_nats / math.log(2.0))):
            problems.append(f"bad row {r.scheme}/{r.sweep_value}/{r.trial}")
    return problems


class Digest:
    """SHA-256 over the exact bits of the WSR values a run produces."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        self._h.update(repr(values).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
