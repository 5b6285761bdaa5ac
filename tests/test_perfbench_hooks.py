"""The benchmark's traced pass wraps library functions by name; every
name it wraps must exist, so that dropping or renaming one fails here and
not first in ``perfbench/run.py --trace 1``. It also reads each descent
kernel call's size and flags from the call's arguments and result, which
must keep the places it reads them from."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from irsopt import PhaseConfig, QuadraticForm, rmcg_solve
from tests.conftest import complex_normal

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def wrapped_names():
    return load_tracing().WRAPPED


@pytest.mark.parametrize("module, attr, layer", wrapped_names())
def test_wrapped_name_is_callable(module, attr, layer):
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), f"{module}.{attr} (layer {layer}) is gone or not callable"


def test_traced_kernel_call_records_size_and_flags(rng):
    # the tracer takes the size from the kernel's second positional
    # argument (v0) and n_iters and the two flags from its result
    z = complex_normal(rng, 10)
    form = QuadraticForm.from_factor(complex_normal(rng, (4, 10)), z, 1, 10)
    init = PhaseConfig.random(1, 10, rng)
    with load_tracing().Tracer().installed() as tracer:
        _, trace = rmcg_solve(form, init)
    assert trace.n_iters > 0
    (call,) = tracer.kernel_calls
    assert call[:4] == (form.size, trace.n_iters, trace.converged,
                        trace.line_search_failed)
