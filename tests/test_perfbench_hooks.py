"""The benchmark's traced pass wraps library functions by name; every
name it wraps must exist, so that dropping or renaming one fails here and
not first in ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


@pytest.mark.parametrize("module, attr, layer", wrapped_names())
def test_wrapped_name_is_callable(module, attr, layer):
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), f"{module}.{attr} (layer {layer}) is gone or not callable"
