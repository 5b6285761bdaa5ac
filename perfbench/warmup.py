"""Set-up probe: a fresh interpreter imports irsopt and finishes one solve.

run.py times this script from process start to exit and reports the
median as ``setup_s``, so any import-time work, compile step or cache
build the library adds shows there. The solve is the desk preset on a
fixed draw: the cheapest input that runs every layer.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import irsopt  # noqa: E402

scenario = irsopt.desk_scenario()
_, _, trace = irsopt.solve(scenario, irsopt.draw_channels(scenario, np.random.default_rng(0)))
if not np.isfinite(trace.wsr[-1]):
    sys.exit("warm-up solve returned a non-finite WSR")
