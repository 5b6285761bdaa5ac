"""Time one build of the compiled descent kernel and report the
compiler's peak memory.

The kernel's source (``src/irsopt/_rmcg.c``, or --source) is built the
way ``irsopt._kernels`` builds it on first import: the same compiler and
``_kernels._CFLAGS``, here into a temporary directory that is removed
afterwards, so the kernel cache is left alone. The compiler runs as a
child process; its peak resident set is ``ru_maxrss`` of
``RUSAGE_CHILDREN``, the largest of the compiler command (gcc, cc or
clang) and the passes it waits for (cc1, as, ld). A process that builds
the kernel during its own run, as a fresh cache makes it do, reports
that peak as its own when it counts its children.

Output, one ``name value`` pair a line: the source, the command,
``compile_s`` (wall seconds of the build) and ``peak_rss_mb``.

Usage: python benchmarks/bench_build.py [--source PATH]
"""

import argparse
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from irsopt import _kernels


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", type=Path, default=_kernels._SOURCE,
                        help="C source to build (default: the installed _rmcg.c)")
    args = parser.parse_args()
    command = [_kernels._compiler(), *_kernels._CFLAGS]
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        proc = subprocess.run([*command, "-o", str(Path(tmp) / "rmcg.so"), str(args.source)],
                              capture_output=True, text=True, timeout=300)
        seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"build failed: {proc.stderr.strip()}")
    # ru_maxrss is in KiB on Linux
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"source {args.source}")
    print(f"command {' '.join(command)}")
    print(f"compile_s {seconds:.3f}")
    print(f"peak_rss_mb {peak_kib / 1024:.1f}")


if __name__ == "__main__":
    main()
