"""Hot numerical kernels: the manifold conjugate-gradient inner loop, and
the build and loading of the compiled library that also holds the
beamformer step.

The descent loop dominates solver runtime, so it lives here, apart from
the bookkeeping in ``phaseopt``. It runs a ``phaseopt.QuadraticForm``:
Q = F F^H, never formed as a matrix, with F^H the Khatri-Rao product of
the form's two stored operands ``a_h`` and ``b_h`` (row k K_b + j of F^H
is a_h[k] o b_h[j]), and its linear term ``z``. Both kernels first check
the arguments the same way (``v0`` of the form's size, ``grad_tol``
neither NaN nor negative, ``rel_tol`` in [0, 1), a nonnegative
``max_iters``).

There are two implementations of one algorithm, which take the same
steps on the same products. ``rmcg_core_numpy`` is the vectorized numpy
reference, on the form's methods. ``_rmcg.c`` is a C port of it, step
for step: once per call it copies the form's two operands into a work
space of its caller's, planar (real parts, then imaginary parts) and
padded to whole vectors, and takes the diagonal of Q in the same pass,
O((K_a + K_b) N); it takes F^H x and F t over tiles of rows of both
operands whose sums stay in registers. Both score a line-search trial
point x by f = ||t||^2 + 2 Re(z^H x), t = F^H x, and form F t for the
accepted point alone, so an iteration with k trial points takes k + 1
products F^H x (one for the first step's curvature) and one F t. The C
sums run in another order than numpy's, so the two kernels agree to
rounding (``_rmcg.c`` gives the order).
The work space is this thread's (``_workspace``): O((K_a + K_b) N + K_a
K_b) doubles, kept between calls and only ever grown, so that same-sized
descents allocate nothing.
On first import the system C compiler (``cc``, ``gcc`` or ``clang`` on PATH)
builds it with ``-O3 -march=native -ffp-contract=off`` (no
``-ffast-math``: every operation rounds as written, except that the
products F^H x and F t contract their multiply-adds into FMA where the
build host has it, so reruns on one host give the same bits and hosts
with and without FMA differ at rounding level) into
``$XDG_CACHE_HOME/irsopt`` (default ``~/.cache/irsopt``), and it is loaded
through ctypes. The file name is keyed by the source, the flags, the
compiler (its resolved path, size and modification time, which change with
its version) and the host CPU; a build is written under a temporary name
and renamed into place, so processes that import at the same time (two
interpreters) never load a partial file. Builds are kept, one per key
(about 36 KB each), so versions that share a cache never rebuild each
other; delete ``$XDG_CACHE_HOME/irsopt`` to reclaim the space.
``rmcg_core`` is the entry point callers look up: the compiled kernel when
it loaded (``JIT_ENABLED`` is True, and ``KERNEL_PATH``, which callers
only read, is the build it loaded), else the numpy reference, after a
logged WARNING that says why (``KERNEL_PATH`` is None).
The same build holds a second entry point, ``beamformer_run``, loaded
beside ``rmcg_run`` with the same fallback: the whole beamformer step of
``beamformer`` (weighted Gram matrix, cyclic Jacobi eigendecomposition,
null-space mask, dual search, back-substitution) for one draw or a
stack, which ``beamformer.solve_beamforming_compiled`` calls and
``beamformer.solve_beamforming`` is where the library loaded; without it
``solve_beamforming`` is the numpy reference,
``beamformer.solve_beamforming_numpy``.
``benchmarks/bench_kernels.py`` times both implementations of each, and
``benchmarks/bench_build.py`` one build of ``_rmcg.c`` and the compiler's
peak memory.

Algorithm: ambient gradient g = 2(Qv + z), projection onto the tangent
space of the unit-circle product (the Riemannian gradient rgrad), a
diagonal preconditioner, a preconditioned Polak-Ribiere direction d with
projected transport, Armijo backtracking, and entrywise renormalization
onto the circles.

The preconditioned gradient is pg = rgrad / h entrywise, with
h_m = 2 Q_mm - Re(conj(g_m) v_m) the diagonal of the Riemannian Hessian
at v (Mishra and Sepulchre, "Riemannian preconditioning", SIAM J. Optim.
2016; Boumal, "An Introduction to Optimization on Smooth Manifolds",
2023). Q_mm is computed once per call. h is floored at PRECOND_FLOOR *
max_m h_m; where some h_m is not finite or max_m h_m <= 0, pg = rgrad.
The elements of a multi-surface form sit at different distances from the
BS and the users, so h spans orders of magnitude, and plain conjugate
gradient on such a badly scaled problem crawls. With <a, b> = Re(a^H b)
and T the projection onto the new tangent space, the direction is
d = -pg + beta T(d), with beta = <rgrad_new, pg_new - T(pg)> / <rgrad, pg>
(Polak-Ribiere), capped at the Fletcher-Reeves value
<rgrad_new, pg_new> / <rgrad, pg> to keep the backtracking-only search
stable, and floored at 0; where d is not a descent direction the descent
restarts at d = -pg, with slope -<rgrad, pg>. The step rule, the search
and the stopping test below are those of the plain method.

The renormalization v/|v| is a second-order retraction (Absil and Malick,
SIAM J. Optim. 2012): along it f = f(v) + t slope + t^2 c2 + O(t^3), with
c2 = ||F^H d||^2 - 1/2 sum_m |d_m|^2 Re(conj(v_m) g_m), which costs one
more product F^H d.
Each line search starts at the model's minimizer -slope / (2 c2), capped
at 1 / max_m |d_m|, the step that turns the fastest element by 45 degrees
and the one taken when c2 <= 0. The descent stops when the Riemannian
gradient norm is at most max(grad_tol, rel_tol * ||grad_0||), with grad_0
the gradient at v0 (grad_hist[0], so the test costs no product); a NaN or
infinite ||grad_0|| keeps grad_tol, and ``converged`` reports this test.

Both kernels return (v, n_iters, obj_hist, grad_hist, tangency_residual,
line_search_failed, converged), with n_iters, tangency_residual and the
two flags as a Python int, float and bools; the histories hold entries
0..n_iters and nan beyond. They sum in different orders, so they agree to
rounding, not bit for bit; each is deterministic on its own.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import struct
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# Armijo backtracking: a trial step is accepted on a decrease of at least
# ARMIJO_C * step * slope, else shrunk by SHRINK, at most MAX_BACKTRACKS
# times before the line search has failed. Both kernels read them from here
# on each call: constants, not arguments, since one value of each is in use.
SHRINK = 0.5
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 40
# The preconditioner's diagonal h is floored at this fraction of its
# largest entry.
PRECOND_FLOOR = 1e-3

_SOURCE = Path(__file__).with_name("_rmcg.c")
_CFLAGS = ("-std=gnu99", "-O3", "-march=native", "-ffp-contract=off",
           "-fno-math-errno", "-fPIC", "-shared")
_COMPILERS = ("cc", "gcc", "clang")
# _rmcg.c's VL (and its TILE, the same number): its planar operands are
# padded to a multiple of _LANES doubles, and a_h by fewer than _LANES rows
_LANES = 8


def _check(form, v0, grad_tol, rel_tol, max_iters) -> None:
    """The argument checks both kernels make before they start."""
    if v0.shape != (form.size,):
        raise ValueError("v0 must be a vector of the form's size")
    if not grad_tol >= 0.0:
        raise ValueError("grad_tol must be nonnegative")
    if not 0.0 <= rel_tol < 1.0:
        raise ValueError("rel_tol must lie in [0, 1)")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")


def hessian_diagonal(form, v):
    """The diagonal of the Riemannian Hessian at the unit-modulus v that
    both kernels precondition with, 2 Q_mm - Re(conj(g_m) v_m) with g the
    ambient gradient."""
    egrad = 2.0 * (form @ v + form.z)
    return 2.0 * form.diagonal() - (np.conj(egrad) * v).real


def _precondition(hess_diag, rgrad):
    """rgrad * (1 / h), h = hess_diag floored at PRECOND_FLOOR *
    max(hess_diag); rgrad itself when an entry of hess_diag is not finite
    or none is positive. Returns it with <rgrad, rgrad / h>."""
    h_max = hess_diag.max(initial=-np.inf)
    if not (h_max > 0.0 and np.isfinite(hess_diag).all()):
        return rgrad, np.vdot(rgrad, rgrad).real
    pg = rgrad * (1.0 / np.maximum(hess_diag, PRECOND_FLOOR * h_max))
    return pg, np.vdot(rgrad, pg).real


def rmcg_core_numpy(form, v0, grad_tol, rel_tol, max_iters):
    """Vectorized descent loop on the form's products: F^H x for each
    point it scores, F t for each point it accepts."""
    _check(form, v0, grad_tol, rel_tol, max_iters)
    z = form.z
    v = v0.copy()
    obj_hist = np.full(max_iters + 1, np.nan)
    grad_hist = np.full(max_iters + 1, np.nan)
    tang_res = 0.0
    failed = False
    q_diag2 = 2.0 * form.diagonal()

    f_cur, t = form.evaluate(v)
    egrad = 2.0 * (form.f_product(t) + z)
    radial = (np.conj(egrad) * v).real
    rgrad = egrad - radial * v
    gnorm2 = np.vdot(rgrad, rgrad).real
    pg, gpg = _precondition(q_diag2 - radial, rgrad)
    direction = -pg
    obj_hist[0] = f_cur
    grad_hist[0] = np.sqrt(gnorm2)
    # a NaN or infinite start fails the test and keeps the absolute floor
    if grad_tol < rel_tol * grad_hist[0] < np.inf:
        grad_tol = rel_tol * grad_hist[0]

    n_done = 0
    for it in range(max_iters):
        if np.sqrt(gnorm2) <= grad_tol:
            break
        slope = np.vdot(direction, rgrad).real
        if not np.isfinite(slope) or slope >= 0.0:
            direction = -pg
            slope = -gpg
        d2 = direction.real ** 2 + direction.imag ** 2
        t = form.fh_product(direction)
        c2 = np.vdot(t, t).real - 0.5 * np.dot(d2, radial)
        reach = np.sqrt(np.max(d2))
        # the model's minimizer, capped at 1 / reach; a NaN c2 fails the
        # comparison and takes the cap
        step = -slope / (2.0 * c2) if 2.0 * c2 > -slope * reach else 1.0 / reach
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = v + step * direction
            cand = cand / np.abs(cand)
            f_cand, t = form.evaluate(cand)
            if f_cand <= f_cur + ARMIJO_C * step * slope:
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            failed = True
            break

        egrad = 2.0 * (form.f_product(t) + z)
        radial = (np.conj(egrad) * cand).real
        rgrad_new = egrad - radial * cand
        gnorm2_new = np.vdot(rgrad_new, rgrad_new).real
        pg_new, gpg_new = _precondition(q_diag2 - radial, rgrad_new)
        transported = pg - (np.conj(pg) * cand).real * cand
        beta = 0.0
        if gpg > 0.0:
            beta = np.vdot(rgrad_new, pg_new - transported).real / gpg
            cap = gpg_new / gpg
            if beta > cap:
                beta = cap
        if beta < 0.0:
            beta = 0.0
        dir_t = direction - (np.conj(direction) * cand).real * cand
        direction = -pg_new + beta * dir_t

        res = np.max(np.abs((np.conj(rgrad_new) * cand).real))
        if res > tang_res:
            tang_res = res
        res = np.max(np.abs((np.conj(direction) * cand).real))
        if res > tang_res:
            tang_res = res

        v = cand
        f_cur = f_cand
        rgrad = rgrad_new
        gnorm2 = gnorm2_new
        pg = pg_new
        gpg = gpg_new
        n_done = it + 1
        obj_hist[n_done] = f_cur
        grad_hist[n_done] = np.sqrt(gnorm2)

    converged = bool(np.sqrt(gnorm2) <= grad_tol)
    return v, n_done, obj_hist, grad_hist, float(tang_res), failed, converged


def _compiler() -> str:
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return os.path.realpath(path)
    raise OSError(f"no C compiler ({', '.join(_COMPILERS)}) on PATH")


def _host_cpu() -> str:
    """What -march=native depends on: the CPU model and feature flags."""
    try:
        with open("/proc/cpuinfo") as handle:
            return "".join(sorted({line for line in handle
                                   if line.startswith(("model name", "flags"))}))
    except OSError:
        return f"{platform.machine()} {platform.processor()}"


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "irsopt"


def _build() -> Path:
    """Path of the compiled kernel, building it first if the cache lacks it."""
    compiler = _compiler()
    stat = os.stat(compiler)
    key = hashlib.sha256()
    for part in (_SOURCE.read_bytes(), " ".join(_CFLAGS).encode(),
                 f"{compiler} {stat.st_size} {stat.st_mtime_ns}".encode(),
                 _host_cpu().encode()):
        key.update(part)
        key.update(b"\0")
    target = _cache_dir() / f"rmcg-{key.hexdigest()[:20]}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp",
                               dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *_CFLAGS, "-o", tmp, str(_SOURCE)],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise OSError(f"{compiler} failed: {proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


# rmcg_args of _rmcg.c, packed with its native layout: four pointers, six
# int64 and five doubles, none padded. Packing the struct into bytes, which
# ctypes passes as a pointer to their data, costs less per call than
# building a ctypes.Structure and passing it by reference.
_ARGS = struct.Struct("4P6q5d")


def _open(path, entry="rmcg_run"):
    """The entry point ``entry`` of the library build at path: rmcg_run (the
    default) or beamformer_run, each taking a packed argument struct and
    one buffer."""
    run = getattr(ctypes.CDLL(str(path)), entry)
    run.argtypes = (ctypes.c_char_p, ctypes.c_void_p)
    run.restype = ctypes.c_int64
    return run


def _load():
    """(rmcg_run, beamformer_run, path) of the compiled library."""
    path = _build()
    return _open(path), _open(path, "beamformer_run"), path


# Each thread's work space for the compiled kernel: the planar operands and
# the descent's vectors, reused from call to call and only ever grown, so
# that a steady run of same-sized descents allocates (and page-faults)
# nothing. It lives in a threading.local, not in a C _Thread_local pointer,
# so that it is freed when its thread ends; ctypes releases the GIL during
# the call, so threads cannot share one.
_workspaces = threading.local()


def _workspace(n_doubles):
    """(array, address) of this thread's work space of at least n_doubles
    doubles; the address is kept with it, since reading it costs more
    than the rest of the lookup."""
    work = getattr(_workspaces, "work", None)
    if work is None or work[0].size < n_doubles:
        array = np.empty(n_doubles)
        work = _workspaces.work = (array, array.ctypes.data)
    return work


def rmcg_core_compiled(form, v0, grad_tol, rel_tol, max_iters):
    """``rmcg_core_numpy``'s contract on the compiled kernel."""
    _check(form, v0, grad_tol, rel_tol, max_iters)
    n, m, ka, kb = form.size, int(max_iters), len(form.a_h), len(form.b_h)
    padded = -(-n // _LANES) * _LANES
    # rmcg_args' bound
    work_len = 2 * (ka + kb + _LANES + 1) * padded + 20 * n + 4 * ka * kb + _LANES
    work, address = _workspace(work_len)
    # one buffer in and out: v0 (becomes v) | obj_hist | grad_hist | info
    hist, info = 2 * n, 2 * n + 2 * m + 2
    raw = (ctypes.c_double * (info + 3))()
    buf = np.frombuffer(raw)
    v = np.frombuffer(raw, complex, n)
    v[:] = v0
    n_done = _run(_ARGS.pack(*form.addresses, address, work_len, n, ka, kb, m,
                             MAX_BACKTRACKS, grad_tol, rel_tol, SHRINK, ARMIJO_C,
                             PRECOND_FLOOR), raw)
    if n_done < 0:
        raise RuntimeError("descent kernel's work space is too small")
    tang_res, failed, converged = raw[info:]
    return (v, n_done, buf[hist:hist + m + 1], buf[hist + m + 1:info],
            tang_res, bool(failed), bool(converged))


_run = _beamformer_run = KERNEL_PATH = None
try:
    _run, _beamformer_run, KERNEL_PATH = _load()
except (OSError, AttributeError, subprocess.SubprocessError) as exc:
    log.warning("compiled descent kernel unavailable, running the numpy "
                "reference kernel and beamformer step instead: %s", exc)

JIT_ENABLED = KERNEL_PATH is not None
rmcg_core = rmcg_core_compiled if JIT_ENABLED else rmcg_core_numpy
