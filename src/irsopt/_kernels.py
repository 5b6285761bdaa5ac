"""Hot numerical kernel: the manifold conjugate-gradient inner loop.

The descent loop dominates solver runtime, so it lives here, apart from
the bookkeeping in ``phaseopt``. It touches the quadratic only through
``q_op @ x``: ``q_op`` is either a dense (size, size) array or a
matrix-free operator (``phaseopt`` passes one that applies the low-rank
factor of the phase quadratic), so the loop never needs the matrix
itself. ``rmcg_core`` is the entry point callers look up;
``benchmarks/bench_kernels.py`` times it on both representations.
There is no compiled path: ``JIT_ENABLED`` is always False and the
IRSOPT_NO_NUMBA environment flag has no effect. Both stay for callers
that read them.

Algorithm: ambient gradient 2(Qv + z), projection onto the tangent space
of the unit-circle product, Polak-Ribiere direction with projected
transport (restarted when the coefficient turns negative, capped by the
Fletcher-Reeves value to keep the backtracking-only search stable),
Armijo backtracking warm-started from twice the previously accepted step,
a parabolic refinement of the accepted step (plain Armijo can keep
overshooting the minimizer along the path, stalling in a two-cycle), and
entrywise renormalization onto the circles.

The kernel returns (v, n_iters, obj_hist, grad_hist, tangency_residual,
line_search_failed, converged); the histories hold entries 0..n_iters and
nan beyond.
"""

from __future__ import annotations

import numpy as np


def rmcg_core_numpy(q_op, z, v0, grad_tol, max_iters, step0, shrink,
                    armijo_c, max_backtracks):
    """Vectorized descent loop; ``q_op`` needs only ``@`` on vectors."""
    v = v0.copy()
    obj_hist = np.full(max_iters + 1, np.nan)
    grad_hist = np.full(max_iters + 1, np.nan)
    tang_res = 0.0
    failed = False

    qv = q_op @ v
    f_cur = np.vdot(v, qv).real + 2.0 * np.vdot(v, z).real
    egrad = 2.0 * (qv + z)
    rgrad = egrad - (np.conj(egrad) * v).real * v
    gnorm2 = np.vdot(rgrad, rgrad).real
    direction = -rgrad
    obj_hist[0] = f_cur
    grad_hist[0] = np.sqrt(gnorm2)

    n_done = 0
    prev_step = 0.5 * step0
    for it in range(max_iters):
        if np.sqrt(gnorm2) < grad_tol:
            break
        slope = np.vdot(direction, rgrad).real
        if not np.isfinite(slope) or slope >= 0.0:
            direction = -rgrad
            slope = -gnorm2
        step = 2.0 * prev_step
        accepted = False
        v_new = v
        qv_new = qv
        f_new = f_cur
        for _ in range(max_backtracks):
            cand = v + step * direction
            cand = cand / np.abs(cand)
            qv_cand = q_op @ cand
            f_cand = np.vdot(cand, qv_cand).real + 2.0 * np.vdot(cand, z).real
            if f_cand <= f_cur + armijo_c * step * slope:
                accepted = True
                v_new = cand
                qv_new = qv_cand
                f_new = f_cand
                break
            step *= shrink
        if not accepted:
            failed = True
            break
        curv = f_new - f_cur - step * slope
        if curv > 0.0:
            step_fit = -0.5 * slope * step * step / curv
            if step_fit > 0.0:
                cand = v + step_fit * direction
                cand = cand / np.abs(cand)
                qv_cand = q_op @ cand
                f_cand = np.vdot(cand, qv_cand).real + 2.0 * np.vdot(cand, z).real
                if f_cand < f_new:
                    step = step_fit
                    v_new = cand
                    qv_new = qv_cand
                    f_new = f_cand
        prev_step = step

        egrad_new = 2.0 * (qv_new + z)
        rgrad_new = egrad_new - (np.conj(egrad_new) * v_new).real * v_new
        gnorm2_new = np.vdot(rgrad_new, rgrad_new).real
        transported = rgrad - (np.conj(rgrad) * v_new).real * v_new
        beta = 0.0
        if gnorm2 > 0.0:
            beta = np.vdot(rgrad_new, rgrad_new - transported).real / gnorm2
            cap = gnorm2_new / gnorm2
            if beta > cap:
                beta = cap
        if beta < 0.0:
            beta = 0.0
        dir_t = direction - (np.conj(direction) * v_new).real * v_new
        direction = -rgrad_new + beta * dir_t

        res = np.max(np.abs((np.conj(rgrad_new) * v_new).real))
        if res > tang_res:
            tang_res = res
        res = np.max(np.abs((np.conj(direction) * v_new).real))
        if res > tang_res:
            tang_res = res

        v = v_new
        qv = qv_new
        f_cur = f_new
        rgrad = rgrad_new
        gnorm2 = gnorm2_new
        n_done = it + 1
        obj_hist[n_done] = f_cur
        grad_hist[n_done] = np.sqrt(gnorm2)

    converged = np.sqrt(gnorm2) < grad_tol
    return v, n_done, obj_hist, grad_hist, tang_res, failed, converged


rmcg_core = rmcg_core_numpy
JIT_ENABLED = False
