"""Globally optimal transmit beamforming under a sum-power cap.

The stationarity condition of the power-constrained weighted-MSE problem
gives w_k = (H + lam*I)^-1 alpha_k q_k u_k hbar_k with H the weighted
channel Gram matrix. Working in H's positive eigenbasis makes the total
transmit power a closed-form function of the dual variable lam,
g(lam) = sum_i c_i / (d_i + lam)^2 over the positive eigenvalues d_i,
with c_i the weighted power each mode carries: the squared norm of the
right-hand sides' projection on mode i. A safeguarded Newton search on
g(lam)^-1/2 - p_max^-1/2, which is concave and increasing in lam (Moré
and Sorensen, "Computing a trust region step", SIAM J. Sci. Stat.
Comput. 1983), drives lam to the complementary-slackness point in a few
probes; a [lo, hi] bracket catches any step that leaves it.

The step has two implementations of one algorithm (Gram matrix,
Hermitian eigendecomposition, relative cutoff of the null space, dual
search, back-substitution). ``solve_beamforming_numpy`` is the numpy
reference: ``assemble_context`` (``np.linalg.eigh``), then
``optimal_dual`` per draw, then ``_stationary``.
``solve_beamforming_compiled`` runs the whole step for one draw or a
stack in one call to ``beamformer_run`` of the compiled library
(``_rmcg.c``, built and loaded by ``_kernels``): a cyclic Jacobi
eigendecomposition and a line-for-line port of the dual search, in one
packed argument struct and one buffer per call. The two agree to
rounding: on the same modes the dual searches take the same steps, but
the eigendecompositions round differently, and in ill-conditioned modes
w, lam and the probe count move by more than rounding while the
surrogate sum_k alpha_k q_k E_k does not. ``solve_beamforming``, which
the solver calls, is the compiled one where the library loaded
(``_kernels.JIT_ENABLED``) and the numpy reference otherwise; both make
the same checks and raise the same errors.
"""

from __future__ import annotations

import ctypes
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalError
from .wmmse import BeamformerSet

# Eigenvalues at or below this fraction of the largest one are treated as
# the null space; the Gram matrix has rank <= n_users in practice.
EIG_TRUNCATION_REL = 1e-12
# The dual search stops at a power within POWER_TOL_REL * p_max of the cap
# or a bracket narrower than LAMBDA_TOL_REL * lambda_max; constants, not
# options, since one value of each is in use. A power off the cap changes
# the WSR between outer iterations, so POWER_TOL_REL sits at the solver's
# MONOTONE_TOL_REL: at 1e-8 a desk solve logged a 4e-10 relative drop.
POWER_TOL_REL = 1e-12
LAMBDA_TOL_REL = 1e-12
# Relative slack on p_max for beamformers that are checked, not solved for:
# the bracket end lambda_max, and the solver's starting beamformers (a
# warm start, solve_fixed's w0).
POWER_SLACK_REL = 1e-9


@dataclass(frozen=True)
class LagrangianContext:
    """Eigen-factorized data of one beamforming subproblem, or of a stack
    of them along leading axes (one per draw of a batch): what
    ``beamformers_at``, the power curve and the dual search read.

    Users are stacked as the rows of the (n_users, n_tx) effective channel
    hbar, so every field below comes from products of matrices. The
    weighted channel Gram matrix (hbar^T * scale) @ conj(hbar), scale_k =
    alpha_k q_k |u_k|^2, is formed only to be factorized, and the
    right-hand sides rhs_k = alpha_k q_k u_k hbar_k only in the eigenbasis.

    The modes of the null space (eigenvalues at or below
    ``EIG_TRUNCATION_REL`` of the largest) are masked, not dropped: their
    eigenvalue is +inf and their coefficient 0, so they add exact zeros to
    the beamformers and the power curve, and draws of different rank share
    one stack. Per draw:

    eigvecs  : (n_tx, n_tx) eigenvectors, ascending in their eigenvalues
    eigvals  : (n_tx,) eigenvalues, ascending; +inf on the null space
    rhs_proj : (n_tx, n_users) eigvecs^H rhs^T, the right-hand sides in
               the eigenbasis: (eigvecs^H hbar^T) diag(alpha_k q_k u_k)
    mode_coef: (n_tx,) squared row norms of rhs_proj, the power-curve
               numerators c_i = sum_k alpha_k^2 q_k^2 |u_k|^2
               |(eigvecs^H hbar_k)_i|^2; 0 on the null space
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    rhs_proj: np.ndarray
    mode_coef: np.ndarray

    def draw(self, index: int) -> "LagrangianContext":
        """The context of draw ``index`` of a stack, as views."""
        return LagrangianContext(self.eigvecs[index], self.eigvals[index],
                                 self.rhs_proj[index], self.mode_coef[index])


def assemble_context(hbar: np.ndarray, decoders: np.ndarray,
                     mse_weights: np.ndarray, weights: np.ndarray) -> LagrangianContext:
    """Build and eigen-factorize the subproblem data, of one draw or of a
    stack: hbar (..., n_users, n_tx), decoders and mse_weights (...,
    n_users), weights (n_users,).

    The right-hand sides lie in the span of the positive modes by
    construction, so masking the null space leaves the solve exact.
    """
    u = np.asarray(decoders, dtype=complex)
    q = np.asarray(mse_weights, dtype=float)
    alpha = np.asarray(weights, dtype=float)
    if not q.min() > 0:   # NaN fails too
        raise ValueError("surrogate weights must be positive")
    aq = alpha * q
    scale = aq * np.abs(u) ** 2
    hbar_t = hbar.swapaxes(-1, -2)
    # eigh reads only the lower triangle and the real part of the diagonal,
    # so the product's rounding above the diagonal needs no symmetrization
    gram = (hbar_t * scale[..., None, :]) @ np.conj(hbar)
    try:
        eigvals, eigvecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of the Gram matrix failed") from exc
    # (n_tx, n_users) per draw, column k = alpha_k q_k u_k eigvecs^H hbar_k
    rhs_proj = (np.conj(eigvecs).swapaxes(-1, -2) @ hbar_t) * (aq * u)[..., None, :]
    mode_coef = (np.abs(rhs_proj) ** 2).sum(axis=-1)
    # eigh sorts ascending, so the null space is a prefix of each draw's
    # modes; a largest eigenvalue at or below 0 puts every mode in it
    null = eigvals <= EIG_TRUNCATION_REL * eigvals[..., -1:]
    eigvals[null] = np.inf
    mode_coef[null] = 0.0
    return LagrangianContext(eigvecs, eigvals, rhs_proj, mode_coef)


def beamformers_at(lam, ctx: LagrangianContext) -> BeamformerSet:
    """Stationary beamformers (H + lam*I)^-1 rhs_k via the eigenbasis,
    with one dual value per draw of a stacked context (lam of shape
    ctx.eigvals.shape[:-1]). Masked modes divide by +inf and add zeros, so
    without positive modes the result is the (n_users, n_tx) zero."""
    lam = np.asarray(lam, dtype=float)
    if (lam < 0).any():
        raise ValueError("dual variable must be nonnegative")
    return _stationary(lam[..., None], ctx)


def _stationary(lam, ctx: LagrangianContext) -> BeamformerSet:
    """``beamformers_at`` without its check, for dual values that
    ``optimal_dual`` found: a float for one draw, a (..., 1) column for a
    stack."""
    w = ctx.eigvecs @ (ctx.rhs_proj / (ctx.eigvals + lam)[..., None])
    return BeamformerSet(w.swapaxes(-1, -2))


def _power_and_slope(lam: float, c: list, d: list) -> tuple[float, float]:
    """g(lam) and g'(lam) in one pass over the modes, as plain floats."""
    g = slope = 0.0
    for ci, di in zip(c, d):
        r = 1.0 / (di + lam)
        t = ci * r * r
        g += t
        slope += t * r
    return g, -2.0 * slope


def power_g(lam: float, ctx: LagrangianContext) -> float:
    """Total transmit power of beamformers_at(lam), evaluated in closed form."""
    if lam < 0:
        raise ValueError("dual variable must be nonnegative")
    return _power_and_slope(lam, ctx.mode_coef.tolist(), ctx.eigvals.tolist())[0]


def lambda_upper_bound(ctx: LagrangianContext, p_max: float) -> float:
    """Smallest dual value guaranteed to satisfy the power cap."""
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    return math.sqrt(float(ctx.mode_coef.sum()) / p_max)


def dual_search(c: list, d: list, p_max: float, lam_max: float, lam0: float,
                power_tol: float, lam_tol: float) -> tuple[float, int]:
    """Root of g(lam) = p_max on [0, lam_max], from lam0, where
    g(lam) = sum_i c_i / (d_i + lam)^2.

    Newton steps on g^-1/2 - p_max^-1/2; a step that leaves the current
    bracket becomes its midpoint. Stops when |g - p_max| <= power_tol, or
    when the bracket is narrower than lam_tol or has no double strictly
    inside, then returning its feasible end.
    Returns (lam, n_probes), one probe per evaluation of g.
    """
    lo, hi = 0.0, lam_max
    lam = lam0
    probes = 0
    while hi - lo > lam_tol:
        probes += 1
        g, slope = _power_and_slope(lam, c, d)
        if abs(g - p_max) <= power_tol:
            return lam, probes
        if g > p_max:
            lo = lam
        else:
            hi = lam
        step = lam + 2.0 * g * (1.0 - math.sqrt(g / p_max)) / slope
        lam = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < lam < hi:
            # lo and hi are adjacent doubles: the bracket cannot shrink
            break
    return hi, probes


def optimal_dual(ctx: LagrangianContext, p_max: float) -> tuple[float, int]:
    """The dual value of one draw's subproblem and the probes spent on it.

    If the unconstrained solution already fits the budget, it is 0 with no
    probes; otherwise ``dual_search`` finds it until the power matches
    p_max within ``POWER_TOL_REL`` * p_max or its bracket shrinks below
    ``LAMBDA_TOL_REL`` * lambda_max. It starts from max(0, max_i sqrt(c_i /
    p_max) - d_i): each mode alone bounds the root from below, and from
    the left of the root the Newton iterates rise monotonically to it.
    The g(0) and g(lambda_max) checks are not counted as probes; they and
    the search evaluate g with ``_power_and_slope`` on c and d converted
    to floats once, the sum ``power_g`` also takes, without the masked
    modes, which add exact zeros to it.
    """
    c, d = ctx.mode_coef.tolist(), ctx.eigvals.tolist()
    n_null = d.count(math.inf)
    if n_null:
        c, d = c[n_null:], d[n_null:]
    if _power_and_slope(0.0, c, d)[0] <= p_max:
        return 0.0, 0
    lam_max = lambda_upper_bound(ctx, p_max)
    if _power_and_slope(lam_max, c, d)[0] > p_max * (1.0 + POWER_SLACK_REL):
        raise NumericalError("dual search bracket is invalid; upper bound violated")
    lam0 = max(0.0, *(math.sqrt(ci / p_max) - di for ci, di in zip(c, d)))
    return dual_search(c, d, p_max, lam_max, lam0,
                       POWER_TOL_REL * p_max, LAMBDA_TOL_REL * lam_max)


def solve_beamforming_numpy(hbar: np.ndarray, decoders: np.ndarray,
                            mse_weights: np.ndarray, weights: np.ndarray,
                            p_max) -> tuple[BeamformerSet, float | list, int | list]:
    """Solve the power-constrained subproblem to global optimality, of one
    draw or of each draw of a stack, with ``assemble_context``'s shapes:
    the numpy reference of ``solve_beamforming``.

    Returns (beamformers, lam_star, n_probes), lam_star and n_probes from
    ``optimal_dual``. On a (B, n_users, n_tx) stack, p_max holds one
    budget per draw, lam_star and n_probes are lists of one value per
    draw, and a budget count other than B raises ``ValueError``. The one
    context factorizes the whole stack; the dual search runs per draw, so
    each draw's values are those of its own call, bit for bit.
    """
    ctx = assemble_context(hbar, decoders, mse_weights, weights)
    if hbar.ndim == 2:
        lam, probes = optimal_dual(ctx, p_max)
        return _stationary(lam, ctx), lam, probes
    duals = [optimal_dual(ctx.draw(i), budget)
             for i, budget in zip(range(hbar.shape[0]), p_max, strict=True)]
    lam = [lam_b for lam_b, _ in duals]
    return _stationary(np.array(lam)[:, None], ctx), lam, [probes_b for _, probes_b in duals]


# beamformer_args of _rmcg.c, packed with its native layout: four int64 and
# four doubles, none padded
_ARGS = struct.Struct("4q4d")
# beamformer_run's failures, raised as the numpy reference raises them
_FAILURES = {1: (ValueError, "surrogate weights must be positive"),
             2: (NumericalError, "eigendecomposition of the Gram matrix failed"),
             3: (NumericalError, "dual search bracket is invalid; upper bound violated"),
             4: (ValueError, "p_max must be positive")}


def solve_beamforming_compiled(hbar: np.ndarray, decoders: np.ndarray,
                               mse_weights: np.ndarray, weights: np.ndarray,
                               p_max) -> tuple[BeamformerSet, float | list, int | list]:
    """``solve_beamforming_numpy``'s contract in one call to the compiled
    step, ``beamformer_run`` of ``_rmcg.c``, for one draw or a whole stack.

    One buffer carries the inputs in, the outputs out and the work space:
    hbar (overwritten with w), the decoders, the MSE weights, the user
    weights broadcast to one row per draw, the budgets (overwritten with
    the dual values) and the probes; see ``beamformer_run``.
    """
    stacked = hbar.ndim == 3
    n_users, n_tx = hbar.shape[-2:]
    n_draws = hbar.shape[0] if stacked else 1
    if stacked and len(p_max) != n_draws:
        raise ValueError(f"a stack of {n_draws} draws takes {n_draws} budgets, "
                         f"got {len(p_max)}")
    size = n_draws * n_users
    u_at = 2 * size * n_tx
    lam_at = u_at + 4 * size
    probes_at = lam_at + n_draws
    padded = -(-n_tx // _kernels._LANES) * _kernels._LANES
    raw = (ctypes.c_double * (probes_at + n_draws + 2 * (n_users + 2 * n_tx + 1) * padded
                              + 2 * n_tx * n_users + 3 * n_tx + 2 * n_users
                              + _kernels._LANES))()
    buf = np.frombuffer(raw)
    w = buf[:u_at].view(complex).reshape(hbar.shape)
    w[...] = hbar
    buf[u_at:u_at + 2 * size].view(complex).reshape(hbar.shape[:-1])[...] = decoders
    buf[u_at + 2 * size:u_at + 3 * size].reshape(hbar.shape[:-1])[...] = mse_weights
    buf[u_at + 3 * size:lam_at].reshape(hbar.shape[:-1])[...] = weights
    buf[lam_at:probes_at] = p_max
    status = _kernels._beamformer_run(
        _ARGS.pack(n_draws, n_users, n_tx, len(raw), EIG_TRUNCATION_REL, POWER_TOL_REL,
                   LAMBDA_TOL_REL, POWER_SLACK_REL), raw)
    if status:
        if status not in _FAILURES:
            raise RuntimeError("beamformer step's buffer is too small")
        error, message = _FAILURES[status]
        raise error(message)
    lam = buf[lam_at:probes_at].tolist()
    probes = np.frombuffer(raw, np.int64, n_draws, 8 * probes_at).tolist()
    if stacked:
        return BeamformerSet(w), lam, probes
    return BeamformerSet(w), lam[0], probes[0]


solve_beamforming = (solve_beamforming_compiled if _kernels.JIT_ENABLED
                     else solve_beamforming_numpy)
