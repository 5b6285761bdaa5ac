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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# the bracket end lambda_max, and the solver's warm-start beamformers.
POWER_SLACK_REL = 1e-9


@dataclass(frozen=True)
class LagrangianContext:
    """Eigen-factorized data of one beamforming subproblem: what
    ``beamformers_at``, the power curve and the dual search read.

    Users are stacked as the rows of the (n_users, n_tx) effective channel
    hbar, so every field below comes from products of 2-D arrays. The
    weighted channel Gram matrix (hbar^T * scale) @ conj(hbar), scale_k =
    alpha_k q_k |u_k|^2, is formed only to be factorized, and the
    right-hand sides rhs_k = alpha_k q_k u_k hbar_k only in the eigenbasis.

    eigvecs  : (n_tx, n_pos) eigenvectors of the positive eigenvalues
    eigvals  : (n_pos,) positive eigenvalues, ascending
    rhs_proj : (n_pos, n_users) eigvecs^H rhs^T, the right-hand sides in
               the eigenbasis: (eigvecs^H hbar^T) diag(alpha_k q_k u_k)
    mode_coef: (n_pos,) squared row norms of rhs_proj, the power-curve
               numerators c_i = sum_k alpha_k^2 q_k^2 |u_k|^2
               |(eigvecs^H hbar_k)_i|^2
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    rhs_proj: np.ndarray
    mode_coef: np.ndarray


def assemble_context(hbar: np.ndarray, decoders: np.ndarray,
                     mse_weights: np.ndarray, weights: np.ndarray) -> LagrangianContext:
    """Build and eigen-factorize the subproblem data.

    Only the positive-eigenvalue block is materialized; the right-hand
    sides lie in its span by construction, so the reduced solve is exact.
    """
    u = np.asarray(decoders, dtype=complex)
    q = np.asarray(mse_weights, dtype=float)
    alpha = np.asarray(weights, dtype=float)
    if not q.min() > 0:   # NaN fails too
        raise ValueError("surrogate weights must be positive")
    scale = alpha * q * np.abs(u) ** 2
    # eigh reads only the lower triangle and the real part of the diagonal,
    # so the product's rounding above the diagonal needs no symmetrization
    gram = (hbar.T * scale) @ np.conj(hbar)
    try:
        eigvals, eigvecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of the Gram matrix failed") from exc
    # eigh sorts ascending, so the eigenvalues above the cutoff are a suffix
    cutoff = EIG_TRUNCATION_REL * max(float(eigvals[-1]), 0.0)
    n_null = int(np.searchsorted(eigvals, cutoff, side="right"))
    eigvals = eigvals[n_null:]
    eigvecs = eigvecs[:, n_null:]
    # (n_pos, n_users), column k = alpha_k q_k u_k eigvecs^H hbar_k
    rhs_proj = (np.conj(eigvecs).T @ hbar.T) * (alpha * q * u)
    mode_coef = (np.abs(rhs_proj) ** 2).sum(axis=1)
    return LagrangianContext(eigvecs, eigvals, rhs_proj, mode_coef)


def beamformers_at(lam: float, ctx: LagrangianContext) -> BeamformerSet:
    """Stationary beamformers (H + lam*I)^-1 rhs_k via the eigenbasis.
    Without positive modes the product has an empty inner dimension and
    is the (n_users, n_tx) zero."""
    if lam < 0:
        raise ValueError("dual variable must be nonnegative")
    w = ctx.eigvecs @ (ctx.rhs_proj / (ctx.eigvals + lam)[:, None])
    return BeamformerSet(w.T)


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


def solve_beamforming(hbar: np.ndarray, decoders: np.ndarray,
                      mse_weights: np.ndarray, weights: np.ndarray,
                      p_max: float) -> tuple[BeamformerSet, float, int]:
    """Solve the power-constrained subproblem to global optimality.

    Returns (beamformers, lam_star, n_probes). If the unconstrained
    solution already fits the budget, lam_star = 0 with no probes;
    otherwise ``dual_search`` finds lam_star until the power matches p_max
    within ``POWER_TOL_REL`` * p_max or its bracket shrinks below
    ``LAMBDA_TOL_REL`` * lambda_max. It starts from max(0, max_i sqrt(c_i /
    p_max) - d_i): each mode alone bounds the root from below, and from
    the left of the root the Newton iterates rise monotonically to it.
    The g(0) and g(lambda_max) checks are not counted as probes; they and
    the search evaluate g with ``_power_and_slope`` on c and d converted
    to floats once, the sum ``power_g`` also takes.
    """
    ctx = assemble_context(hbar, decoders, mse_weights, weights)
    c, d = ctx.mode_coef.tolist(), ctx.eigvals.tolist()
    if _power_and_slope(0.0, c, d)[0] <= p_max:
        return beamformers_at(0.0, ctx), 0.0, 0
    lam_max = lambda_upper_bound(ctx, p_max)
    if _power_and_slope(lam_max, c, d)[0] > p_max * (1.0 + POWER_SLACK_REL):
        raise NumericalError("dual search bracket is invalid; upper bound violated")
    lam0 = max(0.0, *(math.sqrt(ci / p_max) - di for ci, di in zip(c, d)))
    lam, probes = dual_search(c, d, p_max, lam_max, lam0,
                              POWER_TOL_REL * p_max, LAMBDA_TOL_REL * lam_max)
    return beamformers_at(lam, ctx), lam, probes
