"""Phase-shift optimization over the product of unit circles.

With decoders, weights, and beamformers held fixed, the weighted-MSE
objective is an explicit Hermitian quadratic in the stacked reflection
vector. Its matrix ``j_hat`` is a Hadamard product of two positive
semidefinite matrices, so it is itself PSD and equals ``F F^H`` for a
(size, n_users**2) factor ``F`` (Schur product theorem). Assembly builds
``F``, and the conjugate-gradient descent in ``_kernels`` runs on the
matrix-free product ``F (F^H v)``: the dense matrix is formed only when a
caller reads ``j_hat``. Since the quadratic is already convex, no shift is
needed; an optional ``omega I`` adds omega * size on the manifold and
leaves the constrained minimizer where it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channels import UNIT_MODULUS_TOL, ChannelSet, PhaseConfig
from .wmmse import _w_matrix


class QuadraticForm:
    """f(v) = v^H (j_hat + omega I) v + 2 Re(v^H z), plus bookkeeping.

    The form holds either a dense Hermitian ``j_hat`` or, with
    ``j_hat=None``, a ``factor`` F with j_hat = F F^H; ``j_hat`` is then
    formed (once) on first read. const_term collects the terms of the
    weighted MSE that do not depend on the phases, so that for any
    unit-modulus v

        f(v) + const_term - omega * size == sum_k alpha_k q_k E_k.
    """

    def __init__(self, j_hat, z, omega, const_term, n_irs, n_elements, *,
                 factor=None):
        if (j_hat is None) == (factor is None):
            raise ValueError("give exactly one of j_hat and factor")
        self._j_hat = j_hat
        self.factor = factor
        # F^H stored C-contiguous: np.dot on it beats a transposed view
        self._factor_h = (None if factor is None
                          else np.ascontiguousarray(np.conj(factor).T))
        self.z = z
        self.omega = float(omega)
        self.const_term = const_term
        self.n_irs = n_irs
        self.n_elements = n_elements

    @property
    def size(self) -> int:
        return self.n_irs * self.n_elements

    @property
    def j_hat(self) -> np.ndarray:
        if self._j_hat is None:
            self._j_hat = self.factor @ self._factor_h
        return self._j_hat

    def matvec(self, v) -> np.ndarray:
        """j_hat @ v, without forming j_hat for a factored form."""
        if self.factor is None:
            return self._j_hat @ v
        return np.dot(self.factor, np.dot(self._factor_h, v))

    def shifted_trace(self) -> float:
        """trace(j_hat + omega I); O(size * rank) for a factored form."""
        if self.factor is None:
            diag = np.trace(self._j_hat).real
        else:
            diag = np.vdot(self.factor, self.factor).real
        return float(diag + self.omega * self.size)

    def operator(self):
        """j_hat + omega I for the descent kernel, which applies it with
        ``@``: a matrix-free operator for a factored form, the dense array
        for a dense one."""
        if self.factor is not None:
            return _FactoredOperator(self.factor, self._factor_h, self.omega)
        if not self.omega:
            return self._j_hat
        q_mat = np.array(self._j_hat, dtype=complex)
        q_mat.flat[::self.size + 1] += self.omega
        return q_mat


class _FactoredOperator:
    """F F^H + omega I, applied matrix-free: ``@`` takes a vector."""

    __slots__ = ("_f", "_fh", "_omega")

    def __init__(self, factor, factor_h, omega):
        self._f, self._fh, self._omega = factor, factor_h, omega

    def __matmul__(self, v):
        out = np.dot(self._f, np.dot(self._fh, v))
        if self._omega:
            out += self._omega * v
        return out


def assemble_quadratic(channels: ChannelSet, beamformers, decoders,
                       mse_weights, weights, noise_power: float,
                       omega: float = 0.0) -> QuadraticForm:
    """Collect the weighted MSE into a factored quadratic in the stacked
    phases.

    Column (k, j) of the factor is sqrt(alpha_k q_k |u_k|^2) h_{l,k} o
    conj(G_l w_j), rows stacked (surface, element). omega is an optional
    diagonal shift; the factored quadratic is PSD without one.
    """
    w = _w_matrix(beamformers)
    u = np.asarray(decoders, dtype=complex)
    q = np.asarray(mse_weights, dtype=float)
    alpha = np.asarray(weights, dtype=float)
    g = channels.g_bs_irs          # (L, M, n_tx)
    h_ru = channels.h_irs_user     # (L, K, M)
    h = channels.h_direct          # (K, n_tx)
    n_irs, n_el = channels.n_irs, channels.n_elements
    n_users = u.shape[0]
    size = n_irs * n_el

    aq = alpha * q
    w_gram = w.T @ np.conj(w)      # sum_k w_k w_k^H, (n_tx, n_tx)

    # Phase-independent part: aq_k * (|u_k|^2 (h_k^H W h_k + noise) - 2 Re(u_k w_k^H h_k) + 1)
    quad_direct = np.einsum("ka,ab,kb->k", np.conj(h), w_gram, h).real
    e_direct = u * np.sum(np.conj(w) * h, axis=1)
    const = float(np.sum(aq * (np.abs(u) ** 2 * (quad_direct + noise_power)
                               - 2.0 * e_direct.real + 1.0)))

    # Quadratic factor: F[(l,m), (k,j)] = sqrt(aq_k |u_k|^2) h_{l,k}[m] conj((G_l w_j)[m])
    cu = aq * np.abs(u) ** 2
    if np.any(cu < 0):
        raise ValueError("rate weights and MSE weights must be nonnegative")
    gwk = np.einsum("lma,ka->lkm", g, w)                 # (G_l w_k)[m]
    left = (np.sqrt(cu)[:, None] * h_ru).transpose(0, 2, 1)   # (L, M, K)
    right = np.conj(gwk).transpose(0, 2, 1)                   # (L, M, K)
    factor = (left[..., :, None] * right[..., None, :]).reshape(size, n_users ** 2)

    # Linear term from the diagonals of the direct-cross blocks.
    gw = np.einsum("lma,ab->lmb", g, w_gram)             # G_l @ W-gram
    gwh = np.einsum("lma,ka->lkm", gw, h)                # (G_l W h_k)[m]
    z_lkm = h_ru * (np.abs(u) ** 2)[None, :, None] * np.conj(gwh)
    z_lkm -= h_ru * u[None, :, None] * np.conj(gwk)
    z = np.einsum("k,lkm->lm", aq, z_lkm).reshape(size)

    return QuadraticForm(None, z, omega, const, n_irs, n_el, factor=factor)


def _phase_vector(phases) -> np.ndarray:
    if isinstance(phases, PhaseConfig):
        return phases.v_hat
    v = np.asarray(phases, dtype=complex).reshape(-1)
    if v.size and np.max(np.abs(np.abs(v) - 1.0)) > UNIT_MODULUS_TOL:
        raise ValueError("phase vector must be unit modulus")
    return v


def objective(form: QuadraticForm, phases) -> float:
    """Quadratic value at a feasible point; the shift contributes exactly
    omega * size for any unit-modulus argument."""
    v = _phase_vector(phases)
    if v.size != form.size:
        raise ValueError("phase vector length does not match the form")
    if v.size == 0:
        return 0.0
    return float(np.vdot(v, form.matvec(v)).real
                 + form.omega * form.size
                 + 2.0 * np.vdot(v, form.z).real)


def euclidean_gradient(form: QuadraticForm, v) -> np.ndarray:
    """Ambient gradient 2 (j_hat + omega I) v + 2 z; valid at any point."""
    v = np.asarray(v if not isinstance(v, PhaseConfig) else v.v_hat,
                   dtype=complex).reshape(-1)
    return 2.0 * (form.matvec(v) + form.omega * v + form.z)


def project_tangent(base, vec) -> np.ndarray:
    """Project vec onto the tangent space at a unit-modulus point:
    vec - Re(conj(vec) o base) o base. Idempotent."""
    v = _phase_vector(base)
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    return vec - np.real(np.conj(vec) * v) * v


def retract(v_plus, n_irs: int, n_elements: int) -> PhaseConfig:
    """Entrywise normalization back onto the circles; zero entries are
    degenerate and rejected."""
    v = np.asarray(v_plus, dtype=complex).reshape(-1)
    mags = np.abs(v)
    if np.any(mags == 0.0):
        raise ValueError("cannot retract a vector with zero entries")
    return PhaseConfig(v / mags, n_irs, n_elements)


@dataclass(frozen=True)
class RmcgTrace:
    """Inner-iteration record of one conjugate-gradient run."""

    objectives: np.ndarray   # length n_iters + 1, objective before/after each step
    grad_norms: np.ndarray   # Riemannian gradient norms at the same points
    n_iters: int
    converged: bool
    line_search_failed: bool
    tangency_residual: float  # worst Re(x o conj(v)) over gradients/directions


def rmcg_solve(form: QuadraticForm, init: PhaseConfig, *,
               grad_tol: float | None = None,
               max_iters: int = 100,
               initial_step: float | None = None,
               shrink: float = 0.5,
               armijo_c: float = 1e-4,
               max_backtracks: int = 40) -> tuple[PhaseConfig, RmcgTrace]:
    """Minimize the quadratic over the circle manifold from ``init``.

    grad_tol defaults to 1e-6 * sqrt(size); initial_step to
    0.5 / trace(j_hat + omega I), an upper bound on 0.5 / lambda_max of
    the PSD quadratic that costs O(size * rank) for a factored form. The
    kernel multiplies by the form's own representation, so a factored
    form never becomes a dense matrix here. The returned objective
    sequence is non-increasing; if the line search stalls the incumbent is
    returned with the failure flagged.
    """
    if init.size != form.size:
        raise ValueError("initial point does not match the form size")
    if form.size == 0:
        empty = np.array([0.0])
        return init, RmcgTrace(empty, np.array([0.0]), 0, True, False, 0.0)
    if grad_tol is None:
        grad_tol = 1e-6 * np.sqrt(form.size)
    if initial_step is None:
        trace_q = form.shifted_trace()
        initial_step = 0.5 / trace_q if trace_q > 0 else 1.0
    v, n_iters, obj_hist, grad_hist, tang_res, failed, converged = _kernels.rmcg_core(
        form.operator(),
        np.ascontiguousarray(form.z),
        np.ascontiguousarray(init.v_hat),
        float(grad_tol), int(max_iters), float(initial_step),
        float(shrink), float(armijo_c), int(max_backtracks))
    trace = RmcgTrace(objectives=obj_hist[:n_iters + 1],
                      grad_norms=grad_hist[:n_iters + 1],
                      n_iters=int(n_iters),
                      converged=bool(converged),
                      line_search_failed=bool(failed),
                      tangency_residual=float(tang_res))
    return PhaseConfig(v, form.n_irs, form.n_elements), trace
