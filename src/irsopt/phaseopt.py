"""Phase-shift optimization over the product of unit circles.

With decoders, weights, and beamformers held fixed, the weighted-MSE
objective is an explicit Hermitian quadratic in the stacked reflection
vector. Its matrix ``j_hat`` is a Hadamard product of two positive
semidefinite matrices, so it is itself PSD and equals ``F F^H`` for a
(size, n_users**2) factor ``F`` (Schur product theorem). Each row of
``F^H`` is the entrywise product of a row of two (n_users, size)
operands, so ``F^H`` is their Khatri-Rao product. Assembly forms the two
operands and ``z``, and ``QuadraticForm`` keeps them: the one operator
the conjugate-gradient descent in ``_kernels`` runs, matrix-free. The
compiled kernel never forms ``F^H``: it takes each product from the two
operands, which it copies once per call into its own reused work space
(which never leaves it, so the form stays immutable), scores each
line-search candidate by ||F^H x||^2 (one pass over the operands) and
forms ``F (F^H v)`` only for the accepted point, where the gradient needs
it, as a second pass. ``F^H`` as a numpy array, and the dense matrix,
are formed only when a caller reads ``factor_h`` or ``j_hat``. The quadratic is
already convex, so the form carries no shift.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .channels import ChannelSet, PhaseConfig, is_unit_modulus
from .wmmse import _w_matrix


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only, C-contiguous complex array the caller cannot
    write through: a read-only array that owns its data, as assembly hands
    over, is kept as is, and any other is copied."""
    a = np.asarray(a)
    if (a.flags.writeable or a.base is not None or a.dtype != complex
            or not a.flags.c_contiguous):
        a = np.array(a, dtype=complex, order="C")
        a.setflags(write=False)
    return a


class QuadraticForm:
    """f(v) = v^H j_hat v + 2 Re(v^H z), with j_hat = F F^H.

    The form holds the linear term ``z`` and two operands of F^H, ``a_h``
    (K_a, size) and ``b_h`` (K_b, size), size = n_irs * n_elements: F^H is
    their Khatri-Rao product, whose row k K_b + j is a_h[k] o b_h[j] entry
    by entry, so ``rank`` is K_a K_b. That is all the form stores. The
    compiled kernel reads the C-contiguous complex arrays ``a_h``, ``b_h``
    and ``z`` at ``addresses`` and takes its products from the two
    operands, without F^H. ``factor_h`` (F^H, one numpy broadcast
    product) and ``j_hat`` are formed when first read,
    and kept; the numpy reference kernel runs the form through ``@``,
    which applies j_hat as F (F^H v) without forming it (F is never
    stored: F t = conj((F^H)^T conj(t))). ``from_factor`` gives the form
    of an arbitrary F^H: a_h = F^H and b_h one row of ones.

    The form is immutable: its arrays are read-only, and one the caller
    could still write through is copied, so a descent always runs the
    quadratic the form describes. The terms of the weighted MSE that do
    not depend on the phases are ``quadratic_constant``'s, so that for any
    unit-modulus v

        f(v) + quadratic_constant(...) == sum_k alpha_k q_k E_k.
    """

    __slots__ = ("a_h", "b_h", "z", "n_irs", "n_elements", "size", "rank", "addresses",
                 "_factor_h", "_j_hat")

    def __init__(self, a_h, b_h, z, n_irs, n_elements):
        size = n_irs * n_elements
        a_h, b_h, z = _frozen(a_h), _frozen(b_h), _frozen(z)
        for name, factor in (("a_h", a_h), ("b_h", b_h)):
            if factor.ndim != 2 or factor.shape[1] != size:
                raise ValueError(f"{name} must be (rows, {size})")
        if z.shape != (size,):
            raise ValueError(f"z must be a vector of length {size}")
        for name, value in zip(self.__slots__, (
                a_h, b_h, z, n_irs, n_elements, size, a_h.shape[0] * b_h.shape[0],
                (a_h.ctypes.data, b_h.ctypes.data, z.ctypes.data), None, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_factor(cls, factor_h, z, n_irs, n_elements) -> QuadraticForm:
        """The form whose F^H is ``factor_h`` (rank, size): a_h = factor_h,
        b_h one row of ones."""
        return cls(factor_h, np.ones((1, n_irs * n_elements)), z, n_irs, n_elements)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticForm is immutable")

    @property
    def factor_h(self) -> np.ndarray:
        if self._factor_h is None:
            factor_h = np.empty((self.rank, self.size), complex)
            np.multiply(self.a_h[:, None, :], self.b_h[None, :, :],
                        out=factor_h.reshape(len(self.a_h), *self.b_h.shape))
            factor_h.setflags(write=False)
            object.__setattr__(self, "_factor_h", factor_h)
        return self._factor_h

    @property
    def j_hat(self) -> np.ndarray:
        if self._j_hat is None:
            j_hat = self.factor_h.conj().T @ self.factor_h
            j_hat.setflags(write=False)
            object.__setattr__(self, "_j_hat", j_hat)
        return self._j_hat

    def __matmul__(self, v) -> np.ndarray:
        """j_hat v, as F (F^H v), without forming j_hat."""
        out = np.dot(self.factor_h.T, np.dot(self.factor_h, v).conj())
        return np.conjugate(out, out=out)


def assemble_quadratic(channels: ChannelSet, beamformers, decoders,
                       mse_weights, weights, noise_power: float) -> QuadraticForm:
    """Collect the phase-dependent part of the weighted MSE into a
    factored quadratic in the stacked phases; ``quadratic_constant`` gives
    the rest. ``noise_power`` enters only the constant, so the form does
    not read it; it is taken so that both functions share one signature.

    The surfaces' links are read stacked, in ``v_hat`` order, from the
    channel set: g = ``channels.g`` (N, n_tx) and h_t = ``channels.h_t``
    (K, N), N = n_irs * n_elements. With GW = g W^T, column (k, j) of F
    is sqrt(alpha_k q_k |u_k|^2) h_t[k] o conj(GW[:, j]), so row (k, j)
    of F^H is a_h[k] o b_h[j], with the (K, N) operands
    a_h = conj(h_t) o sqrt(alpha q |u|^2) (row k scaled) and b_h = GW^T
    that the form stores; F^H itself (K^2 x N) is never formed here. The
    linear term is z = sum_k h_t[k] o conj(g y_k) with
    y_k = alpha_k q_k (|u_k|^2 W_gram h_k - conj(u_k) w_k).
    """
    w = _w_matrix(beamformers)
    u = np.asarray(decoders, dtype=complex)
    aq = np.asarray(weights, dtype=float) * np.asarray(mse_weights, dtype=float)
    cu = aq * np.abs(u) ** 2
    if not cu.min() >= 0:   # NaN fails too
        raise ValueError("rate weights and MSE weights must be nonnegative")
    g, h_t = channels.g, channels.h_t

    # F^H[(k, j), n] = a_h[k, n] b_h[j, n]
    gw = g @ w.T                                # (N, K), GW[(l,m), j] = (G_l w_j)[m]
    a_h = np.conj(h_t) * np.sqrt(cu)[:, None]
    b_h = gw.T

    # Linear term from the diagonals of the direct-cross blocks.
    w_gram = w.T @ np.conj(w)                   # sum_j w_j w_j^H, (n_tx, n_tx)
    y = (w_gram @ channels.h_direct.T) * cu - w.T * np.conj(aq * u)
    z = np.sum(h_t.T * np.conj(g @ y), axis=1)

    return QuadraticForm(a_h, b_h, z, channels.n_irs, channels.n_elements)


def quadratic_constant(channels: ChannelSet, beamformers, decoders,
                       mse_weights, weights, noise_power: float) -> float:
    """The part of the weighted MSE that does not depend on the phases:
    sum_k aq_k (|u_k|^2 (sum_j |D_kj|^2 + noise) - 2 Re(u_k conj(D_kk)) + 1)
    with aq_k = alpha_k q_k and the direct gains D = conj(h) W^T. For any
    unit-modulus v, objective(assemble_quadratic(args), v) plus this is
    sum_k alpha_k q_k E_k."""
    w = _w_matrix(beamformers)
    u = np.asarray(decoders, dtype=complex)
    aq = np.asarray(weights, dtype=float) * np.asarray(mse_weights, dtype=float)
    cu = aq * np.abs(u) ** 2
    gains = np.conj(channels.h_direct) @ w.T    # D_kj = h_k^H w_j
    return float(np.sum(cu * (np.sum(gains.real ** 2 + gains.imag ** 2, axis=1)
                              + noise_power)
                        - 2.0 * aq * (u * np.conj(np.diagonal(gains))).real + aq))


def _phase_vector(phases) -> np.ndarray:
    if isinstance(phases, PhaseConfig):
        return phases.v_hat
    v = np.asarray(phases, dtype=complex).reshape(-1)
    if not is_unit_modulus(v):
        raise ValueError("phase vector must be unit modulus")
    return v


def objective(form: QuadraticForm, phases) -> float:
    """Quadratic value at a feasible point."""
    v = _phase_vector(phases)
    if v.size != form.size:
        raise ValueError("phase vector length does not match the form")
    if v.size == 0:
        return 0.0
    return float(np.vdot(v, form @ v).real + 2.0 * np.vdot(v, form.z).real)


def euclidean_gradient(form: QuadraticForm, v) -> np.ndarray:
    """Ambient gradient 2 j_hat v + 2 z; valid at any point."""
    v = np.asarray(v if not isinstance(v, PhaseConfig) else v.v_hat,
                   dtype=complex).reshape(-1)
    return 2.0 * (form @ v + form.z)


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


class RmcgTrace(NamedTuple):
    """Inner-iteration record of one conjugate-gradient run. One is built
    per descent, so it is a named tuple, which costs less to build than a
    frozen dataclass."""

    objectives: np.ndarray   # length n_iters + 1, objective before/after each step
    grad_norms: np.ndarray   # Riemannian gradient norms at the same points
    n_iters: int
    converged: bool
    line_search_failed: bool
    tangency_residual: float  # worst Re(x o conj(v)) over gradients/directions


def rmcg_solve(form: QuadraticForm, init: PhaseConfig, *,
               grad_tol: float | None = None, rel_tol: float = 0.0,
               max_iters: int = 100) -> tuple[PhaseConfig, RmcgTrace]:
    """Minimize the quadratic over the circle manifold from ``init``.

    The descent stops once the Riemannian gradient norm is at most
    max(grad_tol, rel_tol * ||grad_0||), with grad_0 the gradient at
    ``init``, or after max_iters iterations; ``converged`` reports that
    test. grad_tol defaults to 1e-6 * sqrt(size); rel_tol in [0, 1)
    defaults to 0, the absolute floor alone. Each search direction is
    the conjugate-gradient direction of the gradient scaled entrywise by
    the inverse diagonal of the Riemannian Hessian, 2 Q_mm - Re(conj(g_m)
    v_m) with g the ambient gradient (floored; see ``_kernels``), while
    the stopping test reads the unscaled gradient. Each line search
    starts at the minimizer of the second-order model of the objective
    along the retraction, so no step size is given; its Armijo constants
    are ``_kernels``' module constants, not arguments. The kernel runs
    the form itself, so ``j_hat`` is never formed here; its argument
    check raises ``ValueError`` for an ``init`` of another size, a NaN or
    negative grad_tol, a rel_tol outside [0, 1) or a negative max_iters. The
    returned objective sequence is non-increasing; if the line search
    stalls the incumbent is returned with the failure flagged.
    """
    if grad_tol is None:
        grad_tol = 1e-6 * math.sqrt(form.size)
    # both kernels return Python scalars, in RmcgTrace's types
    v, n_iters, obj_hist, grad_hist, tang_res, failed, converged = _kernels.rmcg_core(
        form, init.v_hat, float(grad_tol), float(rel_tol), int(max_iters))
    end = n_iters + 1
    return (PhaseConfig(v, form.n_irs, form.n_elements),
            RmcgTrace(obj_hist[:end], grad_hist[:end], n_iters, converged, failed,
                      tang_res))
