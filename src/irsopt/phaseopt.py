"""Phase-shift optimization over the product of unit circles.

With decoders, weights, and beamformers held fixed, the weighted-MSE
objective is an explicit Hermitian quadratic in the stacked reflection
vector. Its matrix Q (``j_hat``) is a Hadamard product of two positive
semidefinite matrices, so it is itself PSD and equals ``F F^H`` for a
(size, n_users**2) factor ``F`` (Schur product theorem). Each row of
``F^H`` is the entrywise product of a row of two (n_users, size)
operands, so ``F^H`` is their Khatri-Rao product. Assembly forms the two
operands and ``z``, and ``QuadraticForm`` keeps them and takes every
product from them (F^H x, F t and the diagonal of Q), never forming F^H
or Q; both descent kernels in ``_kernels`` take the same steps on those
products. The quadratic is already convex, so the form carries no shift.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .channels import ChannelSet, PhaseConfig, is_unit_modulus
from .wmmse import _w_matrix


def _frozen(a) -> np.ndarray:
    """A read-only, C-contiguous complex copy of ``a`` that the caller
    cannot write through. Every array is copied: numpy lets the owner of
    a read-only array make it writable again."""
    a = np.array(a, dtype=complex, order="C")
    a.setflags(write=False)
    return a


class QuadraticForm:
    """f(v) = v^H Q v + 2 Re(v^H z), with Q = j_hat = F F^H.

    The form holds the linear term ``z`` and two operands of F^H, ``a_h``
    (K_a, size) and ``b_h`` (K_b, size), size = n_irs * n_elements: F^H is
    their Khatri-Rao product, whose row k K_b + j is a_h[k] o b_h[j] entry
    by entry, so ``rank`` is K_a K_b. That is all the form stores, and
    every product is taken from the two operands: ``fh_product`` (F^H x),
    ``f_product`` (F t), ``evaluate`` (f and F^H x), ``diagonal`` (of Q)
    and ``@`` (Q x = F (F^H x)); the compiled kernel reads the arrays at
    ``addresses`` and takes the same products in C. ``factor_h`` (F^H)
    and ``j_hat`` are formed anew on each read, for checks. ``from_factor``
    gives the form of an arbitrary F^H: a_h = F^H and b_h one row of ones.

    The form is immutable: its arrays are read-only copies of the ones it
    is given, so a descent always runs the quadratic the form describes.
    The copies share one read-only block, rows a_h, then b_h, then z, so a
    form costs one allocation and one address lookup; ``a_h``, ``b_h`` and
    ``z`` are C-contiguous views of it, and ``addresses`` holds their
    three addresses.
    The terms of the weighted MSE that do not depend on the phases are
    ``quadratic_constant``'s, so that for any unit-modulus v

        f(v) + quadratic_constant(...) == sum_k alpha_k q_k E_k.
    """

    __slots__ = ("a_h", "b_h", "z", "n_irs", "n_elements", "size", "rank", "addresses")

    def __init__(self, a_h, b_h, z, n_irs, n_elements):
        size = n_irs * n_elements
        a_h, b_h, z = np.asarray(a_h), np.asarray(b_h), np.asarray(z)
        for name, factor in (("a_h", a_h), ("b_h", b_h)):
            if factor.ndim != 2 or factor.shape[1] != size:
                raise ValueError(f"{name} must be (rows, {size})")
        if z.shape != (size,):
            raise ValueError(f"z must be a vector of length {size}")
        ka, kb = len(a_h), len(b_h)
        block = np.empty((ka + kb + 1, size), dtype=complex)
        block[:ka] = a_h
        block[ka:-1] = b_h
        block[-1] = z
        block.setflags(write=False)
        address, row = block.ctypes.data, block.strides[0]
        for name, value in zip(self.__slots__, (
                block[:ka], block[ka:-1], block[-1], n_irs, n_elements, size, ka * kb,
                (address, address + ka * row, address + (ka + kb) * row))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_factor(cls, factor_h, z, n_irs, n_elements) -> QuadraticForm:
        """The form whose F^H is ``factor_h`` (rank, size): a_h = factor_h,
        b_h one row of ones."""
        return cls(factor_h, np.ones((1, n_irs * n_elements)), z, n_irs, n_elements)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticForm is immutable")

    def fh_product(self, x) -> np.ndarray:
        """F^H x as a (K_a, K_b) array, t[k, j] = sum_n a_h[k, n] b_h[j, n]
        x_n; (K_a, M, K_b) for M points stacked as the rows of x."""
        a_h = self.a_h if x.ndim == 1 else self.a_h[:, None, :]
        return (a_h * x) @ self.b_h.T

    def f_product(self, t) -> np.ndarray:
        """F t = sum_k conj(a_h[k]) o (t @ conj(b_h))[k] for a ``fh_product``
        t, taken as a conjugate so that no operand is conjugated."""
        a_h = self.a_h if t.ndim == 2 else self.a_h[:, None, :]
        out = np.sum(a_h * (np.conj(t) @ self.b_h), axis=0)
        return np.conjugate(out, out=out)

    def evaluate(self, x) -> tuple[float, np.ndarray]:
        """f(x) = ||t||^2 + 2 Re(z^H x) and t = F^H x, from which
        ``f_product`` gives Q x."""
        t = self.fh_product(x)
        return np.vdot(t, t).real + 2.0 * np.vdot(x, self.z).real, t

    def diagonal(self) -> np.ndarray:
        """The diagonal of Q: (sum_k |a_h[k]|^2) o (sum_j |b_h[j]|^2)."""
        norms = [np.sum(op.real ** 2 + op.imag ** 2, axis=0) for op in (self.a_h, self.b_h)]
        return norms[0] * norms[1]

    def __matmul__(self, x) -> np.ndarray:
        """Q x as F (F^H x), for x (size,) or a block (size, M) of M columns."""
        return self.f_product(self.fh_product(np.asarray(x).T)).T

    @property
    def factor_h(self) -> np.ndarray:
        return _frozen((self.a_h[:, None, :] * self.b_h).reshape(self.rank, self.size))

    @property
    def j_hat(self) -> np.ndarray:
        factor_h = self.factor_h
        return _frozen(factor_h.conj().T @ factor_h)


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
    a_h = channels.h_t_conj * np.sqrt(cu)[:, None]
    b_h = gw.T

    # Linear term from the diagonals of the direct-cross blocks.
    w_gram = w.T @ np.conj(w)                   # sum_j w_j w_j^H, (n_tx, n_tx)
    y = (w_gram @ channels.h_direct.T) * cu - w.T * np.conj(aq * u)
    z = (h_t.T * np.conj(g @ y)).sum(axis=1)

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
    """Quadratic value at a feasible point, ||F^H v||^2 + 2 Re(v^H z)."""
    v = _phase_vector(phases)
    if v.size != form.size:
        raise ValueError("phase vector length does not match the form")
    return float(form.evaluate(v)[0])


def euclidean_gradient(form: QuadraticForm, v) -> np.ndarray:
    """Ambient gradient 2 F (F^H v) + 2 z; valid at any point."""
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
