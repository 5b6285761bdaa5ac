import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsopt import _kernels, desk_scenario
from irsopt.phaseopt import QuadraticForm
from irsopt.selfcheck import (block_scaled_form, check_kernel_parity, khatri_rao_cases,
                              khatri_rao_form, rounding_spread, run_all)
from irsopt.solver import MAX_INNER, PHASE_REL_TOL, SolverOptions
from tests.conftest import complex_normal

SRC = Path(__file__).resolve().parent.parent / "src"


def random_kernel_inputs(rng, size):
    """A full-rank factored form: a square F^H, N^2 entries like j_hat."""
    factor_h = complex_normal(rng, (size, size))
    z = complex_normal(rng, size)
    v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    return QuadraticForm.from_factor(factor_h, z, 1, size), v0


def run_core(fn, form, v0, tol=None, iters=300, rel_tol=0.0):
    if tol is None:
        tol = 1e-6 * np.sqrt(form.size)
    return fn(form, v0, tol, rel_tol, iters)


def factored_kernel_inputs(rng, size, rank):
    """The same PSD quadratic F F^H given by the (rank, size) factor F^H
    and by a dense one, the square (size, size) factor U sqrt(L) U^H of
    the eigendecomposition F F^H = U L U^H."""
    factor = complex_normal(rng, (size, rank))
    z = complex_normal(rng, size)
    form = QuadraticForm.from_factor(factor.conj().T, z, 1, size)
    eigvals, eigvecs = np.linalg.eigh(form.j_hat)
    root = (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.conj().T
    return form, QuadraticForm.from_factor(root, z, 1, size)


class TestKernelParity:
    def test_factored_and_dense_operators_agree(self, rng):
        # the same quadratic by a low-rank and by a dense square factor,
        # each run by the compiled kernel and by the numpy reference: all
        # must land on the same minimum and stay on the manifold; the sizes
        # include an empty form, and ranks and sizes that leave remainders
        # in the compiled kernel's row blocks and vector lanes
        for size, rank in ((3, 4), (8, 4), (17, 9), (1, 2), (1, 1), (6, 11),
                           (0, 3), (0, 1), (33, 5), (17, 7), (9, 2)):
            op_f, op_d = factored_kernel_inputs(rng, size, rank)
            assert op_f.rank == rank and op_d.rank == size
            v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
            finals = []
            for q_op in (op_f, op_d):
                for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
                    v, n, obj, _, _, _, conv = run_core(fn, q_op, v0, iters=2000)
                    assert conv
                    assert np.allclose(np.abs(v), 1.0, rtol=0.0, atol=1e-12)
                    finals.append(obj[n])
            assert np.allclose(finals, finals[0], rtol=1e-9, atol=0.0)

    def test_histories_are_monotone(self, rng):
        form, v0 = random_kernel_inputs(rng, 12)
        for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
            _, n, obj, grad, tang, failed, _ = run_core(fn, form, v0)
            diffs = np.diff(obj[:n + 1])
            assert np.all(diffs <= 1e-12 * np.maximum(np.abs(obj[:n]), 1.0))
            assert not failed
            assert tang < 1e-10

    def test_history_padding_is_nan(self, rng):
        form, v0 = random_kernel_inputs(rng, 5)
        for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
            _, n, obj, grad, _, _, _ = run_core(fn, form, v0, tol=1e-6, iters=300)
            assert n < 300
            assert obj.shape == grad.shape == (301,)
            assert np.all(np.isnan(obj[n + 1:]))
            assert np.all(np.isnan(grad[n + 1:]))
            assert not np.any(np.isnan(obj[:n + 1]))

    def test_both_kernels_reject_bad_arguments(self, rng):
        form, v0 = random_kernel_inputs(rng, 5)
        # f(v) = |v|^2 - 4 Re(v) is stationary at v = 1: its gradient is 0
        still = QuadraticForm.from_factor([[1.0]], [-2.0], 1, 1)
        for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
            with pytest.raises(ValueError, match="max_iters"):
                fn(form, v0, 0.0, 0.0, -1)
            for bad_rel in (np.nan, -0.1, 1.0):
                with pytest.raises(ValueError, match="rel_tol"):
                    fn(form, v0, 0.0, bad_rel, 10)
            # a NaN grad_tol would fail every stopping test and run to the cap
            for bad_grad in (np.nan, -1e-6):
                with pytest.raises(ValueError, match="grad_tol"):
                    fn(form, v0, bad_grad, 0.0, 10)
            for bad_v0 in (v0[:4], np.append(v0, 1.0)):
                with pytest.raises(ValueError, match="size"):
                    fn(form, bad_v0, 0.0, 0.0, 10)
            # a zero cap is allowed: the start point comes back
            v, n, obj, *_ = fn(form, v0, 0.0, 0.0, 0)
            assert n == 0 and obj.shape == (1,) and np.array_equal(v, v0)
            # so does an exactly stationary start, converged even at grad_tol 0
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                v, n, _, grad, _, failed, conv = fn(still, np.ones(1, complex),
                                                    0.0, 0.0, 100)
            assert n == 0 and grad[0] == 0.0 and conv and not failed
            assert np.array_equal(v, [1.0])

    @pytest.mark.parametrize("rel_tol", [0.0, 1e-2, 1e-1])
    def test_relative_tolerance_truncates_the_absolute_run(self, rng, rel_tol):
        # a run that ignores the gradient norm (grad_tol = rel_tol = 0) is
        # followed bit for bit up to the first iterate whose norm is at most
        # max(grad_tol, rel_tol ||grad_0||), where the descent stops converged;
        # rel_tol = 0 is the absolute rule alone
        for size, rank in ((40, 9), (120, 16)):
            form, _ = factored_kernel_inputs(rng, size, rank)
            v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
            grad_tol = 1e-2 * np.sqrt(size)
            stops = []
            for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
                _, n_ref, obj_ref, grad_ref, *_ = run_core(fn, form, v0, tol=0.0,
                                                           iters=1000)
                tol = max(grad_tol, rel_tol * grad_ref[0])
                below = np.flatnonzero(grad_ref[:n_ref + 1] <= tol)
                assert below.size, "the reference run never meets the tolerance"
                first = int(below[0])
                v, n, obj, grad, _, failed, conv = run_core(fn, form, v0, tol=grad_tol,
                                                            iters=1000, rel_tol=rel_tol)
                assert n == first and conv and not failed
                assert np.array_equal(obj[:n + 1], obj_ref[:n + 1])
                assert np.array_equal(grad[:n + 1], grad_ref[:n + 1])
                v_ref, *_ = run_core(fn, form, v0, tol=0.0, iters=first)
                assert np.array_equal(v, v_ref)
                stops.append(n)
            assert abs(stops[0] - stops[1]) <= 1

    def test_relative_tolerance_keeps_the_floor_on_a_nonfinite_start(self):
        # ||grad_0|| overflows to inf: the relative rule must not turn that
        # into an infinite tolerance, so the descent is not flagged converged
        form = QuadraticForm.from_factor([[1.0]], [1e200j], 1, 1)
        for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
            with np.errstate(all="ignore"):
                _, _, _, grad, _, _, conv = fn(form, np.ones(1, complex), 1e-6, 1e-2, 100)
            assert grad[0] == np.inf and not conv

    def test_nearly_constant_one_element_forms_converge(self, rng):
        # one element: the quadratic term is constant on the circle, so only
        # z (|z| = 141) sets the curvature along the path, far below the
        # trace (1.7e6); a first step scaled to the trace would crawl
        for _ in range(50):
            factor = complex_normal(rng, (1, 4))
            factor *= np.sqrt(1.7e6) / np.linalg.norm(factor)
            z = 141.0 * np.exp(2j * np.pi * rng.uniform(size=1))
            form = QuadraticForm.from_factor(factor.conj().T, z, 1, 1)
            v0 = np.exp(2j * np.pi * rng.uniform(size=1))
            for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
                _, n, _, _, _, failed, conv = run_core(fn, form, v0, iters=100)
                assert conv and not failed and n <= 10


def with_overflowing_pair(form, v0):
    """The block-scaled form with two more elements, and the start point
    extended to them. The pair's diagonal entries overflow the Hessian
    diagonal (F^H columns of four 2^511 entries, so Q_mm = 2^1024 = inf),
    but its columns are equal and the pair starts and stays at (u, -u),
    with z entries (w, -w), so that its products with x vanish exactly and
    the objective stays finite."""
    size, rank = form.size, form.rank
    pair = np.exp(0.7j) * np.array([1.0, -1.0])
    z = np.concatenate([form.z, 0.3 * np.exp(2.1j) * np.array([1.0, -1.0])])
    factor_h = np.zeros((rank + 4, size + 2), complex)
    factor_h[:rank, :size] = form.factor_h
    factor_h[rank:, size:] = 2.0 ** 511
    return (QuadraticForm.from_factor(factor_h, z, 1, size + 2),
            np.concatenate([v0, pair]))


def preconditioner_cases(case, seed):
    """(form, start, objective scale) for one of the three branches of the
    preconditioner, on a block-scaled form; the scale is
    trace(j_hat) + 2 |z|_1 of the block-scaled part."""
    rng = np.random.default_rng(seed)
    form = block_scaled_form(rng, 120, 36)
    scale = float(np.trace(form.j_hat).real) + 2.0 * float(np.sum(np.abs(form.z)))
    if case == "nonpositive max":
        # at the maximizer of the linear term every radial part exceeds 2 Q_mm
        v0 = form.z / np.abs(form.z)
    else:
        v0 = np.exp(2j * np.pi * rng.uniform(size=form.size))
    if case == "non-finite":
        form, v0 = with_overflowing_pair(form, v0)
    return form, v0, scale


class TestPreconditioner:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", ["floor", "non-finite", "nonpositive max"])
    def test_kernels_agree_on_each_branch(self, case, seed):
        # the floor binds (some 2 Q_mm - rad_m <= 0 < max), or the diagonal
        # is not finite, or its max is not positive (both fall back to the
        # plain gradient): on each, the compiled kernel and the numpy
        # reference follow one path and stop together
        form, v0, scale = preconditioner_cases(case, seed)
        with np.errstate(over="ignore"):
            hess = _kernels.hessian_diagonal(form, v0)
        if case == "floor":
            assert np.min(hess) <= 0.0 < np.max(hess)
        elif case == "non-finite":
            assert not np.all(np.isfinite(hess))
        else:
            assert np.max(hess) <= 0.0
        runs = []
        for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
            with np.errstate(over="ignore"):
                runs.append(run_core(fn, form, v0, rel_tol=PHASE_REL_TOL, iters=MAX_INNER))
        (_, n_a, obj_a, *_), (_, n_b, obj_b, *_) = runs
        k = min(n_a, n_b) + 1
        assert np.max(np.abs(obj_a[:k] - obj_b[:k])) <= 1e-9 * scale
        assert abs(n_a - n_b) <= 1
        for v, n, obj, grad, tang, failed, conv in runs:
            assert conv and not failed
            assert np.all(np.diff(obj[:n + 1]) <= 0.0)
            assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-12
            assert tang <= 1e-9 * np.max(grad[:n + 1])

    def test_block_scaled_descent_is_short(self):
        # one fixed block-scaled form at the solver's size (N = 240, K = 8):
        # both kernels take 20 iterations to the solver's relative
        # tolerance; with the plain gradient they took 57
        rng = np.random.default_rng(7)
        form = block_scaled_form(rng, 240, 64)
        v0 = np.exp(2j * np.pi * rng.uniform(size=form.size))
        for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
            _, n, *_, failed, conv = run_core(fn, form, v0, rel_tol=PHASE_REL_TOL,
                                              iters=MAX_INNER)
            assert conv and not failed and n <= 30


class TestKhatriRaoForms:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kernels_agree_on_assembled_shapes(self, seed):
        # forms as assembly hands them over (K_a, K_b > 1; K_b = 1; one
        # element; a zero-weight user), whose products the compiled kernel
        # takes from the operands: it takes the reference's steps and stops
        # with it
        rng = np.random.default_rng(seed)
        for form in khatri_rao_cases(rng):
            v0 = np.exp(2j * np.pi * rng.uniform(size=form.size))
            scale = (float(np.sum(np.abs(form.factor_h) ** 2))
                     + 2.0 * float(np.sum(np.abs(form.z))))
            runs = [run_core(fn, form, v0, rel_tol=PHASE_REL_TOL, iters=MAX_INNER)
                    for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy)]
            (_, n_a, obj_a, *_), (_, n_b, obj_b, *_) = runs
            k = min(n_a, n_b) + 1
            assert np.max(np.abs(obj_a[:k] - obj_b[:k])) <= 1e-9 * scale
            assert abs(n_a - n_b) <= 1
            for _, n, obj, _, _, failed, conv in runs:
                assert conv and not failed
                assert np.all(np.diff(obj[:n + 1]) <= 0.0)

    def test_expansion_runs_the_quadratic_of_factor_h(self, rng):
        # the compiled kernel on the two operands and on the F^H they
        # expand to, given as an arbitrary factor, runs one quadratic
        form = khatri_rao_form(rng, 37, 3, 5)
        flat = QuadraticForm.from_factor(form.factor_h, form.z, 1, form.size)
        v0 = np.exp(2j * np.pi * rng.uniform(size=form.size))
        (_, n_a, obj_a, *_), (_, n_b, obj_b, *_) = [
            _kernels.rmcg_core(op, v0, 0.0, 0.0, 10) for op in (form, flat)]
        assert n_a == n_b == 10
        assert np.allclose(obj_a, obj_b, rtol=1e-12, atol=0.0)

    def test_factor_h_is_the_broadcast_product(self, rng):
        form = khatri_rao_form(rng, 29, 4, 3)
        assert form.rank == 12
        assert np.array_equal(form.factor_h, (form.a_h[:, None, :] * form.b_h[None, :, :])
                              .reshape(12, 29))
        # the diagonal of Q is (sum_k |a_kn|^2)(sum_j |b_jn|^2)
        norms = [np.sum(np.abs(op) ** 2, axis=0) for op in (form.a_h, form.b_h)]
        assert np.allclose(np.diagonal(form.j_hat).real, norms[0] * norms[1],
                           rtol=1e-13, atol=0.0)

    def test_reference_takes_the_compiled_kernels_products(self, rng, monkeypatch):
        # the compiled kernel's accounting: an iteration with k trial points
        # takes F^H d for the first step's curvature, F^H x for each trial
        # point and F t for the accepted one alone, so k + 1 products F^H x
        # and one F t; a steep Armijo constant forces backtracking
        monkeypatch.setattr(_kernels, "ARMIJO_C", 0.9)
        form = khatri_rao_form(rng, 40, 3, 4)
        v0 = np.exp(2j * np.pi * rng.uniform(size=form.size))
        calls = []
        fh_product, f_product = QuadraticForm.fh_product, QuadraticForm.f_product

        def fh_spy(self, x):
            t = fh_product(self, x)
            on_circles = np.allclose(np.abs(x), 1.0, rtol=0.0, atol=1e-12)
            calls.append(("x" if on_circles else "d", t))
            return t

        def f_spy(self, t):
            calls.append(("F", t))
            return f_product(self, t)

        monkeypatch.setattr(QuadraticForm, "fh_product", fh_spy)
        monkeypatch.setattr(QuadraticForm, "f_product", f_spy)
        _, n, *_, failed, _ = _kernels.rmcg_core_numpy(form, v0, 0.0, 0.0, 10)
        assert n == 10 and not failed
        # the start, then per iteration d, the trial points and F t
        kinds = "".join(kind for kind, _ in calls)
        iterations = kinds.split("F")[1:-1]
        assert kinds.startswith("xF") and len(iterations) == n
        assert all(it[0] == "d" and set(it[1:]) == {"x"} for it in iterations)
        assert max(len(it) - 1 for it in iterations) > 1
        # F t reads the last trial point's F^H x
        assert all(calls[i][1] is calls[i - 1][1] and calls[i - 1][0] == "x"
                   for i, (kind, _) in enumerate(calls) if kind == "F")

    @pytest.mark.parametrize("n_a", [1, 2, 3, 5, 8, 9])
    def test_kernels_agree_on_ragged_shapes(self, n_a):
        # the compiled kernel tiles F^H x and F t over the rows of both
        # operands and runs over n in whole vectors of lanes: row counts and
        # sizes that leave remainders in every tile and lane, and no
        # element at all
        rng = np.random.default_rng(n_a)
        for n_b in (1, 2, 3, 4, 5, 8):
            for size in (0, 1, 7, 8, 9, 31, 33):
                form = khatri_rao_form(rng, size, n_a, n_b)
                v0 = np.exp(2j * np.pi * rng.uniform(size=size))
                scale = (float(np.sum(np.abs(form.factor_h) ** 2))
                         + 2.0 * float(np.sum(np.abs(form.z))))
                runs = [run_core(fn, form, v0, rel_tol=PHASE_REL_TOL, iters=MAX_INNER)
                        for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy)]
                (v_a, n_it_a, obj_a, *_), (_, n_it_b, obj_b, *_) = runs
                k = min(n_it_a, n_it_b) + 1
                assert np.max(np.abs(obj_a[:k] - obj_b[:k]), initial=0.0) <= 1e-9 * scale
                assert abs(n_it_a - n_it_b) <= 1
                assert np.all(np.abs(np.abs(v_a) - 1.0) <= 1e-12)

    @pytest.mark.skipif(not _kernels.JIT_ENABLED, reason="compiled kernel not loaded")
    def test_work_space_holds_the_operands_not_f_h(self, rng):
        # a fresh thread's work space grows by the planar copies of the two
        # operands, 2 (K_a + K_b) N_pad doubles with at most a tile's worth
        # of zero rows, plus O(N + K_a K_b): for a Khatri-Rao form that is
        # far below the 2 K_a K_b N doubles F^H itself takes, and a
        # from_factor form (K_b = 1) pays O((r + 1) N)
        size = 240
        padded = -(-size // _kernels._LANES) * _kernels._LANES
        for n_a, n_b in ((8, 8), (64, 1)):
            if n_b == 1:
                form = QuadraticForm.from_factor(complex_normal(rng, (n_a, size)),
                                                 complex_normal(rng, size), 1, size)
            else:
                form = khatri_rao_form(rng, size, n_a, n_b)
            v0 = np.exp(2j * np.pi * rng.uniform(size=size))
            grown = []

            def call():
                _kernels.rmcg_core_compiled(form, v0, 0.0, 0.0, 3)
                grown.append(_kernels._workspaces.work[0].size)

            thread = threading.Thread(target=call)
            thread.start()
            thread.join()
            assert len(grown) == 1
            assert grown[0] <= 2 * (n_a + n_b + 16) * padded + 32 * size + 4 * n_a * n_b + 64
            if n_b > 1:
                assert grown[0] < 2 * n_a * n_b * size

    @pytest.mark.skipif(not _kernels.JIT_ENABLED, reason="compiled kernel not loaded")
    def test_work_space_is_reused(self, rng):
        # a thread's work space only grows: a call no larger than an
        # earlier one allocates nothing
        large, small = khatri_rao_form(rng, 96, 4, 4), khatri_rao_form(rng, 40, 4, 4)
        runs = [(form, np.exp(2j * np.pi * rng.uniform(size=form.size)))
                for form in (large, small)]
        _kernels.rmcg_core_compiled(*runs[0], 0.0, 0.0, 5)
        work = _kernels._workspaces.work
        for form, v0 in runs * 2:
            _kernels.rmcg_core_compiled(form, v0, 0.0, 0.0, 5)
            assert _kernels._workspaces.work is work

    def test_concurrent_calls_match_serial_ones(self):
        # the kernel drops the GIL: two threads, each on its own full-sized
        # form (N = 240 and 480, K = 8), must get the serial results bit for
        # bit, so no work space is shared
        rng = np.random.default_rng(11)
        calls = []
        for size in (240, 480):
            form = khatri_rao_form(rng, size, 8, 8)
            v0 = np.exp(2j * np.pi * rng.uniform(size=size))
            calls.append((form, v0, 0.0, PHASE_REL_TOL, MAX_INNER))
        serial = [_kernels.rmcg_core(*call) for call in calls]
        mismatches, done = [], []

        def worker(call, expected):
            for _ in range(50):
                got = _kernels.rmcg_core(*call)
                if not all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                           for a, b in zip(got, expected)):
                    mismatches.append(call[0].size)
            done.append(call[0].size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=pair)
                       for pair in zip(calls, serial)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [240, 480] and not mismatches


@st.composite
def factored_operators(draw):
    """Factored forms F F^H as the solver hands them to the kernel, over
    size, rank (also above the size), the scales of F and z, and z inside
    or outside range(F); with a unit-modulus start."""
    size = draw(st.integers(1, 300))
    rank = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f_scale = 10.0 ** draw(st.floats(-8.0, 2.0))
    z_scale = 10.0 ** draw(st.floats(-8.0, 2.0))
    factor = f_scale * complex_normal(rng, (size, rank))
    if draw(st.booleans()):
        z = factor @ (z_scale / f_scale * complex_normal(rng, rank))
    else:
        z = z_scale * complex_normal(rng, size)
    v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    return QuadraticForm.from_factor(factor.conj().T, z, 1, size), v0


class TestFactoredProperties:
    @settings(max_examples=100, deadline=None)
    @given(factored_operators())
    def test_descent_on_factored_operators(self, problem):
        q_op, v0 = problem
        dense = q_op.j_hat
        trace = float(np.trace(dense).real)
        scale = trace + 2.0 * float(np.sum(np.abs(q_op.z)))
        v, n, obj, _, _, _, _ = _kernels.rmcg_core(q_op, v0, 0.0, 0.0, 60)
        assert np.all(np.diff(obj[:n + 1]) <= 0.0)
        at_v = np.vdot(v, dense @ v).real + 2.0 * np.vdot(v, q_op.z).real
        assert abs(obj[n] - at_v) <= 1e-10 * scale
        assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-12
        # the first iterations take the reference's steps: as close to it as
        # the reference is to itself under other rounding, or 1e-9 of the
        # scale
        _, n_c, obj_c, *_ = _kernels.rmcg_core(q_op, v0, 0.0, 0.0, 5)
        obj_r, spread, _ = rounding_spread(q_op, v0, 5)
        k = min(n_c + 1, obj_r.size)
        assert np.all(np.abs(obj_c[:k] - obj_r[:k]) <= 1e-9 * scale + 10.0 * spread[:k])


class TestParityCheck:
    @pytest.mark.parametrize("seed", [3, 5, 17, 18, 19])
    def test_validate_passes_where_the_reference_splits_a_tie(self, seed):
        # on each of these seeds one form's relative stopping test falls on
        # either side of a rounding tie: the compiled kernel stops 2 to 4
        # iterations from the reference, within the reference's own range of
        # stops on copies of the problem that differ only in rounding
        failed = [result for result in run_all(seed) if not result.ok]
        assert not failed, failed

    @pytest.mark.parametrize("wrong", ["stops early", "other objective"])
    def test_a_wrong_kernel_fails(self, monkeypatch, wrong):
        reference = _kernels.rmcg_core_numpy

        def kernel(form, v0, grad_tol, rel_tol, max_iters):
            if wrong == "stops early":
                return reference(form, v0, grad_tol, min(10.0 * rel_tol, 0.5), max_iters)
            other = QuadraticForm(form.a_h, form.b_h, (1.0 + 1e-6) * form.z, 1, form.size)
            return reference(other, v0, grad_tol, rel_tol, max_iters)

        monkeypatch.setattr(_kernels, "rmcg_core", kernel)
        assert not check_kernel_parity(np.random.default_rng(0)).ok


def _subprocess_env(**overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update(overrides)
    return env


needs_compiler = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None
    and shutil.which("clang") is None, reason="no C compiler on PATH")


class TestEnvFlag:
    def test_no_compiler_falls_back_with_warning(self, tmp_path):
        code = ("import logging; logging.basicConfig(format='%(levelname)s %(message)s'); "
                "import numpy as np, irsopt; from irsopt import _kernels; "
                "print(_kernels.JIT_ENABLED, "
                "_kernels.rmcg_core is _kernels.rmcg_core_numpy); "
                "s = irsopt.desk_scenario(); "
                "_, _, trace = irsopt.solve(s, irsopt.draw_channels(s, np.random.default_rng(0))); "
                "print(np.isfinite(trace.wsr[-1]))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=tmp_path,
                             env=_subprocess_env(PATH="", XDG_CACHE_HOME=str(tmp_path)))
        assert out.stdout.split() == ["False", "True", "True"]
        assert "WARNING compiled descent kernel unavailable" in out.stderr
        assert not list(tmp_path.iterdir())

    @needs_compiler
    def test_concurrent_first_imports_share_one_build(self, tmp_path):
        # two interpreters start on the same empty cache: both build, the
        # renames are atomic, and both load a complete library
        code = "from irsopt import _kernels; print(_kernels.JIT_ENABLED)"
        env = _subprocess_env(XDG_CACHE_HOME=str(tmp_path))
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for _ in range(2)]
        try:
            outs = [proc.communicate(timeout=300) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert [proc.returncode for proc in procs] == [0, 0]
        assert [o.strip() for o, _ in outs] == ["True", "True"], outs
        built = sorted(p.name for p in (tmp_path / "irsopt").iterdir())
        assert len(built) == 1 and built[0].endswith(".so"), built

    @needs_compiler
    def test_source_builds_without_warnings(self, tmp_path):
        # the kernel's own flags plus every common warning, as errors
        proc = subprocess.run([_kernels._compiler(), *_kernels._CFLAGS, "-Wall",
                               "-Wextra", "-Werror", "-o", str(tmp_path / "rmcg.so"),
                               str(_kernels._SOURCE)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    @needs_compiler
    def test_new_build_prunes_stale_builds(self, tmp_path):
        # builds for an older source, compiler or CPU go; a temporary file
        # may belong to a concurrent build and stays
        cache = tmp_path / "irsopt"
        cache.mkdir()
        stale = ["rmcg-00000000000000000000.so", "rmcg-11111111111111111111.so"]
        for name in stale:
            (cache / name).write_bytes(b"not a library")
        (cache / "rmcg-22222222222222222222.abc.tmp").write_bytes(b"")
        code = "from irsopt import _kernels; print(_kernels.JIT_ENABLED)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=300,
                             env=_subprocess_env(XDG_CACHE_HOME=str(tmp_path)))
        assert out.stdout.strip() == "True", out.stderr
        left = sorted(p.name for p in cache.iterdir())
        built = [name for name in left if name.endswith(".so")]
        assert len(built) == 1 and built[0] not in stale, left
        assert "rmcg-22222222222222222222.abc.tmp" in left

    @pytest.mark.skipif(not _kernels.JIT_ENABLED, reason="compiled kernel not loaded")
    def test_build_pruned_before_loading_is_rebuilt(self, tmp_path, monkeypatch):
        builds = []
        real_build = _kernels._build

        def build():
            builds.append(None)
            # the first build is pruned by another process before it loads
            return tmp_path / "rmcg-pruned.so" if len(builds) == 1 else real_build()

        monkeypatch.setattr(_kernels, "_build", build)
        assert callable(_kernels._load())
        assert len(builds) == 2

    def test_default_state_is_consistent(self):
        if _kernels.JIT_ENABLED:
            assert _kernels.rmcg_core is not _kernels.rmcg_core_numpy
        else:
            assert _kernels.rmcg_core is _kernels.rmcg_core_numpy


def test_bench_kernels_script_runs(tmp_path):
    script = SRC.parent / "benchmarks" / "bench_kernels.py"
    out = subprocess.run([sys.executable, str(script), "--sizes", "8,16",
                          "--repeats", "2", "--users", "2"],
                         capture_output=True, text=True, timeout=300,
                         cwd=tmp_path, env=_subprocess_env())
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    kernels = ["compiled", "numpy"] if _kernels.JIT_ENABLED else ["numpy"]
    # iterations and time per call to the solver's tolerance
    assert lines[0].startswith("Khatri-Rao forms, two K = 2 operands")
    assert lines[1].split() == ["size"] + [word for name in kernels
                                           for what in ("iters", "us")
                                           for word in (what, name)]
    rows = [line.split() for line in lines[2:4]]
    assert [row[0] for row in rows] == ["8", "16"]
    for row in rows:
        assert len(row) == 1 + 2 * len(kernels)
        iters, us = [int(w) for w in row[1::2]], [float(w) for w in row[2::2]]
        assert all(0 < n <= MAX_INNER for n in iters)
        assert all(t > 0.0 for t in us)
    # assembly at the full preset's two element counts
    assert lines[4].startswith("assemble_quadratic, one full draw")
    assert lines[5].split() == ["size", "us", "faults"]
    rows = [line.split() for line in lines[6:]]
    assert [row[0] for row in rows] == ["240", "480"]
    assert all(float(row[1]) > 0.0 and float(row[2]) >= 0.0 for row in rows)


def test_bench_outer_script_runs(tmp_path):
    script = SRC.parent / "benchmarks" / "bench_outer.py"
    for compare, variants in (("starts", ["random_start", "energy_start"]),
                              ("loops", ["plain", "extrapolated"])):
        out = subprocess.run([sys.executable, str(script), "--compare", compare,
                              "--presets", "desk", "--draws", "3", "--seed", "5"],
                             capture_output=True, text=True, timeout=300,
                             cwd=tmp_path, env=_subprocess_env())
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0].startswith("desk: 3 draws, seed 5, max_outer 100")
        assert lines[1].split() == ["variant", "outer", "max", "caps", "wsr_nats",
                                    "served", "ms_solve", "us_outer", "channel_us",
                                    "decoder_us", "beamformer_us", "assembly_us",
                                    "descent_us"]
        rows = [line.split() for line in lines[2:4]]
        assert [row[0] for row in rows] == variants
        for row in rows:
            mean, top, caps = float(row[1]), int(row[2]), int(row[3])
            assert 1.0 <= mean <= top <= SolverOptions().max_outer
            assert 0 <= caps <= 3 and float(row[4]) > 0.0
            assert 0.0 <= float(row[5]) <= desk_scenario().n_users
            # a solve takes at least one outer iteration (up to print rounding)
            ms_solve, us_outer = float(row[6]), float(row[7])
            assert 0.0 < us_outer <= 1e3 * ms_solve + 1.0
            # the five SolveTrace layers, each within the outer iteration's time
            layers = [float(x) for x in row[8:]]
            assert len(layers) == 5
            assert all(0.0 <= x <= us_outer for x in layers)
        assert lines[4].startswith(f"paired wsr ({variants[1]} minus {variants[0]}): mean ")
        assert "standard error" in lines[4] and "lose more than 0.001 relative" in lines[4]
        # one line per losing draw, with the users each variant serves
        n_lost = int(lines[4].split(" and ")[-1].split()[0])
        assert len(lines) == 6 + n_lost
        assert all(line.startswith("  draw ") and "served [" in line for line in lines[5:-1])
        # then the mean time of making one draw's scenario and channels
        setup = lines[-1].split()
        assert setup[0] == "setup_ms" and float(setup[1]) > 0.0
        assert lines[-1].endswith("per draw (ring_scenario plus draw_channels)")


@needs_compiler
def test_bench_build_script_runs(tmp_path):
    script = SRC.parent / "benchmarks" / "bench_build.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=300, cwd=tmp_path, env=_subprocess_env())
    assert out.returncode == 0, out.stderr
    fields = dict(line.split(" ", 1) for line in out.stdout.splitlines())
    assert list(fields) == ["source", "command", "compile_s", "peak_rss_mb"]
    assert fields["source"] == str(_kernels._SOURCE)
    assert fields["command"].split()[1:] == list(_kernels._CFLAGS)
    assert float(fields["compile_s"]) > 0.0 and float(fields["peak_rss_mb"]) > 0.0
    # the build went to a temporary directory, not the working directory
    assert not list(tmp_path.iterdir())
