import subprocess
import sys

import numpy as np

from irsopt import _kernels
from irsopt.phaseopt import QuadraticForm
from tests.conftest import complex_normal


def random_kernel_inputs(rng, size):
    a = complex_normal(rng, (size, size))
    j_hat = 0.5 * (a + a.conj().T)
    omega = float(np.max(np.sum(np.abs(j_hat), axis=1)))
    q_mat = j_hat + omega * np.eye(size)
    z = complex_normal(rng, size)
    v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    step0 = 0.5 / max(float(np.max(np.sum(np.abs(q_mat), axis=1))), 1e-300)
    return q_mat, z, v0, step0


def run_core(fn, q_mat, z, v0, step0, tol=None, iters=300):
    if tol is None:
        tol = 1e-6 * np.sqrt(z.size)
    return fn(q_mat, z, v0, tol, iters, step0, 0.5, 1e-4, 40)


def factored_kernel_inputs(rng, size, rank, omega):
    """The same PSD quadratic F F^H + omega I as a matrix-free operator
    and as a dense matrix."""
    factor = complex_normal(rng, (size, rank))
    z = complex_normal(rng, size)
    form = QuadraticForm(None, z, omega, 0.0, 1, size, factor=factor)
    dense = QuadraticForm(form.j_hat, z, omega, 0.0, 1, size)
    return form.operator(), dense.operator(), z


class TestKernelParity:
    def test_factored_and_dense_operators_agree(self, rng):
        # one kernel, two representations of the same quadratic: both must
        # land on the same minimum and stay on the manifold
        for size, rank, omega in ((3, 4, 0.0), (8, 4, 0.0), (17, 9, 1.5)):
            op_f, op_d, z = factored_kernel_inputs(rng, size, rank, omega)
            assert not isinstance(op_f, np.ndarray)
            assert isinstance(op_d, np.ndarray)
            v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
            step0 = 0.5 / np.trace(op_d).real
            v_a, n_a, obj_a, _, _, _, conv_a = run_core(
                _kernels.rmcg_core, op_f, z, v0, step0, iters=2000)
            v_b, n_b, obj_b, _, _, _, conv_b = run_core(
                _kernels.rmcg_core, op_d, z, v0, step0, iters=2000)
            assert conv_a and conv_b
            assert np.isclose(obj_a[n_a], obj_b[n_b], rtol=1e-9)
            assert np.allclose(np.abs(v_a), 1.0, atol=1e-12)
            assert np.allclose(np.abs(v_b), 1.0, atol=1e-12)

    def test_histories_are_monotone(self, rng):
        q_mat, z, v0, step0 = random_kernel_inputs(rng, 12)
        for fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
            _, n, obj, grad, tang, failed, _ = run_core(fn, q_mat, z, v0, step0)
            diffs = np.diff(obj[:n + 1])
            assert np.all(diffs <= 1e-12 * np.maximum(np.abs(obj[:n]), 1.0))
            assert not failed
            assert tang < 1e-10

    def test_history_padding_is_nan(self, rng):
        q_mat, z, v0, step0 = random_kernel_inputs(rng, 5)
        _, n, obj, grad, _, _, _ = run_core(_kernels.rmcg_core_numpy, q_mat, z,
                                            v0, step0, tol=1e-6, iters=300)
        assert np.all(np.isnan(obj[n + 1:]))
        assert np.all(np.isnan(grad[n + 1:]))


class TestEnvFlag:
    def test_flag_disables_jit_in_subprocess(self):
        code = ("import os; os.environ['IRSOPT_NO_NUMBA'] = '1'; "
                "from irsopt import _kernels; "
                "print(_kernels.JIT_ENABLED, "
                "_kernels.rmcg_core is _kernels.rmcg_core_numpy)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False True"

    def test_default_state_is_consistent(self):
        if _kernels.JIT_ENABLED:
            assert _kernels.rmcg_core is not _kernels.rmcg_core_numpy
        else:
            assert _kernels.rmcg_core is _kernels.rmcg_core_numpy
