import numpy as np
import pytest

from irsopt import ChannelSet


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_channels(rng, n_irs, n_elements, n_users, n_tx) -> ChannelSet:
    """Unit-scale random channel set (no geometry, for algebra tests)."""
    return ChannelSet(
        complex_normal(rng, (n_users, n_tx)),
        complex_normal(rng, (n_irs, n_elements, n_tx)),
        complex_normal(rng, (n_irs, n_users, n_elements)),
    )


def random_wmmse_instance(rng, n_users, n_tx, noise_span=(-2, 0)):
    """Random (hbar, W, alpha, noise) tuple for rate/MSE identities."""
    hbar = complex_normal(rng, (n_users, n_tx))
    w = complex_normal(rng, (n_users, n_tx))
    alpha = rng.uniform(0.2, 2.0, n_users)
    noise = 10.0 ** rng.uniform(*noise_span)
    return hbar, w, alpha, noise


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)



def convex_oracle(hbar, u, q, alpha, noise, p_max):
    """Minimum of sum_k alpha_k q_k E_k over ||w||^2 <= p_max, certified by
    numpy alone, with E_k = |u_k|^2 (sum_j |hbar_k^H w_j|^2 + noise)
    - 2 Re(conj(u_k) hbar_k^H w_k) + 1 written out from the MSE definition.

    In the 2 n_users n_tx real coordinates x = (Re w, Im w) / sqrt(p_max),
    which put the budget on the unit ball, the objective is a convex
    quadratic f(x) = x'Ax/2 + b'x + c. A, b and c are read off its values
    at 0, e_i and e_i + e_j, exactly for a quadratic up to rounding.
    Accelerated projected gradient with adaptive restart then minimizes it
    over the ball until the linearization gap r'x + ||r|| (r the gradient
    at x), an upper bound on f(x) - min f, is at most 1e-8 |f(x)|;
    RuntimeError if it never is.
    """
    gap_rel, max_iters = 1e-8, 100_000
    shape = hbar.shape
    n = 2 * shape[0] * shape[1]
    scale = np.sqrt(p_max)

    def objective(x):
        w = scale * (x[..., :n // 2] + 1j * x[..., n // 2:]).reshape(*x.shape[:-1], *shape)
        gains = w @ np.conj(hbar).T                        # (..., j, k) = hbar_k^H w_j
        received = np.sum(np.abs(gains) ** 2, axis=-2)     # (..., k)
        own = np.diagonal(gains, axis1=-2, axis2=-1)       # (..., k)
        mse = np.abs(u) ** 2 * (received + noise) - 2.0 * np.real(np.conj(u) * own) + 1.0
        return mse @ (alpha * q)

    eye = np.eye(n)
    c = float(objective(np.zeros(n)))
    f_e = objective(eye)
    i, j = np.triu_indices(n)
    a = np.empty((n, n))
    a[i, j] = a[j, i] = objective(eye[i] + eye[j]) - f_e[i] - f_e[j] + c  # i == j: 2 e_i
    b = f_e - c - 0.5 * np.diag(a)
    step = 1.0 / max(np.linalg.eigvalsh(a)[-1], 1e-300)

    def project(x):
        norm = np.linalg.norm(x)
        return x / norm if norm > 1.0 else x

    x = y = np.zeros(n)
    t = 1.0
    for _ in range(max_iters):
        r = a @ x + b
        if r @ x + np.linalg.norm(r) <= gap_rel * abs(0.5 * x @ (r + b) + c):
            return float(objective(x))
        x_next = project(y - step * (a @ y + b))
        if (y - x_next) @ (x_next - x) > 0:   # restart the momentum
            x = y = x_next
            t = 1.0
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
    raise RuntimeError(f"convex_oracle: linearization gap above {gap_rel:g} of |f| "
                       f"after {max_iters} iterations")
