"""Rate and mean-square-error computations with the closed-form updates
that tie the weighted sum rate to its weighted-MSE surrogate.

Rates are kept in nats throughout; conversion to bits happens only at the
reporting layer. For scalar receive filters the chain is

    u_k = hbar_k^H w_k / (sum_j |hbar_k^H w_j|^2 + noise)      (MMSE decoder)
    E_k = |u_k|^2 (sum_j |hbar_k^H w_j|^2 + noise)
          - 2 Re(u_k^* hbar_k^H w_k) + 1
    q_k = 1 / E_k

after which the surrogate sum_k alpha_k (log q_k - q_k E_k + 1) equals the
weighted sum rate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class BeamformerSet:
    """Transmit beamformers, row k holding w_k; a stack of sets along
    leading axes (one per draw of a batch) is one (..., n_users, n_tx)
    array."""

    w: np.ndarray  # (..., n_users, n_tx)

    def __post_init__(self):
        w = np.array(self.w, dtype=complex)
        if w.ndim < 2:
            raise ValueError("beamformers must be an (..., n_users, n_tx) array")
        if not np.isfinite(w).all():
            raise ValueError("beamformers contain non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def total_power(self):
        """Summed power of the set: a float, or one per set of a stack."""
        power = (np.abs(self.w) ** 2).sum(axis=(-2, -1))
        return float(power) if power.ndim == 0 else power


@dataclass(frozen=True)
class WmmseState:
    """Per-user decoders, surrogate weights, and MSE values."""

    decoders: np.ndarray   # (n_users,) complex
    mse_weights: np.ndarray  # (n_users,) positive real
    mse: np.ndarray        # (n_users,) positive real


def _w_matrix(beamformers) -> np.ndarray:
    if isinstance(beamformers, BeamformerSet):
        return beamformers.w
    return np.asarray(beamformers, dtype=complex)


def cross_gains(hbar: np.ndarray, beamformers) -> np.ndarray:
    """Matrix of complex gains, entry (k, j) = hbar_k^H w_j; on stacks
    (..., n_users, n_tx) one matrix per draw."""
    return np.conj(hbar) @ _w_matrix(beamformers).swapaxes(-1, -2)


def gain_terms(gains: np.ndarray, noise_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Each user's signal gain s_k = hbar_k^H w_k and received power
    t_k = sum_j |hbar_k^H w_j|^2 + noise, from the cross-gain matrix.

    Every rate, decoder and MSE at a point is a closed-form function of
    these two vectors, so a caller that needs several of them forms the
    gains once. The public helpers below check noise_power; this does not.
    The signal gains are a read-only view of the diagonal of ``gains``.
    Leading axes of ``gains`` are draws of a batch; this and the other
    ``*_from_terms`` helpers act on each draw's last axis alone.
    """
    return (gains.diagonal(0, -2, -1),
            (np.abs(gains) ** 2).sum(axis=-1) + noise_power)


def rates_from_terms(signal: np.ndarray, total: np.ndarray) -> np.ndarray:
    """ln(1 + SINR_k) from ``gain_terms``' signal gains and received powers."""
    power = np.abs(signal) ** 2
    return np.log1p(power / (total - power))


def mse_from_terms(decoders: np.ndarray, signal: np.ndarray,
                   total: np.ndarray) -> np.ndarray:
    """Each user's MSE under the scalar decoders, from ``gain_terms``' output."""
    u = np.asarray(decoders, dtype=complex)
    return np.abs(u) ** 2 * total - 2.0 * (np.conj(u) * signal).real + 1.0


def compute_rates(hbar: np.ndarray, beamformers, noise_power: float) -> np.ndarray:
    """Per-user achievable rate ln(1 + SINR_k) in nats."""
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    return rates_from_terms(*gain_terms(cross_gains(hbar, beamformers), noise_power))


def _weighted_sums(weights: np.ndarray, values: np.ndarray):
    """weights @ values as a float, or a list of one float per row of an
    (n_draws, n_users) stack, each from the 1-D dot a single draw takes: a
    (n_draws, n_users) @ (n_users,) product rounds differently."""
    if values.ndim == 1:
        return float(weights @ values)
    return [float(weights @ row) for row in values]


def weighted_sum_rate(weights: np.ndarray, rates: np.ndarray):
    """sum_k alpha_k r_k, of one draw or of each row of a stack."""
    weights = np.asarray(weights, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if weights.shape != rates.shape[-1:]:
        raise ValueError("weights and rates must have matching length")
    return _weighted_sums(weights, rates)


def update_decoders(hbar: np.ndarray, beamformers, noise_power: float) -> np.ndarray:
    """MMSE scalar receivers u_k = hbar_k^H w_k / (sum_j |hbar_k^H w_j|^2 + noise)."""
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    signal, total = gain_terms(cross_gains(hbar, beamformers), noise_power)
    return signal / total


def compute_mse(hbar: np.ndarray, beamformers, decoders: np.ndarray,
                noise_power: float) -> np.ndarray:
    """Symbol-estimate MSE per user for arbitrary scalar decoders."""
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    return mse_from_terms(decoders, *gain_terms(cross_gains(hbar, beamformers), noise_power))


def update_weights(mse: np.ndarray) -> np.ndarray:
    """Optimal surrogate weights q_k = 1 / E_k, of every draw of a stack."""
    mse = np.asarray(mse, dtype=float)
    # NaN fails both comparisons
    if not 0.0 < mse.min() <= mse.max() < np.inf:
        raise NumericalError("MSE values must be positive; upstream update is broken")
    return 1.0 / mse


def wmse_objective(weights: np.ndarray, mse_weights: np.ndarray, mse: np.ndarray):
    """Surrogate objective sum_k alpha_k (ln q_k - q_k E_k + 1), in nats,
    of one draw or of each row of a stack."""
    q = np.asarray(mse_weights, dtype=float)
    if (q <= 0).any():
        raise ValueError("surrogate weights must be positive")
    return _weighted_sums(np.asarray(weights, dtype=float),
                          np.log(q) - q * np.asarray(mse, dtype=float) + 1.0)


def optimal_state(hbar: np.ndarray, beamformers, noise_power: float) -> WmmseState:
    """Decoder and weight updates in sequence; after this the surrogate
    objective equals the weighted sum rate."""
    u = update_decoders(hbar, beamformers, noise_power)
    mse = compute_mse(hbar, beamformers, u, noise_power)
    return WmmseState(decoders=u, mse_weights=update_weights(mse), mse=mse)
