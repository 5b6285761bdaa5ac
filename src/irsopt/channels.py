"""Channel generation and the effective (direct + reflected) channel.

The BS-user link is Rayleigh faded; BS-IRS and IRS-user links are Rician,
mixing a deterministic line-of-sight term with i.i.d. scattering. All
links carry a log-distance power-law loss referenced at 1 m. Phase
configurations live on the product of per-element unit circles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNIT_MODULUS_TOL = 1e-12


def is_unit_modulus(v: np.ndarray) -> bool:
    """Whether every entry of the 1-D complex v lies within
    UNIT_MODULUS_TOL of the unit circle; NaN and inf entries fail.

    A sum of squared deviations at most UNIT_MODULUS_TOL**2 bounds every
    deviation, and a dot product costs less than an entrywise maximum,
    so only a vector that fails it takes the entrywise test.
    """
    if not v.size:
        return True
    dev = np.abs(v)
    dev -= 1.0
    return bool(np.dot(dev, dev) <= UNIT_MODULUS_TOL ** 2
                or np.abs(dev).max() <= UNIT_MODULUS_TOL)


def path_loss(distance_m, exponent: float, ref_gain_db: float = -30.0):
    """Linear power gain 10**(ref_gain_db/10) * d**(-exponent), d clamped to >= 1 m.

    Strictly decreasing in distance; additive in dB:
    gain_db = ref_gain_db - 10 * exponent * log10(d).
    """
    d = np.asarray(distance_m, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("distance must be finite")
    if not (np.isfinite(exponent) and exponent > 0):
        raise ValueError("path-loss exponent must be positive")
    gain = 10.0 ** (ref_gain_db / 10.0) * np.maximum(d, 1.0) ** (-exponent)
    return float(gain) if gain.ndim == 0 else gain


def ula_steering(n_elements: int, sin_angle: float) -> np.ndarray:
    """Half-wavelength uniform-linear-array response exp(j*pi*n*sin(angle))."""
    return np.exp(1j * np.pi * np.arange(n_elements) * sin_angle)


def _sin_azimuth(src: np.ndarray, dst: np.ndarray) -> float:
    """Sine of the azimuth of dst as seen from src (x-y plane)."""
    delta = dst - src
    return float(np.sin(np.arctan2(delta[1], delta[0])))


def _cn(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian samples."""
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all links.

    h_direct[k]    : (n_users, n_tx)            BS -> user k
    g_bs_irs[l]    : (n_irs, n_elements, n_tx)  BS -> surface l
    h_irs_user[l,k]: (n_irs, n_users, n_elements) surface l -> user k

    A set with n_irs = 0 is valid and means no reflected paths.

    The constructor also stacks the surfaces' links once into two
    read-only 2-D arrays whose N = n_irs * n_elements phase elements
    follow ``PhaseConfig.v_hat`` (surface, then element):

    g   : (N, n_tx)     g[l * M + m] = g_bs_irs[l, m], a view
    h_t : (n_users, N)  h_t[k, l * M + m] = h_irs_user[l, k, m]
    """

    h_direct: np.ndarray
    g_bs_irs: np.ndarray
    h_irs_user: np.ndarray
    g: np.ndarray = field(init=False, repr=False, compare=False)
    h_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.array(self.h_direct, dtype=complex)
        g = np.array(self.g_bs_irs, dtype=complex)
        hr = np.array(self.h_irs_user, dtype=complex)
        if h.ndim != 2 or g.ndim != 3 or hr.ndim != 3:
            raise ValueError("channel arrays have wrong rank")
        if g.shape[0] != hr.shape[0]:
            raise ValueError("g_bs_irs and h_irs_user disagree on surface count")
        if g.shape[0] > 0:
            if g.shape[2] != h.shape[1]:
                raise ValueError("g_bs_irs antenna dimension mismatch")
            if hr.shape[1] != h.shape[0] or hr.shape[2] != g.shape[1]:
                raise ValueError("h_irs_user dimension mismatch")
        for name, arr in (("h_direct", h), ("g_bs_irs", g), ("h_irs_user", hr)):
            if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
                raise ValueError(f"{name} contains non-finite entries")
        size = g.shape[0] * g.shape[1]
        for name, arr in (("h_direct", h), ("g_bs_irs", g), ("h_irs_user", hr),
                          ("g", g.reshape(size, h.shape[1])),
                          ("h_t", hr.transpose(1, 0, 2).reshape(h.shape[0], size))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_users(self) -> int:
        return self.h_direct.shape[0]

    @property
    def n_tx(self) -> int:
        return self.h_direct.shape[1]

    @property
    def n_irs(self) -> int:
        return self.g_bs_irs.shape[0]

    @property
    def n_elements(self) -> int:
        return self.g_bs_irs.shape[1]


@dataclass(frozen=True)
class PhaseConfig:
    """Stacked unit-modulus reflection coefficients, one block per surface."""

    v_hat: np.ndarray   # (n_irs * n_elements,)
    n_irs: int
    n_elements: int

    def __post_init__(self):
        v = np.array(self.v_hat, dtype=complex).reshape(-1)
        if v.shape[0] != self.n_irs * self.n_elements:
            raise ValueError("v_hat length must be n_irs * n_elements")
        if not is_unit_modulus(v):
            raise ValueError("phase entries must be unit modulus")
        v.setflags(write=False)
        object.__setattr__(self, "v_hat", v)

    @property
    def size(self) -> int:
        return self.v_hat.size

    def per_irs(self) -> np.ndarray:
        """(n_irs, n_elements) view, row l holding surface l's coefficients."""
        return self.v_hat.reshape(self.n_irs, self.n_elements)

    @classmethod
    def from_angles(cls, theta, n_irs: int, n_elements: int) -> "PhaseConfig":
        return cls(np.exp(1j * np.asarray(theta, dtype=float)).reshape(-1),
                   n_irs, n_elements)

    @classmethod
    def all_ones(cls, n_irs: int, n_elements: int) -> "PhaseConfig":
        return cls(np.ones(n_irs * n_elements, dtype=complex), n_irs, n_elements)

    @classmethod
    def random(cls, n_irs: int, n_elements: int, rng: np.random.Generator) -> "PhaseConfig":
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n_irs * n_elements)
        return cls.from_angles(theta, n_irs, n_elements)


def draw_channels(params, rng: np.random.Generator) -> ChannelSet:
    """Draw one channel realization for a scenario.

    Rician links mix sqrt(k/(1+k)) * LoS with sqrt(1/(1+k)) * scatter so
    the mean square of each entry equals the link's path-loss gain. The
    draw order (direct links, then per-surface BS-IRS, then IRS-user) is
    fixed, so the direct channels depend only on the stream position, not
    on the surface geometry.
    """
    n_tx, n_users = params.n_tx, params.n_users
    n_irs, n_el = params.n_irs, params.n_elements
    kappa = 10.0 ** (params.rician_k_db / 10.0)
    los_w = np.sqrt(kappa / (1.0 + kappa))
    nlos_w = np.sqrt(1.0 / (1.0 + kappa))
    use_ula = params.los_mode == "ula"

    d_direct = np.linalg.norm(params.user_pos - params.bs_pos, axis=1)
    gain = path_loss(d_direct, params.exp_bs_user, params.ref_gain_db)
    h_direct = np.sqrt(gain)[:, None] * _cn(rng, (n_users, n_tx))

    g_bs_irs = np.empty((n_irs, n_el, n_tx), dtype=complex)
    for l in range(n_irs):
        d = float(np.linalg.norm(params.irs_pos[l] - params.bs_pos))
        gain = path_loss(d, params.exp_bs_irs, params.ref_gain_db)
        if use_ula:
            a_irs = ula_steering(n_el, _sin_azimuth(params.irs_pos[l], params.bs_pos))
            a_bs = ula_steering(n_tx, _sin_azimuth(params.bs_pos, params.irs_pos[l]))
            los = np.outer(a_irs, np.conj(a_bs))
        else:
            los = np.ones((n_el, n_tx), dtype=complex)
        g_bs_irs[l] = np.sqrt(gain) * (los_w * los + nlos_w * _cn(rng, (n_el, n_tx)))

    h_irs_user = np.empty((n_irs, n_users, n_el), dtype=complex)
    for l in range(n_irs):
        for k in range(n_users):
            d = float(np.linalg.norm(params.user_pos[k] - params.irs_pos[l]))
            gain = path_loss(d, params.exp_irs_user, params.ref_gain_db)
            if use_ula:
                los = ula_steering(n_el, _sin_azimuth(params.irs_pos[l], params.user_pos[k]))
            else:
                los = np.ones(n_el, dtype=complex)
            h_irs_user[l, k] = np.sqrt(gain) * (los_w * los + nlos_w * _cn(rng, n_el))

    return ChannelSet(h_direct, g_bs_irs, h_irs_user)


def effective_channels(channels: ChannelSet, phases) -> np.ndarray:
    """Combined channel per user: row k holds hbar_k with
    hbar_k^H = h_k^H + sum_l h_{l,k}^H diag(v_l) G_l.

    ``phases`` is a ``PhaseConfig``, or a stacked vector laid out as its
    ``v_hat`` (the solver scores extrapolated points this way, before it
    wraps one), whose length must be n_irs * n_elements of the channels.
    With the stacked links ``channels.g`` and ``channels.h_t``, the
    reflected part is the one product (h_t * conj(v_hat)) @ conj(g); with
    no surfaces it is empty and adds zeros, so the result is always a new
    array.

    Returns an (n_users, n_tx) array; hbar_k^H w is np.vdot(hbar[k], w).
    """
    if isinstance(phases, PhaseConfig):
        if phases.n_irs != channels.n_irs:
            raise ValueError("phase config does not match channel surface count")
        if channels.n_irs and phases.n_elements != channels.n_elements:
            raise ValueError("phase config does not match element count")
        v = phases.v_hat
    else:
        v = phases
        if v.shape != (channels.n_irs * channels.n_elements,):
            raise ValueError("phase vector length does not match the channels")
    return channels.h_direct + (channels.h_t * np.conj(v)) @ np.conj(channels.g)


def strip_irs(channels: ChannelSet) -> ChannelSet:
    """Channel set with all reflected paths removed (direct links only)."""
    n_users, n_tx = channels.h_direct.shape
    return ChannelSet(channels.h_direct,
                      np.zeros((0, 0, n_tx), dtype=complex),
                      np.zeros((0, n_users, 0), dtype=complex))
