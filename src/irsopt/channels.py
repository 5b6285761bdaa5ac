"""Channel generation and the effective (direct + reflected) channel.

The BS-user link is Rayleigh faded; BS-IRS and IRS-user links are Rician,
mixing a deterministic line-of-sight term with i.i.d. scattering. All
links carry a log-distance power-law loss referenced at 1 m. Phase
configurations live on the product of per-element unit circles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIT_MODULUS_TOL = 1e-12


def is_unit_modulus(v: np.ndarray) -> bool:
    """Whether every entry of the 1-D complex v lies within
    UNIT_MODULUS_TOL of the unit circle; NaN and inf entries fail.

    A sum of squared deviations at most UNIT_MODULUS_TOL**2 bounds every
    deviation, and a dot product costs less than an entrywise maximum,
    so only a vector that fails it takes the entrywise test. The method
    ``dev.dot`` is the same BLAS call as ``np.dot`` without its dispatch,
    which is a tenth of a short vector's check.
    """
    if not v.size:
        return True
    dev = np.abs(v)
    dev -= 1.0
    return bool(dev.dot(dev) <= UNIT_MODULUS_TOL ** 2
                or np.abs(dev).max() <= UNIT_MODULUS_TOL)


def path_loss(distance_m, exponent: float, ref_gain_db: float = -30.0):
    """Linear power gain 10**(ref_gain_db/10) * d**(-exponent), d clamped to >= 1 m.

    Strictly decreasing in distance; additive in dB:
    gain_db = ref_gain_db - 10 * exponent * log10(d).

    A scalar distance (a number or a 0-d array) returns a float from one
    scalar power; an array returns an array from numpy's array power,
    which can round an entry differently from the scalar call.
    """
    if not (math.isfinite(exponent) and exponent > 0):
        raise ValueError("path-loss exponent must be positive")
    if isinstance(distance_m, float):
        d = float(distance_m)
    else:
        arr = np.asarray(distance_m, dtype=float)
        if arr.ndim:
            if not np.all(np.isfinite(arr)):
                raise ValueError("distance must be finite")
            return 10.0 ** (ref_gain_db / 10.0) * np.maximum(arr, 1.0) ** (-exponent)
        d = float(arr)
    if not math.isfinite(d):
        raise ValueError("distance must be finite")
    return 10.0 ** (ref_gain_db / 10.0) * max(d, 1.0) ** (-exponent)


def ula_steering(n_elements: int, sin_angle: float | np.ndarray) -> np.ndarray:
    """Half-wavelength uniform-linear-array response exp(j*pi*n*sin(angle)).

    ``sin_angle`` may be an array of sines; the result then has its shape
    plus a last axis of length n_elements, each row equal to the scalar
    call on its sine.
    """
    return np.exp(1j * np.pi * np.arange(n_elements) * np.asarray(sin_angle)[..., None])


def _sin_azimuth(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Sine of the azimuth of dst as seen from src (x-y plane), over the
    broadcast leading axes of the (..., 3) positions."""
    delta = dst - src
    return np.sin(np.arctan2(delta[..., 1], delta[..., 0]))


def _norms(delta: np.ndarray) -> np.ndarray:
    """Euclidean norms of the 3-vectors on the last axis of delta.

    Each is sqrt(row @ row), one dot product per row as ``np.linalg.norm``
    takes on a single vector; ``np.linalg.norm(..., axis=-1)`` sums the
    squares in another order and can round differently.
    """
    rows = delta.reshape(-1, 1, 3)
    return np.sqrt(rows @ rows.transpose(0, 2, 1)).reshape(delta.shape[:-1])


def _cn(rng: np.random.Generator, lead: tuple, tail: tuple) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian samples of shape
    lead + tail. Per index of ``lead`` the stream holds a block of real
    parts, then a block of imaginary parts, each of shape tail."""
    z = rng.standard_normal((*lead, 2, *tail))
    re, im = np.moveaxis(z, len(lead), 0)
    return np.sqrt(0.5) * (re + 1j * im)


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all links.

    h_direct[k]    : (n_users, n_tx)            BS -> user k
    g_bs_irs[l]    : (n_irs, n_elements, n_tx)  BS -> surface l
    h_irs_user[l,k]: (n_irs, n_users, n_elements) surface l -> user k

    A set with n_irs = 0 is valid and means no reflected paths.

    The constructor also stacks the surfaces' links once into two
    read-only 2-D arrays whose N = n_irs * n_elements phase elements
    follow ``PhaseConfig.v_hat`` (surface, then element), and takes their
    conjugates once, also read-only, since the effective channel, the
    phase quadratic and the energy start read them on every call:

    g        : (N, n_tx)     g[l * M + m] = g_bs_irs[l, m], a view
    h_t      : (n_users, N)  h_t[k, l * M + m] = h_irs_user[l, k, m]
    g_conj   : (N, n_tx)     np.conj(g)
    h_t_conj : (n_users, N)  np.conj(h_t)

    All four are derived from the three links, so they stay out of ``==``
    and ``repr``.
    """

    h_direct: np.ndarray
    g_bs_irs: np.ndarray
    h_irs_user: np.ndarray
    g: np.ndarray = field(init=False, repr=False, compare=False)
    h_t: np.ndarray = field(init=False, repr=False, compare=False)
    g_conj: np.ndarray = field(init=False, repr=False, compare=False)
    h_t_conj: np.ndarray = field(init=False, repr=False, compare=False)

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
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        size = g.shape[0] * g.shape[1]
        g_stack = g.reshape(size, h.shape[1])
        h_t = hr.transpose(1, 0, 2).reshape(h.shape[0], size)
        for name, arr in (("h_direct", h), ("g_bs_irs", g), ("h_irs_user", hr),
                          ("g", g_stack), ("h_t", h_t),
                          ("g_conj", np.conj(g_stack)), ("h_t_conj", np.conj(h_t))):
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
    the mean square of each entry equals the link's path-loss gain.

    The random stream is a contract, pinned by a digest test: the draw
    takes standard normals from ``rng`` in three blocks, in this order,

    1. direct links: all n_users * n_tx real parts, then as many imaginary
       parts, both in (user, antenna) order;
    2. BS-IRS links: per surface l, its n_elements * n_tx real parts, then
       its imaginary parts, in (element, antenna) order;
    3. IRS-user links: per surface l and then per user k, the n_elements
       real parts, then the n_elements imaginary parts.

    So the direct channels depend only on the stream position, not on the
    surface geometry. Each link's path loss comes from one scalar
    ``path_loss`` call on its distance, except the direct links', which
    take one array call.
    """
    n_tx, n_users = params.n_tx, params.n_users
    n_irs, n_el = params.n_irs, params.n_elements
    kappa = 10.0 ** (params.rician_k_db / 10.0)
    los_w = np.sqrt(kappa / (1.0 + kappa))
    nlos_w = np.sqrt(1.0 / (1.0 + kappa))
    bs, irs, users = params.bs_pos, params.irs_pos, params.user_pos
    irs_l = irs[:, None, :]     # broadcasts against users to (surface, user)

    def amplitudes(distances, exponent):
        return np.sqrt([path_loss(d, exponent, params.ref_gain_db)
                        for d in distances.ravel().tolist()]).reshape(distances.shape)

    d_direct = np.linalg.norm(users - bs, axis=1)
    gain = path_loss(d_direct, params.exp_bs_user, params.ref_gain_db)
    h_direct = np.sqrt(gain)[:, None] * _cn(rng, (), (n_users, n_tx))

    if params.los_mode == "ula":
        a_irs = ula_steering(n_el, _sin_azimuth(irs, bs))
        a_bs = ula_steering(n_tx, _sin_azimuth(bs, irs))
        los_bs_irs = a_irs[:, :, None] * np.conj(a_bs)[:, None, :]
        los_irs_user = ula_steering(n_el, _sin_azimuth(irs_l, users))
    else:
        los_bs_irs = los_irs_user = 1.0     # broadcasts as an all-ones LoS
    amp = amplitudes(_norms(irs - bs), params.exp_bs_irs)
    g_bs_irs = amp[:, None, None] * (los_w * los_bs_irs
                                     + nlos_w * _cn(rng, (n_irs,), (n_el, n_tx)))
    amp = amplitudes(_norms(users - irs_l), params.exp_irs_user)
    h_irs_user = amp[:, :, None] * (los_w * los_irs_user
                                    + nlos_w * _cn(rng, (n_irs, n_users), (n_el,)))

    return ChannelSet(h_direct, g_bs_irs, h_irs_user)


def effective_channels(channels: ChannelSet, phases) -> np.ndarray:
    """Combined channel per user: row k holds hbar_k with
    hbar_k^H = h_k^H + sum_l h_{l,k}^H diag(v_l) G_l.

    ``phases`` is a ``PhaseConfig``, or a stacked vector laid out as its
    ``v_hat`` (the solver scores extrapolated points this way, before it
    wraps one), whose length must be n_irs * n_elements of the channels.
    With the stacked links ``channels.g`` and ``channels.h_t``, the
    reflected part is the one product (h_t * conj(v_hat)) @ conj(g), with
    conj(g) the set's stored ``g_conj``; with no surfaces it is empty and
    adds zeros, so the result is always a new array.

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
    return channels.h_direct + (channels.h_t * np.conj(v)) @ channels.g_conj


def strip_irs(channels: ChannelSet) -> ChannelSet:
    """Channel set with all reflected paths removed (direct links only)."""
    n_users, n_tx = channels.h_direct.shape
    return ChannelSet(channels.h_direct,
                      np.zeros((0, 0, n_tx), dtype=complex),
                      np.zeros((0, n_users, 0), dtype=complex))
