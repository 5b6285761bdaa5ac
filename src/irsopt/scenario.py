"""Scenario definition: node geometry, powers, fading parameters.

A scenario fixes everything needed to draw channel realizations: the BS
antenna count, the IRS ring, user drop positions, per-link path-loss
exponents, the Rician factor, transmit power budget and noise floor.
Scenarios can be built from the bundled presets, constructed directly, or
loaded from a flat key-value config file (see ``load_scenario``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

LOS_MODES = ("ula", "ones")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is a Python or numpy integer of at
    least ``minimum``. A bool is refused: True would pass as the count 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ScenarioParams:
    """Immutable description of one simulation scenario.

    Positions are 3-D coordinates in meters, powers in Watts, path-loss
    exponents unitless, the reference gain and Rician factor in dB.
    """

    n_tx: int                 # BS transmit antennas
    n_users: int              # single-antenna users
    n_irs: int                # reflecting surfaces
    n_elements: int           # phase shifters per surface
    p_max: float              # BS transmit power budget (W)
    noise_power: float        # receiver noise power (W)
    weights: np.ndarray       # per-user rate priority, >= 0
    bs_pos: np.ndarray        # (3,)
    irs_pos: np.ndarray       # (n_irs, 3)
    user_pos: np.ndarray      # (n_users, 3)
    exp_bs_irs: float = 2.2   # path-loss exponent, BS-IRS link
    exp_irs_user: float = 2.2  # path-loss exponent, IRS-user link
    exp_bs_user: float = 3.6  # path-loss exponent, BS-user link
    ref_gain_db: float = -30.0  # channel gain at 1 m reference distance
    rician_k_db: float = 10.0   # LoS-to-scatter power ratio
    rng_seed: int = 0
    los_mode: str = "ula"     # "ula" steering LoS or "ones" fallback

    def __post_init__(self):
        for name in ("n_tx", "n_users", "n_irs", "n_elements"):
            check_count(name, getattr(self, name))
        check_count("rng_seed", self.rng_seed, minimum=0)
        if not (np.isfinite(self.p_max) and self.p_max > 0):
            raise ValueError("p_max must be positive and finite")
        if not (np.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError("noise_power must be positive and finite")
        for name in ("exp_bs_irs", "exp_irs_user", "exp_bs_user"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        for name in ("ref_gain_db", "rician_k_db"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.los_mode not in LOS_MODES:
            raise ValueError(f"los_mode must be one of {LOS_MODES}")

        weights = _freeze(self.weights)
        if weights.shape != (self.n_users,):
            raise ValueError("weights must have one entry per user")
        if not (np.isfinite(weights).all() and weights.min() >= 0 and weights.max() > 0):
            raise ValueError("weights must be finite and nonnegative with at least one positive")
        object.__setattr__(self, "weights", weights)

        bs = _freeze(self.bs_pos)
        irs = _freeze(self.irs_pos).reshape(self.n_irs, 3)
        users = _freeze(self.user_pos).reshape(self.n_users, 3)
        if bs.shape != (3,):
            raise ValueError("bs_pos must be a 3-vector")
        for name, arr in (("bs_pos", bs), ("irs_pos", irs), ("user_pos", users)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "bs_pos", bs)
        object.__setattr__(self, "irs_pos", irs)
        object.__setattr__(self, "user_pos", users)

    def replace(self, **changes) -> "ScenarioParams":
        return dataclasses.replace(self, **changes)


def drop_users_around_irs(irs_pos: np.ndarray, n_users: int, disc_radius: float,
                          rng: np.random.Generator, user_height: float = 0.0) -> np.ndarray:
    """Drop users uniformly over discs centered at the surfaces, round-robin.

    Radius is sampled as R*sqrt(U) so the drop is uniform over the disc
    area, not over the radius. The stream holds two uniforms per user, in
    user order: the radius's, then the angle's.
    """
    u = rng.uniform(size=(n_users, 2))
    radius = disc_radius * np.sqrt(u[:, 0])
    angle = 2.0 * np.pi * u[:, 1]
    center = irs_pos[np.arange(n_users) % irs_pos.shape[0]]
    return np.stack([center[:, 0] + radius * np.cos(angle),
                     center[:, 1] + radius * np.sin(angle),
                     np.full(n_users, user_height)], axis=1)


def ring_scenario(n_tx: int, n_irs: int, n_elements: int, n_users: int, *,
                  user_seed: int = 0,
                  cell_radius: float = 300.0,
                  user_disc_radius: float = 30.0,
                  bs_height: float = 10.0,
                  irs_height: float = 10.0,
                  p_max: float = 1.0,
                  noise_power: float = 1e-11,
                  weights: np.ndarray | None = None,
                  rng_seed: int = 0,
                  **overrides) -> ScenarioParams:
    """BS at the origin, surfaces on a ring at the cell edge, users nearby.

    Surfaces sit at equal angles starting from the +x axis; users are
    dropped uniformly in discs around them (two per surface when
    n_users = 2 * n_irs). Extra keyword overrides go straight into
    ``ScenarioParams``.
    """
    check_count("n_irs", n_irs)
    check_count("n_users", n_users)
    bs_pos = np.array([0.0, 0.0, bs_height])
    angles = 2.0 * np.pi * np.arange(n_irs) / n_irs
    irs_pos = np.stack([cell_radius * np.cos(angles),
                        cell_radius * np.sin(angles),
                        np.full(n_irs, irs_height)], axis=1)
    rng = np.random.default_rng(user_seed)
    user_pos = drop_users_around_irs(irs_pos, n_users, user_disc_radius, rng)
    if weights is None:
        weights = np.ones(n_users)
    return ScenarioParams(
        n_tx=n_tx, n_users=n_users, n_irs=n_irs, n_elements=n_elements,
        p_max=p_max, noise_power=noise_power, weights=weights,
        bs_pos=bs_pos, irs_pos=irs_pos, user_pos=user_pos,
        rng_seed=rng_seed, **overrides)


def full_scenario(user_seed: int = 0, rng_seed: int = 0, n_elements: int = 60,
                   p_max: float = 1.0, **overrides) -> ScenarioParams:
    """Full-size preset: 8 antennas, 4 surfaces, 60 elements, 8 users."""
    return ring_scenario(8, 4, n_elements, 8, user_seed=user_seed,
                         p_max=p_max, rng_seed=rng_seed, **overrides)


def desk_scenario(user_seed: int = 0, rng_seed: int = 0, n_elements: int = 16,
                  p_max: float = 1.0, **overrides) -> ScenarioParams:
    """Small preset for CI runs: 4 antennas, 2 surfaces, 4 users."""
    return ring_scenario(4, 2, n_elements, 4, user_seed=user_seed,
                         p_max=p_max, rng_seed=rng_seed, **overrides)


# --- flat key-value config files -------------------------------------------
#
# One `key = value` pair per line, `#` starts a comment. Vector values are
# comma separated, positions are `x,y,z` in meters. Indexed keys irs_pos_<l>
# and user_pos_<k> must cover 0..n-1. Unknown keys are an error.

_INT_KEYS = ("n_tx", "n_users", "n_irs", "n_elements", "rng_seed")
_FLOAT_KEYS = ("p_max", "noise_power", "exp_bs_irs", "exp_irs_user",
               "exp_bs_user", "ref_gain_db", "rician_k_db")
_STR_KEYS = ("los_mode",)


def save_scenario(params: ScenarioParams, path) -> None:
    lines = ["# irsopt scenario config (SI units: meters, Watts; gains in dB)"]
    for key in _INT_KEYS:
        lines.append(f"{key} = {getattr(params, key)}")
    for key in _FLOAT_KEYS:
        lines.append(f"{key} = {getattr(params, key)!r}")
    for key in _STR_KEYS:
        lines.append(f"{key} = {getattr(params, key)}")
    lines.append("weights = " + ",".join(repr(float(w)) for w in params.weights))
    lines.append("bs_pos = " + ",".join(repr(float(x)) for x in params.bs_pos))
    for l, pos in enumerate(params.irs_pos):
        lines.append(f"irs_pos_{l} = " + ",".join(repr(float(x)) for x in pos))
    for k, pos in enumerate(params.user_pos):
        lines.append(f"user_pos_{k} = " + ",".join(repr(float(x)) for x in pos))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_floats(key: str, text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"malformed value for {key!r}: {text!r}") from exc


def load_scenario(path) -> ScenarioParams:
    """Parse a scenario config file; unknown or missing keys raise ConfigError."""
    scalars: dict = {}
    vectors: dict = {}
    indexed: dict = {"irs_pos": {}, "user_pos": {}}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _INT_KEYS:
            try:
                scalars[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} must be an integer") from exc
        elif key in _FLOAT_KEYS:
            try:
                scalars[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} must be a number") from exc
        elif key in _STR_KEYS:
            scalars[key] = value
        elif key in ("weights", "bs_pos"):
            vectors[key] = _parse_floats(key, value)
        elif key.startswith("irs_pos_") or key.startswith("user_pos_"):
            base, _, idx = key.rpartition("_")
            try:
                index = int(idx)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad index in {key!r}") from exc
            indexed[base][index] = _parse_floats(key, value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    required = set(_INT_KEYS) | {"p_max", "noise_power", "weights", "bs_pos"}
    missing = sorted(k for k in required if k not in scalars and k not in vectors)
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    def gather(base: str, count: int) -> np.ndarray:
        entries = indexed[base]
        if sorted(entries) != list(range(count)):
            raise ConfigError(f"{base}_0..{base}_{count - 1} must all be present")
        return np.stack([entries[i] for i in range(count)])

    try:
        for key in ("n_irs", "n_users"):
            check_count(key, scalars[key])
        return ScenarioParams(
            weights=vectors["weights"],
            bs_pos=vectors["bs_pos"],
            irs_pos=gather("irs_pos", scalars["n_irs"]),
            user_pos=gather("user_pos", scalars["n_users"]),
            **scalars,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
