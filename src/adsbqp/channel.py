"""Seeded scenario generation: user geometry, path loss, Rayleigh fading."""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral
import numpy as np

__all__ = [
    "ScenarioConfig",
    "ChannelMatrix",
    "make_rng",
    "sample_user_positions",
    "path_loss",
    "generate_channel",
]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator: identical streams across platforms."""
    return np.random.Generator(np.random.Philox(int(seed)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Cell geometry, radio constants and thresholds for one experiment.

    All powers are in the same normalized unit: the per-antenna cap ``p_th``
    defaults to ``1/n_tx`` so that full allocation across all antennas sums
    to one.  The rate threshold is either an absolute value or a fraction of
    the full-activation uniform-cap capacity (resolved when the problem
    instance is built).
    """

    n_tx: int = 64
    n_users: int = 64
    bandwidth_b: float = 1.0
    noise_n0b: float = 1.0
    pathloss_t0_db: float = -30.0
    pathloss_exponent_eta: float = 3.67
    cell_center: tuple[float, float] = (100.0, 0.0)
    cell_radius: float = 20.0
    bs_position: tuple[float, float] = (0.0, 0.0)
    seed: int = 0
    p_rf: float = 0.0078
    p_th: float | None = None
    r_th_mode: str | None = None
    r_th_value: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            parts = value if isinstance(value, (tuple, list)) else (value,)
            if any(isinstance(v, (int, float)) and not np.isfinite(v) for v in parts):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("n_tx", "n_users", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_tx < 1:
            raise ValueError("n_tx must be >= 1")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not self.bandwidth_b > 0:
            raise ValueError("bandwidth_b must be > 0")
        if not self.noise_n0b > 0:
            raise ValueError("noise_n0b must be > 0")
        if self.p_rf < 0:
            raise ValueError("p_rf must be >= 0")
        if self.cell_radius < 0:
            raise ValueError("cell_radius must be >= 0")
        object.__setattr__(self, "n_tx", int(self.n_tx))
        object.__setattr__(self, "n_users", int(self.n_users))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "cell_center", _as_point(self.cell_center, "cell_center"))
        object.__setattr__(self, "bs_position", _as_point(self.bs_position, "bs_position"))
        if self.p_th is None:
            object.__setattr__(self, "p_th", 1.0 / self.n_tx)
        if not self.p_th > 0:
            raise ValueError("p_th must be > 0")
        mode = self.r_th_mode
        if mode is None:
            # 64x64 keeps the absolute default threshold; scaled cells fall
            # back to a fraction of full-activation capacity so they stay
            # feasible by construction.
            mode = "absolute" if (self.n_tx, self.n_users) == (64, 64) else "fraction"
            object.__setattr__(self, "r_th_mode", mode)
        if mode not in ("absolute", "fraction"):
            raise ValueError(f"r_th_mode must be 'absolute' or 'fraction', got {mode!r}")
        if self.r_th_value is None:
            object.__setattr__(self, "r_th_value", 82.71 if mode == "absolute" else 0.5)
        if mode == "absolute" and not self.r_th_value > 0:
            raise ValueError("absolute r_th_value must be > 0")
        if mode == "fraction" and not 0.0 < self.r_th_value < 1.0:
            raise ValueError("fractional r_th_value must lie in (0, 1)")


def _as_point(value, name: str) -> tuple[float, float]:
    try:
        a, b = value
        return (float(a), float(b))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a pair of coordinates") from exc


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex N x K gain matrix with per-user path loss applied."""

    entries: np.ndarray
    user_distances: np.ndarray
    user_positions: np.ndarray

    def __post_init__(self) -> None:
        H = np.ascontiguousarray(self.entries, dtype=complex)
        d = np.asarray(self.user_distances, dtype=float)
        object.__setattr__(self, "entries", H)
        object.__setattr__(self, "user_distances", d)
        object.__setattr__(self, "user_positions", np.asarray(self.user_positions, dtype=float))
        if H.ndim != 2:
            raise ValueError("channel entries must be a 2-D matrix")
        if d.shape != (H.shape[1],):
            raise ValueError("one distance per user is required")
        if not np.isfinite(H).all():
            raise ValueError("channel entries must be finite")
        norms = np.linalg.norm(H, axis=0)
        if np.any(norms <= 0):
            raise ValueError("zero channel column: beamforming direction undefined")

    @property
    def n_tx(self) -> int:
        return self.entries.shape[0]

    @property
    def n_users(self) -> int:
        return self.entries.shape[1]

    def gains(self) -> np.ndarray:
        """Elementwise squared channel magnitudes |h_ij|^2."""
        return np.abs(self.entries) ** 2


def sample_user_positions(cfg: ScenarioConfig, rng: np.random.Generator):
    """Draw user positions area-uniformly on the cell disk.

    Polar sampling with radius R*sqrt(u) gives the uniform density on the
    disk.  Returns (positions, distances) with distances measured from the
    base station.
    """
    k = cfg.n_users
    u = rng.random(k)
    theta = 2.0 * np.pi * rng.random(k)
    radius = cfg.cell_radius * np.sqrt(u)
    cx, cy = cfg.cell_center
    positions = np.column_stack(
        (cx + radius * np.cos(theta), cy + radius * np.sin(theta))
    )
    distances = np.hypot(
        positions[:, 0] - cfg.bs_position[0], positions[:, 1] - cfg.bs_position[1]
    )
    return positions, distances


def path_loss(delta, t0_db: float, eta: float):
    """Distance-dependent linear power gain 10^(t0_db/10) * delta^(-eta)."""
    delta = np.asarray(delta, dtype=float)
    if np.any(delta <= 0):
        raise ValueError("path_loss requires strictly positive distances")
    gain = 10.0 ** (t0_db / 10.0) * delta ** (-eta)
    if gain.ndim == 0:
        return float(gain)
    return gain


def _box_muller_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on the uniform stream."""
    half = (n + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    u1 = np.maximum(u1, np.finfo(float).tiny)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate((r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)))
    return z[:n]


def generate_channel(cfg: ScenarioConfig) -> ChannelMatrix:
    """Seeded Rayleigh-faded channel with per-user path-loss scaling.

    Raw entries are i.i.d. circularly-symmetric complex Gaussian with unit
    variance (real/imag parts each N(0, 1/2)); column j is scaled by the
    square root of the path loss at that user's distance.  The draw order is
    positions first, then fading, from a single Philox stream, so a config
    (including its seed) pins the matrix bit-for-bit.
    """
    rng = make_rng(cfg.seed)
    positions, distances = sample_user_positions(cfg, rng)
    xi = path_loss(distances, cfg.pathloss_t0_db, cfg.pathloss_exponent_eta)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    n, k = cfg.n_tx, cfg.n_users
    z = _box_muller_normals(rng, 2 * n * k)
    raw = (z[: n * k] + 1j * z[n * k :]).reshape(n, k) / np.sqrt(2.0)
    entries = raw * np.sqrt(xi)[None, :]
    return ChannelMatrix(entries=entries, user_distances=distances, user_positions=positions)
