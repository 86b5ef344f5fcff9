"""Exact-solution ensemble members for the stochastic advection problem.

The wave value is carried along stochastic characteristics that admit exact
one-step updates, so a "truth" realization is free of discretization error up
to the final scatter-to-grid interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import GridSpec, NoiseSource, gaussian_vector

__all__ = [
    "Drift",
    "TruthConfig",
    "TruthField",
    "pulse_profile",
    "initial_pulse",
    "mean_speed",
    "step_characteristic_exact",
    "generate_truth",
]

# Normalization of the parabolic pulse: integral of (1 - 4 s^2) over |s| <= 1/2.
PULSE_NORM = 2.0 / 3.0

# Sub-stream tags of the truth noise source.
_STREAM_INIT = 0
_STREAM_FORCING = 1
_STREAM_SPEED = 2


class Drift(str, Enum):
    """Families of mean wave-speed laws with exact one-step SDE solutions."""

    #: dx = -rate * x dt + noise dW  (mean-reverting pull toward x = 0)
    OU = "ou"
    #: dx = (base + ramp * sqrt(t)) dt + noise dW  (speed grows with time)
    ACCELERATING = "accelerating"


@dataclass(frozen=True)
class TruthConfig:
    """Physical and noise parameters of one truth scenario.

    ``relax_rate`` drives the OU drift; ``base_speed`` and ``speed_ramp``
    drive the accelerating drift. ``speed_noise`` is the Wiener amplitude on
    the wave speed, ``forcing_noise`` the Wiener amplitude on the carried
    value (the forcing has zero mean).
    """

    drift: Drift
    relax_rate: float = 0.0
    base_speed: float = 0.0
    speed_ramp: float = 0.0
    speed_noise: float = 0.0
    forcing_noise: float = 0.0
    pulse_center: float = 1.0
    init_var: float = 0.0

    def __post_init__(self):
        if self.drift is Drift.OU and self.relax_rate <= 0:
            raise ValueError("OU drift needs a positive relax_rate (finite relaxation time)")
        for name in ("speed_noise", "forcing_noise", "init_var"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class TruthField:
    """One truth realization: its grid values per step."""

    values: np.ndarray  # (n_steps + 1, n_points)


def pulse_profile(grid: GridSpec, center: float) -> np.ndarray:
    """Noise-free normalized parabolic pulse of half-width 1/2 around ``center``.

    The distance to the center is evaluated periodically, so a pulse may
    straddle the domain seam.
    """
    if not 0 < center < grid.domain_length:
        raise ValueError("pulse center must lie inside the domain")
    half = grid.domain_length / 2.0
    d = np.mod(grid.positions - center + half, grid.domain_length) - half
    profile = (1.0 - 4.0 * d * d) / PULSE_NORM
    profile[np.abs(d) > 0.5] = 0.0
    return profile


def initial_pulse(grid: GridSpec, cfg: TruthConfig, src: NoiseSource) -> np.ndarray:
    """Sampled initial condition: the pulse plus per-station N(0, init_var) noise."""
    noise = gaussian_vector(src, grid.n_points, math.sqrt(cfg.init_var))
    return pulse_profile(grid, cfg.pulse_center) + noise


def mean_speed(cfg: TruthConfig, x, t):
    """Ensemble-mean wave speed c(x, t) for the configured drift."""
    if cfg.drift is Drift.OU:
        return -cfg.relax_rate * np.asarray(x, dtype=float)
    return cfg.base_speed + cfg.speed_ramp * np.sqrt(t) + 0.0 * np.asarray(x, dtype=float)


def step_characteristic_exact(cfg: TruthConfig, x, t: float, dt: float,
                              src: NoiseSource, wrap_length: float | None = None):
    """Advance characteristic positions one step with the exact SDE solution.

    OU:           x' = x e^(-rate dt) + sqrt(noise^2/(2 rate) (1 - e^(-2 rate dt))) N(0,1)
    accelerating: x' = x + base dt + (2/3) ramp dt^(3/2) + sqrt(noise^2 dt) N(0,1)

    Positions are wrapped mod ``wrap_length`` when given.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    draws = src.standard_normal(x.size).reshape(x.shape) if x.ndim else src.standard_normal(1)[0]
    if cfg.drift is Drift.OU:
        decay = math.exp(-cfg.relax_rate * dt)
        std = math.sqrt(cfg.speed_noise ** 2 / (2.0 * cfg.relax_rate) * (1.0 - decay * decay))
        out = x * decay + std * draws
    else:
        drift = cfg.base_speed * dt + (2.0 / 3.0) * cfg.speed_ramp * dt ** 1.5
        out = x + drift + math.sqrt(cfg.speed_noise ** 2 * dt) * draws
    if wrap_length is not None:
        out = np.mod(out, wrap_length)
    return out


def _interp_periodic(targets: np.ndarray, positions: np.ndarray, values: np.ndarray,
                     period: float) -> np.ndarray:
    wrapped = np.mod(positions, period)
    # Fewer than 2 distinct points, as np.unique counts them, without its sort.
    if wrapped.size < 2 or wrapped.min() == wrapped.max():
        raise ValueError("characteristics collapsed to fewer than 2 distinct positions")
    return np.interp(targets, positions, values, period=period)


def generate_truth(grid: GridSpec, cfg: TruthConfig, src: NoiseSource) -> TruthField:
    """Generate one truth realization over the whole run.

    Each station spawns a characteristic; positions advance with the exact
    stochastic step and the carried value accumulates the (stochastic)
    forcing. Every step the scattered values are linearly interpolated back
    onto the grid with periodic wrap. Only the current positions are kept.
    """
    n = grid.n_points
    init_src = src.child(_STREAM_INIT)
    forcing_src = src.child(_STREAM_FORCING)
    speed_src = src.child(_STREAM_SPEED)

    values = np.empty((grid.n_steps + 1, n))
    positions = grid.positions
    carried = initial_pulse(grid, cfg, init_src)
    values[0] = carried

    sqrt_dt = math.sqrt(grid.dt)
    for step in range(grid.n_steps):
        positions = step_characteristic_exact(cfg, positions, step * grid.dt, grid.dt,
                                              speed_src, wrap_length=grid.domain_length)
        carried = carried + gaussian_vector(forcing_src, n, cfg.forcing_noise * sqrt_dt)
        values[step + 1] = _interp_periodic(grid.positions, positions, carried,
                                            grid.domain_length)
    return TruthField(values=values)
