"""Discrete forward model: one-step stochastic Lax-Friedrichs advection."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, NoiseSource, gaussian_vector

__all__ = ["ModelConfig", "lax_friedrichs_weights", "lax_friedrichs_matrix", "model_step"]

# Slack on the |lambda| <= 1 stability bound to absorb rounding in dt/dx.
_CFL_SLACK = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    """Model noise level.

    ``noise_var`` is the per-step noise covariance scale: every step adds
    noise_var * I to the state covariance.
    """

    noise_var: float = 0.0

    def __post_init__(self):
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")


def lax_friedrichs_weights(grid: GridSpec, speeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two diagonals of the periodic Lax-Friedrichs step, in O(N).

    Returns ``(right, left)``: row ``l`` of the transition takes
    right[l] = (1 - lam_l)/2 of station l+1 and left[l] = (1 + lam_l)/2 of
    station l-1 (mod N), with lam_l = dt/dx * speeds[l]. Raises if the CFL
    bound |lam| <= 1 fails anywhere.
    """
    speeds = np.asarray(speeds, dtype=float)
    if speeds.shape != (grid.n_points,):
        raise ValueError(f"speeds must have shape ({grid.n_points},)")
    lam = grid.dt / grid.dx * speeds
    worst = float(np.abs(lam).max())
    if worst > 1.0 + _CFL_SLACK:
        raise ValueError(f"CFL violated: max |dt/dx * c| = {worst:.6g} > 1")
    return 0.5 * (1.0 - lam), 0.5 * (1.0 + lam)


def lax_friedrichs_matrix(grid: GridSpec, speeds: np.ndarray) -> np.ndarray:
    """Periodic Lax-Friedrichs one-step transition matrix, dense.

    Row ``l`` holds the weights of :func:`lax_friedrichs_weights` at columns
    l+1 and l-1 (mod N). Rows sum to 1; positive speeds translate the field
    toward increasing station index.
    """
    right, left = lax_friedrichs_weights(grid, speeds)
    n = grid.n_points
    rows = np.arange(n)
    matrix = np.zeros((n, n))
    np.add.at(matrix, (rows, (rows + 1) % n), right)
    np.add.at(matrix, (rows, (rows - 1) % n), left)
    return matrix


def model_step(state: np.ndarray, grid: GridSpec, cfg: ModelConfig, speeds: np.ndarray,
               src: NoiseSource | typing.Sequence[NoiseSource]) -> np.ndarray:
    """Advance the state one step: advection, then additive model noise.

    The noise adds per-station variance ``cfg.noise_var`` per step, matching
    the covariance inflation used by the filters' forecast. ``state`` is one
    state (N,) with one ``src``, or a stack (R, N) with R sources: one
    transition is built, and row r gets its own matrix-vector product and
    the noise of source r, so it equals its one-state step bit for bit.
    """
    state = np.asarray(state, dtype=float)
    srcs = [src] if isinstance(src, NoiseSource) else list(src)
    if state.ndim > 2 or len(srcs) != (1 if state.ndim == 1 else len(state)):
        raise ValueError(f"need one noise source per state row: got {len(srcs)} for a state "
                         f"of shape {state.shape}")
    out = np.matmul(lax_friedrichs_matrix(grid, speeds), state[..., None])[..., 0]
    if cfg.noise_var > 0:
        for row, row_src in zip(out.reshape(-1, grid.n_points), srcs):
            row += gaussian_vector(row_src, grid.n_points, math.sqrt(cfg.noise_var))
    return out
