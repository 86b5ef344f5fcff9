"""Classical Kalman filter: forecast through the advection model, then analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import GridSpec, StateEstimate
from .model import ModelConfig, lax_friedrichs_matrix
from .obsnet import Observation

__all__ = [
    "FilterError",
    "KalmanGain",
    "forecast_step",
    "forecast",
    "kalman_gain",
    "analysis",
    "joseph_covariance",
]


class FilterError(RuntimeError):
    """Raised when a filter update cannot be performed (singular system, bad inputs)."""


@dataclass(frozen=True)
class KalmanGain:
    gain: np.ndarray  # (n_state, n_obs)

    def __post_init__(self):
        if not np.all(np.isfinite(self.gain)):
            raise FilterError("Kalman gain contains non-finite entries")


def forecast_step(mean: np.ndarray, cov: np.ndarray, transition: np.ndarray,
                  noise_var: float):
    """Propagate mean and covariance through one linear step.

    Returns the forecast pair (transition @ mean,
    transition @ cov @ transition.T + noise_var * I), covariance symmetrized.
    """
    new_mean = transition @ mean
    new_cov = transition @ cov @ transition.T
    new_cov = 0.5 * (new_cov + new_cov.T)
    if noise_var:
        new_cov = new_cov + noise_var * np.eye(mean.shape[0])
    return new_mean, new_cov


def forecast(prev: StateEstimate, grid: GridSpec, model_cfg: ModelConfig,
             speeds: np.ndarray) -> StateEstimate:
    """One forecast step of the filter through the Lax-Friedrichs model."""
    transition = lax_friedrichs_matrix(grid, speeds)
    mean, cov = forecast_step(prev.mean, prev.covariance, transition, model_cfg.noise_var)
    return StateEstimate(time_index=prev.time_index + 1, mean=mean, covariance=cov)


def kalman_gain(forecast_cov: np.ndarray, obs_matrix: np.ndarray, obs_var: float,
                time_index: int | None = None) -> KalmanGain:
    """Gain K = P H^T (H P H^T + R)^(-1) via a symmetric K x K solve."""
    hp = obs_matrix @ forecast_cov
    innovation_cov = hp @ obs_matrix.T + obs_var * np.eye(obs_matrix.shape[0])
    try:
        gain = scipy.linalg.solve(innovation_cov, hp, assume_a="pos").T
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        where = "" if time_index is None else f" at time index {time_index}"
        raise FilterError(f"singular innovation covariance{where}") from exc
    return KalmanGain(gain=gain)


def analysis(forecast_est: StateEstimate, obs_block: list[Observation],
             obs_matrix: np.ndarray, obs_var: float) -> StateEstimate:
    """Condition the forecast on a block of same-time observations.

    An empty block returns the forecast unchanged. The posterior covariance
    uses (I - K H) P, re-symmetrized.
    """
    if not obs_block:
        return forecast_est
    times = {obs.time_index for obs in obs_block}
    if times != {forecast_est.time_index}:
        raise ValueError(f"observations at {sorted(times)} do not match forecast step "
                         f"{forecast_est.time_index}")
    if len(obs_block) != obs_matrix.shape[0]:
        raise ValueError("observation block size does not match the observation matrix")
    rows = np.argmax(obs_matrix, axis=1)
    stations = np.array([obs.station for obs in obs_block])
    if not np.array_equal(rows, stations):
        raise ValueError("observation stations do not line up with the observation matrix rows")

    gain = kalman_gain(forecast_est.covariance, obs_matrix, obs_var,
                       time_index=forecast_est.time_index).gain
    values = np.array([obs.value for obs in obs_block])
    mean = forecast_est.mean + gain @ (values - obs_matrix @ forecast_est.mean)
    cov = (np.eye(forecast_est.mean.shape[0]) - gain @ obs_matrix) @ forecast_est.covariance
    cov = 0.5 * (cov + cov.T)
    return StateEstimate(time_index=forecast_est.time_index, mean=mean, covariance=cov)


def joseph_covariance(forecast_cov: np.ndarray, gain: np.ndarray, obs_matrix: np.ndarray,
                      obs_var: float) -> np.ndarray:
    """Posterior covariance in the numerically robust Joseph form.

    Valid for any gain, optimal or not, which also makes it the scoring
    function for gain-optimality checks.
    """
    n = forecast_cov.shape[0]
    shrink = np.eye(n) - gain @ obs_matrix
    return shrink @ forecast_cov @ shrink.T + obs_var * gain @ gain.T
