"""Dynamic likelihood filter: advect past observations to the present and
use them, alongside fresh data, in a per-station multi-analysis.

A measurement made at station z and step m keeps informing later steps: its
location rides the mean characteristics (semi-Lagrangian), its variance
inflates with the forcing noise, and at every step the surviving pool is
projected onto stations, rank-ordered by uncertainty, and assimilated.
The forecast is the caller's model forecast, the same as the Kalman filter's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kalman
from .core import GridSpec, StateEstimate
from .obsnet import Observation, ObservationBatch, read_block
from .truth import TruthConfig, mean_speed

__all__ = [
    "Pool",
    "LikelihoodAssembly",
    "DlfStepResult",
    "propagate_observation",
    "propagate_variance",
    "viability_filter",
    "project",
    "rank_order",
    "multi_analysis",
    "dlf_step",
    "POOL_CAP_FACTOR",
]

# Pool memory bound: at most POOL_CAP_FACTOR * n_points live observations,
# oldest evicted first.
POOL_CAP_FACTOR = 4

# Guards station = floor(position / dx) against positions that sit on a node
# up to rounding (e.g. station * dx fed back through the division).
_NODE_EPS = 1e-9


_POOL_DTYPES = (("value", float), ("position", float), ("variance", float),
                ("origin_time", np.int64), ("origin_station", np.int64))


@dataclass(frozen=True)
class Pool:
    """Live observations riding the flow, all at one time index.

    Entry k is a measurement taken at step ``origin_time[k]`` and station
    ``origin_station[k]``, now at ``position[k]`` with inflated
    ``variance[k]``. Entries are kept in arrival order, oldest first.
    ``value[..., k]`` is its reading, or a stack of one per replicate: where a
    datum sits does not read the data, so replicates share every other array.
    ``len()`` counts the data.
    """

    time_index: int
    value: np.ndarray
    position: np.ndarray
    variance: np.ndarray
    origin_time: np.ndarray
    origin_station: np.ndarray

    def __post_init__(self):
        n = len(self.position)
        for name, dtype in _POOL_DTYPES:
            array = np.asarray(getattr(self, name), dtype=dtype)
            if (array.shape[-1:] if name == "value" else array.shape) != (n,):
                raise ValueError("pool arrays must be one-dimensional and of equal length")
            object.__setattr__(self, name, array)
        if (self.variance <= 0).any():
            raise ValueError("live observation variance must be positive")
        if (self.origin_time > self.time_index).any():
            raise ValueError("origin_time cannot follow the pool's time_index")

    @classmethod
    def empty(cls, time_index: int, rows: tuple[int, ...] = ()) -> "Pool":
        none = np.empty(0, dtype=np.int64)
        return cls(time_index, np.empty((*rows, 0)), np.empty(0), np.empty(0), none, none)

    def __len__(self):
        return self.position.shape[0]


@dataclass(frozen=True)
class LikelihoodAssembly:
    """Winning datum per informed station, ready for the multi-analysis.

    ``selected[k]`` is the index, among the ranked candidates, of the datum
    that informs ``informed_stations[k]``; ``projected_values[..., k]`` is its
    reading, or a stack of one per replicate.
    """

    informed_stations: np.ndarray
    projected_values: np.ndarray
    projected_variances: np.ndarray
    selected: np.ndarray

    def __post_init__(self):
        k = len(self.informed_stations)
        if np.unique(self.informed_stations).size != k:
            raise ValueError("at most one datum per station")
        if any(shape != (k,) for shape in (self.projected_values.shape[-1:],
                                           self.projected_variances.shape, self.selected.shape)):
            raise ValueError("assembly arrays must match the informed station count")

    def __len__(self):
        return len(self.informed_stations)


@dataclass(frozen=True)
class DlfStepResult:
    estimate: StateEstimate
    pool: Pool
    assembly: LikelihoodAssembly


def propagate_observation(position: np.ndarray, time_index: int, grid: GridSpec,
                          truth_cfg: TruthConfig) -> np.ndarray:
    """Data positions at step ``time_index`` advanced one semi-Lagrangian step.

    Each position moves by dt times the mean speed at it and at the step's
    time, then wraps periodically.
    """
    speed = mean_speed(truth_cfg, position, time_index * grid.dt)
    return grid.wrap(position + grid.dt * speed)


def propagate_variance(variance: np.ndarray, forcing_amp: float, dt: float) -> np.ndarray:
    """Data variances inflated by one step of forcing noise: += amp^2 * dt."""
    return variance + forcing_amp ** 2 * dt


def _station(position: np.ndarray, grid: GridSpec) -> np.ndarray:
    # The one station rule; viability_filter calls it, so project runs once per step.
    return np.floor(position / grid.dx + _NODE_EPS).astype(np.int64) % grid.n_points


def viability_filter(position: np.ndarray, variance: np.ndarray, forecast_cov: np.ndarray,
                     grid: GridSpec) -> np.ndarray:
    """Indices, in order, of the data whose variance is at most the forecast
    variance at their project() station."""
    return np.flatnonzero(variance <= np.diag(forecast_cov)[_station(position, grid)])


def project(pool: Pool, grid: GridSpec) -> np.ndarray:
    """Station of each datum: the node at floor(position / dx)."""
    return _station(pool.position, grid)


def rank_order(stations: np.ndarray, values: np.ndarray,
               variances: np.ndarray) -> LikelihoodAssembly:
    """Keep, per station, the candidate with the lowest variance.

    Ties go to the earlier candidate (the sort is stable), so among equally
    uncertain data the one that joined the pool first wins. ``values`` may be
    a stack, one row per replicate.
    """
    stations = np.asarray(stations, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variances, dtype=float)
    order = np.lexsort((variances, stations))
    ranked = stations[order]
    first = np.ones(ranked.shape, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    selected = order[first]
    return LikelihoodAssembly(informed_stations=stations[selected],
                              projected_values=values[..., selected],
                              projected_variances=variances[selected],
                              selected=selected)


def multi_analysis(forecast_est: StateEstimate, assembly: LikelihoodAssembly,
                   out: np.ndarray | None = None) -> StateEstimate:
    """Condition the forecast on the assembled per-station data.

    Each informed station is read directly at its winning datum's variance;
    uninformed stations carry no reading (the infinite-variance limit). The
    posterior covariance goes to ``out`` as in :func:`~dlfilter.kalman.condition`.
    An empty assembly leaves the forecast untouched.
    """
    if len(assembly) == 0:
        return forecast_est
    mean, cov = kalman.condition(forecast_est.mean, forecast_est.covariance,
                                 assembly.informed_stations, assembly.projected_values,
                                 assembly.projected_variances,
                                 time_index=forecast_est.time_index, out=out)
    return StateEstimate(time_index=forecast_est.time_index, mean=mean, covariance=cov)


def dlf_step(forecast_est: StateEstimate, pool: Pool, fresh: ObservationBatch | list[Observation],
             grid: GridSpec, truth_cfg: TruthConfig,
             out: np.ndarray | None = None) -> DlfStepResult:
    """Assimilate the pool and fresh data into one step's model forecast.

    The pool's positions and variances are advanced to the forecast's time,
    the fresh readings join them at their stations, non-viable data are shed
    and the oldest beyond the cap evicted. The survivors form the step's one
    new pool, projected and rank-ordered into the assembly used by the
    multi-analysis; the assembly's ``selected`` indexes them. A stacked
    forecast mean takes a stacked pool and block, one row of values per
    replicate; a pool or block without the mean's rows raises. The
    posterior covariance goes to ``out`` (see :func:`multi_analysis`).
    """
    now = forecast_est.time_index
    if pool.time_index + 1 != now:
        raise ValueError(f"pool at step {pool.time_index}, expected {now - 1}")
    if pool.value.shape[:-1] != forecast_est.mean.shape[:-1]:
        raise ValueError(f"pool values of shape {pool.value.shape} do not have the rows of a "
                         f"forecast mean of shape {forecast_est.mean.shape}")
    values, stations, variances = read_block(fresh, now, forecast_est.mean.shape)
    position = np.concatenate([propagate_observation(pool.position, pool.time_index, grid,
                                                     truth_cfg), stations * grid.dx])
    variance = np.concatenate([propagate_variance(pool.variance, truth_cfg.forcing_noise,
                                                  grid.dt), variances])
    kept = viability_filter(position, variance, forecast_est.covariance, grid)
    kept = kept[-POOL_CAP_FACTOR * grid.n_points:]
    joined = (np.concatenate([pool.value, values], axis=-1), position, variance,
              np.concatenate([pool.origin_time, np.full(stations.size, now)]),
              np.concatenate([pool.origin_station, stations]))
    survivors = Pool(now, *(array[..., kept] for array in joined))

    assembly = rank_order(project(survivors, grid), survivors.value, survivors.variance)
    estimate = multi_analysis(forecast_est, assembly, out=out)
    return DlfStepResult(estimate=estimate, pool=survivors, assembly=assembly)
