"""Dynamic likelihood filter: advect past observations to the present and
use them, alongside fresh data, in a per-station multi-analysis.

A measurement made at station z and step m keeps informing later steps: its
location rides the mean characteristics (semi-Lagrangian), its variance
inflates with the forcing noise, and at every step the surviving pool is
projected onto stations, rank-ordered by uncertainty, and assimilated.
The forecast is the caller's model forecast, the same as the Kalman filter's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import GridSpec, StateEstimate
from .kalman import condition
from .obsnet import Observation
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
    """

    time_index: int
    value: np.ndarray
    position: np.ndarray
    variance: np.ndarray
    origin_time: np.ndarray
    origin_station: np.ndarray

    def __post_init__(self):
        n = len(self.value)
        for name, dtype in _POOL_DTYPES:
            array = np.asarray(getattr(self, name), dtype=dtype)
            if array.shape != (n,):
                raise ValueError("pool arrays must be one-dimensional and of equal length")
            object.__setattr__(self, name, array)
        if (self.variance <= 0).any():
            raise ValueError("live observation variance must be positive")
        if (self.origin_time > self.time_index).any():
            raise ValueError("origin_time cannot follow the pool's time_index")

    @classmethod
    def empty(cls, time_index: int) -> "Pool":
        none = np.empty(0, dtype=np.int64)
        return cls(time_index, np.empty(0), np.empty(0), np.empty(0), none, none)

    def __len__(self):
        return self.value.shape[0]

    def take(self, index) -> "Pool":
        """The entries picked by ``index`` (a mask, index array or slice)."""
        return Pool(self.time_index, self.value[index], self.position[index],
                    self.variance[index], self.origin_time[index], self.origin_station[index])


@dataclass(frozen=True)
class LikelihoodAssembly:
    """Winning datum per informed station, ready for the multi-analysis.

    ``selected[k]`` is the index, among the ranked candidates, of the datum
    that informs ``informed_stations[k]``.
    """

    informed_stations: np.ndarray
    projected_values: np.ndarray
    projected_variances: np.ndarray
    selected: np.ndarray

    def __post_init__(self):
        k = len(self.informed_stations)
        if np.unique(self.informed_stations).size != k:
            raise ValueError("at most one datum per station")
        if any(a.shape != (k,) for a in (self.projected_values, self.projected_variances,
                                         self.selected)):
            raise ValueError("assembly arrays must match the informed station count")

    @classmethod
    def empty(cls) -> "LikelihoodAssembly":
        none = np.empty(0, dtype=np.int64)
        return cls(none, np.empty(0), np.empty(0), none)

    def __len__(self):
        return len(self.informed_stations)


@dataclass(frozen=True)
class DlfStepResult:
    estimate: StateEstimate
    pool: Pool
    assembly: LikelihoodAssembly


def propagate_observation(pool: Pool, grid: GridSpec, truth_cfg: TruthConfig) -> Pool:
    """Advance every datum position one semi-Lagrangian step along the mean speed.

    Values are carried unchanged; positions use the speed at the old
    positions and time, then wrap periodically.
    """
    speed = mean_speed(truth_cfg, pool.position, pool.time_index * grid.dt)
    return replace(pool, position=grid.wrap(pool.position + grid.dt * speed),
                   time_index=pool.time_index + 1)


def propagate_variance(pool: Pool, forcing_amp: float, dt: float) -> Pool:
    """Inflate every datum variance by one step of forcing noise: += amp^2 * dt."""
    return replace(pool, variance=pool.variance + forcing_amp ** 2 * dt)


def _station(position: np.ndarray, grid: GridSpec) -> np.ndarray:
    # The one station rule; viability_filter calls it, so project runs once per step.
    return np.floor(position / grid.dx + _NODE_EPS).astype(np.int64) % grid.n_points


def viability_filter(pool: Pool, forecast_cov: np.ndarray, grid: GridSpec) -> Pool:
    """Drop data whose variance exceeds the forecast variance at their project() station."""
    return pool.take(pool.variance <= np.diag(forecast_cov)[_station(pool.position, grid)])


def project(pool: Pool, grid: GridSpec) -> np.ndarray:
    """Station of each datum: the node at floor(position / dx)."""
    return _station(pool.position, grid)


def rank_order(stations: np.ndarray, values: np.ndarray,
               variances: np.ndarray) -> LikelihoodAssembly:
    """Keep, per station, the candidate with the lowest variance.

    Ties go to the earlier candidate (the sort is stable), so among equally
    uncertain data the one that joined the pool first wins.
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
                              projected_values=values[selected],
                              projected_variances=variances[selected],
                              selected=selected)


def multi_analysis(forecast_est: StateEstimate, assembly: LikelihoodAssembly,
                   factors_out: list | None = None) -> StateEstimate:
    """Condition the forecast on the assembled per-station data.

    Each informed station is read directly at its winning datum's variance;
    uninformed stations carry no reading (the infinite-variance limit). An
    empty assembly leaves the forecast untouched. ``factors_out`` is passed
    to :func:`~dlfilter.kalman.condition`.
    """
    if len(assembly) == 0:
        return forecast_est
    mean, cov = condition(forecast_est.mean, forecast_est.covariance,
                          assembly.informed_stations, assembly.projected_values,
                          assembly.projected_variances, time_index=forecast_est.time_index,
                          factors_out=factors_out)
    return StateEstimate(time_index=forecast_est.time_index, mean=mean, covariance=cov)


def _join_fresh(pool: Pool, fresh: list[Observation], grid: GridSpec) -> Pool:
    """Append fresh measurements, taken at the pool's time, at their stations."""
    if not fresh:
        return pool
    times = {obs.time_index for obs in fresh}
    if times != {pool.time_index}:
        raise ValueError(f"fresh observations at steps {sorted(times)}, "
                         f"expected {pool.time_index}")
    stations = np.array([obs.station for obs in fresh])
    if stations.min() < 0 or stations.max() >= grid.n_points:
        raise ValueError("observation station outside the grid")
    return Pool(pool.time_index,
                np.concatenate([pool.value, [obs.value for obs in fresh]]),
                np.concatenate([pool.position, stations * grid.dx]),
                np.concatenate([pool.variance, [obs.variance for obs in fresh]]),
                np.concatenate([pool.origin_time, np.full(len(fresh), pool.time_index)]),
                np.concatenate([pool.origin_station, stations]))


def dlf_step(forecast_est: StateEstimate, pool: Pool, fresh: list[Observation],
             grid: GridSpec, truth_cfg: TruthConfig,
             factors_out: list | None = None) -> DlfStepResult:
    """Assimilate the pool and fresh data into one step's model forecast.

    The pool is advanced one step (positions and variances) to the
    forecast's time, fresh measurements join it at their stations, non-viable
    members are shed, and the survivors are projected and rank-ordered into
    the assembly used by the multi-analysis. Survivors persist to the next
    step; the assembly's ``selected`` indexes them. ``factors_out`` is passed
    to the multi-analysis.
    """
    if pool.time_index + 1 != forecast_est.time_index:
        raise ValueError(f"pool at step {pool.time_index}, expected {forecast_est.time_index - 1}")
    advanced = propagate_variance(propagate_observation(pool, grid, truth_cfg),
                                  truth_cfg.forcing_noise, grid.dt)
    survivors = viability_filter(_join_fresh(advanced, fresh, grid),
                                 forecast_est.covariance, grid)
    cap = POOL_CAP_FACTOR * grid.n_points
    if len(survivors) > cap:
        survivors = survivors.take(slice(-cap, None))

    assembly = rank_order(project(survivors, grid), survivors.value, survivors.variance)
    estimate = multi_analysis(forecast_est, assembly, factors_out)
    return DlfStepResult(estimate=estimate, pool=survivors, assembly=assembly)
