"""Fixed sparse observation system: station subset, acquisition times, synthetic data."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import GridSpec, NoiseSource
from .truth import TruthField

__all__ = [
    "ObsNetwork",
    "Observation",
    "ObservationBatch",
    "build_network",
    "sample_observations",
    "observation_matrix",
    "observations_by_step",
    "read_block",
    "selector",
]


@dataclass(frozen=True)
class ObsNetwork:
    """Where and when measurements are taken, and how noisy they are.

    Measurements are taken at ``station_indices`` every ``step_stride`` model
    steps, starting at step ``step_stride``.
    """

    station_indices: tuple[int, ...]
    step_stride: int
    noise_var: float

    def __post_init__(self):
        idx = self.station_indices
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("station_indices must be strictly increasing")
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")


@dataclass(frozen=True, slots=True)
class Observation:
    """One scalar measurement at a grid station and model-step index."""

    value: float
    station: int
    time_index: int
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("observation variance must be positive")


def _stride(freq, name: str) -> int:
    """Invert a sampling frequency 1/s into the integer stride s."""
    frac = Fraction(freq)
    if frac <= 0 or frac.numerator != 1:
        raise ValueError(f"{name} {freq} does not invert to a positive integer stride")
    return frac.denominator


def build_network(grid: GridSpec, xi, tau, noise_var: float) -> ObsNetwork:
    """Select every (1/xi)-th station, starting at index 0, and every (1/tau)-th step."""
    space_stride = _stride(xi, "spatial frequency")
    if space_stride > grid.n_points:
        raise ValueError("spatial stride exceeds the number of stations")
    return ObsNetwork(station_indices=tuple(range(0, grid.n_points, space_stride)),
                      step_stride=_stride(tau, "temporal frequency"),
                      noise_var=float(noise_var))


@dataclass(frozen=True, eq=False)
class ObservationBatch:
    """A run's readings as arrays, in acquisition order: entry i is the reading
    of ``station[i]`` at step ``time_index[i]``, of value ``value[..., i]``.

    ``value`` is one run's readings (n,) or a stack (R, n) of R replicates'
    readings at the same steps and stations, one row each. Every reading
    carries the network's ``variance``. ``len()`` counts one replicate's
    readings. Iterating a run's batch yields each reading as an
    :class:`Observation`; iterating a stack raises ``TypeError``.
    """

    time_index: np.ndarray
    station: np.ndarray
    value: np.ndarray
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("observation variance must be positive")
        if not self.time_index.shape == self.station.shape == self.value.shape[-1:]:
            raise ValueError(f"a batch needs one time index, station and value per reading: got "
                             f"shapes {self.time_index.shape}, {self.station.shape} and "
                             f"{self.value.shape}")

    def __len__(self) -> int:
        return self.station.size

    def __iter__(self) -> typing.Iterator[Observation]:
        if self.value.ndim != 1:
            raise TypeError(f"a stack of {self.value.shape[0]} replicates' readings yields "
                            f"no single Observation")
        return (Observation(value=value, station=station, time_index=time_index,
                            variance=self.variance)
                for time_index, station, value in zip(self.time_index.tolist(),
                                                      self.station.tolist(), self.value.tolist()))


def sample_observations(truth: TruthField, net: ObsNetwork, src: NoiseSource,
                        max_step: int | None = None) -> ObservationBatch:
    """Read the truth at every acquisition time/station and add N(0, R) noise.

    ``max_step`` bounds the acquisition times (the "present"); by default the
    whole truth record is observed. Each acquisition step draws one standard
    normal per station, in station order.
    """
    last = truth.values.shape[0] - 1 if max_step is None else min(max_step, truth.values.shape[0] - 1)
    steps = np.arange(net.step_stride, last + 1, net.step_stride)
    stations = np.array(net.station_indices, dtype=np.int64)
    # One draw of every step's normals gives the same numbers as one draw per step.
    draws = src.standard_normal(steps.size * stations.size).reshape(steps.size, stations.size)
    values = truth.values[steps[:, None], stations] + math.sqrt(net.noise_var) * draws
    return ObservationBatch(time_index=np.repeat(steps, stations.size),
                            station=np.tile(stations, steps.size), value=values.ravel(),
                            variance=net.noise_var)


def selector(stations, n_points: int) -> np.ndarray:
    """The 0/1 matrix H with one row per station: (H v)_k = v[stations[k]]."""
    h = np.zeros((len(stations), n_points))
    h[np.arange(len(stations)), stations] = 1.0
    return h


def observation_matrix(net: ObsNetwork, grid: GridSpec) -> np.ndarray:
    """The network's selector H, one row per station."""
    return selector(net.station_indices, grid.n_points)


def observations_by_step(observations: ObservationBatch) -> dict[int, ObservationBatch]:
    """Split a batch in acquisition order into one batch per step, preserving
    order within a step."""
    steps = observations.time_index
    if (np.diff(steps) < 0).any():
        raise ValueError("observations are not in acquisition order")
    cuts = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), steps.size]
    return {int(steps[a]): ObservationBatch(steps[a:b], observations.station[a:b],
                                            observations.value[..., a:b], observations.variance)
            for a, b in zip(cuts, cuts[1:]) if b > a}


def read_block(block: ObservationBatch | list[Observation], time_index: int,
               shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values, stations and variances of a block of readings, a batch or a
    list, each of which must be taken at step ``time_index`` and at a station
    of the grid of a forecast mean of ``shape``. The values must have that
    mean's rows: a stacked batch gives one row per replicate."""
    if isinstance(block, ObservationBatch):
        times, stations, values = block.time_index, block.station, block.value
        variances = np.full(stations.size, block.variance)
    else:
        times = np.array([obs.time_index for obs in block], dtype=np.int64)
        stations = np.array([obs.station for obs in block], dtype=np.int64)
        values = np.array([obs.value for obs in block], dtype=float)
        variances = np.array([obs.variance for obs in block], dtype=float)
    if (times != time_index).any():
        raise ValueError(f"observations at steps {sorted(set(times.tolist()))}, "
                         f"expected step {time_index}")
    if ((stations < 0) | (stations >= shape[-1])).any():
        raise ValueError("observation station outside the grid")
    if values.shape[:-1] != shape[:-1]:
        raise ValueError(f"readings of shape {values.shape} do not have the rows of a "
                         f"forecast mean of shape {shape}")
    return values, stations, variances
