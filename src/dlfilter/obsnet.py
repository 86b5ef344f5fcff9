"""Fixed sparse observation system: station subset, acquisition times, synthetic data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import GridSpec, NoiseSource
from .truth import TruthField

__all__ = [
    "ObsNetwork",
    "Observation",
    "build_network",
    "sample_observations",
    "observation_matrix",
    "observations_by_step",
    "read_block",
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

    @property
    def n_stations(self) -> int:
        return len(self.station_indices)


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


def sample_observations(truth: TruthField, net: ObsNetwork, src: NoiseSource,
                        max_step: int | None = None) -> list[Observation]:
    """Read the truth at every acquisition time/station and add N(0, R) noise.

    ``max_step`` bounds the acquisition times (the "present"); by default the
    whole truth record is observed.
    """
    last = truth.values.shape[0] - 1 if max_step is None else min(max_step, truth.values.shape[0] - 1)
    std = math.sqrt(net.noise_var)
    out = []
    for step in range(net.step_stride, last + 1, net.step_stride):
        draws = src.standard_normal(net.n_stations)
        for k, station in enumerate(net.station_indices):
            value = truth.values[step, station] + std * draws[k]
            out.append(Observation(value=float(value), station=station,
                                   time_index=step, variance=net.noise_var))
    return out


def observation_matrix(net: ObsNetwork, grid: GridSpec) -> np.ndarray:
    """Selector matrix H with one row per station: (H v)_k = v[station_k]."""
    h = np.zeros((net.n_stations, grid.n_points))
    h[np.arange(net.n_stations), list(net.station_indices)] = 1.0
    return h


def observations_by_step(observations: list[Observation]) -> dict[int, list[Observation]]:
    """Group observations by acquisition step, preserving order within a step."""
    grouped: dict[int, list[Observation]] = {}
    for obs in observations:
        grouped.setdefault(obs.time_index, []).append(obs)
    return grouped


def read_block(block: list[Observation], time_index: int,
               n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values, stations and variances of a block of readings, each of which
    must be taken at step ``time_index`` and at a station of a grid of ``n_points``."""
    times = {obs.time_index for obs in block}
    if times - {time_index}:
        raise ValueError(f"observations at steps {sorted(times)}, expected step {time_index}")
    stations = np.array([obs.station for obs in block], dtype=np.int64)
    if ((stations < 0) | (stations >= n_points)).any():
        raise ValueError("observation station outside the grid")
    return (np.array([obs.value for obs in block], dtype=float), stations,
            np.array([obs.variance for obs in block], dtype=float))
