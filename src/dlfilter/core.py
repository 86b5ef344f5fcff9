"""Shared value types: periodic grid, state estimates, seeded Gaussian noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "StateEstimate",
    "NoiseSource",
    "make_grid",
    "gaussian_vector",
]

# Relative tolerance for the covariance symmetry invariant.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Equi-distant periodic 1-D lattice plus time-stepping metadata.

    Station ``l`` sits at ``x = l * dx`` for ``l = 0 .. n_points - 1``.
    Index arithmetic is mod ``n_points``; ``x = domain_length`` is the same
    point as ``x = 0``.
    """

    domain_length: float
    n_points: int
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.domain_length <= 0:
            raise ValueError("domain_length must be positive")
        if self.n_points < 2:
            raise ValueError("need at least 2 grid points")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @property
    def dx(self) -> float:
        return self.domain_length / self.n_points

    @property
    def positions(self) -> np.ndarray:
        """Station coordinates ``l * dx``, shape (n_points,)."""
        return np.arange(self.n_points) * self.dx

    def wrap(self, x):
        """Map positions periodically into [0, domain_length)."""
        # np.mod rounds a tiny negative x up to domain_length itself; the
        # second mod maps that to 0 and leaves every other result unchanged.
        return np.mod(np.mod(x, self.domain_length), self.domain_length)


def _scale(cov: np.ndarray) -> float:
    """Magnitude the covariance tolerances are relative to (at least 1)."""
    return max(1.0, float(np.abs(cov).max()) if cov.size else 1.0)


@dataclass(frozen=True)
class StateEstimate:
    """Mean state and full covariance at one time index; the mean may be a
    stack (..., N) of replicate means, one per row, sharing the (N, N) covariance."""

    time_index: int
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if self.time_index < 0:
            raise ValueError("time_index must be nonnegative")
        if mean.ndim == 0 or cov.shape != mean.shape[-1:] * 2:
            raise ValueError(f"mean/covariance shapes inconsistent: {mean.shape} vs {cov.shape}")
        # The filters build exactly symmetric covariances, which skip the
        # tolerance scan; the scale is computed only when a test needs it.
        # Both tests are written to fail on NaN, which never equals itself.
        if not np.array_equal(cov, cov.T):
            err = float(np.abs(cov - cov.T).max())
            if not err <= SYMMETRY_RTOL * _scale(cov):
                raise ValueError(f"covariance is not symmetric within tolerance "
                                 f"(max |P - P^T| = {err:.3g})")
        # An infinite entry makes the scale infinite, and with it the tolerance.
        if not np.isfinite(cov).all():
            raise ValueError("covariance has an infinite entry")
        low = float(np.diag(cov).min())
        if not (low >= 0 or low >= -SYMMETRY_RTOL * _scale(cov)):
            raise ValueError("covariance has a negative diagonal entry")

    @property
    def trace(self) -> float:
        return float(np.trace(self.covariance))


class NoiseSource:
    """Deterministic Gaussian stream keyed by its seed.

    Identical keys replay the identical draw sequence. ``child(tag)`` with a
    nonzero tag derives a stream independent of its parent and its siblings,
    so that sub-components (forcing vs. wave-speed noise, say) never share
    draws and toggling one leaves the others untouched. ``child(0)`` does
    not: it draws exactly its parent's stream, because numpy's
    ``SeedSequence`` drops trailing zero words of its key. So the truth's
    initial-pulse noise (``truth._STREAM_INIT = 0``) is the stream of
    ``NoiseSource(seed_truth)`` itself, and changing that tag moves every
    truth byte. The generator's key is (seed, 0, *tags): the 0 keeps every
    stream's draws.
    """

    def __init__(self, seed: int, *, _lineage: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._lineage = tuple(int(t) for t in _lineage)
        self._rng = np.random.default_rng((self.seed, 0, *self._lineage))

    def child(self, tag: int) -> "NoiseSource":
        return NoiseSource(self.seed, _lineage=(*self._lineage, tag))

    def standard_normal(self, n: int) -> np.ndarray:
        return self._rng.standard_normal(int(n))

    def __repr__(self):
        return f"NoiseSource(seed={self.seed}, lineage={self._lineage})"


def make_grid(domain_length: float, n_points: int, cfl: float, max_speed: float,
              n_steps: int) -> GridSpec:
    """Build the periodic grid; the time step follows from the CFL number.

    ``dt = cfl * dx / max_speed`` where ``max_speed`` bounds the advection
    speed over the whole run.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not 0 < cfl <= 1:
        raise ValueError("cfl must lie in (0, 1]")
    if max_speed <= 0:
        raise ValueError("max_speed must be positive (dt would be unbounded)")
    dt = cfl * (domain_length / n_points) / max_speed
    return GridSpec(domain_length=float(domain_length), n_points=int(n_points),
                    dt=dt, n_steps=int(n_steps))


def gaussian_vector(src: NoiseSource, n: int, stddev: float) -> np.ndarray:
    """Draw ``n`` independent N(0, stddev^2) samples from ``src``."""
    if stddev < 0:
        raise ValueError("stddev must be nonnegative")
    return stddev * src.standard_normal(n)
