"""Classical Kalman filter: forecast through the advection model, then analysis.

Both filters share the conditioning kernel :func:`condition`; the dynamic
likelihood filter calls it from ``dlf.multi_analysis``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import GridSpec, StateEstimate
from .model import ModelConfig, advect, apply_transition, lax_friedrichs_weights
from .obsnet import Observation, ObservationBatch, read_block

__all__ = ["FilterError", "forecast", "analysis", "condition"]


class FilterError(RuntimeError):
    """Raised when a filter update cannot be performed (singular system, bad inputs)."""


_WORKSPACE = [np.empty(0), np.empty(0)]


def _workspace(slot: int, shape: tuple[int, int]) -> np.ndarray:
    """A C-contiguous scratch array of ``shape`` in one of the two workspace slots.

    Each slot is one flat buffer that grows to the largest size asked of it
    and is then reused, so forecasts and conditionings at one N map no N x N
    temporaries after the first. Nothing returned to a caller lives here:
    each function is done with the workspace when it returns. The workspace
    is shared, so the filters run in one thread at a time.
    """
    size = shape[0] * shape[1]
    if _WORKSPACE[slot].size < size:
        _WORKSPACE[slot] = np.empty(size)
    return _WORKSPACE[slot][:size].reshape(shape)


def forecast(prev: StateEstimate, grid: GridSpec, model_cfg: ModelConfig,
             speeds: np.ndarray, out: np.ndarray | None = None) -> StateEstimate:
    """One forecast step of the filter through the Lax-Friedrichs model.

    Returns (T m, T P T^T + noise_var * I), the covariance symmetrized, with
    the mean, one state or a stack, from :func:`~dlfilter.model.advect`. T has
    two diagonals, so T P T^T costs O(N^2): :func:`~dlfilter.model.apply_transition`
    applies T to the rows of P, then to the columns of the result.

    The covariance is written to ``out`` (a new array if None). ``out`` may
    be ``prev.covariance`` itself: P is read in full before ``out`` is
    written, so a caller done with ``prev`` can forecast into its buffer.
    """
    mean = advect(prev.mean, grid, speeds)
    right, left = lax_friedrichs_weights(grid, speeds)
    shape = prev.covariance.shape
    cov = np.empty(shape) if out is None else out
    rows, work = _workspace(0, shape), _workspace(1, shape)
    apply_transition(right, left, prev.covariance, rows, work)
    apply_transition(right, left, rows.T, cov.T, work.T)
    np.add(cov, cov.T, out=rows)
    np.multiply(rows, 0.5, out=cov)
    cov.flat[::shape[0] + 1] += model_cfg.noise_var  # the diagonal
    return StateEstimate(time_index=prev.time_index + 1, mean=mean, covariance=cov)


def condition(mean: np.ndarray, cov: np.ndarray, stations, values, variances,
              time_index: int | None = None,
              out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Condition N(mean, cov) on independent direct readings of some stations.

    Reading k is ``values[..., k]`` of station ``stations[k]`` with noise
    variance ``variances[k]`` (or one scalar for all). With L the Cholesky
    factor of P[S, S] + diag(r) and W = L^-1 P[S, :], the posterior is

        mean + W^T L^-1 (y - mean[S]),   P - W^T W,

    in O(N^2 k). P must be symmetric: P[S, :] is read as the transpose of the
    gathered columns P[:, S]. ``mean`` (..., N) and ``values`` (..., k) may be
    stacks of replicates: the gain does not read the data, so one
    factorization serves every row. Each row gets its own LAPACK ``trtrs`` and
    matrix-vector product, so it equals its one-mean update bit for bit.
    ``W.T @ W`` is a symmetric rank-k product, so the posterior covariance is
    exactly symmetric whenever P is (factorized update, after Bierman 1977).
    The mean is a new array; the covariance is written to ``out`` (a new
    array if None), which may be ``cov`` itself: a caller done with the prior
    can condition into its buffer. ``time_index`` only labels a failed
    factorization. Readings that are not one per station, and non-finite
    gathered columns, variances or innovations, raise ``ValueError`` before
    any LAPACK call.
    """
    stations = np.asarray(stations, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if stations.size == 0:
        raise ValueError("conditioning needs at least one reading")
    if values.shape[-1:] != (stations.size,):
        raise ValueError(f"readings of shape {values.shape} are not one per station "
                         f"of {stations.size}")
    columns = np.take(cov, stations, axis=1, out=_workspace(0, (cov.shape[0], stations.size)))
    innovation = values - mean[..., stations]
    if not (np.isfinite(columns).all() and np.isfinite(variances).all()
            and np.isfinite(innovation).all()):
        raise ValueError("array must not contain infs or NaNs")
    restricted = columns[stations]
    restricted.flat[::stations.size + 1] += variances  # the diagonal
    # The block is exactly symmetric, so its Fortran-ordered transpose is the
    # same matrix and potrf factors it in place.
    factor, info = scipy.linalg.lapack.dpotrf(restricted.T, lower=1, overwrite_a=1)
    if info > 0:
        where = "" if time_index is None else f" at time index {time_index}"
        raise FilterError(f"innovation covariance not positive definite{where}")
    # columns.T is Fortran-ordered, so W is solved in place in workspace slot 0.
    # A factor from potrf has a positive diagonal, so no trtrs can fail.
    weights = scipy.linalg.lapack.dtrtrs(factor, columns.T, lower=1, overwrite_b=1)[0]
    for row in innovation.reshape(-1, stations.size):
        row[:] = scipy.linalg.lapack.dtrtrs(factor, row, lower=1)[0]
    post_mean = mean + np.matmul(weights.T, innovation[..., None])[..., 0]
    product = np.matmul(weights.T, weights, out=_workspace(1, cov.shape))
    return post_mean, np.subtract(cov, product, out=out)


def analysis(forecast_est: StateEstimate, obs_block: ObservationBatch | list[Observation],
             obs_matrix: np.ndarray, obs_var: float,
             out: np.ndarray | None = None) -> StateEstimate:
    """Condition the forecast on a block of same-time observations.

    The block is read by :func:`~dlfilter.obsnet.read_block`, and each
    reading must carry ``obs_var``. ``obs_matrix`` must be exactly the 0/1
    selector H whose rows pick the observed stations, one per observation in
    block order; any other matrix raises. The update itself runs through
    :func:`condition`; a stacked forecast mean reads a stacked batch, one row
    per replicate. The posterior covariance goes to ``out`` as in
    :func:`condition`. An empty block returns the forecast unchanged.
    """
    if not obs_block:
        return forecast_est
    n_state = forecast_est.covariance.shape[0]
    values, stations, variances = read_block(obs_block, forecast_est.time_index, n_state)
    if (variances != obs_var).any():
        raise ValueError(f"observation variance differs from obs_var = {obs_var}")
    selector = np.zeros((stations.size, n_state))
    selector[np.arange(stations.size), stations] = 1.0
    if not np.array_equal(obs_matrix, selector):
        raise ValueError("observation matrix is not the selector of the block's stations")

    mean, cov = condition(forecast_est.mean, forecast_est.covariance, stations, values,
                          obs_var, time_index=forecast_est.time_index, out=out)
    return StateEstimate(time_index=forecast_est.time_index, mean=mean, covariance=cov)
