"""Classical Kalman filter: forecast through the advection model, then analysis.

Both filters share the conditioning kernel :func:`condition`; the dynamic
likelihood filter calls it from ``dlf.multi_analysis``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import GridSpec, StateEstimate
from .model import ModelConfig, advect, apply_transition, lax_friedrichs_weights
from .obsnet import Observation, read_block

__all__ = ["FilterError", "forecast", "analysis", "condition", "update_mean", "gain_columns"]


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
    the mean from :func:`~dlfilter.model.advect`. T has two diagonals, so
    T P T^T costs O(N^2): :func:`~dlfilter.model.apply_transition` applies T
    to the rows of P, then to the columns of the result.

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


def _whiten(cov: np.ndarray, stations: np.ndarray, variances,
            time_index: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L of P[S, S] + diag(r), and W = L^-1 P[S, :].

    P must be symmetric: P[S, :] is read as the transpose of the gathered
    columns P[:, S]. W is a (k, N) view of workspace slot 0.
    """
    if stations.size == 0:
        raise ValueError("conditioning needs at least one reading")
    columns = np.take(cov, stations, axis=1, out=_workspace(0, (cov.shape[0], stations.size)))
    restricted = columns[stations]
    restricted.flat[::stations.size + 1] += variances  # the diagonal
    try:
        factor = scipy.linalg.cholesky(restricted, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        where = "" if time_index is None else f" at time index {time_index}"
        raise FilterError(f"innovation covariance not positive definite{where}") from exc
    # columns.T is Fortran-ordered, so the solve runs in place in the workspace.
    return factor, scipy.linalg.solve_triangular(factor, columns.T, lower=True,
                                                 overwrite_b=True)


def update_mean(mean: np.ndarray, stations: np.ndarray, values, factor: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """The posterior mean of :func:`condition` from its factors: mean + W^T L^-1 (y - mean[S]).

    ``mean`` (..., N) and ``values`` (..., k) may be stacks of rows that share
    the factors. Each row gets its own LAPACK ``trtrs`` and matrix-vector
    product, so it equals its one-mean update bit for bit; one solve or
    product over the stack would round differently. A non-finite factor or
    innovation raises ``ValueError``, a zero on L's diagonal ``LinAlgError``.
    """
    innovation = np.asarray(values, dtype=float) - mean[..., stations]
    if factor.shape != innovation.shape[-1:] * 2:
        raise ValueError(f"factor of shape {factor.shape} does not fit "
                         f"{innovation.shape[-1]} readings")
    if not (np.isfinite(factor).all() and np.isfinite(innovation).all()):
        raise ValueError("array must not contain infs or NaNs")
    for row in innovation.reshape(-1, innovation.shape[-1]):
        row[:], info = scipy.linalg.lapack.dtrtrs(factor, row, lower=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal "
                                        f"{info - 1}")
    return mean + np.matmul(weights.T, innovation[..., None])[..., 0]


def condition(mean: np.ndarray, cov: np.ndarray, stations, values, variances,
              time_index: int | None = None,
              factors_out: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Condition N(mean, cov) on independent direct readings of some stations.

    Reading k is ``values[k]`` of station ``stations[k]`` with noise variance
    ``variances[k]`` (or one scalar for all). With L the Cholesky factor of
    P[S, S] + diag(r) and W = L^-1 P[S, :], the posterior is

        mean + W^T L^-1 (y - mean[S]),   P - W^T W,

    in O(N^2 k). ``W.T @ W`` is a symmetric rank-k product, so the posterior
    covariance is exactly symmetric whenever P is (factorized update, after
    Bierman 1977). Both results are new arrays. ``time_index`` only labels a
    failed factorization. A ``factors_out`` list gets (L, W) appended, L new
    and W copied out of the workspace in its memory layout, so
    :func:`update_mean` repeats this posterior mean from them bit for bit.
    """
    stations = np.asarray(stations, dtype=np.int64)
    factor, weights = _whiten(cov, stations, variances, time_index)
    if factors_out is not None:
        factors_out.append((factor, weights.copy(order="K")))
    post_mean = update_mean(mean, stations, values, factor, weights)
    product = np.matmul(weights.T, weights, out=_workspace(1, cov.shape))
    return post_mean, np.subtract(cov, product)


def gain_columns(cov: np.ndarray, stations, variances) -> np.ndarray:
    """Gain columns P[:, S] (P[S, S] + diag(r))^-1 = W^T L^-1 of :func:`condition`.

    Shape (n_state, k): the nonzero columns of the Kalman gain, for scoring.
    """
    factor, weights = _whiten(cov, np.asarray(stations, dtype=np.int64), variances, None)
    return scipy.linalg.solve_triangular(factor, weights, lower=True, trans="T").T


def analysis(forecast_est: StateEstimate, obs_block: list[Observation],
             obs_matrix: np.ndarray, obs_var: float,
             factors_out: list | None = None) -> StateEstimate:
    """Condition the forecast on a block of same-time observations.

    The block is read by :func:`~dlfilter.obsnet.read_block`, and each
    reading must carry ``obs_var``. ``obs_matrix`` must be exactly the 0/1
    selector H whose rows pick the observed stations, one per observation in
    block order; any other matrix raises. The update itself runs through
    :func:`condition`, which gets ``factors_out``. An empty block returns the
    forecast unchanged.
    """
    if not obs_block:
        return forecast_est
    n_state = forecast_est.mean.shape[0]
    values, stations, variances = read_block(obs_block, forecast_est.time_index, n_state)
    if (variances != obs_var).any():
        raise ValueError(f"observation variance differs from obs_var = {obs_var}")
    selector = np.zeros((stations.size, n_state))
    selector[np.arange(stations.size), stations] = 1.0
    if not np.array_equal(obs_matrix, selector):
        raise ValueError("observation matrix is not the selector of the block's stations")

    mean, cov = condition(forecast_est.mean, forecast_est.covariance, stations, values,
                          obs_var, time_index=forecast_est.time_index, factors_out=factors_out)
    return StateEstimate(time_index=forecast_est.time_index, mean=mean, covariance=cov)
