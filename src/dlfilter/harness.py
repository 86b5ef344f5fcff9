"""Scenario configuration, end-to-end runs, metrics, and file outputs.

A run generates one truth realization, samples its observation network, and
advances three estimators over the same grid: a model-only trajectory (no
data), the Kalman filter, and the dynamic likelihood filter. Outputs are
plot-ready CSV files plus a JSON manifest that reproduces the run exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import statistics
import typing
from dataclasses import dataclass, fields, replace
from functools import cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .core import GridSpec, NoiseSource, StateEstimate, make_grid
from .dlf import POOL_CAP_FACTOR, DlfStepResult, Pool, dlf_step, rank_order
from .kalman import analysis, forecast
from .model import ModelConfig, lax_friedrichs_weights, model_step
from .obsnet import (ObservationBatch, build_network, observation_matrix, observations_by_step,
                     sample_observations)
from .truth import Drift, TruthConfig, TruthField, generate_truth, mean_speed, pulse_profile

__all__ = [
    "ScenarioConfig",
    "MetricTable",
    "RunResult",
    "default_config",
    "center_of_mass",
    "circular_distance",
    "run_scenario",
    "summarize_run",
    "run_cell",
    "sweep",
    "sweep_configs",
    "write_outputs",
    "load_config",
    "load_run",
    "config_to_flat",
    "config_from_flat",
]

FLOAT_FMT = ".17g"


def _step_speeds(truth_cfg: TruthConfig, grid: GridSpec, step: int) -> np.ndarray:
    """The station speeds that drive step ``step``: the mean speed at (step - 1) * dt."""
    return np.asarray(mean_speed(truth_cfg, grid.positions, (step - 1) * grid.dt), dtype=float)


def _run_speeds(cfg: ScenarioConfig) -> list[np.ndarray]:
    """The station speeds of steps 1 to n_steps of a run, in step order."""
    return [_step_speeds(cfg.truth_config, cfg.grid, step) for step in range(1, cfg.n_steps + 1)]


# The canonical scenario of each drift family: the values its unset fields take.
_DRIFT_DEFAULTS = {
    Drift.OU: dict(n_steps=200, pulse_center=1.25),
    Drift.ACCELERATING: dict(n_steps=100, pulse_center=1.0),
}

# No prior variance of a run exceeds init_var + n_steps * model_noise_var (the
# Lax-Friedrichs rows are convex weights). Past obs_var / eps, P - W^T W at a read
# station loses every digit: a run crashed first at 5e15 * obs_var, so a config
# stays this factor of obs_var below that.
MAX_PRIOR_OVER_OBS_VAR = 1e12

_SEEDS = ("seed_truth", "seed_model", "seed_obs")
_INTEGERS = ("n_points", "n_steps", "present_time", *_SEEDS)


def _refuse_shared_seeds(cfg: ScenarioConfig, n_replicates: int) -> None:
    """Raise ``ValueError`` if ``n_replicates`` replicates of ``cfg`` give one seed two roles.

    The truth, model and reading streams are keyed by their seeds alone, and
    replicate r adds r to every seed (see :func:`sweep_configs`). So the
    streams of R replicates stay apart only if every two seeds differ by at
    least R.
    """
    for a, b in itertools.combinations(_SEEDS, 2):
        seed_a, seed_b = getattr(cfg, a), getattr(cfg, b)
        if abs(seed_a - seed_b) >= n_replicates:
            continue
        if n_replicates == 1:
            raise ValueError(f"{a} and {b} are both {seed_a}: one seed cannot serve two roles")
        raise ValueError(f"{a} = {seed_a} and {b} = {seed_b} are closer than the {n_replicates} "
                         f"replicates: replicate r adds r to every seed, so one seed would "
                         f"serve both roles")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs: physics, discretization, network, seeds.

    A field left ``None`` takes its drift's value from ``_DRIFT_DEFAULTS``.
    Making a config checks it and builds the parts a run reads, once:
    ``truth_config`` (the truth laws), ``grid`` and ``network`` (the
    observation network). A value that cannot run fails here, not mid-run.
    """

    drift: Drift
    domain_length: float = 2.0
    n_points: int = 50
    cfl: float = 0.99
    n_steps: int | None = None
    relax_rate: float = 0.01
    base_speed: float = 0.1
    speed_ramp: float = 0.01
    speed_noise: float = 0.02
    forcing_noise: float = 0.01
    pulse_center: float | None = None
    init_var: float = 0.02
    model_noise_var: float = 0.08
    space_freq: Fraction = Fraction(1)
    time_freq: Fraction = Fraction(1)
    obs_var: float = 0.02
    seed_truth: int = 101
    seed_model: int = 202
    seed_obs: int = 303
    present_time: int | None = None
    model_mode: str = "stochastic"

    def __post_init__(self):
        object.__setattr__(self, "drift", Drift(self.drift))
        for name, value in _DRIFT_DEFAULTS[self.drift].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        object.__setattr__(self, "space_freq", Fraction(self.space_freq))
        object.__setattr__(self, "time_freq", Fraction(self.time_freq))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _INTEGERS and value is not None and (
                    isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.name.startswith("seed_") and value < 0:
                raise ValueError(f"{f.name} must be nonnegative, got {value}")
        _refuse_shared_seeds(self, 1)
        if self.n_points < 2:  # before the OU reference speed divides by it
            raise ValueError("n_points must be at least 2")
        if self.model_noise_var < 0:
            raise ValueError("model_noise_var must be nonnegative")
        if self.obs_var <= 0:
            raise ValueError("obs_var must be positive")
        if self.model_mode not in ("stochastic", "mean"):
            raise ValueError("model_mode must be 'stochastic' or 'mean'")
        if self.present_time is not None and not 0 <= self.present_time <= self.n_steps:
            raise ValueError(f"present_time must lie in [0, n_steps = {self.n_steps}], "
                             f"got {self.present_time}")
        truth_config = TruthConfig(**{f.name: getattr(self, f.name) for f in fields(TruthConfig)})
        # dt follows from a reference speed: for OU the largest station speed,
        # for the accelerating drift a unit speed that base + ramp * sqrt(t) may
        # outgrow. The mean speed is monotone in t, so the CFL bound holds at
        # every step once it holds at the first and the last.
        reference_speed = 1.0 if self.drift is Drift.ACCELERATING else (
            self.relax_rate * (self.domain_length - self.domain_length / self.n_points))
        grid = make_grid(self.domain_length, self.n_points, self.cfl, reference_speed,
                         self.n_steps)
        pulse_profile(grid, self.pulse_center)
        prior_bound = self.init_var + grid.n_steps * self.model_noise_var
        if prior_bound > MAX_PRIOR_OVER_OBS_VAR * self.obs_var:
            raise ValueError(f"init_var + n_steps * model_noise_var = {prior_bound:.6g} exceeds "
                             f"{MAX_PRIOR_OVER_OBS_VAR:.0e} * obs_var = {self.obs_var:.6g}: the "
                             f"filters' updates would lose every digit")
        network = build_network(grid, self.space_freq, self.time_freq, self.obs_var)
        for step in (1, grid.n_steps):
            lax_friedrichs_weights(grid, _step_speeds(truth_config, grid, step))
        object.__setattr__(self, "truth_config", truth_config)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "network", network)

    @property
    def last_data_step(self) -> int:
        return self.n_steps if self.present_time is None else self.present_time


def default_config(drift: Drift | str, **overrides) -> ScenarioConfig:
    """Canonical scenario for each drift family (pulse center, horizon)."""
    return ScenarioConfig(drift=drift, **overrides)


@dataclass(frozen=True)
class MetricTable:
    """Per-step diagnostics, one entry per step from 0 to n_steps."""

    com_truth: np.ndarray
    com_model: np.ndarray
    com_kf: np.ndarray
    com_dlf: np.ndarray
    trace_kf: np.ndarray
    trace_dlf: np.ndarray
    rmse_model: np.ndarray
    rmse_kf: np.ndarray
    rmse_dlf: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """One run's inputs, per-step means and metrics.

    Every array is (n_steps + 1) rows or smaller: a run keeps no covariance.
    ``kf`` and ``dlf``, the full per-step estimates, are replayed from the
    stored truth and observations on first read and cached.
    """

    config: ScenarioConfig
    truth: TruthField
    observations: ObservationBatch
    model_only: np.ndarray            # (n_steps + 1, n_points)
    kf_mean: np.ndarray               # (n_steps + 1, n_points)
    dlf_mean: np.ndarray              # (n_steps + 1, n_points)
    metrics: MetricTable
    pool_trace: list[tuple] | None = None

    @property
    def grid(self) -> GridSpec:
        return self.config.grid

    @cached_property
    def _replay(self) -> tuple[list[StateEstimate], list[StateEstimate]]:
        # Each covariance buffer is reused: keep copies.
        kf, dlf = [], []
        for kf_est, dlf_result in _steps(self.config, self.observations,
                                         _run_speeds(self.config)):
            for kept, est in ((kf, kf_est), (dlf, dlf_result.estimate)):
                kept.append(replace(est, covariance=est.covariance.copy()))
        return kf, dlf

    @property
    def kf(self) -> list[StateEstimate]:
        """Kalman filter estimate (mean and covariance) at every step, replayed."""
        return self._replay[0]

    @property
    def dlf(self) -> list[StateEstimate]:
        """Dynamic likelihood filter estimate at every step, replayed."""
        return self._replay[1]


def center_of_mass(field_values: np.ndarray, grid: GridSpec):
    """First circular moment of the positive part of the field, per row.

    ``field_values`` has stations on its last axis; the result has one
    center per row (a scalar for a single field). Working on the circle
    avoids seam artifacts when the pulse straddles the periodic boundary.
    Negative values only drop out of the weights; callers keep their raw
    fields. A row with no positive part has no center: its result is nan.
    """
    weights = np.maximum(np.asarray(field_values, dtype=float), 0.0)
    theta = 2.0 * math.pi * grid.positions / grid.domain_length
    sines = np.sum(weights * np.sin(theta), axis=-1)
    cosines = np.sum(weights * np.cos(theta), axis=-1)
    defined = np.any(weights > 0, axis=-1)
    # math.atan2 (libm) per row: numpy's SIMD arctan2 can differ in the last bit.
    angle = np.reshape([math.atan2(s, c) if d else math.nan for s, c, d in
                        zip(sines.ravel().tolist(), cosines.ravel().tolist(),
                            np.ravel(defined).tolist())], sines.shape)
    return np.mod(grid.domain_length / (2.0 * math.pi) * angle, grid.domain_length)


def circular_distance(a, b, length: float):
    """Shortest periodic distance between positions on [0, length), elementwise."""
    d = np.abs(np.subtract(a, b)) % length
    return np.minimum(d, length - d)


_SAMPLING = ("space_freq", "time_freq")


def _without(cfg: ScenarioConfig, names: typing.Collection[str]) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in names}


def _refuse_unlike(pairs, names: typing.Collection[str], rule: str) -> None:
    """Raise ``ValueError`` at a (config, reference) pair that differs beyond ``names``."""
    for cfg, ref in pairs:
        expected = _without(ref, names)
        if differ := sorted(k for k, v in _without(cfg, names).items() if expected[k] != v):
            raise ValueError(f"{rule}; one differs in {differ}")


def _steps(cfg: ScenarioConfig, readings: ObservationBatch,
           speeds: typing.Sequence[np.ndarray]):
    """Advance the KF and the DLF of ``cfg`` on ``readings``.

    ``readings`` is one run's batch, or a stack of the (R, n) readings of a
    cell's R replicates (see :func:`run_cell`), which differ from ``cfg`` in
    their seeds only. The station speeds of step n, ``speeds[n - 1]`` (see
    ``_run_speeds``), drive the one model forecast of both filters, which
    differ only in what they assimilate. Yields ``(kf_estimate,
    dlf_step_result)`` for steps 0 to n_steps; step 0 is the initial state,
    with an empty pool and assembly. A step's readings are one batch, empty
    on a step without any. Each estimate's mean has one row per replicate
    of a stack. The same inputs replay the same steps bit for bit.

    The scenario is linear and Gaussian, so neither filter's gains read the
    data (Anderson & Moore, *Optimal Filtering*, 1979, §3.1): the
    covariances, and for the DLF where each pooled datum sits, its variance,
    what viability sheds and the cap evicts, and which datum wins each
    station, follow from the config without its seeds. So the replicates
    share one covariance and one pool, and only their means and pooled
    values have a row each. Each row keeps its own BLAS and LAPACK calls, so
    it equals its own run bit for bit. A likelihood that reads the data (a
    datum variance that depends on the forecast mean, say) breaks this: a
    config with one must not be stacked.

    Each filter keeps one covariance buffer for the whole run: it forecasts
    into its last estimate's covariance and conditions the forecast in place.
    So a yielded covariance is valid only until the next step; a consumer
    that keeps one keeps a copy.
    """
    grid = cfg.grid
    fresh_by_step = observations_by_step(readings)
    obs_mat = observation_matrix(cfg.network, grid)
    model_cfg = ModelConfig(noise_var=cfg.model_noise_var)
    no_readings = ObservationBatch(readings.time_index[:0], readings.station[:0],
                                   readings.value[..., :0], readings.variance)
    rows = readings.value.shape[:-1]
    pool = Pool.empty(0, rows)
    start = np.tile(pulse_profile(grid, cfg.pulse_center), (*rows, 1))
    kf_est = StateEstimate(time_index=0, mean=start,
                           covariance=cfg.init_var * np.eye(grid.n_points))
    # The filters own their buffers from here on: the DLF starts on a copy.
    dlf_result = DlfStepResult(replace(kf_est, covariance=kf_est.covariance.copy()), pool,
                               rank_order(pool.origin_station, pool.value, pool.variance))
    yield kf_est, dlf_result

    for step, step_speeds in enumerate(speeds, start=1):
        kf_est = forecast(kf_est, grid, model_cfg, step_speeds, out=kf_est.covariance)
        dlf_prior = forecast(dlf_result.estimate, grid, model_cfg, step_speeds,
                             out=dlf_result.estimate.covariance)
        fresh = fresh_by_step.get(step, no_readings)
        if fresh:
            kf_est = analysis(kf_est, fresh, obs_mat, cfg.obs_var, out=kf_est.covariance)
        dlf_result = dlf_step(dlf_prior, dlf_result.pool, fresh, grid, cfg.truth_config,
                              out=dlf_prior.covariance)
        yield kf_est, dlf_result


class _Inputs(typing.NamedTuple):
    """What the runs of a cell read besides their readings, made by ``_make_inputs``."""

    speeds: list[np.ndarray]       # steps 1 to n_steps (see ``_run_speeds``)
    truths: list[TruthField]       # one per replicate
    model_only: np.ndarray         # (R, n_steps + 1, n_points), row r replicate r's


def _make_inputs(cell: typing.Sequence[ScenarioConfig]) -> _Inputs:
    """The station speeds, truths and model-only trajectories of a cell's replicates.

    None of them reads the observation network, so every cell of a sweep
    shares them (see :func:`sweep`). The model-only rows step as one stack,
    one ``model_step`` per step for all of them: row r draws the noise of
    its own ``seed_model``.
    """
    cfg = cell[0]
    speeds = _run_speeds(cfg)
    truths = [generate_truth(cfg.grid, cfg.truth_config, NoiseSource(c.seed_truth)) for c in cell]
    rows = np.empty((len(cell), cfg.n_steps + 1, cfg.n_points))
    rows[:, 0] = pulse_profile(cfg.grid, cfg.pulse_center)
    model_cfg = ModelConfig(noise_var=cfg.model_noise_var if cfg.model_mode == "stochastic"
                            else 0.0)
    srcs = [NoiseSource(c.seed_model) for c in cell]
    for step, step_speeds in enumerate(speeds, start=1):
        rows[:, step] = model_step(rows[:, step - 1], cfg.grid, model_cfg, step_speeds, srcs)
    return _Inputs(speeds, truths, rows)


def run_scenario(cfg: ScenarioConfig, collect_pool_trace: bool = False,
                 followers: typing.Sequence[ScenarioConfig] = (),
                 follower_results: list | None = None,
                 inputs: _Inputs | None = None) -> RunResult:
    """Run truth, model-only, Kalman, and dynamic likelihood estimators once.

    Keeps each step's means and covariance traces, not the covariances.
    ``followers`` are configs that differ from ``cfg`` in their seeds only;
    their readings stack under this run's, one row each, and step through
    the same filter calls (see ``_steps``). Their results are appended to
    ``follower_results`` (see :func:`run_cell`). Each equals ``run_scenario``
    of its own config, and this run's result is the same with or without
    followers. ``inputs`` are the ``_make_inputs`` of ``cfg`` and its
    followers, made before the filters step; by default a run makes its own.
    """
    _refuse_unlike(((other, cfg) for other in followers), _SEEDS,
                   "a follower must differ from its lead config in its seeds only")
    cell = [cfg, *followers]
    speeds, truths, model_only = _make_inputs(cell) if inputs is None else inputs
    observations = [sample_observations(truth, c.network, NoiseSource(c.seed_obs),
                                        max_step=c.last_data_step)
                    for c, truth in zip(cell, truths)]
    first = observations[0]
    readings = ObservationBatch(first.time_index, first.station,
                                np.stack([obs.value for obs in observations]), first.variance)
    means = np.empty((2, len(cell), cfg.n_steps + 1, cfg.n_points))
    trace_kf, trace_dlf = np.empty(cfg.n_steps + 1), np.empty(cfg.n_steps + 1)
    pool_trace: list[tuple] | None = [] if collect_pool_trace else None
    steps = _steps(cfg, readings, speeds)
    for step, (kf_est, dlf_result) in enumerate(steps):
        means[:, :, step] = kf_est.mean, dlf_result.estimate.mean
        trace_kf[step], trace_dlf[step] = kf_est.trace, dlf_result.estimate.trace
        if pool_trace is not None:
            pool = dlf_result.pool
            selected = np.zeros(len(pool), dtype=int)
            selected[dlf_result.assembly.selected] = 1
            pool_trace.extend((step, *row) for row in zip(
                pool.origin_time.tolist(), pool.position.tolist(), pool.variance.tolist(),
                selected.tolist()))
    results = [RunResult(c, truth, obs, model, *filtered,
                         metrics=_compute_metrics(c.grid, truth, model, *filtered, trace_kf,
                                                  trace_dlf))
               for c, truth, obs, model, filtered in zip(cell, truths, observations, model_only,
                                                         means.swapaxes(0, 1))]
    if follower_results is not None:
        follower_results.extend(results[1:])
    return replace(results[0], pool_trace=pool_trace)


def _compute_metrics(grid, truth, model_only, kf_mean, dlf_mean, trace_kf,
                     trace_dlf) -> MetricTable:
    com_truth, com_model, com_kf, com_dlf = (
        center_of_mass(values, grid) for values in (truth.values, model_only, kf_mean, dlf_mean))
    return MetricTable(
        com_truth=com_truth, com_model=com_model, com_kf=com_kf, com_dlf=com_dlf,
        trace_kf=trace_kf, trace_dlf=trace_dlf,
        rmse_model=np.sqrt(np.mean((model_only - truth.values) ** 2, axis=1)),
        rmse_kf=np.sqrt(np.mean((kf_mean - truth.values) ** 2, axis=1)),
        rmse_dlf=np.sqrt(np.mean((dlf_mean - truth.values) ** 2, axis=1)),
    )


def summarize_run(result: RunResult) -> dict[str, float]:
    """Scalar per-run summaries used by sweeps and comparisons."""
    m = result.metrics
    length = result.grid.domain_length

    def com_err(series) -> float:
        # Over the steps where both centers are defined (see center_of_mass).
        errors = circular_distance(series, m.com_truth, length)
        defined = errors[~np.isnan(errors)]
        return float(np.mean(defined)) if defined.size else math.nan

    return {
        "rmse_model": float(np.mean(m.rmse_model)),
        "rmse_kf": float(np.mean(m.rmse_kf)),
        "rmse_dlf": float(np.mean(m.rmse_dlf)),
        "final_trace_kf": float(m.trace_kf[-1]),
        "final_trace_dlf": float(m.trace_dlf[-1]),
        "com_err_model": com_err(m.com_model),
        "com_err_kf": com_err(m.com_kf),
        "com_err_dlf": com_err(m.com_dlf),
    }


def sweep_configs(base: ScenarioConfig, xi_list, tau_list,
                  n_replicates: int) -> list[list[ScenarioConfig]]:
    """The replicate configs of each (xi, tau) cell, in sweep order.

    Replicate r shifts every seed by r, so realizations differ while the
    physical configuration stays fixed; base seeds closer than
    ``n_replicates`` would give one seed two roles, and raise. Every config
    is built, and so checked, before a sweep runs any of them.
    """
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    _refuse_shared_seeds(base, n_replicates)
    for name, values in (("xi_list", xi_list), ("tau_list", tau_list)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty: a sweep needs at least one frequency in it")
    return [[replace(base, space_freq=Fraction(xi), time_freq=Fraction(tau),
                     seed_truth=base.seed_truth + rep, seed_model=base.seed_model + rep,
                     seed_obs=base.seed_obs + rep) for rep in range(n_replicates)]
            for xi in xi_list for tau in tau_list]


def run_cell(cell: list[ScenarioConfig], inputs: _Inputs | None = None) -> list[RunResult]:
    """The run of every replicate of one cell of :func:`sweep_configs`, lead first.

    The replicates step as one stack through one ``run_scenario`` of the
    lead (see ``_steps``), so each result equals ``run_scenario`` of its own
    config bit for bit. ``inputs`` are the cell's ``_make_inputs``; by
    default the cell makes its own.
    """
    followers: list[RunResult] = []
    lead = run_scenario(cell[0], followers=cell[1:], follower_results=followers, inputs=inputs)
    return [lead, *followers]


def sweep(cells: list[list[ScenarioConfig]]) -> list[dict]:
    """Replicate-aggregated metrics per cell of :func:`sweep_configs`.

    The cells differ in their sampling alone: replicate r of every cell
    equals replicate r of the first cell in every field but ``space_freq``
    and ``time_freq``, and the replicates of a cell differ in their seeds
    only. Anything else raises ``ValueError`` before any input is made. So
    every cell reads the same station speeds, truths and model-only
    trajectories, and the sweep makes them once, before the first cell runs.
    """
    lead = cells[0]
    _refuse_unlike(((cfg, lead[0]) for cfg in lead), _SEEDS,
                   "the replicates of a cell must differ in their seeds only")
    for cell in cells:
        if len(cell) != len(lead):
            raise ValueError(f"every cell of a sweep needs the first cell's {len(lead)} "
                             f"replicates; one has {len(cell)}")
        _refuse_unlike(zip(cell, lead), _SAMPLING, "replicate r of every cell must equal "
                       "replicate r of the first cell in all but its sampling")
    inputs = _make_inputs(lead)
    rows = []
    for cell in cells:
        summaries = [summarize_run(result) for result in run_cell(cell, inputs)]
        row: dict = {"xi": str(cell[0].space_freq), "tau": str(cell[0].time_freq),
                     "replicates": len(cell)}
        for key in summaries[0]:
            values = [s[key] for s in summaries]
            row[f"mean_{key}"] = float(np.mean(values))
            row[f"median_{key}"] = float(statistics.median(values))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Config file handling: flat "key = value" text, or a manifest JSON.

def _parser(hint):
    """The type a field's text converts through; ``T | None`` reads as ``T``."""
    types = [t for t in typing.get_args(hint) if t is not type(None)]
    if len(types) > 1:
        raise TypeError(f"no single parser for config type {hint}")
    return types[0] if types else hint


_CONFIG_PARSERS = {name: _parser(hint)
                   for name, hint in typing.get_type_hints(ScenarioConfig).items()}


def config_to_flat(cfg: ScenarioConfig) -> dict[str, str]:
    """Flatten a config to round-trippable strings (str of a float is its repr)."""
    return {f.name: value.value if isinstance(value, Drift) else str(value)
            for f in fields(ScenarioConfig) if (value := getattr(cfg, f.name)) is not None}


def _parse(key: str, raw):
    try:
        return _CONFIG_PARSERS[key](str(raw).strip())
    except ZeroDivisionError:
        raise ValueError(f"{key} = {raw}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{key} = {raw}: {exc}") from None


def config_from_flat(flat: dict[str, str]) -> ScenarioConfig:
    """Parse flat key/value strings over the drift's defaults; unknown keys are rejected."""
    unknown = set(flat) - set(_CONFIG_PARSERS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "drift" not in flat:
        raise ValueError("config must set 'drift'")
    return default_config(**{key: _parse(key, raw) for key, raw in flat.items()})


def load_run(path) -> tuple[ScenarioConfig, bool]:
    """A scenario from flat key = value text or from a run manifest, and its flag.

    The flag is the manifest's ``pool_trace``: whether the run it records
    wrote a pool trace. A config file, or a manifest without the key, gives
    False.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        manifest = json.loads(text)
        if not isinstance(manifest.get("config"), dict):
            raise ValueError(f"{path}: a JSON config needs a 'config' object")
        pool_trace = manifest.get("pool_trace", False)
        if not isinstance(pool_trace, bool):
            raise ValueError(f"{path}: 'pool_trace' must be true or false")
        return config_from_flat(manifest["config"]), pool_trace
    flat: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in flat:
            raise ValueError(f"{path}:{lineno}: duplicate key '{key}'")
        flat[key] = value
    return config_from_flat(flat), False


def load_config(path) -> ScenarioConfig:
    """Load a scenario from flat key = value text or from a run manifest."""
    return load_run(path)[0]


# ---------------------------------------------------------------------------
# Outputs: every CSV file is a header line, then one line per row, each line
# ending in "\r\n"; float cells carry FLOAT_FMT, other cells their str(). No
# cell holds a comma, quote or line break, so no cell is quoted.

def _write_table(path, header, rows) -> Path:
    """Write one table, streaming ``rows`` (an iterable of cell sequences).

    Every row has the first row's cell types, so one line template, made
    from the first row, formats the whole table.
    """
    path = Path(path)
    rows = iter(rows)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        first = next(rows, None)
        if first is not None:
            line = ",".join("%" + FLOAT_FMT if isinstance(cell, float) else "%s"
                            for cell in first) + "\r\n"
            handle.write(line % tuple(first))
            handle.writelines(line % tuple(row) for row in rows)
    return path


def write_outputs(result: RunResult, out_dir) -> list[Path]:
    """Write trajectories, metrics, observations, and the run manifest.

    Floats carry 17 significant digits so a re-read (and a re-run from the
    manifest) reproduces the values bit-exactly. The manifest records the
    config, whether the run collected a pool trace (see :func:`load_run`), and,
    as records only, the pool cap factor and the numpy and scipy versions.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m = result.metrics
    grid = result.grid
    stations = [f"station_{k}" for k in range(grid.n_points)]
    metric_columns = [f.name for f in fields(MetricTable)]
    final_truth = result.truth.values[-1]
    obs = result.observations

    tables = {
        "truth.csv": (stations, map(np.ndarray.tolist, result.truth.values)),
        "model.csv": (stations, map(np.ndarray.tolist, result.model_only)),
        "kf_mean.csv": (stations, map(np.ndarray.tolist, result.kf_mean)),
        "dlf_mean.csv": (stations, map(np.ndarray.tolist, result.dlf_mean)),
        "metrics.csv": (["step"] + metric_columns,
                        zip(range(grid.n_steps + 1),
                            *(getattr(m, c).tolist() for c in metric_columns))),
        "final_diff.csv": (["station", "x", "diff_model", "diff_kf", "diff_dlf"],
                           zip(range(grid.n_points), grid.positions.tolist(),
                               *((means[-1] - final_truth).tolist() for means in
                                 (result.model_only, result.kf_mean, result.dlf_mean)))),
        "observations.csv": (["time_index", "station", "value", "variance"],
                             zip(obs.time_index.tolist(), obs.station.tolist(),
                                 obs.value.tolist(), itertools.repeat(obs.variance))),
    }
    if result.pool_trace is not None:
        tables["pool_trace.csv"] = (["step", "origin_time", "position", "variance", "selected"],
                                    result.pool_trace)
    else:  # an earlier run's trace in a reused directory is not this run's output
        (out / "pool_trace.csv").unlink(missing_ok=True)
    written = [_write_table(out / name, header, rows) for name, (header, rows) in tables.items()]

    manifest = {
        "tool": "dlfilter",
        "version": __version__,
        "config": config_to_flat(result.config),
        "pool_trace": result.pool_trace is not None,
        "outputs": sorted(p.name for p in written),
        "float_format": FLOAT_FMT,
        "pool_cap_factor": POOL_CAP_FACTOR,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written


def write_sweep_csv(rows: list[dict], path) -> None:
    header = list(rows[0])
    _write_table(path, header, ([row[k] for k in header] for row in rows))
