"""Scenario configuration, end-to-end runs, metrics, and file outputs.

A run generates one truth realization, samples its observation network, and
advances three estimators over the same grid: a model-only trajectory (no
data), the Kalman filter, and the dynamic likelihood filter. Outputs are
plot-ready CSV files plus a JSON manifest that reproduces the run exactly.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import typing
from dataclasses import dataclass, fields, replace
from functools import cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .core import GridSpec, NoiseSource, StateEstimate, make_grid
from .dlf import DlfStepResult, LikelihoodAssembly, Pool, dlf_step
from .kalman import analysis, forecast, forecast_mean, update_mean
from .model import ModelConfig, lax_friedrichs_weights, model_step
from .obsnet import (Observation, build_network, observation_matrix,
                     observations_by_step, sample_observations)
from .truth import Drift, TruthConfig, TruthField, generate_truth, mean_speed, pulse_profile

__all__ = [
    "ScenarioConfig",
    "MetricTable",
    "RunResult",
    "default_config",
    "center_of_mass",
    "circular_distance",
    "DlfPlan",
    "run_scenario",
    "summarize_run",
    "summarize_cell",
    "sweep",
    "sweep_configs",
    "write_outputs",
    "read_table",
    "load_config",
    "config_to_flat",
    "config_from_flat",
]

FLOAT_FMT = ".17g"


def _step_speeds(truth_cfg: TruthConfig, grid: GridSpec, step: int) -> np.ndarray:
    """The station speeds that drive step ``step``: the mean speed at (step - 1) * dt."""
    return np.asarray(mean_speed(truth_cfg, grid.positions, (step - 1) * grid.dt), dtype=float)


# The canonical scenario of each drift family: the values its unset fields take.
_DRIFT_DEFAULTS = {
    Drift.OU: dict(n_steps=200, pulse_center=1.25),
    Drift.ACCELERATING: dict(n_steps=100, pulse_center=1.0),
}


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
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.name.startswith("seed_") and value < 0:
                raise ValueError(f"{f.name} must be nonnegative, got {value}")
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
    observations: list[Observation]
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
        # The stepper reuses a covariance's buffer on the next step: keep copies.
        kf, dlf = [], []
        for _, kf_est, _, _, dlf_result in _steps(self.config, self.truth, self.observations):
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
    fields.
    """
    weights = np.maximum(np.asarray(field_values, dtype=float), 0.0)
    if np.any(weights.sum(axis=-1) <= 0):
        raise ValueError("center of mass undefined: field has no positive part")
    theta = 2.0 * math.pi * grid.positions / grid.domain_length
    sines = np.sum(weights * np.sin(theta), axis=-1)
    cosines = np.sum(weights * np.cos(theta), axis=-1)
    # math.atan2 (libm) per row: numpy's SIMD arctan2 can differ in the last bit.
    angle = np.reshape([math.atan2(s, c) for s, c in
                        zip(sines.ravel().tolist(), cosines.ravel().tolist())], sines.shape)
    return np.mod(grid.domain_length / (2.0 * math.pi) * angle, grid.domain_length)


def circular_distance(a, b, length: float):
    """Shortest periodic distance between positions on [0, length), elementwise."""
    d = np.abs(np.subtract(a, b)) % length
    return np.minimum(d, length - d)


def _without_seeds(cfg: ScenarioConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if not f.name.startswith("seed_")}


class DlfPlan:
    """One cell's DLF likelihood structure, handed step by step from one run to the others.

    It relies on one invariant: the DLF likelihood does not depend on the
    data. The scenario is linear and Gaussian, so where each pooled datum
    sits, its variance, what viability sheds and the cap evicts, which datum
    wins each station, and so the factors of every multi-analysis and the
    covariances they leave, follow from the config's physics, grid and
    network; the seeds move only the values read. A linear filter's gains
    can be computed before any data arrive (Anderson & Moore, *Optimal
    Filtering*, 1979, §3.1). So the steps of a run whose config differs in
    its three seeds only can take their DLF means and traces from a
    recording run's steps, bit for bit; a plan refuses any other config. A
    likelihood that reads the data (a datum variance that depends on the
    forecast mean, say) breaks the invariant: a config with one must not
    share a plan.

    ``run_scenario(cfg, plan=DlfPlan(followers))`` records: at each step,
    after its own DLF step, the run hands the plan one entry, the DLF
    covariance trace and, at a step that informs k > 0 stations, the
    informed stations S, the origin step and origin station of each winning
    datum, and the factors L and W = L^-1 P[S, :] of the multi-analysis. The
    plan advances the run of every follower config by that step and drops
    the entry. So the runs go in lockstep, the plan holds one step's k^2 + kN
    doubles at a time, and each follower holds what its own run holds but
    the DLF covariance: its Kalman covariance and its per-step arrays.
    :meth:`results` gives the followers' runs once the recording run has
    ended.
    """

    def __init__(self, followers: list[ScenarioConfig]):
        self._configs = list(followers)
        self._runs: list[_Run] | None = None
        self._steps: list[typing.Iterator] = []
        self._entry: tuple | None = None
        self._step = self._last_step = -1

    def _start(self, cfg: ScenarioConfig) -> None:
        if self._runs is not None:
            raise ValueError("a DLF plan records one run")
        structure = _without_seeds(cfg)
        for other in self._configs:
            differ = sorted(k for k, v in _without_seeds(other).items() if structure[k] != v)
            if differ:
                raise ValueError(f"a DLF plan applies only to configs that differ from its "
                                 f"recording config in their seeds; one differs in {differ}")
        self._last_step = cfg.n_steps
        self._runs = [_Run(other) for other in self._configs]
        self._steps = [_steps(run.cfg, run.truth, run.observations, follow=self)
                       for run in self._runs]

    def record(self, step: int, result: DlfStepResult, factors: list | None) -> None:
        """Hand the followers step ``step`` of the recording run, then drop it."""
        informed = None
        if factors:
            (factor, weights), = factors
            chosen = result.assembly.selected
            informed = (result.assembly.informed_stations, result.pool.origin_time[chosen],
                        result.pool.origin_station[chosen], factor, weights)
        self._step, self._entry = step, (result.estimate.trace, informed)
        for run, steps in zip(self._runs, self._steps):
            run.add(step, *next(steps))
        self._entry = None
        if step == self._last_step:  # a follower's steps refer to the plan: end the cycle
            self._steps = []

    def apply(self, step: int, mean: np.ndarray, readings: np.ndarray) -> tuple[np.ndarray, float]:
        """A follower's DLF mean and trace at ``step``, from its forecast mean.

        ``readings[t, s]`` is the follower's observation of station s at step t.
        """
        if step != self._step or self._entry is None:
            raise RuntimeError(f"no plan entry for step {step}")
        trace, informed = self._entry
        if informed is not None:
            stations, times, origins, factor, weights = informed
            mean = update_mean(mean, stations, readings[times, origins], factor, weights)
        return mean, trace

    def results(self) -> list[RunResult]:
        """The followers' runs, in the order of their configs."""
        if self._runs is None or any(run.steps_done != run.cfg.n_steps + 1
                                     for run in self._runs):
            raise RuntimeError("the recording run has not ended")
        return [run.result() for run in self._runs]


def _steps(cfg: ScenarioConfig, truth: TruthField, observations: list[Observation],
           record: DlfPlan | None = None, follow: DlfPlan | None = None):
    """Advance the model-only trajectory, the KF and the DLF over one run.

    Each step's station speeds drive the model-only step and the one model
    forecast of both filters; the filters differ only in what they assimilate.
    Yields ``(model_row, kf_estimate, dlf_mean, dlf_trace, dlf_step_result)``
    for steps 0 to n_steps; step 0 is the initial state, with an empty pool
    and assembly. The same inputs replay the same steps bit for bit.

    A ``record`` plan gets each DLF step as it is made. Under a ``follow``
    plan the DLF mean is forecast and then updated by the plan from this
    run's readings, no DLF covariance exists, and ``dlf_step_result`` is
    None (see :class:`DlfPlan`).

    Each filter forecasts into its last estimate's covariance buffer, so a
    yielded covariance is valid only until the next step; a consumer that
    keeps one keeps a copy.
    """
    grid, truth_cfg = cfg.grid, cfg.truth_config
    fresh_by_step = observations_by_step(observations)
    obs_mat = observation_matrix(cfg.network, grid)
    model_cfg = ModelConfig(noise_var=cfg.model_noise_var)
    model_only_cfg = model_cfg if cfg.model_mode == "stochastic" else ModelConfig(noise_var=0.0)
    model_src = NoiseSource(cfg.seed_model)

    model_row = pulse_profile(grid, cfg.pulse_center)
    kf_est = StateEstimate(time_index=0, mean=model_row,
                           covariance=cfg.init_var * np.eye(grid.n_points))
    dlf_result = None
    if follow is not None:
        readings = np.full((grid.n_steps + 1, grid.n_points), np.nan)
        for obs in observations:
            readings[obs.time_index, obs.station] = obs.value
        dlf_mean, dlf_trace = follow.apply(0, model_row, readings)
    else:
        # The filters own their buffers from here on: the DLF starts on a copy.
        dlf_result = DlfStepResult(replace(kf_est, covariance=kf_est.covariance.copy()),
                                   Pool.empty(time_index=0), LikelihoodAssembly.empty())
        dlf_mean, dlf_trace = model_row, dlf_result.estimate.trace
        if record is not None:
            record.record(0, dlf_result, None)
    yield model_row, kf_est, dlf_mean, dlf_trace, dlf_result

    for step in range(1, grid.n_steps + 1):
        speeds = _step_speeds(truth_cfg, grid, step)
        model_row = model_step(model_row, grid, model_only_cfg, speeds, model_src)
        kf_est = forecast(kf_est, grid, model_cfg, speeds, out=kf_est.covariance)
        # The DLF forecasts before the KF analysis: rebinding dlf_prior frees the
        # last step's prior before the KF's posterior is allocated.
        if follow is not None:
            dlf_mean = forecast_mean(dlf_mean, grid, speeds)
        else:
            dlf_prior = forecast(dlf_result.estimate, grid, model_cfg, speeds,
                                 out=dlf_result.estimate.covariance)

        fresh = fresh_by_step.get(step, [])
        if fresh:
            kf_est = analysis(kf_est, fresh, obs_mat, cfg.obs_var)
        if follow is not None:
            dlf_mean, dlf_trace = follow.apply(step, dlf_mean, readings)
        else:
            factors = [] if record is not None else None
            dlf_result = dlf_step(dlf_prior, dlf_result.pool, fresh, grid, truth_cfg, factors)
            dlf_mean, dlf_trace = dlf_result.estimate.mean, dlf_result.estimate.trace
            if record is not None:
                record.record(step, dlf_result, factors)
        yield model_row, kf_est, dlf_mean, dlf_trace, dlf_result


class _Run:
    """One run's truth, observations and the per-step arrays its steps fill."""

    def __init__(self, cfg: ScenarioConfig, collect_pool_trace: bool = False):
        self.cfg = cfg
        self.truth = generate_truth(cfg.grid, cfg.truth_config, NoiseSource(cfg.seed_truth))
        self.observations = sample_observations(self.truth, cfg.network,
                                                NoiseSource(cfg.seed_obs),
                                                max_step=cfg.last_data_step)
        self.model_only = np.empty_like(self.truth.values)
        self.kf_mean = np.empty_like(self.truth.values)
        self.dlf_mean = np.empty_like(self.truth.values)
        self.trace_kf = np.empty(cfg.n_steps + 1)
        self.trace_dlf = np.empty(cfg.n_steps + 1)
        self.pool_trace: list[tuple] | None = [] if collect_pool_trace else None
        self.steps_done = 0

    def add(self, step, model_row, kf_est, dlf_row, dlf_trace, dlf_result) -> None:
        self.model_only[step] = model_row
        self.kf_mean[step] = kf_est.mean
        self.dlf_mean[step] = dlf_row
        self.trace_kf[step] = kf_est.trace
        self.trace_dlf[step] = dlf_trace
        if self.pool_trace is not None:
            pool = dlf_result.pool
            selected = np.zeros(len(pool), dtype=int)
            selected[dlf_result.assembly.selected] = 1
            self.pool_trace.extend((step, *row) for row in zip(
                pool.origin_time.tolist(), pool.position.tolist(), pool.variance.tolist(),
                selected.tolist()))
        self.steps_done = step + 1

    def result(self) -> RunResult:
        metrics = _compute_metrics(self.cfg.grid, self.truth, self.model_only, self.kf_mean,
                                   self.dlf_mean, self.trace_kf, self.trace_dlf)
        return RunResult(config=self.cfg, truth=self.truth, observations=self.observations,
                         model_only=self.model_only, kf_mean=self.kf_mean,
                         dlf_mean=self.dlf_mean, metrics=metrics, pool_trace=self.pool_trace)


def run_scenario(cfg: ScenarioConfig, collect_pool_trace: bool = False,
                 plan: DlfPlan | None = None) -> RunResult:
    """Run truth, model-only, Kalman, and dynamic likelihood estimators once.

    Keeps each step's means and covariance traces, not the covariances. A
    ``plan`` records this run's DLF steps and carries its follower configs'
    runs along (see :class:`DlfPlan`); this run's result is the same.
    """
    run = _Run(cfg, collect_pool_trace)
    if plan is not None:
        plan._start(cfg)
    for step, state in enumerate(_steps(cfg, run.truth, run.observations, plan)):
        run.add(step, *state)
    return run.result()


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
    com_err = lambda series: float(np.mean(circular_distance(series, m.com_truth, length)))
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
    physical configuration stays fixed. Every config is built, and so
    checked, before a sweep runs any of them.
    """
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    for name, values in (("xi_list", xi_list), ("tau_list", tau_list)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty: a sweep needs at least one frequency in it")
    return [[replace(base, space_freq=Fraction(xi), time_freq=Fraction(tau),
                     seed_truth=base.seed_truth + rep, seed_model=base.seed_model + rep,
                     seed_obs=base.seed_obs + rep) for rep in range(n_replicates)]
            for xi in xi_list for tau in tau_list]


def summarize_cell(cell: list[ScenarioConfig]) -> list[dict[str, float]]:
    """The summary of each replicate run of one cell of :func:`sweep_configs`.

    The first replicate's run records the cell's :class:`DlfPlan` and carries
    the other replicates' runs along with it, step by step, so each summary
    is that of ``run_scenario`` of its config. A one-replicate cell makes no
    plan.
    """
    if len(cell) == 1:
        return [summarize_run(run_scenario(cell[0]))]
    plan = DlfPlan(cell[1:])
    first = run_scenario(cell[0], plan=plan)
    return [summarize_run(result) for result in (first, *plan.results())]


def sweep(cells: list[list[ScenarioConfig]]) -> list[dict]:
    """Replicate-aggregated metrics per cell of :func:`sweep_configs`."""
    rows = []
    for cell in cells:
        summaries = summarize_cell(cell)
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


def load_config(path) -> ScenarioConfig:
    """Load a scenario from flat key = value text or from a run manifest."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        manifest = json.loads(text)
        if not isinstance(manifest.get("config"), dict):
            raise ValueError(f"{path}: a JSON config needs a 'config' object")
        return config_from_flat(manifest["config"])
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
    return config_from_flat(flat)


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


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a table of numbers back: its header and a (rows, columns) float array."""
    with open(Path(path), newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, np.array([[float(v) for v in row] for row in reader])


def write_outputs(result: RunResult, out_dir) -> list[Path]:
    """Write trajectories, metrics, observations, and the run manifest.

    Floats carry 17 significant digits so a re-read (and a re-run from the
    manifest) reproduces the values bit-exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m = result.metrics
    grid = result.grid
    stations = [f"station_{k}" for k in range(grid.n_points)]
    metric_columns = [f.name for f in fields(MetricTable)]
    final_truth = result.truth.values[-1]

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
                             ((o.time_index, o.station, o.value, o.variance)
                              for o in result.observations)),
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
        "outputs": sorted(p.name for p in written),
        "float_format": FLOAT_FMT,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written


def write_sweep_csv(rows: list[dict], path) -> None:
    header = list(rows[0])
    _write_table(path, header, ([row[k] for k in header] for row in rows))
