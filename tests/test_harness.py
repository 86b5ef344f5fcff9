import csv
import json
import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from dlfilter import dlf, harness, kalman, model, obsnet
from dlfilter.core import make_grid
from dlfilter.harness import (ScenarioConfig, _write_table, center_of_mass, circular_distance,
                              config_from_flat, config_to_flat, default_config,
                              load_config, load_run, run_cell, run_scenario,
                              summarize_run, sweep, sweep_configs, write_outputs, write_sweep_csv)
from dlfilter.obsnet import ObservationBatch
from dlfilter.truth import Drift, mean_speed, pulse_profile


def small_cfg(**kw):
    base = dict(n_steps=25, space_freq=Fraction(1, 5), time_freq=Fraction(1, 5))
    base.update(kw)
    return default_config("accelerating", **base)


# --- center of mass ---------------------------------------------------------------

def test_center_of_mass_of_pulse_is_its_center():
    # dx = 0.05 puts the center on a station, so the sampled pulse is symmetric
    grid = make_grid(2.0, 40, 0.99, 1.0, 10)
    field = pulse_profile(grid, 1.25)
    assert center_of_mass(field, grid) == pytest.approx(1.25, abs=1e-6)


def test_center_of_mass_translates_with_the_field():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    field = pulse_profile(grid, 1.0)
    for cells in (3, 17, 30):
        shifted = np.roll(field, cells)
        expected = (1.0 + cells * grid.dx) % grid.domain_length
        assert circular_distance(center_of_mass(shifted, grid), expected,
                                 grid.domain_length) < 1e-6


def test_center_of_mass_across_the_seam():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    field = pulse_profile(grid, 0.1)
    assert circular_distance(center_of_mass(field, grid), 0.1, 2.0) < 1e-2


def test_center_of_mass_matches_linear_moment_away_from_seam():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    rng = np.random.default_rng(15)
    for _ in range(10):
        field = np.zeros(50)
        field[22:29] = rng.uniform(0.1, 1.0, 7)  # narrow support well inside the domain
        linear = float(np.sum(grid.positions * field) / np.sum(field))
        assert abs(center_of_mass(field, grid) - linear) < 1e-3


def test_center_of_mass_of_a_nonpositive_field_is_nan():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    for field in (-np.ones(50), np.zeros(50)):
        assert math.isnan(center_of_mass(field, grid))


def center_of_mass_one_field(field_values, grid):
    """Reference: one field at a time, reduced to Python floats."""
    weights = np.maximum(np.asarray(field_values, dtype=float), 0.0)
    theta = 2.0 * math.pi * grid.positions / grid.domain_length
    angle = math.atan2(float(np.sum(weights * np.sin(theta))),
                       float(np.sum(weights * np.cos(theta))))
    return (grid.domain_length / (2.0 * math.pi) * angle) % grid.domain_length


def test_center_of_mass_of_rows_equals_one_field_at_a_time():
    result = run_scenario(small_cfg())
    grid = result.grid
    fields = np.concatenate([result.truth.values, result.model_only, result.kf_mean,
                             result.dlf_mean])
    expected = [center_of_mass_one_field(row, grid) for row in fields]
    np.testing.assert_array_equal(center_of_mass(fields, grid), expected)
    np.testing.assert_array_equal(result.metrics.com_dlf,
                                  expected[-(grid.n_steps + 1):])
    assert center_of_mass(fields[0], grid) == expected[0]


def test_a_row_without_positive_part_has_a_nan_center_and_leaves_the_others():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    pulse = pulse_profile(grid, 1.0)
    centers = center_of_mass(np.stack([pulse, -np.ones(50), pulse]), grid)
    assert math.isnan(centers[1])
    assert centers[0] == centers[2] == center_of_mass(pulse, grid)


# Replicate 44 of the README sweep of configs/ou_sparse.cfg: its stochastic
# model-only field has no positive part at steps 193, 199 and 200.
NONPOSITIVE_MODEL_SEEDS = dict(seed_truth=145, seed_model=246, seed_obs=347)


def test_a_run_whose_model_field_goes_nonpositive_completes():
    cfg = replace(load_config(Path(__file__).parents[1] / "configs" / "ou_sparse.cfg"),
                  **NONPOSITIVE_MODEL_SEEDS)
    result = run_scenario(cfg)
    m = result.metrics
    assert np.flatnonzero(np.isnan(m.com_model)).tolist() == [193, 199, 200]
    for series in (m.com_truth, m.com_kf, m.com_dlf):
        assert not np.isnan(series).any()
    summary = summarize_run(result)
    assert all(math.isfinite(value) for value in summary.values())
    defined = ~np.isnan(m.com_model)
    errors = circular_distance(m.com_model[defined], m.com_truth[defined], cfg.domain_length)
    assert summary["com_err_model"] == float(np.mean(errors))


def test_long_run_covariances_are_exactly_symmetric_and_positive_definite():
    # 2000 steps of the sparse OU cell: between reads the forecast inflates the
    # covariance, at reads both analyses shrink it; neither may drift.
    result = run_scenario(default_config("ou", n_steps=2000, space_freq=Fraction(1, 5),
                                         time_freq=Fraction(1, 10)))
    for states in (result.kf, result.dlf):
        assert len(states) == 2001
        for state in states:
            cov = state.covariance
            assert np.array_equal(cov, cov.T)
            np.linalg.cholesky(cov)


def test_center_of_mass_clips_negative_weights_only():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    field = pulse_profile(grid, 1.25)
    noisy = field - 0.0  # copy
    noisy[0] = -5.0  # a far-away negative excursion must not drag the estimate
    assert center_of_mass(noisy, grid) == pytest.approx(center_of_mass(field, grid))


# --- scenario runs ---------------------------------------------------------------

def test_run_shapes_and_time_indices():
    result = run_scenario(small_cfg())
    rows = result.grid.n_steps + 1
    assert result.truth.values.shape == (rows, 50)
    assert result.model_only.shape == (rows, 50)
    assert result.kf_mean.shape == result.dlf_mean.shape == (rows, 50)
    assert len(result.kf) == rows and len(result.dlf) == rows
    assert [s.time_index for s in result.kf] == list(range(rows))
    assert result.metrics.rmse_kf.shape == (rows,)


def test_run_is_deterministic():
    a = run_scenario(small_cfg())
    b = run_scenario(small_cfg())
    np.testing.assert_array_equal(a.truth.values, b.truth.values)
    np.testing.assert_array_equal(a.model_only, b.model_only)
    for x, y in zip(a.kf, b.kf):
        np.testing.assert_array_equal(x.mean, y.mean)
    for x, y in zip(a.dlf, b.dlf):
        np.testing.assert_array_equal(x.mean, y.mean)
        np.testing.assert_array_equal(x.covariance, y.covariance)


def test_run_trajectories_are_finite():
    result = run_scenario(small_cfg())
    assert np.all(np.isfinite(result.model_only))
    assert all(np.all(np.isfinite(s.mean)) for s in result.kf + result.dlf)


def test_distinct_truth_seed_changes_truth_only_realization():
    a = run_scenario(small_cfg())
    b = run_scenario(small_cfg(seed_truth=111))
    assert not np.array_equal(a.truth.values, b.truth.values)


def test_covariances_stay_symmetric_over_a_run():
    result = run_scenario(small_cfg())
    for est in result.kf + result.dlf:
        np.testing.assert_array_equal(est.covariance, est.covariance.T)


def test_forecasting_mode_stops_data_at_the_present():
    cfg = small_cfg(present_time=15)
    result = run_scenario(cfg)
    assert max(o.time_index for o in result.observations) <= 15
    # past the present the data-less Kalman filter only accumulates variance,
    # while the pool keeps informing the dynamic likelihood estimate
    assert np.all(np.diff(result.metrics.trace_kf[16:]) > 0)
    assert result.metrics.trace_dlf[-1] < result.metrics.trace_kf[-1]


def test_mean_model_mode_is_noise_free():
    result = run_scenario(small_cfg(model_mode="mean", space_freq=Fraction(1),
                                    time_freq=Fraction(1)))
    # the noise-free model shares the filters' deterministic propagation
    assert np.all(np.isfinite(result.model_only))
    rerun = run_scenario(small_cfg(model_mode="mean", space_freq=Fraction(1),
                                   time_freq=Fraction(1), seed_model=999))
    np.testing.assert_array_equal(result.model_only, rerun.model_only)


def test_pool_trace_collection():
    result = run_scenario(small_cfg(), collect_pool_trace=True)
    assert result.pool_trace
    steps = {row[0] for row in result.pool_trace}
    assert min(steps) >= 1 and max(steps) <= result.grid.n_steps
    assert any(row[4] == 1 for row in result.pool_trace)
    # per step, every station the pool reaches has exactly one selected datum,
    # and it carries that station's least variance
    grid = result.grid
    groups = {}
    for step, _, position, variance, selected in result.pool_trace:
        assert selected in (0, 1)
        station = math.floor(position / grid.dx + 1e-9) % grid.n_points
        groups.setdefault((step, station), []).append((variance, selected))
    for rows in groups.values():
        assert sum(selected for _, selected in rows) == 1
        assert min(rows)[0] == next(variance for variance, selected in rows if selected)


# --- lean results: per-step means kept, estimates replayed --------------------------

REPLAY_CFGS = {
    "ou-sparse": default_config("ou", n_steps=40, space_freq=Fraction(1, 5),
                                time_freq=Fraction(1, 10)),
    "accelerating": small_cfg(),
}


@pytest.mark.parametrize("collect_pool_trace", [False, True])
@pytest.mark.parametrize("name", sorted(REPLAY_CFGS))
def test_replayed_estimates_equal_the_run(monkeypatch, name, collect_pool_trace):
    calls = []
    stepper = harness._steps
    monkeypatch.setattr(harness, "_steps", lambda *args: calls.append(1) or stepper(*args))
    result = run_scenario(REPLAY_CFGS[name], collect_pool_trace=collect_pool_trace)
    assert len(calls) == 1
    rows = result.grid.n_steps + 1
    m = result.metrics
    for states, mean, trace in ((result.kf, result.kf_mean, m.trace_kf),
                                (result.dlf, result.dlf_mean, m.trace_dlf)):
        assert [s.time_index for s in states] == list(range(rows))
        assert np.array_equal(mean, [s.mean for s in states])
        assert [s.trace for s in states] == trace.tolist()
    assert len(calls) == 2
    first_kf, first_dlf = result.kf, result.dlf
    assert all(a is b for a, b in zip(first_kf, result.kf))
    assert result.kf is first_kf and result.dlf is first_dlf
    assert len(calls) == 2  # read again from the cache, not re-run


def test_replayed_covariances_are_copies_of_an_allocating_run(monkeypatch):
    # the stepper forecasts into the last covariance's buffer; the replay keeps copies
    cfg = REPLAY_CFGS["ou-sparse"]
    result = run_scenario(cfg)
    covariances = [s.covariance for s in result.kf + result.dlf]
    for k, cov in enumerate(covariances):
        assert not any(np.shares_memory(cov, other) for other in covariances[k + 1:])
    forecast = harness.forecast
    monkeypatch.setattr(harness, "forecast", lambda *args, out=None: forecast(*args))
    reference = run_scenario(cfg)
    for cov, ref in zip(covariances, [s.covariance for s in reference.kf + reference.dlf],
                        strict=True):
        np.testing.assert_array_equal(cov, ref)


def test_runs_read_the_parts_their_config_built(monkeypatch):
    cfg = small_cfg()
    cells = sweep_configs(cfg, [Fraction(1, 5)], [Fraction(1, 5)], 2)

    def rebuilt(*args, **kwargs):
        raise AssertionError("a run rebuilt a part of its config")
    for name in ("make_grid", "build_network", "TruthConfig"):
        monkeypatch.setattr(harness, name, rebuilt)
    result = run_scenario(cfg)
    assert result.grid is cfg.grid
    assert len(result.kf) == len(result.dlf) == cfg.n_steps + 1
    assert len(sweep(cells)) == 1


def test_one_station_speed_field_per_step(monkeypatch):
    # the CFL check at load and the run (model-only step, both filter
    # forecasts) all read the station speeds of step n at (n - 1) * dt
    stations = small_cfg().grid.positions
    times = []

    def counted(truth_cfg, x, t):
        if np.shape(x) == stations.shape and np.array_equal(x, stations):
            times.append(t)
        return mean_speed(truth_cfg, x, t)
    for module in (harness, dlf):
        monkeypatch.setattr(module, "mean_speed", counted)
    cfg = small_cfg()
    step_times = [(step - 1) * cfg.grid.dt for step in range(1, cfg.n_steps + 1)]
    assert times == [step_times[0], step_times[-1]]
    times.clear()
    run_scenario(cfg)
    assert times == step_times
    # a sweep makes them once for all its cells and replicates, not once per cell
    cells = sweep_configs(cfg, [cfg.space_freq], [Fraction(1), Fraction(1, 5)], 2)
    times.clear()
    sweep(cells)
    assert times == step_times


def _arrays(obj, seen=None):
    """Every numpy array reachable through dataclass fields, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item, seen)]
    names = getattr(obj, "__dataclass_fields__", ())
    return [a for name in names for a in _arrays(getattr(obj, name), seen)]


def test_run_result_holds_no_square_matrix():
    cfg = small_cfg()  # n_steps + 1 < n_points, so a (steps, N) array is smaller than N x N
    result = run_scenario(cfg, collect_pool_trace=True)
    n = result.grid.n_points
    assert cfg.n_steps + 1 < n
    arrays = _arrays(result)
    assert any(a is result.kf_mean for a in arrays)
    assert all(a.size < n * n for a in arrays), [a.shape for a in arrays]
    assert "_replay" not in vars(result)  # a run does not replay itself


def test_run_scenario_peak_memory_is_a_few_covariances():
    # Keeping two N x N covariances per step would peak near 200 N x N here.
    n = 200
    cfg = default_config("ou", n_points=n, n_steps=100, space_freq=Fraction(1, 5),
                         time_freq=Fraction(1, 10))
    tracemalloc.start()
    try:
        run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    square = n * n * np.dtype(float).itemsize
    assert peak < 20 * square, f"peak {peak / square:.1f} N x N matrices"


# --- sweeps ------------------------------------------------------------------------

def test_single_cell_sweep_matches_run_scenario():
    cfg = small_cfg()
    rows = sweep(sweep_configs(cfg, [Fraction(1, 5)], [Fraction(1, 5)], 1))
    assert len(rows) == 1
    summary = summarize_run(run_scenario(cfg))
    for key, value in summary.items():
        assert rows[0][f"median_{key}"] == value
        assert rows[0][f"mean_{key}"] == value


def test_sweep_covers_all_cells():
    rows = sweep(sweep_configs(small_cfg(), [Fraction(1), Fraction(1, 5)], [Fraction(1, 5)], 2))
    assert [(r["xi"], r["tau"]) for r in rows] == [("1", "1/5"), ("1/5", "1/5")]
    assert all(r["replicates"] == 2 for r in rows)


@pytest.mark.parametrize("xi_list, tau_list, empty", [([], [Fraction(1)], "xi_list"),
                                                      ([Fraction(1)], [], "tau_list")])
def test_sweep_rejects_an_empty_frequency_list(xi_list, tau_list, empty):
    with pytest.raises(ValueError, match=empty):
        sweep_configs(small_cfg(), xi_list, tau_list, 1)


def test_a_sweep_refuses_replicates_that_would_give_one_seed_two_roles():
    # the default seeds 101/202/303 are 101 apart, and replicate r adds r to each
    cfg = small_cfg()
    (cell,) = sweep_configs(cfg, [Fraction(1)], [Fraction(1)], 101)
    seeds = [getattr(c, name) for c in cell for name in ("seed_truth", "seed_model", "seed_obs")]
    assert len(set(seeds)) == len(seeds) == 303
    with pytest.raises(ValueError, match=r"^seed_truth = 101 and seed_model = 202 are closer "
                                         r"than the 102 replicates: .* serve both roles$"):
        sweep_configs(cfg, [Fraction(1)], [Fraction(1)], 102)
    with pytest.raises(ValueError, match=r"^seed_model = 202 and seed_obs = 205 are closer "
                                         r"than the 4 replicates"):
        sweep_configs(replace(cfg, seed_obs=205), [Fraction(1)], [Fraction(1)], 4)


@pytest.mark.parametrize("first, second", [("seed_truth", "seed_model"),
                                           ("seed_truth", "seed_obs"),
                                           ("seed_model", "seed_obs")])
def test_a_config_refuses_one_seed_in_two_roles(first, second):
    with pytest.raises(ValueError, match=rf"^{first} and {second} are both 7: one seed cannot "
                                         rf"serve two roles$"):
        small_cfg(**{first: 7, second: 7})


def test_sweep_replicates_use_distinct_truths():
    cfg = small_cfg()
    runs = []
    for rep in range(3):
        from dataclasses import replace
        rcfg = replace(cfg, seed_truth=cfg.seed_truth + rep,
                       seed_model=cfg.seed_model + rep, seed_obs=cfg.seed_obs + rep)
        runs.append(run_scenario(rcfg).truth.values)
    assert not np.array_equal(runs[0], runs[1])
    assert not np.array_equal(runs[1], runs[2])


# --- one lockstep loop per sweep cell -------------------------------------------------

CELL_CFGS = {
    "ou": dict(n_steps=40),
    "ou-present": dict(n_steps=40, present_time=25),
    "ou-mean-model": dict(n_steps=40, model_mode="mean"),
    "accelerating": dict(n_steps=30),
    "accelerating-present": dict(n_steps=30, present_time=18),
    "accelerating-mean-model": dict(n_steps=30, model_mode="mean"),
}


def swept_results(monkeypatch, cells):
    """The RunResult of every replicate that ``sweep(cells)`` runs, in order."""
    results = []
    summarize = harness.summarize_run
    monkeypatch.setattr(harness, "summarize_run",
                        lambda result: results.append(result) or summarize(result))
    sweep(cells)
    return results


@pytest.mark.parametrize("name", sorted(CELL_CFGS))
def test_swept_replicates_equal_their_own_runs_bit_for_bit(monkeypatch, name):
    drift = name.split("-")[0]
    base = default_config(drift, **CELL_CFGS[name])
    cells = sweep_configs(base, [Fraction(1, 5)], [Fraction(1), Fraction(1, 5)], 3)
    swept = swept_results(monkeypatch, cells)
    assert [r.config for r in swept] == [cfg for cell in cells for cfg in cell]
    for result in swept:
        own = run_scenario(result.config)
        for array in ("model_only", "kf_mean", "dlf_mean"):
            assert np.array_equal(getattr(result, array), getattr(own, array)), array
        for series in fields(harness.MetricTable):
            assert np.array_equal(getattr(result.metrics, series.name),
                                  getattr(own.metrics, series.name)), series.name


def test_a_sweep_makes_each_replicates_inputs_once_for_all_its_cells(monkeypatch):
    truth_seeds, model_only_rows = [], []
    generate, step = harness.generate_truth, harness.model_step
    monkeypatch.setattr(harness, "generate_truth", lambda grid, cfg, src: (
        truth_seeds.append(src.seed) or generate(grid, cfg, src)))
    monkeypatch.setattr(harness, "model_step", lambda state, *args: (
        model_only_rows.append(len(state)) or step(state, *args)))
    cfg = small_cfg()
    cells = sweep_configs(cfg, [Fraction(1), Fraction(1, 5)], [Fraction(1), Fraction(1, 5)], 3)
    swept = swept_results(monkeypatch, cells)
    assert len(cells) == 4 and len(swept) == 12
    assert sorted(truth_seeds) == [cfg.seed_truth + rep for rep in range(3)]
    assert model_only_rows == [3] * cfg.n_steps  # one pass, all three replicates as one stack
    for result in swept:
        assert summarize_run(result) == summarize_run(run_scenario(result.config))


def test_a_sweep_refuses_cells_that_differ_beyond_their_sampling_before_any_input(
        monkeypatch):
    def no_truth(*args):
        raise AssertionError("a truth was made")
    monkeypatch.setattr(harness, "generate_truth", no_truth)
    cfg = small_cfg()
    first, second = sweep_configs(cfg, [cfg.space_freq], [Fraction(1), Fraction(1, 5)], 3)
    shifted = [replace(c, seed_truth=c.seed_truth + 1, seed_model=c.seed_model + 1,
                       seed_obs=c.seed_obs + 1) for c in second]
    for cells, refusal in (
            ([first, [replace(c, obs_var=2 * c.obs_var) for c in second]],
             r"all but its sampling; one differs in \['obs_var'\]"),
            ([first, second[:2]], "the first cell's 3 replicates; one has 2"),
            ([first, shifted], r"one differs in \['seed_model', 'seed_obs', 'seed_truth'\]"),
            ([[first[0], replace(first[1], obs_var=2 * cfg.obs_var)], second[:2]],
             r"seeds only; one differs in \['obs_var'\]")):
        with pytest.raises(ValueError, match=refusal):
            sweep(cells)


@st.composite
def small_cells(draw):
    """A cell of 2 or 3 replicates of a small random scenario that loads."""
    n_replicates = draw(st.integers(2, 3))
    # base seeds closer than the replicates would give one seed two roles
    seed_truth, seed_model, seed_obs = draw(
        st.lists(st.integers(0, 10_000), min_size=3, max_size=3).filter(
            lambda seeds: min(np.diff(sorted(seeds))) >= n_replicates))
    n_points = draw(st.integers(2, 24))
    n_steps = draw(st.integers(1, 20))
    noise = st.floats(0.0, 1.0)
    cfg = default_config(
        draw(st.sampled_from(["ou", "accelerating"])), n_points=n_points, n_steps=n_steps,
        speed_noise=draw(noise), forcing_noise=draw(noise), init_var=draw(noise),
        model_noise_var=draw(noise), obs_var=draw(st.floats(1e-3, 1.0)),
        pulse_center=draw(st.floats(0.01, 1.99)),
        space_freq=Fraction(1, draw(st.integers(1, n_points))),
        time_freq=Fraction(1, draw(st.integers(1, 4))),
        model_mode=draw(st.sampled_from(["stochastic", "mean"])),
        present_time=draw(st.none() | st.integers(0, n_steps)),
        seed_truth=seed_truth, seed_model=seed_model, seed_obs=seed_obs)
    return sweep_configs(cfg, [cfg.space_freq], [cfg.time_freq], n_replicates)[0]


@settings(max_examples=40, deadline=None)
@given(small_cells())
def test_every_replicate_of_a_cell_equals_its_own_run_bit_for_bit(cell):
    results = run_cell(cell)
    assert [r.config for r in results] == cell
    for result in results:
        own = run_scenario(result.config)
        for array in ("model_only", "kf_mean", "dlf_mean"):
            assert np.array_equal(getattr(result, array), getattr(own, array)), array
        for series in fields(harness.MetricTable):
            # a center of mass is nan at a step whose field has no positive part
            assert np.array_equal(getattr(result.metrics, series.name),
                                  getattr(own.metrics, series.name), equal_nan=True), series.name


def test_a_cell_refuses_a_follower_that_differs_beyond_its_seeds():
    cfg = small_cfg()
    other = replace(cfg, seed_truth=7, seed_model=8, seed_obs=9)
    followers = []
    lead = run_scenario(cfg, True, [other], followers)
    assert lead.pool_trace == run_scenario(cfg, collect_pool_trace=True).pool_trace
    (follower,) = followers
    own = run_scenario(other)
    for array in ("model_only", "kf_mean", "dlf_mean"):
        assert np.array_equal(getattr(follower, array), getattr(own, array)), array
    assert follower.pool_trace is None
    with pytest.raises(ValueError, match=r"differs in \['obs_var'\]"):
        run_scenario(cfg, followers=[replace(cfg, obs_var=2 * cfg.obs_var)])


def test_a_pool_names_the_observation_each_datum_came_from():
    result = run_scenario(small_cfg())
    readings = {(o.time_index, o.station): o.value for o in result.observations}
    pools = 0
    for _, dlf_result in harness._steps(result.config, result.observations,
                                        harness._run_speeds(result.config)):
        pool = dlf_result.pool
        pools += len(pool) > 0
        assert [readings[source] for source in zip(pool.origin_time.tolist(),
                                                   pool.origin_station.tolist())] == (
            pool.value.tolist())
    assert pools > 0


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_cell_step_builds_one_transition_for_all_its_followers(monkeypatch):
    # The model-only rows and each filter's forecast build one transition per step
    # for the whole stack; every replicate shares one mean update per analysis.
    builds, updates, factorizations = [], [], []
    monkeypatch.setattr(model, "lax_friedrichs_matrix", lambda *args, build=(
        model.lax_friedrichs_matrix): builds.append(1) or build(*args))
    monkeypatch.setattr(kalman, "condition", lambda *args, update=kalman.condition, **kw: (
        updates.append(1) or update(*args, **kw)))
    monkeypatch.setattr(kalman, "dpotrf", lambda *args, factor=kalman.dpotrf, **kw: (
        factorizations.append(1) or factor(*args, **kw)))
    cfg = small_cfg()
    per_step, per_cell = {}, {}
    for replicates in (1, 2, 5):
        for calls in (builds, updates, factorizations):
            calls.clear()
        run_cell(sweep_configs(cfg, [cfg.space_freq], [cfg.time_freq], replicates)[0])
        per_step[replicates] = len(builds) / cfg.n_steps
        assert len(updates) == len(factorizations) > 0
        per_cell[replicates] = len(updates)
    assert per_step == {1: 3, 2: 3, 5: 3}
    assert per_cell[2] == per_cell[5] == per_cell[1]


@pytest.mark.parametrize("time_freq", [Fraction(1), Fraction(1, 5)])
def test_a_stacked_batch_steps_each_replicate_as_its_own_run(time_freq):
    # At tau = 1 the first step joins fresh readings to the empty pool; at tau = 1/5
    # steps 1-4 have no fresh readings, the first of them joining the empty pool too.
    cfg = small_cfg(time_freq=time_freq)
    cell = sweep_configs(cfg, [cfg.space_freq], [cfg.time_freq], 3)[0]
    batches = [run_scenario(c).observations for c in cell]
    stacked = ObservationBatch(batches[0].time_index, batches[0].station,
                               np.stack([batch.value for batch in batches]), cfg.obs_var)
    runs = [harness._steps(c, batch, harness._run_speeds(c)) for c, batch in zip(cell, batches)]
    fresh_steps = set(batches[0].time_index.tolist())
    for step, ((kf_est, dlf_result), *own) in enumerate(
            zip(harness._steps(cfg, stacked, harness._run_speeds(cfg)), *runs)):
        pool, assembly = dlf_result.pool, dlf_result.assembly
        assert dlf_result.estimate.mean.shape == kf_est.mean.shape == (3, cfg.n_points)
        assert pool.value.shape == (3, len(pool))
        assert assembly.projected_values.shape == (3, len(assembly))
        for r, (own_kf, own_dlf) in enumerate(own):
            for stacked_est, own_est in ((kf_est, own_kf), (dlf_result.estimate, own_dlf.estimate)):
                assert np.array_equal(stacked_est.mean[r], own_est.mean)
                assert np.array_equal(stacked_est.covariance, own_est.covariance)
            for name in ("position", "variance", "origin_time", "origin_station"):
                assert np.array_equal(getattr(pool, name), getattr(own_dlf.pool, name)), name
            assert np.array_equal(assembly.selected, own_dlf.assembly.selected)
            assert np.array_equal(pool.value[r], own_dlf.pool.value)
            assert np.array_equal(assembly.projected_values[r], own_dlf.assembly.projected_values)
    assert step == cfg.n_steps
    assert (1 in fresh_steps) == (time_freq == 1)


def test_run_replay_and_sweep_hand_read_block_only_batches(monkeypatch):
    # a step without readings hands the DLF an empty slice of the run's batch
    blocks = []

    def recording(block, *args):
        blocks.append(block)
        return obsnet.read_block(block, *args)

    for module in (dlf, kalman):
        monkeypatch.setattr(module, "read_block", recording)
    cfg = small_cfg(time_freq=Fraction(1, 5))
    result = run_scenario(cfg)
    assert len(result.kf) == len(result.dlf) == cfg.n_steps + 1
    sweep(sweep_configs(cfg, [cfg.space_freq], [Fraction(1), Fraction(1, 5)], 2))
    # 25 DLF steps per run, with KF analyses at 5 of them at tau = 1/5 and at all 25 at tau = 1
    assert len(blocks) == 2 * (25 + 5) + (25 + 25) + (25 + 5)
    assert all(isinstance(block, ObservationBatch) for block in blocks)
    assert sum(len(block) == 0 for block in blocks) == 3 * 20


# The benchmark's grid-n400 cell, shortened: about 100 stations are informed per step.
GRID_CELL_CFG = default_config("ou", n_points=400, n_steps=40, space_freq=Fraction(1, 5),
                               time_freq=Fraction(1, 10))


def sweep_peak_above_a_run(cfg, replicates: int) -> float:
    """How far a sweep of one cell of ``cfg`` peaks above one run, in N x N matrices."""
    run_scenario(cfg)  # the forecast and conditioning workspace, which stays
    run_peak = peak_bytes(lambda: run_scenario(cfg))
    sweep_peak = peak_bytes(lambda: sweep(sweep_configs(cfg, [cfg.space_freq],
                                                        [cfg.time_freq], replicates)))
    return (sweep_peak - run_peak) / (cfg.n_points ** 2 * np.dtype(float).itemsize)


def test_each_filter_steps_in_one_covariance_buffer():
    # A fresh posterior per analysis would add one N x N per filter and step; what
    # remains is the dense transition build of each forecast and small temporaries.
    cfg = default_config("ou", n_points=200, n_steps=40, space_freq=Fraction(1, 5),
                         time_freq=Fraction(1, 10))
    steps = harness._steps(cfg, run_scenario(cfg).observations, harness._run_speeds(cfg))
    for _ in range(3):  # steps 0 to 2 make both buffers and grow the workspace
        next(steps)

    def rest():
        for _ in steps:
            pass

    square = cfg.n_points ** 2 * np.dtype(float).itemsize
    assert peak_bytes(rest) / square < 1.5


def test_a_sweep_holds_one_steps_factors_and_its_followers_runs():
    # Kept for the whole run, one step's factors per step would be ~16 N x N matrices.
    # The second replicate adds its per-step arrays and one mean row per filter.
    assert sweep_peak_above_a_run(GRID_CELL_CFG, 2) < 6


def test_followers_hold_no_covariance():
    # Five replicates: a Kalman covariance per follower would add 4 N x N.
    assert sweep_peak_above_a_run(GRID_CELL_CFG, 5) < 7


def test_a_sweep_frees_each_cells_followers_when_the_cell_ends():
    cfg = replace(GRID_CELL_CFG, n_points=200, n_steps=20)
    cells = sweep_configs(cfg, [cfg.space_freq], [Fraction(1, 5), Fraction(1, 10)], 3)
    sweep(cells)
    cell_peaks = [peak_bytes(lambda: sweep([cell])) for cell in cells]
    sweep_peak = peak_bytes(lambda: sweep(cells))
    square = cfg.n_points ** 2 * np.dtype(float).itemsize
    assert sweep_peak < max(cell_peaks) + square / 4, (
        sweep_peak / square, [peak / square for peak in cell_peaks])


# --- config files --------------------------------------------------------------------

def test_config_flat_roundtrip():
    cfg = small_cfg(present_time=20)
    assert config_from_flat(config_to_flat(cfg)) == cfg


def test_config_file_roundtrip(tmp_path):
    # every field off its default, so a field parsed through the wrong type shows
    off_default = ScenarioConfig(
        drift=Drift.ACCELERATING, domain_length=3.0, n_points=30, cfl=0.5, n_steps=40,
        relax_rate=0.03, base_speed=0.2, speed_ramp=0.05, speed_noise=0.01,
        forcing_noise=0.02, pulse_center=0.7, init_var=0.03, model_noise_var=0.05,
        space_freq=Fraction(1, 3), time_freq=Fraction(1, 4), obs_var=0.01, seed_truth=7,
        seed_model=8, seed_obs=9, present_time=30, model_mode="mean")
    for f in fields(ScenarioConfig):
        assert getattr(off_default, f.name) != f.default, f.name
    for cfg in (small_cfg(), off_default):
        flat = config_to_flat(cfg)
        text = "\n".join(f"{k} = {v}" for k, v in flat.items()) + "\n# trailing comment\n"
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        loaded = load_config(path)
        assert loaded == cfg
        for f in fields(ScenarioConfig):
            assert type(getattr(loaded, f.name)) is type(getattr(cfg, f.name)), f.name


@pytest.mark.parametrize("drift", ["ou", "accelerating"])
def test_config_file_takes_its_drift_defaults(tmp_path, drift):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"drift = {drift}\n")
    assert load_config(path) == default_config(drift)


@pytest.mark.parametrize("drift", ["ou", "accelerating"])
def test_scenario_config_takes_its_drift_defaults(drift):
    assert ScenarioConfig(drift=drift) == default_config(drift)


@pytest.mark.parametrize("name, drift, xi, tau", [
    ("ou_sparse", "ou", Fraction(1, 5), Fraction(1, 10)),
    ("accelerating_sparse", "accelerating", Fraction(1, 4), Fraction(1, 10)),
])
def test_shipped_configs_are_their_paper_cells(name, drift, xi, tau):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
    assert load_config(path) == default_config(drift, space_freq=xi, time_freq=tau)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("drift = ou\nwavelength = 3\n")
    with pytest.raises(ValueError, match="wavelength"):
        load_config(path)


def test_config_requires_drift(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_steps = 10\n")
    with pytest.raises(ValueError, match="drift"):
        load_config(path)


def test_config_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("drift = ou\ndrift = accelerating\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_config(path)


def test_config_validates_model_mode():
    with pytest.raises(ValueError):
        ScenarioConfig(drift=Drift.OU, model_mode="imaginary")


def test_config_validates_present_time():
    with pytest.raises(ValueError):
        ScenarioConfig(drift=Drift.OU, n_steps=10, present_time=11)
    with pytest.raises(ValueError, match="present_time"):
        ScenarioConfig(drift=Drift.OU, n_steps=10, present_time=-5)


@pytest.mark.parametrize("name, value", [
    ("n_points", 50.0), ("n_steps", 20.0), ("n_steps", True), ("present_time", 5.0),
    ("seed_truth", 101.0), ("seed_model", False), ("seed_obs", 303.5), ("seed_obs", "303"),
])
def test_config_refuses_a_non_integer_count_or_seed(name, value):
    # 50.0 points would fail mid-run, and seed_obs = 303.5 would run as seed 303 and write
    # a manifest that cannot be rerun
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        ScenarioConfig(drift=Drift.OU, **{name: value})
    assert getattr(ScenarioConfig(drift=Drift.OU, **{name: np.int64(2)}), name) == 2


# --- outputs -------------------------------------------------------------------------

GOLDEN_FLOATS = [-0.0, 0.1, 1 / 3, 1e-300, 5e-324, math.nan]
GOLDEN_BYTES = (b"n,label,v\r\n"
                b"0,1/4,-0\r\n"
                b"1,1/5,0.10000000000000001\r\n"
                b"2,1/6,0.33333333333333331\r\n"
                b"3,1/7,1e-300\r\n"
                b"4,1/8,4.9406564584124654e-324\r\n"
                b"5,1/9,nan\r\n")


def _bits(floats) -> list[int]:
    return np.asarray(floats, dtype=float).view(np.uint64).tolist()


def test_table_format_golden_bytes(tmp_path):
    rows = [(n, f"1/{n + 4}", v) for n, v in enumerate(GOLDEN_FLOATS)]
    path = tmp_path / "table.csv"
    _write_table(path, ["n", "label", "v"], rows)
    assert path.read_bytes() == GOLDEN_BYTES
    with open(path, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert parsed[0] == ["n", "label", "v"]
    assert [(int(n), label) for n, label, _ in parsed[1:]] == [row[:2] for row in rows]
    assert _bits([float(v) for _, _, v in parsed[1:]]) == _bits(GOLDEN_FLOATS)
    # the sweep summary goes through the same writer
    sweep_path = tmp_path / "sweep.csv"
    write_sweep_csv([{"n": n, "label": label, "v": v} for n, label, v in rows], sweep_path)
    assert sweep_path.read_bytes() == GOLDEN_BYTES
    numeric_path = tmp_path / "numeric.csv"
    _write_table(numeric_path, ["n", "v"], ((n, v) for n, _, v in rows))
    assert numeric_path.read_text().splitlines()[0] == "n,v"
    values = np.loadtxt(numeric_path, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(values[:, 0], np.arange(len(rows)))
    assert _bits(values[:, 1]) == _bits(GOLDEN_FLOATS)


def test_sweep_row_of_str_int_and_float_cells(tmp_path):
    # one line template per table: a float cell written with %s would lose digits,
    # a str cell formatted as a float would not write at all
    path = tmp_path / "sweep.csv"
    write_sweep_csv([{"xi": "1/5", "tau": "1", "replicates": 5, "mean_rmse_kf": 0.1},
                     {"xi": "1", "tau": "1/10", "replicates": 5, "mean_rmse_kf": 2.0}], path)
    assert path.read_bytes() == (b"xi,tau,replicates,mean_rmse_kf\r\n"
                                 b"1/5,1,5,0.10000000000000001\r\n"
                                 b"1,1/10,5,2\r\n")


def test_table_without_rows_is_its_header(tmp_path):
    path = _write_table(tmp_path / "empty.csv", ["step", "value"], iter(()))
    assert path.read_bytes() == b"step,value\r\n"


def test_written_trajectories_roundtrip_bit_exact(tmp_path):
    result = run_scenario(small_cfg())
    write_outputs(result, tmp_path)
    stations = [f"station_{k}" for k in range(result.grid.n_points)]
    for name, expected in [("truth.csv", result.truth.values),
                           ("model.csv", result.model_only),
                           ("kf_mean.csv", np.array([s.mean for s in result.kf])),
                           ("dlf_mean.csv", np.array([s.mean for s in result.dlf]))]:
        assert (tmp_path / name).read_text().splitlines()[0] == ",".join(stations)
        values = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(values, expected)


def test_metrics_csv_row_count(tmp_path):
    result = run_scenario(small_cfg())
    write_outputs(result, tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == result.grid.n_steps + 2  # header + one row per step


def test_manifest_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    result = run_scenario(small_cfg())
    write_outputs(result, first)
    manifest = json.loads((first / "manifest.json").read_text())
    cfg = config_from_flat(manifest["config"])
    write_outputs(run_scenario(cfg), second)
    for name in manifest["outputs"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_the_manifest_records_the_pool_cap_and_the_library_versions(tmp_path):
    write_outputs(run_scenario(small_cfg()), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    records = {"pool_cap_factor": dlf.POOL_CAP_FACTOR, "numpy_version": np.__version__,
               "scipy_version": scipy.__version__}
    assert {key: manifest[key] for key in records} == records
    # records only: no config key, and a rerun reads none of them
    assert not records.keys() & manifest["config"].keys()
    loaded = load_run(path)
    path.write_text(json.dumps({**manifest, **dict.fromkeys(records, "other")}))
    assert load_run(path) == loaded


def test_model_rmse_not_better_than_filters_median():
    # data assimilation beats the bare model, replicate median
    from dataclasses import replace
    cfg = small_cfg()
    summaries = []
    for rep in range(5):
        rcfg = replace(cfg, seed_truth=cfg.seed_truth + rep,
                       seed_model=cfg.seed_model + rep, seed_obs=cfg.seed_obs + rep)
        summaries.append(summarize_run(run_scenario(rcfg)))
    med = lambda key: float(np.median([s[key] for s in summaries]))
    assert med("rmse_model") >= med("rmse_kf")
    assert med("rmse_model") >= med("rmse_dlf")
