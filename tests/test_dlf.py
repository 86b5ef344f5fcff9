import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlfilter.checks import condition_gain
from dlfilter.core import StateEstimate, make_grid
from dlfilter.dlf import (POOL_CAP_FACTOR, Pool, dlf_step, multi_analysis, project,
                          propagate_observation, propagate_variance, rank_order,
                          viability_filter)
from dlfilter.kalman import analysis, forecast
from dlfilter.model import ModelConfig
from dlfilter.obsnet import Observation, ObservationBatch, build_network, selector
from dlfilter.truth import Drift, TruthConfig, mean_speed


def grid_for(n_steps=100):
    return make_grid(2.0, 50, 0.99, 1.0, n_steps)


def constant_speed_cfg(speed):
    return TruthConfig(drift=Drift.ACCELERATING, base_speed=speed, speed_ramp=0.0,
                       forcing_noise=0.01, pulse_center=1.0)


def pool_of(values=(1.0,), positions=(0.5,), variances=(0.02,), origins=None, time_index=0):
    origins = [time_index] * len(values) if origins is None else origins
    return Pool(time_index, value=values, position=positions, variance=variances,
                origin_time=origins, origin_station=[0] * len(values))


def live(value=1.0, position=0.5, variance=0.02, origin=0, current=0):
    """A pool holding one datum."""
    return pool_of((value,), (position,), (variance,), (origin,), current)


def model_forecast(est, grid, truth_cfg, model_cfg):
    """The stepper's forecast of ``est``: one model step at the mean station speeds."""
    speeds = np.asarray(mean_speed(truth_cfg, grid.positions, est.time_index * grid.dt),
                        dtype=float)
    return forecast(est, grid, model_cfg, speeds)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.1 * np.eye(n)


# --- the pool ---------------------------------------------------------------------

def test_pool_rejects_invalid_entries():
    with pytest.raises(ValueError):
        live(variance=0.0)
    with pytest.raises(ValueError):
        live(origin=3, current=2)
    with pytest.raises(ValueError):
        Pool(0, value=[1.0, 2.0], position=[0.5], variance=[0.02], origin_time=[0],
             origin_station=[0])


def test_a_pool_takes_one_row_of_values_per_replicate():
    pool = Pool(1, value=[[1.0, 2.0]] * 3, position=[0.5, 0.7], variance=[0.02, 0.03],
                origin_time=[0, 1], origin_station=[3, 4])
    assert len(pool) == 2 and pool.value.shape == (3, 2)
    with pytest.raises(ValueError, match="one-dimensional"):
        Pool(1, value=[[1.0, 2.0]] * 3, position=[0.5], variance=[0.02], origin_time=[0],
             origin_station=[3])
    with pytest.raises(ValueError, match="one-dimensional"):
        Pool(1, value=[1.0, 2.0], position=[[0.5, 0.7]], variance=[0.02, 0.03],
             origin_time=[0, 1], origin_station=[3, 4])


# --- datum transport -------------------------------------------------------------

def test_propagation_constant_advection():
    grid = make_grid(2.0, 20, 1.0, 1.0, 10)  # dt = 0.1
    out = propagate_observation(np.array([0.5]), 0, grid, constant_speed_cfg(1.0))
    assert out.tolist() == [pytest.approx(0.6)]


def test_propagation_wraps_at_the_seam():
    grid = make_grid(2.0, 20, 1.0, 1.0, 10)
    out = propagate_observation(np.array([1.95]), 0, grid, constant_speed_cfg(1.0))
    assert out.tolist() == [pytest.approx(0.05)]


def test_propagation_matches_fine_step_oracle_for_growing_speed():
    grid = grid_for()
    cfg = TruthConfig(drift=Drift.ACCELERATING, base_speed=0.1, speed_ramp=0.01,
                      pulse_center=1.0)
    position = np.array([1.0])
    for step in range(10):
        position = propagate_observation(position, step, grid, cfg)

    fine_steps = 100
    fine_dt = grid.dt / fine_steps
    zeta = 1.0
    for k in range(10 * fine_steps):
        zeta += fine_dt * float(mean_speed(cfg, zeta, k * fine_dt))
    assert abs(position[0] - zeta) < 2 * grid.dt * 0.01  # O(dt) step error


def test_variance_propagation_noise_free_forcing():
    assert propagate_variance(np.array([0.02]), 0.0, 0.5).tolist() == [0.02]


def test_variance_propagation_standard_parameters():
    out = propagate_variance(np.array([0.02]), 0.01, 0.0396)
    assert out.tolist() == [0.02 + 1e-4 * 0.0396]


def test_variance_accumulates_closed_form():
    amp, dt = 0.01, 0.0396
    variance = np.array([0.02])
    expected = 0.02
    for k in range(200):
        variance = propagate_variance(variance, amp, dt)
        expected += amp**2 * dt
        assert variance[0] == expected
    assert variance[0] == pytest.approx(0.02 + 200 * amp**2 * dt, rel=1e-12)


def test_variance_is_monotone_under_propagation():
    grid = grid_for()
    variance = np.array([0.02])
    last = variance[0]
    for _ in range(50):
        variance = propagate_variance(variance, 0.01, grid.dt)
        assert variance[0] >= last
        last = variance[0]


# --- viability --------------------------------------------------------------------

def test_viability_keeps_everything_below_model_variance():
    grid = grid_for()
    kept = viability_filter(np.array([0.1, 0.7, 1.3]), np.full(3, 0.02), 0.08 * np.eye(50), grid)
    assert kept.tolist() == [0, 1, 2]


def test_viability_drops_degraded_datum():
    grid = grid_for()
    cov = 0.08 * np.eye(50)
    assert viability_filter(np.array([0.7]), np.array([10 * 0.08]), cov, grid).size == 0


def test_viability_uses_nearest_station_variance():
    grid = grid_for()
    cov = 0.08 * np.eye(50)
    cov[18, 18] = 0.01  # position 0.73 = 18.25 dx projects to station 18
    position, variance = np.array([0.73]), np.array([0.02])
    assert viability_filter(position, variance, cov, grid).size == 0
    cov[18, 18] = 0.05
    assert viability_filter(position, variance, cov, grid).tolist() == [0]


def test_viability_judges_a_datum_at_its_projection_station():
    # at 0.6 dx the nearest station is 1, but project assimilates the datum at 0
    grid = grid_for()
    datum = live(position=0.6 * grid.dx, variance=0.02)
    assert project(datum, grid).tolist() == [0]
    cov = 0.08 * np.eye(50)
    cov[0, 0] = 0.01
    assert viability_filter(datum.position, datum.variance, cov, grid).size == 0
    cov[0, 0], cov[1, 1] = 0.05, 0.01
    assert viability_filter(datum.position, datum.variance, cov, grid).tolist() == [0]


def test_viability_returns_the_viable_indices_in_order():
    grid = grid_for()
    cov = 0.08 * np.eye(50)
    variance = np.array([0.02, 0.5, 0.08, 0.09, 0.01])
    kept = viability_filter(np.full(5, 0.3), variance, cov, grid)
    assert kept.tolist() == [0, 2, 4]


def test_fresh_datum_survives_standard_noise_levels():
    # measurement noise below the per-step model noise keeps fresh data viable
    grid = grid_for()
    positions = np.array([k * grid.dx for k in range(0, 50, 5)])
    cov = 0.08 * np.eye(50)
    assert viability_filter(positions, np.full(10, 0.02), cov, grid).size == 10


# --- projection --------------------------------------------------------------------

def test_project_snaps_to_a_node_within_rounding():
    grid = grid_for()
    node = 17 * grid.dx
    # the guard is 1e-9 in units of dx: 4e-11 here
    positions = (node, node - 1e-12, node + 1e-12, node - 1e-9)
    stations = project(pool_of([1.0] * 4, positions, [0.02] * 4), grid)
    assert stations.tolist() == [17, 17, 17, 16]


def test_project_nearest_left_floor():
    grid = grid_for()
    assert project(live(position=0.059), grid).tolist() == [1]  # floor(0.059 / 0.04)


def test_project_station_positions_map_to_their_own_station():
    grid = grid_for()
    positions = [station * grid.dx for station in range(grid.n_points)]
    stations = project(pool_of([1.0] * grid.n_points, positions, [0.02] * grid.n_points), grid)
    assert stations.tolist() == list(range(grid.n_points))


def test_project_wraps_past_last_station():
    grid = grid_for()
    assert project(live(position=1.99), grid).tolist() == [49]


# --- rank ordering -------------------------------------------------------------------

def test_rank_order_disjoint_stations_all_pass():
    assembly = rank_order([3, 7, 12], np.zeros(3), [0.1, 0.4, 0.2])
    assert assembly.informed_stations.tolist() == [3, 7, 12]
    assert assembly.selected.tolist() == [0, 1, 2]
    assert len(assembly) == 3


def test_rank_order_lowest_variance_wins():
    assembly = rank_order([5, 5], [1.0, 2.0], [0.05, 0.02])
    assert assembly.informed_stations.tolist() == [5]
    assert assembly.selected.tolist() == [1]
    assert assembly.projected_values[0] == 2.0
    assert assembly.projected_variances[0] == 0.02


def test_rank_order_variance_ties_go_to_the_earlier_candidate():
    assembly = rank_order([5, 2, 5, 5], [1.0, 9.0, 2.0, 3.0], [0.03, 0.02, 0.02, 0.02])
    assert assembly.informed_stations.tolist() == [2, 5]
    assert assembly.selected.tolist() == [1, 2]
    assert assembly.projected_values.tolist() == [9.0, 2.0]


def test_dlf_step_variance_ties_go_to_the_earlier_pool_entry():
    grid = grid_for()
    cfg = flow_cfg()
    est = StateEstimate(0, np.zeros(50), 0.02 * np.eye(50))
    model_cfg = ModelConfig(noise_var=0.08)
    # two pooled data at one station with equal variance: the older entry wins
    pool = pool_of((1.0, 2.0), (0.0, 0.0), (0.02, 0.02))
    prior = model_forecast(est, grid, cfg, model_cfg)
    result = dlf_step(prior, pool, [], grid, cfg)
    assert result.assembly.informed_stations.tolist() == [0]
    assert result.assembly.selected.tolist() == [0]
    assert result.assembly.projected_values.tolist() == [1.0]
    # a fresh datum at that station carries less variance than the inflated
    # pooled ones and wins, although it joins the pool last
    fresh = [Observation(value=3.0, station=0, time_index=1, variance=0.02)]
    result = dlf_step(prior, pool, fresh, grid, cfg)
    assert result.assembly.selected.tolist() == [2]
    assert result.assembly.projected_values.tolist() == [3.0]
    assert result.assembly.projected_variances.tolist() == [0.02]


def test_rank_order_matches_brute_force_on_random_pools():
    rng = np.random.default_rng(123)
    for _ in range(100):
        count = int(rng.integers(1, 151))
        stations = rng.integers(50, size=count)
        variances = rng.uniform(0.01, 1.0, size=count)
        values = rng.standard_normal(count)
        assembly = rank_order(stations, values, variances)
        best = {}
        for index, station in enumerate(stations.tolist()):
            if station not in best or variances[index] < variances[best[station]]:
                best[station] = index
        assert assembly.informed_stations.tolist() == sorted(best)
        for k, station in enumerate(assembly.informed_stations.tolist()):
            assert assembly.selected[k] == best[station]
            assert assembly.projected_variances[k] == variances[best[station]]
            assert assembly.projected_values[k] == values[best[station]]


def test_rank_order_eleven_station_coverage_example():
    # five batches of data in increasing uncertainty; per-batch station coverage
    coverage = [
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1],
        [0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 1, 1, 1, 0, 1, 0],
        [1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0],
    ]
    base_var = 0.01
    batches, stations = np.nonzero(coverage)
    batches = batches + 1
    # uncertainty grows linearly with batch age
    assembly = rank_order(stations, batches.astype(float), batches * base_var)
    # every station ends up informed
    assert assembly.informed_stations.tolist() == list(range(11))
    # winner is the earliest batch covering the station
    expected_batch = [3, 1, 2, 1, 4, 1, 3, 1, 5, 1, 1]
    np.testing.assert_array_equal(assembly.projected_values, expected_batch)


# --- multi gain / analysis --------------------------------------------------------------

def full_assembly(values, variances):
    return rank_order(np.arange(len(values)), values, variances)


def multi_gain(cov, assembly):
    """Gain columns of the multi-analysis, one per informed station."""
    return condition_gain(cov, assembly.informed_stations, assembly.projected_variances)


def test_multi_gain_identity_prior_unit_variance_is_half_identity():
    values = np.zeros(6)
    assembly = full_assembly(values, np.ones(6))
    gain = multi_gain(np.eye(6), assembly)
    np.testing.assert_allclose(gain, 0.5 * np.eye(6), rtol=0, atol=1e-14)


def test_multi_gain_uninformative_limit_vanishes():
    assembly = full_assembly(np.zeros(6), np.full(6, 1e12))
    gain = multi_gain(np.eye(6), assembly)
    assert np.abs(gain).max() < 1e-10


def test_multi_gain_matches_conditioning_oracle_on_subset():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = 4
        cov = random_spd(rng, n)
        stations = np.sort(rng.choice(n, size=2, replace=False))
        variances = rng.uniform(0.01, 0.4, size=2)
        values = rng.standard_normal(2)
        assembly = rank_order(stations, values, variances)
        mean = rng.standard_normal(n)
        est = multi_analysis(StateEstimate(1, mean, cov), assembly)

        # oracle: condition the joint Gaussian on direct readings of the subset
        cross = cov[:, stations]
        s_mat = cov[np.ix_(stations, stations)] + np.diag(variances)
        w = cross @ np.linalg.inv(s_mat)
        ref_mean = mean + w @ (values - mean[stations])
        ref_cov = cov - w @ cross.T
        np.testing.assert_allclose(est.mean, ref_mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(est.covariance, 0.5 * (ref_cov + ref_cov.T),
                                   rtol=0, atol=1e-10)


def test_multi_gain_rejects_empty_assembly():
    assembly = rank_order([], [], [])
    with pytest.raises(ValueError):
        multi_gain(np.eye(4), assembly)


def test_multi_analysis_empty_assembly_returns_forecast():
    est = StateEstimate(2, np.ones(5), np.eye(5))
    assert multi_analysis(est, rank_order([], [], [])) is est
    assert multi_analysis(est, rank_order([], [], []), out=est.covariance) is est
    assert np.array_equal(est.covariance, np.eye(5))


def test_multi_analysis_per_station_scalar_updates():
    p, r = 0.08, 0.02
    n = 5
    values = np.array([1.0, -0.5, 2.0, 0.3, 0.0])
    assembly = full_assembly(values, np.full(n, r))
    prior = StateEstimate(1, np.zeros(n), p * np.eye(n))
    est = multi_analysis(prior, assembly)
    np.testing.assert_allclose(est.mean, p / (p + r) * values, rtol=0, atol=1e-14)
    np.testing.assert_allclose(est.covariance, p * r / (p + r) * np.eye(n),
                               rtol=0, atol=1e-14)


def test_multi_analysis_dense_fresh_equals_kalman_analysis():
    rng = np.random.default_rng(10)
    n = 50
    cov = random_spd(rng, n)
    mean = rng.standard_normal(n)
    values = rng.standard_normal(n)
    obs_var = 0.02
    assembly = full_assembly(values, np.full(n, obs_var))
    est_dlf = multi_analysis(StateEstimate(1, mean, cov), assembly)
    block = ObservationBatch(np.ones(n, dtype=np.int64), np.arange(n), values, obs_var)
    est_kf = analysis(StateEstimate(1, mean, cov), block, selector(np.arange(n), n), obs_var)
    np.testing.assert_allclose(est_dlf.mean, est_kf.mean, rtol=0, atol=1e-10)
    np.testing.assert_allclose(est_dlf.covariance, est_kf.covariance, rtol=0, atol=1e-10)


def test_multi_gain_optimal_on_informed_subspace():
    rng = np.random.default_rng(11)
    n = 12
    cov = random_spd(rng, n)
    stations = np.array([0, 3, 4, 9])
    variances = np.array([0.02, 0.05, 0.11, 0.3])
    assembly = rank_order(stations, np.zeros(4), variances)
    gain = multi_gain(cov, assembly)
    assert gain.shape == (n, stations.size)

    def joseph_trace(cols):
        g = np.zeros((n, n))
        g[:, stations] = cols
        shrink = np.eye(n) - g
        middle = np.zeros((n, n))
        middle[np.ix_(stations, stations)] = np.diag(variances)
        return float(np.trace(shrink @ cov @ shrink.T + g @ middle @ g.T))

    base = joseph_trace(gain)
    for _ in range(100):
        delta = rng.standard_normal((n, stations.size))
        delta /= np.linalg.norm(delta)
        assert joseph_trace(gain + 1e-3 * delta) >= base - 1e-12


def test_multi_analysis_trace_never_increases():
    rng = np.random.default_rng(12)
    n = 20
    cov = random_spd(rng, n)
    stations = rng.choice(n, size=7, replace=False)
    assembly = rank_order(stations, np.zeros(7), rng.uniform(0.01, 0.5, size=7))
    est = multi_analysis(StateEstimate(1, np.zeros(n), cov), assembly)
    assert np.trace(est.covariance) <= np.trace(cov) + 1e-12


# --- full step --------------------------------------------------------------------------

def flow_cfg():
    return TruthConfig(drift=Drift.ACCELERATING, base_speed=0.1, speed_ramp=0.01,
                       speed_noise=0.02, forcing_noise=0.01, pulse_center=1.0,
                       init_var=0.02)


def test_dlf_step_without_data_is_pure_forecast():
    grid = grid_for(n_steps=20)
    cfg = flow_cfg()
    model_cfg = ModelConfig(noise_var=0.08)
    est = StateEstimate(0, np.zeros(50), 0.02 * np.eye(50))
    reference = est
    pool = Pool.empty(0)
    for step in range(20):
        result = dlf_step(model_forecast(est, grid, cfg, model_cfg), pool, [], grid, cfg)
        est, pool = result.estimate, result.pool
        speeds = np.asarray(mean_speed(cfg, grid.positions, step * grid.dt), dtype=float)
        reference = forecast(reference, grid, model_cfg, speeds)
        np.testing.assert_array_equal(est.mean, reference.mean)
        np.testing.assert_array_equal(est.covariance, reference.covariance)
        assert len(pool) == 0 and pool.time_index == step + 1
        assert len(result.assembly) == 0


def test_dlf_step_without_data_returns_the_forecast_it_was_given():
    rng = np.random.default_rng(3)
    forecast_est = StateEstimate(7, rng.standard_normal(50), random_spd(rng, 50))
    result = dlf_step(forecast_est, Pool.empty(6), [], grid_for(), flow_cfg())
    assert result.estimate.time_index == 7
    np.testing.assert_array_equal(result.estimate.mean, forecast_est.mean)
    np.testing.assert_array_equal(result.estimate.covariance, forecast_est.covariance)
    assert len(result.assembly) == 0
    assert len(result.pool) == 0 and result.pool.time_index == 7


def test_dlf_step_without_data_leaves_the_out_buffer_untouched():
    rng = np.random.default_rng(4)
    forecast_est = StateEstimate(7, rng.standard_normal(50), random_spd(rng, 50))
    kept = forecast_est.covariance.copy()
    result = dlf_step(forecast_est, Pool.empty(6), [], grid_for(), flow_cfg(),
                      out=forecast_est.covariance)
    assert result.estimate is forecast_est
    assert np.array_equal(forecast_est.covariance, kept)


def test_dlf_step_into_the_prior_equals_the_fresh_posterior_bit_for_bit():
    rng = np.random.default_rng(5)
    grid, cfg = grid_for(), flow_cfg()
    stations = np.arange(0, 50, 5)
    fresh = ObservationBatch(time_index=np.full(10, 7), station=stations,
                             value=rng.standard_normal((3, 10)), variance=0.02)
    pool = Pool(6, rng.standard_normal((3, 4)), [0.13, 0.71, 1.02, 1.9], [0.01] * 4,
                [2, 3, 5, 6], [1, 2, 3, 4])
    forecast_est = StateEstimate(7, rng.standard_normal((3, 50)), random_spd(rng, 50))
    expected = dlf_step(forecast_est, pool, fresh, grid, cfg).estimate
    result = dlf_step(forecast_est, pool, fresh, grid, cfg, out=forecast_est.covariance)
    assert len(result.assembly) > 10
    assert result.estimate.covariance is forecast_est.covariance
    assert np.array_equal(result.estimate.covariance, expected.covariance)
    assert np.array_equal(result.estimate.mean, expected.mean)


def test_dlf_step_refuses_a_pool_or_block_without_the_forecasts_rows():
    rng = np.random.default_rng(6)
    grid, cfg = grid_for(), flow_cfg()
    stations = np.arange(0, 50, 5)
    forecast_est = StateEstimate(7, rng.standard_normal((3, 50)), random_spd(rng, 50))
    stacked_pool = Pool(6, rng.standard_normal((3, 2)), [0.13, 0.71], [0.01] * 2, [5, 6], [1, 2])
    one_run_pool = Pool(6, rng.standard_normal(2), [0.13, 0.71], [0.01] * 2, [5, 6], [1, 2])
    one_run = ObservationBatch(np.full(10, 7), stations, rng.standard_normal(10), 0.02)
    stacked = ObservationBatch(np.full(10, 7), stations, rng.standard_normal((3, 10)), 0.02)
    for pool, message in ((one_run_pool, r"pool values of shape \(2,\)"),
                          (Pool.empty(6), r"pool values of shape \(0,\)")):
        with pytest.raises(ValueError, match=message + r" do not have the rows of a forecast "
                                                       r"mean of shape \(3, 50\)"):
            dlf_step(forecast_est, pool, stacked, grid, cfg)
    with pytest.raises(ValueError, match=r"readings of shape \(10,\) do not have the rows of "
                                         r"a forecast mean of shape \(3, 50\)"):
        dlf_step(forecast_est, stacked_pool, one_run, grid, cfg)
    result = dlf_step(forecast_est, stacked_pool, stacked, grid, cfg)
    assert result.pool.value.shape == (3, len(result.pool))


def test_dlf_step_fresh_beats_propagated_at_same_station():
    grid = grid_for()
    cfg = flow_cfg()
    est = StateEstimate(0, np.zeros(50), 0.02 * np.eye(50))
    stale = live(value=5.0, position=0.0, variance=0.02, origin=0, current=0)
    fresh = [Observation(value=1.0, station=0, time_index=1, variance=0.02)]
    # the stale datum barely moves (speed 0.1 * dt 0.0396 << dx), so both land on station 0
    result = dlf_step(model_forecast(est, grid, cfg, ModelConfig(noise_var=0.08)), stale, fresh,
                      grid, cfg)
    assert result.assembly.informed_stations.tolist() == [0]
    winner = result.assembly.selected[0]
    assert result.pool.origin_time[winner] == 1
    assert result.pool.value[winner] == 1.0
    assert result.assembly.projected_values[0] == 1.0
    # stale datum stays in the pool even after losing the rank ordering
    assert np.any(result.pool.origin_time == 0)


def test_dlf_step_pool_carries_data_between_acquisitions():
    grid = make_grid(2.0, 50, 0.99, 0.0196, 60)
    cfg = TruthConfig(drift=Drift.OU, relax_rate=0.01, speed_noise=0.02,
                      forcing_noise=0.01, pulse_center=1.25, init_var=0.02)
    net = build_network(grid, 1, 1, 0.02)
    est = StateEstimate(0, np.zeros(50), 0.02 * np.eye(50))
    pool = Pool.empty(0)
    rng = np.random.default_rng(14)
    saw_carried_winner = False
    for step in range(1, 41):
        fresh = []
        if step % 10 == 0:
            fresh = [Observation(value=float(rng.standard_normal()), station=s,
                                 time_index=step, variance=0.02)
                     for s in range(0, 50, 5)]
        prior = model_forecast(est, grid, cfg, ModelConfig(noise_var=0.08))
        result = dlf_step(prior, pool, fresh, grid, cfg)
        est, pool = result.estimate, result.pool
        if step % 10 != 0 and step > 10:
            assert len(result.assembly) > 0
            winners = pool.origin_time[result.assembly.selected]
            saw_carried_winner = saw_carried_winner or bool(np.any(winners < pool.time_index))
        assert np.all((0 <= pool.position) & (pool.position < grid.domain_length))
        assert pool.time_index == step
    assert saw_carried_winner


def test_dlf_step_rejects_misaligned_pool():
    grid = grid_for()
    forecast_est = StateEstimate(1, np.zeros(50), 0.02 * np.eye(50))
    stale = live(current=3, origin=2)
    with pytest.raises(ValueError):
        dlf_step(forecast_est, stale, [], grid, flow_cfg())
    # the pool must be one step behind the forecast, not at its step
    with pytest.raises(ValueError):
        dlf_step(forecast_est, live(current=1, origin=1), [], grid, flow_cfg())


@pytest.mark.parametrize("station", [60, -1, 50])
def test_dlf_step_rejects_a_fresh_reading_off_the_grid(station):
    # station 60 would join the pool at x = 2.4 and station -1 at x = -0.04, outside [0, L)
    grid = grid_for()
    forecast_est = StateEstimate(1, np.zeros(50), 0.02 * np.eye(50))
    fresh = [Observation(value=1.0, station=station, time_index=1, variance=0.02)]
    with pytest.raises(ValueError, match="observation station outside the grid"):
        dlf_step(forecast_est, Pool.empty(0), fresh, grid, flow_cfg())


def test_dlf_step_rejects_fresh_readings_from_another_step():
    grid = grid_for()
    forecast_est = StateEstimate(1, np.zeros(50), 0.02 * np.eye(50))
    fresh = [Observation(value=1.0, station=3, time_index=1, variance=0.02),
             Observation(value=1.0, station=4, time_index=2, variance=0.02)]
    with pytest.raises(ValueError, match=r"observations at steps \[1, 2\], expected step 1"):
        dlf_step(forecast_est, Pool.empty(0), fresh, grid, flow_cfg())


def test_dlf_step_enforces_pool_cap():
    grid = grid_for()
    cfg = flow_cfg()
    est = StateEstimate(0, np.zeros(50), 10.0 * np.eye(50))
    pool = pool_of([float(k) for k in range(250)], [(k * 0.007) % 2.0 for k in range(250)],
                   [0.02] * 250)
    result = dlf_step(model_forecast(est, grid, cfg, ModelConfig(noise_var=0.08)), pool, [],
                      grid, cfg)
    assert len(result.pool) == 200  # 4x the station count, oldest evicted
    assert np.all(result.pool.value >= 50.0)


def test_dlf_step_builds_one_pool(monkeypatch):
    # fresh data join a pool over its cap: propagation, the join, viability and the cap
    # build no pool of their own
    grid = grid_for()
    cfg = flow_cfg()
    est = StateEstimate(0, np.zeros(50), 10.0 * np.eye(50))
    pool = pool_of([float(k) for k in range(250)], [(k * 0.007) % 2.0 for k in range(250)],
                   [0.02] * 250)
    fresh = [Observation(value=1.0, station=s, time_index=1, variance=0.02)
             for s in range(0, 50, 5)]
    forecast_est = model_forecast(est, grid, cfg, ModelConfig(noise_var=0.08))
    built = []
    check = Pool.__post_init__
    monkeypatch.setattr(Pool, "__post_init__", lambda self: (built.append(self), check(self)))
    result = dlf_step(forecast_est, pool, fresh, grid, cfg)
    assert len(built) == 1 and built[0] is result.pool
    assert len(result.pool) == 200 and result.pool.origin_time[-10:].tolist() == [1] * 10


def kf_step(forecast_est, block):
    return analysis(forecast_est, block, np.zeros((len(block), 50)), 0.02)


def dlf_only_step(forecast_est, block):
    return dlf_step(forecast_est, Pool.empty(0), block, grid_for(), flow_cfg())


@pytest.mark.parametrize("filter_step", [kf_step, dlf_only_step], ids=["kf", "dlf"])
@pytest.mark.parametrize("stations, times, message", [
    ([50], [1], "observation station outside the grid"),
    ([-1], [1], "observation station outside the grid"),
    ([3, 4], [1, 2], r"observations at steps \[1, 2\], expected step 1"),
    ([3], [2], r"observations at steps \[2\], expected step 1"),
], ids=["station-50", "station-minus-1", "two-steps", "another-step"])
def test_both_filters_reject_a_bad_block_with_one_message(filter_step, stations, times, message):
    forecast_est = StateEstimate(1, np.zeros(50), 0.02 * np.eye(50))
    block = [Observation(value=1.0, station=s, time_index=t, variance=0.02)
             for s, t in zip(stations, times)]
    batch = ObservationBatch(np.array(times), np.array(stations), np.ones(len(times)), 0.02)
    for readings in (block, batch):
        with pytest.raises(ValueError, match=f"^{message}$"):
            filter_step(forecast_est, readings)


# --- array pool equals a per-datum reference ----------------------------------------------

def reference_pool_stages(entries, now, fresh, forecast_cov, grid, truth_cfg):
    """Per-datum pool stages of one step: a plain loop over (value, position,
    variance, origin) tuples with scalar arithmetic.

    Returns the survivors, their stations, and per informed station the
    survivor index of its winner.
    """
    t = (now - 1) * grid.dt
    inflation = truth_cfg.forcing_noise ** 2 * grid.dt
    advanced = []
    for value, position, variance, origin in entries:
        speed = float(mean_speed(truth_cfg, position, t))
        new_position = float(grid.wrap(position + grid.dt * speed))
        advanced.append((value, new_position, variance + inflation, origin))
    for obs in fresh:
        advanced.append((obs.value, obs.station * grid.dx, obs.variance, now))

    survivors = []
    for datum in advanced:
        station = int(math.floor(datum[1] / grid.dx + 1e-9)) % grid.n_points
        if datum[2] <= forecast_cov[station, station]:
            survivors.append(datum)
    cap = POOL_CAP_FACTOR * grid.n_points
    survivors = survivors[-cap:]

    stations = [int(math.floor(d[1] / grid.dx + 1e-9)) % grid.n_points for d in survivors]
    winners = {}
    for index in sorted(range(len(survivors)), key=lambda i: survivors[i][2]):
        winners.setdefault(stations[index], index)
    return survivors, stations, winners


SMALL_GRID = make_grid(2.0, 8, 1.0, 1.0, 50)  # dx = dt = 0.25: unit speed moves one node


@st.composite
def pool_positions(draw):
    node = draw(st.integers(0, SMALL_GRID.n_points - 1)) * SMALL_GRID.dx
    kind = draw(st.sampled_from(["node", "near-node", "seam", "anywhere"]))
    if kind == "node":
        return node
    if kind == "near-node":
        return float(SMALL_GRID.wrap(node + draw(st.floats(-1e-9, 1e-9))))
    if kind == "seam":
        return SMALL_GRID.domain_length - draw(st.floats(1e-12, 0.3))
    return draw(st.floats(0.0, SMALL_GRID.domain_length, exclude_max=True))


@st.composite
def pool_steps(draw):
    now = draw(st.integers(1, 30))
    count = draw(st.integers(0, POOL_CAP_FACTOR * SMALL_GRID.n_points + 6))
    # a few distinct variances make ties common, as fresh data at obs_var do
    variance = st.one_of(st.sampled_from([0.02, 0.03, 0.05]), st.floats(0.01, 0.2))
    entries = [(draw(st.floats(-2.0, 2.0)), draw(pool_positions()), draw(variance),
                draw(st.integers(0, now - 1))) for _ in range(count)]
    stations = draw(st.lists(st.integers(0, SMALL_GRID.n_points - 1), unique=True,
                             max_size=SMALL_GRID.n_points))
    fresh = [Observation(value=draw(st.floats(-2.0, 2.0)), station=s, time_index=now,
                         variance=draw(st.sampled_from([0.02, 0.03])))
             for s in stations]
    drift = draw(st.sampled_from(["unit", "slow", "ou"]))
    if drift == "ou":
        truth_cfg = TruthConfig(drift=Drift.OU, relax_rate=0.3, forcing_noise=0.1)
    else:
        truth_cfg = TruthConfig(drift=Drift.ACCELERATING,
                                base_speed=1.0 if drift == "unit" else 0.37,
                                forcing_noise=draw(st.sampled_from([0.0, 0.1])))
    # a tight forecast sheds data; a loose one lets the pool reach its cap
    high = draw(st.sampled_from([0.1, 1.0]))
    forecast_var = draw(st.lists(st.floats(0.0, high), min_size=SMALL_GRID.n_points,
                                 max_size=SMALL_GRID.n_points))
    return now, entries, fresh, truth_cfg, forecast_var


@settings(max_examples=200, deadline=None)
@given(pool_steps())
def test_array_pool_stages_equal_per_datum_reference(case):
    now, entries, fresh, truth_cfg, forecast_var = case
    grid = SMALL_GRID
    columns = list(zip(*entries)) or [()] * 4
    pool = pool_of(*columns, time_index=now - 1)
    prev = StateEstimate(now - 1, np.zeros(grid.n_points), np.diag(forecast_var))
    forecast_est = model_forecast(prev, grid, truth_cfg, ModelConfig(noise_var=0.01))
    result = dlf_step(forecast_est, pool, fresh, grid, truth_cfg)

    survivors, stations, winners = reference_pool_stages(entries, now, fresh,
                                                         forecast_est.covariance, grid, truth_cfg)

    assert result.pool.time_index == now
    assert result.pool.value.tolist() == [d[0] for d in survivors]
    assert result.pool.position.tolist() == [d[1] for d in survivors]
    assert result.pool.variance.tolist() == [d[2] for d in survivors]
    assert result.pool.origin_time.tolist() == [d[3] for d in survivors]
    assert project(result.pool, grid).tolist() == stations
    assembly = result.assembly
    assert assembly.informed_stations.tolist() == sorted(winners)
    assert assembly.selected.tolist() == [winners[s] for s in sorted(winners)]
    assert assembly.projected_values.tolist() == [survivors[winners[s]][0]
                                                  for s in sorted(winners)]
    assert assembly.projected_variances.tolist() == [survivors[winners[s]][2]
                                                     for s in sorted(winners)]
