import math
from fractions import Fraction

import numpy as np
import pytest

from dlfilter.core import NoiseSource, make_grid
from dlfilter.harness import default_config, run_scenario, write_outputs
from dlfilter.obsnet import (Observation, ObservationBatch, build_network, observation_matrix,
                             observations_by_step, read_block, sample_observations)
from dlfilter.truth import Drift, TruthConfig, generate_truth


def grid_for(n_steps=40):
    return make_grid(2.0, 50, 0.99, 1.0, n_steps)


def truth_for(grid):
    cfg = TruthConfig(drift=Drift.ACCELERATING, base_speed=0.1, speed_ramp=0.01,
                      speed_noise=0.02, forcing_noise=0.01, pulse_center=1.0,
                      init_var=0.02)
    return generate_truth(grid, cfg, NoiseSource(21))


def test_dense_network_covers_everything():
    net = build_network(grid_for(), 1, 1, 0.02)
    assert net.station_indices == tuple(range(50))
    assert net.step_stride == 1


def test_fifth_sampling_gives_ten_stations():
    net = build_network(grid_for(), Fraction(1, 5), Fraction(1, 10), 0.02)
    assert len(net.station_indices) == 10
    assert net.step_stride == 10


def test_quarter_sampling_enumerates_thirteen_stations():
    # stride-4 indices below 50, starting at 0
    net = build_network(grid_for(), Fraction(1, 4), Fraction(1, 10), 0.02)
    assert net.station_indices == tuple(range(0, 50, 4))
    assert len(net.station_indices) == 13


def test_non_integer_stride_rejected():
    with pytest.raises(ValueError):
        build_network(grid_for(), 0.3, 1, 0.02)
    with pytest.raises(ValueError):
        build_network(grid_for(), 1, Fraction(2, 3), 0.02)
    with pytest.raises(ValueError):
        build_network(grid_for(), 0, 1, 0.02)


def test_observations_equal_truth_when_noise_vanishes():
    # smallest representable positive variance stands in for "noise off"
    grid = grid_for()
    truth = truth_for(grid)
    net = build_network(grid, Fraction(1, 5), Fraction(1, 10), 5e-324)
    obs = sample_observations(truth, net, NoiseSource(0))
    for o in obs:
        assert o.value == pytest.approx(truth.values[o.time_index, o.station], abs=1e-150)


def test_observation_noise_variance_matches_configuration():
    grid = grid_for()
    truth = truth_for(grid)
    net = build_network(grid, 1, 1, 0.02)
    obs = sample_observations(truth, net, NoiseSource(9))
    residuals = np.array([o.value - truth.values[o.time_index, o.station] for o in obs])
    spread = 3 * 0.02 * np.sqrt(2 / residuals.size)
    assert abs(residuals.var() - 0.02) < spread
    assert all(o.variance == 0.02 for o in obs)


def test_first_observation_at_stride_not_zero():
    grid = grid_for()
    truth = truth_for(grid)
    net = build_network(grid, 1, Fraction(1, 10), 0.02)
    obs = sample_observations(truth, net, NoiseSource(0))
    steps = sorted({o.time_index for o in obs})
    assert steps == [10, 20, 30, 40]


def test_observation_times_never_exceed_the_present():
    grid = grid_for()
    truth = truth_for(grid)
    net = build_network(grid, 1, Fraction(1, 10), 0.02)
    obs = sample_observations(truth, net, NoiseSource(0), max_step=25)
    assert max(o.time_index for o in obs) <= 25


def reference_observations(truth, net, src, max_step=None):
    """The readings one datum at a time: one draw per acquisition step, then
    one Observation per station."""
    rows = truth.values.shape[0]
    last = rows - 1 if max_step is None else min(max_step, rows - 1)
    std = math.sqrt(net.noise_var)
    out = []
    for step in range(net.step_stride, last + 1, net.step_stride):
        draws = src.standard_normal(len(net.station_indices))
        for k, station in enumerate(net.station_indices):
            out.append(Observation(value=float(truth.values[step, station] + std * draws[k]),
                                   station=station, time_index=step, variance=net.noise_var))
    return out


@pytest.mark.parametrize("drift", ["ou", "accelerating"])
@pytest.mark.parametrize("xi, tau", [(1, 1), (Fraction(1, 5), Fraction(1, 10)),
                                     (Fraction(1, 4), Fraction(1, 3))])
@pytest.mark.parametrize("present", ["end", "zero", "below-stride", "past-end"])
def test_sampled_batch_equals_a_per_datum_reference_bit_for_bit(drift, xi, tau, present):
    cfg = default_config(drift, n_steps=40, space_freq=xi, time_freq=tau)
    truth = generate_truth(cfg.grid, cfg.truth_config, NoiseSource(cfg.seed_truth))
    net = cfg.network
    max_step = {"end": None, "zero": 0, "below-stride": net.step_stride - 1,
                "past-end": cfg.n_steps + 7}[present]
    batch = sample_observations(truth, net, NoiseSource(cfg.seed_obs), max_step)
    reference = reference_observations(truth, net, NoiseSource(cfg.seed_obs), max_step)
    assert len(batch) == len(reference)
    assert list(batch) == reference
    assert batch.value.tobytes() == np.array([o.value for o in reference]).tobytes()
    assert (len(batch) == 0) == (present in ("zero", "below-stride"))


def test_observation_matrix_dense_is_identity():
    grid = grid_for()
    net = build_network(grid, 1, 1, 0.02)
    np.testing.assert_array_equal(observation_matrix(net, grid), np.eye(50))


def test_observation_matrix_selector_rows():
    grid = grid_for()
    net = build_network(grid, Fraction(1, 25), 1, 0.02)
    h = observation_matrix(net, grid)
    assert net.station_indices == (0, 25)
    assert h.shape == (2, 50) and np.count_nonzero(h) == 2
    assert h[0, 0] == h[1, 25] == 1.0


def test_observation_matrix_rows_orthonormal():
    grid = grid_for()
    for xi in (1, Fraction(1, 2), Fraction(1, 5), Fraction(1, 10)):
        net = build_network(grid, xi, 1, 0.02)
        h = observation_matrix(net, grid)
        np.testing.assert_array_equal(h @ h.T, np.eye(len(net.station_indices)))


def test_observation_matrix_extracts_stations():
    grid = grid_for()
    net = build_network(grid, Fraction(1, 5), 1, 0.02)
    h = observation_matrix(net, grid)
    v = np.arange(50.0)
    np.testing.assert_array_equal(h @ v, v[list(net.station_indices)])


def test_group_by_step_preserves_station_order():
    grid = grid_for()
    truth = truth_for(grid)
    net = build_network(grid, Fraction(1, 5), Fraction(1, 10), 0.02)
    batch = sample_observations(truth, net, NoiseSource(0))
    grouped = observations_by_step(batch)
    assert [o for block in grouped.values() for o in block] == list(batch)
    for step, block in grouped.items():
        assert [o.station for o in block] == list(net.station_indices)
        assert all(o.time_index == step for o in block)
        for got, want in zip(read_block(block, step, (50,)), read_block(list(block), step, (50,)),
                             strict=True):
            np.testing.assert_array_equal(got, want)
    backwards = ObservationBatch(batch.time_index[::-1], batch.station[::-1],
                                 batch.value[::-1], batch.variance)
    with pytest.raises(ValueError, match="acquisition order"):
        observations_by_step(backwards)


def test_a_stacked_batch_counts_one_replicates_readings_and_yields_no_observation():
    grid = grid_for()
    net = build_network(grid, Fraction(1, 5), Fraction(1, 10), 0.02)
    batches = [sample_observations(truth_for(grid), net, NoiseSource(seed)) for seed in range(3)]
    stacked = ObservationBatch(batches[0].time_index, batches[0].station,
                               np.stack([batch.value for batch in batches]), 0.02)
    assert len(stacked) == len(batches[0]) == 10 * 4  # 10 stations at steps 10 to 40
    with pytest.raises(TypeError, match="no single Observation"):
        iter(stacked)
    for step, block in observations_by_step(stacked).items():
        values, stations, variances = read_block(block, step, (3, grid.n_points))
        assert values.shape == (3, 10) and stations.shape == variances.shape == (10,)
        for row, batch in zip(values, batches):
            own_values, own_stations, own_variances = read_block(
                observations_by_step(batch)[step], step, (grid.n_points,))
            np.testing.assert_array_equal(row, own_values)
            np.testing.assert_array_equal(stations, own_stations)
            np.testing.assert_array_equal(variances, own_variances)


def test_observations_roundtrip_csv(tmp_path):
    cfg = default_config("accelerating", n_steps=40, space_freq=Fraction(1, 5),
                         time_freq=Fraction(1, 10), seed_obs=31)
    result = run_scenario(cfg)
    write_outputs(result, tmp_path)
    path = tmp_path / "observations.csv"
    assert path.read_text().splitlines()[0] == "time_index,station,value,variance"
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert [Observation(value=value, station=int(station), time_index=int(time_index),
                        variance=variance)
            for time_index, station, value, variance in rows.tolist()] == (
        list(result.observations))


def test_observation_requires_positive_variance():
    with pytest.raises(ValueError):
        Observation(value=1.0, station=0, time_index=1, variance=0.0)
    with pytest.raises(ValueError):
        ObservationBatch(np.array([1]), np.array([0]), np.array([1.0]), variance=0.0)


def test_a_batch_refuses_arrays_of_different_lengths():
    one, two = np.array([1]), np.array([1, 1])
    for times, stations, values in ((two, two, np.ones(1)), (two, one, np.ones(2)),
                                    (one, one, np.ones((3, 2))), (one, one, np.float64(1.0))):
        with pytest.raises(ValueError, match="one time index, station and value per reading"):
            ObservationBatch(times, stations, values, 0.02)
    assert len(ObservationBatch(two, two, np.ones((3, 2)), 0.02)) == 2
