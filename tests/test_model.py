import numpy as np
import pytest

from dlfilter.core import NoiseSource, make_grid
from dlfilter.harness import default_config
from dlfilter.model import (ModelConfig, advect, lax_friedrichs_matrix, lax_friedrichs_weights,
                            model_step)
from dlfilter.truth import mean_speed


def unit_grid(n_points=50, n_steps=10):
    # cfl = 1 with unit speed makes dt/dx exactly 1
    return make_grid(2.0, n_points, 1.0, 1.0, n_steps)


def test_unit_lambda_is_circular_shift_matrix():
    grid = unit_grid()
    matrix = lax_friedrichs_matrix(grid, np.ones(grid.n_points))
    expected = np.roll(np.eye(grid.n_points), -1, axis=1)  # row l: single 1 at column l-1
    assert np.array_equal(matrix, expected)


def test_zero_lambda_is_neighbor_average():
    grid = unit_grid()
    matrix = lax_friedrichs_matrix(grid, np.zeros(grid.n_points))
    constant = np.full(grid.n_points, 3.7)
    np.testing.assert_allclose(matrix @ constant, constant, rtol=0, atol=1e-14)
    assert matrix[0, 1] == 0.5 and matrix[0, grid.n_points - 1] == 0.5


def test_half_lambda_stencil_hand_expansion():
    grid = make_grid(2.0, 4, 1.0, 1.0, 1)
    matrix = lax_friedrichs_matrix(grid, np.full(4, 0.5))
    out = matrix @ np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(out, np.array([0.0, 0.75, 0.0, 0.25]))


def test_rows_sum_to_one_for_admissible_lambda():
    grid = unit_grid()
    rng = np.random.default_rng(8)
    for _ in range(20):
        speeds = rng.uniform(-1.0, 1.0, grid.n_points)
        matrix = lax_friedrichs_matrix(grid, speeds)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-14)


def test_cfl_violation_rejected():
    grid = unit_grid()
    speeds = np.ones(grid.n_points)
    speeds[13] = 1.01
    with pytest.raises(ValueError, match="CFL"):
        lax_friedrichs_matrix(grid, speeds)


def test_two_point_grid_row_sums():
    grid = make_grid(1.0, 2, 1.0, 1.0, 1)
    matrix = lax_friedrichs_matrix(grid, np.array([0.5, -0.25]))
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-14)


def test_weights_are_the_two_diagonals_of_the_matrix():
    grid = unit_grid(n_points=7)
    speeds = np.random.default_rng(9).uniform(-1.0, 1.0, grid.n_points)
    right, left = lax_friedrichs_weights(grid, speeds)
    matrix = lax_friedrichs_matrix(grid, speeds)
    rows = np.arange(grid.n_points)
    np.testing.assert_array_equal(matrix[rows, (rows + 1) % 7], right)
    np.testing.assert_array_equal(matrix[rows, (rows - 1) % 7], left)
    np.testing.assert_array_equal(right + left, np.ones(7))


def test_weights_reject_cfl_violation_and_bad_shape():
    grid = unit_grid()
    speeds = np.ones(grid.n_points)
    speeds[13] = -1.01
    with pytest.raises(ValueError, match="CFL"):
        lax_friedrichs_weights(grid, speeds)
    with pytest.raises(ValueError, match="shape"):
        lax_friedrichs_weights(grid, np.ones(grid.n_points + 1))


def test_model_step_unit_lambda_shifts_exactly():
    grid = unit_grid()
    state = np.sin(np.linspace(0, 3, grid.n_points))
    out = model_step(state, grid, ModelConfig(noise_var=0.0), np.ones(grid.n_points),
                     NoiseSource(0))
    assert np.array_equal(out, np.roll(state, 1))


def test_model_step_preserves_constant_state():
    grid = unit_grid()
    rng = np.random.default_rng(3)
    state = np.full(grid.n_points, -1.3)
    speeds = rng.uniform(-1, 1, grid.n_points)
    out = model_step(state, grid, ModelConfig(noise_var=0.0), speeds, NoiseSource(0))
    np.testing.assert_allclose(out, state, rtol=0, atol=1e-14)


def test_model_step_matches_dense_matrix_oracle():
    grid = unit_grid()
    rng = np.random.default_rng(4)
    state = rng.standard_normal(grid.n_points)
    speeds = rng.uniform(-1, 1, grid.n_points)
    lam = grid.dt / grid.dx * speeds
    n = grid.n_points
    dense = np.zeros((n, n))
    for row in range(n):
        dense[row, (row + 1) % n] += 0.5 * (1 - lam[row])
        dense[row, (row - 1) % n] += 0.5 * (1 + lam[row])
    out = model_step(state, grid, ModelConfig(noise_var=0.0), speeds, NoiseSource(0))
    np.testing.assert_allclose(out, dense @ state, rtol=0, atol=1e-14)


def test_model_step_max_principle_noise_free():
    grid = unit_grid()
    rng = np.random.default_rng(5)
    state = rng.standard_normal(grid.n_points)
    for trial in range(10):
        speeds = rng.uniform(-1, 1, grid.n_points)
        out = model_step(state, grid, ModelConfig(noise_var=0.0), speeds, NoiseSource(0))
        assert out.min() >= state.min() - 1e-12
        assert out.max() <= state.max() + 1e-12
        state = out


def test_model_step_noise_variance_scale():
    # per-step noise variance equals the configured covariance inflation
    grid = unit_grid(n_points=50)
    state = np.zeros(grid.n_points)
    cfg = ModelConfig(noise_var=0.08)
    draws = np.concatenate([
        model_step(state, grid, cfg, np.zeros(grid.n_points), NoiseSource(100 + k))
        for k in range(400)])
    observed = draws.var()
    assert abs(observed - 0.08) < 3 * 0.08 * np.sqrt(2 / draws.size)


def scenario_speeds(drift, n_points, step):
    """A scenario's grid and the station speeds that drive its step ``step``."""
    cfg = default_config(drift, n_points=n_points)
    grid = cfg.grid
    return grid, mean_speed(cfg.truth_config, grid.positions, (step - 1) * grid.dt)


@pytest.mark.parametrize("drift", ["ou", "accelerating"])
@pytest.mark.parametrize("n", [50, 400])
def test_model_step_of_a_stack_equals_its_rows_bit_for_bit(drift, n):
    grid, speeds = scenario_speeds(drift, n, step=40)
    rng = np.random.default_rng(n)
    # Strided rows, as the run's (replicate, step, station) block holds them.
    states = rng.standard_normal((5, 3, n))[:, 1]
    for cfg in (ModelConfig(noise_var=0.08), ModelConfig(noise_var=0.0)):
        stepped = model_step(states, grid, cfg, speeds, [NoiseSource(7 + r) for r in range(5)])
        assert stepped.shape == states.shape
        for row, state in enumerate(states):
            alone = model_step(state.copy(), grid, cfg, speeds, NoiseSource(7 + row))
            assert np.array_equal(stepped[row], alone)


@pytest.mark.parametrize("drift", ["ou", "accelerating"])
@pytest.mark.parametrize("n", [50, 400])
def test_advect_of_a_stack_equals_its_rows_bit_for_bit(drift, n):
    grid, speeds = scenario_speeds(drift, n, step=41)
    # A (filter, replicate, N) stack of strided rows.
    stack = np.random.default_rng(n).standard_normal((2, 4, 3, n))[:, :, 1]
    advected = advect(stack, grid, speeds)
    assert advected.shape == stack.shape
    for index in np.ndindex(stack.shape[:-1]):
        row = stack[index].copy()
        assert np.array_equal(advected[index], advect(row, grid, speeds))
        assert np.array_equal(advected[index], model_step(row, grid, ModelConfig(), speeds,
                                                          NoiseSource(0)))


def test_model_step_refuses_a_source_count_that_is_not_the_rows():
    grid = unit_grid()
    states = np.zeros((3, grid.n_points))
    speeds = np.zeros(grid.n_points)
    for srcs in ([NoiseSource(0)] * 2, [NoiseSource(0)] * 4, NoiseSource(0)):
        with pytest.raises(ValueError, match="one noise source per state row"):
            model_step(states, grid, ModelConfig(noise_var=0.08), speeds, srcs)
    with pytest.raises(ValueError, match="one noise source per state row"):
        model_step(states[0], grid, ModelConfig(), speeds, [NoiseSource(0)] * 2)


def test_model_config_rejects_negative_variance():
    with pytest.raises(ValueError):
        ModelConfig(noise_var=-0.1)
