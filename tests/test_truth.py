import math

import numpy as np
import pytest

from dlfilter.core import NoiseSource, gaussian_vector, make_grid
from dlfilter.truth import (Drift, TruthConfig, _interp_periodic, generate_truth, initial_pulse,
                            mean_speed, pulse_profile, step_characteristic_exact)


def ou_config(**kw):
    base = dict(drift=Drift.OU, relax_rate=0.01, speed_noise=0.02,
                forcing_noise=0.01, pulse_center=1.25, init_var=0.02)
    base.update(kw)
    return TruthConfig(**base)


def acc_config(**kw):
    base = dict(drift=Drift.ACCELERATING, base_speed=0.1, speed_ramp=0.01,
                speed_noise=0.02, forcing_noise=0.01, pulse_center=1.0, init_var=0.02)
    base.update(kw)
    return TruthConfig(**base)


def grid_for(n_steps=100):
    return make_grid(2.0, 50, 0.99, 1.0, n_steps)


# --- initial pulse -----------------------------------------------------------

def test_pulse_peak_is_three_halves():
    # 1/S with S = integral of (1 - 4 s^2) over |s| <= 1/2 = 2/3
    grid = grid_for()
    values = pulse_profile(grid, 1.2)  # 1.2 sits exactly on a station
    assert values[30] == pytest.approx(1.5)


def test_pulse_zero_at_support_boundary():
    # dx = 0.05 puts the support edges center +- 1/2 exactly on stations
    grid = make_grid(2.0, 40, 0.99, 1.0, 10)
    values = pulse_profile(grid, 1.0)
    assert values[10] == 0.0   # x = 0.5
    assert values[30] == 0.0   # x = 1.5
    assert values[20] == pytest.approx(1.5)
    assert np.all(values >= 0)


def test_pulse_wraps_across_seam():
    grid = grid_for()
    values = pulse_profile(grid, 0.1)
    # support [-0.4, 0.6] wraps to the top of the domain
    assert values[int(round(1.8 / grid.dx))] > 0
    assert values[25] == 0.0


def test_pulse_center_must_be_interior():
    grid = grid_for()
    with pytest.raises(ValueError):
        pulse_profile(grid, 2.5)


def test_initial_pulse_noise_statistics():
    grid = grid_for()
    cfg = ou_config()
    clean = pulse_profile(grid, cfg.pulse_center)
    draws = np.array([initial_pulse(grid, cfg, NoiseSource(1000 + k)) - clean
                      for k in range(400)])
    # 400 x 50 samples of N(0, 0.02)
    assert abs(draws.var() - cfg.init_var) < 3 * cfg.init_var * math.sqrt(2 / draws.size)
    assert abs(draws.mean()) < 3 * math.sqrt(cfg.init_var / draws.size)


def test_initial_pulse_noise_off_is_profile():
    grid = grid_for()
    cfg = ou_config(init_var=0.0)
    assert np.array_equal(initial_pulse(grid, cfg, NoiseSource(0)),
                          pulse_profile(grid, cfg.pulse_center))


# --- mean speed --------------------------------------------------------------

def test_mean_speed_accelerating_at_origin_time():
    assert mean_speed(acc_config(), 0.7, 0.0) == pytest.approx(0.1)


def test_mean_speed_ou_fixed_point():
    assert mean_speed(ou_config(), 0.0, 5.0) == 0.0


def test_mean_speed_accelerating_at_t4():
    cfg = acc_config(base_speed=0.1, speed_ramp=0.01)
    assert mean_speed(cfg, 0.3, 4.0) == pytest.approx(0.12)


def test_mean_speed_ou_is_negative_rate_times_x():
    cfg = ou_config(relax_rate=0.01)
    x = np.array([0.0, 1.0, 1.96])
    np.testing.assert_allclose(mean_speed(cfg, x, 0.0), -0.01 * x)


# --- exact characteristic steps ----------------------------------------------

def test_ou_step_noise_free_closed_form():
    cfg = ou_config(speed_noise=0.0)
    out = step_characteristic_exact(cfg, 1.0, 0.0, 0.1, NoiseSource(0))
    assert out == pytest.approx(math.exp(-0.001), abs=1e-15)


def test_accelerating_step_no_drift_no_noise_is_identity():
    cfg = acc_config(base_speed=0.0, speed_ramp=0.0, speed_noise=0.0)
    out = step_characteristic_exact(cfg, 0.73, 2.0, 0.5, NoiseSource(0))
    assert out == 0.73


def test_ou_one_step_monte_carlo_moments():
    rate, noise, dt = 0.01, 0.02, 2.0
    cfg = ou_config(relax_rate=rate, speed_noise=noise)
    n = 10**5
    out = step_characteristic_exact(cfg, np.full(n, 1.0), 0.0, dt, NoiseSource(42))
    decay = math.exp(-rate * dt)
    target_var = noise**2 / (2 * rate) * (1 - decay**2)
    assert abs(out.mean() - decay) < 3 * math.sqrt(target_var / n)
    assert abs(out.var(ddof=1) - target_var) < 3 * target_var * math.sqrt(2 / (n - 1))


def test_accelerating_one_step_monte_carlo_moments():
    base, ramp, noise, dt = 0.1, 0.01, 0.02, 0.0396
    cfg = acc_config(base_speed=base, speed_ramp=ramp, speed_noise=noise)
    n = 10**5
    out = step_characteristic_exact(cfg, np.full(n, 1.0), 0.0, dt, NoiseSource(43))
    target_mean = 1.0 + base * dt + (2.0 / 3.0) * ramp * dt**1.5
    target_var = noise**2 * dt
    assert abs(out.mean() - target_mean) < 3 * math.sqrt(target_var / n)
    assert abs(out.var(ddof=1) - target_var) < 3 * target_var * math.sqrt(2 / (n - 1))


def test_step_wraps_into_domain():
    cfg = acc_config(base_speed=1.0, speed_ramp=0.0, speed_noise=0.0)
    out = step_characteristic_exact(cfg, 1.95, 0.0, 0.1, NoiseSource(0), wrap_length=2.0)
    assert out == pytest.approx(0.05)


# --- whole-truth generation ----------------------------------------------------

def test_generate_truth_static_configuration_is_constant():
    grid = grid_for(n_steps=20)
    cfg = acc_config(base_speed=0.0, speed_ramp=0.0, speed_noise=0.0,
                     forcing_noise=0.0, init_var=0.0)
    field = generate_truth(grid, cfg, NoiseSource(4))
    for row in field.values:
        np.testing.assert_array_equal(row, field.values[0])


def test_generate_truth_commensurate_translation_matches_circular_shift():
    grid = grid_for(n_steps=25)
    # one cell per step: speed * dt = dx
    speed = grid.dx / grid.dt
    cfg = acc_config(base_speed=speed, speed_ramp=0.0, speed_noise=0.0,
                     forcing_noise=0.0, init_var=0.0)
    field = generate_truth(grid, cfg, NoiseSource(4))
    for step in range(grid.n_steps + 1):
        np.testing.assert_allclose(field.values[step], np.roll(field.values[0], step),
                                   atol=1e-12)


def test_generate_truth_row_zero_is_sampled_pulse():
    grid = grid_for(n_steps=5)
    cfg = ou_config()
    src = NoiseSource(77)
    field = generate_truth(grid, cfg, src)
    expected = initial_pulse(grid, cfg, NoiseSource(77).child(0))
    np.testing.assert_array_equal(field.values[0], expected)


def reference_truth(grid, cfg, seed):
    """``generate_truth`` of ``NoiseSource(seed)`` with the full record of its characteristics.

    The loop keeps every step's positions, each advanced by
    ``step_characteristic_exact`` on the truth's speed stream (child 2). It
    returns the values and the (n_steps + 1, N) path record.
    """
    src = NoiseSource(seed)
    init_src, forcing_src, speed_src = src.child(0), src.child(1), src.child(2)
    values = np.empty((grid.n_steps + 1, grid.n_points))
    paths = np.empty((grid.n_steps + 1, grid.n_points))
    paths[0] = grid.positions
    carried = initial_pulse(grid, cfg, init_src)
    values[0] = carried.copy()
    for step in range(grid.n_steps):
        paths[step + 1] = step_characteristic_exact(cfg, paths[step], step * grid.dt, grid.dt,
                                                    speed_src, wrap_length=grid.domain_length)
        carried = carried + gaussian_vector(forcing_src, grid.n_points,
                                           cfg.forcing_noise * math.sqrt(grid.dt))
        values[step + 1] = np.interp(grid.positions, paths[step + 1], carried,
                                     period=grid.domain_length)
    return values, paths


def crosses_the_seam(paths, length) -> bool:
    """Whether some characteristic wraps between two steps."""
    return bool(np.any(np.abs(np.diff(paths, axis=0)) > length / 2))


@pytest.mark.parametrize("grid, cfg, seed", [
    (make_grid(2.0, 50, 0.99, 0.0196, 200), ou_config(), 5),
    (grid_for(n_steps=60), ou_config(speed_noise=0.2, forcing_noise=0.05), 8),
    (grid_for(n_steps=40), acc_config(base_speed=1.0), 6),
    (grid_for(n_steps=40), acc_config(speed_ramp=0.3, speed_noise=0.1), 9),
], ids=["ou-paper", "ou-noisy", "accelerating-fast", "accelerating-ramp"])
def test_generate_truth_equals_the_full_path_record_reference_bit_for_bit(grid, cfg, seed):
    values, paths = reference_truth(grid, cfg, seed)
    assert crosses_the_seam(paths, grid.domain_length)
    assert np.array_equal(generate_truth(grid, cfg, NoiseSource(seed)).values, values)


def test_generate_truth_paper_ou_member_is_valid():
    grid = make_grid(2.0, 50, 0.99, 0.0196, 200)
    field = generate_truth(grid, ou_config(), NoiseSource(5))
    assert field.values.shape == (201, 50)
    assert np.all(np.isfinite(field.values))
    _, paths = reference_truth(grid, ou_config(), 5)
    assert np.all(paths >= 0)
    assert np.all(paths < 2.0)
    # the OU pull contracts every characteristic toward the origin
    spread_start = np.ptp(paths[0])
    spread_end = np.ptp(np.sort(paths[-1]))
    assert spread_end < spread_start


def test_generate_truth_conserves_pulse_integral_under_translation():
    grid = grid_for(n_steps=40)
    cfg = acc_config(base_speed=0.17, speed_ramp=0.0, speed_noise=0.0,
                     forcing_noise=0.0, init_var=0.0)
    field = generate_truth(grid, cfg, NoiseSource(4))
    reference = field.values[0].mean() * grid.domain_length
    for step in (10, 25, 40):
        integral = field.values[step].mean() * grid.domain_length
        assert abs(integral - reference) < 5e-3  # O(dx^2) interpolation error


def test_generate_truth_positions_stay_wrapped():
    grid = grid_for(n_steps=30)
    _, paths = reference_truth(grid, acc_config(base_speed=1.0), 6)
    assert crosses_the_seam(paths, grid.domain_length)
    assert np.all(paths >= 0)
    assert np.all(paths < grid.domain_length)


@pytest.mark.parametrize("positions, collapsed", [
    ([0.7, 0.7, 0.7], True),
    ([0.0, 2.0], True),  # both wrap to 0
    ([0.3, 1.1], False),
], ids=["all-equal", "zero-and-period", "two-distinct"])
def test_interpolation_refuses_characteristics_collapsed_to_one_point(positions, collapsed):
    period = 2.0
    positions = np.array(positions)
    values = np.arange(positions.size, dtype=float)
    targets = grid_for().positions
    assert (np.unique(np.mod(positions, period)).size < 2) == collapsed
    if collapsed:
        with pytest.raises(ValueError, match="characteristics collapsed"):
            _interp_periodic(targets, positions, values, period)
    else:
        np.testing.assert_array_equal(_interp_periodic(targets, positions, values, period),
                                      np.interp(targets, positions, values, period=period))


def test_ou_config_requires_positive_rate():
    with pytest.raises(ValueError):
        TruthConfig(drift=Drift.OU, relax_rate=0.0, pulse_center=1.0)
