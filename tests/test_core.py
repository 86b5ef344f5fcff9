import numpy as np
import pytest

from dlfilter.core import (SYMMETRY_RTOL, NoiseSource, StateEstimate, gaussian_vector,
                           make_grid)
from dlfilter.truth import Drift, TruthConfig, mean_speed


def test_make_grid_paper_spacing():
    grid = make_grid(2.0, 50, 0.99, 0.0196, 200)
    assert grid.dx == 0.04
    assert grid.n_points == 50
    assert grid.positions[1] == 0.04


def test_make_grid_identity_cfl():
    grid = make_grid(1.0, 10, 1.0, 1.0, 5)
    assert grid.dt == pytest.approx(0.1, abs=0.0)


def test_make_grid_dt_from_scanned_ou_speed():
    # the speed bound is the largest |c(x, 0)| over the stations
    rate = 0.01
    cfg = TruthConfig(drift=Drift.OU, relax_rate=rate, pulse_center=1.25)
    probe = make_grid(2.0, 50, 0.99, 1.0, 1)  # only for the station coordinates
    max_speed = float(np.abs(mean_speed(cfg, probe.positions, 0.0)).max())
    assert max_speed == pytest.approx(rate * 1.96)
    grid = make_grid(2.0, 50, 0.99, max_speed, 200)
    assert grid.dt == pytest.approx(0.99 * 0.04 / max_speed)


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(2.0, 50, 0.99, 0.0, 10)
    with pytest.raises(ValueError):
        make_grid(2.0, 1, 0.99, 1.0, 10)
    with pytest.raises(ValueError):
        make_grid(2.0, 50, 1.5, 1.0, 10)
    with pytest.raises(ValueError):
        make_grid(-2.0, 50, 0.99, 1.0, 10)


def test_grid_wrap_periodic():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    assert grid.wrap(2.0) == 0.0
    assert grid.wrap(-0.05) == pytest.approx(1.95)
    assert grid.wrap(2.05) == pytest.approx(0.05)


def test_grid_wrap_maps_the_seam_into_range():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    below = np.nextafter(2.0, 0.0)
    assert grid.wrap(-1e-17) == 0.0
    assert grid.wrap(0.0) == 0.0
    assert grid.wrap(below) == below
    wrapped = grid.wrap(np.array([-1e-17, 0.0, below, -1e-300, 4.0 - 1e-16]))
    assert np.all((wrapped >= 0.0) & (wrapped < 2.0))
    np.testing.assert_array_equal(wrapped[:3], [0.0, 0.0, below])


def test_gaussian_vector_zero_stddev_is_zero():
    out = gaussian_vector(NoiseSource(3), 100, 0.0)
    assert np.array_equal(out, np.zeros(100))


def test_gaussian_vector_mean_within_three_standard_errors():
    out = gaussian_vector(NoiseSource(12345), 10**6, 1.0)
    assert abs(out.mean()) < 0.004


def test_gaussian_vector_rejects_negative_stddev():
    with pytest.raises(ValueError):
        gaussian_vector(NoiseSource(0), 3, -1.0)


def test_equal_seeds_reproduce_sequences():
    a = NoiseSource(7).standard_normal(64)
    b = NoiseSource(7).standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = NoiseSource(7).standard_normal(64)
    for other in (NoiseSource(8), NoiseSource(7).child(1)):
        assert not np.array_equal(a, other.standard_normal(64))


@pytest.mark.parametrize("seed", [0, 7, 202])
def test_noise_source_keys_are_seed_zero_then_tags(seed):
    # Every recorded draw was made under these generator keys.
    assert np.array_equal(NoiseSource(seed).standard_normal(16),
                          np.random.default_rng((seed, 0)).standard_normal(16))
    for tag in (0, 3):
        assert np.array_equal(NoiseSource(seed).child(tag).standard_normal(16),
                              np.random.default_rng((seed, 0, tag)).standard_normal(16))
    assert np.array_equal(NoiseSource(seed).child(1).child(2).standard_normal(16),
                          np.random.default_rng((seed, 0, 1, 2)).standard_normal(16))


def test_child_streams_are_independent_and_reproducible():
    parent = NoiseSource(9)
    a = parent.child(1).standard_normal(32)
    b = parent.child(2).standard_normal(32)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, NoiseSource(9).child(1).standard_normal(32))


def test_state_estimate_validates_symmetry():
    cov = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        StateEstimate(0, np.zeros(2), cov)


def test_state_estimate_validates_diagonal():
    cov = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(ValueError):
        StateEstimate(0, np.zeros(2), cov)


def test_state_estimate_refuses_a_nan_off_diagonal_pair():
    # Symmetric as a pattern, but NaN != NaN: the trace alone would read 3.0.
    cov = np.eye(3)
    cov[0, 2] = cov[2, 0] = np.nan
    with pytest.raises(ValueError, match="not symmetric"):
        StateEstimate(0, np.zeros(3), cov)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_state_estimate_refuses_an_infinite_off_diagonal_entry(bad):
    # One entry makes the scale, and with it the symmetry tolerance, infinite;
    # a pair is exactly symmetric and skips the tolerance scan.
    for pair in (False, True):
        cov = np.eye(3)
        cov[0, 2] = bad
        if pair:
            cov[2, 0] = bad
        with pytest.raises(ValueError, match="infinite entry"):
            StateEstimate(0, np.zeros(3), cov)


def test_state_estimate_refuses_a_nan_diagonal_entry():
    cov = np.eye(3)
    cov[1, 1] = np.nan
    with pytest.raises(ValueError):
        StateEstimate(0, np.zeros(3), cov)


def test_state_estimate_accepts_zero_covariance():
    est = StateEstimate(0, np.ones(3), np.zeros((3, 3)))
    assert est.trace == 0.0


def test_state_estimate_takes_a_stack_of_means_over_one_covariance():
    est = StateEstimate(0, np.ones((4, 3)), np.eye(3))
    assert est.mean.shape == (4, 3) and est.trace == 3.0
    for mean in (np.ones((4, 2)), np.ones((3, 4)), np.float64(1.0)):
        with pytest.raises(ValueError, match="shapes inconsistent"):
            StateEstimate(0, mean, np.eye(3))


def full_scan_verdict(cov):
    """The covariance check as a full scan: True when the matrix is accepted.

    Each test accepts only when its comparison holds, so a NaN fails it."""
    scale = max(1.0, float(np.abs(cov).max()) if cov.size else 1.0)
    with np.errstate(invalid="ignore"):  # inf - inf in the symmetry residual
        if not float(np.abs(cov - cov.T).max()) <= SYMMETRY_RTOL * scale:
            return False
    return np.isfinite(cov).all() and float(np.diag(cov).min()) >= -SYMMETRY_RTOL * scale


def test_state_estimate_check_keeps_the_full_scan_verdicts():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 5))
    base = 10.0 * (a @ a.T)
    scale = float(np.abs(base).max())
    cases = [base, np.zeros((5, 5)), np.eye(5)]
    for factor in (0.5, 0.99, 1.01, 2.0):
        bumped = base.copy()
        bumped[1, 3] += factor * SYMMETRY_RTOL * scale
        cases.append(bumped)
        negative = base.copy()
        np.fill_diagonal(negative, 0.0)
        negative[2, 2] = -factor * SYMMETRY_RTOL * max(1.0, float(np.abs(negative).max()))
        cases.append(negative)
    for where in ((0, 4), (2, 2)):
        for bad in (np.nan, np.inf, -np.inf):
            odd = base.copy()
            odd[where] = bad
            cases.append(odd)
    verdicts = []
    for cov in cases:
        try:
            StateEstimate(0, np.zeros(5), cov)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == full_scan_verdict(cov)
        verdicts.append(accepted)
    # the cases straddle both tolerances, so both verdicts occur
    assert True in verdicts and False in verdicts
