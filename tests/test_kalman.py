import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dlfilter import kalman
from dlfilter.checks import condition_gain, condition_on_stations
from dlfilter.core import NoiseSource, StateEstimate, make_grid
from dlfilter.kalman import FilterError, analysis, condition, forecast
from dlfilter.model import ModelConfig, model_step
from dlfilter.obsnet import Observation, ObservationBatch, selector


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) + 0.1 * np.eye(n)


def obs_block(values, stations, time_index, variance):
    return [Observation(value=float(v), station=int(s), time_index=time_index,
                        variance=variance)
            for v, s in zip(values, stations)]


# --- dense oracles ---------------------------------------------------------------

def dense_forecast(mean, cov, transition, noise_var):
    """(T m, T P T^T + noise_var I), symmetrized: the dense N^3 forecast."""
    new_cov = transition @ cov @ transition.T
    new_cov = 0.5 * (new_cov + new_cov.T) + noise_var * np.eye(mean.shape[0])
    return transition @ mean, new_cov


def dense_lax_friedrichs(lam):
    """Lax-Friedrichs transition built entry by entry from lambda."""
    n = lam.shape[0]
    dense = np.zeros((n, n))
    for row in range(n):
        dense[row, (row + 1) % n] += 0.5 * (1 - lam[row])
        dense[row, (row - 1) % n] += 0.5 * (1 + lam[row])
    return dense


def joseph_covariance(cov, gain, h, obs_var):
    """Posterior covariance in Joseph form, valid for any gain, optimal or not."""
    shrink = np.eye(cov.shape[0]) - gain @ h
    return shrink @ cov @ shrink.T + obs_var * gain @ gain.T


def unit_grid(n_points):
    # cfl = 1 with unit speed makes dt/dx exactly 1, so lambda equals the speed
    return make_grid(2.0, n_points, 1.0, 1.0, 10)


# --- forecast ------------------------------------------------------------------

def test_forecast_unit_cfl_round_trip_is_a_fixed_point():
    # lambda = 1 moves every station one step right; N steps come back exactly
    rng = np.random.default_rng(0)
    n = 6
    start = StateEstimate(0, rng.standard_normal(n), random_spd(rng, n))
    est = start
    for _ in range(n):
        est = forecast(est, unit_grid(n), ModelConfig(noise_var=0.0), np.ones(n))
    np.testing.assert_array_equal(est.mean, start.mean)
    np.testing.assert_array_equal(est.covariance, start.covariance)


def test_forecast_inflates_diagonal_by_noise_var():
    rng = np.random.default_rng(1)
    n = 8
    cov = random_spd(rng, n)
    quiet = forecast(StateEstimate(0, np.zeros(n), cov), unit_grid(n),
                     ModelConfig(noise_var=0.0), np.ones(n)).covariance
    noisy = forecast(StateEstimate(0, np.zeros(n), cov), unit_grid(n),
                     ModelConfig(noise_var=0.08), np.ones(n)).covariance
    np.testing.assert_allclose(np.diag(noisy), np.diag(quiet) + 0.08, rtol=0, atol=1e-15)
    off = ~np.eye(n, dtype=bool)
    np.testing.assert_array_equal(noisy[off], quiet[off])


def test_forecast_unit_cfl_permutes_covariance():
    rng = np.random.default_rng(2)
    n = 10
    cov = random_spd(rng, n)
    mean = rng.standard_normal(n)
    est = forecast(StateEstimate(0, mean, cov), unit_grid(n), ModelConfig(noise_var=0.0),
                   np.ones(n))
    # permutation similarity: rows/columns cycle together, trace is preserved
    back = (np.arange(n) - 1) % n
    np.testing.assert_array_equal(est.mean, mean[back])
    np.testing.assert_array_equal(est.covariance, cov[np.ix_(back, back)])
    assert np.trace(est.covariance) == pytest.approx(np.trace(cov))


def test_forecast_through_grid_model():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    prev = StateEstimate(3, np.zeros(50), 0.02 * np.eye(50))
    est = forecast(prev, grid, ModelConfig(noise_var=0.08), np.zeros(50))
    assert est.time_index == 4
    assert est.trace > prev.trace


def test_forecast_mean_is_the_model_advection():
    grid = make_grid(2.0, 50, 0.99, 1.0, 10)
    rng = np.random.default_rng(4)
    mean = rng.standard_normal(50)
    speeds = rng.uniform(-1.0, 1.0, 50)
    est = forecast(StateEstimate(0, mean, random_spd(rng, 50)), grid, ModelConfig(0.08), speeds)
    np.testing.assert_array_equal(
        est.mean, model_step(mean, grid, ModelConfig(), speeds, NoiseSource(0)))


@st.composite
def forecast_cases(draw):
    n = draw(st.integers(2, 12))
    lam = draw(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                                  st.floats(-1.0, 1.0)), min_size=n, max_size=n))
    return n, np.array(lam), draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.08]))


@settings(max_examples=200, deadline=None)
@given(forecast_cases())
def test_forecast_matches_dense_oracle(case):
    n, lam, seed, noise_var = case
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(n)
    cov = random_spd(rng, n)
    est = forecast(StateEstimate(0, mean, cov), unit_grid(n), ModelConfig(noise_var=noise_var),
                   lam)
    ref_mean, ref_cov = dense_forecast(mean, cov, dense_lax_friedrichs(lam), noise_var)
    assert np.abs(est.mean - ref_mean).max() <= 1e-14 * np.abs(ref_mean).max()
    assert np.abs(est.covariance - ref_cov).max() <= 1e-14 * np.abs(ref_cov).max()
    np.testing.assert_array_equal(est.covariance, est.covariance.T)


@pytest.mark.parametrize("n", [50, 400])
def test_forecast_into_the_prior_buffer_is_bit_identical(n):
    grid = make_grid(2.0, n, 0.99, 1.0, 10)
    rng = np.random.default_rng(n)
    speeds = rng.uniform(-1.0, 1.0, n)
    prev = StateEstimate(0, rng.standard_normal(n), random_spd(rng, n))
    fresh = forecast(prev, grid, ModelConfig(0.08), speeds)
    assert not np.shares_memory(fresh.covariance, prev.covariance)
    buffer = prev.covariance
    in_place = forecast(prev, grid, ModelConfig(0.08), speeds, out=buffer)
    assert in_place.covariance is buffer
    np.testing.assert_array_equal(in_place.mean, fresh.mean)
    np.testing.assert_array_equal(in_place.covariance, fresh.covariance)


# --- conditioning kernel -----------------------------------------------------------

def test_results_keep_their_values_through_later_calls():
    # forecast and condition share one scratch workspace; no result lives in it
    n = 400
    grid = make_grid(2.0, n, 0.99, 1.0, 10)
    rng = np.random.default_rng(21)
    cov = random_spd(rng, n)
    mean = rng.standard_normal(n)
    stations = rng.choice(n, size=80, replace=False)
    post_mean, post_cov = condition(mean, cov, stations, rng.standard_normal(80), 0.02)
    kept = post_mean.copy(), post_cov.copy()
    est = forecast(StateEstimate(1, mean, cov), grid, ModelConfig(0.08), np.zeros(n))
    kept_forecast = est.covariance.copy()
    condition(est.mean, est.covariance, stations[:40], rng.standard_normal(40), 0.02)
    condition_gain(cov, stations[40:], 0.02)
    forecast(StateEstimate(0, post_mean, post_cov), grid, ModelConfig(0.08), np.ones(n))
    np.testing.assert_array_equal(post_mean, kept[0])
    np.testing.assert_array_equal(post_cov, kept[1])
    np.testing.assert_array_equal(est.covariance, kept_forecast)


def test_condition_matches_condition_on_stations():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, n + 1))
        cov = random_spd(rng, n)
        mean = rng.standard_normal(n)
        stations = rng.choice(n, size=k, replace=False)
        values = rng.standard_normal(k)
        variances = rng.uniform(0.01, 1.0, size=k)
        post_mean, post_cov = condition(mean, cov, stations, values, variances)
        ref_mean, ref_cov = condition_on_stations(mean, cov, stations, values, variances)
        scale = np.abs(cov).max()
        np.testing.assert_allclose(post_mean, ref_mean, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(post_cov, ref_cov, rtol=0, atol=1e-10 * scale)
        np.testing.assert_array_equal(post_cov, post_cov.T)


@pytest.mark.parametrize("n, k", [(50, 50), (50, 13), (400, 80), (400, 225)])
def test_kept_factors_repeat_the_posterior_mean_bit_for_bit(n, k):
    rng = np.random.default_rng(n + k)
    cov = random_spd(rng, n)
    stations = rng.choice(n, size=k, replace=False)
    # A stack of means (strided rows) and their readings shares one factorization.
    means = rng.standard_normal((5, 3, n))[:, 1]
    readings = rng.standard_normal((5, k))
    post_means, post_cov = condition(means, cov, stations, readings, 0.02)
    assert post_means.shape == means.shape
    for row_mean, row_values, row_post in zip(means, readings, post_means):
        own_mean, own_cov = condition(row_mean.copy(), cov, stations, row_values, 0.02)
        assert np.array_equal(row_post, own_mean)
        assert np.array_equal(post_cov, own_cov)


def test_gain_columns_match_dense_gain():
    rng = np.random.default_rng(14)
    cov = random_spd(rng, 9)
    stations = np.array([7, 1, 4])
    variances = np.array([0.05, 0.3, 0.01])
    h = selector(stations, 9)
    dense = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + np.diag(variances))
    np.testing.assert_allclose(condition_gain(cov, stations, variances), dense,
                               rtol=0, atol=1e-12)


def test_scalar_gain_half():
    gain = condition_gain(np.array([[1.0]]), [0], 1.0)
    assert gain[0, 0] == pytest.approx(0.5)


def test_scalar_gain_point_eight():
    gain = condition_gain(np.array([[0.08]]), [0], 0.02)
    assert gain[0, 0] == pytest.approx(0.8)


def test_gain_vanishes_for_uninformative_data():
    rng = np.random.default_rng(3)
    cov = random_spd(rng, 12)
    gain = condition_gain(cov, [2, 7, 9], 1e9)
    assert np.abs(gain).max() < 1e-6


def test_gain_failure_names_time_index():
    with pytest.raises(FilterError, match="time index 17"):
        condition(np.zeros(3), np.zeros((3, 3)), [0, 1], np.zeros(2), 0.0, time_index=17)


def test_a_non_positive_definite_block_names_its_time_index():
    # Eigenvalues 3 and -1: the block is symmetric but indefinite.
    cov = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(FilterError, match="not positive definite at time index 42"):
        condition(np.zeros(3), cov, [0, 1], np.zeros(2), 0.0, time_index=42)
    with pytest.raises(FilterError, match="not positive definite$"):
        condition_gain(cov, [1, 0], 0.0)


@pytest.fixture
def lapack_calls(monkeypatch):
    calls = []
    for name in ("dpotrf", "dtrtrs"):
        monkeypatch.setattr(kalman, name, lambda *args, name=name,
                            call=getattr(kalman, name), **kwargs: (
                                calls.append(name) or call(*args, **kwargs)))
    return calls


def test_condition_calls_scipys_own_lapack_routines():
    assert kalman.dpotrf is scipy.linalg.lapack.dpotrf
    assert kalman.dtrtrs is scipy.linalg.lapack.dtrtrs


@pytest.mark.parametrize("station", [-1, 6])
def test_a_station_off_the_grid_fails_before_any_lapack_call(lapack_calls, station):
    cov = np.eye(6) + 0.1
    with pytest.raises(ValueError, match=rf"stations \[{station}\] lie outside \[0, 6\)"):
        condition(np.zeros(6), cov, [station], [1.0], 0.02)
    with pytest.raises(ValueError, match="outside"):
        condition(np.zeros(6), cov, [2, station, 0], np.zeros(3), 0.02)
    assert lapack_calls == []
    condition(np.zeros(6), cov, [5], [1.0], 0.02)
    assert lapack_calls == ["dpotrf", "dtrtrs", "dtrtrs"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_variance_fails_before_any_lapack_call(lapack_calls, bad):
    rng = np.random.default_rng(40)
    cov = random_spd(rng, 20)
    stations = np.array([3, 17, 8, 0])
    vector = np.full(4, 0.02)
    vector[2] = bad
    # The KF reads one scalar variance, the DLF one per informed station.
    for variances in (bad, vector):
        with pytest.raises(ValueError, match="infs or NaNs"):
            condition(np.zeros(20), cov, stations, np.zeros(4), variances)
        with pytest.raises(ValueError, match="infs or NaNs"):
            condition_gain(cov, stations, variances)
    assert lapack_calls == []
    condition(np.zeros(20), cov, stations, np.zeros(4), 0.02)
    assert lapack_calls == ["dpotrf", "dtrtrs", "dtrtrs"]


def test_an_infinite_gathered_column_fails_before_any_lapack_call(lapack_calls):
    rng = np.random.default_rng(41)
    cov = random_spd(rng, 20)
    stations = np.array([3, 17, 8])
    finite = cov.copy()
    # Off the block P[S, S]: only the gathered column P[:, 17] sees it.
    cov[5, 17] = cov[17, 5] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        condition(np.zeros(20), cov, stations, np.zeros(3), 0.02)
    assert lapack_calls == []
    condition(np.zeros(20), finite, stations, np.zeros(3), 0.02)
    assert lapack_calls == ["dpotrf", "dtrtrs", "dtrtrs"]


def test_a_nan_reading_fails_before_any_lapack_call(lapack_calls):
    rng = np.random.default_rng(31)
    n, k = 50, 13
    cov = random_spd(rng, n)
    stations = rng.choice(n, size=k, replace=False)
    means, readings = rng.standard_normal((4, n)), rng.standard_normal((4, k))
    readings[2, 5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        condition(means, cov, stations, readings, 0.02)
    assert lapack_calls == []
    readings[2, 5] = 0.0
    condition(means, cov, stations, readings, 0.02)
    assert lapack_calls == ["dpotrf", "dtrtrs"] + ["dtrtrs"] * 4


def test_readings_that_are_not_one_per_station_fail_before_any_lapack_call(lapack_calls):
    rng = np.random.default_rng(32)
    cov = random_spd(rng, 6)
    # One reading would broadcast over three stations; a stack must end in one per station.
    for values in ([1.0], 1.0, np.zeros(4), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="not one per station"):
            condition(np.zeros(6), cov, [0, 2, 4], values, 0.02)
    with pytest.raises(ValueError, match="not one per station"):
        condition(np.zeros((2, 6)), cov, [0, 2, 4], np.zeros((2, 1)), 0.02)
    assert lapack_calls == []
    condition(np.zeros((2, 6)), cov, [0, 2, 4], np.zeros((2, 3)), 0.02)
    assert lapack_calls == ["dpotrf", "dtrtrs", "dtrtrs", "dtrtrs"]


def whiten_reference(cov, stations, variances):
    """L and W = L^-1 P[S, :] through scipy's checked Cholesky and triangular solve."""
    restricted = cov[np.ix_(stations, stations)]
    restricted[np.diag_indices(stations.size)] += variances
    factor = scipy.linalg.cholesky(restricted, lower=True)
    return factor, scipy.linalg.solve_triangular(factor, cov[:, stations].T, lower=True)


@st.composite
def conditioning_cases(draw):
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cov = random_spd(rng, n, scale=draw(st.sampled_from([1e-3, 1.0, 10.0])))
    stations = rng.choice(n, size=k, replace=False)
    variances = (rng.uniform(0.01, 1.0, size=k) if draw(st.booleans())
                 else draw(st.sampled_from([0.02, 0.5])))
    # three replicate means and their readings share the factorization
    return cov, stations, variances, rng.standard_normal((3, n)), rng.standard_normal((3, k))


@settings(max_examples=200, deadline=None)
@given(conditioning_cases())
def test_condition_equals_the_scipy_reference_bit_for_bit(case):
    cov, stations, variances, means, readings = case
    factor, weights = whiten_reference(cov, stations, variances)
    ref_means = [m + weights.T @ scipy.linalg.solve_triangular(factor, y - m[stations], lower=True)
                 for m, y in zip(means, readings)]
    post_means, post_cov = condition(means, cov, stations, readings, variances)
    assert np.array_equal(post_means, ref_means)
    assert np.array_equal(post_cov, cov - weights.T @ weights)


def test_condition_into_the_prior_equals_the_fresh_posterior_bit_for_bit():
    rng = np.random.default_rng(43)
    n, k = 60, 17
    cov = random_spd(rng, n)
    stations = rng.choice(n, size=k, replace=False)
    means, readings = rng.standard_normal((4, n)), rng.standard_normal((4, k))
    fresh_mean, fresh_cov = condition(means, cov, stations, readings, 0.02)
    buffer = cov.copy()
    post_mean, post_cov = condition(means, buffer, stations, readings, 0.02, out=buffer)
    assert post_cov is buffer
    assert np.array_equal(post_cov, fresh_cov) and np.array_equal(post_mean, fresh_mean)
    est = StateEstimate(1, means, cov.copy())
    block = ObservationBatch(time_index=np.ones(k, dtype=np.int64), station=stations,
                             value=readings, variance=0.02)
    post = analysis(est, block, selector(stations, n), 0.02, out=est.covariance)
    assert post.covariance is est.covariance
    assert np.array_equal(post.covariance, fresh_cov) and np.array_equal(post.mean, fresh_mean)


# --- analysis ------------------------------------------------------------------

def test_an_empty_block_fails_before_any_lapack_call(lapack_calls):
    # a run conditions only the steps that have readings
    est = StateEstimate(5, np.ones(4), np.eye(4))
    empty_batch = ObservationBatch(time_index=np.zeros(0, dtype=np.int64),
                                   station=np.zeros(0, dtype=np.int64), value=np.zeros(0),
                                   variance=0.02)
    for block in ([], empty_batch):
        with pytest.raises(ValueError, match="at least one reading"):
            analysis(est, block, np.zeros((0, 4)), 0.02, out=est.covariance)
    assert lapack_calls == []
    assert np.array_equal(est.covariance, np.eye(4))
    analysis(est, obs_block([1.0], [2], 5, 0.02), selector([2], 4), 0.02)
    assert lapack_calls == ["dpotrf", "dtrtrs", "dtrtrs"]


def test_analysis_scalar_case():
    est = StateEstimate(1, np.array([0.0]), np.array([[0.08]]))
    out = analysis(est, obs_block([1.0], [0], 1, 0.02), selector([0], 1), 0.02)
    assert out.mean[0] == pytest.approx(0.8)
    assert out.covariance[0, 0] == pytest.approx(0.016)


def test_analysis_matches_gaussian_conditioning_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = 4
        cov = random_spd(rng, n)
        mean = rng.standard_normal(n)
        stations = np.sort(rng.choice(n, size=2, replace=False))
        values = rng.standard_normal(2)
        obs_var = float(rng.uniform(0.05, 0.5))
        est = analysis(StateEstimate(1, mean, cov),
                       obs_block(values, stations, 1, obs_var),
                       selector(stations, n), obs_var)
        ref_mean, ref_cov = condition_on_stations(mean, cov, stations, values, obs_var)
        np.testing.assert_allclose(est.mean, ref_mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(est.covariance, ref_cov, rtol=0, atol=1e-10)


def test_analysis_never_raises_trace():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 8
        cov = random_spd(rng, n)
        stations = np.sort(rng.choice(n, size=3, replace=False))
        est = analysis(StateEstimate(1, rng.standard_normal(n), cov),
                       obs_block(rng.standard_normal(3), stations, 1, 0.1),
                       selector(stations, n), 0.1)
        assert np.trace(est.covariance) <= np.trace(cov) + 1e-12


def test_gain_minimizes_joseph_trace():
    rng = np.random.default_rng(6)
    cov = random_spd(rng, 10)
    stations = [0, 4, 7]
    h = selector(stations, 10)
    obs_var = 0.07
    gain = condition_gain(cov, stations, obs_var)
    base = np.trace(joseph_covariance(cov, gain, h, obs_var))
    for _ in range(100):
        delta = rng.standard_normal(gain.shape)
        delta /= np.linalg.norm(delta)
        perturbed = np.trace(joseph_covariance(cov, gain + 1e-3 * delta, h, obs_var))
        assert perturbed >= base - 1e-12


def test_joseph_form_agrees_with_standard_update_at_the_optimum():
    rng = np.random.default_rng(7)
    cov = random_spd(rng, 9)
    stations = [1, 5]
    h = selector(stations, 9)
    obs_var = 0.3
    gain = condition_gain(cov, stations, obs_var)
    _, post_cov = condition(np.zeros(9), cov, stations, np.zeros(2), obs_var)
    np.testing.assert_allclose(joseph_covariance(cov, gain, h, obs_var), post_cov,
                               rtol=0, atol=1e-12)


def test_analysis_rejects_mismatched_times():
    est = StateEstimate(3, np.zeros(4), np.eye(4))
    block = obs_block([1.0], [0], 2, 0.1)
    with pytest.raises(ValueError):
        analysis(est, block, selector([0], 4), 0.1)


def test_analysis_rejects_dimension_mismatch():
    est = StateEstimate(1, np.zeros(4), np.eye(4))
    block = obs_block([1.0, 2.0], [0, 1], 1, 0.1)
    with pytest.raises(ValueError):
        analysis(est, block, selector([0], 4), 0.1)


def test_analysis_rejects_matrix_that_is_not_the_exact_selector():
    est = StateEstimate(1, np.zeros(4), np.eye(4))
    block = obs_block([1.0, 2.0], [0, 2], 1, 0.1)
    scaled = selector([0, 2], 4)
    scaled[1, 2] = 2.0
    interpolating = selector([0, 2], 4)
    interpolating[0, 1] = 0.5
    for h in (scaled, interpolating, selector([0, 1], 4), selector([0, 2], 5)):
        with pytest.raises(ValueError):
            analysis(est, block, h, 0.1)
    with pytest.raises(ValueError, match="outside the grid"):
        analysis(est, obs_block([1.0], [-1], 1, 0.1), selector([3], 4), 0.1)
    analysis(est, block, selector([0, 2], 4), 0.1)


def test_analysis_rejects_a_reading_at_another_variance():
    # Read at obs_var = 0.02 this reading would give the KF a posterior N(0.833, 0.0167)
    # at station 0, where the DLF, reading it at its own variance, gets N(0.667, 0.0333).
    est = StateEstimate(1, np.zeros(4), 0.1 * np.eye(4))
    block = obs_block([1.0], [0], 1, 0.05)
    with pytest.raises(ValueError, match="observation variance differs from obs_var = 0.02"):
        analysis(est, block, selector([0], 4), 0.02)
    post = analysis(est, block, selector([0], 4), 0.05)
    assert (post.mean[0], post.covariance[0, 0]) == (pytest.approx(2 / 3), pytest.approx(1 / 30))


def test_analysis_refuses_one_runs_readings_against_a_stacked_forecast():
    # read as they are, the one run's readings would condition all three replicates
    rng = np.random.default_rng(9)
    stations = np.arange(0, 50, 5)
    est = StateEstimate(7, rng.standard_normal((3, 50)), random_spd(rng, 50))
    block = ObservationBatch(np.full(10, 7), stations, rng.standard_normal(10), 0.02)
    with pytest.raises(ValueError, match=r"readings of shape \(10,\) do not have the rows of "
                                         r"a forecast mean of shape \(3, 50\)"):
        analysis(est, block, selector(stations, 50), 0.02)
    stacked = ObservationBatch(np.full(10, 7), stations, rng.standard_normal((2, 10)), 0.02)
    with pytest.raises(ValueError, match=r"shape \(2, 10\) .* shape \(3, 50\)"):
        analysis(est, stacked, selector(stations, 50), 0.02)


def test_analysis_covariance_stays_symmetric():
    rng = np.random.default_rng(8)
    cov = random_spd(rng, 12)
    stations = [0, 3, 11]
    est = analysis(StateEstimate(1, rng.standard_normal(12), cov),
                   obs_block(rng.standard_normal(3), stations, 1, 0.02),
                   selector(stations, 12), 0.02)
    np.testing.assert_array_equal(est.covariance, est.covariance.T)
