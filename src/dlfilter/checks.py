"""Self-contained oracle and property checks, runnable from the CLI.

Each check pits a filter operation against an independent reference
computation (direct Gaussian conditioning, brute-force selection, closed-form
moments) and reports pass/fail. The references deliberately avoid the code
paths they validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseSource, StateEstimate, make_grid
from .dlf import propagate_observation, propagate_variance, rank_order
from .kalman import analysis, condition
from .model import ModelConfig, model_step
from .obsnet import Observation
from .truth import Drift, TruthConfig, step_characteristic_exact

__all__ = ["CheckResult", "run_all", "condition_on_stations", "condition_gain"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def condition_on_stations(mean: np.ndarray, cov: np.ndarray, stations: np.ndarray,
                          values: np.ndarray, obs_var) -> tuple[np.ndarray, np.ndarray]:
    """Reference posterior: condition N(mean, cov) on noisy readings of components.

    Built from the joint Gaussian of (state, readings) and a Schur complement;
    shares no code with the filter updates it is used to score.
    ``obs_var`` may be a scalar or one variance per reading.
    """
    stations = np.asarray(stations)
    r = np.broadcast_to(np.asarray(obs_var, dtype=float), stations.shape)
    cross = cov[:, stations]
    reading_cov = cov[np.ix_(stations, stations)] + np.diag(r)
    weight = cross @ np.linalg.inv(reading_cov)
    post_mean = mean + weight @ (values - mean[stations])
    post_cov = cov - weight @ cross.T
    return post_mean, 0.5 * (post_cov + post_cov.T)


def condition_gain(cov: np.ndarray, stations, variances) -> np.ndarray:
    """Gain columns P[:, S] (P[S, S] + diag(r))^-1 as :func:`~.kalman.condition` applies them.

    Shape (n_state, k): column j is the posterior mean of a zero mean given
    a unit reading at station j and zero readings elsewhere, so the gain is
    read off the filters' own mean path.
    """
    k = len(stations)
    return condition(np.zeros((k, cov.shape[0])), cov, stations, np.eye(k), variances)[0].T


def _random_spd(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n) * 0.1


def check_gaussian_conditioning(n_instances: int = 50, tol: float = 1e-10) -> CheckResult:
    """Kalman analysis vs. direct conditioning on random small instances."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        cov = _random_spd(rng, n)
        mean = rng.standard_normal(n)
        stations = np.sort(rng.choice(n, size=k, replace=False))
        obs_var = float(rng.uniform(0.01, 1.0))
        values = rng.standard_normal(k)

        h = np.zeros((k, n))
        h[np.arange(k), stations] = 1.0
        block = [Observation(value=float(v), station=int(s), time_index=1, variance=obs_var)
                 for v, s in zip(values, stations)]
        est = analysis(StateEstimate(1, mean, cov), block, h, obs_var)
        ref_mean, ref_cov = condition_on_stations(mean, cov, stations, values, obs_var)
        worst = max(worst,
                    float(np.abs(est.mean - ref_mean).max()),
                    float(np.abs(est.covariance - ref_cov).max()))
    return CheckResult("gaussian-conditioning", worst <= tol,
                       f"max abs error {worst:.3e} over {n_instances} instances (tol {tol:g})")


def _perturbation_excess(cov, h, r_diag, gain, rng, n_perturbations, eta):
    """Most negative trace change over random gain perturbations (>= 0 is optimal)."""
    def joseph_trace(g):
        n = cov.shape[0]
        shrink = np.eye(n) - g @ h
        return float(np.trace(shrink @ cov @ shrink.T + g @ np.diag(r_diag) @ g.T))

    base = joseph_trace(gain)
    worst = 0.0
    for _ in range(n_perturbations):
        delta = rng.standard_normal(gain.shape)
        delta /= np.linalg.norm(delta)
        worst = min(worst, joseph_trace(gain + eta * delta) - base)
    return worst


def check_gain_optimality(n_perturbations: int = 100, eta: float = 1e-3,
                          slack: float = 1e-12) -> CheckResult:
    """Random perturbations of the gain never lower the Joseph-form trace.

    Scores the gain columns that the conditioning kernel's mean update
    applies (:func:`condition_gain`) twice: with one variance for every
    reading (the Kalman analysis) and with per-station variances (the
    multi-analysis). Uninformed stations have no gain column.
    """
    rng = np.random.default_rng(77)
    cov = _random_spd(rng, 12)
    stations = np.array([0, 3, 4, 9, 11])
    h = np.zeros((5, 12))
    h[np.arange(5), stations] = 1.0
    worst = 0.0
    for variances in (np.full(5, 0.25), np.array([0.02, 0.05, 0.11, 0.02, 0.3])):
        gain = condition_gain(cov, stations, variances)
        worst = min(worst, _perturbation_excess(cov, h, variances, gain,
                                                rng, n_perturbations, eta))
    passed = worst >= -slack
    return CheckResult("gain-optimality", passed,
                       f"worst trace change {worst:.3e} over {n_perturbations} perturbations "
                       f"(slack {slack:g})")


def _moment_check(cfg: TruthConfig, x0: float, dt: float, target_mean: float,
                  target_var: float, samples: int, seed: int):
    src = NoiseSource(seed)
    out = step_characteristic_exact(cfg, np.full(samples, x0), 0.0, dt, src)
    sample_mean = float(np.mean(out))
    sample_var = float(np.var(out, ddof=1))
    se_mean = math.sqrt(target_var / samples)
    se_var = target_var * math.sqrt(2.0 / (samples - 1))
    ok = (abs(sample_mean - target_mean) <= 3 * se_mean
          and abs(sample_var - target_var) <= 3 * se_var)
    detail = (f"mean err {abs(sample_mean - target_mean):.2e} (3se {3 * se_mean:.2e}), "
              f"var err {abs(sample_var - target_var):.2e} (3se {3 * se_var:.2e})")
    return ok, detail


def check_sde_moments(samples: int = 100_000) -> CheckResult:
    """One-step Monte Carlo moments of both exact steppers vs. closed forms."""
    rate, noise, dt = 0.01, 0.02, 2.0
    decay = math.exp(-rate * dt)
    ou = TruthConfig(drift=Drift.OU, relax_rate=rate, speed_noise=noise, pulse_center=1.0)
    ok_ou, detail_ou = _moment_check(
        ou, 1.0, dt, target_mean=decay,
        target_var=noise ** 2 / (2 * rate) * (1 - decay ** 2), samples=samples, seed=5150)

    base, ramp, dt2 = 0.1, 0.01, 0.0396
    acc = TruthConfig(drift=Drift.ACCELERATING, base_speed=base, speed_ramp=ramp,
                      speed_noise=noise, pulse_center=1.0)
    ok_acc, detail_acc = _moment_check(
        acc, 1.0, dt2, target_mean=1.0 + base * dt2 + (2.0 / 3.0) * ramp * dt2 ** 1.5,
        target_var=noise ** 2 * dt2, samples=samples, seed=5151)
    return CheckResult("sde-moments", ok_ou and ok_acc,
                       f"ou: {detail_ou}; accelerating: {detail_acc}")


def check_rank_ordering(n_pools: int = 200) -> CheckResult:
    """Greedy lowest-variance selection equals per-station argmin brute force."""
    rng = np.random.default_rng(11)
    n_stations = 50
    for trial in range(n_pools):
        count = int(rng.integers(1, 3 * n_stations + 1))
        draws = [(float(rng.standard_normal()), float(rng.uniform(0.01, 1.0)),
                  int(rng.integers(n_stations))) for _ in range(count)]
        values, variances, stations = (np.array(column) for column in zip(*draws))
        assembly = rank_order(stations, values, variances)
        # Brute force: per station, the first candidate of least variance.
        best: dict[int, int] = {}
        for index, (_, variance, station) in enumerate(draws):
            if station not in best or variance < draws[best[station]][1]:
                best[station] = index
        if assembly.informed_stations.tolist() != sorted(best):
            return CheckResult("rank-ordering", False, f"station set mismatch on pool {trial}")
        for k, station in enumerate(assembly.informed_stations.tolist()):
            value, variance, _ = draws[best[station]]
            if (assembly.selected[k] != best[station]
                    or assembly.projected_variances[k] != variance
                    or assembly.projected_values[k] != value):
                return CheckResult("rank-ordering", False,
                                   f"winner mismatch at station {station} on pool {trial}")
    return CheckResult("rank-ordering", True, f"{n_pools} random pools match brute force")


def check_shift_exactness(n_steps: int = 100) -> CheckResult:
    """Unit CFL advection is a bit-exact circular shift, step after step."""
    grid = make_grid(2.0, 50, 1.0, 1.0, n_steps)
    speeds = np.ones(grid.n_points)
    state = np.sin(2 * math.pi * grid.positions / grid.domain_length) + 2.0
    src = NoiseSource(0)
    expected = state.copy()
    cfg = ModelConfig(noise_var=0.0)
    for _ in range(n_steps):
        state = model_step(state, grid, cfg, speeds, src)
        expected = np.roll(expected, 1)
        if not np.array_equal(state, expected):
            return CheckResult("lax-friedrichs-shift", False, "shift mismatch")
    return CheckResult("lax-friedrichs-shift", True, f"bit-exact over {n_steps} steps")


def check_semi_lagrangian(n_steps: int = 100) -> CheckResult:
    """Constant-speed datum transport and variance inflation follow closed forms.

    The speed is high enough that the position wraps through the periodic
    seam during the run.
    """
    grid = make_grid(2.0, 50, 0.99, 1.0, n_steps)
    speed = 0.9
    cfg = TruthConfig(drift=Drift.ACCELERATING, base_speed=speed, speed_ramp=0.0,
                      pulse_center=1.0)
    position, variance = np.array([0.5]), np.array([0.02])
    amp = 0.01
    expected_var = 0.02
    ok = True
    wrapped = False
    for k in range(1, n_steps + 1):
        previous = position[0]
        position = propagate_observation(position, k - 1, grid, cfg)
        variance = propagate_variance(variance, amp, grid.dt)
        wrapped = wrapped or position[0] < previous
        expected_var = expected_var + amp ** 2 * grid.dt
        target = (0.5 + k * speed * grid.dt) % grid.domain_length
        ok = ok and abs(position[0] - target) <= 1e-12 and variance[0] == expected_var
    ok = ok and wrapped
    return CheckResult("semi-lagrangian", ok,
                       f"{n_steps} steps incl. seam crossing: position within 1e-12, "
                       f"variance exact")


def run_all() -> list[CheckResult]:
    return [
        check_gaussian_conditioning(),
        check_gain_optimality(),
        check_sde_moments(),
        check_rank_ordering(),
        check_shift_exactness(),
        check_semi_lagrangian(),
    ]
