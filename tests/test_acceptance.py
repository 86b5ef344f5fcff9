"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible under ``pytest -s``); the
assertions carry the same condition. Scenario comparisons use medians over
five seeded replicates to keep single unlucky realizations from deciding a
claim.
"""

import json
from fractions import Fraction
from functools import lru_cache

import numpy as np

from dlfilter.checks import (check_gain_optimality, check_gaussian_conditioning,
                             check_rank_ordering, check_sde_moments,
                             check_semi_lagrangian, check_shift_exactness)
from dlfilter.core import NoiseSource, StateEstimate
from dlfilter.dlf import Pool, dlf_step, rank_order
from dlfilter.harness import (config_from_flat, default_config, run_cell, run_scenario,
                              summarize_run, sweep_configs, write_outputs)
from dlfilter.kalman import analysis, forecast
from dlfilter.model import ModelConfig
from dlfilter.obsnet import observation_matrix, observations_by_step, sample_observations
from dlfilter.truth import generate_truth, mean_speed

N_REPLICATES = 5


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({label}): {status} -- {detail}")
    return ok


@lru_cache(maxsize=None)
def cell_summaries(drift: str, xi: Fraction, tau: Fraction) -> tuple[dict, ...]:
    """The replicate summaries of one cell, made as ``dlfilter sweep`` makes them."""
    (cell,) = sweep_configs(default_config(drift), [xi], [tau], N_REPLICATES)
    return tuple(summarize_run(result) for result in run_cell(cell))


def median_of(summaries, key):
    return float(np.median([s[key] for s in summaries]))


PAPER_CELLS = (
    ("ou", Fraction(1), Fraction(1)),
    ("ou", Fraction(1, 5), Fraction(1, 10)),
    ("accelerating", Fraction(1), Fraction(1, 10)),
    ("accelerating", Fraction(1, 4), Fraction(1)),
    ("accelerating", Fraction(1, 4), Fraction(1, 10)),
)


def test_criterion_1_analysis_equals_gaussian_conditioning():
    result = check_gaussian_conditioning(n_instances=50, tol=1e-10)
    assert report(1, "conditioning oracle", result.passed, result.detail)


def test_criterion_2_gain_perturbations_never_improve_joseph_trace():
    result = check_gain_optimality(n_perturbations=100, eta=1e-3, slack=1e-12)
    assert report(2, "gain optimality", result.passed, result.detail)


def test_criterion_3_dense_fresh_data_reduces_to_kalman_per_step():
    cfg = default_config("ou")  # xi = tau = 1
    grid, truth_cfg, net = cfg.grid, cfg.truth_config, cfg.network
    truth = generate_truth(grid, truth_cfg, NoiseSource(cfg.seed_truth))
    fresh_by_step = observations_by_step(
        sample_observations(truth, net, NoiseSource(cfg.seed_obs)))
    obs_mat = observation_matrix(net, grid)
    model_cfg = ModelConfig(noise_var=cfg.model_noise_var)

    from dlfilter.truth import pulse_profile
    initial = StateEstimate(0, pulse_profile(grid, cfg.pulse_center),
                            cfg.init_var * np.eye(grid.n_points))
    kf_est = dlf_est = initial
    worst = 0.0
    for step in range(1, grid.n_steps + 1):
        speeds = np.asarray(mean_speed(truth_cfg, grid.positions, (step - 1) * grid.dt),
                            dtype=float)
        kf_est = analysis(forecast(kf_est, grid, model_cfg, speeds),
                          fresh_by_step[step], obs_mat, cfg.obs_var)
        # fresh-only pool: past data is withheld on purpose
        dlf_est = dlf_step(forecast(dlf_est, grid, model_cfg, speeds),
                           Pool.empty(dlf_est.time_index), fresh_by_step[step],
                           grid, truth_cfg).estimate
        worst = max(worst,
                    float(np.abs(kf_est.mean - dlf_est.mean).max()),
                    float(np.abs(kf_est.covariance - dlf_est.covariance).max()))
    ok = worst <= 1e-10
    assert report(3, "dense reduction to KF", ok,
                  f"max per-step deviation {worst:.3e} over {grid.n_steps} steps (tol 1e-10)")


def test_criterion_4_dense_network_makes_filters_indistinguishable():
    result = run_scenario(default_config("ou"))
    kf, dlf = result.kf_mean, result.dlf_mean
    rel = float(np.linalg.norm(kf - dlf) / np.linalg.norm(kf))
    ok = rel <= 0.05
    assert report(4, "dense-network agreement", ok,
                  f"relative L2 distance {rel:.3e} (tol 5e-2)")


def test_criterion_5_sparse_final_uncertainty_ordering():
    details = []
    ok = True
    for drift, xi, tau in (("ou", Fraction(1, 5), Fraction(1, 10)),
                           ("accelerating", Fraction(1, 4), Fraction(1, 10))):
        summaries = cell_summaries(drift, xi, tau)
        dlf = median_of(summaries, "final_trace_dlf")
        kf = median_of(summaries, "final_trace_kf")
        ok = ok and dlf <= kf
        details.append(f"{drift} xi={xi} tau={tau}: {dlf:.3g} <= {kf:.3g}")
    assert report(5, "final trace ordering", ok, "; ".join(details))


def test_criterion_6_phase_tracking_in_sparse_networks():
    details = []
    ok = True
    for tau in (Fraction(1), Fraction(1, 10)):
        summaries = cell_summaries("accelerating", Fraction(1, 4), tau)
        dlf = median_of(summaries, "com_err_dlf")
        kf = median_of(summaries, "com_err_kf")
        ok = ok and dlf <= kf
        details.append(f"xi=1/4 tau={tau}: {dlf:.4f} <= {kf:.4f}")
    assert report(6, "phase tracking", ok, "; ".join(details))


def test_criterion_7_model_only_is_never_better():
    details = []
    ok = True
    for drift, xi, tau in PAPER_CELLS:
        summaries = cell_summaries(drift, xi, tau)
        model = median_of(summaries, "rmse_model")
        kf = median_of(summaries, "rmse_kf")
        dlf = median_of(summaries, "rmse_dlf")
        ok = ok and model >= kf and model >= dlf
        details.append(f"{drift} xi={xi} tau={tau}: {model:.3g} >= ({kf:.3g}, {dlf:.3g})")
    assert report(7, "model-only inferiority", ok, "; ".join(details))


def test_criterion_8_exact_stepper_moments():
    result = check_sde_moments(samples=100_000)
    assert report(8, "SDE one-step moments", result.passed, result.detail)


def test_criterion_9_unit_cfl_is_bit_exact_shift():
    result = check_shift_exactness(n_steps=100)
    assert report(9, "unit-CFL shift", result.passed, result.detail)


def test_criterion_10_semi_lagrangian_closed_forms():
    result = check_semi_lagrangian()
    assert report(10, "semi-Lagrangian exactness", result.passed, result.detail)


def test_criterion_11_rank_ordering_brute_force_and_coverage():
    result = check_rank_ordering(n_pools=1000)
    ok = result.passed

    # eleven-station schematic: five batches in increasing uncertainty
    coverage = [
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1],
        [0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 1, 1, 1, 0, 1, 0],
        [1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0],
    ]
    batches, stations = np.nonzero(coverage)
    batches = batches + 1
    assembly = rank_order(stations, batches.astype(float), batches * 0.01)
    all_informed = assembly.informed_stations.tolist() == list(range(11))
    ok = ok and all_informed
    assert report(11, "rank ordering", ok,
                  f"{result.detail}; schematic informs {len(assembly)}/11 stations")


def test_criterion_12_manifest_rerun_is_byte_identical(tmp_path):
    cfg = default_config("accelerating", space_freq=Fraction(1, 4),
                         time_freq=Fraction(1, 10))
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_outputs(run_scenario(cfg), first)
    manifest = json.loads((first / "manifest.json").read_text())
    write_outputs(run_scenario(config_from_flat(manifest["config"])), second)
    mismatched = [name for name in manifest["outputs"]
                  if (first / name).read_bytes() != (second / name).read_bytes()]
    ok = not mismatched
    assert report(12, "manifest determinism", ok,
                  f"{len(manifest['outputs'])} files byte-identical"
                  if ok else f"mismatch in {mismatched}")
