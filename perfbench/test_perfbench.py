"""Tests of the benchmark itself: the oracle, the tracer and the runner.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracle import Report, Scenario, check_dlf, check_kalman
from tracer import Tracer
from worker import Session, import_dlfilter, states
from workloads import WORKLOADS
import outputs

cli, harness = import_dlfilter()
from dlfilter.kalman import analysis, forecast  # noqa: E402
from dlfilter.model import ModelConfig  # noqa: E402
from dlfilter.obsnet import build_network, observation_matrix  # noqa: E402

HERE = Path(__file__).resolve().parent

# The paper's five sampling cells, as the acceptance suite runs them.
PAPER_CELLS = (
    ("ou", "1", "1"),
    ("ou", "1/5", "1/10"),
    ("accelerating", "1", "1/10"),
    ("accelerating", "1/4", "1"),
    ("accelerating", "1/4", "1/10"),
)


def scenario_run(cfg):
    result = harness.run_scenario(cfg)
    sc = Scenario.from_flat(harness.config_to_flat(cfg))
    obs = np.array([[o.time_index, o.station, o.value, o.variance] for o in result.observations])
    return result, sc, obs


@pytest.fixture(scope="module")
def sparse_ou():
    return scenario_run(harness.default_config("ou", n_steps=40, space_freq="1/5",
                                               time_freq="1/10"))


@pytest.mark.parametrize("drift,xi,tau", PAPER_CELLS)
def test_oracle_passes_paper_cells(drift, xi, tau):
    result, sc, obs = scenario_run(harness.default_config(drift, space_freq=xi, time_freq=tau))
    for report in (check_kalman(states(result.kf), obs, sc), check_dlf(states(result.dlf), obs, sc)):
        assert report.passed, report.failures
        for kind in ("offdiag", "uninformed", "value", "variance"):
            assert report.worst.get(kind, 0.0) <= 1e-12, (kind, report.worst)


def test_oracle_passes_grid_workload(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(WORKLOADS["grid-n400"].config_text(0))
    result, sc, obs = scenario_run(harness.load_config(path))
    for report in (check_kalman(states(result.kf), obs, sc), check_dlf(states(result.dlf), obs, sc)):
        assert report.passed, report.failures
        assert max(report.worst[k] for k in ("offdiag", "value", "variance")) <= 1e-12


def test_oracle_rejects_perturbed_dlf_mean(sparse_ou):
    result, sc, obs = sparse_ou
    dlf = states(result.dlf)
    step = 25  # between data reads: the pool alone informs this analysis
    mean = dlf[step][0].copy()
    mean[17] += 1e-3
    dlf[step] = (mean, dlf[step][1])
    report = check_dlf(dlf, obs, sc)
    assert not report.passed
    assert any(f"step {step}:" in message for message in report.failures)


def test_oracle_rejects_kf_analysis_missing_a_station(sparse_ou):
    result, sc, obs = sparse_ou
    cfg = result.config
    step = 20
    block = [o for o in result.observations if o.time_index == step][1:]
    net = build_network(result.grid, cfg.space_freq, cfg.time_freq, cfg.obs_var)
    keep = [o.station for o in block]
    h = observation_matrix(net, result.grid)[[net.station_indices.index(s) for s in keep]]
    speeds = -cfg.relax_rate * result.grid.positions
    prior = forecast(result.kf[step - 1], result.grid, ModelConfig(cfg.model_noise_var), speeds)
    short = analysis(prior, block, h, cfg.obs_var)

    kf = states(result.kf)
    kf[step] = (short.mean, short.covariance)
    report = check_kalman(kf, obs, sc)
    assert not report.passed
    assert any(f"step {step}: informed stations" in message for message in report.failures)


def test_oracle_rejects_covariance_that_is_not_psd(sparse_ou):
    result, sc, obs = sparse_ou
    for filtered, check in ((result.kf, check_kalman), (result.dlf, check_dlf)):
        trajectory = states(filtered)
        step = 12
        cov = trajectory[step][1].copy()
        i, j = 3, 9
        bump = 2.0 * np.sqrt(cov[i, i] * cov[j, j])
        cov[i, j] += bump
        cov[j, i] += bump
        trajectory[step] = (trajectory[step][0], cov)
        report = check(trajectory, obs, sc)
        assert any(f"step {step}: covariance not positive semi-definite" in message
                   for message in report.failures), report.failures


def test_statistics_reject_wrong_noise_variance(sparse_ou):
    result, sc, obs = sparse_ou
    report = Report()
    inflated = obs.copy()
    truth = result.truth.values
    steps, stations = inflated[:, 0].astype(int), inflated[:, 1].astype(int)
    inflated[:, 2] = truth[steps, stations] + 2.0 * (obs[:, 2] - truth[steps, stations])
    outputs.check_noise("obs_noise", inflated[:, 2] - truth[steps, stations], sc.obs_var, report)
    assert not report.passed


def _bindings():
    """Every dlfilter module global, plus the traced class attribute, by identity."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "dlfilter" or name.startswith("dlfilter."):
            found.update({(name, key): id(value) for key, value in vars(module).items()})
    found["StateEstimate.__post_init__"] = id(
        sys.modules["dlfilter.core"].StateEstimate.__dict__["__post_init__"])
    return found


def test_traced_run_matches_untraced_and_restores_every_function(tmp_path):
    session = Session(WORKLOADS["pool-n50"], 5, tmp_path / "work")
    before = _bindings()
    untraced = session.timed(tmp_path / "untraced", 0.0)
    tracer = Tracer()
    with tracer:
        assert _bindings() != before
        traced = session.timed(tmp_path / "traced", 0.0, tracer)
    assert _bindings() == before
    assert session.failed == 0
    assert untraced["distinct_outputs"] == traced["distinct_outputs"] == 1
    assert outputs.digest(tmp_path / "untraced") == outputs.digest(tmp_path / "traced")

    layers = traced["layers"][-1]
    assert layers["kalman.forecast_calls"][0] == 2 * 200
    assert layers["model.lf_matrix_calls"][0] == 3 * 200
    assert layers["obsnet.observations"][0] == 10 * 200
    # Self time never exceeds total time, and wrapped children account for
    # the rest of dlf_step.
    step = tracer.stats["dlf.dlf_step"]
    assert 0.0 < step.self_time < step.total


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pool-n50",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
