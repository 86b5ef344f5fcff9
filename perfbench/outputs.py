"""Checks on a run's output files and arrays, recomputed apart from dlfilter.

Readers parse the CSV files themselves; the recomputations (RMSE, circular
center of mass, model residuals, replicate medians) use their own code.
Statistical checks compare sample moments with their known values within
STAT_SIGMAS standard errors.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from pathlib import Path

import numpy as np

from oracle import Report, Scenario

STAT_SIGMAS = 6.0
# Recomputed float columns agree to this relative tolerance (summation order
# may differ); columns copied between files must agree exactly.
RTOL = 1e-12


def read_matrix(path: Path) -> np.ndarray:
    """A trajectory CSV (header row, one row per step) as a float array."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return np.array([[float(v) for v in row] for row in rows[1:]])


def read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(row[i]) for row in body]) for i, name in enumerate(header)}


def read_observations(path: Path) -> np.ndarray:
    """observations.csv as columns time_index, station, value, variance."""
    cols = read_columns(path)
    return np.column_stack([cols["time_index"], cols["station"], cols["value"], cols["variance"]])


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def compare_dirs(first: Path, second: Path, what: str, report: Report) -> None:
    a, b = digest(first), digest(second)
    if a != b:
        differ = sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))
        report.fail(f"{what}: files differ: {differ}")


def rmse(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return np.sqrt(((estimate - truth) ** 2).sum(axis=1) / truth.shape[1])


def center_of_mass(fields: np.ndarray, sc: Scenario) -> np.ndarray:
    """Circular mean position of each row's positive part."""
    angle = 2.0 * np.pi * np.arange(sc.n_points) / sc.n_points
    weights = np.clip(fields, 0.0, None)
    phase = np.arctan2(weights @ np.sin(angle), weights @ np.cos(angle))
    return np.mod(phase * sc.domain_length / (2.0 * np.pi), sc.domain_length)


def circular_gap(a, b, length: float):
    d = np.mod(np.abs(np.asarray(a) - np.asarray(b)), length)
    return np.minimum(d, length - d)


def _close(label: str, got, want, report: Report, atol: float = 0.0) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    limit = atol + RTOL * np.abs(want)
    if got.shape != want.shape or bool((err > limit).any()):
        report.fail(f"{label}: recomputed value differs (max abs error "
                    f"{float(err.max()) if err.size else float('nan'):.3e})")


def check_lattice(obs: np.ndarray, sc: Scenario, report: Report) -> None:
    """Measurements sit exactly on the xi/tau station/step lattice, one each."""
    stations = range(0, sc.n_points, sc.space_stride)
    steps = range(sc.time_stride, sc.last_data_step + 1, sc.time_stride)
    want = sorted((step, station) for step in steps for station in stations)
    got = sorted(zip(obs[:, 0].astype(int).tolist(), obs[:, 1].astype(int).tolist()))
    if got != want:
        report.fail(f"observations: {len(got)} (step, station) pairs off the lattice "
                    f"of {len(want)}")
    if not np.all(obs[:, 3] == sc.obs_var):
        report.fail("observations: variance column differs from obs_var")


def check_noise(label: str, residuals: np.ndarray, variance: float, report: Report) -> None:
    """Zero-mean noise of known variance: mean and mean square within STAT_SIGMAS."""
    n = residuals.size
    mean = float(residuals.mean())
    mean_sq = float((residuals ** 2).mean())
    mean_z = mean / math.sqrt(variance / n)
    var_z = (mean_sq - variance) / (variance * math.sqrt(2.0 / n))
    report.note(f"{label}_z", max(abs(mean_z), abs(var_z)))
    if abs(mean_z) > STAT_SIGMAS or abs(var_z) > STAT_SIGMAS:
        report.fail(f"{label}: residual mean {mean:.4g} (z={mean_z:.2f}) or mean square "
                    f"{mean_sq:.4g} (z={var_z:.2f}) off N(0, {variance:g}) over {n} samples")


def check_run_arrays(sc: Scenario, truth: np.ndarray, model: np.ndarray, obs: np.ndarray,
                     kf_states, dlf_states, metrics: dict[str, np.ndarray] | None,
                     report: Report) -> None:
    """Lattice, noise statistics, and the metrics recomputed from the trajectories."""
    check_lattice(obs, sc, report)
    steps, stations = obs[:, 0].astype(int), obs[:, 1].astype(int)
    check_noise("obs_noise", obs[:, 2] - truth[steps, stations], sc.obs_var, report)
    if sc.stochastic_model:
        residuals = np.array([model[n] - sc.transition(n, model[n - 1])
                              for n in range(1, model.shape[0])])
        check_noise("model_noise", residuals, sc.model_noise_var, report)
    if metrics is None:
        return
    kf = np.array([s[0] for s in kf_states])
    dlf = np.array([s[0] for s in dlf_states])
    for name, trajectory in (("model", model), ("kf", kf), ("dlf", dlf)):
        _close(f"metrics rmse_{name}", metrics[f"rmse_{name}"], rmse(trajectory, truth), report)
    for name, trajectory in (("truth", truth), ("model", model), ("kf", kf), ("dlf", dlf)):
        gap = circular_gap(metrics[f"com_{name}"], center_of_mass(trajectory, sc), sc.domain_length)
        if float(gap.max()) > 1e-12:
            report.fail(f"metrics com_{name}: recomputed center of mass differs by "
                        f"{float(gap.max()):.3e}")
    for name, states in (("kf", kf_states), ("dlf", dlf_states)):
        _close(f"metrics trace_{name}", metrics[f"trace_{name}"],
               [np.trace(s[1]) for s in states], report)


def summary(sc: Scenario, truth: np.ndarray, model: np.ndarray, kf_states, dlf_states) -> dict:
    """Per-run scalar summaries (mean RMSE, final trace, mean phase error)."""
    com_truth = center_of_mass(truth, sc)
    out = {}
    for name, trajectory in (("model", model), ("kf", np.array([s[0] for s in kf_states])),
                             ("dlf", np.array([s[0] for s in dlf_states]))):
        out[f"rmse_{name}"] = float(rmse(trajectory, truth).mean())
        out[f"com_err_{name}"] = float(circular_gap(center_of_mass(trajectory, sc), com_truth,
                                                    sc.domain_length).mean())
    out["final_trace_kf"] = float(np.trace(kf_states[-1][1]))
    out["final_trace_dlf"] = float(np.trace(dlf_states[-1][1]))
    return out


def check_medians(row: dict[str, str], summaries: list[dict], label: str,
                  report: Report) -> None:
    """A sweep_summary.csv row against medians and means of separate replicates."""
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        _close(f"{label} median_{key}", float(row[f"median_{key}"]), statistics.median(values),
               report, atol=1e-15)
        _close(f"{label} mean_{key}", float(row[f"mean_{key}"]), math.fsum(values) / len(values),
               report, atol=1e-15)
