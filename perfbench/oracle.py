"""Independent likelihood oracle for the Kalman filter and the dynamic likelihood filter.

Nothing here calls into ``dlfilter``. The scenario parameters come in as
plain numbers, the filter states as (mean, covariance) arrays and the
measurements as a table, so the oracle can score any run, including one
whose states were corrupted on purpose.

For every step n the oracle rebuilds the forecast from the previous
posterior with its own periodic Lax-Friedrichs operator,

    m_f = T m_a(n-1),   P_f = T P_a(n-1) T' + q I,

and reads the analysis in information form. A Gaussian update on direct,
independent readings of some stations leaves

    P_a^-1 - P_f^-1 = diag(1 / r_s)  on the informed stations s, 0 elsewhere,
    P_a^-1 m_a - P_f^-1 m_f = y_s / r_s  on the informed stations, 0 elsewhere,

so each informed station's implied reading y_s and its variance r_s can be
recovered and matched against the measurements that were taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

# Residuals are relative to the size of the information matrices and vectors;
# round-off on the runs scored here stays below 1e-13.
TOL = 1e-9
# A diagonal information gain above this share of the matrix scale is an
# informed station (1/r >= 0.2 for every variance a viable datum can carry).
INFORMED_CUT = 1e-6
# Slack on the floor() station rule for a propagated datum position.
POSITION_SLACK = 1e-7


@dataclass(frozen=True)
class Scenario:
    """The numbers of a scenario the oracle needs, from its flat config."""

    drift: str
    domain_length: float
    n_points: int
    cfl: float
    n_steps: int
    relax_rate: float
    base_speed: float
    speed_ramp: float
    forcing_noise: float
    model_noise_var: float
    obs_var: float
    space_stride: int
    time_stride: int
    last_data_step: int
    stochastic_model: bool

    @classmethod
    def from_flat(cls, flat: dict[str, str]) -> "Scenario":
        """From a complete flat config (``dlfilter.harness.config_to_flat``)."""
        n_steps = int(flat["n_steps"])
        number = {key: float(flat[key]) for key in (
            "domain_length", "cfl", "relax_rate", "base_speed", "speed_ramp",
            "forcing_noise", "model_noise_var", "obs_var")}
        return cls(
            drift=flat["drift"],
            n_points=int(flat["n_points"]),
            n_steps=n_steps,
            space_stride=int(1 / Fraction(flat["space_freq"])),
            time_stride=int(1 / Fraction(flat["time_freq"])),
            last_data_step=int(flat.get("present_time", n_steps)),
            stochastic_model=flat["model_mode"] == "stochastic",
            **number,
        )

    @property
    def dx(self) -> float:
        return self.domain_length / self.n_points

    @property
    def dt(self) -> float:
        # CFL-limited step against the reference speed: the largest OU station
        # speed at t = 0, or unit speed for the accelerating drift.
        if self.drift == "ou":
            reference = self.relax_rate * (self.domain_length - self.domain_length / self.n_points)
        else:
            reference = 1.0
        return self.cfl * self.dx / reference

    def speed(self, x, t: float):
        """Mean characteristic speed at position(s) x and time t."""
        if self.drift == "ou":
            return -self.relax_rate * x
        return self.base_speed + self.speed_ramp * math.sqrt(t) + 0.0 * x

    def transition(self, step: int, array: np.ndarray) -> np.ndarray:
        """T @ array for the periodic Lax-Friedrichs step from step-1 to step.

        Row l of T holds (1 + lam_l)/2 at column l-1 and (1 - lam_l)/2 at
        column l+1 (mod N), with lam_l = dt/dx * c(x_l, t); applied as the
        two shifted diagonals.
        """
        n = self.n_points
        lam = self.dt / self.dx * self.speed(np.arange(n) * self.dx, (step - 1) * self.dt)
        lam = np.broadcast_to(lam, (n,))
        shape = (n,) + (1,) * (array.ndim - 1)
        below = (0.5 * (1.0 + lam)).reshape(shape)
        above = (0.5 * (1.0 - lam)).reshape(shape)
        return below * np.roll(array, 1, axis=0) + above * np.roll(array, -1, axis=0)


class DatumPaths:
    """Positions of measurements riding the mean speed, one explicit step at a time."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self._paths: dict[tuple[int, int], list[float]] = {}

    def stations(self, origin_station: int, origin_step: int, step: int) -> set[int]:
        """Stations the datum taken at (origin_station, origin_step) projects to at step.

        A position within POSITION_SLACK of a node may go either way.
        """
        sc = self.sc
        path = self._paths.setdefault((origin_station, origin_step), [origin_station * sc.dx])
        while len(path) <= step - origin_step:
            x = path[-1]
            t = (origin_step + len(path) - 1) * sc.dt
            path.append((x + sc.dt * float(sc.speed(x, t))) % sc.domain_length)
        ratio = path[step - origin_step] / sc.dx
        return {int(math.floor(ratio + s)) % sc.n_points for s in (-POSITION_SLACK, POSITION_SLACK)}


@dataclass
class Report:
    """Failures found, and the worst residual of each kind."""

    failures: list[str] = field(default_factory=list)
    worst: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        elif len(self.failures) == 20:
            self.failures.append("... further failures suppressed")

    def note(self, kind: str, value: float) -> None:
        self.worst[kind] = max(self.worst.get(kind, 0.0), float(value))

    def extend(self, other: "Report", prefix: str) -> None:
        for message in other.failures:
            self.fail(f"{prefix}: {message}")
        for kind, value in other.worst.items():
            self.note(kind, value)

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_covariance(cov: np.ndarray, label: str, report: Report):
    """Symmetry and positive definiteness; returns the inverse, or None."""
    scale = max(1.0, float(np.abs(cov).max()))
    asym = float(np.abs(cov - cov.T).max()) / scale
    report.note("symmetry", asym)
    if asym > TOL:
        report.fail(f"{label}: covariance not symmetric (residual {asym:.3e})")
    factor, info = scipy.linalg.lapack.dpotrf(cov, lower=1)
    if info != 0:
        _, info = scipy.linalg.lapack.dpotrf(cov + TOL * scale * np.eye(cov.shape[0]), lower=1)
        report.fail(f"{label}: covariance " + ("singular" if info == 0
                                               else "not positive semi-definite"))
        return None
    inverse, info = scipy.linalg.lapack.dpotri(factor, lower=1)
    if info != 0:
        report.fail(f"{label}: covariance singular")
        return None
    return np.tril(inverse) + np.tril(inverse, -1).T


def implied_readings(prev, post, sc: Scenario, step: int, label: str, report: Report):
    """Informed stations and the (value, variance) each must have been read at.

    Returns (stations, values, variances), or None when a covariance failed.
    """
    m_f = sc.transition(step, prev[0])
    p_f = sc.transition(step, sc.transition(step, prev[1]).T).T
    p_f = 0.5 * (p_f + p_f.T) + sc.model_noise_var * np.eye(sc.n_points)
    inv_f = _check_covariance(p_f, f"{label} forecast", report)
    inv_a = _check_covariance(post[1], label, report)
    if inv_f is None or inv_a is None:
        return None

    gain = inv_a - inv_f
    scale = max(float(np.abs(inv_a).max()), float(np.abs(inv_f).max()))
    info_a, info_f = inv_a @ post[0], inv_f @ m_f
    info_scale = max(1.0, float(np.abs(info_a).max()), float(np.abs(info_f).max()))
    info = info_a - info_f

    diag = np.diag(gain).copy()
    offdiag = float(np.abs(gain - np.diag(diag)).max()) / scale
    report.note("offdiag", offdiag)
    if offdiag > TOL:
        report.fail(f"{label}: P_a^-1 - P_f^-1 is not diagonal (residual {offdiag:.3e})")

    informed = diag > INFORMED_CUT * scale
    rest = ~informed
    if rest.any():
        idle = max(float(np.abs(diag[rest]).max()) / scale,
                   float(np.abs(info[rest]).max()) / info_scale)
        report.note("uninformed", idle)
        if idle > TOL:
            bad = np.flatnonzero(rest & ((np.abs(diag) > TOL * scale)
                                         | (np.abs(info) > TOL * info_scale)))
            report.fail(f"{label}: stations {bad[:5].tolist()} changed without a reading "
                        f"(residual {idle:.3e})")
    stations = np.flatnonzero(informed)
    variances = 1.0 / diag[informed]
    return stations, variances * info[informed], variances


def _observations_by_step(obs: np.ndarray) -> dict[int, np.ndarray]:
    """obs columns: time_index, station, value, variance."""
    grouped: dict[int, np.ndarray] = {}
    for step in np.unique(obs[:, 0]).astype(int):
        grouped[int(step)] = obs[obs[:, 0] == step]
    return grouped


def check_kalman(states, obs: np.ndarray, sc: Scenario, label: str = "kf") -> Report:
    """Each KF analysis reads exactly that step's measurements at obs_var."""
    report = Report()
    by_step = _observations_by_step(obs)
    _check_covariance(states[0][1], f"{label} step 0", report)
    for step in range(1, len(states)):
        where = f"{label} step {step}"
        got = implied_readings(states[step - 1], states[step], sc, step, where, report)
        if got is None:
            continue
        stations, values, variances = got
        fresh = by_step.get(step)
        want = np.array([], dtype=int) if fresh is None else fresh[:, 1].astype(int)
        if not np.array_equal(stations, np.sort(want)):
            report.fail(f"{where}: informed stations {stations.tolist()} != observed "
                        f"{sorted(want.tolist())}")
            continue
        if fresh is None:
            continue
        order = np.argsort(want)
        var_err = float(np.abs(variances - sc.obs_var).max()) / sc.obs_var
        val_err = float(np.abs(values - fresh[order, 2]).max())
        report.note("variance", var_err)
        report.note("value", val_err)
        if var_err > TOL or val_err > TOL:
            report.fail(f"{where}: readings differ from the measurements "
                        f"(variance {var_err:.3e}, value {val_err:.3e})")
    return report


def check_dlf(states, obs: np.ndarray, sc: Scenario, label: str = "dlf") -> Report:
    """Each DLF analysis reads fresh data at obs_var and carried data as they aged.

    A datum taken k steps ago carries variance obs_var + k forcing_noise^2 dt
    and its original value, at the station its propagated position projects to.
    """
    report = Report()
    by_step = _observations_by_step(obs)
    paths = DatumPaths(sc)
    inflation = sc.forcing_noise ** 2 * sc.dt
    _check_covariance(states[0][1], f"{label} step 0", report)
    for step in range(1, len(states)):
        where = f"{label} step {step}"
        got = implied_readings(states[step - 1], states[step], sc, step, where, report)
        if got is None:
            continue
        stations, values, variances = got
        readings = dict(zip(stations.tolist(), zip(values.tolist(), variances.tolist())))

        fresh = by_step.get(step)
        for row in ([] if fresh is None else fresh):
            station = int(row[1])
            if station not in readings:
                report.fail(f"{where}: fresh station {station} not informed")
                continue
            value, variance = readings[station]
            var_err = abs(variance - sc.obs_var) / sc.obs_var
            report.note("variance", var_err)
            report.note("value", abs(value - row[2]))
            if var_err > TOL or abs(value - row[2]) > TOL:
                report.fail(f"{where}: fresh station {station} read {value!r} at "
                            f"{variance!r}, measured {row[2]!r} at {sc.obs_var!r}")

        for station, (value, variance) in readings.items():
            if variance < sc.obs_var * (1.0 - TOL):
                report.fail(f"{where}: station {station} read at variance {variance!r} "
                            f"below obs_var")
                continue
            age = round((variance - sc.obs_var) / inflation) if inflation > 0 else 0
            var_err = abs(variance - (sc.obs_var + age * inflation)) / sc.obs_var
            report.note("variance", var_err)
            origin = by_step.get(step - age)
            if var_err > TOL or origin is None:
                report.fail(f"{where}: station {station} variance {variance!r} fits no "
                            f"measurement age")
                continue
            near = origin[np.abs(origin[:, 2] - value) <= TOL]
            if not any(station in paths.stations(int(row[1]), step - age, step)
                       for row in near):
                report.fail(f"{where}: station {station} read {value!r}, which no "
                            f"measurement of step {step - age} carried there")
            else:
                report.note("value", float(np.abs(near[:, 2] - value).min()))
    return report
