"""One workload in one fresh process: set-up, timed CLI invocations, checks.

Started by run.py with the checkout's ``src`` on PYTHONPATH, the BLAS thread
count fixed, and PERFBENCH_T0 set to the wall-clock time just before the
process was spawned. Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload pool-n50 --seed 0 --phase setup
    python3 perfbench/worker.py --workload pool-n50 --seed 0 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

import outputs
from oracle import Report, Scenario, check_dlf, check_kalman
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
T0_ENV = "PERFBENCH_T0"
# Medians need a few samples even when one invocation outlasts --seconds.
MIN_INVOCATIONS = 3


def import_dlfilter():
    """Import dlfilter from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dlfilter
    from dlfilter import cli, harness
    if Path(dlfilter.__file__).resolve().parent != src / "dlfilter":
        raise ImportError(f"dlfilter imported from {dlfilter.__file__}, not {src}")
    return cli, harness


def invoke(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@contextlib.contextmanager
def capture(module, name: str, keep=lambda args: True):
    """Record the return values of module.name while it is patched in."""
    original = getattr(module, name)
    captured = []

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        if keep(args):
            captured.append(result)
        return result

    setattr(module, name, recorder)
    try:
        yield captured
    finally:
        setattr(module, name, original)


def states(estimates) -> list[tuple]:
    return [(s.mean, s.covariance) for s in estimates]


class Session:
    """A workload's working directory, config and CLI calls within one process."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.cli, self.harness = import_dlfilter()
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "workload.cfg"
        self.config_path.write_text(workload.config_text(seed))
        self.config = self.harness.load_config(self.config_path)
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str]) -> bool:
        self.attempted += 1
        try:
            ok = invoke(self.cli, argv) == 0
        except Exception:  # noqa: BLE001 - a failed invocation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.failed += 0 if ok else 1
        return ok

    def timed(self, out_dir: Path, seconds: float, tracer=None) -> dict:
        """Invoke the workload for ``seconds``; wall times and per-layer figures."""
        argv = self.workload.argv(self.config_path, out_dir)
        walls, layers, digests = [], [], set()
        start = time.perf_counter()
        while len(walls) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.reset()
            began = time.perf_counter()
            ok = self.call(argv)
            walls.append(time.perf_counter() - began)
            if tracer is not None:
                layers.append(tracer.layer_metrics())
            if ok:
                digests.add(tuple(sorted(outputs.digest(out_dir).items())))
        return {"walls": walls, "layers": layers, "distinct_outputs": len(digests)}

    # -- checks -----------------------------------------------------------------

    def check(self, out_dir: Path):
        """Rerun, oracle and output checks on the timed outputs in ``out_dir``."""
        if self.workload.command == "run":
            return self._check_run(out_dir)
        return self._check_sweep(out_dir)

    def _scenario(self, cfg):
        return Scenario.from_flat(self.harness.config_to_flat(cfg))

    def _check_run(self, out_dir: Path):
        report = Report()
        rerun = self.workdir / "rerun"
        with capture(self.cli, "run_scenario") as captured:
            ok = self.call(["run", "--config", str(out_dir / "manifest.json"), "--out", str(rerun)])
        if not ok or len(captured) != 1:
            report.fail("rerun from manifest.json failed")
            return report, {}
        outputs.compare_dirs(out_dir, rerun, "rerun from manifest.json", report)

        result = captured[0]
        sc = self._scenario(result.config)
        truth = outputs.read_matrix(out_dir / "truth.csv")
        model = outputs.read_matrix(out_dir / "model.csv")
        obs = outputs.read_observations(out_dir / "observations.csv")
        kf, dlf = states(result.kf), states(result.dlf)
        for name, array in (("truth", truth), ("model", model)):
            if array.shape != (sc.n_steps + 1, sc.n_points):
                report.fail(f"{name}.csv has shape {array.shape}")
                return report, {}
        for name, trajectory in (("kf_mean", kf), ("dlf_mean", dlf)):
            written = outputs.read_matrix(out_dir / f"{name}.csv")
            if not np.array_equal(written, np.array([s[0] for s in trajectory])):
                report.fail(f"{name}.csv differs from the run's states")
        final = outputs.read_columns(out_dir / "final_diff.csv")
        for name, last in (("model", model[-1]), ("kf", kf[-1][0]), ("dlf", dlf[-1][0])):
            if not np.array_equal(final[f"diff_{name}"], last - truth[-1]):
                report.fail(f"final_diff.csv diff_{name} differs from the trajectories")

        metrics = outputs.read_columns(out_dir / "metrics.csv")
        outputs.check_run_arrays(sc, truth, model, obs, kf, dlf, metrics, report)
        report.extend(check_kalman(kf, obs, sc), "oracle")
        report.extend(check_dlf(dlf, obs, sc), "oracle")
        quality = {"run": outputs.summary(sc, truth, model, kf, dlf)}
        return report, quality

    def _check_sweep(self, out_dir: Path):
        report = Report()
        rerun = self.workdir / "rerun"
        base = self.config
        first = lambda args: args[0].seed_truth == base.seed_truth
        with capture(self.harness, "run_scenario", keep=first) as captured:
            ok = self.call(self.workload.argv(self.config_path, rerun))
        if not ok:
            report.fail("sweep rerun failed")
            return report, {}
        outputs.compare_dirs(out_dir, rerun, "sweep rerun", report)
        with open(out_dir / "sweep_summary.csv", newline="") as handle:
            rows = {(r["xi"], r["tau"]): r for r in csv.DictReader(handle)}

        quality = {}
        for result in captured:
            cell = (str(result.config.space_freq), str(result.config.time_freq))
            sc = self._scenario(result.config)
            obs = np.array([[o.time_index, o.station, o.value, o.variance]
                            for o in result.observations])
            kf, dlf = states(result.kf), states(result.dlf)
            label = f"cell xi={cell[0]} tau={cell[1]}"
            cell_report = Report()
            outputs.check_run_arrays(sc, result.truth.values, result.model_only, obs, kf, dlf,
                                     None, cell_report)
            cell_report.extend(check_kalman(kf, obs, sc), "oracle")
            cell_report.extend(check_dlf(dlf, obs, sc), "oracle")
            report.extend(cell_report, label)
            row = rows.get(cell)
            if row is None:
                report.fail(f"{label}: missing from sweep_summary.csv")
                continue
            quality[label] = {key[len("median_"):]: float(value) for key, value in row.items()
                              if key.startswith("median_")}
        if len(captured) != len(rows) or len(rows) != 4:
            report.fail(f"sweep ran {len(captured)} first replicates for {len(rows)} cells")

        # One cell's medians from replicates run and summarized apart.
        xi, tau = Fraction(1, 4), Fraction(1, 10)
        summaries = []
        for rep in range(int(rows[(str(xi), str(tau))]["replicates"])):
            cfg = replace(base, space_freq=xi, time_freq=tau,
                          seed_truth=base.seed_truth + rep, seed_model=base.seed_model + rep,
                          seed_obs=base.seed_obs + rep)
            result = self.harness.run_scenario(cfg)
            summaries.append(outputs.summary(self._scenario(cfg), result.truth.values,
                                             result.model_only, states(result.kf),
                                             states(result.dlf)))
        outputs.check_medians(rows[(str(xi), str(tau))], summaries,
                              f"cell xi={xi} tau={tau}", report)
        return report, quality


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    t0 = float(os.environ[T0_ENV])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), default="measure")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = RESULTS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    session = Session(WORKLOADS[args.workload], args.seed, workdir)
    setup_s = time.time() - t0
    if args.phase == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        emit({"setup_s": setup_s})
        return 0

    out_dir = workdir / "out"
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        timed = session.timed(out_dir, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report, quality = session.check(out_dir)
    if timed["distinct_outputs"] != 1:
        report.fail(f"timed invocations wrote {timed['distinct_outputs']} distinct output sets")
    payload = {
        "correct": report.passed,
        "attempted": session.attempted,
        "failed": session.failed,
        "setup_s": setup_s,
        "wall_s": statistics.median(timed["walls"]),
        "walls": timed["walls"],
        "peak_rss_mb": peak_rss_mb,
        "failures": report.failures,
        "residuals": report.worst,
        "quality": quality,
    }
    if tracer is not None:
        names = timed["layers"][0].keys()
        payload["layers"] = {name: [statistics.median(inv[name][0] for inv in timed["layers"]),
                                    timed["layers"][0][name][1]] for name in names}
        payload["trace_table"] = tracer.table()
    if payload["correct"]:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
