"""Benchmark entry point: run one dlfilter workload, or all of them, and report.

    python3 perfbench/run.py --workload pool-n50 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each measurement runs in a fresh worker process (perfbench/worker.py) that
imports dlfilter from this checkout's src/ with one BLAS thread. With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics (setup_s, wall_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of a traced run. ``--workload all`` runs every workload
both ways and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The default two OpenBLAS threads made `dlfilter run` 1.6-1.8x slower on a
# 2-core machine (OU N=50 and N=400); every worker runs single-threaded.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up is timed in this many fresh processes besides the measuring one.
SETUP_PROCESSES = 4
# A run must end within 180 s; leave room for start-up and the report.
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result line."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PERFBENCH_T0"] = repr(time.time())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {done.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [worker(common + ["--phase", "setup"], deadline)["setup_s"]
                  for _ in range(SETUP_PROCESSES)]
    result = worker(common + ["--seconds", repr(seconds), "--trace", str(int(trace))], deadline)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        layers = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in result["layers"].items()}
        layers["trace.wall_s"] = {"value": result["wall_s"], "unit": "s"}
        return layers
    return {name: {"value": result[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def describe(name: str, result: dict, trace: bool) -> list[str]:
    walls = result["walls"]
    lines = [f"== {name} ({'traced' if trace else 'untraced'}): {result['attempted']} "
             f"invocations attempted, {result['failed']} failed, "
             f"{'correct' if result['correct'] else 'INCORRECT'}"]
    lines += [f"   FAIL {message}" for message in result["failures"]]
    lines.append(f"   wall per invocation: median {statistics.median(walls):.4f} s, "
                 f"min {min(walls):.4f} s, max {max(walls):.4f} s over {len(walls)} timed")
    if not trace:
        lines.append(f"   setup_s {result['setup_s']:.4f} s (median of "
                     f"{len(result['setup_samples'])} processes)   "
                     f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    residuals = ", ".join(f"{k} {v:.2e}" for k, v in sorted(result["residuals"].items()))
    lines.append(f"   oracle worst residuals: {residuals}")
    for cell, figures in result["quality"].items():
        shown = ", ".join(f"{k} {v:.6g}" for k, v in sorted(figures.items()))
        lines.append(f"   quality [{cell}] (reported, not gated): {shown}")
    if trace:
        lines.append("   per-function trace of the last traced invocation:")
        lines += [f"     {row}" for row in result["trace_table"]]
        lines += [f"   {k:<24} {v['value']:.6g} {v['unit']}"
                  for k, v in metrics_of(result, True).items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dlfilter" / "__init__.py").is_file():
        print(f"perfbench: no dlfilter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, trace in runs:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, args.seconds, trace, deadline)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(name, result, trace)), flush=True)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(runs) == 1 else f"{name}.{'trace.' if trace else ''}"
        metrics.update({prefix + k: v for k, v in metrics_of(result, trace).items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
