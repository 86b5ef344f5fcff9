"""Per-layer tracing of dlfilter from outside the package.

``Tracer.install`` replaces the public functions of the traced modules with
timing wrappers at every name a ``dlfilter`` module looks them up by (a
function imported with ``from .dlf import dlf_step`` is patched both in
``dlfilter.dlf`` and in ``dlfilter.harness``). ``uninstall`` puts every
original back. Each wrapped call adds to its function's call count, total
time and child time; self time is total minus the time spent in wrapped
callees. A few wrappers also count the pool work ``dlf_step`` does.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

TRACED_MODULES = ("truth", "obsnet", "model", "kalman", "dlf", "core", "harness")

# Callables outside the public names above that carry a layer: the metrics
# table, and the CLI entry point, whose self time is the command layer.
EXTRA_TARGETS = (("harness", "_compute_metrics"), ("cli", "main"))


class CallStats:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Wraps dlfilter functions in place; use as a context manager."""

    def __init__(self):
        self.stats: dict[str, CallStats] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_viable = 0

    # -- bookkeeping ----------------------------------------------------------

    def reset(self) -> None:
        for key in self.stats:
            self.stats[key] = CallStats()
        self.counts = dict.fromkeys(self.counts, 0.0)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrap(self, key: str, fn, on_return=None):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter
        stats[key] = CallStats()

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry = stats[key]
                entry.calls += 1
                entry.total += elapsed
                entry.child += stack.pop()
            if on_return is not None:
                hook_start = clock()
                on_return(args, result)
                elapsed += clock() - hook_start
            if stack:
                stack[-1] += elapsed
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- counters fed from return values ----------------------------------------

    def _hooks(self):
        def viability(args, kept):
            self.count("dlf.shed", len(args[0]) - len(kept))
            self._last_viable = len(kept)

        def project(args, projected):
            self.count("dlf.candidates", len(projected))

        def dlf_step(args, result):
            self.count("dlf.steps", 1)
            self.count("dlf.pool_total", len(result.pool))
            self.count("dlf.evicted", self._last_viable - len(result.pool))
            self.count("dlf.informed", len(result.assembly))

        def sample(args, observations):
            self.count("obsnet.observations", len(observations))

        def run_scenario(args, result):
            mb = result_nbytes(result) / 1e6
            self.counts["harness.result_mb"] = max(self.counts.get("harness.result_mb", 0.0), mb)

        def write_outputs(args, written):
            self.count("harness.bytes_written", sum(p.stat().st_size for p in written))

        def write_sweep_csv(args, _):
            self.count("harness.bytes_written", Path(args[1]).stat().st_size)

        return {
            "dlf.viability_filter": viability,
            "dlf.project": project,
            "dlf.dlf_step": dlf_step,
            "obsnet.sample_observations": sample,
            "harness.run_scenario": run_scenario,
            "harness.write_outputs": write_outputs,
            "harness.write_sweep_csv": write_sweep_csv,
        }

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        targets = list(EXTRA_TARGETS)
        for short in TRACED_MODULES:
            module = importlib.import_module(f"dlfilter.{short}")
            targets += [(short, name) for name, obj in vars(module).items()
                        if not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__]
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, name in targets:
            original = getattr(importlib.import_module(f"dlfilter.{short}"), name)
            key = f"{short}.{name}"
            wrappers[id(original)] = (original, self._wrap(key, original, hooks.get(key)))

        # Patch every binding of each original across the package.
        for modname, module in list(sys.modules.items()):
            if modname != "dlfilter" and not modname.startswith("dlfilter."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])

        state_cls = sys.modules["dlfilter.core"].StateEstimate
        original = state_cls.__dict__["__post_init__"]
        self._patches.append((state_cls, "__post_init__", original))
        setattr(state_cls, "__post_init__", self._wrap("core.StateEstimate.__post_init__", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-layer metrics ------------------------------------------------------

    def _total(self, *keys) -> float:
        return sum(self.stats[k].total for k in keys)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The benchmark's per-layer figures for what ran since the last reset."""
        s, c = self.stats, self.counts
        steps = c.get("dlf.steps", 0.0)
        candidates = c.get("dlf.candidates", 0.0)
        return {
            "dlf.propagate_s": (self._total("dlf.propagate_observation", "dlf.propagate_variance"), "s"),
            "dlf.propagate_calls": (s["dlf.propagate_observation"].calls, "count"),
            "dlf.project_s": (self._total("dlf.project"), "s"),
            "dlf.rank_order_s": (self._total("dlf.rank_order"), "s"),
            "dlf.viability_s": (self._total("dlf.viability_filter"), "s"),
            "dlf.step_s": (s["dlf.dlf_step"].self_time, "s"),
            "dlf.multi_analysis_s": (self._total("dlf.multi_analysis"), "s"),
            "dlf.pool_mean": (c.get("dlf.pool_total", 0.0) / steps if steps else 0.0, "count"),
            "dlf.shed": (c.get("dlf.shed", 0.0), "count"),
            "dlf.evicted": (c.get("dlf.evicted", 0.0), "count"),
            "dlf.candidates": (candidates, "count"),
            "dlf.informed": (c.get("dlf.informed", 0.0), "count"),
            "dlf.informed_share": (c.get("dlf.informed", 0.0) / candidates if candidates else 0.0,
                                   "ratio"),
            "truth.mean_speed_s": (self._total("truth.mean_speed"), "s"),
            "truth.mean_speed_calls": (s["truth.mean_speed"].calls, "count"),
            "truth.generate_s": (self._total("truth.generate_truth"), "s"),
            "obsnet.sample_s": (self._total("obsnet.sample_observations"), "s"),
            "obsnet.observations": (c.get("obsnet.observations", 0.0), "count"),
            "model.step_s": (self._total("model.model_step"), "s"),
            "model.lf_matrix_s": (self._total("model.lax_friedrichs_matrix"), "s"),
            "model.lf_matrix_calls": (s["model.lax_friedrichs_matrix"].calls, "count"),
            "kalman.forecast_s": (self._total("kalman.forecast"), "s"),
            "kalman.forecast_calls": (s["kalman.forecast"].calls, "count"),
            "kalman.analysis_s": (self._total("kalman.analysis"), "s"),
            "kalman.analysis_calls": (s["kalman.analysis"].calls, "count"),
            "core.state_check_s": (self._total("core.StateEstimate.__post_init__"), "s"),
            "harness.run_s": (s["harness.run_scenario"].self_time, "s"),
            "cli.command_s": (s["cli.main"].self_time + s["harness.sweep"].self_time, "s"),
            "harness.metrics_s": (self._total("harness._compute_metrics", "harness.summarize_run"),
                                  "s"),
            "harness.write_s": (self._total("harness.write_outputs", "harness.write_sweep_csv"), "s"),
            "harness.bytes_written": (c.get("harness.bytes_written", 0.0), "bytes"),
            "harness.result_mb": (c.get("harness.result_mb", 0.0), "MB"),
        }

    def table(self) -> list[str]:
        """One line per traced function that ran: calls, total and self seconds."""
        rows = sorted(((k, v) for k, v in self.stats.items() if v.calls),
                      key=lambda kv: -kv[1].total)
        return [f"{key:<40} {v.calls:>9d} calls {v.total:10.4f} s total {v.self_time:10.4f} s self"
                for key, v in rows]


def result_nbytes(obj, _seen=None) -> int:
    """Bytes of the numpy arrays reachable from a RunResult (floats in lists excluded)."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(result_nbytes(item, seen) for item in obj)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields:
        return sum(result_nbytes(getattr(obj, name), seen) for name in fields)
    return 0
