"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: the public functions of
each ``transfer_budget`` module are wrapped by rebinding their names in the
namespaces that call them (``simlab.pooled_mle``, ``trainer.plan_transfer``,
...), and the public methods of the family classes are wrapped on the class.
Nothing under ``src/`` changes, and every hook is removed again on exit.

Everything the benchmark drives is single-threaded, so one stack of open
spans gives every span its parent. Spans live in flat arrays in memory and
are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

#: span name -> (module, attribute) pairs whose binding is replaced. A pair
#: that no longer exists is skipped, and the span then reports a count of 0.
FUNCTION_HOOKS = {
    "estimation.pooled_mle": [("simlab", "pooled_mle"), ("trainer", "pooled_mle"),
                              ("estimation", "pooled_mle")],
    "estimation.empirical_fisher": [("simlab", "empirical_fisher"), ("trainer", "empirical_fisher"),
                                    ("cli", "empirical_fisher"), ("estimation", "empirical_fisher")],
    "estimation.offset_gram": [("simlab", "offset_gram"), ("trainer", "offset_gram"),
                               ("cli", "offset_gram"), ("estimation", "offset_gram")],
    "planner.plan_transfer": [("simlab", "plan_transfer"), ("trainer", "plan_transfer"),
                              ("cli", "plan_transfer"), ("planner", "plan_transfer")],
    "simlab.estimate_expected_kl": [("simlab", "estimate_expected_kl")],
    "simlab.sweep_n1": [("cli", "sweep_n1"), ("simlab", "sweep_n1")],
    "simlab.negative_transfer_table": [("simlab", "negative_transfer_table")],
    "trainer.generate_suite": [("trainer", "generate_suite")],
    "trainer.pretrain_sources": [("trainer", "pretrain_sources")],
    "trainer.compare_strategies": [("cli", "compare_strategies"), ("trainer", "compare_strategies")],
    "cli.main": [("cli", "main")],
}

FAMILY_CLASSES = ("GaussianMean", "BernoulliLogit", "CategoricalLogits", "SoftmaxRegression")
FAMILY_METHODS = ("sample", "kl", "log_prob", "score")

#: every span name the per-layer report covers, in report order
SPAN_NAMES = tuple(f"families.{m}" for m in FAMILY_METHODS) + tuple(FUNCTION_HOOKS)

ROOT = "bench.op"

#: per-layer extras beyond calls / wall_s / self_s, with their units
EXTRA_UNITS = {
    "families.sample.draws": "count",
    "families.sample.draws_per_s": "1/s",
    "estimation.pooled_mle.iterations": "count",
    "estimation.pooled_mle.smoothed_frac": "fraction",
    "estimation.pooled_mle.unconverged": "count",
    "planner.plan_transfer.grid_points": "count",
    "planner.plan_transfer.us_per_grid_point.K1": "us",
    "planner.plan_transfer.us_per_grid_point.K3": "us",
    "planner.plan_transfer.us_per_grid_point.K10": "us",
    "planner.plan_transfer.us_per_grid_point.K50": "us",
    "planner.plan_transfer.us_per_grid_point.rank_deficient": "us",
    "planner.plan_transfer.infeasible": "count",
    "simlab.estimate_expected_kl.trials": "count",
    "simlab.estimate_expected_kl.us_per_trial": "us",
    "trainer.epochs": "count",
    "trainer.planner_calls": "count",
    "trainer.epoch_self_ms": "ms",
    "cli.csv_bytes": "bytes",
    "cli.nonzero_exits": "count",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}

PLAN_CLASSES = ("K1", "K3", "K10", "K50", "rank_deficient")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.wall_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units


def plan_class(num_sources: int, rank: int) -> str:
    """Instance class of a planner call: rank-deficient, else the nearest K."""
    if rank < num_sources:
        return "rank_deficient"
    return min(("K1", "K3", "K10", "K50"), key=lambda c: abs(int(c[1:]) - num_sources))


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self.root = self.intern(ROOT)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self.self_time.append(math.nan)
        self._stack.append([index, 0.0])
        self.start.append(time.perf_counter())
        return index

    def close(self) -> None:
        now = time.perf_counter()
        index, covered = self._stack.pop()
        duration = now - self.start[index]
        self.end[index] = now
        self.self_time[index] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive wall seconds, self seconds)."""
        calls = defaultdict(int)
        wall = defaultdict(float)
        own = defaultdict(float)
        for nid, s, e, o in zip(self.name_id, self.start, self.end, self.self_time):
            name = self.names[nid]
            calls[name] += 1
            wall[name] += e - s
            own[name] += o
        return {n: (calls[n], wall[n], own[n]) for n in calls}

    def write(self, path: Path) -> None:
        """Write every span as columns of one compressed NumPy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_s=np.frombuffer(self.self_time, dtype=np.float64),
        )


# --------------------------------------------------------------------------
# counters read from the arguments and results of hooked calls
# --------------------------------------------------------------------------

def _count_draws(tracer, index, args, kwargs, result):
    n = kwargs["n"] if "n" in kwargs else args[3]
    tracer.counters["families.sample.draws"] += int(n)


def _count_mle(tracer, index, args, kwargs, result):
    c = tracer.counters
    c["estimation.pooled_mle.iterations"] += getattr(result, "iterations", 0)
    c["estimation.pooled_mle.smoothed"] += bool(getattr(result, "smoothed", False))
    if getattr(result, "grad_inf_norm", 0.0) >= kwargs.get("tol", 1e-8):
        c["estimation.pooled_mle.unconverged"] += 1


def _count_plan(tracer, index, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    caps = np.asarray(problem.caps)
    grid_points = min(int(problem.step_number), int(caps.sum()))
    cls = plan_class(caps.shape[0], int(np.linalg.matrix_rank(np.asarray(problem.gram))))
    c = tracer.counters
    c["planner.plan_transfer.grid_points"] += grid_points
    c[f"planner.grid_points.{cls}"] += grid_points
    c[f"planner.wall_s.{cls}"] += tracer.end[index] - tracer.start[index]


def _count_infeasible(tracer, exc):
    if type(exc).__name__ == "FeasibilityError":
        tracer.counters["planner.plan_transfer.infeasible"] += 1


def _count_trials(tracer, index, args, kwargs, result):
    tracer.counters["simlab.estimate_expected_kl.trials"] += getattr(result, "trials", 0)


def _count_training(tracer, index, args, kwargs, result):
    runs = result[1] if isinstance(result, tuple) and len(result) == 2 else {}
    for run in getattr(runs, "values", dict)():
        tracer.counters["trainer.epochs"] += len(getattr(run, "records", ()))
        tracer.counters["trainer.planner_calls"] += getattr(run, "planner_calls", 0)


def _count_exit(tracer, index, args, kwargs, result):
    if result != 0:
        tracer.counters["cli.nonzero_exits"] += 1


_AFTER = {
    "families.sample": _count_draws,
    "estimation.pooled_mle": _count_mle,
    "planner.plan_transfer": _count_plan,
    "simlab.estimate_expected_kl": _count_trials,
    "trainer.compare_strategies": _count_training,
    "cli.main": _count_exit,
}
_ON_ERROR = {"planner.plan_transfer": _count_infeasible}


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)
    after = _AFTER.get(name)
    on_error = _ON_ERROR.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close()
            if on_error is not None:
                on_error(tracer, exc)
            raise
        tracer.close()
        if after is not None:
            after(tracer, index, args, kwargs, result)
        return result

    return wrapper


class Hooks:
    """Install the span hooks on entry and restore every binding on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        families = importlib.import_module("transfer_budget.families")
        for cls_name in FAMILY_CLASSES:
            cls = getattr(families, cls_name, None)
            for method in FAMILY_METHODS:
                if cls is not None and method in vars(cls):
                    self._replace(cls, method,
                                  _wrap(self.tracer, f"families.{method}", vars(cls)[method]))

        wrapped: dict[int, object] = {}
        for name, sites in FUNCTION_HOOKS.items():
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(f"transfer_budget.{module_name}")
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = _wrap(self.tracer, name, original)
                self._replace(module, attr, wrapped[id(original)])
        return self

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def per_layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float) -> dict[str, float]:
    """Aggregate spans and counters into the per-layer metric set."""
    totals = tracer.span_totals()
    c = tracer.counters
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, wall, own = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.wall_s"] = wall
        out[f"{name}.self_s"] = own

    def ratio(a, b, scale=1.0):
        return scale * a / b if b > 0 else 0.0

    draws = c["families.sample.draws"]
    out["families.sample.draws"] = draws
    out["families.sample.draws_per_s"] = ratio(draws, out["families.sample.wall_s"])
    mle_calls = out["estimation.pooled_mle.calls"]
    out["estimation.pooled_mle.iterations"] = c["estimation.pooled_mle.iterations"]
    out["estimation.pooled_mle.smoothed_frac"] = ratio(c["estimation.pooled_mle.smoothed"], mle_calls)
    out["estimation.pooled_mle.unconverged"] = c["estimation.pooled_mle.unconverged"]
    out["planner.plan_transfer.grid_points"] = c["planner.plan_transfer.grid_points"]
    for cls in PLAN_CLASSES:
        out[f"planner.plan_transfer.us_per_grid_point.{cls}"] = ratio(
            c[f"planner.wall_s.{cls}"], c[f"planner.grid_points.{cls}"], 1e6)
    out["planner.plan_transfer.infeasible"] = c["planner.plan_transfer.infeasible"]
    trials = c["simlab.estimate_expected_kl.trials"]
    out["simlab.estimate_expected_kl.trials"] = trials
    out["simlab.estimate_expected_kl.us_per_trial"] = ratio(
        out["simlab.estimate_expected_kl.wall_s"], trials, 1e6)
    epochs = c["trainer.epochs"]
    out["trainer.epochs"] = epochs
    out["trainer.planner_calls"] = c["trainer.planner_calls"]
    out["trainer.epoch_self_ms"] = ratio(out["trainer.compare_strategies.self_s"], epochs, 1e3)
    out["cli.csv_bytes"] = c["cli.csv_bytes"]
    out["cli.nonzero_exits"] = c["cli.nonzero_exits"]
    out["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0 if untraced_wall > 0 else 0.0
    root_calls, root_wall, root_self = totals.get(ROOT, (0, 0.0, 0.0))
    out["trace.unattributed_frac"] = ratio(root_self, root_wall)
    return out
