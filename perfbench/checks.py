"""Correctness checks on the program's outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the output passed.
Expected values come from first principles (the risk proxy and the
closed-form single-source rule, written out again here), not from the package
under test. The stochastic gates are set so that a correct program passes
them on any seed: a later change may legitimately change the random streams.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

#: criterion 1: share of Gaussian points whose mean lies within 3 standard errors
POINT_Z = 3.0
POINT_PASS_FRACTION = 0.95
#: relative slack for "the plan is no worse than target-only or all-sources";
#: rounding s* x alpha* to integers may cost the plan this much at a near-tie
PLAN_EXTREME_SLACK = 1e-4
#: relative tolerance for values the program writes with 12 significant digits
CSV_RTOL = 1e-8


def proxy(n0, s, t, dim=1):
    """Leading-order expected KL of pooling ``s`` shifted samples with ``n0``."""
    total = n0 + s
    return 0.5 * dim * (1.0 / total + s * s * t / (total * total))


def closed_form_single(n0: int, cap: int, t: float) -> int:
    """Integer minimizer of the single-source proxy over ``0..cap``."""
    if n0 * t <= 0.5:
        return cap
    interior = n0 / (2.0 * n0 * t - 1.0)
    if interior >= cap:
        return cap
    lo, hi = math.floor(interior), math.ceil(interior)
    best = lo if proxy(n0, lo, t) <= proxy(n0, hi, t) else hi
    return min(best, cap)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# --------------------------------------------------------------------------
# plan
# --------------------------------------------------------------------------

def check_plan(rows: list[list[str]], n0: int, dim: int, caps, gram, step_number: int) -> list[str]:
    """``plan.csv`` of one instance: feasible, proxy as reported, never worse
    than either extreme, and at K = 1 next to the closed form."""
    caps = [int(c) for c in caps]
    gram = np.asarray(gram, dtype=np.float64)
    k = len(caps)
    if len(rows) != k + 2 or rows[0] != ["source_name", "cap", "alpha_star", "n_star"]:
        return [f"plan.csv has {len(rows)} rows, expected header + {k} sources + footer"]
    footer = rows[-1]
    if len(footer) != 4 or footer[0] != "s_star" or footer[2] != "predicted_proxy":
        return [f"malformed plan footer {footer}"]
    try:
        s_star = int(footer[1])
        n_star = [int(r[3]) for r in rows[1:-1]]
        written_caps = [int(r[1]) for r in rows[1:-1]]
    except ValueError as exc:
        return [f"non-integer plan quantity: {exc}"]
    reported = _number(footer[3])

    problems = []
    if written_caps != caps:
        problems.append(f"caps written as {written_caps}, config has {caps}")
    if sum(n_star) != s_star:
        problems.append(f"sum of n* is {sum(n_star)}, s* is {s_star}")
    for i, (n, cap) in enumerate(zip(n_star, caps)):
        if not 0 <= n <= cap:
            problems.append(f"source {i}: n*={n} outside [0, cap={cap}]")
    if problems:
        return problems

    if s_star == 0:
        recomputed = 0.5 * dim / n0
    else:
        alpha = np.array(n_star, dtype=np.float64) / s_star
        recomputed = proxy(n0, s_star, float(alpha @ gram @ alpha) / dim, dim)
    if not (_finite(reported) and abs(reported - recomputed) <= CSV_RTOL * abs(recomputed)):
        problems.append(f"predicted_proxy {reported} != recomputed {recomputed}")

    total = sum(caps)
    share = np.array(caps, dtype=np.float64) / total
    target_only = 0.5 * dim / n0
    all_sources = proxy(n0, total, float(share @ gram @ share) / dim, dim)
    floor = min(target_only, all_sources)
    if recomputed > floor * (1.0 + PLAN_EXTREME_SLACK):
        problems.append(
            f"plan proxy {recomputed} worse than target-only {target_only} "
            f"or all-sources {all_sources}"
        )

    if k == 1:
        single = closed_form_single(n0, caps[0], float(gram[0, 0]) / dim)
        if abs(s_star - single) > caps[0] / step_number + 1:
            problems.append(f"K=1 plan s*={s_star} far from closed form {single}")
    return problems


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def verify_grid(cap: int, grid_step: int) -> list[int]:
    grid = list(range(0, cap + 1, grid_step))
    if grid[-1] != cap:
        grid.append(cap)
    return grid


def check_verify(rows: list[list[str]], exit_code: int, n0: int, cap: int,
                 grid_step: int, t: float, dim: int = 1) -> list[str]:
    """``verify.csv`` of one sweep: the program's own gate passed, one row per
    grid point, and the theory column equals the proxy."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited with {exit_code}")
    header = ["axis_value", "mean_kl", "std_err", "theoretical_proxy", "z_ratio"]
    if not rows or rows[0] != header:
        return problems + ["verify.csv header is missing or wrong"]
    grid = verify_grid(cap, grid_step)
    body = rows[1:]
    if len(body) != len(grid):
        return problems + [f"verify.csv has {len(body)} rows, expected {len(grid)}"]
    for row, n1 in zip(body, grid):
        values = [_number(v) for v in row]
        if len(values) != 5 or not _finite(*values):
            problems.append(f"row {row} is not five finite numbers")
            continue
        axis, mean_kl, std_err, theory, z = values
        if axis != n1:
            problems.append(f"row for n1={n1} has axis value {axis}")
        if mean_kl < 0 or std_err <= 0 or z < 0:
            problems.append(f"row n1={n1}: mean {mean_kl}, std_err {std_err}, z {z}")
        expected = proxy(n0, n1, t, dim)
        if abs(theory - expected) > CSV_RTOL * expected:
            problems.append(f"row n1={n1}: theoretical_proxy {theory} != {expected}")
    return problems


# --------------------------------------------------------------------------
# Monte-Carlo point estimates
# --------------------------------------------------------------------------

def check_estimate(mean_kl: float, std_err: float) -> list[str]:
    if not (_finite(mean_kl, std_err) and mean_kl >= 0 and std_err > 0):
        return [f"estimate mean {mean_kl} std_err {std_err} is not finite and positive"]
    return []


def point_gate_misses(points) -> list[int]:
    """Criterion 1 over many Gaussian points: indices of the points that fail.

    ``points`` holds ``(mean_kl, std_err, exact_expectation)``. At least 95 %
    must lie within 3 standard errors; at least one miss is always allowed,
    because small runs would otherwise need every point to pass. Returns the
    points outside 3 standard errors when the gate fails, else nothing.
    """
    misses = [i for i, (mean, se, exact) in enumerate(points)
              if not abs(mean - exact) <= POINT_Z * se]
    allowed = max(1, math.floor((1.0 - POINT_PASS_FRACTION) * len(points)))
    return misses if len(misses) > allowed else []


def check_table(cells: dict) -> list[str]:
    """Criterion 8 on a negative-transfer table.

    ``cells`` maps ``(n0, strategy)`` to ``(mean_kl, std_err)``. Pooling the
    whole unit-shift source must hurt at the largest n0 by 3 combined standard
    errors, and the planned quantity must track the better extreme.
    """
    problems = []
    n0_values = sorted({n0 for n0, _ in cells})
    for n0 in n0_values:
        for strategy in ("target_only", "all_sources", "planned"):
            if (n0, strategy) not in cells:
                problems.append(f"table lacks ({n0}, {strategy})")
                continue
            problems += check_estimate(*cells[(n0, strategy)])
    if problems:
        return problems
    largest = n0_values[-1]
    (t_mean, t_se), (f_mean, f_se) = cells[(largest, "target_only")], cells[(largest, "all_sources")]
    separation = (f_mean - t_mean) / math.hypot(f_se, t_se)
    if separation < 3.0:
        problems.append(f"all-sources beats target-only by only {separation:.2f} sigma at n0={largest}")
    for n0 in n0_values:
        (t_mean, t_se), (f_mean, f_se), (p_mean, p_se) = (
            cells[(n0, s)] for s in ("target_only", "all_sources", "planned"))
        combined = math.hypot(p_se, math.hypot(t_se, f_se))
        if p_mean > min(t_mean, f_mean) + 3.0 * combined:
            problems.append(f"planned transfer loses to the better extreme at n0={n0}")
    return problems


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def check_train(out: Path, exit_code: int, strategies, seed: int, num_sources: int):
    """Every run CSV and ``comparison.csv`` of one ``train`` op.

    Returns ``(problems, summary)``; the summary holds the epochs run and the
    comparison row of each strategy, for the metrics.
    """
    problems = []
    summary = {"epochs": 0, "rows": {}}
    if exit_code != 0:
        problems.append(f"train exited with {exit_code}")
    header = ["epoch", "train_loss", "val_acc", "samples_used", "s_star"] + [
        f"alpha_{i + 1}" for i in range(num_sources)]
    for strategy in strategies:
        path = out / "runs" / f"{strategy}-{seed}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        rows = read_csv(path)
        if not rows or rows[0] != header or len(rows) < 2:
            problems.append(f"{path.name}: bad header or no epochs")
            continue
        for i, row in enumerate(rows[1:]):
            if len(row) != len(header) or _number(row[0]) != i:
                problems.append(f"{path.name}: malformed row {i}")
                continue
            loss, acc, samples = (_number(v) for v in row[1:4])
            if not (_finite(loss, acc, samples) and 0.0 <= acc <= 1.0 and samples > 0):
                problems.append(f"{path.name}: epoch {i} has loss {loss}, accuracy {acc}, samples {samples}")
        summary["epochs"] += len(rows) - 1

    path = out / "comparison.csv"
    if not path.is_file():
        return problems + ["missing comparison.csv"], summary
    rows = read_csv(path)
    if [r[0] for r in rows[1:]] != list(strategies) or any(len(r) != 7 for r in rows):
        return problems + ["comparison.csv does not hold one 7-column row per strategy"], summary
    for row in rows[1:]:
        n_seeds, acc, acc_std, samples, samples_std, calls = (_number(v) for v in row[1:7])
        if not (_finite(acc, samples) and 0.0 <= acc <= 1.0 and samples > 0 and n_seeds == 1):
            problems.append(f"comparison.csv: {row[0]} has accuracy {acc}, samples {samples}")
        summary["rows"][row[0]] = {"accuracy": acc, "samples": samples}
    return problems, summary
