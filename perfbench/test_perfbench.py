"""Self-tests of the benchmark: its checks, its printer and a smoke pass.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import run_cli  # noqa: E402

WORKLOADS = ("mc-points", "verify-sweep", "plan-mix", "train-compare")


def write(path: Path, rows) -> None:
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))


def cli_run(tmp_path, command, cfg):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    return run_cli(command, config, tmp_path / "out")


# --------------------------------------------------------------------------
# each check accepts the program's output and rejects a corrupted copy
# --------------------------------------------------------------------------

def test_plan_check_rejects_n_star_above_cap(tmp_path):
    thetas = [[0.1, 0.0], [0.0, 0.3]]
    caps = [40, 60]
    result = cli_run(tmp_path, "plan", {
        "family": {"kind": "gaussian", "dim": 2}, "n0": 50, "stepnumber": 100,
        "sources": [{"name": f"s{i}", "theta": t, "cap": c} for i, (t, c) in enumerate(zip(thetas, caps))]})
    assert result.code == 0
    offsets = np.array(thetas).T
    gram = offsets.T @ offsets
    rows = checks.read_csv(result.out / "plan.csv")
    assert checks.check_plan(rows, 50, 2, caps, gram, 100) == []

    rows[1][3] = str(caps[0] + 1)
    rows[-1][1] = str(sum(int(r[3]) for r in rows[1:-1]))
    problems = checks.check_plan(rows, 50, 2, caps, gram, 100)
    assert any("outside [0, cap=40]" in p for p in problems)


def test_plan_check_rejects_a_worse_than_extreme_or_misreported_plan():
    gram = [[0.04]]
    n0, cap = 100, 500
    best = checks.closed_form_single(n0, cap, 0.04)
    good = [["source_name", "cap", "alpha_star", "n_star"], ["s0", cap, 1, best],
            ["s_star", best, "predicted_proxy", repr(checks.proxy(n0, best, 0.04))]]
    assert checks.check_plan(good, n0, 1, [cap], gram, 1000) == []
    misreported = [r[:] for r in good]
    misreported[-1][3] = repr(0.9 * checks.proxy(n0, best, 0.04))
    assert any("recomputed" in p for p in checks.check_plan(misreported, n0, 1, [cap], gram, 1000))
    worse = [good[0], ["s0", cap, 1, cap - 100],
             ["s_star", cap - 100, "predicted_proxy", repr(checks.proxy(n0, cap - 100, 0.04))]]
    problems = checks.check_plan(worse, n0, 1, [cap], gram, 1000)
    assert any("worse than" in p for p in problems)
    assert any("closed form" in p for p in problems)


def test_verify_check_rejects_a_missing_row(tmp_path):
    result = cli_run(tmp_path, "verify", {
        "seed": 5, "family": {"kind": "gaussian"}, "n0": 50, "trials": 200,
        "sources": [{"name": "s", "delta": 0.1, "cap": 40}],
        "verify": {"grid_step": 10, "z_threshold": 5.0}})
    rows = checks.read_csv(result.out / "verify.csv")
    assert checks.check_verify(rows, result.code, 50, 40, 10, 0.01) == []

    del rows[3]
    problems = checks.check_verify(rows, result.code, 50, 40, 10, 0.01)
    assert any("expected 5" in p for p in problems)
    assert any("exited with 4" in p for p in checks.check_verify(rows, 4, 50, 40, 10, 0.01))


def test_train_check_rejects_a_nan_accuracy(tmp_path):
    strategies = ("dynamic", "all_sources")
    result = cli_run(tmp_path, "train", {"seed": 3, "trainer": {
        "pool_sizes": [100, 100, 100], "epochs": 2, "strategies": list(strategies), "seeds": [3],
        "test_size": 100}})
    problems, summary = checks.check_train(result.out, result.code, strategies, 3, 3)
    assert problems == []
    assert summary["epochs"] > 0 and set(summary["rows"]) == set(strategies)

    path = result.out / "comparison.csv"
    rows = checks.read_csv(path)
    rows[1][2] = "nan"
    write(path, rows)
    problems, _ = checks.check_train(result.out, result.code, strategies, 3, 3)
    assert any("accuracy nan" in p for p in problems)


def test_point_gate_allows_five_percent_and_one_miss():
    inside, outside = (1.0, 0.1, 1.0), (2.0, 0.1, 1.0)
    assert checks.point_gate_misses([inside] * 7 + [outside]) == []
    assert checks.point_gate_misses([inside] * 6 + [outside] * 2) == [6, 7]
    assert checks.point_gate_misses([inside] * 95 + [outside] * 5) == []
    assert len(checks.point_gate_misses([inside] * 94 + [outside] * 6)) == 6


def test_table_check_rejects_a_planned_quantity_worse_than_both_extremes():
    cells = {}
    for n0 in (100, 200, 400):
        cells[(n0, "target_only")] = (1.0 / n0, 0.01 / n0)
        cells[(n0, "all_sources")] = (0.1, 0.001)
        cells[(n0, "planned")] = (1.0 / n0, 0.01 / n0)
    assert checks.check_table(cells) == []
    cells[(200, "planned")] = (0.05, 0.001)
    assert any("n0=200" in p for p in checks.check_table(cells))


# --------------------------------------------------------------------------
# the printer and the metric definitions
# --------------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_printer_emits_every_named_metric_with_unit_and_direction(workload):
    named = {name: 1.5 for name in run.NAMED_METRICS}
    e2e = {name: 2.5 for name in run.END_TO_END}
    lines = run.report_lines(workload, named, e2e)
    for name, (unit, better, where) in run.NAMED_METRICS.items():
        shown = [line for line in lines if line.startswith(f"metric {name} = ")]
        if where == "all" or workload in where:
            assert shown and f" {unit} ({better} is better)" in shown[0]
        else:
            assert not shown
    for name, (unit, better) in run.END_TO_END.items():
        assert f"metric {name} = 2.5 {unit} ({better} is better) [BENCHMARK.json]" in lines
    result = json.loads(run.result_line(e2e, {n: u for n, (u, _) in run.END_TO_END.items()}, 3, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_cost_metrics_take_medians_per_slot():
    def done(slot, cpu, ref, work):
        op = workloads.Op("point", None, None, slot=slot)
        return workloads.Done(op, cpu, None, work=work, cpu=cpu, ref_cpu=ref)

    # slot a costs 10 refs in every round, whatever the host's speed; slot b
    # costs 40, with one outlier round
    ops = [done("a", 0.04, 0.004, 100), done("a", 0.08, 0.008, 100), done("a", 0.05, 0.005, 100),
           done("b", 0.16, 0.004, 300), done("b", 0.32, 0.008, 300), done("b", 0.9, 0.005, 300)]
    workload = workloads.Workload(1, Path("unused"))
    assert math.isclose(workload.work_per_ref(ops), 400 / 50)
    assert math.isclose(workload.op_cost_p50(ops), 20.0)
    assert ops[0].op.slot == "a" and workloads.Op("point", None, None).slot == "point"
    assert run.reference_cpu() > 0


def test_benchmark_json_agrees_with_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == {name: (unit, run.tracing_better(unit))
                         for name, unit in tracing.per_layer_units().items()}


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------

def test_self_time_subtracts_child_spans_and_hooks_are_removed():
    from transfer_budget import cli, simlab

    tracer = tracing.Tracer()
    original = cli.main
    with tracing.Hooks(tracer):
        assert cli.main is not original
        simlab.estimate_expected_kl(workloads.GAUSSIAN, workloads.ZERO,
                                    [(np.array([0.1]), 5)], 5, 100, 1, workers=1)
    assert cli.main is original
    totals = tracer.span_totals()
    calls, wall, own = totals["simlab.estimate_expected_kl"]
    children = sum(totals[n][1] for n in ("families.sample", "estimation.pooled_mle", "families.kl"))
    assert calls == 1 and math.isclose(own, wall - children, rel_tol=1e-9, abs_tol=1e-9)
    metrics = tracing.per_layer_metrics(tracer, 1.0, 1.1)
    assert metrics["simlab.estimate_expected_kl.trials"] == 100
    assert metrics["families.sample.draws"] == 100 * 10
    assert metrics["cli.main.calls"] == 0


# --------------------------------------------------------------------------
# end to end
# --------------------------------------------------------------------------

def bench(cwd: Path, *args):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimum_size_smoke_pass(workload, trace):
    done = bench(REPO, "--workload", workload, "--seed", "2", "--seconds", "0", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else tracing.per_layer_units()
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name
    if trace == "0":
        for name in run.NAMED_METRICS:
            if run.applies(name, workload):
                assert f"\nmetric {name} = " in done.stdout, name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", "plan-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
