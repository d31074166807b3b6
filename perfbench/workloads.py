"""The four closed-loop workloads.

One client, the benchmark process, calls the package's public entry points
in-process, one after another, with ``workers=1``. A workload hands out its
operations in rounds; round ``r`` is a pure function of ``(seed, r)``, so the
same seed always gives the same inputs, and every round has the same mix of
instance shapes, which keeps a run's aggregate figures comparable across
seeds. An op's slot is its place in the round; the costs of one slot are
comparable across rounds, and the cost metrics take medians per slot. Inputs
are generated before an operation's timer starts; outputs are checked after
the timed loop ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from transfer_budget import cli, families, simlab

GAUSSIAN = families.GaussianMean(sigma=1.0)
ZERO = np.array([0.0])


@dataclass
class Op:
    """One timed call into the package, with its check and its work count."""

    kind: str
    run: Callable[[], object]
    #: ``output -> (problems, work done)``; work is in the workload's unit
    check: Callable[[object], tuple[list[str], float]]
    info: dict = field(default_factory=dict)
    #: the op's place in a round: ops of one slot have the same input sizes in
    #: every round, so their costs are comparable; defaults to ``kind``
    slot: str = ""

    def __post_init__(self):
        self.slot = self.slot or self.kind


@dataclass
class Done:
    op: Op
    seconds: float
    output: object
    problems: list[str] = field(default_factory=list)
    work: float = 0.0
    #: CPU seconds of this process and its reaped children during the op
    cpu: float = 0.0
    #: CPU seconds of the reference computation, the mean of its runs just
    #: before, during and just after the op (see ``run.run_round``)
    ref_cpu: float = math.nan

    @property
    def cost(self) -> float:
        """The op's CPU time in units of the reference computation's."""
        return self.cpu / self.ref_cpu


@dataclass
class CliRun:
    code: int
    text: str
    out: Path
    #: what the check parsed from the outputs, for the metrics
    summary: dict | None = None


def run_cli(command: str, config: Path, out: Path) -> CliRun:
    """``transfer-budget <command>`` in-process, its summary captured."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = cli.main([command, "--config", str(config), "--out", str(out), "--workers", "1"])
    return CliRun(code, text.getvalue(), out)


def csv_bytes(run: CliRun) -> int:
    return sum(p.stat().st_size for p in run.out.rglob("*.csv"))


def median_ms(done: list[Done]) -> float:
    """Median wall time of the ops in ms."""
    if not done:
        return math.nan
    return 1e3 * statistics.median(d.seconds for d in done)


def by_slot(done: list[Done]) -> list[list[Done]]:
    slots: dict[str, list[Done]] = {}
    for d in done:
        slots.setdefault(d.op.slot, []).append(d)
    return list(slots.values())


def tail_ms(done: list[Done]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it,
    as ``(ms, percentile, sample count)``; NaN when there are fewer than 11."""
    latencies = sorted(d.seconds for d in done)
    n = len(latencies)
    if n < 11:
        return math.nan, math.nan, n
    return 1e3 * latencies[n - 11], 100.0 * (n - 10) / n, n


class Workload:
    name = ""
    why = ""
    #: nominal length of one round at the seed commit; sizes the traced run
    round_seconds = 1.0
    #: what ``work_per_ref`` counts
    work_unit = ""

    def __init__(self, seed: int, out: Path, smoke: bool = False):
        self.seed = seed
        self.out = out
        self.smoke = smoke
        self._ops = 0

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def op_dir(self) -> Path:
        self._ops += 1
        path = self.out / f"op{self._ops:05d}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def write_config(self, cfg: dict) -> tuple[Path, Path]:
        """Config file and output directory for one CLI op."""
        path = self.op_dir()
        config = path / "config.json"
        config.write_text(json.dumps(cfg))
        return config, path / "out"

    def warm_up(self) -> None:
        """One small untimed call, so lazy imports and first-call costs are paid."""

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, done: list[Done]) -> None:
        """Fill in each op's problems and work; run-level gates go here too."""
        for d in done:
            if d.problems:
                continue
            d.problems, d.work = d.op.check(d.output)

    def metrics(self, done: list[Done]) -> dict[str, float]:
        """The named end-to-end metrics this workload reports, in wall time."""
        raise NotImplementedError

    def headline(self, done: list[Done]) -> list[Done]:
        """The ops whose latency is the workload's headline figure."""
        return done

    def op_cost_p50(self, done: list[Done]) -> float:
        """Geometric mean over the headline ops' slots of each slot's median
        cost, so that every slot moves the figure, not only the most frequent."""
        medians = [statistics.median(d.cost for d in ds) for ds in by_slot(self.headline(done))]
        return math.exp(sum(math.log(m) for m in medians) / len(medians))

    def work_per_ref(self, done: list[Done]) -> float:
        """Work of one round per reference computation of CPU time, each op
        slot at its median work and median cost over the run's rounds."""
        slots = by_slot(done)
        work = sum(statistics.median(d.work for d in ds) for ds in slots)
        return work / sum(statistics.median(d.cost for d in ds) for ds in slots)

    def records(self, done: list[Done]) -> list[dict]:
        """Per-instance facts for the run record."""
        return []


# --------------------------------------------------------------------------
# mc-points
# --------------------------------------------------------------------------

class McPoints(Workload):
    name = "mc-points"
    why = ("independent Monte-Carlo point estimates over small and large n and three "
           "families: per-trial costs dominate and no two points share draws")
    round_seconds = 1.6
    work_unit = "trials"
    DELTAS = (0.0, 0.0, 0.05, 0.05, 0.1, 0.1, 0.3, 0.3)
    #: The points' sizes are a fixed panel, the same in every round and for
    #: every seed; the seed draws their shifts, parameters and Monte-Carlo
    #: streams. A point's cost follows its sizes, so each slot of a round
    #: costs the same in every round and run. (n0, n1) of the Gaussian points:
    #: n0 from 25 to 400, n1 from 0 to 4 n0.
    GAUSSIAN_SIZES = ((25, 0), (25, 100), (75, 150), (125, 0), (175, 350), (250, 1000),
                      (325, 160), (400, 1600))
    #: (n0, source sizes) of the Bernoulli and of the categorical points
    OTHER_SIZES = ((100, (50, 200)), (300, (600, 150)))

    def __init__(self, seed, out, smoke=False):
        super().__init__(seed, out, smoke)
        self.trials = 100 if smoke else 500
        self.table_trials = 100 if smoke else 300
        self.gaussian_sizes = self.GAUSSIAN_SIZES[:2] if smoke else self.GAUSSIAN_SIZES
        self.other_sizes = self.OTHER_SIZES[:1] if smoke else self.OTHER_SIZES
        self.bernoulli = families.BernoulliLogit()
        self.categorical = families.CategoricalLogits(num_classes=4)

    def warm_up(self):
        simlab.estimate_expected_kl(GAUSSIAN, ZERO, [(np.array([0.1]), 10)], 10, 100, 0, workers=1)

    def _point(self, kind, slot, family, theta0, sources, n0, seed, exact=None) -> Op:
        trials = self.trials

        def run():
            return simlab.estimate_expected_kl(family, theta0, sources, n0, trials, seed, workers=1)

        def check(report):
            problems = checks.check_estimate(report.mean_kl, report.std_err)
            if report.trials != trials:
                problems.append(f"report counts {report.trials} trials, asked for {trials}")
            return problems, report.trials

        return Op(kind, run, check, {"exact": exact}, slot=f"{kind}-{slot}")

    def round(self, r):
        rng = self.rng(r)
        ops = []
        deltas = rng.permutation(np.array(self.DELTAS[:len(self.gaussian_sizes)]))
        for i, (n0, n1) in enumerate(self.gaussian_sizes):
            delta = float(deltas[i])
            exact = checks.proxy(n0, n1, delta * delta)
            ops.append(self._point("gaussian", i, GAUSSIAN, ZERO, [(np.array([delta]), n1)],
                                   n0, int(rng.integers(2 ** 31)), exact))
        for i, (n0, sizes) in enumerate(self.other_sizes):
            theta0 = rng.uniform(-1.0, 1.0, 1)
            sources = [(theta0 + rng.uniform(-0.5, 0.5, 1), n) for n in sizes]
            ops.append(self._point("bernoulli", i, self.bernoulli, theta0, sources, n0,
                                   int(rng.integers(2 ** 31))))
        for i, (n0, sizes) in enumerate(self.other_sizes):
            theta0 = rng.normal(0.0, 0.5, 3)
            sources = [(theta0 + rng.normal(0.0, 0.3, 3), n) for n in sizes]
            ops.append(self._point("categorical", i, self.categorical, theta0, sources, n0,
                                   int(rng.integers(2 ** 31))))
        ops.append(self._table(int(rng.integers(2 ** 31))))
        return ops

    def _table(self, seed) -> Op:
        """Criterion 8's shape: a unit-shift source capped at 400, n0 in 100..400."""
        trials = self.table_trials

        def run():
            return simlab.negative_transfer_table(
                GAUSSIAN, ZERO, [(np.array([1.0]), 400)], [100, 200, 400],
                trials, seed, workers=1)

        def check(rows):
            cells = {(row.n0, row.strategy): (row.report.mean_kl, row.report.std_err)
                     for row in rows}
            return checks.check_table(cells), sum(row.report.trials for row in rows)

        return Op("table", run, check)

    def check(self, done):
        super().check(done)
        gaussian = [d for d in done if d.op.kind == "gaussian" and not d.problems]
        points = [(d.output.mean_kl, d.output.std_err, d.op.info["exact"]) for d in gaussian]
        for i in checks.point_gate_misses(points):
            mean, se, exact = points[i]
            gaussian[i].problems.append(
                f"criterion 1 gate failed; this point is {abs(mean - exact) / se:.2f} sigma off")

    def headline(self, done):
        return [d for d in done if d.op.kind != "table"]

    def metrics(self, done):
        tail, pct, n = tail_ms(self.headline(done))
        return {
            "trials_per_s": sum(d.work for d in done) / sum(d.seconds for d in done),
            "point_p50_ms": median_ms(self.headline(done)),
            "point_tail_ms": tail,
            "point_tail_ms.percentile": pct,
            "point_tail_ms.samples": n,
        }


# --------------------------------------------------------------------------
# verify-sweep
# --------------------------------------------------------------------------

class VerifySweep(Workload):
    name = "verify-sweep"
    why = ("the verify subcommand's grid sweeps, whose points share draws: simlab, families "
           "and estimation do the work and the planner does none")
    round_seconds = 6.8
    work_unit = "trials"
    #: The rows of one sweep share their draws, so their z-ratios move together and
    #: the pass fraction is not binomial; with a few hundred trials the z-ratio of
    #: a skewed KL mean also has a heavy lower tail. At the README's z <= 3 a
    #: correct program would fail this gate on some seeds; at z <= 5 it does not.
    Z_THRESHOLD = 5.0

    def __init__(self, seed, out, smoke=False):
        super().__init__(seed, out, smoke)
        self.trials = 100 if smoke else 300
        # (kind, n0, delta, cap, grid_step): the README config and criterion 2's
        # monotone sweep (n0 * t = 0.4)
        self.sweeps = [("interior", 100, 0.1, 1000, 10), ("monotone", 100, math.sqrt(0.004), 500, 50)]
        if smoke:
            self.sweeps = [("interior", 100, 0.1, 100, 50), ("monotone", 100, math.sqrt(0.004), 100, 50)]

    def _config(self, n0, delta, cap, grid_step, seed, trials):
        return {
            "seed": seed, "family": {"kind": "gaussian", "sigma": 1.0, "dim": 1},
            "n0": n0, "theta0": 0.0, "trials": trials,
            "sources": [{"name": "source", "delta": delta, "cap": cap}],
            "verify": {"grid_step": grid_step, "z_threshold": self.Z_THRESHOLD,
                       "min_pass_fraction": 0.95},
        }

    def warm_up(self):
        config, out = self.write_config(self._config(20, 0.1, 20, 10, 0, 100))
        run_cli("verify", config, out)

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for kind, n0, delta, cap, grid_step in self.sweeps:
            config, out = self.write_config(
                self._config(n0, delta, cap, grid_step, int(rng.integers(2 ** 31)), self.trials))

            def check(run, n0=n0, delta=delta, cap=cap, grid_step=grid_step):
                path = run.out / "verify.csv"
                rows = checks.read_csv(path) if path.is_file() else []
                problems = checks.check_verify(rows, run.code, n0, cap, grid_step, delta * delta)
                return problems, max(len(rows) - 1, 0) * self.trials

            ops.append(Op(kind, lambda c=config, o=out: run_cli("verify", c, o), check))
        return ops

    def metrics(self, done):
        return {"trials_per_s": sum(d.work for d in done) / sum(d.seconds for d in done)}


# --------------------------------------------------------------------------
# plan-mix
# --------------------------------------------------------------------------

class PlanMix(Workload):
    name = "plan-mix"
    why = ("the plan subcommand at K = 1, 3, 10 and 50 with full-rank Grams, plus "
           "rank-deficient Grams at K = 3 and 10: the planner QP does the work")
    round_seconds = 4.1
    work_unit = "grid points"
    STEP_NUMBER = 1000
    #: (kind, K, instances per round) of the full-rank classes, drawn from the
    #: seed with dim = 2K. Their offsets have a fixed singular spectrum (Gram
    #: condition number 4) in a seeded orientation: the seed solver's cost
    #: follows the Gram's conditioning, and with random spectra one instance
    #: costs up to 6x another of the same K.
    FULL_RANK = (("K1", 1, 4), ("K3", 3, 4), ("K10", 10, 2), ("K50", 50, 1))
    #: (kind, K, dim) of the rank-deficient classes. These are a fixed panel, the
    #: first two draws of a constant stream, and every round runs the whole
    #: panel: between random draws the seed solver's time varies 17 to 29x (0.1 s
    #: to 3.8 s at K = 3), so a seeded draw would make the figure depend on the
    #: draw rather than on the program. K = 10 uses dim 8: at dim 4 (rank 4) one
    #: instance takes 2.6 to 17 s, more than a run can hold.
    RANK_DEFICIENT = (("rd-K3", 3, 1), ("rd-K10", 10, 8))
    PANEL_SIZE = 2
    PANEL_STREAM = 0x5EED

    def __init__(self, seed, out, smoke=False):
        super().__init__(seed, out, smoke)
        self.full_rank = (("K1", 1, 1), ("K3", 3, 1)) if smoke else self.FULL_RANK
        panel = [(kind, i, self.panel_instance(k, dim, i))
                 for kind, k, dim in self.RANK_DEFICIENT for i in range(self.PANEL_SIZE)]
        # draw 1 of rd-K3 is the cheapest panel instance at the seed commit
        self.panel = [panel[1]] if smoke else panel

    def panel_instance(self, k, dim, i):
        """Rank-deficient draw ``i``: sources at equal-scale random offsets in
        ``dim < K`` dimensions; in one dimension they all point the same way,
        as ``delta`` sources do."""
        rng = np.random.default_rng([self.PANEL_STREAM, k, dim, i])
        n0 = int(rng.integers(50, 401))
        if dim == 1:
            directions = np.ones((1, k))
        else:
            directions = rng.standard_normal((dim, k))
            directions /= np.linalg.norm(directions, axis=0)
        offsets = directions * rng.uniform(0.15, 0.25, k)
        return n0, offsets, [int(c) for c in rng.integers(300, 701, k)]

    def full_rank_instance(self, rng, k):
        """Offsets ``Q diag(sv) V^T`` in dim 2K: Q and V random orthonormal,
        ``sv`` evenly spaced from 0.3 to 0.15 times a random scale in [0.8, 1.2]."""
        n0 = int(rng.integers(50, 401))
        q, _ = np.linalg.qr(rng.standard_normal((2 * k, k)))
        v, _ = np.linalg.qr(rng.standard_normal((k, k)))
        sv = rng.uniform(0.8, 1.2) * np.linspace(0.3, 0.15, k)
        return n0, q @ np.diag(sv) @ v.T, [int(c) for c in rng.integers(300, 701, k)]

    def warm_up(self):
        config, out = self.write_config({
            "family": {"kind": "gaussian", "dim": 2}, "n0": 100,
            "sources": [{"name": "a", "theta": [0.1, 0.0], "cap": 50},
                        {"name": "b", "theta": [0.0, 0.2], "cap": 50}]})
        run_cli("plan", config, out)

    def round(self, r):
        rng = self.rng(r)
        instances = [(kind, None, self.full_rank_instance(rng, k))
                     for kind, k, count in self.full_rank for _ in range(count)]
        return [self._op(kind, panel_draw, *instance)
                for kind, panel_draw, instance in instances + self.panel]

    def _op(self, kind, panel_draw, n0, offsets, caps) -> Op:
        dim, k = offsets.shape
        gram = offsets.T @ offsets
        config, out = self.write_config({
            "family": {"kind": "gaussian", "sigma": 1.0, "dim": dim},
            "n0": n0, "theta0": [0.0] * dim, "stepnumber": self.STEP_NUMBER,
            "sources": [{"name": f"s{i}", "theta": offsets[:, i].tolist(), "cap": cap}
                        for i, cap in enumerate(caps)],
        })
        info = {"kind": kind, "K": k, "dim": dim, "n0": n0, "caps": caps, "panel_draw": panel_draw,
                "rank": int(np.linalg.matrix_rank(gram)),
                "grid_points": min(self.STEP_NUMBER, sum(caps))}

        def check(run):
            path = run.out / "plan.csv"
            if run.code != 0 or not path.is_file():
                return [f"plan exited with {run.code}: {run.text.strip()[-200:]}"], 0
            rows = checks.read_csv(path)
            problems = checks.check_plan(rows, n0, dim, caps, gram, self.STEP_NUMBER)
            if not problems:
                info["binding_caps"] = sum(int(row[3]) == cap for row, cap in zip(rows[1:-1], caps))
            return problems, info["grid_points"]

        slot = kind if panel_draw is None else f"{kind}-{panel_draw}"
        return Op(kind, lambda: run_cli("plan", config, out), check, info, slot=slot)

    def metrics(self, done):
        kinds = dict.fromkeys(d.op.kind for d in done)
        medians = {kind: median_ms([d for d in done if d.op.kind == kind]) for kind in kinds}
        out = {f"plan_ms.{kind}": medians.get(kind, math.nan) for kind in ("K1", "K3", "K10", "K50")}
        out["plan_ms.rank_deficient"] = median_ms([d for d in done if d.op.kind.startswith("rd-")])
        return out

    def records(self, done):
        return [{**d.op.info, "ms": 1e3 * d.seconds} for d in done]


# --------------------------------------------------------------------------
# train-compare
# --------------------------------------------------------------------------

class TrainCompare(Workload):
    name = "train-compare"
    why = ("the train subcommand on criterion 9's ten suites, one suite and all four "
           "strategies per op: the only workload for the trainer and the softmax MLE")
    round_seconds = 26.0
    work_unit = "epochs"
    STRATEGIES = ("dynamic", "static_exact", "target_only", "all_sources")
    #: Criterion 9's suites are seeds 1..10; the benchmark seed and the round
    #: set their order. One suite's op takes 1.7 to 3.1 s at the seed commit,
    #: so a run of a few seeded suites would measure which suites it drew: a
    #: round runs all ten, and a run holds whole rounds.
    SUITES = tuple(range(1, 11))

    def __init__(self, seed, out, smoke=False):
        super().__init__(seed, out, smoke)
        self.trainer = {
            "feature_dim": 3, "num_classes": 5, "shots": 10, "deltas": [0.0, 0.5, 2.0],
            "pool_sizes": [1200, 1200, 1200], "strategies": list(self.STRATEGIES),
        }
        self.per_round = len(self.SUITES)
        if smoke:
            self.trainer.update(pool_sizes=[200, 200, 200], epochs=3, test_size=200)
            self.per_round = 1

    def warm_up(self):
        config, out = self.write_config({"seed": 0, "trainer": {
            **self.trainer, "pool_sizes": [100, 100, 100], "epochs": 2,
            "strategies": ["dynamic"], "seeds": [0]}})
        run_cli("train", config, out)

    def round(self, r):
        return [self._op(int(s)) for s in self.rng(r).permutation(self.SUITES)[:self.per_round]]

    def _op(self, suite_seed) -> Op:
        config, out = self.write_config(
            {"seed": suite_seed, "trainer": {**self.trainer, "seeds": [suite_seed]}})

        def check(run):
            problems, summary = checks.check_train(
                run.out, run.code, self.STRATEGIES, suite_seed, len(self.trainer["deltas"]))
            run.summary = summary
            return problems, summary["epochs"]

        return Op("train", lambda: run_cli("train", config, out), check, slot=f"suite{suite_seed}")

    def metrics(self, done):
        rows = [d.output.summary["rows"] for d in done if not d.problems]
        dynamic = [r["dynamic"] for r in rows]
        pooled = [r["all_sources"] for r in rows]
        return {
            "compare_s": statistics.median(d.seconds for d in done),
            "train_accuracy": statistics.fmean(r["accuracy"] for r in dynamic) if dynamic else math.nan,
            "train_sample_ratio": (sum(r["samples"] for r in dynamic) / sum(r["samples"] for r in pooled)
                                   if pooled else math.nan),
        }


WORKLOADS = {w.name: w for w in (McPoints, VerifySweep, PlanMix, TrainCompare)}
