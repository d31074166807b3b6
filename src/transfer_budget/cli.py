"""Command-line front end: plan, curve, verify and train subcommands.

All state flows through a single JSON config file; every subcommand writes
fixed-precision CSV files into the output directory so reruns with the same
config and seed are byte-identical regardless of the worker count.

Exit codes: 0 success, 2 malformed config, 3 infeasible problem, 4 the
verification gate failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .estimation import FisherMode, discrepancy, empirical_fisher, offset_gram
from .families import (
    BernoulliLogit,
    CategoricalLogits,
    Family,
    FisherUnavailableError,
    GaussianMean,
    SoftmaxRegression,
    open_uniform,
)
from .planner import FeasibilityError, TransferProblem, plan_transfer, regime_curve
from .simlab import MIN_TRIALS, sweep_n1
from .trainer import Strategy, SuiteConfig, TrainOptions, compare_strategies

__all__ = ["main", "entry_point", "ConfigError"]

# stream tags for config-derived draws (source directions, Fisher calibration)
_TAG_SOURCE_DIRECTION = 31
_TAG_CALIBRATION = 32

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_GATE = 4


class ConfigError(ValueError):
    """Config field failed validation; carries the exact field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


# --------------------------------------------------------------------------
# config access helpers
# --------------------------------------------------------------------------

def _get(cfg: dict, path: str, key: str, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(_join(path, key), "missing required field")
        return default
    return cfg[key]

def _join(path: str, key: str) -> str:
    return key if not path else f"{path}.{key}"


def _as_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str, minimum=None, strict: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(path, "integer too large for a float") from None
    if not np.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value}")
    if minimum is not None and (value < minimum or (strict and value == minimum)):
        op = ">" if strict else ">="
        raise ConfigError(path, f"must be {op} {minimum}, got {value}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _build_family(cfg: dict, path: str) -> Family:
    if not isinstance(cfg, dict):
        raise ConfigError(path, "expected an object")
    kind = _get(cfg, path, "kind", required=True)
    if kind == "gaussian":
        return GaussianMean(
            sigma=_as_number(cfg.get("sigma", 1.0), _join(path, "sigma"), 0.0, strict=True),
            dim=_as_int(cfg.get("dim", 1), _join(path, "dim"), 1),
        )
    if kind == "bernoulli":
        return BernoulliLogit()
    if kind == "categorical":
        return CategoricalLogits(
            num_classes=_as_int(cfg.get("num_classes", 3), _join(path, "num_classes"), 2)
        )
    if kind == "softmax":
        return SoftmaxRegression(
            feature_dim=_as_int(cfg.get("feature_dim", 3), _join(path, "feature_dim"), 1),
            num_classes=_as_int(cfg.get("num_classes", 3), _join(path, "num_classes"), 2),
        )
    raise ConfigError(_join(path, "kind"), f"unknown family kind {kind!r}")


def _parse_theta(value, dim: int, path: str) -> np.ndarray:
    entries = value if isinstance(value, list) else [value]
    arr = np.array([_as_number(v, path) for v in entries], dtype=np.float64)
    if arr.shape != (dim,):
        raise ConfigError(path, f"expected {dim} entries, got shape {arr.shape}")
    return arr


class RunSpec:
    """Validated config: family, target parameter, sources and knobs."""

    def __init__(self, cfg: dict):
        if not isinstance(cfg, dict):
            raise ConfigError("", "top level must be a JSON object")
        self.seed = _as_int(cfg.get("seed", 0), "seed", 0)
        self.workers = _as_int(cfg.get("workers", 1), "workers", 1)
        self.family = _build_family(_get(cfg, "", "family", default={"kind": "gaussian"}), "family")
        self.n0 = _as_int(_get(cfg, "", "n0", default=100), "n0", 1)
        self.step_number = _as_int(cfg.get("stepnumber", 1000), "stepnumber", 1)
        self.trials = _as_int(cfg.get("trials", 20_000), "trials", MIN_TRIALS)
        self.calibration_samples = _as_int(
            cfg.get("calibration_samples", 100_000), "calibration_samples", 1_000
        )
        mode = cfg.get("fisher_mode", "analytic")
        try:
            self.fisher_mode = FisherMode(mode)
        except ValueError:
            raise ConfigError("fisher_mode", f"unknown mode {mode!r}") from None

        if "theta0" in cfg:
            self.theta0 = _parse_theta(cfg["theta0"], self.family.dim, "theta0")
        else:
            self.theta0 = np.zeros(self.family.dim)

        self.source_names: list[str] = []
        self.source_caps: list[int] = []
        self.source_thetas: list[np.ndarray] = []
        sources = cfg.get("sources", [])
        if not isinstance(sources, list):
            raise ConfigError("sources", "expected a list")
        for i, src in enumerate(sources):
            spath = f"sources[{i}]"
            if not isinstance(src, dict):
                raise ConfigError(spath, "expected an object")
            name = _get(src, spath, "name", required=True)
            if not isinstance(name, str) or not name:
                raise ConfigError(_join(spath, "name"), "expected a nonempty string")
            if name in self.source_names:
                raise ConfigError(_join(spath, "name"), f"duplicate source name {name!r}")
            cap = _as_int(_get(src, spath, "cap", required=True), _join(spath, "cap"), 1)
            if "theta" in src and "delta" in src:
                raise ConfigError(spath, "give either theta or delta, not both")
            if "theta" in src:
                theta = _parse_theta(src["theta"], self.family.dim, _join(spath, "theta"))
            elif "delta" in src:
                delta = _as_number(src["delta"], _join(spath, "delta"), 0.0)
                theta = self.theta0 + delta * self._direction(i)
            else:
                raise ConfigError(spath, "missing theta or delta")
            self.source_names.append(name)
            self.source_caps.append(cap)
            self.source_thetas.append(theta)

        self.raw = cfg

    def _direction(self, index: int) -> np.ndarray:
        d = self.family.dim
        if d == 1:
            return np.ones(1)
        rng = np.random.default_rng([self.seed, _TAG_SOURCE_DIRECTION, index])
        v = ndtri(open_uniform(rng, d))
        return v / np.linalg.norm(v)

    def fisher(self):
        """Closed-form Fisher at theta0, or the per-sample estimate from a
        seeded calibration sample when no closed form exists."""
        if self.fisher_mode is FisherMode.ANALYTIC:
            try:
                return empirical_fisher(self.family, self.theta0, None, FisherMode.ANALYTIC)
            except FisherUnavailableError:
                pass
        mode = (
            FisherMode.PER_SAMPLE
            if self.fisher_mode is FisherMode.ANALYTIC
            else self.fisher_mode
        )
        rng = np.random.default_rng([self.seed, _TAG_CALIBRATION])
        calibration = self.family.sample(self.theta0, rng, self.calibration_samples)
        return empirical_fisher(self.family, self.theta0, calibration, mode)


# --------------------------------------------------------------------------
# CSV plumbing
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_plan(spec: RunSpec, out: Path) -> int:
    rows: list[list] = []
    if not spec.source_names:
        s_star, predicted = 0, 0.5 * spec.family.dim / spec.n0
    else:
        gram = offset_gram(spec.fisher(), spec.theta0, spec.source_thetas)
        try:
            problem = TransferProblem(
                n0=spec.n0,
                dim=spec.family.dim,
                caps=np.array(spec.source_caps),
                gram=gram,
                step_number=spec.step_number,
            )
        except ValueError as exc:  # e.g. thetas so far apart that the Gram overflows
            raise ConfigError("sources", f"unusable Gram matrix of the offsets: {exc}") from None
        plan = plan_transfer(problem)
        s_star, predicted = plan.s_star, plan.predicted_proxy
        for name, cap, alpha, n in zip(
            spec.source_names, spec.source_caps, plan.alpha_star, plan.n_star
        ):
            rows.append([name, cap, alpha, n])
    rows.append(["s_star", s_star, "predicted_proxy", predicted])
    _write_csv(out / "plan.csv", ["source_name", "cap", "alpha_star", "n_star"], rows)
    print(f"plan: s_star={s_star} predicted_proxy={_fmt(predicted)}")
    for row in rows[:-1]:
        print(f"  {row[0]}: n_star={row[3]} (alpha={_fmt(row[2])}, cap={row[1]})")
    return EXIT_OK


def _curve_settings(spec: RunSpec):
    cfg = spec.raw.get("curve", {})
    if not isinstance(cfg, dict):
        raise ConfigError("curve", "expected an object")
    grid_points = _as_int(cfg.get("grid_points", 101), "curve.grid_points", 2)
    if "t" in cfg:
        t = _as_number(cfg["t"], "curve.t", 0.0)
    elif spec.source_thetas:
        t = discrepancy(spec.fisher(), spec.theta0, spec.source_thetas[0])
        if not np.isfinite(t):  # e.g. thetas so far apart that the discrepancy overflows
            raise ConfigError("sources", f"unusable discrepancy of the first source: {t}")
    else:
        raise ConfigError("curve.t", "needs an explicit t when no sources are given")
    if "cap" in cfg:
        cap = _as_int(cfg["cap"], "curve.cap", 1)
    elif spec.source_caps:
        cap = spec.source_caps[0]
    else:
        raise ConfigError("curve.cap", "needs a cap when no sources are given")
    return t, cap, grid_points


def cmd_curve(spec: RunSpec, out: Path) -> int:
    t, cap, grid_points = _curve_settings(spec)
    curve = regime_curve(spec.n0, cap, t, grid_points)
    rows = [[int(n), v, curve.regime.value] for n, v in zip(curve.quantities, curve.values)]
    _write_csv(out / "curve.csv", ["n1", "proxy", "regime"], rows)
    print(f"curve: {len(rows)} points, regime={curve.regime.value}")
    return EXIT_OK


def cmd_verify(spec: RunSpec, out: Path, workers: int) -> int:
    if len(spec.source_thetas) != 1:
        raise ConfigError("sources", "verify sweeps exactly one source")
    cfg = spec.raw.get("verify", {})
    if not isinstance(cfg, dict):
        raise ConfigError("verify", "expected an object")
    grid_step = _as_int(cfg.get("grid_step", 10), "verify.grid_step", 1)
    z_threshold = _as_number(cfg.get("z_threshold", 3.0), "verify.z_threshold", 0.0, strict=True)
    min_pass = _as_number(cfg.get("min_pass_fraction", 0.95), "verify.min_pass_fraction", 0.0)

    try:
        result = sweep_n1(
            spec.family, spec.theta0, spec.source_thetas[0], spec.n0,
            spec.source_caps[0], grid_step, spec.trials, spec.seed, workers,
        )
    except FisherUnavailableError as exc:
        raise ConfigError("family.kind",
                          f"verify needs a closed-form Fisher information ({exc})") from None
    rows = []
    z_values = []
    for quantity, report, theory in zip(
        result.quantities, result.reports, result.theoretical_curve.values
    ):
        gap = abs(report.mean_kl - theory)
        z = gap / report.std_err if report.std_err > 0 else (0.0 if gap == 0 else float("inf"))
        z_values.append(z)
        rows.append([int(quantity), report.mean_kl, report.std_err, float(theory), z])
    _write_csv(
        out / "verify.csv",
        ["axis_value", "mean_kl", "std_err", "theoretical_proxy", "z_ratio"],
        rows,
    )
    z_values = np.array(z_values)
    pass_fraction = float((z_values <= z_threshold).mean())
    print(
        f"verify: max_z={_fmt(z_values.max())} pass_fraction={_fmt(pass_fraction)} "
        f"(threshold z<={_fmt(z_threshold)}, need >={_fmt(min_pass)}) "
        f"empirical_argmin={result.empirical_argmin} theoretical_argmin={result.theoretical_argmin}"
    )
    return EXIT_OK if pass_fraction >= min_pass else EXIT_GATE


def _trainer_settings(spec: RunSpec):
    cfg = spec.raw.get("trainer", {})
    if not isinstance(cfg, dict):
        raise ConfigError("trainer", "expected an object")
    path = "trainer"

    deltas = cfg.get("deltas", list(SuiteConfig().deltas))
    pools = cfg.get("pool_sizes", list(SuiteConfig().pool_sizes))
    if not isinstance(deltas, list) or not deltas:
        raise ConfigError(_join(path, "deltas"), "expected a nonempty list")
    if not isinstance(pools, list) or len(pools) != len(deltas):
        raise ConfigError(_join(path, "pool_sizes"), "must match deltas in length")
    deltas = [
        _as_number(v, f"{path}.deltas[{i}]", 0.0) for i, v in enumerate(deltas)
    ]
    pools = [
        _as_int(v, f"{path}.pool_sizes[{i}]", 1) for i, v in enumerate(pools)
    ]
    suite = SuiteConfig(
        feature_dim=_as_int(cfg.get("feature_dim", 3), _join(path, "feature_dim"), 1),
        num_classes=_as_int(cfg.get("num_classes", 5), _join(path, "num_classes"), 2),
        shots=_as_int(cfg.get("shots", 10), _join(path, "shots"), 1),
        deltas=tuple(deltas),
        pool_sizes=tuple(pools),
        test_size=_as_int(cfg.get("test_size", 2000), _join(path, "test_size"), 1),
        val_size=_as_int(cfg.get("val_size", 200), _join(path, "val_size"), 1),
        prior_scale=_as_number(cfg.get("prior_scale", 1.3), _join(path, "prior_scale"), 0.0),
    )
    mode = cfg.get("fisher_mode", "per_sample")
    if mode not in ("per_sample", "batch"):
        raise ConfigError(_join(path, "fisher_mode"), f"expected per_sample or batch, got {mode!r}")
    options = TrainOptions(
        epochs=_as_int(cfg.get("epochs", 60), _join(path, "epochs"), 1),
        patience=_as_int(cfg.get("patience", 5), _join(path, "patience"), 1),
        learning_rate=_as_number(
            cfg.get("learning_rate", 1.0), _join(path, "learning_rate"), 0.0, strict=True
        ),
        steps_per_epoch=_as_int(cfg.get("steps_per_epoch", 40), _join(path, "steps_per_epoch"), 1),
        step_number=_as_int(cfg.get("stepnumber", 1000), _join(path, "stepnumber"), 1),
        fisher_mode=FisherMode(mode),
        target_only_fisher=_as_bool(
            cfg.get("target_only_fisher", False), _join(path, "target_only_fisher")
        ),
        init_scale=_as_number(cfg.get("init_scale", 0.01), _join(path, "init_scale"), 0.0),
    )

    names = cfg.get("strategies", ["dynamic"])
    if not isinstance(names, list) or not names:
        raise ConfigError(_join(path, "strategies"), "expected a nonempty list")
    strategies = []
    for i, name in enumerate(names):
        try:
            strategies.append(Strategy(name))
        except ValueError:
            raise ConfigError(
                f"{path}.strategies[{i}]", f"unknown strategy {name!r}"
            ) from None
    seeds = cfg.get("seeds", [spec.seed])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(_join(path, "seeds"), "expected a nonempty list")
    seeds = [_as_int(s, f"{path}.seeds[{i}]", 0) for i, s in enumerate(seeds)]
    return suite, options, strategies, seeds


def cmd_train(spec: RunSpec, out: Path) -> int:
    suite_cfg, options, strategies, seeds = _trainer_settings(spec)
    rows, runs = compare_strategies(suite_cfg, strategies, seeds, options)

    k = suite_cfg.num_sources
    alpha_cols = [f"alpha_{i + 1}" for i in range(k)]
    for (strategy, seed), run in runs.items():
        lines = []
        for record in run.records:
            alphas = (
                list(record.plan.alpha_star) if record.plan is not None else [None] * k
            )
            s_star = record.plan.s_star if record.plan is not None else None
            lines.append(
                [record.epoch, record.train_loss, record.val_accuracy,
                 record.samples_used, s_star] + alphas
            )
        _write_csv(
            out / "runs" / f"{strategy.value}-{seed}.csv",
            ["epoch", "train_loss", "val_acc", "samples_used", "s_star"] + alpha_cols,
            lines,
        )

    table = [
        [row.strategy.value, len(row.seeds), row.accuracy_mean, row.accuracy_std,
         row.samples_mean, row.samples_std, row.planner_calls_mean]
        for row in rows
    ]
    _write_csv(
        out / "comparison.csv",
        ["strategy", "n_seeds", "accuracy_mean", "accuracy_std",
         "samples_mean", "samples_std", "planner_calls_mean"],
        table,
    )
    for row in rows:
        print(
            f"{row.strategy.value}: accuracy={_fmt(row.accuracy_mean)}"
            f"+-{_fmt(row.accuracy_std)} samples={_fmt(row.samples_mean)}"
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transfer-budget",
        description="Plan and verify optimal sample-transfer quantities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("plan", "solve for the optimal per-source transfer quantities"),
        ("curve", "tabulate the error proxy over the transfer quantity"),
        ("verify", "Monte-Carlo check of the proxy against simulation"),
        ("train", "run the dynamic/baseline training comparison"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", required=True, help="output directory for CSV files")
        cmd.add_argument("--workers", type=int, default=None,
                         help="parallel trial workers (default: config value or 1)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error at <file>: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error at <file>: invalid JSON ({exc})", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    try:
        spec = RunSpec(raw)
        workers = args.workers if args.workers is not None else spec.workers
        if workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {workers}")
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "plan":
            return cmd_plan(spec, out)
        if args.command == "curve":
            return cmd_curve(spec, out)
        if args.command == "verify":
            return cmd_verify(spec, out, workers)
        return cmd_train(spec, out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except FeasibilityError as exc:
        print(f"infeasible problem: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry_point() -> None:
    sys.exit(main())
