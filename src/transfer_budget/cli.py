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
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .estimation import FisherMode, discrepancy, empirical_fisher, offset_gram
from .families import (
    BernoulliLogit,
    CategoricalLogits,
    Family,
    FisherUnavailableError,
    GaussianMean,
    InvalidParameterError,
    SoftmaxRegression,
    unit_direction,
)
from .planner import FeasibilityError, TransferProblem, plan_transfer, regime_curve
from .simlab import MIN_TRIALS, sweep_n1
from .trainer import RareClassError, Strategy, SuiteConfig, TrainOptions, compare_strategies

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
# config schema: one parser and default per field; cross-field rules in RunSpec
# --------------------------------------------------------------------------

#: upper bound of every integer field but ``seed`` and ``trainer.seeds``
INT64_MAX = 2**63 - 1
#: upper bounds of the fields that size arrays: a dimension (a Fisher
#: information at the bound is a 2**24-value matrix, 128 MiB) and a count of
#: draws or trials
MAX_DIM = 2**12
MAX_COUNT = 2**24
#: upper bound of an array that several fields size together (1 GiB of
#: float64), checked by the subcommand that allocates it
MAX_ELEMENTS = 2**27
#: upper bound of ``workers``: each worker forks the interpreter
MAX_WORKERS = 64
#: default of a field that must be given
REQUIRED = object()
#: default of a field left out when absent: a fallback or a dataclass default applies
ABSENT = object()


def _join(path: str, key: str) -> str:
    return key if not path else f"{path}.{key}"


def _int(minimum: int, maximum: int | None = INT64_MAX):
    def parse(value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(path, f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(path, f"must be <= {maximum}, got {value}")
        return value
    return parse


def _number(minimum: float | None = None, strict: bool = False):
    def parse(value, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(path, "integer too large for a float") from None
        if not math.isfinite(value):
            raise ConfigError(path, f"expected a finite number, got {value}")
        if minimum is not None and (value < minimum or (strict and value == minimum)):
            raise ConfigError(path, f"must be {'>' if strict else '>='} {minimum}, got {value}")
        return value
    return parse


def _sigma(value, path: str) -> float:
    """A Gaussian scale that :class:`GaussianMean` accepts: twice its square
    and the square's inverse are finite and nonzero."""
    value = _number(0.0, strict=True)(value, path)
    try:
        GaussianMean(sigma=value)
    except InvalidParameterError as exc:
        raise ConfigError(path, str(exc)) from None
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, "expected a nonempty string")
    return value


def _one_of(*members):
    """Parser of an enum member given by its value."""
    by_value = {m.value: m for m in members}

    def parse(value, path: str):
        if isinstance(value, str) and value in by_value:
            return by_value[value]
        raise ConfigError(path, f"expected one of {', '.join(by_value)}, got {value!r}")
    return parse


def _theta(value, path: str) -> np.ndarray:
    """A number or a list of numbers; RunSpec checks its length against the family."""
    entries = value if isinstance(value, list) else [value]
    finite = _number()
    return np.array([finite(v, path) for v in entries], dtype=np.float64)


def _list(item, nonempty: bool = True):
    def parse(value, path: str) -> tuple:
        if not isinstance(value, list) or (nonempty and not value):
            raise ConfigError(path, f"expected a {'nonempty ' if nonempty else ''}list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    parse.item = item
    return parse


def _object(fields: dict):
    """Parser of an object with ``fields``: key -> (parser, default).

    Unknown keys are rejected, a missing required key is named, and a default
    (a JSON value) is parsed as if it had been given.
    """
    def parse(value, path: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(path or "<config>", "expected an object")
        for key in value:
            if key not in fields:
                raise ConfigError(_join(path, key), "unknown field")
        out = {}
        for key, (parser, default) in fields.items():
            if key in value:
                out[key] = parser(value[key], _join(path, key))
            elif default is REQUIRED:
                raise ConfigError(_join(path, key), "missing required field")
            elif default is not ABSENT:
                out[key] = parser(default, _join(path, key))
        return out
    parse.fields = fields
    return parse


def _family(kinds: dict):
    """Parser of a family object: ``kind`` picks the class and its other fields."""
    def parse(value, path: str) -> Family:
        if not isinstance(value, dict):
            raise ConfigError(path, "expected an object")
        if "kind" not in value:
            raise ConfigError(_join(path, "kind"), "missing required field")
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(_join(path, "kind"), f"unknown family kind {kind!r}")
        cls, fields = kinds[kind]
        rest = {key: v for key, v in value.items() if key != "kind"}
        return cls(**_object(fields)(rest, path))
    parse.kinds = kinds
    return parse


#: The whole config. Trainer fields default to the ``SuiteConfig`` and
#: ``TrainOptions`` defaults; ``trainer.stepnumber`` is ``step_number`` there.
CONFIG = _object({
    "seed": (_int(0, None), 0),
    "workers": (_int(1, MAX_WORKERS), 1),
    "family": (_family({
        "gaussian": (GaussianMean, {"sigma": (_sigma, 1.0),
                                    "dim": (_int(1, MAX_DIM), 1)}),
        "bernoulli": (BernoulliLogit, {}),
        "categorical": (CategoricalLogits, {"num_classes": (_int(2, MAX_DIM), 3)}),
        "softmax": (SoftmaxRegression, {"feature_dim": (_int(1, MAX_DIM), 3),
                                        "num_classes": (_int(2, MAX_DIM), 3)}),
    }), {"kind": "gaussian"}),
    "n0": (_int(1), 100),
    "theta0": (_theta, ABSENT),
    "sources": (_list(_object({
        "name": (_name, REQUIRED),
        "cap": (_int(1), REQUIRED),
        "theta": (_theta, ABSENT),
        "delta": (_number(0.0), ABSENT),
    }), nonempty=False), []),
    "stepnumber": (_int(1), 1000),
    "trials": (_int(MIN_TRIALS, MAX_COUNT), 20_000),
    "calibration_samples": (_int(1_000, MAX_COUNT), 100_000),
    "fisher_mode": (_one_of(*FisherMode), "analytic"),
    "curve": (_object({
        "grid_points": (_int(2), 101),
        "t": (_number(0.0), ABSENT),
        "cap": (_int(1), ABSENT),
    }), {}),
    "verify": (_object({
        "grid_step": (_int(1), 10),
        "z_threshold": (_number(0.0, strict=True), 3.0),
        "min_pass_fraction": (_number(0.0), 0.95),
    }), {}),
    "trainer": (_object({
        "feature_dim": (_int(1, MAX_DIM), ABSENT),
        "num_classes": (_int(2, MAX_DIM), ABSENT),
        "shots": (_int(1, MAX_COUNT), ABSENT),
        "deltas": (_list(_number(0.0)), ABSENT),
        "pool_sizes": (_list(_int(1, MAX_COUNT)), ABSENT),
        "test_size": (_int(1, MAX_COUNT), ABSENT),
        "val_size": (_int(1, MAX_COUNT), ABSENT),
        "prior_scale": (_number(0.0), ABSENT),
        "epochs": (_int(1), ABSENT),
        "patience": (_int(1), ABSENT),
        "learning_rate": (_number(0.0, strict=True), ABSENT),
        "steps_per_epoch": (_int(1), ABSENT),
        "stepnumber": (_int(1), ABSENT),
        "fisher_mode": (_one_of(FisherMode.PER_SAMPLE, FisherMode.BATCH), ABSENT),
        "target_only_fisher": (_bool, ABSENT),
        "init_scale": (_number(0.0), ABSENT),
        "strategies": (_list(_one_of(*Strategy)), ["dynamic"]),
        "seeds": (_list(_int(0, None)), ABSENT),
    }), {}),
})


def _check_size(values: int, path: str, what: str, bound: int = MAX_ELEMENTS) -> None:
    if values > bound:
        raise ConfigError(path, f"{what} would hold {values} values; must be <= {bound}")


def _fit_dim(theta: np.ndarray, dim: int, path: str) -> np.ndarray:
    if theta.shape != (dim,):
        raise ConfigError(path, f"expected {dim} entries, got shape {theta.shape}")
    return theta


class RunSpec:
    """The validated config, one attribute per top-level field, with
    ``theta0`` filled in and every source's ``theta`` resolved."""

    def __init__(self, raw):
        vars(self).update(CONFIG(raw, ""))
        dim = self.family.dim
        self.theta0 = _fit_dim(vars(self).get("theta0", np.zeros(dim)), dim, "theta0")
        for i, src in enumerate(self.sources):
            path = f"sources[{i}]"
            if src["name"] in [earlier["name"] for earlier in self.sources[:i]]:
                raise ConfigError(f"{path}.name", f"duplicate source name {src['name']!r}")
            if ("theta" in src) == ("delta" in src):
                raise ConfigError(path, "give exactly one of theta and delta")
            if "theta" in src:
                src["theta"] = _fit_dim(src["theta"], dim, f"{path}.theta")
                continue
            with np.errstate(over="ignore"):
                src["theta"] = self.theta0 + src["delta"] * self._direction(i)
            if not np.isfinite(src["theta"]).all():
                raise ConfigError(f"{path}.delta", "places the source at a non-finite theta")
        deltas = self.trainer.get("deltas", SuiteConfig.deltas)
        if len(self.trainer.get("pool_sizes", SuiteConfig.pool_sizes)) != len(deltas):
            raise ConfigError("trainer.pool_sizes", "must match deltas in length")

    def _direction(self, index: int) -> np.ndarray:
        d = self.family.dim
        if d == 1:
            return np.ones(1)
        # index + 1: SeedSequence drops a trailing zero word, so [seed, 31, 0]
        # would be the lab's trial 31 stream [seed, 31]
        rng = np.random.default_rng([self.seed, _TAG_SOURCE_DIRECTION, index + 1])
        return unit_direction(rng, d)

    def fisher(self):
        """Closed-form Fisher at theta0, or the per-sample estimate from a
        seeded calibration sample when no closed form exists."""
        mode = self.fisher_mode
        if mode is FisherMode.ANALYTIC:
            try:
                return empirical_fisher(self.family, self.theta0, None, mode)
            except FisherUnavailableError:
                mode = FisherMode.PER_SAMPLE
        _check_size(self.calibration_samples * self.family.dim, "calibration_samples",
                    "the calibration score matrix")
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
    if not spec.sources:
        s_star, predicted = 0, 0.5 * spec.family.dim / spec.n0
    else:
        caps = [src["cap"] for src in spec.sources]
        _check_size((min(spec.stepnumber, sum(caps)) + 1) * len(caps), "stepnumber",
                    "the planner's proportion grid")
        gram = offset_gram(spec.fisher(), spec.theta0, [src["theta"] for src in spec.sources])
        try:
            problem = TransferProblem(
                n0=spec.n0,
                dim=spec.family.dim,
                caps=np.array(caps),
                gram=gram,
                step_number=spec.stepnumber,
            )
        except ValueError as exc:  # caps too large, or a Gram that overflows
            raise ConfigError("sources", str(exc)) from None
        plan = plan_transfer(problem)
        s_star, predicted = plan.s_star, plan.predicted_proxy
        for src, alpha, n in zip(spec.sources, plan.alpha_star, plan.n_star):
            rows.append([src["name"], src["cap"], alpha, n])
    rows.append(["s_star", s_star, "predicted_proxy", predicted])
    _write_csv(out / "plan.csv", ["source_name", "cap", "alpha_star", "n_star"], rows)
    print(f"plan: s_star={s_star} predicted_proxy={_fmt(predicted)}")
    for row in rows[:-1]:
        print(f"  {row[0]}: n_star={row[3]} (alpha={_fmt(row[2])}, cap={row[1]})")
    return EXIT_OK


def _first_discrepancy(spec: RunSpec, fisher) -> float:
    t = discrepancy(fisher, spec.theta0, spec.sources[0]["theta"])
    if not np.isfinite(t):  # e.g. thetas so far apart that the discrepancy overflows
        raise ConfigError("sources", f"unusable discrepancy of the first source: {t}")
    return t


def cmd_curve(spec: RunSpec, out: Path) -> int:
    if "t" in spec.curve:
        t = spec.curve["t"]
    elif spec.sources:
        t = _first_discrepancy(spec, spec.fisher())
    else:
        raise ConfigError("curve.t", "needs an explicit t when no sources are given")
    if "cap" in spec.curve:
        cap, cap_path = spec.curve["cap"], "curve.cap"
    elif spec.sources:
        cap, cap_path = spec.sources[0]["cap"], "sources"
    else:
        raise ConfigError("curve.cap", "needs a cap when no sources are given")
    _check_size(min(spec.curve["grid_points"], cap + 1), "curve.grid_points", "the curve's grid")
    try:
        curve = regime_curve(spec.n0, cap, t, spec.curve["grid_points"], spec.family.dim)
    except ValueError as exc:  # a cap too large for exact float64 quantities
        raise ConfigError(cap_path, str(exc)) from None
    rows = [[int(n), v, curve.regime.value] for n, v in zip(curve.quantities, curve.values)]
    _write_csv(out / "curve.csv", ["n1", "proxy", "regime"], rows)
    print(f"curve: {len(rows)} points, regime={curve.regime.value}")
    return EXIT_OK


def cmd_verify(spec: RunSpec, out: Path) -> int:
    if len(spec.sources) != 1:
        raise ConfigError("sources", "verify sweeps exactly one source")
    if not spec.family.has_closed_form_mle:
        raise ConfigError("family.kind", "verify needs a closed-form MLE and Fisher information")
    # every trial draws the target and then the source at its cap
    cap, width, step = spec.sources[0]["cap"], spec.family.draw_width, spec.verify["grid_step"]
    _check_size(spec.n0 * width, "n0", "a trial's target draw", MAX_COUNT)
    _check_size((spec.n0 + cap) * width, "sources[0].cap", "a trial's draw", MAX_COUNT)
    _check_size((-(-cap // step) + 1) * spec.trials, "verify.grid_step",
                "the (grid points x trials) KL matrix")
    # the sweep's theory side uses the closed-form Fisher, whatever fisher_mode says
    _first_discrepancy(spec, empirical_fisher(spec.family, spec.theta0, None, FisherMode.ANALYTIC))
    z_threshold = spec.verify["z_threshold"]
    min_pass = spec.verify["min_pass_fraction"]
    try:
        result = sweep_n1(spec.family, spec.theta0, spec.sources[0]["theta"], spec.n0, cap,
                          step, spec.trials, spec.seed, spec.workers)
    except InvalidParameterError as exc:  # a trial's pooled fit overflowed
        raise ConfigError("theta0", f"a trial's pooled fit is not finite ({exc})") from None
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


def cmd_train(spec: RunSpec, out: Path) -> int:
    settings = dict(spec.trainer)
    strategies, seeds = settings.pop("strategies"), settings.pop("seeds", (spec.seed,))
    suite_cfg = SuiteConfig(**{f.name: settings.pop(f.name)
                               for f in fields(SuiteConfig) if f.name in settings})
    options = TrainOptions(**{"step_number" if k == "stepnumber" else k: v
                              for k, v in settings.items()})
    f, c, pooled = suite_cfg.feature_dim, suite_cfg.num_classes, sum(suite_cfg.pool_sizes)
    width = max(f + 1, c)  # a draw's features and label uniform, then its class probabilities
    for count, path, what in (
        (max(64, 4 * suite_cfg.shots * c), "trainer.shots", "a per-class rejection batch"),
        (suite_cfg.test_size, "trainer.test_size", "the test set"),
        (suite_cfg.val_size if suite_cfg.shots < 5 else 0, "trainer.val_size",
         "the validation set"),
        (pooled, "trainer.pool_sizes", "the source pools"),
    ):
        _check_size(count * width, path, what)
    _check_size((f * c) ** 2, "trainer.feature_dim", "the softmax fit's Newton Hessian")
    _check_size((suite_cfg.shots * c + pooled) * f * c, "trainer.pool_sizes",
                "the per-sample score matrix")
    _check_size((min(options.step_number, pooled) + 1) * suite_cfg.num_sources,
                "trainer.stepnumber", "the planner's proportion grid")
    try:
        rows, runs = compare_strategies(suite_cfg, strategies, seeds, options)
    except RareClassError as exc:
        raise ConfigError("trainer.prior_scale", str(exc)) from None

    k = suite_cfg.num_sources
    alpha_cols = [f"alpha_{i + 1}" for i in range(k)]
    for (strategy, seed), run in runs.items():
        lines = []
        for record in run.records:
            plan = record.plan
            planned = [None] * (k + 1) if plan is None else [plan.s_star, *plan.alpha_star]
            lines.append([record.epoch, record.train_loss, record.val_accuracy,
                          record.samples_used, *planned])
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
    except (ValueError, RecursionError) as exc:  # bad JSON, encoding, or nesting
        print(f"config error at <file>: invalid JSON ({exc})", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    try:
        spec = RunSpec(raw)
        if args.workers is not None:
            spec.workers = CONFIG.fields["workers"][0](args.workers, "workers")
        out.mkdir(parents=True, exist_ok=True)
        command = {"plan": cmd_plan, "curve": cmd_curve, "verify": cmd_verify,
                   "train": cmd_train}[args.command]
        return command(spec, out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except FeasibilityError as exc:
        print(f"infeasible problem: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry_point() -> None:
    sys.exit(main())
