"""Desk-scale dynamic transfer training on synthetic softmax-regression tasks.

Implements the per-epoch replanning loop: train on the target data first, then
at the end of every epoch rebuild the Fisher quadratic form from the current
training batch, replan the per-source quantities, redraw those source subsets
at random, and continue training on the union. Baselines cover target-only,
everything pooled, and static variants that plan exactly once after a warm-up
fit of configurable length.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtri

from .estimation import FisherMode, PooledData, empirical_fisher, offset_gram, pooled_mle
from .families import SoftmaxRegression, open_uniform
from .planner import TransferPlan, TransferProblem, plan_transfer

__all__ = [
    "Strategy",
    "SuiteConfig",
    "TaskSuite",
    "TrainOptions",
    "EpochRecord",
    "TrainRun",
    "generate_suite",
    "pretrain_sources",
    "train",
    "compare_strategies",
    "ComparisonRow",
]

# stream tags so every consumer of a run seed gets an independent substream
_TAG_THETA = 11
_TAG_DIRECTIONS = 12
_TAG_TRAIN = 13
_TAG_VAL = 14
_TAG_TEST = 15
_TAG_POOL = 16
_TAG_INIT = 21
_TAG_RESAMPLE = 22


class Strategy(Enum):
    TARGET_ONLY = "target_only"
    ALL_SOURCES = "all_sources"
    STATIC_UNDER = "static_under"
    STATIC_EXACT = "static_exact"
    STATIC_OVER = "static_over"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class SuiteConfig:
    """Synthetic multi-source task generator settings.

    Each source parameter sits at a seeded unit direction scaled by its entry
    in ``deltas``; the target train set is ``shots`` samples per class. With
    five or more shots a fifth of them is reserved for validation, otherwise a
    separately drawn validation set of ``val_size`` samples is used.
    """

    feature_dim: int = 3
    num_classes: int = 5
    shots: int = 10
    deltas: tuple = (0.0, 0.5, 2.0)
    pool_sizes: tuple = (1200, 1200, 1200)
    test_size: int = 2000
    val_size: int = 200
    prior_scale: float = 1.3

    def __post_init__(self):
        if len(self.deltas) != len(self.pool_sizes):
            raise ValueError("deltas and pool_sizes must have matching lengths")
        if self.shots < 1 or min(self.pool_sizes, default=1) < 1:
            raise ValueError("shots and pool sizes must be positive")

    @property
    def num_sources(self) -> int:
        return len(self.deltas)


@dataclass
class TaskSuite:
    """Materialized samples for one target task and its source pools."""

    family: SoftmaxRegression
    theta_target: np.ndarray
    theta_sources: list[np.ndarray]
    deltas: tuple
    train: tuple[np.ndarray, np.ndarray]
    val: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]
    pools: list[tuple[np.ndarray, np.ndarray]]
    seed: int
    config: SuiteConfig

    @property
    def n0(self) -> int:
        return int(self.train[1].shape[0])

    @property
    def caps(self) -> np.ndarray:
        return np.array([p[1].shape[0] for p in self.pools], dtype=np.int64)


def _draw_per_class(family, theta, rng, per_class: int, max_batches: int = 200):
    """Collect ``per_class`` draws of every class by rejection from the joint."""
    need = {c: per_class for c in range(family.num_classes)}
    feats, labels = [], []
    batch = max(64, 4 * per_class * family.num_classes)
    for _ in range(max_batches):
        z, y = family.sample(theta, rng, batch)
        for c in list(need):
            take = np.nonzero(y == c)[0][: need[c]]
            if take.size:
                feats.append(z[take])
                labels.append(y[take])
                need[c] -= take.size
                if need[c] == 0:
                    del need[c]
        if not need:
            order = np.argsort(np.concatenate(labels), kind="stable")
            z_all = np.concatenate(feats, axis=0)[order]
            y_all = np.concatenate(labels)[order]
            return z_all, y_all
    raise RuntimeError("a class is too rare under the drawn parameters to fill the shots")


def generate_suite(config: SuiteConfig, seed: int) -> TaskSuite:
    """Draw a full synthetic suite deterministically from ``seed``."""
    family = SoftmaxRegression(config.feature_dim, config.num_classes)
    d = family.dim

    theta0 = config.prior_scale * ndtri(
        open_uniform(np.random.default_rng([seed, _TAG_THETA]), d)
    )
    dir_rng = np.random.default_rng([seed, _TAG_DIRECTIONS])
    thetas = []
    for delta in config.deltas:
        direction = ndtri(open_uniform(dir_rng, d))
        direction /= np.linalg.norm(direction)
        thetas.append(theta0 + delta * direction)

    shots = config.shots
    z, y = _draw_per_class(family, theta0, np.random.default_rng([seed, _TAG_TRAIN]), shots)
    if shots >= 5:
        reserve = max(1, int(np.floor(0.2 * shots + 0.5)))
        keep = np.ones(y.shape[0], dtype=bool)
        for c in range(config.num_classes):
            keep[np.nonzero(y == c)[0][shots - reserve:]] = False
        train = (z[keep], y[keep])
        val = (z[~keep], y[~keep])
    else:
        train = (z, y)
        val = family.sample(theta0, np.random.default_rng([seed, _TAG_VAL]), config.val_size)

    test = family.sample(theta0, np.random.default_rng([seed, _TAG_TEST]), config.test_size)
    pools = [
        family.sample(theta, np.random.default_rng([seed, _TAG_POOL, i]), size)
        for i, (theta, size) in enumerate(zip(thetas, config.pool_sizes))
    ]
    return TaskSuite(
        family=family,
        theta_target=theta0,
        theta_sources=thetas,
        deltas=tuple(config.deltas),
        train=train,
        val=val,
        test=test,
        pools=pools,
        seed=seed,
        config=config,
    )


def pretrain_sources(family, pools) -> list[np.ndarray]:
    """Fit each source's parameter by MLE on its full pool.

    These fits stand in for the true source parameters during planning; the
    pools are large, so the estimates are tight.
    """
    return [pooled_mle(family, PooledData(target=pool)).theta for pool in pools]


@dataclass(frozen=True)
class TrainOptions:
    epochs: int = 60
    patience: int = 5
    learning_rate: float = 1.0
    steps_per_epoch: int = 40
    step_number: int = 1000
    fisher_mode: FisherMode = FisherMode.PER_SAMPLE
    #: plan from target-batch gradients only instead of the mixed training batch
    target_only_fisher: bool = False
    init_scale: float = 0.01


@dataclass
class EpochRecord:
    epoch: int
    plan: TransferPlan | None
    train_loss: float
    val_accuracy: float
    samples_used: int
    source_indices: tuple | None = None


@dataclass
class TrainRun:
    strategy: Strategy
    seed: int
    records: list[EpochRecord]
    best_epoch: int
    best_val_accuracy: float
    test_accuracy_at_best: float
    total_samples: int
    planner_calls: int


def _accuracy(weights, data) -> float:
    feats, labels = data
    pred = np.argmax(feats @ weights.T, axis=1)
    return float((pred == labels).mean())


def _concat(parts):
    feats = np.concatenate([p[0] for p in parts], axis=0)
    labels = np.concatenate([p[1] for p in parts])
    return feats, labels


class _Loop:
    """Shared epoch loop; strategies differ only in how each epoch's data is built."""

    def __init__(self, suite: TaskSuite, options: TrainOptions, strategy: Strategy,
                 pretrained: list[np.ndarray] | None = None):
        self.suite = suite
        self.options = options
        self.strategy = strategy
        d = suite.family.dim
        init_rng = np.random.default_rng([suite.seed, _TAG_INIT])
        flat = options.init_scale * ndtri(open_uniform(init_rng, d))
        self.weights = flat.reshape(suite.family.num_classes, suite.family.feature_dim)
        self.resample_rng = np.random.default_rng(
            [suite.seed, _TAG_RESAMPLE, list(Strategy).index(strategy)]
        )
        self.source_params = pretrained
        self.planner_calls = 0

    # --- planning -----------------------------------------------------

    def ensure_pretrained(self):
        if self.source_params is None:
            self.source_params = pretrain_sources(self.suite.family, self.suite.pools)

    def plan(self, batch) -> TransferPlan:
        """Replan from the Fisher quadratic form of the given training batch."""
        self.ensure_pretrained()
        suite, options = self.suite, self.options
        theta = self.weights.ravel()
        fisher_batch = suite.train if options.target_only_fisher else batch
        fisher = empirical_fisher(suite.family, theta, fisher_batch, options.fisher_mode)
        gram = offset_gram(fisher, theta, self.source_params)
        problem = TransferProblem(
            n0=suite.n0,
            dim=suite.family.dim,
            caps=suite.caps,
            gram=gram,
            step_number=options.step_number,
        )
        self.planner_calls += 1
        return plan_transfer(problem)

    def resample(self, plan: TransferPlan):
        """Fresh uniform without-replacement draw of each planned source subset."""
        indices = tuple(
            np.sort(self.resample_rng.permutation(pool[1].shape[0])[:n])
            for pool, n in zip(self.suite.pools, plan.n_star)
        )
        parts = [self.suite.train] + [
            (pool[0][idx], pool[1][idx])
            for pool, idx in zip(self.suite.pools, indices)
            if idx.size
        ]
        return _concat(parts) if len(parts) > 1 else self.suite.train, indices

    # --- one epoch of gradient descent ---------------------------------

    def run_epoch(self, batch) -> float:
        """Full-batch gradient descent on the mean negative log-likelihood;
        returns that loss after the last step."""
        family = self.suite.family
        feats, labels = batch
        n = labels.shape[0]
        for _ in range(self.options.steps_per_epoch):
            gradient = -(family.residual(self.weights, batch).T @ feats) / n
            self.weights -= self.options.learning_rate * gradient
        logp = family.class_log_probs(self.weights, feats)
        return float(-logp[np.arange(n), labels].mean())


def train(suite: TaskSuite, strategy: Strategy, options: TrainOptions = TrainOptions(),
          pretrained: list[np.ndarray] | None = None) -> TrainRun:
    """Train one strategy on ``suite``; see :class:`Strategy` for the roster.

    Dynamic replanning trains epoch zero on the target alone, then plans,
    resamples and trains every epoch. ``pretrained`` holds the source fits of
    :func:`pretrain_sources`; they are fitted on first use when not given.
    """
    loop = _Loop(suite, options, strategy, pretrained)
    target = suite.train

    if strategy is Strategy.ALL_SOURCES:
        fixed_batch = _concat([target] + list(suite.pools))
    else:
        fixed_batch = None

    first_batch = fixed_batch if strategy is Strategy.ALL_SOURCES else target

    # number of warm-up (target-only) epochs before the one static plan;
    # exact = until the validation plateau, over = three times that
    static_warmup = 1 if strategy is Strategy.STATIC_UNDER else None
    plateau_seen: int | None = None

    records: list[EpochRecord] = []
    best_epoch, best_acc = 0, -1.0
    best_weights = loop.weights.copy()
    anchor = 0  # early stopping reference: best epoch, or the static plan epoch
    batch, plan, indices = first_batch, None, None

    for epoch in range(options.epochs):
        train_loss = loop.run_epoch(batch)
        val_acc = _accuracy(loop.weights, suite.val)
        records.append(EpochRecord(
            epoch=epoch,
            plan=plan,
            train_loss=train_loss,
            val_accuracy=val_acc,
            samples_used=int(batch[1].shape[0]),
            source_indices=indices,
        ))
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            best_weights = loop.weights.copy()

        plateaued = epoch - max(best_epoch, anchor) >= options.patience
        if strategy in (Strategy.STATIC_EXACT, Strategy.STATIC_OVER):
            if plateaued and plateau_seen is None and plan is None:
                plateau_seen = epoch + 1
                static_warmup = (
                    plateau_seen if strategy is Strategy.STATIC_EXACT else 3 * plateau_seen
                )
        if plateaued and not (static_warmup is not None and plan is None):
            break

        # assemble the next epoch's dataset
        if strategy is Strategy.TARGET_ONLY:
            batch = target
        elif strategy is Strategy.ALL_SOURCES:
            batch = fixed_batch
        elif strategy is Strategy.DYNAMIC:
            plan = loop.plan(batch)
            batch, indices = loop.resample(plan)
        elif static_warmup is not None and plan is None and epoch + 1 >= static_warmup:
            plan = loop.plan(batch)
            batch, indices = loop.resample(plan)
            anchor = max(anchor, epoch + 1)  # give the new dataset a full window

    total = int(sum(r.samples_used for r in records))
    return TrainRun(
        strategy=strategy,
        seed=suite.seed,
        records=records,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
        test_accuracy_at_best=_accuracy(best_weights, suite.test),
        total_samples=total,
        planner_calls=loop.planner_calls,
    )


@dataclass
class ComparisonRow:
    strategy: Strategy
    seeds: tuple
    accuracy_mean: float
    accuracy_std: float
    samples_mean: float
    samples_std: float
    planner_calls_mean: float


def compare_strategies(config: SuiteConfig, strategies, seeds,
                       options: TrainOptions = TrainOptions()):
    """Run every (strategy, seed) pair on freshly generated suites.

    Returns the aggregate table and the underlying runs keyed by
    ``(strategy, seed)``. Source pretraining is shared across strategies
    within a seed since it only depends on the suite.
    """
    runs: dict[tuple[Strategy, int], TrainRun] = {}
    for seed in seeds:
        suite = generate_suite(config, seed)
        pretrained = pretrain_sources(suite.family, suite.pools)
        for strategy in strategies:
            runs[(strategy, seed)] = train(suite, strategy, options, pretrained)

    rows = []
    for strategy in strategies:
        acc = np.array([runs[(strategy, s)].test_accuracy_at_best for s in seeds])
        samples = np.array([runs[(strategy, s)].total_samples for s in seeds], dtype=float)
        calls = np.array([runs[(strategy, s)].planner_calls for s in seeds], dtype=float)
        rows.append(ComparisonRow(
            strategy=strategy,
            seeds=tuple(seeds),
            accuracy_mean=float(acc.mean()),
            accuracy_std=float(acc.std(ddof=1)) if len(seeds) > 1 else 0.0,
            samples_mean=float(samples.mean()),
            samples_std=float(samples.std(ddof=1)) if len(seeds) > 1 else 0.0,
            planner_calls_mean=float(calls.mean()),
        ))
    return rows, runs
