"""Monte-Carlo verification lab for the transfer-planning formulas.

Empirically measures the expected KL divergence between the data-generating
model and the pooled-MLE fit, brute-forces optimal transfer quantities on a
grid, and reproduces the negative-transfer phenomenon on analytic families.

Every trial draws its randomness from a stream derived from ``(seed, trial)``
only, so results are bit-identical for any worker count, and sweeps that share
a seed reuse the same underlying draws across grid points (common random
numbers), which stabilizes empirical argmin comparisons.

Families with a closed-form MLE run trials in blocks: each trial's uniform
draws fill one row of a :class:`~transfer_budget.families.UniformBlock`, and
``Family.sample``, ``pooled_mle`` and ``Family.kl`` then run once per block on
all of its trials. A sweep draws each trial once, at the largest quantity, and
evaluates every grid point on a prefix of that draw. Softmax regression has no
closed form and refits trial by trial.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .estimation import (
    FisherMode,
    InsufficientDataError,
    PooledData,
    discrepancy,
    empirical_fisher,
    offset_gram,
    pooled_mle,
)
from .families import Family, UniformBlock, open_uniform
from .planner import (
    ProxyCurve,
    TransferProblem,
    optimal_single,
    plan_transfer,
    proxy_value,
)

__all__ = [
    "TrialReport",
    "SweepResult",
    "StrategyRow",
    "estimate_expected_kl",
    "sweep_n1",
    "negative_transfer_table",
]

MIN_TRIALS = 100

#: element count that bounds each working array of one trial block (256 KB of
#: float64); a block holds at least one trial, however large. Twice this
#: raised the benchmark's peak memory by about twice as much, for no speed.
BLOCK_ELEMENTS = 1 << 15


@dataclass
class TrialReport:
    """Monte-Carlo estimate of the expected KL of the pooled-MLE fit."""

    mean_kl: float
    std_err: float
    trials: int
    seed: int
    config: dict = field(default_factory=dict)
    #: False when the family's KL is itself a seeded approximation, in which
    #: case ``mean_kl`` carries that extra (small, fixed-seed) error on top of
    #: the reported Monte-Carlo standard error.
    kl_exact: bool = True


def _block_kls(family: Family, theta0, source_thetas, counts, pooled,
               seed: int, start: int, stop: int) -> np.ndarray:
    """Closed-form KL values, one row per pooled size, one column per trial.

    Trial ``r`` draws ``counts`` (target first, then the sources in order)
    from ``default_rng([seed, r])``; row ``p`` fits the first ``pooled[p]``
    of those observations.
    """
    rows = max(1, BLOCK_ELEMENTS // (sum(counts) * family.draw_width))
    out = np.empty((len(pooled), stop - start))
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        out[:, lo - start:hi - start] = _one_block(
            family, [theta0, *source_thetas], counts, pooled, seed, lo, hi)
    return out


def _one_block(family: Family, thetas, counts, pooled, seed: int, lo: int, hi: int) -> np.ndarray:
    """KL rows of trials ``lo..hi-1``."""
    rows = hi - lo
    u = np.empty((rows, sum(counts) * family.draw_width))
    for i, trial in enumerate(range(lo, hi)):
        u[i] = open_uniform(np.random.default_rng([seed, trial]), u.shape[1])
    block = UniformBlock(u)
    del u
    drawn = []
    for theta, n in zip(thetas, counts):
        x = family.sample(theta, block, rows * n)
        drawn.append(x.reshape(rows, n, *x.shape[1:]))
    del block
    kls = np.empty((len(pooled), rows))
    for p, m in enumerate(pooled):
        parts = []
        for x in drawn:
            parts.append(x[:, :m])
            m -= parts[-1].shape[1]
        fit = pooled_mle(family, PooledData(target=parts[0], sources=parts[1:], batched=True))
        kls[p] = family.kl(thetas[0], fit.theta)
    return kls


def _refit_kls(family: Family, theta0, source_thetas, counts, pooled,
               seed: int, start: int, stop: int) -> np.ndarray:
    """Per-trial refits of the whole pool, for families without a closed-form MLE.

    Trial ``r`` draws ``counts`` from ``default_rng([seed, r])``. Only
    :func:`sweep_n1` asks for several pooled sizes, and it needs a closed-form
    Fisher that these families lack, so ``pooled`` is the full pool.
    """
    assert list(pooled) == [sum(counts)]
    out = np.empty((1, stop - start))
    for i, trial in enumerate(range(start, stop)):
        rng = np.random.default_rng([seed, trial])
        target = family.sample(theta0, rng, counts[0])
        sources = [family.sample(theta, rng, n) for theta, n in zip(source_thetas, counts[1:])]
        fit = pooled_mle(family, PooledData(target=target, sources=sources))
        out[0, i] = family.kl(theta0, fit.theta)
    return out


def _trial_kls(args) -> np.ndarray:
    family = args[0]
    run = _block_kls if family.has_closed_form_mle else _refit_kls
    return run(*args)


def _run_trials(family: Family, theta0, sources, n0: int, pooled, trials: int,
                seed: int, workers: int) -> np.ndarray:
    """Validate the inputs, then KL values for every pooled size and trial.

    ``sources`` is a list of ``(theta_i, n_i)`` pairs, drawn in that order
    after the target; ``pooled`` lists pooled sample counts, each a prefix of
    the full draw that cuts only the last source. Workers receive contiguous
    trial ranges; a trial's values depend on its own stream alone, so the
    ``(len(pooled), trials)`` result is the same for any ``workers``.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}")
    counts = [int(n0)] + [int(n) for _, n in sources]
    if min(counts) < 0:
        raise ValueError("sample counts must be nonnegative")
    theta0 = family.check_theta(theta0)
    source_thetas = [family.check_theta(t) for t, _ in sources]
    if min(pooled) < 1:
        raise InsufficientDataError("pooled MLE needs at least one sample")

    bounds = np.linspace(0, trials, max(workers, 1) + 1).astype(int)
    jobs = [(family, theta0, source_thetas, counts, pooled, seed, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(jobs) == 1:
        return _trial_kls(jobs[0])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(_trial_kls, jobs)), axis=1)


def _report(family: Family, kls: np.ndarray, n0: int, counts, seed: int) -> TrialReport:
    trials = kls.shape[0]
    return TrialReport(
        mean_kl=float(kls.mean()),
        std_err=float(kls.std(ddof=1) / np.sqrt(trials)),
        trials=trials,
        seed=seed,
        config={
            "family": repr(family),
            "n0": n0,
            "counts": tuple(counts),
        },
        kl_exact=family.kl_is_exact,
    )


def estimate_expected_kl(family: Family, theta0, sources, n0: int, trials: int,
                         seed: int, workers: int = 1) -> TrialReport:
    """Estimate E[KL(true model || pooled-MLE fit)] over fresh datasets.

    ``sources`` is a list of ``(theta_i, n_i)`` pairs; each trial redraws the
    target and source samples from scratch and refits the pooled MLE (no warm
    starts, so trials stay independent). Trial ``r`` uses the random stream
    seeded by ``(seed, r)`` only; the per-trial KL values are aggregated in
    trial order, making the report invariant to ``workers``.
    """
    counts = [int(n) for _, n in sources]
    kls = _run_trials(family, theta0, sources, n0, [int(n0) + sum(counts)], trials, seed, workers)
    return _report(family, kls[0], n0, counts, seed)


@dataclass
class SweepResult:
    """Empirical KL curve over a transfer-quantity grid plus its predictions."""

    quantities: np.ndarray
    reports: list[TrialReport]
    empirical_argmin: int
    theoretical_argmin: int
    theoretical_curve: ProxyCurve

    @property
    def mean_kls(self) -> np.ndarray:
        return np.array([r.mean_kl for r in self.reports])


def sweep_n1(family: Family, theta0, theta1, n0: int, cap: int, grid_step: int,
             trials: int, seed: int, workers: int = 1) -> SweepResult:
    """Brute-force the optimal single-source quantity on a grid.

    Each grid point's report equals :func:`estimate_expected_kl` at that
    quantity with the same seed. Trial ``r``'s stream yields the target and
    then the source draws, so the source draws at a smaller quantity are a
    prefix of those at a larger one: for closed-form families each trial is
    drawn once, at the cap, and every grid point fits a prefix of that draw,
    so grid points are compared under common random numbers. The theory side
    of the result uses the family's closed-form Fisher information.
    """
    if grid_step < 1:
        raise ValueError("grid_step must be >= 1")
    grid = list(range(0, cap + 1, grid_step))
    if not grid or grid[-1] != cap:
        grid.append(cap)
    quantities = np.array(grid, dtype=np.int64)
    fisher = empirical_fisher(family, theta0, None, FisherMode.ANALYTIC)

    kls = _run_trials(family, theta0, [(theta1, cap)], n0,
                      [int(n0) + n for n in grid], trials, seed, workers)
    reports = [_report(family, row, n0, (n,), seed) for row, n in zip(kls, grid)]
    t = discrepancy(fisher, theta0, theta1)
    plan = optimal_single(n0, cap, t)
    curve = ProxyCurve(
        quantities=quantities,
        values=np.asarray(proxy_value(n0, quantities, t, family.dim)),
        regime=plan.regime,
        interior=plan.interior,
    )
    means = np.array([r.mean_kl for r in reports])
    return SweepResult(
        quantities=quantities,
        reports=reports,
        empirical_argmin=int(quantities[int(np.argmin(means))]),
        theoretical_argmin=plan.n_star,
        theoretical_curve=curve,
    )


@dataclass
class StrategyRow:
    """One (target size, strategy) cell of the negative-transfer comparison."""

    n0: int
    strategy: str
    counts: tuple
    report: TrialReport


def negative_transfer_table(family: Family, theta0, sources, n0_values, trials: int,
                            seed: int, workers: int = 1) -> list[StrategyRow]:
    """Compare target-only, all-sources and planned transfer across target sizes.

    ``sources`` is a list of ``(theta_i, cap_i)`` pairs. The planned strategy
    resolves per-source quantities with the grid planner driven by the
    family's closed-form Fisher information at the true target parameter.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    caps = np.array([c for _, c in sources], dtype=np.int64)
    thetas = [np.asarray(t, dtype=np.float64) for t, _ in sources]
    fisher = empirical_fisher(family, theta0, None, FisherMode.ANALYTIC)
    gram = offset_gram(fisher, theta0, thetas)

    rows: list[StrategyRow] = []
    for n0 in n0_values:
        n0 = int(n0)
        plan = plan_transfer(
            TransferProblem(n0=n0, dim=family.dim, caps=caps, gram=gram)
        )
        for strategy, counts in (
            ("target_only", np.zeros(len(sources), dtype=np.int64)),
            ("all_sources", caps),
            ("planned", plan.n_star),
        ):
            report = estimate_expected_kl(
                family, theta0,
                [(theta, int(n)) for theta, n in zip(thetas, counts)],
                n0, trials, seed, workers,
            )
            rows.append(StrategyRow(
                n0=n0, strategy=strategy, counts=tuple(int(c) for c in counts),
                report=report,
            ))
    return rows
