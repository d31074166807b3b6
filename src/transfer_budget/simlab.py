"""Monte-Carlo verification lab for the transfer-planning formulas.

Empirically measures the expected KL divergence between the data-generating
model and the pooled-MLE fit, brute-forces optimal transfer quantities on a
grid, and reproduces the negative-transfer phenomenon on analytic families.

Every trial draws its randomness from a stream derived from ``(seed, trial)``
only, so results are bit-identical for any worker count, and sweeps that share
a seed reuse the same underlying draws across grid points (common random
numbers), which stabilizes empirical argmin comparisons.

Trials run in blocks, the lab's one unit of work: each trial's uniform draws
fill one row of a :class:`~transfer_budget.families.UniformBlock`, and
``Family.sample``, ``pooled_mle`` and ``Family.kl`` then run once per block on
all of its trials. The blocks run in process, or are dealt to worker
processes in contiguous runs. A sweep draws each trial once, at the largest
quantity, and evaluates every grid point on a prefix of that draw. A family
without a closed-form MLE (softmax regression) is refused with the other
input errors.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

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
    _single_source_curve,
    optimal_single,
    plan_transfer,
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


def _one_block(family: Family, thetas, counts, pooled, seed: int, lo: int, hi: int) -> np.ndarray:
    """KL values of trials ``lo..hi-1``, one row per pooled size.

    Trial ``r`` draws ``counts`` (target first, then the sources in order)
    from ``default_rng([seed, r])``; row ``p`` fits the first ``pooled[p]``
    of those observations. Overflow is silent: a pooled sum that overflows
    leaves a non-finite fit, which the KL's parameter check refuses with
    ``InvalidParameterError``.
    """
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
    drawn = np.concatenate(drawn, axis=1)
    kls = np.empty((len(pooled), rows))
    with np.errstate(over="ignore"):
        for p, m in enumerate(pooled):
            fit = pooled_mle(family, PooledData(target=drawn[:, :m], batched=True))
            kls[p] = family.kl(thetas[0], fit.theta)
    return kls


def _run_trials(family: Family, theta0, sources, n0: int, pooled, trials: int,
                seed: int, workers: int) -> np.ndarray:
    """Validate the inputs, then KL values for every pooled size and trial.

    ``sources`` is a list of ``(theta_i, n_i)`` pairs, drawn in that order
    after the target; ``pooled`` lists pooled sample counts, each a prefix of
    the full draw that cuts only the last source. The trials are cut into
    blocks of at most ``BLOCK_ELEMENTS`` uniforms (at least one trial each),
    run in process or dealt to ``workers`` processes in contiguous runs of
    blocks; a trial's values depend on its own stream alone, so the
    ``(len(pooled), trials)`` result is the same for any ``workers``.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}")
    if not family.has_closed_form_mle:
        raise ValueError(f"{type(family).__name__} has no closed-form MLE to run trials with")
    counts = [int(n0)] + [int(n) for _, n in sources]
    if min(counts) < 0:
        raise ValueError("sample counts must be nonnegative")
    theta0 = family.check_theta(theta0)
    source_thetas = [family.check_theta(t) for t, _ in sources]
    if min(pooled) < 1:
        raise InsufficientDataError("pooled MLE needs at least one sample")

    rows = max(1, BLOCK_ELEMENTS // (sum(counts) * family.draw_width))
    starts = range(0, trials, rows)
    stops = [min(lo + rows, trials) for lo in starts]
    block = partial(_one_block, family, [theta0, *source_thetas], counts, pooled, seed)
    out = np.empty((len(pooled), trials))

    def fill(results):
        for lo, hi, kls in zip(starts, stops, results):
            out[:, lo:hi] = kls
        return out

    if workers < 2 or len(starts) == 1:
        return fill(map(block, starts, stops))
    with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
        return fill(pool.map(block, starts, stops, chunksize=-(-len(starts) // workers)))


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
    means = np.array([r.mean_kl for r in reports])
    return SweepResult(
        quantities=quantities,
        reports=reports,
        empirical_argmin=int(quantities[int(np.argmin(means))]),
        theoretical_argmin=optimal_single(n0, cap, t).n_star,
        theoretical_curve=_single_source_curve(n0, cap, t, quantities, family.dim),
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
