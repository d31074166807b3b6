"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings. Several criteria are statistical gates backed by
Monte-Carlo runs with pinned seeds; the first criterion allows itself a single
fresh-seed retry, as specified, before counting as failed.
"""

import json
import time

import numpy as np
import pytest

from transfer_budget.cli import EXIT_OK, main
from transfer_budget.estimation import FisherMode, empirical_fisher, offset_gram
from transfer_budget.families import BernoulliLogit, GaussianMean, SoftmaxRegression
from transfer_budget.planner import (
    Regime,
    TransferProblem,
    optimal_single,
    plan_transfer,
    proxy_derivative,
    proxy_value,
    regime_curve,
    solve_alpha_qp,
)
from transfer_budget.simlab import estimate_expected_kl, negative_transfer_table, sweep_n1
from transfer_budget.trainer import Strategy, SuiteConfig, TrainOptions, compare_strategies

GAUSSIAN = GaussianMean(sigma=1.0)
ZERO = np.array([0.0])


def report(number, name, elapsed, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s {detail}")


class TestCriterion1:
    def _run_once(self, master_seed):
        """40 configs spanning the stated ranges; count 3-sigma agreements."""
        rng = np.random.default_rng(master_seed)
        agreements = 0
        for index in range(40):
            n0 = int(rng.integers(25, 401))
            n1 = int(rng.integers(0, 4 * n0 + 1))
            dtheta = float(rng.choice([0.0, 0.05, 0.1, 0.3]))
            t = dtheta ** 2
            trial = estimate_expected_kl(
                GAUSSIAN, ZERO, [(np.array([dtheta]), n1)],
                n0, trials=20_000, seed=int(master_seed + 1000 + index),
            )
            expected = proxy_value(n0, n1, t)
            if abs(trial.mean_kl - expected) <= 3 * trial.std_err:
                agreements += 1
        return agreements

    def test_gaussian_leading_order_formula_is_exact(self):
        """The leading-order proxy equals the exact finite-sample expected KL
        for Gaussian means: >= 95% of 40 seeded configs agree within 3 sigma,
        with one fresh-seed retry allowed."""
        start = time.perf_counter()
        agreements = self._run_once(20260810)
        if agreements < 38:
            agreements = self._run_once(20260811)
        elapsed = time.perf_counter() - start
        assert agreements >= 38
        assert elapsed < 120
        report(1, "Gaussian exactness of the error proxy", elapsed, f"{agreements}/40 within 3 sigma")


class TestCriterion2:
    def test_closed_form_rule_against_monte_carlo_brute_force(self):
        """Interior regime: brute-forced argmin lands within +-20 of the
        closed form's 100. Monotone regime (n0 * t = 0.4): argmin is the cap."""
        start = time.perf_counter()
        interior = sweep_n1(
            GAUSSIAN, ZERO, np.array([0.1]), n0=100, cap=1000, grid_step=10,
            trials=20_000, seed=42,
        )
        assert interior.theoretical_argmin == 100
        assert abs(interior.empirical_argmin - 100) <= 20

        monotone = sweep_n1(
            GAUSSIAN, ZERO, np.array([np.sqrt(0.004)]), n0=100, cap=500,
            grid_step=50, trials=20_000, seed=43,
        )
        assert monotone.theoretical_argmin == 500
        assert monotone.empirical_argmin == 500
        elapsed = time.perf_counter() - start
        assert elapsed < 300
        report(2, "closed-form rule vs Monte-Carlo brute force", elapsed,
               f"interior argmin {interior.empirical_argmin}, monotone argmin {monotone.empirical_argmin}")


class TestCriterion3:
    def test_regime_shapes(self):
        """Monotone below the 0.5 boundary with strictly decreasing values;
        interior minimum above it with a vanishing derivative at the dip."""
        start = time.perf_counter()
        for n0, t, cap in [(100, 0.004, 1000), (100, 0.005, 800), (250, 0.0, 600)]:
            assert n0 * t <= 0.5
            curve = regime_curve(n0, cap, t, 101)
            assert curve.regime is Regime.MONOTONE_DECREASING
            assert (np.diff(curve.values) < 0).all()

        for n0, t in [(100, 0.01), (100, 0.02), (400, 0.01), (50, 1.3)]:
            assert n0 * t > 0.5
            curve = regime_curve(n0, 2000, t, 101)
            assert curve.regime is Regime.INTERIOR_MINIMUM
            stationary = n0 / (2 * n0 * t - 1)
            assert curve.interior == pytest.approx(stationary, rel=1e-12)
            assert abs(proxy_derivative(n0, stationary, t)) < 1e-10
        elapsed = time.perf_counter() - start
        report(3, "proxy regime shapes", elapsed)


class TestCriterion4:
    def test_qp_matches_exhaustive_grid(self):
        """50 seeded K=3 instances: QP objective within 1e-6 of a 1e-3 grid,
        feasibility residuals at 1e-12."""
        start = time.perf_counter()
        rng = np.random.default_rng(777)
        res = 0.001
        axis = np.arange(0.0, 1.0 + res / 2, res)
        a1, a2 = np.meshgrid(axis, axis, indexing="ij")
        a3 = 1.0 - a1 - a2
        keep = a3 >= -1e-12
        simplex = np.stack([a1[keep], a2[keep], np.maximum(a3[keep], 0.0)], axis=1)

        for _ in range(50):
            a = rng.normal(size=(3, 3))
            gram = a @ a.T
            gram /= np.abs(gram).max()
            caps = rng.integers(1, 2000, size=3)
            s = int(rng.integers(1, caps.sum() + 1))

            alpha = solve_alpha_qp(gram, s, caps)
            assert abs(alpha.sum() - 1.0) <= 1e-12
            assert (alpha >= -1e-12).all()
            assert (alpha - caps / s <= 1e-12).all()

            upper = np.minimum(caps / s, 1.0)
            feasible = simplex[(simplex <= upper + 1e-12).all(axis=1)]
            grid_best = np.einsum("gi,ij,gj->g", feasible, gram, feasible).min()
            assert alpha @ gram @ alpha <= grid_best + 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        report(4, "capped-simplex QP vs exhaustive grid", elapsed)


class TestCriterion5:
    def test_grid_planner_reduces_to_the_closed_form(self):
        """K=1: the grid planner lands within one grid step plus one rounding
        unit of the closed-form optimum, over 100 seeded instances."""
        start = time.perf_counter()
        rng = np.random.default_rng(888)
        for _ in range(100):
            n0 = int(rng.integers(10, 500))
            cap = int(rng.integers(1, 2001))
            t = float(rng.uniform(0.0, 0.1))
            plan = plan_transfer(TransferProblem(n0=n0, dim=1, caps=[cap], gram=[[t]]))
            single = optimal_single(n0, cap, t)
            assert abs(plan.n_star[0] - single.n_star) <= cap / 1000 + 1
        elapsed = time.perf_counter() - start
        report(5, "multi-source planner reduces to the single-source rule", elapsed)


class TestCriterion6:
    def test_integer_optimality_of_the_closed_form(self):
        """The closed-form quantity beats every integer in [0, cap] for 200
        random triples; zero violations."""
        start = time.perf_counter()
        rng = np.random.default_rng(999)
        violations = 0
        for _ in range(200):
            n0 = int(rng.integers(1, 501))
            cap = int(rng.integers(1, 2001))
            t = float(rng.uniform(0.0, 0.1))
            plan = optimal_single(n0, cap, t)
            values = proxy_value(n0, np.arange(cap + 1), t)
            if plan.n_star != int(np.argmin(values)):
                violations += 1
        assert violations == 0
        elapsed = time.perf_counter() - start
        report(6, "integer optimality of the closed-form rule", elapsed)


class TestCriterion7:
    def test_fisher_estimator_convergence_and_accumulator(self):
        """Per-sample Fisher within 2% of the closed form at 1e5 draws for ten
        random parameters per family; K x K accumulator matches the dense path
        to 1e-10 at d=20, K=3."""
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        for family in (GaussianMean(sigma=1.0), BernoulliLogit()):
            for _ in range(10):
                theta = rng.normal(size=family.dim)
                draws = family.sample(theta, rng, 100_000)
                estimate = empirical_fisher(family, theta, draws, FisherMode.PER_SAMPLE)
                np.testing.assert_allclose(
                    estimate.dense(), family.fisher(theta), rtol=0.02
                )

        sm = SoftmaxRegression(feature_dim=5, num_classes=4)  # d = 20
        theta = rng.normal(size=sm.dim) * 0.4
        estimate = empirical_fisher(sm, theta, sm.sample(theta, rng, 5000))
        sources = [theta + rng.normal(size=sm.dim) * 0.3 for _ in range(3)]
        gram = offset_gram(estimate, theta, sources)
        u = np.stack([s - theta for s in sources], axis=1)
        dense = u.T @ estimate.dense() @ u
        np.testing.assert_allclose(gram, 0.5 * (dense + dense.T), atol=1e-10)
        elapsed = time.perf_counter() - start
        report(7, "empirical Fisher convergence and accumulator parity", elapsed)


class TestCriterion8:
    def test_negative_transfer_phenomenon(self):
        """A unit-shift source pooled wholesale hurts (3-sigma at n0=400) while
        the planned quantities track the better of the two extremes."""
        start = time.perf_counter()
        rows = negative_transfer_table(
            GAUSSIAN, ZERO, [(np.array([1.0]), 400)],
            n0_values=[100, 200, 400], trials=20_000, seed=314,
        )
        table = {(r.n0, r.strategy): r.report for r in rows}

        target, full = table[(400, "target_only")], table[(400, "all_sources")]
        separation = (full.mean_kl - target.mean_kl) / np.hypot(full.std_err, target.std_err)
        assert separation >= 3.0

        for n0 in (100, 200, 400):
            target = table[(n0, "target_only")]
            full = table[(n0, "all_sources")]
            planned = table[(n0, "planned")]
            floor = min(target.mean_kl, full.mean_kl)
            combined = np.hypot(planned.std_err, np.hypot(target.std_err, full.std_err))
            assert planned.mean_kl <= floor + 3 * combined
        elapsed = time.perf_counter() - start
        report(8, "negative-transfer phenomenon", elapsed,
               f"all-vs-target separation {separation:.1f} sigma")


class TestCriterion9:
    def test_dynamic_vs_static_ordering(self):
        """Ten-seed mixed-shift suite: dynamic >= static-exact >= target-only
        in mean accuracy, dynamic within one point of all-sources, and dynamic
        consumes at most 70% of all-sources' samples."""
        start = time.perf_counter()
        strategies = [Strategy.DYNAMIC, Strategy.STATIC_EXACT,
                      Strategy.TARGET_ONLY, Strategy.ALL_SOURCES]
        rows, _ = compare_strategies(
            SuiteConfig(shots=10, deltas=(0.0, 0.5, 2.0)),
            strategies, seeds=list(range(1, 11)), options=TrainOptions(),
        )
        by = {r.strategy: r for r in rows}
        dynamic = by[Strategy.DYNAMIC]
        static = by[Strategy.STATIC_EXACT]
        target = by[Strategy.TARGET_ONLY]
        pooled = by[Strategy.ALL_SOURCES]

        assert dynamic.accuracy_mean >= static.accuracy_mean >= target.accuracy_mean
        assert dynamic.accuracy_mean >= pooled.accuracy_mean - 0.01
        assert dynamic.samples_mean <= 0.70 * pooled.samples_mean
        elapsed = time.perf_counter() - start
        assert elapsed < 600
        report(
            9, "dynamic vs static ordering", elapsed,
            f"acc dyn={dynamic.accuracy_mean:.3f} static={static.accuracy_mean:.3f} "
            f"target={target.accuracy_mean:.3f} all={pooled.accuracy_mean:.3f}; "
            f"sample ratio {dynamic.samples_mean / pooled.samples_mean:.2f}",
        )


class TestCriterion10:
    CONFIGS = {
        "plan": {
            "seed": 3, "family": {"kind": "gaussian", "sigma": 1.0}, "n0": 100,
            "sources": [{"name": "a", "delta": 0.1, "cap": 1000},
                        {"name": "b", "delta": 0.3, "cap": 500}],
        },
        "curve": {
            "seed": 4, "family": {"kind": "gaussian"}, "n0": 100, "sources": [],
            "curve": {"t": 0.01, "cap": 1000, "grid_points": 101},
        },
        "verify": {
            "seed": 5, "family": {"kind": "gaussian"}, "n0": 50, "trials": 2000,
            "sources": [{"name": "s", "delta": 0.1, "cap": 150}],
            "verify": {"grid_step": 50},
        },
        "train": {
            "seed": 6,
            "trainer": {
                "feature_dim": 3, "num_classes": 3, "shots": 6,
                "deltas": [0.0, 1.5], "pool_sizes": [200, 200],
                "test_size": 400, "epochs": 8, "steps_per_epoch": 10,
                "strategies": ["dynamic", "static_exact"], "seeds": [1, 2],
            },
        },
    }

    def test_every_subcommand_is_byte_deterministic(self, tmp_path):
        """Each subcommand, run twice at workers=1 and workers=4, produces
        byte-identical output files in all four runs."""
        start = time.perf_counter()
        for command, cfg in self.CONFIGS.items():
            config_path = tmp_path / f"{command}.json"
            config_path.write_text(json.dumps(cfg))
            snapshots = []
            for workers in (1, 1, 4, 4):
                out = tmp_path / f"{command}-{len(snapshots)}"
                code = main([command, "--config", str(config_path),
                             "--out", str(out), "--workers", str(workers)])
                assert code == EXIT_OK
                files = sorted(out.rglob("*.csv"))
                assert files, f"{command} wrote no CSV output"
                snapshots.append({f.relative_to(out): f.read_bytes() for f in files})
            assert snapshots[0] == snapshots[1] == snapshots[2] == snapshots[3], command
        elapsed = time.perf_counter() - start
        report(10, "CLI byte determinism across reruns and worker counts", elapsed)
