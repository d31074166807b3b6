"""Dynamic-training contracts: suites, plans, resampling, accounting, baselines."""

import numpy as np
import pytest

from transfer_budget.estimation import PooledData, pooled_mle
from transfer_budget.families import GaussianMean
from transfer_budget.trainer import (
    Strategy,
    SuiteConfig,
    TaskSuite,
    TrainOptions,
    compare_strategies,
    generate_suite,
    pretrain_sources,
    train,
)

FAST = TrainOptions(epochs=20, steps_per_epoch=15)


# reference softmax step and loss, kept as the trainer had them before it used
# the family's softmax core
def _log_softmax(weights, feats):
    logits = feats @ weights.T
    logits -= logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def _nll(weights, feats, labels):
    logp = _log_softmax(weights, feats)
    return float(-logp[np.arange(labels.shape[0]), labels].mean())


def _nll_gradient(weights, feats, labels):
    resid = np.exp(_log_softmax(weights, feats))
    resid[np.arange(labels.shape[0]), labels] -= 1.0
    return resid.T @ feats / labels.shape[0]


def small_config(**kw):
    base = dict(feature_dim=3, num_classes=3, shots=6, deltas=(0.0, 1.0),
                pool_sizes=(300, 300), test_size=500, prior_scale=1.0)
    base.update(kw)
    return SuiteConfig(**base)


class TestSuiteGeneration:
    def test_deterministic(self):
        a = generate_suite(small_config(), 7)
        b = generate_suite(small_config(), 7)
        assert a.theta_target.tobytes() == b.theta_target.tobytes()
        assert a.train[0].tobytes() == b.train[0].tobytes()
        assert a.pools[1][1].tobytes() == b.pools[1][1].tobytes()

    def test_zero_delta_source_shares_the_target_parameter(self):
        suite = generate_suite(small_config(deltas=(0.0, 0.0), pool_sizes=(50, 50)), 3)
        for theta in suite.theta_sources:
            np.testing.assert_array_equal(theta, suite.theta_target)

    def test_shift_scales_with_delta(self):
        suite = generate_suite(small_config(deltas=(0.0, 5.0), pool_sizes=(50, 50)), 4)
        gaps = [np.linalg.norm(t - suite.theta_target) for t in suite.theta_sources]
        assert gaps[0] == 0.0
        assert gaps[1] == pytest.approx(5.0, abs=1e-12)

    def test_shot_protocol_and_validation_split(self):
        cfg = small_config(shots=10)
        suite = generate_suite(cfg, 5)
        # 20% of ten shots reserved per class
        assert np.bincount(suite.train[1], minlength=3).tolist() == [8, 8, 8]
        assert np.bincount(suite.val[1], minlength=3).tolist() == [2, 2, 2]

        few = generate_suite(small_config(shots=1, val_size=40), 5)
        assert np.bincount(few.train[1], minlength=3).tolist() == [1, 1, 1]
        assert few.val[1].shape[0] == 40  # separately drawn validation set

    def test_pool_sizes(self):
        suite = generate_suite(small_config(), 6)
        assert [p[1].shape[0] for p in suite.pools] == [300, 300]


class TestPretrainSources:
    def test_gaussian_pools_recovered(self):
        g = GaussianMean(sigma=1.0)
        pool = g.sample(np.array([2.0]), np.random.default_rng(1), 100_000)
        theta, = pretrain_sources(g, [pool])
        assert abs(theta[0] - 2.0) < 0.01

    def test_identical_generators_give_close_fits(self):
        suite = generate_suite(small_config(deltas=(0.0, 0.0)), 8)
        fits = pretrain_sources(suite.family, suite.pools)
        gap = np.linalg.norm(fits[0] - fits[1])
        truth_gap = max(np.linalg.norm(f - suite.theta_target) for f in fits)
        assert gap <= 2.5 * truth_gap  # both are estimates of the same parameter

    def test_softmax_fit_maximizes_pool_likelihood(self):
        suite = generate_suite(small_config(), 9)
        fit = pretrain_sources(suite.family, suite.pools[:1])[0]
        direct = pooled_mle(suite.family, PooledData(target=suite.pools[0]))
        np.testing.assert_allclose(fit, direct.theta, atol=1e-10)


class TestDynamic:
    def test_first_epoch_is_target_only_then_plans_every_epoch(self):
        run = train(generate_suite(small_config(), 11), Strategy.DYNAMIC, FAST)
        assert run.records[0].plan is None
        assert run.records[0].samples_used == generate_suite(small_config(), 11).n0
        for record in run.records[1:]:
            assert record.plan is not None
            assert record.samples_used == run.records[0].samples_used + record.plan.n_star.sum()
        assert run.planner_calls == len(run.records) - 1

    def test_plans_stay_feasible(self):
        suite = generate_suite(small_config(), 12)
        run = train(suite, Strategy.DYNAMIC, FAST)
        for record in run.records[1:]:
            assert (record.plan.n_star <= suite.caps).all()
            assert (record.plan.n_star >= 0).all()

    def test_deterministic_replay(self):
        suite = generate_suite(small_config(), 13)
        a = train(suite, Strategy.DYNAMIC, FAST)
        b = train(suite, Strategy.DYNAMIC, FAST)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.train_loss == rb.train_loss
            assert ra.val_accuracy == rb.val_accuracy
            assert ra.samples_used == rb.samples_used
        assert a.test_accuracy_at_best == b.test_accuracy_at_best

    def test_resampled_subsets_are_fresh_each_epoch(self):
        """The same plan drawn twice selects different source subsets."""
        from transfer_budget.planner import TransferPlan
        from transfer_budget.trainer import _Loop

        suite = generate_suite(small_config(), 14)
        loop = _Loop(suite, FAST, Strategy.DYNAMIC,
                     pretrained=[t.copy() for t in suite.theta_sources])
        plan = TransferPlan(
            s_star=150, alpha_star=np.array([2 / 3, 1 / 3]),
            n_star=np.array([100, 50]), predicted_proxy=1.0,
            continuous_proxy=1.0, grid_step=1.0,
        )
        _, first = loop.resample(plan)
        _, second = loop.resample(plan)
        for i, n in enumerate(plan.n_star):
            assert first[i].shape[0] == second[i].shape[0] == n
            assert np.unique(first[i]).shape[0] == n  # without replacement
            assert first[i].tolist() != second[i].tolist()

    def test_partial_draws_never_repeat_within_a_run(self):
        suite = generate_suite(small_config(deltas=(1.5, 2.5)), 14)
        run = train(suite, Strategy.DYNAMIC,
                    TrainOptions(epochs=11, patience=11, steps_per_epoch=10))
        for i in range(2):
            seen = [
                tuple(r.source_indices[i])
                for r in run.records[1:]
                if r.source_indices is not None and 0 < r.plan.n_star[i] < suite.caps[i]
            ]
            assert len(seen) == len(set(seen))

    def test_identical_tasks_transfer_nearly_everything(self):
        """All-zero shifts: the converged plan requests almost the full pools."""
        suite = generate_suite(small_config(deltas=(0.0, 0.0), shots=10), 15)
        run = train(suite, Strategy.DYNAMIC, FAST)
        final_plan = run.records[-1].plan or run.records[-2].plan
        assert final_plan.n_star.sum() >= 0.9 * suite.caps.sum()

    def test_identical_tasks_balance_proportions(self):
        suite = generate_suite(small_config(deltas=(0.0, 0.0, 0.0), pool_sizes=(300,) * 3), 16)
        run = train(suite, Strategy.DYNAMIC, FAST)
        final_plan = run.records[-1].plan
        assert np.abs(final_plan.alpha_star - 1 / 3).max() <= 0.1

    def test_shifted_source_is_downweighted(self):
        suite = generate_suite(small_config(deltas=(0.0, 4.0), shots=10), 17)
        run = train(suite, Strategy.DYNAMIC, FAST)
        plan = run.records[-1].plan
        caps = suite.caps
        assert plan.n_star[1] / caps[1] < plan.n_star[0] / caps[0]


class TestBaselines:
    def test_all_sources_accounting_identity(self):
        suite = generate_suite(small_config(), 18)
        run = train(suite, Strategy.ALL_SOURCES, FAST)
        expected = suite.n0 + int(suite.caps.sum())
        assert all(r.samples_used == expected for r in run.records)
        assert run.total_samples == expected * len(run.records)

    def test_target_only_never_touches_sources(self):
        suite = generate_suite(small_config(), 19)
        run = train(suite, Strategy.TARGET_ONLY, FAST)
        assert all(r.samples_used == suite.n0 for r in run.records)
        assert run.planner_calls == 0

    def test_static_plans_exactly_once(self):
        suite = generate_suite(small_config(), 20)
        for strategy in (Strategy.STATIC_UNDER, Strategy.STATIC_EXACT, Strategy.STATIC_OVER):
            run = train(suite, strategy, TrainOptions(epochs=30, steps_per_epoch=10))
            assert run.planner_calls == 1
            plans = [r.plan for r in run.records if r.plan is not None]
            assert len(set(id(p) for p in plans)) == 1

    def test_static_under_plans_after_one_epoch(self):
        suite = generate_suite(small_config(), 21)
        run = train(suite, Strategy.STATIC_UNDER, FAST)
        assert run.records[0].plan is None
        assert run.records[1].plan is not None

    def test_static_over_warms_up_three_times_longer(self):
        suite = generate_suite(small_config(), 22)
        options = TrainOptions(epochs=40, steps_per_epoch=10)
        exact = train(suite, Strategy.STATIC_EXACT, options)
        over = train(suite, Strategy.STATIC_OVER, options)

        def warmup_epochs(run):
            return next(r.epoch for r in run.records if r.plan is not None)

        if exact.planner_calls and over.planner_calls:
            assert warmup_epochs(over) == 3 * warmup_epochs(exact)

    def test_total_samples_recomputable_from_the_log(self):
        suite = generate_suite(small_config(), 23)
        for strategy in (Strategy.TARGET_ONLY, Strategy.ALL_SOURCES, Strategy.STATIC_EXACT):
            run = train(suite, strategy, FAST)
            assert run.total_samples == sum(r.samples_used for r in run.records)

    def test_pooling_identical_data_beats_one_shot_target_only(self):
        cfg = small_config(shots=1, deltas=(0.0, 0.0), val_size=60)
        suite = generate_suite(cfg, 24)
        opts = TrainOptions(epochs=15, steps_per_epoch=15)
        target_only = train(suite, Strategy.TARGET_ONLY, opts)
        pooled = train(suite, Strategy.ALL_SOURCES, opts)
        assert pooled.test_accuracy_at_best > target_only.test_accuracy_at_best


class TestSoftmaxStep:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_epoch_is_bit_equal_to_the_reference(self, seed):
        from transfer_budget.trainer import _Loop

        suite = generate_suite(small_config(), seed)
        options = TrainOptions(steps_per_epoch=7, learning_rate=0.8)
        loop = _Loop(suite, options, Strategy.TARGET_ONLY)
        pool = suite.pools[seed % 2]
        batch = (np.concatenate([suite.train[0], pool[0][:50 * seed]]),
                 np.concatenate([suite.train[1], pool[1][:50 * seed]]))
        weights = loop.weights.copy()
        loss = loop.run_epoch(batch)
        for _ in range(options.steps_per_epoch):
            weights -= options.learning_rate * _nll_gradient(weights, *batch)
        assert loop.weights.tobytes() == weights.tobytes()
        assert loss == _nll(weights, *batch)


class TestEarlyStopping:
    def test_halts_exactly_patience_epochs_after_the_best(self):
        options = TrainOptions(epochs=60, patience=4, steps_per_epoch=10)
        for strategy in (Strategy.TARGET_ONLY, Strategy.ALL_SOURCES, Strategy.DYNAMIC):
            run = train(generate_suite(small_config(), 25), strategy, options)
            last = run.records[-1].epoch
            if last < options.epochs - 1:  # stopped early, not by the cap
                assert last - run.best_epoch == options.patience

    def test_epoch_cap_respected(self):
        run = train(generate_suite(small_config(), 26), Strategy.TARGET_ONLY,
                    TrainOptions(epochs=3, steps_per_epoch=5))
        assert len(run.records) <= 3


class TestCompare:
    def test_single_cell_matches_the_underlying_run(self):
        cfg = small_config()
        rows, runs = compare_strategies(cfg, [Strategy.TARGET_ONLY], [31], FAST)
        row = rows[0]
        run = runs[(Strategy.TARGET_ONLY, 31)]
        assert row.accuracy_mean == run.test_accuracy_at_best
        assert row.samples_mean == run.total_samples
        assert row.accuracy_std == 0.0

    def test_aggregates_over_seeds(self):
        rows, runs = compare_strategies(
            small_config(), [Strategy.TARGET_ONLY, Strategy.ALL_SOURCES], [1, 2, 3], FAST
        )
        assert len(rows) == 2 and len(runs) == 6
        for row in rows:
            accs = [runs[(row.strategy, s)].test_accuracy_at_best for s in (1, 2, 3)]
            assert row.accuracy_mean == pytest.approx(np.mean(accs))

    def test_dynamic_never_outconsumes_all_sources_under_large_shift(self):
        """With a heavily shifted source the plans cap below the full pools,
        so dynamic uses fewer samples than pooling everything, on every seed."""
        cfg = small_config(deltas=(0.0, 3.0), shots=10)
        _, runs = compare_strategies(
            cfg, [Strategy.DYNAMIC, Strategy.ALL_SOURCES], [1, 2, 3], FAST
        )
        for seed in (1, 2, 3):
            dynamic = runs[(Strategy.DYNAMIC, seed)].total_samples
            pooled = runs[(Strategy.ALL_SOURCES, seed)].total_samples
            assert dynamic <= pooled
