"""Pooled MLE, empirical Fisher and quadratic-form accumulator contracts."""

import time

import numpy as np
import pytest

from transfer_budget import estimation
from transfer_budget.estimation import (
    FisherMode,
    InsufficientDataError,
    PooledData,
    discrepancy,
    empirical_fisher,
    offset_gram,
    pooled_mle,
)
from transfer_budget.families import (
    BernoulliLogit,
    CategoricalLogits,
    GaussianMean,
    SoftmaxRegression,
)
from transfer_budget.trainer import SuiteConfig, generate_suite

#: criterion 9's suites: seeds 1..10 of this config, three 1200-sample pools each
CRITERION_9 = SuiteConfig(shots=10, deltas=(0.0, 0.5, 2.0))


def _gradient_ascent_oracle(family, x):
    """The softmax fit as it was before Newton steps: gradient ascent from
    zero with backtracking halving, stopped at ``max|grad| < 1e-8``.

    Returns the parameter and the mean log-likelihood.
    """
    features, _ = x
    n = features.shape[0]
    moment = features.T @ features / n
    step = 1.0 / max(0.5 * float(np.linalg.eigvalsh(moment)[-1]), 1e-12)
    theta = np.zeros(family.dim)
    value = family.log_prob(theta, x).mean()
    grad = family.score(theta, x).mean(axis=0)
    for _ in range(10_000):
        if float(np.abs(grad).max()) < 1e-8:
            break
        while step >= 1e-16:
            candidate = theta + step * grad
            cand_value = family.log_prob(candidate, x).mean()
            if cand_value >= value:
                break
            step *= 0.5
        else:
            break
        theta, value = candidate, cand_value
        grad = family.score(theta, x).mean(axis=0)
    return theta, float(value)


class TestPooledMLE:
    def test_gaussian_pooled_mean(self):
        fit = pooled_mle(
            GaussianMean(sigma=1.0),
            PooledData(target=np.array([1.0, -1.0]), sources=[np.array([3.0])]),
        )
        assert fit.theta[0] == pytest.approx(1.0, abs=1e-15)
        assert not fit.smoothed

    def test_bernoulli_closed_form(self):
        fit = pooled_mle(BernoulliLogit(), PooledData(target=np.array([1] * 8 + [0] * 2)))
        assert fit.theta[0] == pytest.approx(np.log(0.8 / 0.2), abs=1e-12)

    def test_unobserved_cell_smoothing(self):
        fit = pooled_mle(BernoulliLogit(), PooledData(target=np.ones(5, dtype=int)))
        assert fit.smoothed
        assert np.isfinite(fit.theta).all()

        cat = CategoricalLogits(num_classes=3)
        fit = pooled_mle(cat, PooledData(target=np.array([0, 0, 1])))
        assert fit.smoothed
        # 0.5 added to every cell: counts (2.5, 1.5, 0.5)
        np.testing.assert_allclose(
            fit.theta, [np.log(2.5 / 0.5), np.log(1.5 / 0.5)], atol=1e-12
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(InsufficientDataError):
            pooled_mle(GaussianMean(), PooledData(target=np.array([])))

    def test_closed_forms_match_sufficient_statistics_to_machine_precision(self):
        rng = np.random.default_rng(31)
        g = GaussianMean(sigma=1.4)
        parts = [g.sample(np.array([0.5]), rng, n) for n in (13, 7, 29)]
        fit = pooled_mle(g, PooledData(target=parts[0], sources=parts[1:]))
        assert fit.theta[0] == pytest.approx(np.concatenate(parts).mean(), abs=1e-15)

        cat = CategoricalLogits(num_classes=4)
        theta = np.array([0.2, -0.1, 0.4])
        x = cat.sample(theta, rng, 5000)
        fit = pooled_mle(cat, PooledData(target=x))
        counts = np.bincount(x, minlength=4)
        np.testing.assert_allclose(
            fit.theta, np.log(counts[:3] / counts[3]), atol=1e-12
        )

    def test_softmax_matches_long_run_oracle(self):
        """Gradient-ascent fit reaches the long-run optimizer's likelihood.

        Oracle: a million fixed-step (1e-3) ascent iterations on the same
        pooled average log-likelihood; agreement required within 1e-6.
        """
        sm = SoftmaxRegression(feature_dim=3, num_classes=3)
        rng = np.random.default_rng(17)
        w = rng.normal(size=sm.dim)
        data = sm.sample(w, rng, 60)

        fit = pooled_mle(sm, PooledData(target=data))

        theta = np.zeros(sm.dim)
        for _ in range(1_000_000):
            theta += 1e-3 * sm.score(theta, data).mean(axis=0)
        oracle_ll = sm.log_prob(theta, data).mean()

        assert fit.log_likelihood == pytest.approx(oracle_ll, abs=1e-6)

    def test_closed_form_fits_are_converged(self):
        fit = pooled_mle(GaussianMean(), PooledData(target=np.array([0.5, 1.5])))
        assert fit.converged


class TestSoftmaxNewton:
    def test_matches_gradient_ascent_on_suite_1(self):
        suite = generate_suite(CRITERION_9, 1)
        for pool in suite.pools:
            fit = pooled_mle(suite.family, PooledData(target=pool))
            theta, value = _gradient_ascent_oracle(suite.family, pool)
            assert abs(fit.log_likelihood - value) <= 1e-12
            np.testing.assert_allclose(fit.theta, theta, rtol=0, atol=1e-6)

    def test_fit_is_bit_equal_through_the_row_major_core(self, monkeypatch):
        """The class-major core changes no byte of criterion 9's suite-1 fits."""
        suite = generate_suite(CRITERION_9, 1)
        fits = [pooled_mle(suite.family, PooledData(target=pool)) for pool in suite.pools]

        def row_major(weights, features):
            logits = features @ weights.T
            logits -= logits.max(axis=1, keepdims=True)
            return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))

        monkeypatch.setattr(SoftmaxRegression, "class_log_probs", staticmethod(row_major))
        for pool, fit in zip(suite.pools, fits):
            reference = pooled_mle(suite.family, PooledData(target=pool))
            assert fit.theta.tobytes() == reference.theta.tobytes()
            assert fit.log_likelihood == reference.log_likelihood
            assert fit.iterations == reference.iterations

    def test_every_criterion_9_pool_converges_with_balanced_columns(self):
        for seed in range(1, 11):
            suite = generate_suite(CRITERION_9, seed)
            for pool in suite.pools:
                fit = pooled_mle(suite.family, PooledData(target=pool))
                assert fit.converged and fit.grad_inf_norm < 1e-8
                assert fit.iterations <= estimation._MLE_MAX_ITER
                column_sums = fit.theta.reshape(5, 3).sum(axis=0)
                np.testing.assert_allclose(column_sums, 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_separable_pools_return_within_the_cap(self, n):
        """No finite maximizer exists; the fit still returns quickly and its
        flag agrees with its gradient."""
        sm = SoftmaxRegression(feature_dim=3, num_classes=5)
        features = np.random.default_rng(n).normal(size=(n, 3))
        pool = (features, np.arange(n) % 5)
        start = time.perf_counter()
        fit = pooled_mle(sm, PooledData(target=pool))
        assert time.perf_counter() - start < 0.1
        assert fit.iterations <= estimation._MLE_MAX_ITER
        assert fit.converged == (fit.grad_inf_norm < 1e-8)
        assert np.isfinite(fit.theta).all() and np.isfinite(fit.log_likelihood)

    def test_halving_reaches_a_far_optimum(self):
        """Weights of scale 30 put the optimum far from zero: on this pool
        full Newton steps overshoot and diverge, and the halved steps do not."""
        sm = SoftmaxRegression(feature_dim=2, num_classes=3)
        rng = np.random.default_rng(17)
        pool = sm.sample(30 * rng.normal(size=sm.dim), rng, 40)
        fit = pooled_mle(sm, PooledData(target=pool))
        assert fit.converged and fit.iterations <= estimation._MLE_MAX_ITER

    def test_step_cap_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(estimation, "_MLE_MAX_ITER", 1)
        suite = generate_suite(CRITERION_9, 1)
        fit = pooled_mle(suite.family, PooledData(target=suite.pools[0]))
        assert fit.iterations == 1
        assert not fit.converged and fit.grad_inf_norm >= 1e-8


class TestEmpiricalFisher:
    def test_gaussian_converges_to_analytic(self):
        g = GaussianMean(sigma=1.0)
        theta = np.array([0.0])
        x = g.sample(theta, np.random.default_rng(3), 100_000)
        est = empirical_fisher(g, theta, x, FisherMode.PER_SAMPLE)
        assert est.dense()[0, 0] == pytest.approx(1.0, rel=0.02)

    def test_bernoulli_converges_to_analytic(self):
        b = BernoulliLogit()
        theta = np.array([0.0])
        x = b.sample(theta, np.random.default_rng(4), 100_000)
        est = empirical_fisher(b, theta, x, FisherMode.PER_SAMPLE)
        assert est.dense()[0, 0] == pytest.approx(0.25, rel=0.02)

    @pytest.mark.parametrize("family", [GaussianMean(sigma=0.8), BernoulliLogit()],
                             ids=lambda f: type(f).__name__)
    def test_per_sample_mode_two_percent_at_ten_parameters(self, family):
        rng = np.random.default_rng(52)
        for _ in range(10):
            theta = rng.normal(size=family.dim)
            x = family.sample(theta, rng, 100_000)
            est = empirical_fisher(family, theta, x)
            np.testing.assert_allclose(est.dense(), family.fisher(theta), rtol=0.02)

    def test_small_entries_use_the_absolute_band(self):
        """Multi-dimensional Gaussian: the exactly-zero off-diagonals of the
        closed form are matched within 1e-3 absolute, diagonals within 2%.

        The off-diagonal estimator noise is ~1/sqrt(n), so the 1e-3 band
        needs the draw count pushed to 1e7.
        """
        g = GaussianMean(sigma=1.0, dim=3)
        theta = np.array([0.4, -0.2, 1.1])
        x = g.sample(theta, np.random.default_rng(53), 10_000_000)
        emp = empirical_fisher(g, theta, x).dense()
        np.testing.assert_allclose(emp, g.fisher(theta), rtol=0.02, atol=1e-3)

    def test_batch_mode_vanishes_at_the_generating_parameter(self):
        """The mean score at the truth is O(1/sqrt n), so the rank-one batch
        outer product collapses toward zero."""
        g = GaussianMean(sigma=1.0)
        theta = np.array([0.7])
        x = g.sample(theta, np.random.default_rng(8), 100_000)
        est = empirical_fisher(g, theta, x, FisherMode.BATCH)
        assert abs(est.dense()[0, 0]) < 1e-3

    def test_modes_disagree_away_from_the_optimum(self):
        # per-sample keeps full-rank curvature; batch is rank one
        sm = SoftmaxRegression(feature_dim=3, num_classes=3)
        rng = np.random.default_rng(9)
        theta = rng.normal(size=sm.dim)
        x = sm.sample(theta, rng, 2000)
        per = empirical_fisher(sm, theta, x, FisherMode.PER_SAMPLE).dense()
        batch = empirical_fisher(sm, theta, x, FisherMode.BATCH).dense()
        assert np.linalg.matrix_rank(batch) <= 1
        assert np.linalg.matrix_rank(per) > 1

    def test_empty_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            empirical_fisher(GaussianMean(), np.array([0.0]), np.array([]))

    def test_symmetry_and_psd(self):
        sm = SoftmaxRegression(feature_dim=4, num_classes=3)
        rng = np.random.default_rng(12)
        theta = rng.normal(size=sm.dim)
        x = sm.sample(theta, rng, 500)
        for mode in (FisherMode.PER_SAMPLE, FisherMode.BATCH):
            dense = empirical_fisher(sm, theta, x, mode).dense()
            np.testing.assert_allclose(dense, dense.T, atol=1e-12)
            assert np.linalg.eigvalsh(dense)[0] >= -1e-10


ANALYTIC_CASES = [
    (GaussianMean(sigma=1.0), np.array([0.3])),
    (GaussianMean(sigma=0.7), np.array([-1.2])),
    (GaussianMean(sigma=0.7, dim=3), np.array([0.4, -0.2, 1.1])),
    (BernoulliLogit(), np.array([0.0])),
    (BernoulliLogit(), np.array([800.0])),  # p rounds to 1, so J = 0
    (CategoricalLogits(num_classes=5), np.array([0.3, -1.0, 2.0, 0.5])),
]
ANALYTIC_IDS = ["gauss", "gauss-0.7", "gauss-dim3", "bern-0", "bern-800", "cat5"]


class TestFisherFactor:
    @pytest.mark.parametrize("family,theta", ANALYTIC_CASES, ids=ANALYTIC_IDS)
    def test_analytic_dense_matches_the_closed_form(self, family, theta):
        exact = family.fisher(theta)
        dense = empirical_fisher(family, theta, None, FisherMode.ANALYTIC).dense()
        np.testing.assert_allclose(dense, exact, rtol=0, atol=1e-14 * np.abs(exact).max())

    @pytest.mark.parametrize("mode", list(FisherMode), ids=lambda m: m.value)
    def test_quad_form_is_the_dense_quadratic_form(self, mode):
        rng = np.random.default_rng(30)
        if mode is FisherMode.ANALYTIC:
            family, theta, x = CategoricalLogits(num_classes=5), rng.normal(size=4), None
        else:
            family = SoftmaxRegression(feature_dim=3, num_classes=3)
            theta = rng.normal(size=family.dim)
            x = family.sample(theta, rng, 400)
        est = empirical_fisher(family, theta, x, mode)
        u = rng.normal(size=(family.dim, 4))
        expected = u.T @ est.dense() @ u
        np.testing.assert_allclose(est.quad_form(u), expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("dim", [1, 4, 20])
    def test_unit_gaussian_gram_is_the_plain_gram(self, dim):
        g = GaussianMean(sigma=1.0, dim=dim)
        rng = np.random.default_rng(dim)
        theta0 = rng.normal(size=dim)
        sources = [theta0 + rng.normal(size=dim) * 0.3 for _ in range(3)]
        u = np.stack([s - theta0 for s in sources], axis=1)
        gram = offset_gram(empirical_fisher(g, theta0, None, FisherMode.ANALYTIC), theta0, sources)
        np.testing.assert_array_equal(gram, u.T @ u)


class TestOffsetGram:
    def test_zero_offsets_give_zero_matrix(self):
        g = GaussianMean(sigma=1.0, dim=2)
        est = empirical_fisher(g, np.zeros(2), g.sample(np.zeros(2), np.random.default_rng(1), 100))
        gram = offset_gram(est, np.zeros(2), [np.zeros(2), np.zeros(2)])
        np.testing.assert_allclose(gram, 0.0, atol=1e-15)

    def test_identity_fisher_orthogonal_offsets(self):
        g = GaussianMean(sigma=1.0, dim=2)
        est = empirical_fisher(g, np.zeros(2), None, FisherMode.ANALYTIC)
        gram = offset_gram(est, np.zeros(2), [np.array([0.1, 0.1]), np.array([0.1, -0.1])])
        np.testing.assert_allclose(gram, [[0.02, 0.0], [0.0, 0.02]], atol=1e-15)

    def test_accumulator_path_matches_dense_path(self):
        """d=20, K=3: the (n, K) accumulator equals U^T J U from the dense matrix."""
        sm = SoftmaxRegression(feature_dim=5, num_classes=4)
        rng = np.random.default_rng(20)
        theta = rng.normal(size=sm.dim) * 0.3
        x = sm.sample(theta, rng, 3000)
        est = empirical_fisher(sm, theta, x)
        sources = [theta + rng.normal(size=sm.dim) * 0.2 for _ in range(3)]
        gram = offset_gram(est, theta, sources)
        u = np.stack([s - theta for s in sources], axis=1)
        dense = u.T @ est.dense() @ u
        np.testing.assert_allclose(gram, 0.5 * (dense + dense.T), atol=1e-10)

    def test_gram_is_psd_and_symmetric(self):
        sm = SoftmaxRegression(feature_dim=6, num_classes=4)
        rng = np.random.default_rng(21)
        theta = rng.normal(size=sm.dim) * 0.3
        x = sm.sample(theta, rng, 200)
        est = empirical_fisher(sm, theta, x)
        sources = [theta + rng.normal(size=sm.dim) for _ in range(5)]
        gram = offset_gram(est, theta, sources)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        assert np.linalg.eigvalsh(gram)[0] >= -1e-10

    def test_dimension_mismatch_rejected(self):
        g = GaussianMean(dim=2)
        est = empirical_fisher(g, np.zeros(2), None, FisherMode.ANALYTIC)
        with pytest.raises(ValueError):
            offset_gram(est, np.zeros(2), [np.zeros(3)])


class TestDiscrepancy:
    def test_zero_at_equal_parameters(self):
        g = GaussianMean()
        est = empirical_fisher(g, np.array([0.3]), None, FisherMode.ANALYTIC)
        assert discrepancy(est, np.array([0.3]), np.array([0.3])) == 0.0

    def test_one_dimensional_arithmetic(self):
        g = GaussianMean(sigma=1.0)
        est = empirical_fisher(g, np.array([0.0]), None, FisherMode.ANALYTIC)
        assert discrepancy(est, np.array([0.0]), np.array([0.1])) == pytest.approx(0.01)

    def test_dimension_average(self):
        g = GaussianMean(sigma=1.0, dim=2)
        est = empirical_fisher(g, np.zeros(2), None, FisherMode.ANALYTIC)
        val = discrepancy(est, np.zeros(2), np.array([0.1, 0.1]))
        assert val == pytest.approx(0.01)

    def test_symmetric_under_argument_exchange(self):
        g = GaussianMean(sigma=0.6, dim=3)
        est = empirical_fisher(g, np.zeros(3), None, FisherMode.ANALYTIC)
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert discrepancy(est, a, b) == discrepancy(est, b, a)

    def test_gram_diagonal_equals_dim_times_discrepancy(self):
        sm = SoftmaxRegression(feature_dim=4, num_classes=3)
        rng = np.random.default_rng(7)
        theta = rng.normal(size=sm.dim) * 0.4
        est = empirical_fisher(sm, theta, sm.sample(theta, rng, 800))
        sources = [theta + rng.normal(size=sm.dim) * 0.3 for _ in range(4)]
        gram = offset_gram(est, theta, sources)
        for i, s in enumerate(sources):
            assert gram[i, i] == pytest.approx(
                sm.dim * discrepancy(est, theta, s), abs=1e-12
            )
