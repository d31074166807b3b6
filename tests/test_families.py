"""Family-level contracts: densities, scores, Fisher matrices, KL, sampling."""

import numpy as np
import pytest

from transfer_budget.families import (
    BernoulliLogit,
    CategoricalLogits,
    FisherUnavailableError,
    GaussianMean,
    InvalidParameterError,
    InvalidSampleError,
    SoftmaxRegression,
    UniformBlock,
    open_uniform,
)

ALL_FAMILIES = [
    GaussianMean(sigma=1.0),
    GaussianMean(sigma=0.7, dim=3),
    BernoulliLogit(),
    CategoricalLogits(num_classes=4),
    SoftmaxRegression(feature_dim=3, num_classes=3),
]


def _random_theta(family, rng):
    return rng.normal(size=family.dim) * 0.8


class TestLogProb:
    def test_standard_normal_at_mean(self):
        g = GaussianMean(sigma=1.0)
        lp = g.log_prob(np.array([0.0]), np.array([0.0]))
        assert lp[0] == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_fair_coin(self):
        b = BernoulliLogit()
        lp = b.log_prob(np.array([0.0]), np.array([1]))
        assert lp[0] == pytest.approx(np.log(0.5), abs=1e-12)

    def test_uniform_categorical(self):
        c = CategoricalLogits(num_classes=3)
        lp = c.log_prob(np.zeros(2), np.array([2]))
        assert lp[0] == pytest.approx(np.log(1.0 / 3.0), abs=1e-12)

    def test_invalid_parameter_rejected(self):
        g = GaussianMean()
        with pytest.raises(InvalidParameterError):
            g.log_prob(np.array([np.nan]), np.array([0.0]))
        with pytest.raises(InvalidParameterError):
            g.log_prob(np.array([0.0, 1.0]), np.array([0.0]))

    def test_out_of_support_rejected(self):
        with pytest.raises(InvalidSampleError):
            BernoulliLogit().log_prob(np.array([0.0]), np.array([2]))
        with pytest.raises(InvalidSampleError):
            CategoricalLogits(num_classes=3).log_prob(np.zeros(2), np.array([3]))


class TestScore:
    def test_gaussian_score_value(self):
        g = GaussianMean(sigma=1.0)
        s = g.score(np.array([0.0]), np.array([0.5]))
        assert s[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_bernoulli_score_value(self):
        b = BernoulliLogit()
        s = b.score(np.array([0.0]), np.array([1]))
        assert s[0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: type(f).__name__)
    def test_matches_finite_difference(self, family):
        """Score equals the central finite difference of log_prob.

        100 random (theta, x) pairs per family, relative tolerance 1e-6 with
        step 1e-5.
        """
        rng = np.random.default_rng(1234)
        step = 1e-5
        for _ in range(100):
            theta = _random_theta(family, rng)
            x = family.sample(theta, rng, 1)
            analytic = family.score(theta, x)[0]
            numeric = np.empty(family.dim)
            for j in range(family.dim):
                hi = theta.copy()
                lo = theta.copy()
                hi[j] += step
                lo[j] -= step
                numeric[j] = (family.log_prob(hi, x)[0] - family.log_prob(lo, x)[0]) / (2 * step)
            scale = max(1.0, np.abs(analytic).max())
            np.testing.assert_allclose(analytic, numeric, atol=1e-6 * scale)


def _log_softmax_reference(weights, features):
    """``class_log_probs`` as it was written with a row-wise ``max``."""
    logits = features @ weights.T
    logits -= logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


class TestClassLogProbs:
    @pytest.mark.parametrize("num_classes", range(2, 13))
    @pytest.mark.parametrize("n", [1, 40, 4000])
    def test_bit_equal_to_the_row_max_formula(self, num_classes, n):
        rng = np.random.default_rng([num_classes, n])
        features = rng.normal(size=(n, 3))
        weights = rng.normal(size=(num_classes, 3))
        tied = weights.copy()
        tied[1::2] = tied[0]  # every other class row ties with the first
        cases = [weights, tied, np.zeros_like(weights), 1e3 * weights, -1e3 * weights,
                 1e3 * tied]
        for w in cases:
            expected = _log_softmax_reference(w, features)
            got = SoftmaxRegression.class_log_probs(w, features)
            assert np.array_equal(got, expected)


def _weight_cases(rng, num_classes, feature_dim=3):
    weights = rng.normal(size=(num_classes, feature_dim))
    tied = weights.copy()
    tied[1::2] = tied[0]  # every other class row ties with the first
    return [weights, tied, np.zeros_like(weights), 1e3 * weights, -1e3 * weights, 1e3 * tied]


#: every regime of numpy's row sum: sequential below 8 classes, eight
#: accumulators up to 128, halves above
CLASS_COUNTS = [*range(2, 13), 16, 64, 128, 129, 200]


class TestClassMajorCore:
    """The class-major log-softmax against the row-major formula, bit for bit."""

    @pytest.mark.parametrize("num_classes", CLASS_COUNTS)
    @pytest.mark.parametrize("n", [1, 40, 4000])
    def test_log_probs_bit_equal_in_every_summation_regime(self, num_classes, n):
        rng = np.random.default_rng([num_classes, n, 1])
        features = rng.normal(size=(n, 3))
        for w in _weight_cases(rng, num_classes):
            got = SoftmaxRegression.class_log_probs(w, features)
            assert got.flags.c_contiguous
            assert got.tobytes() == _log_softmax_reference(w, features).tobytes()

    @pytest.mark.parametrize("num_classes", CLASS_COUNTS)
    @pytest.mark.parametrize("n", [1, 40, 4000])
    def test_residual_bit_equal_to_onehot_minus_probabilities(self, num_classes, n):
        rng = np.random.default_rng([num_classes, n, 2])
        family = SoftmaxRegression(feature_dim=3, num_classes=num_classes)
        features = rng.normal(size=(n, 3))
        labels = rng.integers(0, num_classes, size=n)
        for w in _weight_cases(rng, num_classes):
            expected = -np.exp(_log_softmax_reference(w, features))
            expected[np.arange(n), labels] += 1.0
            got = family.residual(w, (features, labels))
            assert got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_classes", [*CLASS_COUNTS, 256, 300, 1000])
    @pytest.mark.parametrize("n", [1, 40, 4000])
    def test_class_sum_adds_in_the_order_of_the_row_sum(self, num_classes, n):
        from transfer_budget.families import _class_sum

        # a wide spread of magnitudes, so that another order would round differently
        rows = np.exp(8.0 * np.random.default_rng([num_classes, n, 3]).normal(size=(n, num_classes)))
        expected = rows.sum(axis=1)
        assert _class_sum(np.ascontiguousarray(rows.T)).tobytes() == expected.tobytes()

    def test_empty_batch(self):
        w = np.ones((4, 3))
        assert SoftmaxRegression.class_log_probs(w, np.empty((0, 3))).shape == (0, 4)
        family = SoftmaxRegression(feature_dim=3, num_classes=4)
        resid = family.residual(w, (np.empty((0, 3)), np.empty(0, dtype=np.int64)))
        assert resid.shape == (0, 4)


class TestSampling:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: type(f).__name__)
    def test_deterministic_given_seed(self, family):
        rng = np.random.default_rng(77)
        theta = _random_theta(family, np.random.default_rng(0))
        a = family.sample(theta, np.random.default_rng(77), 50)
        b = family.sample(theta, np.random.default_rng(77), 50)
        a = a if isinstance(a, tuple) else (a,)
        b = b if isinstance(b, tuple) else (b,)
        for xa, xb in zip(a, b):
            assert xa.tobytes() == xb.tobytes()

    def test_zero_draws(self):
        assert len(GaussianMean().sample(np.array([0.0]), np.random.default_rng(1), 0)) == 0

    def test_bernoulli_mean(self):
        """Empirical mean of a fair coin stays within the 3-sigma binomial band."""
        x = BernoulliLogit().sample(np.array([0.0]), np.random.default_rng(5), 100_000)
        assert 0.49 <= x.mean() <= 0.51

    def test_gaussian_mean(self):
        x = GaussianMean(sigma=1.0).sample(np.array([2.0]), np.random.default_rng(6), 100_000)
        assert abs(x.mean() - 2.0) < 0.01

    def test_open_uniform_stays_inside_unit_interval(self):
        u = open_uniform(np.random.default_rng(3), 200_000)
        assert u.min() > 0.0 and u.max() < 1.0

    @pytest.mark.parametrize("seed", [0, 3, [7, 0], [2**40, 12345]])
    def test_open_uniform_is_the_52_bit_integer_stream(self, seed):
        """One generator word per draw, mapped to (k + 0.5) / 2**52 with k
        from ``integers(0, 2**52)``; shorter draws are prefixes of longer ones."""
        k = np.random.default_rng(seed).integers(0, 1 << 52, size=(40, 3))
        u = open_uniform(np.random.default_rng(seed), (40, 3))
        assert u.tobytes() == ((k + 0.5) * 2.0 ** -52).tobytes()
        rng = np.random.default_rng(seed)
        parts = np.concatenate([open_uniform(rng, 50), open_uniform(rng, 70)])
        assert parts.tobytes() == u.ravel().tobytes()

    @pytest.mark.parametrize("family", ALL_FAMILIES[:4], ids=lambda f: type(f).__name__)
    def test_block_sampling_and_batch_fits_match_one_dataset_at_a_time(self, family):
        """``sample`` from a :class:`UniformBlock`, ``batch_mle`` and a batched
        ``kl`` give, row by row, what per-row generators, ``closed_form_mle``
        and the scalar ``kl`` give."""
        theta = _random_theta(family, np.random.default_rng(1))
        rows, n, extra = 6, 30, 4
        u = np.stack([open_uniform(np.random.default_rng([5, r]), (n + extra) * family.draw_width)
                      for r in range(rows)])
        block = UniformBlock(u)
        x = family.sample(theta, block, rows * n)
        x = x.reshape(rows, n, *x.shape[1:])
        tail = family.sample(theta, block, rows * extra)
        with pytest.raises(ValueError):
            family.sample(theta, block, rows)
        fits, smoothed = family.batch_mle(x)
        kls = family.kl(theta, fits)
        assert kls.shape == (rows,)
        for r in range(rows):
            rng = np.random.default_rng([5, r])
            row = family.sample(theta, rng, n)
            assert x[r].tobytes() == row.tobytes()
            assert np.reshape(tail, (rows, -1))[r].tobytes() == family.sample(theta, rng, extra).tobytes()
            fit, flag = family.closed_form_mle(row)
            np.testing.assert_array_equal(fits[r], fit)
            assert smoothed[r] == flag
            assert kls[r] == family.kl(theta, fit)

    def test_batched_kl_rejects_a_bad_parameter_row(self):
        g = GaussianMean(sigma=1.0, dim=2)
        with pytest.raises(InvalidParameterError):
            g.kl(np.zeros(2), np.array([[0.1, 0.2], [np.nan, 0.0]]))
        with pytest.raises(InvalidParameterError):
            g.kl(np.zeros(2), np.zeros((3, 3)))
        with pytest.raises(InvalidParameterError):
            g.log_prob(np.zeros((1, 2)), np.zeros((4, 2)))

    def test_categorical_frequencies(self):
        c = CategoricalLogits(num_classes=3)
        theta = np.array([0.4, -0.3])
        x = c.sample(theta, np.random.default_rng(8), 200_000)
        freq = np.bincount(x, minlength=3) / x.shape[0]
        np.testing.assert_allclose(freq, c.probs(theta), atol=0.01)


class TestFisher:
    def test_gaussian(self):
        np.testing.assert_allclose(GaussianMean(sigma=1.0).fisher(np.array([3.0])), [[1.0]])
        np.testing.assert_allclose(
            GaussianMean(sigma=2.0, dim=2).fisher(np.zeros(2)), np.eye(2) / 4.0
        )

    def test_bernoulli(self):
        np.testing.assert_allclose(BernoulliLogit().fisher(np.array([0.0])), [[0.25]])

    def test_categorical_uniform(self):
        c = CategoricalLogits(num_classes=3)
        expected = np.eye(2) / 3.0 - np.ones((2, 2)) / 9.0
        np.testing.assert_allclose(c.fisher(np.zeros(2)), expected, atol=1e-12)

    def test_categorical_against_score_outer_products(self):
        """Closed form agrees with the score-outer-product average at 1e6 draws."""
        c = CategoricalLogits(num_classes=3)
        theta = np.array([0.3, -0.5])
        rng = np.random.default_rng(42)
        x = c.sample(theta, rng, 1_000_000)
        scores = c.score(theta, x)
        emp = scores.T @ scores / scores.shape[0]
        ana = c.fisher(theta)
        np.testing.assert_allclose(emp, ana, rtol=0.02, atol=1e-3)

    def test_softmax_has_no_closed_form(self):
        with pytest.raises(FisherUnavailableError):
            SoftmaxRegression(feature_dim=2, num_classes=3).fisher(np.zeros(6))

    @pytest.mark.parametrize(
        "family",
        [GaussianMean(sigma=1.3), BernoulliLogit(), CategoricalLogits(num_classes=4)],
        ids=lambda f: type(f).__name__,
    )
    def test_psd_and_symmetric(self, family):
        rng = np.random.default_rng(9)
        for _ in range(10):
            theta = _random_theta(family, rng)
            j = family.fisher(theta)
            np.testing.assert_allclose(j, j.T, atol=1e-12)
            assert np.linalg.eigvalsh(j)[0] >= -1e-10


class TestKL:
    def test_identity_is_zero(self):
        for family in ALL_FAMILIES:
            theta = _random_theta(family, np.random.default_rng(2))
            assert family.kl(theta, theta) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_value(self):
        g = GaussianMean(sigma=1.0)
        assert g.kl(np.array([0.0]), np.array([0.2])) == pytest.approx(0.02, abs=1e-15)

    def test_bernoulli_value(self):
        b = BernoulliLogit()
        theta_a = np.array([0.0])                      # p = 0.5
        theta_b = np.array([np.log(3.0)])              # p = 0.75
        expected = 0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25)
        assert b.kl(theta_a, theta_b) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1438, abs=1e-4)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for family in ALL_FAMILIES:
            for _ in range(25):
                a = _random_theta(family, rng)
                b = _random_theta(family, rng)
                assert family.kl(a, b) >= 0.0

    @pytest.mark.parametrize(
        "family",
        [GaussianMean(sigma=0.9, dim=2), BernoulliLogit(), CategoricalLogits(num_classes=4)],
        ids=lambda f: type(f).__name__,
    )
    def test_second_order_expansion(self, family):
        """kl(theta, theta + delta) ~ 0.5 delta^T J delta for small offsets."""
        rng = np.random.default_rng(10)
        for _ in range(10):
            theta = _random_theta(family, rng)
            direction = rng.normal(size=family.dim)
            direction /= np.linalg.norm(direction)
            delta = 1e-2 * direction
            quad = 0.5 * delta @ family.fisher(theta) @ delta
            assert family.kl(theta, theta + delta) == pytest.approx(quad, rel=0.05)

    def test_softmax_kl_is_flagged_and_reproducible(self):
        sm = SoftmaxRegression(feature_dim=2, num_classes=3)
        assert not sm.kl_is_exact
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=sm.dim), rng.normal(size=sm.dim)
        v1, se1 = sm.kl_mc(a, b)
        v2, se2 = sm.kl_mc(a, b)
        assert v1 == v2 and se1 == se2
        assert v1 > 0 and se1 > 0
        # a fatter independent draw agrees within combined noise
        v3, se3 = sm.kl_mc(a, b, draws=65536, seed=999)
        assert abs(v1 - v3) < 4 * np.hypot(se1, se3)
