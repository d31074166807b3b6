"""Monte-Carlo lab contracts: exactness on Gaussians, reproducibility, sweeps."""

import numpy as np
import pytest
from scipy.special import expit, ndtri

from transfer_budget import simlab
from transfer_budget.estimation import InsufficientDataError
from transfer_budget.families import (
    BernoulliLogit,
    CategoricalLogits,
    GaussianMean,
    InvalidParameterError,
    SoftmaxRegression,
)
from transfer_budget.simlab import (
    estimate_expected_kl,
    negative_transfer_table,
    sweep_n1,
)

G = GaussianMean(sigma=1.0)
Z = np.array([0.0])


class TestExpectedKL:
    def test_target_only_gaussian_matches_exact_rate(self):
        """For a Gaussian mean, E[KL] of the sample-mean fit is exactly 1/(2 n0)."""
        report = estimate_expected_kl(G, Z, [], n0=100, trials=20_000, seed=11)
        assert abs(report.mean_kl - 0.005) < 3 * report.std_err

    def test_single_source_matches_bias_variance_identity(self):
        """With one shifted source the exact value is
        1/(2(n0+n1)) + n1^2 dtheta^2 / (2 sigma^2 (n0+n1)^2)."""
        report = estimate_expected_kl(
            G, Z, [(np.array([0.1]), 100)], n0=100, trials=20_000, seed=12
        )
        assert abs(report.mean_kl - 0.00375) < 3 * report.std_err

    def test_bias_variance_identity_with_non_unit_scale(self):
        # n0=50, n1=150, dtheta=0.2, sigma=2: exact value 0.0053125
        wide = GaussianMean(sigma=2.0)
        report = estimate_expected_kl(
            wide, Z, [(np.array([0.2]), 150)], n0=50, trials=20_000, seed=15
        )
        assert abs(report.mean_kl - 0.0053125) < 3 * report.std_err

    def test_bernoulli_asymptotic_rate_with_widened_band(self):
        """Non-Gaussian families carry an o(1/n0) remainder; 5 sigma at n0=400."""
        report = estimate_expected_kl(
            BernoulliLogit(), Z, [], n0=400, trials=20_000, seed=13
        )
        assert abs(report.mean_kl - 1 / 800) < 5 * report.std_err

    def test_bit_identical_reruns(self):
        a = estimate_expected_kl(G, Z, [(np.array([0.3]), 20)], 50, 200, seed=5)
        b = estimate_expected_kl(G, Z, [(np.array([0.3]), 20)], 50, 200, seed=5)
        assert a.mean_kl == b.mean_kl and a.std_err == b.std_err

    def test_worker_count_does_not_change_results(self):
        kwargs = dict(n0=40, trials=300, seed=9)
        serial = estimate_expected_kl(G, Z, [(np.array([0.2]), 30)], **kwargs)
        parallel = estimate_expected_kl(G, Z, [(np.array([0.2]), 30)], workers=3, **kwargs)
        assert serial.mean_kl == parallel.mean_kl
        assert serial.std_err == parallel.std_err

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_expected_kl(G, Z, [], 10, trials=99, seed=1)

    def test_kl_exact_flag_reflects_family(self):
        report = estimate_expected_kl(G, Z, [], 10, 150, seed=2)
        assert report.kl_exact


class TestSweep:
    def test_zero_shift_pulls_argmin_to_the_cap(self):
        """Identical source and target: every transferred sample helps."""
        result = sweep_n1(G, Z, Z, n0=50, cap=200, grid_step=40,
                          trials=2000, seed=21)
        assert result.empirical_argmin == 200
        assert result.theoretical_argmin == 200

    def test_reports_align_with_grid(self):
        result = sweep_n1(G, Z, np.array([0.2]), n0=50, cap=95, grid_step=30,
                          trials=200, seed=22)
        np.testing.assert_array_equal(result.quantities, [0, 30, 60, 90, 95])
        assert len(result.reports) == 5
        assert result.theoretical_curve.values.shape == (5,)

    def test_interior_regime_found_by_brute_force(self):
        """Moderate shift: the empirical argmin lands near n0/(2 n0 t - 1)."""
        result = sweep_n1(G, Z, np.array([0.1]), n0=100, cap=400, grid_step=25,
                          trials=4000, seed=23)
        assert result.theoretical_argmin == 100
        assert abs(result.empirical_argmin - 100) <= 75

    def test_monotone_regime_curve_shapes(self):
        """Below the regime boundary the theoretical curve strictly decreases
        and any empirical up-tick stays within Monte-Carlo noise."""
        result = sweep_n1(G, Z, np.array([0.05]), n0=100, cap=400, grid_step=50,
                          trials=4000, seed=25)  # n0 * t = 0.25
        theory = result.theoretical_curve.values
        assert (np.diff(theory) < 0).all()
        means = result.mean_kls
        errs = np.array([r.std_err for r in result.reports])
        for i in range(len(means) - 1):
            violation = means[i + 1] - means[i]
            assert violation <= 3 * np.hypot(errs[i], errs[i + 1])

    def test_large_shift_prefers_no_transfer(self):
        """dtheta=1 at n0=100: transferring loses by a wide, resolvable margin."""
        result = sweep_n1(G, Z, np.array([1.0]), n0=100, cap=300, grid_step=100,
                          trials=2000, seed=24)
        r0 = result.reports[0]
        r_all = result.reports[-1]
        separation = (r_all.mean_kl - r0.mean_kl) / np.hypot(r0.std_err, r_all.std_err)
        assert result.theoretical_argmin in (0, 1)
        assert separation > 3.0


class TestNegativeTransfer:
    def test_directions_and_planned_dominance(self):
        rows = negative_transfer_table(
            G, Z, [(np.array([1.0]), 400)], n0_values=[400],
            trials=4000, seed=31,
        )
        by = {r.strategy: r.report for r in rows}
        target, full = by["target_only"], by["all_sources"]
        planned = by["planned"]
        sigma = np.hypot(target.std_err, full.std_err)
        assert full.mean_kl - target.mean_kl > 3 * sigma
        floor = min(target.mean_kl, full.mean_kl)
        assert planned.mean_kl <= floor + 3 * np.hypot(planned.std_err, sigma)

    def test_zero_shift_source_helps(self):
        rows = negative_transfer_table(
            G, Z, [(Z, 400)], n0_values=[200], trials=4000, seed=32,
        )
        by = {r.strategy: r for r in rows}
        assert by["all_sources"].report.mean_kl < by["target_only"].report.mean_kl
        # with nothing to lose the plan takes the whole pool
        assert by["planned"].counts == (400,)

    def test_rows_cover_every_pair(self):
        rows = negative_transfer_table(
            G, Z, [(np.array([0.5]), 50)], n0_values=[50, 100],
            trials=150, seed=33,
        )
        assert len(rows) == 6
        assert {(r.n0, r.strategy) for r in rows} == {
            (n, s) for n in (50, 100) for s in ("target_only", "all_sources", "planned")
        }


def _draw(family, theta, rng, n):
    """One dataset by the scalar sampling formulas: inverse-CDF on
    ``(k + 0.5) / 2**52`` with ``k`` from ``rng.integers(0, 2**52)``."""
    u = (rng.integers(0, 1 << 52, size=n * family.dim if isinstance(family, GaussianMean) else n)
         + 0.5) * 2.0 ** -52
    if isinstance(family, GaussianMean):
        return theta + family.sigma * ndtri(u.reshape(n, family.dim))
    if isinstance(family, BernoulliLogit):
        return (u < expit(theta[0])).astype(np.float64)
    idx = np.searchsorted(np.cumsum(_probs(theta)), u, side="right")
    return np.minimum(idx, family.num_classes - 1)


def _probs(theta):
    z = np.append(theta, 0.0)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def _fit(family, x):
    """Closed-form MLE of one pooled dataset and whether smoothing fired."""
    if isinstance(family, GaussianMean):
        return x.mean(axis=0), False
    if isinstance(family, BernoulliLogit):
        n, ones = x.shape[0], x.sum()
        smoothed = ones == 0 or ones == n
        p = (ones + 0.5) / (n + 1.0) if smoothed else ones / n
        return np.array([np.log(p) - np.log1p(-p)]), smoothed
    counts = np.bincount(x, minlength=family.num_classes).astype(np.float64)
    smoothed = bool((counts == 0).any())
    if smoothed:
        counts = counts + 0.5
    p = counts / counts.sum()
    return np.log(p[:-1]) - np.log(p[-1]), smoothed


def _kl(family, theta_a, theta_b):
    if isinstance(family, GaussianMean):
        diff = theta_a - theta_b
        return float(diff @ diff) / (2.0 * family.sigma ** 2)
    if isinstance(family, BernoulliLogit):
        ta, tb = float(theta_a[0]), float(theta_b[0])
        pa = expit(ta)
        lpa, l1a = -np.logaddexp(0.0, -ta), -np.logaddexp(0.0, ta)
        lpb, l1b = -np.logaddexp(0.0, -tb), -np.logaddexp(0.0, tb)
        return float(pa * (lpa - lpb) + (1.0 - pa) * (l1a - l1b))
    pa, pb = _probs(theta_a), _probs(theta_b)
    return float(np.sum(pa * (np.log(pa) - np.log(pb))))


def reference_report(family, theta0, sources, n0, trials, seed):
    """One trial per iteration, by the scalar formulas alone: the oracle of
    the block path, independent of ``Family`` and ``pooled_mle``.

    Each trial builds its own generator, draws the target and then each
    source, fits the pooled sample and scores the fit. Returns the mean KL,
    its standard error and how many fits were smoothed.
    """
    kls = np.empty(trials)
    smoothed = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        pool = [_draw(family, theta0, rng, n0)] + [_draw(family, t, rng, n) for t, n in sources]
        theta, flag = _fit(family, np.concatenate(pool))
        kls[trial] = _kl(family, theta0, theta)
        smoothed += flag
    return kls.mean(), kls.std(ddof=1) / np.sqrt(trials), smoothed


class TestBlockPathMatchesPerTrialLoop:
    @pytest.mark.parametrize("n0, sources, trials", [
        (100, [(np.array([0.1]), 100)], 1000),            # several blocks
        (30, [], 300),                                     # target only
        (0, [(np.array([0.3]), 40), (np.array([-0.2]), 0), (np.array([0.05]), 25)], 400),
        (40_000, [(np.array([0.2]), 30_000)], 100),        # one trial per block
    ])
    def test_gaussian_dim_one_is_bit_equal(self, n0, sources, trials):
        report = estimate_expected_kl(G, Z, sources, n0, trials, seed=41)
        mean, err, _ = reference_report(G, Z, sources, n0, trials, 41)
        assert report.mean_kl == mean
        assert report.std_err == err

    def test_gaussian_dim_two(self):
        g2 = GaussianMean(sigma=0.7, dim=2)
        theta0 = np.array([0.1, -0.2])
        sources = [(np.array([0.3, 0.0]), 40), (np.array([-0.1, 0.4]), 15)]
        report = estimate_expected_kl(g2, theta0, sources, 25, 500, seed=42)
        mean, err, _ = reference_report(g2, theta0, sources, 25, 500, 42)
        np.testing.assert_allclose([report.mean_kl, report.std_err], [mean, err], rtol=1e-12)

    @pytest.mark.parametrize("family, theta0, sources, n0, smoothing", [
        (BernoulliLogit(), np.array([0.4]), [(np.array([0.9]), 30), (np.array([-0.2]), 10)], 5, False),
        (BernoulliLogit(), np.array([3.0]), [], 3, True),
        (CategoricalLogits(num_classes=4), np.array([0.2, -0.1, 0.5]),
         [(np.array([0.0, 0.3, 0.1]), 20)], 10, False),
        (CategoricalLogits(num_classes=4), np.array([2.0, -2.0, 0.5]), [], 4, True),
    ], ids=["bernoulli", "bernoulli-smoothed", "categorical", "categorical-smoothed"])
    def test_discrete_families(self, family, theta0, sources, n0, smoothing):
        report = estimate_expected_kl(family, theta0, sources, n0, 600, seed=43)
        mean, err, smoothed = reference_report(family, theta0, sources, n0, 600, 43)
        np.testing.assert_allclose([report.mean_kl, report.std_err], [mean, err], rtol=1e-12)
        if smoothing:
            assert smoothed > 0

    @pytest.mark.parametrize("family, theta0, theta1, n0, cap, step", [
        (G, Z, np.array([0.1]), 50, 300, 25),
        (G, Z, np.array([0.4]), 1, 30, 7),
        (CategoricalLogits(num_classes=3), np.array([0.5, 0.0]), np.zeros(2), 6, 30, 4),
    ], ids=["gaussian", "gaussian-small-n0", "categorical"])
    def test_sweep_points_equal_independent_estimates(self, family, theta0, theta1, n0, cap, step):
        """Common random numbers: every grid point reports exactly what a
        separate estimate at that quantity, with the same seed, reports."""
        result = sweep_n1(family, theta0, theta1, n0, cap, step, trials=300, seed=44)
        parallel = sweep_n1(family, theta0, theta1, n0, cap, step, trials=300, seed=44, workers=2)
        for n, report, twin in zip(result.quantities, result.reports, parallel.reports):
            alone = estimate_expected_kl(family, theta0, [(theta1, int(n))], n0, 300, seed=44)
            assert (report.mean_kl, report.std_err) == (alone.mean_kl, alone.std_err)
            assert report.config == alone.config
            assert (twin.mean_kl, twin.std_err) == (alone.mean_kl, alone.std_err)


class TestBlockPartition:
    """Trials are cut into blocks, run in process or dealt to a pool; neither
    the cut nor the worker count reaches a trial's values."""

    @pytest.mark.parametrize("family, theta0, sources, n0, pooled, trials", [
        (G, Z, [(np.array([0.2]), 10)], 5, [5, 10, 15], 100),                   # one block
        (G, Z, [(np.array([0.2]), 20_000)], 15_000, [15_000, 35_000], 100),     # one trial a block
        (GaussianMean(sigma=0.7, dim=3), np.array([0.1, -0.2, 0.0]),
         [(np.array([0.3, 0.0, 0.1]), 40), (np.array([-0.1, 0.4, 0.0]), 25)], 30,
         [30, 70, 95], 1337),
    ], ids=["fewer-blocks-than-workers", "one-trial-per-block", "gaussian-dim-three"])
    def test_workers_give_bit_equal_kls(self, family, theta0, sources, n0, pooled, trials):
        serial = simlab._run_trials(family, theta0, sources, n0, pooled, trials, 51, 1)
        assert serial.shape == (len(pooled), trials)
        for workers in (2, 4):
            parallel = simlab._run_trials(family, theta0, sources, n0, pooled, trials, 51, workers)
            assert parallel.tobytes() == serial.tobytes()

    def test_zero_workers_run_in_process(self, monkeypatch):
        args = (G, Z, [(np.array([0.2]), 10_000)], 5_000, [15_000], 300, 52)  # 150 blocks
        serial = simlab._run_trials(*args, 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(simlab, "ProcessPoolExecutor", no_pool)
        none = simlab._run_trials(*args, 0)
        assert none.tobytes() == serial.tobytes()


class TestInputErrors:
    @pytest.fixture(autouse=True)
    def no_trial_runs(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a trial ran before the inputs were checked")
        monkeypatch.setattr(simlab, "_one_block", fail)

    def test_empty_pool(self):
        with pytest.raises(InsufficientDataError):
            estimate_expected_kl(G, Z, [(np.array([0.1]), 0)], 0, 100, seed=1)
        with pytest.raises(InsufficientDataError):
            sweep_n1(G, Z, np.array([0.1]), 0, 20, 10, 100, seed=1)

    @pytest.mark.parametrize("theta0, theta1", [
        (np.array([np.nan]), np.array([0.1])),
        (Z, np.array([0.1, 0.2])),
    ])
    def test_bad_parameter(self, theta0, theta1):
        with pytest.raises(InvalidParameterError):
            estimate_expected_kl(G, theta0, [(theta1, 0)], 10, 100, seed=1)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            estimate_expected_kl(G, Z, [(np.array([0.1]), -1)], 10, 100, seed=1)
        with pytest.raises(ValueError):
            estimate_expected_kl(G, Z, [], -1, 100, seed=1)
        with pytest.raises(ValueError):
            sweep_n1(G, Z, np.array([0.1]), 10, -5, 1, 100, seed=1)
        with pytest.raises(ValueError):
            sweep_n1(G, Z, np.array([0.1]), 10, 20, 10, 99, seed=1)

    def test_family_without_closed_form_mle(self):
        family = SoftmaxRegression(feature_dim=2, num_classes=3)
        theta = np.zeros(family.dim)
        with pytest.raises(ValueError, match="closed-form MLE"):
            estimate_expected_kl(family, theta, [(theta, 10)], 10, 100, seed=1)
