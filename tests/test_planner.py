"""Planner contracts: proxy formulas, the closed-form rule, QP, grid planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transfer_budget import planner
from transfer_budget.planner import (
    FeasibilityError,
    Regime,
    TransferProblem,
    optimal_single,
    plan_transfer,
    project_capped_simplex,
    proxy_derivative,
    proxy_multi,
    proxy_value,
    regime_curve,
    solve_alpha_qp,
)


class TestProxyValue:
    def test_no_transfer_reduces_to_target_only_rate(self):
        assert proxy_value(100, 0, 0.37) == pytest.approx(0.005, abs=1e-15)
        for t in (0.0, 0.01, 5.0):
            assert proxy_value(100, 0, t) == pytest.approx(1 / 200, abs=1e-15)

    def test_single_source_arithmetic(self):
        assert proxy_value(100, 100, 0.01) == pytest.approx(0.00375, abs=1e-15)

    def test_high_dimensional_scaling(self):
        assert proxy_value(100, 0, 0.3, dim=5) == pytest.approx(0.025, abs=1e-15)
        assert proxy_value(100, 100, 0.01, dim=2) == pytest.approx(0.0075, abs=1e-15)
        assert proxy_value(250, 17, 0.04, dim=1) == pytest.approx(
            proxy_value(250, 17, 0.04, dim=7) / 7, abs=1e-15
        )

    @given(
        n0=st.integers(1, 10_000),
        n1=st.integers(0, 10_000),
        t=st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_and_decreasing_in_target_count(self, n0, n1, t):
        value = proxy_value(n0, n1, t)
        assert value > 0.0
        assert proxy_value(n0 + 50, n1, t) < value

    def test_derivative_is_central_difference(self):
        for n0, s, t, dim in [(100, 40, 0.01, 1), (50, 300, 0.002, 4)]:
            h = 1e-4
            numeric = (proxy_value(n0, s + h, t, dim) - proxy_value(n0, s - h, t, dim)) / (2 * h)
            assert proxy_derivative(n0, s, t, dim) == pytest.approx(numeric, rel=1e-6)


class TestOptimalSingle:
    def test_monotone_regime_takes_the_cap(self):
        plan = optimal_single(100, 1000, 0.004)
        assert plan.n_star == 1000
        assert plan.regime is Regime.MONOTONE_DECREASING

    def test_interior_regime(self):
        plan = optimal_single(100, 1000, 0.01)
        assert plan.n_star == 100
        assert plan.regime is Regime.INTERIOR_MINIMUM
        assert plan.interior == pytest.approx(100.0)

    def test_cap_binds(self):
        assert optimal_single(100, 50, 0.01).n_star == 50

    def test_boundary_belongs_to_monotone_case(self):
        plan = optimal_single(100, 500, 0.005)  # n0 * t exactly 0.5
        assert plan.regime is Regime.MONOTONE_DECREASING
        assert plan.n_star == 500

    def test_stationary_point_zeroes_the_derivative(self):
        for n0, t in [(100, 0.01), (250, 0.004), (40, 0.9)]:
            if n0 * t <= 0.5:
                continue
            interior = n0 / (2 * n0 * t - 1)
            assert abs(proxy_derivative(n0, interior, t)) < 1e-10

    def test_beats_every_integer_on_random_instances(self):
        """Brute force over every integer in [0, cap] for 200 random triples."""
        rng = np.random.default_rng(60)
        for _ in range(200):
            n0 = int(rng.integers(1, 501))
            cap = int(rng.integers(1, 2001))
            t = float(rng.uniform(0.0, 0.1))
            plan = optimal_single(n0, cap, t)
            grid = np.arange(cap + 1)
            values = proxy_value(n0, grid, t)
            best = int(np.argmin(values))  # ties resolve to the smaller quantity
            assert plan.n_star == best


class TestRegimeCurve:
    def test_monotone_curve_strictly_decreases(self):
        curve = regime_curve(100, 1000, 0.004, 101)
        assert curve.regime is Regime.MONOTONE_DECREASING
        assert (np.diff(curve.values) < 0).all()

    def test_interior_curve_dips_at_the_stationary_point(self):
        curve = regime_curve(100, 1000, 0.01, 101)
        assert curve.regime is Regime.INTERIOR_MINIMUM
        assert curve.interior == pytest.approx(100.0)
        drop = np.diff(curve.values)
        sign_changes = np.sum(np.diff(np.sign(drop)) != 0)
        assert sign_changes == 1
        assert curve.quantities[np.argmin(curve.values)] == 100

    def test_two_point_curve_is_just_the_endpoints(self):
        curve = regime_curve(100, 400, 0.01, 2)
        np.testing.assert_array_equal(curve.quantities, [0, 400])

    def test_quantities_strictly_increase(self):
        curve = regime_curve(10, 7, 0.2, 50)  # more points than integers available
        assert (np.diff(curve.quantities) > 0).all()
        assert np.isfinite(curve.values).all() and (curve.values > 0).all()

    def test_values_are_the_proxy_of_the_given_dimension(self):
        for dim in (1, 3, 15):
            curve = regime_curve(80, 400, 0.01, 41, dim)
            np.testing.assert_array_equal(curve.values,
                                          proxy_value(80, curve.quantities, 0.01, dim))
        np.testing.assert_array_equal(regime_curve(80, 400, 0.01, 41).values,
                                      regime_curve(80, 400, 0.01, 41, 1).values)


def _random_capped_instance(rng, k=3):
    a = rng.normal(size=(k, k))
    gram = a @ a.T
    gram /= np.abs(gram).max()
    caps = rng.integers(1, 2000, size=k)
    s = int(rng.integers(1, caps.sum() + 1))
    return gram, s, caps


class TestCappedSimplexProjection:
    @given(
        y=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        raw_caps=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_feasible_output(self, y, raw_caps, data):
        k = min(len(y), len(raw_caps))
        y = np.array(y[:k])
        upper = np.array(raw_caps[:k])
        if upper.sum() < 1.0:
            upper = upper + (1.0 - upper.sum() + 0.1) / k
        x = project_capped_simplex(y, upper)
        assert abs(x.sum() - 1.0) <= 1e-12
        assert (x >= -1e-15).all()
        assert (x <= upper + 1e-12).all()

    def test_projection_is_idempotent_on_feasible_points(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            upper = rng.uniform(0.3, 1.0, size=4)
            if upper.sum() < 1:
                continue
            x = rng.dirichlet(np.ones(4))
            x = np.minimum(x, upper)
            x = x / x.sum() if x.sum() > 0 else x
            if (x > upper).any() or abs(x.sum() - 1) > 1e-12:
                continue
            np.testing.assert_allclose(project_capped_simplex(x, upper), x, atol=1e-12)

    def test_projection_is_closest_feasible_point(self):
        """No random feasible point lies closer to the query than the projection."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            upper = rng.uniform(0.2, 1.0, size=5)
            if upper.sum() < 1.0:
                continue
            y = rng.normal(size=5)
            x = project_capped_simplex(y, upper)
            base = np.linalg.norm(x - y)
            for _ in range(500):
                cand = rng.dirichlet(np.ones(5))
                if (cand <= upper).all():
                    assert np.linalg.norm(cand - y) >= base - 1e-9

    @pytest.mark.parametrize("y, upper, shift, projected", [
        # the sum reaches one exactly at the breakpoint where the last entry hits zero
        ([1.0, 0.5, 0.25], [1.0, 1.0, 1.0], 0.25, [0.75, 0.25, 0.0]),
        # a point of the simplex projects to itself
        ([0.2, 0.3, 0.5], [1.0, 1.0, 1.0], 0.0, [0.2, 0.3, 0.5]),
        # one entry held at its cap, the others share the rest
        ([2.0, 0.0, 0.0], [0.5, 1.0, 1.0], -0.25, [0.5, 0.25, 0.25]),
        # one at its cap, one free, one at zero
        ([3.0, 1.0, -1.0], [0.25, 1.0, 1.0], 0.25, [0.25, 0.75, 0.0]),
        ([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], -0.25, [0.25, 0.25, 0.25, 0.25]),
    ])
    def test_breakpoint_shift_is_exact(self, y, upper, shift, projected):
        y, upper = np.array(y), np.array(upper)
        assert planner._capped_shift(y, upper) == shift
        np.testing.assert_array_equal(project_capped_simplex(y, upper), projected)

    def test_empty_set_rejected(self):
        with pytest.raises(FeasibilityError):
            project_capped_simplex(np.array([0.5, 0.5]), np.array([0.3, 0.3]))


class TestAlphaQP:
    def test_symmetric_instance_is_uniform(self):
        alpha = solve_alpha_qp(np.eye(3), 30, [100, 100, 100])
        np.testing.assert_allclose(alpha, 1 / 3, atol=1e-9)

    def test_unconstrained_stationarity(self):
        alpha = solve_alpha_qp(np.diag([1.0, 4.0]), 10, [100, 100])
        np.testing.assert_allclose(alpha, [0.8, 0.2], atol=1e-6)
        assert alpha @ np.diag([1.0, 4.0]) @ alpha == pytest.approx(0.8, abs=1e-9)

    def test_active_cap(self):
        alpha = solve_alpha_qp(np.diag([1.0, 4.0]), 100, [1000, 10])
        np.testing.assert_allclose(alpha, [0.9, 0.1], atol=1e-9)
        assert alpha @ np.diag([1.0, 4.0]) @ alpha == pytest.approx(0.85, abs=1e-9)

    def test_infeasible_total_rejected(self):
        with pytest.raises(FeasibilityError):
            solve_alpha_qp(np.eye(2), 300, [100, 100])

    def test_matches_brute_force_grid(self):
        """Seeded PSD instances: objective within 1e-6 of a 1e-3-resolution grid."""
        rng = np.random.default_rng(101)
        grid = np.arange(0, 1.0005, 0.001)
        a1, a2 = np.meshgrid(grid, grid, indexing="ij")
        a3 = 1.0 - a1 - a2
        keep = a3 >= -1e-12
        points = np.stack([a1[keep], a2[keep], np.maximum(a3[keep], 0.0)], axis=1)
        for _ in range(10):
            gram, s, caps = _random_capped_instance(rng)
            feasible = points[(points <= np.minimum(caps / s, 1.0) + 1e-12).all(axis=1)]
            objective = np.einsum("gi,ij,gj->g", feasible, gram, feasible)
            alpha = solve_alpha_qp(gram, s, caps)
            assert alpha @ gram @ alpha <= objective.min() + 1e-6

    def test_never_beaten_by_random_feasible_points(self):
        rng = np.random.default_rng(7)
        gram, s, caps = _random_capped_instance(rng)
        alpha = solve_alpha_qp(gram, s, caps)
        best = alpha @ gram @ alpha
        upper = np.minimum(caps / s, 1.0)
        found = 0
        while found < 100_000:
            cand = rng.dirichlet(np.ones(3), size=4096)
            cand = cand[(cand <= upper + 0.0).all(axis=1)]
            found += cand.shape[0]
            if cand.size:
                assert np.einsum("gi,ij,gj->g", cand, gram, cand).min() >= best - 1e-12

    def test_scale_invariant_argmin(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            gram, s, caps = _random_capped_instance(rng)
            a1 = solve_alpha_qp(gram, s, caps)
            a2 = solve_alpha_qp(37.5 * gram, s, caps)
            np.testing.assert_allclose(a1, a2, atol=1e-8)

    def test_feasibility_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            gram, s, caps = _random_capped_instance(rng)
            alpha = solve_alpha_qp(gram, s, caps)
            assert abs(alpha.sum() - 1.0) <= 1e-12
            assert (alpha >= -1e-15).all()
            assert (s * alpha <= caps + 1e-9 * s).all()


def _kkt_violations(gram, s, caps, alpha):
    """Largest violation of each optimality condition, on the Gram scaled to
    largest entry one: feasibility, stationarity on the free entries, and the
    multiplier signs at zero and at the cap. Entries exactly at zero or at
    ``caps/s`` (below one) count as bound; any ``lam`` that certifies them is
    taken."""
    m = gram / max(np.abs(gram).max(), np.finfo(float).tiny)
    upper = caps / s
    at_zero = alpha == 0.0
    at_cap = (alpha == upper) & (caps < s)
    free = ~at_zero & ~at_cap
    g = m @ alpha
    if free.any():
        lam = 0.5 * (g[free].max() + g[free].min())
        stationarity = g[free].max() - lam
    else:
        lam = g[at_cap].max()
        stationarity = 0.0
    return {
        "sum": abs(alpha.sum() - 1.0),
        "negative": max(-alpha.min(), 0.0),
        "over_cap": max((alpha - upper).max(), 0.0),
        "stationarity": stationarity,
        "zero_multiplier": max((lam - g[at_zero]).max(initial=0.0), 0.0),
        "cap_multiplier": max((g[at_cap] - lam).max(initial=0.0), 0.0),
    }


def _full_rank(rng, k):
    a = rng.normal(size=(k, k))
    return a @ a.T


def _low_rank(rng, k, rank):
    d = rng.normal(size=(rank, k))
    return d.T @ d


class TestKKTCertificate:
    """Every total of the grid satisfies the KKT conditions to 1e-12; no
    reference solver is involved."""

    INSTANCES = {
        "full-rank-K3": lambda rng: (_full_rank(rng, 3), rng.integers(1, 2000, 3)),
        "full-rank-K10": lambda rng: (_full_rank(rng, 10), rng.integers(1, 700, 10)),
        "rank-1-K3": lambda rng: (_low_rank(rng, 3, 1), rng.integers(1, 2000, 3)),
        "rank-8-K10": lambda rng: (_low_rank(rng, 10, 8), rng.integers(1, 700, 10)),
        # at seed 11 a cap binds, is released as s grows, and binds again
        "rank-4-K6": lambda rng: (_low_rank(rng, 6, 4), rng.integers(1, 300, 6)),
        # caps from 5 to 400: every cap binds somewhere on the grid
        "zero-gram": lambda rng: (np.zeros((4, 4)), np.array([5, 40, 120, 400])),
    }

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_every_grid_total_is_certified(self, name, seed):
        gram, caps = self.INSTANCES[name](np.random.default_rng(seed))
        caps = np.asarray(caps, dtype=np.int64)
        s_values = np.arange(1, caps.sum() + 1)  # every total, the summed caps included
        alphas = planner._solve_qp_batch(gram, s_values, caps)
        worst = {}
        for s, alpha in zip(s_values, alphas):
            for key, value in _kkt_violations(gram, s, caps, alpha).items():
                worst[key] = max(worst.get(key, 0.0), value)
        assert all(value <= 1e-12 for value in worst.values()), worst

    def test_zero_gram_is_uniform_over_spare_capacity(self):
        caps = np.array([5, 40, 120, 400])
        for s in (4, 20, 100, 300, 565):
            alpha = solve_alpha_qp(np.zeros((4, 4)), s, caps)
            np.testing.assert_allclose(
                alpha, project_capped_simplex(np.full(4, 0.25), caps / s), atol=1e-15)

    @pytest.mark.parametrize("cap", [1, 7, 1000])
    def test_single_source_takes_everything_up_to_its_cap(self, cap):
        for gram in ([[0.0]], [[0.3]]):
            s_values = np.arange(1, cap + 1)  # cap above s, then equal to it
            alphas = planner._solve_qp_batch(np.array(gram), s_values, np.array([cap]))
            np.testing.assert_array_equal(alphas, 1.0)
            with pytest.raises(FeasibilityError):  # cap below s
                solve_alpha_qp(gram, cap + 1, [cap])

    def test_slightly_indefinite_gram_is_solved(self):
        """TransferProblem admits eigenvalues down to -1e-8 of the scale; the
        solver must still finish, and certify to that order."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            k = 8
            gram = _low_rank(rng, k, 6)
            gram = gram / np.abs(gram).max() - 5e-9 * np.eye(k)
            caps = rng.integers(1, 400, k)
            problem = TransferProblem(n0=50, dim=3, caps=caps, gram=gram)
            s_values = plan_transfer(problem, include_curve=True).curve.quantities[1:]
            alphas = planner._solve_qp_batch(gram, s_values, caps)
            for s, alpha in zip(s_values, alphas):
                assert max(_kkt_violations(gram, s, caps, alpha).values()) <= 1e-7

    def test_iteration_bound_raises(self, monkeypatch):
        monkeypatch.setattr(planner, "_ACTIVE_SET_ITERS_PER_SOURCE", 0)
        with pytest.raises(RuntimeError, match="did not finish"):
            solve_alpha_qp(np.eye(3), 30, [100, 100, 100])

    def test_non_finite_gram_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                TransferProblem(n0=10, dim=1, caps=[5, 5], gram=[[1.0, bad], [bad, 1.0]])


# --------------------------------------------------------------------------
# Oracle: the projected-gradient solver the exact sweep replaced, with its
# logic unchanged, to check that plans do not change. Bisection projection,
# lockstep projected gradient with exact line search, stopped at an objective
# gain below 1e-12.
# --------------------------------------------------------------------------

def _oracle_project(y, upper):
    lo = (y - upper).min(axis=1)
    hi = y.max(axis=1)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        total = np.clip(y - mid[:, None], 0.0, upper).sum(axis=1)
        above = total > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    lam = 0.5 * (lo + hi)
    return np.clip(y - lam[:, None], 0.0, upper)


def _oracle_descent(m, alpha, upper, tol=1e-12, max_iter=10_000):
    lam_max = float(np.linalg.eigvalsh(m)[-1])
    if lam_max <= 0.0:
        return alpha
    eta = 1.0 / (2.0 * lam_max)
    obj = np.einsum("gi,ij,gj->g", alpha, m, alpha)
    active = np.arange(alpha.shape[0])
    for _ in range(max_iter):
        a = alpha[active]
        grad = 2.0 * a @ m
        direction = _oracle_project(a - eta * grad, upper[active]) - a
        curv = np.einsum("gi,ij,gj->g", direction, m, direction)
        slope = np.einsum("gi,gi->g", grad, direction)
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = np.where(curv > 0.0, -0.5 * slope / np.maximum(curv, 1e-300), 1.0)
        gamma = np.clip(gamma, 0.0, 1.0)
        a_new = a + gamma[:, None] * direction
        obj_new = np.einsum("gi,ij,gj->g", a_new, m, a_new)
        alpha[active] = a_new
        improved = obj[active] - obj_new
        obj[active] = obj_new
        active = active[improved >= tol]
        if active.size == 0:
            break
    return alpha


def _oracle_solve_qp_batch(m, s_values, caps):
    k = m.shape[0]
    scale = float(np.abs(m).max())
    if scale > 0.0:
        m = m / scale
    upper = np.minimum(caps[None, :].astype(np.float64) / s_values[:, None], 1.0)
    base = _oracle_descent(m, np.full((1, k), 1.0 / k), np.ones((1, k)))[0]
    alpha = _oracle_project(np.broadcast_to(base, upper.shape).copy(), upper)
    return _oracle_descent(m, alpha, upper)


def _fixed_spectrum(rng, k):
    """Offsets in dim 2K with singular values 0.3 down to 0.15 (Gram condition 4)."""
    q, _ = np.linalg.qr(rng.standard_normal((2 * k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q @ np.diag(np.linspace(0.3, 0.15, k)) @ v.T


def _panel(rng, k, dim):
    """Equal-scale offsets in ``dim < K`` dimensions; in one they share a direction."""
    if dim == 1:
        directions = np.ones((1, k))
    else:
        directions = rng.standard_normal((dim, k))
        directions /= np.linalg.norm(directions, axis=0)
    return directions * rng.uniform(0.15, 0.25, k)


def _plan_with(solver, problem, monkeypatch):
    """``plan_transfer`` with ``solver`` as its QP sweep, and the sweep's optima."""
    solved = []

    def recording(*args):
        solved.append(solver(*args))
        return solved[-1]

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_solve_qp_batch", recording)
        plan = plan_transfer(problem)
    return plan, solved[0]


class TestAgainstProjectedGradientOracle:
    CASES = [("full-rank-K3", 3, 0), ("full-rank-K10", 10, 0),
             ("panel-K3-dim1", 3, 1), ("panel-K10-dim8", 10, 8)]

    @pytest.mark.parametrize("name, k, dim", CASES)
    def test_same_plan_and_never_a_worse_objective(self, name, k, dim, monkeypatch):
        # the oracle's time varies up to 40x between rank-deficient draws; the
        # two panel draws of this stream take about a second each
        rng = np.random.default_rng([25, k, dim])
        for _ in range(2):
            offsets = _fixed_spectrum(rng, k) if dim == 0 else _panel(rng, k, dim)
            problem = TransferProblem(n0=int(rng.integers(50, 401)), dim=offsets.shape[0],
                                      caps=rng.integers(300, 701, k), gram=offsets.T @ offsets,
                                      step_number=300)
            plan, exact = _plan_with(planner._solve_qp_batch, problem, monkeypatch)
            oracle_plan, oracle = _plan_with(_oracle_solve_qp_batch, problem, monkeypatch)
            assert plan.s_star == oracle_plan.s_star
            np.testing.assert_array_equal(plan.n_star, oracle_plan.n_star)
            ours = np.einsum("gi,ij,gj->g", exact, problem.gram, exact)
            theirs = np.einsum("gi,ij,gj->g", oracle, problem.gram, oracle)
            assert (theirs > 0.0).all()
            assert ((ours - theirs) / theirs).max() <= 1e-12


# --------------------------------------------------------------------------
# Oracle: the chunked scan that ended each sweep piece before the exact roots
# did, with its logic unchanged. It tests every KKT condition at the later
# totals, in chunks of doubling length, and returns the first failing one.
# --------------------------------------------------------------------------

def _oracle_piece_length(m, free, at_cap, caps, solution, s):
    a, b, c, d = solution
    zero = ~free & ~at_cap
    ma, mb = m @ a, m @ b
    end, chunk = 1, 8
    while end < s.shape[0]:
        t = s[end:end + chunk, None]
        alpha = a[free] + b[free] / t
        g = ma + mb / t
        lam = c + d / t
        floor = planner._SIGN_FLOOR
        ok = ((alpha >= -floor) & (alpha <= caps[free] / t + floor)).all(axis=1)
        ok &= (g[:, zero] - lam >= -floor).all(axis=1)
        ok &= (lam - g[:, at_cap] >= -floor).all(axis=1)
        if not ok.all():
            return end + int(np.argmin(ok))
        end += t.shape[0]
        chunk *= 2
    return s.shape[0]


class TestExactPieceEnds:
    """Each piece ends where the chunked scan ended it, and the sweep solves
    the active set once per piece."""

    @pytest.fixture
    def ends(self, monkeypatch):
        exact, recorded = planner._piece_length, []

        def both(*args):
            recorded.append((exact(*args), _oracle_piece_length(*args)))
            return recorded[-1][0]

        monkeypatch.setattr(planner, "_piece_length", both)
        return recorded

    @pytest.mark.parametrize("name", sorted(TestKKTCertificate.INSTANCES))
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_certificate_instances(self, name, seed, ends):
        gram, caps = TestKKTCertificate.INSTANCES[name](np.random.default_rng(seed))
        caps = np.asarray(caps, dtype=np.int64)
        planner._solve_qp_batch(gram, np.arange(1, caps.sum() + 1), caps)
        assert ends and all(ours == scan for ours, scan in ends), ends

    @pytest.mark.parametrize("name, k, dim", TestAgainstProjectedGradientOracle.CASES)
    def test_oracle_comparison_instances(self, name, k, dim, ends):
        rng = np.random.default_rng([25, k, dim])
        for _ in range(2):
            offsets = _fixed_spectrum(rng, k) if dim == 0 else _panel(rng, k, dim)
            problem = TransferProblem(n0=int(rng.integers(50, 401)), dim=offsets.shape[0],
                                      caps=rng.integers(300, 701, k), gram=offsets.T @ offsets,
                                      step_number=300)
            plan_transfer(problem)
        assert ends and all(ours == scan for ours, scan in ends), ends

    def test_zero_gram_pieces_start_where_a_cap_binds(self, monkeypatch):
        """Uniform weights until s = 21 binds the cap 5; then the cap 40 binds
        at s = 126 and the cap 120 at s = 286."""
        solve, starts = planner._active_set, []

        def counting(m, alpha, caps, s):
            starts.append(s)
            return solve(m, alpha, caps, s)

        monkeypatch.setattr(planner, "_active_set", counting)
        caps = np.array([5, 40, 120, 400])
        planner._solve_qp_batch(np.zeros((4, 4)), np.arange(1, caps.sum() + 1), caps)
        assert starts == [1, 21, 126, 286]


class TestProxyMulti:
    def _problem(self, gram=None, caps=(100, 100), n0=100, dim=1):
        gram = np.zeros((len(caps), len(caps))) if gram is None else np.asarray(gram)
        return TransferProblem(n0=n0, dim=dim, caps=list(caps), gram=gram)

    def test_zero_total_is_target_only_rate(self):
        problem = self._problem(dim=3, n0=60)
        assert proxy_multi(problem, 0, np.zeros(2)) == pytest.approx(3 / 120)

    def test_single_source_reduction(self):
        problem = self._problem(gram=[[0.04]], caps=(500,), dim=4)
        expected = proxy_value(100, 120, 0.01, dim=4)
        assert proxy_multi(problem, 120, np.array([1.0])) == pytest.approx(expected, abs=1e-15)

    def test_matches_single_proxy_example(self):
        problem = self._problem(gram=[[0.01]], caps=(200,), dim=1)
        assert proxy_multi(problem, 100, np.array([1.0])) == pytest.approx(0.00375, abs=1e-15)

    def test_infeasible_alpha_rejected(self):
        problem = self._problem(caps=(10, 100))
        with pytest.raises(FeasibilityError):
            proxy_multi(problem, 100, np.array([0.5, 0.5]))
        with pytest.raises(FeasibilityError):
            proxy_multi(problem, 50, np.array([0.9, 0.3]))


class TestPlanTransfer:
    def test_zero_gram_transfers_everything_uniformly(self):
        problem = TransferProblem(n0=100, dim=1, caps=[300, 300, 300], gram=np.zeros((3, 3)))
        plan = plan_transfer(problem)
        assert plan.s_star == 900
        np.testing.assert_array_equal(plan.n_star, [300, 300, 300])
        np.testing.assert_allclose(plan.alpha_star, 1 / 3, atol=1e-12)

    def test_single_source_matches_closed_form(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n0 = int(rng.integers(10, 500))
            cap = int(rng.integers(1, 2000))
            t = float(rng.uniform(0.0, 0.1))
            problem = TransferProblem(n0=n0, dim=1, caps=[cap], gram=[[t]])
            plan = plan_transfer(problem)
            single = optimal_single(n0, cap, t)
            assert abs(plan.n_star[0] - single.n_star) <= cap / 1000 + 1

    def test_shifted_source_is_excluded(self):
        problem = TransferProblem(n0=100, dim=1, caps=[500, 500], gram=np.diag([0.0, 10.0]))
        plan = plan_transfer(problem)
        assert plan.n_star[1] == 0
        assert plan.n_star[0] == 500

    def test_plan_is_feasible_and_consistent(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            gram, _, caps = _random_capped_instance(rng)
            problem = TransferProblem(n0=int(rng.integers(5, 400)), dim=3,
                                      caps=caps, gram=gram * 0.05)
            plan = plan_transfer(problem)
            assert plan.n_star.sum() == plan.s_star
            assert (plan.n_star >= 0).all() and (plan.n_star <= caps).all()
            if plan.s_star > 0:
                assert plan.alpha_star.sum() == pytest.approx(1.0, abs=1e-12)
            assert plan.predicted_proxy == pytest.approx(
                proxy_multi(problem, plan.s_star, plan.alpha_star), abs=1e-15
            )
            # integerization can cost at most the proxy variation over a grid step
            assert plan.rounding_gap >= -1e-15

    def test_included_curve_tabulates_the_grid(self):
        problem = TransferProblem(n0=50, dim=2, caps=[40, 60], gram=0.02 * np.eye(2))
        plan = plan_transfer(problem, include_curve=True)
        assert plan.curve is not None
        assert plan.curve.quantities[0] == 0
        assert plan.curve.quantities[-1] == 100
        assert (np.diff(plan.curve.quantities) > 0).all()

    def test_ties_prefer_smaller_total(self):
        # a flat stretch: gram tuned so two grid points score equally is rare,
        # but s = 0 vs s = total must resolve deterministically under exact flatness
        problem = TransferProblem(n0=100, dim=1, caps=[10], gram=[[0.0]])
        plan = plan_transfer(problem)
        assert plan.s_star == 10  # strictly better than zero: variance shrinks

    def test_integerization_gap_is_bounded_by_one_grid_step(self):
        """Rounding s* alpha* to integers costs at most the proxy variation
        across the neighbouring grid totals."""
        rng = np.random.default_rng(46)
        for _ in range(20):
            gram, _, caps = _random_capped_instance(rng)
            problem = TransferProblem(n0=int(rng.integers(5, 400)), dim=3,
                                      caps=caps, gram=gram * 0.02)
            plan = plan_transfer(problem, include_curve=True)
            position = int(np.searchsorted(plan.curve.quantities, plan.s_star))
            lo = max(position - 1, 0)
            hi = min(position + 1, plan.curve.quantities.shape[0] - 1)
            neighbourhood = plan.curve.values[lo:hi + 1]
            variation = neighbourhood.max() - neighbourhood.min()
            assert -1e-15 <= plan.rounding_gap <= variation + 1e-12



class TestLargeTotals:
    """Totals beyond int64 squares, and grids longer than the totals they cover."""

    @staticmethod
    def grid_values(n0, s, quad):
        s = np.asarray(s, dtype=np.float64)
        return 0.5 / (n0 + s) + 0.5 * s * s * quad / (n0 + s) ** 2

    def test_grid_optimum_beyond_the_int64_square_range(self):
        # the grid steps by 2e9; squaring 4e9 in int64 would wrap to a negative value
        n0, g = 10**9, 1.5e-9
        plan = plan_transfer(TransferProblem(n0=n0, dim=1, caps=[10**12, 10**12],
                                             gram=g * np.eye(2)))
        totals = np.arange(0, 1001) * 2 * 10**9
        brute = self.grid_values(n0, totals, g / 2)  # alpha = (1/2, 1/2) at every total
        assert plan.s_star == totals[np.argmin(brute)] == 2 * 10**9

    def test_continuous_proxy_of_a_large_total(self):
        n0, g = 100, 1e-10
        plan = plan_transfer(TransferProblem(n0=n0, dim=1, caps=[4 * 10**9] * 2,
                                             gram=g * np.eye(2)))
        assert plan.s_star == 8 * 10**9
        assert plan.continuous_proxy == pytest.approx(
            self.grid_values(n0, plan.s_star, g / 2), rel=1e-12)
        assert plan.continuous_proxy == pytest.approx(plan.predicted_proxy, rel=1e-12)

    @pytest.mark.parametrize("caps", [[10**16], [2**62, 2**62], [2**52, 2**52]],
                             ids=["above-2-53", "sum-wraps-int64", "sum-at-2-53"])
    def test_caps_summing_to_2_53_are_rejected(self, caps):
        with pytest.raises(ValueError, match="caps must sum"):
            TransferProblem(n0=10, dim=1, caps=caps, gram=np.eye(len(caps)))

    def test_caps_just_below_2_53_plan(self):
        caps = [2**52, 2**52 - 1]
        plan = plan_transfer(TransferProblem(n0=10, dim=1, caps=caps, gram=np.zeros((2, 2))))
        assert plan.s_star == sum(caps)
        np.testing.assert_array_equal(plan.n_star, caps)

    def test_step_number_beyond_the_total_is_every_integer(self):
        problem = TransferProblem(n0=20, dim=1, caps=[30, 17], gram=0.05 * np.eye(2),
                                  step_number=2**62)
        plan = plan_transfer(problem, include_curve=True)
        np.testing.assert_array_equal(plan.curve.quantities, np.arange(48))
        exact = plan_transfer(TransferProblem(n0=20, dim=1, caps=[30, 17],
                                              gram=0.05 * np.eye(2), step_number=47))
        assert (plan.s_star, plan.predicted_proxy) == (exact.s_star, exact.predicted_proxy)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(total=st.integers(1, 10**7), step_number=st.integers(1, 3000))
    def test_grid_is_the_rounded_even_grid(self, total, step_number):
        """{0} and floor(k total / step_number + 1/2) for k = 1..step_number,
        here in exact integer arithmetic."""
        problem = TransferProblem(n0=50, dim=1, caps=[total], gram=[[0.01]],
                                  step_number=step_number)
        k = np.arange(1, step_number + 1, dtype=object)
        expected = np.unique(np.concatenate(([0], (2 * k * total + step_number)
                                                   // (2 * step_number))).astype(np.int64))
        quantities = plan_transfer(problem, include_curve=True).curve.quantities
        np.testing.assert_array_equal(quantities, expected)

    def test_curve_grid_points_beyond_the_cap(self):
        huge = regime_curve(100, 250, 0.01, 2**62)
        exact = regime_curve(100, 250, 0.01, 251)
        np.testing.assert_array_equal(huge.quantities, np.arange(251))
        np.testing.assert_array_equal(huge.values, exact.values)

    @pytest.mark.parametrize("cap", [2**52 + 1, 2**53 - 1])
    def test_curve_ends_at_a_cap_below_2_53(self, cap):
        # cap + 1/2 rounds up to cap + 1 in float64 here
        assert regime_curve(100, cap, 0.01, 11).quantities[-1] == cap

    def test_curve_cap_of_2_53_is_rejected(self):
        with pytest.raises(ValueError, match="cap must be below"):
            regime_curve(100, 2**53, 0.01, 11)


class TestApportionment:
    @given(
        s=st.integers(1, 5000),
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_split_preserves_total_and_caps(self, s, weights, data):
        from transfer_budget.planner import _apportion

        weights = np.array(weights) + 1e-9
        alpha = weights / weights.sum()
        k = alpha.shape[0]
        caps = np.array(
            data.draw(st.lists(st.integers(1, 5000), min_size=k, max_size=k))
        )
        if s > caps.sum():
            return
        # feasible alpha for this total: project the proportions under the caps
        alpha = project_capped_simplex(alpha, np.minimum(caps / s, 1.0))
        n = _apportion(s, alpha, caps)
        assert n.sum() == s
        assert (n >= 0).all() and (n <= caps).all()

    def test_ties_go_to_the_lower_index(self):
        from transfer_budget.planner import _apportion

        n = _apportion(1, np.array([0.5, 0.5]), np.array([10, 10]))
        np.testing.assert_array_equal(n, [1, 0])

    def test_rounds_match_the_one_unit_at_a_time_loop(self):
        """Each round of leftover units is one array step; the reference hands
        the units out one at a time, in the same order."""
        from transfer_budget.planner import _apportion

        def one_at_a_time(s, alpha, caps):
            raw = s * alpha
            n = np.minimum(np.floor(raw).astype(np.int64), caps)
            remaining = s - int(n.sum())
            order = np.lexsort((np.arange(alpha.shape[0]), -(raw - n)))
            while remaining > 0:
                progressed = False
                for i in order:
                    if remaining > 0 and n[i] < caps[i]:
                        n[i] += 1
                        remaining -= 1
                        progressed = True
                if not progressed:
                    raise FeasibilityError("caps cannot absorb the planned total quantity")
            return n

        rng = np.random.default_rng(48)
        for _ in range(3000):
            k = int(rng.integers(1, 8))
            caps = rng.integers(1, 31, k)
            alpha = rng.dirichlet(np.ones(k)) if rng.random() < 0.8 else rng.random(k)
            s = int(rng.integers(1, caps.sum() + 3))
            try:
                expected = one_at_a_time(s, alpha, caps)
            except FeasibilityError:
                with pytest.raises(FeasibilityError):
                    _apportion(s, alpha, caps)
                continue
            np.testing.assert_array_equal(_apportion(s, alpha, caps), expected)
