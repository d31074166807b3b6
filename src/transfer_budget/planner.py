"""Optimal transfer-quantity planning.

The generalization-error proxy being minimized is, for ``s`` transferred
samples pooled with ``n0`` target samples,

    dim/2 * ( 1/(n0 + s) + s^2/(n0 + s)^2 * t )

where ``t`` is the Fisher-weighted squared parameter offset per dimension (a
single source's discrepancy, or ``alpha^T M alpha / dim`` for a mix of
sources). The single-source minimizer has a closed form with two regimes split
at ``n0 * t = 0.5``; the multi-source problem is solved by a grid over the
total quantity with a capped-simplex quadratic program at each grid point.
Those programs are solved exactly, with no tolerance-based stop: their
optimum is piecewise affine in ``1/s``, so one warm-started active-set sweep
over the grid finds each piece's optimal face, ends the piece at the exact
root of its first failing KKT condition and evaluates the piece's closed form
at all of its grid points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Regime",
    "SinglePlan",
    "ProxyCurve",
    "TransferProblem",
    "TransferPlan",
    "FeasibilityError",
    "proxy_value",
    "proxy_derivative",
    "optimal_single",
    "proxy_multi",
    "project_capped_simplex",
    "solve_alpha_qp",
    "plan_transfer",
    "regime_curve",
]

#: Floor of the QP solver's sign tests, on the Gram scaled to largest entry
#: one: a bound or a multiplier counts as violated only below ``-_SIGN_FLOOR``,
#: so roundoff in the KKT solves neither ends a sweep piece nor releases a bound.
_SIGN_FLOOR = 1e-13
#: Iteration bound of one active-set solve, per source; reaching it raises.
_ACTIVE_SET_ITERS_PER_SOURCE = 10
#: Bound on summed caps (and on a curve's cap): below it every transfer
#: quantity, and the grid arithmetic on it, is exact in float64.
_MAX_TOTAL = 2**53


class FeasibilityError(ValueError):
    """Requested transfer quantities exceed what the sources can supply."""


class Regime(Enum):
    """Shape of the proxy as a function of the transfer quantity."""

    MONOTONE_DECREASING = "monotone_decreasing"
    INTERIOR_MINIMUM = "interior_minimum"


def proxy_value(n0: int, s, t, dim: int = 1):
    """Leading-order expected-KL proxy at transfer quantity ``s``.

    Vectorized over ``s`` and ``t``. The remainder term of the underlying
    expansion is dropped; for Gaussian-mean families the returned value is the
    exact finite-sample expectation.
    """
    s = np.asarray(s, dtype=np.float64)
    total = n0 + s
    return 0.5 * dim * (1.0 / total + (s * s) * np.asarray(t) / (total * total))


def proxy_derivative(n0: int, s, t, dim: int = 1):
    """Analytic d/ds of :func:`proxy_value`; zero at the interior optimum."""
    s = np.asarray(s, dtype=np.float64)
    total = n0 + s
    return 0.5 * dim * (2.0 * n0 * s * np.asarray(t) - total) / total ** 3


@dataclass(frozen=True)
class SinglePlan:
    """Closed-form single-source answer: quantity, regime and stationary point."""

    n_star: int
    regime: Regime
    interior: float | None = None


def optimal_single(n0: int, cap: int, t: float) -> SinglePlan:
    """Optimal single-source transfer quantity.

    When ``n0 * t <= 0.5`` the proxy decreases monotonically, so the source
    cap is taken whole. Otherwise the proxy dips at ``n0 / (2 n0 t - 1)``;
    the returned integer is whichever of its floor/ceiling neighbours scores
    lower (ties to the smaller quantity), clipped by the cap.
    """
    if n0 < 1 or cap < 1:
        raise ValueError("n0 and cap must be positive")
    if t < 0:
        raise ValueError("discrepancy must be nonnegative")
    if n0 * t <= 0.5:
        return SinglePlan(n_star=cap, regime=Regime.MONOTONE_DECREASING)
    interior = n0 / (2.0 * n0 * t - 1.0)
    if interior >= cap:
        return SinglePlan(n_star=cap, regime=Regime.INTERIOR_MINIMUM, interior=interior)
    lo, hi = int(math.floor(interior)), int(math.ceil(interior))
    if lo == hi or proxy_value(n0, lo, t) <= proxy_value(n0, hi, t):
        best = lo
    else:
        best = hi
    return SinglePlan(n_star=min(best, cap), regime=Regime.INTERIOR_MINIMUM, interior=interior)


@dataclass(frozen=True)
class ProxyCurve:
    """Tabulated proxy values over a quantity grid, with the regime label."""

    quantities: np.ndarray
    values: np.ndarray
    regime: Regime
    interior: float | None = None


def regime_curve(n0: int, cap: int, t: float, grid_points: int) -> ProxyCurve:
    """Tabulate the single-source proxy over an even grid on ``[0, cap]``.

    More than ``cap + 1`` points repeat quantities, so at most that many are
    laid out: the grid is the same, with no allocation beyond it.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if cap >= _MAX_TOTAL:
        raise ValueError(f"cap must be below 2**53 = {_MAX_TOTAL}, got {cap}")
    points = min(grid_points, cap + 1)
    grid = np.floor(np.linspace(0.0, cap, points) + 0.5).astype(np.int64)
    grid = np.unique(np.minimum(grid, cap))  # rounding up must not pass the cap
    plan = optimal_single(n0, cap, t)
    return ProxyCurve(
        quantities=grid,
        values=proxy_value(n0, grid, t),
        regime=plan.regime,
        interior=plan.interior,
    )


@dataclass
class TransferProblem:
    """Input to the multi-source planner.

    ``gram`` is the K x K matrix of Fisher-weighted source-offset inner
    products; ``caps`` are the per-source sample budgets.
    """

    n0: int
    dim: int
    caps: np.ndarray
    gram: np.ndarray
    step_number: int = 1000

    def __post_init__(self):
        self.caps = np.asarray(self.caps, dtype=np.int64)
        self.gram = np.asarray(self.gram, dtype=np.float64)
        if self.n0 < 1 or self.dim < 1 or self.step_number < 1:
            raise ValueError("n0, dim and step_number must be positive")
        k = self.caps.shape[0]
        if k < 1 or (self.caps < 1).any():
            raise ValueError("need at least one source with a positive cap")
        if sum(int(c) for c in self.caps) >= _MAX_TOTAL:  # a Python sum cannot wrap
            raise ValueError(f"caps must sum to less than 2**53 = {_MAX_TOTAL}")
        if self.gram.shape != (k, k):
            raise ValueError(f"gram must be {k} x {k} to match the caps")
        if not np.isfinite(self.gram).all():
            raise ValueError("gram matrix must be finite")
        if not np.allclose(self.gram, self.gram.T, atol=1e-10):
            raise ValueError("gram matrix must be symmetric")
        scale = max(1.0, float(np.abs(self.gram).max()))
        if np.linalg.eigvalsh(self.gram)[0] < -1e-8 * scale:
            raise ValueError("gram matrix must be positive semidefinite")

    @property
    def num_sources(self) -> int:
        return self.caps.shape[0]


def proxy_multi(problem: TransferProblem, s: int, alpha) -> float:
    """Proxy value for a feasible ``(s, alpha)`` split; ``alpha`` is ignored at s=0."""
    if s < 0:
        raise FeasibilityError("total transfer quantity must be nonnegative")
    if s == 0:
        return float(0.5 * problem.dim / problem.n0)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (problem.num_sources,):
        raise ValueError("alpha length must match the number of sources")
    if abs(alpha.sum() - 1.0) > 1e-9 or (alpha < -1e-12).any():
        raise FeasibilityError("alpha must lie on the simplex")
    if (s * alpha > problem.caps + 0.5).any():
        raise FeasibilityError("alpha exceeds a source cap at this total quantity")
    t = float(alpha @ problem.gram @ alpha) / problem.dim
    return float(proxy_value(problem.n0, s, t, problem.dim))


def _capped_shift(y: np.ndarray, upper: np.ndarray) -> float:
    """The shift ``tau`` with ``sum(clip(y - tau, 0, upper)) == 1``.

    The sum is piecewise linear and nonincreasing in ``tau``, with breakpoints
    at ``y - upper`` (an entry leaves its cap) and ``y`` (an entry reaches
    zero). A breakpoint search (Kiwiel 2008; sorted here rather than
    median-selected) finds the last breakpoint where the sum is still at
    least one and solves the linear piece that follows it exactly.
    """
    points = np.unique(np.concatenate((y - upper, y)))
    sums = np.clip(y - points[:, None], 0.0, upper).sum(axis=1)  # nonincreasing
    k = max(int(np.searchsorted(-sums, -1.0, side="right")) - 1, 0)
    if sums[k] == 1.0:
        return float(points[k])
    mid = 0.5 * (points[k] + points[k + 1])
    at_cap = y - upper >= mid
    free = ~at_cap & (y > mid)
    return float((upper[at_cap].sum() + y[free].sum() - 1.0) / free.sum())


def project_capped_simplex(y, upper) -> np.ndarray:
    """Project one vector onto the capped simplex {x : 0 <= x <= upper, sum x = 1}."""
    y = np.asarray(y, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if upper.sum() < 1.0 - 1e-9:
        raise FeasibilityError("caps sum to less than one; the set is empty")
    upper = np.minimum(upper, 1.0)
    return np.clip(y - _capped_shift(y, upper), 0.0, upper)


def _face_solution(m: np.ndarray, free: np.ndarray, at_cap: np.ndarray, caps: np.ndarray):
    """KKT point of one face as affine functions of ``1/s``.

    On the face, the free entries F minimize the objective with the at-cap
    entries U held at ``caps/s`` and the rest at zero. Stationarity
    ``M_FF alpha_F + M_FU caps_U / s = lam`` and ``sum alpha_F = 1 - sum caps_U / s``
    form one bordered system ``[[M_FF, 1], [1^T, 0]]`` with two right-hand
    sides, whose solution gives ``alpha = a + b/s`` and ``lam = c + d/s``.
    The least-squares (minimum-norm) solution is taken: for a PSD Gram the
    system is consistent, because ``M_FU caps_U`` lies in the range of
    ``M_FF``, so on a singular face it is still a minimizer, and a zero Gram
    gets uniform weights over the free entries.
    """
    f, u = np.flatnonzero(free), np.flatnonzero(at_cap)
    n = f.size
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = m[np.ix_(f, f)]
    kkt[n, n] = 0.0
    rhs = np.zeros((n + 1, 2))
    rhs[n, 0] = 1.0
    rhs[:n, 1] = -m[np.ix_(f, u)] @ caps[u]
    rhs[n, 1] = -caps[u].sum()
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    a = np.zeros(m.shape[0])
    b = np.zeros(m.shape[0])
    a[f], b[f] = sol[:n, 0], sol[:n, 1]
    b[u] = caps[u]
    return a, b, -sol[n, 0], -sol[n, 1]


def _active_set(m: np.ndarray, alpha: np.ndarray, caps: np.ndarray, s: float):
    """Primal active-set solve at one total ``s``, from a feasible ``alpha``.

    Iterates stay feasible: each step heads for the current face's minimizer
    and stops at the first bound it would cross (a ratio test), which joins
    the face; once the minimizer is reached, the most violated multiplier
    releases its bound, one at a time. A cap enters the face only while
    ``caps_i / s < 1``; a larger one is implied by the simplex, and holding it
    would end a sweep piece at every grid point. Returns the optimal face
    ``(free, at_cap)`` and its :func:`_face_solution`.
    """
    k = m.shape[0]
    bounded = caps < s
    upper = np.where(bounded, caps / s, np.inf)
    at_cap = bounded & (alpha >= upper)
    free = (alpha > 0.0) & ~at_cap
    if not free.any():  # a vertex: the equality row needs one free entry
        free[np.argmax(alpha)] = True
        at_cap &= ~free
    for _ in range(_ACTIVE_SET_ITERS_PER_SOURCE * k):
        a, b, c, d = _face_solution(m, free, at_cap, caps)
        step = np.where(free, a + b / s - alpha, 0.0)
        if free.sum() > 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = np.where(free & (step < 0.0), alpha / -step, np.inf)
                reach = np.minimum(reach, np.where(
                    free & bounded & (step > 0.0), (upper - alpha) / step, np.inf))
            i = int(np.argmin(reach))
            if reach[i] < 1.0:
                alpha = np.clip(alpha + reach[i] * step, 0.0, upper)
                alpha[i] = 0.0 if step[i] < 0.0 else upper[i]
                at_cap[i] = step[i] > 0.0
                free[i] = False
                continue
        alpha = np.clip(alpha + step, 0.0, upper)
        g = m @ alpha
        lam = c + d / s
        multiplier = np.where(free, np.inf, np.where(at_cap, lam - g, g - lam))
        i = int(np.argmin(multiplier))
        if multiplier[i] >= -_SIGN_FLOOR:
            return free, at_cap, (a, b, c, d)
        free[i], at_cap[i] = True, False
    raise RuntimeError(f"active-set QP solve at s={s:g} did not finish in "
                       f"{_ACTIVE_SET_ITERS_PER_SOURCE * k} iterations")


def _piece_length(m: np.ndarray, free: np.ndarray, at_cap: np.ndarray, caps: np.ndarray,
                  solution, s: np.ndarray) -> int:
    """How many leading totals of ``s`` one face stays optimal for.

    Every KKT condition on the face (bounds on the free entries, multiplier
    signs on the others) reads ``p + q/s >= -_SIGN_FLOOR``. All of them hold
    at the first total, which the active-set solve certified and which always
    counts. As ``s`` grows only a condition with ``q > 0`` can fail, once
    ``1/s`` drops below its root ``(-_SIGN_FLOOR - p)/q``; the piece ends at
    the largest such root, in closed form.
    """
    a, b, c, d = solution
    zero = ~free & ~at_cap
    ma, mb = m @ a, m @ b
    p = np.concatenate((a[free], -a[free], ma[zero] - c, c - ma[at_cap]))
    q = np.concatenate((b[free], caps[free] - b[free], mb[zero] - d, d - mb[at_cap]))
    rising = q > 0.0
    u = np.max((-_SIGN_FLOOR - p[rising]) / q[rising], initial=0.0)
    with np.errstate(divide="ignore", over="ignore"):  # no root: the piece runs to the end
        return max(int(np.searchsorted(s, 1.0 / u, side="right")), 1)


def _solve_qp_batch(m: np.ndarray, s_values: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Solve the proportion QP exactly for every total in the increasing ``s_values``.

    The caps ``caps/s`` move with the total, so the optimum is piecewise
    affine in ``1/s`` (a parametric QP: Best 1996; Nocedal & Wright 2006,
    ch. 16). The sweep runs in pieces: an active-set solve at a piece's first
    total, warm-started from the previous piece's last optimum projected onto
    the new caps, yields the optimal face; its KKT system gives the optimum as
    ``a + b/s``, which holds up to the exact root of the face's first failing
    bound or multiplier sign, and the first total past that root starts the
    next piece. The matrix is first scaled to largest entry one, so the sign
    tests' fixed floor, and therefore the returned optimum, is invariant under
    positive rescaling of ``m``.
    """
    scale = float(np.abs(m).max())
    if scale > 0.0:
        m = m / scale
    eigenvalues, vectors = np.linalg.eigh(m)
    if eigenvalues[0] < -_SIGN_FLOOR:
        # TransferProblem admits eigenvalues down to -1e-8 of the scale; on a
        # face with negative curvature the KKT point is not a minimizer, so the
        # active set could cycle. Solve with the nearest PSD matrix instead.
        m = (vectors * np.maximum(eigenvalues, 0.0)) @ vectors.T
    caps = caps.astype(np.float64)
    s = np.asarray(s_values, dtype=np.float64)
    alphas = np.empty((s.shape[0], m.shape[0]))
    alpha = np.full(m.shape[0], 1.0 / m.shape[0])
    j = 0
    while j < s.shape[0]:
        start = project_capped_simplex(alpha, caps / s[j])
        free, at_cap, solution = _active_set(m, start, caps, s[j])
        end = j + _piece_length(m, free, at_cap, caps, solution, s[j:])
        a, b = solution[:2]
        alphas[j:end] = a + b / s[j:end, None]
        alpha = alphas[end - 1]
        j = end
    return np.maximum(alphas, 0.0)


def solve_alpha_qp(gram, s: int, caps) -> np.ndarray:
    """Minimize ``alpha^T gram alpha`` over the capped simplex for total ``s``.

    The feasible set is {alpha >= 0, sum alpha = 1, s * alpha_i <= caps_i};
    it is empty when ``s`` exceeds the summed caps. With a flat objective
    (``gram == 0``) the convention is the uniform vector projected onto the
    caps, i.e. uniform over the sources with remaining capacity.
    """
    gram = np.asarray(gram, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.int64)
    if s < 1:
        raise FeasibilityError("total transfer quantity must be at least 1")
    if s > caps.sum():
        raise FeasibilityError(
            f"total quantity {s} exceeds the summed source caps {int(caps.sum())}"
        )
    return _solve_qp_batch(gram, np.array([s], dtype=np.int64), caps)[0]


def _apportion(s: int, alpha: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Integerize ``s * alpha`` by largest fractional part, respecting caps.

    Floors first, then hands the remaining units one at a time to the largest
    fractional parts that still have cap headroom, lower index on ties.
    """
    raw = s * alpha
    n = np.minimum(np.floor(raw).astype(np.int64), caps)
    remaining = s - int(n.sum())
    if remaining > 0:
        frac = raw - n
        order = np.lexsort((np.arange(alpha.shape[0]), -frac))
        while remaining > 0:
            progressed = False
            for i in order:
                if n[i] < caps[i]:
                    n[i] += 1
                    remaining -= 1
                    progressed = True
                    if remaining == 0:
                        break
            if not progressed:
                raise FeasibilityError("caps cannot absorb the planned total quantity")
    return n


@dataclass(frozen=True)
class TransferPlan:
    """Planner output: total, per-source proportions and integer quantities.

    ``alpha_star`` holds the integerized proportions ``n_star / s_star`` (the
    zero vector when nothing is transferred) so that ``predicted_proxy`` is
    exactly the proxy of the integer plan; ``continuous_proxy`` keeps the
    pre-rounding grid optimum for monitoring the integerization gap.
    """

    s_star: int
    alpha_star: np.ndarray
    n_star: np.ndarray
    predicted_proxy: float
    continuous_proxy: float
    grid_step: float
    curve: ProxyCurve | None = None

    @property
    def rounding_gap(self) -> float:
        return self.predicted_proxy - self.continuous_proxy


def plan_transfer(problem: TransferProblem, include_curve: bool = False) -> TransferPlan:
    """Grid over the total quantity, QP per grid point, then integerize.

    The grid is {0} plus ``step_number`` evenly spaced, rounded totals up to
    the summed caps. Ties in the objective go to the smaller total, and the
    leftover units of ``s* . alpha*`` are apportioned by largest fractional
    part (lower source index on ties).
    """
    caps = problem.caps
    total = int(caps.sum())
    if problem.step_number >= total:  # every total is a grid point
        grid = np.arange(total + 1, dtype=np.int64)
    else:
        k = np.arange(1, problem.step_number + 1, dtype=np.int64)
        grid = np.floor(k * float(total) / problem.step_number + 0.5).astype(np.int64)
        grid = np.minimum(grid, total)  # roundoff must not lift the last total past the caps
        grid = np.unique(np.concatenate(([0], grid)))

    values = np.empty(grid.shape[0])
    values[0] = 0.5 * problem.dim / problem.n0
    positive = grid[1:]
    alphas = _solve_qp_batch(problem.gram, positive, caps)
    quad = np.einsum("gi,ij,gj->g", alphas, problem.gram, alphas)
    s = positive.astype(np.float64)  # squared in float64: an int64 square overflows
    tot = problem.n0 + s
    values[1:] = 0.5 * problem.dim / tot + 0.5 * (s * s) * quad / (tot * tot)

    best = int(np.argmin(values))  # first minimum: ties resolve to smaller s
    s_star = int(grid[best])
    if s_star == 0:
        n_star = np.zeros(problem.num_sources, dtype=np.int64)
        alpha_star = np.zeros(problem.num_sources)
        predicted = values[0]
    else:
        n_star = _apportion(s_star, alphas[best - 1], caps)
        alpha_star = n_star / s_star
        predicted = proxy_multi(problem, s_star, alpha_star)

    curve = None
    if include_curve:
        regime = (
            Regime.MONOTONE_DECREASING if best == grid.shape[0] - 1
            else Regime.INTERIOR_MINIMUM
        )
        interior = None if regime is Regime.MONOTONE_DECREASING else float(s_star)
        curve = ProxyCurve(quantities=grid, values=values, regime=regime, interior=interior)

    return TransferPlan(
        s_star=s_star,
        alpha_star=alpha_star,
        n_star=n_star,
        predicted_proxy=float(predicted),
        continuous_proxy=float(values[best]),
        grid_step=total / problem.step_number,
        curve=curve,
    )
