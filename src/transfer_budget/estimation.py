"""Pooled maximum-likelihood estimation and Fisher-information estimates.

The planner only ever needs the K x K Gram matrix of source parameter offsets
under the Fisher metric, so every Fisher estimate is held as a factor ``A``
with ``J = A^T A / r`` and exposes a quadratic-form interface that never
materializes a ``d x d`` matrix unless explicitly asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .families import Family

__all__ = [
    "FisherMode",
    "PooledData",
    "MLEFit",
    "FisherEstimate",
    "InsufficientDataError",
    "pooled_mle",
    "empirical_fisher",
    "offset_gram",
    "discrepancy",
]


#: softmax Newton stopping rule: ``max|grad| < _MLE_TOL``, at most this many steps
_MLE_TOL = 1e-8
_MLE_MAX_ITER = 100


class InsufficientDataError(ValueError):
    """Raised when an estimator is asked to fit from an empty dataset."""


class FisherMode(Enum):
    """How the Fisher information entering the planner is obtained."""

    ANALYTIC = "analytic"
    #: average of per-sample score outer products, (1/n) sum g_j g_j^T
    PER_SAMPLE = "per_sample"
    #: outer product of the mean gradient, g-bar g-bar^T (rank one; vanishes
    #: at the fitted optimum, retained for comparison against PER_SAMPLE)
    BATCH = "batch"


@dataclass
class PooledData:
    """Target samples plus the per-source transferred samples.

    ``target`` and each entry of ``sources`` use the owning family's sample
    container, one list entry per source task.

    With ``batched``, every part stacks one dataset per trial along a leading
    axis of the same length, and :func:`pooled_mle` fits each trial's pool on
    its own (closed-form families only).
    """

    target: object
    sources: list = field(default_factory=list)
    batched: bool = False


@dataclass
class MLEFit:
    """Pooled MLE output with fitting diagnostics.

    A batched fit has one parameter row per trial, ``smoothed`` says whether
    any trial's fit was smoothed, and the log-likelihood is not computed.
    ``converged`` is true for every closed-form fit; a softmax fit sets it to
    ``grad_inf_norm < 1e-8``.
    """

    theta: np.ndarray
    smoothed: bool = False
    iterations: int = 0
    grad_inf_norm: float = 0.0
    log_likelihood: float = float("nan")
    converged: bool = True


def _softmax_mle(family, x) -> MLEFit:
    """Damped Newton ascent on the mean conditional log-likelihood.

    Starts at zero. Each step solves the Newton system with the negative
    Hessian ``H`` and halves the step until the value does not fall. The
    likelihood is flat along "add the same vector to every class row", so
    the system is solved with ``H`` plus the projector onto that direction,
    and the step's mean class row is removed: every column of the weights
    keeps summing to zero over the classes. The solve is a least-squares
    one, so a pool whose features span fewer than ``feature_dim`` directions
    takes no step along the ones it lacks. The fit stops once
    ``max|grad| < 1e-8``, after ``_MLE_MAX_ITER`` steps, or when no halving
    keeps the value from falling; ``converged`` says whether the first
    happened, and ``iterations`` counts the steps taken. Line-search values
    use :meth:`SoftmaxRegression.class_log_probs` alone; the full
    ``log_prob`` runs once, for ``log_likelihood``.
    """
    features, labels = family._obs(x)
    n, c, f = labels.shape[0], family.num_classes, family.feature_dim
    rows = np.arange(n)
    null_projector = np.kron(np.full((c, c), 1.0 / c), np.eye(f))

    def evaluate(weights):
        log_p = family.class_log_probs(weights, features)
        return log_p[rows, labels].mean(), np.exp(log_p)

    weights = np.zeros((c, f))
    value, p = evaluate(weights)
    iterations = 0
    while True:
        resid = -p
        resid[rows, labels] += 1.0
        grad = resid.T @ features / n
        grad_inf_norm = float(np.abs(grad).max())
        if grad_inf_norm < _MLE_TOL or iterations == _MLE_MAX_ITER:
            break
        z = (p[:, :, None] * features[:, None, :]).reshape(n, c * f)
        hessian = -(z.T @ z)
        for k in range(c):
            block = slice(k * f, (k + 1) * f)
            hessian[block, block] += z[:, block].T @ features
        hessian /= n
        step = np.linalg.lstsq(hessian + null_projector, grad.ravel(), rcond=None)[0]
        step = step.reshape(c, f)
        step -= step.mean(axis=0)
        scale = 1.0
        while scale >= 1e-16:
            candidate = weights + scale * step
            cand_value, cand_p = evaluate(candidate)
            if cand_value >= value:
                break
            scale *= 0.5
        else:
            break
        weights, value, p = candidate, cand_value, cand_p
        iterations += 1
    theta = weights.ravel()
    return MLEFit(
        theta=theta,
        smoothed=False,
        iterations=iterations,
        grad_inf_norm=grad_inf_norm,
        log_likelihood=float(family.log_prob(theta, x).mean()),
        converged=grad_inf_norm < _MLE_TOL,
    )


def pooled_mle(family: Family, data: PooledData) -> MLEFit:
    """Maximize the average log-likelihood over target plus transferred samples.

    Families with sufficient statistics use their closed form (frequency cells
    that would map to infinite logits get 0.5 additive smoothing and the fit
    is flagged); softmax regression is fit by damped Newton steps until
    ``max|grad| < 1e-8``, for at most 100 steps. A fit that stops short sets
    ``converged`` to false rather than raising.
    """
    if data.batched:
        return _batched_mle(family, data)
    parts = [data.target] + list(data.sources)
    parts = [p for p in parts if family.count(p) > 0]
    if not parts:
        raise InsufficientDataError("pooled MLE needs at least one sample")
    pooled = family.stack(parts) if len(parts) > 1 else parts[0]

    if family.has_closed_form_mle:
        theta, smoothed = family.closed_form_mle(pooled)
        return MLEFit(
            theta=np.atleast_1d(theta),
            smoothed=smoothed,
            log_likelihood=float(family.log_prob(theta, pooled).mean()),
        )
    return _softmax_mle(family, pooled)


def _batched_mle(family: Family, data: PooledData) -> MLEFit:
    """Closed-form fits of a batch of pools, one per row (see :class:`PooledData`)."""
    if not family.has_closed_form_mle:
        raise ValueError(f"{type(family).__name__} has no closed-form MLE to fit a batch with")
    parts = [p for p in [data.target, *data.sources] if p.shape[1] > 0]
    if not parts:
        raise InsufficientDataError("pooled MLE needs at least one sample")
    pooled = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    theta, smoothed = family.batch_mle(pooled)
    return MLEFit(theta=theta, smoothed=bool(smoothed.any()))


@dataclass
class FisherEstimate:
    """Fisher information ``J = A^T A / r`` held as the factor ``A``.

    ``factor`` is ``A``, of shape ``(rows, d)``, and ``divisor`` is ``r``:

    * analytic: the eigen square root of the closed form, with ``r = 1``;
    * per-sample: the ``(n, d)`` score matrix, with ``r = n``;
    * batch: the mean score as one row, with ``r = 1``.

    ``quad_form(U)`` evaluates ``U^T J U`` for a ``(d, K)`` block of vectors
    without building anything ``d x d``; only :meth:`dense` does.
    """

    mode: FisherMode
    dim: int
    factor: np.ndarray
    divisor: int = 1

    def quad_form(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        squeeze = u.ndim == 1
        if squeeze:
            u = u[:, None]
        if u.shape[0] != self.dim:
            raise ValueError(f"expected vectors of length {self.dim}, got {u.shape[0]}")
        v = self.factor @ u
        out = v.T @ v / self.divisor
        out = 0.5 * (out + out.T)
        return out[0, 0] if squeeze else out

    def dense(self) -> np.ndarray:
        """Materialize the full ``d x d`` matrix (memory grows quadratically)."""
        m = self.factor.T @ self.factor / self.divisor
        return 0.5 * (m + m.T)


def empirical_fisher(family: Family, theta, samples,
                     mode: FisherMode = FisherMode.PER_SAMPLE) -> FisherEstimate:
    """Estimate the Fisher information at ``theta`` from observed samples.

    ``ANALYTIC`` factors the family's closed form and ignores ``samples``.
    """
    if mode is FisherMode.ANALYTIC:
        w, v = np.linalg.eigh(family.fisher(theta))
        root = (v * np.sqrt(np.maximum(w, 0.0))).T
        return FisherEstimate(mode=mode, dim=family.dim, factor=root)
    n = family.count(samples)
    if n == 0:
        raise InsufficientDataError("empirical Fisher needs at least one sample")
    scores = family.score(theta, samples)
    if mode is FisherMode.PER_SAMPLE:
        return FisherEstimate(mode=mode, dim=family.dim, factor=scores, divisor=n)
    return FisherEstimate(mode=mode, dim=family.dim, factor=scores.mean(axis=0, keepdims=True))


def offset_gram(fisher: FisherEstimate, theta0, source_params) -> np.ndarray:
    """K x K Gram matrix of source parameter offsets under the Fisher metric.

    Entry ``(i, j)`` is ``(theta_i - theta_0)^T J (theta_j - theta_0)``; the
    diagonal divided by the dimension gives each source's discrepancy scalar.
    Offsets far enough apart overflow to non-finite entries without a
    warning; :class:`~transfer_budget.planner.TransferProblem` rejects them.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    params = [np.asarray(t, dtype=np.float64) for t in source_params]
    if not params:
        raise ValueError("need at least one source parameter")
    if any(t.shape != theta0.shape for t in params):
        raise ValueError("source parameter dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = np.stack([t - theta0 for t in params], axis=1)
        return np.atleast_2d(fisher.quad_form(offsets))


def discrepancy(fisher: FisherEstimate, theta0, theta1) -> float:
    """Fisher-weighted squared parameter distance per dimension.

    ``(theta1 - theta0)^T J (theta1 - theta0) / d``; scalar regardless of the
    parameter dimension, and symmetric in its two arguments because J is
    evaluated wherever ``fisher`` was built. Like :func:`offset_gram`, it
    turns overflow into a non-finite value without a warning.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    theta1 = np.asarray(theta1, dtype=np.float64)
    if theta0.shape != theta1.shape:
        raise ValueError("parameter dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(fisher.quad_form(theta1 - theta0)) / fisher.dim
