"""Parametric families: sampling, log-density, score, Fisher information, KL.

Every family works on a flat, unconstrained parameter vector so that pooled
maximum-likelihood and gradient machinery stay uniform across families:

* ``GaussianMean`` -- an isotropic Gaussian with known scale; the parameter is
  the mean vector itself.
* ``BernoulliLogit`` -- a coin whose parameter is the logit of the success
  probability.
* ``CategoricalLogits`` -- ``m`` classes parameterized by ``m - 1`` free
  logits, the last class pinned to zero.
* ``SoftmaxRegression`` -- joint (feature, label) pairs where the feature
  marginal is a fixed standard normal and the conditional is a multinomial
  logistic model; the parameter is the flattened weight matrix.

Sampling is inverse-CDF (or explicit uniform-threshold transforms) on top of a
``numpy.random.Generator``, so a given ``(family, theta, seed, n)`` reproduces
bit-identically. A :class:`UniformBlock` of uniforms drawn ahead, one row per
Monte-Carlo trial, can stand in for the generator, so one ``sample`` call
serves a whole block of trials while each trial keeps its own stream; the
closed-form families then fit (:meth:`Family.batch_mle`) and score
(:meth:`Family.kl`) every dataset of the block in one NumPy call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtri

__all__ = [
    "Family",
    "GaussianMean",
    "BernoulliLogit",
    "CategoricalLogits",
    "SoftmaxRegression",
    "InvalidParameterError",
    "InvalidSampleError",
    "FisherUnavailableError",
    "open_uniform",
    "standard_normal",
    "unit_direction",
    "UniformBlock",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

# Internal stream used by the seeded Monte-Carlo KL of SoftmaxRegression.
_KL_FEATURE_SEED = 0x5EEDFACE
_KL_FEATURE_DRAWS = 4096


class InvalidParameterError(ValueError):
    """Parameter vector is non-finite or has the wrong length."""


class InvalidSampleError(ValueError):
    """Observation lies outside the family's support."""


class FisherUnavailableError(RuntimeError):
    """No closed-form Fisher information; callers fall back to the empirical one."""


def open_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform draws strictly inside (0, 1) on an exact dyadic grid.

    Uses 52-bit integers so that ``(k + 0.5) / 2**52`` is computed without
    rounding; inverse-CDF transforms applied on top stay finite and the raw
    integer stream consumes exactly one generator word per draw, which keeps
    prefixes of longer draws identical to shorter draws from the same state.
    ``k`` is the top 52 bits of a raw generator word, which is what
    ``rng.integers(0, 2**52)`` returns for that word (Lemire's bounded-integer
    method never rejects a power-of-two range); reading the raw words skips
    that call's fixed cost, which matters when every Monte-Carlo trial draws
    from its own generator. ``rng`` may also be a :class:`UniformBlock`,
    which hands out values drawn earlier.
    """
    if isinstance(rng, UniformBlock):
        return rng.take(size)
    k = rng.bit_generator.random_raw(size) >> np.uint64(12)
    return (k.astype(np.float64) + 0.5) * (2.0 ** -52)


class UniformBlock:
    """:func:`open_uniform` values drawn ahead for a block of trials, one row per trial.

    Given to :meth:`Family.sample` in place of a generator, the block serves
    each request from the next unread columns of every row, so
    ``sample(theta, block, rows * n)`` returns ``n`` draws of the first row's
    trial, then ``n`` of the second's, and so on. When each row holds its
    trial's generator output in order, these are the draws that one ``n``-draw
    ``sample`` call per trial generator returns, request after request.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self._read = 0

    def take(self, size) -> np.ndarray:
        rows, width = self.values.shape
        count = int(np.prod(size))
        if count % rows or self._read + count // rows > width:
            raise ValueError(f"{count} draws do not fit the {width - self._read} "
                             f"unread columns of a {rows}-row block")
        start, self._read = self._read, self._read + count // rows
        return self.values[:, start:self._read].reshape(size)


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard-normal draws: the inverse normal CDF of :func:`open_uniform` values."""
    return ndtri(open_uniform(rng, size))


def unit_direction(rng: np.random.Generator, d: int) -> np.ndarray:
    """A uniformly random direction in ``d`` dimensions: a normalised normal draw."""
    v = standard_normal(rng, d)
    return v / np.linalg.norm(v)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities over the last axis; shifts ``logits`` in place."""
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_last(theta) -> np.ndarray:
    """Class probabilities of free logits ``(..., m - 1)`` with the last logit pinned to 0."""
    return _softmax(np.concatenate([theta, np.zeros((*np.shape(theta)[:-1], 1))], axis=-1))


def _class_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the class rows of a ``(C, n)`` array; ``rows`` may be overwritten.

    The additions run in the order numpy's pairwise summation gives
    ``(n, C).sum(axis=1)`` on a C-contiguous array, so each total is
    bit-equal to that row sum: sequential for ``C < 8`` (which
    ``sum(axis=0)`` over class rows also is); for ``8 <= C <= 128``, eight
    accumulators that take every eighth class, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the
    remaining ``C % 8`` classes one by one; above 128, the two halves split
    at a multiple of eight below ``C / 2``, each summed the same way.
    """
    num_classes = rows.shape[0]
    if num_classes < 8:
        return rows.sum(axis=0)
    if num_classes <= 128:
        full = num_classes - num_classes % 8
        acc = rows[:8]
        for start in range(8, full, 8):
            acc += rows[start:start + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        total = acc[0]
        total += acc[4]
        for row in rows[full:]:
            total += row
        return total
    half = num_classes // 2
    half -= half % 8
    total = _class_sum(rows[:half])
    total += _class_sum(rows[half:])
    return total


def _class_major_log_probs(weights: np.ndarray, features: np.ndarray):
    """Log-softmax of ``features @ weights.T`` with the classes as contiguous rows.

    Returns the ``(C, n)`` log-probabilities and the ``(n, C)`` logits array,
    whose values are spent: callers write their row-major result into it.
    Every elementwise step runs over whole class rows of length ``n``: along
    a row-major ``(n, C)`` array, a row max, a row sum or a broadcast column
    runs numpy inner loops of only ``C`` elements, which made them the
    costliest steps of a trainer epoch. Each value is bit-equal to the
    row-major log-softmax, for these reasons:

    * the logits come from the row-major product and are then transposed:
      OpenBLAS rounds ``weights @ features.T`` differently in most shapes;
    * max, shifts and ``exp``/``log`` are elementwise or exact;
    * the normaliser is written out as row adds (:func:`_class_sum`) in
      numpy's own summation order for ``(n, C).sum(axis=1)``. That pinned
      order is what keeps every trainer and fit output byte-identical.
    """
    logits = features @ weights.T
    log_p = logits.T.copy()
    log_p -= log_p.max(axis=0)
    norm = _class_sum(np.exp(log_p, out=logits.reshape(log_p.shape)))
    log_p -= np.log(norm, out=norm)
    return log_p, logits


class Family(ABC):
    """A sampleable parametric model with likelihood derivatives."""

    dim: int
    #: whether :meth:`kl` evaluates a closed form (vs. a seeded approximation)
    kl_is_exact: bool = True

    def check_theta(self, theta, *, batch: bool = False) -> np.ndarray:
        """Validated parameter vector; ``batch`` also admits leading axes ``(..., dim)``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        if theta.shape[-1:] != (self.dim,) or (theta.ndim > 1 and not batch):
            raise InvalidParameterError(
                f"expected parameter of length {self.dim}, got shape {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise InvalidParameterError("parameter has non-finite entries")
        return theta

    @abstractmethod
    def log_prob(self, theta, x) -> np.ndarray:
        """Log-density of each observation, shape ``(n,)``."""

    @abstractmethod
    def score(self, theta, x) -> np.ndarray:
        """Per-observation gradient of :meth:`log_prob` in theta, shape ``(n, dim)``."""

    @abstractmethod
    def sample(self, theta, rng: np.random.Generator, n: int):
        """``n`` i.i.d. draws; deterministic given the generator state.

        ``rng`` may be a :class:`UniformBlock` instead, for every family that
        draws through :func:`open_uniform`.
        """

    @abstractmethod
    def fisher(self, theta) -> np.ndarray:
        """Exact Fisher information matrix, shape ``(dim, dim)``.

        Raises :class:`FisherUnavailableError` when no closed form exists.
        """

    @abstractmethod
    def kl(self, theta_a, theta_b) -> float:
        """KL divergence from the model at ``theta_a`` to the one at ``theta_b``.

        Families with a closed-form MLE also take a batch ``theta_b`` of shape
        ``(..., dim)`` and return one KL per parameter vector, as an array.
        """

    # --- sample-container plumbing (overridden by pair-valued families) ---

    def stack(self, chunks: list):
        """Concatenate sample containers produced by :meth:`sample`."""
        return np.concatenate([np.atleast_1d(c) for c in chunks])

    def count(self, x) -> int:
        return int(np.shape(x)[0]) if np.ndim(x) > 0 else 1

    #: closed-form pooled MLE available (``estimation.pooled_mle`` dispatches on it)
    has_closed_form_mle: bool = True

    # --- closed-form families: fits of many datasets at once ---

    #: :func:`open_uniform` values one observation consumes (sizes a :class:`UniformBlock`)
    draw_width: int

    def batch_mle(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form MLE of each dataset stacked along the leading axis of ``x``.

        ``x`` has shape ``(datasets, n, ...)``, each dataset as :meth:`sample`
        returns it, and is not validated; returns the fitted parameters
        ``(datasets, dim)`` and the per-dataset smoothing flags.
        """
        raise NotImplementedError(f"{type(self).__name__} has no closed-form MLE")

    def closed_form_mle(self, x) -> tuple[np.ndarray, bool]:
        """Closed-form MLE of one dataset and whether smoothing fired."""
        theta, smoothed = self.batch_mle(self._obs(x)[None])
        return theta[0], bool(smoothed[0])


def _per_vector(kl: np.ndarray):
    """A float for one parameter vector, the array for a batch."""
    return float(kl) if np.ndim(kl) == 0 else kl


@dataclass(frozen=True)
class GaussianMean(Family):
    """Isotropic Gaussian with known scale ``sigma``; the parameter is the mean.

    A ``dim``-dimensional instance is ``dim`` independent coordinates sharing
    the same scale. Observations are ``(n,)`` arrays when ``dim == 1`` and
    ``(n, dim)`` otherwise.
    """

    sigma: float = 1.0
    dim: int = 1

    def __post_init__(self):
        # the KL divides by 2 sigma**2 and the Fisher information is 1/sigma**2;
        # a float product overflows to inf where ** would raise
        square = float(self.sigma) * float(self.sigma)
        if not (self.sigma > 0 and 0.0 < square and 2.0 * square < np.inf
                and 1.0 / square < np.inf):
            raise InvalidParameterError(
                "sigma must be positive, with 2 sigma**2 and 1/sigma**2 finite and nonzero")
        if self.dim < 1:
            raise InvalidParameterError("dim must be >= 1")

    def _obs(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0:
            x = x.reshape(1)
        if self.dim == 1 and x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InvalidSampleError(f"expected observations of width {self.dim}")
        if not np.all(np.isfinite(x)):
            raise InvalidSampleError("non-finite observation")
        return x

    def log_prob(self, theta, x) -> np.ndarray:
        theta = self.check_theta(theta)
        z = (self._obs(x) - theta) / self.sigma
        return -0.5 * (z * z).sum(axis=1) - self.dim * (0.5 * _LOG_2PI + np.log(self.sigma))

    def score(self, theta, x) -> np.ndarray:
        theta = self.check_theta(theta)
        return (self._obs(x) - theta) / (self.sigma ** 2)

    @property
    def draw_width(self) -> int:  # type: ignore[override]
        return self.dim

    def sample(self, theta, rng, n):
        theta = self.check_theta(theta)
        draws = theta + self.sigma * standard_normal(rng, (int(n), self.dim))
        return draws[:, 0] if self.dim == 1 else draws

    def fisher(self, theta) -> np.ndarray:
        self.check_theta(theta)
        return np.eye(self.dim) / (self.sigma ** 2)

    def kl(self, theta_a, theta_b):
        diff = (self.check_theta(theta_a) - self.check_theta(theta_b, batch=True))[..., None, :]
        # a (1, dim) @ (dim, 1) product per vector rounds like ``diff @ diff``
        return _per_vector((diff @ np.swapaxes(diff, -1, -2))[..., 0, 0] / (2.0 * self.sigma ** 2))

    def batch_mle(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = x.reshape(x.shape[0], x.shape[1], self.dim)
        return x.mean(axis=1), np.zeros(x.shape[0], dtype=bool)


@dataclass(frozen=True)
class BernoulliLogit(Family):
    """Bernoulli variable whose unconstrained parameter is the logit of P(x=1)."""

    dim = 1
    draw_width = 1

    def _obs(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x))
        if not np.isin(x, (0, 1)).all():
            raise InvalidSampleError("Bernoulli observations must be 0 or 1")
        return x.astype(np.float64)

    def log_prob(self, theta, x) -> np.ndarray:
        t = float(self.check_theta(theta)[0])
        x = self._obs(x)
        # x*t - log(1 + e^t), stable at both tails
        return x * t - np.logaddexp(0.0, t)

    def score(self, theta, x) -> np.ndarray:
        t = float(self.check_theta(theta)[0])
        return (self._obs(x) - expit(t))[:, None]

    def sample(self, theta, rng, n):
        t = float(self.check_theta(theta)[0])
        return (open_uniform(rng, int(n)) < expit(t)).astype(np.int64)

    def fisher(self, theta) -> np.ndarray:
        t = float(self.check_theta(theta)[0])
        p = expit(t)
        return np.array([[p * (1.0 - p)]])

    def kl(self, theta_a, theta_b):
        ta = float(self.check_theta(theta_a)[0])
        tb = self.check_theta(theta_b, batch=True)[..., 0]
        pa = expit(ta)
        # log p and log(1-p) via the stable softplus identities
        lpa, l1a = -np.logaddexp(0.0, -ta), -np.logaddexp(0.0, ta)
        lpb, l1b = -np.logaddexp(0.0, -tb), -np.logaddexp(0.0, tb)
        return _per_vector(pa * (lpa - lpb) + (1.0 - pa) * (l1a - l1b))

    def batch_mle(self, x) -> tuple[np.ndarray, np.ndarray]:
        n = x.shape[1]
        ones = x.sum(axis=1)
        smoothed = (ones == 0) | (ones == n)
        p = np.where(smoothed, (ones + 0.5) / (n + 1.0), ones / n)
        return (np.log(p) - np.log1p(-p))[:, None], smoothed


@dataclass(frozen=True)
class CategoricalLogits(Family):
    """Categorical over ``num_classes`` outcomes with the last class's logit pinned to 0."""

    num_classes: int = 3
    draw_width = 1

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidParameterError("num_classes must be >= 2")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.num_classes - 1

    def probs(self, theta) -> np.ndarray:
        """Full probability vector over all ``num_classes`` outcomes."""
        return _softmax_last(self.check_theta(theta))

    def _obs(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x))
        if x.size and (x.min() < 0 or x.max() >= self.num_classes):
            raise InvalidSampleError("class index out of range")
        return x.astype(np.int64)

    def log_prob(self, theta, x) -> np.ndarray:
        logp = np.log(self.probs(theta))
        return logp[self._obs(x)]

    def score(self, theta, x) -> np.ndarray:
        p = self.probs(theta)[: self.dim]
        x = self._obs(x)
        onehot = np.zeros((x.shape[0], self.dim))
        free = x < self.dim
        onehot[np.nonzero(free)[0], x[free]] = 1.0
        return onehot - p

    def sample(self, theta, rng, n):
        cum = np.cumsum(self.probs(theta))
        idx = np.searchsorted(cum, open_uniform(rng, int(n)), side="right")
        return np.minimum(idx, self.num_classes - 1).astype(np.int64)

    def fisher(self, theta) -> np.ndarray:
        p = self.probs(theta)[: self.dim]
        return np.diag(p) - np.outer(p, p)

    def kl(self, theta_a, theta_b):
        pa = self.probs(theta_a)
        pb = _softmax_last(self.check_theta(theta_b, batch=True))
        return _per_vector(np.sum(pa * (np.log(pa) - np.log(pb)), axis=-1))

    def batch_mle(self, x) -> tuple[np.ndarray, np.ndarray]:
        m = self.num_classes
        datasets = x.shape[0]
        cells = x + m * np.arange(datasets)[:, None]
        counts = np.bincount(cells.ravel(), minlength=m * datasets)
        counts = counts.reshape(datasets, m).astype(np.float64)
        smoothed = (counts == 0).any(axis=1)
        counts += 0.5 * smoothed[:, None]
        p = counts / counts.sum(axis=1, keepdims=True)
        return np.log(p[:, : self.dim]) - np.log(p[:, -1:]), smoothed


@dataclass(frozen=True)
class SoftmaxRegression(Family):
    """Joint (feature, label) model: standard-normal features, softmax labels.

    The parameter is the weight matrix ``W`` of shape
    ``(num_classes, feature_dim)`` flattened row-major, so
    ``dim == feature_dim * num_classes``. The feature marginal carries no
    parameters; only the conditional label terms enter scores and Fisher
    information. Samples are ``(features, labels)`` pairs of arrays.
    """

    feature_dim: int
    num_classes: int

    kl_is_exact = False
    has_closed_form_mle = False

    def __post_init__(self):
        if self.feature_dim < 1 or self.num_classes < 2:
            raise InvalidParameterError("need feature_dim >= 1 and num_classes >= 2")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.feature_dim * self.num_classes

    def weights(self, theta) -> np.ndarray:
        return self.check_theta(theta).reshape(self.num_classes, self.feature_dim)

    def _obs(self, x) -> tuple[np.ndarray, np.ndarray]:
        features, labels = x
        features = np.asarray(features, dtype=np.float64)
        labels = np.atleast_1d(np.asarray(labels)).astype(np.int64)
        if features.ndim == 1:
            features = features[None, :]
        if features.shape != (labels.shape[0], self.feature_dim):
            raise InvalidSampleError("feature block does not match (n, feature_dim)")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise InvalidSampleError("label out of range")
        return features, labels

    @staticmethod
    def class_log_probs(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Log class probabilities ``(n, num_classes)`` of each feature row.

        ``weights`` is the ``(num_classes, feature_dim)`` matrix; neither
        argument is validated. The work runs class-major (see
        :func:`_class_major_log_probs`); the result is C-contiguous.
        """
        log_p, out = _class_major_log_probs(weights, features)
        np.copyto(out, log_p.T)
        return out

    def residual(self, weights: np.ndarray, x) -> np.ndarray:
        """``onehot(label) - p`` per observation, shape ``(n, num_classes)``.

        ``x`` is a ``(features, labels)`` pair as :meth:`sample` returns it;
        like ``weights``, it is not validated. The score is this residual's
        outer product with the features. The result is C-contiguous, so
        ``residual.T @ features`` rounds as it always has.
        """
        features, labels = x
        log_p, resid = _class_major_log_probs(weights, features)
        np.negative(np.exp(log_p, out=log_p).T, out=resid)
        # flat indices: numpy's fast path, where (rows, labels) pairs take the slow one
        resid.reshape(-1)[np.arange(0, resid.size, resid.shape[1]) + labels] += 1.0
        return resid

    def log_prob(self, theta, x) -> np.ndarray:
        features, labels = self._obs(x)
        logp = self.class_log_probs(self.weights(theta), features)
        marginal = -0.5 * (features * features).sum(axis=1) - 0.5 * self.feature_dim * _LOG_2PI
        return logp[np.arange(labels.shape[0]), labels] + marginal

    def score(self, theta, x) -> np.ndarray:
        x = self._obs(x)
        resid = self.residual(self.weights(theta), x)
        return np.einsum("nc,nf->ncf", resid, x[0]).reshape(resid.shape[0], self.dim)

    def sample(self, theta, rng, n):
        w = self.weights(theta)
        n = int(n)
        features = standard_normal(rng, (n, self.feature_dim))
        p = _softmax(features @ w.T)
        u = open_uniform(rng, n)
        labels = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1)
        return features, np.minimum(labels, self.num_classes - 1).astype(np.int64)

    def fisher(self, theta) -> np.ndarray:
        raise FisherUnavailableError(
            "softmax regression over a continuous feature marginal has no "
            "closed-form Fisher information; use the empirical estimate"
        )

    def conditional_kl(self, theta_a, theta_b, features: np.ndarray) -> np.ndarray:
        """Per-feature KL between the two conditional label distributions."""
        la = self.class_log_probs(self.weights(theta_a), features)
        lb = self.class_log_probs(self.weights(theta_b), features)
        return (np.exp(la) * (la - lb)).sum(axis=1)

    def kl_mc(self, theta_a, theta_b, draws: int = _KL_FEATURE_DRAWS,
              seed: int = _KL_FEATURE_SEED) -> tuple[float, float]:
        """Seeded Monte-Carlo joint KL with its standard error.

        The feature marginal is shared by both models, so the joint KL reduces
        to the expected conditional KL over features; there is no closed form,
        hence the reported standard error. The default feature stream is a
        fixed internal seed so repeated calls agree bit-for-bit.
        """
        rng = np.random.default_rng(seed)
        features = standard_normal(rng, (int(draws), self.feature_dim))
        vals = self.conditional_kl(theta_a, theta_b, features)
        return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.shape[0]))

    def kl(self, theta_a, theta_b) -> float:
        return self.kl_mc(theta_a, theta_b)[0]

    def stack(self, chunks: list):
        feats = np.concatenate([c[0] for c in chunks], axis=0)
        labels = np.concatenate([np.atleast_1d(c[1]) for c in chunks])
        return feats, labels

    def count(self, x) -> int:
        return int(np.shape(x[1])[0])
