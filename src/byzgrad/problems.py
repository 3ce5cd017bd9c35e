"""Synthetic cost functions, gradient estimators, and the learning-rate schedule.

Three desk-scale problems with closed-form gradients (an isotropic
quadratic, mean-squared-residual least squares, and a non-convex cosine
bowl), plus two unbiased noisy estimators and the step-size schedule
gamma_t = gamma0 / (1 + t)^p with p in (0.5, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import as_vector
from .errors import InvalidInput, InvalidSchedule, UnsupportedCombination, is_int

__all__ = [
    "CosineBowl",
    "GaussianEstimator",
    "LeastSquares",
    "MinibatchEstimator",
    "Quadratic",
    "cost",
    "estimate_gradient",
    "local_sigma",
    "lr_schedule",
    "true_gradient",
]


class Quadratic:
    """Isotropic quadratic bowl: Q(x) = 0.5 * ||x - x_star||^2."""

    variant = "quadratic"

    def __init__(self, x_star):
        self.x_star = as_vector(x_star)

    @property
    def dimension(self) -> int:
        return self.x_star.size

    def cost(self, x):
        diff = x - self.x_star
        return 0.5 * float(diff @ diff)

    def gradient(self, x):
        return x - self.x_star


class LeastSquares:
    """Linear regression with Q(x) = mean((A x - b)^2) / 2."""

    variant = "least_squares"

    def __init__(self, design, targets):
        A = np.array(design, dtype=np.float64)
        b = np.array(targets, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise InvalidInput(f"design must be a non-empty 2-D matrix, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise InvalidInput(
                f"targets must hold one value per design row: got {b.shape}, design has {A.shape[0]} rows")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise InvalidInput("design and targets must be finite")
        self.design = A
        self.targets = b

    @property
    def dimension(self) -> int:
        return int(self.design.shape[1])

    @property
    def n_rows(self) -> int:
        return int(self.design.shape[0])

    def cost(self, x):
        r = self.design @ x - self.targets
        return 0.5 * float(r @ r) / self.n_rows

    def gradient(self, x):
        r = self.design @ x - self.targets
        return (self.design.T @ r) / self.n_rows

    def row_gradient_mean(self, rows, x):
        """Per row of the (k, b) index array `rows`, the mean of the gradients
        a_j (a_j . x - b_j) over the b design rows j it lists: a (k, d) array.

        One gather and two stacked matrix-vector products; each stack entry
        is the same BLAS call as for that one row alone, so the rows do not
        depend on k, bit for bit.
        """
        A = self.design[rows]
        r = A @ x - self.targets[rows]
        return (r[:, None] @ A)[:, 0] / rows.shape[1]


class CosineBowl:
    """Non-convex ripple plus quadratic regulariser.

    Q(x) = sum_k (1 - cos x_k) + lam * ||x||^2, with gradient
    sin(x_k) + 2 * lam * x_k.  Non-negative everywhere; the regulariser
    makes gradients point outward far from the origin.
    """

    variant = "cosine_bowl"

    def __init__(self, lam, dimension):
        # lam = 0 keeps the pure cosine landscape, still non-negative.
        if lam < 0 or not np.isfinite(lam):
            raise InvalidInput(f"lambda must be a finite non-negative real: got {lam}")
        if not is_int(dimension) or dimension < 1:
            raise InvalidInput(f"dimension must be a positive integer: got {dimension!r}")
        self.lam = float(lam)
        self.dimension = dimension

    def cost(self, x):
        return float(np.sum(1.0 - np.cos(x)) + self.lam * float(x @ x))

    def gradient(self, x):
        return np.sin(x) + (2.0 * self.lam) * x


@dataclass(frozen=True)
class GaussianEstimator:
    """Adds i.i.d. N(0, sigma^2) per coordinate, so E||G - grad||^2 = d * sigma^2."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise InvalidInput(f"sigma must be a finite non-negative real: got {self.sigma}")


@dataclass(frozen=True)
class MinibatchEstimator:
    """Averages the gradient over batch_size rows sampled uniformly with replacement.

    Only defined for least-squares costs.  Sampling with replacement
    keeps the draws exactly i.i.d., so batch_size = n_rows does not
    reproduce the full gradient (it is unbiased but still noisy).
    """

    batch_size: int

    def __post_init__(self):
        if not is_int(self.batch_size) or self.batch_size < 1:
            raise InvalidInput(f"batch_size must be a positive integer: got {self.batch_size!r}")


def _check_point(costfn, x) -> np.ndarray:
    x = as_vector(x)
    if x.size != costfn.dimension:
        raise InvalidInput(f"x has d={x.size}, cost function expects d={costfn.dimension}")
    return x


def cost(costfn, x) -> float:
    """Evaluate Q(x)."""
    return costfn.cost(_check_point(costfn, x))


def true_gradient(costfn, x) -> np.ndarray:
    """Closed-form gradient of Q at x."""
    return costfn.gradient(_check_point(costfn, x))


def estimate_gradient(costfn, x, estimator, rng: np.random.Generator) -> np.ndarray:
    """One unbiased draw of the noisy gradient estimator at x."""
    return _estimate_rows(costfn, _check_point(costfn, x), estimator, (rng,), 1)[0]


def _estimate_rows(costfn, x, estimator, rngs, count, grad=None) -> np.ndarray:
    """`count` draws of the estimator at a checked x as a (count, d) array.

    Row k draws from the k-th generator of `rngs`, which is taken only
    after row k - 1 is drawn, so a lazy sequence of resets of one
    `SubstreamSource` works; each row equals `estimate_gradient` with its
    generator, bit for bit.  `grad`, when given, is costfn.gradient(x).
    """
    if isinstance(estimator, GaussianEstimator):
        Z = np.empty((count, x.size))
        for row, rng in zip(Z, rngs):
            rng.standard_normal(out=row)
        return (costfn.gradient(x) if grad is None else grad) + estimator.sigma * Z
    if isinstance(estimator, MinibatchEstimator):
        if not isinstance(costfn, LeastSquares):
            raise UnsupportedCombination(
                f"minibatch estimation is defined only for least_squares costs, got {costfn.variant!r}")
        rows = np.empty((count, estimator.batch_size), dtype=np.int64)
        for row, rng in zip(rows, rngs):
            row[:] = rng.integers(0, costfn.n_rows, size=estimator.batch_size)
        return costfn.row_gradient_mean(rows, x)
    raise InvalidInput(f"unknown estimator {estimator!r}")


def local_sigma(costfn, x, estimator, trials: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of sigma(x), defined by d*sigma^2(x) = E||G - grad||^2."""
    if not is_int(trials) or trials < 2:
        raise InvalidInput(f"trials must be an integer >= 2: got {trials!r}")
    x = _check_point(costfn, x)
    g = costfn.gradient(x)
    total = 0.0
    for _ in range(trials):
        diff = estimate_gradient(costfn, x, estimator, rng) - g
        total += float(diff @ diff)
    return math.sqrt(total / (trials * x.size))


def lr_schedule(t: int, gamma0: float, p: float) -> float:
    """gamma_t = gamma0 / (1 + t)^p.

    p must lie in (0.5, 1]: that is exactly the exponent range for which
    sum_t gamma_t diverges while sum_t gamma_t^2 converges.
    """
    if not 0.5 < p <= 1.0:
        raise InvalidSchedule(
            "p must lie in (0.5, 1] so that sum(gamma_t) diverges and "
            f"sum(gamma_t^2) converges: got p={p}")
    if not gamma0 > 0 or not math.isfinite(gamma0):
        raise InvalidSchedule(f"gamma0 must be a finite positive real: got {gamma0}")
    if not is_int(t) or t < 0:
        raise InvalidInput(f"t must be a non-negative integer: got {t!r}")
    return gamma0 / (1.0 + t) ** p
