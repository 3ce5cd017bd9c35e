"""Choice functions for robust gradient aggregation.

Every rule here is a pure function of worker-labelled proposal vectors:
same input, same output, bit for bit.  Krum and its iterated variant
score each proposal by the summed squared distance to its closest peers;
`average`, `linear_combination` and the squared-distance medoid are the
baselines they are measured against.  `eta` and `resilience_angle`
expose the constants of the deviation guarantee that Krum satisfies.

Determinism rules used throughout (and relied on by the tests):

* the squared distance of rows i < j is numpy's `np.add.reduce` over the
  contiguous row of squared differences (X[j] - X[i]) ** 2 (pairwise
  summation, so in component order only for d < 8), mirrored exactly,
* neighbour ranking and every tie break order by (distance, worker_id),
  with NaN distances ranked after every number,
* score ties are resolved in favour of the smallest worker id, and a
  NaN score ranks as +inf.

One selection kernel, written over leading batch axes, serves a single
instance and a block of instances alike, so a block gives each
instance's selection bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, PreconditionViolation, is_int

__all__ = [
    "AggregationInput",
    "KrumScore",
    "RuleSpec",
    "SelectionResult",
    "ResilienceAngle",
    "apply_rule",
    "as_vector",
    "average",
    "eta",
    "krum_scores",
    "krum_select",
    "linear_combination",
    "multi_krum_select",
    "pairwise_sq_distances",
    "resilience_angle",
    "sq_dist_medoid_select",
]

RULE_KINDS = ("average", "linear", "medoid", "krum", "multi_krum")


def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector (always a fresh copy)."""
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInput(f"expected a 1-D vector with d >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("vector components must be finite (no NaN, no inf)")
    return v


def _require_krum_valid(n: int, f: int) -> None:
    if 2 * f + 2 >= n:
        raise PreconditionViolation(f"krum requires 2f + 2 < n: got n={n}, f={f}")


@dataclass(frozen=True, eq=False)
class AggregationInput:
    """The n worker-labelled proposals handed to a choice function.

    Worker ids must be exactly {1, ..., n}; entries may arrive in any
    order.  `f` is the declared Byzantine bound.  Krum-family rules check
    their own validity condition (2f + 2 < n) when called, so inputs for
    `average` or the medoid are not over-constrained.
    """

    entries: tuple[tuple[int, np.ndarray], ...]
    f: int

    def __post_init__(self):
        if not self.entries:
            raise InvalidInput("aggregation input needs at least one proposal")
        if not is_int(self.f) or self.f < 0:
            raise InvalidInput(f"f must be a non-negative integer: got {self.f!r}")
        normalized = tuple((int(wid), as_vector(vec)) for wid, vec in self.entries)
        n = len(normalized)
        ids = sorted(wid for wid, _ in normalized)
        if ids != list(range(1, n + 1)):
            raise InvalidInput(f"worker ids must be exactly 1..{n}, got {ids}")
        d = normalized[0][1].size
        for wid, vec in normalized:
            if vec.size != d:
                raise InvalidInput(
                    f"all vectors must share one dimension: worker {wid} has d={vec.size}, expected {d}")
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def from_vectors(cls, vectors, f: int) -> "AggregationInput":
        """Label vectors with ids 1..n in the order given."""
        return cls(tuple((i + 1, v) for i, v in enumerate(vectors)), f)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def dimension(self) -> int:
        return self.entries[0][1].size

    @cached_property
    def matrix(self) -> np.ndarray:
        """n x d array with row i holding worker i + 1."""
        by_id = dict(self.entries)
        return np.stack([by_id[wid] for wid in range(1, self.n + 1)])

    def vector(self, worker_id: int) -> np.ndarray:
        return self.matrix[worker_id - 1]


@dataclass(frozen=True)
class KrumScore:
    """Score of one worker: summed squared distance to its n-f-2 closest peers.

    `neighbor_ids` holds the distinct peer ids in ascending
    (distance, id) order; the worker itself never appears.
    """

    worker_id: int
    score: float
    neighbor_ids: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of a choice function.

    `selected_ids` is empty for rules that combine rather than select
    (average, linear).  For single-selection rules the output is
    bit-identical to the chosen input vector; for multi-Krum it is the
    arithmetic mean of the selected vectors (the one vector itself when
    m = 1), and `scores` holds the first-iteration scores over all n
    workers.
    """

    selected_ids: tuple[int, ...]
    output: np.ndarray
    scores: tuple[KrumScore, ...] = ()


@dataclass(frozen=True)
class ResilienceAngle:
    """sin(alpha) together with whether the guarantee hypothesis holds.

    When `sin_alpha >= 1` the accuracy hypothesis
    eta(n,f) * sqrt(d) * sigma < ||g|| fails: the gradient is too small
    relative to the estimator noise (the flat-basin regime), and no
    directional guarantee applies.  That outcome is tagged, not raised,
    so simulator code can record it.
    """

    sin_alpha: float
    within_guarantee: bool


@dataclass(frozen=True)
class RuleSpec:
    """Aggregation rule identifier plus its parameters."""

    kind: str
    weights: tuple[float, ...] | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise InvalidInput(f"unknown rule kind {self.kind!r}, expected one of {RULE_KINDS}")
        if self.kind == "linear":
            if self.weights is None:
                raise InvalidInput("linear rule requires weights")
            try:
                w = np.asarray(self.weights, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise InvalidInput(f"linear rule weights must be numbers: {exc}") from None
            if w.ndim != 1:
                raise InvalidInput(f"linear rule weights must be a flat list: got shape {w.shape}")
            object.__setattr__(self, "weights", tuple(w.tolist()))
        elif self.weights is not None:
            raise InvalidInput(f"rule {self.kind!r} takes no weights")
        if self.kind == "multi_krum":
            if not is_int(self.m) or self.m < 1:
                raise InvalidInput(f"multi_krum requires a positive integer m: got {self.m!r}")
        elif self.m is not None:
            raise InvalidInput(f"rule {self.kind!r} takes no m")

    def check_preconditions(self, n: int, f: int) -> None:
        """Validate the rule against a concrete (n, f)."""
        if self.kind == "krum":
            _require_krum_valid(n, f)
        elif self.kind == "multi_krum":
            if n - self.m <= 2 * f + 2:
                raise PreconditionViolation(
                    f"multi-krum requires n - m > 2f + 2: got n={n}, f={f}, m={self.m}")
        elif self.kind == "linear":
            if len(self.weights) != n:
                raise InvalidInput(f"linear rule needs {n} weights, got {len(self.weights)}")
            if any(w == 0.0 for w in self.weights):
                raise InvalidInput("linear rule weights must all be non-zero")
            if not all(math.isfinite(w) for w in self.weights):
                raise InvalidInput("linear rule weights must be finite")

    def describe(self) -> str:
        if self.kind == "multi_krum":
            return f"multi_krum(m={self.m})"
        return self.kind


# ---------------------------------------------------------------------------
# raw kernels (row i of X holds worker i + 1; no input validation)

# float64 elements in one pairwise tile (256 KB), so that a tile of
# differences is squared and summed while it is still in a core's L2 cache
_TILE_ELEMENTS = 1 << 15


def _pairwise_sq_dists_block(Xb: np.ndarray) -> np.ndarray:
    """(B, n, d) instances -> (B, n, n) squared distances, instance by instance."""
    B, n, d = Xb.shape
    # a tile spans as many rows as fit beside all n columns (at least one),
    # then as many columns as fit.  An entry j < i that a tile fills comes
    # from X[i] - X[j], the exact negation: the same bits as its mirror
    rows = max(1, _TILE_ELEMENTS // (B * n * d))
    if rows >= n:  # one tile
        tile = Xb[:, None] - Xb[:, :, None]  # X[j] - X[i]
        np.multiply(tile, tile, out=tile)
        out = np.add.reduce(tile, axis=3)
    else:  # tiles over the upper triangle
        out = np.zeros((B, n, n))
        cols = max(1, _TILE_ELEMENTS // (B * rows * d))
        for i0 in range(0, n - 1, rows):
            for j0 in range(i0, n, cols):
                tile = Xb[:, None, j0:j0 + cols] - Xb[:, i0:i0 + rows, None]
                np.multiply(tile, tile, out=tile)
                np.add.reduce(tile, axis=3, out=out[:, i0:i0 + rows, j0:j0 + cols])
        # mirror the rest; an entry j < i holds its mirror or the +0.0 it
        # started at, and no squared distance is below +0.0
        out = np.maximum(out, out.swapaxes(1, 2))
    out.reshape(B, n * n)[:, ::n + 1] = 0.0  # an inf row gave inf - inf = NaN
    return out


def _pairwise_sq_dists_raw(X: np.ndarray) -> np.ndarray:
    return _pairwise_sq_dists_block(X[None])[0]


def _subset_krum_scores(dist, active, f, with_neighbors):
    """Krum scores of the (..., r) ascending `active` rows of (..., n, n) `dist`, and their neighbour rows.

    Rows are numbered as in `dist.reshape(-1, n)`: instance b's row i is
    b * n + i.  Each row ranks the other active rows of its instance by
    ascending (distance, row), NaN last, and sums its first r - f - 2
    distances left to right.  The diagonal is set to -inf (in `dist`
    itself when every row is active), so a row ranks itself first and is
    dropped.  With `with_neighbors` (one instance only), a stable argsort
    ranks the rows and their (r, r - f - 2) neighbour rows are returned;
    without it, a value-only sort sums the same sequence (equal distances
    are equal bits) and None stands for the neighbour rows.
    """
    n = dist.shape[-1]
    r = active.shape[-1]
    k = r - f - 2
    sub = dist if r == n else dist.reshape(-1, n)[active[..., :, None], active[..., None, :] % n]
    sub.reshape(sub.shape[:-2] + (r * r,))[..., ::r + 1] = -np.inf
    if not with_neighbors:
        return np.add.accumulate(np.sort(sub)[..., 1:k + 1], axis=-1)[..., -1], None
    order = np.argsort(sub, kind="stable")[..., 1:k + 1]
    scores = np.add.accumulate(np.take_along_axis(sub, order, -1), axis=-1)[..., -1]
    return scores, active[order]


def _argmin(scores):
    # along the last axis, kept with length 1: NaN scores (possible only with
    # non-finite proposals) rank as +inf, ties go to the smallest position
    return np.fmin(scores, np.inf).argmin(axis=-1, keepdims=True)


def _to_krum_scores(active, scores, neighbors) -> tuple[KrumScore, ...]:
    return tuple(
        KrumScore(worker_id=i + 1, score=score, neighbor_ids=tuple(rows))
        for i, score, rows in zip(active.tolist(), scores.tolist(), (neighbors + 1).tolist()))


def _selection(rule: RuleSpec, X: np.ndarray, f: int, with_scores: bool):
    """Aggregate each instance of X, (..., n, d), without input validation.

    Returns the selected rows of `X.reshape(-1, d)`, (..., m) in selection
    order (None for average and linear), the (..., d) outputs, and the
    first-iteration KrumScores of a single instance `with_scores` (else
    ()).  Every winner is picked by `_argmin`.
    """
    batch, (n, d) = X.shape[:-2], X.shape[-2:]
    if rule.kind == "average":
        return None, X.mean(axis=-2), ()
    if rule.kind == "linear":
        out = np.zeros(batch + (d,))
        for i, w in enumerate(rule.weights):
            out += w * X[..., i, :]
        return None, out, ()
    # a single instance keeps the 2-D entry point, which bench/tracer.py counts
    dist = _pairwise_sq_dists_block(X) if batch else _pairwise_sq_dists_raw(X)
    active = np.arange(math.prod(batch) * n).reshape(batch + (n,))
    first = ()
    if rule.kind == "medoid":
        # one pick by the summed distance to all rows: position p is row active[..., 0] + p
        rows = active[..., :1] + _argmin(np.add.reduce(dist, axis=-1))
    else:
        # krum is multi-Krum with m = 1; each pick leaves its instance's active rows
        rows = np.empty(batch + (rule.m or 1,), dtype=np.intp)
        for t in range(rows.shape[-1]):
            audit = with_scores and t == 0  # only the first iteration is reported
            scores, neighbors = _subset_krum_scores(dist, active, f, audit)
            if audit:
                first = _to_krum_scores(active, scores, neighbors)
            pick = np.arange(active.shape[-1]) == _argmin(scores)
            rows[..., t] = active[pick]
            if t + 1 < rows.shape[-1]:
                active = active[~pick].reshape(batch + (-1,))
    flat = X.reshape(-1, d)
    # a lone winner is copied: the mean of one row would turn -0.0 into +0.0
    out = flat[rows[..., 0]] if rows.shape[-1] == 1 else flat[rows].mean(axis=-2)
    return rows, out, first


def _select(rule: RuleSpec, X: np.ndarray, f: int, with_scores: bool = True) -> SelectionResult:
    """Aggregate the rows of one n x d instance X without input validation (internal).

    `with_scores=False` skips building the KrumScore audit objects; the
    selection itself is unchanged.
    """
    rows, out, first = _selection(rule, X, f, with_scores)
    return SelectionResult(() if rows is None else tuple(w + 1 for w in rows.tolist()), out, first)


def _select_block(rule: RuleSpec, Xb: np.ndarray, f: int):
    """(B, m) selected rows (None for average and linear) and (B, d) outputs of a (B, n, d) block.

    Each instance gets `_select(..., with_scores=False)`'s selection, bit for bit.
    """
    rows, out, _ = _selection(rule, Xb, f, False)
    return None if rows is None else rows % Xb.shape[1], out


# ---------------------------------------------------------------------------
# public operations

def pairwise_sq_distances(inp: AggregationInput) -> np.ndarray:
    """Symmetric n x n matrix of squared Euclidean distances.

    Row/column k holds worker k + 1.  Entry (i, j) with i < j is
    `np.add.reduce((X[j] - X[i]) ** 2)` over the contiguous row of
    squared differences; (j, i) holds the same bits, so the matrix is
    exactly symmetric, and the diagonal is +0.0.
    """
    return _pairwise_sq_dists_raw(inp.matrix)


def krum_scores(inp: AggregationInput) -> list[KrumScore]:
    """Score every worker by its n - f - 2 closest peers.

    Requires 2f + 2 < n.  Neighbour ties are broken towards the smaller
    worker id.
    """
    return list(krum_select(inp).scores)


def krum_select(inp: AggregationInput) -> SelectionResult:
    """Select the worker with the minimal score (smallest id on ties)."""
    return apply_rule(RuleSpec("krum"), inp)


def multi_krum_select(inp: AggregationInput, m: int) -> SelectionResult:
    """Iterate selection m times, removing each winner, and average the winners.

    Iteration i re-scores the remaining n - i workers with neighbour
    count (n - i) - f - 2 while f stays fixed.  Requires n - m > 2f + 2.
    The result's `scores` are the first-iteration scores over all n
    workers.
    """
    return apply_rule(RuleSpec("multi_krum", m=m), inp)


def average(inp: AggregationInput) -> np.ndarray:
    """Component-wise arithmetic mean of all proposals."""
    return apply_rule(RuleSpec("average"), inp).output


def linear_combination(inp: AggregationInput, weights) -> np.ndarray:
    """sum_i weights[i] * V_{i+1}; every weight must be non-zero.

    weights[k] pairs with worker id k + 1 regardless of entry order.
    """
    return apply_rule(RuleSpec("linear", weights=weights), inp).output


def sq_dist_medoid_select(inp: AggregationInput) -> SelectionResult:
    """Select the proposal minimising the total squared distance to all proposals.

    This is the known-vulnerable distance baseline: two colluding workers
    can plant the barycenter of the remaining proposals and win.
    """
    return apply_rule(RuleSpec("medoid"), inp)


def apply_rule(rule: RuleSpec, inp: AggregationInput) -> SelectionResult:
    """Dispatch to the rule named by `rule` after checking its preconditions."""
    rule.check_preconditions(inp.n, inp.f)
    return _select(rule, inp.matrix, inp.f)


def eta(n: int, f: int) -> float:
    """Deviation constant: the guarantee bounds ||E F - g||^2 by eta^2 * d * sigma^2.

    eta(n, f) = sqrt(2 * (n - f + (f*(n-f-2) + f^2*(n-f-1)) / (n-2f-2))),
    defined for 2f + 2 < n.
    """
    if not is_int(n) or not is_int(f):
        raise InvalidInput(f"n and f must be integers: got n={n!r}, f={f!r}")
    if f < 0:
        raise InvalidInput(f"f must be non-negative: got f={f}")
    _require_krum_valid(n, f)
    inner = (n - f) + (f * (n - f - 2) + f * f * (n - f - 1)) / (n - 2 * f - 2)
    return math.sqrt(2.0 * inner)


def resilience_angle(n: int, f: int, d: int, sigma: float, grad_norm: float) -> ResilienceAngle:
    """sin(alpha) = eta(n,f) * sqrt(d) * sigma / grad_norm, tagged by validity.

    Values >= 1 are returned with `within_guarantee=False` rather than
    raised: they mark the flat-basin regime where the bound gives no
    direction information.
    """
    if not is_int(d) or d < 1:
        raise InvalidInput(f"d must be a positive integer: got {d!r}")
    if sigma < 0 or not math.isfinite(sigma):
        raise InvalidInput(f"sigma must be a finite non-negative real: got {sigma}")
    if grad_norm <= 0 or not math.isfinite(grad_norm):
        raise InvalidInput(f"grad_norm must be a finite positive real: got {grad_norm}")
    s = eta(n, f) * math.sqrt(d) * sigma / grad_norm
    return ResilienceAngle(sin_alpha=s, within_guarantee=s < 1.0)
