"""Reference code that the benchmark checks byzgrad's outputs against.

Nothing here imports byzgrad's private names or the test suite.  The
stream replays use only the public `byzgrad.substream` and the stream
layout the README documents: worker i in round t draws from
(seed, i, t), Monte Carlo trial k draws from (seed, 0, k).

* `eta_sq` is the paper's deviation constant squared, in exact rationals.
* `krum_scores`, `krum_select` and `multi_krum_select` are brute force:
  pure-Python squared distances, neighbours ranked by (distance, row)
  and summed left to right in that order, ties to the smaller row.
* `replay_resilience_sign_flip` and `replay_sgd_krum_sign_flip` recompute
  a Monte Carlo estimate and an SGD run from the streams alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from byzgrad import substream


def eta_sq(n: int, f: int) -> Fraction:
    """eta(n, f)^2 = 2 * (n - f + (f*(n-f-2) + f^2*(n-f-1)) / (n-2f-2)), for 2f + 2 < n."""
    if not 2 * f + 2 < n:
        raise ValueError(f"eta needs 2f + 2 < n: got n={n}, f={f}")
    return 2 * (Fraction(n - f) + Fraction(f * (n - f - 2) + f * f * (n - f - 1), n - 2 * f - 2))


def eta(n: int, f: int) -> float:
    return math.sqrt(eta_sq(n, f))


def norm(v) -> float:
    return math.sqrt(math.fsum(float(x) * float(x) for x in v))


def rel_close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def vec_close(got, want, rel: float) -> bool:
    """Norm-wise relative closeness of two vectors."""
    diff = np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64)
    return norm(diff) <= rel * norm(want)


def _sq_dist(u, v) -> float:
    total = 0.0
    for a, b in zip(u, v):
        diff = a - b
        total += diff * diff
    return total


def sq_dist_table(X) -> list[list[float]]:
    """All pairwise squared distances, one pure-Python loop per pair."""
    rows = [list(map(float, r)) for r in np.asarray(X)]
    n = len(rows)
    table = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = _sq_dist(rows[i], rows[j])
    return table


def krum_scores(table, f: int, active=None) -> dict[int, float]:
    """{row: score} over `active` rows (all rows by default), k = |active| - f - 2."""
    active = list(range(len(table))) if active is None else list(active)
    k = len(active) - f - 2
    scores = {}
    for i in active:
        ranked = sorted((table[i][j], j) for j in active if j != i)
        total = 0.0
        for value, _ in ranked[:k]:
            total += value
        scores[i] = total
    return scores


def krum_select(table, f: int, active=None) -> int:
    """Row with the least score; ties go to the smaller row."""
    scores = krum_scores(table, f, active)
    return min(scores, key=lambda i: (scores[i], i))


def multi_krum_select(table, f: int, m: int) -> list[int]:
    """Krum m times over the remaining rows, f fixed, removing each winner."""
    remaining = list(range(len(table)))
    chosen = []
    for _ in range(m):
        w = krum_select(table, f, remaining)
        chosen.append(w)
        remaining.remove(w)
    return chosen


def mean_rows(X, rows) -> list[float]:
    d = len(X[0])
    total = [0.0] * d
    for r in rows:
        for idx in range(d):
            total[idx] += float(X[r][idx])
    return [v / len(rows) for v in total]


def replay_resilience_sign_flip(n, f, d, g, sigma, kappa, trials, master_seed, m=None):
    """(mean of F, Byzantine selection rate) of Krum (m None) or multi-Krum(m).

    Honest workers take the first n - f rows and draw N(g, sigma^2 I_d)
    from trial k's stream (seed, 0, k); the f Byzantine rows are copies
    of -kappa times the honest mean.
    """
    g = np.asarray(g, dtype=np.float64)
    sum_F = np.zeros(d)
    hits = 0
    for trial in range(trials):
        rng = substream(master_seed, 0, trial)
        H = g + sigma * rng.standard_normal((n - f, d))
        flipped = -kappa * H.mean(axis=0)
        X = np.vstack([H] + [flipped] * f)
        table = sq_dist_table(X)
        if m is None:
            winners = [krum_select(table, f)]
            F = X[winners[0]]
        else:
            winners = multi_krum_select(table, f, m)
            F = np.array(mean_rows(X, winners))
        sum_F += F
        hits += any(w >= n - f for w in winners)
    return sum_F / trials, hits / trials


def replay_sgd_krum_sign_flip(x0, n, f, sigma, kappa, gamma0, p, rounds, master_seed):
    """[(selected id, ||x_t||)] of Krum SGD on Q(x) = ||x||^2 / 2 under sign_flip.

    Honest worker i (ids 1..n-f) draws grad + sigma * N(0, I_d) from
    (seed, i, t); the Byzantine ids n-f+1..n send -kappa times the honest
    mean; x_{t+1} = x_t - gamma0 / (1 + t)^p * F.
    """
    x = np.array(x0, dtype=np.float64)
    d = x.size
    out = []
    for t in range(rounds):
        gamma = gamma0 / (1.0 + t) ** p
        grad = x
        honest = [grad + sigma * substream(master_seed, wid, t).standard_normal(d)
                  for wid in range(1, n - f + 1)]
        flipped = -kappa * np.stack(honest).mean(axis=0)
        X = honest + [flipped] * f
        w = krum_select(sq_dist_table(X), f)
        out.append((w + 1, norm(x)))
        x = x - gamma * X[w]
    return out
