"""Brute-force reference implementations used to cross-check the library.

Everything recomputes from scratch with plain Python loops.  Sort and
accumulation orders follow the documented tie rules (ascending
(distance, worker_id)), so results are comparable bit for bit with the
library when d < 8.  From d = 8 on, numpy sums each squared distance
pairwise in 8-wide blocks, and the left-to-right `sq_dist` here may
differ from it in the last bits.
"""

import math
from fractions import Fraction

import numpy as np

from byzgrad import (AdversaryView, AggregationInput, apply_attack, apply_rule, cost,
                     estimate_gradient, lr_schedule, substream, true_gradient)


def sq_dist(u, v):
    total = 0.0
    for a, b in zip(u, v):
        diff = float(a) - float(b)
        total += diff * diff
    return total


def krum_scores_brute(labelled, f):
    """labelled: [(worker_id, vector)]; returns {id: (score, neighbor_id_frozenset)}."""
    k = len(labelled) - f - 2
    out = {}
    for wid, vec in labelled:
        ranked = sorted((sq_dist(vec, other), oid) for oid, other in labelled if oid != wid)
        score = 0.0
        for dist, _ in ranked[:k]:
            score += dist
        out[wid] = (score, frozenset(oid for _, oid in ranked[:k]))
    return out


def krum_select_brute(labelled, f):
    scores = krum_scores_brute(labelled, f)
    return min(scores, key=lambda wid: (scores[wid][0], wid))


def multi_krum_brute(labelled, f, m):
    """Literally re-runs single selection with deletion; returns (ids, mean)."""
    remaining = list(labelled)
    chosen = []
    for _ in range(m):
        wid = krum_select_brute(remaining, f)
        chosen.append(wid)
        remaining = [entry for entry in remaining if entry[0] != wid]
    by_id = dict(labelled)
    d = len(by_id[chosen[0]])
    mean = [0.0] * d
    for wid in chosen:
        vec = by_id[wid]
        for idx in range(d):
            mean[idx] += float(vec[idx])
    return chosen, [v / m for v in mean]


def medoid_select_brute(labelled):
    sums = {wid: sum(sq_dist(vec, other) for _, other in labelled)
            for wid, vec in labelled}
    return min(sums, key=lambda wid: (sums[wid], wid))


def mean_brute(vectors):
    d = len(vectors[0])
    out = [0.0] * d
    for vec in vectors:
        for idx in range(d):
            out[idx] += float(vec[idx])
    return [v / len(vectors) for v in out]


def linear_combination_brute(vectors, weights):
    d = len(vectors[0])
    out = [0.0] * d
    for w, vec in zip(weights, vectors):
        for idx in range(d):
            out[idx] += float(w) * float(vec[idx])
    return out


def eta_brute(n, f):
    """Exact-rational evaluation of the deviation-constant formula."""
    inner = Fraction(n - f) + Fraction(f * (n - f - 2) + f * f * (n - f - 1), n - 2 * f - 2)
    return math.sqrt(float(2 * inner))


def max_valid_f(n):
    """Largest f with 2f + 2 < n."""
    return max(0, (n - 3) // 2)


def random_labelled(rng, n, d, scale=1.0):
    """n random vectors labelled 1..n."""
    X = scale * rng.standard_normal((n, d))
    return [(i + 1, X[i]) for i in range(n)]


def safety_radius_instance(rng, n, f, d, delta, margin=1.05):
    """Honest cluster of diameter <= delta plus a tight Byzantine cluster.

    The Byzantine anchor sits a `margin` factor past the safety radius
    computed from the actual honest diameter, so margin > 1 guarantees
    every Byzantine-to-honest distance exceeds the radius and margin < 1
    aims just below it.  Returns (labelled, byz_ids, delta_actual, r_actual).
    """
    center = rng.standard_normal(d)
    n_correct = n - f
    correct = []
    for _ in range(n_correct):
        offset = rng.standard_normal(d)
        offset *= (delta / 2.0) * rng.random() / max(float(np.linalg.norm(offset)), 1e-300)
        correct.append(center + offset)
    delta_actual = max(
        math.sqrt(sq_dist(a, b)) for i, a in enumerate(correct) for b in correct[i + 1:]
    ) if n_correct > 1 else 0.0
    rho_max = max(math.sqrt(sq_dist(c, center)) for c in correct)
    threshold = delta_actual * math.sqrt((n - f - 2) / (n - 2 * f - 1))
    direction = rng.standard_normal(d)
    direction /= float(np.linalg.norm(direction))
    anchor = center + direction * (margin * threshold + rho_max)
    byz = [anchor + 1e-9 * rng.standard_normal(d) for _ in range(f)]
    vectors = correct + byz
    labelled = [(i + 1, v) for i, v in enumerate(vectors)]
    byz_ids = set(range(n_correct + 1, n + 1))
    r_actual = min(math.sqrt(sq_dist(b, c)) for b in byz for c in correct)
    return labelled, byz_ids, delta_actual, r_actual


def run_experiment_per_worker(config):
    """The simulator's rounds, drawn, attacked and aggregated worker by worker.

    Each honest worker i calls `estimate_gradient` with a fresh substream
    (seed, i, t), the adversary sees the honest proposals as
    `correct_vectors` and draws from (seed, 0, t), and the rule runs
    through `apply_rule` on the labelled proposals; the norms are
    `np.linalg.norm`.  Returns (records, final_x, diverged), each record
    a tuple in `RoundRecord` field order.  Every proposal must be finite.
    """
    x = config.initial_x()
    byz_ids = config.byzantine_worker_ids()
    records = []
    for t in range(config.rounds):
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = lr_schedule(t, config.gamma0, config.p)
            grad = true_gradient(config.cost, x)
            honest = tuple(
                (wid, estimate_gradient(config.cost, x, config.estimator,
                                        substream(config.master_seed, wid, t)))
                for wid in range(1, config.n + 1) if wid not in byz_ids)
            proposals = list(honest)
            if config.f:
                view = AdversaryView(round=t, parameter_vector=x, correct_vectors=honest,
                                     true_gradient=grad, rule_descriptor=config.rule,
                                     gamma=gamma)
                proposals += zip(byz_ids, apply_attack(config.attack, view, byz_ids,
                                                       rng=substream(config.master_seed, 0, t)))
            selection = apply_rule(config.rule, AggregationInput(tuple(proposals), config.f))
            x_next = x - gamma * selection.output
            record = (t, cost(config.cost, x), float(np.linalg.norm(grad)), gamma,
                      selection.selected_ids, bool(set(byz_ids) & set(selection.selected_ids)),
                      float(np.linalg.norm(selection.output - grad)), float(np.linalg.norm(x)))
        records.append(record)
        reals = (record[1], record[2], record[3], record[6], record[7])
        if not all(map(math.isfinite, reals)) or not np.all(np.isfinite(x_next)):
            return records, x, True
        x = x_next
    return records, x, False
