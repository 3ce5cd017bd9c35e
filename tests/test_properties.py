"""Property tests: the Krum kernels agree with the brute-force oracles bit for bit.

Instances mix exactly tied integer-valued entries, arbitrary floats and
rows scaled by 1e200, whose distances overflow to inf.  The oracles sum
left to right, which numpy's pairwise summation matches only for d < 8;
wider instances are held to the distance contract and to the selection
with scores instead.  The block kernel that aggregates many instances
at once is held to the per-instance selection, bit for bit, and so is
the block of honest draws to per-worker `estimate_gradient` calls.
Relabelling the workers permutes the Krum scores bit for bit, and
scaling every proposal by a power of two scales them exactly.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from byzgrad import (AggregationInput, GaussianEstimator, LeastSquares, MinibatchEstimator, Quadratic,
                     SubstreamSource, estimate_gradient, krum_scores, krum_select, multi_krum_select,
                     pairwise_sq_distances, substream)
from byzgrad.aggregation import RuleSpec, _select, _select_block
from byzgrad.problems import _estimate_rows

from oracles import krum_scores_brute, krum_select_brute, max_valid_f, multi_krum_brute, sq_dist

SMALL_INTEGERS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
FLOATS = st.floats(-1e100, 1e100, allow_nan=False)


@st.composite
def krum_instances(draw, max_d=4, elements=None):
    """(X, f, m): n = 4-40 proposals, a valid f and a valid multi-Krum m (None if there is none).

    Without `elements`, entries are tied small integers or arbitrary
    floats, and some rows are scaled by 1e200.
    """
    n = draw(st.integers(4, 40))
    f = draw(st.integers(0, max_valid_f(n)))
    d = draw(st.integers(1, max_d))
    if elements is None:
        X = draw(arrays(np.float64, (n, d), elements=draw(st.sampled_from([SMALL_INTEGERS, FLOATS]))))
        X[draw(st.lists(st.integers(0, n - 1), max_size=n))] *= 1e200
    else:
        X = draw(arrays(np.float64, (n, d), elements=elements))
    m = draw(st.integers(1, n - 2 * f - 3)) if n - 2 * f - 2 > 1 else None
    return X, f, m


@settings(derandomize=True, max_examples=150, deadline=None)
@given(krum_instances())
def test_krum_kernels_match_oracles_bit_for_bit(instance):
    X, f, m = instance
    labelled = [(i + 1, X[i]) for i in range(len(X))]
    inp = AggregationInput.from_vectors(X, f)
    with np.errstate(over="ignore", invalid="ignore"):
        want = krum_scores_brute(labelled, f)
        scores = krum_scores(inp)
        for ks in scores:
            score, neighbors = want[ks.worker_id]
            assert ks.score == score
            assert set(ks.neighbor_ids) == neighbors
            vec = X[ks.worker_id - 1]
            ranked = sorted(ks.neighbor_ids, key=lambda j: (sq_dist(vec, X[j - 1]), j))
            assert list(ks.neighbor_ids) == ranked
        single = krum_select(inp)
        winner = krum_select_brute(labelled, f)
        assert single.selected_ids == (winner,)
        assert single.output.tobytes() == X[winner - 1].tobytes()
        assert single.scores == tuple(scores)
        if m is not None:
            multi = multi_krum_select(inp, m)
            ids, mean = multi_krum_brute(labelled, f, m)
            assert list(multi.selected_ids) == ids
            assert multi.output.tobytes() == np.array(mean).tobytes()


@st.composite
def wide_proposals(draw):
    """n x d proposals with d >= 8, drawn from a seeded numpy generator.

    Up to 70 x 300, so the shapes cross the pairwise kernel's tile edges
    and numpy's 128-element summation blocks.
    """
    n = draw(st.integers(2, 70))
    d = draw(st.integers(8, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(-2, 3, (n, d)).astype(np.float64)
    else:
        X = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-5, 5))
    X[draw(st.lists(st.integers(0, n - 1), max_size=n))] *= 1e200
    return X


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_proposals())
@example(np.random.default_rng(0).standard_normal((130, 300)))  # rows span two column tiles
def test_pairwise_distances_are_row_reductions_mirrored(X):
    n = len(X)
    with np.errstate(over="ignore", invalid="ignore"):
        D = pairwise_sq_distances(AggregationInput.from_vectors(X, 0))
        for i in range(n):
            for j in range(i + 1, n):
                assert D[i, j].tobytes() == np.add.reduce((X[j] - X[i]) ** 2).tobytes(), (i, j)
    assert D.tobytes() == D.T.tobytes()
    diagonal = np.diagonal(D)
    assert np.all(diagonal == 0.0) and not np.any(np.signbit(diagonal))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(krum_instances(max_d=300))
@example((np.array([[-0.0], [0.0], [0.0], [0.0]]), 0, None))  # a lone winner keeps -0.0
def test_selection_without_scores_is_the_audited_selection(instance):
    X, f, _ = instance
    n = len(X)
    with np.errstate(over="ignore", invalid="ignore"):
        krum = _select(RuleSpec("krum"), X, f, with_scores=True)
        rules = [RuleSpec("krum")] + [RuleSpec("multi_krum", m=m) for m in range(1, n - 2 * f - 2)]
        for rule in rules:
            audited = _select(rule, X, f, with_scores=True)
            plain = _select(rule, X, f, with_scores=False)
            assert plain.selected_ids == audited.selected_ids, rule
            assert plain.output.tobytes() == audited.output.tobytes(), rule
            if rule.m == 1:
                assert audited.selected_ids == krum.selected_ids
                assert audited.output.tobytes() == krum.output.tobytes()


@st.composite
def instance_blocks(draw):
    """(B, n, d) blocks of 1-8 instances sharing n, d and f, with ties, duplicates and 1e200 rows."""
    B = draw(st.integers(1, 8))
    n = draw(st.integers(4, 20))
    f = draw(st.integers(0, max_valid_f(n)))
    d = draw(st.integers(1, 9))
    Xb = draw(arrays(np.float64, (B, n, d), elements=draw(st.sampled_from([SMALL_INTEGERS, FLOATS]))))
    for rows in draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=n), max_size=3)):
        Xb[:, rows] = Xb[:, rows[:1]]  # duplicated rows
    Xb.reshape(B * n, d)[draw(st.lists(st.integers(0, B * n - 1), max_size=B * n))] *= 1e200
    return Xb, f


@settings(derandomize=True, max_examples=100, deadline=None)
@given(instance_blocks())
# every distance overflows, so after the first pick every remaining score is inf
# and the winner, at a smaller index, must still lose
@example((np.arange(1.0, 31.0).reshape(2, 5, 3) * 1e200, 0))
def test_block_selection_is_the_per_instance_selection(block):
    Xb, f = block
    n = Xb.shape[1]
    rules = [RuleSpec("average"), RuleSpec("linear", weights=[(-1.0) ** i * (i + 1) for i in range(n)]),
             RuleSpec("medoid"), RuleSpec("krum")]
    rules += [RuleSpec("multi_krum", m=m) for m in range(1, n - 2 * f - 2)]
    with np.errstate(over="ignore", invalid="ignore"):
        for rule in rules:
            sel, out = _select_block(rule, Xb, f)
            assert out.shape == (len(Xb), Xb.shape[2])
            for b, X in enumerate(Xb):
                want = _select(rule, X, f, with_scores=False)
                ids = () if sel is None else tuple(int(w) + 1 for w in sel[b])
                assert ids == want.selected_ids, (rule, b)
                assert out[b].tobytes() == want.output.tobytes(), (rule, b)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(krum_instances(max_d=9), st.data())
def test_relabelling_workers_permutes_the_krum_scores(instance, data):
    X, f, _ = instance
    n = len(X)
    inp = AggregationInput.from_vectors(X, f)
    # worker i + 1 becomes worker label[i] + 1, and the entries arrive shuffled
    label = data.draw(st.permutations(range(n)))
    entries = [(label[i] + 1, X[i]) for i in range(n)]
    relabelled = AggregationInput(tuple(data.draw(st.permutations(entries))), f)
    with np.errstate(over="ignore", invalid="ignore"):
        base, moved = krum_select(inp), krum_select(relabelled)
    moved_scores = {ks.worker_id: ks.score for ks in moved.scores}
    for ks in base.scores:
        assert moved_scores[label[ks.worker_id - 1] + 1].hex() == ks.score.hex(), ks.worker_id
    scores = [ks.score for ks in base.scores]
    if scores.count(min(scores)) == 1:
        assert moved.output.tobytes() == base.output.tobytes()


# finite, normal and far from both ends of the range: every difference,
# square and score stays normal after a scaling by 2^k with |k| < 20
SCALABLE = st.one_of(SMALL_INTEGERS, st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(krum_instances(max_d=9, elements=SCALABLE), st.integers(-19, 19))
def test_power_of_two_scaling_keeps_the_selection_and_scales_the_scores(instance, k):
    X, f, m = instance
    inp = AggregationInput.from_vectors(X, f)
    scaled = AggregationInput.from_vectors(X * 2.0 ** k, f)
    base, moved = krum_select(inp), krum_select(scaled)
    assert moved.selected_ids == base.selected_ids
    for ks, scaled_ks in zip(base.scores, moved.scores):
        assert scaled_ks.score.hex() == (ks.score * 4.0 ** k).hex(), ks.worker_id
    if m is not None:
        assert multi_krum_select(scaled, m).selected_ids == multi_krum_select(inp, m).selected_ids


@st.composite
def honest_draws(draw):
    """(cost, x, estimator, workers, seed, step): Gaussian or least-squares minibatch draws."""
    workers = draw(st.integers(1, 30))
    d = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(d) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        costfn = Quadratic(rng.standard_normal(d))
        estimator = GaussianEstimator(draw(st.sampled_from([0.0, 0.5, 3.0, 1e200])))
    else:
        rows = draw(st.integers(1, 50))
        scale = draw(st.sampled_from([1.0, 1e150]))
        costfn = LeastSquares(scale * rng.standard_normal((rows, d)), scale * rng.standard_normal(rows))
        estimator = MinibatchEstimator(draw(st.integers(1, 40)))
    return costfn, x, estimator, workers, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 10**6))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(honest_draws())
def test_block_of_honest_draws_is_the_per_worker_draws(case):
    costfn, x, estimator, workers, seed, step = case
    source = SubstreamSource(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        want = [estimate_gradient(costfn, x, estimator, substream(seed, wid, step))
                for wid in range(1, workers + 1)]
        # resets of one source, each taken only when its row is drawn
        block = _estimate_rows(costfn, x, estimator,
                               (source.generator(wid, step) for wid in range(1, workers + 1)), workers)
    assert block.shape == (workers, x.size)
    for row, vec in zip(block, want):
        assert row.tobytes() == vec.tobytes()
