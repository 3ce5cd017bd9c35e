"""Property tests: the Krum kernels agree with the brute-force oracles bit for bit.

Instances mix exactly tied integer-valued entries, arbitrary floats and
rows scaled by 1e200, whose distances overflow to inf.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from byzgrad import AggregationInput, krum_scores, krum_select, multi_krum_select

from oracles import krum_scores_brute, krum_select_brute, max_valid_f, multi_krum_brute, sq_dist

SMALL_INTEGERS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
FLOATS = st.floats(-1e100, 1e100, allow_nan=False)


@st.composite
def krum_instances(draw):
    n = draw(st.integers(4, 40))
    f = draw(st.integers(0, max_valid_f(n)))
    d = draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, d), elements=draw(st.sampled_from([SMALL_INTEGERS, FLOATS]))))
    X[draw(st.lists(st.integers(0, n - 1), max_size=n))] *= 1e200
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
