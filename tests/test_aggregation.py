import math

import numpy as np
import pytest

from byzgrad import (AggregationInput, InvalidInput, PreconditionViolation, RuleSpec,
                     apply_rule, average, eta, krum_scores, krum_select,
                     linear_combination, multi_krum_select, pairwise_sq_distances,
                     resilience_angle, sq_dist_medoid_select)

from oracles import (eta_brute, krum_scores_brute, krum_select_brute, linear_combination_brute,
                     max_valid_f, mean_brute, medoid_select_brute, multi_krum_brute,
                     random_labelled)


def make_input(values, f):
    return AggregationInput.from_vectors([np.atleast_1d(np.asarray(v, float)) for v in values], f)


N5_INSTANCE = make_input([0.0, 0.1, 0.2, 0.3, 10.0], f=1)


# ---------------------------------------------------------------------------
# pairwise squared distances

def test_pairwise_triangle():
    inp = make_input([(0.0, 0.0), (3.0, 4.0)], f=0)
    assert np.array_equal(pairwise_sq_distances(inp), [[0.0, 25.0], [25.0, 0.0]])


def test_pairwise_identical_vectors():
    inp = make_input([(1.0, 2.0)] * 4, f=0)
    assert np.array_equal(pairwise_sq_distances(inp), np.zeros((4, 4)))


def test_pairwise_matches_scalar_loop():
    rng = np.random.default_rng(7)
    labelled = random_labelled(rng, 5, 3)
    inp = AggregationInput(tuple(labelled), f=0)
    got = pairwise_sq_distances(inp)
    for i, vi in labelled:
        for j, vj in labelled:
            want = sum((float(a) - float(b)) ** 2 for a, b in zip(vi, vj))
            assert got[i - 1, j - 1] == pytest.approx(want, rel=1e-12)


def test_pairwise_exact_symmetry_and_zero_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, 9))
        inp = AggregationInput(tuple(random_labelled(rng, n, d, scale=10.0)), f=0)
        mat = pairwise_sq_distances(inp)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(np.diag(mat), np.zeros(n))


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidInput, match="dimension"):
        AggregationInput(((1, np.array([1.0, 2.0])), (2, np.array([1.0]))), f=0)


def test_bad_worker_ids_rejected():
    with pytest.raises(InvalidInput, match="worker ids"):
        AggregationInput(((1, np.array([1.0])), (3, np.array([2.0]))), f=0)
    with pytest.raises(InvalidInput, match="worker ids"):
        AggregationInput(((1, np.array([1.0])), (1, np.array([2.0]))), f=0)


def test_nonfinite_vector_rejected():
    with pytest.raises(InvalidInput, match="finite"):
        make_input([(0.0,), (np.inf,), (1.0,)], f=0)


# ---------------------------------------------------------------------------
# krum scores and selection

def test_krum_scores_n5_instance():
    scores = krum_scores(N5_INSTANCE)
    expected = (0.05, 0.02, 0.02, 0.05, 190.13)
    for ks, want in zip(scores, expected):
        assert ks.score == pytest.approx(want, rel=1e-12)
    assert set(scores[1].neighbor_ids) == {1, 3}
    assert all(ks.worker_id not in ks.neighbor_ids for ks in scores)
    assert all(len(ks.neighbor_ids) == 5 - 1 - 2 for ks in scores)


def test_krum_scores_identical_vectors():
    inp = make_input([(2.0, -1.0)] * 6, f=1)
    assert all(ks.score == 0.0 for ks in krum_scores(inp))


def test_krum_scores_single_neighbor():
    scores = krum_scores(make_input([0.0, 1.0, 5.0], f=0))
    assert [ks.score for ks in scores] == [1.0, 1.0, 16.0]


def test_krum_precondition_names_n_and_f():
    inp = make_input([0.0, 1.0, 2.0, 3.0, 4.0], f=2)
    with pytest.raises(PreconditionViolation, match=r"2f \+ 2 < n.*n=5.*f=2"):
        krum_scores(inp)
    with pytest.raises(PreconditionViolation):
        krum_select(inp)


def test_krum_select_n5_instance_matches_binary64_oracle():
    # In exact decimals workers 2 and 3 tie at 0.02 and the id rule picks 2;
    # in binary64 (0.3 - 0.2)^2 < (0.1 - 0.0)^2 so worker 3 wins outright.
    # The brute-force oracle agrees; the id tie rule is tested below on an
    # exactly representable instance.
    result = krum_select(N5_INSTANCE)
    labelled = [(wid, vec) for wid, vec in N5_INSTANCE.entries]
    assert result.selected_ids == (krum_select_brute(labelled, 1),)
    assert result.selected_ids == (3,)


def test_krum_select_exact_score_tie_goes_to_smaller_id():
    # integer coordinates: scores of workers 2 and 3 are exactly 1.0
    result = krum_select(make_input([0.0, 1.0, 1.0, 2.0, 10.0], f=1))
    assert result.selected_ids == (2,)
    by_id = {ks.worker_id: ks.score for ks in result.scores}
    assert by_id[2] == 1.0 and by_id[3] == 1.0


def test_krum_select_all_identical_selects_worker_one():
    common = np.array([3.0, -2.0, 0.5])
    inp = make_input([common] * 5, f=1)
    result = krum_select(inp)
    assert result.selected_ids == (1,)
    assert np.array_equal(result.output, common)


def test_krum_select_rejects_far_byzantine():
    rng = np.random.default_rng(3)
    g = np.array([1.0, 2.0, 3.0])
    vectors = [g + 0.01 * rng.standard_normal(3) for _ in range(6)]
    vectors.append(g + 1e6 * np.array([1.0, 0.0, 0.0]))
    result = krum_select(AggregationInput.from_vectors(vectors, f=2))
    assert result.selected_ids[0] != 7


def test_krum_select_output_is_a_copy():
    inp = make_input([0.0, 1.0, 5.0], f=0)
    result = krum_select(inp)
    result.output[0] = 99.0
    assert inp.vector(result.selected_ids[0])[0] != 99.0


# ---------------------------------------------------------------------------
# multi-krum

def test_multi_krum_m1_equals_krum_select():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(4, 11))
        f = int(rng.integers(0, max_valid_f(n) + 1))
        if n - 1 <= 2 * f + 2:
            f = 0
        labelled = random_labelled(rng, n, int(rng.integers(1, 5)))
        inp = AggregationInput(tuple(labelled), f=f)
        single = krum_select(inp)
        multi = multi_krum_select(inp, 1)
        assert multi.selected_ids == single.selected_ids
        assert np.array_equal(multi.output, single.output)
        assert multi.scores == single.scores


def test_multi_krum_identical_vectors():
    common = np.array([1.0, 1.0])
    result = multi_krum_select(make_input([common] * 6, f=0), m=2)
    assert result.selected_ids == (1, 2)
    assert np.array_equal(result.output, common)


def test_multi_krum_matches_deletion_oracle():
    rng = np.random.default_rng(5)
    labelled = random_labelled(rng, 9, 4)
    inp = AggregationInput(tuple(labelled), f=1)
    result = multi_krum_select(inp, 3)
    ids, mean = multi_krum_brute(labelled, 1, 3)
    assert list(result.selected_ids) == ids
    assert np.array_equal(result.output, np.array(mean))


def test_multi_krum_reports_first_iteration_scores():
    rng = np.random.default_rng(9)
    labelled = random_labelled(rng, 9, 3)
    inp = AggregationInput(tuple(labelled), f=1)
    assert multi_krum_select(inp, 3).scores == tuple(krum_scores(inp))


def test_multi_krum_precondition():
    inp = make_input(list(range(8)), f=1)
    multi_krum_select(inp, 3)  # 8 - 3 > 4 holds
    with pytest.raises(PreconditionViolation, match=r"n - m > 2f \+ 2"):
        multi_krum_select(inp, 4)
    with pytest.raises(InvalidInput):
        multi_krum_select(inp, 0)


# ---------------------------------------------------------------------------
# average / linear / medoid

def test_average_basics():
    assert np.array_equal(average(make_input([(1.0, 0.0), (0.0, 1.0)], f=0)), [0.5, 0.5])
    single = make_input([(2.0, 7.0)], f=0)
    assert np.array_equal(average(single), [2.0, 7.0])


def test_average_matches_loop_oracle():
    rng = np.random.default_rng(13)
    vectors = [rng.standard_normal(6) for _ in range(4)]
    got = average(AggregationInput.from_vectors(vectors, f=0))
    want = mean_brute(vectors)
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_linear_combination():
    inp = make_input([(1.0, 0.0), (0.0, 1.0)], f=0)
    np.testing.assert_allclose(linear_combination(inp, [0.5, 0.5]),
                               average(inp), rtol=1e-15)
    same = make_input([(1.0, 2.0), (1.0, 2.0)], f=0)
    assert np.array_equal(linear_combination(same, [1.0, -1.0]), [0.0, 0.0])
    rng = np.random.default_rng(17)
    vectors = [rng.standard_normal(4) for _ in range(5)]
    weights = rng.uniform(0.2, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
    got = linear_combination(AggregationInput.from_vectors(vectors, f=0), weights)
    np.testing.assert_allclose(got, linear_combination_brute(vectors, weights), rtol=1e-12)


def test_linear_combination_rejects_zero_weight():
    inp = make_input([(1.0,), (2.0,)], f=0)
    with pytest.raises(InvalidInput, match="non-zero"):
        linear_combination(inp, [1.0, 0.0])
    with pytest.raises(InvalidInput):
        linear_combination(inp, [1.0])


def test_linear_combination_weights_pair_with_worker_ids_not_entry_order():
    v1, v2, v3 = np.array([1.0]), np.array([10.0]), np.array([100.0])
    shuffled = AggregationInput(((3, v3), (1, v1), (2, v2)), f=0)
    out = linear_combination(shuffled, [1.0, 2.0, 3.0])  # 1*v1 + 2*v2 + 3*v3
    assert np.array_equal(out, [321.0])


def test_medoid_example():
    result = sq_dist_medoid_select(make_input([0.0, 1.0, 2.0], f=0))
    assert result.selected_ids == (2,)
    assert result.scores == ()
    identical = sq_dist_medoid_select(make_input([(4.0, 4.0)] * 3, f=0))
    assert identical.selected_ids == (1,)


def test_medoid_matches_brute():
    rng = np.random.default_rng(19)
    for _ in range(50):
        labelled = random_labelled(rng, int(rng.integers(2, 10)), int(rng.integers(1, 5)))
        inp = AggregationInput(tuple(labelled), f=0)
        assert sq_dist_medoid_select(inp).selected_ids == (medoid_select_brute(labelled),)


# ---------------------------------------------------------------------------
# eta and the resilience angle

def test_eta_values():
    assert eta(8, 0) == 4.0
    assert eta(5, 1) == pytest.approx(math.sqrt(18.0), rel=1e-15)
    assert eta(7, 2) == pytest.approx(math.sqrt(54.0), rel=1e-15)
    for n in range(3, 40):
        assert eta(n, 0) == math.sqrt(2.0 * n)


def test_eta_matches_exact_rational_formula():
    for n in range(3, 40):
        for f in range(0, max_valid_f(n) + 1):
            assert eta(n, f) == pytest.approx(eta_brute(n, f), rel=1e-13)


def test_eta_precondition():
    with pytest.raises(PreconditionViolation, match="n=6, f=2"):
        eta(6, 2)
    with pytest.raises(InvalidInput):
        eta(9, -1)


def test_eta_monotone_in_n():
    for f in range(0, 5):
        for n in range(4 * f + 4, 4 * f + 60):
            assert eta(n + 1, f) >= eta(n, f)


def test_eta_quarter_f_ratio_bounded():
    for n in range(12, 401):
        f = n // 4
        if 2 * f + 2 < n:
            assert eta(n, f) / n <= 0.8


def test_resilience_angle():
    zero = resilience_angle(9, 2, 5, 0.0, 20.0)
    assert zero.sin_alpha == 0.0 and zero.within_guarantee
    ref = resilience_angle(9, 2, 5, 1.0, 20.0)
    assert ref.sin_alpha == pytest.approx(eta(9, 2) * math.sqrt(5) / 20.0, rel=1e-15)
    assert ref.sin_alpha == pytest.approx(0.6770, abs=5e-5)
    flat = resilience_angle(9, 2, 5, 10.0, 20.0)
    assert flat.sin_alpha >= 1.0 and not flat.within_guarantee
    with pytest.raises(InvalidInput, match="grad_norm"):
        resilience_angle(9, 2, 5, 1.0, 0.0)
    with pytest.raises(PreconditionViolation):
        resilience_angle(6, 2, 5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# structural properties

def _random_valid_instance(rng, n_max=12, d_max=6):
    n = int(rng.integers(3, n_max + 1))
    f = int(rng.integers(0, max_valid_f(n) + 1))
    d = int(rng.integers(1, d_max + 1))
    return AggregationInput(tuple(random_labelled(rng, n, d)), f=f)


def test_selection_membership():
    rng = np.random.default_rng(29)
    for _ in range(100):
        inp = _random_valid_instance(rng)
        rows = [inp.vector(i + 1) for i in range(inp.n)]
        for result in (krum_select(inp), sq_dist_medoid_select(inp)):
            assert any(np.array_equal(result.output, row) for row in rows)
        m_max = inp.n - 2 * inp.f - 3
        if m_max >= 1:
            result = multi_krum_select(inp, int(rng.integers(1, m_max + 1)))
            for wid in result.selected_ids:
                assert any(np.array_equal(inp.vector(wid), row) for row in rows)


def test_permutation_invariance_of_selected_vector():
    # the invariant only holds when the minimal score is unique; with
    # neighbour count 1 a mutual nearest pair ties exactly, so skip ties
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(200):
        inp = _random_valid_instance(rng)
        base = krum_select(inp)
        best = min(ks.score for ks in base.scores)
        if sum(ks.score == best for ks in base.scores) > 1:
            continue
        checked += 1
        baseline = base.output
        perm = rng.permutation(inp.n)
        relabelled = tuple((int(perm[wid - 1]) + 1, vec) for wid, vec in inp.entries)
        order = rng.permutation(inp.n)
        shuffled = tuple(relabelled[i] for i in order)
        permuted = AggregationInput(shuffled, f=inp.f)
        assert np.array_equal(krum_select(permuted).output, baseline)
    assert checked >= 100


def test_translation_equivariance():
    rng = np.random.default_rng(37)
    for _ in range(50):
        inp = _random_valid_instance(rng)
        shift = rng.standard_normal(inp.dimension)
        shifted = AggregationInput(
            tuple((wid, vec + shift) for wid, vec in inp.entries), f=inp.f)
        base = krum_select(inp)
        moved = krum_select(shifted)
        assert moved.selected_ids == base.selected_ids
        assert np.array_equal(moved.output, inp.vector(base.selected_ids[0]) + shift)


def test_positive_scaling_preserves_selection_index():
    rng = np.random.default_rng(41)
    for _ in range(50):
        inp = _random_valid_instance(rng)
        scale = float(rng.uniform(0.01, 100.0))
        scaled = AggregationInput(
            tuple((wid, scale * vec) for wid, vec in inp.entries), f=inp.f)
        assert krum_select(scaled).selected_ids == krum_select(inp).selected_ids


def test_krum_scores_match_brute_force_exactly():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(4, 11))
        f = int(rng.integers(0, max_valid_f(n) + 1))
        d = int(rng.integers(1, 7))
        labelled = random_labelled(rng, n, d)
        inp = AggregationInput(tuple(labelled), f=f)
        want = krum_scores_brute(labelled, f)
        for ks in krum_scores(inp):
            score, neighbors = want[ks.worker_id]
            assert ks.score == score
            assert len(set(ks.neighbor_ids)) == len(ks.neighbor_ids)
            assert set(ks.neighbor_ids) == neighbors


def test_krum_scores_large_instances_match_brute_force_exactly():
    rng = np.random.default_rng(47)
    for n, integer_valued in ((40, False), (65, False), (40, True), (65, True)):
        f = int(rng.integers(1, max_valid_f(n) + 1))
        if integer_valued:  # few distinct values: many exactly tied distances
            X = rng.integers(-2, 3, size=(n, 3)).astype(float)
            labelled = [(i + 1, X[i]) for i in range(n)]
        else:
            labelled = random_labelled(rng, n, 3)
        inp = AggregationInput(tuple(labelled), f=f)
        want = krum_scores_brute(labelled, f)
        for ks in krum_scores(inp):
            score, neighbors = want[ks.worker_id]
            assert ks.score == score
            assert len(set(ks.neighbor_ids)) == len(ks.neighbor_ids)
            assert set(ks.neighbor_ids) == neighbors
        m = 4
        got = multi_krum_select(inp, m)
        ids, mean = multi_krum_brute(labelled, f, m)
        assert list(got.selected_ids) == ids


def test_krum_scores_overflowing_rows_never_list_self_as_neighbor():
    # 20 of 40 rows overflow their distances to inf: more than f per worker
    rng = np.random.default_rng(53)
    X = rng.standard_normal((40, 3))
    X[rng.choice(40, size=20, replace=False)] *= 1e200
    labelled = [(i + 1, X[i]) for i in range(40)]
    with np.errstate(over="ignore"):
        got = krum_scores(AggregationInput.from_vectors(X, 2))
        want = krum_scores_brute(labelled, 2)
    assert any(math.isinf(ks.score) for ks in got)
    for ks in got:
        assert ks.worker_id not in ks.neighbor_ids
        score, neighbors = want[ks.worker_id]
        assert ks.score == score
        assert set(ks.neighbor_ids) == neighbors


def test_linear_rule_weights_must_be_a_flat_list_of_numbers():
    for weights in ([[1.0]], 3.0, [1.0, [2.0]], [{"a": 1}]):
        with pytest.raises(InvalidInput, match="linear rule weights"):
            RuleSpec("linear", weights=weights)
    assert RuleSpec("linear", weights=np.array([0.5, 2])).weights == (0.5, 2.0)


def test_apply_rule_dispatch():
    inp = make_input([0.0, 1.0, 2.0, 3.0, 10.0], f=1)
    assert np.array_equal(apply_rule(RuleSpec("average"), inp).output, average(inp))
    assert apply_rule(RuleSpec("krum"), inp).selected_ids == krum_select(inp).selected_ids
    assert apply_rule(RuleSpec("medoid"), inp).selected_ids == \
        sq_dist_medoid_select(inp).selected_ids
    weights = (0.2,) * 5
    assert np.array_equal(apply_rule(RuleSpec("linear", weights=weights), inp).output,
                          linear_combination(inp, weights))
    with pytest.raises(PreconditionViolation):
        apply_rule(RuleSpec("multi_krum", m=2), inp)
    with pytest.raises(InvalidInput):
        RuleSpec("trimmed_mean")
