import numpy as np
import pytest

from byzgrad import (AdversaryView, AggregationInput, AttackInapplicable, AttackSpec,
                     InvalidInput, InvalidView, RuleSpec, apply_attack,
                     collusion_medoid_attack, gaussian_noise_attack, krum_select,
                     linear_combination, omniscient_linear_attack, sign_flip_attack,
                     silence_attack, sq_dist_medoid_select, substream)


def make_view(correct, d=None, rule=None):
    d = d if d is not None else len(correct[0][1])
    return AdversaryView(round=0, parameter_vector=np.zeros(d),
                         correct_vectors=tuple((wid, np.asarray(v, float)) for wid, v in correct),
                         rule_descriptor=rule)


# ---------------------------------------------------------------------------
# omniscient linear attack

def test_omniscient_canonical_instance():
    view = make_view([(1, [1.0, 0.0]), (2, [0.0, 1.0])])
    crafted = omniscient_linear_attack(view, (1 / 3, 1 / 3, 1 / 3), byz_id=3,
                                       target=np.array([5.0, 5.0]))
    np.testing.assert_allclose(crafted, [14.0, 14.0], rtol=1e-12)
    inp = AggregationInput.from_vectors(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0]), crafted], f=1)
    np.testing.assert_allclose(linear_combination(inp, (1 / 3, 1 / 3, 1 / 3)),
                               [5.0, 5.0], rtol=1e-9)


def test_omniscient_mimics_single_peer():
    v1 = np.array([2.0, -3.0])
    view = make_view([(1, v1)])
    crafted = omniscient_linear_attack(view, (0.5, 0.5), byz_id=2, target=v1)
    assert np.array_equal(crafted, v1)


def test_omniscient_closure_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 8))
        byz_id = int(rng.integers(1, n + 1))
        correct = [(wid, rng.standard_normal(d))
                   for wid in range(1, n + 1) if wid != byz_id]
        weights = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        target = rng.standard_normal(d) * 10.0
        crafted = omniscient_linear_attack(make_view(correct, d=d), weights, byz_id, target)
        vectors = dict(correct)
        vectors[byz_id] = crafted
        inp = AggregationInput(tuple(sorted(vectors.items())), f=1)
        out = linear_combination(inp, weights)
        assert float(np.linalg.norm(out - target)) <= 1e-9 * max(1.0, float(np.linalg.norm(target)))


def test_omniscient_missing_vectors_is_invalid_view():
    view = make_view([(1, [1.0]), (3, [2.0])])  # ids {1, 3}: worker 2 missing
    with pytest.raises(InvalidView, match="n-1 proposals"):
        omniscient_linear_attack(view, (0.25,) * 4, byz_id=4, target=np.array([0.0]))


def test_omniscient_zero_weight_rejected():
    view = make_view([(1, [1.0])])
    with pytest.raises(InvalidInput, match="non-zero"):
        omniscient_linear_attack(view, (1.0, 0.0), byz_id=2, target=np.array([0.0]))


# ---------------------------------------------------------------------------
# collusion against the medoid

def figure3_vectors(jitter_rng=None, n=9, f=2, d=3, magnitude=70.0):
    correct = []
    for wid in range(1, n - f + 1):
        vec = np.zeros(d)
        if jitter_rng is not None:
            vec = vec + jitter_rng.uniform(-0.01, 0.01, size=d) / np.sqrt(d)
        correct.append((wid, vec))
    direction = np.zeros(d)
    direction[0] = 1.0
    byz = collusion_medoid_attack(make_view(correct, d=d), f, magnitude, direction)
    vectors = [vec for _, vec in correct] + byz
    return vectors, set(range(n - f + 1, n + 1))


def test_collusion_canonical_instance():
    vectors, byz_ids = figure3_vectors()
    assert np.array_equal(vectors[7], [70.0, 0.0, 0.0])
    assert np.array_equal(vectors[8], [8.75, 0.0, 0.0])  # 70 / 8, exact
    inp = AggregationInput.from_vectors(vectors, f=2)
    medoid = sq_dist_medoid_select(inp)
    assert medoid.selected_ids == (9,)  # the planted barycenter worker
    krum = krum_select(inp)
    assert krum.selected_ids[0] not in byz_ids


def test_collusion_needs_two_byzantines():
    view = make_view([(1, [0.0, 0.0])])
    with pytest.raises(AttackInapplicable, match="f >= 2"):
        collusion_medoid_attack(view, 1, 10.0, np.array([1.0, 0.0]))


def test_collusion_direction_must_be_unit():
    view = make_view([(1, [0.0, 0.0])])
    with pytest.raises(InvalidInput, match="unit"):
        collusion_medoid_attack(view, 2, 10.0, np.array([1.0, 1.0]))


def test_collusion_zero_magnitude_degenerates_to_barycenter():
    correct = [(wid, np.zeros(2)) for wid in range(1, 8)]
    byz = collusion_medoid_attack(make_view(correct, d=2), 2, 0.0, np.array([0.0, 1.0]))
    for vec in byz:
        assert np.array_equal(vec, np.zeros(2))


# ---------------------------------------------------------------------------
# stress baselines

def test_sign_flip():
    correct = [(1, [1.0, 2.0]), (2, [3.0, 4.0])]
    out = sign_flip_attack(make_view(correct), 3, kappa=1.0)
    assert len(out) == 3
    for vec in out:
        assert np.array_equal(vec, [-2.0, -3.0])
    zero_mean = [(1, [1.0, -1.0]), (2, [-1.0, 1.0])]
    for vec in sign_flip_attack(make_view(zero_mean), 2, kappa=5.0):
        assert np.array_equal(vec, [0.0, 0.0])


def test_sign_flip_scales_norm():
    rng = np.random.default_rng(4)
    correct = [(wid, rng.standard_normal(3)) for wid in range(1, 6)]
    mean = np.mean([v for _, v in correct], axis=0)
    out = sign_flip_attack(make_view(correct), 1, kappa=10.0)[0]
    assert float(np.linalg.norm(out)) == pytest.approx(10.0 * float(np.linalg.norm(mean)),
                                                       rel=1e-12)
    with pytest.raises(InvalidInput):
        sign_flip_attack(make_view(correct), 1, kappa=0.0)


def test_silence():
    out = silence_attack(make_view([(1, [1.0, 2.0, 3.0, 4.0])]), 3)
    assert len(out) == 3
    for vec in out:
        assert np.array_equal(vec, np.zeros(4))


def test_silence_composed_with_average_is_linear():
    rng = np.random.default_rng(6)
    n, f = 8, 2
    honest = [rng.standard_normal(3) for _ in range(n - f)]
    vectors = honest + [np.zeros(3), np.zeros(3)]
    from byzgrad import average
    out = average(AggregationInput.from_vectors(vectors, f=f))
    want = (n - f) / n * np.mean(honest, axis=0)
    np.testing.assert_allclose(out, want, rtol=1e-12)


def test_silence_composed_with_krum_keeps_correct_selection():
    rng = np.random.default_rng(8)
    center = np.array([50.0, -30.0])
    honest = [center + 0.01 * rng.standard_normal(2) for _ in range(7)]
    vectors = honest + [np.zeros(2), np.zeros(2)]
    result = krum_select(AggregationInput.from_vectors(vectors, f=2))
    assert result.selected_ids[0] <= 7


def test_gaussian_noise():
    view = make_view([(1, [0.0, 0.0])])
    center = np.array([2.0, -1.0])
    exact = gaussian_noise_attack(view, 2, center, 0.0, substream(1, 0, 0))
    for vec in exact:
        assert np.array_equal(vec, center)
    first = gaussian_noise_attack(view, 3, center, 1.5, substream(99, 0, 7))
    second = gaussian_noise_attack(view, 3, center, 1.5, substream(99, 0, 7))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    with pytest.raises(InvalidInput):
        gaussian_noise_attack(view, 1, center, -1.0, substream(1))


def test_gaussian_noise_clt():
    view = make_view([(1, [0.0] * 3)])
    center = np.array([1.0, -2.0, 0.5])
    rng = substream(123, 0, 0)
    draws = np.stack(gaussian_noise_attack(view, 10_000, center, 1.0, rng))
    se = 1.0 / np.sqrt(10_000)
    assert np.all(np.abs(draws.mean(axis=0) - center) <= 5 * se)


# ---------------------------------------------------------------------------
# dispatch

def test_apply_attack_dispatch_and_determinism():
    rng = np.random.default_rng(10)
    correct = tuple((wid, rng.standard_normal(4)) for wid in range(1, 8))
    view = make_view(correct, rule=RuleSpec("average"))
    specs = [
        AttackSpec("silence"),
        AttackSpec("sign_flip", kappa=2.0),
        AttackSpec("gaussian_noise", center=np.zeros(4), spread=1.0),
        AttackSpec("collusion_medoid", remote_magnitude=50.0,
                   direction=np.array([0.0, 0.0, 0.0, 1.0])),
    ]
    for spec in specs:
        first = apply_attack(spec, view, byz_ids=(8, 9), rng=substream(5, 0, 3))
        second = apply_attack(spec, view, byz_ids=(8, 9), rng=substream(5, 0, 3))
        assert len(first) == 2
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
    target = AttackSpec("omniscient_linear", target=np.ones(4))
    out = apply_attack(target, view, byz_ids=(8,), rng=None)
    assert len(out) == 1
    with pytest.raises(AttackInapplicable, match="f = 1"):
        apply_attack(target, view, byz_ids=(8, 9))
    assert apply_attack(target, view, byz_ids=()) == []


def test_attack_spec_validation():
    with pytest.raises(InvalidInput, match="requires parameter"):
        AttackSpec("sign_flip")
    with pytest.raises(InvalidInput, match="takes no parameter"):
        AttackSpec("silence", kappa=1.0)
    with pytest.raises(InvalidInput, match="kappa"):
        AttackSpec("sign_flip", kappa=-1.0)
    for magnitude in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidInput, match="remote_magnitude"):
            AttackSpec("collusion_medoid", remote_magnitude=magnitude,
                       direction=np.array([1.0]))
    for spread in (-1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidInput, match="spread"):
            AttackSpec("gaussian_noise", center=np.zeros(2), spread=spread)
    with pytest.raises(InvalidInput, match="unknown attack"):
        AttackSpec("label_flip")
