import struct

import numpy as np
import pytest

from byzgrad import (AttackSpec, ConfigError, CosineBowl, ExperimentConfig, GaussianEstimator,
                     InvalidInput, LeastSquares, MinibatchEstimator, Quadratic, RoundState,
                     RuleSpec, SubstreamSource, estimate_gradient, run_experiment, run_round,
                     substream)

from oracles import run_experiment_per_worker


def base_config(**overrides):
    d = 3
    defaults = dict(
        n=5, f=0,
        rule=RuleSpec("average"),
        cost=Quadratic(np.zeros(d)),
        estimator=GaussianEstimator(0.0),
        attack=AttackSpec("silence"),
        gamma0=0.5, p=1.0,
        rounds=10,
        master_seed=1234,
        x0=np.array([4.0, -2.0, 1.0]),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def records_equal(a, b):
    return (a.t == b.t and a.cost == b.cost and a.grad_norm == b.grad_norm
            and a.gamma == b.gamma and a.selected_ids == b.selected_ids
            and a.byzantine_selected == b.byzantine_selected
            and a.agg_to_grad_dist == b.agg_to_grad_dist and a.x_norm == b.x_norm)


def test_one_step_reaches_quadratic_optimum_exactly():
    # gamma_0 = 1, sigma = 0: x1 = x0 - (x0 - x_star) = x_star, exact with x_star = 0
    config = base_config(gamma0=1.0, rounds=1)
    trace = run_experiment(config)
    assert np.array_equal(trace.final_x, np.zeros(3))
    assert trace.records[0].cost == 0.5 * float(config.x0 @ config.x0)
    assert trace.records[0].gamma == 1.0


def test_omniscient_attack_moves_x_by_gamma_times_target():
    target = np.zeros(3)
    target[0] = 1e6
    config = base_config(
        n=5, f=1,
        attack=AttackSpec("omniscient_linear", target=target),
        estimator=GaussianEstimator(0.5),
        rounds=1,
    )
    trace = run_experiment(config)
    jump = float(np.linalg.norm(trace.final_x - config.x0))
    want = config.gamma0 * 1e6
    assert jump == pytest.approx(want, rel=1e-6)


def test_round_record_fields_and_determinism():
    config = base_config(f=1, estimator=GaussianEstimator(0.3),
                        attack=AttackSpec("sign_flip", kappa=2.0), rule=RuleSpec("krum"))
    state = RoundState(x=config.initial_x(), t=0)
    next_a, rec_a = run_round(state, config)
    next_b, rec_b = run_round(state, config)
    assert records_equal(rec_a, rec_b)
    assert np.array_equal(next_a.x, next_b.x)
    assert rec_a.t == 0 and next_a.t == 1
    assert rec_a.selected_ids and not rec_a.byzantine_selected
    with pytest.raises(InvalidInput, match="horizon"):
        run_round(RoundState(x=config.initial_x(), t=10), config)


def test_trace_determinism_bitwise():
    config = base_config(n=9, f=2, rule=RuleSpec("multi_krum", m=2),
                        estimator=GaussianEstimator(0.4),
                        attack=AttackSpec("gaussian_noise", center=np.zeros(3), spread=2.0),
                        rounds=40)
    first = run_experiment(config)
    second = run_experiment(config)
    assert len(first.records) == len(second.records) == 40
    for a, b in zip(first.records, second.records):
        assert records_equal(a, b)
    assert np.array_equal(first.final_x, second.final_x)


def test_zero_rounds():
    trace = run_experiment(base_config(rounds=0))
    assert trace.records == ()
    assert np.array_equal(trace.final_x, base_config().x0)
    assert not trace.diverged


def test_honest_only_krum_equals_average_with_zero_noise():
    # n = 4 (a power of two) makes the mean of identical proposals exact,
    # so the two trajectories agree bit for bit
    shared = dict(n=4, f=0, estimator=GaussianEstimator(0.0), rounds=25)
    avg = run_experiment(base_config(rule=RuleSpec("average"), **shared))
    krum = run_experiment(base_config(rule=RuleSpec("krum"), **shared))
    assert np.array_equal(avg.final_x, krum.final_x)
    for a, k in zip(avg.records, krum.records):
        assert a.cost == k.cost and a.x_norm == k.x_norm


def test_silence_attack_matches_manual_zero_padding():
    config = base_config(n=5, f=2, estimator=GaussianEstimator(0.7),
                        attack=AttackSpec("silence"), rounds=1)
    trace = run_experiment(config)
    streams = SubstreamSource(config.master_seed)
    honest = [estimate_gradient(config.cost, config.x0, config.estimator,
                                streams.generator(wid, 0))
              for wid in (1, 2, 3)]
    agg = (honest[0] + honest[1] + honest[2]) / 5.0
    want = config.x0 - config.gamma0 * agg
    np.testing.assert_allclose(trace.final_x, want, rtol=1e-12)


def test_divergence_detected_and_truncated():
    target = np.zeros(3)
    target[0] = 1e307
    config = base_config(n=5, f=1, estimator=GaussianEstimator(0.0),
                        attack=AttackSpec("omniscient_linear", target=target),
                        gamma0=1.0, rounds=50)
    trace = run_experiment(config)
    assert trace.diverged
    assert 0 < len(trace.records) < 50
    assert np.all(np.isfinite(trace.final_x))
    assert trace.records[-1].t == len(trace.records) - 1


def test_byzantine_selection_logged_false_under_separation():
    # honest cluster sits at grad ~ x0 (norm ~ 31), silent workers at 0: far
    config = base_config(
        n=7, f=2, rule=RuleSpec("krum"),
        cost=Quadratic(np.zeros(3)),
        x0=np.array([18.0, -18.0, 18.0]),
        estimator=GaussianEstimator(0.05),
        attack=AttackSpec("silence"),
        rounds=20,
    )
    trace = run_experiment(config)
    assert all(not r.byzantine_selected for r in trace.records)
    assert all(r.selected_ids[0] <= 5 for r in trace.records)


def test_config_validation():
    with pytest.raises(ConfigError, match="0 <= f < n"):
        base_config(f=5).validate()
    with pytest.raises(Exception, match=r"2f \+ 2 < n"):
        base_config(n=6, f=2, rule=RuleSpec("krum")).validate()
    with pytest.raises(ConfigError, match="byzantine_ids"):
        base_config(f=1, byzantine_ids=(1, 2)).validate()
    with pytest.raises(ConfigError, match="x0"):
        base_config(x0=np.zeros(2)).validate()
    cfg = base_config(f=1, attack=AttackSpec("omniscient_linear", target=np.zeros(5)))
    with pytest.raises(ConfigError, match="target"):
        cfg.validate()


def test_default_byzantine_ids_are_top_ids():
    config = base_config(n=9, f=3)
    assert config.byzantine_worker_ids() == (7, 8, 9)
    custom = base_config(n=9, f=2, byzantine_ids=(2, 5))
    assert custom.byzantine_worker_ids() == (2, 5)


def test_substream_source_matches_substream():
    source = SubstreamSource(987654321)
    for lane, step in ((0, 0), (3, 17), (11, 2999), (1, 0)):
        a = source.generator(lane, step).standard_normal(8)
        b = substream(987654321, lane, step).standard_normal(8)
        assert np.array_equal(a, b)


ORACLE_RULES = {
    "average": RuleSpec("average"),
    "linear": RuleSpec("linear", weights=(0.3, -0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.25, -0.05)),
    "medoid": RuleSpec("medoid"),
    "krum": RuleSpec("krum"),
    "multi_krum": RuleSpec("multi_krum", m=2),
}
ORACLE_ATTACKS = ("sign_flip", "silence", "gaussian_noise", "collusion_medoid", "omniscient_linear")


def oracle_attack(variant, d):
    direction = np.zeros(d)
    direction[-1] = 1.0
    return {
        "sign_flip": AttackSpec("sign_flip", kappa=3.0),
        "silence": AttackSpec("silence"),
        "gaussian_noise": AttackSpec("gaussian_noise", center=np.full(d, 0.5), spread=2.0),
        "collusion_medoid": AttackSpec("collusion_medoid", remote_magnitude=40.0,
                                       direction=direction),
        "omniscient_linear": AttackSpec("omniscient_linear", target=np.full(d, -7.0)),
    }[variant]


def oracle_cases(estimator, attack, d):
    """(cost, estimator, x0, byzantine_ids) for one dimension: default and custom ids."""
    rng = np.random.default_rng(d)
    f = 1 if attack == "omniscient_linear" else 2
    custom = (4,) if f == 1 else (2, 7)
    if estimator == "gaussian":
        cases = [(Quadratic(rng.standard_normal(d)), GaussianEstimator(0.7)),
                 (CosineBowl(0.1, d), GaussianEstimator(0.3)),
                 (Quadratic(np.zeros(d)), GaussianEstimator(1e200))]
    else:
        design = rng.standard_normal((12, d))
        cases = [(LeastSquares(design, design @ rng.standard_normal(d)), MinibatchEstimator(b))
                 for b in (1, 5)]
    x0 = 2.0 * rng.standard_normal(d)
    return [(costfn, est, x0, ids) for costfn, est in cases for ids in (None, custom)]


def record_bits(record):
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in record)


@pytest.mark.parametrize("estimator", ["gaussian", "minibatch"])
@pytest.mark.parametrize("attack", ORACLE_ATTACKS)
@pytest.mark.parametrize("rule", ORACLE_RULES)
def test_rounds_match_the_per_worker_oracle_bit_for_bit(rule, attack, estimator):
    for d in (1, 3, 10, 17):
        for costfn, est, x0, ids in oracle_cases(estimator, attack, d):
            config = ExperimentConfig(
                n=9, f=len(ids) if ids else 1 if attack == "omniscient_linear" else 2,
                rule=ORACLE_RULES[rule], cost=costfn, estimator=est,
                attack=oracle_attack(attack, d), gamma0=0.2, p=0.8, rounds=4,
                master_seed=1000 + d, x0=x0, byzantine_ids=ids)
            trace = run_experiment(config)
            records, final_x, diverged = run_experiment_per_worker(config)
            got = [record_bits((r.t, r.cost, r.grad_norm, r.gamma, r.selected_ids,
                                r.byzantine_selected, r.agg_to_grad_dist, r.x_norm))
                   for r in trace.records]
            assert got == [record_bits(r) for r in records], (d, costfn.variant, est, ids)
            assert trace.final_x.tobytes() == final_x.tobytes()
            assert trace.diverged == diverged
