import json
import math

import numpy as np
import pytest

from byzgrad import resilience
from byzgrad import (AttackSpec, InvalidInput, PreconditionViolation, ResilienceReport,
                     RuleSpec, check_safety_radius, estimate_resilience, eta)


def test_exact_case_no_noise_no_byzantines():
    g = np.array([3.0, 0.0, -1.0, 2.0])
    for kind in ("average", "krum", "medoid"):
        report = estimate_resilience(RuleSpec(kind), n=5, f=0, d=4, g=g, sigma=0.0,
                                     attack=AttackSpec("silence"), trials=50,
                                     master_seed=3)
        assert np.array_equal(report.empirical_mean_F, g)
        assert report.inner_product == float(g @ g)
        assert report.condition_i_holds
        assert report.sin_alpha == 0.0 and report.within_guarantee
        assert report.mean_sq_dev == 0.0 and report.mean_dev_sq == 0.0


def test_krum_reference_point_sign_flip():
    g = np.zeros(5)
    g[0] = 20.0
    report = estimate_resilience(RuleSpec("krum"), n=9, f=2, d=5, g=g, sigma=1.0,
                                 attack=AttackSpec("sign_flip", kappa=1.0),
                                 trials=10_000, master_seed=11)
    assert report.sin_alpha == pytest.approx(0.6770, abs=5e-5)
    assert report.bound_i == pytest.approx((1.0 - report.sin_alpha) * 400.0, rel=1e-12)
    assert report.inner_product - 3 * report.standard_errors["inner_product"] >= report.bound_i
    assert report.condition_i_holds
    assert report.dev_bound == pytest.approx(eta(9, 2) ** 2 * 5, rel=1e-12)
    assert report.mean_dev_sq + 3 * report.standard_errors["mean_dev_sq"] <= report.dev_bound
    assert report.deviation_bound_holds
    assert report.condition_ii_holds
    assert report.byzantine_selection_rate == 0.0


def test_average_fails_under_omniscient_targeting_negative_gradient():
    g = np.zeros(4)
    g[0] = 10.0
    report = estimate_resilience(RuleSpec("average"), n=7, f=1, d=4, g=g, sigma=1.0,
                                 attack=AttackSpec("omniscient_linear", target=-g),
                                 trials=2000, master_seed=13)
    assert report.inner_product < 0.0
    assert not report.condition_i_holds
    assert report.byzantine_selection_rate is None


def test_collusion_dominates_medoid_but_not_krum_on_same_draws():
    g = np.zeros(3)
    g[0] = 8.0
    direction = np.array([0.0, 0.0, 1.0])
    attack = AttackSpec("collusion_medoid", remote_magnitude=500.0, direction=direction)
    shared = dict(n=9, f=2, d=3, g=g, sigma=1.0, attack=attack, trials=400,
                  master_seed=17)
    medoid = estimate_resilience(RuleSpec("medoid"), **shared)
    krum = estimate_resilience(RuleSpec("krum"), **shared)
    assert medoid.byzantine_selection_rate == 1.0
    assert krum.byzantine_selection_rate == 0.0
    assert krum.condition_i_holds


def test_standard_errors_shrink_like_inverse_sqrt_trials():
    g = np.zeros(4)
    g[0] = 12.0
    shared = dict(rule=RuleSpec("krum"), n=7, f=1, d=4, g=g, sigma=1.0,
                  attack=AttackSpec("silence"))
    small = estimate_resilience(trials=2000, master_seed=19, **shared)
    large = estimate_resilience(trials=8000, master_seed=19, **shared)
    for name in ("inner_product", "mean_sq_dev"):
        ratio = small.standard_errors[name] / large.standard_errors[name]
        assert ratio == pytest.approx(2.0, rel=0.2)


def test_moment_report_structure():
    g = np.zeros(3)
    g[0] = 9.0
    report = estimate_resilience(RuleSpec("krum"), n=7, f=2, d=3, g=g, sigma=1.0,
                                 attack=AttackSpec("gaussian_noise",
                                                   center=-g, spread=1.0),
                                 trials=3000, master_seed=23)
    for r in (2, 3, 4):
        assert math.isfinite(report.moments[r])
        assert report.moments[r] > 0.0
        assert report.moment_reference[r] > 0.0
    # reference_2 = (n - f) * E||G||^2 = 5 * (||g||^2 + d sigma^2) = 420
    assert report.moment_reference[2] == pytest.approx(420.0, rel=0.05)
    assert report.condition_ii_holds
    assert report.ratio_ceiling == 7.0


def test_report_flat_json_keys():
    report = estimate_resilience(RuleSpec("krum"), n=7, f=2, d=2, g=np.array([5.0, 0.0]),
                                 sigma=1.0, attack=AttackSpec("silence"), trials=10,
                                 master_seed=2)
    flat = report.to_json_dict()
    assert list(flat) == [
        "rule", "attack", "n", "f", "d", "sigma", "grad_norm", "trials", "eta",
        "sin_alpha", "within_guarantee", "empirical_mean_F", "inner_product", "bound_i",
        "condition_i_holds", "mean_dev_sq", "mean_sq_dev", "dev_bound",
        "deviation_bound_holds", "condition_ii_holds", "ratio_ceiling",
        "byzantine_selection_rate", "moment_2", "moment_reference_2", "moment_3",
        "moment_reference_3", "moment_4", "moment_reference_4", "se_inner_product",
        "se_mean_dev_sq", "se_mean_sq_dev", "se_moment_2", "se_moment_3", "se_moment_4",
    ]
    assert flat["empirical_mean_F"] == [float(v) for v in report.empirical_mean_F]
    assert all(type(v) is float for v in flat["empirical_mean_F"])
    assert set(ResilienceReport.CSV_COLUMNS) <= set(flat)


@pytest.mark.parametrize("attack", [AttackSpec("sign_flip", kappa=2.0),
                                    AttackSpec("gaussian_noise", center=[-5.0, 0.0, 1.0], spread=2.0)])
@pytest.mark.parametrize("rule", [RuleSpec("krum"), RuleSpec("multi_krum", m=2),
                                  RuleSpec("medoid"), RuleSpec("average")])
def test_report_does_not_depend_on_the_block_size(monkeypatch, rule, attack):
    # gaussian_noise draws its proposals after the honest block, from the same stream
    n, f, d, trials = 9, 2, 3, 23
    def report_bytes():
        report = estimate_resilience(rule, n=n, f=f, d=d, g=[4.0, -1.0, 2.0], sigma=1.5,
                                     attack=attack, trials=trials, master_seed=17)
        return json.dumps(report.to_json_dict(), sort_keys=True).encode()

    default = report_bytes()
    for trials_per_block in (1, 2, 7):  # 1 is the per-trial computation
        monkeypatch.setattr(resilience, "_BLOCK_ELEMENTS", trials_per_block * n * (n + d))
        assert report_bytes() == default, trials_per_block


def test_estimate_resilience_validation():
    g = np.ones(3)
    silence = AttackSpec("silence")
    with pytest.raises(PreconditionViolation):
        estimate_resilience(RuleSpec("krum"), n=6, f=2, d=3, g=g, sigma=1.0,
                            attack=silence, trials=10, master_seed=1)
    with pytest.raises(InvalidInput, match="non-zero"):
        estimate_resilience(RuleSpec("krum"), n=7, f=1, d=3, g=np.zeros(3), sigma=1.0,
                            attack=silence, trials=10, master_seed=1)
    with pytest.raises(InvalidInput, match="trials"):
        estimate_resilience(RuleSpec("krum"), n=7, f=1, d=3, g=g, sigma=1.0,
                            attack=silence, trials=1, master_seed=1)


def test_check_safety_radius():
    assert check_safety_radius(0.0, 1e-9, 9, 2)
    assert check_safety_radius(1.0, 1.3, 7, 2)
    assert not check_safety_radius(1.0, 1.2, 7, 2)
    # R = delta can never satisfy the condition once f >= 1
    for n, f in ((5, 1), (9, 2), (11, 3), (15, 4)):
        assert not check_safety_radius(2.0, 2.0, n, f)
    # threshold for (7, 2) sits at delta * sqrt(3/2)
    assert math.isclose(1.0 * math.sqrt(3 / 2), 1.224744871391589)
    with pytest.raises(PreconditionViolation):
        check_safety_radius(1.0, 2.0, 6, 2)
    with pytest.raises(InvalidInput):
        check_safety_radius(-1.0, 2.0, 9, 2)
