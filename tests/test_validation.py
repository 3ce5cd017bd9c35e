"""Every integer argument rejects a bool: `errors.is_int` is their one check."""

import json

import numpy as np
import pytest

from byzgrad import (AggregationInput, AttackSpec, ConfigError, CosineBowl, ExperimentConfig,
                     GaussianEstimator, InvalidInput, MinibatchEstimator, Quadratic, RuleSpec,
                     estimate_resilience, eta, local_sigma, lr_schedule, resilience_angle)
from byzgrad.cli import parse_config


def validate_config(**changes):
    args = dict(n=11, f=2, rule=RuleSpec("krum"), cost=Quadratic(np.zeros(3)),
                estimator=GaussianEstimator(0.5), attack=AttackSpec("silence"),
                gamma0=0.5, p=1.0, rounds=5, master_seed=1)
    args.update(changes)
    ExperimentConfig(**args).validate()


def parse_config_with_n(n):
    parse_config(json.dumps({
        "n": n, "f": 2, "rule": "krum",
        "cost": {"variant": "quadratic", "x_star": [0.0, 0.0]},
        "estimator": {"variant": "gaussian", "sigma": 0.5},
        "attack": {"variant": "silence"}, "schedule": {"gamma0": 0.5, "p": 1.0},
        "rounds": 5, "seed": 1}))


def run_resilience(trials):
    estimate_resilience(RuleSpec("krum"), n=7, f=1, d=3, g=np.ones(3), sigma=1.0,
                        attack=AttackSpec("silence"), trials=trials, master_seed=1)


# site -> (exception class, message fragment, call taking the integer, a valid integer)
SITES = {
    "ExperimentConfig.n": (ConfigError, "n must", lambda v: validate_config(n=v), 11),
    "ExperimentConfig.f": (ConfigError, "f must", lambda v: validate_config(f=v), 2),
    "ExperimentConfig.rounds": (ConfigError, "rounds", lambda v: validate_config(rounds=v), 5),
    "ExperimentConfig.master_seed": (ConfigError, "seed",
                                     lambda v: validate_config(master_seed=v), 1),
    "ExperimentConfig.byzantine_ids": (ConfigError, "byzantine_ids",
                                       lambda v: validate_config(byzantine_ids=(v, 11)), 10),
    "RuleSpec.m": (InvalidInput, "integer m", lambda v: RuleSpec("multi_krum", m=v), 2),
    "MinibatchEstimator.batch_size": (InvalidInput, "batch_size", MinibatchEstimator, 2),
    "CosineBowl.dimension": (InvalidInput, "dimension", lambda v: CosineBowl(0.1, v), 3),
    "estimate_resilience.trials": (InvalidInput, "trials", run_resilience, 10),
    "local_sigma.trials": (InvalidInput, "trials", lambda v: local_sigma(
        Quadratic(np.zeros(3)), np.zeros(3), GaussianEstimator(1.0), v,
        np.random.default_rng(0)), 2),
    "lr_schedule.t": (InvalidInput, "t must", lambda v: lr_schedule(v, 0.5, 1.0), 1),
    "eta.n": (InvalidInput, "integers", lambda v: eta(v, 0), 3),
    "resilience_angle.d": (InvalidInput, "d must",
                           lambda v: resilience_angle(7, 1, v, 1.0, 10.0), 3),
    "AggregationInput.f": (InvalidInput, "f must", lambda v: AggregationInput.from_vectors(
        [np.zeros(2)] * 3, f=v), 0),
    "cli config.n": (ConfigError, "config.n must be an integer", parse_config_with_n, 11),
}


@pytest.mark.parametrize("site", list(SITES))
def test_true_is_not_an_integer(site):
    cls, fragment, call, valid = SITES[site]
    call(valid)
    with pytest.raises(cls, match=fragment):
        call(True)
