"""The benchmark tracer's hooks resolve in byzgrad and its counters read real calls.

`bench/tracer.py` wraps byzgrad names from outside the package.  When one
of them is renamed or removed, a traced benchmark run reports the metrics
that depend on it as absent; when a hooked kernel changes the arguments
its counter reads, the traced run fails.  The tracer is read from its
path and executed from its text, so nothing under `bench/` is written.
"""

import importlib
from pathlib import Path

import numpy as np

from byzgrad import (AggregationInput, AttackSpec, ExperimentConfig, GaussianEstimator, LeastSquares,
                     MinibatchEstimator, Quadratic, RuleSpec, krum_select, multi_krum_select,
                     resilience, run_experiment)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_namespace():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def test_every_tracer_hook_resolves():
    missing = []
    for module_name, path, _ in _tracer_namespace()["HOOKS"]:
        # looked up as Tracer.install does: class attributes through the class __dict__
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        assert callable(original), f"{module_name}.{path}"
    assert missing == []


def test_traced_krum_calls_count_every_aggregation_metric():
    n = 40
    inp = AggregationInput.from_vectors(np.random.default_rng(0).standard_normal((n, 300)), 2)
    tracer = _tracer_namespace()["Tracer"]()
    tracer.install()
    try:
        krum_select(inp)
        multi_krum_select(inp, 3)
    finally:
        tracer.uninstall()
    metrics = {name: value for name, value in tracer.metrics().items()
               if name.startswith("aggregation.")}
    assert all(isinstance(value, float) for value in metrics.values()), metrics
    assert metrics["aggregation.calls"] == 2
    assert metrics["aggregation.pairs"] == 2 * n * (n - 1) // 2
    assert metrics["aggregation.scored_workers"] == n + n + (n - 1) + (n - 2)


def test_traced_resilience_call_counts_every_trial():
    trials = 30
    tracer = _tracer_namespace()["Tracer"]()
    tracer.install()
    try:
        # looked up through the module, as callers do, so the hooked name is called
        resilience.estimate_resilience(
            RuleSpec("multi_krum", m=2), n=11, f=3, d=5, g=[3.0, 0.0, -1.0, 2.0, 1.0], sigma=1.0,
            attack=AttackSpec("gaussian_noise", center=[0.0] * 5, spread=1.0),
            trials=trials, master_seed=4)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert all(isinstance(value, float) for value in metrics.values()), metrics
    assert metrics["resilience.trials"] == trials
    assert metrics["adversary.calls"] == trials
    assert metrics["streams.resets"] == trials
    # the trial blocks are scored through the hooked scoring kernel
    assert tracer.totals["aggregation.scoring"]["count"] > 0


def test_traced_simulator_runs_count_every_round_and_reset():
    n, f, d, rounds = 9, 2, 4, 7
    rng = np.random.default_rng(3)
    costs = ((Quadratic(np.zeros(d)), GaussianEstimator(0.5)),
             (LeastSquares(rng.standard_normal((20, d)), rng.standard_normal(20)),
              MinibatchEstimator(3)))
    for costfn, estimator in costs:
        config = ExperimentConfig(
            n=n, f=f, rule=RuleSpec("krum"), cost=costfn, estimator=estimator,
            attack=AttackSpec("sign_flip", kappa=2.0), gamma0=0.1, p=1.0, rounds=rounds,
            master_seed=5, x0=np.ones(d))
        tracer = _tracer_namespace()["Tracer"]()
        tracer.install()
        try:
            trace = run_experiment(config)
        finally:
            tracer.uninstall()
        assert len(trace.records) == rounds and not trace.diverged
        metrics = tracer.metrics()
        assert all(isinstance(value, float) for value in metrics.values()), metrics
        assert metrics["simulator.rounds"] == rounds
        # the n - f honest workers and the adversary each reset a substream per round
        assert metrics["streams.resets"] == rounds * (n - f + 1)
