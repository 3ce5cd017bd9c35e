"""Command-line front end.

Subcommands:

* ``simulate``    run a seeded experiment from a JSON config, write the
                  round trace as CSV.
* ``resilience``  run a Monte Carlo resilience estimate from a JSON
                  config, write the report as JSON (or a CSV row when the
                  output path ends in .csv).
* ``eta``         print the deviation constant, and the angle when d,
                  sigma and the gradient norm are given.
* ``attack-demo`` print a worked instance of the two canonical attacks.

Config files are strict JSON: unknown keys are rejected so typos in
experiment sweeps fail loudly.  Identical invocation, config and seed
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from operator import attrgetter

import numpy as np

from .adversary import ATTACK_PARAMS, AttackSpec
from .aggregation import (AggregationInput, RuleSpec, as_vector, eta, krum_select,
                          linear_combination, sq_dist_medoid_select)
from .errors import ConfigError, is_int
from .problems import CosineBowl, GaussianEstimator, LeastSquares, MinibatchEstimator, Quadratic
from .resilience import ResilienceReport, csv_cell, estimate_resilience
from .simulator import ExperimentConfig, ExperimentTrace, RoundRecord, run_experiment

__all__ = ["emit_trace_csv", "main", "parse_config", "parse_resilience_config"]

_TRACE_COLUMNS = tuple(fld.name for fld in fields(RoundRecord))
_trace_cells = attrgetter(*_TRACE_COLUMNS)
TRACE_HEADER = ",".join(_TRACE_COLUMNS)


def emit_trace_csv(trace: ExperimentTrace) -> str:
    """Render a trace as CSV, one column per RoundRecord field, with LF endings."""
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(",".join(map(csv_cell, _trace_cells(r))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# strict JSON config parsing

def _check_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _as_int(obj, key, where):
    v = obj[key]
    if not is_int(v):
        raise ConfigError(f"{where}.{key} must be an integer, got {v!r}")
    return v


def _as_real(obj, key, where):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    return float(v)


def _as_vec(obj, key, where):
    v = obj[key]
    if not isinstance(v, list):
        raise ConfigError(f"{where}.{key} must be an array of numbers, got {v!r}")
    try:
        return as_vector(v)
    except ValueError as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


def _parse_rule(spec) -> RuleSpec:
    if isinstance(spec, str):
        if spec == "linear":
            raise ConfigError("rule 'linear' needs weights: use {\"variant\": \"linear\", \"weights\": [...]}")
        if spec == "multi_krum":
            raise ConfigError("rule 'multi_krum' needs m: use {\"variant\": \"multi_krum\", \"m\": ...}")
        try:
            return RuleSpec(spec)
        except ValueError as exc:
            raise ConfigError(f"rule: {exc}") from exc
    _check_keys(spec, "rule", {"variant"}, {"weights", "m"})
    variant = spec["variant"]
    try:
        if variant == "linear":
            _check_keys(spec, "rule", {"variant", "weights"})
            return RuleSpec("linear", weights=spec["weights"])
        if variant == "multi_krum":
            _check_keys(spec, "rule", {"variant", "m"})
            return RuleSpec("multi_krum", m=_as_int(spec, "m", "rule"))
        _check_keys(spec, "rule", {"variant"})
        return RuleSpec(variant)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"rule: {exc}") from exc


def _parse_cost(obj):
    _check_keys(obj, "cost", {"variant"}, {"d", "x_star", "design", "targets", "lambda"})
    variant = obj.get("variant")
    try:
        if variant == "quadratic":
            _check_keys(obj, "cost", {"variant", "x_star"}, {"d"})
            fn = Quadratic(_as_vec(obj, "x_star", "cost"))
        elif variant == "least_squares":
            _check_keys(obj, "cost", {"variant", "design", "targets"}, {"d"})
            fn = LeastSquares(obj["design"], obj["targets"])
        elif variant == "cosine_bowl":
            _check_keys(obj, "cost", {"variant", "d", "lambda"})
            fn = CosineBowl(_as_real(obj, "lambda", "cost"), _as_int(obj, "d", "cost"))
        else:
            raise ConfigError(f"cost.variant must be one of quadratic, least_squares, "
                              f"cosine_bowl: got {variant!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cost: {exc}") from exc
    if "d" in obj and variant != "cosine_bowl":
        d = _as_int(obj, "d", "cost")
        if d != fn.dimension:
            raise ConfigError(f"cost.d={d} contradicts the implied dimension {fn.dimension}")
    return fn


def _parse_estimator(obj):
    _check_keys(obj, "estimator", {"variant"}, {"sigma", "batch_size"})
    variant = obj.get("variant")
    try:
        if variant == "gaussian":
            _check_keys(obj, "estimator", {"variant", "sigma"})
            return GaussianEstimator(_as_real(obj, "sigma", "estimator"))
        if variant == "minibatch":
            _check_keys(obj, "estimator", {"variant", "batch_size"})
            return MinibatchEstimator(_as_int(obj, "batch_size", "estimator"))
    except ValueError as exc:
        raise ConfigError(f"estimator: {exc}") from exc
    raise ConfigError(f"estimator.variant must be gaussian or minibatch: got {variant!r}")


_VECTOR_PARAMS = ("target", "direction", "center")


def _parse_attack(obj) -> AttackSpec:
    _check_keys(obj, "attack", {"variant"}, set().union(*ATTACK_PARAMS.values()))
    variant = obj.get("variant")
    if variant not in ATTACK_PARAMS:
        raise ConfigError(f"attack.variant must be one of {sorted(ATTACK_PARAMS)}: got {variant!r}")
    params = ATTACK_PARAMS[variant]
    _check_keys(obj, "attack", {"variant", *params})
    try:
        return AttackSpec(variant, **{
            name: (_as_vec if name in _VECTOR_PARAMS else _as_real)(obj, name, "attack")
            for name in params})
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"attack: {exc}") from exc


def _apply_overrides(raw: dict, overrides, seed) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value: got {item!r}")
        path, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {path!r} descends into a non-object")
        node[keys[-1]] = value
    if seed is not None:
        raw["seed"] = seed
    return raw


def parse_config(text: str, overrides=(), seed=None) -> ExperimentConfig:
    """Parse and fully validate an experiment config document.

    Unknown keys are rejected; every error names the offending key and
    the violated constraint.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(raw, "config",
                {"n", "f", "rule", "cost", "estimator", "attack", "schedule", "rounds", "seed"},
                {"x0", "byzantine_ids"})
    raw = _apply_overrides(raw, overrides, seed)
    schedule = raw["schedule"]
    _check_keys(schedule, "schedule", {"gamma0", "p"})
    if not isinstance(raw.get("byzantine_ids", []), list):
        raise ConfigError(f"config.byzantine_ids must be an array of integers, "
                          f"got {raw['byzantine_ids']!r}")
    config = ExperimentConfig(
        n=_as_int(raw, "n", "config"),
        f=_as_int(raw, "f", "config"),
        rule=_parse_rule(raw["rule"]),
        cost=_parse_cost(raw["cost"]),
        estimator=_parse_estimator(raw["estimator"]),
        attack=_parse_attack(raw["attack"]),
        gamma0=_as_real(schedule, "gamma0", "schedule"),
        p=_as_real(schedule, "p", "schedule"),
        rounds=_as_int(raw, "rounds", "config"),
        master_seed=_as_int(raw, "seed", "config"),
        x0=_as_vec(raw, "x0", "config") if "x0" in raw else None,
        byzantine_ids=tuple(raw["byzantine_ids"]) if "byzantine_ids" in raw else None,
    )
    config.validate()
    return config


def parse_resilience_config(text: str, overrides=(), seed=None) -> dict:
    """Parse a resilience-run config into estimate_resilience keyword arguments."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(raw, "config", {"n", "f", "d", "rule", "attack", "sigma", "trials", "seed"},
                {"g", "grad_norm", "ratio_ceiling"})
    raw = _apply_overrides(raw, overrides, seed)
    d = _as_int(raw, "d", "config")
    if ("g" in raw) == ("grad_norm" in raw):
        raise ConfigError("exactly one of g and grad_norm must be given")
    if "g" in raw:
        g = _as_vec(raw, "g", "config")
    else:
        # at least one entry whatever d is: estimate_resilience rejects a bad d by name
        g = np.zeros(max(d, 1))
        g[0] = _as_real(raw, "grad_norm", "config")
    return dict(
        rule=_parse_rule(raw["rule"]),
        n=_as_int(raw, "n", "config"),
        f=_as_int(raw, "f", "config"),
        d=d,
        g=g,
        sigma=_as_real(raw, "sigma", "config"),
        attack=_parse_attack(raw["attack"]),
        trials=_as_int(raw, "trials", "config"),
        master_seed=_as_int(raw, "seed", "config"),
        ratio_ceiling=(_as_real(raw, "ratio_ceiling", "config")
                       if "ratio_ceiling" in raw else None),
    )


# ---------------------------------------------------------------------------
# subcommands

def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as handle:
        config = parse_config(handle.read(), overrides=args.set, seed=args.seed)
    trace = run_experiment(config)
    _write(args.out, emit_trace_csv(trace))
    with np.errstate(over="ignore", invalid="ignore"):
        final_cost = config.cost.cost(trace.final_x)
    print(f"rounds_completed={len(trace.records)} diverged={csv_cell(trace.diverged)} "
          f"final_cost={csv_cell(final_cost)}")
    return 0


def _cmd_resilience(args) -> int:
    with open(args.config, encoding="utf-8") as handle:
        kwargs = parse_resilience_config(handle.read(), overrides=args.set, seed=args.seed)
    report = estimate_resilience(**kwargs)
    if args.out.endswith(".csv"):
        _write(args.out, ",".join(ResilienceReport.CSV_COLUMNS) + "\n" + report.to_csv_row() + "\n")
    else:
        _write(args.out, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(" ".join(f"{name}={csv_cell(getattr(report, name))}" for name in
                   ("condition_i_holds", "condition_ii_holds", "inner_product", "bound_i")))
    return 0


def _cmd_eta(args) -> int:
    value = eta(args.n, args.f)
    print(f"eta({args.n}, {args.f}) = {value:.10g}")
    given = [v is not None for v in (args.d, args.sigma, args.grad_norm)]
    if any(given):
        if not all(given):
            raise ConfigError("--d, --sigma and --grad-norm must be given together")
        from .aggregation import resilience_angle
        angle = resilience_angle(args.n, args.f, args.d, args.sigma, args.grad_norm)
        print(f"sin_alpha = {angle.sin_alpha:.10g}")
        if not angle.within_guarantee:
            print("warning: eta*sqrt(d)*sigma >= grad_norm; outside the guarantee "
                  "(flat-basin regime)")
    return 0


def _cmd_attack_demo(args) -> int:
    if args.scenario == "lemma1":
        return _demo_forced_average()
    return _demo_collusion_vs_krum()


def _demo_forced_average() -> int:
    from .adversary import AdversaryView, omniscient_linear_attack
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    target = np.array([5.0, 5.0])
    weights = (1.0 / 3.0,) * 3
    view = AdversaryView(round=0, parameter_vector=np.zeros(2),
                         correct_vectors=((1, v1), (2, v2)))
    crafted = omniscient_linear_attack(view, weights, byz_id=3, target=target)
    inp = AggregationInput.from_vectors([v1, v2, crafted], f=1)
    out = linear_combination(inp, weights)
    print(f"honest proposals: {v1.tolist()} and {v2.tolist()}")
    print(f"target:           {target.tolist()}")
    print(f"crafted vector:   {crafted.tolist()}")
    print(f"average of all 3: {out.tolist()}")
    forced = np.allclose(out, target, rtol=1e-9, atol=0.0)
    print(f"average == target: {'true' if forced else 'false'}")
    return 0


def _demo_collusion_vs_krum() -> int:
    from .adversary import AdversaryView, collusion_medoid_attack
    n, f, d = 9, 2, 3
    correct = [(i, np.zeros(d)) for i in range(1, n - f + 1)]
    view = AdversaryView(round=0, parameter_vector=np.zeros(d),
                         correct_vectors=tuple(correct))
    direction = np.zeros(d)
    direction[0] = 1.0
    byz = collusion_medoid_attack(view, f, remote_magnitude=70.0, direction=direction)
    vectors = [vec for _, vec in correct] + byz
    inp = AggregationInput.from_vectors(vectors, f=f)
    byz_ids = {n - 1, n}
    medoid = sq_dist_medoid_select(inp)
    krum = krum_select(inp)
    print(f"{n - f} honest vectors at the origin; remote decoy at {byz[0].tolist()}; "
          f"planted barycenter at {byz[1].tolist()}")
    print(f"medoid selected worker {medoid.selected_ids[0]}, "
          f"krum selected worker {krum.selected_ids[0]} "
          f"(byzantine ids: {sorted(byz_ids)})")
    print(f"medoid selected byzantine: "
          f"{'true' if set(medoid.selected_ids) & byz_ids else 'false'}, "
          f"krum selected byzantine: "
          f"{'true' if set(krum.selected_ids) & byz_ids else 'false'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzgrad",
        description="Byzantine-resilient gradient aggregation: simulator and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded experiment, write the trace CSV")
    sim.add_argument("--config", required=True, help="JSON experiment config")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry (repeatable, dotted keys allowed)")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.set_defaults(func=_cmd_simulate)

    res = sub.add_parser("resilience", help="run a Monte Carlo resilience estimate")
    res.add_argument("--config", required=True, help="JSON resilience config")
    res.add_argument("--out", required=True, help="output path (.json or .csv)")
    res.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    res.add_argument("--seed", type=int, help="override the config seed")
    res.set_defaults(func=_cmd_resilience)

    eta_p = sub.add_parser("eta", help="print the deviation constant eta(n, f)")
    eta_p.add_argument("n", type=int)
    eta_p.add_argument("f", type=int)
    eta_p.add_argument("--d", type=int, help="dimension (with --sigma and --grad-norm)")
    eta_p.add_argument("--sigma", type=float, help="estimator deviation")
    eta_p.add_argument("--grad-norm", type=float, help="gradient norm")
    eta_p.set_defaults(func=_cmd_eta)

    demo = sub.add_parser("attack-demo", help="print a worked attack instance")
    demo.add_argument("scenario", choices=["lemma1", "figure3"])
    demo.set_defaults(func=_cmd_attack_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
