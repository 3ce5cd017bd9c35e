"""Synchronous parameter-server round loop.

Each round the server broadcasts x_t, the honest workers draw noisy
gradient estimates from their per-(worker, round) substreams, the
adversary sees everything and fills the Byzantine slots, the choice
function aggregates all n proposals, and the server applies
x_{t+1} = x_t - gamma_t * F.  Metrics recorded per round use the true
gradient computed by the server itself, never worker proposals, so the
adversary cannot corrupt them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import AdversaryView, AttackSpec, apply_attack, check_attack_applicable
from .aggregation import RuleSpec, _select, as_vector
from .errors import ConfigError, DivergenceDetected, InvalidInput
from .problems import (GaussianEstimator, LeastSquares, MinibatchEstimator,
                       estimate_gradient, lr_schedule)
from .streams import SubstreamSource

__all__ = ["ExperimentConfig", "ExperimentTrace", "RoundRecord", "RoundState",
           "run_experiment", "run_round"]

_MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Complete seeded description of one experiment.

    Byzantine workers occupy the highest ids {n-f+1, ..., n} unless
    `byzantine_ids` overrides them; `x0` defaults to the zero vector.
    """

    n: int
    f: int
    rule: RuleSpec
    cost: object
    estimator: object
    attack: AttackSpec
    gamma0: float
    p: float
    rounds: int
    master_seed: int
    x0: np.ndarray | None = None
    byzantine_ids: tuple[int, ...] | None = None

    def validate(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ConfigError(f"n must be a positive integer: got {self.n!r}")
        if not isinstance(self.f, int) or isinstance(self.f, bool) or not 0 <= self.f < self.n:
            raise ConfigError(f"f must satisfy 0 <= f < n: got n={self.n}, f={self.f}")
        self.rule.check_preconditions(self.n, self.f)
        check_attack_applicable(self.attack, self.f)
        if isinstance(self.estimator, MinibatchEstimator) and not isinstance(self.cost, LeastSquares):
            raise ConfigError(
                f"minibatch estimator requires a least_squares cost, got {self.cost.variant!r}")
        lr_schedule(0, self.gamma0, self.p)  # raises InvalidSchedule on bad gamma0/p
        if not isinstance(self.rounds, int) or isinstance(self.rounds, bool) or self.rounds < 0:
            raise ConfigError(f"rounds must be a non-negative integer: got {self.rounds!r}")
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool) \
                or not 0 <= self.master_seed <= _MAX_SEED:
            raise ConfigError(f"seed must be a 64-bit unsigned integer: got {self.master_seed!r}")
        d = self.cost.dimension
        if self.x0 is not None and self.x0.size != d:
            raise ConfigError(f"x0 has d={self.x0.size}, cost function expects d={d}")
        if self.byzantine_ids is not None and any(
                not isinstance(i, int) or isinstance(i, bool) for i in self.byzantine_ids):
            raise ConfigError(
                f"byzantine_ids must be integers in 1..{self.n}: got {tuple(self.byzantine_ids)}")
        ids = self.byzantine_worker_ids()
        if len(ids) != self.f or len(set(ids)) != self.f:
            raise ConfigError(f"byzantine_ids must hold exactly f={self.f} distinct ids: got {ids}")
        if any(not 1 <= i <= self.n for i in ids):
            raise ConfigError(f"byzantine_ids must be integers in 1..{self.n}: got {ids}")
        for name in ("target", "center", "direction"):
            vec = getattr(self.attack, name)
            if vec is not None and vec.size != d:
                raise ConfigError(f"attack {name} has d={vec.size}, cost function expects d={d}")

    def byzantine_worker_ids(self) -> tuple[int, ...]:
        if self.byzantine_ids is not None:
            return tuple(sorted(self.byzantine_ids))
        return tuple(range(self.n - self.f + 1, self.n + 1))

    def initial_x(self) -> np.ndarray:
        if self.x0 is not None:
            return as_vector(self.x0)
        return np.zeros(self.cost.dimension)


@dataclass(frozen=True)
class RoundRecord:
    """Metrics of one round, all evaluated at the pre-update x_t."""

    t: int
    cost: float
    grad_norm: float
    gamma: float
    selected_ids: tuple[int, ...]
    byzantine_selected: bool
    agg_to_grad_dist: float
    x_norm: float


@dataclass(frozen=True, eq=False)
class RoundState:
    x: np.ndarray
    t: int


@dataclass(frozen=True, eq=False)
class ExperimentTrace:
    """Config echo plus the per-round records.

    `diverged` marks runs truncated because an update produced non-finite
    parameters; `final_x` is then the last finite parameter vector.
    """

    config: ExperimentConfig
    records: tuple[RoundRecord, ...]
    final_x: np.ndarray
    diverged: bool = False


def run_round(state: RoundState, config: ExperimentConfig,
              _streams: SubstreamSource | None = None) -> tuple[RoundState, RoundRecord]:
    """Advance one synchronous round.

    Honest worker i draws from substream (master_seed, i, t); the
    adversary stream is lane 0.  Byzantine vectors overwrite their slots
    after honest generation, so honest draws are identical across rules
    and attacks under the same seed.  Raises DivergenceDetected when the
    update produces non-finite components.
    """
    if state.t >= config.rounds:
        raise InvalidInput(f"round index t={state.t} is past the horizon rounds={config.rounds}")
    if _streams is None:
        _streams = SubstreamSource(config.master_seed)
    x = state.x
    t = state.t
    n, f = config.n, config.f
    byz_ids = config.byzantine_worker_ids()
    byz_set = set(byz_ids)

    with np.errstate(over="ignore", invalid="ignore"):
        gamma = lr_schedule(t, config.gamma0, config.p)
        grad = config.cost.gradient(x)
        if isinstance(config.estimator, GaussianEstimator):
            # same bits as estimate_gradient, reusing the gradient above
            sigma = config.estimator.sigma
            d = x.size
            honest = tuple(
                (wid, grad + sigma * _streams.generator(wid, t).standard_normal(d))
                for wid in range(1, n + 1) if wid not in byz_set)
        else:
            honest = tuple(
                (wid, estimate_gradient(config.cost, x, config.estimator,
                                        _streams.generator(wid, t)))
                for wid in range(1, n + 1) if wid not in byz_set)
        proposals = dict(honest)
        if f:
            view = AdversaryView(round=t, parameter_vector=x, correct_vectors=honest,
                                 true_gradient=grad, rule_descriptor=config.rule, gamma=gamma)
            for wid, vec in zip(byz_ids, apply_attack(config.attack, view, byz_ids,
                                                      rng=_streams.generator(0, t))):
                proposals[wid] = vec
        X = np.stack([proposals[wid] for wid in range(1, n + 1)])
        selection = _select(config.rule, X, f, with_scores=False)
        x_next = x - gamma * selection.output
        record = RoundRecord(
            t=t,
            cost=config.cost.cost(x),
            grad_norm=float(np.linalg.norm(grad)),
            gamma=gamma,
            selected_ids=selection.selected_ids,
            byzantine_selected=bool(byz_set.intersection(selection.selected_ids)),
            agg_to_grad_dist=float(np.linalg.norm(selection.output - grad)),
            x_norm=float(np.linalg.norm(x)),
        )
    if not np.all(np.isfinite(x_next)):
        raise DivergenceDetected(
            f"non-finite parameter components after round {t}", record=record, last_x=x)
    return RoundState(x=x_next, t=t + 1), record


def run_experiment(config: ExperimentConfig) -> ExperimentTrace:
    """Run `config.rounds` rounds from x0; divergence truncates with a flag."""
    config.validate()
    streams = SubstreamSource(config.master_seed)
    state = RoundState(x=config.initial_x(), t=0)
    records: list[RoundRecord] = []
    diverged = False
    final_x = state.x
    for _ in range(config.rounds):
        try:
            state, record = run_round(state, config, _streams=streams)
        except DivergenceDetected as exc:
            records.append(exc.record)
            diverged = True
            final_x = exc.last_x
            break
        records.append(record)
        final_x = state.x
    return ExperimentTrace(config=config, records=tuple(records), final_x=final_x,
                           diverged=diverged)
