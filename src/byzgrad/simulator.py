"""Synchronous parameter-server round loop.

Each round the server broadcasts x_t; the honest workers draw noisy
gradient estimates from their per-(worker, round) substreams, worker by
worker, into one block of rows; the adversary sees everything and fills
the Byzantine rows of the same proposal matrix; the choice function
aggregates all n rows, and the server applies
x_{t+1} = x_t - gamma_t * F.  Metrics recorded per round use the true
gradient computed by the server itself, never worker proposals, so the
adversary cannot corrupt them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .adversary import AdversaryView, AttackSpec, apply_attack, check_attack_applicable
from .aggregation import RuleSpec, _select, as_vector
from .errors import ConfigError, DivergenceDetected, InvalidInput, is_int
from .problems import LeastSquares, MinibatchEstimator, _estimate_rows, lr_schedule
from .problems import estimate_gradient  # noqa: F401  (bound only for bench/tracer.py, which hooks it)
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
        if not is_int(self.n) or self.n < 1:
            raise ConfigError(f"n must be a positive integer: got {self.n!r}")
        if not is_int(self.f) or not 0 <= self.f < self.n:
            raise ConfigError(f"f must satisfy 0 <= f < n: got n={self.n}, f={self.f}")
        self.rule.check_preconditions(self.n, self.f)
        check_attack_applicable(self.attack, self.f)
        if isinstance(self.estimator, MinibatchEstimator) and not isinstance(self.cost, LeastSquares):
            raise ConfigError(
                f"minibatch estimator requires a least_squares cost, got {self.cost.variant!r}")
        lr_schedule(0, self.gamma0, self.p)  # raises InvalidSchedule on bad gamma0/p
        if not is_int(self.rounds) or self.rounds < 0:
            raise ConfigError(f"rounds must be a non-negative integer: got {self.rounds!r}")
        if not is_int(self.master_seed) or not 0 <= self.master_seed <= _MAX_SEED:
            raise ConfigError(f"seed must be a 64-bit unsigned integer: got {self.master_seed!r}")
        d = self.cost.dimension
        if self.x0 is not None and self.x0.size != d:
            raise ConfigError(f"x0 has d={self.x0.size}, cost function expects d={d}")
        if self.byzantine_ids is not None and not all(map(is_int, self.byzantine_ids)):
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


_REAL_FIELDS = tuple(fld.name for fld in fields(RoundRecord) if fld.type == "float")


@dataclass(frozen=True, eq=False)
class RoundState:
    x: np.ndarray
    t: int


@dataclass(frozen=True, eq=False)
class ExperimentTrace:
    """Config echo plus the per-round records.

    `diverged` marks runs truncated because a round produced a non-finite
    parameter component or metric; that round is the last record, and
    `final_x` is the last finite parameter vector.
    """

    config: ExperimentConfig
    records: tuple[RoundRecord, ...]
    final_x: np.ndarray
    diverged: bool = False


def run_round(state: RoundState, config: ExperimentConfig,
              _streams: SubstreamSource | None = None) -> tuple[RoundState, RoundRecord]:
    """Advance one synchronous round.

    Honest worker i draws from substream (master_seed, i, t), worker by
    worker in id order, and the draws are combined as one block, bit for
    bit as if each were drawn alone; the adversary stream is lane 0.  The
    n proposals fill one matrix, row i - 1 holding worker i.  Byzantine
    rows are written after the honest draws, so honest draws are
    identical across rules and attacks under the same seed.  Raises
    DivergenceDetected when the update or any real of the round's record
    is not finite.
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
    honest_ids = [wid for wid in range(1, n + 1) if wid not in byz_set]

    with np.errstate(over="ignore", invalid="ignore"):
        gamma = lr_schedule(t, config.gamma0, config.p)
        grad = config.cost.gradient(x)
        H = _estimate_rows(config.cost, x, config.estimator,
                           (_streams.generator(wid, t) for wid in honest_ids), n - f, grad)
        X = np.empty((n, x.size))
        X[np.subtract(honest_ids, 1)] = H
        if f:
            view = AdversaryView._of_matrix(honest_ids, H, round=t, parameter_vector=x,
                                            true_gradient=grad, rule_descriptor=config.rule,
                                            gamma=gamma)
            for wid, vec in zip(byz_ids, apply_attack(config.attack, view, byz_ids,
                                                      rng=_streams.generator(0, t))):
                X[wid - 1] = vec
        selection = _select(config.rule, X, f, with_scores=False)
        x_next = x - gamma * selection.output
        miss = selection.output - grad
        # the bits of np.linalg.norm on a 1-D float64 vector
        record = RoundRecord(
            t=t,
            cost=config.cost.cost(x),
            grad_norm=math.sqrt(float(grad @ grad)),
            gamma=gamma,
            selected_ids=selection.selected_ids,
            byzantine_selected=bool(byz_set.intersection(selection.selected_ids)),
            agg_to_grad_dist=math.sqrt(float(miss @ miss)),
            x_norm=math.sqrt(float(x @ x)),
        )
    for name in _REAL_FIELDS:
        if not math.isfinite(getattr(record, name)):
            raise DivergenceDetected(f"non-finite {name} in round {t}", record=record, last_x=x)
    if not np.isfinite(x_next).all():
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
