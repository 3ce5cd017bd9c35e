"""Byzantine worker strategies.

Attackers here are omniscient: they see the current parameter vector,
every honest proposal, the aggregation rule and its parameters, the step
size, and the true gradient.  Each strategy maps that view to the f
vectors the Byzantine workers submit.  All strategies are deterministic
given (view, params, stream); replaying a seed reproduces every
Byzantine vector bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import RuleSpec, as_vector
from .errors import AttackInapplicable, InvalidInput, InvalidView

__all__ = [
    "AdversaryView",
    "AttackSpec",
    "apply_attack",
    "check_attack_applicable",
    "collusion_medoid_attack",
    "gaussian_noise_attack",
    "omniscient_linear_attack",
    "sign_flip_attack",
    "silence_attack",
]

# variant -> the parameters it requires; every other parameter must be absent
ATTACK_PARAMS = {
    "omniscient_linear": ("target",),
    "collusion_medoid": ("remote_magnitude", "direction"),
    "sign_flip": ("kappa",),
    "gaussian_noise": ("center", "spread"),
    "silence": (),
}

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class AdversaryView:
    """Everything the Byzantine coalition sees in one round."""

    round: int
    parameter_vector: np.ndarray
    correct_vectors: tuple[tuple[int, np.ndarray], ...]
    true_gradient: np.ndarray | None = None
    rule_descriptor: RuleSpec | None = None
    gamma: float | None = None

    def __post_init__(self):
        if not self.correct_vectors:
            raise InvalidView("adversary view needs at least one honest proposal")
        d = self.parameter_vector.size
        for wid, vec in self.correct_vectors:
            if vec.size != d:
                raise InvalidView(
                    f"honest proposal of worker {wid} has d={vec.size}, expected {d}")
        if self.true_gradient is not None and self.true_gradient.size != d:
            raise InvalidView("true gradient dimension differs from the parameter vector")

    @property
    def dimension(self) -> int:
        return self.parameter_vector.size

    def correct_matrix(self) -> np.ndarray:
        """Honest proposals stacked in ascending worker-id order."""
        ordered = sorted(self.correct_vectors, key=lambda e: e[0])
        return np.stack([vec for _, vec in ordered])


@dataclass(frozen=True, eq=False)
class AttackSpec:
    """Serializable attack description: a variant tag plus its parameters.

    Exactly the parameters of the chosen variant must be present:
    sign_flip needs kappa > 0, omniscient_linear a target vector,
    collusion_medoid a remote magnitude > 0 and a unit direction,
    gaussian_noise a center and spread >= 0, silence nothing.
    """

    variant: str
    kappa: float | None = None
    target: np.ndarray | None = None
    remote_magnitude: float | None = None
    direction: np.ndarray | None = None
    center: np.ndarray | None = None
    spread: float | None = None

    def __post_init__(self):
        if self.variant not in ATTACK_PARAMS:
            raise InvalidInput(
                f"unknown attack variant {self.variant!r}, expected one of {tuple(ATTACK_PARAMS)}")
        required = ATTACK_PARAMS[self.variant]
        for name in ("kappa", "target", "remote_magnitude", "direction", "center", "spread"):
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise InvalidInput(f"attack {self.variant!r} requires parameter {name!r}")
            elif value is not None:
                raise InvalidInput(f"attack {self.variant!r} takes no parameter {name!r}")
        if self.kappa is not None and not self.kappa > 0:
            raise InvalidInput(f"kappa must be positive: got {self.kappa}")
        if self.remote_magnitude is not None and not self.remote_magnitude > 0:
            raise InvalidInput(f"remote_magnitude must be positive: got {self.remote_magnitude}")
        if self.spread is not None and self.spread < 0:
            raise InvalidInput(f"spread must be non-negative: got {self.spread}")
        if self.target is not None:
            object.__setattr__(self, "target", as_vector(self.target))
        if self.center is not None:
            object.__setattr__(self, "center", as_vector(self.center))
        if self.direction is not None:
            object.__setattr__(self, "direction", _unit_vector(self.direction))


def _unit_vector(direction) -> np.ndarray:
    v = as_vector(direction)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _UNIT_NORM_TOL:
        raise InvalidInput(f"direction must have unit Euclidean norm: got {norm}")
    return v


def check_attack_applicable(spec: AttackSpec, f: int) -> None:
    """Raise if the variant cannot be mounted with f Byzantine workers."""
    if f <= 0:
        return
    if spec.variant == "collusion_medoid" and f < 2:
        raise AttackInapplicable(f"collusion attack requires f >= 2: got f={f}")
    if spec.variant == "omniscient_linear" and f != 1:
        raise AttackInapplicable(f"omniscient_linear attack is defined for f = 1: got f={f}")


def omniscient_linear_attack(view: AdversaryView, weights, byz_id: int, target) -> np.ndarray:
    """The single crafted vector that forces a fixed-weight linear rule to `target`.

    With weights lambda_1..lambda_n and the other n-1 proposals known,
    submitting (target - sum_{i != b} lambda_i V_i) / lambda_b makes the
    combination equal the target, whatever the target is.
    """
    target = as_vector(target)
    if target.size != view.dimension:
        raise InvalidInput(
            f"target has d={target.size}, expected {view.dimension}")
    others = sorted(view.correct_vectors, key=lambda e: e[0])
    n = len(others) + 1
    expected = set(range(1, n + 1)) - {byz_id}
    got = {wid for wid, _ in others}
    if got != expected:
        raise InvalidView(
            f"view must carry the other n-1 proposals: expected ids {sorted(expected)}, "
            f"got {sorted(got)}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise InvalidInput(f"expected {n} weights, got shape {w.shape}")
    lam = float(w[byz_id - 1])
    if lam == 0.0:
        raise InvalidInput(f"weight of worker {byz_id} must be non-zero")
    acc = target.copy()
    for wid, vec in others:
        acc -= float(w[wid - 1]) * vec
    return acc / lam


def collusion_medoid_attack(view: AdversaryView, f: int, remote_magnitude: float,
                            direction) -> list[np.ndarray]:
    """f - 1 remote decoys plus the barycenter of the other n - 1 proposals.

    The last returned vector, b, is the exact mean of all n proposals by
    construction, so the squared-distance medoid always selects it; for
    large magnitudes b sits far from the honest cluster.  Needs f >= 2.
    Magnitude 0 is permitted as the harmless degenerate case.
    """
    if f < 2:
        raise AttackInapplicable(f"collusion attack requires f >= 2: got f={f}")
    if remote_magnitude < 0 or not np.isfinite(remote_magnitude):
        raise InvalidInput(f"remote_magnitude must be a finite non-negative real: got {remote_magnitude}")
    direction = _unit_vector(direction)
    if direction.size != view.dimension:
        raise InvalidInput(f"direction has d={direction.size}, expected {view.dimension}")
    remote = remote_magnitude * direction
    correct = view.correct_matrix()
    n = correct.shape[0] + f
    barycenter = (correct.sum(axis=0) + (f - 1) * remote) / (n - 1)
    return [remote.copy() for _ in range(f - 1)] + [barycenter]


def sign_flip_attack(view: AdversaryView, f: int, kappa: float) -> list[np.ndarray]:
    """f copies of -kappa times the honest mean."""
    if not kappa > 0:
        raise InvalidInput(f"kappa must be positive: got {kappa}")
    flipped = -kappa * view.correct_matrix().mean(axis=0)
    return [flipped.copy() for _ in range(f)]


def silence_attack(view: AdversaryView, f: int) -> list[np.ndarray]:
    """f zero vectors: the server's default for workers that stay silent."""
    return [np.zeros(view.dimension) for _ in range(f)]


def gaussian_noise_attack(view: AdversaryView, f: int, center, spread: float,
                          rng: np.random.Generator) -> list[np.ndarray]:
    """f i.i.d. draws of center + spread * N(0, I_d) from the given stream."""
    center = as_vector(center)
    if center.size != view.dimension:
        raise InvalidInput(f"center has d={center.size}, expected {view.dimension}")
    if spread < 0 or not np.isfinite(spread):
        raise InvalidInput(f"spread must be a finite non-negative real: got {spread}")
    return [center + spread * rng.standard_normal(center.size) for _ in range(f)]


def _weights_for_view(view: AdversaryView, n: int) -> tuple[float, ...]:
    # The crafted-vector formula needs the rule's weights; against
    # non-linear rules the attack falls back to uniform 1/n (the vector is
    # then merely a decoy, which is the intended stress for Krum runs).
    rule = view.rule_descriptor
    if rule is not None and rule.kind == "linear":
        return rule.weights
    return (1.0 / n,) * n


def apply_attack(spec: AttackSpec, view: AdversaryView, byz_ids,
                 rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Produce the Byzantine proposals for this round, one per id in `byz_ids`."""
    byz_ids = tuple(byz_ids)
    f = len(byz_ids)
    if f == 0:
        return []
    check_attack_applicable(spec, f)
    if spec.variant == "silence":
        return silence_attack(view, f)
    if spec.variant == "sign_flip":
        return sign_flip_attack(view, f, spec.kappa)
    if spec.variant == "gaussian_noise":
        if rng is None:
            raise InvalidInput("gaussian_noise attack needs an rng stream")
        return gaussian_noise_attack(view, f, spec.center, spec.spread, rng)
    if spec.variant == "collusion_medoid":
        return collusion_medoid_attack(view, f, spec.remote_magnitude, spec.direction)
    if spec.variant == "omniscient_linear":
        n = len(view.correct_vectors) + 1
        weights = _weights_for_view(view, n)
        return [omniscient_linear_attack(view, weights, byz_ids[0], spec.target)]
    raise InvalidInput(f"unknown attack variant {spec.variant!r}")
