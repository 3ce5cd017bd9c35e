"""Monte Carlo verification of the aggregation guarantees.

For a rule, an attack, and an honest estimator N(g, sigma^2 I_d), this
module estimates the quantities bounded by the resilience conditions:

* the inner product <E F, g> against (1 - sin alpha) * ||g||^2, and
* the squared deviation ||E F - g||^2 against eta^2(n, f) * d * sigma^2,
* the moments E||F||^r for r = 2, 3, 4 against combinations of the
  honest moments E||G||^r.

All checks are statistical: point estimates carry standard errors and
the pass/fail booleans apply a three-standard-error slack.  The bounds
themselves concern exact expectations, so a Monte Carlo run can support
or falsify them but never prove them; reports say which way the evidence
points.  Trials are drawn one at a time, each from its own substream,
and aggregated in blocks; every sum runs in trial order, so neither the
block size nor any parallel schedule changes a bit of a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .adversary import AdversaryView, AttackSpec, apply_attack, check_attack_applicable
from .aggregation import RuleSpec, _require_krum_valid, _select_block, as_vector, eta, resilience_angle
from .aggregation import _select  # noqa: F401  (bound only for bench/tracer.py, which hooks it)
from .errors import InvalidInput, is_int
from .streams import SubstreamSource

__all__ = ["ResilienceReport", "check_safety_radius", "csv_cell", "estimate_resilience"]

_MOMENT_ORDERS = (2, 3, 4)

# float64 elements of proposals plus distances in one block of trials
_BLOCK_ELEMENTS = 1 << 16

# integer partitions of r: candidate products E||G||^{r_1} * ... * E||G||^{r_k}
_PARTITIONS = {
    2: ((2,), (1, 1)),
    3: ((3,), (2, 1), (1, 1, 1)),
    4: ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)),
}


@dataclass(eq=False)
class ResilienceReport:
    """Point estimates, bounds, and standard errors from one Monte Carlo run."""

    rule: str
    attack: str
    n: int
    f: int
    d: int
    sigma: float
    grad_norm: float
    trials: int
    eta: float
    sin_alpha: float
    within_guarantee: bool
    empirical_mean_F: np.ndarray
    inner_product: float
    bound_i: float
    condition_i_holds: bool
    mean_dev_sq: float        # ||mean_F - g||^2
    mean_sq_dev: float        # empirical E||F - g||^2
    dev_bound: float          # eta^2 * d * sigma^2
    deviation_bound_holds: bool
    moments: dict[int, float]
    moment_reference: dict[int, float]   # (n - f) * E||G||^r comparators
    condition_ii_holds: bool
    ratio_ceiling: float
    byzantine_selection_rate: float | None
    standard_errors: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Flat JSON-ready dict: the fields in order, the dict fields spread into keys."""
        d = {fld.name: getattr(self, fld.name) for fld in fields(self)
             if fld.name not in ("moments", "moment_reference", "standard_errors")}
        d["empirical_mean_F"] = [float(v) for v in self.empirical_mean_F]
        for r in _MOMENT_ORDERS:
            d[f"moment_{r}"] = self.moments[r]
            d[f"moment_reference_{r}"] = self.moment_reference[r]
        for name, se in sorted(self.standard_errors.items()):
            d[f"se_{name}"] = se
        return d

    CSV_COLUMNS = (
        "rule", "attack", "n", "f", "d", "sigma", "grad_norm", "trials",
        "eta", "sin_alpha", "within_guarantee",
        "inner_product", "se_inner_product", "bound_i", "condition_i_holds",
        "mean_dev_sq", "se_mean_dev_sq", "mean_sq_dev", "se_mean_sq_dev",
        "dev_bound", "deviation_bound_holds",
        "moment_2", "moment_reference_2", "moment_3", "moment_reference_3",
        "moment_4", "moment_reference_4", "condition_ii_holds",
        "byzantine_selection_rate",
    )

    def to_csv_row(self) -> str:
        flat = self.to_json_dict()
        return ",".join(csv_cell(flat[c]) for c in self.CSV_COLUMNS)


def csv_cell(value) -> str:
    """One CSV cell: reals round-trip exactly, flags read true/false, ids join with ';'."""
    if isinstance(value, float):
        # 17 significant digits: binary64 round-trips exactly.
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    return str(value)


def _add_rows(carry: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # carry + rows[0] + rows[1] + ... left to right, in trial order:
    # np.sum would add pairwise and change bits
    return np.cumsum(np.concatenate((carry[None], rows)), axis=0)[-1]


def _sample_se(s1: float, s2: float, trials: int) -> float:
    # clamps rounding below 0.0 but keeps the NaN of overflowed sums, as max(0.0, nan) would not
    var = np.maximum(0.0, (s2 - s1 * s1 / trials) / (trials - 1))
    return math.sqrt(var / trials)


def estimate_resilience(rule: RuleSpec, n: int, f: int, d: int, g, sigma: float,
                        attack: AttackSpec, trials: int, master_seed: int,
                        ratio_ceiling: float | None = None) -> ResilienceReport:
    """Monte Carlo resilience estimate for one (rule, attack) pairing.

    Per trial, the n - f honest workers draw N(g, sigma^2 I_d), the
    Byzantine workers occupy the last f ids and mount `attack`, and the
    rule aggregates all n proposals.  Requires 2f + 2 < n (the reference
    angle comes from eta(n, f)) and a non-zero g.

    Trials are drawn one at a time from the substream (seed, 0, trial),
    honest block first, then the attack.  They are aggregated in blocks
    of trials by one batched distance-and-selection kernel, and every
    sum runs in trial order, so the block size never changes a bit.
    numpy's overflow and invalid-value warnings are off: such a sum reads inf or NaN.
    """
    g = as_vector(g)
    with np.errstate(over="ignore"):
        grad_norm = float(np.linalg.norm(g))
    if grad_norm == 0.0:
        raise InvalidInput("g must be non-zero: condition (i) compares against ||g||^2 > 0")
    if grad_norm == math.inf:
        raise InvalidInput("||g|| overflows: the squared norm of g exceeds the float64 range")
    if not is_int(trials) or trials < 2:
        raise InvalidInput(f"trials must be an integer >= 2: got {trials!r}")
    if not 0 <= f < n:
        raise InvalidInput(f"f must satisfy 0 <= f < n: got n={n}, f={f}")
    rule.check_preconditions(n, f)
    check_attack_applicable(attack, f)
    # the one check of d and sigma; g is compared with d only once d is known to be valid
    angle = resilience_angle(n, f, d, sigma, grad_norm)
    if g.size != d:
        raise InvalidInput(f"g has d={g.size}, expected {d}")
    eta_val = eta(n, f)
    ceiling = float(n) if ratio_ceiling is None else float(ratio_ceiling)

    n_honest = n - f
    honest_ids = tuple(range(1, n_honest + 1))
    byz_ids = tuple(range(n_honest + 1, n + 1))
    selection_rule = rule.kind in ("krum", "multi_krum", "medoid")
    streams = SubstreamSource(master_seed)

    sum_F = np.zeros(d)
    sumsq_F = np.zeros(d)
    s1_inner = s2_inner = 0.0
    s1_dev = s2_dev = 0.0
    mom1 = {r: 0.0 for r in _MOMENT_ORDERS}
    mom2 = {r: 0.0 for r in _MOMENT_ORDERS}
    hmom1 = np.zeros(4)  # sums of ||G||^r, r = 1, 2, 3, 4
    byz_hits = 0
    block = min(trials, max(1, _BLOCK_ELEMENTS // (n * (n + d))))
    Xb = np.empty((block, n, d))

    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, trials, block):
            count = min(block, trials - b0)
            for i in range(count):
                trial = b0 + i
                rng = streams.generator(0, trial)
                H = g + sigma * rng.standard_normal((n_honest, d))
                Xb[i, :n_honest] = H
                if f:
                    view = AdversaryView._of_matrix(honest_ids, H, round=trial,
                                                    parameter_vector=np.zeros(d),
                                                    true_gradient=g, rule_descriptor=rule)
                    Xb[i, n_honest:] = apply_attack(attack, view, byz_ids, rng=rng)
            sel, Fb = _select_block(rule, Xb[:count], f)
            sum_F = _add_rows(sum_F, Fb)
            sumsq_F = _add_rows(sumsq_F, Fb * Fb)
            # per-row 1-D dots and Python pow: batched forms round differently
            for F, diff in zip(Fb, Fb - g):
                ip = float(F @ g)
                s1_inner += ip
                s2_inner += ip * ip
                dev = float(diff @ diff)
                s1_dev += dev
                s2_dev += dev * dev
                norm_F = math.sqrt(float(F @ F))
                for r in _MOMENT_ORDERS:
                    try:
                        p = norm_F ** r
                    except OverflowError:  # Python pow raises where numpy gives inf
                        p = math.inf
                    mom1[r] += p
                    mom2[r] += p * p
            Hb = Xb[:count, :n_honest]
            hnorm = np.sqrt((Hb * Hb).sum(axis=2))
            acc = hnorm.copy()
            hsums = np.empty((count, 4))
            for r in range(4):
                hsums[:, r] = acc.sum(axis=1)
                acc *= hnorm
            hmom1 = _add_rows(hmom1, hsums)
            if selection_rule:
                byz_hits += int(np.count_nonzero((sel >= n_honest).any(axis=1)))

        mean_F = sum_F / trials
        inner = float(mean_F @ g)
        se_inner = _sample_se(s1_inner, s2_inner, trials)
        bound_i = (1.0 - angle.sin_alpha) * grad_norm * grad_norm
        condition_i = inner - 3.0 * se_inner >= bound_i

        mean_sq_dev = s1_dev / trials
        se_mean_sq_dev = _sample_se(s1_dev, s2_dev, trials)
        dev = mean_F - g
        mean_dev_sq = float(dev @ dev)
        var_F = np.maximum(0.0, (sumsq_F - sum_F * sum_F / trials) / (trials - 1))
        # delta method: Var(||m - g||^2) ~ 4 * sum_k (m - g)_k^2 Var(m_k)
        se_mean_dev_sq = 2.0 * math.sqrt(float((dev * dev * var_F).sum() / trials))
    dev_bound = eta_val * eta_val * d * sigma * sigma
    deviation_holds = mean_dev_sq + 3.0 * se_mean_dev_sq <= dev_bound

    moments = {r: mom1[r] / trials for r in _MOMENT_ORDERS}
    honest_samples = n_honest * trials
    hmean = {r: s / honest_samples for r, s in zip((1, 2, 3, 4), hmom1.tolist())}
    reference = {r: n_honest * hmean[r] for r in _MOMENT_ORDERS}
    condition_ii = True
    for r in _MOMENT_ORDERS:
        best_product = max(math.prod(hmean[k] for k in part) for part in _PARTITIONS[r])
        if not (math.isfinite(moments[r]) and moments[r] <= ceiling * best_product):
            condition_ii = False

    ses = {
        "inner_product": se_inner,
        "mean_sq_dev": se_mean_sq_dev,
        "mean_dev_sq": se_mean_dev_sq,
    }
    for r in _MOMENT_ORDERS:
        ses[f"moment_{r}"] = _sample_se(mom1[r], mom2[r], trials)

    return ResilienceReport(
        rule=rule.describe(), attack=attack.variant, n=n, f=f, d=d, sigma=sigma,
        grad_norm=grad_norm, trials=trials, eta=eta_val, sin_alpha=angle.sin_alpha,
        within_guarantee=angle.within_guarantee, empirical_mean_F=mean_F,
        inner_product=inner, bound_i=bound_i, condition_i_holds=condition_i,
        mean_dev_sq=mean_dev_sq, mean_sq_dev=mean_sq_dev, dev_bound=dev_bound,
        deviation_bound_holds=deviation_holds, moments=moments,
        moment_reference=reference, condition_ii_holds=condition_ii,
        ratio_ceiling=ceiling,
        byzantine_selection_rate=(byz_hits / trials if selection_rule and f else
                                  (0.0 if selection_rule else None)),
        standard_errors=ses,
    )


def check_safety_radius(delta: float, R: float, n: int, f: int) -> bool:
    """Sufficient separation for Krum to provably select an honest worker.

    If all honest vectors lie within pairwise distance delta and every
    Byzantine vector is at distance > R from every honest one, then an
    honest score is at most (n-f-2) * delta^2 while a Byzantine score is
    at least (n-2f-1) * R^2 (a Byzantine neighbour list holds at most
    f - 1 other Byzantines).  The check returns True when
    R^2 * (n-2f-1) > delta^2 * (n-f-2), which makes every Byzantine
    score strictly larger.  Sufficient, not necessary.
    """
    _require_krum_valid(n, f)
    if delta < 0 or R < 0 or not (math.isfinite(delta) and math.isfinite(R)):
        raise InvalidInput(f"delta and R must be finite non-negative reals: got {delta}, {R}")
    return R * R * (n - 2 * f - 1) > delta * delta * (n - f - 2)
