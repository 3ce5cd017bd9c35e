"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed, then runs in
passes.  A pass is one whole round of the workload's operations, always
the same operations; pass k draws fresh inputs from (seed, k), so the
work of a pass does not depend on the seed.  `BEST_OF` is the number of
passes its throughput is taken over.  `run_pass(k)` yields, one
operation at a time, the seconds spent in the byzgrad call and the
operation's output, so that only one output is alive at a time;
`check(k, idx, output)` returns why the output of operation idx fails a
check, or None; `encode(output)` gives the bytes that traced and
untraced runs must agree on.  A workload whose pass operations are
smaller than the real job also has `run_full_size()`, one operation at
the real job's size, and `check_full_size(output)`.

Checks compare against `reference` or against properties the method
must have, never against stored outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from byzgrad import AggregationInput, AttackSpec, RuleSpec, cli, krum_select, multi_krum_select
from byzgrad import resilience

import reference as ref


def _seeds(seed: int, tag: int, k: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, tag, k])
    return [int(s) for s in rng.integers(0, 2 ** 63, size=count)]


def _unit(rng, d: int) -> np.ndarray:
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------

class ResilienceGrid:
    """estimate_resilience with Krum (and multi-Krum where n - m > 2f + 2)
    over (n, f), d and every applicable attack, with sin(alpha) = 0.5."""

    name = "resilience_grid"
    BEST_OF = 20
    GRID = ((5, 1), (7, 2), (11, 3), (15, 4))
    DIMS = (2, 5)
    SIGMA = 1.0
    TRIALS = 100
    MULTI_M = 2
    # the per-run replays: (rule, n, f, d) of a sign_flip operation in pass 0
    REPLAYS = (("krum", 7, 2, 2), ("multi_krum", 11, 3, 2))
    # (rule, n, f, d, attack) of the full-size call: criterion 4's trial count
    FULL_SIZE = ("krum", 15, 4, 5, "sign_flip")
    FULL_SIZE_TRIALS = 10_000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.ops = []
        for n, f in self.GRID:
            kinds = ["krum"] + (["multi_krum"] if n - self.MULTI_M > 2 * f + 2 else [])
            attacks = ["sign_flip", "silence", "gaussian_noise"] + \
                (["collusion_medoid"] if f >= 2 else []) + (["omniscient_linear"] if f == 1 else [])
            for d in self.DIMS:
                u = _unit(rng, d)
                self.ops.extend(self._op(kind, n, f, d, u, attack_name, self.TRIALS)
                                for kind in kinds for attack_name in attacks)
        kind, n, f, d, attack_name = self.FULL_SIZE
        self.full_size_op = self._op(kind, n, f, d, _unit(rng, d), attack_name,
                                     self.FULL_SIZE_TRIALS)
        self.ops_per_pass = len(self.ops)
        self.aggregations_per_pass = self.ops_per_pass * self.TRIALS

    def _op(self, kind, n, f, d, u, attack_name, trials):
        g = 2.0 * ref.eta(n, f) * math.sqrt(d) * self.SIGMA * u
        attacks = {
            "sign_flip": AttackSpec("sign_flip", kappa=1.0),
            "silence": AttackSpec("silence"),
            "gaussian_noise": AttackSpec("gaussian_noise", center=-g, spread=1.0),
            "collusion_medoid": AttackSpec(
                "collusion_medoid", remote_magnitude=50.0 * ref.norm(g), direction=-u),
            "omniscient_linear": AttackSpec("omniscient_linear", target=-10.0 * g),
        }
        rule = RuleSpec("krum") if kind == "krum" else RuleSpec("multi_krum", m=self.MULTI_M)
        return dict(rule=rule, n=n, f=f, d=d, g=g, attack_name=attack_name,
                    attack=attacks[attack_name], trials=trials)

    def _call(self, op, master_seed):
        return resilience.estimate_resilience(
            rule=op["rule"], n=op["n"], f=op["f"], d=op["d"], g=op["g"], sigma=self.SIGMA,
            attack=op["attack"], trials=op["trials"], master_seed=master_seed)

    def warm_up(self):
        self._call(self.ops[0], 0)

    def run_pass(self, k: int):
        for op, master_seed in zip(self.ops, _seeds(self.seed, 1, k, len(self.ops))):
            start = time.perf_counter()
            report = self._call(op, master_seed)
            yield time.perf_counter() - start, (master_seed, report)

    def run_full_size(self):
        master_seed = _seeds(self.seed, 5, 0, 1)[0]
        return master_seed, self._call(self.full_size_op, master_seed)

    def check_full_size(self, output) -> str | None:
        return self._describe(self.full_size_op, self._check_report(self.full_size_op, output[1]))

    def encode(self, output) -> bytes:
        master_seed, report = output
        return json.dumps([master_seed, report.to_json_dict()], sort_keys=True).encode()

    def check(self, k: int, idx: int, output) -> str | None:
        op = self.ops[idx]
        master_seed, report = output
        reason = self._check_report(op, report)
        if reason is None and k == 0 and op["attack_name"] == "sign_flip" and \
                (op["rule"].kind, op["n"], op["f"], op["d"]) in self.REPLAYS:
            reason = self._check_replay(op, master_seed, report)
        return self._describe(op, reason)

    @staticmethod
    def _describe(op, reason):
        if reason is None:
            return None
        return f"{op['rule'].describe()} {op['attack_name']} " \
               f"n={op['n']} f={op['f']} d={op['d']} trials={op['trials']}: {reason}"

    def _check_report(self, op, r) -> str | None:
        n, f, d, sigma = op["n"], op["f"], op["d"], self.SIGMA
        eta_sq = ref.eta_sq(n, f)
        eta = ref.eta(n, f)
        g_norm = ref.norm(op["g"])
        sin_alpha = eta * math.sqrt(d) * sigma / g_norm
        dev_bound = float(eta_sq * d) * sigma * sigma
        se_inner = r.standard_errors["inner_product"]
        se_dev = r.standard_errors["mean_dev_sq"]
        trials = op["trials"]
        if (r.n, r.f, r.d, r.trials) != (n, f, d, trials):
            return f"report echoes n,f,d,trials={r.n},{r.f},{r.d},{r.trials}"
        if not _finite(r.inner_product, r.mean_dev_sq, r.mean_sq_dev, se_inner, se_dev,
                       *r.empirical_mean_F):
            return "non-finite estimate"
        if not (ref.rel_close(r.eta, eta, 1e-12) and ref.rel_close(r.sin_alpha, sin_alpha, 1e-12)
                and ref.rel_close(r.dev_bound, dev_bound, 1e-12)):
            return f"eta/sin_alpha/dev_bound {r.eta}/{r.sin_alpha}/{r.dev_bound} " \
                   f"!= {eta}/{sin_alpha}/{dev_bound}"
        rate = r.byzantine_selection_rate
        # hits / trials in floating point: 7 / 100 * 100 is not exactly 7
        if rate is None or not 0.0 <= rate <= 1.0 \
                or abs(rate * trials - round(rate * trials)) > 1e-9:
            return f"byzantine_selection_rate {rate}"
        if op["rule"].kind == "krum":
            bound_i = (1.0 - sin_alpha) * g_norm * g_norm
            if not r.inner_product - 3.0 * se_inner >= bound_i:
                return f"condition (i): {r.inner_product} - 3*{se_inner} < {bound_i}"
            if not r.mean_dev_sq + 3.0 * se_dev <= dev_bound:
                return f"deviation: {r.mean_dev_sq} + 3*{se_dev} > {dev_bound}"
        return None

    def _check_replay(self, op, master_seed, r) -> str | None:
        m = op["rule"].m if op["rule"].kind == "multi_krum" else None
        mean_F, rate = ref.replay_resilience_sign_flip(
            op["n"], op["f"], op["d"], op["g"], self.SIGMA, op["attack"].kappa,
            op["trials"], master_seed, m=m)
        if not ref.vec_close(r.empirical_mean_F, mean_F, 1e-12):
            return f"replay: empirical_mean_F {list(r.empirical_mean_F)} != {list(mean_F)}"
        if not (r.byzantine_selection_rate == rate or
                ref.rel_close(r.byzantine_selection_rate, rate, 1e-12)):
            return f"replay: byzantine_selection_rate {r.byzantine_selection_rate} != {rate}"
        return None


# ---------------------------------------------------------------------------

TRACE_HEADER = "t,cost,grad_norm,gamma,selected_ids,byzantine_selected,agg_to_grad_dist,x_norm"
_SUMMARY = re.compile(r"^rounds_completed=(\d+) diverged=(true|false) final_cost=(\S+)$")


class SgdSweep:
    """`byzgrad simulate` through cli.main over costs x rules x attacks."""

    name = "sgd_sweep"
    BEST_OF = 12
    N, F, D = 11, 2, 10
    SIGMA = 0.5
    KAPPA = 10.0
    GAMMA0, P = 0.5, 0.9
    ROUNDS = 150
    LS_ROWS, LS_BATCH = 64, 8
    REPLAY_ROUNDS = 50
    RULES = ("krum", {"variant": "multi_krum", "m": 3}, "medoid", "average")
    COSTS = ("quadratic", "cosine_bowl", "least_squares")
    ATTACKS = ("sign_flip", "collusion_medoid", "gaussian_noise")
    # (cost, rule, attack) of the full-size run: criterion 5's round count
    FULL_SIZE = ("cosine_bowl", "krum", "sign_flip")
    FULL_SIZE_ROUNDS = 3000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        d = self.D
        direction = _unit(rng, d)
        design = rng.standard_normal((self.LS_ROWS, d))
        targets = design @ rng.standard_normal(d) + 0.1 * rng.standard_normal(self.LS_ROWS)
        costs = {
            "quadratic": ({"variant": "quadratic", "x_star": [0.0] * d},
                          {"variant": "gaussian", "sigma": self.SIGMA}, [5.0] * d),
            "cosine_bowl": ({"variant": "cosine_bowl", "d": d, "lambda": 0.1},
                            {"variant": "gaussian", "sigma": self.SIGMA}, [20.0] * d),
            "least_squares": ({"variant": "least_squares", "design": design.tolist(),
                               "targets": targets.tolist()},
                              {"variant": "minibatch", "batch_size": self.LS_BATCH}, [0.0] * d),
        }
        attacks = {
            "sign_flip": {"variant": "sign_flip", "kappa": self.KAPPA},
            "collusion_medoid": {"variant": "collusion_medoid", "remote_magnitude": 100.0,
                                 "direction": direction.tolist()},
            "gaussian_noise": {"variant": "gaussian_noise", "center": [0.0] * d, "spread": 1.0},
        }
        rules = {rule if isinstance(rule, str) else rule["variant"]: rule for rule in self.RULES}

        def write_config(cost_name, rule_kind, attack_name, rounds):
            cost, estimator, x0 = costs[cost_name]
            doc = {"n": self.N, "f": self.F, "rule": rules[rule_kind], "cost": cost,
                   "estimator": estimator, "attack": attacks[attack_name],
                   "schedule": {"gamma0": self.GAMMA0, "p": self.P},
                   "rounds": rounds, "seed": 0, "x0": x0}
            stem = os.path.join(workdir, f"{cost_name}-{rule_kind}-{attack_name}-{rounds}")
            with open(stem + ".json", "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            return dict(cost=cost_name, rule=rule_kind, attack=attack_name, x0=x0,
                        rounds=rounds, config=stem + ".json", out=stem + ".csv")

        self.ops = [write_config(cost_name, rule_kind, attack_name, self.ROUNDS)
                    for cost_name in self.COSTS for rule_kind in rules
                    for attack_name in self.ATTACKS]
        self.full_size_op = write_config(*self.FULL_SIZE, self.FULL_SIZE_ROUNDS)
        self.ops_per_pass = len(self.ops)
        self.aggregations_per_pass = self.ops_per_pass * self.ROUNDS
        self.replay_index = next(i for i, op in enumerate(self.ops)
                                 if (op["cost"], op["rule"], op["attack"])
                                 == ("quadratic", "krum", "sign_flip"))

    def _run(self, op, master_seed):
        """(seconds in cli.main, (master_seed, exit code, summary, trace CSV bytes))."""
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["simulate", "--config", op["config"], "--out", op["out"],
                             "--seed", str(master_seed)])
        elapsed = time.perf_counter() - start
        with open(op["out"], "rb") as handle:
            return elapsed, (master_seed, code, stdout.getvalue(), handle.read())

    def warm_up(self):
        self._run(self.ops[0], 0)

    def run_pass(self, k: int):
        for op, master_seed in zip(self.ops, _seeds(self.seed, 2, k, len(self.ops))):
            yield self._run(op, master_seed)

    def run_full_size(self):
        return self._run(self.full_size_op, _seeds(self.seed, 5, 0, 1)[0])[1]

    def check_full_size(self, output) -> str | None:
        op = self.full_size_op
        reason = self._check_run(op, output)
        return None if reason is None else \
            f"{op['cost']}/{op['rule']}/{op['attack']}, {op['rounds']} rounds: {reason}"

    def encode(self, output) -> bytes:
        master_seed, code, summary, csv = output
        return f"{master_seed}\n{code}\n{summary}".encode() + csv

    def check(self, k: int, idx: int, output) -> str | None:
        op = self.ops[idx]
        reason = self._check_run(op, output)
        if reason is None and k == 0 and idx == self.replay_index:
            reason = self._check_replay(op, output)
        return None if reason is None else f"{op['cost']}/{op['rule']}/{op['attack']}: {reason}"

    def _check_run(self, op, output) -> str | None:
        _, code, summary, csv = output
        match = _SUMMARY.match(summary.strip())
        if code != 0 or match is None:
            return f"exit code {code}, summary {summary!r}"
        final_cost = float(match.group(3))
        rounds = op["rounds"]
        if int(match.group(1)) != rounds or match.group(2) != "false" \
                or not math.isfinite(final_cost):
            return f"summary {summary.strip()!r}: the run must complete without diverging"
        lines = csv.decode("utf-8").split("\n")
        if lines[0] != TRACE_HEADER or lines[-1] != "" or len(lines) != rounds + 2:
            return f"trace layout: header {lines[0]!r}, {len(lines) - 2} rows"
        byz_ids = set(range(self.N - self.F + 1, self.N + 1))
        want_ids = {"average": 0, "medoid": 1, "krum": 1, "multi_krum": 3}[op["rule"]]
        rows = []
        for t, line in enumerate(lines[1:-1]):
            fields = line.split(",")
            if len(fields) != 8 or fields[0] != str(t):
                return f"row {t}: {line!r}"
            cost, grad_norm, gamma, agg_dist, x_norm = map(float, fields[1:4] + fields[6:8])
            ids = [int(i) for i in fields[4].split(";")] if fields[4] else []
            byz = fields[5]
            if not _finite(cost, grad_norm, gamma, agg_dist, x_norm):
                return f"row {t}: non-finite real in {line!r}"
            if not ref.rel_close(gamma, self.GAMMA0 / (1.0 + t) ** self.P, 1e-12):
                return f"row {t}: gamma {gamma} != gamma0 / (1 + t)^p"
            if len(ids) != want_ids or len(set(ids)) != len(ids) \
                    or not all(1 <= i <= self.N for i in ids):
                return f"row {t}: selected_ids {fields[4]!r}"
            if byz != ("true" if byz_ids.intersection(ids) else "false"):
                return f"row {t}: byzantine_selected {byz} for ids {ids}"
            if op["cost"] == "quadratic" and not (
                    ref.rel_close(cost, 0.5 * grad_norm * grad_norm, 1e-12)
                    and ref.rel_close(x_norm, grad_norm, 1e-12)):
                return f"row {t}: quadratic with x* = 0 needs cost = grad_norm^2 / 2 " \
                       f"and x_norm = grad_norm, got {cost}, {grad_norm}, {x_norm}"
            rows.append((cost, grad_norm, byz == "true"))
        if op["rule"] in ("krum", "multi_krum") and op["cost"] != "least_squares":
            radius = ref.eta(self.N, self.F) * math.sqrt(self.D) * self.SIGMA
            tail = rows[-(rounds // 10):]
            if not all(r[1] < radius for r in tail):
                return f"grad_norm not below eta*sqrt(d)*sigma = {radius} over the last tenth"
        if op["attack"] == "collusion_medoid" and op["rule"] != "average":
            want = op["rule"] == "medoid"
            if not all(r[2] == want for r in rows):
                return f"collusion: byzantine_selected must be {str(want).lower()} every round"
        if op["attack"] == "sign_flip" and op["rule"] == "average" \
                and not final_cost > rows[0][0]:
            return f"Lemma 1: final cost {final_cost} not above the initial {rows[0][0]}"
        return None

    def _check_replay(self, op, output) -> str | None:
        master_seed, _, _, csv = output
        rows = [line.split(",") for line in csv.decode("utf-8").split("\n")[1:-1]]
        want = ref.replay_sgd_krum_sign_flip(
            op["x0"], self.N, self.F, self.SIGMA, self.KAPPA, self.GAMMA0, self.P,
            self.REPLAY_ROUNDS, master_seed)
        for t, (wid, x_norm) in enumerate(want):
            if rows[t][4] != str(wid) or not ref.rel_close(float(rows[t][7]), x_norm, 1e-12):
                return f"replay round {t}: got ids {rows[t][4]} x_norm {rows[t][7]}, " \
                       f"want {wid}, {x_norm}"
        return None


# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _Instance:
    X: np.ndarray
    f: int
    D: np.ndarray  # squared distances, computed apart from byzgrad
    byz_rows: frozenset

    @cached_property
    def table(self):
        """Brute-force squared distances, shared by the Krum and multi-Krum checks."""
        return ref.sq_dist_table(self.X)


class KrumLarge:
    """krum_select and multi_krum_select(m=4) on an honest plus a Byzantine cluster."""

    name = "krum_large"
    BEST_OF = 20
    SIZES = (32, 33, 128, 512)
    DIMS = (100, 1000)
    M = 4
    BRUTE_FORCE_MAX_N = 33

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.shapes = [(n, d) for n in self.SIZES for d in self.DIMS]
        self.ops_per_pass = 2 * len(self.shapes)
        self.aggregations_per_pass = self.ops_per_pass

    def _instance(self, rng, n, d):
        """One honest plus one Byzantine cluster.

        The Byzantine cluster sits past the safety radius at n' = n - m + 1:
        R^2 (n' - 2f - 1) > delta^2 (n' - f - 2), with delta the honest
        diameter and R the least Byzantine-honest distance.
        """
        f = n // 5
        center = rng.standard_normal(d)
        honest = center + rng.standard_normal((n - f, d))
        anchor = center + 3.0 * math.sqrt(2.0 * d) * _unit(rng, d)
        byz = anchor + 0.01 * rng.standard_normal((f, d))
        X = np.vstack([honest, byz])
        order = rng.permutation(n)
        X = X[order]
        byz_rows = frozenset(int(i) for i in np.flatnonzero(order >= n - f))
        D = self._gram_sq_dists(X)
        honest_rows = [i for i in range(n) if i not in byz_rows]
        byz_list = sorted(byz_rows)
        delta_sq = float(D[np.ix_(honest_rows, honest_rows)].max())
        r_sq = float(D[np.ix_(byz_list, honest_rows)].min())
        n1 = n - self.M + 1
        if not r_sq * (n1 - 2 * f - 1) > delta_sq * (n1 - f - 2):
            raise RuntimeError(f"instance n={n} d={d} is inside the safety radius")
        return _Instance(X, f, D, byz_rows)

    @staticmethod
    def _gram_sq_dists(X):
        """Squared distances by the Gram identity, apart from byzgrad's own kernel."""
        sq = np.einsum("ij,ij->i", X, X)
        D = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        np.maximum(D, 0.0, out=D)
        np.fill_diagonal(D, 0.0)
        return D

    def warm_up(self):
        inst = self._instance(np.random.default_rng([self.seed, 4]), 32, 100)
        krum_select(AggregationInput.from_vectors(inst.X, inst.f))
        multi_krum_select(AggregationInput.from_vectors(inst.X, inst.f), self.M)

    def run_pass(self, k: int):
        rng = np.random.default_rng([self.seed, 3, k])
        for n, d in self.shapes:
            inst = self._instance(rng, n, d)
            start = time.perf_counter()
            single = krum_select(AggregationInput.from_vectors(inst.X, inst.f))
            yield time.perf_counter() - start, (inst, single)
            del single
            start = time.perf_counter()
            multi = multi_krum_select(AggregationInput.from_vectors(inst.X, inst.f), self.M)
            yield time.perf_counter() - start, (inst, multi)

    def encode(self, output) -> bytes:
        _, result = output
        scores = [(s.worker_id, s.score, s.neighbor_ids) for s in result.scores]
        return repr((result.selected_ids, scores)).encode() + result.output.tobytes()

    def check(self, k: int, idx: int, output) -> str | None:
        reason = self._check_selection(output, multi=idx % 2 == 1)
        if reason is None:
            return None
        X = output[0].X
        return f"{'multi_krum' if idx % 2 else 'krum'} n={X.shape[0]} d={X.shape[1]}: {reason}"

    def _check_selection(self, output, multi: bool) -> str | None:
        inst, result = output
        X, f, D, byz_rows = inst.X, inst.f, inst.D, inst.byz_rows
        n = X.shape[0]
        ids = list(result.selected_ids)
        rows = [i - 1 for i in ids]
        if len(ids) != (self.M if multi else 1) or len(set(ids)) != len(ids) \
                or not all(1 <= i <= n for i in ids):
            return f"selected_ids {ids}"
        if any(r in byz_rows for r in rows):
            return f"selected a Byzantine id in {ids} beyond the safety radius"
        if multi:
            if not ref.vec_close(result.output, np.mean(X[rows], axis=0), 1e-12):
                return "output is not the mean of the selected rows"
        elif result.output.tobytes() != X[rows[0]].tobytes():
            return "output is not bit-identical to the selected row"
        if sorted(s.worker_id for s in result.scores) != list(range(1, n + 1)):
            return "scores do not cover workers 1..n"
        scores = {s.worker_id - 1: s.score for s in result.scores}
        active = list(range(n))
        for step, w in enumerate(rows):
            recomputed = self._scores(D, f, active)
            best = min(recomputed.values())
            if not recomputed[w] <= best * (1.0 + 1e-9):
                return f"iteration {step}: winner score {recomputed[w]} above the minimum {best}"
            if step == 0 and not ref.rel_close(scores[w], best, 1e-9):
                return f"winner score {scores[w]} is not the minimum {best}"
            active.remove(w)
        if n <= self.BRUTE_FORCE_MAX_N:
            table = inst.table
            brute = ref.krum_scores(table, f)
            bad = [i for i in range(n) if not ref.rel_close(scores[i], brute[i], 1e-12)]
            if bad:
                return f"scores of rows {bad} differ from the brute-force reference"
            want = ref.multi_krum_select(table, f, self.M) if multi else [ref.krum_select(table, f)]
            if rows != want:
                return f"selected rows {rows}, brute force selects {want}"
        return None

    @staticmethod
    def _scores(D, f, active):
        sub = D[np.ix_(active, active)]
        np.fill_diagonal(sub, np.inf)
        k = len(active) - f - 2
        return dict(zip(active, np.sort(sub, axis=1)[:, :k].sum(axis=1).tolist()))


WORKLOADS = {w.name: w for w in (ResilienceGrid, SgdSweep, KrumLarge)}
