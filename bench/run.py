"""byzgrad benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread, BLAS pinned to
one thread.  The workload builds its inputs from --seed.  With --trace 0
it first makes one full-size operation, as large as the real job, then
runs whole passes of its operations while the next pass is expected to
fit into what is left of --seconds, and at least the workload's BEST_OF
passes.  Every output is checked outside the timed sections.  The last
line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: aggregations_per_s,
from each pass operation's fastest time over the first BEST_OF passes;
setup_s; peak_rss_mb.  With --trace 1 each pass runs twice, untraced
and then traced, the two must give identical output bytes, and the
metrics are the per-layer ones (per pass, the smallest value over the
traced passes) plus trace.overhead_s, the per-pass sum of each operation's
median traced-minus-untraced time.  Result files, and the spans of the first
traced pass, go to bench/out/.
"""

import time

_T0 = time.perf_counter()
_STARTUP_CPU = time.process_time()  # interpreter start-up, before this script ran

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("resilience_grid", "sgd_sweep", "krum_large")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, ops: int, failed: dict):
        self.attempted += ops
        self.failed += len(failed)
        self.reasons.extend(failed.values())


class _Timing:
    """Per-operation times over a run's passes."""

    def __init__(self):
        self.op_s = []

    def add(self, op_s: list):
        self.op_s.append(op_s)

    @property
    def pass_s(self) -> list:
        return [sum(op_s) for op_s in self.op_s]

    def best_s(self, k: int) -> float:
        """Sum over operations of each one's fastest time in the first k passes."""
        return sum(min(times) for times in zip(*self.op_s[:k]))


def _another_pass(pass_s: list, min_passes: int, seconds: float) -> bool:
    """Whether to run one more pass: until min_passes are done, then while one fits."""
    spent = sum(pass_s)
    return len(pass_s) < min_passes or spent + spent / len(pass_s) <= seconds


def _pass(workload, k, check: bool):
    """(per-operation seconds in byzgrad calls, output digests, {idx: failed check}) of pass k."""
    op_s = []
    digests = []
    failed = {}
    for idx, (elapsed, output) in enumerate(workload.run_pass(k)):
        op_s.append(elapsed)
        digests.append(hashlib.sha256(workload.encode(output)).digest())
        reason = workload.check(k, idx, output) if check else None
        if reason is not None:
            failed[idx] = reason
    return op_s, digests, failed


def _run_plain(workload, seconds, tally):
    timing = _Timing()
    digest = None
    k = 0
    while _another_pass(timing.pass_s, workload.BEST_OF, seconds):
        op_s, digests, failed = _pass(workload, k, check=True)
        timing.add(op_s)
        tally.add(workload.ops_per_pass, failed)
        if k == 0:
            digest = hashlib.sha256(b"".join(digests)).hexdigest()
        k += 1
    return timing, digest


def _run_traced(workload, seconds, tally, tracer):
    """Pass k runs untraced, then traced; each operation's two times are a pair."""
    plain, traced, per_pass, op_overhead_s = _Timing(), _Timing(), [], []
    digest = None
    k = 0
    while _another_pass([p + t for p, t in zip(plain.pass_s, traced.pass_s)], 1, seconds):
        plain_op_s, plain_digests, plain_failed = _pass(workload, k, check=True)
        plain.add(plain_op_s)
        tracer.reset_totals()
        tracer.record_spans = k == 0  # keeps the span file to one pass
        tracer.install()
        try:
            op_s, digests, failed = _pass(workload, k, check=True)
        finally:
            tracer.uninstall()
        traced.add(op_s)
        op_overhead_s.append([t - p for p, t in zip(plain_op_s, op_s)])
        per_pass.append(tracer.metrics())
        for idx, (a, b) in enumerate(zip(plain_digests, digests)):
            if a != b:
                failed.setdefault(idx, f"operation {idx}: traced output differs from untraced")
        tally.add(workload.ops_per_pass, plain_failed)
        tally.add(workload.ops_per_pass, failed)
        if k == 0:
            digest = hashlib.sha256(b"".join(digests)).hexdigest()
        k += 1
    overhead_s = sum(statistics.median(pairs) for pairs in zip(*op_overhead_s))
    return plain, traced, per_pass, overhead_s, digest


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "byzgrad", "__init__.py")):
        print(f"error: byzgrad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import byzgrad
    if os.path.dirname(os.path.dirname(os.path.abspath(byzgrad.__file__))) != SRC:
        print(f"error: imported byzgrad from {byzgrad.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import METRICS, Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup_s = _STARTUP_CPU + (time.perf_counter() - _T0)

        tally = _Tally()
        detail = {}
        if args.trace:
            tracer = Tracer()
            plain, traced, per_pass, overhead_s, digest = _run_traced(
                workload, args.seconds, tally, tracer)
            metrics = {}
            for name, (unit, _, _) in METRICS.items():
                values = [p[name] for p in per_pass]
                if values[0] is None:
                    metrics[name] = {"value": None, "unit": unit,
                                     "absent": "missing hook " + ", ".join(tracer.missing_hooks_of(name))}
                else:
                    metrics[name] = {"value": min(values), "unit": unit}
            metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
            tracer.write_spans(spans_path)
            detail.update(plain_pass_s=plain.pass_s, traced_pass_s=traced.pass_s, spans=spans_path,
                          spans_recorded=len(tracer.spans), missing_hooks=tracer.missing_hooks)
        else:
            # the full-size operation sets the process's peak memory at the size of
            # the real job; it is checked and counted, and its time is taken out of
            # the passes' --seconds, but it is not part of aggregations_per_s
            full_size_s = 0.0
            if hasattr(workload, "run_full_size"):
                start = time.perf_counter()
                output = workload.run_full_size()
                full_size_s = time.perf_counter() - start
                reason = workload.check_full_size(output)
                tally.add(1, {} if reason is None else {"full": reason})
            timing, digest = _run_plain(workload, args.seconds - full_size_s, tally)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "aggregations_per_s": {"value": workload.aggregations_per_pass
                                       / timing.best_s(workload.BEST_OF),
                                       "unit": "aggregations/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
            }
            detail.update(full_size_s=full_size_s, pass_s=timing.pass_s, op_s=timing.op_s,
                          best_pass_s=timing.best_s(workload.BEST_OF), best_of=workload.BEST_OF)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        ops_per_pass=workload.ops_per_pass, aggregations_per_pass=workload.aggregations_per_pass,
        pass0_sha256=digest, failures=tally.reasons[:50],
        machine={"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": os.cpu_count(), "platform": platform.platform()})
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"result": result, "detail": detail}, handle, indent=1)
    for reason in tally.reasons[:10]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(detail.get('pass_s') or detail['plain_pass_s'])} pass0_sha256={digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
