"""szego-quad benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (rule_ladder, arc_measure or cli_cold) in one process
with one thread, as a closed loop: each library call (or CLI subprocess) is
issued after the previous one returns.  The op list is built from the seed
and run in whole passes until S seconds have elapsed.  Every output is then
checked against the high-precision oracle, outside the timed region, and
the last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1).  The lines before it print every metric by name with
its unit, the tail percentile and its sample count, the failure counts and
the environment.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("rule_ladder", "arc_measure", "cli_cold")
SETUP_REPEATS = 7
# op_ms.tail is p75 on every workload, so that runs of different speed stay
# comparable: the highest level with at least 10 samples beyond it at the
# declared run length (about 95, 110 and 100 timed attempts at 30 s).  A
# shorter run falls back to the highest level its sample count supports.
TAIL_LEVELS = (50, 75)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SELF_CHECK_TOL = 1e-12
# share of a traced in-process op's wall time that its top-level spans must cover
MIN_SPAN_COVERAGE = 0.9
REPEAT_COUNTS = (
    "poly.evals",
    "poly.eval_points",
    "poly.horner_madds",
    "quadrature.fn_evals",
    "quadrature.fn_points",
)
ERROR_CODES = (
    "SchurOutOfDisk",
    "NotPositiveDefinite",
    "IntegrationResolution",
    "MomentRangeExceeded",
    "RemainderTooLarge",
    "ModulusMismatch",
    "NearDiagonal",
    "OffCircle",
    "ZeroCountMismatch",
    "DegenerateAnchor",
    "ZeroCoefficient",
    "PhaseLeak",
    "ConfigError",
)
E2E_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
    "node_digits.p50": "digits",
    "node_digits.min": "digits",
    "weight_digits.p50": "digits",
    "weight_digits.min": "digits",
    "exact_digits.min": "digits",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="szego-quad benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build_ops(workload, seed):
    import workloads

    return workloads.build(workload, seed, str(WORK), str(SRC), str(BENCH_DIR / "cli_child.py"))


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import szego_quad and
    build the workload inputs (no oracle)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop


def run_passes(ops, seconds, min_passes, tracer=None):
    """Run whole passes over the op list until `seconds` have elapsed.

    Every attempt is timed, successes and failures alike.  Returns the
    attempts as (op index, pass, seconds, result, error code), the wall time
    and, for cli ops, the peak RSS (kB) of each child.  Only the code of an
    exception is kept: its traceback would hold the failed op's arrays.
    """
    attempts = []
    child_rss = []
    passes = 0
    t_start = time.perf_counter()
    spans_path = str(WORK / f"child_spans_{os.getpid()}.jsonl")
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = (passes, i)
            result = err = None
            t0 = time.perf_counter()
            try:
                if tracer is not None and op.run_traced is not None:
                    result = op.run_traced(spans_path)
                else:
                    result = op.run()
            except Exception as exc:  # every library failure is an outcome
                err = getattr(exc, "code", type(exc).__name__)
            dt = time.perf_counter() - t0
            if tracer is not None and op.run_traced is not None:
                load_child_spans(tracer, spans_path)
            if op.run_traced is not None and result is not None:
                child_rss.append(result[3])
            attempts.append((i, passes, dt, result, err))
        passes += 1
        if passes >= min_passes and time.perf_counter() - t_start >= seconds:
            break
    return {"attempts": attempts, "wall": time.perf_counter() - t_start,
            "passes": passes, "child_rss": child_rss}


def load_child_spans(tracer, path):
    base = len(tracer.spans)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span[3] >= 0:
                span[3] += base
            span[4] = tracer.op_id
            tracer.spans.append(span)
    os.remove(path)


# ---------------------------------------------------------------------------
# classification against the oracle


def classify(ops, attempts, orc):
    """Status of every attempt and the outcome of each op's first output."""
    first = {}
    cache = {}
    statuses = []
    for i, _, _, result, err in attempts:
        if err is not None:
            statuses.append(err)
            first.setdefault(i, None)
            continue
        key = (i, ops[i].fingerprint(result))
        if key not in cache:
            cache[key] = ops[i].check(result, orc)
        statuses.append(cache[key]["status"])
        if first.get(i) is None:
            first[i] = cache[key]
    return statuses, first


def end_to_end(run, statuses, outcomes, setup_s, peak_rss_kb):
    import numpy as np
    from workloads import digits

    times = np.array([a[2] for a in run["attempts"]]) * 1e3
    n = len(times)
    level = max(p for p in TAIL_LEVELS if n * (1 - p / 100) >= 10 or p == 50)
    ok = sum(s == "ok" for s in statuses)

    def col(key):
        return [digits(o[key]) for o in outcomes.values() if o and o[key] is not None]

    node, weight, exact = col("node_err"), col("weight_err"), col("exact_err")
    metrics = {
        "setup_s": setup_s,
        "op_ms.p50": float(np.percentile(times, 50)),
        "op_ms.tail": float(np.percentile(times, level)),
        "ops_per_s": ok_rate(run, statuses),
        "fail_frac": (n - ok) / n,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "node_digits.p50": statistics.median(node),
        "node_digits.min": min(node),
        "weight_digits.p50": statistics.median(weight),
        "weight_digits.min": min(weight),
        "exact_digits.min": min(exact),
    }
    return metrics, level


# ---------------------------------------------------------------------------
# traced run


def per_layer(ops, traced, tracer, outcomes, statuses):
    import numpy as np
    from tracing import layer_metrics
    from workloads import digits

    # the passes ran one after another, so each holds a contiguous run of
    # spans; re-base the parent indices onto that slice
    spans = tracer.spans
    starts = [k for k, s in enumerate(spans) if k == 0 or s[4][0] != spans[k - 1][4][0]]
    passes = [
        [s[:3] + [s[3] - a if s[3] >= 0 else -1] + s[4:] for s in spans[a:b]]
        for a, b in zip(starts, starts[1:] + [len(spans)])
    ]
    per_pass = [layer_metrics(spans) for spans in passes]

    checks = {}
    checks["counts_repeat"] = all(
        all(m[k] == per_pass[0][k] for k in REPEAT_COUNTS) for m in per_pass
    )
    coverage = []
    for p, spans in enumerate(passes):
        top = sum(s[2] - s[1] for s in spans if s[3] < 0)
        wall = sum(a[2] for a in traced["attempts"] if a[1] == p)
        coverage.append(top / wall)
    in_process = all(op.run_traced is None for op in ops)
    checks["span_coverage"] = min(coverage)
    checks["coverage_ok"] = all(
        (c >= MIN_SPAN_COVERAGE if in_process else c > 0) and c <= 1.0 + 1e-9 for c in coverage
    )

    metrics = {}
    for key in per_pass[0]:
        vals = [m[key] for m in per_pass]
        metrics[key] = float(np.median(vals)) if key.endswith("ms") else per_pass[0][key]
    schur = [digits(o["schur_err"]) for o in outcomes.values() if o and o["schur_err"] is not None]
    metrics["measures.extract_digits_min"] = min(schur) if schur else 0.0
    metrics["support.sandwich_ok"] = sum(1 for o in outcomes.values() if o and o["sandwich"])
    one_pass = [s for s, a in zip(statuses, traced["attempts"]) if a[1] == 0]
    for code in ERROR_CODES:
        metrics[f"fail.{code}"] = one_pass.count(code)
    metrics["fail.inaccurate"] = one_pass.count("inaccurate")
    metrics["fail.wrong-bytes"] = one_pass.count("wrong-bytes")
    metrics["fail.other"] = sum(
        1 for s in one_pass if s not in ERROR_CODES and s not in ("ok", "inaccurate", "wrong-bytes")
    )
    return metrics, checks


def ok_rate(run, statuses):
    return sum(s == "ok" for s in statuses) / run["wall"]


def layer_unit(name):
    special = {
        "serialize.bytes": "bytes",
        "quadrature.points_per_root": "points/root",
        "measures.extract_digits_min": "digits",
        "trace.overhead": "ratio",
    }
    return special.get(name, "ms" if name.endswith("ms") else "count")


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "szego_quad" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # one thread everywhere; children inherit this environment
    os.environ.update({k: "1" for k in THREAD_ENV})
    os.environ.pop("SZEGO_QUAD_THREADS", None)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        import szego_quad  # noqa: F401

        build_ops(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    import szego_quad
    import workloads

    ops = build_ops(args.workload, args.seed)
    for op in ops:
        if op.run_traced is not None:
            # expected bytes and exit code: cli.main called in this process
            op.expected["bytes"] = workloads.in_process(op.expected["argv"])

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(ops, seconds, 1)
    in_process = all(op.run_traced is None for op in ops)
    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(untraced["child_rss"])
    traced = tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(szego_quad)
        try:
            traced = run_passes(ops, seconds, 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(str(WORK / f"spans_{args.workload}_{args.seed}.jsonl"))

    import oracle

    self_dev = oracle.self_check(oracle.Oracle())
    orc = oracle.Oracle(cache_dir=str(WORK / "oracle"))
    statuses, outcomes = classify(ops, untraced["attempts"], orc)
    correct = self_dev <= SELF_CHECK_TOL

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    import numpy as np

    print(
        f"env: python={platform.python_version()} numpy={np.__version__} nproc={os.cpu_count()} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} SZEGO_QUAD_THREADS=unset "
        f"closed_loop_clients=1"
    )
    print(f"oracle self-check: max deviation from Lebesgue closed forms {self_dev:.3e}")
    print(f"untraced: passes={untraced['passes']} attempts={len(statuses)} "
          f"wall={untraced['wall']:.3f}s oracle_computed={orc.computed}")
    counts = {}
    for s in statuses:
        counts[s] = counts.get(s, 0) + 1
    print("outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    from workloads import digits

    for i, op in enumerate(ops):
        o = outcomes.get(i)
        ms = 1e3 * statistics.median(a[2] for a in untraced["attempts"] if a[0] == i)
        if o is None:
            status = next(s for s, a in zip(statuses, untraced["attempts"]) if a[0] == i)
            print(f"  op {i:2d} {op.label:<28s} {ms:9.2f} ms  {status}")
            continue
        cols = " ".join(
            f"{k[:-4]}={digits(o[k]):.2f}"
            for k in ("node_err", "weight_err", "exact_err", "schur_err") if o[k] is not None
        )
        print(f"  op {i:2d} {op.label:<28s} {ms:9.2f} ms  {o['status']:<12s} {cols}")

    failed = sum(s != "ok" for s in statuses)
    if args.trace:
        t_statuses, _ = classify(ops, traced["attempts"], orc)
        metrics, checks = per_layer(ops, traced, tracer, outcomes, t_statuses)
        metrics["trace.overhead"] = ok_rate(untraced, statuses) / ok_rate(traced, t_statuses)
        correct = correct and checks["counts_repeat"] and checks["coverage_ok"]
        print(f"traced: passes={traced['passes']} counts_repeat={checks['counts_repeat']} "
              f"min_span_coverage={checks['span_coverage']:.4f}")
        units = {k: layer_unit(k) for k in metrics}
        attempted = len(t_statuses)
        failed = sum(s != "ok" for s in t_statuses)
    else:
        metrics, level = end_to_end(untraced, statuses, outcomes, setup_s, peak_kb)
        units = E2E_UNITS
        attempted = len(statuses)
        print(f"op_ms.tail is p{level:g} of {attempted} timed attempts")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    for leftover in WORK.glob(f"child_{os.getpid()}.*"):
        leftover.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
