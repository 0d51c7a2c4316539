"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py, never by hand.  It imports qlock from the checkout's
src/ directory, builds the workload's fixtures, prints READY, measures ops
back to back until --seconds have passed and at least the workload's
prefix_ops ops are done, checks every output, and prints one RESULT line
of JSON.  With --setup-only it exits right after READY, so that run.py
can time further set-ups.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, verdict

SRC = Path(__file__).resolve().parents[1] / "src"


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ranked = sorted(values)
    return ranked[math.ceil(q * len(ranked)) - 1]


def _import_qlock() -> None:
    sys.path.insert(0, str(SRC))
    import qlock.cli  # noqa: F401
    import qlock
    if Path(qlock.__file__).resolve().parent != SRC / "qlock":
        raise ImportError(f"qlock imported from {qlock.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        setup_span = tracer.begin(tracer.name_id("bench.setup"))
    _import_qlock()
    from qlock import sampling
    if tracer:
        tracer.install()
    sampling.two_qubit_table()
    work = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    work.setup()
    if tracer:
        tracer.finish(setup_span)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    root_id = tracer.name_id("bench.op") if tracer else None
    latencies: list[float] = []
    passed: list = []
    problems: list[str] = []
    chain = hashlib.sha256()
    prefix_counts: dict = {}
    i = 0
    t0 = time.perf_counter()
    while True:
        if tracer:
            tracer.current_op = i
            span = tracer.begin(root_id)
        start = time.perf_counter()
        try:
            out = work.op(i)
            problem = None
        except (Exception, SystemExit) as exc:
            out = None
            problem = f"op raised {exc!r}"
        end = time.perf_counter()
        if tracer:
            tracer.finish(span)
            tracer.enabled = False
        latencies.append(end - start)
        if problem is None:
            problem = verdict(work.check, out)
        if problem is None:
            passed.append(out)
        else:
            problems.append(f"op {i}: {problem}")
        if i < work.prefix_ops:
            chain.update(work.digest(out) if problem is None else b"failed")
        if tracer:
            tracer.enabled = True
        i += 1
        if i == work.prefix_ops and tracer:
            prefix_counts = dict(tracer.counts)
        if end - t0 >= args.seconds and i >= work.prefix_ops:
            break
    wall = end - t0
    if tracer:
        tracer.enabled = False
    run_problem = verdict(work.finish, passed)
    if run_problem:
        problems.append(f"run: {run_problem}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": i,
        "failed": i - len(passed),
        "problems": problems[:10],
        "wall_s": wall,
        "ops_per_s": i / wall,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * _percentile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "prefix_ops": work.prefix_ops,
        "digest": chain.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer:
        result["trace"] = _trace_figures(tracer, work, i, prefix_counts)
        out_dir = Path(args.workdir).parent
        tracer.write(out_dir / f"spans-{args.workload}.tsv.gz")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _trace_figures(tracer: Tracer, work, ops: int, prefix_counts: dict) -> dict:
    summary = tracer.summary(ops, work.prefix_ops)
    lookups, hits = tracer.map_cache(work.prefix_ops)
    counts = {f"{name}.calls": n for name, n in summary["calls"].items()}
    counts.update(prefix_counts)
    counts["protocol.map_lookups"] = lookups
    counts["protocol.map_hits"] = hits
    gaps = [abs(s - w) for s, w in zip(summary["per_op_self_sum"],
                                       summary["per_op_wall"])]
    return {
        "self_s": summary["self_s"],
        "op_share": summary["op_share"],
        "counts": counts,
        "map_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "traced_op_p50_ms": 1e3 * statistics.median(summary["per_op_wall"]),
        "spans_per_op": summary["spans"] / ops,
        "max_self_sum_gap_s": max(gaps),
    }


if __name__ == "__main__":
    sys.exit(main())
