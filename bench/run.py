"""The qlock benchmark.

One run of one workload, as BENCHMARK.json's command:

    python3 bench/run.py --workload protocol --seed 1 --seconds 35 --trace 0

prints every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) with its unit and op count, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  Each run starts
fresh interpreters (bench/worker.py) and imports qlock from src/ of the
checkout it sits in; without src/qlock it exits with code 2.

The whole suite, interleaving the workloads over several seeds and
reporting the run-to-run spread, the tracing overhead, where each op's
time goes, and whether digests and counts repeat:

    python3 bench/run.py --suite --seeds 1,2,3 [--save FILE]

--workload and --workloads also accept lockprobe, which BENCHMARK.json
does not list (see spec.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench-out"
BASELINE = HERE / "baseline.json"  # a saved --suite summary
SETUPS = 3  # fresh set-ups per untraced run; setup_s is their median
WORKER_TIMEOUT_S = 150  # a worker still running after this is killed


class BenchError(RuntimeError):
    pass


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _spawn(argv: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until READY, its RESULT or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        result = None
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # left the loop by an exception
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return ready, result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the worker's result plus the set-up timings."""
    if not (ROOT / "src" / "qlock" / "__init__.py").is_file():
        raise BenchError(f"no qlock sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as workdir:
        base = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--workdir", workdir]
        setups = []
        if not trace:
            for _ in range(SETUPS - 1):
                setups.append(_spawn(base + ["--setup-only"])[0])
        ready, result = _spawn(base)
    if result is None:
        raise BenchError("worker printed no result")
    setups.append(ready)
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def is_correct(result: dict) -> bool:
    ok = result["failed"] == 0 and not result["problems"]
    if "trace" in result:
        # the self times of an op's spans must add up to its traced wall time
        ok = ok and result["trace"]["max_self_sum_gap_s"] <= 1e-6
    return ok


def metric_value(result: dict, name: str) -> float:
    if name in result:
        return result[name]
    tr = result["trace"]
    if name.endswith(".self_s"):
        return tr["self_s"].get(name[:-len(".self_s")], 0.0)
    if name == "protocol.map_cache_hit_ratio":
        return tr["map_cache_hit_ratio"]
    if name.startswith("bench.") and name[len("bench."):] in tr:
        return tr[name[len("bench."):]]
    return tr["counts"].get(name, 0)


def report(result: dict, trace: int) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    spec = _benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": metric_value(result, m["name"]),
                           "unit": m["unit"]} for m in declared}
    ops = result["ops"]
    seen = {}
    if BASELINE.is_file():
        base = json.loads(BASELINE.read_text())["workloads"]
        seen = base.get(result["workload"], {}).get("metrics", {})
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {trace}  ops {ops}  failed {result['failed']}  "
          f"digest {result['digest']} (first {result['prefix_ops']} ops)")
    for name, m in metrics.items():
        spread = (f"  run-to-run IQR/median {seen[name]['spread']:.3f} over "
                  f"{len(seen[name]['values'])} baseline runs"
                  if name in seen else "")
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:6s} ({ops} ops)"
              f"{spread}")
    if not trace:
        setups = " ".join(f"{s:.3f}" for s in result["setup_samples"])
        print(f"  setup samples (s): {setups}")
        if ops >= 100:
            print(f"  {'op_p90_ms':44s} {result['op_p90_ms']:14.6g} ms     "
                  f"({ops} ops)")
        else:
            print(f"  {'op_p90_ms':44s} {'n/a':>14s}        "
                  f"(fewer than 100 ops)")
        print(f"  {'fail_ratio':44s} {result['failed'] / ops:14.6g} -      "
              f"({result['failed']}/{ops} ops)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    return {"correct": is_correct(result), "attempted": ops,
            "failed": result["failed"], "metrics": metrics}


# -- suite ------------------------------------------------------------------


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def _machine(result: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": result["python"], "numpy": result["numpy"],
            "nproc": os.cpu_count(), "cpu_model": model}


def suite(workloads: list[str], seeds: list[int], seconds: float) -> dict:
    """Untraced runs on every seed, interleaving workloads, then two traced
    runs per workload on the first seed.  Returns the summary it prints."""
    spec = _benchmark_spec()
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_workload(w, seed, seconds, 0))
            print(f"# {w} seed {seed}: ops {runs[w][-1]['ops']} "
                  f"failed {runs[w][-1]['failed']}", file=sys.stderr)
    summary = {"seeds": seeds, "seconds": seconds,
               "machine": _machine(runs[workloads[0]][0]), "workloads": {}}
    ok = True
    for w in workloads:
        traced = [run_workload(w, seeds[0], seconds, 1) for _ in range(2)]
        untraced = runs[w]
        ws: dict = {"runs": len(untraced),
                    "ops": [r["ops"] for r in untraced],
                    "attempted": sum(r["ops"] for r in untraced),
                    "failed": sum(r["failed"] for r in untraced),
                    "metrics": {}}
        print(f"\n== {w}: {len(untraced)} untraced runs, ops per run "
              f"{min(ws['ops'])}..{max(ws['ops'])}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'IQR/med':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in untraced]
            med, q1, q3, spread = _spread(values)
            ws["metrics"][m["name"]] = {"unit": m["unit"], "median": med,
                                        "q1": q1, "q3": q3, "spread": spread,
                                        "values": values}
            print(f"  {m['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {m['bound']:6.2f}  {m['unit']}")
        if min(ws["ops"]) >= 100:
            p90 = statistics.median(r["op_p90_ms"] for r in untraced)
            print(f"  {'op_p90_ms':16s} {p90:12.6g}  ms (median of runs)")
            ws["op_p90_ms"] = p90
        print(f"  fail_ratio {ws['failed']}/{ws['attempted']}")
        overhead = (statistics.median(t["trace"]["traced_op_p50_ms"]
                                      for t in traced)
                    / untraced[0]["op_p50_ms"] - 1.0)
        same_digest = all(t["digest"] == untraced[0]["digest"] for t in traced)
        same_counts = traced[0]["trace"]["counts"] == traced[1]["trace"]["counts"]
        sums_ok = all(is_correct(t) for t in traced)
        ws.update(tracing_overhead=overhead, digests_equal=same_digest,
                  counts_repeat=same_counts, traced_correct=sums_ok,
                  counts=traced[0]["trace"]["counts"])
        share = traced[0]["trace"]["op_share"]
        top = sorted(share.items(), key=lambda kv: -kv[1])[:6]
        ws["op_share"] = dict(top)
        print(f"  tracing overhead on op_p50_ms (seed {seeds[0]}): "
              f"{100 * overhead:+.1f}%")
        print(f"  digests traced == untraced: {same_digest}; counts repeat "
              f"across two traced runs: {same_counts}; traced checks and "
              f"self-time sums: {sums_ok}")
        print("  share of traced op time by self time: "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in top))
        ok = ok and same_digest and same_counts and sums_ok \
            and ws["failed"] == 0 and all(is_correct(r) for r in untraced)
        summary["workloads"][w] = ws
    summary["ok"] = ok
    print(f"\nsuite {'ok' if ok else 'FAILED'}")
    return summary


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=_benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true",
                    help="run every workload on every --seeds value")
    ap.add_argument("--seeds", default="1",
                    help="comma-separated seeds for --suite")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in _benchmark_spec()["workloads"]),
                    help="comma-separated workloads for --suite")
    ap.add_argument("--save", help="write the suite summary as JSON here")
    args = ap.parse_args(argv)
    try:
        if args.suite:
            summary = suite(args.workloads.split(","),
                            [int(s) for s in args.seeds.split(",")],
                            args.seconds)
            if args.save:
                Path(args.save).write_text(json.dumps(summary, indent=1) + "\n")
            return 0 if summary["ok"] else 1
        if not args.workload:
            ap.error("--workload is required without --suite")
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
