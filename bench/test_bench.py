"""Self-test of the benchmark.

It shows that every output check rejects a corrupted output, that traced
and untraced runs of a seed give the same outputs and the traced runs the
same counts, that the printed result follows BENCHMARK.json, and that the
benchmark refuses a directory without the qlock sources.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import TARGETS  # noqa: E402
from workloads import WORKLOADS, verdict  # noqa: E402


@pytest.fixture(scope="module")
def workdir():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="test-", dir=run.OUT_DIR) as d:
        yield Path(d)


def _ready(name: str, workdir: Path, seed: int = 5):
    work = WORKLOADS[name](seed, workdir)
    work.setup()
    return work


def _replace_value(text: str, key: str, value: str) -> str:
    out, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text,
                     flags=re.M)
    assert n == 1
    return out


def test_protocol_checks_reject_corruption(workdir):
    work = _ready("protocol", workdir)
    out = work.op(3)  # op 3 also decrypts with a wrong key
    assert out["wrong"] is not None
    assert verdict(work.check, out) is None
    assert verdict(work.finish, [out]) is None
    x = out["x"]
    flipped = ("1" if x[0] == "0" else "0") + x[1:]
    bad = [dict(out, got=(flipped, True)), dict(out, got=(x, False)),
           dict(out, text=out["text"].replace("+", "-", 1)),
           dict(out, wrong=("01" * 31 + "2", False)),
           dict(out, wrong=("0", False))]
    for corrupted in bad:
        assert verdict(work.check, corrupted) is not None
    work.codebook_text = work.codebook_text.replace("H", "S", 1)
    assert verdict(work.finish, [out]) is not None


def test_certify_checks_reject_corruption(workdir):
    work = _ready("certify", workdir)
    outs = [work.op(i) for i in range(3)]
    assert all(verdict(work.check, o) is None for o in outs)
    assert verdict(work.finish, outs) is None
    out = outs[0]
    bad = [_replace_value(out, "mean4", "0.9"),
           _replace_value(out, "mean2", "nan"),
           _replace_value(out, "samples", "399"),
           _replace_value(out, "d", "8"),
           out.replace("stderr2 = ", "stderr2: "),
           "\n".join(ln for ln in out.splitlines()
                     if not ln.startswith("mean4"))]
    for corrupted in bad:
        assert verdict(work.check, corrupted) is not None
    # pooled band test: moments 10% off the Haar values must fail
    off = [_replace_value(o, "mean2", "0.275") for o in outs]
    assert verdict(work.finish, off) is not None
    assert verdict(work.finish, []) is not None


def test_chernoff_checks_reject_corruption(workdir):
    work = _ready("chernoff", workdir)
    out = work.op(0)
    assert verdict(work.check, out) is None
    header, row, summary = out.splitlines()
    trial, lam, eps_hat, violated = row.split(",")
    bad = [f"{header}\n{trial},{lam},0.001,{violated}\n{summary}\n",
           f"{header}\n{trial},nan,{eps_hat},{violated}\n{summary}\n",
           f"{header}\n{trial},{lam},{eps_hat},true\n{summary}\n",
           f"{header}\n{row}\n" + summary.replace("K=832", "K=831") + "\n",
           f"{header}\n{row}\n" + summary.replace("violation_freq=0",
                                                   "violation_freq=0.5") + "\n",
           f"{header}\n{summary}\n"]
    for corrupted in bad:
        assert verdict(work.check, corrupted) is not None


def test_lockprobe_checks_reject_corruption(workdir):
    work = _ready("lockprobe", workdir)
    out = work.op(0)
    assert verdict(work.check, out) is None
    holevo = float(out.splitlines()[0].split(" = ")[1])
    bad = [_replace_value(out, "gap", "-0.1"),
           _replace_value(out, "gap", "0"),
           _replace_value(out, "computational", repr(holevo + 0.01)),
           _replace_value(out, "holevo", "nan"),
           "\n".join(out.splitlines()[:-1]),
           out.replace("holevo = ", "holevo: ")]
    for corrupted in bad:
        assert verdict(work.check, corrupted) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    # --seconds 0 runs exactly the prefix ops that digests and counts cover
    plain = run.run_workload(name, 11, 0, 0)
    traced = [run.run_workload(name, 11, 0, 1) for _ in range(2)]
    assert run.is_correct(plain), plain["problems"]
    assert len(plain["setup_samples"]) == run.SETUPS
    for t in traced:
        assert run.is_correct(t), t["problems"]
        assert t["digest"] == plain["digest"]
    assert traced[0]["trace"]["counts"] == traced[1]["trace"]["counts"]
    assert traced[0]["trace"]["counts"]["sampling.two_qubit_table.calls"] >= 1


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_follows_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed",
         "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS["certify"](3, ROOT).prefix_ops
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name in ("sampling.sample_design_circuit.self_s", "setup_s"):
        if name in result["metrics"]:
            assert result["metrics"][name]["value"] > 0


def test_benchmark_json_shape():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    # every per-layer metric must name a span or a counter the run records
    spans = set(TARGETS) | {"bench.setup", "bench.op"}
    counters = {"sampling.gates", "dense.eigvalsh.dim_sum",
                "protocol.map_lookups", "protocol.map_hits",
                "protocol.map_cache_hit_ratio", "bench.traced_op_p50_ms",
                "bench.spans_per_op"}
    for m in spec["per_layer"]:
        base, _, kind = m["name"].rpartition(".")
        assert m["name"] in counters or (kind in ("self_s", "calls")
                                         and base in spans), m["name"]


def test_refuses_directory_without_sources():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=run.OUT_DIR) as d:
        bare = Path(d)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
