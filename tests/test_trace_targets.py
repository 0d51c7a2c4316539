"""The benchmark's span tracer must still find every function it wraps.

bench/spans.py wraps qlock functions and methods by name from outside the
package; a rename or deletion in qlock would otherwise break traced
benchmark runs without failing any test.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("qlock_bench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_targets():
    return [(span, mod, path) for span, targets in _load_spans().TARGETS.items()
            for mod, path in targets]


@pytest.mark.parametrize("span,mod,path", _load_targets())
def test_trace_target_resolves(span, mod, path):
    owner = importlib.import_module(f"qlock.{mod}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer rebinds methods through the class __dict__, so a method
    # must be defined on the named class itself, not inherited
    found = vars(owner).get(attr) if outer else getattr(owner, attr, None)
    assert found is not None, f"{span}: qlock.{mod}.{path} is gone"


def test_every_hook_feeds_from_a_traced_span():
    # a hook fires only when its span name is wrapped; a key that is not
    # a TARGETS name would leave its counter (e.g. sampling.gates) at 0
    spans = _load_spans()
    assert set(spans.HOOKS) <= set(spans.TARGETS)


# Installs the tracer as a traced benchmark run does, runs two commands in
# process and prints, per command, the spans entered by name and the
# sampling.gates counter.
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
sys.path.insert(0, sys.argv[1])
import qlock.cli
spec = importlib.util.spec_from_file_location("qlock_bench_spans", sys.argv[2])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
rows = []
for argv in json.loads(sys.argv[3]):
    first, gates = len(tracer.name), tracer.counts["sampling.gates"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = qlock.cli.main(argv + ["--seed", "abc"])
    entered = {}
    for nid in tracer.name[first:]:
        entered[tracer.names[nid]] = entered.get(tracer.names[nid], 0) + 1
    rows.append([code, entered, tracer.counts["sampling.gates"] - gates])
print(json.dumps(rows))
"""


def test_traced_commands_enter_the_draw_span_per_circuit():
    # bench/test_bench.py needs every design draw inside the traced
    # sampling.sample_design_circuit span; this is the tier-1 guard
    commands = [["moments", "--ensemble", "design", "--n", "2",
                 "--samples", "20"],
                ["verify-chernoff", "--n", "3", "--eps", "0.1", "--K", "16",
                 "--trials", "1"]]
    res = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "src"),
                          str(SPANS_PATH), json.dumps(commands)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert len(rows) == 2
    # the sampling.gates counts of the gate-list circuits: the counter
    # counts gates, however a circuit holds them
    for (code, entered, gates), circuits, want in zip(rows, [20, 16],
                                                      [2723, 1833]):
        assert code == 0
        assert entered["cli.main"] == 1
        assert entered["sampling.sample_design_circuit"] == circuits
        assert gates == want
