"""The benchmark's span tracer must still find every function it wraps.

bench/spans.py wraps qlock functions and methods by name from outside the
package; a rename or deletion in qlock would otherwise break traced
benchmark runs without failing any test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
