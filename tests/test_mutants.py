"""The mutant suite (mutants/run.py, outside tier-1) must still apply.

Each mutant replaces an anchor text that must occur exactly once in
src/qlock, and names the tests that kill it; a refactor that moves an
anchored line or renames a killer would otherwise leave the suite
reporting an orphaned mutant only when someone runs it.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location(
        "qlock_mutants", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_anchor_occurs_once_in_src_qlock(mutant):
    texts = {p.name: p.read_text()
             for p in (ROOT / "src" / "qlock").glob("*.py")}
    assert texts[mutant["module"]].count(mutant["anchor"]) == 1
    assert sum(t.count(mutant["anchor"]) for t in texts.values()) == 1
    assert mutant["patch"] != mutant["anchor"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_killers_exist(mutant):
    assert mutant["killers"]
    for node in mutant["killers"]:
        path, *names = node.split("::")
        text = (ROOT / path).read_text()
        *classes, func = names
        for cls in classes:
            assert re.search(rf"^class {cls}\b", text, re.M), node
        assert re.search(rf"^\s*def {func}\(", text, re.M), node
