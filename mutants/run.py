"""Mutant suite: shows that tier-1 tests fail when the code they guard is
broken.

Each mutant is one small textual patch to a module of src/qlock: its
anchor text, which must occur exactly once in that module, is replaced.
The run copies src, tests and pytest.ini to a temporary directory, applies
one patch there, and runs only the tests listed as the mutant's killers.
A mutant survives when those tests pass.  The repository itself is never
edited.

    python mutants/run.py

runs every mutant.  Exit status 0 means every mutant was killed; 1 that
one survived, could not be run or lost its anchor.  tests/test_mutants.py
checks every anchor and killer in tier-1, so a refactor that moves an
anchored line or renames a killer updates the mutant with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
APPLY_GATE = ("tests/test_stabilizer.py::TestGateCodes::"
              "test_each_gate_conjugates_every_row_as_its_unitary")

# name, module, anchor, replacement, killing tests
MUTANTS = [
    {"name": "sdg-carry", "module": "stabilizer.py",
     "anchor": "d1 ^= d0 & x if k == 1 else x & ~d0",
     "patch": "d1 ^= d0 & x if k == 1 else d0 & x",
     "killers": [APPLY_GATE]},
    {"name": "cz-without-d1", "module": "stabilizer.py",
     "anchor": "d1 ^= xs[a] & xs[b]",
     "patch": "pass",
     "killers": [APPLY_GATE]},
    {"name": "y-d1-or", "module": "stabilizer.py",
     "anchor": "d1 ^= xs[a] ^ zs[a]",
     "patch": "d1 ^= xs[a] | zs[a]",
     "killers": [APPLY_GATE]},
    {"name": "cnot-swapped", "module": "stabilizer.py",
     "anchor": "xs[b] ^= xs[a]\n                zs[a] ^= zs[b]",
     "patch": "xs[a] ^= xs[b]\n                zs[b] ^= zs[a]",
     "killers": [APPLY_GATE]},
    {"name": "maurer-cut-inclusive", "module": "security.py",
     "anchor": "total / K < cut for total in sums",
     "patch": "total / K <= cut for total in sums",
     "killers": ["tests/test_cli.py::TestCsvContracts::"
                 "test_maurer_tail_flags_are_exact",
                 "tests/test_security.py::TestEmpiricalMaurer::"
                 "test_a_mean_on_the_float_cut_is_not_a_tail"]},
    {"name": "halvings-off-by-one", "module": "stabilizer.py",
     "anchor": "        s += p == 0.5\n    return s\n",
     "patch": "        s += p == 0.5\n    return s + 1\n",
     "killers": ["tests/test_stabilizer.py::TestOverlap::test_hadamard"]},
]


def anchor_count(mutant: dict) -> int:
    """How often the mutant's anchor occurs in its module."""
    text = (ROOT / "src" / "qlock" / mutant["module"]).read_text()
    return text.count(mutant["anchor"])


def run_mutant(mutant: dict) -> str:
    """'killed' (a killer failed), 'SURVIVED' (every killer passed),
    'ERROR' (pytest could not run them) or 'ANCHOR GONE', with the
    killers' summary line."""
    if anchor_count(mutant) != 1:
        return "ANCHOR GONE"
    with tempfile.TemporaryDirectory(prefix="qlock-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pytest.ini", work / "pytest.ini")
        path = work / "src" / "qlock" / mutant["module"]
        path.write_text(path.read_text().replace(mutant["anchor"],
                                                 mutant["patch"]))
        # the copy's own src is the one on the path, as pytest.ini and
        # tests/conftest.py set it
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant["killers"]],
            cwd=work, env=env, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    summary = lines[-1] if lines else res.stderr.strip()
    # pytest exits 1 when a test failed, 0 when all passed, and otherwise
    # when it could not collect or run them
    verdict = {0: "SURVIVED", 1: "killed"}.get(res.returncode, "ERROR")
    return f"{verdict}: {summary}"


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        verdict = run_mutant(mutant)
        survivors += not verdict.startswith("killed")
        print(f"{mutant['name']}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} not killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
