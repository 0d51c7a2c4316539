"""The benchmark's gated workloads must keep passing their own checks.

bench/workloads.py passes encrypt's result through cipher_to_text,
cipher_from_text and decrypt, and runs qlock moments and verify-chernoff
through cli.main; a change to the protocol API or to that CLI output
would break benchmark runs without failing any test, since
bench/test_bench.py is not part of the default test run.  The module is
loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PATH = ROOT / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("qlock_bench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_protocol_ops_pass_their_checks(tmp_path):
    workloads = _load_workloads()
    work = workloads.Protocol(1, tmp_path)
    work.setup()
    outs = [work.op(i) for i in range(4)]
    # op 3 also decrypts with a wrong key
    assert [out["wrong"] is not None for out in outs] == [False] * 3 + [True]
    for out in outs:
        assert workloads.verdict(work.check, out) is None
    assert workloads.verdict(work.finish, outs) is None


@pytest.mark.parametrize("name", ["certify", "chernoff"])
def test_cli_ops_pass_their_checks(name, tmp_path):
    workloads = _load_workloads()
    work = workloads.WORKLOADS[name](1, tmp_path)
    work.setup()
    outs = [work.op(i) for i in range(3)]
    for out in outs:
        assert workloads.verdict(work.check, out) is None
    # certify pools the three ops' moments into the design band test
    assert workloads.verdict(work.finish, outs) is None
