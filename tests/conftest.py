import os
import random
from pathlib import Path

import pytest

# the `python -m qlock.cli` subprocesses of the tests import this tree's
# package, as the pytest.ini pythonpath makes the tests themselves do
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
