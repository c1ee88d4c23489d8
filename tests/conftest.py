import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

# Every child interpreter a test starts (the CLI, the bench scripts, the
# fresh-import probes) finds the package of this checkout: pyproject's
# pythonpath reaches only the pytest process itself.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("det", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("det")


@pytest.fixture
def rng():
    return random.Random(0)
