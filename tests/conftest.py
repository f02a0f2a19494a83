"""Settings shared by the whole test suite."""

import os
from pathlib import Path

from hypothesis import settings

import mondrian_forest

# Property tests are derandomized and keep no example database, so every
# run checks the same examples and the suite's outcome does not drift.
settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("suite")

# Tests that run the CLI as `python -m mondrian_forest` in a child process
# pass it this environment; the child must import the package under test
# even when pytest put it on sys.path (pyproject's `pythonpath`) rather
# than PYTHONPATH.
_package_root = str(Path(mondrian_forest.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_package_root, os.environ.get("PYTHONPATH")) if p)
