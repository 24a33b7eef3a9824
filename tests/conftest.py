"""Subprocesses started by the tests (`python -m spectramap.cli`) import
spectramap from this checkout's `src/`, as the `pythonpath` setting in
pyproject.toml arranges for the test process itself."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + _paths)
