"""The benchmark's tracer wraps spectramap functions by name.

`bench/spans.py` lists them in `WRAPPED` ({layer: function names}) and
fetches each one with getattr when it installs its spans, so a rename
or deletion in `src/` would make every traced benchmark run fail.  This
test reads that list from the file, without importing or running the
tracer, and checks every name against its module.
"""

import ast
import importlib
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _wrapped():
    with open(SPANS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no WRAPPED")


WRAPPED = _wrapped()


@pytest.mark.parametrize("layer", sorted(WRAPPED))
def test_every_wrapped_name_exists_in_its_module(layer):
    mod = importlib.import_module(f"spectramap.{layer}")
    missing = [name for name in WRAPPED[layer]
               if not callable(getattr(mod, name, None))]
    assert not missing, f"spectramap.{layer} lacks {missing}"
