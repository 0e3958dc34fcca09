"""The library names the benchmark's tracer wraps still resolve.

``perfbench/spans.py`` looks up every ``LAYERS`` entry in the package when a
``Tracer`` is built, so deleting or renaming a traced name breaks every
traced benchmark run; this catches it with the library's own tests.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_tracer_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # raises AttributeError (or KeyError for a method) on a missing name
    importlib.import_module("spans").Tracer()
