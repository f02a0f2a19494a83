"""The benchmark's tracer looks functions up by name: every name must resolve."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest


def _traced_names():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TRACED]


TRACED = _traced_names()


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"mondrian_forest.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))
