"""The benchmark's tracer wraps engine functions by name; these tests fail
when a change removes or moves one of them, which would otherwise only show
when ``perfbench/run.py --trace 1`` runs."""

from __future__ import annotations

import importlib
import os
import sys

import pytest

from multimodel import executor
from multimodel.array_store import StoredArray
from multimodel.bridge import to_array

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


@pytest.fixture(scope="module")
def spans():
    """``perfbench/spans.py``, imported without writing bytecode there."""
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


def test_patched_names_are_defined_on_their_owners(spans):
    assert spans._PATCHES
    for owner, attr, name, _ in spans._PATCHES:
        assert callable(owner.__dict__.get(attr)), \
            f"{getattr(owner, '__name__', owner)}.{attr} (span {name})"
    assert callable(executor.__dict__.get("dispatch_join"))
    assert callable(StoredArray.__dict__.get("pin"))


def test_conversion_is_traced_and_restored(spans, tmp_path):
    (tmp_path / "cells.csv").write_text("r,c,v\n0,0,1.5\n1,2,2.0\n")
    eng = executor.Engine(executor.EngineConfig(data_dir=str(tmp_path)))
    tracer = spans.Tracer()
    with tracer.recording():
        eng.run("execute(openTable('cells').toArray({'r', 'c'}, {'v'}))")
    assert tracer.calls("bridge.to_array") == 1
    assert executor.to_array is to_array
