"""Every exported name resolves: a deletion that leaves a name behind in an
``__all__`` fails here rather than at a user's ``from ... import *``."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import multimodel

# __main__ runs the CLI when imported
MODULES = ["multimodel"] + sorted(
    f"multimodel.{m.name}" for m in pkgutil.iter_modules(multimodel.__path__)
    if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate entries"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names what it lacks: {missing}"
