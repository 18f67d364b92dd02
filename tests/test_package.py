"""Tests of the package surface."""

import importlib
import pkgutil

import pytest

import biholo

MODULES = sorted(m.name for m in pkgutil.iter_modules(biholo.__path__, "biholo."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
