"""The package namespace: each name in loccopy.__all__ is looked up in its
home module on every access and never stored in the package."""
import importlib
import inspect
import sys

import pytest

import loccopy


@pytest.mark.parametrize("name", loccopy.__all__)
def test_name_resolves_from_its_home_module(name):
    home = importlib.import_module(loccopy._HOME_OF[name])
    value = getattr(loccopy, name)
    assert value is getattr(home, name)
    if inspect.isfunction(value) or inspect.isclass(value):
        assert value.__module__ == home.__name__
    assert name in dir(loccopy)


@pytest.mark.parametrize("name", loccopy.__all__)
def test_name_follows_a_patch_of_its_home_module(monkeypatch, name):
    home = importlib.import_module(loccopy._HOME_OF[name])
    original = getattr(home, name)
    replacement = object()
    with monkeypatch.context() as mp:
        mp.setattr(home, name, replacement)
        assert getattr(loccopy, name) is replacement
    assert getattr(loccopy, name) is original
    assert name not in vars(loccopy)


def test_submodules_import_on_access():
    for name in ("cli", "config", "copying", "serialization", "tensor"):
        assert getattr(loccopy, name) is sys.modules[f"loccopy.{name}"]
        assert name in dir(loccopy)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        loccopy.no_such_name
    assert not hasattr(loccopy, "NumericConfig")
