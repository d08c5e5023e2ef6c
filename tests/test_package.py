"""The package namespace: each name in loccopy.__all__ is looked up in its
home module on every access and never stored in the package."""
import importlib
import inspect
import sys

import pytest

import loccopy

# The brute-force four-particle oracle and its tensor helpers, which live
# in tests/oracles.py and are no part of the package.
ORACLE_NAMES = (
    "FourPartyState", "WIRING", "apply_local", "assemble",
    "partial_trace_second", "permute_factors",
)
# The oracle names that were once in loccopy.__all__: their home module is
# now tests/oracles.py, and the package resolves them from nowhere.
MOVED_TO_ORACLES = tuple(name for name in ORACLE_NAMES if name != "WIRING")


def home_of(name):
    return importlib.import_module(loccopy._HOME_OF.get(name, "oracles"))


@pytest.mark.parametrize("name", (*loccopy.__all__, *MOVED_TO_ORACLES))
def test_name_resolves_from_its_home_module(name):
    home = home_of(name)
    value = getattr(home, name)
    if inspect.isfunction(value) or inspect.isclass(value):
        assert value.__module__ == home.__name__
    if name in MOVED_TO_ORACLES:
        assert home.__name__ == "oracles"
        assert not hasattr(loccopy, name)
        assert name not in dir(loccopy)
    else:
        assert getattr(loccopy, name) is value
        assert name in dir(loccopy)


@pytest.mark.parametrize("name", (*loccopy.__all__, *MOVED_TO_ORACLES))
def test_name_follows_a_patch_of_its_home_module(monkeypatch, name):
    home = home_of(name)
    original = getattr(home, name)
    replacement = object()
    with monkeypatch.context() as mp:
        mp.setattr(home, name, replacement)
        if name in MOVED_TO_ORACLES:
            # the package's lazy lookup never reaches the oracle module
            assert not hasattr(loccopy, name)
        else:
            assert getattr(loccopy, name) is replacement
    assert getattr(home, name) is original
    if name not in MOVED_TO_ORACLES:
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


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_name_is_not_a_package_attribute(name):
    import loccopy.simulator
    import loccopy.tensor

    assert name not in loccopy.__all__
    for module in (loccopy, loccopy.simulator, loccopy.tensor):
        assert not hasattr(module, name)
