"""The package's lazy re-exports behave like plain module attributes."""

import importlib

import pytest

import ssrmlab


@pytest.mark.parametrize("name", ssrmlab.__all__)
def test_export_is_the_defining_modules_object(name):
    value = getattr(ssrmlab, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("ssrmlab.")
    assert getattr(module, name) is value


def test_dir_lists_all_and_every_export():
    names = dir(ssrmlab)
    assert "__all__" in names and "__version__" in names
    assert set(ssrmlab.__all__) <= set(names)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ssrmlab.no_such_name
    assert not hasattr(ssrmlab, "no_such_name")


def test_star_import():
    namespace = {}
    exec("from ssrmlab import *", namespace)
    assert {name: namespace[name] for name in ssrmlab.__all__} == {name: getattr(ssrmlab, name) for name in ssrmlab.__all__}
