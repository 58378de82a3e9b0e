"""The package loads its names lazily and binds each to its defining object."""

import importlib

import pytest

import quatrot

SUBMODULES = ("cli", "errors", "kernels", "linalg", "quaternion", "rng", "rot3", "rot4")


def test_star_import_binds_each_name_to_its_defining_modules_object():
    namespace = {}
    exec("from quatrot import *", namespace)
    for name in quatrot.__all__:
        value = namespace[name]
        assert getattr(importlib.import_module(value.__module__), name) is value, name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    assert getattr(quatrot, name) is importlib.import_module(f"quatrot.{name}")


def test_dir_lists_all():
    assert set(quatrot.__all__) <= set(dir(quatrot))
    assert set(SUBMODULES) <= set(dir(quatrot))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quatrot.no_such_name
    assert not hasattr(quatrot, "no_such_name")

