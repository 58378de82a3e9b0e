"""The package loads its names lazily and binds each to its defining
object, the README lists them by module, and its result types are
immutable named tuples."""

import importlib
import math
import re
from pathlib import Path

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


def test_the_readmes_public_names_are_all_by_module():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, names in re.findall(r"^- `(\w+)`: (.*)$", section, re.M):
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, name
            listed[name] = module
    assert listed == quatrot._EXPORTS
    assert f"holds {len(quatrot.__all__)} names" in section


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quatrot.no_such_name
    assert not hasattr(quatrot, "no_such_name")



RESULT_TYPES = {
    "OrthogonalityReport": ("max_abs_gram_deviation", "determinant", "tolerance_used"),
    "AngleReport": ("alpha", "cos_alpha"),
    "ExtractionResult": ("params", "branch", "residual"),
    "QuatPairDecomposition": ("left", "right", "rank1_residual", "reconstruction_error"),
}


@pytest.mark.parametrize("name", sorted(RESULT_TYPES))
def test_result_types_keep_their_fields_repr_and_immutability(name):
    cls = getattr(quatrot, name)
    fields = RESULT_TYPES[name]
    assert cls._fields == fields
    values = [0.5 * i for i in range(len(fields))]
    result = cls(*values)
    assert result == cls(**dict(zip(fields, values)))
    assert [getattr(result, field) for field in fields] == values
    assert repr(result) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for field in (fields[0], "another_field"):
        with pytest.raises(AttributeError):
            setattr(result, field, 1.0)


def test_an_orthogonality_report_is_orthonormal_within_its_tolerance():
    report = quatrot.OrthogonalityReport
    assert report(1e-9, 1.0, 1e-9).is_orthonormal
    assert not report(2e-9, 1.0, 1e-9).is_orthonormal
    assert not report(math.nan, 1.0, 1e-9).is_orthonormal
