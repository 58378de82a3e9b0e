"""One conformance table for the cores that ``kernels`` shares with the
scalar API: each runs on Python floats, row by row, and on a component-major
stack of the same rows with ``kernels._Rows``, and must give equal bytes."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatrot import _floats, kernels
from quatrot._floats import IsometryKind

# name -> (shapes of the arguments of one row, the call given those and a namespace)
CORES = {
    "_er_entries": ([(4,)], lambda q, xp: _floats._er_entries(*q)),
    "_products": ([(3, 3)], lambda m, xp: [_floats._products(m, kind) for kind in IsometryKind]),
    "_associate": ([(4, 4)], lambda a, xp: _floats._associate(a)),
    "_ordered_sum": ([(5,)], lambda terms, xp: _floats._ordered_sum(terms)),
    "_first_max": ([(4,), (4, 2)], lambda keys, rows, xp: _floats._first_max(keys, rows, xp)),
    "_sign": ([(4,)], lambda q, xp: _floats._sign(q, xp)),
    "_residual": ([(4, 4), (4,)], lambda table, q, xp: _floats._residual(table, q, xp)),
    "_solve": ([(4, 4)], lambda table, xp: _floats._solve(table, xp)),
}


def _named_cores() -> set:
    """The functions of ``_floats`` that kernels.py names, as ``_floats.name``
    or in its ``from ._floats import``."""
    names = set()
    for node in ast.walk(ast.parse(Path(inspect.getfile(kernels)).read_text())):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_floats":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "_floats":
            names.update(alias.name for alias in node.names)
    return {name for name in names if inspect.isfunction(getattr(_floats, name))}


def test_the_table_lists_every_core_kernels_names():
    """Plus ``_associate`` and ``_residual``, which ``_products`` and
    ``_solve`` run on rows."""
    assert _named_cores() >= {"_er_entries", "_products", "_solve", "_first_max", "_sign", "_ordered_sum"}
    assert sorted((_named_cores() | {"_associate", "_residual"}) - CORES.keys()) == []


# Few distinct values, so that ties are common, both zeros, NaN and the infinities.
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0, 2.0, -2.0, math.nan, math.inf, -math.inf]),
    st.floats(),
)


def _nested(shape):
    if not shape:
        return _ENTRY
    return st.lists(_nested(shape[1:]), min_size=shape[0], max_size=shape[0])


def _leaves(out) -> list:
    """The numbers of a core's result in order: floats, or length-b rows."""
    if isinstance(out, (list, tuple)) or (isinstance(out, np.ndarray) and out.ndim > 1):
        return [leaf for part in out for leaf in _leaves(part)]
    return [out]


def _bytes(values) -> bytes:
    """float64 bytes, every NaN as math.nan: when both operands of ``+`` or
    ``*`` are NaN, CPython's floats return the second and numpy the first,
    so which sign and payload a NaN result carries differs, not where."""
    x = np.array(values, dtype=np.float64)
    x[np.isnan(x)] = math.nan
    return x.tobytes()


@pytest.mark.parametrize("name", sorted(CORES))
@given(data=st.data())
def test_each_core_gives_the_float_bytes_on_component_rows(name, data):
    shapes, core = CORES[name]
    stack = data.draw(st.lists(st.tuples(*map(_nested, shapes)), min_size=1, max_size=9), label="rows")
    want, kept = [], []
    for args in stack:
        try:
            want.append(_leaves(core(*args, _floats._Floats)))
        except (ZeroDivisionError, ValueError):
            # _solve's domain excludes a largest square <= 0: math.sqrt of a
            # negative one raises, and so does the division by a seed of 0,
            # where rows give NaN or divide by 0. No finite 3x3 reaches it:
            # its four squares sum to 1 (test_kernels checks the largest > 0).
            assert name == "_solve"
            continue
        kept.append(args)
    if not kept:
        return
    rows = [np.ascontiguousarray(np.moveaxis(np.array(arg, dtype=np.float64), 0, -1)) for arg in zip(*kept)]
    with np.errstate(all="ignore"):  # the NaN and inf the entries make on purpose
        out = core(*rows, kernels._Rows)
    got = [np.broadcast_to(np.asarray(leaf, dtype=np.float64), (len(kept),)) for leaf in _leaves(out)]
    for i, values in enumerate(want):
        assert _bytes(values) == _bytes([leaf[i] for leaf in got]), (name, kept[i])


# Terms as the cores make them, each an abs: no -0.0.
_TERM = st.one_of(st.sampled_from([0.0, 1.0, math.inf, math.nan]), st.floats(0.0))


@given(st.integers(2, 16).flatmap(lambda k: st.lists(st.lists(_TERM, min_size=k, max_size=k), min_size=1, max_size=5)))
def test_both_maxes_give_nan_from_any_position(stack):
    """The NaN rule of both namespaces: ``max`` is NaN when a term is,
    wherever it is; of terms without NaN, the largest."""
    rows = list(np.array(stack).T)
    got = kernels._Rows.max(rows)
    for i, terms in enumerate(stack):
        want = _floats._Floats.max(terms)
        assert np.float64(want).tobytes() == got[i].tobytes()
        assert (want != want) == any(t != t for t in terms)
