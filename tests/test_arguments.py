"""How the scalar API reads its array arguments.

Each public function reads each argument once (``linalg._float_rows``):
a float64 ndarray as it stands, whatever its memory layout, anything
else through one ``np.array``. So an argument is never copied, and these
tests check what that must not change: no function writes to an
argument or returns a view of one, a NaN or inf anywhere in any
argument gives the same error as before, and int, bool, float32 and
nested-tuple arguments give the bytes of their float64 values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parity_cases
from quatrot import linalg, quaternion, rot3, rot4
from quatrot.errors import NonFiniteInput


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.sqrt(v @ v)


Q = _unit([0.3, -0.5, 0.7, 0.2])
R = _unit([-0.1, 0.4, 0.6, -0.8])
M3 = rot3.euler_rodrigues(Q)
M4 = rot4.compose_4d(Q, R)
POINT = np.array([3.0, -4.0, 12.0])

# label: (function, float arguments, arguments with entries in {0, 1},
#         the name each array argument's errors carry, None for the others)
CASES = {
    "as_unit": (quaternion.as_unit, (Q,), ([0, 1, 0, 0],), ("vec4",)),
    "quat_mul": (quaternion.quat_mul, (Q, R), ([0, 1, 0, 0], [0, 0, 1, 1]), ("vec4", "vec4")),
    "conjugate": (quaternion.conjugate, (Q,), ([1, 1, 0, 1],), ("vec4",)),
    "norm": (quaternion.norm, (Q,), ([1, 1, 0, 1],), ("vec4",)),
    "left_matrix": (quaternion.left_matrix, (Q,), ([0, 0, 1, 0],), ("vec4",)),
    "right_matrix": (quaternion.right_matrix, (R,), ([0, 0, 0, 1],), ("vec4",)),
    "as_vec4": (linalg.as_vec4, (Q,), ([1, 0, 1, 1],), ("vec4",)),
    "as_mat3": (linalg.as_mat3, (M3,), (np.eye(3)[[1, 2, 0]],), ("mat3",)),
    "as_mat4": (linalg.as_mat4, (M4,), (np.eye(4)[[1, 0, 3, 2]],), ("mat4",)),
    "mat_mul3": (linalg.mat_mul, (M3, -M3.T), (np.eye(3)[[1, 2, 0]], np.eye(3)[[0, 2, 1]]), ("matrix", "matrix")),
    "mat_mul4": (linalg.mat_mul, (M4.T, M4), (np.eye(4)[[1, 0, 3, 2]], np.eye(4)[[3, 2, 1, 0]]), ("matrix", "matrix")),
    "det3": (linalg.det3, (M3,), (np.eye(3)[[0, 2, 1]],), ("mat3",)),
    "det4": (linalg.det4, (M4,), (np.eye(4)[[1, 0, 3, 2]],), ("mat4",)),
    "check_orthonormal3": (linalg.check_orthonormal, (M3,), (np.eye(3)[[1, 2, 0]],), ("mat3",)),
    "check_orthonormal4": (linalg.check_orthonormal, (M4,), (np.eye(4)[[1, 0, 3, 2]],), ("mat4",)),
    "rank1_factor": (
        linalg.rank1_factor, (rot4.associate_matrix(M4),), (np.outer([0, 1, 1, 0], [1, 0, 0, 1]),), ("mat4",)
    ),
    "euler_rodrigues": (rot3.euler_rodrigues, (Q,), ([0, 0, 1, 0],), ("vec4",)),
    "rotoreflection_matrix": (rot3.rotoreflection_matrix, (Q,), ([1, 0, 0, 0],), ("vec4",)),
    "classify": (rot3.classify, (M3,), (np.eye(3)[[0, 2, 1]],), ("mat3",)),
    "extract_rotation": (rot3.extract_rotation, (M3,), (np.eye(3)[[1, 2, 0]],), ("mat3",)),
    "extract_rotoreflection": (rot3.extract_rotoreflection, (-M3,), (np.eye(3)[[0, 2, 1]],), ("mat3",)),
    "rotation_angle": (rot3.rotation_angle, (M3, "rotation"), (np.eye(3)[[2, 0, 1]], "rotation"), ("mat3", None)),
    "embed_4d": (rot3.embed_4d, (-M3, "rotoreflection"), (np.eye(3)[[1, 0, 2]], "rotoreflection"), ("mat3", None)),
    "displaced_angle_cos": (rot3.displaced_angle_cos, (POINT, 0.5, "rotation"), ([1, 0, 1], 0.5, "rotation"),
                            ("point", None, None)),
    "compose_4d": (rot4.compose_4d, (Q, R), ([0, 1, 0, 0], [1, 0, 0, 0]), ("vec4", "vec4")),
    "associate_matrix": (rot4.associate_matrix, (M4,), (np.eye(4)[[1, 0, 3, 2]],), ("mat4",)),
    "decompose_4d": (rot4.decompose_4d, (M4,), (np.eye(4)[[1, 0, 3, 2]],), ("mat4",)),
}


def _strided(a):
    big = np.zeros(tuple(2 * s for s in a.shape))
    big[tuple(slice(None, None, 2) for _ in a.shape)] = a
    return big[tuple(slice(None, None, 2) for _ in a.shape)]


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _tuples(a):
    return tuple(_tuples(row) for row in a) if a.ndim > 1 else tuple(a.tolist())


# float64 arrays in every layout the functions now read without a copy
LAYOUTS = {
    "c": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "strided": _strided,
    "read_only": _read_only,
    "broadcast": lambda a: np.broadcast_to(a, a.shape),
}

# other argument types, each converted once
CONVERSIONS = {
    "int": lambda a: a.astype(np.int64),
    "bool": lambda a: a.astype(bool),
    "float32": lambda a: a.astype(np.float32),
    "list": lambda a: a.tolist(),
    "tuple": _tuples,
}


def _with(args, names, form):
    """args with each array argument put in form."""
    return tuple(form(np.array(a, dtype=np.float64)) if n else a for a, n in zip(args, names))


def _arrays(result):
    if isinstance(result, np.ndarray):
        yield result
    elif isinstance(result, tuple):
        for x in result:
            yield from _arrays(x)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("label", sorted(CASES))
def test_no_function_writes_to_or_returns_a_view_of_an_argument(label, layout):
    fn, args, _, names = CASES[label]
    args = _with(args, names, LAYOUTS[layout])
    before = [a.tobytes() if isinstance(a, np.ndarray) else a for a in args]
    result = fn(*args)
    assert [a.tobytes() if isinstance(a, np.ndarray) else a for a in args] == before
    for out in _arrays(result):
        for a in args:
            assert not (isinstance(a, np.ndarray) and np.shares_memory(out, a))
    # the layout does not change a bit of the result
    assert parity_cases.encode(result) == parity_cases.outcome(fn, _with(args, names, np.ascontiguousarray), {})


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("label", ["as_vec4", "as_mat3", "as_mat4"])
def test_the_as_constructors_return_fresh_c_ordered_copies(label, layout):
    fn, args, _, names = CASES[label]
    (arg,) = _with(args, names, LAYOUTS[layout])
    out = fn(arg)
    assert out.dtype == np.float64 and out.flags.c_contiguous and out.flags.owndata and out.flags.writeable
    assert not np.shares_memory(out, arg)
    assert out.tobytes() == np.ascontiguousarray(arg).tobytes()


POSITIONS = [(label, i) for label, (_, _, _, names) in sorted(CASES.items()) for i, n in enumerate(names) if n]
BAD = st.sampled_from([np.nan, np.inf, -np.inf])


@pytest.mark.parametrize("label, position", POSITIONS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_non_finite_entry_anywhere_gives_the_same_error(label, position, data):
    fn, args, _, names = CASES[label]
    bad = np.array(args[position], dtype=np.float64)
    bad.flat[data.draw(st.integers(0, bad.size - 1), label="index")] = data.draw(BAD, label="value")
    form = data.draw(st.sampled_from(sorted(LAYOUTS) + ["list", "tuple"]), label="form")
    make = LAYOUTS.get(form) or CONVERSIONS[form]
    args = list(args)
    args[position] = make(bad)
    with pytest.raises(NonFiniteInput) as exc:
        fn(*args)
    assert type(exc.value) is NonFiniteInput and exc.value.code == "non_finite"
    assert str(exc.value) == f"{names[position]}: entries must be finite"


@pytest.mark.parametrize("conversion", sorted(CONVERSIONS))
@pytest.mark.parametrize("label", sorted(CASES))
def test_other_argument_types_give_the_bytes_of_their_float64_values(label, conversion):
    fn, floats, zeros_and_ones, names = CASES[label]
    convert = CONVERSIONS[conversion]
    for args in (zeros_and_ones, floats) if conversion not in ("int", "bool") else (zeros_and_ones,):
        given_args = tuple(convert(np.asarray(a)) if n else a for a, n in zip(args, names))
        as_float64 = tuple(np.array(a, dtype=np.float64) if n else a for a, n in zip(given_args, names))
        assert parity_cases.outcome(fn, given_args, {}) == parity_cases.outcome(fn, as_float64, {})
