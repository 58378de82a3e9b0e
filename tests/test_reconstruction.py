"""One reconstruction error on every 4D path.

The associate map halves Frobenius norms (see ``rot4``), so
||A - compose_4d(l, r)||_F = 2 ||associate_matrix(A) - l r^T||_F, and the
rank-1 step reports the right side. These tests recompose the factors
here, with numpy, and check that ``decompose_4d``, the CLI's
``decompose4`` and ``verify`` and ``batch_decompose_4d`` each report that
distance up to rounding; that the scalar API and the CLI give one set of
bytes; and that the kernel gives them too wherever its associate matrix
has the scalar bytes.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatrot._floats
from cli_cases import cli_outcome
from quatrot import kernels
from quatrot.rot4 import associate_matrix, compose_4d, decompose_4d

EPS = np.finfo(np.float64).eps
# The identity and the recomposition round differently; over 20,000 seeded
# rotations with noise up to 1e-10 they differed by at most 3.9 eps.
BOUND = 8 * EPS


def _signed_permutations():
    """The 192 signed permutation matrices with determinant +1."""
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            m = np.zeros((4, 4))
            m[range(4), perm] = signs
            if np.linalg.det(m) > 0:
                yield m


SIGNED_PERMUTATIONS = np.array(list(_signed_permutations()))


@st.composite
def _rotations(draw):
    """compose_4d of two drawn unit quaternions, or a signed permutation,
    with entrywise noise of at most 1e-10 or none."""
    if draw(st.booleans()):
        l, r = (np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))) for _ in range(2))
        l, r = (q + (np.linalg.norm(q) < 1e-3) for q in (l, r))  # a short draw becomes a safe one
        a = compose_4d(l / np.linalg.norm(l), r / np.linalg.norm(r))
    else:
        a = SIGNED_PERMUTATIONS[draw(st.integers(0, len(SIGNED_PERMUTATIONS) - 1))]
    if draw(st.booleans()):
        a = a + np.array(draw(st.lists(st.floats(-1e-10, 1e-10), min_size=16, max_size=16))).reshape(4, 4)
    return a


def _cli(command, a):
    """The JSON report of ``command`` on a, its numbers read as floats
    (so "-0" is -0.0); the command must exit 0 with nothing on stderr."""
    code, out, err = cli_outcome([command], json.dumps({"matrix": a.tolist()}))[1:]
    assert (code, err) == (0, ""), err
    return json.loads(out, parse_int=float)


PATHS = {
    "decompose_4d": lambda a: decompose_4d(a).reconstruction_error,
    "decompose4": lambda a: _cli("decompose4", a)["reconstruction_error"],
    "verify": lambda a: _cli("verify", a)["reconstruction_error"],
    "batch_decompose_4d": lambda a: kernels.batch_decompose_4d(a[None])[3][0],
}


def _recomposition_distance(a):
    dec = decompose_4d(a)
    return np.linalg.norm(a - compose_4d(dec.left, dec.right))


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=60, deadline=None)
@given(_rotations())
def test_each_path_reports_the_distance_to_the_recomposed_rotation(path, a):
    assert abs(PATHS[path](a) - _recomposition_distance(a)) <= BOUND


@pytest.mark.parametrize("path", sorted(PATHS))
def test_each_path_reports_the_distance_on_every_signed_permutation(path):
    for a in SIGNED_PERMUTATIONS:
        assert abs(PATHS[path](a) - _recomposition_distance(a)) <= BOUND, a


def _bytes(values):
    return np.array(values, dtype=np.float64).tobytes()


def _one_set_of_bytes(a):
    """Whether decompose_4d and decompose4 give the same factors, and both
    and verify the same rank-1 residual and reconstruction error, to the byte."""
    dec, out, ver = decompose_4d(a), _cli("decompose4", a), _cli("verify", a)
    factors = {_bytes([*dec.left, *dec.right]), _bytes([*out["left"].values(), *out["right"].values()])}
    errors = {_bytes([r["rank1_residual"], r["reconstruction_error"]]) for r in (dec._asdict(), out, ver)}
    return len(factors) == len(errors) == 1


@settings(max_examples=60, deadline=None)
@given(_rotations())
def test_the_scalar_api_and_the_cli_give_one_set_of_bytes(a):
    assert _one_set_of_bytes(a)


def _kernel_rows_with_the_scalar_associate(a):
    """(row, scalar outputs, kernel outputs) as bytes for each row of the
    stack a whose ``batch_associate_matrix`` bytes are ``associate_matrix``'s."""
    batch, assoc = kernels.batch_decompose_4d(a), kernels.batch_associate_matrix(a)
    for i, row in enumerate(a):
        if assoc[i].tobytes() == associate_matrix(row).tobytes():
            yield i, [np.asarray(x).tobytes() for x in decompose_4d(row)], [x[i].tobytes() for x in batch]


@settings(max_examples=60, deadline=None)
@given(st.lists(_rotations(), min_size=1, max_size=6))
def test_the_kernel_gives_the_scalar_bytes_where_the_associate_bytes_agree(mats):
    for i, scalar, kernel in _kernel_rows_with_the_scalar_associate(np.array(mats)):
        assert scalar == kernel, i


def test_the_signed_permutations_give_one_set_of_bytes_on_every_path():
    # the kernel's table gives other signs to some zeros of the associate
    # matrix, but on these the four outputs keep the scalar bytes all the same
    batch = kernels.batch_decompose_4d(SIGNED_PERMUTATIONS)
    for i, a in enumerate(SIGNED_PERMUTATIONS):
        assert [np.asarray(x).tobytes() for x in decompose_4d(a)] == [x[i].tobytes() for x in batch], a
        assert _one_set_of_bytes(a), a


def test_the_kernels_associate_values_are_the_scalar_ones_on_the_signed_permutations():
    # equal values; where the bytes differ, only the sign of a zero does
    batch = kernels.batch_associate_matrix(SIGNED_PERMUTATIONS)
    scalar = np.array([associate_matrix(a) for a in SIGNED_PERMUTATIONS])
    assert np.array_equal(batch, scalar)
    differ = np.signbit(batch) != np.signbit(scalar)
    assert np.all(scalar[differ] == 0.0)


def _no_product(*args):
    raise AssertionError("a matrix product")


@pytest.mark.parametrize("command", ["decompose4", "verify"])
def test_the_clis_4d_reports_form_no_matrix_product(command, monkeypatch):
    a = compose_4d([0.6, 0.8, 0.0, 0.0], [0.0, 0.0, 0.6, 0.8]) + 1e-12
    want = _cli(command, a)
    monkeypatch.setattr(quatrot._floats, "_compose", _no_product)
    monkeypatch.setattr(quatrot._floats, "_mat_mul", _no_product)
    assert _cli(command, a) == want
