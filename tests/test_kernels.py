"""Batch/scalar parity: the vectorized kernels must agree with the scalar
API, including the sign rule they share."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quatrot.kernels as kernels
from quatrot.linalg import SIGN_EPS, canonical_sign, rank1_factor
from quatrot.rng import Xorshift64Star, random_unit_quaternion
from quatrot.rot3 import BRANCHES, euler_rodrigues, extract_rotation
from quatrot.rot4 import associate_matrix, compose_4d, decompose_4d


@pytest.fixture(scope="module")
def samples():
    rng = Xorshift64Star(900)
    n = 200
    left = np.stack([random_unit_quaternion(rng) for _ in range(n)])
    right = np.stack([random_unit_quaternion(rng) for _ in range(n)])
    return left, right


def test_batch_euler_rodrigues_matches_scalar(samples):
    left, _ = samples
    batch = kernels.batch_euler_rodrigues(left)
    for i, q in enumerate(left):
        np.testing.assert_allclose(batch[i], euler_rodrigues(q), atol=1e-15)


def test_batch_extract_matches_scalar(samples):
    left, _ = samples
    mats = kernels.batch_euler_rodrigues(left)
    params, branch, residual = kernels.batch_extract_rotation(mats)
    for i in range(len(left)):
        scalar = extract_rotation(mats[i])
        np.testing.assert_allclose(params[i], scalar.params, atol=1e-14)
        assert BRANCHES[branch[i]] == scalar.branch
        assert residual[i] == pytest.approx(scalar.residual, abs=1e-14)


def test_batch_compose_matches_scalar(samples):
    left, right = samples
    batch = kernels.batch_compose_4d(left, right)
    for i in range(len(left)):
        np.testing.assert_allclose(batch[i], compose_4d(left[i], right[i]), atol=1e-15)


def test_batch_associate_matches_scalar(samples):
    left, right = samples
    mats = kernels.batch_compose_4d(left, right)
    batch = kernels.batch_associate_matrix(mats)
    for i in range(len(left)):
        np.testing.assert_allclose(batch[i], associate_matrix(mats[i]), atol=1e-16)


def test_batch_decompose_matches_scalar(samples):
    left, right = samples
    mats = kernels.batch_compose_4d(left, right)
    l, r, rank1_res, recon_err = kernels.batch_decompose_4d(mats)
    for i in range(0, len(left), 10):
        dec = decompose_4d(mats[i])
        np.testing.assert_allclose(l[i], dec.left, atol=1e-13)
        np.testing.assert_allclose(r[i], dec.right, atol=1e-13)

    # Leading components in (SIGN_EPS, 1e-9]: smaller than the default tol,
    # yet they decide the sign on every path.
    leads = np.resize([2e-12, -2e-12, 5e-10, -5e-10, 1e-9, -1e-9], 60)
    small = left[:60].copy()
    small[:, 0] = leads
    small[:, 1:] *= (np.sqrt(1.0 - leads**2) / np.linalg.norm(small[:, 1:], axis=1))[:, None]
    sign = np.sign(leads)[:, None]
    mats = kernels.batch_compose_4d(small, right[:60])
    l, r, _, _ = kernels.batch_decompose_4d(mats)
    np.testing.assert_allclose(l, sign * small, rtol=0, atol=1e-13)
    np.testing.assert_allclose(r, sign * right[:60], rtol=0, atol=1e-13)
    assert np.all(l[:, 0] > 0)
    for i in range(len(small)):
        dec = decompose_4d(mats[i])
        u, v, _ = rank1_factor(associate_matrix(mats[i]))
        for got_l, got_r in ((dec.left, dec.right), (u, v)):
            assert got_l[0] > 0
            np.testing.assert_allclose(got_l, l[i], rtol=0, atol=1e-13)
            np.testing.assert_allclose(got_r, r[i], rtol=0, atol=1e-13)


def _noisy_stack(seed, n):
    """Unit quaternion pairs with their 3x3 and 4x4 matrices; every fifth
    matrix carries entrywise noise of at most 1e-13."""
    g = np.random.default_rng(seed)
    left = g.normal(size=(n, 4))
    right = g.normal(size=(n, 4))
    left /= np.linalg.norm(left, axis=1, keepdims=True)
    right /= np.linalg.norm(right, axis=1, keepdims=True)
    noisy = (np.arange(n) % 5 == 0)[:, None, None]
    m3 = kernels.batch_euler_rodrigues(left) + noisy * g.uniform(-1e-13, 1e-13, (n, 3, 3))
    m4 = kernels.batch_compose_4d(left, right) + noisy * g.uniform(-1e-13, 1e-13, (n, 4, 4))
    return left, right, m3, m4


def _kernel_calls(left, right, m3, m4):
    """Each batch kernel with its input stacks, and the output shapes
    (after the leading n) and dtypes it must return."""
    f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
    return {
        "euler_rodrigues": (kernels.batch_euler_rodrigues, (left,), [((3, 3), f8)]),
        "extract_rotation": (kernels.batch_extract_rotation, (m3,), [((4,), f8), ((), i8), ((), f8)]),
        "compose_4d": (kernels.batch_compose_4d, (left, right), [((4, 4), f8)]),
        "associate_matrix": (kernels.batch_associate_matrix, (m4,), [((4, 4), f8)]),
        "decompose_4d": (kernels.batch_decompose_4d, (m4,), [((4,), f8), ((4,), f8), ((), f8), ((), f8)]),
    }


def _outputs(result):
    return list(result) if isinstance(result, tuple) else [result]


@pytest.fixture(scope="module")
def block_stack():
    return _noisy_stack(905, 2 * kernels._BLOCK + 3)


@pytest.mark.parametrize("name", ["euler_rodrigues", "extract_rotation", "compose_4d", "associate_matrix", "decompose_4d"])
def test_block_boundary_rows_match_the_row_alone(block_stack, name):
    fn, args, _ = _kernel_calls(*block_stack)[name]
    full = _outputs(fn(*args))
    b = kernels._BLOCK
    for i in (0, b - 1, b, b + 1, 2 * b, 2 * b + 2):
        alone = _outputs(fn(*(x[i : i + 1] for x in args)))
        for got, want in zip(full, alone):
            assert np.array_equal(got[i], want[0]), (name, i)


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_row_shapes_and_dtypes(block_stack, n):
    for name, (fn, args, spec) in _kernel_calls(*block_stack).items():
        outs = _outputs(fn(*(x[:n] for x in args)))
        assert [(o.shape, o.dtype) for o in outs] == [((n,) + shape, dt) for shape, dt in spec], name


def test_strided_and_fortran_inputs_match_contiguous_copies(block_stack):
    for name, (fn, args, _) in _kernel_calls(*block_stack).items():
        for layout in (lambda x: x[::2], np.asfortranarray):
            views = [layout(x) for x in args]
            want = _outputs(fn(*(np.ascontiguousarray(v) for v in views)))
            for got, expected in zip(_outputs(fn(*views)), want):
                assert np.array_equal(got, expected), name


def test_noisy_rows_match_scalar(block_stack):
    _, _, m3, m4 = block_stack
    rows = np.arange(0, 1000, 5)  # the rows carrying noise
    params, branch, residual = kernels.batch_extract_rotation(m3[rows])
    l, r, _, _ = kernels.batch_decompose_4d(m4[rows])
    for k, i in enumerate(rows):
        ext = extract_rotation(m3[i])
        np.testing.assert_allclose(params[k], ext.params, atol=1e-14)
        assert BRANCHES[branch[k]] == ext.branch
        assert residual[k] == pytest.approx(ext.residual, abs=1e-14)
        dec = decompose_4d(m4[i])
        np.testing.assert_allclose(l[k], dec.left, atol=1e-13)
        np.testing.assert_allclose(r[k], dec.right, atol=1e-13)


def _reference_sign(q) -> float:
    """The sign rule written out: the first entry with |x| > 1e-12 decides."""
    for x in q:
        if x > 1e-12:
            return 1.0
        if x < -1e-12:
            return -1.0
    return 1.0


_EDGES = [
    0.0,
    1e-12,
    math.nextafter(1e-12, math.inf),
    math.nextafter(1e-12, -math.inf),
    5e-10,
]
_ENTRIES = st.one_of(
    st.sampled_from(_EDGES + [-x for x in _EDGES]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ROWS = st.lists(_ENTRIES, min_size=4, max_size=4)
_ZERO_ROWS = st.sampled_from([[0.0] * 4, [-0.0] * 4])


@given(st.lists(st.one_of(_ROWS, _ZERO_ROWS), min_size=1, max_size=12))
def test_sign_rule_scalar_batch_and_reference_agree(rows):
    assert SIGN_EPS == 1e-12
    q = np.array(rows, dtype=np.float64)
    batch = kernels._canonical_signs(q)
    for row, got in zip(q, batch):
        expected = _reference_sign(row)
        assert canonical_sign(row) == expected
        assert got == expected
