import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatrot.errors import NotUnit
from quatrot.linalg import check_orthonormal, mat_mul
from quatrot.quaternion import as_unit, conjugate, left_matrix, quat_mul, right_matrix
from quatrot._floats import Xorshift64Star, _random_unit_quaternion


def test_identity_is_neutral():
    q = np.array([0.3, -0.1, 0.7, 0.2])
    np.testing.assert_array_equal(quat_mul([1, 0, 0, 0], q), q)
    np.testing.assert_array_equal(quat_mul(q, [1, 0, 0, 0]), q)


def test_i_times_j_is_k():
    np.testing.assert_array_equal(
        quat_mul([0, 1, 0, 0], [0, 0, 1, 0]), [0, 0, 0, 1]
    )


def test_product_norm_is_multiplicative():
    rng = np.random.RandomState(3)
    for _ in range(50):
        a = rng.randn(4)
        b = rng.randn(4)
        got = np.linalg.norm(quat_mul(a, b))
        assert got == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)


def test_conjugate():
    np.testing.assert_array_equal(conjugate([1, 0, 0, 0]), [1, 0, 0, 0])
    np.testing.assert_array_equal(conjugate([1, 2, 3, 4]), [1, -2, -3, -4])


def test_unit_times_conjugate_is_identity():
    rng = Xorshift64Star(11)
    for _ in range(100):
        q = _random_unit_quaternion(rng)
        got = quat_mul(q, conjugate(q))
        assert np.max(np.abs(got - [1, 0, 0, 0])) <= 1e-13


def test_as_unit_window():
    np.testing.assert_allclose(as_unit([1 + 5e-7, 0, 0, 0]), [1, 0, 0, 0])
    with pytest.raises(NotUnit):
        as_unit([1.1, 0, 0, 0])
    with pytest.raises(NotUnit):
        as_unit([0, 0, 0, 0])


def test_left_matrix_identity_and_i():
    np.testing.assert_array_equal(left_matrix([1, 0, 0, 0]), np.eye(4))
    np.testing.assert_array_equal(
        left_matrix([0, 1, 0, 0]),
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    )


def test_right_matrix_identity_and_i():
    np.testing.assert_array_equal(right_matrix([1, 0, 0, 0]), np.eye(4))
    np.testing.assert_array_equal(
        right_matrix([0, 1, 0, 0]),
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    )


def test_multiplication_matrices_realize_the_products():
    rng = Xorshift64Star(12)
    for _ in range(100):
        l = _random_unit_quaternion(rng)
        r = _random_unit_quaternion(rng)
        q = np.array([rng.normal() for _ in range(4)])
        assert np.max(np.abs(left_matrix(l) @ q - quat_mul(l, q))) <= 1e-13
        assert np.max(np.abs(right_matrix(r) @ q - quat_mul(q, r))) <= 1e-13


def test_left_and_right_matrices_commute():
    rng = Xorshift64Star(13)
    for _ in range(50):
        ml = left_matrix(_random_unit_quaternion(rng))
        mr = right_matrix(_random_unit_quaternion(rng))
        assert np.max(np.abs(mat_mul(ml, mr) - mat_mul(mr, ml))) <= 1e-13


def test_multiplication_matrices_are_rotations():
    rng = Xorshift64Star(14)
    for _ in range(50):
        for m in (left_matrix(_random_unit_quaternion(rng)),
                  right_matrix(_random_unit_quaternion(rng))):
            report = check_orthonormal(m, 1e-9)
            assert report.max_abs_gram_deviation <= 1e-13
            assert report.determinant == pytest.approx(1.0, abs=1e-13)


def test_associativity_on_unit_quaternions():
    rng = Xorshift64Star(15)
    for _ in range(100):
        a = _random_unit_quaternion(rng)
        b = _random_unit_quaternion(rng)
        c = _random_unit_quaternion(rng)
        lhs = quat_mul(quat_mul(a, b), c)
        rhs = quat_mul(a, quat_mul(b, c))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0), st.floats(-1e150, 1e150))
_QUATS = st.lists(_ENTRIES, min_size=4, max_size=4)


def _hamilton(a, b):
    """The Hamilton product written out entry by entry."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]


@given(_QUATS, _QUATS)
def test_quat_mul_bytes_are_the_written_out_product(a, b):
    """M_R(b) a leaves every bit, signed zeros included, as the written-out
    product gives it: each entry has the same products, in the same order."""
    assert quat_mul(a, b).tobytes() == np.array(_hamilton(a, b)).tobytes()

