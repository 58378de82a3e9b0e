import numpy as np
import pytest

from quatrot.errors import NonFiniteInput, ZeroMatrix
from quatrot.linalg import (
    as_mat3,
    as_mat4,
    as_vec4,
    check_orthonormal,
    det3,
    det4,
    mat_mul,
    rank1_factor,
)
from quatrot.quaternion import left_matrix, right_matrix
from quatrot.rng import Xorshift64Star, random_unit_quaternion


def test_constructors_reject_nan_inf():
    with pytest.raises(NonFiniteInput):
        as_vec4([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(NonFiniteInput):
        as_mat3(np.full((3, 3), np.inf))
    with pytest.raises(NonFiniteInput):
        as_mat4(np.zeros((3, 3)))


def test_constructors_copy():
    src = np.eye(3)
    out = as_mat3(src)
    out[0, 0] = 5.0
    assert src[0, 0] == 1.0


def test_mat_mul_identity():
    assert np.array_equal(mat_mul(np.eye(4), np.eye(4)), np.eye(4))


def test_mat_mul_right_identity_quaternion():
    ml = left_matrix([0.0, 1.0, 0.0, 0.0])
    mr = right_matrix([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(mat_mul(ml, mr), ml)


def _product_expansion(l, r):
    # independent oracle: the 16 entries of M_L M_R written out longhand
    a, b, c, d = l
    p, q, r_, s = r
    return np.array(
        [
            [a * p - b * q - c * r_ - d * s, -a * q - b * p + c * s - d * r_,
             -a * r_ - b * s - c * p + d * q, -a * s + b * r_ - c * q - d * p],
            [b * p + a * q - d * r_ + c * s, -b * q + a * p + d * s + c * r_,
             -b * r_ + a * s - d * p - c * q, -b * s - a * r_ - d * q + c * p],
            [c * p + d * q + a * r_ - b * s, -c * q + d * p - a * s - b * r_,
             -c * r_ + d * s + a * p + b * q, -c * s - d * r_ + a * q - b * p],
            [d * p - c * q + b * r_ + a * s, -d * q - c * p - b * s + a * r_,
             -d * r_ - c * s + b * p - a * q, -d * s + c * r_ + b * q + a * p],
        ]
    )


def test_mat_mul_matches_entrywise_expansion():
    rng = Xorshift64Star(101)
    for _ in range(50):
        l = random_unit_quaternion(rng)
        r = random_unit_quaternion(rng)
        got = mat_mul(left_matrix(l), right_matrix(r))
        np.testing.assert_allclose(got, _product_expansion(l, r), atol=1e-15)


def test_check_orthonormal_identity():
    report = check_orthonormal(np.eye(4), 1e-9)
    assert report.max_abs_gram_deviation == 0.0
    assert report.determinant == 1.0
    assert report.is_orthonormal


def test_check_orthonormal_reflection():
    report = check_orthonormal(np.diag([1.0, 1.0, -1.0]), 1e-9)
    assert report.max_abs_gram_deviation == 0.0
    assert report.determinant == -1.0


def test_check_orthonormal_perturbed_identity():
    m = np.eye(4)
    m[0, 0] = 1.0 + 1e-6
    report = check_orthonormal(m, 1e-9)
    # Gram deviation is (1 + 1e-6)^2 - 1, computed by hand
    assert report.max_abs_gram_deviation == pytest.approx((1 + 1e-6) ** 2 - 1, rel=1e-12)
    assert report.determinant == pytest.approx(1 + 1e-6, rel=1e-15)
    assert not report.is_orthonormal


def test_check_orthonormal_rejects_bad_tol():
    # from tol 1 up the windows around det +1 and det -1 overlap
    for tol in (0.0, float("nan"), float("inf"), 1.0, 2.0):
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            check_orthonormal(np.eye(3), tol)


def test_rank1_factor_rejects_bad_tol():
    # as check_orthonormal: with a NaN tol no matrix is "zero", so the zero
    # matrix would give NaN factors, and tol 5 would call 0.25 I zero
    for m, tol in ((np.zeros((4, 4)), float("nan")), (np.eye(4), float("inf")), (np.eye(4), 1.0),
                   (0.25 * np.eye(4), 5.0), (np.eye(4), 0.0)):
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            rank1_factor(m, tol)


def test_det_oracle_against_numpy():
    rng = np.random.RandomState(7)
    for _ in range(20):
        m3 = rng.randn(3, 3)
        m4 = rng.randn(4, 4)
        assert det3(m3) == pytest.approx(np.linalg.det(m3), rel=1e-10)
        assert det4(m4) == pytest.approx(np.linalg.det(m4), rel=1e-10)


def test_transpose_gram_deviation_agrees_for_rotations():
    rng = Xorshift64Star(55)
    for _ in range(20):
        a = mat_mul(left_matrix(random_unit_quaternion(rng)),
                    right_matrix(random_unit_quaternion(rng)))
        dev_t = check_orthonormal(a.T, 1e-9).max_abs_gram_deviation
        dev = check_orthonormal(a, 1e-9).max_abs_gram_deviation
        assert abs(dev - dev_t) <= 1e-13


def test_rank1_basis_outer():
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    u, v, residual = rank1_factor(m, 1e-9)
    np.testing.assert_array_equal(u, [1, 0, 0, 0])
    np.testing.assert_array_equal(v, [1, 0, 0, 0])
    assert residual == 0.0


def test_rank1_exact_outer():
    m = np.outer([0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    u, v, residual = rank1_factor(m, 1e-9)
    np.testing.assert_array_equal(u, [0, 1, 0, 0])
    np.testing.assert_array_equal(v, [1, 0, 0, 0])
    assert residual == 0.0


def test_rank1_scaled_identity_has_large_residual():
    # scaled identity is maximally far from rank 1 (all singular values equal;
    # verified against an SVD in a throwaway script: best possible is sqrt(3)/2)
    _, _, residual = rank1_factor(np.eye(4) / 2.0, 1e-9)
    assert residual >= 0.5


def test_rank1_zero_matrix_rejected():
    with pytest.raises(ZeroMatrix):
        rank1_factor(np.zeros((4, 4)), 1e-9)


def test_rank1_overflowing_frobenius_norm_rejected():
    # finite entries whose squares overflow: every column norm is inf
    with pytest.raises(NonFiniteInput, match="Frobenius norm overflows to inf"):
        rank1_factor(np.full((4, 4), 1e200), 1e-9)


def test_rank1_random_outer_products_roundtrip():
    rng = Xorshift64Star(77)
    for _ in range(100):
        u0 = random_unit_quaternion(rng)
        v0 = random_unit_quaternion(rng)
        scale = 0.1 + 5.0 * rng.uniform()
        m = scale * np.outer(u0, v0)
        u, v, residual = rank1_factor(m, 1e-9)
        assert residual <= 1e-13 * max(scale, 1.0)
        # factors recovered up to a paired sign flip
        direct = max(np.max(np.abs(u - u0)), np.max(np.abs(v - v0)))
        flipped = max(np.max(np.abs(u + u0)), np.max(np.abs(v + v0)))
        assert min(direct, flipped) <= 1e-13
        # reconstruction with the folded scale reproduces m
        fro = np.sqrt(np.sum(m * m))
        assert np.max(np.abs(fro * np.outer(u, v) - m)) <= 1e-13 * max(scale, 1.0)


def test_rank1_sign_convention():
    u0 = np.array([-0.5, 0.5, -0.5, 0.5])
    v0 = np.array([0.0, 1.0, 0.0, 0.0])
    u, v, _ = rank1_factor(np.outer(u0, v0), 1e-9)
    assert u[0] > 0  # first significant component of u made positive
    np.testing.assert_allclose(u, -u0, atol=1e-15)
    np.testing.assert_allclose(v, -v0, atol=1e-15)


def test_rank1_sign_scan_uses_sign_eps_not_tol():
    # A leading component between SIGN_EPS (1e-12) and tol (1e-9) still
    # decides the sign, as in decompose_4d and batch_decompose_4d.
    u0 = np.array([5e-10, -0.6, 0.8, 0.0])
    u0 /= np.sqrt(np.sum(u0 * u0))
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    u, v, _ = rank1_factor(np.outer(u0, v0), 1e-9)
    assert u[0] > 0
    np.testing.assert_allclose(u, u0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v, v0, rtol=0, atol=1e-15)
