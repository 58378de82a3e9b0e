import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatrot import rot3, rot4
from quatrot._floats import _det3, _det4, _mat_mul, _orthogonality
from quatrot.errors import NonFiniteInput, QuatrotError, ZeroMatrix
from quatrot.linalg import (
    _float_rows,
    _report,
    check_orthonormal,
    mat_mul,
    rank1_factor,
)
from quatrot.quaternion import left_matrix, right_matrix
from quatrot.rng import Xorshift64Star, random_rotation, random_unit_quaternion


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


# every public function that takes a tol, with a matrix it accepts
_TOL_CALLS = {
    "check_orthonormal": lambda tol: check_orthonormal(np.eye(3), tol),
    "rank1_factor": lambda tol: rank1_factor(np.outer([1.0, 0, 0, 0], [0, 1.0, 0, 0]), tol),
    "classify": lambda tol: rot3.classify(np.eye(3), tol),
    "extract_rotation": lambda tol: rot3.extract_rotation(np.eye(3), tol),
    "extract_rotoreflection": lambda tol: rot3.extract_rotoreflection(-np.eye(3), tol),
    "rotation_angle": lambda tol: rot3.rotation_angle(np.eye(3), "rotation", tol),
    "embed_4d": lambda tol: rot3.embed_4d(np.eye(3), "rotation", tol),
    "decompose_4d": lambda tol: rot4.decompose_4d(np.eye(4), tol),
}


@pytest.mark.parametrize("name", sorted(_TOL_CALLS))
@pytest.mark.parametrize("tol", [None, "x", 1j, [1e-9], float("nan"), 0, 1], ids=repr)
def test_tol_that_is_not_a_real_number_in_the_unit_interval_is_a_value_error(name, tol):
    with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
        _TOL_CALLS[name](tol)


@pytest.mark.parametrize("name", sorted(_TOL_CALLS))
def test_numpy_float_tol_is_accepted(name):
    _TOL_CALLS[name](np.float32(1e-9))


# One rejected input per function of _TOL_CALLS: check_orthonormal reports
# it off the gate, the others raise.
_REJECTED = {
    "check_orthonormal": lambda tol: check_orthonormal(np.diag([1, 1, 1.1]), tol),
    "rank1_factor": lambda tol: rank1_factor(np.zeros((4, 4)), tol),
    "classify": lambda tol: rot3.classify(np.diag([1, 1, 1.1]), tol),
    "extract_rotation": lambda tol: rot3.extract_rotation(np.diag([1, 1, 1.1]), tol),
    "extract_rotoreflection": lambda tol: rot3.extract_rotoreflection(np.diag([-1, -1, -1.1]), tol),
    "rotation_angle": lambda tol: rot3.rotation_angle(np.diag([1, 1, 1.1]), "rotation", tol),
    "embed_4d": lambda tol: rot3.embed_4d(np.diag([1, 1, 1.1]), "rotation", tol),
    "decompose_4d": lambda tol: rot4.decompose_4d(np.diag([1, 1, 1, 1.1]), tol),
}


def _tol_outcome(name, tol):
    try:
        return repr(_REJECTED[name](tol))
    except QuatrotError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(_TOL_CALLS))
@pytest.mark.parametrize("tol", [Fraction(1, 10**9), np.float64(1e-9), np.float32(1e-9)], ids=repr)
def test_a_real_tol_acts_as_its_float(name, tol):
    """Any real tol is read as float(tol): the same error class and message
    (a Fraction's own format() takes no ".3e" before Python 3.12), and a
    report whose tolerance_used is that float."""
    assert _tol_outcome(name, tol) == _tol_outcome(name, float(tol))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _gate_inputs(draw):
    """A finite 3x3 or 4x4 matrix: an exact or noisy rotation, one of
    signed zeros and ones, one of subnormals, signed zeros and ones, a
    rotation scaled to about 1e154 or 1e200 (where Gram entries overflow
    and the deviation turns NaN), or any finite floats."""
    n = draw(st.sampled_from((3, 4)))
    m = random_rotation(draw(st.integers(0, 2**64 - 1)), n)
    form = draw(st.sampled_from(("exact", "noisy", "signed_zeros", "subnormal", "huge", "1e200", "any")))
    if form == "noisy":
        noise = draw(st.sampled_from((1e-15, 1e-12, 1e-9, 1e-6, 1e-3)))
        unit = np.array(draw(st.lists(st.floats(-1, 1), min_size=n * n, max_size=n * n)))
        m = m + noise * unit.reshape(n, n)
    elif form == "signed_zeros":
        m = np.array(draw(st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0)), min_size=n * n, max_size=n * n)))
        m = m.reshape(n, n)
    elif form == "subnormal":
        tiny = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324)), st.floats(-2.2e-308, 2.2e-308))
        m = np.array(draw(st.lists(tiny, min_size=n * n, max_size=n * n))).reshape(n, n)
    elif form == "huge":
        m = m * draw(st.floats(1e153, 1e155))
    elif form == "1e200":
        m = m * draw(st.floats(1e199, 1e201))
    elif form == "any":
        finite = st.floats(allow_nan=False, allow_infinity=False)
        m = np.array(draw(st.lists(finite, min_size=n * n, max_size=n * n))).reshape(n, n)
    return m, draw(st.sampled_from((1e-12, 1e-9, 1e-3, 0.5)))


@given(_gate_inputs())
def test_report_on_the_rows_is_check_orthonormal_bytes(case):
    m, tol = case
    n = len(m)
    rows = _float_rows(m, (n, n), f"mat{n}")
    assert [_bits(x) for x in _report(rows, tol)] == [_bits(x) for x in check_orthonormal(m, tol)]


def _gate_oracle(rows) -> tuple:
    """(deviation, determinant) from the full Gram matrix: the product of
    the columns by ``_mat_mul``, then max |G - I| over all 9 or 16 entries,
    NaN if any entry is NaN (numpy's max)."""
    cols = list(zip(*rows))
    devs = [abs(g - (i == j)) for i, row in enumerate(_mat_mul(cols, cols)) for j, g in enumerate(row)]
    dev = math.nan if any(d != d for d in devs) else max(devs)
    return dev, (_det3(rows) if len(rows) == 3 else _det4(rows))


@pytest.mark.parametrize("n", [3, 4])
def test_the_gate_reads_each_gram_entry(n):
    """Column j of I moved by 2**-10 along column i: Gram entry (i, j) alone
    sets the deviation (2**-10, or 2**-9 + 2**-20 on the diagonal)."""
    for i in range(n):
        for j in range(i, n):
            rows = np.eye(n)
            rows[i, j] += 2.0**-10
            rows = rows.tolist()
            assert _bits(_orthogonality(rows, 1e-9)[0]) == _bits(_gate_oracle(rows)[0]), (i, j)
            assert _orthogonality(rows, 1e-9)[0] == (2.0**-10 if i < j else 2.0**-9 + 2.0**-20)


@settings(max_examples=400)
@given(_gate_inputs())
def test_the_gate_reads_the_full_gram_matrix_from_its_upper_triangle(case):
    """_orthogonality forms only the entries i <= j of A^T A, and gives the
    bytes of the full product's deviation, signed zeros, subnormals and
    overflow (inf - inf = NaN) included."""
    m, tol = case
    rows = m.tolist()
    report = _orthogonality(rows, tol)
    assert [_bits(x) for x in report] == [_bits(x) for x in (*_gate_oracle(rows), tol)]


def test_det_oracle_against_numpy():
    rng = np.random.RandomState(7)
    for _ in range(20):
        m3 = rng.randn(3, 3)
        m4 = rng.randn(4, 4)
        assert check_orthonormal(m3).determinant == pytest.approx(np.linalg.det(m3), rel=1e-10)
        assert check_orthonormal(m4).determinant == pytest.approx(np.linalg.det(m4), rel=1e-10)


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
