"""4D rotations as products of left/right quaternion multiplications.

A 4D rotation matrix A factors as M_L(L) @ M_R(R) for a unique pair of
unit quaternions (L, R), up to the simultaneous sign flip (-L, -R). The
bridge between A and the pair is its associate matrix: the 4x4 array of
quarter-sums of signed entries of A, which equals the outer product of
L's components with R's components whenever A is a genuine rotation (it
then has rank 1 and unit Frobenius norm). Decomposition is therefore:
associate matrix -> rank-1 factorization (``linalg.rank1_factor``), whose
unit, sign-canonical factors are (L, R), unique up to that common sign.

The associate map is linear: on the 16 entries it is 0.25 S for a +-1
matrix S with S^T S = 4 I. So S/2 is orthogonal and the map halves every
Frobenius norm exactly. It sends compose_4d(l, r) to the outer product
l r^T, so for any 4x4 A and quaternions l, r
    ||A - compose_4d(l, r)||_F = 2 ||associate_matrix(A) - l r^T||_F,
which lets ``kernels.batch_decompose_4d`` measure its reconstruction
error without recomposing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotARotation, RankDeficiency
from .linalg import (
    DEFAULT_TOL,
    OrthogonalityReport,
    _require_orthonormal,
    as_mat4,
    as_vec4,
    check_orthonormal,
    mat_mul,
    rank1_factor,
)
from .quaternion import _left_rows, _right_rows, _unit


@dataclass(frozen=True)
class QuatPairDecomposition:
    """Left/right unit quaternion factors of a 4D rotation.

    rank1_residual measures how far the associate matrix is from rank 1;
    reconstruction_error is ||A - M_L(left) M_R(right)||_F. Both are
    reported rather than hidden so callers can apply their own thresholds
    to noisy inputs.
    """

    left: np.ndarray
    right: np.ndarray
    rank1_residual: float
    reconstruction_error: float


def compose_4d(l, r) -> np.ndarray:
    """4D rotation matrix M_L(l) @ M_R(r) for unit quaternions l, r."""
    l = _unit(as_vec4(l).tolist())
    r = _unit(as_vec4(r).tolist())
    return mat_mul(np.array(_left_rows(l)), np.array(_right_rows(r)))


def associate_matrix(a) -> np.ndarray:
    """Associate matrix of a 4x4 matrix: signed quarter-sums of entries.

    Defined for any 4x4 input; the rank-1 and unit-norm properties hold
    exactly when the input is a rotation matrix. Linear in the input.
    """
    rows = as_mat4(a).tolist()
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    return 0.25 * np.array(
        [
            [
                a00 + a11 + a22 + a33,
                a10 - a01 - a32 + a23,
                a20 + a31 - a02 - a13,
                a30 - a21 + a12 - a03,
            ],
            [
                a10 - a01 + a32 - a23,
                -a00 - a11 + a22 + a33,
                a30 - a21 - a12 + a03,
                -a20 - a31 - a02 - a13,
            ],
            [
                a20 - a31 - a02 + a13,
                -a30 - a21 - a12 - a03,
                -a00 + a11 - a22 + a33,
                a10 + a01 - a32 - a23,
            ],
            [
                a30 + a21 - a12 - a03,
                a20 - a31 + a02 - a13,
                -a10 - a01 - a32 - a23,
                -a00 + a11 + a22 - a33,
            ],
        ]
    )


def _decompose(a: np.ndarray, report: OrthogonalityReport) -> QuatPairDecomposition:
    """decompose_4d of a matrix that passed as_mat4, given the
    OrthogonalityReport that check_orthonormal made of it."""
    tol = report.tolerance_used
    _require_orthonormal(report, NotARotation)
    if abs(report.determinant - 1.0) > tol:
        raise NotARotation(f"determinant {report.determinant!r} is not +1")
    m = associate_matrix(a)
    u, v, residual = rank1_factor(m, tol)
    if residual > tol:
        raise RankDeficiency(f"rank-1 residual {residual:.3e} > tol {tol:.3e}")
    recon = compose_4d(u, v)
    err = float(np.sqrt(np.sum((a - recon) ** 2)))
    return QuatPairDecomposition(u, v, residual, err)


def decompose_4d(a, tol: float = DEFAULT_TOL) -> QuatPairDecomposition:
    """Recover the unit quaternion pair (L, R) of a 4D rotation matrix.

    Raises NotARotation when the input fails the orthogonality gate or has
    determinant -1 (4D rotoreflections are out of scope), RankDeficiency
    when the associate matrix is not rank 1 within tol (an input that
    sneaked past the orthogonality gate but is not a rotation).
    """
    a = as_mat4(a)
    return _decompose(a, check_orthonormal(a, tol))
