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

The associate entries, the compose product and the reconstruction
error are written once, in ``_floats``, on Python floats; the functions
here read each argument once as floats (``linalg._float_rows``), call
them and return numpy arrays. ``decompose_4d`` keeps its calls of the
public ``check_orthonormal``, ``rank1_factor`` and ``compose_4d`` (each
calls ``mat_mul`` or the cores), and the CLI runs the same cores through
``_floats._decompose`` without numpy.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from ._floats import (
    DEFAULT_TOL,
    _associate,
    _frobenius_distance,
    _left_rows,
    _require_rank1,
    _require_rotation4,
    _right_rows,
    _unit,
)
from .linalg import _float_rows, check_orthonormal, mat_mul, rank1_factor


class QuatPairDecomposition(
    namedtuple("QuatPairDecomposition", "left right rank1_residual reconstruction_error")
):
    """Left/right unit quaternion factors of a 4D rotation, as numpy arrays.

    rank1_residual measures how far the associate matrix is from rank 1;
    reconstruction_error is ||A - M_L(left) M_R(right)||_F. Both are
    reported rather than hidden so callers can apply their own thresholds
    to noisy inputs.
    """

    __slots__ = ()


def compose_4d(l, r) -> np.ndarray:
    """4D rotation matrix M_L(l) @ M_R(r) for unit quaternions l, r."""
    l = _unit(_float_rows(l, (4,), "vec4"))
    r = _unit(_float_rows(r, (4,), "vec4"))
    return mat_mul(np.array(_left_rows(l)), np.array(_right_rows(r)))


def associate_matrix(a) -> np.ndarray:
    """Associate matrix of a 4x4 matrix: signed quarter-sums of entries.

    Defined for any 4x4 input; the rank-1 and unit-norm properties hold
    exactly when the input is a rotation matrix. Linear in the input.
    """
    return np.array(_associate(_float_rows(a, (4, 4), "mat4")))


def decompose_4d(a, tol: float = DEFAULT_TOL) -> QuatPairDecomposition:
    """Recover the unit quaternion pair (L, R) of a 4D rotation matrix.

    Raises NotARotation when the input fails the orthogonality gate or has
    determinant -1 (4D rotoreflections are out of scope), RankDeficiency
    when the associate matrix is not rank 1 within tol (an input that
    sneaked past the orthogonality gate but is not a rotation). The steps
    of ``_floats._decompose``, through the public functions.
    """
    rows = _float_rows(a, (4, 4), "mat4")
    _require_rotation4(check_orthonormal(a, tol))
    u, v, residual = rank1_factor(associate_matrix(a), tol)
    _require_rank1(residual, tol)
    err = _frobenius_distance(rows, compose_4d(u, v).tolist())
    return QuatPairDecomposition(u, v, residual, err)
