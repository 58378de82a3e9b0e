"""3D rotations and rotoreflections via their four rotation parameters.

A unit quaternion (a, b, c, d) maps to a 3x3 rotation matrix through the
classical closed form; negating that matrix entrywise gives the matching
orientation-reversing isometry (rotoreflection: rotation in an invariant
plane composed with reflection in it). Extraction goes the other way:
from a 3x3 matrix, ten redundant quadratic equations determine the
parameters up to a global sign, and their mutual consistency doubles as
a certificate that the input really is a rotation matrix.

The Euler-Rodrigues entries (``_er_entries``) and the ten equations
(``_equations``, ``_PAIRS``, ``_ROWS``) are written once, here: they take
Python floats from the scalar API, and ``kernels`` evaluates the same
functions on the component rows of its blocks, so both paths give the
same bits.

Kind detection is purely the determinant sign: +1 rotation, -1
rotoreflection. Angles come from the trace: trace = 2 cos(alpha) + 1 for
rotations, 2 cos(alpha) - 1 for rotoreflections; the skew part gives
sin(alpha) for both, and atan2 of the two keeps the angle accurate near
0 and pi.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentSystem,
    IndeterminateDeterminant,
    KindMismatch,
    NotARotation,
    NotARotoreflection,
    NotOrthogonal,
    OriginPoint,
)
from .linalg import (
    DEFAULT_TOL,
    OrthogonalityReport,
    _require_orthonormal,
    as_mat3,
    as_vec4,
    canonical_sign,
    check_orthonormal,
)
from .quaternion import _unit, as_unit

BRANCHES = ("A", "B", "C", "D")


class IsometryKind(enum.Enum):
    ROTATION = "rotation"
    ROTOREFLECTION = "rotoreflection"


@dataclass(frozen=True)
class AngleReport:
    """Angle of a rotation/rotoreflection; alpha in [0, pi] radians."""

    alpha: float
    cos_alpha: float


@dataclass(frozen=True)
class ExtractionResult:
    """Parameters extracted from a 3x3 matrix.

    branch names which squared component seeded the solve ("A" for the
    scalar part, "B"/"C"/"D" for x/y/z); residual is the max absolute
    violation over all ten defining equations.
    """

    params: np.ndarray
    branch: str
    residual: float


def _er_entries(a, b, c, d) -> tuple:
    """The nine entries of the Euler-Rodrigues matrix of (a, b, c, d),
    row-major, on floats or on equal-length arrays (``kernels`` passes the
    component rows of a block). Each product is formed once: (-2a)d is
    -((2a)d) and x + (-y) is x - y exactly, so -2ad + 2bc is bc - ad to
    the bit, signed zeros included."""
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    a2, b2, c2 = 2 * a, 2 * b, 2 * c
    ab, ac, ad, bc, bd, cd = a2 * b, a2 * c, a2 * d, b2 * c, b2 * d, c2 * d
    return (
        aa + bb - cc - dd, bc - ad, ac + bd,
        ad + bc, aa - bb + cc - dd, cd - ab,
        bd - ac, ab + cd, aa - bb - cc + dd,
    )


def euler_rodrigues(q) -> np.ndarray:
    """3x3 rotation matrix of the unit quaternion (a, b, c, d):

        [[a^2 + b^2 - c^2 - d^2, 2bc - 2ad, 2ac + 2bd],
         [2ad + 2bc, a^2 - b^2 + c^2 - d^2, 2cd - 2ab],
         [2bd - 2ac, 2ab + 2cd, a^2 - b^2 - c^2 + d^2]]
    """
    return np.array(_er_entries(*_unit(as_vec4(q).tolist()))).reshape(3, 3)


def rotoreflection_matrix(q) -> np.ndarray:
    """3x3 rotoreflection matrix of (a, b, c, d): the entrywise negation
    of the rotation matrix for the same parameters, det -1."""
    return -euler_rodrigues(q)


# The private cores below take a matrix that passed as_mat3 and the
# OrthogonalityReport that check_orthonormal made of it, so a caller that
# needs several answers about one matrix (the CLI) checks it once.

def _kind(report: OrthogonalityReport) -> IsometryKind:
    tol = report.tolerance_used
    if abs(report.determinant - 1.0) <= tol:
        return IsometryKind.ROTATION
    if abs(report.determinant + 1.0) <= tol:
        return IsometryKind.ROTOREFLECTION
    # reached only when a loose tol lets a non-orthogonal matrix through
    raise IndeterminateDeterminant(f"determinant {report.determinant!r} is far from both +1 and -1")


def _classify(report: OrthogonalityReport) -> IsometryKind:
    return _kind(_require_orthonormal(report, NotOrthogonal))


def _require_kind(report: OrthogonalityReport, kind: IsometryKind) -> None:
    """Raise what _classify raises, or KindMismatch unless the matrix is of kind."""
    if _classify(report) is not kind:
        raise KindMismatch(f"determinant {report.determinant!r} does not match kind {kind.value}")


def classify(m, tol: float = DEFAULT_TOL) -> IsometryKind:
    """Rotation or rotoreflection, by the determinant of an orthogonal m."""
    m = as_mat3(m)
    return _classify(check_orthonormal(m, tol))


# The ten equations q_i q_j = rhs[e] of a rotation matrix, (i, j) =
# _PAIRS[e]: the four squares, then ab, ac, ad, cd, bd, bc. _ROWS[k][i] is
# the equation of the product q_k q_i, so a seed q_k gives every other
# component as rhs[_ROWS[k][i]] / q_k.
_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2))
_ROWS = tuple(tuple(_PAIRS.index((min(k, i), max(k, i))) for i in range(4)) for k in range(4))


def _equations(rows) -> tuple:
    """Right-hand sides of the ten equations, in _PAIRS order, from the
    rows of a 3x3 matrix: floats, or equal-length arrays (``kernels``
    passes a component-major block)."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    return (
        (1 + m00 + m11 + m22) / 4,
        (1 + m00 - m11 - m22) / 4,
        (1 - m00 + m11 - m22) / 4,
        (1 - m00 - m11 + m22) / 4,
        (m21 - m12) / 4,
        (m02 - m20) / 4,
        (m10 - m01) / 4,
        (m21 + m12) / 4,
        (m02 + m20) / 4,
        (m10 + m01) / 4,
    )


def _ten_equation_residual(rhs: tuple, q) -> float:
    return max(abs(q[i] * q[j] - r) for (i, j), r in zip(_PAIRS, rhs))


# What each kind's extractor raises, and its message for the other kind.
_EXTRACT_ERRORS = {
    IsometryKind.ROTATION: (NotARotation, "determinant is -1; use extract_rotoreflection"),
    IsometryKind.ROTOREFLECTION: (NotARotoreflection, "determinant is +1; use extract_rotation"),
}


def _extract(
    m: np.ndarray, report: OrthogonalityReport, kind: IsometryKind, refine: bool = False
) -> ExtractionResult:
    error, other_kind = _EXTRACT_ERRORS[kind]
    _require_orthonormal(report, error)
    if _kind(report) is not kind:
        raise error(other_kind)
    tol = report.tolerance_used
    rhs = _equations((m if kind is IsometryKind.ROTATION else -m).tolist())

    k = max(range(4), key=lambda i: rhs[i])
    seed = math.sqrt(max(rhs[k], 0.0))
    q = [rhs[e] / seed for e in _ROWS[k]]
    q[k] = seed

    residual = _ten_equation_residual(rhs, q)
    if residual > tol:
        raise InconsistentSystem(f"ten-equation residual {residual:.3e} > tol {tol:.3e}")
    sign = canonical_sign(q)
    params = np.array([c * sign for c in q])
    if refine:
        params = as_unit(params)
        residual = _ten_equation_residual(rhs, params.tolist())
    return ExtractionResult(params, BRANCHES[k], residual)


def extract_rotation(m, tol: float = DEFAULT_TOL, refine: bool = False) -> ExtractionResult:
    """Recover the rotation parameters of a 3x3 rotation matrix.

    Seeds from the largest of the four squared-component quantities (so
    the solve never divides by a small number; the small-angle and
    near-pi prescriptions both fall out of this choice), recovers the
    remaining three components from the cross-product equations pairing
    the seed, and cross-checks all ten equations. refine=True additionally
    renormalizes the result to exactly unit length.

    Raises NotARotation if m fails the orthogonality/determinant gate,
    InconsistentSystem if the ten equations disagree beyond tol.
    """
    m = as_mat3(m)
    return _extract(m, check_orthonormal(m, tol), IsometryKind.ROTATION, refine)


def extract_rotoreflection(m, tol: float = DEFAULT_TOL, refine: bool = False) -> ExtractionResult:
    """Recover the parameters of a 3x3 rotoreflection matrix.

    Works on -m: the rotoreflection matrix is the entrywise negation of
    the rotation matrix with the same parameters, and negating a 3x3
    det -1 matrix yields det +1, so the rotation extractor applies as-is.
    """
    m = as_mat3(m)
    return _extract(m, check_orthonormal(m, tol), IsometryKind.ROTOREFLECTION, refine)


def _rotation_angle(m: np.ndarray, report: OrthogonalityReport, kind: IsometryKind) -> AngleReport:
    _require_kind(report, kind)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    trace = m00 + m11 + m22
    if kind is IsometryKind.ROTATION:
        cos_alpha = (trace - 1.0) / 2.0
    else:
        cos_alpha = (trace + 1.0) / 2.0
    cos_alpha = min(1.0, max(-1.0, cos_alpha))
    sin_alpha = math.hypot(m21 - m12, m02 - m20, m10 - m01) / 2.0
    return AngleReport(math.atan2(sin_alpha, cos_alpha), cos_alpha)


def rotation_angle(m, kind: IsometryKind, tol: float = DEFAULT_TOL) -> AngleReport:
    """Angle from the trace and the skew part.

    cos_alpha is (trace - 1)/2 for rotations and (trace + 1)/2 for
    rotoreflections, clamped to [-1, 1] (the trace can overshoot by
    rounding). sin_alpha is half the norm of (m21 - m12, m02 - m20,
    m10 - m01), the same for both kinds, and alpha = atan2(sin_alpha,
    cos_alpha): arccos of the cosine alone loses half the digits near
    0 and pi.

    Raises NotOrthogonal off the gate, KindMismatch for the other kind.
    """
    m = as_mat3(m)
    return _rotation_angle(m, check_orthonormal(m, tol), kind)


def _embed_4d(m: np.ndarray, report: OrthogonalityReport, kind: IsometryKind) -> np.ndarray:
    _require_kind(report, kind)
    out = np.zeros((4, 4))
    out[0, 0] = 1.0 if kind is IsometryKind.ROTATION else -1.0
    out[1:, 1:] = m
    return out


def embed_4d(m, kind: IsometryKind, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a 3x3 isometry as a 4D rotation matrix: +1 (rotation) or -1
    (rotoreflection) in the top-left corner, zero borders, m in the
    lower-right block. Both embeddings have det +1."""
    m = as_mat3(m)
    return _embed_4d(m, check_orthonormal(m, tol), kind)


def displaced_angle_cos(point, alpha: float, kind: IsometryKind) -> float:
    """Cosine of the angle between the ray through `point` and its image
    under the canonical Z-axis rotation/rotoreflection by `alpha`.

    Closed forms with rho^2 = x^2 + y^2:
      rotation:       (rho^2 cos(alpha) + z^2) / (rho^2 + z^2)
      rotoreflection: (rho^2 cos(alpha) - z^2) / (rho^2 + z^2)
    """
    x, y, z = (float(v) for v in point)
    rho2 = x * x + y * y
    z2 = z * z
    if rho2 + z2 == 0.0:
        raise OriginPoint("displaced angle is undefined at the origin")
    if kind is IsometryKind.ROTATION:
        return (rho2 * math.cos(alpha) + z2) / (rho2 + z2)
    return (rho2 * math.cos(alpha) - z2) / (rho2 + z2)
