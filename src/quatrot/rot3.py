"""3D rotations and rotoreflections via their four rotation parameters.

A unit quaternion (a, b, c, d) maps to a 3x3 rotation matrix through the
classical closed form; negating that matrix entrywise gives the matching
orientation-reversing isometry (rotoreflection: rotation in an invariant
plane composed with reflection in it). Extraction goes the other way:
from a 3x3 matrix, ten redundant quadratic equations determine the
parameters up to a global sign, and their mutual consistency doubles as
a certificate that the input really is a rotation matrix.

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
from .linalg import DEFAULT_TOL, _require_orthonormal, as_mat3, canonical_sign
from .quaternion import as_unit

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


def euler_rodrigues(q) -> np.ndarray:
    """3x3 rotation matrix of the unit quaternion (a, b, c, d)."""
    a, b, c, d = as_unit(q)
    return np.array(
        [
            [a * a + b * b - c * c - d * d, -2 * a * d + 2 * b * c, 2 * a * c + 2 * b * d],
            [2 * a * d + 2 * b * c, a * a - b * b + c * c - d * d, -2 * a * b + 2 * c * d],
            [-2 * a * c + 2 * b * d, 2 * a * b + 2 * c * d, a * a - b * b - c * c + d * d],
        ]
    )


def rotoreflection_matrix(q) -> np.ndarray:
    """3x3 rotoreflection matrix of (a, b, c, d): the entrywise negation
    of the rotation matrix for the same parameters, det -1."""
    return -euler_rodrigues(q)


def classify(m, tol: float = DEFAULT_TOL) -> IsometryKind:
    """Rotation or rotoreflection, by the determinant of an orthogonal m."""
    m = as_mat3(m)
    report = _require_orthonormal(m, tol, NotOrthogonal)
    if abs(report.determinant - 1.0) <= tol:
        return IsometryKind.ROTATION
    if abs(report.determinant + 1.0) <= tol:
        return IsometryKind.ROTOREFLECTION
    # unreachable for orthogonal inputs; defensive
    raise IndeterminateDeterminant(f"determinant {report.determinant!r} is far from both +1 and -1")


def _ten_equation_residual(m: np.ndarray, q: np.ndarray) -> float:
    a, b, c, d = q
    lhs = (a * a, b * b, c * c, d * d, a * b, a * c, a * d, c * d, d * b, b * c)
    rhs = (
        (1 + m[0, 0] + m[1, 1] + m[2, 2]) / 4,
        (1 + m[0, 0] - m[1, 1] - m[2, 2]) / 4,
        (1 - m[0, 0] + m[1, 1] - m[2, 2]) / 4,
        (1 - m[0, 0] - m[1, 1] + m[2, 2]) / 4,
        (m[2, 1] - m[1, 2]) / 4,
        (m[0, 2] - m[2, 0]) / 4,
        (m[1, 0] - m[0, 1]) / 4,
        (m[2, 1] + m[1, 2]) / 4,
        (m[0, 2] + m[2, 0]) / 4,
        (m[1, 0] + m[0, 1]) / 4,
    )
    return max(abs(l - r) for l, r in zip(lhs, rhs))


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
    try:
        kind = classify(m, tol)
    except NotOrthogonal as exc:
        raise NotARotation(str(exc)) from exc
    if kind is not IsometryKind.ROTATION:
        raise NotARotation("determinant is -1; use extract_rotoreflection")
    result = _extract(m, tol)
    if refine:
        q = as_unit(result.params)
        result = ExtractionResult(q, result.branch, _ten_equation_residual(m, q))
    return result


def _extract(m: np.ndarray, tol: float) -> ExtractionResult:
    squares = (
        (1 + m[0, 0] + m[1, 1] + m[2, 2]) / 4,
        (1 + m[0, 0] - m[1, 1] - m[2, 2]) / 4,
        (1 - m[0, 0] + m[1, 1] - m[2, 2]) / 4,
        (1 - m[0, 0] - m[1, 1] + m[2, 2]) / 4,
    )
    ab = (m[2, 1] - m[1, 2]) / 4
    ac = (m[0, 2] - m[2, 0]) / 4
    ad = (m[1, 0] - m[0, 1]) / 4
    cd = (m[2, 1] + m[1, 2]) / 4
    db = (m[0, 2] + m[2, 0]) / 4
    bc = (m[1, 0] + m[0, 1]) / 4

    k = max(range(4), key=lambda i: squares[i])
    seed = math.sqrt(max(squares[k], 0.0))
    if k == 0:
        q = np.array([seed, ab / seed, ac / seed, ad / seed])
    elif k == 1:
        q = np.array([ab / seed, seed, bc / seed, db / seed])
    elif k == 2:
        q = np.array([ac / seed, bc / seed, seed, cd / seed])
    else:
        q = np.array([ad / seed, db / seed, cd / seed, seed])

    residual = _ten_equation_residual(m, q)
    if residual > tol:
        raise InconsistentSystem(f"ten-equation residual {residual:.3e} > tol {tol:.3e}")
    return ExtractionResult(q * canonical_sign(q), BRANCHES[k], residual)


def extract_rotoreflection(m, tol: float = DEFAULT_TOL, refine: bool = False) -> ExtractionResult:
    """Recover the parameters of a 3x3 rotoreflection matrix.

    Works on -m: the rotoreflection matrix is the entrywise negation of
    the rotation matrix with the same parameters, and negating a 3x3
    det -1 matrix yields det +1, so the rotation extractor applies as-is.
    """
    m = as_mat3(m)
    try:
        kind = classify(m, tol)
    except NotOrthogonal as exc:
        raise NotARotoreflection(str(exc)) from exc
    if kind is not IsometryKind.ROTOREFLECTION:
        raise NotARotoreflection("determinant is +1; use extract_rotation")
    result = _extract(-m, tol)
    if refine:
        q = as_unit(result.params)
        result = ExtractionResult(q, result.branch, _ten_equation_residual(-m, q))
    return result


def rotation_angle(m, kind: IsometryKind, tol: float = DEFAULT_TOL) -> AngleReport:
    """Angle from the trace and the skew part.

    cos_alpha is (trace - 1)/2 for rotations and (trace + 1)/2 for
    rotoreflections, clamped to [-1, 1] (the trace can overshoot by
    rounding). sin_alpha is half the norm of (m21 - m12, m02 - m20,
    m10 - m01), the same for both kinds, and alpha = atan2(sin_alpha,
    cos_alpha): arccos of the cosine alone loses half the digits near
    0 and pi.
    """
    m = as_mat3(m)
    report = _require_orthonormal(m, tol, NotOrthogonal)
    trace = float(m[0, 0] + m[1, 1] + m[2, 2])
    if kind is IsometryKind.ROTATION:
        cos_alpha = (trace - 1.0) / 2.0
    else:
        cos_alpha = (trace + 1.0) / 2.0
    cos_alpha = min(1.0, max(-1.0, cos_alpha))
    sin_alpha = math.hypot(m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]) / 2.0
    return AngleReport(math.atan2(sin_alpha, cos_alpha), cos_alpha)


def embed_4d(m, kind: IsometryKind, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a 3x3 isometry as a 4D rotation matrix: +1 (rotation) or -1
    (rotoreflection) in the top-left corner, zero borders, m in the
    lower-right block. Both embeddings have det +1."""
    m = as_mat3(m)
    report = _require_orthonormal(m, tol, NotOrthogonal)
    expected = 1.0 if kind is IsometryKind.ROTATION else -1.0
    if abs(report.determinant - expected) > tol:
        raise KindMismatch(f"determinant {report.determinant!r} does not match kind {kind.value}")
    out = np.zeros((4, 4))
    out[0, 0] = expected
    out[1:, 1:] = m
    return out


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
