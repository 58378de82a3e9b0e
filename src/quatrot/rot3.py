"""3D rotations and rotoreflections via their four rotation parameters.

A unit quaternion (a, b, c, d) maps to a 3x3 rotation matrix through the
classical closed form; negating that matrix entrywise gives the matching
orientation-reversing isometry (rotoreflection: rotation in an invariant
plane composed with reflection in it). Extraction goes the other way, by
the paper's route: the associate matrix of the 4D embedding with corner
a00 = +1 (rotation) or -1 (rotoreflection) is +-q conj(q)^T, ten
redundant quadratic equations that determine the parameters up to a
global sign, and their mutual consistency doubles as a certificate that
the input really is a rotation matrix.

The Euler-Rodrigues entries (``_er_entries``), the product table
(``_products``) and the extract, angle and embed cores are written once,
in ``_floats``, on Python floats. The functions here read their matrix
once as floats (``linalg._float_rows``), check it once
(``check_orthonormal``), call those cores and wrap the results in numpy
arrays; ``kernels`` evaluates the same row formulas on the component
rows of its blocks, so both paths give the same bits, and the CLI calls
the cores without numpy. ``IsometryKind`` is ``_floats``' own class.

Kind detection is purely the determinant sign: +1 rotation, -1
rotoreflection. Angles come from the trace: trace = 2 cos(alpha) + 1 for
rotations, 2 cos(alpha) - 1 for rotoreflections; the skew part gives
sin(alpha) for both, and atan2 of the two keeps the angle accurate near
0 and pi.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import _floats
from ._floats import (
    BRANCHES,
    DEFAULT_TOL,
    IsometryKind,
    OrthogonalityReport,
    _as_kind,
    _classify,
    _embed_4d,
    _rotation_angle,
    _rotation_rows,
)
from .errors import NonFiniteInput, OriginPoint
from .linalg import _float_rows, check_orthonormal


class AngleReport(namedtuple("AngleReport", "alpha cos_alpha")):
    """Angle of a rotation/rotoreflection; alpha in [0, pi] radians."""

    __slots__ = ()


class ExtractionResult(namedtuple("ExtractionResult", "params branch residual")):
    """Parameters extracted from a 3x3 matrix.

    params is a numpy array; branch names which squared component seeded
    the solve ("A" for the scalar part, "B"/"C"/"D" for x/y/z); residual
    is the max absolute violation over all ten defining equations.
    """

    __slots__ = ()


def euler_rodrigues(q) -> np.ndarray:
    """3x3 rotation matrix of the unit quaternion (a, b, c, d):

        [[a^2 + b^2 - c^2 - d^2, 2bc - 2ad, 2ac + 2bd],
         [2ad + 2bc, a^2 - b^2 + c^2 - d^2, 2cd - 2ab],
         [2bd - 2ac, 2ab + 2cd, a^2 - b^2 - c^2 + d^2]]
    """
    return np.array(_rotation_rows(_float_rows(q, (4,), "vec4")))


def rotoreflection_matrix(q) -> np.ndarray:
    """3x3 rotoreflection matrix of (a, b, c, d): the entrywise negation
    of the rotation matrix for the same parameters, det -1."""
    return -euler_rodrigues(q)


def classify(m, tol: float = DEFAULT_TOL) -> IsometryKind:
    """Rotation or rotoreflection, by the determinant of an orthogonal m."""
    _float_rows(m, (3, 3), "mat3")
    return _classify(check_orthonormal(m, tol))


def _extract(
    rows: list, report: OrthogonalityReport, kind: IsometryKind, refine: bool = False
) -> ExtractionResult:
    """Extraction from the rows that _float_rows read of a 3x3 matrix,
    given the OrthogonalityReport that check_orthonormal made of it."""
    params, branch, residual = _floats._extract(rows, report, kind, refine)
    return ExtractionResult(np.array(params), branch, residual)


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
    rows = _float_rows(m, (3, 3), "mat3")
    return _extract(rows, check_orthonormal(m, tol), IsometryKind.ROTATION, refine)


def extract_rotoreflection(m, tol: float = DEFAULT_TOL, refine: bool = False) -> ExtractionResult:
    """Recover the parameters of a 3x3 rotoreflection matrix.

    The same solve as ``extract_rotation``, on the associate matrix of the
    embedding with corner a00 = -1, which is -q conj(q)^T: the parameters
    are those of the rotation -m, without negating m.
    """
    rows = _float_rows(m, (3, 3), "mat3")
    return _extract(rows, check_orthonormal(m, tol), IsometryKind.ROTOREFLECTION, refine)


def rotation_angle(m, kind: IsometryKind, tol: float = DEFAULT_TOL) -> AngleReport:
    """Angle from the trace and the skew part.

    cos_alpha is (trace - 1)/2 for rotations and (trace + 1)/2 for
    rotoreflections, clamped to [-1, 1] (the trace can overshoot by
    rounding). sin_alpha is half the norm of (m21 - m12, m02 - m20,
    m10 - m01), the same for both kinds, and alpha = atan2(sin_alpha,
    cos_alpha): arccos of the cosine alone loses half the digits near
    0 and pi.

    kind is an IsometryKind or its value. Raises NotOrthogonal off the
    gate, KindMismatch for the other kind or a kind that is neither.
    """
    rows = _float_rows(m, (3, 3), "mat3")
    kind = _as_kind(kind)
    return AngleReport(*_rotation_angle(rows, check_orthonormal(m, tol), kind))


def embed_4d(m, kind: IsometryKind, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a 3x3 isometry as a 4D rotation matrix: +1 (rotation) or -1
    (rotoreflection) in the top-left corner, zero borders, m in the
    lower-right block. Both embeddings have det +1. kind is an
    IsometryKind or its value; KindMismatch for the other kind or a kind
    that is neither."""
    rows = _float_rows(m, (3, 3), "mat3")
    kind = _as_kind(kind)
    return np.array(_embed_4d(rows, check_orthonormal(m, tol), kind))


def displaced_angle_cos(point, alpha: float, kind: IsometryKind) -> float:
    """Cosine of the angle between the ray through `point` and its image
    under the canonical Z-axis rotation/rotoreflection by `alpha`.

    Closed forms with rho^2 = x^2 + y^2:
      rotation:       (rho^2 cos(alpha) + z^2) / (rho^2 + z^2)
      rotoreflection: (rho^2 cos(alpha) - z^2) / (rho^2 + z^2)

    The point is first scaled by a power of two (exactly) so that its
    largest |component| lies in [0.5, 1): the squares cannot overflow or
    all underflow, so only the origin raises OriginPoint. Raises
    NonFiniteInput for a point that is not three numbers, a NaN or inf
    component or alpha, KindMismatch for a kind that is neither an
    IsometryKind nor its value.
    """
    x, y, z = _float_rows(point, (3,), "point")
    if not math.isfinite(alpha):
        raise NonFiniteInput(f"alpha must be finite, got {alpha!r}")
    kind = _as_kind(kind)
    largest = max(abs(x), abs(y), abs(z))
    if largest == 0.0:
        raise OriginPoint("displaced angle is undefined at the origin")
    exponent = math.frexp(largest)[1]
    x, y, z = (math.ldexp(v, -exponent) for v in (x, y, z))
    rho2 = x * x + y * y
    z2 = z * z
    if kind is IsometryKind.ROTATION:
        return (rho2 * math.cos(alpha) + z2) / (rho2 + z2)
    return (rho2 * math.cos(alpha) - z2) / (rho2 + z2)
