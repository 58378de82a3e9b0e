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
(``_products``), the extract and angle cores and the embedding are
written once, in ``_floats``, on Python floats. The functions here read
their matrix once as floats (``linalg._float_rows``), check those floats
once (``linalg._report``), reach one verdict on the report (``_kind``,
or ``_require_kind`` for a requested kind), call those cores and wrap
the results in numpy arrays; ``kernels`` evaluates the same row formulas
on the component rows of its blocks, so both paths give the same bits,
and the CLI calls the cores without numpy. ``IsometryKind`` is
``_floats``' own class.

A kind is its corner a00 (``_floats._CORNER``): +1 for a rotation, -1
for a rotoreflection, which is also its determinant. Angles come from
the trace: trace = 2 cos(alpha) + a00; the skew part gives sin(alpha)
for both kinds, and atan2 of the two keeps the angle accurate near 0
and pi.
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
    _CORNER,
    _as_kind,
    _kind,
    _require_kind,
    _rotation_angle,
    _rotation_rows,
)
from .errors import NonFiniteInput, OriginPoint
from .linalg import _float_rows, _report


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
    return _kind(_report(_float_rows(m, (3, 3), "mat3"), tol))


def _extract(rows: list, report: OrthogonalityReport, kind: IsometryKind) -> ExtractionResult:
    """Extraction from the rows that _float_rows read of a 3x3 matrix,
    given the OrthogonalityReport that _report made of them."""
    params, branch, residual = _floats._extract(rows, report, kind)
    return ExtractionResult(np.array(params), branch, residual)


def extract_rotation(m, tol: float = DEFAULT_TOL) -> ExtractionResult:
    """Recover the rotation parameters of a 3x3 rotation matrix.

    Seeds from the largest of the four squared-component quantities (so
    the solve never divides by a small number; the small-angle and
    near-pi prescriptions both fall out of this choice), recovers the
    remaining three components from the cross-product equations pairing
    the seed, and cross-checks all ten equations. The parameters are unit
    to within rounding; ``quaternion.as_unit`` renormalizes them.

    Raises NotARotation if m fails the orthogonality/determinant gate,
    InconsistentSystem if the ten equations disagree beyond tol. Near the gate
    their residual is about a quarter of the Gram deviation, so at working
    tolerances only a loose tol that lets a far-off matrix through reaches it.
    """
    rows = _float_rows(m, (3, 3), "mat3")
    return _extract(rows, _report(rows, tol), IsometryKind.ROTATION)


def extract_rotoreflection(m, tol: float = DEFAULT_TOL) -> ExtractionResult:
    """Recover the parameters of a 3x3 rotoreflection matrix.

    The same solve as ``extract_rotation``, on the associate matrix of the
    embedding with corner a00 = -1, which is -q conj(q)^T: the parameters
    are those of the rotation -m, without negating m.
    """
    rows = _float_rows(m, (3, 3), "mat3")
    return _extract(rows, _report(rows, tol), IsometryKind.ROTOREFLECTION)


def rotation_angle(m, kind: IsometryKind, tol: float = DEFAULT_TOL) -> AngleReport:
    """Angle from the trace and the skew part.

    cos_alpha is (trace - a00)/2, a00 = +1 for a rotation and -1 for a
    rotoreflection, clamped to [-1, 1] (the trace can overshoot by
    rounding). sin_alpha is half the norm of (m21 - m12, m02 - m20,
    m10 - m01), the same for both kinds, and alpha = atan2(sin_alpha,
    cos_alpha): arccos of the cosine alone loses half the digits near
    0 and pi. alpha can differ in the last bit across libm
    implementations, which need not round atan2 correctly; cos_alpha
    uses only IEEE operations.

    kind is an IsometryKind or its value. Raises NotOrthogonal off the
    gate, KindMismatch for the other kind or a kind that is neither.
    """
    rows = _float_rows(m, (3, 3), "mat3")
    kind = _as_kind(kind)
    _require_kind(_report(rows, tol), kind)
    return AngleReport(*_rotation_angle(rows, kind))


def embed_4d(m, kind: IsometryKind, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a 3x3 isometry as a 4D rotation matrix: +1 (rotation) or -1
    (rotoreflection) in the top-left corner, zero borders, m in the
    lower-right block. Both embeddings have det +1. kind is an
    IsometryKind or its value; KindMismatch for the other kind or a kind
    that is neither."""
    rows = _float_rows(m, (3, 3), "mat3")
    kind = _as_kind(kind)
    _require_kind(_report(rows, tol), kind)
    out = np.zeros((4, 4))  # np.array(_floats._embedding(rows, kind)) took 6.1 instead of 5.2 us
    out[0, 0] = _CORNER[kind]
    out[1:, 1:] = rows
    return out


def displaced_angle_cos(point, alpha: float, kind: IsometryKind) -> float:
    """Cosine of the angle between the ray through `point` and its image
    under the canonical Z-axis rotation/rotoreflection by `alpha`.

    The closed form, with rho^2 = x^2 + y^2 and the kind's corner a00
    (+1 rotation, -1 rotoreflection):
      (rho^2 cos(alpha) + a00 z^2) / (rho^2 + z^2)
    Its last bit can differ across libm implementations, which need not
    round cos correctly.

    The point is first scaled by a power of two (exactly) so that its
    largest |component| lies in [0.5, 1): the squares cannot overflow or
    all underflow, so only the origin raises OriginPoint. Raises
    NonFiniteInput for a point that is not three numbers, a NaN or inf
    component, or an alpha that is not a finite real number; KindMismatch
    for a kind that is neither an IsometryKind nor its value.
    """
    x, y, z = _float_rows(point, (3,), "point")
    try:
        finite = math.isfinite(alpha)
    except (TypeError, OverflowError):  # not a real number, or an int past the floats
        finite = False
    if not finite:
        raise NonFiniteInput(f"alpha must be finite, got {alpha!r}")
    kind = _as_kind(kind)
    largest = max(abs(x), abs(y), abs(z))
    if largest == 0.0:
        raise OriginPoint("displaced angle is undefined at the origin")
    exponent = math.frexp(largest)[1]
    x, y, z = (math.ldexp(v, -exponent) for v in (x, y, z))
    rho2 = x * x + y * y
    z2 = z * z
    return (rho2 * math.cos(alpha) + _CORNER[kind] * z2) / (rho2 + z2)
