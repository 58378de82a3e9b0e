"""Exception types raised by the library.

All errors derive from QuatrotError so callers can catch everything from
this package with a single except clause. Each class also carries a short
machine-readable ``code`` used by the CLI error objects.
"""


class QuatrotError(ValueError):
    """Base class for all errors raised by this package."""

    code = "error"


class NonFiniteInput(QuatrotError):
    """Input contains NaN or Inf, rejected at construction, or is finite
    but too large to square (``rank1_factor``'s Frobenius norm)."""

    code = "non_finite"


class ZeroMatrix(QuatrotError):
    """Matrix has (near-)zero Frobenius norm; no rank-1 factor exists."""

    code = "zero_matrix"


class NotUnit(QuatrotError):
    """Quaternion norm is too far from 1 to be silently normalized."""

    code = "not_unit"


class NotOrthogonal(QuatrotError):
    """Matrix fails the orthonormality check at the given tolerance."""

    code = "not_orthogonal"


class IndeterminateDeterminant(QuatrotError):
    """Determinant is far from both +1 and -1 although the matrix passed
    the orthogonality gate: only a loose tolerance lets that happen (1.2 I
    at tol 0.5 has determinant 1.728)."""

    code = "indeterminate_determinant"


class NotARotation(QuatrotError):
    """Matrix is not a rotation (orthogonality or det +1 failure)."""

    code = "not_a_rotation"


class NotARotoreflection(QuatrotError):
    """Matrix is not a rotoreflection (orthogonality or det -1 failure)."""

    code = "not_a_rotoreflection"


class RankDeficiency(QuatrotError):
    """Associate matrix is not rank 1 within tolerance; the input passed the
    orthogonality gate but is not a genuine rotation."""

    code = "rank_deficiency"


class InconsistentSystem(QuatrotError):
    """The ten extraction equations disagree beyond tolerance."""

    code = "inconsistent_system"


class KindMismatch(QuatrotError):
    """Requested isometry kind contradicts the matrix determinant."""

    code = "kind_mismatch"


class OriginPoint(QuatrotError):
    """Displaced-angle query at the origin; the angle is undefined."""

    code = "origin_point"
