"""Exception types raised by the library.

All errors derive from QuatrotError, a ValueError, and each class carries a
short machine-readable ``code`` used by the CLI error objects. An array
argument of the scalar API that is not an array of finite real numbers
(NaN, Inf, a complex or non-numeric entry, a ragged list, an object)
raises NonFiniteInput naming the argument, and so does an argument of a
``kernels`` batch function that is not an ndarray of real numbers in its
stack's shape.

``except QuatrotError`` does not yet catch everything the package raises.
A plain ValueError comes from a ``tol`` outside (0, 1) (or not a number),
a ``dim`` other than 3 or 4 and a seed that is not an integer in
[0, 2**64), so ``except ValueError`` catches them all.
"""


class QuatrotError(ValueError):
    """Base class for all errors raised by this package."""

    code = "error"


class NonFiniteInput(QuatrotError):
    """Input is not an array of finite real numbers of the expected shape,
    or is finite but too large to square (``rank1_factor``'s Frobenius norm)."""

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
