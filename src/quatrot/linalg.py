"""Fixed-size dense matrix/vector primitives.

Values are plain float64 numpy arrays: shape (4,) vectors, (3, 3) and
(4, 4) matrices. The ``as_*`` constructors validate shape and reject
NaN/Inf up front; every public operation routes its inputs through them.
All functions are pure and never mutate their arguments.

Determinants are evaluated by cofactor expansion along the first row
(for both 3x3 and 4x4), and matrix products accumulate row-by-column
left to right, so results are bit-stable on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, QuatrotError, ZeroMatrix

DEFAULT_TOL = 1e-9

# Quaternions, quaternion pairs and rank-1 factors are defined up to a
# global sign; the representative has its first component with magnitude
# above SIGN_EPS positive. kernels._signs applies the same rule to each
# column of a component-major block.
SIGN_EPS = 1e-12


def _validated(a, shape, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape != shape:
        raise NonFiniteInput(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name}: entries must be finite")
    return arr.copy()


def as_vec4(v) -> np.ndarray:
    """Validate and copy a length-4 vector."""
    return _validated(v, (4,), "vec4")


def as_mat3(m) -> np.ndarray:
    """Validate and copy a 3x3 matrix."""
    return _validated(m, (3, 3), "mat3")


def as_mat4(m) -> np.ndarray:
    """Validate and copy a 4x4 matrix."""
    return _validated(m, (4, 4), "mat4")


@dataclass(frozen=True)
class OrthogonalityReport:
    """Result of an orthonormality check.

    max_abs_gram_deviation is the largest |(A^T A - I)[i][j]|; callers
    compare it against their own tolerance to accept or reject.
    """

    max_abs_gram_deviation: float
    determinant: float
    tolerance_used: float

    @property
    def is_orthonormal(self) -> bool:
        return self.max_abs_gram_deviation <= self.tolerance_used


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed accumulation order.

    Entries are formed row-by-column, summing products left to right, so
    that golden tests are reproducible bit-for-bit on one platform.
    Accepts 3x3 or 4x4 pairs.
    """
    n = _common_dim(a, b)
    a = _validated(a, (n, n), "matrix")
    b = _validated(b, (n, n), "matrix")
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _common_dim(a, b) -> int:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape not in ((3, 3), (4, 4)):
        raise NonFiniteInput(f"matrix product: incompatible shapes {a.shape}, {b.shape}")
    return a.shape[0]


def det3(m: np.ndarray) -> float:
    """Determinant of a 3x3 matrix, cofactor expansion along row 0."""
    m = as_mat3(m)
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def det4(m: np.ndarray) -> float:
    """Determinant of a 4x4 matrix, cofactor expansion along row 0."""
    m = as_mat4(m)
    total = 0.0
    sign = 1.0
    for j in range(4):
        cols = [c for c in range(4) if c != j]
        minor = m[1:, cols]
        total += sign * m[0, j] * float(
            minor[0, 0] * (minor[1, 1] * minor[2, 2] - minor[1, 2] * minor[2, 1])
            - minor[0, 1] * (minor[1, 0] * minor[2, 2] - minor[1, 2] * minor[2, 0])
            + minor[0, 2] * (minor[1, 0] * minor[2, 1] - minor[1, 1] * minor[2, 0])
        )
        sign = -sign
    return total


def check_orthonormal(m: np.ndarray, tol: float = DEFAULT_TOL) -> OrthogonalityReport:
    """Report how far m is from being orthonormal, plus its determinant.

    Never raises on bad geometry: callers inspect the report and decide.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=np.float64)
    if m.shape == (3, 3):
        m = as_mat3(m)
        det = det3(m)
    elif m.shape == (4, 4):
        m = as_mat4(m)
        det = det4(m)
    else:
        raise NonFiniteInput(f"orthonormality check: expected 3x3 or 4x4, got {m.shape}")
    gram = mat_mul(m.T, m)
    deviation = float(np.max(np.abs(gram - np.eye(m.shape[0]))))
    return OrthogonalityReport(deviation, det, tol)


def _require_orthonormal(m, tol: float, error: type[QuatrotError]) -> OrthogonalityReport:
    """check_orthonormal(m, tol), raising ``error`` when the Gram
    deviation exceeds tol."""
    report = check_orthonormal(m, tol)
    if report.max_abs_gram_deviation > tol:
        raise error(
            f"orthogonality deviation {report.max_abs_gram_deviation:.3e} > tol {tol:.3e}"
        )
    return report


def canonical_sign(q: np.ndarray) -> float:
    """+1.0 or -1.0: the factor that makes the first component of q with
    magnitude above SIGN_EPS positive (scanning in index order); +1.0
    when no component is that large."""
    for comp in q:
        if abs(comp) > SIGN_EPS:
            return -1.0 if comp < 0.0 else 1.0
    return 1.0


def rank1_factor(m: np.ndarray, tol: float = DEFAULT_TOL):
    """Factor a (near-)rank-1 4x4 matrix as scale * u v^T with unit u, v.

    Seeds u from the column of largest Euclidean norm, projects every
    column onto it for v, then runs one power-iteration-style refinement
    pass (v <- m^T u, u <- m v, renormalize) to suppress rounding noise.
    The scale is the Frobenius norm of m; the returned residual is
    ||m - scale * u v^T||_F. Sign convention (canonical_sign): the first
    component of u with magnitude above SIGN_EPS is made positive, v
    absorbing the flip.

    Returns (u, v, residual). Raises ZeroMatrix when ||m||_F <= tol.
    """
    m = as_mat4(m)
    scale = float(np.sqrt(np.sum(m * m)))
    if scale <= tol:
        raise ZeroMatrix(f"Frobenius norm {scale:.3e} <= tol {tol:.3e}")
    col_norms = np.sqrt(np.sum(m * m, axis=0))
    u = m[:, int(np.argmax(col_norms))]
    u = u / np.sqrt(np.sum(u * u))
    v = m.T @ u
    # refinement pass
    u = m @ (v / np.sqrt(np.sum(v * v)))
    u = u / np.sqrt(np.sum(u * u))
    v = m.T @ u
    v = v / np.sqrt(np.sum(v * v))
    sign = canonical_sign(u)
    u = u * sign
    v = v * sign
    residual = float(np.sqrt(np.sum((m - scale * np.outer(u, v)) ** 2)))
    return u, v, residual
