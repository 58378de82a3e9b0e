"""Fixed-size dense matrix/vector primitives.

Values are plain float64 numpy arrays: shape (4,) vectors, (3, 3) and
(4, 4) matrices. The ``as_*`` constructors validate shape, reject NaN/Inf
and return a C-ordered copy. Each public function of the scalar API
(here and in quaternion, rot3 and rot4) validates its arguments once,
at its boundary, and hands the validated values on as plain Python
floats (``ndarray.tolist()``) to private cores: ``_det3``, ``_det4`` and
``_gram_deviation`` here. A public function that calls another public
one (``check_orthonormal`` computes its Gram matrix with ``mat_mul``)
lets that one validate its own arguments. All functions are pure and
never mutate their arguments.

The summation order is fixed, so results are bit-stable on a given
platform and equal to the numpy-scalar loops these cores replaced:
determinants are cofactor expansions along row 0 (for 4x4, each 3x3
minor expanded the same way, the four terms added from 0.0 in column
order); matrix products add their row-by-column products left to right
starting from 0.0, so an entry whose products are all -0.0 is 0.0; the
Gram deviation is the largest |(A^T A - I)[i][j]|, NaN when an entry is
NaN, as numpy's max. Python's ``sum`` is not used: from Python 3.12 it
adds floats with compensation, which gives other bits.
"""

from __future__ import annotations

import math
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
    arr = np.array(a, dtype=np.float64, order="C")
    if arr.shape != shape:
        raise NonFiniteInput(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name}: entries must be finite")
    return arr


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

    Entries are formed row-by-column, summing products left to right
    from 0.0, so that golden tests are reproducible bit-for-bit on one
    platform. Accepts 3x3 or 4x4 pairs.
    """
    n = _common_dim(a, b)
    rows = _validated(a, (n, n), "matrix").tolist()
    cols = _validated(b, (n, n), "matrix").T.tolist()
    if n == 3:
        out = [[0.0 + a0 * b0 + a1 * b1 + a2 * b2 for b0, b1, b2 in cols] for a0, a1, a2 in rows]
    else:
        out = [
            [0.0 + a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 for b0, b1, b2, b3 in cols]
            for a0, a1, a2, a3 in rows
        ]
    return np.array(out)


def _common_dim(a, b) -> int:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape not in ((3, 3), (4, 4)):
        raise NonFiniteInput(f"matrix product: incompatible shapes {a.shape}, {b.shape}")
    return a.shape[0]


def _det3(rows) -> float:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det4(rows) -> float:
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    # the 3x3 minors of row 0, each expanded as _det3 does
    m0 = b1 * (c2 * d3 - c3 * d2) - b2 * (c1 * d3 - c3 * d1) + b3 * (c1 * d2 - c2 * d1)
    m1 = b0 * (c2 * d3 - c3 * d2) - b2 * (c0 * d3 - c3 * d0) + b3 * (c0 * d2 - c2 * d0)
    m2 = b0 * (c1 * d3 - c3 * d1) - b1 * (c0 * d3 - c3 * d0) + b3 * (c0 * d1 - c1 * d0)
    m3 = b0 * (c1 * d2 - c2 * d1) - b1 * (c0 * d2 - c2 * d0) + b2 * (c0 * d1 - c1 * d0)
    return 0.0 + a0 * m0 + -a1 * m1 + a2 * m2 + -a3 * m3


def det3(m: np.ndarray) -> float:
    """Determinant of a 3x3 matrix, cofactor expansion along row 0."""
    return _det3(as_mat3(m).tolist())


def det4(m: np.ndarray) -> float:
    """Determinant of a 4x4 matrix, cofactor expansion along row 0."""
    return _det4(as_mat4(m).tolist())


def _gram_deviation(gram) -> float:
    """max |gram[i][j] - (i == j)| over a Gram matrix given as rows."""
    devs = [abs(x - (i == j)) for i, row in enumerate(gram) for j, x in enumerate(row)]
    dev = max(devs)
    if not dev < math.inf:
        # Python's max keeps a NaN only when it comes first; numpy's max
        # returns it from anywhere. A NaN entry (inf - inf) comes with an
        # infinite one, so only an infinite max needs the scan.
        dev = next((d for d in devs if d != d), dev)
    return dev


def check_orthonormal(m: np.ndarray, tol: float = DEFAULT_TOL) -> OrthogonalityReport:
    """Report how far m is from being orthonormal, plus its determinant.

    Never raises on bad geometry: callers inspect the report and decide.
    Raises ValueError unless 0 < tol < 1: from tol 1 up, the windows
    around determinant +1 and -1 overlap, and a NaN tol fails every gate.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    m = np.asarray(m, dtype=np.float64)
    if m.shape not in ((3, 3), (4, 4)):
        raise NonFiniteInput(f"orthonormality check: expected 3x3 or 4x4, got {m.shape}")
    n = m.shape[0]
    m = _validated(m, m.shape, f"mat{n}")
    rows = m.tolist()
    det = _det3(rows) if n == 3 else _det4(rows)
    gram = mat_mul(m.T, m)
    return OrthogonalityReport(_gram_deviation(gram.tolist()), det, tol)


def _require_orthonormal(report: OrthogonalityReport, error: type[QuatrotError]) -> OrthogonalityReport:
    """The report, after raising ``error`` unless its Gram deviation is
    within the tolerance it was made with: a NaN deviation (a Gram entry
    overflowed) fails too."""
    if not report.max_abs_gram_deviation <= report.tolerance_used:
        raise error(
            f"orthogonality deviation {report.max_abs_gram_deviation:.3e} > tol {report.tolerance_used:.3e}"
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
