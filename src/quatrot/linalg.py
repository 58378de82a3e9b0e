"""Fixed-size dense matrix/vector primitives.

Values are plain float64 numpy arrays: shape (4,) vectors, (3, 3) and
(4, 4) matrices. The ``as_*`` constructors validate shape, reject NaN/Inf
and return a C-ordered copy. Each public function of the scalar API
(here and in quaternion, rot3, rot4 and rng) reads each argument once
with ``_float_rows``: one ``np.array`` unless it is a float64 ndarray
already, a shape check, ``tolist()``, and ``_floats._require_finite`` on
the Python floats. It hands those to the cores in ``_floats``, which
import no numpy, and returns ``np.array`` of their result (``rot3``
gates its floats with ``_report``). All functions are pure, never
mutate an argument and never return a view of one.
``OrthogonalityReport``, ``canonical_sign`` and ``SIGN_EPS`` are
``_floats``' own objects, re-exported here; the summation orders are
described there.
"""

from __future__ import annotations

from itertools import chain
from numbers import Real

import numpy as np

from ._floats import (
    DEFAULT_TOL,
    SIGN_EPS,
    OrthogonalityReport,
    _det3,
    _det4,
    _gram,
    _mat_mul,
    _orthogonality,
    _rank1,
    _require_finite,
    canonical_sign,
)
from .errors import NonFiniteInput


def _float_rows(a, shape: tuple, name: str) -> list:
    """a's entries as (nested lists of) Python floats, converting only what is
    not a float64 ndarray; NonFiniteInput naming ``name`` for another shape, NaN or Inf."""
    if type(a) is not np.ndarray or a.dtype.char != "d":
        a = np.array(a, dtype=np.float64)
    if a.shape != shape:
        raise NonFiniteInput(f"{name}: expected shape {shape}, got {a.shape}")
    rows = a.tolist()
    _require_finite(chain(*rows) if len(shape) == 2 else rows, name)
    return rows


def _require_tol(tol) -> None:
    """ValueError unless tol is a real number in (0, 1); a float skips the ABC check."""
    if not ((type(tol) is float or isinstance(tol, Real)) and 0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")


def _report(rows: list, tol) -> OrthogonalityReport:
    """``check_orthonormal(m, tol)``, on the rows ``_float_rows`` read of m."""
    _require_tol(tol)
    return _orthogonality(rows, _gram(rows), tol)


def as_vec4(v) -> np.ndarray:
    """Validate and copy a length-4 vector."""
    return np.array(_float_rows(v, (4,), "vec4"))


def as_mat3(m) -> np.ndarray:
    """Validate and copy a 3x3 matrix."""
    return np.array(_float_rows(m, (3, 3), "mat3"))


def as_mat4(m) -> np.ndarray:
    """Validate and copy a 4x4 matrix."""
    return np.array(_float_rows(m, (4, 4), "mat4"))


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed accumulation order.

    Entries are formed row-by-column, summing products left to right
    from 0.0, so that golden tests are reproducible bit-for-bit on one
    platform. Accepts 3x3 or 4x4 pairs.
    """
    shape = np.shape(a)
    if shape != np.shape(b) or shape not in ((3, 3), (4, 4)):
        raise NonFiniteInput(f"matrix product: incompatible shapes {shape}, {np.shape(b)}")
    rows = _float_rows(a, shape, "matrix")
    return np.array(_mat_mul(rows, list(zip(*_float_rows(b, shape, "matrix")))))


def det3(m: np.ndarray) -> float:
    """Determinant of a 3x3 matrix, cofactor expansion along row 0."""
    return _det3(_float_rows(m, (3, 3), "mat3"))


def det4(m: np.ndarray) -> float:
    """Determinant of a 4x4 matrix, cofactor expansion along row 0."""
    return _det4(_float_rows(m, (4, 4), "mat4"))


def check_orthonormal(m: np.ndarray, tol: float = DEFAULT_TOL) -> OrthogonalityReport:
    """Report how far m is from being orthonormal, plus its determinant.

    Never raises on bad geometry: callers inspect the report and decide.
    Raises ValueError unless 0 < tol < 1: from tol 1 up, the windows
    around determinant +1 and -1 overlap, and a NaN tol fails every gate.
    """
    _require_tol(tol)
    m = np.asarray(m, dtype=np.float64)
    if m.shape not in ((3, 3), (4, 4)):
        raise NonFiniteInput(f"orthonormality check: expected 3x3 or 4x4, got {m.shape}")
    rows = _float_rows(m, m.shape, f"mat{m.shape[0]}")
    # mat_mul gives _gram(rows)'s bytes; it stays while perfbench pins it (ROADMAP item 6)
    return _orthogonality(rows, mat_mul(m.T, m).tolist(), tol)


def rank1_factor(m: np.ndarray, tol: float = DEFAULT_TOL):
    """Factor a (near-)rank-1 4x4 matrix as scale * u v^T with unit u, v.

    u starts as the first column of largest squared norm; then v = m^T u,
    u = m v and v = m^T u, each normalized, and canonical_sign(u) flips
    both. scale is ||m||_F; the residual ||m - scale u v^T||_F is formed as
    ||(m - u v^T) + (1 - scale) u v^T||_F. Sums add in index order on Python
    floats, so no bit depends on BLAS; ``kernels.batch_decompose_4d`` runs
    these steps on component rows. Returns (u, v, residual). Raises
    ValueError unless 0 < tol < 1, ZeroMatrix when ||m||_F <= tol, and
    NonFiniteInput when ||m||_F overflows (entries above about 1.3e154).
    """
    _require_tol(tol)
    u, v, residual = _rank1(_float_rows(m, (4, 4), "mat4"), tol)
    return np.array(u), np.array(v), residual
