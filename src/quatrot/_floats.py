"""The library's closed forms on Python floats, without numpy.

Every formula of the paper that the CLI needs is written once, here, on
floats and nested lists of floats: the orthogonality gate (determinants,
the row-by-column product, the Gram deviation), the rank-1 step, the
sign rule, the quaternion norm and multiplication matrices, the
Euler-Rodrigues entries, the a00 = +-1 embedding with the extract and
angle cores, the associate matrix's signed quarter-sums (which 3D
extraction reads on the embedding), the compose product and the seeded
unit-quaternion draw. The rank-1 step also gives the 4D reconstruction
error, by the identity ||A - compose(u, v)||_F = 2 ||assoc(A) - u v^T||_F
(see ``rot4``), so no path recomposes to measure it. Each matrix gets
one verdict: ``_kind`` decides a 3x3 report (off the gate,
indeterminate, or its kind) and ``_decompose`` gates, factors and
reports a 4x4 one for both ``rot4.decompose_4d`` and the CLI. A value
passes a tolerance only as ``value <= tol``, so a NaN fails every
verdict. This module imports only math, enum, operator, collections and
quatrot's errors: no numpy and no dataclasses, so ``python -m quatrot``
runs on it alone. ``_array`` reads the CLI's matrices and every scalar
API argument that is not a float64 ndarray. ``kernels`` runs the row
formulas (``_er_entries``, ``_products``, ``_ordered_sum``) and the
policies (the tie rule ``_first_max``, the sign rule ``_sign``, the
solve ``_solve``) on component rows: the policies take the namespace
``xp``, ``_Floats`` here and ``kernels._Rows`` there, and the NaN rule
the cores keep, numpy's, is stated once, in those two.

The summation order is fixed, so results are bit-stable and equal to
the numpy code these cores replaced: determinants are cofactor
expansions along row 0 (for 4x4, each 3x3 minor expanded the same way,
the four terms added from 0.0 in column order); matrix products add
their terms left to right starting from 0.0, so an entry whose products
are all -0.0 is 0.0; the quaternion norm is sqrt(``_dot(q, q)``), the
squares added left to right (none is -0.0, so it needs no 0.0 start, and
``quaternion.quat_mul`` adds ``_dot``s too); the Gram deviation is the
largest |(A^T A - I)[i][j]| over the upper triangle's column products
(the lower one repeats them); the rank-1 step adds the 16 squares of
its residual, and those of its reconstruction error, each in one
row-major chain from 0.0, the order of ``kernels``' ``_ordered_sum``.
No result is a Python ``sum``: from Python 3.12 it adds floats with
compensation, which gives other bits.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import namedtuple

from .errors import (
    InconsistentSystem,
    IndeterminateDeterminant,
    KindMismatch,
    NonFiniteInput,
    NotARotation,
    NotARotoreflection,
    NotOrthogonal,
    NotUnit,
    QuatrotError,
    RankDeficiency,
    ZeroMatrix,
)

DEFAULT_TOL = 1e-9

# Quaternions, quaternion pairs and rank-1 factors are defined up to a
# global sign; the representative has its first component with magnitude
# above SIGN_EPS positive. _sign is that rule, on floats and, with
# kernels._Rows, on each column of a kernels block.
SIGN_EPS = 1e-12

UNIT_WINDOW = 1e-6

BRANCHES = ("A", "B", "C", "D")

_MASK64 = (1 << 64) - 1
_MULT = 2685821657736338717
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15


class IsometryKind(enum.Enum):
    ROTATION = "rotation"
    ROTOREFLECTION = "rotoreflection"


# A kind's one number: the corner a00 of its 4D embedding, which is also its determinant.
_CORNER = {IsometryKind.ROTATION: 1.0, IsometryKind.ROTOREFLECTION: -1.0}


class OrthogonalityReport(
    namedtuple("OrthogonalityReport", "max_abs_gram_deviation determinant tolerance_used")
):
    """Result of an orthonormality check.

    max_abs_gram_deviation is the largest |(A^T A - I)[i][j]|, and
    ``is_orthonormal`` is the gate's verdict on it: within tolerance_used,
    so a NaN deviation fails.
    """

    __slots__ = ()

    @property
    def is_orthonormal(self) -> bool:
        return self.max_abs_gram_deviation <= self.tolerance_used


def _require_finite(values, name: str) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteInput(f"{name}: entries must be finite")


_MAX_DIMS = 64  # numpy's limit on the dimensions of an array
_NUMBERS = frozenset((float, int, bool, str))  # float() of one of these is _array's reading of it


def _array(data, depth: int = 0):
    """(values, shape) of data as an array of real numbers: lists and tuples
    nest (to _MAX_DIMS), an object with ``tolist()`` is read through it, any
    other value is one ``float()``, None NaN; else TypeError, ValueError or
    OverflowError (a complex number, a ragged list)."""
    if type(data) not in (list, tuple) and hasattr(data, "tolist"):
        data = data.tolist()
    if type(data) not in (list, tuple):
        return (math.nan if data is None else float(data)), ()
    if depth == _MAX_DIMS:
        raise ValueError(f"lists nested more than {_MAX_DIMS} deep")
    if _NUMBERS.issuperset(map(type, data)):
        return list(map(float, data)), (len(data),)  # a row of numbers
    items = [_array(x, depth + 1) for x in data]
    shapes = {shape for _, shape in items}
    if len(shapes) > 1:
        raise ValueError(f"rows of different shapes {sorted(shapes)}")
    return [values for values, _ in items], (len(data), *shapes.pop())


class _Floats:
    """numpy's ``where``, ``sqrt`` and ``max`` on Python floats, for the
    cores that take a namespace ``xp`` (``kernels._Rows`` on rows). NaN
    rule, numpy's: when a term is NaN, wherever it is, ``max`` is NaN (the
    first NaN term), as ``np.max`` is; builtin ``max`` keeps a NaN only
    first. Equal terms give the first; numpy may give the other zero of a
    0.0, -0.0 tie, which no core's ``abs`` terms make. ``sqrt`` of a
    negative number raises here, where numpy gives NaN."""

    @staticmethod
    def where(take, a, b):
        return a if take else b

    @staticmethod
    def max(terms):
        total = sum(terms)  # NaN when a term is NaN (or inf meets -inf): only then scan
        if total != total:
            return next((t for t in terms if t != t), max(terms))
        return max(terms)

    sqrt = math.sqrt


# --- the orthogonality gate -------------------------------------------------

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


def _mat_mul(rows, cols) -> list:
    """Rows of the 3x3 or 4x4 product of the matrix with rows ``rows`` and
    the matrix with columns ``cols`` (a list, read once per row)."""
    if len(rows) == 3:
        return [[0.0 + a0 * b0 + a1 * b1 + a2 * b2 for b0, b1, b2 in cols] for a0, a1, a2 in rows]
    return [
        [0.0 + a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 for b0, b1, b2, b3 in cols]
        for a0, a1, a2, a3 in rows
    ]


def _orthogonality(rows, tol: float) -> OrthogonalityReport:
    """The gate's report on the finite 3x3 or 4x4 matrix with rows ``rows`` at
    tolerance tol. Only the Gram entries i <= j are formed, columns i and j
    added from 0.0 as ``_mat_mul`` adds them ((j, i) would repeat (i, j)).
    The deviation is their ``_Floats.max``: NaN if an entry overflowed."""
    if len(rows) == 3:
        (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = rows  # a, b, c are the columns
        devs = (
            abs(0.0 + a0 * a0 + a1 * a1 + a2 * a2 - 1.0), abs(0.0 + a0 * b0 + a1 * b1 + a2 * b2),
            abs(0.0 + a0 * c0 + a1 * c1 + a2 * c2), abs(0.0 + b0 * b0 + b1 * b1 + b2 * b2 - 1.0),
            abs(0.0 + b0 * c0 + b1 * c1 + b2 * c2), abs(0.0 + c0 * c0 + c1 * c1 + c2 * c2 - 1.0),
        )
        det = _det3(rows)
    else:
        (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3) = rows
        devs = (
            abs(0.0 + a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 - 1.0),
            abs(0.0 + a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3),
            abs(0.0 + a0 * c0 + a1 * c1 + a2 * c2 + a3 * c3),
            abs(0.0 + a0 * d0 + a1 * d1 + a2 * d2 + a3 * d3),
            abs(0.0 + b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3 - 1.0),
            abs(0.0 + b0 * c0 + b1 * c1 + b2 * c2 + b3 * c3),
            abs(0.0 + b0 * d0 + b1 * d1 + b2 * d2 + b3 * d3),
            abs(0.0 + c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3 - 1.0),
            abs(0.0 + c0 * d0 + c1 * d1 + c2 * d2 + c3 * d3),
            abs(0.0 + d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 - 1.0),
        )
        det = _det4(rows)
    return OrthogonalityReport(_Floats.max(devs), det, tol)


def _require_orthonormal(report: OrthogonalityReport, error: type[QuatrotError]) -> None:
    """Raise ``error`` unless ``report.is_orthonormal``."""
    if not report.is_orthonormal:
        raise error(
            f"orthogonality deviation {report.max_abs_gram_deviation:.3e} > tol {report.tolerance_used:.3e}"
        )


# --- the sign rule and the rank-1 step ----------------------------------------

def _first_max(keys, rows, xp=_Floats) -> tuple:
    """(index, key, row): index is the first i with the largest keys[i]
    (strict >, as max(range(k), key=keys.__getitem__): ties go to the lower
    index, NaN only at index 0), and row is rows[index]; per column on rows."""
    index, key, row = 0, keys[0], rows[0]
    for i in range(1, len(keys)):
        take = keys[i] > key
        index = xp.where(take, i, index)
        key = xp.where(take, keys[i], key)
        row = xp.where(take, rows[i], row)
    return index, key, row


def _sign(q, xp=_Floats):
    """``canonical_sign`` of q, per column on rows: scanning back from the
    last component, lead ends as the first one with magnitude above
    SIGN_EPS, or the last one when none is."""
    lead = q[-1]
    for comp in q[-2::-1]:
        lead = xp.where(abs(comp) > SIGN_EPS, comp, lead)
    return xp.where(lead < -SIGN_EPS, -1.0, 1.0)


def canonical_sign(q) -> float:
    """+1.0 or -1.0: the factor that makes the first component of q with
    magnitude above SIGN_EPS positive (scanning in index order); +1.0
    when no component is that large."""
    return _sign(q)


def _ordered_sum(terms):
    """terms[0] + terms[1] + ... in index order: floats, or arrays elementwise."""
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return total


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def _norm(q) -> float:
    return math.sqrt(_dot(q, q))


def _normalized(*x) -> tuple:
    norm = _norm(x)
    return x[0] / norm, x[1] / norm, x[2] / norm, x[3] / norm


def _rank1(rows, tol: float):
    """``linalg.rank1_factor`` of the finite 4x4 matrix with rows ``rows``,
    for a tol in (0, 1), and its reconstruction error: (u, v, residual,
    2 ||rows - u v^T||_F) as floats. When rows is the associate matrix of
    A, the last is ||A - compose(u, v)||_F (the identity in ``rot4``)."""
    c0, c1, c2, c3 = cols = tuple(zip(*rows))
    squares = (_dot(c0, c0), _dot(c1, c1), _dot(c2, c2), _dot(c3, c3))
    scale = math.sqrt(squares[0] + squares[1] + squares[2] + squares[3])
    if scale <= tol:
        raise ZeroMatrix(f"Frobenius norm {scale:.3e} <= tol {tol:.3e}")
    if scale == math.inf:
        # squares of entries above about 1.3e154 overflow: the seed
        # column's norm is inf, and normalising it gives zeros
        raise NonFiniteInput(f"Frobenius norm overflows to {scale}: entries too large to square")
    u = _normalized(*_first_max(squares, cols)[2])
    v = _normalized(_dot(c0, u), _dot(c1, u), _dot(c2, u), _dot(c3, u))
    u = _normalized(_dot(rows[0], v), _dot(rows[1], v), _dot(rows[2], v), _dot(rows[3], v))
    v = _normalized(_dot(c0, u), _dot(c1, u), _dot(c2, u), _dot(c3, u))
    sign = _sign(u)
    u = (u[0] * sign, u[1] * sign, u[2] * sign, u[3] * sign)
    v0, v1, v2, v3 = v = (v[0] * sign, v[1] * sign, v[2] * sign, v[3] * sign)
    # e = x - u v^T, and the residual's d = e + (1 - scale) u v^T. 0.0 + a
    # square is that square, so each sum of 16 is one row-major chain.
    w, total, error = 1.0 - scale, 0.0, 0.0
    for (x0, x1, x2, x3), ui in zip(rows, u):
        p0, p1, p2, p3 = ui * v0, ui * v1, ui * v2, ui * v3
        e0, e1, e2, e3 = x0 - p0, x1 - p1, x2 - p2, x3 - p3
        d0, d1, d2, d3 = e0 + p0 * w, e1 + p1 * w, e2 + p2 * w, e3 + p3 * w
        total = total + d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
        error = error + e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3
    return u, v, math.sqrt(total), 2.0 * math.sqrt(error)


# --- quaternions ----------------------------------------------------------------

def _unit(q) -> list:
    """The four floats of q divided by its norm; NotUnit outside the window."""
    n = _norm(q)
    if not abs(n - 1.0) <= UNIT_WINDOW:
        raise NotUnit(f"quaternion norm {n!r} is not within {UNIT_WINDOW} of 1")
    return [c / n for c in q]


def _left_rows(l) -> list:
    a, b, c, d = l
    return [
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]


def _right_rows(r) -> list:
    p, q, r_, s = r
    return [
        [p, -q, -r_, -s],
        [q, p, s, -r_],
        [r_, -s, p, q],
        [s, r_, -q, p],
    ]


# --- 3D: Euler-Rodrigues and extraction from the embedding ----------------------

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


def _rotation_rows(q) -> list:
    """Rows of the Euler-Rodrigues matrix of q, normalised within the unit window."""
    e = _er_entries(*_unit(q))
    return [list(e[0:3]), list(e[3:6]), list(e[6:9])]


def _kind(report: OrthogonalityReport, error: type[QuatrotError] = NotOrthogonal) -> IsometryKind:
    """The one verdict on a 3x3 matrix, from its report: ``error`` off the
    gate, else the first kind, ROTATION first, whose corner a00 the
    determinant is within tol of, else IndeterminateDeterminant."""
    _require_orthonormal(report, error)
    for kind, corner in _CORNER.items():
        if abs(report.determinant - corner) <= report.tolerance_used:
            return kind
    # reached only when a loose tol lets a non-orthogonal matrix through
    raise IndeterminateDeterminant(f"determinant {report.determinant!r} is far from both +1 and -1")


def _as_kind(kind) -> IsometryKind:
    """IsometryKind(kind): a member as it is, or its value; KindMismatch for anything else."""
    if type(kind) is IsometryKind:
        return kind
    try:
        return IsometryKind(kind)
    except ValueError:
        raise KindMismatch(f"kind must be 'rotation' or 'rotoreflection', got {kind!r}") from None


def _require_kind(report: OrthogonalityReport, kind: IsometryKind) -> None:
    """Raise what _kind raises, or KindMismatch unless the matrix is of kind."""
    if _kind(report) is not kind:
        raise KindMismatch(f"determinant {report.determinant!r} does not match kind {kind.value}")


# Per kind: what the kind's extractor raises, with its message for the other kind.
_EXTRACT_ERRORS = {
    IsometryKind.ROTATION: (NotARotation, "determinant is -1; use extract_rotoreflection"),
    IsometryKind.ROTOREFLECTION: (NotARotoreflection, "determinant is +1; use extract_rotation"),
}


def _embedding(rows, kind: IsometryKind) -> list:
    """Rows of the 4D rotation embedding the 3x3 isometry with rows
    ``rows`` (floats or arrays): corner +1 for a rotation, -1 for a
    rotoreflection, and a zero border of floats."""
    return [[_CORNER[kind], 0.0, 0.0, 0.0]] + [[0.0, *row] for row in rows]


def _products(rows, kind: IsometryKind) -> list:
    """The table q_i q_j of the parameters of the 3x3 isometry with rows
    ``rows`` (floats, or the component rows of a ``kernels`` block). The
    associate matrix of its embedding is +-q conj(q)^T: column 0 holds
    +-q_i q_0, columns j > 0 hold -+q_i q_j. 0.0 - x and 0.0 + x make a
    zero product +0.0; a rotation's column 0 never sums to -0.0."""
    assoc = _associate(_embedding(rows, kind))
    # two sign patterns: one scaled by the corner took 314 instead of 168 us per 4,096-row extract block
    if kind is IsometryKind.ROTATION:
        return [[p0, 0.0 - p1, 0.0 - p2, 0.0 - p3] for p0, p1, p2, p3 in assoc]
    return [[0.0 - p0, 0.0 + p1, 0.0 + p2, 0.0 + p3] for p0, p1, p2, p3 in assoc]


def _residual(table, q, xp=_Floats):
    """The largest |q_i q_j - table[i][j]| in one reduction: the ten
    equations, each once (i <= j; the table is symmetric), row-major."""
    (t00, t01, t02, t03), (_, t11, t12, t13), (_, _, t22, t23), (_, _, _, t33) = table
    q0, q1, q2, q3 = q
    return xp.max([
        abs(q0 * q0 - t00), abs(q0 * q1 - t01), abs(q0 * q2 - t02), abs(q0 * q3 - t03),
        abs(q1 * q1 - t11), abs(q1 * q2 - t12), abs(q1 * q3 - t13),
        abs(q2 * q2 - t22), abs(q2 * q3 - t23),
        abs(q3 * q3 - t33),
    ])


def _solve(table, xp=_Floats) -> tuple:
    """(branch, q, residual) from the table of products q_i q_j: seed from
    the largest square, divide its row by the seed, apply the sign rule and
    measure the ten equations; ``xp`` is ``kernels._Rows`` on component rows.
    A finite 3x3's four squares sum to 1 before rounding and the largest is
    at least (1 + max |m_ii|) / 4, so the seed is positive."""
    branch, square, row = _first_max([table[i][i] for i in range(4)], table, xp)
    seed = xp.sqrt(square)
    q = [xp.where(i == branch, seed, t / seed) for i, t in enumerate(row)]
    sign = _sign(q, xp)
    q = [c * sign for c in q]
    return branch, q, _residual(table, q, xp)


def _extract(rows, report: OrthogonalityReport, kind: IsometryKind):
    """``rot3.extract_rotation`` (or ``extract_rotoreflection``) on floats:
    (params, branch, residual), given the report _orthogonality made of
    the finite 3x3 matrix with rows ``rows``."""
    error, other_kind = _EXTRACT_ERRORS[kind]
    if _kind(report, error) is not kind:
        raise error(other_kind)
    tol = report.tolerance_used
    k, q, residual = _solve(_products(rows, kind))
    if not residual <= tol:
        raise InconsistentSystem(f"ten-equation residual {residual:.3e} > tol {tol:.3e}")
    return q, BRANCHES[k], residual


def _rotation_angle(rows, kind: IsometryKind) -> tuple:
    """(alpha, cos_alpha) of the 3x3 isometry of kind ``kind`` with rows
    ``rows``: the caller has checked the matrix and its kind. The trace is
    2 cos(alpha) + a00, a00 the kind's corner."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    cos_alpha = (m00 + m11 + m22 - _CORNER[kind]) / 2.0
    cos_alpha = min(1.0, max(-1.0, cos_alpha))
    sin_alpha = math.hypot(m21 - m12, m02 - m20, m10 - m01) / 2.0
    return math.atan2(sin_alpha, cos_alpha), cos_alpha


# --- 4D: associate matrix, compose and decompose --------------------------------

def _associate(rows) -> list:
    """Rows of the associate matrix of the 4x4 matrix with rows ``rows``."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    return [
        [0.25 * s for s in (
            a00 + a11 + a22 + a33, a10 - a01 - a32 + a23, a20 + a31 - a02 - a13, a30 - a21 + a12 - a03,
        )],
        [0.25 * s for s in (
            a10 - a01 + a32 - a23, -a00 - a11 + a22 + a33, a30 - a21 - a12 + a03, -a20 - a31 - a02 - a13,
        )],
        [0.25 * s for s in (
            a20 - a31 - a02 + a13, -a30 - a21 - a12 - a03, -a00 + a11 - a22 + a33, a10 + a01 - a32 - a23,
        )],
        [0.25 * s for s in (
            a30 + a21 - a12 - a03, a20 - a31 + a02 - a13, -a10 - a01 - a32 - a23, -a00 + a11 + a22 - a33,
        )],
    ]


def _compose(l, r) -> list:
    """Rows of M_L(l) M_R(r) for quaternions l, r already normalised."""
    return _mat_mul(_left_rows(l), list(zip(*_right_rows(r))))


def _decompose(rows, report: OrthogonalityReport) -> tuple:
    """(left, right, rank1_residual, reconstruction_error) of the finite 4x4
    matrix with rows ``rows``, given its report: ``_rank1`` on its
    associate matrix. NotARotation off the gate or for a determinant not
    +1, RankDeficiency for a residual above tol. ``rot4.decompose_4d`` and
    the CLI's ``decompose4`` and ``verify`` all call it."""
    tol = report.tolerance_used
    _require_orthonormal(report, NotARotation)
    if not abs(report.determinant - 1.0) <= tol:
        raise NotARotation(f"determinant {report.determinant!r} is not +1")
    u, v, residual, error = _rank1(_associate(rows), tol)
    if not residual <= tol:
        raise RankDeficiency(f"rank-1 residual {residual:.3e} > tol {tol:.3e}")
    return u, v, residual, error


# --- the seeded generator ---------------------------------------------------------

class Xorshift64Star:
    """Deterministic 64-bit PRNG; same seed, same stream, everywhere."""

    def __init__(self, seed: int):
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {seed!r}") from None
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self._state = seed or _ZERO_SEED_REPLACEMENT
        self._spare_normal = None

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _MULT) & _MASK64

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via Box-Muller; generates pairs, caches one."""
        if self._spare_normal is not None:
            value = self._spare_normal
            self._spare_normal = None
            return value
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


def _random_unit_quaternion(rng: Xorshift64Star) -> list:
    while True:
        q = [rng.normal(), rng.normal(), rng.normal(), rng.normal()]
        n = _norm(q)
        if n >= 1e-6:
            return [c / n for c in q]


def _random_rotation(seed: int, dim: int) -> list:
    """Rows of ``rng.random_rotation(seed, dim)``: the draws go through the
    unit-window normalisation of ``euler_rodrigues`` and ``compose_4d``."""
    rng = Xorshift64Star(seed)
    if dim == 3:
        return _rotation_rows(_random_unit_quaternion(rng))
    if dim == 4:
        l, r = _random_unit_quaternion(rng), _random_unit_quaternion(rng)
        return _compose(_unit(l), _unit(r))
    raise ValueError("dim must be 3 or 4")
