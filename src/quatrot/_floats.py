"""The library's closed forms on Python floats, without numpy.

Every formula of the paper that the CLI needs is written once, here, on
floats and nested lists of floats: the orthogonality gate (determinants,
the row-by-column product, the Gram deviation), the rank-1 step, the
sign rule, the quaternion norm and multiplication matrices, the
Euler-Rodrigues entries, the a00 = +-1 embedding with the extract,
angle and embed cores, the associate matrix's signed quarter-sums (which
3D extraction reads on the embedding), the compose product, the
reconstruction error and the seeded unit-quaternion draw. This module
imports only math, quatrot's errors, and enum, collections (whose
``namedtuple`` makes ``OrthogonalityReport``) and operator, which the
CLI's json loads anyway: no numpy and no dataclasses, so ``python -m
quatrot`` runs on it alone. The public functions of ``linalg``,
``quaternion``, ``rot3``, ``rot4`` and ``rng`` validate their arguments,
call these cores on ``ndarray.tolist()`` values and return ``np.array``
of the result; ``kernels`` evaluates the row formulas (``_er_entries``,
``_products``, ``_ordered_sum``) on the component rows of its blocks.

The summation order is fixed, so results are bit-stable and equal to
the numpy code these cores replaced: determinants are cofactor
expansions along row 0 (for 4x4, each 3x3 minor expanded the same way,
the four terms added from 0.0 in column order); matrix products and the
quaternion norm add their terms left to right starting from 0.0, so an
entry whose products are all -0.0 is 0.0; the Gram deviation is the
largest |(A^T A - I)[i][j]|, NaN when an entry is NaN, as numpy's max;
the reconstruction error adds its 16 squares in the order of numpy's
pairwise sum. Python's ``sum`` is not used: from Python 3.12 it adds
floats with compensation, which gives other bits.
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
# above SIGN_EPS positive. kernels._signs applies the same rule to each
# column of a component-major block.
SIGN_EPS = 1e-12

UNIT_WINDOW = 1e-6

BRANCHES = ("A", "B", "C", "D")

_MASK64 = (1 << 64) - 1
_MULT = 2685821657736338717
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15


class IsometryKind(enum.Enum):
    ROTATION = "rotation"
    ROTOREFLECTION = "rotoreflection"


class OrthogonalityReport(
    namedtuple("OrthogonalityReport", "max_abs_gram_deviation determinant tolerance_used")
):
    """Result of an orthonormality check.

    max_abs_gram_deviation is the largest |(A^T A - I)[i][j]|; callers
    compare it against their own tolerance to accept or reject.
    """

    __slots__ = ()

    @property
    def is_orthonormal(self) -> bool:
        return self.max_abs_gram_deviation <= self.tolerance_used


def _require_finite(values, name: str) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteInput(f"{name}: entries must be finite")


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


def _gram(rows) -> list:
    """A^T A of the matrix with rows ``rows``: the product of its columns."""
    cols = list(zip(*rows))
    return _mat_mul(cols, cols)


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


def _orthogonality(rows, gram, tol: float) -> OrthogonalityReport:
    """The gate's report on the finite matrix with rows ``rows``, whose
    Gram matrix is ``gram`` (``_gram(rows)``'s entries), at tolerance tol."""
    det = _det3(rows) if len(rows) == 3 else _det4(rows)
    return OrthogonalityReport(_gram_deviation(gram), det, tol)


def _require_orthonormal(report: OrthogonalityReport, error: type[QuatrotError]) -> OrthogonalityReport:
    """The report, after raising ``error`` unless its Gram deviation is
    within the tolerance it was made with: a NaN deviation (a Gram entry
    overflowed) fails too."""
    if not report.max_abs_gram_deviation <= report.tolerance_used:
        raise error(
            f"orthogonality deviation {report.max_abs_gram_deviation:.3e} > tol {report.tolerance_used:.3e}"
        )
    return report


# --- the sign rule and the rank-1 step ----------------------------------------

def canonical_sign(q) -> float:
    """+1.0 or -1.0: the factor that makes the first component of q with
    magnitude above SIGN_EPS positive (scanning in index order); +1.0
    when no component is that large."""
    for comp in q:
        if abs(comp) > SIGN_EPS:
            return -1.0 if comp < 0.0 else 1.0
    return 1.0


def _ordered_sum(terms):
    """terms[0] + terms[1] + ... in index order: floats, or arrays elementwise."""
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return total


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def _normalized(x0, x1, x2, x3) -> tuple:
    norm = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)
    return x0 / norm, x1 / norm, x2 / norm, x3 / norm


def _rank1(rows, tol: float):
    """``linalg.rank1_factor`` of the finite 4x4 matrix with rows ``rows``,
    for a tol in (0, 1): (u, v, residual) as floats."""
    c0, c1, c2, c3 = cols = tuple(zip(*rows))
    squares = (_dot(c0, c0), _dot(c1, c1), _dot(c2, c2), _dot(c3, c3))
    scale = math.sqrt(squares[0] + squares[1] + squares[2] + squares[3])
    if scale <= tol:
        raise ZeroMatrix(f"Frobenius norm {scale:.3e} <= tol {tol:.3e}")
    if scale == math.inf:
        # squares of entries above about 1.3e154 overflow: the seed
        # column's norm is inf, and normalising it gives zeros
        raise NonFiniteInput(f"Frobenius norm overflows to {scale}: entries too large to square")
    u = _normalized(*cols[max(range(4), key=squares.__getitem__)])
    v = _normalized(_dot(c0, u), _dot(c1, u), _dot(c2, u), _dot(c3, u))
    u = _normalized(_dot(rows[0], v), _dot(rows[1], v), _dot(rows[2], v), _dot(rows[3], v))
    v = _normalized(_dot(c0, u), _dot(c1, u), _dot(c2, u), _dot(c3, u))
    sign = canonical_sign(u)
    u = (u[0] * sign, u[1] * sign, u[2] * sign, u[3] * sign)
    v0, v1, v2, v3 = v = (v[0] * sign, v[1] * sign, v[2] * sign, v[3] * sign)
    # 0.0 + a square is that square, so the 16 add as one left-to-right chain
    w, total = 1.0 - scale, 0.0
    for (x0, x1, x2, x3), ui in zip(rows, u):
        p0, p1, p2, p3 = ui * v0, ui * v1, ui * v2, ui * v3
        d0, d1, d2, d3 = x0 - p0 + p0 * w, x1 - p1 + p1 * w, x2 - p2 + p2 * w, x3 - p3 + p3 * w
        total = total + d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
    return u, v, math.sqrt(total)


# --- quaternions ----------------------------------------------------------------

def _norm(q) -> float:
    w, x, y, z = q
    return math.sqrt(0.0 + w * w + x * x + y * y + z * z)


def _unit(q) -> list:
    """The four floats of q divided by its norm; NotUnit outside the window."""
    n = _norm(q)
    if abs(n - 1.0) > UNIT_WINDOW:
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


def _kind(report: OrthogonalityReport) -> IsometryKind:
    tol = report.tolerance_used
    if abs(report.determinant - 1.0) <= tol:
        return IsometryKind.ROTATION
    if abs(report.determinant + 1.0) <= tol:
        return IsometryKind.ROTOREFLECTION
    # reached only when a loose tol lets a non-orthogonal matrix through
    raise IndeterminateDeterminant(f"determinant {report.determinant!r} is far from both +1 and -1")


def _classify(report: OrthogonalityReport) -> IsometryKind:
    return _kind(_require_orthonormal(report, NotOrthogonal))


def _as_kind(kind) -> IsometryKind:
    """IsometryKind(kind): a member or its value; KindMismatch for anything else."""
    try:
        return IsometryKind(kind)
    except ValueError:
        raise KindMismatch(f"kind must be 'rotation' or 'rotoreflection', got {kind!r}") from None


def _require_kind(report: OrthogonalityReport, kind: IsometryKind) -> None:
    """Raise what _classify raises, or KindMismatch unless the matrix is of kind."""
    if _classify(report) is not kind:
        raise KindMismatch(f"determinant {report.determinant!r} does not match kind {kind.value}")


def _embedding(rows, kind: IsometryKind) -> list:
    """Rows of the 4D rotation embedding the 3x3 isometry with rows
    ``rows`` (floats or arrays): corner +1 for a rotation, -1 for a
    rotoreflection, and a zero border of floats."""
    corner = 1.0 if kind is IsometryKind.ROTATION else -1.0
    return [[corner, 0.0, 0.0, 0.0]] + [[0.0, *row] for row in rows]


def _products(rows, kind: IsometryKind) -> list:
    """The table q_i q_j of the parameters of the 3x3 isometry with rows
    ``rows`` (floats, or the component rows of a ``kernels`` block). The
    associate matrix of its embedding is +-q conj(q)^T: column 0 holds
    +-q_i q_0, columns j > 0 hold -+q_i q_j. 0.0 - x and 0.0 + x make a
    zero product +0.0; a rotation's column 0 never sums to -0.0."""
    assoc = _associate(_embedding(rows, kind))
    if kind is IsometryKind.ROTATION:
        return [[p0, 0.0 - p1, 0.0 - p2, 0.0 - p3] for p0, p1, p2, p3 in assoc]
    return [[0.0 - p0, 0.0 + p1, 0.0 + p2, 0.0 + p3] for p0, p1, p2, p3 in assoc]


def _residual(table, q) -> float:
    """The largest |q_i q_j - table[i][j]|: the ten equations, each
    off-diagonal one met twice."""
    return max(abs(qi * qj - t) for qi, row in zip(q, table) for qj, t in zip(q, row))


# What each kind's extractor raises, and its message for the other kind.
_EXTRACT_ERRORS = {
    IsometryKind.ROTATION: (NotARotation, "determinant is -1; use extract_rotoreflection"),
    IsometryKind.ROTOREFLECTION: (NotARotoreflection, "determinant is +1; use extract_rotation"),
}


# The cores below take the rows of a finite 3x3 matrix and the report
# _orthogonality made of it, so a caller that needs several answers
# about one matrix (the CLI) checks it once.

def _extract(rows, report: OrthogonalityReport, kind: IsometryKind, refine: bool = False):
    """``rot3.extract_rotation`` (or ``extract_rotoreflection``) on floats:
    (params, branch, residual)."""
    error, other_kind = _EXTRACT_ERRORS[kind]
    _require_orthonormal(report, error)
    if _kind(report) is not kind:
        raise error(other_kind)
    tol = report.tolerance_used
    table = _products(rows, kind)

    k = max(range(4), key=lambda i: table[i][i])
    seed = math.sqrt(max(table[k][k], 0.0))
    q = [t / seed for t in table[k]]
    q[k] = seed

    residual = _residual(table, q)
    if residual > tol:
        raise InconsistentSystem(f"ten-equation residual {residual:.3e} > tol {tol:.3e}")
    sign = canonical_sign(q)
    q = [c * sign for c in q]
    if refine:
        q = _unit(q)
        residual = _residual(table, q)
    return q, BRANCHES[k], residual


def _rotation_angle(rows, report: OrthogonalityReport, kind: IsometryKind) -> tuple:
    """``rot3.rotation_angle`` on floats: (alpha, cos_alpha)."""
    _require_kind(report, kind)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    trace = m00 + m11 + m22
    if kind is IsometryKind.ROTATION:
        cos_alpha = (trace - 1.0) / 2.0
    else:
        cos_alpha = (trace + 1.0) / 2.0
    cos_alpha = min(1.0, max(-1.0, cos_alpha))
    sin_alpha = math.hypot(m21 - m12, m02 - m20, m10 - m01) / 2.0
    return math.atan2(sin_alpha, cos_alpha), cos_alpha


def _embed_4d(rows, report: OrthogonalityReport, kind: IsometryKind) -> list:
    """``rot3.embed_4d`` on floats: rows of the 4x4 embedding."""
    _require_kind(report, kind)
    return _embedding(rows, kind)


# --- 4D: associate matrix, compose and decompose --------------------------------

def _associate(rows) -> list:
    """Rows of the associate matrix of the 4x4 matrix with rows ``rows``."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    sums = (
        (
            a00 + a11 + a22 + a33,
            a10 - a01 - a32 + a23,
            a20 + a31 - a02 - a13,
            a30 - a21 + a12 - a03,
        ),
        (
            a10 - a01 + a32 - a23,
            -a00 - a11 + a22 + a33,
            a30 - a21 - a12 + a03,
            -a20 - a31 - a02 - a13,
        ),
        (
            a20 - a31 - a02 + a13,
            -a30 - a21 - a12 - a03,
            -a00 + a11 - a22 + a33,
            a10 + a01 - a32 - a23,
        ),
        (
            a30 + a21 - a12 - a03,
            a20 - a31 + a02 - a13,
            -a10 - a01 - a32 - a23,
            -a00 + a11 + a22 - a33,
        ),
    )
    return [[0.25 * s for s in row] for row in sums]


def _compose(l, r) -> list:
    """Rows of M_L(l) M_R(r) for quaternions l, r already normalised."""
    return _mat_mul(_left_rows(l), list(zip(*_right_rows(r))))


def _frobenius_distance(a, b) -> float:
    """||a - b||_F of two 4x4 matrices given as rows, adding the 16 squares
    x_k as numpy's pairwise sum adds them: r_j = x_j + x_(j+8), then
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))."""
    x = [d * d for ra, rb in zip(a, b) for d in (p - q for p, q in zip(ra, rb))]
    r = [x[j] + x[j + 8] for j in range(8)]
    return math.sqrt(((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _require_rotation4(report: OrthogonalityReport) -> None:
    _require_orthonormal(report, NotARotation)
    if abs(report.determinant - 1.0) > report.tolerance_used:
        raise NotARotation(f"determinant {report.determinant!r} is not +1")


def _require_rank1(residual: float, tol: float) -> None:
    if residual > tol:
        raise RankDeficiency(f"rank-1 residual {residual:.3e} > tol {tol:.3e}")


def _decompose(rows, report: OrthogonalityReport) -> tuple:
    """``rot4.decompose_4d`` of the finite 4x4 matrix with rows ``rows``,
    given its report: (left, right, rank1_residual, reconstruction_error).
    ``rot4.decompose_4d`` takes the same steps through the public functions."""
    tol = report.tolerance_used
    _require_rotation4(report)
    u, v, residual = _rank1(_associate(rows), tol)
    _require_rank1(residual, tol)
    return u, v, residual, _frobenius_distance(rows, _compose(_unit(u), _unit(v)))


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
