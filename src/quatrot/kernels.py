"""Batch kernels for the hot numeric loops, vectorized with numpy.

Batch layouts: quaternions (n, 4) in (w, x, y, z) order, matrices
(n, 3, 3) or (n, 4, 4). Each kernel checks only that every argument is
an ndarray of real numbers (bool, int or float dtype) in its layout, with
the same n for both arguments of compose (``_stack``), else raises
NonFiniteInput naming it; it reads each block as float64 (``_blocked``),
so a stack of any dtype gives its float64 cast's bytes. Beyond that the
kernels trust their inputs (finite rows, rotations where that matters)
and report residuals; row validation and errors live in rot3/rot4.

Block contract: each kernel allocates its outputs once, then runs its
formula over consecutive blocks of at most ``_BLOCK`` rows and writes
each block's results into their slice. Row i of every result depends
only on row i of the inputs, not on n, on the row's position in the
stack or on the inputs' memory order, and the temporaries a call
allocates are bounded by one block whatever n is.

The three 4D kernels share one table, ``_ASSOC``, derived at import from
the associate entries that ``rot4.associate_matrix`` evaluates
(``_floats._associate``): associate is vec(a) @ _ASSOC, compose is
vec(l r^T) @ 4 _ASSOC^T, and decompose takes its reconstruction error
from the associate matrix (the identity in ``rot4``) instead of
recomposing. A table multiplies every entry of a row, zeros included, so
one inf or NaN entry makes every output of its row non-finite: the
entries of associate and compose that do not sum it become NaN (0 * inf).
Other rows are not affected. Each table product is one GEMM per block
(``_gemm``), its rows padded to a multiple of 8, so the block contract
holds for these three on OpenBLAS's SkylakeX, Haswell, Zen and Prescott
kernels alike (checked on each).

The two 3D kernels evaluate the scalar API's formulas and policies, not
copies of them: Euler-Rodrigues evaluates ``_floats._er_entries`` on the
block's component rows; extract reads its table of products with
``_floats._products`` (the associate formula on the a00 = +1 embedding)
and its seed, sign and residual from ``_floats._solve``. Decompose keeps
only its power steps; its seed column and sign come from
``_floats._first_max`` and ``_floats._sign``. The policies run with
``_Rows``, so on rows they keep the NaN rule they keep on floats.

Component-major blocks: decompose, extract and Euler-Rodrigues transpose
their block once into a contiguous (k, b) array, row i holding component
i of every row, and write their results back transposed once. In
between, every step is elementwise on length-b rows: sums add their
terms in index order (``_ordered_sum``), and the seed choices take the
first largest key by strict ``>`` (``_first_max``), which never picks a
NaN after the first key, where np.argmax takes NaN as the largest.
numpy's ``sum`` and ``einsum`` are avoided on purpose: a contiguous
``sum`` of eight or more terms is pairwise, so with b = 1 it adds in
another order than with b > 1, and einsum's order varied with the block
length; either would break the block contract.
"""

from __future__ import annotations

import numpy as np

from . import _floats
from ._floats import IsometryKind, _ordered_sum
from .errors import NonFiniteInput

# Rows per block. One (b, 4, 4) float64 temporary is then 512 KiB, so a
# block's working set stays in a 2 MiB per-core L2 instead of streaming
# every intermediate of an n-row stack through memory.
_BLOCK = 4096

# The associate map as one table on row-major vec(a): row k is the
# associate matrix of the k-th unit 4x4 matrix, so
# vec(associate_matrix(a)) = vec(a) @ _ASSOC. Its entries are 0 and
# +-1/4 and _ASSOC @ _ASSOC.T = I/4, so compose, the inverse map on
# vec(l r^T), is the table _COMPOSE = 4 _ASSOC.T. Both go through _gemm.
_ASSOC = np.array([_floats._associate(e.reshape(4, 4).tolist()) for e in np.eye(16)]).reshape(16, 16)
_COMPOSE = np.ascontiguousarray(4.0 * _ASSOC.T)


class _Rows:
    """``_floats._Floats`` on component rows: numpy's ``where`` and ``sqrt``,
    and ``max``, the fold of ``np.maximum`` over the terms. NaN rule, numpy's:
    a NaN term, wherever it is, makes its row's result NaN."""

    where, sqrt = staticmethod(np.where), np.sqrt

    @staticmethod
    def max(terms):
        acc = np.maximum(terms[0], terms[1])
        for t in terms[2:]:
            np.maximum(acc, t, out=acc)
        return acc


def _stack(x, name: str, shape: tuple, n=None) -> int:
    """The row count of x, an (n, *shape) ndarray of real numbers (its blocks
    are read as float64), n given or any; NonFiniteInput naming ``name`` else."""
    real = isinstance(x, np.ndarray) and x.dtype.kind in "biuf"  # bool, int, unsigned or float
    if not (real and x.shape[1:] == shape) or n not in (None, len(x)):
        layout = ", ".join(map(str, ("n" if n is None else n, *shape)))
        raise NonFiniteInput(f"{name}: expected an ndarray of real numbers of shape ({layout})")
    return len(x)


def _blocked(kernel, inputs: tuple, outputs: tuple) -> tuple:
    """Call kernel(*input_rows, *output_rows) on consecutive slices of at
    most _BLOCK rows, read as float64 (a float64 stack is not copied)."""
    for start in range(0, len(inputs[0]), _BLOCK):
        rows = slice(start, start + _BLOCK)
        kernel(*(x[rows].astype(np.float64, copy=False) for x in inputs), *(y[rows] for y in outputs))
    return outputs


def _component_major(x: np.ndarray) -> np.ndarray:
    """A (b, ...) block as a contiguous (k, b) array: row i holds flat
    component i of every row of the block."""
    return np.ascontiguousarray(x.reshape(len(x), -1).T)


def _unit(x: np.ndarray) -> np.ndarray:
    """Each column of a component-major block divided by its norm."""
    return x / np.sqrt(_ordered_sum(x * x))


def _euler_rodrigues(q: np.ndarray, out: np.ndarray) -> None:
    out.reshape(-1, 9)[:] = np.array(_floats._er_entries(*_component_major(q))).T


def batch_euler_rodrigues(q: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions -> (n, 3, 3) rotation matrices."""
    (out,) = _blocked(_euler_rodrigues, (q,), (np.empty((_stack(q, "q", (4,)), 3, 3)),))
    return out


def _extract_rotation(m, q_out, branch_out, residual_out) -> None:
    table = _floats._products(_component_major(m).reshape(3, 3, -1), IsometryKind.ROTATION)
    branch, q, residual_out[:] = _floats._solve(table, _Rows)
    q_out[:] = np.array(q).T
    branch_out[:] = branch


def batch_extract_rotation(m: np.ndarray):
    """(n, 3, 3) rotation matrices -> (q, branch, residual).

    q is (n, 4), sign-canonical; branch is (n,) int64, an index into
    ``rot3.BRANCHES`` naming the component the row was seeded from; residual
    is (n,), the largest error of the ten quadratic equations q_i q_j = p_ij.
    """
    n = _stack(m, "m", (3, 3))
    outputs = (np.empty((n, 4)), np.empty(n, dtype=np.int64), np.empty(n))
    return _blocked(_extract_rotation, (m,), outputs)


def _gemm(x: np.ndarray, table: np.ndarray, out: np.ndarray) -> None:
    """out = x @ table, x a (b, 16) block. OpenBLAS's Haswell, Zen and
    Prescott kernels sum a row in another order when b is odd (a one-row
    product is a gemv), so a block of b not a multiple of 8 is first padded
    with zero rows to one; then row i's bits do not depend on b."""
    short = -len(x) % 8
    if short:
        out[:] = (np.concatenate((x, np.zeros((short, 16)))) @ table)[:-short]
    else:
        np.matmul(x, table, out=out)


def _compose_4d(l: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    _gemm(np.einsum("ni,nj->nij", l, r).reshape(-1, 16), _COMPOSE, out.reshape(-1, 16))


def batch_compose_4d(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(n, 4) left and right unit quaternions -> (n, 4, 4) rotations L(l) R(r)."""
    n = _stack(r, "r", (4,), _stack(l, "l", (4,)))
    (out,) = _blocked(_compose_4d, (l, r), (np.empty((n, 4, 4)),))
    return out


def _associate_matrix(a: np.ndarray, out: np.ndarray) -> None:
    _gemm(a.reshape(-1, 16), _ASSOC, out.reshape(-1, 16))


def batch_associate_matrix(a: np.ndarray) -> np.ndarray:
    """(n, 4, 4) matrices -> (n, 4, 4) associate matrices."""
    (out,) = _blocked(_associate_matrix, (a,), (np.empty((_stack(a, "a", (4, 4)), 4, 4)),))
    return out


def _decompose_4d(a, u_out, v_out, rank1_out, recon_out) -> None:
    assoc = np.empty((a.shape[0], 4, 4))
    _associate_matrix(a, assoc)
    m = _component_major(assoc).reshape(4, 4, -1)  # m[i, j] is entry (i, j)
    col_squares = _ordered_sum(m * m)
    scale = np.sqrt(_ordered_sum(col_squares))
    _, _, u = _floats._first_max(col_squares, m.transpose(1, 0, 2), _Rows)  # seed: a column of m
    u = _unit(u)
    v = _ordered_sum(m * u[:, None])  # v_j = sum_i m_ij u_i
    u = _unit(_ordered_sum((m * _unit(v)).transpose(1, 0, 2)))  # u_i = sum_j m_ij v_j
    v = _unit(_ordered_sum(m * u[:, None]))
    sign = _floats._sign(u, _Rows)
    u *= sign
    v *= sign
    # m becomes d = assoc(a) - u v^T: ||a - compose(u, v)||_F = 2 ||d||_F
    # (see rot4), and d + (1 - scale) u v^T is the rank-1 residual.
    uv = u[:, None] * v
    m -= uv
    recon_out[:] = 2.0 * np.sqrt(_ordered_sum((m * m).reshape(16, -1)))
    uv *= 1.0 - scale
    m += uv
    rank1_out[:] = np.sqrt(_ordered_sum((m * m).reshape(16, -1)))
    u_out[:] = u.T
    v_out[:] = v.T


def batch_decompose_4d(a: np.ndarray):
    """(n, 4, 4) rotations -> (u, v, rank1_residual, recon_error).

    u and v are (n, 4), the left and right unit quaternions with the sign
    rule applied; rank1_residual is (n,), the Frobenius distance of the
    associate matrix from scale * outer(u, v); recon_error is (n,), the
    Frobenius distance of the input from compose(u, v). Row i's u, v and
    rank1_residual are ``linalg.rank1_factor(batch_associate_matrix(a)[i])``.
    """
    n = _stack(a, "a", (4, 4))
    outputs = (np.empty((n, 4)), np.empty((n, 4)), np.empty(n), np.empty(n))
    return _blocked(_decompose_4d, (a,), outputs)
