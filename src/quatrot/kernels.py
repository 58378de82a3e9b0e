"""Batch kernels for the hot numeric loops, vectorized with numpy.

These kernels trust their inputs (float64 arrays of the right shape,
rows already rotations where that matters) and report residuals instead
of raising; validation and error semantics live in the scalar API of
rot3/rot4. Batch layouts: quaternions (n, 4) in (w, x, y, z) order,
matrices (n, 3, 3) or (n, 4, 4).

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
Other rows are not affected. The block contract holds for these three
only on OpenBLAS's AVX-512 kernels (see ``_ASSOC``).

The two 3D kernels evaluate the scalar API's formulas, not copies of
them: Euler-Rodrigues evaluates ``_floats._er_entries`` on the block's
component rows, and extract reads its table of products q_i q_j with
``_floats._products``, the associate formula on the a00 = +1 embedding
of those rows (the border is Python floats, so no border rows are built).

Component-major blocks: decompose, extract and Euler-Rodrigues transpose
their block once into a contiguous (k, b) array, row i holding component
i of every row, compute on that layout and write their results back
transposed once. Every step in between is elementwise arithmetic on
length-b rows: norms, matrix-vector products and Frobenius sums add
their terms over the leading axis in index order (``_ordered_sum``), and
the seed choices take the first largest entry by strict ``>`` selection
(``_first_max``), which is how np.argmax and the scalar ``max(range(k))``
break ties. numpy's ``sum`` and ``einsum`` are avoided on purpose: a
contiguous ``sum`` of eight or more terms is pairwise, so with b = 1 it
adds in another order than with b > 1, and einsum's order varied with
the block length; either would break the block contract. Ties and NaN:
np.argmax takes NaN as the largest entry, while ``>`` never selects it,
so the branch extract reports for a row with NaN squares may differ
from an argmax's.
"""

from __future__ import annotations

import numpy as np

from . import _floats
from ._floats import SIGN_EPS, IsometryKind, _ordered_sum

# Rows per block. One (b, 4, 4) float64 temporary is then 512 KiB, so a
# block's working set stays in a 2 MiB per-core L2 instead of streaming
# every intermediate of an n-row stack through memory.
_BLOCK = 4096

# The associate map as one table on row-major vec(a): row k is the
# associate matrix of the k-th unit 4x4 matrix, so
# vec(associate_matrix(a)) = vec(a) @ _ASSOC. Its entries are 0 and
# +-1/4 and _ASSOC @ _ASSOC.T = I/4, so compose, the inverse map on
# vec(l r^T), is the table _COMPOSE = 4 _ASSOC.T. Both are row-major: a
# one-row block goes through gemv, which sums in the GEMM's order only on
# OpenBLAS's AVX-512 kernels. On Haswell, Zen and Prescott a GEMM row's bits
# change with the row count (3, 5, 7, 9, 17, 33 rows differ; 1, 2, 4, 8 agree).
_ASSOC = np.array([_floats._associate(e.reshape(4, 4).tolist()) for e in np.eye(16)]).reshape(16, 16)
_COMPOSE = np.ascontiguousarray(4.0 * _ASSOC.T)

_COMPONENTS = np.arange(4)[:, None]


def _blocked(kernel, inputs: tuple, outputs: tuple) -> tuple:
    """Call kernel(*input_rows, *output_rows) on consecutive slices of at
    most _BLOCK rows; kernel writes its results into the output rows."""
    n = inputs[0].shape[0]
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        kernel(*(x[rows] for x in inputs), *(y[rows] for y in outputs))
    return outputs


def _component_major(x: np.ndarray) -> np.ndarray:
    """A (b, ...) block as a contiguous (k, b) array: row i holds flat
    component i of every row of the block."""
    return np.ascontiguousarray(x.reshape(len(x), -1).T)


def _unit(x: np.ndarray) -> np.ndarray:
    """Each column of a component-major block divided by its norm."""
    return x / np.sqrt(_ordered_sum(x * x))


def _first_max(keys: np.ndarray, rows) -> tuple:
    """(index, key, row) per column: index is the first i whose keys[i] is
    largest in that column (strict >, so ties go to the lower index, as
    np.argmax and max(range(k), key=...) pick), and row is rows[i]'s column
    there."""
    index = np.zeros(keys.shape[1], dtype=np.int64)
    key, row = keys[0], rows[0]
    for i in range(1, len(keys)):
        take = keys[i] > key
        index = np.where(take, i, index)
        key = np.where(take, keys[i], key)
        row = np.where(take, rows[i], row)
    return index, key, row


def _signs(q: np.ndarray) -> np.ndarray:
    """Per-column ``linalg.canonical_sign`` of a component-major (4, b)
    block: the sign that makes the first component with magnitude above
    SIGN_EPS positive. Scanning from the last component back, lead ends as
    the first such component, or the last component when none is."""
    big = np.abs(q) > SIGN_EPS
    lead = q[-1]
    for i in range(len(q) - 2, -1, -1):
        lead = np.where(big[i], q[i], lead)
    return np.where(lead < -SIGN_EPS, -1.0, 1.0)


def _euler_rodrigues(q: np.ndarray, out: np.ndarray) -> None:
    out.reshape(-1, 9)[:] = np.array(_floats._er_entries(*_component_major(q))).T


def batch_euler_rodrigues(q: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions -> (n, 3, 3) rotation matrices."""
    (out,) = _blocked(_euler_rodrigues, (q,), (np.empty((q.shape[0], 3, 3)),))
    return out


def _extract_rotation(m, q_out, branch_out, residual_out) -> None:
    rows = _component_major(m).reshape(3, 3, -1)
    t = np.array(_floats._products(rows, IsometryKind.ROTATION))  # t[i, j] is q_i q_j

    # Seed from the largest square; the other components are its row of
    # the table divided by the seed.
    branch, square, row = _first_max(t.diagonal().T, t)
    seed = np.sqrt(np.maximum(square, 0.0))
    q = row / seed
    np.copyto(q, seed, where=_COMPONENTS == branch)

    # |q_i q_j - t[i, j]| in one (4, 4, b) temporary: each fresh one of
    # that size costs page faults, and reducing over two axes is slow
    d = q[:, None] * q
    d -= t
    residual_out[:] = np.abs(d, out=d).reshape(16, -1).max(axis=0)
    q *= _signs(q)
    q_out[:] = q.T
    branch_out[:] = branch


def batch_extract_rotation(m: np.ndarray):
    """(n, 3, 3) rotation matrices -> (q, branch, residual).

    q is (n, 4), sign-canonical; branch is (n,) int64, an index into
    ``rot3.BRANCHES`` naming the component the row was seeded from; residual
    is (n,), the largest error of the ten quadratic equations q_i q_j = p_ij.
    """
    n = m.shape[0]
    outputs = (np.empty((n, 4)), np.empty(n, dtype=np.int64), np.empty(n))
    return _blocked(_extract_rotation, (m,), outputs)


def _compose_4d(l: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    outer = np.einsum("ni,nj->nij", l, r).reshape(-1, 16)
    np.matmul(outer, _COMPOSE, out=out.reshape(-1, 16))


def batch_compose_4d(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(n, 4) left and right unit quaternions -> (n, 4, 4) rotations L(l) R(r)."""
    (out,) = _blocked(_compose_4d, (l, r), (np.empty((l.shape[0], 4, 4)),))
    return out


def _associate_matrix(a: np.ndarray, out: np.ndarray) -> None:
    np.matmul(a.reshape(-1, 16), _ASSOC, out=out.reshape(-1, 16))


def batch_associate_matrix(a: np.ndarray) -> np.ndarray:
    """(n, 4, 4) matrices -> (n, 4, 4) associate matrices."""
    (out,) = _blocked(_associate_matrix, (a,), (np.empty((a.shape[0], 4, 4)),))
    return out


def _decompose_4d(a, u_out, v_out, rank1_out, recon_out) -> None:
    assoc = np.empty((a.shape[0], 4, 4))
    _associate_matrix(a, assoc)
    m = _component_major(assoc).reshape(4, 4, -1)  # m[i, j] is entry (i, j)
    col_squares = _ordered_sum(m * m)
    scale = np.sqrt(_ordered_sum(col_squares))
    _, _, u = _first_max(col_squares, m.transpose(1, 0, 2))  # seed: a column of m
    u = _unit(u)
    v = _ordered_sum(m * u[:, None])  # v_j = sum_i m_ij u_i
    u = _unit(_ordered_sum((m * _unit(v)).transpose(1, 0, 2)))  # u_i = sum_j m_ij v_j
    v = _unit(_ordered_sum(m * u[:, None]))
    sign = _signs(u)
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
    n = a.shape[0]
    outputs = (np.empty((n, 4)), np.empty((n, 4)), np.empty(n), np.empty(n))
    return _blocked(_decompose_4d, (a,), outputs)
