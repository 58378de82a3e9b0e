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
``rot4.associate_matrix``: associate is vec(a) @ _ASSOC, compose is
vec(l r^T) @ 4 _ASSOC^T, and decompose takes its reconstruction error
from the associate matrix (the identity in ``rot4``) instead of
recomposing. A table multiplies every entry of a row, zeros included, so
one inf or NaN entry makes every output of its row non-finite: the
entries of associate and compose that do not sum it become NaN (0 * inf),
where the earlier per-entry sums left them finite. Other rows are not
affected.
"""

from __future__ import annotations

import numpy as np

from .linalg import SIGN_EPS
from .rot4 import associate_matrix

# Rows per block. One (b, 4, 4) float64 temporary is then 512 KiB, so a
# block's working set stays in a 2 MiB per-core L2 instead of streaming
# every intermediate of an n-row stack through memory.
_BLOCK = 4096

# The associate map as one table on row-major vec(a): row k is
# rot4.associate_matrix of the k-th unit 4x4 matrix, so
# vec(associate_matrix(a)) = vec(a) @ _ASSOC. Its entries are 0 and
# +-1/4 and _ASSOC @ _ASSOC.T = I/4, so compose, the inverse map on
# vec(l r^T), is the table _COMPOSE = 4 _ASSOC.T. Both are row-major:
# numpy multiplies a one-row block through gemv, and OpenBLAS's gemv sums
# in the GEMM's order only over a row-major table; the block contract
# needs a row alone to give the same bits as in a stack.
_ASSOC = np.stack([associate_matrix(e.reshape(4, 4)).ravel() for e in np.eye(16)])
_COMPOSE = np.ascontiguousarray(4.0 * _ASSOC.T)


def _blocked(kernel, inputs: tuple, outputs: tuple) -> tuple:
    """Call kernel(*input_rows, *output_rows) on consecutive slices of at
    most _BLOCK rows; kernel writes its results into the output rows."""
    n = inputs[0].shape[0]
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        kernel(*(x[rows] for x in inputs), *(y[rows] for y in outputs))
    return outputs


def _euler_rodrigues(q: np.ndarray, out: np.ndarray) -> None:
    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out[:, 0, 0] = a * a + b * b - c * c - d * d
    out[:, 0, 1] = -2 * a * d + 2 * b * c
    out[:, 0, 2] = 2 * a * c + 2 * b * d
    out[:, 1, 0] = 2 * a * d + 2 * b * c
    out[:, 1, 1] = a * a - b * b + c * c - d * d
    out[:, 1, 2] = -2 * a * b + 2 * c * d
    out[:, 2, 0] = -2 * a * c + 2 * b * d
    out[:, 2, 1] = 2 * a * b + 2 * c * d
    out[:, 2, 2] = a * a - b * b - c * c + d * d


def batch_euler_rodrigues(q: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions -> (n, 3, 3) rotation matrices."""
    (out,) = _blocked(_euler_rodrigues, (q,), (np.empty((q.shape[0], 3, 3)),))
    return out


def _canonical_signs(q: np.ndarray) -> np.ndarray:
    """Per-row ``linalg.canonical_sign``, vectorized: the sign that makes
    the first component with magnitude above SIGN_EPS positive."""
    n = q.shape[0]
    sign = np.ones(n)
    decided = np.zeros(n, dtype=bool)
    for i in range(4):
        comp = q[:, i]
        newly = ~decided & (np.abs(comp) > SIGN_EPS)
        sign = np.where(newly & (comp < 0.0), -1.0, sign)
        decided |= newly
    return sign


def _extract_rotation(m, q_out, branch_out, residual_out) -> None:
    m00, m01, m02 = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    m10, m11, m12 = m[:, 1, 0], m[:, 1, 1], m[:, 1, 2]
    m20, m21, m22 = m[:, 2, 0], m[:, 2, 1], m[:, 2, 2]
    # Product table p[i, j] = q_i q_j as the matrix gives it: the squared
    # components on the diagonal, the six cross terms off it.
    p = np.empty((m.shape[0], 4, 4))
    p[:, 0, 0] = (1 + m00 + m11 + m22) / 4
    p[:, 1, 1] = (1 + m00 - m11 - m22) / 4
    p[:, 2, 2] = (1 - m00 + m11 - m22) / 4
    p[:, 3, 3] = (1 - m00 - m11 + m22) / 4
    p[:, 0, 1] = p[:, 1, 0] = (m21 - m12) / 4
    p[:, 0, 2] = p[:, 2, 0] = (m02 - m20) / 4
    p[:, 0, 3] = p[:, 3, 0] = (m10 - m01) / 4
    p[:, 2, 3] = p[:, 3, 2] = (m21 + m12) / 4
    p[:, 1, 3] = p[:, 3, 1] = (m02 + m20) / 4
    p[:, 1, 2] = p[:, 2, 1] = (m10 + m01) / 4

    # Seed from the largest square; the other components are its row of
    # the table divided by the seed.
    rows = np.arange(m.shape[0])
    branch = np.argmax(p.diagonal(axis1=1, axis2=2), axis=1)
    seed = np.sqrt(np.maximum(p[rows, branch, branch], 0.0))
    q = p[rows, branch] / seed[:, None]
    q[rows, branch] = seed

    residual_out[:] = np.max(np.abs(q[:, :, None] * q[:, None, :] - p), axis=(1, 2))
    np.multiply(q, _canonical_signs(q)[:, None], out=q_out)
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
    m = np.empty((a.shape[0], 4, 4))
    _associate_matrix(a, m)
    col_squares = np.einsum("nij,nij->nj", m, m)
    scale = np.sqrt(col_squares.sum(axis=1))
    jmax = np.argmax(col_squares, axis=1)
    idx = np.arange(m.shape[0])
    u = m[idx, :, jmax]
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = np.einsum("nij,ni->nj", m, u)
    u = np.einsum("nij,nj->ni", m, v / np.linalg.norm(v, axis=1, keepdims=True))
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = np.einsum("nij,ni->nj", m, u)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    sign = _canonical_signs(u)[:, None]
    np.multiply(u, sign, out=u_out)
    np.multiply(v, sign, out=v_out)
    # m becomes d = assoc(a) - u v^T: ||a - compose(u, v)||_F = 2 ||d||_F
    # (see rot4), and d + (1 - scale) u v^T is the rank-1 residual.
    uv = np.einsum("ni,nj->nij", u_out, v_out)
    m -= uv
    recon_out[:] = 2.0 * np.sqrt(np.einsum("nij,nij->n", m, m))
    uv *= (1.0 - scale)[:, None, None]
    m += uv
    rank1_out[:] = np.sqrt(np.einsum("nij,nij->n", m, m))


def batch_decompose_4d(a: np.ndarray):
    """(n, 4, 4) rotations -> (u, v, rank1_residual, recon_error).

    u and v are (n, 4), the left and right unit quaternions with the sign
    rule applied; rank1_residual is (n,), the Frobenius distance of the
    associate matrix from scale * outer(u, v); recon_error is (n,), the
    Frobenius distance of the input from compose(u, v).
    """
    n = a.shape[0]
    outputs = (np.empty((n, 4)), np.empty((n, 4)), np.empty(n), np.empty(n))
    return _blocked(_decompose_4d, (a,), outputs)
