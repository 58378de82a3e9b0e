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
"""

from __future__ import annotations

import numpy as np

from .linalg import SIGN_EPS

# Rows per block. One (b, 4, 4) float64 temporary is then 512 KiB, so a
# block's working set stays in a 2 MiB per-core L2 instead of streaming
# every intermediate of an n-row stack through memory.
_BLOCK = 4096


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


def _left_matrices(l: np.ndarray) -> np.ndarray:
    a, b, c, d = l[:, 0], l[:, 1], l[:, 2], l[:, 3]
    out = np.empty((l.shape[0], 4, 4))
    out[:, 0, 0], out[:, 0, 1], out[:, 0, 2], out[:, 0, 3] = a, -b, -c, -d
    out[:, 1, 0], out[:, 1, 1], out[:, 1, 2], out[:, 1, 3] = b, a, -d, c
    out[:, 2, 0], out[:, 2, 1], out[:, 2, 2], out[:, 2, 3] = c, d, a, -b
    out[:, 3, 0], out[:, 3, 1], out[:, 3, 2], out[:, 3, 3] = d, -c, b, a
    return out


def _right_matrices(r: np.ndarray) -> np.ndarray:
    p, q, r_, s = r[:, 0], r[:, 1], r[:, 2], r[:, 3]
    out = np.empty((r.shape[0], 4, 4))
    out[:, 0, 0], out[:, 0, 1], out[:, 0, 2], out[:, 0, 3] = p, -q, -r_, -s
    out[:, 1, 0], out[:, 1, 1], out[:, 1, 2], out[:, 1, 3] = q, p, s, -r_
    out[:, 2, 0], out[:, 2, 1], out[:, 2, 2], out[:, 2, 3] = r_, -s, p, q
    out[:, 3, 0], out[:, 3, 1], out[:, 3, 2], out[:, 3, 3] = s, r_, -q, p
    return out


def _compose_4d(l: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    np.matmul(_left_matrices(l), _right_matrices(r), out=out)


def batch_compose_4d(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(n, 4) left and right unit quaternions -> (n, 4, 4) rotations L(l) R(r)."""
    (out,) = _blocked(_compose_4d, (l, r), (np.empty((l.shape[0], 4, 4)),))
    return out


def _associate_matrix(a: np.ndarray, out: np.ndarray) -> None:
    out[:, 0, 0] = a[:, 0, 0] + a[:, 1, 1] + a[:, 2, 2] + a[:, 3, 3]
    out[:, 0, 1] = a[:, 1, 0] - a[:, 0, 1] - a[:, 3, 2] + a[:, 2, 3]
    out[:, 0, 2] = a[:, 2, 0] + a[:, 3, 1] - a[:, 0, 2] - a[:, 1, 3]
    out[:, 0, 3] = a[:, 3, 0] - a[:, 2, 1] + a[:, 1, 2] - a[:, 0, 3]
    out[:, 1, 0] = a[:, 1, 0] - a[:, 0, 1] + a[:, 3, 2] - a[:, 2, 3]
    out[:, 1, 1] = -a[:, 0, 0] - a[:, 1, 1] + a[:, 2, 2] + a[:, 3, 3]
    out[:, 1, 2] = a[:, 3, 0] - a[:, 2, 1] - a[:, 1, 2] + a[:, 0, 3]
    out[:, 1, 3] = -a[:, 2, 0] - a[:, 3, 1] - a[:, 0, 2] - a[:, 1, 3]
    out[:, 2, 0] = a[:, 2, 0] - a[:, 3, 1] - a[:, 0, 2] + a[:, 1, 3]
    out[:, 2, 1] = -a[:, 3, 0] - a[:, 2, 1] - a[:, 1, 2] - a[:, 0, 3]
    out[:, 2, 2] = -a[:, 0, 0] + a[:, 1, 1] - a[:, 2, 2] + a[:, 3, 3]
    out[:, 2, 3] = a[:, 1, 0] + a[:, 0, 1] - a[:, 3, 2] - a[:, 2, 3]
    out[:, 3, 0] = a[:, 3, 0] + a[:, 2, 1] - a[:, 1, 2] - a[:, 0, 3]
    out[:, 3, 1] = a[:, 2, 0] - a[:, 3, 1] + a[:, 0, 2] - a[:, 1, 3]
    out[:, 3, 2] = -a[:, 1, 0] - a[:, 0, 1] - a[:, 3, 2] - a[:, 2, 3]
    out[:, 3, 3] = -a[:, 0, 0] + a[:, 1, 1] + a[:, 2, 2] - a[:, 3, 3]
    out *= 0.25


def batch_associate_matrix(a: np.ndarray) -> np.ndarray:
    """(n, 4, 4) matrices -> (n, 4, 4) associate matrices."""
    (out,) = _blocked(_associate_matrix, (a,), (np.empty((a.shape[0], 4, 4)),))
    return out


def _decompose_4d(a, u_out, v_out, rank1_out, recon_out) -> None:
    m = np.empty((a.shape[0], 4, 4))
    _associate_matrix(a, m)
    scale = np.sqrt(np.sum(m * m, axis=(1, 2)))
    col_norms = np.sqrt(np.sum(m * m, axis=1))
    jmax = np.argmax(col_norms, axis=1)
    idx = np.arange(m.shape[0])
    u = m[idx, :, jmax]
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = np.einsum("nij,ni->nj", m, u)
    u = np.einsum("nij,nj->ni", m, v / np.linalg.norm(v, axis=1, keepdims=True))
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = np.einsum("nij,ni->nj", m, u)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    rank1_out[:] = np.sqrt(
        np.sum((m - scale[:, None, None] * u[:, :, None] * v[:, None, :]) ** 2, axis=(1, 2))
    )
    sign = _canonical_signs(u)[:, None]
    np.multiply(u, sign, out=u_out)
    np.multiply(v, sign, out=v_out)
    _compose_4d(u_out, v_out, m)  # m is spent; it takes the recomposition
    recon_out[:] = np.sqrt(np.sum((a - m) ** 2, axis=(1, 2)))


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
