"""Batch kernels for the hot numeric loops, vectorized with numpy.

These kernels trust their inputs (float64 arrays of the right shape,
rows already rotations where that matters) and report residuals instead
of raising; validation and error semantics live in the scalar API of
rot3/rot4. Batch layouts: quaternions (n, 4) in (w, x, y, z) order,
matrices (n, 3, 3) or (n, 4, 4).
"""

from __future__ import annotations

import numpy as np

from .linalg import SIGN_EPS


def batch_euler_rodrigues(q: np.ndarray) -> np.ndarray:
    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = a * a + b * b - c * c - d * d
    out[:, 0, 1] = -2 * a * d + 2 * b * c
    out[:, 0, 2] = 2 * a * c + 2 * b * d
    out[:, 1, 0] = 2 * a * d + 2 * b * c
    out[:, 1, 1] = a * a - b * b + c * c - d * d
    out[:, 1, 2] = -2 * a * b + 2 * c * d
    out[:, 2, 0] = -2 * a * c + 2 * b * d
    out[:, 2, 1] = 2 * a * b + 2 * c * d
    out[:, 2, 2] = a * a - b * b - c * c + d * d
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


def batch_extract_rotation(m: np.ndarray):
    n = m.shape[0]
    m00, m01, m02 = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    m10, m11, m12 = m[:, 1, 0], m[:, 1, 1], m[:, 1, 2]
    m20, m21, m22 = m[:, 2, 0], m[:, 2, 1], m[:, 2, 2]
    squares = np.stack(
        [
            (1 + m00 + m11 + m22) / 4,
            (1 + m00 - m11 - m22) / 4,
            (1 - m00 + m11 - m22) / 4,
            (1 - m00 - m11 + m22) / 4,
        ],
        axis=1,
    )
    ab = (m21 - m12) / 4
    ac = (m02 - m20) / 4
    ad = (m10 - m01) / 4
    cd = (m21 + m12) / 4
    db = (m02 + m20) / 4
    bc = (m10 + m01) / 4

    branch = np.argmax(squares, axis=1)
    seed = np.sqrt(np.maximum(np.take_along_axis(squares, branch[:, None], 1)[:, 0], 0.0))
    q = np.empty((n, 4))
    layouts = (
        (None, ab, ac, ad),
        (ab, None, bc, db),
        (ac, bc, None, cd),
        (ad, db, cd, None),
    )
    for k, layout in enumerate(layouts):
        mask = branch == k
        if np.any(mask):
            s = seed[mask]
            for i, cross in enumerate(layout):
                q[mask, i] = s if cross is None else cross[mask] / s

    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    lhs = np.stack([a * a, b * b, c * c, d * d, a * b, a * c, a * d, c * d, d * b, b * c], 1)
    rhs = np.concatenate([squares, np.stack([ab, ac, ad, cd, db, bc], 1)], axis=1)
    residual = np.max(np.abs(lhs - rhs), axis=1)
    q = q * _canonical_signs(q)[:, None]
    return q, branch.astype(np.int64), residual


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


def batch_compose_4d(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.matmul(_left_matrices(l), _right_matrices(r))


def batch_associate_matrix(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
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
    return out


def batch_decompose_4d(a: np.ndarray):
    m = batch_associate_matrix(a)
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
    rank1_residual = np.sqrt(
        np.sum((m - scale[:, None, None] * u[:, :, None] * v[:, None, :]) ** 2, axis=(1, 2))
    )
    sign = _canonical_signs(u)
    u = u * sign[:, None]
    v = v * sign[:, None]
    recon_error = np.sqrt(np.sum((a - batch_compose_4d(u, v)) ** 2, axis=(1, 2)))
    return u, v, rank1_residual, recon_error
