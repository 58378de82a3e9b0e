"""Reference answers for checking quatrot, written from the definitions.

Nothing here calls the package under test. Rotations come from the
Hamilton product: a unit quaternion q rotates 3-space by x -> q x q*, and
a pair (l, r) rotates 4-space by x -> l x r. The random-rotation reference
re-implements the generator documented in ``quatrot.rng`` (xorshift64*
with shifts 12/25/27, Box-Muller normals, redraw below norm 1e-6).
Quaternion results are defined up to a simultaneous sign flip, so every
comparison accepts either sign.
"""

from __future__ import annotations

import math

import numpy as np

# The acceptance tolerances of the library's release criteria: values, and
# rotation angles (tests/test_acceptance.py, criterion 7).
TOL = 1e-12
ANGLE_TOL = 1e-9


def hamilton(a, b) -> np.ndarray:
    """Hamilton product a * b of (..., 4) arrays in (w, x, y, z) order."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by + ay * bw + az * bx - ax * bz,
            aw * bz + az * bw + ax * by - ay * bx,
        ],
        axis=-1,
    )


def normalized(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def rotation3(q) -> np.ndarray:
    """3x3 matrix of x -> q x q*: (w^2 - |v|^2) I + 2 v v^T + 2 w [v]_x."""
    q = normalized(q)
    w, v = q[..., 0], q[..., 1:]
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = (w * w - np.sum(v * v, axis=-1))[..., None, None] * np.eye(3)
    out = out + 2.0 * v[..., :, None] * v[..., None, :]
    skew = np.zeros(q.shape[:-1] + (3, 3))
    skew[..., 0, 1], skew[..., 0, 2] = -z, y
    skew[..., 1, 0], skew[..., 1, 2] = z, -x
    skew[..., 2, 0], skew[..., 2, 1] = -y, x
    return out + 2.0 * w[..., None, None] * skew


def rotation4(l, r) -> np.ndarray:
    """4x4 matrix of x -> l x r; column j is the image of basis vector e_j."""
    l, r = normalized(l), normalized(r)
    cols = [hamilton(hamilton(l, e), r) for e in np.eye(4)]
    return np.stack(cols, axis=-1)


def cos_angle(q) -> np.ndarray:
    """Cosine of the rotation angle of x -> q x q*: w^2 - |v|^2."""
    q = normalized(q)
    return q[..., 0] ** 2 - np.sum(q[..., 1:] ** 2, axis=-1)


def angle(q) -> np.ndarray:
    """Rotation angle in [0, pi] of x -> q x q*: 2 atan2(|v|, |w|), which
    stays accurate near 0 and pi, where the cosine is flat."""
    q = np.asarray(q, dtype=np.float64)
    return 2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), np.abs(q[..., 0]))


def angle_slack(cos, tol: float) -> np.ndarray:
    """The most arccos can move when its argument moves by tol from cos.
    ``rot3.rotation_angle`` documents the angle as arccos of a trace
    formula, so a cosine right within tol may give an angle this far off:
    about tol / sin(angle) at generic angles, up to sqrt(2 tol) at 0 and pi."""
    cos = np.asarray(cos, dtype=np.float64)
    base = np.arccos(np.clip(cos, -1.0, 1.0))
    up = np.abs(np.arccos(np.clip(cos + tol, -1.0, 1.0)) - base)
    down = np.abs(np.arccos(np.clip(cos - tol, -1.0, 1.0)) - base)
    return np.maximum(up, down)


def embed(m, corner: float) -> np.ndarray:
    """4x4 block matrix diag(corner, m)."""
    out = np.zeros((4, 4))
    out[0, 0] = corner
    out[1:, 1:] = m
    return out


def max_abs(a, b) -> float:
    """Largest entrywise |a - b|; inf when either side is not finite."""
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    return float(np.max(diff)) if np.all(np.isfinite(diff)) else math.inf


def quat_error(q, ref) -> np.ndarray:
    """Row-wise max |q - s ref| over the better sign s = +1 or -1."""
    q, ref = np.asarray(q, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    err = np.minimum(np.max(np.abs(q - ref), axis=-1), np.max(np.abs(q + ref), axis=-1))
    return np.where(np.all(np.isfinite(q), axis=-1), err, np.inf)


def pair_error(l, r, lref, rref) -> np.ndarray:
    """Row-wise error of a quaternion pair, allowing only the simultaneous
    sign flip (l, r) -> (-l, -r)."""
    l, r = np.asarray(l, dtype=np.float64), np.asarray(r, dtype=np.float64)
    plus = np.maximum(np.max(np.abs(l - lref), axis=-1), np.max(np.abs(r - rref), axis=-1))
    minus = np.maximum(np.max(np.abs(l + lref), axis=-1), np.max(np.abs(r + rref), axis=-1))
    finite = np.all(np.isfinite(l), axis=-1) & np.all(np.isfinite(r), axis=-1)
    return np.where(finite, np.minimum(plus, minus), np.inf)


# --- seeded random rotations, by the documented generator -----------------

_MASK = (1 << 64) - 1


class _Stream:
    """xorshift64* state plus the Box-Muller spare normal."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or 0x9E3779B97F4A7C15
        self.spare = None

    def uniform(self) -> float:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _MASK
        s ^= s >> 27
        self.state = s
        return (((s * 2685821657736338717) & _MASK) >> 11) / 9007199254740992.0

    def normal(self) -> float:
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self.spare = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def unit_quaternion(self) -> np.ndarray:
        while True:
            q = np.array([self.normal() for _ in range(4)])
            if np.linalg.norm(q) >= 1e-6:
                return normalized(q)


def random_rotation(seed: int, dim: int) -> np.ndarray:
    """The matrix ``quatrot.random_rotation(seed, dim)`` is documented to give."""
    stream = _Stream(seed)
    if dim == 3:
        return rotation3(stream.unit_quaternion())
    first = stream.unit_quaternion()
    return rotation4(first, stream.unit_quaternion())
