"""Hamilton quaternion algebra and its 4x4 multiplication matrices.

Component order is (w, x, y, z) everywhere: w is the scalar part, (x, y, z)
the vector part of w + x*i + y*j + z*k. Ecosystems disagree on this, so it
is worth stating loudly: scalar FIRST, and a quaternion doubles as a plain
4-vector in exactly this order.

Quaternions are float64 numpy arrays of shape (4,). ``as_unit`` silently
renormalizes inputs whose norm is within 1e-6 of 1 (accumulated rounding)
and rejects anything further out (a real error, not noise).
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnit
from .linalg import as_vec4

UNIT_WINDOW = 1e-6


def as_unit(q) -> np.ndarray:
    """Validated unit quaternion; normalizes within the 1e-6 window."""
    q = as_vec4(q)
    n = float(np.sqrt(np.sum(q * q)))
    if abs(n - 1.0) > UNIT_WINDOW:
        raise NotUnit(f"quaternion norm {n!r} is not within {UNIT_WINDOW} of 1")
    return q / n


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a * b."""
    aw, ax, ay, az = as_vec4(a)
    bw, bx, by, bz = as_vec4(b)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def conjugate(q) -> np.ndarray:
    """(w, -x, -y, -z)."""
    w, x, y, z = as_vec4(q)
    return np.array([w, -x, -y, -z])


def norm(q) -> float:
    q = as_vec4(q)
    return float(np.sqrt(np.sum(q * q)))


def left_matrix(l) -> np.ndarray:
    """4x4 matrix of left-multiplication by unit quaternion l.

    left_matrix(l) @ q == quat_mul(l, q) for any quaternion q viewed as a
    4-vector in (w, x, y, z) order.
    """
    a, b, c, d = as_unit(l)
    return np.array(
        [
            [a, -b, -c, -d],
            [b, a, -d, c],
            [c, d, a, -b],
            [d, -c, b, a],
        ]
    )


def right_matrix(r) -> np.ndarray:
    """4x4 matrix of right-multiplication by unit quaternion r.

    right_matrix(r) @ q == quat_mul(q, r).
    """
    p, q, r_, s = as_unit(r)
    return np.array(
        [
            [p, -q, -r_, -s],
            [q, p, s, -r_],
            [r_, -s, p, q],
            [s, r_, -q, p],
        ]
    )
