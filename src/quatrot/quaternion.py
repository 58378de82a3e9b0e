"""Hamilton quaternion algebra and its 4x4 multiplication matrices.

Component order is (w, x, y, z) everywhere: w is the scalar part, (x, y, z)
the vector part of w + x*i + y*j + z*k. Ecosystems disagree on this, so it
is worth stating loudly: scalar FIRST, and a quaternion doubles as a plain
4-vector in exactly this order.

Quaternions are float64 numpy arrays of shape (4,). ``as_unit`` silently
renormalizes inputs whose norm is within 1e-6 of 1 (accumulated rounding)
and rejects anything further out (a real error, not noise). Each public
function reads its argument once as four floats (``_float_rows``) and
computes with the cores in ``_floats`` (``_norm``, ``_unit``,
``_left_rows``, ``_right_rows``); the norm adds the four squares from
0.0 in index order, which is how numpy sums fewer than eight terms.
"""

from __future__ import annotations

import numpy as np

from ._floats import _left_rows, _norm, _right_rows, _unit
from .linalg import _float_rows


def as_unit(q) -> np.ndarray:
    """Validated unit quaternion; normalizes within the 1e-6 window."""
    return np.array(_unit(_float_rows(q, (4,), "vec4")))


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a * b."""
    aw, ax, ay, az = _float_rows(a, (4,), "vec4")
    bw, bx, by, bz = _float_rows(b, (4,), "vec4")
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
    w, x, y, z = _float_rows(q, (4,), "vec4")
    return np.array([w, -x, -y, -z])


def norm(q) -> float:
    return _norm(_float_rows(q, (4,), "vec4"))


def left_matrix(l) -> np.ndarray:
    """4x4 matrix of left-multiplication by unit quaternion l.

    left_matrix(l) @ q == quat_mul(l, q) for any quaternion q viewed as a
    4-vector in (w, x, y, z) order.
    """
    return np.array(_left_rows(_unit(_float_rows(l, (4,), "vec4"))))


def right_matrix(r) -> np.ndarray:
    """4x4 matrix of right-multiplication by unit quaternion r.

    right_matrix(r) @ q == quat_mul(q, r).
    """
    return np.array(_right_rows(_unit(_float_rows(r, (4,), "vec4"))))
