"""Seeded inputs for the workloads, drawn with numpy's PCG64 only.

``quatrot.rng`` is not used: its pure-Python generator would put the
``rng`` layer inside the benchmark's set-up time. Every function takes a
``numpy.random.Generator``, so the same seed gives the same inputs.
"""

from __future__ import annotations

import numpy as np

from . import reference

NEAR = 1e-9  # distance in angle from 0 and from pi of the edge cases
NOISE = 1e-13  # entrywise perturbation; far inside the library's 1e-9 gate

# A block of 20 quaternions holds 2 within NEAR of angle 0 (Shepperd branch
# A), 3 within NEAR of angle pi whose largest axis component is x, y or z
# (branches B, C, D) and 15 generic ones. The generic ones are placed on
# branches so that each of the four branches gets exactly 5 of the 20.
_BLOCK = 20
_NEAR_ZERO = 2
_NEAR_PI = 3
_GENERIC_BRANCHES = np.array((0,) * 3 + (1,) * 4 + (2,) * 4 + (3,) * 4)


def _move_largest(q: np.ndarray, target: np.ndarray) -> None:
    """Swap each row's largest-magnitude component into column target."""
    rows = np.arange(q.shape[0])
    largest = np.argmax(np.abs(q), axis=1)
    held = q[rows, target].copy()
    q[rows, target] = q[rows, largest]
    q[rows, largest] = held


def _axis_angle(rng: np.random.Generator, angle: np.ndarray, largest_axis=None) -> np.ndarray:
    axis = reference.normalized(rng.normal(size=(angle.size, 3)))
    if largest_axis is not None:
        _move_largest(axis, largest_axis)
    return np.column_stack([np.cos(angle / 2), np.sin(angle / 2)[:, None] * axis])


def unit_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit quaternions in shuffled order, with the shares described at
    _BLOCK, each multiplied by a random sign."""
    slot = np.arange(n) % _BLOCK
    q = np.empty((n, 4))
    zero = slot < _NEAR_ZERO
    q[zero] = _axis_angle(rng, rng.uniform(0.0, NEAR, zero.sum()))
    pi = (slot >= _NEAR_ZERO) & (slot < _NEAR_ZERO + _NEAR_PI)
    q[pi] = _axis_angle(rng, np.pi - rng.uniform(0.0, NEAR, pi.sum()), slot[pi] - _NEAR_ZERO)
    generic = slot >= _NEAR_ZERO + _NEAR_PI
    g = reference.normalized(rng.normal(size=(generic.sum(), 4)))
    _move_largest(g, _GENERIC_BRANCHES[slot[generic] - _NEAR_ZERO - _NEAR_PI])
    q[generic] = g
    q *= rng.choice((-1.0, 1.0), size=(n, 1))
    return q[rng.permutation(n)]


def branch(q: np.ndarray) -> np.ndarray:
    """Shepperd branch index (0..3 for A..D) of unit quaternions: the
    largest of the four squared components."""
    return np.argmax(q * q, axis=-1)


def perturbations(rng: np.random.Generator, n: int, shape: tuple) -> np.ndarray:
    """Entrywise noise of size at most NOISE on every fifth row, zero elsewhere."""
    noise = rng.uniform(-NOISE, NOISE, size=(n,) + shape)
    noise[np.arange(n) % 5 != 0] = 0.0
    return noise


def seeds(rng: np.random.Generator, n: int) -> list:
    """Seeds for the library's generator, as Python ints."""
    return [int(s) for s in rng.integers(1, 2**63, size=n)]


# --- inputs the library must reject ---------------------------------------

def not_orthogonal_3x3(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    """Rotation matrices scaled by 1 + s, s in [1e-6, 1e-2]."""
    scale = 1.0 + rng.uniform(1e-6, 1e-2, size=(q.shape[0], 1, 1))
    return reference.rotation3(q) * scale


def det_minus_one_4x4(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Orthogonal 4x4 matrices of determinant -1: a rotation with its
    first row negated."""
    m = reference.rotation4(l, r)
    m[:, 0, :] *= -1.0
    return m


def with_nan_3x3(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    """Rotation matrices with one entry replaced by NaN."""
    m = reference.rotation3(q).reshape(q.shape[0], 9)
    m[np.arange(q.shape[0]), rng.integers(0, 9, size=q.shape[0])] = np.nan
    return m.reshape(q.shape[0], 3, 3)


def not_unit(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    """Quaternions whose norm is off by 1e-4 to 0.5, either way."""
    off = rng.uniform(1e-4, 0.5, size=(q.shape[0], 1)) * rng.choice((-1.0, 1.0), size=(q.shape[0], 1))
    return q * (1.0 + off)
