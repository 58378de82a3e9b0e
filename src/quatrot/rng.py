"""Seeded random rotation generation for test-case production.

The generator is xorshift64* (Marsaglia xorshift with shifts 12/25/27 and
the 2685821657736338717 output multiplier), chosen because it is trivial
to re-implement bit-for-bit in any language. Normals come from the
Box-Muller transform, which calls libm's log, sin and cos, and IEEE 754
requires none of them to be correctly rounded: generated test cases are
reproducible from the seed on a given libm. With correctly rounded log,
sin and cos, 7 of the 2,000 dim-3 seeds 0-1999 give other bytes than with
glibc 2.36. Seeds are integers in [0, 2**64), as for the CLI; 0 (the one
forbidden xorshift state) is replaced by a fixed nonzero constant.

Unit quaternions are sampled uniformly on the 3-sphere: four independent
standard normals, normalized (redrawn in the measure-zero case of a tiny
norm). A random 3D rotation applies the closed-form matrix to one such
quaternion; a random 4D rotation composes the left/right multiplication
matrices of two of them. The generator and both draws are written once,
in ``_floats``, on Python floats (``Xorshift64Star`` is ``_floats``' own
class), so the CLI's ``random`` runs them without numpy; the functions
here return numpy arrays of their results.
"""

from __future__ import annotations

import numpy as np

from ._floats import Xorshift64Star, _random_rotation, _random_unit_quaternion


def random_unit_quaternion(rng: Xorshift64Star) -> np.ndarray:
    return np.array(_random_unit_quaternion(rng))


def random_rotation(seed: int, dim: int) -> np.ndarray:
    """Seeded random 3x3 (dim=3) or 4x4 (dim=4) rotation matrix."""
    return np.array(_random_rotation(seed, dim))
