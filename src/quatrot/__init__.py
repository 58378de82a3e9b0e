"""Quaternion representation of 3D and 4D rotations.

Compose and decompose 4D rotation matrices as left/right unit-quaternion
multiplication pairs, convert between 3D rotation (or rotoreflection)
matrices and their four unit-quaternion parameters, and classify/measure
3x3 orthogonal matrices. Quaternions are (w, x, y, z) numpy arrays,
scalar first.

The package imports its submodules on first use (PEP 562): a public name
or a submodule is loaded when it is first read from the package, so
``import quatrot`` and ``python -m quatrot`` import no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name, and the submodule it is read from.
_EXPORTS = {
    "AngleReport": "rot3",
    "ExtractionResult": "rot3",
    "InconsistentSystem": "errors",
    "IndeterminateDeterminant": "errors",
    "IsometryKind": "rot3",
    "KindMismatch": "errors",
    "NonFiniteInput": "errors",
    "NotARotation": "errors",
    "NotARotoreflection": "errors",
    "NotOrthogonal": "errors",
    "NotUnit": "errors",
    "OriginPoint": "errors",
    "OrthogonalityReport": "linalg",
    "QuatPairDecomposition": "rot4",
    "QuatrotError": "errors",
    "RankDeficiency": "errors",
    "ZeroMatrix": "errors",
    "as_unit": "quaternion",
    "associate_matrix": "rot4",
    "check_orthonormal": "linalg",
    "classify": "rot3",
    "compose_4d": "rot4",
    "conjugate": "quaternion",
    "decompose_4d": "rot4",
    "displaced_angle_cos": "rot3",
    "embed_4d": "rot3",
    "euler_rodrigues": "rot3",
    "extract_rotation": "rot3",
    "extract_rotoreflection": "rot3",
    "left_matrix": "quaternion",
    "mat_mul": "linalg",
    "quat_mul": "quaternion",
    "random_rotation": "rng",
    "random_unit_quaternion": "rng",
    "rank1_factor": "linalg",
    "right_matrix": "quaternion",
    "rotation_angle": "rot3",
    "rotoreflection_matrix": "rot3",
}

_SUBMODULES = ("cli", "errors", "kernels", "linalg", "quaternion", "rng", "rot3", "rot4")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
