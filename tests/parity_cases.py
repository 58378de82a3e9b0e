"""Cases for the scalar parity test: inputs, calls and encoded outcomes.

``tests/data/scalar_parity.json`` holds seeded inputs (noisy near-rotations
and rotoreflections, unit and near-unit quaternions, exact integer
matrices, wrong shapes, non-finite entries, and a scaled identity that
passes a loose gate with a determinant far from +-1) and, for every call that
``calls`` (the library) and ``cli_cases.cli_calls`` (the CLI) build from
them, the outcome the library gave when the file was recorded: the bytes
of each returned float and array, or the error's class, ``code`` and
message. ``test_scalar_parity.py`` replays the calls and compares
outcomes byte for byte.

Record a new file (only when an output change is deliberate and noted in
CHANGES.md) with

    PYTHONPATH=src python3 tests/parity_cases.py tests/data/scalar_parity.json
"""

from __future__ import annotations

import enum
import importlib
import json
import struct
import sys

import numpy as np

from cli_cases import cli_calls, cli_outcome

FIXTURE_SEED = 20070
NOISE3 = (0.0, 1e-16, 1e-14, 1e-12, 1e-10, 3e-9)
NOISE4 = (0.0, 1e-16, 1e-14, 1e-12, 1e-10, 1e-8)


def _unit_quaternions(g, n):
    q = g.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _special_quaternions():
    s2 = np.sqrt(0.5)
    eps = 1e-9
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [s2, 0.0, 0.0, s2],
            [-0.5, 0.5, -0.5, 0.5],
            [np.cos(eps / 2), np.sin(eps / 2), 0.0, 0.0],
            [eps, 0.0, np.sqrt(1 - eps * eps), 0.0],
            [0.0, -0.0, -s2, s2],
        ]
    )


def make_inputs(seed: int = FIXTURE_SEED) -> dict:
    """Seeded inputs; built with the library under test at record time
    and stored in the fixture, so replay does not depend on either."""
    from quatrot import rot3, rot4

    g = np.random.default_rng(seed)
    quats = np.vstack([_special_quaternions(), _unit_quaternions(g, 22)])
    near_unit = quats[:12] * (1.0 + g.uniform(-9e-7, 9e-7, (12, 1)))
    not_unit = quats[:4] * np.array([[1.01], [0.5], [1.0 + 2e-6], [0.0]])

    def noisy(mats, levels):
        return np.stack([m + levels[i % len(levels)] * g.uniform(-1, 1, m.shape) for i, m in enumerate(mats)])

    rot = [rot3.euler_rodrigues(q) for q in quats]
    m3 = noisy(rot, NOISE3)
    rr3 = noisy([-m for m in rot], NOISE3)
    pairs = np.stack([quats, np.roll(quats, 7, axis=0)], axis=1)
    m4 = noisy([rot4.compose_4d(l, r) for l, r in pairs], NOISE4)
    z_quarter = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    exact3 = np.array(
        [np.eye(3), -np.eye(3), np.diag([1.0, 1.0, -1.0]), z_quarter]
        + [np.diag([1.0, -1.0, -1.0]), -np.diag([0.0, 1.0, 1.0])]
        + [np.eye(3)[list(p)] for p in ((1, 2, 0), (2, 0, 1), (1, 0, 2))]
    )
    exact4 = np.array(
        [np.eye(4), -np.eye(4), np.diag([1.0, -1.0, -1.0, 1.0]), np.diag([1.0, 1.0, 1.0, -1.0])]
        + [np.eye(4)[list(p)] for p in ((1, 0, 3, 2), (1, 2, 3, 0), (0, 2, 1, 3))]
    )
    return {
        "quats": quats,
        "near_unit": near_unit,
        "not_unit": not_unit,
        "m3": m3,
        "rr3": rr3,
        "m4": m4,
        "exact3": exact3,
        "exact4": exact4,
        "far3": m3[:4] * 1.001,
        "huge3": np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]])[None],
        # passes the gate at tol 0.5 with determinant 1.728, far from +-1
        "scaled3": 1.2 * np.eye(3)[None],
    }


# --- argument forms ----------------------------------------------------------

def _transposed_view(a):
    """A view equal to a whose memory order is Fortran's."""
    return np.ascontiguousarray(a.T).T


def _strided_view(a):
    """A view equal to a with every stride doubled."""
    big = np.zeros(tuple(2 * s for s in a.shape))
    big[tuple(slice(None, None, 2) for _ in a.shape)] = a
    return big[tuple(slice(None, None, 2) for _ in a.shape)]


FORMS = {
    "list": lambda a: a.tolist(),
    "int_list": lambda a: a.astype(int).tolist(),
    "fortran": _transposed_view,
    "strided": _strided_view,
}


def _bad(a, what):
    a = np.array(a, dtype=np.float64)
    if what == "nan":
        a.flat[a.size // 2] = np.nan
    elif what == "inf":
        a.flat[-1] = np.inf
    elif what == "-inf":
        a.flat[0] = -np.inf
    return a


# --- the calls -----------------------------------------------------------------

def calls(inp: dict):
    """(case id, "module.function", args, kwargs) for every recorded call.

    Arguments are built fresh on each call of this generator."""
    rot, rr = "ROTATION", "ROTOREFLECTION"
    quats, m3, rr3, m4 = inp["quats"], inp["m3"], inp["rr3"], inp["m4"]
    n = len(quats)

    for i in range(n):
        l, r = quats[i], quats[(i + 7) % n]
        yield f"as_unit/{i}", "quaternion.as_unit", (l.copy(),), {}
        yield f"quat_mul/{i}", "quaternion.quat_mul", (l.copy(), r.copy()), {}
        yield f"conjugate/{i}", "quaternion.conjugate", (l.copy(),), {}
        yield f"left_matrix/{i}", "quaternion.left_matrix", (l.copy(),), {}
        yield f"right_matrix/{i}", "quaternion.right_matrix", (l.copy(),), {}
        yield f"euler_rodrigues/{i}", "rot3.euler_rodrigues", (l.copy(),), {}
        yield f"rotoreflection_matrix/{i}", "rot3.rotoreflection_matrix", (l.copy(),), {}
        yield f"compose_4d/{i}", "rot4.compose_4d", (l.copy(), r.copy()), {}
    for i, q in enumerate(inp["near_unit"]):
        r = inp["near_unit"][-1 - i]
        yield f"as_unit/near/{i}", "quaternion.as_unit", (q.copy(),), {}
        yield f"euler_rodrigues/near/{i}", "rot3.euler_rodrigues", (q.copy(),), {}
        yield f"left_matrix/near/{i}", "quaternion.left_matrix", (q.copy(),), {}
        yield f"compose_4d/near/{i}", "rot4.compose_4d", (q.copy(), r.copy()), {}
    for i, q in enumerate(inp["not_unit"]):
        yield f"as_unit/not_unit/{i}", "quaternion.as_unit", (q.copy(),), {}
        yield f"euler_rodrigues/not_unit/{i}", "rot3.euler_rodrigues", (q.copy(),), {}
        yield f"compose_4d/not_unit/{i}", "rot4.compose_4d", (quats[i].copy(), q.copy()), {}

    groups3 = (("m3", m3, rot), ("rr3", rr3, rr), ("exact3", inp["exact3"], None), ("far3", inp["far3"], rot))
    for name, mats, kind in groups3:
        for i, m in enumerate(mats):
            j = (i + 1) % len(mats)
            own = kind or ("ROTATION" if np.linalg.det(m) > 0 else "ROTOREFLECTION")
            other = rr if own == rot else rot
            yield f"mat_mul3/{name}/{i}", "linalg.mat_mul", (m.copy(), mats[j].copy()), {}
            yield f"check_orthonormal3/{name}/{i}", "linalg.check_orthonormal", (m.copy(),), {}
            yield f"classify/{name}/{i}", "rot3.classify", (m.copy(),), {}
            yield f"extract_rotation/{name}/{i}", "rot3.extract_rotation", (m.copy(),), {}
            yield f"extract_rotoreflection/{name}/{i}", "rot3.extract_rotoreflection", (m.copy(),), {}
            yield f"rotation_angle/{name}/{i}", "rot3.rotation_angle", (m.copy(), own), {}
            yield f"rotation_angle/other/{name}/{i}", "rot3.rotation_angle", (m.copy(), other), {}
            yield f"embed_4d/{name}/{i}", "rot3.embed_4d", (m.copy(), own), {}
            yield f"embed_4d/other/{name}/{i}", "rot3.embed_4d", (m.copy(), other), {}
            yield f"extract_rotation/tol/{name}/{i}", "rot3.extract_rotation", (m.copy(),), {"tol": 1e-6}
    for i, m in enumerate(inp["huge3"]):
        for fn in ("linalg.check_orthonormal", "rot3.classify", "rot3.extract_rotation"):
            yield f"{fn}/huge3/{i}", fn, (m.copy(),), {}
    for i, m in enumerate(inp["scaled3"]):
        for fn in ("rot3.classify", "rot3.extract_rotation", "rot3.extract_rotoreflection"):
            yield f"{fn}/scaled3/{i}", fn, (m.copy(),), {"tol": 0.5}

    for name, mats in (("m4", m4), ("exact4", inp["exact4"])):
        for i, a in enumerate(mats):
            j = (i + 1) % len(mats)
            yield f"mat_mul4/{name}/{i}", "linalg.mat_mul", (a.copy(), mats[j].copy()), {}
            yield f"gram4/{name}/{i}", "linalg.mat_mul", (a.T, a), {}
            yield f"check_orthonormal4/{name}/{i}", "linalg.check_orthonormal", (a.copy(),), {}
            yield f"associate_matrix/{name}/{i}", "rot4.associate_matrix", (a.copy(),), {}
            yield f"decompose_4d/{name}/{i}", "rot4.decompose_4d", (a.copy(),), {}
            yield f"decompose_4d/tol/{name}/{i}", "rot4.decompose_4d", (a.copy(),), {"tol": 1e-6}

    for seed in (0, 1, 7, 2**64 - 1):
        for dim in (3, 4):
            yield f"random_rotation/{seed}/{dim}", "rng.random_rotation", (seed, dim), {}

    # argument forms: nested lists, nested int lists, non-contiguous views
    for form, make in FORMS.items():
        for name, mats in (("exact3", inp["exact3"]), ("m3", m3[:6])):
            if form == "int_list" and name != "exact3":
                continue
            for i, m in enumerate(mats):
                for fn in ("linalg.check_orthonormal", "rot3.classify", "rot3.extract_rotation",
                           "rot3.extract_rotoreflection"):
                    yield f"{form}/{fn}/{name}/{i}", fn, (make(m),), {}
                yield f"{form}/rot3.rotation_angle/{name}/{i}", "rot3.rotation_angle", (make(m), rot), {}
                yield f"{form}/rot3.embed_4d/{name}/{i}", "rot3.embed_4d", (make(m), rot), {}
                yield f"{form}/linalg.mat_mul/{name}/{i}", "linalg.mat_mul", (make(m), make(mats[-1 - i])), {}
        for name, mats in (("exact4", inp["exact4"]), ("m4", m4[:6])):
            if form == "int_list" and name != "exact4":
                continue
            for i, a in enumerate(mats):
                for fn in ("linalg.check_orthonormal", "rot4.associate_matrix", "rot4.decompose_4d",
                           "linalg.rank1_factor"):
                    yield f"{form}/{fn}/{name}/{i}", fn, (make(a),), {}
        for i, q in enumerate(quats[:10]):
            for fn in ("quaternion.as_unit", "quaternion.left_matrix", "quaternion.right_matrix",
                       "rot3.euler_rodrigues", "quaternion.conjugate"):
                if form == "int_list" and i >= 5:
                    continue
                yield f"{form}/{fn}/q/{i}", fn, (make(q),), {}
            yield f"{form}/rot4.compose_4d/q/{i}", "rot4.compose_4d", (make(q), make(quats[9 - i])), {}

    # bad shapes and non-finite entries, for every public scalar function
    q0, m30, m40 = quats[11], m3[0], m4[0]
    for what in ("nan", "inf", "-inf"):
        # k is fixed per entry, so a case keeps its id when another entry leaves the list
        for k, fn, args in (
            (0, "quaternion.as_unit", (_bad(q0, what),)),
            (1, "quaternion.quat_mul", (q0.copy(), _bad(q0, what))),
            (2, "quaternion.conjugate", (_bad(q0, what),)),
            (4, "quaternion.left_matrix", (_bad(q0, what),)),
            (5, "quaternion.right_matrix", (_bad(q0, what),)),
            (6, "rot3.euler_rodrigues", (_bad(q0, what),)),
            (7, "rot3.rotoreflection_matrix", (_bad(q0, what),)),
            (8, "rot4.compose_4d", (_bad(q0, what), q0.copy())),
            (9, "rot4.compose_4d", (q0.copy(), _bad(q0, what))),
            (12, "linalg.mat_mul", (m30.copy(), _bad(m30, what))),
            (13, "linalg.mat_mul", (_bad(m40, what), m40.copy())),
            (14, "linalg.check_orthonormal", (_bad(m30, what),)),
            (15, "linalg.check_orthonormal", (_bad(m40, what),)),
            (16, "linalg.rank1_factor", (_bad(m40, what),)),
            (20, "rot3.classify", (_bad(m30, what),)),
            (21, "rot3.extract_rotation", (_bad(m30, what),)),
            (22, "rot3.extract_rotoreflection", (_bad(m30, what),)),
            (23, "rot3.rotation_angle", (_bad(m30, what), rot)),
            (24, "rot3.embed_4d", (_bad(m30, what), rot)),
            (25, "rot4.associate_matrix", (_bad(m40, what),)),
            (26, "rot4.decompose_4d", (_bad(m40, what),)),
        ):
            yield f"bad/{what}/{k}/{fn}", fn, args, {}
    shapes = {
        "q3": q0[:3].copy(), "q5": np.append(q0, 0.0), "m2": m30[:2, :2].copy(), "m3": m30.copy(),
        "m4": m40.copy(), "m34": m40[:3].copy(), "scalar": np.float64(1.0), "empty": np.zeros(0),
        "ragged": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], "text": "abc",
        # a complex entry is refused, not cast to its real part
        "complex": m30 + 0.5j, "tuple": tuple(map(tuple, m3[13].tolist())),
    }
    unary = ("quaternion.as_unit", "quaternion.conjugate", "quaternion.left_matrix", "rot3.euler_rodrigues",
             "linalg.check_orthonormal", "linalg.rank1_factor", "rot3.classify",
             "rot3.extract_rotation", "rot3.extract_rotoreflection", "rot4.associate_matrix", "rot4.decompose_4d")
    for label, arg in shapes.items():
        for fn in unary:
            yield f"shape/{label}/{fn}", fn, (arg.copy() if isinstance(arg, np.ndarray) else arg,), {}
        yield f"shape/{label}/rot3.rotation_angle", "rot3.rotation_angle", (arg, rot), {}
        yield f"shape/{label}/rot3.embed_4d", "rot3.embed_4d", (arg, rr), {}
        yield f"shape/{label}/linalg.mat_mul/left", "linalg.mat_mul", (arg, m30.copy()), {}
        yield f"shape/{label}/linalg.mat_mul/right", "linalg.mat_mul", (m40.copy(), arg), {}
        yield f"shape/{label}/rot4.compose_4d", "rot4.compose_4d", (q0.copy(), arg), {}
    for tol in (0.0, -1e-9):
        yield f"tol/{tol}/check_orthonormal", "linalg.check_orthonormal", (m30.copy(),), {"tol": tol}
        yield f"tol/{tol}/classify", "rot3.classify", (m30.copy(),), {"tol": tol}
        yield f"tol/{tol}/decompose_4d", "rot4.decompose_4d", (m40.copy(),), {"tol": tol}
        yield f"tol/{tol}/rank1_factor", "linalg.rank1_factor", (m40.copy(),), {"tol": tol}
    yield "rank1_factor/zero", "linalg.rank1_factor", (np.zeros((4, 4)),), {}
    yield "random_rotation/dim5", "rng.random_rotation", (1, 5), {}


def resolve(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"quatrot.{module}"), attr)


def kind_arg(arg):
    """Kind names in the argument lists stand for rot3.IsometryKind members."""
    if isinstance(arg, str) and arg in ("ROTATION", "ROTOREFLECTION"):
        return getattr(importlib.import_module("quatrot.rot3").IsometryKind, arg)
    return arg


# --- outcome encoding ------------------------------------------------------------

def encode(x):
    """A JSON value that is equal for two results exactly when their
    floats and arrays have the same bytes (signed zeros and NaN payloads
    included) and their other fields are equal."""
    if isinstance(x, np.ndarray):
        return ["nd", str(x.dtype), list(x.shape), x.tobytes().hex()]
    if isinstance(x, (bool, np.bool_)):
        return ["b", bool(x)]
    if isinstance(x, (float, np.floating)):
        return ["f", struct.pack("<d", float(x)).hex()]
    if isinstance(x, enum.Enum):
        return ["e", x.value]
    if isinstance(x, str):
        return ["s", x]
    if isinstance(x, tuple) and hasattr(x, "_fields"):  # a result type: a named tuple
        return ["dc", type(x).__name__, {name: encode(getattr(x, name)) for name in x._fields}]
    if isinstance(x, tuple):
        return ["t", [encode(v) for v in x]]
    raise TypeError(f"cannot encode {type(x)!r}")


def outcome(fn, args, kwargs):
    try:
        result = fn(*[kind_arg(a) for a in args], **kwargs)
    except Exception as exc:  # the class, code and message are the outcome
        return ["err", type(exc).__name__, getattr(exc, "code", None), str(exc)]
    return encode(result)


def _encode_input(a: np.ndarray) -> list:
    return [list(a.shape), a.astype("<f8").tobytes().hex()]


def decode_inputs(stored: dict) -> dict:
    return {k: np.frombuffer(bytes.fromhex(h), "<f8").reshape(shape).copy() for k, (shape, h) in stored.items()}


def record(path: str) -> None:
    inp = make_inputs()
    outcomes = {}
    for case, name, args, kwargs in calls(inp):
        assert case not in outcomes, case
        outcomes[case] = outcome(resolve(name), args, kwargs)
    for case, argv, stdin in cli_calls({k: v.tolist() for k, v in inp.items()}):
        assert case not in outcomes, case
        outcomes[case] = cli_outcome(argv, stdin)
    inputs = {k: _encode_input(v) for k, v in inp.items()}
    with open(path, "w", encoding="utf-8") as handle:
        # one input and one outcome a line, so a diff names the cases that moved
        handle.write('{"inputs": {\n')
        handle.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in inputs.items()))
        handle.write('},\n"outcomes": {\n')
        handle.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in outcomes.items()))
        handle.write("}}\n")
    print(f"{len(outcomes)} outcomes written to {path}")


if __name__ == "__main__":
    record(sys.argv[1])
