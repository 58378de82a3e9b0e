"""Command-line front end.

Subcommands: quat2mat, mat2quat, decompose4, compose4, classify, angle,
embed, random, verify. Input comes from --input PATH or stdin, as JSON
({"matrix": [[...]]}, {"quaternion": {"w","x","y","z"}}, or
{"left": ..., "right": ...} for compose4) or as plain text (whitespace-
separated numbers, one matrix row per line). Output is always JSON on
stdout, with numbers printed to 17 significant digits so values
round-trip through double precision exactly.

The CLI imports no numpy. It parses its input into nested lists of
Python floats, as ``np.array(data, dtype=float64)`` read them (numeric
strings and booleans are numbers, JSON null is NaN), rejects non-finite
entries with ``math.isfinite``, and calls the float cores of
``_floats``, which the public functions of rot3, rot4 and rng wrap, so
it prints their bits and raises their errors. A matrix command checks
its matrix once (``_checked``) and hands the one report to the cores.
--tol must lie in (0, 1).

Exit codes: 0 success, 2 parse/validation error (a bad flag or command
included), 3 mathematical rejection (input passed parsing but is not the
kind of matrix the command requires). Errors are reported as a
single-line JSON object {"error": code, "detail": text} on stderr;
``--help`` alone prints argparse's help and exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import _floats
from ._floats import IsometryKind
from .errors import NonFiniteInput, NotARotation, NotUnit, QuatrotError

_VALIDATION_ERRORS = (NonFiniteInput, NotUnit)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3


# --- JSON output with fixed float formatting -------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_fmt(v)}" for k, v in x.items()) + "}"
    raise TypeError(f"cannot serialize {type(x)!r}")


def dump_json(obj) -> str:
    return _fmt(obj)


def _quat_obj(q) -> dict:
    return dict(zip("wxyz", q))


# --- input parsing ---------------------------------------------------------

class ParseError(ValueError):
    pass


def _parse_numbers_plain(text: str):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"bad number in plain input: {exc}") from exc
    return rows


def _load_json(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


_MAX_DIMS = 64  # numpy's limit on the dimensions of an array


def _array(data, depth: int = 0):
    """(values, shape) of JSON data read as a float64 array: lists nest,
    up to _MAX_DIMS deep, and every other value is one float (null is
    NaN). Raises ValueError for rows of unequal shape or deeper nesting,
    TypeError or ValueError for a value that is not a number."""
    if type(data) is not list:
        return (math.nan if data is None else float(data)), ()
    if depth == _MAX_DIMS:
        raise ValueError(f"lists nested more than {_MAX_DIMS} deep")
    try:
        return list(map(float, data)), (len(data),)  # a row of numbers
    except TypeError:
        pass  # a list, null or another non-number: read each value alone
    items = [_array(x, depth + 1) for x in data]
    shapes = {shape for _, shape in items}
    if len(shapes) > 1:
        raise ValueError(f"rows of different shapes {sorted(shapes)}")
    return [values for values, _ in items], (len(data), *shapes.pop())


def parse_matrix(text: str, fmt: str) -> list:
    """The 3x3 or 4x4 matrix in text, as rows of floats."""
    if fmt == "json":
        payload = _load_json(text)
        if not isinstance(payload, dict) or "matrix" not in payload:
            raise ParseError('expected an object with a "matrix" key')
        data = payload["matrix"]
    else:
        data = _parse_numbers_plain(text)
    try:
        rows, shape = _array(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix is not rectangular numeric data: {exc}") from exc
    if shape not in ((3, 3), (4, 4)):
        raise ParseError(f"expected a 3x3 or 4x4 matrix, got shape {shape}")
    return rows


def _quat_from_obj(obj) -> list:
    if not isinstance(obj, dict) or set(obj) != {"w", "x", "y", "z"}:
        raise ParseError('quaternion must be an object with keys "w","x","y","z"')
    try:
        return [float(obj[k]) for k in ("w", "x", "y", "z")]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad quaternion component: {exc}") from exc


def parse_quaternion(text: str, fmt: str) -> list:
    if fmt == "json":
        payload = _load_json(text)
        if isinstance(payload, dict) and "quaternion" in payload:
            payload = payload["quaternion"]
        return _quat_from_obj(payload)
    rows = _parse_numbers_plain(text)
    flat = [v for row in rows for v in row]
    if len(flat) != 4:
        raise ParseError(f"expected 4 numbers (w x y z), got {len(flat)}")
    return flat


def parse_quaternion_pair(text: str, fmt: str):
    if fmt == "json":
        payload = _load_json(text)
        if not isinstance(payload, dict) or "left" not in payload or "right" not in payload:
            raise ParseError('expected an object with "left" and "right" quaternions')
        return _quat_from_obj(payload["left"]), _quat_from_obj(payload["right"])
    rows = _parse_numbers_plain(text)
    if len(rows) != 2 or any(len(r) != 4 for r in rows):
        raise ParseError("expected two lines of 4 numbers (left, then right)")
    return rows[0], rows[1]


def _vec4(q) -> list:
    """q, after the check that ``linalg.as_vec4`` makes of a quaternion
    argument of the scalar API."""
    _floats._require_finite(q, "vec4")
    return q


# --- command handlers ------------------------------------------------------

def _cmd_quat2mat(args, text):
    m = _floats._rotation_rows(_vec4(parse_quaternion(text, args.format)))
    if args.kind == "rotoreflection":
        return {"matrix": [[-x for x in row] for row in m], "kind": "rotoreflection"}
    return {"matrix": m, "kind": "rotation"}


def _checked(args, text, dim=None):
    """The parsed matrix, of size dim when given, and its one
    OrthogonalityReport, which the command hands to the cores."""
    rows = parse_matrix(text, args.format)
    n = len(rows)
    if dim is not None and n != dim:
        raise ParseError(f"{args.command} needs a {dim}x{dim} matrix, got {n}x{n}")
    _floats._require_finite([x for row in rows for x in row], f"mat{n}")
    return rows, _floats._orthogonality(rows, _floats._gram(rows), args.tol)


def _cmd_mat2quat(args, text):
    m, report = _checked(args, text, 3)
    if args.kind == "rotation":
        kind = IsometryKind.ROTATION
    elif args.kind == "rotoreflection":
        kind = IsometryKind.ROTOREFLECTION
    else:
        kind = _floats._kind(_floats._require_orthonormal(report, NotARotation))
    params, branch, residual = _floats._extract(m, report, kind)
    return {
        "quaternion": _quat_obj(params),
        "residual": residual,
        "branch": branch,
        "kind": kind.value,
    }


def _cmd_decompose4(args, text):
    m, report = _checked(args, text, 4)
    left, right, rank1_residual, reconstruction_error = _floats._decompose(m, report)
    return {
        "left": _quat_obj(left),
        "right": _quat_obj(right),
        "rank1_residual": rank1_residual,
        "reconstruction_error": reconstruction_error,
    }


def _cmd_compose4(args, text):
    left, right = parse_quaternion_pair(text, args.format)
    left = _floats._unit(_vec4(left))
    return {"matrix": _floats._compose(left, _floats._unit(_vec4(right)))}


def _cmd_classify(args, text):
    _, report = _checked(args, text, 3)
    return {"kind": _floats._classify(report).value, "det": report.determinant}


def _cmd_angle(args, text):
    m, report = _checked(args, text, 3)
    kind = _floats._classify(report)
    alpha, cos_alpha = _floats._rotation_angle(m, report, kind)
    return {"kind": kind.value, "alpha": alpha, "cos_alpha": cos_alpha}


def _cmd_embed(args, text):
    m, report = _checked(args, text, 3)
    kind = _floats._classify(report)
    return {"kind": kind.value, "matrix": _floats._embed_4d(m, report, kind)}


def _cmd_random(args, text):
    if args.seed is None:
        raise ParseError("random requires --seed")
    return {
        "matrix": _floats._random_rotation(args.seed, args.dim),
        "meta": {
            "seed": args.seed,
            "dim": args.dim,
            "generator": "xorshift64star+boxmuller",
        },
    }


def _cmd_verify(args, text):
    m, report = _checked(args, text)
    if len(m) == 3:
        kind = _floats._classify(report)
        _, branch, residual = _floats._extract(m, report, kind)
        alpha, _ = _floats._rotation_angle(m, report, kind)
        ok = report.max_abs_gram_deviation <= args.tol and residual <= args.tol
        return {
            "dim": 3,
            "kind": kind.value,
            "orthogonality_deviation": report.max_abs_gram_deviation,
            "det": report.determinant,
            "extraction_residual": residual,
            "branch": branch,
            "alpha": alpha,
            "ok": ok,
        }
    _, _, rank1_residual, reconstruction_error = _floats._decompose(m, report)
    ok = (
        report.max_abs_gram_deviation <= args.tol
        and rank1_residual <= args.tol
        and reconstruction_error <= args.tol
    )
    return {
        "dim": 4,
        "orthogonality_deviation": report.max_abs_gram_deviation,
        "det": report.determinant,
        "rank1_residual": rank1_residual,
        "reconstruction_error": reconstruction_error,
        "ok": ok,
    }


_HANDLERS = {
    "quat2mat": _cmd_quat2mat,
    "mat2quat": _cmd_mat2quat,
    "decompose4": _cmd_decompose4,
    "compose4": _cmd_compose4,
    "classify": _cmd_classify,
    "angle": _cmd_angle,
    "embed": _cmd_embed,
    "random": _cmd_random,
    "verify": _cmd_verify,
}

_NEEDS_INPUT = {c for c in _HANDLERS if c != "random"}


def _seed_type(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ParseError where argparse would print its usage and exit 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="quatrot",
        description="Quaternion decomposition of 3D/4D rotation matrices.",
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--input", default=None, help="input file (default: stdin)")
    parser.add_argument("--format", choices=("json", "plain"), default="json")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--seed", type=_seed_type, default=None)
    parser.add_argument("--dim", type=int, choices=(3, 4), default=3)
    parser.add_argument(
        "--kind",
        choices=("auto", "rotation", "rotoreflection"),
        default="auto",
        help="isometry kind for quat2mat/mat2quat (default: auto; quat2mat treats auto as rotation)",
    )
    return parser


def _fail(code: str, detail: str, exit_code: int) -> int:
    sys.stderr.write(dump_json({"error": code, "detail": detail}) + "\n")
    return exit_code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ParseError as exc:
        return _fail("parse_error", str(exc), EXIT_PARSE)
    if not 0.0 < args.tol < 1.0:
        return _fail("parse_error", "--tol must be in (0, 1)", EXIT_PARSE)
    text = ""
    if args.command in _NEEDS_INPUT:
        try:
            if args.input is not None:
                with open(args.input, "r", encoding="utf-8") as handle:
                    text = handle.read()
            else:
                text = sys.stdin.read()
        except OSError as exc:
            return _fail("parse_error", f"cannot read input: {exc}", EXIT_PARSE)
    try:
        result = _HANDLERS[args.command](args, text)
    except ParseError as exc:
        return _fail("parse_error", str(exc), EXIT_PARSE)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc.code, str(exc), EXIT_PARSE)
    except QuatrotError as exc:
        return _fail(exc.code, str(exc), EXIT_MATH)
    sys.stdout.write(dump_json(result) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
