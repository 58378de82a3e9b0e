"""Command-line front end.

Subcommands: quat2mat, mat2quat, decompose4, compose4, classify, angle,
embed, random, verify. Input comes from --input PATH or stdin, as JSON
({"matrix": [[...]]}, {"quaternion": {"w","x","y","z"}}, or
{"left": ..., "right": ...} for compose4) or as plain text (whitespace-
separated numbers, one matrix row per line). Output is always JSON on
stdout, with numbers printed to 17 significant digits so values
round-trip through double precision exactly.

The CLI process imports json, math, sys and quatrot's ``_floats`` and
``errors`` (re and types, which it also uses, come with json): no
numpy, argparse or dataclasses. It reads its matrix and quaternions with
``_floats._array``, the scalar API's reader (JSON null is NaN), and calls
the float cores that rot3, rot4 and rng wrap, so it prints their bits
and raises their errors. A matrix command checks its matrix once
(``_checked``), decides its kind once from that report (``_floats._kind``)
and hands both to the cores. --tol must lie in (0, 1).

The command line has a fixed grammar: one command and the six
``--option VALUE`` flags of ``_OPTIONS``. ``parse_args`` reads it from
that table as the argparse parser it replaced read it on Python 3.10 and
3.11: options before or after the command, ``--opt=value``, unique
prefixes (``--se 7``), the last value wins, a negative number is a
value, and every error detail is argparse's text. ``-h``/``--help``
prints argparse's help as it was formatted for 80 columns; being static
text, it does not rewrap to the terminal's width.

Exit codes: 0 success, 2 parse/validation error (a bad flag or command
included), 3 mathematical rejection (input passed parsing but is not the
kind of matrix the command requires). Errors are reported as a
single-line JSON object {"error": code, "detail": text} on stderr;
``--help`` prints the help and exits 0.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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
        rows, shape = _floats._array(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix is not rectangular numeric data: {exc}") from exc
    if shape not in ((3, 3), (4, 4)):
        raise ParseError(f"expected a 3x3 or 4x4 matrix, got shape {shape}")
    return rows


def _quat_from_obj(obj) -> list:
    if not isinstance(obj, dict) or set(obj) != {"w", "x", "y", "z"}:
        raise ParseError('quaternion must be an object with keys "w","x","y","z"')
    try:
        q, shape = _floats._array([obj[k] for k in ("w", "x", "y", "z")])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad quaternion component: {exc}") from exc
    if shape != (4,):
        raise ParseError(f"bad quaternion component: expected 4 numbers, got shape {shape}")
    return q


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
    """q, checked finite as ``linalg._float_rows`` checks a scalar API quaternion."""
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
    return rows, _floats._orthogonality(rows, args.tol)


def _cmd_mat2quat(args, text):
    m, report = _checked(args, text, 3)
    kind = _floats._kind(report, NotARotation) if args.kind == "auto" else IsometryKind(args.kind)
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
    return {"kind": _floats._kind(report).value, "det": report.determinant}


def _cmd_angle(args, text):
    m, report = _checked(args, text, 3)
    kind = _floats._kind(report)
    alpha, cos_alpha = _floats._rotation_angle(m, kind)
    return {"kind": kind.value, "alpha": alpha, "cos_alpha": cos_alpha}


def _cmd_embed(args, text):
    m, report = _checked(args, text, 3)
    kind = _floats._kind(report)
    return {"kind": kind.value, "matrix": _floats._embedding(m, kind)}


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
        kind = _floats._kind(report)
        _, branch, residual = _floats._extract(m, report, kind)
        alpha, _ = _floats._rotation_angle(m, kind)
        ok = report.is_orthonormal and residual <= args.tol
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
    ok = report.is_orthonormal and rank1_residual <= args.tol and reconstruction_error <= args.tol
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


# --- the command line ----------------------------------------------------------

# argparse's help for this grammar, formatted for an 80-column terminal.
_HELP = """\
usage: quatrot [-h] [--input INPUT] [--format {json,plain}] [--tol TOL]
               [--seed SEED] [--dim {3,4}]
               [--kind {auto,rotation,rotoreflection}]
               {angle,classify,compose4,decompose4,embed,mat2quat,quat2mat,random,verify}

Quaternion decomposition of 3D/4D rotation matrices.

positional arguments:
  {angle,classify,compose4,decompose4,embed,mat2quat,quat2mat,random,verify}

options:
  -h, --help            show this help message and exit
  --input INPUT         input file (default: stdin)
  --format {json,plain}
  --tol TOL
  --seed SEED
  --dim {3,4}
  --kind {auto,rotation,rotoreflection}
                        isometry kind for quat2mat/mat2quat (default: auto;
                        quat2mat treats auto as rotation)
"""


def _seed(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise ParseError(f"seed must be an integer, got {value!r}") from None
    if not 0 <= seed < 2**64:
        raise ParseError("seed must fit in 64 unsigned bits")
    return seed


# Each option that takes a value: (type, choices or None, default).
_OPTIONS = {
    "--input": (str, None, None),
    "--format": (str, ("json", "plain"), "json"),
    "--tol": (float, None, 1e-9),
    "--seed": (_seed, None, None),
    "--dim": (int, (3, 4), 3),
    "--kind": (str, ("auto", "rotation", "rotoreflection"), "auto"),
}
# Every flag, in the order argparse lists them when a prefix is ambiguous.
_FLAGS = ("-h", "--help", *_OPTIONS)
_COMMANDS = sorted(_HANDLERS)


def _value(name: str, text: str, convert, choices):
    """text read by convert and checked against choices, or argparse's message."""
    try:
        value = convert(text)
    except ParseError as exc:  # _seed's own message
        raise ParseError(f"argument {name}: {exc}") from None
    except ValueError:
        raise ParseError(f"argument {name}: invalid {convert.__name__} value: {text!r}") from None
    if choices is not None and value not in choices:
        choose = ", ".join(map(repr, choices))
        raise ParseError(f"argument {name}: invalid choice: {value!r} (choose from {choose})")
    return value


def _flag(arg: str):
    """What argparse makes of arg, ahead of any "--": None for a positional
    argument, else (flag, value given with it or None), flag None for an
    unknown option."""
    if arg[:1] != "-":
        return None
    if arg in _FLAGS:
        return arg, None
    if len(arg) == 1:  # "-" alone
        return None
    prefix, eq, value = arg.partition("=")
    if eq and prefix in _FLAGS:
        return prefix, value
    if arg[1] == "-":  # a unique prefix of a long flag, as in --se 7 or --se=7
        matches = [flag for flag in _FLAGS if flag.startswith(prefix)]
        if len(matches) > 1:
            raise ParseError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg[:2] == "-h":  # -h with the rest of arg as its value
        return "-h", arg[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None  # a negative number, or text with a space: a positional
    return None, None


def _help(flag: str, value) -> None:
    """Print the help and exit 0, unless the flag came with a value it
    cannot take: -h takes further h's (-hh), nothing else does."""
    if value is not None:
        rest = value.lstrip("h") if flag == "-h" else value
        if rest or not value:
            raise ParseError(f"argument -h/--help: ignored explicit argument {rest!r}")
    sys.stdout.write(_HELP)
    raise SystemExit(0)


def parse_args(argv) -> SimpleNamespace:
    """The command and option values in argv, read as argparse reads them:
    options before or after the command, unique prefixes, --opt=value, the
    last value of an option wins, a negative number is a value and every
    argument after the first "--" is positional. Raises ParseError with
    argparse's message; -h or --help prints the help and exits 0."""
    end = argv.index("--") if "--" in argv else len(argv)
    flags = {i: flag for i, arg in enumerate(argv[:end]) if (flag := _flag(arg)) is not None}
    values = {"command": None}
    values.update((flag[2:], default) for flag, (_, _, default) in _OPTIONS.items())
    extras = []
    i = 0
    while i < len(argv):
        if i in flags:
            flag, value = flags[i]
            i += 1
            if flag is None:
                extras.append(argv[i - 1])
            elif flag in ("-h", "--help"):
                _help(flag, value)
            else:
                if value is None:
                    if i in flags or i in (end, len(argv)):
                        raise ParseError(f"argument {flag}: expected one argument")
                    value, i = argv[i], i + 1
                convert, choices, _ = _OPTIONS[flag]
                values[flag[2:]] = _value(flag, value, convert, choices)
        elif values["command"] is None and (i != end or i + 1 < len(argv)):
            # the command, with a "--" just before or just after it
            if i == end:
                i += 1
            values["command"] = _value("command", argv[i], str, _COMMANDS)
            i += 2 if i + 1 == end else 1
        else:
            extras.append(argv[i])
            i += 1
    if values["command"] is None:
        raise ParseError("the following arguments are required: command")
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _fail(code: str, detail: str, exit_code: int) -> int:
    sys.stderr.write(dump_json({"error": code, "detail": detail}) + "\n")
    return exit_code


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
            elif sys.stdin is None:  # Python started with fd 0 closed
                raise OSError("standard input is closed")
            else:
                text = sys.stdin.read()
        except (OSError, UnicodeDecodeError) as exc:
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
