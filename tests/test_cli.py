import argparse
import contextlib
import importlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import GOLDEN_CASES, GOLDEN_DIR, PARSE_CASES, cli_outcome
from stream_cases import STREAM_CASES, stream_outcome
from quatrot import _floats, cli, linalg, rot3
from quatrot.errors import QuatrotError
from quatrot.rot3 import IsometryKind
from quatrot.cli import main

def run_cli(args, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- golden files, one per subcommand --------------------------------------

@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, monkeypatch, capsys):
    args, stdin_text = GOLDEN_CASES[name]
    code, out, err = run_cli(args, stdin_text, monkeypatch, capsys)
    assert code == 0, err
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert out == expected


# --- structured output spot checks -----------------------------------------

def test_mat2quat_identity_payload(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["mat2quat"], json.dumps({"matrix": np.eye(3).tolist()}), monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["quaternion"] == {"w": 1, "x": 0, "y": 0, "z": 0}
    assert payload["residual"] == 0.0
    assert payload["branch"] == "A"


def test_classify_payload(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["classify"],
        json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}),
        monkeypatch,
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"kind": "rotoreflection", "det": -1.0}


def test_plain_and_json_agree(monkeypatch, capsys):
    m = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    _, out_json, _ = run_cli(["mat2quat"], json.dumps({"matrix": m}), monkeypatch, capsys)
    plain = "\n".join(" ".join(str(v) for v in row) for row in m)
    _, out_plain, _ = run_cli(["mat2quat", "--format", "plain"], plain, monkeypatch, capsys)
    assert out_json == out_plain


def test_compose4_plain_format(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["compose4", "--format", "plain"], "1 0 0 0\n1 0 0 0\n", monkeypatch, capsys
    )
    assert code == 0
    np.testing.assert_array_equal(json.loads(out)["matrix"], np.eye(4))


def test_input_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": np.eye(3).tolist()}))
    code, out, _ = run_cli(["classify", "--input", str(path)], "", monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["kind"] == "rotation"


@pytest.mark.parametrize("source", ["file", "stdin", "process"])
def test_input_that_is_not_utf8_is_a_parse_error(source, tmp_path, monkeypatch, capsys, cli_env):
    data = b'{"matrix": "\xff"}'
    args = ["classify"]
    if source == "process":  # a real process whose stdin decodes strictly
        env = dict(cli_env, PYTHONIOENCODING="utf-8:strict")
        done = subprocess.run([sys.executable, "-m", "quatrot", *args], input=data, capture_output=True, env=env, timeout=60)
        code, out, err = done.returncode, done.stdout.decode(), done.stderr.decode()
    else:
        if source == "file":
            (tmp_path / "m.json").write_bytes(data)
            args += ["--input", str(tmp_path / "m.json")]
        else:  # a stdin that decodes strictly, as under PYTHONIOENCODING=utf-8:strict
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict"))
        code = main(args)
        out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "parse_error",
        "detail": "cannot read input: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
    }


CLOSED_STDIN = {"error": "parse_error", "detail": "cannot read input: standard input is closed"}


def test_a_closed_stdin_is_a_parse_error(monkeypatch, capsys):
    """Python sets sys.stdin to None when it starts with fd 0 closed."""
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["classify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == CLOSED_STDIN


def test_a_process_started_with_stdin_closed_gives_a_parse_error(cli_env):
    env = dict(cli_env, PYTHON=sys.executable)
    done = subprocess.run(["sh", "-c", '"$PYTHON" -m quatrot classify <&-'], capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (2, b"")
    assert json.loads(done.stderr) == CLOSED_STDIN


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_a_stdout_or_stderr_that_cannot_be_written_gives_the_exit_code(name, cli_env):
    """A result or help text that stdout cannot take (closed, a broken pipe,
    a full device) is a parse error, and a stderr that cannot take the
    error leaves the exit code as it is: no traceback, no exit 120."""
    assert stream_outcome(name, cli_env) == STREAM_CASES[name][-1]


def test_verify_random_rotation_is_ok(monkeypatch, capsys):
    for dim in (3, 4):
        _, out, _ = run_cli(["random", "--seed", "99", "--dim", str(dim)], "", monkeypatch, capsys)
        code, out, _ = run_cli(["verify"], out, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True


# --- error paths -----------------------------------------------------------

def test_mat2quat_non_orthogonal_is_math_rejection(monkeypatch, capsys):
    code, out, err = run_cli(
        ["mat2quat"], json.dumps({"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        monkeypatch, capsys,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "not_a_rotation"


def test_decompose4_rejects_det_minus_one(monkeypatch, capsys):
    m = np.diag([-1.0, 1.0, 1.0, 1.0])
    code, _, err = run_cli(
        ["decompose4"], json.dumps({"matrix": m.tolist()}), monkeypatch, capsys
    )
    assert code == 3
    assert json.loads(err)["error"] == "not_a_rotation"


def test_decompose4_rejects_an_overflowing_gram_matrix(monkeypatch, capsys):
    m = [[1e200, 1e200, 1e200, 0], [1e200, -1e200, 1e200, 0], [1e200, 1e200, -1e200, 0], [0, 0, 0, 1]]
    code, out, err = run_cli(["decompose4"], json.dumps({"matrix": m}), monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "not_a_rotation"


def test_mat2quat_forced_rotoreflection_on_rotation(monkeypatch, capsys):
    code, _, err = run_cli(
        ["mat2quat", "--kind", "rotoreflection"],
        json.dumps({"matrix": np.eye(3).tolist()}),
        monkeypatch,
        capsys,
    )
    assert code == 3
    assert json.loads(err)["error"] == "not_a_rotoreflection"


def test_parse_error_exit_code(monkeypatch, capsys):
    code, _, err = run_cli(["mat2quat"], "this is not json", monkeypatch, capsys)
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


def test_wrong_shape_is_parse_error(monkeypatch, capsys):
    code, _, err = run_cli(
        ["decompose4"], json.dumps({"matrix": np.eye(3).tolist()}), monkeypatch, capsys
    )
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


def test_non_unit_quaternion_is_validation_error(monkeypatch, capsys):
    code, _, err = run_cli(
        ["quat2mat"],
        json.dumps({"quaternion": {"w": 2, "x": 0, "y": 0, "z": 0}}),
        monkeypatch,
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "not_unit"


@pytest.mark.parametrize("tol", ["inf", "nan", "1", "0"])
def test_tol_outside_the_unit_interval_is_parse_error(tol, monkeypatch, capsys):
    point_reflection = json.dumps({"matrix": (-np.eye(3)).tolist()})
    code, out, err = run_cli(["classify", "--tol", tol], point_reflection, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse_error", "detail": "--tol must be in (0, 1)"}


def test_random_requires_seed(monkeypatch, capsys):
    code, _, err = run_cli(["random", "--dim", "3"], "", monkeypatch, capsys)
    assert code == 2


@pytest.mark.parametrize(
    "args, detail",
    [
        (["random", "--seed", "abc"], "argument --seed: seed must be an integer, got 'abc'"),
        (["random", "--seed", "7", "--dim", "5"], "argument --dim: invalid choice: 5"),
        (["random", "--seed", "7", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        (["rotate"], "argument command: invalid choice: 'rotate'"),
        (["random", "--seed", "7", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
)
def test_bad_flags_and_commands_are_one_line_parse_errors(args, detail, monkeypatch, capsys):
    """argparse's errors follow the CLI's error contract: main returns 2
    and writes one JSON line to stderr, with no usage text."""
    code, out, err = run_cli(args, "", monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "parse_error"
    assert payload["detail"].startswith(detail)


def test_help_still_prints_usage_and_exits_zero(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["--help"], "", monkeypatch, capsys)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quatrot")


# --- the command line is read as argparse read it --------------------------


def _oracle_seed(value):
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise cli.ParseError(message)


def oracle_parser():
    """The argparse parser the CLI was written with: cli.parse_args must
    read every command line as this parser, on Python 3.10 and 3.11,
    reads it."""
    parser = _OracleParser(
        prog="quatrot",
        description="Quaternion decomposition of 3D/4D rotation matrices.",
    )
    parser.add_argument("command", choices=sorted(cli._HANDLERS))
    parser.add_argument("--input", default=None, help="input file (default: stdin)")
    parser.add_argument("--format", choices=("json", "plain"), default="json")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--seed", type=_oracle_seed, default=None)
    parser.add_argument("--dim", type=int, choices=(3, 4), default=3)
    parser.add_argument(
        "--kind",
        choices=("auto", "rotation", "rotoreflection"),
        default="auto",
        help="isometry kind for quat2mat/mat2quat (default: auto; quat2mat treats auto as rotation)",
    )
    return parser


def parse_outcome(parse, argv):
    """("ok", values), ("error", detail) or ("exit", code, stdout) of parse(argv)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            namespace = parse(list(argv))
    except cli.ParseError as exc:
        return ("error", str(exc))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue())
    return ("ok", vars(namespace))


OPTION_VALUES = {
    "--input": "m.json",
    "--format": "plain",
    "--tol": "1e-6",
    "--seed": "7",
    "--dim": "4",
    "--kind": "rotoreflection",
}
ARGV_TABLE = (
    [[command] for command in sorted(cli._HANDLERS)]
    + [["random", option, value] for option, value in OPTION_VALUES.items()]
    + [["random", f"{option}={value}"] for option, value in OPTION_VALUES.items()]
    + [
        ["random", "--se", "7"],
        ["random", "--se=7", "--di=4"],
        ["random", "--h"],
        ["random", "--seed", "7", "--seed", "8", "--dim=3", "--dim", "4"],
        ["--seed", "7", "--dim", "4", "random"],
        ["--seed", "7", "random", "--kind", "rotation"],
        ["classify", "--tol", "-1"],
        ["classify", "--tol=-1"],
        ["classify", "--input"],
        ["classify", "--input", "--format", "plain"],
        ["random", "-x"],
        ["random", "--"],
        ["--", "random"],
        ["random", "--", "--seed", "7"],
        ["--"],
        ["random", "verify"],
        ["random", "--seed", "7", "extra", "more"],
        [],
        ["-h"],
        ["--help"],
        ["random", "--seed", "7", "--help"],
        ["--help", "--seed"],
        ["--seed", "abc", "--help"],
        ["-hh"],
        ["-hx"],
        ["--help=x"],
        ["--help="],
        ["--=x"],
        ["rotate", "--seed", "abc"],
        ["--seed", "abc", "rotate"],
        ["random", "--seed", str(2**64)],
        ["random", "--seed", "-1"],
        ["random", "--dim", "x"],
        ["random", "--format", "xml"],
        ["random", "--kind", ""],
        ["random", "--tol", "-1e5"],
        ["random", "--input", "-"],
        ["random", "--bogus=1", "--input", "two words"],
    ]
)


@pytest.mark.parametrize("argv", ARGV_TABLE, ids=" ".join)
def test_the_parser_reads_each_command_line_as_argparse(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert parse_outcome(cli.parse_args, argv) == parse_outcome(oracle_parser().parse_args, argv)


ARGV_TOKENS = sorted(
    {t for argv in ARGV_TABLE for t in argv}
    | {"--s", "--d", "--t=0.5", "--k", "--fo", "--i", "-", "", "-1.5", "-.5", "3", "5", "json", "-h h", "---"}
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
def test_any_command_line_of_these_tokens_reads_as_argparse(argv):
    want = parse_outcome(oracle_parser().parse_args, argv)
    if want[0] == "exit":  # help text wraps to the terminal: compare the exits only
        assert parse_outcome(cli.parse_args, argv)[:2] == want[:2]
    else:
        assert parse_outcome(cli.parse_args, argv) == want


def test_help_prints_argparses_help_at_80_columns(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == oracle_parser().format_help()


# --- parsing edge cases: matrices are read as the scalar API reads its arguments (_floats._array)

IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "matrix",
    [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [[True, False, False], [False, True, False], [False, False, True]],
    ],
)
def test_numeric_strings_and_booleans_are_numbers(matrix, monkeypatch, capsys):
    want = run_cli(["verify"], json.dumps({"matrix": IDENTITY3}), monkeypatch, capsys)
    assert want[0] == 0
    assert run_cli(["verify"], json.dumps({"matrix": matrix}), monkeypatch, capsys) == want


@pytest.mark.parametrize("entry", ["null", "1e400"])
def test_null_and_overflowing_entries_are_non_finite(entry, monkeypatch, capsys):
    text = '{"matrix": [[%s, 0, 0], [0, 1, 0], [0, 0, 1]]}' % entry
    code, out, err = run_cli(["mat2quat"], text, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "non_finite", "detail": "mat3: entries must be finite"}


@pytest.mark.parametrize(
    "matrix, shape",
    [("[]", "(0,)"), ("[[[1]]]", "(1, 1, 1)"), ("5", "()"), ("[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]", "(3, 4)")],
)
def test_a_matrix_of_another_shape_names_its_shape(matrix, shape, monkeypatch, capsys):
    code, out, err = run_cli(["verify"], '{"matrix": %s}' % matrix, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse_error", "detail": f"expected a 3x3 or 4x4 matrix, got shape {shape}"}


@pytest.mark.parametrize(
    "args, text",
    [
        (["mat2quat"], '{"matrix": [[1, 0, 0], [0, 1], [0, 0, 1]]}'),
        (["mat2quat"], '{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, [1]]]}'),
        (["mat2quat"], '{"matrix": [["one", 0, 0], [0, 1, 0], [0, 0, 1]]}'),
        (["mat2quat"], '{"matrix": [[{}, 0, 0], [0, 1, 0], [0, 0, 1]]}'),
        (["mat2quat", "--format", "plain"], "1 0 0\n0 1\n0 0 1\n"),
        (["mat2quat"], '{"matrix": %s1%s}' % ("[" * 100, "]" * 100)),
    ],
)
def test_ragged_or_non_numeric_rows_are_parse_errors(args, text, monkeypatch, capsys):
    code, out, err = run_cli(args, text, monkeypatch, capsys)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "parse_error"
    assert payload["detail"].startswith("matrix is not rectangular numeric data: ")


PARSE_DETAILS = {
    "bad number": "bad number in plain input: could not convert string to float: 'one'",
    "no matrix key": 'expected an object with a "matrix" key',
    "fifth key": 'quaternion must be an object with keys "w","x","y","z"',
    "three numbers": "expected 4 numbers (w x y z), got 3",
    "no right": 'expected an object with "left" and "right" quaternions',
    "one line of eight": "expected two lines of 4 numbers (left, then right)",
}


@pytest.mark.parametrize("label", sorted(PARSE_CASES))
def test_each_input_parser_branch_gives_its_exit_code_and_detail(label):
    argv, stdin = PARSE_CASES[label]
    _, code, out, err = cli_outcome(argv, stdin)
    if label == "blank line":
        assert code == 0 and [out, err] == cli_outcome(argv, stdin.replace("\n\n", "\n"))[2:]
    else:
        assert (code, out, json.loads(err)) == (2, "", {"error": "parse_error", "detail": PARSE_DETAILS[label]})


def test_json_nested_too_deep_to_decode_is_a_parse_error(monkeypatch, capsys):
    code, out, err = run_cli(["mat2quat"], '{"matrix": %s}' % ("[" * 100_000), monkeypatch, capsys)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "parse_error"
    assert payload["detail"].startswith("invalid JSON: ")


_FINITE = st.one_of(st.floats(-2, 2), st.integers(-2, 2), st.booleans(), st.floats(-2, 2).map(repr))
_ANY_ENTRY = st.one_of(
    _FINITE,
    st.floats(),  # inf and nan too
    st.integers(2**1024, 2**1100).map(lambda i: i * (-1) ** (i % 2)),  # beyond the float range
    st.none(),
    st.sampled_from(["1e400", "nan", " 1 ", "1_0", "0x1", "one", ""]),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_MATRICES = st.one_of(
    st.tuples(st.integers(3, 4), st.sampled_from([_FINITE, _ANY_ENTRY])).flatmap(
        lambda size_entries: st.lists(
            st.lists(size_entries[1], min_size=size_entries[0], max_size=size_entries[0]),
            min_size=size_entries[0], max_size=size_entries[0],
        )
    ),
    st.lists(st.lists(_ANY_ENTRY, min_size=2, max_size=5), min_size=2, max_size=5),  # ragged or another shape
    _ANY_ENTRY,
)


def _cli_reading(data):
    """The rows and report of the CLI's gate on {"matrix": data}, or None for a rejection."""
    args = SimpleNamespace(format="json", tol=_floats.DEFAULT_TOL, command="classify")
    try:
        return cli._checked(args, json.dumps({"matrix": data}))
    except (cli.ParseError, QuatrotError):
        return None


def _library_reading(data):
    try:
        return linalg._read(data, "matrix")[0], linalg.check_orthonormal(data)
    except QuatrotError:
        return None


@settings(max_examples=300, deadline=None)
@given(_MATRICES)
def test_check_orthonormal_and_the_cli_read_the_same_numbers(data):
    """One reader: the library and the CLI accept a matrix with the same
    floats and report, or both reject it."""
    cli_side, library_side = _cli_reading(data), _library_reading(data)
    assert (cli_side is None) == (library_side is None)
    if cli_side is not None:
        assert repr(cli_side) == repr(library_side)


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "args, text, detail",
    [
        (["mat2quat"], '{"matrix": [[%s, 0, 0], [0, 1, 0], [0, 0, 1]]}' % HUGE, "matrix is not rectangular numeric data"),
        (["quat2mat"], '{"w": %s, "x": 0, "y": 0, "z": 0}' % HUGE, "bad quaternion component"),
    ],
)
def test_an_integer_too_large_for_a_float_is_a_parse_error(args, text, detail, monkeypatch, capsys):
    code, out, err = run_cli(args, text, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse_error", "detail": f"{detail}: int too large to convert to float"}


@pytest.mark.parametrize(
    "args, text",
    [
        (["quat2mat"], '{"quaternion": {"w": null, "x": 0, "y": 0, "z": 0}}'),
        (["compose4"], '{"left": {"w": 1, "x": null, "y": 0, "z": 0}, "right": {"w": 1, "x": 0, "y": 0, "z": 0}}'),
        (["compose4"], '{"left": {"w": 1, "x": 0, "y": 0, "z": 0}, "right": {"w": 1, "x": 0, "y": 0, "z": null}}'),
    ],
)
def test_a_null_quaternion_component_is_non_finite(args, text, monkeypatch, capsys):
    """Quaternions are read as matrices are (_floats._array): null is NaN."""
    code, out, err = run_cli(args, text, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "non_finite", "detail": "vec4: entries must be finite"}


@pytest.mark.parametrize(
    "quaternion, detail",
    [
        ('{"w": [1], "x": 0, "y": 0, "z": 0}', "rows of different shapes [(), (1,)]"),
        ('{"w": [1], "x": [0], "y": [0], "z": [0]}', "expected 4 numbers, got shape (4, 1)"),
    ],
)
def test_a_list_quaternion_component_is_a_parse_error(quaternion, detail, monkeypatch, capsys):
    code, out, err = run_cli(["quat2mat"], quaternion, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse_error", "detail": f"bad quaternion component: {detail}"}


# --- no CLI process imports numpy ---------------------------------------------

NO_NUMPY_CASES = {name: (*case, 0, None) for name, case in GOLDEN_CASES.items()}
NO_NUMPY_CASES.update(
    {
        "help": (["--help"], "", 0, None),
        "bad_flag": (["random", "--seed", "abc"], "", 2, "parse_error"),
        "parse_error": (["mat2quat"], "this is not json", 2, "parse_error"),
        "non_finite": (["mat2quat"], '{"matrix": [[null, 0, 0], [0, 1, 0], [0, 0, 1]]}', 2, "non_finite"),
        "null_component": (["quat2mat"], '{"w": null, "x": 0, "y": 0, "z": 0}', 2, "non_finite"),
        "not_a_rotation": (["decompose4"], json.dumps({"matrix": np.diag([-1.0, 1, 1, 1]).tolist()}), 3, "not_a_rotation"),
    }
)


@pytest.mark.parametrize("name", sorted(NO_NUMPY_CASES))
def test_no_cli_process_imports_numpy(name, cli_env):
    args, stdin_text, exit_code, error = NO_NUMPY_CASES[name]
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "quatrot", *args],
        input=stdin_text, capture_output=True, text=True, env=cli_env, timeout=60,
    )
    # -X importtime logs each module the process imports to stderr
    log = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    modules = {line.rsplit("|", 1)[1].strip() for line in log}
    assert done.returncode == exit_code, done.stderr
    assert "quatrot.cli" in modules
    # numpy, and the modules argparse and dataclasses would bring in
    assert not [m for m in modules if m.split(".")[0] in ("numpy", "argparse", "dataclasses", "inspect")]
    if error is not None:
        (message,) = [line for line in done.stderr.splitlines() if not line.startswith("import time:")]
        assert json.loads(message)["error"] == error


# --- byte determinism through the real process boundary --------------------

def test_same_seed_same_bytes(cli_env):
    cmd = [sys.executable, "-m", "quatrot", "random", "--seed", "31337", "--dim", "4"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    assert first.stdout == second.stdout
    assert first.stdout


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_examples():
    """(command, output) for each ``$ command`` in README's sh blocks whose
    output lines follow it in full (none elided with ``...``)."""
    examples = []
    for block in README.read_text().split("```sh\n")[1:]:
        for example in block.split("```")[0].split("\n\n"):
            command, _, output = example.partition("\n")
            if command.startswith("$ ") and output.strip() and "..." not in output:
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


def test_readme_cli_examples_print_what_readme_shows(cli_env):
    examples = _readme_cli_examples()
    assert examples
    env = dict(cli_env, PYTHON=sys.executable)
    for command, output in examples:
        script = 'quatrot() { "$PYTHON" -m quatrot "$@"; }\n' + command
        done = subprocess.run(["sh", "-c", script], capture_output=True, env=env, timeout=60)
        assert done.stdout == output.encode(), command


# --- one orthogonality check per command -----------------------------------

ROT3 = [[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]]


@pytest.mark.parametrize(
    "args, matrix",
    [
        (["verify"], ROT3),
        (["verify"], np.eye(4).tolist()),
        (["classify"], ROT3),
        (["angle"], ROT3),
        (["embed"], ROT3),
        (["mat2quat"], ROT3),
        (["mat2quat", "--kind", "rotation"], ROT3),
        (["mat2quat", "--kind", "rotoreflection"], (-np.array(ROT3)).tolist()),
        (["decompose4"], np.eye(4).tolist()),
    ],
)
def test_each_matrix_command_checks_orthogonality_once(args, matrix, monkeypatch, capsys):
    # the CLI and check_orthonormal share one gate core; count its calls
    # wherever a module bound it
    real = _floats._orthogonality
    calls = []

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)

    for name in ("_floats", "linalg", "quaternion", "rot3", "rot4", "rng", "cli"):
        module = importlib.import_module(f"quatrot.{name}")
        if getattr(module, "_orthogonality", None) is real:
            monkeypatch.setattr(module, "_orthogonality", counted)
    code, _, err = run_cli(args, json.dumps({"matrix": matrix}), monkeypatch, capsys)
    assert code == 0, err
    assert len(calls) == 1
    linalg.check_orthonormal(matrix)
    assert len(calls) == 2


# --- the gate's edge: the library and the CLI reach one verdict ---------------

def _library_outcome(call, payload):
    """cli_outcome's form of what the CLI prints for ``payload(call())``,
    or of the error that call raises."""
    try:
        result = call()
    except QuatrotError as exc:
        return ["cli", 3, "", cli.dump_json({"error": exc.code, "detail": str(exc)}) + "\n"]
    return ["cli", 0, cli.dump_json(payload(result)) + "\n", ""]


def _extraction(kind):
    return lambda res: {
        "quaternion": dict(zip("wxyz", res.params.tolist())), "residual": res.residual, "branch": res.branch,
        "kind": kind.value,
    }


@settings(max_examples=150, deadline=None)
@given(
    q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda q: math.hypot(*q) > 0.1),
    flip=st.booleans(),
    squeeze=st.booleans(),
    log_tol=st.floats(math.log(1e-12), math.log(0.5)),
    ratio=st.one_of(st.floats(0.9, 0.99), st.floats(1.01, 1.1)),
)
def test_the_library_and_the_cli_give_one_verdict_at_the_gates_edge(q, flip, squeeze, log_tol, ratio):
    """s R, or R diag(s, 1/s, 1) whose determinant stays 1, and their
    negations, with s = 1 + eps and a Gram deviation 2 eps + eps^2 just
    below or just above tol: each gated rot3 function and its CLI command
    print the same 17 digits or the same error. Below tol, s R is off both
    determinant windows and the squeezed R passes."""
    tol = math.exp(log_tol)
    deviation = ratio * tol
    scale = 1.0 + deviation / (1.0 + math.sqrt(1.0 + deviation))  # 2 eps + eps^2 = deviation
    kind = IsometryKind.ROTOREFLECTION if flip else IsometryKind.ROTATION
    r = rot3.euler_rodrigues(np.array(q) / np.linalg.norm(q))
    r = r @ np.diag([scale, 1.0 / scale, 1.0]) if squeeze else scale * r
    m = -r if flip else r
    assert linalg.check_orthonormal(m, tol).is_orthonormal == (ratio < 1.0)
    cases = [
        (["classify"], lambda: rot3.classify(m, tol), lambda k: {"kind": k.value, "det": linalg.check_orthonormal(m, tol).determinant}),
        (["mat2quat", "--kind", "rotation"], lambda: rot3.extract_rotation(m, tol), _extraction(IsometryKind.ROTATION)),
        (["mat2quat", "--kind", "rotoreflection"], lambda: rot3.extract_rotoreflection(m, tol),
         _extraction(IsometryKind.ROTOREFLECTION)),
        (["angle"], lambda: rot3.rotation_angle(m, kind, tol),
         lambda a: {"kind": kind.value, "alpha": a.alpha, "cos_alpha": a.cos_alpha}),
        (["embed"], lambda: rot3.embed_4d(m, kind, tol), lambda e: {"kind": kind.value, "matrix": e.tolist()}),
    ]
    stdin = json.dumps({"matrix": m.tolist()})
    for argv, call, payload in cases:
        assert cli_outcome([*argv, "--tol", repr(tol)], stdin) == _library_outcome(call, payload), argv
