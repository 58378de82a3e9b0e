import argparse
import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import GOLDEN_CASES, GOLDEN_DIR
from quatrot import _floats, cli, linalg
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


# --- parsing edge cases: matrices are read as np.array(data, float64) reads them

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


def test_json_nested_too_deep_to_decode_is_a_parse_error(monkeypatch, capsys):
    code, out, err = run_cli(["mat2quat"], '{"matrix": %s}' % ("[" * 100_000), monkeypatch, capsys)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "parse_error"
    assert payload["detail"].startswith("invalid JSON: ")


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


# --- no CLI process imports numpy ---------------------------------------------

NO_NUMPY_CASES = {name: (*case, 0, None) for name, case in GOLDEN_CASES.items()}
NO_NUMPY_CASES.update(
    {
        "help": (["--help"], "", 0, None),
        "bad_flag": (["random", "--seed", "abc"], "", 2, "parse_error"),
        "parse_error": (["mat2quat"], "this is not json", 2, "parse_error"),
        "non_finite": (["mat2quat"], '{"matrix": [[null, 0, 0], [0, 1, 0], [0, 0, 1]]}', 2, "non_finite"),
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
