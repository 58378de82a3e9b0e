import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quatrot.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

S2 = math.sqrt(2.0) / 2.0


def run_cli(args, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- golden files, one per subcommand --------------------------------------

GOLDEN_CASES = {
    "quat2mat": (
        ["quat2mat"],
        json.dumps({"quaternion": {"w": S2, "x": 0, "y": 0, "z": S2}}),
    ),
    "mat2quat": (["mat2quat"], json.dumps({"matrix": np.eye(3).tolist()})),
    "decompose4": (
        ["decompose4"],
        json.dumps(
            {"matrix": [[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]}
        ),
    ),
    "compose4": (
        ["compose4"],
        json.dumps(
            {
                "left": {"w": 0, "x": 1, "y": 0, "z": 0},
                "right": {"w": 1, "x": 0, "y": 0, "z": 0},
            }
        ),
    ),
    "classify": (["classify"], json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})),
    "angle": (["angle"], json.dumps({"matrix": [[0, -1, 0], [1, 0, 0], [0, 0, 1]]})),
    "embed": (["embed"], json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})),
    "random": (["random", "--seed", "7", "--dim", "3"], ""),
    "verify": (["verify"], json.dumps({"matrix": np.eye(4).tolist()})),
}


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
    import quatrot
    from quatrot import linalg

    real = linalg.check_orthonormal
    calls = []

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)

    # wherever a module bound the function, as a tracer installed from outside would
    for module in (getattr(quatrot, name) for name in ("linalg", "quaternion", "rot3", "rot4", "rng", "cli")):
        if getattr(module, "check_orthonormal", None) is real:
            monkeypatch.setattr(module, "check_orthonormal", counted)
    code, _, err = run_cli(args, json.dumps({"matrix": matrix}), monkeypatch, capsys)
    assert code == 0, err
    assert len(calls) == 1
