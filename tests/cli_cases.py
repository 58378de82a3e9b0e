"""The CLI's recorded cases, built and replayed without numpy.

``cli_calls`` builds the ``quatrot.cli.main`` cases of
``data/scalar_parity.json`` from the fixture's inputs, given as nested
lists of floats (``decode_inputs``), and ``cli_outcome`` runs one:
``parity_cases.record`` records them and ``test_scalar_parity`` replays
them. ``GOLDEN_CASES`` holds the argv and stdin whose stdout the files
in ``golden/`` hold; ``test_cli`` replays them.

Run as a script, this module replays both through ``cli.main`` and exits
1 on any difference or if numpy was imported. It needs only the standard
library and ``src/``, so it checks the CLI's bytes on an interpreter
without numpy, such as Python 3.12 and later, whose ``sum`` adds floats
with compensation:

    PYTHONPATH=src python3 tests/cli_cases.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
import sys
from pathlib import Path

HERE = Path(__file__).parent
FIXTURE = HERE / "data" / "scalar_parity.json"
GOLDEN_DIR = HERE / "golden"

S2 = math.sqrt(2.0) / 2.0
EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
EYE4 = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]

# name of the golden file: (argv, stdin)
GOLDEN_CASES = {
    "quat2mat": (["quat2mat"], json.dumps({"quaternion": {"w": S2, "x": 0, "y": 0, "z": S2}})),
    "mat2quat": (["mat2quat"], json.dumps({"matrix": EYE3})),
    "decompose4": (["decompose4"], json.dumps({"matrix": [[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]})),
    "compose4": (
        ["compose4"],
        json.dumps({"left": {"w": 0, "x": 1, "y": 0, "z": 0}, "right": {"w": 1, "x": 0, "y": 0, "z": 0}}),
    ),
    "classify": (["classify"], json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})),
    "angle": (["angle"], json.dumps({"matrix": [[0, -1, 0], [1, 0, 0], [0, 0, 1]]})),
    "embed": (["embed"], json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})),
    "random": (["random", "--seed", "7", "--dim", "3"], ""),
    "verify": (["verify"], json.dumps({"matrix": EYE4})),
}


def _nested(values, shape):
    if len(shape) == 1:
        return list(values)
    step = len(values) // shape[0]
    return [_nested(values[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


def decode_inputs(stored: dict) -> dict:
    """The fixture's inputs (shape, little-endian float64 bytes in hex) as
    nested lists of floats, as ``ndarray.tolist()`` gives them."""
    return {
        k: _nested(struct.unpack(f"<{len(h) // 16}d", bytes.fromhex(h)), shape) for k, (shape, h) in stored.items()
    }


def cli_calls(inp: dict):
    """(case id, argv, stdin text) for quatrot.cli.main on valid and
    rejected matrices; the outcome is the exit code, stdout and stderr."""
    def text(m):
        return json.dumps({"matrix": m})

    nan3 = [row[:] for row in inp["m3"][12]]
    nan3[1][1] = float("nan")
    mats = {
        "rotation": text(inp["m3"][13]),
        "noisy": text(inp["m3"][16]),
        "rotoreflection": text(inp["rr3"][14]),
        "exact": text(inp["exact3"][3]),
        "far": text(inp["far3"][1]),
        "huge": text(inp["huge3"][0]),
        "nan": text(nan3),
    }
    for label, stdin in mats.items():
        for argv in (["verify"], ["classify"], ["angle"], ["embed"], ["mat2quat"],
                     ["mat2quat", "--kind", "rotation"], ["mat2quat", "--kind", "rotoreflection"],
                     ["angle", "--tol", "1e-6"], ["mat2quat", "--format", "plain"]):
            if "plain" in argv:
                rows = json.loads(stdin)["matrix"]
                yield f"cli/{label}/{' '.join(argv)}", argv, "\n".join(" ".join(map(repr, r)) for r in rows)
            else:
                yield f"cli/{label}/{' '.join(argv)}", argv, stdin
    for i in (2, 13, 16):
        for argv in (["verify"], ["decompose4"], ["verify", "--tol", "1e-7"]):
            yield f"cli/m4/{i}/{' '.join(argv)}", argv, text(inp["m4"][i])
    for i in range(len(inp["exact4"])):
        yield f"cli/exact4/{i}/verify", ["verify"], text(inp["exact4"][i])
    nan4 = [row[:] for row in inp["m4"][3]]
    nan4[0][0] = float("nan")
    for argv in (["verify"], ["decompose4"]):
        yield f"cli/m4/nan/{argv[0]}", argv, text(nan4)
    for argv in (["classify", "--tol", "0.5"], ["verify", "--tol", "0.5"]):
        yield f"cli/scaled/{' '.join(argv)}", argv, text(inp["scaled3"][0])


def cli_outcome(argv, stdin):
    from quatrot import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return ["cli", code, out.getvalue(), err.getvalue()]


def replay() -> tuple:
    """(cases run, [(case, recorded, got) for each that differs]) over the
    fixture's CLI cases and the golden files; a golden case must exit 0
    with an empty stderr."""
    stored = json.loads(FIXTURE.read_text())
    cases = [(case, argv, stdin, stored["outcomes"][case])
             for case, argv, stdin in cli_calls(decode_inputs(stored["inputs"]))]
    for name, (argv, stdin) in sorted(GOLDEN_CASES.items()):
        cases.append((f"golden/{name}", argv, stdin, ["cli", 0, (GOLDEN_DIR / f"{name}.json").read_text(), ""]))
    moved = [(case, want, got) for case, argv, stdin, want in cases if (got := cli_outcome(argv, stdin)) != want]
    return len(cases), moved


def main() -> int:
    run, moved = replay()
    for case, want, got in moved:
        print(f"{case}: recorded {want!r}, got {got!r}")
    print(f"Python {sys.version.split()[0]}: {run} CLI cases replayed, {len(moved)} differ")
    if "numpy" in sys.modules:
        print("numpy was imported")
        return 1
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
