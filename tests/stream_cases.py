"""The CLI's exit codes when stdout or stderr cannot be written.

Each case runs ``python -m quatrot`` in a child process: through ``sh``
with ``>&-`` (stdout closed), ``2>&-`` (stderr closed) or a redirect to
``/dev/full`` (every write fails with ENOSPC), or with stdout or stderr
the write end of a pipe whose read end was closed before the spawn, so
that the first write to it fails with EPIPE. ``stream_outcome`` gives a
case's exit code, stdout and stderr; ``test_cli`` checks each against
``STREAM_CASES``.

Run as a script, this module runs every case and exits 1 when an outcome
differs or stderr holds a traceback or an "Exception ignored" line. It
needs only the standard library and ``src/``:

    PYTHONPATH=src python3 tests/stream_cases.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def _error(detail: str) -> bytes:
    return (json.dumps({"error": "parse_error", "detail": detail}, separators=(",", ":")) + "\n").encode()


_NOT_ORTHOGONAL = json.dumps({"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]})

# name: (argv, stdin, how stdout or stderr is spoilt, (exit code, stdout, stderr))
STREAM_CASES = {
    "stdout closed": (["random", "--seed", "1"], "", ">&-", (2, b"", _error("cannot write output: stdout is closed"))),
    "help with stdout closed": (["-h"], "", ">&-", (2, b"", _error("cannot write output: stdout is closed"))),
    "stdout a broken pipe": (
        ["random", "--seed", "1"], "", "stdout", (2, None, _error("cannot write output: [Errno 32] Broken pipe")),
    ),
    "stderr closed, parse error": (["nope"], "", "2>&-", (2, b"", b"")),
    "stderr closed, rejection": (["mat2quat"], _NOT_ORTHOGONAL, "2>&-", (3, b"", b"")),
    "stderr a broken pipe, rejection": (["mat2quat"], _NOT_ORTHOGONAL, "stderr", (3, b"", None)),
    "stdout a full device": (
        ["random", "--seed", "1"], "", ">/dev/full", (2, b"", _error("cannot write output: [Errno 28] No space left on device")),
    ),
    "stderr a full device, rejection": (["mat2quat"], _NOT_ORTHOGONAL, "2>/dev/full", (3, b"", b"")),
}


def stream_outcome(name: str, env=None) -> tuple:
    """(exit code, stdout, stderr) of the case ``name`` run in a child
    process with environment env; None for the stream that was the broken pipe."""
    argv, stdin, spoilt, _ = STREAM_CASES[name]
    env = dict(os.environ if env is None else env, PYTHON=sys.executable)
    # buffered, as by default: the flush at exit then meets a broken pipe
    # again unless the CLI pointed the fd at os.devnull
    env.pop("PYTHONUNBUFFERED", None)
    if spoilt in ("stdout", "stderr"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, spoilt: write_end}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "quatrot", *argv], input=stdin.encode(), env=env, timeout=60, **streams
            )
        finally:
            os.close(write_end)
    else:
        command = f'"$PYTHON" -m quatrot "$@" {spoilt}'
        done = subprocess.run(
            ["sh", "-c", command, "sh", *argv], input=stdin.encode(), capture_output=True, env=env, timeout=60
        )
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    failed = 0
    for name, (*_, want) in STREAM_CASES.items():
        got = stream_outcome(name)
        stderr = got[2] or b""
        if got != want or b"Traceback" in stderr or b"Exception ignored" in stderr:
            print(f"{name}: expected {want!r}, got {got!r}")
            failed += 1
    print(f"Python {sys.version.split()[0]}: {len(STREAM_CASES)} stream cases run, {failed} differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
