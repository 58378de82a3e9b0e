"""The three workloads: their request mixes, inputs, calls and checks.

Each workload is a closed loop with one client: it repeats a fixed cycle
of request kinds, and sends a request only when the previous one has
returned. A request's latency is the time spent inside calls to quatrot
(or, for cli_pipeline, from spawning the processes until they exit);
checking its outputs happens between requests and is not timed.

Library functions are looked up on their modules at call time
(``rot4.decompose_4d``, not a name bound at import), so that trace
wrappers installed on those modules see every call.

Only stable contracts are checked: values within 1e-12 of the
reference up to the documented simultaneous sign flip (rotation angles:
see ``reference.angle_slack``), the error class and its ``code``, and
CLI exit and error codes. The failing path of
``verify`` is left out. The batch kernels are fed only valid rows: they
have no error contract for zero or non-finite rows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from quatrot import cli, kernels, rot3, rot4
from quatrot import rng as qrng
from quatrot.errors import NonFiniteInput, NotARotation, NotOrthogonal, NotUnit

from . import inputs, reference
from .reference import ANGLE_TOL, TOL, max_abs, pair_error, quat_error

_now = time.perf_counter_ns


def _interleave(mix: dict) -> tuple:
    """One cycle with each kind's requests spread evenly over it."""
    slots = [((i + 0.5) / count, kind) for kind, count in mix.items() for i in range(count)]
    return tuple(kind for _, kind in sorted(slots))


class Checker:
    """Counts failed checks and keeps the worst error seen per check."""

    MAX_MESSAGES = 20

    def __init__(self):
        self.worst: dict = {}
        self.counts: dict = {}
        self.messages: list = []

    def note(self, message: str) -> None:
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(message)

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def close(self, name: str, err, tol: float = TOL) -> bool:
        """Pass when the error is within tol; NaN and inf fail."""
        err = float(np.max(err))
        if not math.isfinite(err):
            err = math.inf
        self.worst[name] = max(self.worst.get(name, 0.0), err)
        if err <= tol:
            return True
        self.note(f"{name}: error {err:.3e} exceeds {tol:.3e}")
        return False

    def expect(self, condition: bool, what: str) -> bool:
        if not condition:
            self.note(what)
        return bool(condition)

    def raised(self, exc, cls: type, code: str, what: str) -> bool:
        """Pass when exc is an instance of cls carrying the given code."""
        ok = isinstance(exc, cls) and getattr(exc, "code", None) == code
        return self.expect(ok, f"{what}: expected {cls.__name__}({code}), got {exc!r}")


def _timed(fn, *args):
    start = _now()
    out = fn(*args)
    return out, _now() - start


def _rejected(fn, arg):
    """Call fn(arg) expecting it to raise; return (exception or None, ns)."""
    start = _now()
    try:
        fn(arg)
    except Exception as exc:  # any class is recorded; the checker judges it
        return exc, _now() - start
    return None, _now() - start


class ScalarMix:
    """Per-matrix round trips through the scalar API, plus rejects."""

    name = "scalar_mix"
    tail_percentile = 99
    min_requests = 2000
    # 40 requests a cycle. Rejects are 40% of requests, so an error path
    # that gets 1.75x slower moves latency_p75_us by 25%; being cheap, they
    # are only about 10% of the busy time that items_per_s divides by. The
    # 4D round trip, the slowest kind, is 17.5% of requests, so p99 falls
    # at its 94th percentile.
    mix = {
        "rot3": 14,
        "rot4": 7,
        "rotoreflection": 1,
        "random.dim3": 1,
        "random.dim4": 1,
        "reject.not_orthogonal": 4,
        "reject.not_a_rotation": 4,
        "reject.non_finite": 4,
        "reject.not_unit": 4,
    }
    POOL = 1000
    SEEDS = 200

    def __init__(self, seed: int):
        g = np.random.default_rng([seed, 1])
        n = self.POOL
        self.q3 = inputs.unit_quaternions(g, n)
        self.noise3 = inputs.perturbations(g, n, (3, 3))
        self.ref3 = reference.rotation3(self.q3)
        self.cos3 = reference.cos_angle(self.q3)
        self.alpha3 = reference.angle(self.q3)
        self.alpha_tol3 = ANGLE_TOL + reference.angle_slack(self.cos3, TOL)
        self.qrr = inputs.unit_quaternions(g, n)
        self.noise_rr = inputs.perturbations(g, n, (3, 3))
        self.ref_rr = -reference.rotation3(self.qrr)
        self.l4 = inputs.unit_quaternions(g, n)
        self.r4 = inputs.unit_quaternions(g, n)
        self.noise4 = inputs.perturbations(g, n, (4, 4))
        self.ref4 = reference.rotation4(self.l4, self.r4)
        self.seeds = {d: inputs.seeds(g, self.SEEDS) for d in (3, 4)}
        self.random_ref = {d: [reference.random_rotation(s, d) for s in self.seeds[d]] for d in (3, 4)}
        bad = inputs.unit_quaternions(g, n)
        self.not_orthogonal = inputs.not_orthogonal_3x3(g, bad)
        self.det_minus_one = inputs.det_minus_one_4x4(bad, self.l4)
        self.with_nan = inputs.with_nan_3x3(g, bad)
        self.not_unit = inputs.not_unit(g, bad)
        self.cycle = _interleave(self.mix)
        self._handlers = {
            "rot4": self._rot4,
            "rot3": self._rot3,
            "rotoreflection": self._rotoreflection,
            "random.dim3": lambda j, chk: self._random(3, j, chk),
            "random.dim4": lambda j, chk: self._random(4, j, chk),
            "reject.not_orthogonal": lambda j, chk: self._reject(
                rot3.classify, self.not_orthogonal[j], NotOrthogonal, "not_orthogonal", chk
            ),
            "reject.not_a_rotation": lambda j, chk: self._reject(
                rot4.decompose_4d, self.det_minus_one[j], NotARotation, "not_a_rotation", chk
            ),
            "reject.non_finite": lambda j, chk: self._reject(
                rot3.extract_rotation, self.with_nan[j], NonFiniteInput, "non_finite", chk
            ),
            "reject.not_unit": lambda j, chk: self._reject(
                rot3.euler_rodrigues, self.not_unit[j], NotUnit, "not_unit", chk
            ),
        }

    def request(self, kind: str, index: int, chk: Checker):
        """Run request number `index` of `kind`; return (ns, items, ok)."""
        ns, ok = self._handlers[kind](index % self.POOL, chk)
        return ns, int(ok), ok

    def _rot4(self, j, chk):
        l, r = self.l4[j], self.r4[j]
        a, t1 = _timed(rot4.compose_4d, l, r)
        dec, t2 = _timed(rot4.decompose_4d, a + self.noise4[j])
        ok = chk.close("rot4.compose_4d", max_abs(a, self.ref4[j]))
        ok &= chk.close("rot4.decompose_4d.max_err", pair_error(dec.left, dec.right, l, r))
        return t1 + t2, ok

    def _rot3(self, j, chk):
        q = self.q3[j]
        m, t1 = _timed(rot3.euler_rodrigues, q)
        noisy = m + self.noise3[j]
        kind, t2 = _timed(rot3.classify, noisy)
        ext, t3 = _timed(rot3.extract_rotation, noisy)
        angle, t4 = _timed(rot3.rotation_angle, noisy, kind)
        emb, t5 = _timed(rot3.embed_4d, noisy, kind)
        ok = chk.close("rot3.euler_rodrigues", max_abs(m, self.ref3[j]))
        ok &= chk.expect(kind is rot3.IsometryKind.ROTATION, f"rot3.classify gave {kind!r}")
        ok &= chk.close("rot3.extract_rotation.max_err", quat_error(ext.params, q))
        ok &= chk.close("rot3.rotation_angle.cos_alpha", abs(angle.cos_alpha - self.cos3[j]))
        ok &= chk.close("rot3.rotation_angle.max_err", abs(angle.alpha - self.alpha3[j]), self.alpha_tol3[j])
        ok &= chk.close("rot3.embed_4d", max_abs(emb, reference.embed(self.ref3[j], 1.0)))
        return t1 + t2 + t3 + t4 + t5, ok

    def _rotoreflection(self, j, chk):
        q = self.qrr[j]
        m, t1 = _timed(rot3.rotoreflection_matrix, q)
        ext, t2 = _timed(rot3.extract_rotoreflection, m + self.noise_rr[j])
        ok = chk.close("rot3.rotoreflection_matrix", max_abs(m, self.ref_rr[j]))
        ok &= chk.close("rot3.extract_rotoreflection", quat_error(ext.params, q))
        return t1 + t2, ok

    def _random(self, dim, j, chk):
        j %= self.SEEDS
        m, t = _timed(qrng.random_rotation, self.seeds[dim][j], dim)
        return t, chk.close("rng.random_rotation", max_abs(m, self.random_ref[dim][j]))

    @staticmethod
    def _reject(fn, arg, cls, code, chk):
        exc, t = _rejected(fn, arg)
        return t, chk.raised(exc, cls, code, f"{fn.__name__} on a {code} input")


# name -> (bytes in + out per row, floating-point operations per row).
# Bytes count the float64/int64 arrays a call reads and returns. Flops are
# counted from the formulas (each multiply, add, divide or square root is
# one): 9 quadratic entries; 16 four-term dot products; 16 signed
# quarter-sums; 4 squares, 6 cross terms, a square root, 3 divides and the
# ten-equation residual; and, for decompose, the associate matrix, norms,
# three 4x4 matrix-vector products, the rank-1 residual, recomposition
# and the reconstruction error.
KERNELS = {
    "euler_rodrigues": (32 + 72, 51),
    "extract_rotation": (72 + 48, 62),
    "compose_4d": (64 + 128, 112),
    "associate_matrix": (128 + 128, 64),
    "decompose_4d": (128 + 80, 500),
}


class BatchStream:
    """One public kernels.batch_* call per request on pre-generated stacks."""

    name = "batch_stream"
    tail_percentile = 99
    min_requests = 1000
    SMALL_STACKS = 4  # distinct n=1000 stacks, used in turn
    # 64 requests a cycle: each kernel once at n=1e5, and 9 times at n=1e3
    # (euler_rodrigues, the cheapest, 23 times). The n=1e3 calls are 92% of
    # requests, and so of latency_p75_us's weight, and the n=1e5 calls
    # about 94% of the busy time that items_per_s divides by. The
    # decompose_4d n=1e5 calls are the top 1.6% of requests by latency, so
    # p99 falls inside them.
    mix = {f"{k}.n100000": 1 for k in KERNELS}
    mix.update({f"{k}.n1000": 9 for k in KERNELS})
    mix["euler_rodrigues.n1000"] = 23

    def __init__(self, seed: int):
        g = np.random.default_rng([seed, 2])
        self.stacks = {
            1000: [self._stack(g, 1000) for _ in range(self.SMALL_STACKS)],
            100_000: [self._stack(g, 100_000)],
        }
        self.cycle = _interleave(self.mix)
        self._handlers = {
            "euler_rodrigues": self._euler_rodrigues,
            "extract_rotation": self._extract_rotation,
            "compose_4d": self._compose_4d,
            "associate_matrix": self._associate_matrix,
            "decompose_4d": self._decompose_4d,
        }

    @staticmethod
    def _stack(g, n):
        l, r = inputs.unit_quaternions(g, n), inputs.unit_quaternions(g, n)
        m3, m4 = reference.rotation3(l), reference.rotation4(l, r)
        return {
            "l": l,
            "r": r,
            "m3": m3,
            "m4": m4,
            "m3_noisy": m3 + inputs.perturbations(g, n, (3, 3)),
            "m4_noisy": m4 + inputs.perturbations(g, n, (4, 4)),
            "outer": l[:, :, None] * r[:, None, :],
        }

    def request(self, kind: str, index: int, chk: Checker):
        name, size = kind.split(".n")
        pool = self.stacks[int(size)]
        s = pool[index % len(pool)]
        ns, ok = self._handlers[name](s, chk)
        return ns, len(s["l"]) if ok else 0, ok

    @staticmethod
    def _euler_rodrigues(s, chk):
        out, t = _timed(kernels.batch_euler_rodrigues, s["l"])
        return t, chk.close("kernels.euler_rodrigues", max_abs(out, s["m3"]))

    @staticmethod
    def _extract_rotation(s, chk):
        (params, _branch, _residual), t = _timed(kernels.batch_extract_rotation, s["m3_noisy"])
        return t, chk.close("kernels.extract_rotation", quat_error(params, s["l"]))

    @staticmethod
    def _compose_4d(s, chk):
        out, t = _timed(kernels.batch_compose_4d, s["l"], s["r"])
        return t, chk.close("kernels.compose_4d", max_abs(out, s["m4"]))

    @staticmethod
    def _associate_matrix(s, chk):
        out, t = _timed(kernels.batch_associate_matrix, s["m4_noisy"])
        return t, chk.close("kernels.associate_matrix", max_abs(out, s["outer"]))

    @staticmethod
    def _decompose_4d(s, chk):
        (u, v, _res, _recon), t = _timed(kernels.batch_decompose_4d, s["m4_noisy"])
        ok = chk.close("kernels.decompose_4d", pair_error(u, v, s["l"], s["r"]))
        ok &= chk.close("kernels.decompose_4d.max_recon_error", max_abs(reference.rotation4(u, v), s["m4"]))
        return t, ok


class CliPipeline:
    """``python -m quatrot`` against the checkout, one invocation at a time."""

    name = "cli_pipeline"
    # 100 to 150 requests fit in a 30 s run, so p99 would have fewer than 10
    # samples beyond it; p90 is the highest percentile that keeps 10.
    tail_percentile = 90
    min_requests = 100
    # The two-process pipe is the slowest kind and a fifth of requests:
    # p90 falls in the middle of the pipe block.
    mix = {"pipe": 1, "mat2quat": 1, "decompose4": 1, "math_reject": 1, "parse_error": 1}
    POOL = 64
    TIMEOUT_S = 60

    def __init__(self, seed: int, root: str):
        g = np.random.default_rng([seed, 3])
        n = self.POOL
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.q3 = inputs.unit_quaternions(g, n)
        m3 = reference.rotation3(self.q3) + inputs.perturbations(g, n, (3, 3))
        self.l4, self.r4 = inputs.unit_quaternions(g, n), inputs.unit_quaternions(g, n)
        m4 = reference.rotation4(self.l4, self.r4) + inputs.perturbations(g, n, (4, 4))
        flipped = inputs.det_minus_one_4x4(self.l4, self.r4)
        self.seeds = inputs.seeds(g, n)
        self.text = {
            "mat2quat": [json.dumps({"matrix": m.tolist()}) for m in m3],
            "decompose4": [json.dumps({"matrix": m.tolist()}) for m in m4],
            "math_reject": [json.dumps({"matrix": m.tolist()}) for m in flipped],
            "parse_error": [json.dumps({"matrix": m.tolist()})[:-1] for m in m3],
        }
        self.command = {
            "mat2quat": "mat2quat",
            "decompose4": "decompose4",
            "math_reject": "decompose4",
            "parse_error": "mat2quat",
        }
        self.cycle = _interleave(self.mix)

    def _argv(self, *args):
        return [sys.executable, "-m", "quatrot", *args]

    def _random_args(self, j):
        return ["random", "--seed", str(self.seeds[j]), "--dim", "4"]

    def request(self, kind: str, index: int, chk: Checker):
        j = index % self.POOL
        start = _now()
        if kind == "pipe":
            results = self._pipe(j)
        else:
            proc = subprocess.run(
                self._argv(self.command[kind]),
                input=self.text[kind][j],
                capture_output=True,
                text=True,
                env=self.env,
                cwd=self.root,
                timeout=self.TIMEOUT_S,
            )
            results = [(proc.returncode, proc.stdout, proc.stderr)]
        ns = _now() - start
        ok = self.check(kind, j, results, chk)
        return ns, int(ok), ok

    def _pipe(self, j):
        """random | verify as two concurrent processes joined by a pipe."""
        kw = {"env": self.env, "cwd": self.root}
        random_argv, verify_argv = self._argv(*self._random_args(j)), self._argv("verify")
        with subprocess.Popen(random_argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, **kw) as gen:
            with subprocess.Popen(
                verify_argv, stdin=gen.stdout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw
            ) as ver:
                gen.stdout.close()  # verify holds the only read end now
                try:
                    out, err = ver.communicate(timeout=self.TIMEOUT_S)
                    gen.wait(timeout=self.TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    gen.kill()
                    ver.kill()
                    raise
        return [(gen.returncode, "", ""), (ver.returncode, out, err)]

    def in_process(self, kind: str, index: int, chk: Checker):
        """The same request through ``cli.main`` in this process."""
        j = index % self.POOL
        start = _now()
        if kind == "pipe":
            first = self._main(self._random_args(j), "")
            results = [first, self._main(["verify"], first[1])]
        else:
            results = [self._main([self.command[kind]], self.text[kind][j])]
        ns = _now() - start
        ok = self.check(kind, j, results, chk)
        return ns, int(ok), ok

    @staticmethod
    def _main(argv, text):
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def check(self, kind, j, results, chk) -> bool:
        """Judge [(exit code, stdout, stderr), ...] of one request."""
        expected = {"math_reject": 3, "parse_error": 2}.get(kind, 0)
        codes = [code for code, _, _ in results]
        if any(code != expected for code in codes):
            chk.count("cli.exit_code_mismatch")
            chk.note(f"cli {kind}: exit codes {codes}, expected {expected}; stderr {results[-1][2]!r}")
            return False
        code, out, err = results[-1]
        try:
            if kind == "pipe":
                payload = json.loads(out)
                return chk.expect(payload["ok"] is True and payload["dim"] == 4, f"cli verify: {out!r}")
            if kind == "mat2quat":
                return chk.close("cli.mat2quat", quat_error(_quat(json.loads(out)["quaternion"]), self.q3[j]))
            if kind == "decompose4":
                payload = json.loads(out)
                error = pair_error(_quat(payload["left"]), _quat(payload["right"]), self.l4[j], self.r4[j])
                return chk.close("cli.decompose4", error)
            want = "not_a_rotation" if kind == "math_reject" else "parse_error"
            return chk.expect(json.loads(err)["error"] == want, f"cli {kind}: stderr {err!r}")
        except (ValueError, KeyError, TypeError) as exc:
            chk.note(f"cli {kind}: unreadable output {exc!r}")
            return False


class CliMain(CliPipeline):
    """cli_pipeline's requests through ``cli.main`` in this process: the
    traced pass's view of the cli layer without interpreter start-up."""

    name = "cli_main"
    request = CliPipeline.in_process


def _quat(obj) -> np.ndarray:
    return np.array([obj[k] for k in ("w", "x", "y", "z")], dtype=np.float64)


def make(name: str, seed: int, root: str):
    """Build the named workload's inputs and references from the seed."""
    if name == "scalar_mix":
        return ScalarMix(seed)
    if name == "batch_stream":
        return BatchStream(seed)
    if name == "cli_pipeline":
        return CliPipeline(seed, root)
    if name == "cli_main":
        return CliMain(seed, root)
    raise ValueError(f"unknown workload {name!r}")
