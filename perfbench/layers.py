"""Per-layer metrics of a traced run: names, units and how each is computed.

Times are means per call over calls that returned, in microseconds
unless the name says otherwise, so that a span's self time and its
children's time add up to its own. Counts are per parent call.
"""

from __future__ import annotations

import statistics

import numpy as np

from .workloads import KERNELS, CliPipeline, ScalarMix

SIZES = (1000, 100_000)
CLI_KINDS = tuple(k for k in CliPipeline.mix if k != "pipe")
REJECTS = tuple(k.split(".", 1)[1] for k in ScalarMix.mix if k.startswith("reject."))
ROT3 = ("euler_rodrigues", "classify", "extract_rotation", "extract_rotoreflection", "rotation_angle", "embed_4d")
DECOMPOSE_CALLEES = ("check_orthonormal", "mat_mul", "as_mat4")
ACCURACY = (
    "rot4.decompose_4d.max_err",
    "rot3.extract_rotation.max_err",
    "rot3.rotation_angle.max_err",
    "kernels.decompose_4d.max_recon_error",
)


def _units() -> dict:
    u = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms"}
    u.update({f"cli.main_us.{k}": "us" for k in ("random", "verify") + CLI_KINDS})
    u.update({"cli.parse_us": "us", "cli.format_us": "us", "cli.exit_code_mismatch": "count"})
    for name in ("compose_4d", "decompose_4d", "decompose_4d.self", "decompose_4d.children", "associate_matrix"):
        u[f"rot4.{name}_us"] = "us"
    u.update({f"rot4.decompose_4d.calls.{c}": "calls" for c in DECOMPOSE_CALLEES})
    u.update({f"rot3.{name}_us": "us" for name in ROT3})
    u["rot3.request.calls.check_orthonormal"] = "calls"
    for name in ("check_orthonormal_us.m3", "check_orthonormal_us.m4", "rank1_factor_us", "mat_mul_us", "det4_us"):
        u[f"linalg.{name}"] = "us"
    u.update({"quaternion.as_unit_us": "us", "quaternion.left_matrix_us": "us"})
    u.update({"rng.random_rotation_us.dim3": "us", "rng.random_rotation_us.dim4": "us"})
    u.update({f"scalar.reject_us.{code}": "us" for code in REJECTS})
    for k in KERNELS:
        u.update({f"kernels.{k}.ns_per_item.n{n}": "ns" for n in SIZES})
        u.update({f"kernels.{k}.bytes_per_item": "B", f"kernels.{k}.flops_per_item": "flop"})
    u.update({name: "abs" for name in ACCURACY})
    u["trace.overhead_frac"] = "ratio"
    return u


UNITS = _units()


def measure(spans, loops: list, chk, floors: dict, overhead: float) -> dict:
    """Every metric in UNITS, from the spans and loops of a traced run,
    the checker's worst errors, the interpreter floors (ms) and the
    tracing overhead."""
    m = {"cli.interpreter_ms": floors["interpreter"], "cli.import_ms": floors["import"] - floors["interpreter"]}
    kinds = spans.request_kind()

    def mean(name, where=None, prefix=False, values=None):
        mask = spans.select(name, prefix=prefix)
        return spans.mean_us(mask if where is None else mask & where, values)

    def calls(name, where):
        return int(np.sum(spans.select(name, ok_only=False, prefix=True) & where))

    for stage in ("random", "verify"):
        m[f"cli.main_us.{stage}"] = mean(f"cli.main.{stage}", kinds == "cli_main.pipe")
    for kind in CLI_KINDS:
        m[f"cli.main_us.{kind}"] = mean("cli.main.", kinds == f"cli_main.{kind}", prefix=True)
    m["cli.parse_us"] = mean("cli.parse_matrix")
    m["cli.format_us"] = mean("cli.dump_json")
    m["cli.exit_code_mismatch"] = chk.counts.get("cli.exit_code_mismatch", 0)

    for name in ("compose_4d", "decompose_4d", "associate_matrix"):
        m[f"rot4.{name}_us"] = mean(f"rot4.{name}")
    decompose = spans.select("rot4.decompose_4d")
    m["rot4.decompose_4d.self_us"] = spans.mean_us(decompose, spans.dur - spans.child)
    m["rot4.decompose_4d.children_us"] = spans.mean_us(decompose, spans.child)
    anc = spans.ancestor("rot4.decompose_4d")
    inside = (anc >= 0) & decompose[np.maximum(anc, 0)] & (anc != np.arange(len(anc)))
    for callee in DECOMPOSE_CALLEES:
        m[f"rot4.decompose_4d.calls.{callee}"] = calls(f"linalg.{callee}", inside) / max(int(decompose.sum()), 1)

    for name in ROT3:
        m[f"rot3.{name}_us"] = mean(f"rot3.{name}")
    requests = int(spans.select("request.scalar_mix.rot3").sum())
    gates = calls("linalg.check_orthonormal", kinds == "scalar_mix.rot3")
    m["rot3.request.calls.check_orthonormal"] = gates / max(requests, 1)

    m["linalg.check_orthonormal_us.m3"] = mean("linalg.check_orthonormal.m3")
    m["linalg.check_orthonormal_us.m4"] = mean("linalg.check_orthonormal.m4")
    for name in ("rank1_factor", "mat_mul", "det4"):
        m[f"linalg.{name}_us"] = mean(f"linalg.{name}")
    m["quaternion.as_unit_us"] = mean("quaternion.as_unit")
    m["quaternion.left_matrix_us"] = mean("quaternion.left_matrix")
    m["rng.random_rotation_us.dim3"] = mean("rng.random_rotation.dim3")
    m["rng.random_rotation_us.dim4"] = mean("rng.random_rotation.dim4")

    # A reject's time is its request latency: the one library call that raised.
    for code in REJECTS:
        times = [
            ns
            for loop in loops
            if loop.name == "scalar_mix"
            for ns, kind in zip(loop.latencies, loop.kinds)
            if kind == f"reject.{code}"
        ]
        m[f"scalar.reject_us.{code}"] = statistics.fmean(times) / 1e3 if times else 0.0

    for k, (nbytes, flops) in KERNELS.items():
        for n in SIZES:
            m[f"kernels.{k}.ns_per_item.n{n}"] = mean(f"kernels.batch_{k}.n{n}") * 1e3 / n
        m[f"kernels.{k}.bytes_per_item"] = nbytes
        m[f"kernels.{k}.flops_per_item"] = flops

    m.update({name: chk.worst.get(name, 0.0) for name in ACCURACY})
    m["trace.overhead_frac"] = overhead
    return m
