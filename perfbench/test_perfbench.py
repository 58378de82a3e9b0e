"""Tests of the benchmark itself: seeded inputs, checker, tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from quatrot import rot3, rot4  # noqa: E402
from quatrot.errors import NotOrthogonal  # noqa: E402

from perfbench import inputs, layers, reference, run, tracing, workloads  # noqa: E402


def test_same_seed_gives_same_inputs():
    a, b, c = workloads.ScalarMix(7), workloads.ScalarMix(7), workloads.ScalarMix(8)
    for name in ("q3", "noise3", "l4", "r4", "noise4", "not_orthogonal", "det_minus_one", "not_unit"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(getattr(a, name), getattr(c, name))
    np.testing.assert_array_equal(a.with_nan, b.with_nan)  # NaN in the same places
    assert a.seeds == b.seeds != c.seeds
    cli_a, cli_b = workloads.CliPipeline(7, str(ROOT)), workloads.CliPipeline(7, str(ROOT))
    assert cli_a.text == cli_b.text and cli_a.seeds == cli_b.seeds


def test_input_shares():
    q = inputs.unit_quaternions(np.random.default_rng(0), 2000)
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-15)
    assert np.bincount(inputs.branch(q), minlength=4).tolist() == [500] * 4
    angle = 2 * np.arctan2(np.linalg.norm(q[:, 1:], axis=1), np.abs(q[:, 0]))
    assert np.sum(angle <= inputs.NEAR) == 200
    assert np.sum(angle >= np.pi - inputs.NEAR) == 300
    noise = inputs.perturbations(np.random.default_rng(0), 100, (3, 3))
    assert np.count_nonzero(np.any(noise != 0, axis=(1, 2))) == 20
    assert np.max(np.abs(noise)) <= inputs.NOISE


def test_checker_flags_wrong_answer(monkeypatch):
    wl, chk = workloads.ScalarMix(3), workloads.Checker()
    assert wl.request("rot4", 0, chk)[2]
    real = rot4.decompose_4d

    def off_by_1e9(a, *args):
        dec = real(a, *args)
        return rot4.QuatPairDecomposition(dec.left + 1e-9, dec.right, dec.rank1_residual, dec.reconstruction_error)

    monkeypatch.setattr(rot4, "decompose_4d", off_by_1e9)
    _ns, items, ok = wl.request("rot4", 0, chk)
    assert items == 0 and not ok
    assert chk.messages and "rot4.decompose_4d.max_err" in chk.messages[-1]


def test_checker_flags_wrong_rotation_angle(monkeypatch):
    wl, chk = workloads.ScalarMix(3), workloads.Checker()
    generic = next(j for j in range(wl.POOL) if 0.1 < wl.alpha3[j] < 3.0)
    assert wl._rot3(generic, chk)[1]
    real = rot3.rotation_angle

    def off_by_1e8(m, kind, *args):
        report = real(m, kind, *args)
        return rot3.AngleReport(report.alpha + 1e-8, report.cos_alpha)

    monkeypatch.setattr(rot3, "rotation_angle", off_by_1e8)
    assert not wl._rot3(generic, chk)[1]
    assert "rot3.rotation_angle.max_err" in chk.messages[-1]


def test_checker_flags_wrong_error_class(monkeypatch):
    wl, chk = workloads.ScalarMix(3), workloads.Checker()
    assert wl.request("reject.not_unit", 0, chk)[2]

    def wrong_class(q):
        raise NotOrthogonal("not the documented class")

    monkeypatch.setattr(rot3, "euler_rodrigues", wrong_class)
    assert not wl.request("reject.not_unit", 0, chk)[2]
    monkeypatch.setattr(rot3, "euler_rodrigues", lambda q: np.eye(3))
    assert not wl.request("reject.not_unit", 0, chk)[2]


def test_checker_rejects_non_finite_and_cli_codes():
    chk = workloads.Checker()
    assert not chk.close("x", np.nan) and chk.worst["x"] == np.inf
    assert not chk.close("y", reference.quat_error(np.full(4, np.nan), np.ones(4) / 2))
    cli = workloads.CliPipeline(1, str(ROOT))
    assert not cli.check("math_reject", 0, [(2, "", '{"error":"not_a_rotation"}')], chk)
    assert chk.counts["cli.exit_code_mismatch"] == 1
    assert not cli.check("math_reject", 0, [(3, "", '{"error":"parse_error"}')], chk)
    assert cli.check("math_reject", 0, [(3, "", '{"error":"not_a_rotation"}')], chk)


def test_traced_and_untraced_runs_report_the_same_error_rate(monkeypatch):
    real = rot4.compose_4d
    monkeypatch.setattr(rot4, "compose_4d", lambda l, r: real(l, r) * (1 + 1e-9))
    wl = workloads.ScalarMix(5)
    plain = run.run_loop(wl, workloads.Checker(), 0, 2 * len(wl.cycle))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_loop(wl, workloads.Checker(), 0, 2 * len(wl.cycle), tracer)
    finally:
        tracer.uninstall()
    assert rot4.decompose_4d.__name__ == "decompose_4d" and not hasattr(rot4.decompose_4d, "__wrapped__")
    # compose_4d is also called inside decompose_4d, so every 4D round trip fails
    assert plain.failed == traced.failed == 2 * wl.mix["rot4"]
    assert len(plain.latencies) == len(traced.latencies)


def test_decompose_span_adds_up_and_call_counts_are_exact():
    wl = workloads.ScalarMix(2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_loop(wl, workloads.Checker(), 0, len(wl.cycle), tracer)
    finally:
        tracer.uninstall()
    spans = tracing.Spans(tracer)
    dec = spans.select("rot4.decompose_4d")
    assert dec.sum() == wl.mix["rot4"]
    assert spans.mean_us(dec) == pytest.approx(
        spans.mean_us(dec, spans.dur - spans.child) + spans.mean_us(dec, spans.child), rel=1e-12
    )
    anc = spans.ancestor("rot4.decompose_4d")
    inside = (anc >= 0) & dec[np.maximum(anc, 0)] & (anc != np.arange(len(anc)))
    counts = [np.sum(spans.select(f"linalg.{n}", ok_only=False, prefix=True) & inside) for n in ("check_orthonormal", "mat_mul")]
    assert [c / dec.sum() for c in counts] == [1.0, 2.0]
    # a name that no module defines reports no calls and no time
    assert spans.mean_us(spans.select("rot4.no_such_function")) == 0.0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar_mix", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout
