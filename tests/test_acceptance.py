"""Acceptance suite: one test per release criterion, at its stated
tolerance. Each test prints a single PASS/FAIL line (run with -s or -rP
to see them all)."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cli_cases import GOLDEN_CASES, GOLDEN_DIR
import quatrot.kernels as kernels
from quatrot.errors import NotARotation
from quatrot.rng import Xorshift64Star, random_unit_quaternion
from quatrot.rot3 import (
    IsometryKind,
    displaced_angle_cos,
    embed_4d,
    euler_rodrigues,
    extract_rotation,
    extract_rotoreflection,
    rotation_angle,
    rotoreflection_matrix,
)
from quatrot.rot4 import decompose_4d


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, detail


def _quat_batch(rng, n):
    return np.stack([random_unit_quaternion(rng) for _ in range(n)])


def _axis_angle_quat(rng, angle):
    axis = np.array([rng.normal(), rng.normal(), rng.normal()])
    axis /= np.linalg.norm(axis)
    return np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * axis])


def _paired_sign_errors(got_l, got_r, exp_l, exp_r):
    direct = np.maximum(
        np.max(np.abs(got_l - exp_l), axis=1), np.max(np.abs(got_r - exp_r), axis=1)
    )
    flipped = np.maximum(
        np.max(np.abs(got_l + exp_l), axis=1), np.max(np.abs(got_r + exp_r), axis=1)
    )
    return np.minimum(direct, flipped)


def test_criterion_1_4d_roundtrip():
    rng = Xorshift64Star(1001)
    start = time.perf_counter()
    left = _quat_batch(rng, 10_000)
    right = _quat_batch(rng, 10_000)
    mats = kernels.batch_compose_4d(left, right)
    got_l, got_r, _, recon_err = kernels.batch_decompose_4d(mats)
    pair_err = _paired_sign_errors(got_l, got_r, left, right)
    elapsed = time.perf_counter() - start
    ok = float(np.max(pair_err)) <= 1e-12 and float(np.max(recon_err)) <= 1e-12 and elapsed <= 10.0
    _report(
        "4D round trip (10k pairs)",
        ok,
        f"max pair error {np.max(pair_err):.3e}, "
        f"max reconstruction error {np.max(recon_err):.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_associate_matrix_law():
    rng = Xorshift64Star(1002)
    left = _quat_batch(rng, 10_000)
    right = _quat_batch(rng, 10_000)
    mats = kernels.batch_compose_4d(left, right)
    assoc = kernels.batch_associate_matrix(mats)
    norms = np.sqrt(np.sum(assoc * assoc, axis=(1, 2)))
    _, _, rank1_res, _ = kernels.batch_decompose_4d(mats)
    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    rejected = 0
    for i in range(1000):
        try:
            decompose_4d(flip @ mats[i])
        except NotARotation:
            rejected += 1
    ok = (
        float(np.max(np.abs(norms - 1.0))) <= 1e-12
        and float(np.max(rank1_res)) <= 1e-12
        and rejected == 1000
    )
    _report(
        "associate matrix law (norm 1, rank 1, det -1 rejected)",
        ok,
        f"max |norm-1| {np.max(np.abs(norms - 1.0)):.3e}, "
        f"max rank-1 residual {np.max(rank1_res):.3e}, {rejected}/1000 rejections",
    )


def test_criterion_3_3d_roundtrip():
    rng = Xorshift64Star(1003)
    quats = _quat_batch(rng, 10_000)
    mats = kernels.batch_euler_rodrigues(quats)
    params, _, residual = kernels.batch_extract_rotation(mats)
    pair_err = np.minimum(
        np.max(np.abs(params - quats), axis=1), np.max(np.abs(params + quats), axis=1)
    )
    ok_random = float(np.max(residual)) <= 1e-12 and float(np.max(pair_err)) <= 1e-12

    ok_small = True
    for _ in range(1000):
        q = _axis_angle_quat(rng, 1e-7 * rng.uniform())
        result = extract_rotation(euler_rodrigues(q))
        err = min(np.max(np.abs(result.params - q)), np.max(np.abs(result.params + q)))
        ok_small = ok_small and result.residual <= 1e-12 and err <= 1e-12

    ok_near_pi = True
    worst_pi = 0.0
    for _ in range(1000):
        q = _axis_angle_quat(rng, math.pi - 1e-7 * rng.uniform())
        result = extract_rotation(euler_rodrigues(q))
        err = min(np.max(np.abs(result.params - q)), np.max(np.abs(result.params + q)))
        worst_pi = max(worst_pi, result.residual)
        ok_near_pi = ok_near_pi and result.branch != "A" and result.residual <= 1e-9 and err <= 1e-9

    _report(
        "3D round trip (10k random + 2k extreme angles)",
        ok_random and ok_small and ok_near_pi,
        f"max residual {np.max(residual):.3e}, max pair error {np.max(pair_err):.3e}, "
        f"near-pi non-scalar branch with residual <= {worst_pi:.3e}",
    )


def test_criterion_4_rotoreflection_counterpart():
    rng = Xorshift64Star(1004)
    quats = _quat_batch(rng, 10_000)
    rot = kernels.batch_euler_rodrigues(quats)
    worst_neg = 0.0
    worst_res = 0.0
    worst_pair = 0.0
    for i, q in enumerate(quats):
        m = rotoreflection_matrix(q)
        worst_neg = max(worst_neg, float(np.max(np.abs(m + rot[i]))))
        result = extract_rotoreflection(m)
        worst_res = max(worst_res, result.residual)
        err = min(np.max(np.abs(result.params - q)), np.max(np.abs(result.params + q)))
        worst_pair = max(worst_pair, float(err))
    ok = worst_neg <= 1e-15 and worst_res <= 1e-12 and worst_pair <= 1e-12
    _report(
        "rotoreflection counterpart (10k samples)",
        ok,
        f"max negation defect {worst_neg:.3e}, max residual {worst_res:.3e}, "
        f"max pair error {worst_pair:.3e}",
    )


def test_criterion_5_angle_inequalities():
    rng = Xorshift64Star(1005)
    worst_rot = 0.0
    worst_refl = 0.0
    for _ in range(10_000):
        point = (rng.normal(), rng.normal(), rng.normal())
        alpha = math.pi * rng.uniform()
        cos_alpha = math.cos(alpha)
        worst_rot = min(
            worst_rot, displaced_angle_cos(point, alpha, IsometryKind.ROTATION) - cos_alpha
        )
        worst_refl = max(
            worst_refl,
            displaced_angle_cos(point, alpha, IsometryKind.ROTOREFLECTION) - cos_alpha,
        )
    # exact cases: in-plane points give equality, axis points the extremes
    exact = (
        displaced_angle_cos((2.0, -1.0, 0.0), 1.234, IsometryKind.ROTATION) == math.cos(1.234)
        and displaced_angle_cos((2.0, -1.0, 0.0), 1.234, IsometryKind.ROTOREFLECTION)
        == math.cos(1.234)
        and displaced_angle_cos((0.0, 0.0, 3.0), 1.234, IsometryKind.ROTATION) == 1.0
        and displaced_angle_cos((0.0, 0.0, 3.0), 1.234, IsometryKind.ROTOREFLECTION) == -1.0
    )
    ok = worst_rot >= -1e-12 and worst_refl <= 1e-12 and exact
    _report(
        "displaced-angle inequalities (10k samples)",
        ok,
        f"min rotation slack {worst_rot:.3e}, max rotoreflection slack {worst_refl:.3e}, "
        f"exact cases {'ok' if exact else 'BROKEN'}",
    )


def test_criterion_6_embedding_coherence():
    rng = Xorshift64Star(1006)
    worst_rot = 0.0
    worst_refl = 0.0
    for _ in range(1000):
        q = random_unit_quaternion(rng)
        m = euler_rodrigues(q)
        dec = decompose_4d(embed_4d(m, IsometryKind.ROTATION))
        conj = np.array([dec.left[0], -dec.left[1], -dec.left[2], -dec.left[3]])
        worst_rot = max(worst_rot, float(np.max(np.abs(dec.right - conj))))
        mr = rotoreflection_matrix(q)
        dec = decompose_4d(embed_4d(mr, IsometryKind.ROTOREFLECTION))
        neg_scalar = np.array([-dec.left[0], dec.left[1], dec.left[2], dec.left[3]])
        worst_refl = max(worst_refl, float(np.max(np.abs(dec.right - neg_scalar))))
    ok = worst_rot <= 1e-12 and worst_refl <= 1e-12
    _report(
        "embedding coherence (1k rotations + 1k rotoreflections)",
        ok,
        f"max conjugate defect {worst_rot:.3e}, max scalar-negation defect {worst_refl:.3e}",
    )


def test_criterion_7_trace_formulas():
    rng = Xorshift64Star(1007)
    worst_rot = 0.0
    worst_refl = 0.0
    for _ in range(10_000):
        q = random_unit_quaternion(rng)
        alpha = 2.0 * math.atan2(np.linalg.norm(q[1:]), abs(q[0]))
        got = rotation_angle(euler_rodrigues(q), IsometryKind.ROTATION).alpha
        worst_rot = max(worst_rot, abs(got - alpha))
        # rotoreflection with the same in-plane angle: rotate about the
        # quaternion's axis, then reflect through the plane normal to it
        vec = q[1:]
        vn = np.linalg.norm(vec)
        if vn < 1e-12:
            continue
        n = vec / vn
        m = euler_rodrigues(q) - 2.0 * np.outer(n, n)
        got = rotation_angle(m, IsometryKind.ROTOREFLECTION).alpha
        worst_refl = max(worst_refl, abs(got - alpha))
    ok = worst_rot <= 1e-14 and worst_refl <= 1e-14
    _report(
        "trace angle formulas (10k samples per kind)",
        ok,
        f"max rotation angle error {worst_rot:.3e}, max rotoreflection angle error {worst_refl:.3e}",
    )


def test_criterion_8_cli_contract(cli_env):
    base = [sys.executable, "-m", "quatrot"]
    failures = []

    for name, (argv, stdin_text) in GOLDEN_CASES.items():
        proc = subprocess.run(base + argv, input=stdin_text, capture_output=True, text=True, env=cli_env)
        expected = (GOLDEN_DIR / f"{name}.json").read_text()
        if proc.returncode != 0 or proc.stdout != expected:
            failures.append(f"{name} golden mismatch")

    # exit-code-3 paths
    flip4 = json.dumps({"matrix": np.diag([-1.0, 1.0, 1.0, 1.0]).tolist()})
    for args, stdin_text in (
        (["decompose4"], flip4),
        (["mat2quat"], json.dumps({"matrix": np.diag([2.0, 1.0, 1.0]).tolist()})),
        (["mat2quat", "--kind", "rotoreflection"], json.dumps({"matrix": np.eye(3).tolist()})),
    ):
        proc = subprocess.run(
            base + args, input=stdin_text, capture_output=True, text=True, env=cli_env
        )
        if proc.returncode != 3:
            failures.append(f"{args} expected exit 3, got {proc.returncode}")

    # same-seed byte determinism
    cmd = base + ["random", "--seed", "4242", "--dim", "4"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    if first.stdout != second.stdout:
        failures.append("seeded output not byte-identical")

    _report(
        "CLI contract (9 golden subcommands, exit codes, determinism)",
        not failures,
        "all checks green" if not failures else "; ".join(failures),
    )
