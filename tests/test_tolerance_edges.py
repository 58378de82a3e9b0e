"""Every tolerance verdict at its edge: a value passes a tolerance only as
value <= tol, so tol set to the computed quantity passes and the float just
below it, ``math.nextafter(x, 0)``, fails. Each matrix is chosen so that the
quantity under test is the largest one its call compares with tol."""

import io
import json
import math
import sys

import numpy as np
import pytest

from quatrot import cli
from quatrot.errors import (
    InconsistentSystem,
    IndeterminateDeterminant,
    NotARotation,
    NotARotoreflection,
    NotOrthogonal,
    RankDeficiency,
)
from quatrot.linalg import check_orthonormal
from quatrot.rot3 import IsometryKind, classify, extract_rotation, extract_rotoreflection
from quatrot.rot4 import decompose_4d

LOOSE = 0.999  # a tol every matrix below passes at

# Off the gate by 1/16 in entry (0, 1): deviation 1/16, determinant 1.
GATE3 = [[1.0, 0.0625, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
GATE4 = [[1.0, 0.0625, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
S = 1.0 + 2.0**-10  # s I: deviation s^2 - 1, determinant gap |s^n - 1| larger
# Matrices far off the gate whose extraction residual, rank-1 residual or
# reconstruction error is larger than their Gram deviation and determinant gap.
RESIDUAL3 = [[-0.1, -1.2, 0.5], [1.2, 0.1, 0.5], [-0.2, 0.2, 0.2]]
RANK1_4 = [[-0.4, -0.5, 0.2, -0.7], [0.1, -0.6, 0.5, -0.6], [-0.3, 0.6, -0.6, -0.1], [0.4, -0.1, 1.1, 1.0]]
RECON4 = [[0.8, 0.3, -0.3, -0.9], [-0.4, 0.6, 0.7, 0.3], [-0.5, -0.2, -0.1, -0.6], [0.4, -1.0, -0.1, 0.5]]


def _below(x: float) -> float:
    return math.nextafter(x, 0.0)


def _deviation(m) -> float:
    return check_orthonormal(m, LOOSE).max_abs_gram_deviation


def _gap(m, corner=1.0) -> float:
    return abs(check_orthonormal(m, LOOSE).determinant - corner)


def test_is_orthonormal_at_its_edge():
    for m in (GATE3, GATE4, RESIDUAL3, RANK1_4):
        dev = _deviation(m)
        assert check_orthonormal(m, dev).is_orthonormal
        assert not check_orthonormal(m, _below(dev)).is_orthonormal


@pytest.mark.parametrize(
    "call, m, error",
    [
        (classify, GATE3, NotOrthogonal),
        (extract_rotation, GATE3, NotARotation),
        (extract_rotoreflection, (-np.array(GATE3)).tolist(), NotARotoreflection),
        (decompose_4d, GATE4, NotARotation),
    ],
    ids=["classify", "extract_rotation", "extract_rotoreflection", "decompose_4d"],
)
def test_the_gate_at_its_edge(call, m, error):
    dev = _deviation(m)
    assert _gap(m, np.sign(check_orthonormal(m, LOOSE).determinant)) < dev
    call(m, dev)
    with pytest.raises(error, match="orthogonality deviation"):
        call(m, _below(dev))


@pytest.mark.parametrize("sign, kind", [(1.0, IsometryKind.ROTATION), (-1.0, IsometryKind.ROTOREFLECTION)])
def test_kinds_determinant_windows_at_their_edges(sign, kind):
    m = (sign * S * np.eye(3)).tolist()
    gap = _gap(m, sign)
    assert _deviation(m) < gap
    assert classify(m, gap) is kind
    with pytest.raises(IndeterminateDeterminant):
        classify(m, _below(gap))


def test_extracts_residual_at_its_edge():
    residual = extract_rotation(RESIDUAL3, LOOSE).residual
    assert max(_deviation(RESIDUAL3), _gap(RESIDUAL3)) < residual
    assert extract_rotation(RESIDUAL3, residual).residual == residual
    with pytest.raises(InconsistentSystem):
        extract_rotation(RESIDUAL3, _below(residual))


def test_factors_determinant_window_at_its_edge():
    m = S * np.eye(4)
    gap = _gap(m)
    assert max(_deviation(m), decompose_4d(m, LOOSE).rank1_residual) < gap
    decompose_4d(m, gap)
    with pytest.raises(NotARotation, match="is not \\+1"):
        decompose_4d(m, _below(gap))


def test_factors_rank1_residual_at_its_edge():
    residual = decompose_4d(RANK1_4, LOOSE).rank1_residual
    assert max(_deviation(RANK1_4), _gap(RANK1_4)) < residual
    assert decompose_4d(RANK1_4, residual).rank1_residual == residual
    with pytest.raises(RankDeficiency):
        decompose_4d(RANK1_4, _below(residual))


def _verify(m, tol, monkeypatch, capsys):
    """(exit code, printed object) of ``quatrot verify --tol tol`` on m."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"matrix": m})))
    code = cli.main(["verify", "--tol", repr(tol)])
    out, err = capsys.readouterr()
    return code, json.loads(out or err)


@pytest.mark.parametrize(
    "m, quantity, below",
    [
        (GATE3, "orthogonality_deviation", (3, "not_orthogonal")),
        (RESIDUAL3, "extraction_residual", (3, "inconsistent_system")),
        (GATE4, "orthogonality_deviation", (3, "not_a_rotation")),
        (RECON4, "reconstruction_error", (3, False)),  # the one verdict only ok gives
    ],
    ids=["gate3", "residual3", "gate4", "reconstruction"],
)
def test_verifys_ok_at_its_edge(m, quantity, below, monkeypatch, capsys):
    """Each case's quantity is the report's largest. No 4D matrix was found
    whose rank-1 residual is below 1 and above its reconstruction error, so
    ok's rank-1 comparison has no case of its own."""
    _, report = _verify(m, LOOSE, monkeypatch, capsys)
    tol = report[quantity]
    quantities = [abs(abs(report["det"]) - 1.0)] + [
        report.get(name, 0.0)
        for name in ("orthogonality_deviation", "extraction_residual", "rank1_residual", "reconstruction_error")
    ]
    assert max(quantities) == tol
    assert _verify(m, tol, monkeypatch, capsys) == (0, {**report, "ok": True})
    code, report = _verify(m, _below(tol), monkeypatch, capsys)
    assert (code, report.get("ok", report.get("error"))) == below
