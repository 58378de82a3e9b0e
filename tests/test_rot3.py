import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatrot import cli
from quatrot.errors import (
    InconsistentSystem,
    IndeterminateDeterminant,
    KindMismatch,
    NonFiniteInput,
    NotARotation,
    NotARotoreflection,
    NotOrthogonal,
    OriginPoint,
    QuatrotError,
)
from quatrot.kernels import batch_extract_rotation
from quatrot.linalg import OrthogonalityReport, _report
from quatrot.quaternion import conjugate
from quatrot.rot4 import associate_matrix
from quatrot._floats import Xorshift64Star, _embedding, _products, _random_unit_quaternion, _require_orthonormal
from quatrot.rot3 import (
    IsometryKind,
    _extract,
    classify,
    displaced_angle_cos,
    embed_4d,
    euler_rodrigues,
    extract_rotation,
    extract_rotoreflection,
    rotation_angle,
    rotoreflection_matrix,
)
from quatrot.rot4 import decompose_4d

S2 = math.sqrt(2.0) / 2.0
Z_QUARTER = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _quat_close_up_to_sign(a, b, atol):
    return min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) <= atol


def _quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * axis])


# --- matrix construction ---------------------------------------------------

def test_euler_rodrigues_identity():
    np.testing.assert_array_equal(euler_rodrigues([1, 0, 0, 0]), np.eye(3))


def test_euler_rodrigues_z_quarter_turn():
    np.testing.assert_allclose(euler_rodrigues([S2, 0, 0, S2]), Z_QUARTER, atol=1e-15)


def test_euler_rodrigues_x_half_turn():
    np.testing.assert_allclose(
        euler_rodrigues([0, 1, 0, 0]), np.diag([1.0, -1.0, -1.0]), atol=1e-15
    )


def test_rotoreflection_point_reflection():
    np.testing.assert_allclose(rotoreflection_matrix([1, 0, 0, 0]), -np.eye(3), atol=1e-15)


def test_rotoreflection_xy_mirror():
    np.testing.assert_allclose(
        rotoreflection_matrix([0, 0, 0, 1]), np.diag([1.0, 1.0, -1.0]), atol=1e-15
    )


def test_rotoreflection_is_negated_rotation():
    rng = Xorshift64Star(31)
    for _ in range(200):
        q = _random_unit_quaternion(rng)
        assert np.max(np.abs(rotoreflection_matrix(q) + euler_rodrigues(q))) <= 1e-15


# --- classification --------------------------------------------------------

def test_classify_trivial():
    assert classify(np.eye(3)) is IsometryKind.ROTATION
    assert classify(np.diag([1.0, 1.0, -1.0])) is IsometryKind.ROTOREFLECTION


def test_classify_random_rotations():
    rng = Xorshift64Star(32)
    for _ in range(100):
        assert classify(euler_rodrigues(_random_unit_quaternion(rng))) is IsometryKind.ROTATION


def test_classify_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        classify(np.diag([2.0, 1.0, 1.0]))


# --- extraction ------------------------------------------------------------

def test_extract_identity():
    result = extract_rotation(np.eye(3))
    np.testing.assert_array_equal(result.params, [1, 0, 0, 0])
    assert result.branch == "A"
    assert result.residual == 0.0


def test_extract_z_quarter_turn():
    result = extract_rotation(Z_QUARTER)
    np.testing.assert_allclose(result.params, [S2, 0, 0, S2], atol=1e-15)


def test_extract_half_turn_about_z():
    result = extract_rotation(np.diag([-1.0, -1.0, 1.0]))
    assert _quat_close_up_to_sign(result.params, np.array([0.0, 0.0, 0.0, 1.0]), 1e-15)
    assert result.branch == "D"


def test_extract_roundtrip_including_extreme_angles():
    rng = Xorshift64Star(33)
    samples = [_random_unit_quaternion(rng) for _ in range(2000)]
    for _ in range(200):
        axis = [rng.normal(), rng.normal(), rng.normal()]
        samples.append(_quat_from_axis_angle(axis, 1e-8 * rng.uniform()))
        samples.append(_quat_from_axis_angle(axis, math.pi - 1e-8 * rng.uniform()))
    for q in samples:
        result = extract_rotation(euler_rodrigues(q))
        assert result.residual <= 1e-12
        assert _quat_close_up_to_sign(result.params, q, 1e-12)


def test_extract_near_pi_uses_non_scalar_branch():
    rng = Xorshift64Star(34)
    for _ in range(100):
        axis = [rng.normal(), rng.normal(), rng.normal()]
        q = _quat_from_axis_angle(axis, math.pi - 1e-8)
        result = extract_rotation(euler_rodrigues(q))
        assert result.branch in ("B", "C", "D")


def test_extract_sign_convention():
    rng = Xorshift64Star(35)
    for _ in range(200):
        q = _random_unit_quaternion(rng)
        params = extract_rotation(euler_rodrigues(q)).params
        for comp in params:
            if abs(comp) > 1e-12:
                assert comp > 0
                break


def test_extract_rejects_rotoreflection_and_junk():
    with pytest.raises(NotARotation):
        extract_rotation(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(NotARotation):
        extract_rotation(np.diag([2.0, 1.0, 1.0]))


def test_inconsistent_system_detected():
    # reachable only past the orthogonality gate, so hand the solver a
    # report that passes it
    m = np.eye(3)
    m[0, 1] = 0.1
    with pytest.raises(InconsistentSystem):
        _extract(m, OrthogonalityReport(0.0, 1.0, 1e-9), IsometryKind.ROTATION)


def test_extract_rotoreflection_examples():
    result = extract_rotoreflection(-np.eye(3))
    np.testing.assert_array_equal(result.params, [1, 0, 0, 0])
    result = extract_rotoreflection(np.diag([1.0, 1.0, -1.0]))
    assert _quat_close_up_to_sign(result.params, np.array([0.0, 0.0, 0.0, 1.0]), 1e-15)


def test_extract_rotoreflection_roundtrip():
    rng = Xorshift64Star(37)
    for _ in range(500):
        q = _random_unit_quaternion(rng)
        result = extract_rotoreflection(rotoreflection_matrix(q))
        assert result.residual <= 1e-12
        assert _quat_close_up_to_sign(result.params, q, 1e-12)


def test_extract_rotoreflection_rejects_rotation():
    with pytest.raises(NotARotoreflection):
        extract_rotoreflection(np.eye(3))


# --- ten-equation cross-checks --------------------------------------------

def test_all_ten_equations_hold_for_extracted_parameters():
    rng = Xorshift64Star(38)
    for _ in range(200):
        m = euler_rodrigues(_random_unit_quaternion(rng))
        a, b, c, d = extract_rotation(m).params
        checks = [
            (a * a, (1 + m[0, 0] + m[1, 1] + m[2, 2]) / 4),
            (b * b, (1 + m[0, 0] - m[1, 1] - m[2, 2]) / 4),
            (c * c, (1 - m[0, 0] + m[1, 1] - m[2, 2]) / 4),
            (d * d, (1 - m[0, 0] - m[1, 1] + m[2, 2]) / 4),
            (a * b, (m[2, 1] - m[1, 2]) / 4),
            (a * c, (m[0, 2] - m[2, 0]) / 4),
            (a * d, (m[1, 0] - m[0, 1]) / 4),
            (c * d, (m[2, 1] + m[1, 2]) / 4),
            (d * b, (m[0, 2] + m[2, 0]) / 4),
            (b * c, (m[1, 0] + m[0, 1]) / 4),
        ]
        for lhs, rhs in checks:
            assert abs(lhs - rhs) <= 1e-12


def test_diagonal_bounds_and_quarter_trace():
    rng = Xorshift64Star(39)
    for _ in range(500):
        q = _random_unit_quaternion(rng)
        m = euler_rodrigues(q)
        cos_alpha = rotation_angle(m, IsometryKind.ROTATION).cos_alpha
        # (1 + trace)/4 >= 0 and each diagonal entry >= cos(alpha)
        assert (1 + np.trace(m)) / 4 >= 0.0
        for i in range(3):
            assert m[i, i] >= cos_alpha - 1e-12
        mr = rotoreflection_matrix(q)
        cos_alpha_r = rotation_angle(mr, IsometryKind.ROTOREFLECTION).cos_alpha
        for i in range(3):
            assert mr[i, i] <= cos_alpha_r + 1e-12


# --- angles ----------------------------------------------------------------

def test_angle_trivial_cases():
    assert rotation_angle(np.eye(3), IsometryKind.ROTATION).alpha == 0.0
    report = rotation_angle(Z_QUARTER, IsometryKind.ROTATION)
    assert report.cos_alpha == 0.0
    assert report.alpha == pytest.approx(math.pi / 2, abs=1e-15)
    report = rotation_angle(-np.eye(3), IsometryKind.ROTOREFLECTION)
    assert report.cos_alpha == -1.0
    assert report.alpha == pytest.approx(math.pi, abs=1e-15)


def test_angle_matches_generating_quaternion():
    rng = Xorshift64Star(40)
    for _ in range(500):
        q = _random_unit_quaternion(rng)
        alpha = 2 * math.acos(min(1.0, abs(q[0])))
        got = rotation_angle(euler_rodrigues(q), IsometryKind.ROTATION).alpha
        assert got == pytest.approx(alpha, abs=1e-9)


_AXIS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 0.1)


@given(
    _AXIS,
    st.floats(-9.0, -3.0),
    st.booleans(),
    st.sampled_from(list(IsometryKind)),
    st.integers(0, 2**32 - 1),
)
def test_angle_near_0_and_pi_is_accurate(axis, log_gap, near_pi, kind, seed):
    """Within 1e-9 to 1e-3 of angle 0 or pi, with entrywise noise of 1e-13,
    the angle matches 2 atan2(|v|, |w|) of the generating quaternion to
    1e-12; arccos of the trace is off by up to about 1e-6 there."""
    gap = 10.0**log_gap
    q = _quat_from_axis_angle(axis, math.pi - gap if near_pi else gap)
    m = euler_rodrigues(q)
    if kind is IsometryKind.ROTOREFLECTION:
        # rotate about the axis, then reflect through the plane normal to it
        n = q[1:] / np.linalg.norm(q[1:])
        m = m - 2.0 * np.outer(n, n)
    m = m + np.random.default_rng(seed).uniform(-1e-13, 1e-13, (3, 3))
    want = 2.0 * math.atan2(np.linalg.norm(q[1:]), abs(q[0]))
    assert abs(rotation_angle(m, kind).alpha - want) <= 1e-12


def test_angle_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        rotation_angle(np.diag([2.0, 1.0, 1.0]), IsometryKind.ROTATION)


@pytest.mark.parametrize(
    "m, other",
    [
        (Z_QUARTER, IsometryKind.ROTOREFLECTION),
        (rotoreflection_matrix([math.cos(0.3), math.sin(0.3), 0.0, 0.0]), IsometryKind.ROTATION),
    ],
)
def test_angle_and_embed_reject_the_other_kind(m, other):
    with pytest.raises(KindMismatch, match=f"does not match kind {other.value}"):
        rotation_angle(m, other)
    with pytest.raises(KindMismatch, match=f"does not match kind {other.value}"):
        embed_4d(m, other)


# --- the kind argument: an IsometryKind or its value -------------------------

@pytest.mark.parametrize("kind", list(IsometryKind))
def test_a_kind_value_string_acts_as_its_member(kind):
    m = np.eye(3) if kind is IsometryKind.ROTATION else -np.eye(3)
    assert displaced_angle_cos((0, 0, 1), 0.5, kind.value) == displaced_angle_cos((0, 0, 1), 0.5, kind)
    assert rotation_angle(m, kind.value) == rotation_angle(m, kind)
    np.testing.assert_array_equal(embed_4d(m, kind.value), embed_4d(m, kind))


def test_the_rotation_string_takes_the_rotation_formula():
    assert displaced_angle_cos((0, 0, 1), 0.5, "rotation") == 1.0
    assert displaced_angle_cos((0, 0, 1), 0.5, "rotoreflection") == -1.0


@pytest.mark.parametrize("kind", ["ROTATION", "rotate", "", None, 1, ["rotation"]])
def test_any_other_kind_is_a_kind_mismatch(kind):
    calls = (
        lambda: displaced_angle_cos((0, 0, 1), 0.5, kind),
        lambda: rotation_angle(np.eye(3), kind),
        lambda: embed_4d(np.eye(3), kind),
    )
    for call in calls:
        with pytest.raises(KindMismatch, match="kind must be 'rotation' or 'rotoreflection'") as info:
            call()
        assert info.value.code == "kind_mismatch"


# --- embedding -------------------------------------------------------------

def test_embed_trivial():
    np.testing.assert_array_equal(embed_4d(np.eye(3), IsometryKind.ROTATION), np.eye(4))
    np.testing.assert_array_equal(
        embed_4d(np.diag([1.0, 1.0, -1.0]), IsometryKind.ROTOREFLECTION),
        np.diag([-1.0, 1.0, 1.0, -1.0]),
    )


@pytest.mark.parametrize("kind", list(IsometryKind))
def test_embed_returns_a_new_float64_array_with_the_embedding_bytes(kind):
    """A C-contiguous float64 array of its own, whose bytes are those of
    the embedding's rows (signed zeros of m included)."""
    m = Z_QUARTER * (1.0 if kind is IsometryKind.ROTATION else -1.0)
    m[2, 0] = -0.0
    before = m.tobytes()
    out = embed_4d(m, kind)
    assert out.dtype == np.float64 and out.flags.c_contiguous and out.flags.owndata
    assert not np.shares_memory(out, m)
    assert out.tobytes() == np.array(_embedding(m.tolist(), kind)).tobytes()
    out[1:, 1:] = 7.0
    assert m.tobytes() == before


def test_embed_kind_mismatch():
    with pytest.raises(KindMismatch):
        embed_4d(np.eye(3), IsometryKind.ROTOREFLECTION)
    with pytest.raises(NotOrthogonal):
        embed_4d(np.diag([2.0, 1.0, 1.0]), IsometryKind.ROTATION)


def test_embedded_rotation_decomposes_into_conjugate_pair():
    rng = Xorshift64Star(41)
    for _ in range(200):
        q = _random_unit_quaternion(rng)
        m = euler_rodrigues(q)
        dec = decompose_4d(embed_4d(m, IsometryKind.ROTATION))
        assert _quat_close_up_to_sign(dec.left, extract_rotation(m).params, 1e-12)
        assert np.max(np.abs(dec.right - conjugate(dec.left))) <= 1e-12


def test_embedded_rotoreflection_right_factor():
    rng = Xorshift64Star(42)
    for _ in range(200):
        q = _random_unit_quaternion(rng)
        m = rotoreflection_matrix(q)
        dec = decompose_4d(embed_4d(m, IsometryKind.ROTOREFLECTION))
        a, b, c, d = dec.left
        expected_right = np.array([-a, b, c, d])
        assert np.max(np.abs(dec.right - expected_right)) <= 1e-12


# --- displaced angles ------------------------------------------------------

def test_displaced_angle_axis_point():
    for alpha in (0.0, 0.5, math.pi / 2, 3.0):
        assert displaced_angle_cos((0, 0, 1), alpha, IsometryKind.ROTATION) == 1.0
        assert displaced_angle_cos((0, 0, 1), alpha, IsometryKind.ROTOREFLECTION) == -1.0


def test_displaced_angle_equatorial_point():
    for alpha in (0.1, 1.0, 2.5):
        for kind in IsometryKind:
            got = displaced_angle_cos((1, 0, 0), alpha, kind)
            assert got == pytest.approx(math.cos(alpha), abs=1e-15)


def test_displaced_angle_origin_rejected():
    with pytest.raises(OriginPoint):
        displaced_angle_cos((0, 0, 0), 1.0, IsometryKind.ROTATION)


@pytest.mark.parametrize(
    "point, alpha",
    [
        ((math.nan, 0.0, 0.0), 1.0),
        ((0.0, math.inf, 0.0), 1.0),
        ((0.0, 0.0, -math.inf), 1.0),
        ((1.0, 0.0, 0.0), math.nan),
        ((1.0, 0.0, 0.0), math.inf),
        # an alpha that is not a real number, or an int too large for a float
        ((1.0, 0.0, 0.0), "a"),
        ((1.0, 0.0, 0.0), None),
        ((1.0, 0.0, 0.0), 1j),
        pytest.param((1.0, 0.0, 0.0), 10**400, id="huge-int"),
    ],
)
def test_displaced_angle_rejects_non_finite_input(point, alpha):
    for kind in IsometryKind:
        with pytest.raises(NonFiniteInput):
            displaced_angle_cos(point, alpha, kind)


@pytest.mark.parametrize(
    "point, got",
    [((1, 2), (2,)), ((1.0, 2.0, 3.0, 4.0), (4,)), ([[1.0, 2.0, 3.0]], (1, 3)), (np.zeros((3, 1)), (3, 1)), (5.0, ())],
)
def test_displaced_angle_rejects_a_point_that_is_not_three_numbers(point, got):
    for kind in IsometryKind:
        with pytest.raises(NonFiniteInput) as exc:
            displaced_angle_cos(point, 0.5, kind)
        assert str(exc.value) == f"point: expected shape (3,), got {got}"


@pytest.mark.parametrize("scale", [1e-200, 2.0**-1040, 1e200, 1e307])
def test_displaced_angle_is_scale_free(scale):
    """Only the origin is rejected, and a point far from 1 in size gives
    the cosine its direction gives: the squares neither underflow to an
    origin nor overflow to inf / inf."""
    for kind in IsometryKind:
        for point in ((1.0, 0.0, 0.0), (2.0, -1.0, 0.5), (0.0, 0.0, 3.0)):
            got = displaced_angle_cos(tuple(scale * v for v in point), 1.234, kind)
            want = displaced_angle_cos(point, 1.234, kind)
            assert got == pytest.approx(want, abs=1e-15), (point, kind)


def test_displaced_angle_inequalities():
    rng = Xorshift64Star(43)
    for _ in range(500):
        point = (rng.normal(), rng.normal(), rng.normal())
        alpha = math.pi * rng.uniform()
        cos_alpha = math.cos(alpha)
        assert displaced_angle_cos(point, alpha, IsometryKind.ROTATION) - cos_alpha >= -1e-12
        assert displaced_angle_cos(point, alpha, IsometryKind.ROTOREFLECTION) - cos_alpha <= 1e-12


def test_displaced_angle_matches_explicit_z_isometry():
    # independent oracle: act with the explicit Z-axis matrix and take the
    # angle between the rays directly
    rng = Xorshift64Star(44)
    for _ in range(200):
        p = np.array([rng.normal(), rng.normal(), rng.normal()])
        alpha = math.pi * rng.uniform()
        rot = np.array(
            [
                [math.cos(alpha), -math.sin(alpha), 0.0],
                [math.sin(alpha), math.cos(alpha), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        for kind, m in (
            (IsometryKind.ROTATION, rot),
            (IsometryKind.ROTOREFLECTION, rot @ np.diag([1.0, 1.0, -1.0])),
        ):
            image = m @ p
            expected = float(p @ image / (np.linalg.norm(p) * np.linalg.norm(image)))
            got = displaced_angle_cos(p, alpha, kind)
            assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", list(IsometryKind))
def test_extraction_table_is_the_embeddings_associate(kind):
    """The paper's a00 = +-1 specialisation: the associate matrix of
    embed_4d(m) is +-q conj(q)^T, so entry (i, 0) is +-q_i q_0 and entry
    (i, j), j > 0, is -+q_i q_j. The table of products q_i q_j that
    extraction seeds from is the public associate matrix read that way,
    bit for bit, and symmetric."""
    rng = np.random.default_rng(1207)
    sign = 1.0 if kind is IsometryKind.ROTATION else -1.0
    for _ in range(3000):
        q = rng.normal(size=4)
        m = sign * euler_rodrigues(q / np.linalg.norm(q)) + rng.uniform(-1e-13, 1e-13, (3, 3))
        assoc = associate_matrix(embed_4d(m, kind))
        table = np.array(_products(m.tolist(), kind))
        np.testing.assert_array_equal(table, sign * assoc * [1.0, -1.0, -1.0, -1.0])
        np.testing.assert_array_equal(table, table.T)


def _quarter_turn(axis, s):
    """The exact turn by s * 90 degrees about coordinate axis ``axis``."""
    i, j = [k for k in range(3) if k != axis]
    m = np.eye(3)
    m[i, i] = m[j, j] = 0.0
    m[j, i], m[i, j] = s, -s
    return m


_EXACT_TURNS = [
    np.eye(3),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
    *(_quarter_turn(axis, s) for axis in range(3) for s in (1.0, -1.0)),
]


@pytest.mark.parametrize("m", _EXACT_TURNS, ids=lambda m: str(m.tolist()))
def test_exact_turns_give_positive_zeros_and_the_batch_bytes(m):
    """The identity, the axis half and quarter turns and their negations
    (rotoreflections), each with +0.0 and with -0.0 for its zero entries:
    each parameter that is zero is +0.0, and rotation, rotoreflection and
    batch give one set of bytes."""
    batch = batch_extract_rotation(m[None])[0][0]
    rotations = (m, -(0.0 - m))  # zeros +0.0, then -0.0
    rotoreflections = (0.0 - m, -m)
    got = [extract_rotation(r).params for r in rotations]
    got += [extract_rotoreflection(r).params for r in rotoreflections]
    got.append(batch_extract_rotation(rotations[1][None])[0][0])
    for params in got:
        assert params.tobytes() == batch.tobytes()
        assert all(math.copysign(1.0, x) == 1.0 for x in params if x == 0.0), params


class _CountedArray:
    """An array-like that counts how often numpy converts it."""

    def __init__(self, a):
        self.a = np.array(a, dtype=np.float64)
        self.conversions = 0

    def __array__(self, dtype=None, copy=None):
        self.conversions += 1
        return self.a if dtype is None else self.a.astype(dtype)


_GATED = {
    "classify": (classify, np.eye(3), ()),
    "extract_rotation": (extract_rotation, Z_QUARTER, ()),
    "extract_rotoreflection": (extract_rotoreflection, -Z_QUARTER, ()),
    "rotation_angle": (rotation_angle, Z_QUARTER, ("rotation",)),
    "embed_4d": (embed_4d, Z_QUARTER, ("rotation",)),
}


@pytest.mark.parametrize("name", sorted(_GATED))
def test_gated_functions_convert_their_matrix_once_and_skip_mat_mul(name, monkeypatch):
    """The gate checks the floats the function has read: no second
    conversion, and no Gram matrix through the public mat_mul."""
    def no_mat_mul(*args):
        raise AssertionError("mat_mul called")

    monkeypatch.setattr("quatrot.linalg.mat_mul", no_mat_mul)
    fn, m, args = _GATED[name]
    counted = _CountedArray(m)
    assert repr(fn(counted, *args)) == repr(fn(m, *args))
    assert counted.conversions == 1


# --- the corner a00 = +-1 as one number: the two-branch forms' bytes --------

def _two_branch_kind(report):
    """``_floats._kind`` written with one branch per kind."""
    _require_orthonormal(report, NotOrthogonal)
    tol = report.tolerance_used
    if abs(report.determinant - 1.0) <= tol:
        return IsometryKind.ROTATION
    if abs(report.determinant + 1.0) <= tol:
        return IsometryKind.ROTOREFLECTION
    raise IndeterminateDeterminant(f"determinant {report.determinant!r} is far from both +1 and -1")


def _two_branch_angle(m, kind, tol):
    """``rotation_angle`` with its verdict and trace law written per kind."""
    report = _report(m.tolist(), tol)
    if _two_branch_kind(report) is not kind:
        raise KindMismatch(f"determinant {report.determinant!r} does not match kind {kind.value}")
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    trace = m00 + m11 + m22
    if kind is IsometryKind.ROTATION:
        cos_alpha = (trace - 1.0) / 2.0
    else:
        cos_alpha = (trace + 1.0) / 2.0
    cos_alpha = min(1.0, max(-1.0, cos_alpha))
    sin_alpha = math.hypot(m21 - m12, m02 - m20, m10 - m01) / 2.0
    return math.atan2(sin_alpha, cos_alpha), cos_alpha


def _two_branch_displaced_cos(point, alpha, kind):
    """``displaced_angle_cos`` of a finite point that is not the origin,
    with one closed form per kind."""
    x, y, z = point
    exponent = math.frexp(max(abs(x), abs(y), abs(z)))[1]
    x, y, z = (math.ldexp(v, -exponent) for v in (x, y, z))
    rho2 = x * x + y * y
    z2 = z * z
    if kind is IsometryKind.ROTATION:
        return (rho2 * math.cos(alpha) + z2) / (rho2 + z2)
    return (rho2 * math.cos(alpha) - z2) / (rho2 + z2)


def _two_branch_quat2mat(q, kind):
    """The CLI's quat2mat result, negating the rotation for a rotoreflection."""
    m = euler_rodrigues(q).tolist()
    if kind == "rotoreflection":
        return {"matrix": [[-x for x in row] for row in m], "kind": "rotoreflection"}
    return {"matrix": m, "kind": "rotation"}


def _outcome(call):
    """The bytes of each float call returns, in its structure, or the
    class and message of the QuatrotError it raises."""
    def packed(x):
        if isinstance(x, float):
            return struct.pack("<d", x)
        if isinstance(x, (list, tuple)):
            return [packed(v) for v in x]
        if isinstance(x, dict):
            return {k: packed(v) for k, v in x.items()}
        return x

    try:
        return packed(call())
    except QuatrotError as exc:
        return type(exc), str(exc)


_UNIT_QUATERNION = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .filter(lambda q: np.linalg.norm(q) > 0.1)
    .map(lambda q: (q / np.linalg.norm(q)).tolist()),
    st.permutations((1.0, 0.0, 0.0, 0.0)),
    st.permutations((-1.0, -0.0, 0.0, 0.0)),
    st.sampled_from(([0.5, -0.5, 0.5, -0.5], [S2, 0.0, 0.0, S2], [0.0, -S2, S2, 0.0])),
)


@st.composite
def _kind_cases(draw):
    """(m, tol): a rotation with noise from none to off the gate, an exact
    signed permutation matrix, a rotation by an angle near 0 or pi, or
    1.2 I at tol 0.5, which passes the gate with a determinant far from
    both corners."""
    form = draw(st.sampled_from(("random", "permutation", "near_0_or_pi", "scaled_identity")))
    tol = draw(st.sampled_from((1e-12, 1e-9, 1e-6)))
    if form == "random":
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q = g.standard_normal(4)
        m = euler_rodrigues(q / np.linalg.norm(q))
        noise = draw(st.sampled_from((0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-5)))
        m = m + noise * g.uniform(-1, 1, (3, 3))
    elif form == "permutation":
        signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=3, max_size=3))
        m = np.zeros((3, 3))
        m[range(3), draw(st.permutations(range(3)))] = signs
    elif form == "near_0_or_pi":
        gap = draw(st.sampled_from((0.0, 5e-324, 1e-300, 1e-16))) or 10.0 ** draw(st.floats(-15.0, -1.0))
        angle = math.pi - gap if draw(st.booleans()) else gap
        m = euler_rodrigues(_quat_from_axis_angle(draw(_AXIS), angle))
    else:
        m, tol = 1.2 * np.eye(3), 0.5
    return m, tol


_POINT = st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3).filter(any)
_ALPHA = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from((0.0, -0.0, 5e-324, 1e-8, math.pi, math.nextafter(math.pi, 0.0), math.pi - 1e-8)),
)
# with quaternions off the unit window, where quat2mat raises NotUnit
_QUATERNION = st.one_of(
    _UNIT_QUATERNION, st.sampled_from(([1.0, 1.0, 0.0, 0.0], [1.0 + 1e-5, 0.0, 0.0, 0.0]))
)


@settings(max_examples=300, deadline=None)
@given(_kind_cases(), _POINT, _ALPHA, _QUATERNION)
def test_the_corner_forms_give_the_two_branch_bytes(case, point, alpha, q):
    """classify, rotation_angle, displaced_angle_cos and the CLI's quat2mat,
    which read the kind's corner a00 as a number, give the bytes (or the
    error class and message) of one branch per kind. Each kind is asked of
    m and -m, each with its axes in the three cyclic orders, so the trace
    adds its terms in each order."""
    m, tol = case
    for m in [s * np.roll(m, k, (0, 1)) for s in (1.0, -1.0) for k in range(3)]:
        want = _outcome(lambda: _two_branch_kind(_report(m.tolist(), tol)))
        assert _outcome(lambda: classify(m, tol)) == want
        for kind in IsometryKind:
            want = _outcome(lambda: _two_branch_angle(m, kind, tol))
            assert _outcome(lambda: rotation_angle(m, kind, tol)) == want
    for kind in IsometryKind:
        want = _outcome(lambda: _two_branch_displaced_cos(point, alpha, kind))
        assert _outcome(lambda: displaced_angle_cos(point, alpha, kind)) == want
    text = " ".join(map(repr, q))
    for kind in ("auto", "rotation", "rotoreflection"):
        want = _outcome(lambda: _two_branch_quat2mat(q, kind))
        assert _outcome(lambda: cli._cmd_quat2mat(SimpleNamespace(format="plain", kind=kind), text)) == want
