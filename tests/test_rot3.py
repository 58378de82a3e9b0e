import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatrot.errors import (
    InconsistentSystem,
    KindMismatch,
    NonFiniteInput,
    NotARotation,
    NotARotoreflection,
    NotOrthogonal,
    OriginPoint,
)
from quatrot.kernels import batch_extract_rotation
from quatrot.linalg import OrthogonalityReport
from quatrot.quaternion import conjugate
from quatrot.rot4 import associate_matrix
from quatrot.rng import Xorshift64Star, random_unit_quaternion
from quatrot._floats import _products
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
        q = random_unit_quaternion(rng)
        assert np.max(np.abs(rotoreflection_matrix(q) + euler_rodrigues(q))) <= 1e-15


# --- classification --------------------------------------------------------

def test_classify_trivial():
    assert classify(np.eye(3)) is IsometryKind.ROTATION
    assert classify(np.diag([1.0, 1.0, -1.0])) is IsometryKind.ROTOREFLECTION


def test_classify_random_rotations():
    rng = Xorshift64Star(32)
    for _ in range(100):
        assert classify(euler_rodrigues(random_unit_quaternion(rng))) is IsometryKind.ROTATION


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
    samples = [random_unit_quaternion(rng) for _ in range(2000)]
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
        q = random_unit_quaternion(rng)
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
        q = random_unit_quaternion(rng)
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
        m = euler_rodrigues(random_unit_quaternion(rng))
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
        q = random_unit_quaternion(rng)
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
        q = random_unit_quaternion(rng)
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


def test_embed_kind_mismatch():
    with pytest.raises(KindMismatch):
        embed_4d(np.eye(3), IsometryKind.ROTOREFLECTION)
    with pytest.raises(NotOrthogonal):
        embed_4d(np.diag([2.0, 1.0, 1.0]), IsometryKind.ROTATION)


def test_embedded_rotation_decomposes_into_conjugate_pair():
    rng = Xorshift64Star(41)
    for _ in range(200):
        q = random_unit_quaternion(rng)
        m = euler_rodrigues(q)
        dec = decompose_4d(embed_4d(m, IsometryKind.ROTATION))
        assert _quat_close_up_to_sign(dec.left, extract_rotation(m).params, 1e-12)
        assert np.max(np.abs(dec.right - conjugate(dec.left))) <= 1e-12


def test_embedded_rotoreflection_right_factor():
    rng = Xorshift64Star(42)
    for _ in range(200):
        q = random_unit_quaternion(rng)
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
