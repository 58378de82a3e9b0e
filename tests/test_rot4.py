import json
import math

import numpy as np
import pytest

import quatrot._floats
from cli_cases import cli_outcome
from quatrot.errors import NotARotation, RankDeficiency
from quatrot.linalg import mat_mul, rank1_factor
from quatrot.quaternion import left_matrix, right_matrix
from quatrot._floats import Xorshift64Star, _random_unit_quaternion
from quatrot.rot4 import associate_matrix, compose_4d, decompose_4d

S2 = math.sqrt(2.0) / 2.0


def _embedded_z_quarter_turn():
    m = np.eye(4)
    m[1, 1], m[1, 2] = 0.0, -1.0
    m[2, 1], m[2, 2] = 1.0, 0.0
    return m


def test_compose_identity():
    np.testing.assert_array_equal(compose_4d([1, 0, 0, 0], [1, 0, 0, 0]), np.eye(4))


def test_compose_right_identity_is_left_matrix():
    l = [0.0, 1.0, 0.0, 0.0]
    np.testing.assert_array_equal(compose_4d(l, [1, 0, 0, 0]), left_matrix(l))


def test_compose_top_left_entry():
    rng = Xorshift64Star(21)
    for _ in range(50):
        l = _random_unit_quaternion(rng)
        r = _random_unit_quaternion(rng)
        a = compose_4d(l, r)
        expected = l[0] * r[0] - l[1] * r[1] - l[2] * r[2] - l[3] * r[3]
        assert a[0, 0] == pytest.approx(expected, abs=1e-15)


def _near_unit(g, n):
    """n quaternions with norms within 9e-7 of 1, inside as_unit's window."""
    q = g.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True) * (1.0 + g.uniform(-9e-7, 9e-7, (n, 1)))


def test_compose_normalizes_each_factor_once():
    """compose_4d gives the bytes of mat_mul(left_matrix(l), right_matrix(r)),
    near-unit factors, signed zeros and lists included."""
    g = np.random.default_rng(0)
    signed = [[0.0, -0.0, 1.0, -0.0], [-0.0, 0.6, -0.0, -0.8], [S2, -0.0, -S2, 0.0]]
    for l, r in [*zip(_near_unit(g, 200), _near_unit(g, 200)), *zip(signed, signed[::-1])]:
        want = mat_mul(left_matrix(l), right_matrix(r))
        assert compose_4d(l, r).tobytes() == want.tobytes()


def test_associate_of_identity():
    m = associate_matrix(np.eye(4))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(m, expected)


def test_associate_of_pure_left_i():
    m = associate_matrix(left_matrix([0, 1, 0, 0]))
    np.testing.assert_array_equal(m, np.outer([0, 1, 0, 0], [1, 0, 0, 0]))


def test_associate_of_embedded_z_quarter_turn():
    m = associate_matrix(_embedded_z_quarter_turn())
    np.testing.assert_allclose(m, np.outer([S2, 0, 0, S2], [S2, 0, 0, -S2]), atol=1e-15)
    # only the four corner entries are nonzero, each +-1/2
    nz = {(i, j) for i in range(4) for j in range(4) if m[i, j] != 0.0}
    assert nz == {(0, 0), (0, 3), (3, 0), (3, 3)}


def test_associate_is_linear():
    # exact entrywise linearity; integer entries keep the arithmetic exact
    rng = np.random.RandomState(5)
    for _ in range(20):
        a = rng.randint(-8, 9, size=(4, 4)).astype(float)
        b = rng.randint(-8, 9, size=(4, 4)).astype(float)
        alpha, beta = 2.0, -3.0
        lhs = associate_matrix(alpha * a + beta * b)
        rhs = alpha * associate_matrix(a) + beta * associate_matrix(b)
        np.testing.assert_array_equal(lhs, rhs)


def test_associate_norm_and_rank_for_rotations():
    rng = Xorshift64Star(22)
    for _ in range(200):
        a = compose_4d(_random_unit_quaternion(rng), _random_unit_quaternion(rng))
        m = associate_matrix(a)
        assert abs(np.sqrt(np.sum(m * m)) - 1.0) <= 1e-12
        dec = decompose_4d(a, 1e-9)
        assert dec.rank1_residual <= 1e-12


def test_decompose_identity():
    dec = decompose_4d(np.eye(4))
    np.testing.assert_array_equal(dec.left, [1, 0, 0, 0])
    np.testing.assert_array_equal(dec.right, [1, 0, 0, 0])
    assert dec.rank1_residual == 0.0
    assert dec.reconstruction_error == 0.0


def test_decompose_embedded_z_quarter_turn():
    dec = decompose_4d(_embedded_z_quarter_turn())
    np.testing.assert_allclose(dec.left, [S2, 0, 0, S2], atol=1e-15)
    np.testing.assert_allclose(dec.right, [S2, 0, 0, -S2], atol=1e-15)


def test_decompose_roundtrip_paired_signs():
    rng = Xorshift64Star(23)
    for _ in range(1000):
        l = _random_unit_quaternion(rng)
        r = _random_unit_quaternion(rng)
        dec = decompose_4d(compose_4d(l, r))
        direct = max(np.max(np.abs(dec.left - l)), np.max(np.abs(dec.right - r)))
        flipped = max(np.max(np.abs(dec.left + l)), np.max(np.abs(dec.right + r)))
        # signs must be paired: either both factors match or both are negated
        assert min(direct, flipped) <= 1e-12
        assert dec.reconstruction_error <= 1e-12


@pytest.mark.parametrize("noise", [1e-12, 1e-10])
def test_decompose_returns_the_rank1_factors_as_they_are(noise):
    # rank1_factor's u and v are unit and sign-canonical already
    g = np.random.default_rng(8)
    for l, r in zip(_near_unit(g, 100), _near_unit(g, 100)):
        a = compose_4d(l, r) + noise * g.uniform(-1.0, 1.0, (4, 4))
        u, v, _ = rank1_factor(associate_matrix(a))
        dec = decompose_4d(a)
        assert (dec.left.tobytes(), dec.right.tobytes()) == (u.tobytes(), v.tobytes())


def test_decompose_rejects_det_minus_one():
    rng = Xorshift64Star(24)
    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    for _ in range(20):
        a = compose_4d(_random_unit_quaternion(rng), _random_unit_quaternion(rng))
        with pytest.raises(NotARotation):
            decompose_4d(flip @ a)


def test_decompose_rejects_non_orthogonal():
    with pytest.raises(NotARotation):
        decompose_4d(np.diag([2.0, 1.0, 1.0, 1.0]))


# Finite, but its Gram products overflow: the Gram deviation and the
# determinant are NaN, and a NaN deviation must fail the gate.
OVERFLOWING_GRAM = [
    [1e200, 1e200, 1e200, 0.0],
    [1e200, -1e200, 1e200, 0.0],
    [1e200, 1e200, -1e200, 0.0],
    [0.0, 0.0, 0.0, 1.0],
]


def test_decompose_rejects_an_overflowing_gram_matrix():
    with pytest.raises(NotARotation, match="orthogonality deviation nan"):
        decompose_4d(OVERFLOWING_GRAM)


def test_rank_deficiency_is_surfaced(monkeypatch):
    # {orthogonal, det +1} implies rank-1 associate, so this gate is
    # defensive; force a fat residual to check it trips in _floats._decompose,
    # for decompose_4d and for the CLI's decompose4 alike
    def fake_rank1(m, tol):
        return (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 1.0, 0.0

    monkeypatch.setattr(quatrot._floats, "_rank1", fake_rank1)
    with pytest.raises(RankDeficiency, match=r"^rank-1 residual 1\.000e\+00 > tol 1\.000e-09$"):
        decompose_4d(np.eye(4))
    err = '{"error":"rank_deficiency","detail":"rank-1 residual 1.000e+00 > tol 1.000e-09"}\n'
    assert cli_outcome(["decompose4"], json.dumps({"matrix": np.eye(4).tolist()})) == ["cli", 3, "", err]
