"""Batch/scalar parity: the vectorized kernels must agree with the scalar
API, including the sign rule they share."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quatrot.kernels as kernels
from quatrot.linalg import SIGN_EPS, canonical_sign, rank1_factor
from quatrot.rng import Xorshift64Star, random_unit_quaternion
from quatrot.rot3 import BRANCHES, euler_rodrigues, extract_rotation
from quatrot.rot4 import associate_matrix, compose_4d, decompose_4d


@pytest.fixture(scope="module")
def samples():
    rng = Xorshift64Star(900)
    n = 200
    left = np.stack([random_unit_quaternion(rng) for _ in range(n)])
    right = np.stack([random_unit_quaternion(rng) for _ in range(n)])
    return left, right


def test_batch_euler_rodrigues_matches_scalar(samples):
    left, _ = samples
    batch = kernels.batch_euler_rodrigues(left)
    for i, q in enumerate(left):
        np.testing.assert_allclose(batch[i], euler_rodrigues(q), atol=1e-15)


def test_batch_extract_matches_scalar(samples):
    left, _ = samples
    mats = kernels.batch_euler_rodrigues(left)
    params, branch, residual = kernels.batch_extract_rotation(mats)
    for i in range(len(left)):
        scalar = extract_rotation(mats[i])
        np.testing.assert_allclose(params[i], scalar.params, atol=1e-14)
        assert BRANCHES[branch[i]] == scalar.branch
        assert residual[i] == pytest.approx(scalar.residual, abs=1e-14)


def test_batch_compose_matches_scalar(samples):
    left, right = samples
    batch = kernels.batch_compose_4d(left, right)
    for i in range(len(left)):
        np.testing.assert_allclose(batch[i], compose_4d(left[i], right[i]), atol=1e-15)


def test_batch_associate_matches_scalar(samples):
    left, right = samples
    mats = kernels.batch_compose_4d(left, right)
    batch = kernels.batch_associate_matrix(mats)
    for i in range(len(left)):
        np.testing.assert_allclose(batch[i], associate_matrix(mats[i]), atol=1e-16)


def test_batch_decompose_matches_scalar(samples):
    left, right = samples
    mats = kernels.batch_compose_4d(left, right)
    l, r, rank1_res, recon_err = kernels.batch_decompose_4d(mats)
    for i in range(0, len(left), 10):
        dec = decompose_4d(mats[i])
        np.testing.assert_allclose(l[i], dec.left, atol=1e-13)
        np.testing.assert_allclose(r[i], dec.right, atol=1e-13)

    # Leading components in (SIGN_EPS, 1e-9]: smaller than the default tol,
    # yet they decide the sign on every path.
    leads = np.resize([2e-12, -2e-12, 5e-10, -5e-10, 1e-9, -1e-9], 60)
    small = left[:60].copy()
    small[:, 0] = leads
    small[:, 1:] *= (np.sqrt(1.0 - leads**2) / np.linalg.norm(small[:, 1:], axis=1))[:, None]
    sign = np.sign(leads)[:, None]
    mats = kernels.batch_compose_4d(small, right[:60])
    l, r, _, _ = kernels.batch_decompose_4d(mats)
    np.testing.assert_allclose(l, sign * small, rtol=0, atol=1e-13)
    np.testing.assert_allclose(r, sign * right[:60], rtol=0, atol=1e-13)
    assert np.all(l[:, 0] > 0)
    for i in range(len(small)):
        dec = decompose_4d(mats[i])
        u, v, _ = rank1_factor(associate_matrix(mats[i]))
        for got_l, got_r in ((dec.left, dec.right), (u, v)):
            assert got_l[0] > 0
            np.testing.assert_allclose(got_l, l[i], rtol=0, atol=1e-13)
            np.testing.assert_allclose(got_r, r[i], rtol=0, atol=1e-13)


def _reference_sign(q) -> float:
    """The sign rule written out: the first entry with |x| > 1e-12 decides."""
    for x in q:
        if x > 1e-12:
            return 1.0
        if x < -1e-12:
            return -1.0
    return 1.0


_EDGES = [
    0.0,
    1e-12,
    math.nextafter(1e-12, math.inf),
    math.nextafter(1e-12, -math.inf),
    5e-10,
]
_ENTRIES = st.one_of(
    st.sampled_from(_EDGES + [-x for x in _EDGES]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ROWS = st.lists(_ENTRIES, min_size=4, max_size=4)
_ZERO_ROWS = st.sampled_from([[0.0] * 4, [-0.0] * 4])


@given(st.lists(st.one_of(_ROWS, _ZERO_ROWS), min_size=1, max_size=12))
def test_sign_rule_scalar_batch_and_reference_agree(rows):
    assert SIGN_EPS == 1e-12
    q = np.array(rows, dtype=np.float64)
    batch = kernels._canonical_signs(q)
    for row, got in zip(q, batch):
        expected = _reference_sign(row)
        assert canonical_sign(row) == expected
        assert got == expected
