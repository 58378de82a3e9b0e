"""The scalar API gives the recorded bytes, errors and messages.

``data/scalar_parity.json`` was recorded before the scalar functions moved
to validate-once cores on Python floats, and recorded again only where an
output changed on purpose (each time noted in CHANGES.md); every output
must match it byte for byte and every error in class, ``code`` and
message (see ``parity_cases.py``). The property tests compare the float cores with
test-local copies of the numpy-scalar formulas they replaced.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cli_cases
import parity_cases
from quatrot import errors, linalg, quaternion

FIXTURE = Path(__file__).parent / "data" / "scalar_parity.json"


@pytest.fixture(scope="module")
def recorded():
    stored = json.loads(FIXTURE.read_text())
    return parity_cases.decode_inputs(stored["inputs"]), stored["outcomes"], cli_cases.decode_inputs(stored["inputs"])


def _snapshot(args):
    return [a.copy() if isinstance(a, np.ndarray) else json.dumps(a, default=repr) for a in args]


def _unchanged(before, args):
    return all(
        np.array_equal(b, a, equal_nan=True) and b.tobytes() == a.tobytes()
        if isinstance(a, np.ndarray)
        else b == json.dumps(a, default=repr)
        for b, a in zip(before, args)
    )


def test_every_recorded_outcome_is_reproduced(recorded):
    inputs, outcomes, cli_inputs = recorded
    seen, moved, mutated = set(), [], []
    for case, name, args, kwargs in parity_cases.calls(inputs):
        seen.add(case)
        before = _snapshot(args)
        got = json.loads(json.dumps(parity_cases.outcome(parity_cases.resolve(name), args, kwargs)))
        if got != outcomes[case]:
            moved.append((case, outcomes[case], got))
        if not _unchanged(before, args):
            mutated.append(case)
    for case, argv, stdin in cli_cases.cli_calls(cli_inputs):
        seen.add(case)
        if (got := cli_cases.cli_outcome(argv, stdin)) != outcomes[case]:
            moved.append((case, outcomes[case], got))
    assert seen == set(outcomes)
    assert not moved, moved[:5]
    assert not mutated, mutated[:5]


def test_fixture_covers_every_error_path(recorded):
    _, outcomes, _ = recorded
    errors = {v[1] for v in outcomes.values() if v[0] == "err"}
    assert {
        "NonFiniteInput", "NotUnit", "NotOrthogonal", "NotARotation", "NotARotoreflection",
        "KindMismatch", "IndeterminateDeterminant", "ZeroMatrix", "ValueError",
    } <= errors


def test_every_recorded_error_is_the_librarys_own(recorded):
    """No recorded message comes from numpy, whose texts change between versions."""
    _, outcomes, _ = recorded
    own = {name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, errors.QuatrotError)}
    texts = {"tol must be in (0, 1)", "dim must be 3 or 4"}
    foreign = [
        (case, v) for case, v in outcomes.items()
        if v[0] == "err" and v[1] not in own and not (v[1] == "ValueError" and v[3] in texts)
    ]
    assert not foreign, foreign[:5]


# --- the float cores against the formulas they replaced ----------------------

_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.0, 1.0])
_ENTRIES = st.one_of(_SPECIAL, st.floats(allow_nan=False, allow_infinity=False))
_SMALL = st.one_of(_SPECIAL, st.floats(-2.0, 2.0))


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


def _old_mat_mul(a, b):
    n = a.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _old_det3(m):
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _old_det4(m):
    total = 0.0
    sign = 1.0
    for j in range(4):
        minor = m[1:, [c for c in range(4) if c != j]]
        total += sign * m[0, j] * _old_det3(minor)
        sign = -sign
    return total


def _matrix_pairs(elements):
    def pair(n):
        return st.tuples(*(arrays(np.float64, (n, n), elements=elements) for _ in range(2)))

    return st.integers(3, 4).flatmap(pair)


@given(_matrix_pairs(_ENTRIES))
def test_mat_mul_bytes_are_the_numpy_scalar_loop(pair):
    a, b = pair
    with np.errstate(over="ignore", invalid="ignore"):
        want = _old_mat_mul(a, b)
    assert linalg.mat_mul(a, b).tobytes() == want.tobytes()


@given(st.integers(3, 4).flatmap(lambda n: arrays(np.float64, (n, n), elements=st.one_of(_SMALL, _ENTRIES))))
def test_gram_deviation_is_the_numpy_max(m):
    n = m.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        want = float(np.max(np.abs(_old_mat_mul(m.T, m) - np.eye(n))))
        want_det = _old_det3(m) if n == 3 else _old_det4(m)
    report = linalg.check_orthonormal(m)
    assert _bits(report.max_abs_gram_deviation) == _bits(want)
    assert _bits(report.determinant) == _bits(want_det)


@given(
    arrays(np.float64, (4,), elements=st.floats(-1.0, 1.0)).filter(lambda q: q @ q > 1e-6),
    st.floats(-9e-7, 9e-7),
)
def test_as_unit_norm_is_numpys_sum(q, stretch):
    q = q / np.sqrt(q @ q) * (1.0 + stretch)
    n = float(np.sqrt(np.sum(q * q)))
    assert quaternion.as_unit(q).tobytes() == (q / n).tobytes()
