import numpy as np
import pytest

from quatrot.linalg import check_orthonormal
from quatrot._floats import Xorshift64Star, _random_unit_quaternion
from quatrot.rng import random_rotation, random_unit_quaternion
from quatrot.rot3 import euler_rodrigues
from quatrot.rot4 import decompose_4d


def test_stream_is_deterministic():
    a = Xorshift64Star(12345)
    b = Xorshift64Star(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_zero_seed_is_remapped():
    assert Xorshift64Star(0).next_u64() == Xorshift64Star(0x9E3779B97F4A7C15).next_u64()


def test_uniform_range():
    rng = Xorshift64Star(1)
    values = [rng.uniform() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(np.mean(values) - 0.5) < 0.02


def test_normal_moments():
    rng = Xorshift64Star(2)
    values = np.array([rng.normal() for _ in range(20000)])
    assert abs(np.mean(values)) < 0.03
    assert abs(np.std(values) - 1.0) < 0.03


def test_random_unit_quaternion_is_unit():
    rng = Xorshift64Star(3)
    for _ in range(100):
        q = _random_unit_quaternion(rng)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)


def test_a_seeds_unit_quaternion_is_the_first_draw_of_its_stream():
    for seed in (0, 1, 7, 2**64 - 1):
        want = np.array(_random_unit_quaternion(Xorshift64Star(seed)))
        assert random_unit_quaternion(seed).tobytes() == want.tobytes()


def test_random_rotation_3d_is_euler_rodrigues_of_the_seeds_unit_quaternion():
    for seed in range(3000):
        assert random_rotation(seed, 3).tobytes() == euler_rodrigues(random_unit_quaternion(seed)).tobytes(), seed


def test_random_rotation_3d_is_orthonormal():
    m = random_rotation(42, 3)
    report = check_orthonormal(m, 1e-9)
    assert report.max_abs_gram_deviation <= 1e-13
    assert report.determinant == pytest.approx(1.0, abs=1e-13)


def test_random_rotation_4d_decomposes():
    dec = decompose_4d(random_rotation(42, 4))
    assert dec.rank1_residual <= 1e-12
    assert dec.reconstruction_error <= 1e-12


def test_random_rotation_determinism():
    np.testing.assert_array_equal(random_rotation(7, 4), random_rotation(7, 4))
    assert np.any(random_rotation(7, 4) != random_rotation(8, 4))


def test_random_rotation_bad_dim():
    with pytest.raises(ValueError):
        random_rotation(1, 5)


# --- the seed rule: the library takes the seeds the CLI takes ------------------

@pytest.mark.parametrize(
    "seed, message",
    [
        (1.7, "seed must be an integer, got 1.7"),
        (2.0, "seed must be an integer, got 2.0"),
        ("7", "seed must be an integer, got '7'"),
        (None, "seed must be an integer, got None"),
        (-1, "seed must fit in 64 unsigned bits"),
        (2**64, "seed must fit in 64 unsigned bits"),
        (np.int64(-1), "seed must fit in 64 unsigned bits"),
    ],
)
def test_a_seed_outside_the_cli_rule_is_rejected(seed, message):
    makers = (Xorshift64Star, random_unit_quaternion, lambda s: random_rotation(s, 3), lambda s: random_rotation(s, 4))
    for make in makers:
        with pytest.raises(ValueError) as exc:
            make(seed)
        assert type(exc.value) is ValueError and str(exc.value) == message


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1])
def test_numpy_integer_seeds_give_the_int_seeds_stream(seed):
    want = Xorshift64Star(seed)
    want = [want.next_u64() for _ in range(4)]
    for same in [np.uint64(seed)] + ([np.int64(seed)] if seed < 2**63 else []):
        rng = Xorshift64Star(same)
        assert [rng.next_u64() for _ in range(4)] == want
        assert random_unit_quaternion(same).tobytes() == random_unit_quaternion(seed).tobytes()
        for dim in (3, 4):
            assert random_rotation(same, dim).tobytes() == random_rotation(seed, dim).tobytes()
