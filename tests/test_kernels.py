"""Batch/scalar parity: the vectorized kernels must agree with the scalar
API, including the sign rule they share."""

import functools
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quatrot.kernels as kernels
from quatrot import _floats
from quatrot._floats import IsometryKind, Xorshift64Star, _random_unit_quaternion
from quatrot.errors import NonFiniteInput
from quatrot.linalg import SIGN_EPS, canonical_sign, rank1_factor
from quatrot.quaternion import as_unit
from quatrot.rot3 import BRANCHES, euler_rodrigues, extract_rotation
from quatrot.rot4 import associate_matrix, compose_4d, decompose_4d


@pytest.fixture(scope="module")
def samples():
    rng = Xorshift64Star(900)
    n = 200
    left = np.stack([_random_unit_quaternion(rng) for _ in range(n)])
    right = np.stack([_random_unit_quaternion(rng) for _ in range(n)])
    return left, right


def test_batch_euler_rodrigues_matches_scalar(samples):
    """The scalar function normalizes its quaternion; fed the normalized
    rows, the kernel gives its bytes."""
    left, _ = samples
    batch = kernels.batch_euler_rodrigues(np.stack([as_unit(q) for q in left]))
    assert batch.tobytes() == np.stack([euler_rodrigues(q) for q in left]).tobytes()


def _assert_extract_bytes_match_scalar(mats):
    params, branch, residual = kernels.batch_extract_rotation(mats)
    for i, m in enumerate(mats):
        scalar = extract_rotation(m)
        assert params[i].tobytes() == scalar.params.tobytes(), i
        assert BRANCHES[branch[i]] == scalar.branch, i
        assert residual[i].tobytes() == np.float64(scalar.residual).tobytes(), i


def test_batch_extract_matches_scalar(samples):
    left, _ = samples
    _assert_extract_bytes_match_scalar(kernels.batch_euler_rodrigues(left))


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


def _noisy_stack(seed, n, noise=1e-13):
    """Unit quaternion pairs with their 3x3 and 4x4 matrices; every fifth
    matrix carries entrywise noise of at most ``noise``."""
    g = np.random.default_rng(seed)
    left = g.normal(size=(n, 4))
    right = g.normal(size=(n, 4))
    left /= np.linalg.norm(left, axis=1, keepdims=True)
    right /= np.linalg.norm(right, axis=1, keepdims=True)
    noisy = (np.arange(n) % 5 == 0)[:, None, None]
    m3 = kernels.batch_euler_rodrigues(left) + noisy * g.uniform(-noise, noise, (n, 3, 3))
    m4 = kernels.batch_compose_4d(left, right) + noisy * g.uniform(-noise, noise, (n, 4, 4))
    return left, right, m3, m4


def _kernel_calls(left, right, m3, m4):
    """Each batch kernel with its input stacks, and the output shapes
    (after the leading n) and dtypes it must return."""
    f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
    return {
        "euler_rodrigues": (kernels.batch_euler_rodrigues, (left,), [((3, 3), f8)]),
        "extract_rotation": (kernels.batch_extract_rotation, (m3,), [((4,), f8), ((), i8), ((), f8)]),
        "compose_4d": (kernels.batch_compose_4d, (left, right), [((4, 4), f8)]),
        "associate_matrix": (kernels.batch_associate_matrix, (m4,), [((4, 4), f8)]),
        "decompose_4d": (kernels.batch_decompose_4d, (m4,), [((4,), f8), ((4,), f8), ((), f8), ((), f8)]),
    }


def _outputs(result):
    return list(result) if isinstance(result, tuple) else [result]


_KERNELS = ["euler_rodrigues", "extract_rotation", "compose_4d", "associate_matrix", "decompose_4d"]


@pytest.fixture(scope="module")
def block_stack():
    return _noisy_stack(905, 2 * kernels._BLOCK + 3)


@pytest.mark.parametrize("name", _KERNELS)
def test_block_boundary_rows_match_the_row_alone(block_stack, name):
    fn, args, _ = _kernel_calls(*block_stack)[name]
    full = _outputs(fn(*args))
    b = kernels._BLOCK
    for i in (0, b - 1, b, b + 1, 2 * b, 2 * b + 2):
        alone = _outputs(fn(*(x[i : i + 1] for x in args)))
        for got, want in zip(full, alone):
            assert np.array_equal(got[i], want[0]), (name, i)


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_row_shapes_and_dtypes(block_stack, n):
    for name, (fn, args, spec) in _kernel_calls(*block_stack).items():
        outs = _outputs(fn(*(x[:n] for x in args)))
        assert [(o.shape, o.dtype) for o in outs] == [((n,) + shape, dt) for shape, dt in spec], name


_PARAMETERS = {
    "euler_rodrigues": ("q",), "extract_rotation": ("m",), "compose_4d": ("l", "r"),
    "associate_matrix": ("a",), "decompose_4d": ("a",),
}


def _not_stacks(x):
    """Arguments that are not an ndarray of real numbers shaped like the stack x."""
    return {
        "list": x.tolist(), "text": "abc", "object": object(), "scalar": np.float64(1.0),
        "complex": x.astype(complex), "object_dtype": x.astype(object), "str_dtype": x.astype(str),
        "one_row": x[0], "extra_axis": x[:, None], "short_rows": x[..., :-1],
    }


@pytest.mark.parametrize("name", _KERNELS)
def test_an_argument_that_is_not_a_real_stack_gives_non_finite_input_naming_it(name):
    fn, args, _ = _kernel_calls(*_noisy_stack(906, 5))[name]
    for i, parameter in enumerate(_PARAMETERS[name]):
        for form, bad in _not_stacks(args[i]).items():
            given = list(args)
            given[i] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no ComplexWarning on the way
                with pytest.raises(NonFiniteInput) as exc:
                    fn(*given)
            assert str(exc.value).startswith(f"{parameter}: expected an ndarray of real numbers"), form


@pytest.mark.parametrize("rows", [4, 6])
def test_compose_needs_as_many_right_rows_as_left_rows(rows):
    left, right, _, _ = _noisy_stack(907, 5)
    with pytest.raises(NonFiniteInput, match=r"^r: .* of shape \(5, 4\)$"):
        kernels.batch_compose_4d(left, np.resize(right, (rows, 4)))


@pytest.mark.parametrize("name", _KERNELS)
def test_bool_int_and_float32_stacks_still_run(name):
    """Every kernel reads its blocks as float64: an int64, float32 or bool
    stack gives the bytes of that stack cast to float64."""
    fn, args, spec = _kernel_calls(*(4 * x for x in _noisy_stack(908, 5)))[name]  # int64 entries -3 to 3
    for dtype in (np.int64, np.float32, bool):
        stacks = [x.astype(dtype) for x in args]
        got = _outputs(fn(*stacks))
        assert [(o.shape, o.dtype) for o in got] == [((5,) + shape, dt) for shape, dt in spec]
        want = _outputs(fn(*(x.astype(np.float64) for x in stacks)))
        assert [o.tobytes() for o in got] == [o.tobytes() for o in want], dtype


def test_int_rows_are_squared_as_float64():
    """2**40 squared is 2**80, beyond int64: read as float64 it does not wrap."""
    q = np.array([[2**40, 0, 0, 0]])
    got = kernels.batch_euler_rodrigues(q)
    assert got[0, 0, 0] == 2.0**80
    assert got.tobytes() == kernels.batch_euler_rodrigues(q.astype(np.float64)).tobytes()


_TERM = st.one_of(st.floats(-2, 2), st.just(math.nan))
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]  # the ten equations q_i q_j = t_ij, row-major


@settings(deadline=None)
@given(st.lists(_TERM, min_size=20, max_size=20), st.integers(1, 4))
def test_residual_is_the_fold_of_two_argument_maxima(entries, width):
    """_residual, its ten terms written out, gives the bytes of the fold
    through nine two-argument np.maximum over the upper triangle's terms,
    which is np.max of their stack, NaN at any position included: on
    floats, and on component rows folded by the kernels' namespace."""
    def split(values):  # a 4x4 table and q
        return [values[4 * i : 4 * i + 4] for i in range(4)], values[16:]

    def terms(table, q):
        return [abs(q[i] * q[j] - table[i][j]) for i, j in _UPPER]

    rows = list(np.array([np.roll(entries, k) for k in range(width)]).T)  # column k: entries rolled by k
    row_terms = terms(*split(rows))
    want = functools.reduce(np.maximum, row_terms)
    assert want.tobytes() == np.max(row_terms, axis=0).tobytes()
    assert _floats._residual(*split(rows), kernels._Rows).tobytes() == want.tobytes()
    assert np.float64(_floats._residual(*split(entries))).tobytes() == want[:1].tobytes()


def test_residual_reads_each_of_its_ten_terms_and_no_lower_entry():
    """With q = (1, 2, 3, 4) the products are exact: a table equal to them
    but for entry (i, j), one more, gives residual 1 from that term alone
    when i <= j, and 0 when i > j, whose equation is (j, i)'s."""
    q = [1.0, 2.0, 3.0, 4.0]
    for k in range(16):
        table = [[qi * qj + (4 * i + j == k) for j, qj in enumerate(q)] for i, qi in enumerate(q)]
        rows = [[np.full(3, t) for t in row] for row in table]
        want = float(k % 4 >= k // 4)
        assert _floats._residual(table, q) == want, k
        assert _floats._residual(rows, [np.full(3, c) for c in q], kernels._Rows).tolist() == [want] * 3, k


def _solve_with_sixteen_terms_and_a_clamp(table, xp):
    """_solve as it was before the residual formed each equation once: the
    seed square clamped at 0.0, and all 16 entries of the table measured."""
    branch, square, row = _floats._first_max([table[i][i] for i in range(4)], table, xp)
    seed = xp.sqrt(np.maximum(square, 0.0))
    q = [xp.where(i == branch, seed, t / seed) for i, t in enumerate(row)]
    sign = _floats._sign(q, xp)
    q = [c * sign for c in q]
    return branch, q, xp.max([abs(qi * qj - t) for qi, t_row in zip(q, table) for qj, t in zip(q, t_row)])


_NOISE = st.floats(-1e-9, 1e-9)


@st.composite
def _noisy_isometries(draw):
    """A rotation or a rotoreflection with entrywise noise of at most 1e-9:
    the Euler-Rodrigues matrix of a drawn unit quaternion, or a signed
    permutation whose zeros carry drawn signs."""
    if draw(st.booleans()):
        q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
        norm = np.linalg.norm(q)
        assume(norm > 1e-3)
        m = np.array(_floats._er_entries(*(q / norm))).reshape(3, 3)
    else:
        m = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=9, max_size=9))).reshape(3, 3)
        m[range(3), draw(st.permutations(range(3)))] = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3))
    m = draw(st.sampled_from([1.0, -1.0])) * m
    return (m + np.array(draw(st.lists(_NOISE, min_size=9, max_size=9))).reshape(3, 3)).tolist()


def _3x3(entries):
    return st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)


# Finite 3x3s: isometries, or any entries up to +-1.7e308, so that sums overflow.
_FINITE_3X3 = st.one_of(
    _noisy_isometries(),
    _3x3(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.7e308, -1.7e308]), st.floats(-1.7e308, 1.7e308))),
)


def _tables_on_floats_and_rows(mats, kind):
    """_products of each 3x3 on floats, and of their stack on component rows."""
    rows = kernels._component_major(np.array(mats)).reshape(3, 3, -1)
    with np.errstate(over="ignore"):  # entries near 1.7e308 overflow their sums to inf on purpose
        return [_floats._products(m, kind) for m in mats], _floats._products(rows, kind)


@settings(deadline=None)
@given(st.lists(_FINITE_3X3, min_size=1, max_size=6), st.sampled_from(IsometryKind))
def test_products_are_exactly_symmetric_on_finite_rows(mats, kind):
    """t[i][j] == t[j][i] on every finite 3x3, on floats and on component
    rows: so the ten equations of _residual are all sixteen."""
    tables, on_rows = _tables_on_floats_and_rows(mats, kind)
    assert all((on_rows[i][j] == on_rows[j][i]).all() for i, j in _UPPER)
    for m, table in zip(mats, tables):
        assert all(table[i][j] == table[j][i] for i, j in _UPPER), m


@settings(deadline=None)
@given(st.lists(_FINITE_3X3, min_size=1, max_size=6), st.sampled_from(IsometryKind))
def test_the_largest_square_is_positive_on_finite_rows(mats, kind):
    """The largest of the four squares t[i][i] is > 0 on every finite 3x3,
    on floats and on component rows: so _solve's seed is, unclamped."""
    tables, on_rows = _tables_on_floats_and_rows(mats, kind)
    assert (functools.reduce(np.maximum, [on_rows[i][i] for i in range(4)]) > 0).all()
    for m, table in zip(mats, tables):
        assert max(table[i][i] for i in range(4)) > 0, m


@settings(deadline=None)
@given(_noisy_isometries())
def test_solve_gives_the_sixteen_term_clamped_bytes_on_gated_matrices(m):
    """On floats, for a matrix that passes the gate, the clamp never acts
    and the ten terms are the sixteen: every byte is as before."""
    report = _floats._orthogonality(m, 1e-6)
    kind = _floats._kind(report)
    table = _floats._products(m, kind)
    branch, q, residual = _floats._solve(table)
    old_branch, old_q, old_residual = _solve_with_sixteen_terms_and_a_clamp(table, _floats._Floats)
    assert branch == old_branch
    assert np.array(q).tobytes() == np.array(old_q).tobytes()
    assert np.float64(residual).tobytes() == np.float64(old_residual).tobytes()


_EXTREMES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan])
_ANY_3X3 = st.one_of(_noisy_isometries(), _3x3(st.one_of(_EXTREMES, st.floats())))


@settings(deadline=None)
@given(st.lists(_ANY_3X3, min_size=1, max_size=12))
@example([[[-math.inf, 0.0, 0.0], [0.0, -math.inf, 0.0], [0.0, 0.0, -math.inf]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
def test_batch_extract_gives_the_sixteen_term_clamped_bytes_but_nan_where_the_largest_square_is_minus_inf(mats):
    """On rotations mixed with huge, signed-zero, inf and NaN rows, each row
    gives the bytes of the solve with sixteen terms and a clamp, NaN
    included, but for a row whose largest square is -inf (and whose other
    squares are NaN): its seed is now NaN, not the clamp's 0, so its
    parameters and residual are all NaN."""
    m = np.array(mats)
    with np.errstate(all="ignore"):  # the NaN and inf the entries make on purpose
        q, branch, residual = kernels.batch_extract_rotation(m)
        table = _floats._products(kernels._component_major(m).reshape(3, 3, -1), IsometryKind.ROTATION)
        old_branch, old_q, old_residual = _solve_with_sixteen_terms_and_a_clamp(table, kernels._Rows)
    old_q = np.array(old_q).T
    _, square, _ = _floats._first_max([table[i][i] for i in range(4)], [table[i][i] for i in range(4)], kernels._Rows)
    moved = square == -np.inf
    assert branch.tolist() == old_branch.tolist()
    assert q[~moved].tobytes() == old_q[~moved].tobytes()
    assert residual[~moved].tobytes() == old_residual[~moved].tobytes()
    assert np.isnan(q[moved]).all() and np.isnan(residual[moved]).all()


def test_strided_and_fortran_inputs_match_contiguous_copies(block_stack):
    for name, (fn, args, _) in _kernel_calls(*block_stack).items():
        for layout in (lambda x: x[::2], np.asfortranarray):
            views = [layout(x) for x in args]
            want = _outputs(fn(*(np.ascontiguousarray(v) for v in views)))
            for got, expected in zip(_outputs(fn(*views)), want):
                assert np.array_equal(got, expected), name


def test_noisy_rows_match_scalar(block_stack):
    _, _, m3, m4 = block_stack
    rows = np.arange(0, 1000, 5)  # the rows carrying noise
    _assert_extract_bytes_match_scalar(m3[rows])
    l, r, _, _ = kernels.batch_decompose_4d(m4[rows])
    for k, i in enumerate(rows):
        dec = decompose_4d(m4[i])
        np.testing.assert_allclose(l[k], dec.left, atol=1e-13)
        np.testing.assert_allclose(r[k], dec.right, atol=1e-13)


@pytest.mark.parametrize("name", _KERNELS)
def test_short_stacks_match_the_full_stack(block_stack, name):
    fn, args, _ = _kernel_calls(*block_stack)[name]
    full = _outputs(fn(*args))
    for width in range(2, 18):
        part = _outputs(fn(*(x[5 : 5 + width] for x in args)))
        for got, want in zip(full, part):
            assert np.array_equal(got[5 : 5 + width], want), (name, width)


@pytest.mark.parametrize("noise", [1e-13, 1e-10])
def test_batch_decompose_residuals_match_scalar(noise):
    _, _, _, m4 = _noisy_stack(907, 100, noise)  # exact rows and noisy rows
    _, _, rank1, recon = kernels.batch_decompose_4d(m4)
    for i, a in enumerate(m4):
        dec = decompose_4d(a)
        assert abs(rank1[i] - dec.rank1_residual) <= 2e-15, i
        assert abs(recon[i] - dec.reconstruction_error) <= 2e-15, i


@pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-8, 1e-3])
def test_batch_decompose_rank1_step_gives_rank1_factor_bytes(noise):
    # one rank-1 definition: the kernel runs rank1_factor's steps on
    # component rows, so each row gives the scalar function's bytes
    g = np.random.default_rng(913)
    left, right = (q / np.linalg.norm(q, axis=1, keepdims=True) for q in g.normal(size=(2, 1000, 4)))
    a = kernels.batch_compose_4d(left, right) + noise * g.uniform(-1.0, 1.0, (1000, 4, 4))
    u, v, rank1, _ = kernels.batch_decompose_4d(a)
    for i, m in enumerate(kernels.batch_associate_matrix(a)):
        got = [np.asarray(x).tobytes() for x in rank1_factor(m)]
        assert got == [u[i].tobytes(), v[i].tobytes(), rank1[i].tobytes()], i


def test_assoc_table_is_half_an_orthogonal_map():
    assert np.array_equal(kernels._ASSOC @ kernels._ASSOC.T, np.eye(16) / 4)


# Entries from 1e-100 to 1e100 in size, or zero: no sum overflows and no
# square underflows, so the norm identity holds to rounding.
_WIDE = st.builds(
    lambda sign, x: sign * x,
    st.sampled_from([-1.0, 1.0]),
    st.one_of(st.just(0.0), st.floats(1e-100, 1e100)),
)


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(4), st.just(4)), elements=_WIDE))
def test_batch_associate_is_the_scalar_map_on_any_matrix(a):
    batch = kernels.batch_associate_matrix(a)
    for got, row in zip(batch, a):
        np.testing.assert_allclose(got, associate_matrix(row), rtol=0, atol=1e-15 * np.max(np.abs(row)))
        assert math.isclose(np.linalg.norm(got), np.linalg.norm(row) / 2, rel_tol=1e-14)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1e-3]))
def test_recon_error_is_the_distance_to_the_recomposed_rotation(seed, noise):
    _, _, _, a = _noisy_stack(seed, 10, noise)
    u, v, _, recon = kernels.batch_decompose_4d(a)
    explicit = np.sqrt(np.sum((a - kernels.batch_compose_4d(u, v)) ** 2, axis=(1, 2)))
    np.testing.assert_allclose(recon, explicit, rtol=0, atol=2e-15)


_ONE_THREAD_CHILD = """
import sys
import numpy as np
import quatrot.kernels as kernels
inp = np.load(sys.argv[1])
l, r, m3, m4 = inp["l"], inp["r"], inp["m3"], inp["m4"]
np.savez(
    sys.argv[2],
    kernels.batch_euler_rodrigues(l),
    *kernels.batch_extract_rotation(m3),
    kernels.batch_compose_4d(l, r),
    kernels.batch_associate_matrix(m4),
    *kernels.batch_decompose_4d(m4),
)
"""


def test_one_blas_thread_gives_the_same_bytes(cli_env, tmp_path):
    """Row i depends only on row i, so the kernels give the same bytes on
    one BLAS thread as on however many this process uses."""
    left, right, m3, m4 = _noisy_stack(906, 3 * kernels._BLOCK + 5)  # the last block is padded
    np.savez(tmp_path / "in.npz", l=left, r=right, m3=m3, m4=m4)
    env = dict(cli_env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, "-c", _ONE_THREAD_CHILD, str(tmp_path / "in.npz"), str(tmp_path / "out.npz")]
    subprocess.run(cmd, env=env, check=True)
    here = [
        kernels.batch_euler_rodrigues(left),
        *kernels.batch_extract_rotation(m3),
        kernels.batch_compose_4d(left, right),
        kernels.batch_associate_matrix(m4),
        *kernels.batch_decompose_4d(m4),
    ]
    with np.load(tmp_path / "out.npz") as child:
        for k, want in enumerate(here):
            assert child[f"arr_{k}"].tobytes() == want.tobytes(), k


_CORE_TYPE_CHILD = """
import sys
import numpy as np
import quatrot.kernels as kernels
inp = np.load(sys.argv[1])
l, r, m4 = inp["l"], inp["r"], inp["m4"]
calls = {
    "compose_4d": lambda n: [kernels.batch_compose_4d(l[-n:], r[-n:])],
    "associate_matrix": lambda n: [kernels.batch_associate_matrix(m4[-n:])],
    "decompose_4d": lambda n: kernels.batch_decompose_4d(m4[-n:]),
}
bad = []
for name, call in calls.items():
    full = call(len(m4))
    for n in [*range(1, 41), 1001, 4095]:
        if not all(np.array_equal(got, want[-n:]) for got, want in zip(call(n), full)):
            bad.append(f"{name}: {n} rows")
sys.exit("\\n".join(bad) or None)
"""


@pytest.mark.parametrize("core", ["Haswell", "Zen", "Prescott"])
def test_4d_rows_match_the_full_stack_on_other_blas_kernels(cli_env, tmp_path, core):
    """The block contract does not depend on OpenBLAS's CPU kernel: under
    each core type, each row of the 4D kernels on a stack of 1-40, 1001 or
    4095 rows has its bits in a 4096-row stack. The child compares within
    itself, because its bits may differ from this process's."""
    left, right, _, m4 = _noisy_stack(907, kernels._BLOCK)
    np.savez(tmp_path / "in.npz", l=left, r=right, m4=m4)
    env = dict(cli_env, OPENBLAS_CORETYPE=core)
    child = subprocess.run(
        [sys.executable, "-c", _CORE_TYPE_CHILD, str(tmp_path / "in.npz")], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr


def test_non_finite_rows_leave_the_other_rows_alone(block_stack):
    left, right, m3, m4 = block_stack
    bad = [kernels._BLOCK - 1, kernels._BLOCK + 7]  # an inf row and a nan row
    left_bad, m3_bad, m4_bad = left.copy(), m3.copy(), m4.copy()
    left_bad[bad[0], 2], left_bad[bad[1], 0] = np.inf, np.nan
    m3_bad[bad[0], 1, 1], m3_bad[bad[1], 0, 1] = np.inf, np.nan
    m4_bad[bad[0], 1, 3], m4_bad[bad[1], 2, 2] = -np.inf, np.nan
    keep = np.setdiff1d(np.arange(len(m4)), bad)
    with_bad = _kernel_calls(left_bad, right, m3_bad, m4_bad)
    without = _kernel_calls(left[keep], right[keep], m3[keep], m4[keep])
    for name in _KERNELS:
        fn, args, _ = with_bad[name]
        clean_args = without[name][1]
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf in the bad rows
            outs = _outputs(fn(*args))
        for got, want in zip(outs, _outputs(fn(*clean_args))):
            assert np.array_equal(got[keep], want), name
        # Extract's branch is an index and its q may keep finite entries;
        # its residual must show the bad row.
        for got in outs[2:] if name == "extract_rotation" else outs:
            assert not np.isfinite(got[bad]).any(), name


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
@example([[0.0, 0.0, 0.0, -1e-12], [1e-12, -1e-12, 0.0, -5e-10], [-1e-12, 0.0, 1e-12, 1e-12]])
def test_sign_rule_scalar_batch_and_reference_agree(rows):
    assert SIGN_EPS == 1e-12
    q = np.array(rows, dtype=np.float64)
    batch = _floats._sign(q.T, kernels._Rows)
    for row, got in zip(q, batch):
        expected = _reference_sign(row)
        assert canonical_sign(row) == expected
        assert got == expected


_LEADS = st.sampled_from(_EDGES + [-x for x in _EDGES])


@st.composite
def _edge_quaternions(draw):
    """A unit quaternion whose first one or two components are sign-scan
    edges (a half turn when w = 0), the rest scaled onto the unit sphere."""
    leads = draw(st.lists(_LEADS, min_size=1, max_size=2))
    rest = draw(st.lists(st.floats(-1.0, 1.0), min_size=4 - len(leads), max_size=4 - len(leads)))
    rest = np.array(rest)
    norm = np.linalg.norm(rest)
    if norm < 1e-3:
        rest, norm = np.ones_like(rest), math.sqrt(len(rest))
    rest *= math.sqrt(1.0 - sum(x * x for x in leads)) / norm
    return [*leads, *rest]


@given(st.lists(_edge_quaternions(), min_size=1, max_size=8))
@example([[0.0, 1e-12, 0.6, 0.8], [-1e-12, -5e-10, 0.8, -0.6], [0.0, 0.0, 0.0, 1.0]])
def test_extract_at_the_sign_scan_edges_matches_scalar(quats):
    """Leading components at the sign rule's edges decide the sign of the
    extracted row on both paths alike."""
    _assert_extract_bytes_match_scalar(kernels.batch_euler_rodrigues(np.array(quats)))


def test_extract_ties_go_to_the_first_branch(block_stack):
    """The half turn about (1, 1, 0)/sqrt(2) has squares (0, 1/2, 1/2, 0):
    an exact tie, which the scalar and the batch path both give to B."""
    m = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    scalar = extract_rotation(m)
    assert scalar.branch == "B"
    b = kernels._BLOCK
    stack = block_stack[2][: b + 1].copy()
    at = [0, b - 1, b]
    stack[at] = m
    for rows, picks in ((m[None], [0]), (stack, at)):
        params, branch, residual = kernels.batch_extract_rotation(rows)
        for i in picks:
            assert BRANCHES[branch[i]] == "B", i
            np.testing.assert_allclose(params[i], scalar.params, rtol=0, atol=1e-15)
            assert residual[i] == pytest.approx(scalar.residual, abs=1e-15)


def test_decompose_ties_go_to_the_first_column():
    """compose_4d(l, l) for l = (1, 1, 0, 0)/sqrt(2): the associate matrix's
    first two columns have equal squares, and column 0 seeds the factor."""
    l = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)
    a = compose_4d(l, l)
    m = associate_matrix(a)
    col_squares = np.sum(m * m, axis=0)
    assert col_squares[0] == col_squares[1] == col_squares.max()
    comp = kernels._component_major(m[None]).reshape(4, 4, 1)
    index, _, seed = _floats._first_max(col_squares[:, None], comp.transpose(1, 0, 2), kernels._Rows)
    assert index[0] == 0
    assert seed[:, 0].tobytes() == m[:, 0].tobytes()
    u, v, rank1, recon = kernels.batch_decompose_4d(a[None])
    dec = decompose_4d(a)
    np.testing.assert_allclose(u[0], dec.left, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v[0], dec.right, rtol=0, atol=1e-15)
    assert abs(rank1[0] - dec.rank1_residual) <= 2e-15
    assert abs(recon[0] - dec.reconstruction_error) <= 2e-15


# Few distinct keys, so ties are common; `>` never picks a NaN key.
_KEYS = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 6)),
    elements=st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.nan]),
)


@given(_KEYS)
def test_first_max_is_argmax_with_the_row_it_picks(keys):
    """The one pick, on arrays and on each column's Python floats, is the
    ``max(range(k), key=...)`` the scalar cores used; without NaN it is
    also np.argmax, which takes NaN as the largest."""
    rows = np.arange(keys.size * 3, dtype=np.float64).reshape(len(keys), 3, -1)
    want = np.array([max(range(len(col)), key=col.__getitem__) for col in keys.T.tolist()])
    cols = np.arange(keys.shape[1])
    for c, col in enumerate(keys.T.tolist()):
        index, key, row = _floats._first_max(col, rows[:, :, c].tolist())
        assert index == want[c]
        assert np.array_equal(key, keys[want[c], c], equal_nan=True)
        assert row == rows[want[c], :, c].tolist()
    index, key, row = _floats._first_max(keys, rows, kernels._Rows)
    assert np.array_equal(np.broadcast_to(index, want.shape), want)
    assert np.array_equal(key, keys[want, cols], equal_nan=True)
    assert np.array_equal(row, rows[want, :, cols].T)
    if not np.isnan(keys).any():
        assert np.array_equal(want, np.argmax(keys, axis=0))


def _euler_rodrigues_rows(q):
    """The Euler-Rodrigues formula written out per row, as rot3 writes it."""
    a, b, c, d = q.T
    return np.stack(
        [
            a * a + b * b - c * c - d * d, -2 * a * d + 2 * b * c, 2 * a * c + 2 * b * d,
            2 * a * d + 2 * b * c, a * a - b * b + c * c - d * d, -2 * a * b + 2 * c * d,
            -2 * a * c + 2 * b * d, 2 * a * b + 2 * c * d, a * a - b * b - c * c + d * d,
        ],
        axis=1,
    ).reshape(-1, 3, 3)


_QUAT_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e150, 1e150))


@given(arrays(np.float64, st.tuples(st.integers(1, 9), st.just(4)), elements=_QUAT_ENTRIES))
def test_euler_rodrigues_bytes_are_the_written_out_formula(q):
    """Sharing products between entries leaves every bit, signed zeros
    included, as the entry-by-entry formula gives it."""
    assert kernels.batch_euler_rodrigues(q).tobytes() == _euler_rodrigues_rows(q).tobytes()
