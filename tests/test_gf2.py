import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_lagrangians,
    enumerate_lagrangians_oracle,
    random_circuit,
    rref_oracle,
    symmetric_congruence_oracle,
    symplectic_complete_oracle,
    symplectic_inverse_oracle,
)
from semiclifford import gf2
from semiclifford.circuits import circuit_to_rep
from semiclifford.normal_form import _conj

C1 = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
C2 = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)


def test_mat_mul_identity():
    m = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
    assert np.array_equal(gf2.mat_mul(gf2.ident(3), m), m)


def test_p_squared_is_identity():
    p = gf2.p_mat(3)
    assert np.array_equal(gf2.mat_mul(p, p), gf2.ident(6))


def test_counterexample_pair_commutes():
    assert np.array_equal(gf2.mat_mul(C1, C2), gf2.mat_mul(C2, C1))


@pytest.mark.parametrize("shape", [(1, 1, 1), (4096, 14, 12), (5, 300, 7), (3, 0, 2)])
def test_blas_mat_mul_equals_mat_mul(shape, rng):
    # inner dimension 300 > 255: counts that a uint8 product would wrap
    rows, inner, cols = shape
    for density in (0.5, 1.0):
        a = (rng.random((rows, inner)) < density).astype(np.uint8)
        b = (rng.random((inner, cols)) < density).astype(np.uint8)
        got = gf2._blas_mat_mul(a, b)
        assert got.dtype == np.uint8
        assert got.tobytes() == gf2.mat_mul(a, b).tobytes()


def test_blas_mat_mul_refuses_an_inner_dimension_past_float32_integers():
    # float32 holds every integer only below 2^24; broadcast views of one
    # byte give the shapes without allocating them
    a = np.broadcast_to(np.uint8(1), (1, 1 << 24))
    b = np.broadcast_to(np.uint8(1), (1 << 24, 1))
    with pytest.raises(ValueError, match=r"inner dimension 16777216 .* 2\^24"):
        gf2._blas_mat_mul(a, b)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.mat_mul(gf2.ident(3), gf2.ident(4))


def test_rank_zero_identity():
    assert gf2.rank(gf2.zeros(4, 5)) == 0
    assert gf2.rank(gf2.ident(6)) == 6


def test_rank_of_counterexample_e_block():
    assert gf2.rank(C1[:2, 2:]) == 2


def test_inverse_trivial_cases():
    assert np.array_equal(gf2.inverse(gf2.ident(4)), gf2.ident(4))
    p = gf2.p_mat(2)
    assert np.array_equal(gf2.inverse(p), p)


def test_inverse_random(rng):
    for _ in range(30):
        while True:
            m = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
            try:
                inv = gf2.inverse(m)
                break
            except ValueError:
                continue
        assert np.array_equal(gf2.mat_mul(m, inv), gf2.ident(6))


def test_inverse_singular_raises():
    m = gf2.zeros(3, 3)
    with pytest.raises(ValueError):
        gf2.inverse(m)


def test_solve_identity_and_inconsistent():
    v = np.array([1, 0, 1], dtype=np.uint8)
    assert np.array_equal(gf2.solve(gf2.ident(3), v), v)
    assert gf2.solve(gf2.zeros(3, 3), v) is None


def test_solve_random_consistent(rng):
    for _ in range(50):
        m = rng.integers(0, 2, size=(5, 7)).astype(np.uint8)
        x = rng.integers(0, 2, size=7).astype(np.uint8)
        rhs = gf2.mat_mul(m, x)
        sol = gf2.solve(m, rhs)
        assert sol is not None
        assert np.array_equal(gf2.mat_mul(m, sol), rhs)


def test_is_symplectic():
    assert gf2.is_symplectic(gf2.ident(4))
    assert gf2.is_symplectic(C1)
    broken = C1.copy()
    broken[0] = 0
    assert not gf2.is_symplectic(broken)
    with pytest.raises(ValueError):
        gf2.is_symplectic(gf2.ident(3))


def test_kernel_basis_sizes():
    assert gf2.kernel_basis(gf2.ident(4)).shape == (0, 4)
    assert gf2.kernel_basis(gf2.zeros(3, 3)).shape == (3, 3)
    ic1 = (gf2.ident(4) ^ C1) & 1
    assert gf2.kernel_basis(ic1).shape[0] == 2


def test_kernel_vectors_annihilate(rng):
    for _ in range(30):
        m = rng.integers(0, 2, size=(5, 8)).astype(np.uint8)
        k = gf2.kernel_basis(m)
        assert k.shape[0] == 8 - gf2.rank(m)
        for v in k:
            assert not gf2.mat_mul(m, v).any()


@given(st.integers(0, 2**36 - 1), st.integers(0, 2**36 - 1), st.integers(0, 2**36 - 1))
@settings(max_examples=60, deadline=None)
def test_matmul_laws(abits, bbits, cbits):
    a = np.array([(abits >> k) & 1 for k in range(36)], dtype=np.uint8).reshape(6, 6)
    b = np.array([(bbits >> k) & 1 for k in range(36)], dtype=np.uint8).reshape(6, 6)
    c = np.array([(cbits >> k) & 1 for k in range(36)], dtype=np.uint8).reshape(6, 6)
    assert np.array_equal(
        gf2.mat_mul(gf2.mat_mul(a, b), c), gf2.mat_mul(a, gf2.mat_mul(b, c))
    )
    assert np.array_equal(
        gf2.mat_mul(a, (b ^ c)), gf2.mat_mul(a, b) ^ gf2.mat_mul(a, c)
    )


def test_rank_nullity(rng):
    for _ in range(30):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 9))
        m = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        assert gf2.rank(m) + gf2.kernel_basis(m).shape[0] == cols


def test_symplectic_closure(rng, sp4):
    idx = rng.choice(sp4.shape[0], size=20)
    for i in idx:
        for jdx in rng.choice(sp4.shape[0], size=3):
            assert gf2.is_symplectic(gf2.mat_mul(sp4[i], sp4[jdx]))
        assert gf2.is_symplectic(gf2.inverse(sp4[i]))


def test_symmetric_congruence(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        e = (m ^ m.T ^ np.diag(np.diag(m))) & 1
        r, rk = gf2.symmetric_congruence(e)
        out = gf2.mat_mul(gf2.mat_mul(r, e), r.T)
        assert rk == gf2.rank(e)
        assert not out[rk:, :].any() and not out[:, rk:].any()
        assert np.array_equal(out, out.T)
        assert gf2.rank(out[:rk, :rk]) == rk
        gf2.inverse(r)  # raises if singular


@pytest.mark.parametrize("n", range(17))
def test_symmetric_congruence_matches_the_per_entry_oracle(n, rng):
    # the packed pivot steps against the per-entry loop, on full, low-rank
    # and zero-diagonal (alternating) matrices, which need 2 x 2 pivots
    for trial in range(30):
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if trial % 3 == 1:
            k = int(rng.integers(0, n + 1))
            m = m[:, :k] @ rng.integers(0, 2, size=(k, n), dtype=np.uint8) & 1
        e = np.triu(m) | np.triu(m, 1).T
        if trial % 3 == 2:
            np.fill_diagonal(e, 0)
        r, rk = gf2.symmetric_congruence(e)
        want, want_rk = symmetric_congruence_oracle(e)
        assert rk == want_rk
        assert r.dtype == np.uint8 and r.flags.writeable and np.array_equal(r, want)


def test_symmetric_congruence_keeps_its_input_checks():
    with pytest.raises(ValueError, match="not a square matrix"):
        gf2.symmetric_congruence(np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="not symmetric"):
        gf2.symmetric_congruence(np.array([[0, 1], [0, 0]], dtype=np.uint8))
    with pytest.raises(ValueError, match="other than 0 or 1"):
        gf2.symmetric_congruence(2 * np.eye(2, dtype=int))


@pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135)])
def test_enumerate_lagrangians_counts(n, count):
    lags = gf2.enumerate_lagrangians(n)
    assert len(lags) == count
    assert len(set(lags)) == count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_lagrangians_vs_brute_force(n):
    ours = {lag.basis.tobytes() for lag in gf2.enumerate_lagrangians(n)}
    assert ours == brute_force_lagrangians(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lagrangians_are_maximal(n):
    # self-orthogonality is maximal: the P-orthogonal complement is the space itself
    p = gf2.p_mat(n)
    for lag in gf2.enumerate_lagrangians(n):
        comp = gf2.kernel_basis(gf2.mat_mul(lag.basis, p))
        assert comp.shape[0] == n
        assert gf2.rank(np.concatenate([comp, lag.basis])) == n


def test_lagrangians_and_completions_match_scalar_oracles():
    # all 153 Lagrangians at n = 1..3, in order, and their completions, bit for bit
    count = 0
    for n in (1, 2, 3):
        ours = gf2.enumerate_lagrangians(n)
        want = enumerate_lagrangians_oracle(n)
        assert [lag.basis.tobytes() for lag in ours] == [lag.basis.tobytes() for lag in want]
        for lag in ours:
            c, ref = gf2.symplectic_complete(lag), symplectic_complete_oracle(lag)
            assert c.dtype == ref.dtype and c.shape == ref.shape
            assert c.tobytes() == ref.tobytes()
        count += len(ours)
    assert count == 153


def test_lagrangian_validation():
    with pytest.raises(ValueError):
        gf2.Lagrangian(np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=np.uint8))
    with pytest.raises(ValueError):
        gf2.Lagrangian(np.array([[1, 0], [1, 0]], dtype=np.uint8))


def test_enumerate_lagrangians_cap():
    with pytest.raises(ValueError):
        gf2.enumerate_lagrangians(4)


def test_symplectic_complete_axis_cases():
    n = 2
    z = gf2.Lagrangian(np.concatenate([gf2.ident(n), gf2.zeros(n, n)], axis=1))
    c = gf2.symplectic_complete(z)
    assert gf2.is_symplectic(c)
    assert gf2.rank(np.concatenate([c[:, :n].T, z.basis])) == n
    x = gf2.Lagrangian(np.concatenate([gf2.zeros(n, n), gf2.ident(n)], axis=1))
    c = gf2.symplectic_complete(x)
    assert gf2.is_symplectic(c)
    assert gf2.rank(np.concatenate([c[:, :n].T, x.basis])) == n


def test_symplectic_complete_all_n2():
    for lag in gf2.enumerate_lagrangians(2):
        c = gf2.symplectic_complete(lag)
        assert gf2.is_symplectic(c)
        # first n columns span the Lagrangian
        stacked = np.concatenate([c[:, :2].T, lag.basis])
        assert gf2.rank(stacked) == 2


def test_symplectic_complete_random_n3(rng):
    lags = gf2.enumerate_lagrangians(3)
    for i in rng.choice(len(lags), size=10, replace=False):
        lag = lags[int(i)]
        c = gf2.symplectic_complete(lag)
        assert gf2.is_symplectic(c)
        stacked = np.concatenate([c[:, :3].T, lag.basis])
        assert gf2.rank(stacked) == 3


@st.composite
def _rref_cases(draw):
    """A bit matrix up to 40 x 80 of chosen rank and density, and a pivot bound."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(0, 80))
    rank = draw(st.integers(0, min(rows, cols)))
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = (rng.random((rows, rank)) < density).astype(np.uint8)
    right = (rng.random((rank, cols)) < density).astype(np.uint8)
    m = (left @ right) & 1
    if draw(st.booleans()):
        m[:, rng.random(cols) < 0.2] = 0  # columns no pivot can sit in
    n_pivot_cols = draw(st.none() | st.integers(0, cols))
    return m, n_pivot_cols


@given(_rref_cases())
@settings(max_examples=300, deadline=None)
def test_rref_matches_per_bit_oracle(case):
    m, n_pivot_cols = case
    before = m.copy()
    red, pivots = gf2.rref(m, n_pivot_cols)
    want, want_pivots = rref_oracle(m, n_pivot_cols)
    assert pivots == want_pivots
    assert red.dtype == np.uint8 and red.shape == m.shape
    assert np.array_equal(red, want)
    assert red.flags.writeable and not np.shares_memory(red, m)
    assert np.array_equal(m, before)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1), (3, 64), (2, 65)])
def test_rref_edge_shapes(shape):
    for m in (np.zeros(shape, dtype=np.uint8), np.ones(shape, dtype=np.uint8)):
        for n_pivot_cols in range(shape[1] + 1):
            red, pivots = gf2.rref(m, n_pivot_cols)
            want, want_pivots = rref_oracle(m, n_pivot_cols)
            assert pivots == want_pivots
            assert red.shape == shape and np.array_equal(red, want)
            assert red.flags.writeable


@given(_rref_cases())
@settings(max_examples=200, deadline=None)
def test_rank_counts_the_rref_pivots(case):
    m = case[0]
    assert gf2.rank(m) == len(gf2.rref(m)[1])


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1), (3, 64), (2, 65), (65, 2)])
def test_rank_counts_the_rref_pivots_on_edge_shapes(shape, rng):
    for m in (
        np.zeros(shape, dtype=np.uint8),
        np.ones(shape, dtype=np.uint8),
        rng.integers(0, 2, size=shape, dtype=np.uint8),
    ):
        assert gf2.rank(m) == len(gf2.rref(m)[1]) <= min(shape)


def test_symplectic_inverse_matches_inverse(rng, sp4):
    mats = list(sp4)
    mats += [circuit_to_rep(random_circuit(5, 20, rng)).c for _ in range(10)]
    for m in mats:
        got = gf2.symplectic_inverse(m)
        assert np.array_equal(got, gf2.inverse(m))
        assert np.array_equal(got, symplectic_inverse_oracle(m))


def test_symplectic_inverse_conjugates_bit_for_bit(rng):
    # normal_form._conj on packed rows against two uint8 products
    for _ in range(10):
        m = circuit_to_rep(random_circuit(5, 20, rng)).c
        c = rng.integers(0, 2, size=(10, 10)).astype(np.uint8)
        want = gf2.mat_mul(gf2.mat_mul(m, c), gf2.inverse(m))
        (got,) = _conj(gf2._pack_rows(m), [gf2._pack_rows(c)])
        assert np.array_equal(gf2._unpack_rows(got, 10), want)


@pytest.mark.parametrize("rows, inner, cols", [(1, 1, 1), (3, 5, 2), (8, 8, 8), (20, 20, 20), (4, 70, 3)])
def test_row_mul_and_transpose_match_numpy(rows, inner, cols, rng):
    for _ in range(10):
        a = rng.integers(0, 2, size=(rows, inner), dtype=np.uint8)
        b = rng.integers(0, 2, size=(inner, cols), dtype=np.uint8)
        got = gf2._row_mul(gf2._pack_rows(a), gf2._pack_rows(b))
        assert np.array_equal(gf2._unpack_rows(got, cols), gf2.mat_mul(a, b))
        assert np.array_equal(gf2._unpack_rows(gf2._row_transpose(gf2._pack_rows(a), inner), rows), a.T)


def test_symplectic_inverse_rejects_non_symplectic():
    m = gf2.ident(4)
    m[0, 1] = 1  # (A 0; 0 I) with A != I is invertible but not symplectic
    assert np.array_equal(gf2.mat_mul(m, gf2.inverse(m)), gf2.ident(4))
    with pytest.raises(ValueError, match="not symplectic"):
        gf2.symplectic_inverse(m)
    with pytest.raises(ValueError):
        gf2.symplectic_inverse(gf2.ident(3))


@pytest.mark.parametrize(
    "data",
    [[2, 0], [0, -1], [[1, 0], [0, 3]], [0.5, 1.0], [256, 1], 1.7 * np.eye(2)]
    + [[np.nan], [np.inf], [-np.inf], [1e20], [1 + 1j], [1j], np.array([1, None], dtype=object)],
)
def test_frozenbits_rejects_non_bits(data):
    # nan, inf and 1e20 used to raise RuntimeWarning (invalid value in the
    # cast) and 1 + 1j ComplexWarning, not this ValueError, under -W error
    with pytest.raises(ValueError, match="other than 0 or 1"):
        gf2.frozenbits(data)


@pytest.mark.parametrize(
    "basis", [[[3, 0]], [[1, 0, 0, 0], [0, 2, 0, 0]], [[1, 0, 0, -1], [0, 1, 0, 0]]]
)
def test_lagrangian_rejects_non_bits(basis):
    # [[3, 0]] used to be stored as the basis [[1, 0]]
    with pytest.raises(ValueError, match="other than 0 or 1"):
        gf2.Lagrangian(np.array(basis))


def test_frozenbits_accepts_bits_and_bools():
    fortran = np.asfortranarray([[1, 1], [0, 1]], dtype=np.uint8)
    bits = ([1, 0, 1], np.array([True, False]), np.eye(2), np.zeros((0, 3)), [[0, 1]], fortran)
    for data in bits:
        out = gf2.frozenbits(data)
        assert out.dtype == np.uint8 and not out.flags.writeable
        assert out.flags.c_contiguous  # stacked reps feed product_table's products
        assert np.array_equal(out, np.asarray(data))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gf2.rank([[2]]),
        lambda: gf2.inverse([[3]]),
        lambda: gf2.is_symplectic(3 * gf2.ident(2)),
        lambda: gf2.asbits([2.7, 1.5]),
        lambda: gf2.asbits(np.array([-1])),
        lambda: gf2.mat_mul(gf2.ident(2), 2 * gf2.ident(2)),
    ],
    ids=["rank", "inverse", "is_symplectic", "floats", "negative", "mat_mul"],
)
def test_gf2_rejects_non_bits(call):
    # each used to reduce its input mod 2: rank([[2]]) was 0, inverse([[3]])
    # was [[1]], 3 I_2 passed as symplectic and [2.7, 1.5] read as [0, 1]
    with pytest.raises(ValueError, match="other than 0 or 1"):
        call()


def test_asbits_accepts_bits_and_bools_and_keeps_uint8():
    for data in ([1.0, 0.0], [1 + 0j, 0j], np.array([1, 0], dtype=object)):
        out = gf2.asbits(data)
        assert out.dtype == np.uint8 and out.tolist() == [1, 0]
    for data in ([1, 0, 1], np.array([True, False]), np.eye(2), np.zeros((0, 3)), [[0, 1]]):
        out = gf2.asbits(data)
        assert out.dtype == np.uint8 and np.array_equal(out, np.asarray(data))
    bits = gf2.ident(3)
    assert gf2.asbits(bits) is bits
