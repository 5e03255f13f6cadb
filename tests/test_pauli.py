import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_bare_paulis,
    all_phased_paulis,
    commutes,
    int_to_bits,
    kron_pauli_to_dense,
    parse_pauli,
    pauli_mul,
)
from semiclifford import gf2
from semiclifford.pauli import PhasedPauli, pauli_action, pauli_to_dense


def test_identity_element():
    ident = PhasedPauli.identity(2)
    for p in all_phased_paulis(2)[:32]:
        assert pauli_mul(ident, p) == p
        assert pauli_mul(p, ident) == p


def test_coordinates_must_be_bits():
    with pytest.raises(ValueError, match="other than 0 or 1"):
        PhasedPauli(0, 0, [2, 1])


@pytest.mark.parametrize("delta,epsilon", [(3, 0), (0, 2), (-1, 0), (0, 0.5), (2, 2)])
def test_phase_bits_must_be_bits(delta, epsilon):
    # no phase bit is silently reduced mod 2
    with pytest.raises(ValueError, match="other than 0 or 1"):
        PhasedPauli(delta, epsilon, [0, 1])


def test_phase_bits_accept_numpy_and_bool_bits():
    p = PhasedPauli(np.uint8(1), True, [0, 1])
    assert (p.delta, p.epsilon) == (1, 1)
    assert type(p.delta) is int and type(p.epsilon) is int


def test_tau11_squares_to_minus_identity():
    t11 = PhasedPauli(0, 0, [1, 1])
    sq = pauli_mul(t11, t11)
    assert (sq.delta, sq.epsilon) == (0, 1)
    assert not sq.a.any()
    dense = pauli_to_dense(t11)
    assert np.allclose(dense @ dense, -np.eye(2))


def test_anticommuting_order_flips_epsilon():
    z = PhasedPauli(0, 0, [1, 0])
    x = PhasedPauli(0, 0, [0, 1])
    zx = pauli_mul(z, x)
    xz = pauli_mul(x, z)
    assert np.array_equal(zx.a, xz.a)
    assert zx.delta == xz.delta
    assert zx.epsilon != xz.epsilon
    assert np.allclose(
        pauli_to_dense(z) @ pauli_to_dense(x), -pauli_to_dense(x) @ pauli_to_dense(z)
    )


def test_commutes_cases():
    ident = PhasedPauli.identity(1)
    z = PhasedPauli(0, 0, [1, 0])
    x = PhasedPauli(0, 0, [0, 1])
    assert commutes(ident, z) and commutes(x, ident)
    assert not commutes(z, x)
    zz = PhasedPauli(0, 0, [1, 1, 0, 0])
    xx = PhasedPauli(0, 0, [0, 0, 1, 1])
    assert commutes(zz, xx)
    dz, dx = pauli_to_dense(zz), pauli_to_dense(xx)
    assert np.allclose(dz @ dx, dx @ dz)


def test_dense_single_qubit_matrices():
    assert np.array_equal(pauli_to_dense(PhasedPauli.identity(1)), np.eye(2))
    x = pauli_to_dense(PhasedPauli(0, 0, [0, 1]))
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=complex))
    t11 = pauli_to_dense(PhasedPauli(0, 0, [1, 1]))
    assert np.array_equal(t11, np.array([[0, 1], [-1, 0]], dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_matches_kron_oracle_exhaustive(n):
    for p in all_phased_paulis(n):
        assert np.array_equal(pauli_to_dense(p), kron_pauli_to_dense(p))


def test_dense_matches_kron_oracle_n7(rng):
    for _ in range(50):
        delta, epsilon = rng.integers(0, 2, size=2)
        p = PhasedPauli(delta, epsilon, rng.integers(0, 2, size=14))
        assert np.array_equal(pauli_to_dense(p), kron_pauli_to_dense(p))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_action_matches_kron_oracle_exhaustive(n, rng):
    # every a, one at a time and as the rows of one batch
    dim = 1 << n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    paulis = all_bare_paulis(n)
    perms, signs = pauli_action(n, np.array([p.a for p in paulis]))
    for p, batch_perm, batch_signs in zip(paulis, perms, signs):
        perm, sign = pauli_action(n, p.a)
        assert np.array_equal(sign[:, None] * m[perm], kron_pauli_to_dense(p) @ m)
        assert np.array_equal(batch_perm, perm) and np.array_equal(batch_signs, sign)


def test_pauli_action_matches_kron_oracle_n7(rng):
    m = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    for _ in range(50):
        p = PhasedPauli(0, 0, rng.integers(0, 2, size=14))
        perm, signs = pauli_action(7, p.a)
        assert np.array_equal(signs[:, None] * m[perm], kron_pauli_to_dense(p) @ m)


@pytest.mark.parametrize("n", [1, 2])
def test_product_homomorphism_exhaustive(n):
    ps = all_phased_paulis(n)
    dense = {p: pauli_to_dense(p) for p in ps}
    for p, q in itertools.product(ps, ps):
        assert np.allclose(
            pauli_to_dense(pauli_mul(p, q)), dense[p] @ dense[q], atol=1e-12
        )


@pytest.mark.parametrize("n", [1, 2])
def test_commutes_matches_dense_exhaustive(n):
    ps = all_phased_paulis(n)
    dense = {p: pauli_to_dense(p) for p in ps}
    for p, q in itertools.product(ps, ps):
        dense_comm = np.allclose(dense[p] @ dense[q], dense[q] @ dense[p], atol=1e-12)
        assert commutes(p, q) == dense_comm


@given(
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 63),
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 63),
)
@settings(max_examples=80, deadline=None)
def test_product_homomorphism_n3(d1, e1, a1, d2, e2, a2):
    p = PhasedPauli(d1, e1, int_to_bits(a1, 6))
    q = PhasedPauli(d2, e2, int_to_bits(a2, 6))
    assert np.allclose(
        pauli_to_dense(pauli_mul(p, q)),
        pauli_to_dense(p) @ pauli_to_dense(q),
        atol=1e-12,
    )


@pytest.mark.parametrize("n", [1, 2])
def test_hermiticity_criterion(n):
    for p in all_phased_paulis(n):
        d = pauli_to_dense(p)
        # the rule dense._clifford_reps reads Hermiticity with: delta == v . w
        assert np.allclose(d, d.conj().T) == (p.delta == gf2.dot(p.v, p.w))


def test_mul_mismatched_n():
    with pytest.raises(ValueError):
        pauli_mul(PhasedPauli.identity(1), PhasedPauli.identity(2))


def test_repr_round_trip():
    for p in all_phased_paulis(2)[:64]:
        assert parse_pauli(repr(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pauli("tau[01]")
    with pytest.raises(ValueError):
        parse_pauli("+i.tau[0|01]")


@pytest.mark.parametrize("text", ["+tau[|]", "-i.tau[|]", " +tau[|] "])
def test_parse_rejects_empty_label(text):
    with pytest.raises(ValueError, match="unparseable"):
        parse_pauli(text)


@given(st.text(alphabet="+-i.tau[]|01 \n٣x", max_size=16) | st.text(max_size=16))
@settings(max_examples=300, deadline=None)
def test_parse_fuzz(text):
    try:
        p = parse_pauli(text)
    except ValueError:
        return
    assert p.n >= 1
    assert parse_pauli(repr(p)) == p
