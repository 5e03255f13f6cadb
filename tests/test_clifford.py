import itertools

import numpy as np
import pytest

from helpers import (
    all_phased_paulis,
    circuit_to_rep_compose_oracle,
    circuit_to_rep_oracle,
    compose_oracle,
    embed_gate_oracle,
    from_pauli,
    inverse_oracle,
    is_involution_rep,
    pauli_mul,
    product_table_uint8,
    random_circuit,
    random_clifford_dense,
    reps_commute,
    reps_of,
    sign_data_uint8,
    standard_gate,
    symplectic_mask_uint8,
)
from semiclifford import circuits, gf2
from semiclifford.circuits import (
    GATE_ARITY,
    CircuitDescription,
    circuit_to_dense,
    circuit_to_monomial,
    circuit_to_rep,
)
from semiclifford.clifford import (
    CliffordRep,
    compose,
    conjugate,
    inverse,
    product_table,
    sign_data,
)
from semiclifford.dense import extract_rep
from semiclifford.pauli import PhasedPauli, pauli_to_dense


def test_constructor_rejects_non_symplectic():
    bad = gf2.ident(4)
    bad[0, 0] = 0
    with pytest.raises(ValueError):
        CliffordRep(bad, np.zeros(4, dtype=np.uint8))


@pytest.mark.parametrize(
    "c,h",
    [(3 * np.eye(2, dtype=int), [2, 0]), (1.7 * np.eye(2), [0, 0]), (np.eye(2), [0, -1])],
)
def test_constructor_rejects_values_that_are_not_bits(c, h):
    with pytest.raises(ValueError, match="other than 0 or 1"):
        CliffordRep(c, h)


def _bit_stack(count, shape):
    """All count (..., shape) bit arrays, as one (count, *shape) uint8 stack."""
    size = int(np.prod(shape))
    return ((np.arange(count)[:, None] >> np.arange(size)) & 1).astype(np.uint8).reshape(
        (count, *shape)
    )


@pytest.mark.parametrize("n", [1, 2])
def test_involution_rep_in_block_form_implies_the_block_invariants(n):
    # every C = (A E; 0 D) and every h: a symplectic C whose rep passes
    # is_involution_rep meets each check of the deleted block-rep type
    blocks = _bit_stack(1 << (3 * n * n), (3, n, n))
    cs = np.zeros((len(blocks), 2 * n, 2 * n), dtype=np.uint8)
    cs[:, :n, :n], cs[:, :n, n:], cs[:, n:, n:] = blocks.transpose(1, 0, 2, 3)
    cs = cs[gf2.symplectic_mask(cs)]
    hs = _bit_stack(1 << (2 * n), (2 * n,))
    ident = gf2.ident(n)
    seen = set()
    for c in cs:
        a, e = c[:n, :n], c[:n, n:]
        for h in hs:
            if not is_involution_rep(CliffordRep(c, h)):
                continue
            f = h[:n]
            seen.add((a.tobytes(), e.any(), f.any()))
            ae = gf2.mat_mul(a, e)
            assert np.array_equal(gf2.mat_mul(a, a), ident)
            assert np.array_equal(e, e.T)
            assert np.array_equal(ae, ae.T)
            assert np.array_equal(gf2.mat_mul(a.T, f), f)
            assert np.array_equal(c[n:, n:], a.T)
    # not vacuous: nonzero E and f occur, and at n = 2 non-identity A
    assert any(e_any for _, e_any, _ in seen) and any(f_any for _, _, f_any in seen)
    assert len({a for a, _, _ in seen}) == (1 if n == 1 else 4)


def test_constructor_accepts_bools():
    rep = CliffordRep(np.eye(2, dtype=bool), np.array([True, False]))
    assert rep == CliffordRep(gf2.ident(2), [1, 0])


def test_d_vector_cases():
    assert not CliffordRep.identity(2).d.any()
    p_rep = CliffordRep(gf2.p_mat(1), np.zeros(2, dtype=np.uint8))
    assert not p_rep.d.any()
    s = standard_gate("S", (0,), 1)
    assert s.d.tolist() == [0, 1]


def test_identity_rep_fixes_everything():
    ident = CliffordRep.identity(2)
    for p in all_phased_paulis(2)[:48]:
        assert conjugate(ident, p) == p


def test_pauli_rep_conjugation_sign():
    # rep (I, Pb) multiplies tau_a by (-1)^(b^T P a)
    n = 2
    p_form = gf2.p_mat(n)
    for bbits in range(1 << (2 * n)):
        b = np.array([(bbits >> k) & 1 for k in range(2 * n)], dtype=np.uint8)
        rep = from_pauli(PhasedPauli(0, 0, b))
        for abits in (3, 9, 14):
            a = np.array([(abits >> k) & 1 for k in range(2 * n)], dtype=np.uint8)
            p = PhasedPauli(0, 0, a)
            img = conjugate(rep, p)
            want_eps = gf2.dot(b, gf2.mat_mul(p_form, a))
            assert np.array_equal(img.a, a)
            assert img.delta == 0
            assert img.epsilon == want_eps


def test_hadamard_swaps_x_and_z():
    h = standard_gate("H", (0,), 1)
    x = PhasedPauli(0, 0, [0, 1])
    img = conjugate(h, x)
    assert img == PhasedPauli(0, 0, np.array([1, 0], dtype=np.uint8))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugate_matches_dense(n, rng):
    for _ in range(15):
        desc = random_circuit(n, 10, rng)
        u = circuit_to_dense(desc)
        rep = circuit_to_rep(desc)
        ps = all_phased_paulis(n)
        picks = ps if n == 1 else [ps[int(i)] for i in rng.choice(len(ps), 12)]
        for p in picks:
            img = conjugate(rep, p)
            assert np.allclose(
                u @ pauli_to_dense(p) @ u.conj().T, pauli_to_dense(img), atol=1e-9
            )


def test_compose_identity_and_inverse():
    s = standard_gate("S", (0,), 1)
    ident = CliffordRep.identity(1)
    assert compose(ident, s) == s
    assert compose(s, ident) == s
    assert compose(inverse(s), s).is_identity()


def test_compose_matches_extraction(rng):
    for n in (1, 2, 3):
        for _ in range(10):
            desc = random_circuit(n, 12, rng)
            assert circuit_to_rep(desc) == extract_rep(circuit_to_dense(desc))


def test_composite_action_equals_nested(rng):
    n = 2
    for _ in range(10):
        outer = circuit_to_rep(random_circuit(n, 8, rng))
        inner = circuit_to_rep(random_circuit(n, 8, rng))
        both = compose(outer, inner)
        for j in range(2 * n):
            a = np.zeros(2 * n, dtype=np.uint8)
            a[j] = 1
            p = PhasedPauli(0, 0, a)
            assert conjugate(both, p) == conjugate(outer, conjugate(inner, p))


def test_inverse_cases(rng):
    assert inverse(CliffordRep.identity(2)).is_identity()
    pauli_rep = from_pauli(PhasedPauli(0, 0, [1, 0, 0, 1]))
    assert compose(inverse(pauli_rep), pauli_rep).is_identity()
    assert inverse(pauli_rep) == pauli_rep
    for _ in range(10):
        rep = circuit_to_rep(random_circuit(3, 14, rng))
        assert compose(inverse(rep), rep).is_identity()
        assert compose(rep, inverse(rep)).is_identity()


def test_inverse_matches_dense(rng):
    for n in (1, 2):
        for _ in range(8):
            desc = random_circuit(n, 10, rng)
            u = circuit_to_dense(desc)
            assert inverse(circuit_to_rep(desc)) == extract_rep(u.conj().T)


def test_from_pauli_values():
    assert from_pauli(PhasedPauli.identity(2)).is_identity()
    x = from_pauli(PhasedPauli(0, 0, [0, 1]))
    assert x.h.tolist() == [1, 0]
    zx = from_pauli(PhasedPauli(0, 0, [1, 0, 0, 1]))
    assert zx.h.tolist() == [0, 1, 1, 0]


def test_standard_gate_values():
    h = standard_gate("H", (0,), 1)
    assert np.array_equal(h.c, gf2.p_mat(1))
    assert not h.h.any()
    cx = standard_gate("CX", (0, 1), 2)
    x0 = PhasedPauli(0, 0, [0, 0, 1, 0])
    img = conjugate(cx, x0)
    assert img == PhasedPauli(0, 0, np.array([0, 0, 1, 1], dtype=np.uint8))
    x_gate = standard_gate("X", (0,), 2)
    assert x_gate == from_pauli(PhasedPauli(0, 0, [0, 0, 1, 0]))


def test_standard_gate_errors():
    with pytest.raises(ValueError):
        standard_gate("T", (0,), 1)
    with pytest.raises(ValueError):
        standard_gate("FOO", (0,), 1)
    with pytest.raises(ValueError):
        standard_gate("CX", (0, 5), 2)


def test_standard_gate_takes_a_list_of_qubits():
    # any sequence of qubits, as CircuitDescription and circuit_to_dense take
    assert standard_gate("CX", [0, 1], 2) == standard_gate("CX", (0, 1), 2)
    assert standard_gate("SWAP", [2, 0], 3) == standard_gate("SWAP", (2, 0), 3)
    with pytest.raises(ValueError, match="repeated qubit"):
        standard_gate("CZ", [1, 1], 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_gate_matches_the_embedded_extraction_at_every_placement(n):
    # the placed k-qubit rep against the rep read off the whole 2^n x 2^n gate
    for name, arity in GATE_ARITY.items():
        for qubits in itertools.permutations(range(n), arity):
            want = extract_rep(embed_gate_oracle(name, qubits, n))
            if want is None:
                with pytest.raises(ValueError, match=f"^{name} is not a Clifford gate$"):
                    standard_gate(name, qubits, n)
            else:
                assert standard_gate(name, qubits, n) == want, (name, qubits)


_H_FREE_CLIFFORDS = ("I", "X", "Y", "Z", "S", "SDG", "CX", "CZ", "SWAP")
_CLIFFORD_GATES = ("H", *_H_FREE_CLIFFORDS)


def _assert_tableau_matches(desc):
    rep = circuit_to_rep(desc)
    assert rep == circuit_to_rep_compose_oracle(desc) == extract_rep(circuit_to_dense(desc)), desc
    assert rep == circuit_to_rep_oracle(desc), desc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_circuit_to_rep_matches_composition_and_dense_on_random_circuits(n, rng):
    for _ in range(12):
        _assert_tableau_matches(random_circuit(n, 8 * n, rng, names=_CLIFFORD_GATES))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_circuit_to_rep_matches_composition_and_dense_at_every_placement(n, rng):
    # each gate after a random prefix, so the running C has d != 0 and
    # sign terms for the update to carry
    for name in _CLIFFORD_GATES:
        for qubits in itertools.permutations(range(n), GATE_ARITY[name]):
            prefix = random_circuit(n, 4 * n, rng, names=_CLIFFORD_GATES).gates
            _assert_tableau_matches(CircuitDescription(n, (*prefix, (name, qubits))))


def test_circuit_to_rep_rejects_a_gate_without_a_rep():
    for name in ("T", "TDG"):
        with pytest.raises(ValueError, match=f"^{name} is not a Clifford gate$"):
            circuit_to_rep(CircuitDescription(2, (("H", (0,)), (name, (1,)))))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_circuit_to_rep_matches_the_monomial_engine_past_the_hierarchy_cap(n, rng):
    # the Monomial engine shares no code with the rep placement
    for _ in range(3):
        desc = random_circuit(n, 40, rng, names=_H_FREE_CLIFFORDS)
        assert circuit_to_rep(desc) == extract_rep(circuit_to_monomial(desc))


@pytest.mark.parametrize("n", range(1, 13))
def test_circuit_to_rep_matches_the_numpy_tableau_bit_for_bit(n, rng):
    # the packed tableau against the uint8 row update it replaced, past
    # the dense cap too, including empty circuits
    names = ("H", "S", "SDG", "X", "Y", "Z", "CX", "CZ", "SWAP")
    for depth in (0, 1, 3 * n, 12 * n):
        desc = random_circuit(n, depth, rng, names=names)
        rep, want = circuit_to_rep(desc), circuit_to_rep_oracle(desc)
        assert np.array_equal(rep.c, want.c) and np.array_equal(rep.h, want.h), desc


_INVERSE_NAME = {"S": "SDG", "SDG": "S"}


def test_circuit_to_rep_past_the_dense_cap_reads_no_large_matrix(monkeypatch, rng):
    shapes = []

    def recording_extract_rep(u):
        shapes.append(np.shape(u))
        return extract_rep(u)

    circuits._gate_rep.cache_clear()
    circuits._gate_tableau.cache_clear()
    monkeypatch.setattr(circuits, "extract_rep", recording_extract_rep)
    n = 12
    desc = random_circuit(n, 60, rng, names=("H", "S", "SDG", "CX", "CZ", "SWAP", "Y"))
    assert "H" in {name for name, _ in desc.gates}
    rep = circuit_to_rep(desc)
    assert rep.n == n and not rep.is_identity()
    # the inverse circuit's rep undoes it
    undo = CircuitDescription(
        n, tuple((_INVERSE_NAME.get(name, name), qs) for name, qs in reversed(desc.gates))
    )
    assert compose(circuit_to_rep(undo), rep).is_identity()
    assert shapes and max(max(shape) for shape in shapes) <= 4


def test_conjugation_is_group_homomorphism(rng):
    ps1 = all_phased_paulis(1)
    for _ in range(5):
        rep = circuit_to_rep(random_circuit(1, 10, rng))
        for p in ps1:
            for q in ps1:
                assert conjugate(rep, pauli_mul(p, q)) == pauli_mul(
                    conjugate(rep, p), conjugate(rep, q)
                )
    for n in (2, 3):
        ps = all_phased_paulis(n)
        for _ in range(5):
            rep = circuit_to_rep(random_circuit(n, 10, rng))
            for _ in range(20):
                p = ps[int(rng.integers(len(ps)))]
                q = ps[int(rng.integers(len(ps)))]
                assert conjugate(rep, pauli_mul(p, q)) == pauli_mul(
                    conjugate(rep, p), conjugate(rep, q)
                )


def test_conjugate_preserves_hermiticity_class(rng):
    n = 2
    j = gf2.j_mat(n)
    ps = all_phased_paulis(n)
    for _ in range(10):
        rep = circuit_to_rep(random_circuit(n, 10, rng))
        for _ in range(20):
            p = ps[int(rng.integers(len(ps)))]
            if p.delta != gf2.quad_form(j, p.a):
                continue
            img = conjugate(rep, p)
            assert img.delta == gf2.quad_form(j, img.a)


def test_compose_associative(rng):
    n = 2
    for _ in range(15):
        a = circuit_to_rep(random_circuit(n, 8, rng))
        b = circuit_to_rep(random_circuit(n, 8, rng))
        c = circuit_to_rep(random_circuit(n, 8, rng))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_round_trip_extract_of_realization(rng):
    from semiclifford.expansion import rep_to_dense

    for name, qubits, n in (("H", (0,), 1), ("S", (0,), 1), ("CX", (0, 1), 2),
                            ("CZ", (0, 1), 2), ("SWAP", (0, 1), 2)):
        rep = standard_gate(name, qubits, n)
        assert extract_rep(rep_to_dense(rep)) == rep
    for _ in range(5):
        rep = circuit_to_rep(random_circuit(2, 12, rng))
        assert extract_rep(rep_to_dense(rep)) == rep


def _assert_table_matches_compose(reps):
    # product_table over the family and over two different stacks, compose
    # and inverse, each bit for bit against the scalar oracles
    cs = np.stack([q.c for q in reps])
    hs = np.stack([q.h for q in reps])
    k, m = len(reps), cs.shape[-1]
    table_c, table_h = product_table(cs, hs, cs, hs)
    assert table_c.shape == (k, k, m, m) and table_h.shape == (k, k, m)
    left = slice(0, k - 2)
    right = slice(1, k)
    part_c, part_h = product_table(cs[left], hs[left], cs[right], hs[right])
    assert part_c.shape == (k - 2, k - 1, m, m) and part_h.shape == (k - 2, k - 1, m)
    for i, outer in enumerate(reps):
        for j, inner in enumerate(reps):
            ref = compose_oracle(outer, inner)
            assert table_c[i, j].tobytes() == ref.c.tobytes()
            assert table_h[i, j].tobytes() == ref.h.tobytes()
            if left.start <= i < left.stop and right.start <= j < right.stop:
                assert part_c[i - left.start, j - right.start].tobytes() == ref.c.tobytes()
                assert part_h[i - left.start, j - right.start].tobytes() == ref.h.tobytes()
            got = compose(outer, inner)
            assert (got.c.tobytes(), got.h.tobytes()) == (ref.c.tobytes(), ref.h.tobytes())
        inv, ref = inverse(outer), inverse_oracle(outer)
        assert (inv.c.tobytes(), inv.h.tobytes()) == (ref.c.tobytes(), ref.h.tobytes())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_table_matches_compose_bitwise(n, rng):
    # random C and h: the family has non-commuting and non-involution pairs
    reps = [
        CliffordRep(circuit_to_rep(random_circuit(n, 10, rng)).c, rng.integers(0, 2, 2 * n))
        for _ in range(6)
    ]
    assert not all(reps_commute(a, b) for a in reps for b in reps)
    _assert_table_matches_compose(reps)


def test_product_table_matches_compose_on_the_uv_family():
    from semiclifford.pipeline import generators_from_gate, gottesman_mochon

    u, v = gottesman_mochon()
    _assert_table_matches_compose(reps_of(generators_from_gate(u @ v)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sign_data_matches_the_rep_and_each_matrix(n, rng):
    reps = [circuit_to_rep(random_circuit(n, 10, rng)) for _ in range(5)]
    j = gf2.j_mat(n)
    d, low = sign_data(np.stack([q.c for q in reps]))
    for q, dq, lq in zip(reps, d, low):
        cjc = gf2.mat_mul(gf2.mat_mul(q.c.T, j), q.c)
        assert np.array_equal(dq, np.diagonal(cjc))
        assert np.array_equal(lq, np.tril((cjc ^ np.outer(dq, dq)) & 1, -1))
        assert q.d.tobytes() == dq.tobytes() and q.lows_matrix.tobytes() == lq.tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_blas_stacked_products_equal_the_uint8_reference(n, rng):
    # symplectic_mask, sign_data and product_table take exact float32 BLAS
    # products on stacks of several matrices and uint8 ones on a stack of
    # one; both must give the uint8 reference's bits.  Random C's are
    # almost never symplectic, so each stack mixes in circuit reps.
    m = 2 * n
    for k, kr in ((1, 1), (1, 4), (3, 1), (5, 6)):
        cs, rcs = (rng.integers(0, 2, (s, m, m), dtype=np.uint8) for s in (k, kr))
        hs, rhs = (rng.integers(0, 2, (s, m), dtype=np.uint8) for s in (k, kr))
        for stack in (cs, rcs):
            stack[-1] = circuit_to_rep(random_circuit(n, 3 * n, rng)).c
        mask = gf2.symplectic_mask(cs)
        assert mask.tobytes() == symplectic_mask_uint8(cs).tobytes() and mask[-1]
        for got, want in zip(sign_data(cs), sign_data_uint8(cs)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for args in ((cs, hs, rcs, rhs), (cs, hs, cs, hs)):
            for got, want in zip(product_table(*args), product_table_uint8(*args)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
