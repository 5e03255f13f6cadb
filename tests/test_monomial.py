"""The monomial engine against the dense oracle.

Every check here runs the same question through a Monomial and through
its dense matrix and requires the same answer: Pauli membership, rep
extraction, hierarchy levels, generator families and their validation
failures.
"""

import itertools

import numpy as np
import pytest

from helpers import (
    embed_gate_oracle,
    monomial_exponents_oracle,
    random_circuit,
    reps_of,
    stack_ops,
)
from semiclifford.circuits import (
    GATE_ARITY,
    GATE_MATRICES,
    CircuitDescription,
    _gate_monomial,
    circuit_to_dense,
    circuit_to_monomial,
)
from semiclifford.dense import (
    TOL,
    Monomial,
    _close_stack,
    _Dense,
    check_unitary,
    close,
    close_up_to_phase,
    extract_rep,
    hierarchy_level,
    is_pauli,
    pauli_conjugates,
)
from semiclifford.pauli import PhasedPauli, pauli_to_dense
from semiclifford.pipeline import (
    GeneratorFamily,
    generators_from_gate,
    gottesman_mochon,
    normalize_family,
)

MONOMIAL_GATES = tuple(name for name in GATE_MATRICES if name != "H")


def _embedded_library_gates(max_n=3):
    for n in range(1, max_n + 1):
        for name in MONOMIAL_GATES:
            for qubits in itertools.permutations(range(n), GATE_ARITY[name]):
                yield n, name, qubits


def _one_gate(n, name, qubits):
    return CircuitDescription(n=n, gates=((name, qubits),))


def _assert_same_verdicts(m, d, kmax=3):
    assert is_pauli(m) == is_pauli(d)
    assert extract_rep(m) == extract_rep(d)
    assert hierarchy_level(m, kmax=kmax) == hierarchy_level(d, kmax=kmax)


@pytest.mark.parametrize("n,name,qubits", list(_embedded_library_gates()))
def test_library_gate_verdicts_match_dense(n, name, qubits):
    m = circuit_to_monomial(_one_gate(n, name, qubits))
    d = embed_gate_oracle(name, qubits, n)
    assert np.array_equal(m.to_dense(), d)
    _assert_same_verdicts(m, d)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_random_monomial_circuits_match_dense(n, rng):
    for depth in (3, 8, 20):
        desc = random_circuit(n, depth, rng, names=MONOMIAL_GATES)
        m = circuit_to_monomial(desc)
        d = circuit_to_dense(desc)
        assert close(m.to_dense(), d)
        _assert_same_verdicts(m, d, kmax=3 if n <= 4 else 2)


def test_circuit_to_monomial_builds_the_pair_exactly():
    u, v = gottesman_mochon()
    cswaps = tuple(("CSWAP", (6, i, 3 + i)) for i in range(3))
    cczs = tuple(("CCZ", t) for t in ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2)))
    assert np.array_equal(u.to_dense(), circuit_to_dense(CircuitDescription(7, cswaps)))
    assert np.array_equal(v.to_dense(), circuit_to_dense(CircuitDescription(7, cczs)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_circuit_to_monomial_none_with_h(n, rng):
    for _ in range(5):
        desc = random_circuit(n, 6, rng, names=MONOMIAL_GATES)
        pos = int(rng.integers(0, len(desc.gates) + 1))
        gates = desc.gates[:pos] + (("H", (int(rng.integers(0, n)),)),) + desc.gates[pos:]
        assert circuit_to_monomial(CircuitDescription(n, gates)) is None


def test_monomial_algebra_matches_dense(rng):
    n = 4
    a = circuit_to_monomial(random_circuit(n, 12, rng, names=MONOMIAL_GATES))
    b = circuit_to_monomial(random_circuit(n, 12, rng, names=MONOMIAL_GATES))
    assert close((a @ b).to_dense(), a.to_dense() @ b.to_dense())
    # fl(e^{i pi/4}) has unequal real and imaginary parts, so omega**5 is
    # not conj(omega**3) bit for bit: the adjoint and the negation are
    # exponent identities, and close to their dense counterparts
    dag = a.dag()
    assert np.array_equal(dag.perm[a.perm], np.arange(1 << n))
    assert np.array_equal(dag.exps[a.perm], -a.exps & 7)
    assert close(dag.to_dense(), a.to_dense().conj().T)
    for minus in (-1.0 * a, np.float64(-1.0) * a, -1 * a, (-1 + 0j) * a):
        assert np.array_equal(minus.perm, a.perm)
        assert np.array_equal(minus.exps, (a.exps + 4) & 7)
        assert close(minus.to_dense(), -a.to_dense())
    assert np.array_equal(Monomial.from_dense(a.to_dense()).to_dense(), a.to_dense())
    assert close(a @ a.dag(), Monomial.identity(n))
    with pytest.raises(TypeError):
        a.to_dense() @ a
    with pytest.raises(TypeError):
        close(a, a.to_dense())
    with pytest.raises(ValueError, match="do not multiply"):
        a @ Monomial.identity(n + 1)
    with pytest.raises(ValueError, match="not monomial"):
        Monomial.from_dense(GATE_MATRICES["H"])


def test_close_matches_dense_close(rng):
    a = circuit_to_monomial(random_circuit(3, 10, rng, names=MONOMIAL_GATES))
    nudge, push = (np.where(np.arange(8) == 5, x, 0) for x in (TOL / 2, 2 * TOL))
    nudged = Monomial(a.perm, a.phases + nudge)  # snapped back onto a's exponents
    stepped = Monomial(a.perm, a.phases * np.where(np.arange(8) == 5, 1j, 1))
    swapped = Monomial(a.perm[[1, 0, 2, 3, 4, 5, 6, 7]], a.phases)
    for other in (a, nudged, stepped, swapped):
        assert close(a, other) == close(a.to_dense(), other.to_dense())
    assert close(a, nudged) and not close(a, stepped) and not close(a, swapped)
    assert np.array_equal(nudged.exps, a.exps)
    # a phase 2 TOL off its eighth root is no Monomial; the dense matrices
    # keep their own verdicts on either side of TOL
    with pytest.raises(ValueError, match="^phase not within TOL of an eighth root of unity$"):
        Monomial(a.perm, a.phases + push)
    for bump, want in ((nudge, True), (push, False)):
        raw = a.to_dense()
        raw[a.perm, np.arange(8)] += bump
        assert close(a.to_dense(), raw) is want


def _random_stack(n, k, rng):
    return stack_ops(
        [circuit_to_monomial(random_circuit(n, 10, rng, names=MONOMIAL_GATES)) for _ in range(k)]
    )


def test_stack_product_is_the_pairwise_product(rng):
    a, b = _random_stack(3, 5, rng), _random_stack(3, 5, rng)
    prod = a @ b
    assert prod.shape == (5, 8, 8)
    for t in range(5):
        one = a[t] @ b[t]
        assert np.array_equal(prod.perm[t], one.perm) and np.array_equal(prod.phases[t], one.phases)
    assert _close_stack(prod.to_dense(), a.to_dense() @ b.to_dense()).all()


def test_stack_product_rejects_unequal_stacks_and_dense_operands(rng):
    a = _random_stack(3, 5, rng)
    for other in (a[:4], _random_stack(2, 5, rng), a[0]):
        with pytest.raises(ValueError, match="do not multiply"):
            a @ other
    for left, right in ((a, a.to_dense()), (a.to_dense(), a), (a[0], a[0].to_dense())):
        with pytest.raises(TypeError):
            left @ right
    with pytest.raises(TypeError):
        _close_stack(a, a.to_dense())


@pytest.mark.parametrize("monomial", [True, False])
def test_stacked_close_is_close_on_each_matrix(monomial, rng):
    for n in (2, 3, 4):
        us = _random_stack(n, 6, rng)
        column = np.arange(1 << n) == 3
        nudge = np.where(column, TOL / 2, 0)
        vs = stack_ops([us[0], -1.0 * us[1], us[2], us[3], us[4], us[0]])
        if monomial:
            # phases snap to the eighth roots: a nudge within TOL snaps back,
            # and the Monomial past TOL is one exponent step off instead
            within = Monomial(us[3].perm, us[3].phases + nudge)
            past = Monomial(us[4].perm, us[4].phases * np.where(column, 1j, 1))
            vs = stack_ops([vs[0], vs[1], vs[2], within, past, vs[5]])
        else:
            us, vs = us.to_dense(), vs.to_dense()
            vs[3][:, 3] += np.where(vs[3][:, 3] != 0, TOL / 2, 0)  # within TOL
            vs[4][:, 3] += np.where(vs[4][:, 3] != 0, 2 * TOL, 0)  # past TOL
        signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        assert _close_stack(us, vs).tolist() == [close(u, v) for u, v in zip(us, vs)]
        want = [close(u, s * v) for u, v, s in zip(us, vs, signs)]
        assert _close_stack(us, vs, signs).tolist() == want == [True, True, False, True, False, False]
        assert _close_stack(us, vs[0]).tolist() == [close(u, vs[0]) for u in us]


def _bumps(phases, phase):
    """phase * phases, off by +0.8 TOL at column c and by -0.8 TOL at
    column c + 1, for each column c."""
    for c in range(8):
        bump = np.zeros(8, dtype=complex)
        bump[c] += 0.8 * TOL
        bump[(c + 1) % 8] -= 0.8 * TOL
        yield c, phase * phases + bump


def test_close_up_to_phase_matches_dense(rng):
    a = circuit_to_monomial(random_circuit(3, 10, rng, names=MONOMIAL_GATES))
    swap = [1, 0, 2, 3, 4, 5, 6, 7]
    # Monomials hold eighth roots only: a global phase omega**3 is one
    # shift of every exponent, the bumped phases snap back onto it, and
    # e^{0.7i} and 2 are no scalar of a Monomial
    omega3 = np.exp(3j * np.pi / 4)
    one_off = Monomial(a.perm, a.phases * np.where(np.arange(8) == 2, 1j, 1))
    others = [omega3 * a, Monomial(a.perm[swap], a.phases), one_off]
    others += [Monomial(a.perm, phases) for _, phases in _bumps(a.phases, omega3)]
    verdicts = [close_up_to_phase(u, a) for u in others]
    assert verdicts == [close_up_to_phase(u.to_dense(), a.to_dense()) for u in others]
    assert verdicts == [True, False, False] + [True] * 8
    for scalar in (np.exp(0.7j), 2.0):
        with pytest.raises(ValueError, match="^phase not within TOL of an eighth root of unity$"):
            scalar * a
    # dense matrices keep their own borderline verdicts: the entry the
    # global phase is read at decides them, so u = phase v with the bumps
    # passes when the phase is read at neither bumped column
    scaled = a.to_dense() * np.array([1, 0.5, 1, 2, 2, 1, 0.5, 1])
    phase = np.exp(0.7j)
    for v in (a.to_dense(), scaled):
        at = int(np.abs(v).argmax()) % 8  # the column the phase is read at
        assert close_up_to_phase(phase * v, v) and close_up_to_phase(2.0 * v, v) is False
        assert close_up_to_phase(v[:, swap], v) is False
        rows = np.abs(v).argmax(axis=0)
        for c, phases in _bumps(v[rows, np.arange(8)], phase):
            u = np.zeros_like(v)
            u[rows, np.arange(8)] = phases
            assert close_up_to_phase(u, v) or at in (c, (c + 1) % 8)
    with pytest.raises(TypeError):
        close_up_to_phase(a, a.to_dense())


@pytest.mark.parametrize(
    "perm,phases",
    [
        ([0, 1, 2, 3], [1, 1j, -1, 1]),
        ([0, 0, 2, 3], [1, 1, 1, 1]),
        ([0, 1, 2, 3], [1, 1 + 1e-6, 1, 1]),
        ([3, 2, 1, 0], [1, 0.5, 1, 1]),
        ([0, 1, 2, 3], [1, 1 + TOL / 4, 1, 1]),
        ([0, 1, 2, 3], [1, 1 + 2 * TOL, 1, 1]),
    ],
)
def test_check_unitary_matches_dense(perm, phases):
    raw = np.zeros((4, 4), dtype=complex)
    raw[perm, np.arange(4)] = phases
    try:
        m = Monomial(perm, phases)
    except ValueError as exc:
        # a phase off the eighth roots is no Monomial, and no unitary
        # has it: the dense matrix fails too
        assert str(exc) == "phase not within TOL of an eighth root of unity"
        with pytest.raises(ValueError, match="^matrix is not unitary$"):
            check_unitary(raw)
        return
    verdicts = []
    for u in (m, m.to_dense(), raw):
        try:
            check_unitary(u)
            verdicts.append(True)
        except ValueError:
            verdicts.append(False)
    assert verdicts[0] == verdicts[1] == verdicts[2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_conjugates_match_dense(n, rng):
    m = circuit_to_monomial(random_circuit(n, 10, rng, names=MONOMIAL_GATES))
    vectors = rng.integers(0, 2, size=(6, 2 * n)).astype(np.uint8)
    for cm, cd in zip(pauli_conjugates(m, vectors), pauli_conjugates(m.to_dense(), vectors)):
        assert isinstance(cm, Monomial)
        assert close(cm.to_dense(), cd)
    # the engines' dag and conjugates on stacks of k matrices
    for k in range(1, 6):
        us = _random_stack(n, k, rng)
        ds = us.to_dense()
        # omega**5 is not conj(omega**3) bit for bit: the adjoint is the
        # inverse permutation with negated exponents, close to _Dense.dag
        dag = us.dag()
        rows = np.arange(k)[:, None]
        assert (dag.perm[rows, us.perm] == np.arange(1 << n)).all()
        assert np.array_equal(dag.exps[rows, us.perm], -us.exps & 7)
        assert _Dense.close(dag.to_dense(), _Dense.dag(ds)).all()
        got = Monomial.conjugates(us, us.dag(), vectors)
        assert _Dense.close(got.to_dense(), _Dense.conjugates(ds, _Dense.dag(ds), vectors)).all()


@pytest.mark.parametrize("perm", [[0, 0, 3, 3], [[0, 1, 2, 3], [1, 1, 2, 3]]])
def test_dag_and_conjugates_reject_a_permutation_that_is_not_a_bijection(perm):
    # the unassigned entries of the inverse table were uninitialized memory
    u = Monomial(perm, np.ones(np.shape(perm)))
    with pytest.raises(ValueError, match="not a bijection"):
        u.dag()
    if u.ndim == 2:
        with pytest.raises(ValueError, match="not a bijection"):
            pauli_conjugates(u, np.eye(4, dtype=np.uint8))


@pytest.mark.parametrize(
    "phases", [[1e-12, 1e-12], [1, 0], [TOL, 1], [[1, 1], [1, -TOL / 2]]]
)
def test_monomial_rejects_a_phase_within_tol_of_zero(phases):
    # close and close_up_to_phase read every phase as a nonzero entry: two
    # Monomials of phases 1e-12 were far apart, though their dense matrices
    # are close, and a zero phase divided by zero; every phase now snaps to
    # an eighth root of unity, so small phases, and NaN, raise with the
    # off-grid ones
    message = "^phase not within TOL of an eighth root of unity$"
    with pytest.raises(ValueError, match=message):
        Monomial(np.broadcast_to([0, 1], np.shape(phases)), phases)
    for bad in ([2 * TOL, 2 * TOL], [1, np.nan], [1, 0.5], [1, np.exp(0.3j)]):
        with pytest.raises(ValueError, match=message):
            Monomial([1, 0], bad)


@pytest.mark.parametrize("perm", [[-1, 0, 1, 2], [4, 0, 1, 2], [[0, 1, 2, 3], [1, 2, 3, -4]]])
def test_monomial_rejects_a_permutation_entry_out_of_range(perm):
    # a negative entry used to wrap round to the end of its row, and an
    # entry of at least 2^n to raise a bare IndexError from the first gather
    with pytest.raises(ValueError, match=r"permutation entry outside \[0, 4\)"):
        Monomial(perm, np.ones(np.shape(perm)))


@pytest.mark.parametrize(
    "perm",
    [
        [0.7, 1.2, 2.9, 3.0],
        np.array([1.0, 0.0, 2.0, 3.0]),
        [True, False, True, False],
        ["1", "0", "2", "3"],
        [[0, 1, 2, 3], [1, 0, 3, 2.5]],
    ],
)
def test_monomial_rejects_a_permutation_entry_that_is_not_an_integer(perm):
    # floats were truncated, bools read as labels 0 and 1 and numeric
    # strings parsed, all before the range check saw them
    with pytest.raises(ValueError, match="permutation entries must be integers"):
        Monomial(perm, np.ones(np.shape(perm)))


@pytest.mark.parametrize(
    "perm",
    [
        [1, 0, 3, 2],
        (1, 0, 3, 2),
        *(np.array([1, 0, 3, 2], dtype=t) for t in (np.uint8, np.int16, np.uint32, np.int64)),
        np.array([[1, 0, 3, 2], [0, 1, 2, 3]], dtype=np.uint64),
    ],
)
def test_monomial_accepts_integer_permutations_of_any_width(perm):
    u = Monomial(perm, np.ones(np.shape(perm)))
    assert u.perm.dtype == np.intp
    assert np.array_equal(u.perm, np.asarray(perm, dtype=np.int64))


def test_stack_product_reads_each_matrix_of_its_own_stack(rng):
    # the stacked product is one flat gather over all matrices; each
    # column must still read the row of its own matrix
    a, b = _random_stack(2, 6, rng), _random_stack(2, 6, rng)
    for index in (np.s_[::2], np.s_[::-1], [5, 0, 3]):
        prod = a[index] @ b[index]
        for t, (x, y) in enumerate(zip(a[index], b[index])):
            one = x @ y
            assert np.array_equal(prod.perm[t], one.perm)
            assert prod.phases[t].tobytes() == one.phases.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_is_pauli_on_every_phased_pauli(n):
    for delta, eps, bits in itertools.product((0, 1), (0, 1), range(1 << (2 * n))):
        p = PhasedPauli(delta, eps, [(bits >> k) & 1 for k in range(2 * n)])
        m = Monomial.from_dense(pauli_to_dense(p))
        assert is_pauli(m) == p
        assert is_pauli(np.exp(1j * np.pi / 4) * m) is None


def _uv():
    u, v = gottesman_mochon()
    return u @ v


def test_uv_family_reps_match_dense():
    uv = _uv()
    fam_m = generators_from_gate(uv)
    fam_d = generators_from_gate(uv.to_dense())
    assert all(isinstance(op, Monomial) for op in fam_m.ops)
    assert reps_of(fam_m) == reps_of(fam_d)
    for om, od in zip(fam_m.ops, fam_d.ops):
        assert close(om.to_dense(), od)


def _families():
    u = circuit_to_monomial(
        CircuitDescription(3, (("CX", (0, 1)), ("CCZ", (0, 1, 2)), ("T", (2,)), ("SWAP", (1, 2))))
    )
    return generators_from_gate(u), generators_from_gate(u.to_dense())


def _flip_one_phase(op):
    if isinstance(op, Monomial):
        phases = op.phases.copy()
        phases[0] = -phases[0]
        return Monomial(op.perm, phases)
    out = op.copy()
    row = int(np.flatnonzero(np.abs(out[:, 0]) > TOL)[0])
    out[row, 0] = -out[row, 0]
    return out


def _validate_error(family, k, mutate):
    ops = list(family.ops)
    ops[k] = mutate(ops[k])
    with pytest.raises(ValueError) as exc:
        GeneratorFamily(family.cs, family.hs, stack_ops(ops)).validate()
    return str(exc.value)


def test_mutant_sign_pattern_fails_alike():
    fam_m, fam_d = _families()
    msgs = [_validate_error(fam, 0, _flip_one_phase) for fam in (fam_m, fam_d)]
    assert msgs[0] == msgs[1]
    assert "break the sign pattern" in msgs[0]


def test_mutant_square_fails_alike():
    fam_m, fam_d = _families()
    msgs = [_validate_error(fam, 4, lambda op: 1j * op) for fam in (fam_m, fam_d)]
    assert msgs[0] == msgs[1] == "generator op 4 does not square to I"


def test_monomial_family_is_block_form_for_every_library_gate():
    # a monomial Clifford maps diagonal Paulis to diagonal Paulis
    for n, name, qubits in _embedded_library_gates():
        fam = generators_from_gate(circuit_to_monomial(_one_gate(n, name, qubits)))
        assert fam.is_block_form()
    assert generators_from_gate(_uv()).is_block_form()


def test_normalize_family_refuses_monomial_family_outside_block_form():
    # reps of H T are not in block form; Monomial ops never come with such reps
    dense = generators_from_gate(GATE_MATRICES["H"] @ GATE_MATRICES["T"])
    assert not dense.is_block_form()
    fake = GeneratorFamily(dense.cs, dense.hs, stack_ops((Monomial.identity(1),) * 2))
    with pytest.raises(AssertionError, match="not in block form"):
        normalize_family(fake)


def test_monomial_repr_prints_qubits_or_shape():
    assert repr(Monomial.identity(3)) == "Monomial(n=3)"
    assert repr(Monomial.identity(2)[None]) == "Monomial(n=2)"
    # no valid qubit count: the repr shows the shape and never raises
    assert repr(Monomial.identity(0)) == "Monomial(shape=(1, 1))"
    assert repr(Monomial(np.arange(3), np.ones(3))) == "Monomial(shape=(3, 3))"


@pytest.mark.parametrize("scalar", [0, 1e-12, np.nan, np.exp(0.3j), np.float64(1e-12)])
def test_scalar_products_keep_the_constructor_phase_rule(scalar):
    # a scalar product wrapped any phase unchecked: 1e-12 * m held phases
    # the constructor rejects, and close of two such products was False
    # where close of their dense matrices is True
    for m in (Monomial.identity(1), Monomial([1, 0], [1, 1]), Monomial.identity(2)[None]):
        with pytest.raises(ValueError, match="^phase not within TOL of an eighth root of unity$"):
            scalar * m


@pytest.mark.parametrize("n", [8, 9, 10])
def test_exponents_equal_the_integer_oracle_past_the_dense_oracle(n):
    # no dense matrix is built: the oracle follows each basis state
    rng = np.random.default_rng(3700 + n)
    for depth in (5, 40):
        desc = random_circuit(n, depth, rng, names=("T", "TDG", "S", "CCZ", "CSWAP"))
        u = circuit_to_monomial(desc)
        perm, exps = monomial_exponents_oracle(desc)
        assert u.exps.dtype == np.uint8
        assert np.array_equal(u.perm, perm) and np.array_equal(u.exps, exps)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_t_eight_times_on_every_qubit_is_exactly_the_identity(n):
    desc = CircuitDescription(n, tuple(("T", (q,)) for q in range(n) for _ in range(8)))
    u, ident = circuit_to_monomial(desc), Monomial.identity(n)
    assert np.array_equal(u.perm, ident.perm) and np.array_equal(u.exps, ident.exps)
    if n <= 3:
        assert np.array_equal(u.to_dense(), np.eye(1 << n))


@pytest.mark.parametrize("name", MONOMIAL_GATES)
def test_library_gate_phases_are_their_matrix_entries_bit_for_bit(name):
    gate, m = GATE_MATRICES[name], _gate_monomial(name)
    assert m.phases.tobytes() == gate[m.perm, np.arange(len(gate))].tobytes()
    assert m.to_dense().tobytes() == gate.tobytes()
    assert not m.phases.flags.writeable
