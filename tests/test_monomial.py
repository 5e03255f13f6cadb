"""The monomial engine against the dense oracle.

Every check here runs the same question through a Monomial and through
its dense matrix and requires the same answer: Pauli membership, rep
extraction, hierarchy levels, generator families and their validation
failures.
"""

import itertools

import numpy as np
import pytest

from semiclifford.circuits import (
    GATE_ARITY,
    GATE_MATRICES,
    CircuitDescription,
    circuit_to_dense,
    circuit_to_monomial,
    embed_gate,
    random_circuit,
)
from semiclifford.dense import (
    TOL,
    Monomial,
    check_unitary,
    close,
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
    d = embed_gate(name, qubits, n)
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
    assert np.array_equal(a.dag().to_dense(), a.to_dense().conj().T)
    assert np.array_equal((-1.0 * a).to_dense(), -a.to_dense())
    assert np.array_equal((np.float64(-1.0) * a).to_dense(), -a.to_dense())
    assert np.array_equal(Monomial.from_dense(a.to_dense()).to_dense(), a.to_dense())
    assert close(a @ a.dag(), Monomial.identity(n))
    with pytest.raises(TypeError):
        a.to_dense() @ a
    with pytest.raises(TypeError):
        close(a, a.to_dense())
    with pytest.raises(ValueError, match="do not multiply"):
        a @ Monomial.identity(n + 1)
    with pytest.raises(ValueError, match="not monomial"):
        Monomial.from_dense(embed_gate("H", (0,), 1))


def test_close_matches_dense_close(rng):
    a = circuit_to_monomial(random_circuit(3, 10, rng, names=MONOMIAL_GATES))
    nudged = Monomial(a.perm, a.phases + np.where(np.arange(8) == 5, TOL / 2, 0))
    pushed = Monomial(a.perm, a.phases + np.where(np.arange(8) == 5, 2 * TOL, 0))
    swapped = Monomial(a.perm[[1, 0, 2, 3, 4, 5, 6, 7]], a.phases)
    for other in (a, nudged, pushed, swapped):
        assert close(a, other) == close(a.to_dense(), other.to_dense())
    assert close(a, nudged) and not close(a, pushed) and not close(a, swapped)


@pytest.mark.parametrize(
    "perm,phases",
    [
        ([0, 1, 2, 3], [1, 1j, -1, 1]),
        ([0, 0, 2, 3], [1, 1, 1, 1]),
        ([0, 1, 2, 3], [1, 1 + 1e-6, 1, 1]),
        ([3, 2, 1, 0], [1, 0.5, 1, 1]),
    ],
)
def test_check_unitary_matches_dense(perm, phases):
    m = Monomial(perm, phases)
    verdicts = []
    for u in (m, m.to_dense()):
        try:
            check_unitary(u)
            verdicts.append(True)
        except ValueError:
            verdicts.append(False)
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_conjugates_match_dense(n, rng):
    m = circuit_to_monomial(random_circuit(n, 10, rng, names=MONOMIAL_GATES))
    vectors = rng.integers(0, 2, size=(6, 2 * n)).astype(np.uint8)
    for cm, cd in zip(pauli_conjugates(m, vectors), pauli_conjugates(m.to_dense(), vectors)):
        assert isinstance(cm, Monomial)
        assert close(cm.to_dense(), cd)


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
    assert fam_m.qs == fam_d.qs
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
        GeneratorFamily(qs=family.qs, ops=tuple(ops), n=family.n).validate()
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
    dense = generators_from_gate(embed_gate("H", (0,), 1) @ embed_gate("T", (0,), 1))
    assert not dense.is_block_form()
    fake = GeneratorFamily(qs=dense.qs, ops=(Monomial.identity(1),) * 2, n=1)
    with pytest.raises(AssertionError, match="not in block form"):
        normalize_family(fake)
