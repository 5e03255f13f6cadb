"""The stacked engine against the scalar oracles in helpers.

The library conjugates and Pauli-tests whole stacks of dense matrices
or Monomials; helpers keeps the one-matrix-at-a-time dense engine as
its oracle.  Verdicts, read-off Paulis, reps, hierarchy levels,
witnesses and searched counts must agree exactly, near-misses must
fall on the same side of TOL in either form, and no stack may outgrow
the bound that keeps n = 7 memory at one matrix.
"""

import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    all_phased_paulis,
    conjugate_oracle,
    embed_gate_oracle,
    extract_rep_oracle,
    gsc_search_oracle,
    hierarchy_level_oracle,
    is_pauli_oracle,
    kron_pauli_to_dense,
    random_c3_gate,
    random_circuit,
    semi_clifford_oracle,
    stack_ops,
)
import semiclifford
from semiclifford import gf2
from semiclifford.circuits import (
    GATE_ARITY,
    GATE_MATRICES,
    circuit_to_dense,
    circuit_to_monomial,
    parse_circuit,
)
from semiclifford.classify import is_generalized_semi_clifford, is_semi_clifford
from semiclifford.dense import (
    TOL,
    _STACK_ENTRIES,
    Monomial,
    _conjugate_chunks,
    _Dense,
    _pauli_stack,
    _per_stack,
    extract_rep,
    hierarchy_level,
    is_pauli,
)
from semiclifford.pauli import PhasedPauli
from semiclifford.pipeline import generators_from_gate, gottesman_mochon

OMEGA = np.exp(1j * np.pi / 4)


def _stack_results(stack):
    ok, bits, a = _pauli_stack(stack if isinstance(stack, Monomial) else np.asarray(stack))
    return [PhasedPauli(*b, x) if good else None for good, b, x in zip(ok, bits, a)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stack_test_equals_oracle_on_every_phased_pauli(n):
    paulis = all_phased_paulis(n)
    stack = np.array([kron_pauli_to_dense(p) for p in paulis])
    assert _stack_results(stack) == paulis
    assert [is_pauli_oracle(m) for m in stack] == paulis
    assert [is_pauli(m) for m in stack] == paulis
    off_grid = OMEGA * stack
    assert _stack_results(off_grid) == [None] * len(paulis)
    assert [is_pauli_oracle(m) for m in off_grid] == [None] * len(paulis)


def _near_miss_positions(p):
    """(row, col) of the column-0 entry, an |e_i> entry, another
    nonzero entry and, last, a zero entry of a dense Pauli."""
    d = kron_pauli_to_dense(p)
    dim = d.shape[0]
    row0 = int(np.flatnonzero(d[:, 0])[0])
    col_e = dim >> 1
    last = dim - 1
    zero_row = (int(np.flatnonzero(d[:, last])[0]) + 1) % dim
    return [(row0, 0), (int(np.flatnonzero(d[:, col_e])[0]), col_e),
            (int(np.flatnonzero(d[:, last])[0]), last), (zero_row, last)]


@pytest.mark.parametrize("n", [1, 2])
def test_near_misses_fall_on_the_same_side_of_tol(n):
    for p in all_phased_paulis(n):
        positions = _near_miss_positions(p)
        for pos in positions:
            for offset, expected in ((2 * TOL, None), (TOL / 2, p)):
                m = kron_pauli_to_dense(p)
                m[pos] += offset
                assert _stack_results(m[None]) == [expected], (p, pos, offset)
                assert is_pauli_oracle(m) == expected, (p, pos, offset)
                if pos == positions[-1]:
                    continue  # a perturbed zero entry has no Monomial form
                if offset > TOL:  # no eighth root is within TOL of the entry
                    with pytest.raises(ValueError, match="eighth root"):
                        Monomial.from_dense(m)
                    continue
                mono = Monomial.from_dense(m)  # the entry snaps back onto p's
                assert _stack_results(mono[None]) == [expected], (p, pos, offset)
                assert is_pauli(mono) == expected, (p, pos, offset)


def _library_placements(n):
    for name, arity in GATE_ARITY.items():
        if arity <= n:
            for qubits in itertools.permutations(range(n), arity):
                yield name, qubits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rep_and_level_match_oracle_on_every_library_placement(n):
    kmax = 4 if n <= 2 else 3
    for name, qubits in _library_placements(n):
        u = embed_gate_oracle(name, qubits, n)
        assert extract_rep(u) == extract_rep_oracle(u), (name, qubits)
        assert hierarchy_level(u, kmax=kmax) == hierarchy_level_oracle(u, kmax), (name, qubits)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rep_and_level_match_oracle_on_random_clifford_t(n):
    rng = np.random.default_rng(900 + n)
    kmax = 4 if n <= 2 else 3
    for depth in (1, 2, 3, 5, 8, 12):
        u = circuit_to_dense(random_circuit(n, depth, rng, names=("H", "T", "CX")))
        assert extract_rep(u) == extract_rep_oracle(u)
        assert hierarchy_level(u, kmax=kmax) == hierarchy_level_oracle(u, kmax)


def _clifford_t_layers(n, layers, rng):
    """Layers of H and T or T^dag on every qubit, then a CX chain."""
    lines = [f"qubits {n}"]
    for _ in range(layers):
        for q in range(n):
            lines += [f"H {q}", f"{rng.choice(['T', 'TDG'])} {q}"]
        lines += [f"CX {q} {q + 1}" for q in range(n - 1)]
    return circuit_to_dense(parse_circuit("\n".join(lines)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_searches_match_oracles_on_cdc_and_clifford_t(n):
    rng = np.random.default_rng(910 + n)
    gates = [random_c3_gate(n, rng) for _ in range(3)]
    gates += [_clifford_t_layers(n, layers, rng) for layers in (1, 3)]
    verdicts = []
    for u in gates:
        semi = is_semi_clifford(u)
        assert semi == semi_clifford_oracle(u)
        assert is_generalized_semi_clifford(u) == gsc_search_oracle(u)
        verdicts.append(semi[0])
    assert verdicts[:3] == [True] * 3
    assert False in verdicts


@pytest.mark.parametrize("n,count", [(4, 10), (7, 2)])
def test_conjugate_chunks_respect_the_stack_bound(n, count):
    rng = np.random.default_rng(920 + n)
    us = np.array([circuit_to_dense(random_circuit(n, 10, rng, ("H", "T", "CX"))) for _ in range(count)])
    vectors = gf2.ident(2 * n)
    chunks = list(_conjugate_chunks(us, vectors))
    assert all(c.size <= max(_STACK_ENTRIES, us[0].size) for c in chunks)
    got = np.concatenate(chunks)
    want = [conjugate_oracle(u, a) for u in us for a in vectors]
    assert got.shape == (count * 2 * n, 1 << n, 1 << n)
    assert all(np.abs(g - w).max() <= TOL for g, w in zip(got, want))


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_seven_qubit_dense_tests_stay_at_one_matrix_of_memory():
    # an unchunked stack of the 14 (or 196) conjugates would need about
    # 14 times the single-matrix peak
    clifford = circuit_to_dense(parse_circuit("qubits 7\nH 0\n"))
    gate = circuit_to_dense(parse_circuit("qubits 7\nH 0\nT 1\n"))
    assert extract_rep(clifford) is not None
    assert hierarchy_level(gate, kmax=3) == 3
    assert _peak_mib(lambda: extract_rep(clifford)) <= 2
    assert _peak_mib(lambda: hierarchy_level(gate, kmax=3)) <= 2
    # stacked Monomial recursion is chunked as well: its stacks stay
    # within _STACK_ENTRIES instead of growing as (2n)^k 2^n with level k
    u, v = gottesman_mochon()
    uv = u @ v
    assert hierarchy_level(uv, kmax=3) == 3
    assert _peak_mib(lambda: hierarchy_level(uv, kmax=3)) <= 2


def test_seven_qubit_dense_family_holds_two_stacks_of_its_ops():
    # the 14 conjugates take 3.5 MiB, and building them holds two such
    # stacks; an adjoint of the whole stack in the Clifford test would
    # add a third
    gate = circuit_to_dense(parse_circuit("qubits 7\nH 0\nCX 0 1\nS 1\nCCZ 2 3 4\nH 0\n"))
    assert generators_from_gate(gate).ops.shape == (14, 128, 128)
    assert _peak_mib(lambda: generators_from_gate(gate)) <= 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_engines_read_stack_and_size_alike(n, rng):
    # entries, stack, from_monomial and the stored entries per matrix, the
    # engine methods no verdict test reaches one by one
    d = 1 << n
    names = tuple(name for name in GATE_MATRICES if name != "H")
    gates = [circuit_to_monomial(random_circuit(n, 10, rng, names=names)) for _ in range(5)]
    gates.append(Monomial(np.zeros(d, dtype=int), np.ones(d)))  # not a bijection
    for k in range(1, 6):
        us = stack_ops(gates[-k:])
        ds = us.to_dense()
        rows, cols = rng.integers(0, d, size=(k, 3)), rng.integers(0, d, size=3)
        assert np.array_equal(Monomial.entries(us, rows, cols), _Dense.entries(ds, rows, cols))
        assert np.array_equal(Monomial.stack(list(us)).to_dense(), _Dense.stack(list(ds)))
        assert Monomial.stored(us)[0].size == d and _Dense.stored(ds)[0].size == d * d
        assert _per_stack(us) == max(1, _STACK_ENTRIES // d)
        assert _per_stack(ds, 2) == max(1, _STACK_ENTRIES // (2 * d * d))
    identity = Monomial.identity(n)
    assert Monomial.from_monomial(identity) is identity
    assert np.array_equal(_Dense.from_monomial(identity), np.eye(d))
    with pytest.raises(TypeError):
        _per_stack(list(ds))


def _monomial_type_tests(node, scope=""):
    """Yield the scope (dotted def and class names) of every isinstance
    call under node that names Monomial."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
            named = {getattr(x, "id", getattr(x, "attr", None)) for x in ast.walk(child.args[1])}
            if "Monomial" in named:
                yield scope
        yield from _monomial_type_tests(child, inner)


def test_only_the_engine_dispatch_tests_for_a_monomial():
    # the storage format is decided once, in dense._engine; shared code
    # calls the engine's methods instead of testing the operator's type
    sites = [
        f"{path.stem}.{scope}"
        for path in sorted(Path(semiclifford.__file__).parent.glob("*.py"))
        for scope in _monomial_type_tests(ast.parse(path.read_text()))
    ]
    outside = [s for s in sites if not s.startswith("dense.Monomial.")]
    assert outside == ["dense._engine"]
