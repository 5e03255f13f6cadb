"""The Monomial Clifford test against the dense Pauli-stack test.

_clifford_stack reads a Monomial stack's reps off each permutation as
an affine map and off its exponent differences; a dense stack goes
through the conjugates of all 2n generators and _pauli_stack.  The two
must give the same result, None or the same (C^T, h) bits, on every
operator below.  Near-misses of TOL are no Monomials: a phase snaps to
its eighth root or raises, and the dense test keeps its own verdicts
on the raw matrices.
"""

import itertools

import numpy as np
import pytest

from helpers import random_circuit, random_monomial_c3_gate
from semiclifford import gf2
from semiclifford.circuits import GATE_ARITY, GATE_MATRICES, CircuitDescription, circuit_to_monomial
from semiclifford.dense import (
    TOL,
    Monomial,
    _affine_paulis,
    _clifford_stack,
    extract_rep,
    pauli_conjugates,
)
from semiclifford.pipeline import gottesman_mochon

MONOMIAL_GATES = tuple(name for name in GATE_MATRICES if name != "H")
CLIFFORD_GATES = tuple(name for name in MONOMIAL_GATES if name not in ("T", "TDG", "CCZ", "CSWAP"))


def test_extract_rep_keeps_the_dense_cap_on_monomials():
    with pytest.raises(ValueError, match="^n=11 exceeds the dense cap 10$"):
        extract_rep(Monomial.identity(11))


def _assert_same_result(m):
    """_clifford_stack of a Monomial stack and of its dense stack agree
    bit for bit; returns whether every matrix was Clifford."""
    got, want = _clifford_stack(m), _clifford_stack(m.to_dense())
    if want is None:
        assert got is None
        return False
    assert got is not None
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return True


def _placements(n):
    for name in MONOMIAL_GATES:
        for qubits in itertools.permutations(range(n), GATE_ARITY[name]):
            yield circuit_to_monomial(CircuitDescription(n, ((name, qubits),)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_library_placement_matches_dense(n):
    verdicts = [_assert_same_result(m[None]) for m in _placements(n)]
    assert True in verdicts and False in verdicts


def _random_monomials(n, rng, names):
    for depth in (1, 2 * n, 5 * n):
        yield circuit_to_monomial(random_circuit(n, depth, rng, names=names))


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("names", [CLIFFORD_GATES, MONOMIAL_GATES])
def test_random_circuits_and_their_conjugate_stacks_match_dense(n, names):
    # each conjugate stack holds 4n^2 dense conjugates for the oracle
    rng = np.random.default_rng(1800 + n)
    for m in _random_monomials(n, rng, names):
        clifford = _assert_same_result(m[None])
        third_level = _assert_same_result(pauli_conjugates(m, gf2.ident(2 * n)))
        assert clifford <= third_level


def test_uv_and_vu_families_match_dense():
    u, v = gottesman_mochon()
    verdicts = [_assert_same_result(pauli_conjugates(g, gf2.ident(14))) for g in (u @ v, v @ u)]
    assert verdicts == [True, False]  # UV is third-level, VU is not


def _cliffords(n, rng):
    """Clifford Monomials: random circuits and the 2n conjugates of a
    third-level one."""
    ops = list(_random_monomials(n, rng, CLIFFORD_GATES))
    gate = random_monomial_c3_gate(n, rng, cswap=n >= 3)
    return ops + list(pauli_conjugates(gate, gf2.ident(2 * n)))


# one phase times 2 (not unitary), rotated by half of TOL and by 10 TOL,
# and grown in modulus by 0.7 TOL: its phase products stay within TOL,
# but |phi|^2, the entries of the Z-images, moves by 1.4 TOL.  The
# first and third are off the eighth roots by more than TOL and raise
# at the Monomial constructor; the other two snap back onto the phase.
NEAR_MISS_FACTORS = (
    ("x2", 2),
    ("tol/2", np.exp(0.5j * TOL)),
    ("10 tol", np.exp(10j * TOL)),
    ("modulus", 1 + 0.7 * TOL),
)
OFF_GRID = ("x2", "10 tol")


def _with(m, perm=None, phases=None):
    return Monomial(m.perm if perm is None else perm, m.phases if phases is None else phases)[None]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_near_misses_fall_on_the_same_side_of_tol(n):
    rng = np.random.default_rng(1810 + n)
    verdicts = {}
    for m in _cliffords(n, rng):
        assert _assert_same_result(m[None])
        # a global phase e^{0.3i} is no eighth root: the dense stack alone
        # holds it
        with pytest.raises(ValueError, match="eighth root"):
            np.exp(0.3j) * m[None]
        rotated = np.exp(0.3j) * m.to_dense()[None]
        verdicts.setdefault("phase", []).append(_clifford_stack(rotated) is not None)
        # the last qubit's bit cleared: affine, but not a bijection, and
        # every image fails, although the symplectic test would reject it
        singular = _with(m, perm=m.perm & -2)
        assert not _affine_paulis(singular)[0].any()
        verdicts.setdefault("singular", []).append(_assert_same_result(singular))
        for c in range(1 << n):
            for name, factor in NEAR_MISS_FACTORS:
                raw = m.to_dense()
                raw[m.perm[c], c] *= factor
                verdicts.setdefault(name, []).append(_clifford_stack(raw[None]) is not None)
                phases = m.phases.copy()
                phases[c] *= factor
                if name in OFF_GRID:
                    with pytest.raises(ValueError, match="eighth root"):
                        Monomial(m.perm, phases)
                    continue
                snapped = _with(m, phases=phases)
                assert np.array_equal(snapped.exps[0], m.exps)
                assert _assert_same_result(snapped)
            for c2 in range(c):
                perm = m.perm.copy()
                perm[[c, c2]] = perm[[c2, c]]
                verdicts.setdefault("swap", []).append(_assert_same_result(_with(m, perm=perm)))
    assert all(verdicts["phase"]) and True in verdicts["tol/2"]
    assert not any(verdicts["x2"] + verdicts["10 tol"] + verdicts["modulus"] + verdicts["singular"])
    # every permutation of at most 4 labels is affine
    assert n < 3 or False in verdicts["swap"]


def test_stacks_of_several_chunks_match_dense():
    # at n = 6 a chunk holds 2^14 / (6 2^6) = 42 Monomials
    rng = np.random.default_rng(1820)
    ops = [circuit_to_monomial(random_circuit(6, 12, rng, names=CLIFFORD_GATES)) for _ in range(90)]
    stack = Monomial(np.stack([op.perm for op in ops]), np.stack([op.phases for op in ops]))
    assert _assert_same_result(stack)
    for last in ("T", "CCZ"):  # a non-Clifford in the last chunk only
        tail = circuit_to_monomial(CircuitDescription(6, ((last, (0, 1, 2)[: GATE_ARITY[last]]),)))
        bad = Monomial(np.vstack([stack.perm, tail.perm]), np.vstack([stack.phases, tail.phases]))
        assert not _assert_same_result(bad)
