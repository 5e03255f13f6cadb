"""Gate library, circuit descriptions, and the text circuit format.

Circuit files are line oriented: the first non-comment line is
``qubits N``, every following line is ``NAME q0 [q1 [q2]]``, and ``#``
starts a comment.  Numbers are ASCII digits only.  Qubit 0 is the
most significant bit of a basis label (leftmost tensor factor).

Clifford gate reps are extracted from the dense matrices rather than
transcribed from tables, so the dense engine stays the single source
of truth.  Likewise circuit_to_monomial reads each gate's permutation
and phases off its GATE_MATRICES entry with monomial_check; every
library gate but H is monomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import CliffordRep, compose
from .dense import Monomial, extract_rep, monomial_check
from .pauli import check_dense_cap

_SQ2 = np.sqrt(2.0)

_ONE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2,
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    "TDG": np.diag([1, np.exp(-1j * np.pi / 4)]).astype(complex),
}

_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_CCZ = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
_CSWAP = np.eye(8, dtype=complex)
_CSWAP[[5, 6]] = _CSWAP[[6, 5]]

GATE_MATRICES = dict(_ONE_QUBIT)
GATE_MATRICES.update({"CX": _CX, "CZ": _CZ, "SWAP": _SWAP, "CCZ": _CCZ, "CSWAP": _CSWAP})

GATE_ARITY = {name: mat.shape[0].bit_length() - 1 for name, mat in GATE_MATRICES.items()}

CLIFFORD_GATES = ("I", "X", "Y", "Z", "H", "S", "SDG", "CX", "CZ", "SWAP")


class CircuitSyntaxError(ValueError):
    pass


# int() also reads "1_0", "+1" and non-ASCII digits; the format does not
_DIGITS = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class CircuitDescription:
    n: int
    gates: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got {self.n}")
        for name, qubits in self.gates:
            if name not in GATE_MATRICES:
                raise ValueError(f"unknown gate {name!r}")
            if len(qubits) != GATE_ARITY[name]:
                raise ValueError(
                    f"{name} takes {GATE_ARITY[name]} qubits, got {len(qubits)}"
                )
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"repeated qubit in {name} {qubits}")
            for q in qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range for n={self.n}")


def parse_circuit(text) -> CircuitDescription:
    """Parse the text circuit format; errors carry line numbers."""
    n = None
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0].lower() != "qubits" or len(tokens) != 2:
                raise CircuitSyntaxError(
                    f"line {lineno}: expected 'qubits N', got {raw.strip()!r}"
                )
            if not _DIGITS.fullmatch(tokens[1]):
                raise CircuitSyntaxError(f"line {lineno}: bad qubit count {tokens[1]!r}")
            n = int(tokens[1])
            if n < 1:
                raise CircuitSyntaxError(f"line {lineno}: qubit count must be positive")
            continue
        name = tokens[0].upper()
        if name not in GATE_MATRICES:
            raise CircuitSyntaxError(f"line {lineno}: unknown gate {tokens[0]!r}")
        if not all(_DIGITS.fullmatch(t) for t in tokens[1:]):
            raise CircuitSyntaxError(f"line {lineno}: bad qubit index in {raw.strip()!r}")
        qubits = tuple(int(t) for t in tokens[1:])
        if len(qubits) != GATE_ARITY[name]:
            raise CircuitSyntaxError(
                f"line {lineno}: {name} takes {GATE_ARITY[name]} qubits, got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise CircuitSyntaxError(f"line {lineno}: repeated qubit in {raw.strip()!r}")
        for q in qubits:
            if not 0 <= q < n:
                raise CircuitSyntaxError(
                    f"line {lineno}: qubit {q} out of range for n={n}"
                )
        gates.append((name, qubits))
    if n is None:
        raise CircuitSyntaxError("missing 'qubits N' header")
    return CircuitDescription(n=n, gates=tuple(gates))


def embed_gate(name, qubits, n) -> np.ndarray:
    """Dense matrix of a library gate acting on the given qubits of n."""
    gate = GATE_MATRICES[name]
    k = GATE_ARITY[name]
    if len(qubits) != k:
        raise ValueError(f"{name} takes {k} qubits")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    if len(set(qubits)) != k:
        raise ValueError(f"repeated qubit in {qubits}")
    check_dense_cap(n)
    dim = 1 << n
    shifts = [n - 1 - q for q in qubits]
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_col = 0
        for pos, sh in enumerate(shifts):
            sub_col |= ((col >> sh) & 1) << (k - 1 - pos)
        for sub_row in range(1 << k):
            val = gate[sub_row, sub_col]
            if val == 0:
                continue
            row = col
            for pos, sh in enumerate(shifts):
                bit = (sub_row >> (k - 1 - pos)) & 1
                row = (row & ~(1 << sh)) | (bit << sh)
            out[row, col] += val
    return out


def circuit_to_dense(desc: CircuitDescription) -> np.ndarray:
    """Dense unitary of a circuit; listed gates act in order."""
    check_dense_cap(desc.n)
    u = np.eye(1 << desc.n, dtype=complex)
    for name, qubits in desc.gates:
        u = embed_gate(name, qubits, desc.n) @ u
    return u


@lru_cache(maxsize=None)
def _gate_monomial(name):
    """The library gate as a Monomial on its own qubits, or None (H)."""
    mc = monomial_check(GATE_MATRICES[name])
    if not mc.is_monomial:
        return None
    gate = Monomial(mc.permutation, mc.phases)
    gate.perm.flags.writeable = False
    gate.phases.flags.writeable = False
    return gate


def _embed_monomial(gate: Monomial, qubits, n) -> Monomial:
    """gate on the given qubits of n, in O(2^n); embed_gate's layout."""
    k = len(qubits)
    cols = np.arange(1 << n)
    shifts = [n - 1 - q for q in qubits]
    sub_col = np.zeros_like(cols)
    rows = cols.copy()
    for pos, sh in enumerate(shifts):
        sub_col |= ((cols >> sh) & 1) << (k - 1 - pos)
        rows &= ~(1 << sh)
    sub_row = gate.perm[sub_col]
    for pos, sh in enumerate(shifts):
        rows |= ((sub_row >> (k - 1 - pos)) & 1) << sh
    return Monomial(rows, gate.phases[sub_col])


def circuit_to_monomial(desc: CircuitDescription) -> Monomial | None:
    """Monomial unitary of a circuit, or None if a gate is not monomial.

    Listed gates act in order, as in circuit_to_dense, whose matrix
    this equals within TOL; the cost is O(2^n) per gate.
    """
    check_dense_cap(desc.n)
    u = Monomial.identity(desc.n)
    for name, qubits in desc.gates:
        gate = _gate_monomial(name)
        if gate is None:
            return None
        u = _embed_monomial(gate, qubits, desc.n) @ u
    return u


@lru_cache(maxsize=None)
def standard_gate(name, qubits, n) -> CliffordRep:
    """Rep of a Clifford library gate, extracted from its dense matrix."""
    name = name.upper()
    if name not in CLIFFORD_GATES:
        if name in GATE_MATRICES:
            raise ValueError(f"{name} is not a Clifford gate")
        raise ValueError(f"unknown gate {name!r}")
    rep = extract_rep(embed_gate(name, tuple(qubits), n))
    if rep is None:
        raise AssertionError(f"library gate {name} failed Clifford extraction")
    return rep


def circuit_to_rep(desc: CircuitDescription) -> CliffordRep:
    """Rep of a Clifford circuit by composing the per-gate reps."""
    rep = CliffordRep.identity(desc.n)
    for name, qubits in desc.gates:
        rep = compose(standard_gate(name, qubits, desc.n), rep)
    return rep


def random_circuit(n, depth, rng, names=("H", "S", "CX")) -> CircuitDescription:
    """Random circuit over the given gate names (defaults generate Cliffords)."""
    gates = []
    for _ in range(depth):
        name = str(rng.choice(names))
        arity = GATE_ARITY[name]
        if arity > n:
            continue
        qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        gates.append((name, qubits))
    return CircuitDescription(n=n, gates=tuple(gates))
