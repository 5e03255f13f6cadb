"""Gate library, circuit descriptions, and the text circuit format.

Circuit files are line oriented: the first non-comment line is
``qubits N``, every following line is ``NAME q0 [q1 [q2]]``, and ``#``
starts a comment.  Numbers are ASCII digits only.  Qubit 0 is the
most significant bit of a basis label (leftmost tensor factor).

Clifford gate reps are read off each gate's own 2^k x 2^k matrix with
extract_rep rather than transcribed from tables, so the dense engine
stays the single source of truth; whether a gate is Clifford is read
off its matrix too.  A gate's rep lives on its qubits' coordinates
(_rep_coords): circuit_to_rep applies it as a tableau update of those
rows of C, each row packed into one int.  Likewise circuit_to_monomial
reads each gate's permutation and phases off its GATE_MATRICES entry;
every library gate but H is monomial.
circuit_to_dense builds small circuits as a chain: up to CHAIN_QUBITS
= 4 qubits it multiplies the running matrix by each placed gate, a
cached read-only 2^n x 2^n matrix.  Above it, it applies each gate's
own 2^k x 2^k matrix to the running matrix's rows over the gate's k
qubits, so it builds no 2^n x 2^n gate there.  The full-matrix product
is faster up to n = 5 and slower from n = 6 (CHAIN_QUBITS has the
figures).  Reps have no qubit cap.

parse_circuit reads each distinct gate line once per qubit count
(_parse_gate) and builds the description without checking it again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .clifford import CliffordRep
from .dense import Monomial, _is_integer, basis_bits, extract_rep
from .gf2 import _unpack_rows
from .pauli import _label_tables, check_dense_cap

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


class CircuitSyntaxError(ValueError):
    pass


# int() also reads "1_0", "+1" and non-ASCII digits; the format does not
_DIGITS = re.compile(r"[0-9]+")

# circuit_to_dense multiplies in each gate as a full 2^n x 2^n matrix up
# to this many qubits, and works on the gate's rows above it.  Per gate,
# on 40-gate random library circuits (2 vCPU, one BLAS thread), full
# matrix against rows: 3.7 vs 8.7 us at n = 3, 4.3 vs 10.6 at n = 4,
# 12.0 vs 17.2 at n = 5, 67.1 vs 32.5 at n = 6; so the crossover lies
# between n = 5 and n = 6.  At 4 the gate cache holds at most 120
# placements of 4 KB; at 5 it would hold 225 of 16 KB.
CHAIN_QUBITS = 4


@dataclass(frozen=True)
class CircuitDescription:
    """n qubits and the gates (name, qubits) that act in order.

    Each gate is a (name, qubits) pair with qubits a tuple or a list, so
    the qubit order is the one given (ValueError naming the gate
    otherwise).  The gates and each gate's qubits are stored as tuples,
    so a description hashes and keys the gate caches.
    """

    n: int
    gates: tuple

    def __post_init__(self):
        gates = tuple(self.gates)
        for gate in gates:
            pair = isinstance(gate, (tuple, list)) and len(gate) == 2
            if not (pair and isinstance(gate[1], (tuple, list))):
                raise ValueError(f"gate {gate!r} is not a (name, qubits) pair, qubits a tuple or list")
        object.__setattr__(self, "gates", tuple((name, tuple(qubits)) for name, qubits in gates))
        if not _is_integer(self.n):
            raise ValueError(f"n={self.n!r} is not an integer")
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got {self.n}")
        for name, qubits in self.gates:
            if not isinstance(name, str) or name not in GATE_MATRICES:
                raise ValueError(f"unknown gate {name!r}")
            if len(qubits) != GATE_ARITY[name]:
                raise ValueError(
                    f"{name} takes {GATE_ARITY[name]} qubits, got {len(qubits)}"
                )
            for q in qubits:
                if not _is_integer(q):
                    raise ValueError(f"qubit {q!r} is not an integer")
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"repeated qubit in {name} {qubits}")
            for q in qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range for n={self.n}")

    @classmethod
    def _parsed(cls, n, gates):
        """The description of gates that parse_circuit has already
        checked, built without __post_init__'s second pass; every other
        caller goes through the checked constructor."""
        desc = cls.__new__(cls)
        object.__setattr__(desc, "n", n)
        object.__setattr__(desc, "gates", gates)
        return desc


def _gate_name(token):
    """token upper-cased if it is ASCII, else as it is: str.upper() maps
    the long s to S and the dotless i to I, and gate names are ASCII."""
    return token.upper() if token.isascii() else token


class _BadLine(NamedTuple):
    """Why a gate line failed; quotes_line appends the raw line, which
    the memo of _parse_gate does not see."""

    reason: str
    quotes_line: bool = False


@lru_cache(maxsize=4096)
def _parse_gate(line, n):
    """(name, qubits) of a comment-stripped gate line of an n-qubit
    circuit, or the _BadLine that says why it is not one.  The memo is
    bounded because its keys are lines of input files."""
    tokens = line.split()
    name = _gate_name(tokens[0])
    if name not in GATE_MATRICES:
        return _BadLine(f"unknown gate {tokens[0]!r}")
    if not all(_DIGITS.fullmatch(t) for t in tokens[1:]):
        return _BadLine("bad qubit index in", quotes_line=True)
    qubits = tuple(int(t) for t in tokens[1:])
    if len(qubits) != GATE_ARITY[name]:
        return _BadLine(f"{name} takes {GATE_ARITY[name]} qubits, got {len(qubits)}")
    if len(set(qubits)) != len(qubits):
        return _BadLine("repeated qubit in", quotes_line=True)
    for q in qubits:
        if not 0 <= q < n:
            return _BadLine(f"qubit {q} out of range for n={n}")
    return name, qubits


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
        gate = _parse_gate(line, n)
        if isinstance(gate, _BadLine):
            quoted = f" {raw.strip()!r}" if gate.quotes_line else ""
            raise CircuitSyntaxError(f"line {lineno}: {gate.reason}{quoted}")
        gates.append(gate)
    if n is None:
        raise CircuitSyntaxError("missing 'qubits N' header")
    return CircuitDescription._parsed(n, tuple(gates))


@lru_cache(maxsize=None)
def _placement(qubits, n):
    """Read-only label tables (sub, rest, spread) placing a gate on the
    given qubits of n.

    For each basis label c of n qubits, sub[c] is the gate's own label
    read off those qubits (the first listed most significant) and
    rest[c] is c with those qubits cleared; spread[s] sets the gate's
    label s on them.  So the gate's column sub[c] lands in column c,
    its row s in row rest[c] | spread[s].
    """
    labels, _, weights = _label_tables(n)
    place = weights[list(qubits)]
    spread = basis_bits(len(qubits)) @ place
    sub = ((labels[:, None] & place) != 0) @ _label_tables(len(qubits))[2]
    rest = labels & ~spread[-1]
    for arr in (sub, rest, spread):
        arr.flags.writeable = False
    return sub, rest, spread


@lru_cache(maxsize=None)
def _gate_rows(qubits, n):
    """Read-only (2^(n-k), 2^k) label table of a k-qubit gate's blocks.

    Row r lists the labels that share one setting of the other qubits,
    in the gate's own label order: base | spread[s] for the r-th label
    base with the gate's qubits clear.  So the gate acts on each block
    of u's rows as u[rows[r]] = gate @ u[rows[r]]; circuit_to_dense
    stacks the blocks through rows.T into one product, and _placed_gate
    scatters the gate onto every block of a 2^n x 2^n matrix.
    """
    _, rest, spread = _placement(qubits, n)
    labels = _label_tables(n)[0]
    rows = labels[rest == labels][:, None] | spread
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _placed_gate(name, qubits, n):
    """Read-only 2^n x 2^n matrix of a library gate on the given qubits
    of n: the gate scattered onto each of its blocks (_gate_rows)."""
    rows = _gate_rows(qubits, n)
    gate = np.zeros((1 << n, 1 << n), dtype=complex)
    gate[rows[:, :, None], rows[:, None, :]] = GATE_MATRICES[name]
    gate.flags.writeable = False
    return gate


def circuit_to_dense(desc: CircuitDescription) -> np.ndarray:
    """Dense unitary of a circuit, a fresh writable array; listed gates
    act in order.

    Up to CHAIN_QUBITS qubits each gate is one product u = G @ u with
    its cached placed matrix G (_placed_gate).  Above it, each gate is
    one (2^k, 2^k) @ (2^k, 2^(n-k) 2^n) product on the running matrix's
    rows over its own qubits (_gate_rows), read and written in place.
    """
    n = desc.n
    check_dense_cap(n)
    u = np.eye(1 << n, dtype=complex)
    if n <= CHAIN_QUBITS:
        for name, qubits in desc.gates:
            u = _placed_gate(name, qubits, n) @ u
        return u
    for name, qubits in desc.gates:
        rows = _gate_rows(qubits, n).T
        gate = GATE_MATRICES[name]
        u[rows] = (gate @ u[rows].reshape(len(gate), -1)).reshape(len(gate), -1, 1 << n)
    return u


@lru_cache(maxsize=None)
def _gate_monomial(name):
    """The library gate as a Monomial on its own qubits, or None (H)."""
    try:
        gate = Monomial.from_dense(GATE_MATRICES[name])
    except ValueError:
        return None
    gate.perm.flags.writeable = False
    gate.phases.flags.writeable = False
    return gate


def _embed_monomial(gate: Monomial, qubits, n) -> Monomial:
    """gate on the given qubits of n, in O(2^n), laid out by _placement."""
    sub, rest, spread = _placement(tuple(qubits), n)
    return Monomial(rest | spread[gate.perm[sub]], gate.phases[sub])


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
def _gate_rep(name):
    """The library gate's rep on its own qubits, or None if not Clifford."""
    return extract_rep(GATE_MATRICES[name])


def has_library_reps(desc: CircuitDescription) -> bool:
    """Whether every gate of the circuit has a library rep (is Clifford),
    so that circuit_to_rep applies."""
    return all(_gate_rep(name) is not None for name, _ in desc.gates)


def _clifford_gate(name):
    gate = _gate_rep(name)
    if gate is None:
        raise ValueError(f"{name} is not a Clifford gate")
    return gate


def _rep_coords(qubits, n):
    """Coordinates idx = [q..., n + q...] of a gate's rep on the given
    qubits of n: its X coordinates, then its Z coordinates."""
    return [*qubits, *(n + q for q in qubits)]


@lru_cache(maxsize=None)
def _gate_tableau(name):
    """A Clifford library gate's tableau update (circuit_to_rep) as index
    lists into its rows idx (_rep_coords); ValueError if it has no rep.

    Returns (new_rows, h_terms, lows_terms, d_terms): new_rows[a] lists
    the rows b with g.c[a, b] set, whose sum is the new row a; h_terms
    the rows a with g.h[a] set; lows_terms the pairs (a, bs) for the
    nonzero rows a of g.lows, bs its set columns; d_terms the rows a
    with g.d[a] set.
    """
    gate = _clifford_gate(name)

    def ones(bits):
        return tuple(np.flatnonzero(bits).tolist())

    lows = tuple((a, ones(row)) for a, row in enumerate(gate.lows_matrix) if row.any())
    return tuple(map(ones, gate.c)), ones(gate.h), lows, ones(gate.d)


def circuit_to_rep(desc: CircuitDescription) -> CliffordRep:
    """Rep of a Clifford circuit, by a tableau update per gate.

    Listed gates act in order.  Each gate's own rep updates only the
    rows idx (_rep_coords) of the running C, C[idx] = g.c C[idx]
    (Aaronson-Gottesman, quant-ph/0406196), and h gains product_table's
    terms for a left factor supported on idx: the placed gate's h, d and
    lows are zero outside idx, so with rows = C[idx] and d_C read before
    the update, h += g.h rows + diag(rows^T g.lows rows) + (g.d rows) d_C.
    The lows order of idx differs from the global one only on pairs
    other than (q, n + q), where C^T J C + d d^T is symmetric, so the
    quadratic term is the same.

    The tableau is packed: each row of C is one 2n-bit int (bit x holds
    column x), and h and d_C = diag(C^T J C) = sum_q C[q] & C[n + q] are
    one int each, so every term is a few XORs and ANDs of whole rows,
    read off the gate's cached index lists (_gate_tableau).  d_C changes
    only on the gate's pairs (q, n + q).  A k-qubit gate costs O(k^2)
    whole-row operations on 2n-bit ints and no numpy call; C and h are
    unpacked once, into the checked CliffordRep constructor.
    """
    n = desc.n
    c = [1 << i for i in range(2 * n)]
    h = 0
    d_c = 0
    for name, qubits in desc.gates:
        new_rows, h_terms, lows_terms, d_terms = _gate_tableau(name)
        idx = _rep_coords(qubits, n)
        rows = [c[i] for i in idx]
        for a in h_terms:
            h ^= rows[a]
        for a, bs in lows_terms:
            acc = 0
            for b in bs:
                acc ^= rows[b]
            h ^= rows[a] & acc
        acc = 0
        for a in d_terms:
            acc ^= rows[a]
        h ^= acc & d_c
        for i, bs in zip(idx, new_rows):
            acc = 0
            for b in bs:
                acc ^= rows[b]
            c[i] = acc
        k = len(qubits)
        for j in range(k):
            d_c ^= rows[j] & rows[k + j] ^ c[idx[j]] & c[idx[k + j]]
    bits = _unpack_rows([*c, h], 2 * n)
    return CliffordRep(bits[:-1], bits[-1])
