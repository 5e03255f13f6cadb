"""Operator engine: dense 2^n x 2^n matrices and monomial matrices.

Everything symbolic in this package is cross-checked against exact
2^n x 2^n matrices built here: Pauli membership, Clifford extraction,
hierarchy level decisions, monomial structure, and the realization of
block-form involutions as permutation-phase matrices.

The engine has two operator types with one code path.  A Monomial
(permutation times diagonal) is the engine for monomial gates, in
O(2^n) per operation; dense matrices are the engine for the rest (H)
and the oracle the tests check the Monomial path against.  Either type
comes as one matrix or a stack: a (k, d, d) array or a Monomial over
(k, 2^n) arrays, and @ multiplies two stacks pairwise.  Every Pauli
conjugation u tau_a u^dag goes through _conjugates, which applies
tau_a as the signed permutation of pauli.pauli_action (the single
source of tau_a's permutation and signs): one batched matmul for a
dense stack, one gather for a Monomial stack.  _pauli_stack is the
only Pauli test of a built conjugate; is_pauli and the dense Clifford
test run it on stacks of at most _STACK_ENTRIES (2^14) stored entries.
At n <= 3, classify runs it once on one such stack (u, its 4^n - 1
nonzero conjugates and the (2n)^2 conjugates of its generator
conjugates) and reads the hierarchy level and S(u) off that one result.
A Monomial's Clifford test builds none: _affine_paulis reads its
generator images off its affine permutation and its phase products.

TOL is the package's one tolerance, and it is absolute: every dense
test reads it, and every matrix comparison goes through close or
_close_stack, which bounds the largest entrywise difference by TOL
with no relative term.  The entries of Paulis, Cliffords and the
certificate spectra are 0 or an eighth root of unity over a power of
sqrt(2), and at the supported sizes two distinct such values differ by
far more than TOL.  So TOL only absorbs accumulated rounding, which
stays near machine epsilon, and never merges two exact values.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .clifford import CliffordRep, product_table, reps_commute, sign_data
from .pauli import (
    PhasedPauli, _check_same_n, _label_tables, check_dense_cap, pauli_action, pauli_to_dense
)

TOL = 1e-9
# Most stored entries in one batched stack: a single dense 2^7 x 2^7
# matrix, the hierarchy cap, or 2^7 Monomials of that size.  A stacked
# test holds a few temporaries the size of its stack, so stacks of whole
# n = 7 conjugate sets would multiply the peak memory of a hierarchy
# test by the set size; in chunks of this size it stays at the
# one-matrix peak, and at n <= 3 every set the searches build fits in
# one stack.
_STACK_ENTRIES = 1 << 14


def _per_stack(us, stacks=1):
    """Matrices of us's type and size per stack when `stacks` stacks share
    _STACK_ENTRIES: d^2 entries per dense matrix, 2^n per Monomial, and
    one matrix when it alone is larger."""
    d = us.shape[-1]
    return max(1, _STACK_ENTRIES // (stacks * (d if isinstance(us, Monomial) else d * d)))


# qubit cap of the dense hierarchy test, rep_to_dense and the pipeline
HIERARCHY_QUBIT_CAP = 7
HIERARCHY_LEVEL_CAP = 4


class Monomial:
    """A 2^n x 2^n monomial matrix: u|c> = phases[c] |perm[c]>.

    perm[c] is the row of the one nonzero entry of column c, as in
    MonomialCheck, and phases[c] its value; every phase is above TOL in
    modulus.  Products, adjoints and Pauli conjugations cost O(2^n).
    With (k, 2^n) arrays it is a stack of k matrices, the counterpart
    of a dense (k, d, d) stack: indexing (u[None] too) and iteration run
    over the first axis, dag, to_dense and the stacked engine take a
    stack, and a product of two stacks of equal shape multiplies them
    pairwise, as ndarray @ does.  Every permutation entry lies in
    [0, 2^n) and is an integer (an integer array of any width), which
    the constructor checks (ValueError otherwise).
    Products, adjoints and indexing, whose entries are in range by
    construction, build their results unchecked (_unchecked).  Treat the
    arrays as read-only: operations return new Monomials.
    """

    __slots__ = ("perm", "phases")
    # numpy operators defer to this class: `-1.0 * m` reaches __rmul__,
    # and `ndarray @ m` raises instead of building an object array
    __array_ufunc__ = None

    def __init__(self, perm, phases):
        perm = np.asarray(perm)
        # a cast to intp would truncate floats and read bools and numeric
        # strings as labels
        if perm.dtype.kind not in "iu" and perm.size:
            raise ValueError(f"permutation entries must be integers, not {perm.dtype}")
        perm = perm.astype(np.intp, copy=False)
        phases = np.asarray(phases, dtype=complex)
        if perm.ndim < 1 or perm.shape != phases.shape:
            raise ValueError(f"perm {perm.shape} and phases {phases.shape} differ in shape")
        dim = perm.shape[-1]
        # as unsigned integers, negative entries are past every dimension
        if perm.size and perm.view(np.uintp).max() >= dim:
            raise ValueError(f"permutation entry outside [0, {dim})")
        self.perm = perm
        self.phases = phases

    @classmethod
    def _unchecked(cls, perm, phases):
        """A Monomial of intp perm and complex phases arrays of one shape
        whose entries are in range by construction: no check runs."""
        out = cls.__new__(cls)
        out.perm = perm
        out.phases = phases
        return out

    @classmethod
    def identity(cls, n):
        dim = 1 << n
        return cls._unchecked(np.arange(dim), np.ones(dim, dtype=complex))

    @classmethod
    def from_dense(cls, u):
        mc = monomial_check(u)
        if not mc.is_monomial:
            raise ValueError("matrix is not monomial")
        return cls(mc.permutation, mc.phases)

    @property
    def shape(self):
        return self.perm.shape + self.perm.shape[-1:]

    @property
    def ndim(self):
        return self.perm.ndim + 1

    def __len__(self):
        return len(self.perm)

    def __getitem__(self, index):
        perm, phases = self.perm[index], self.phases[index]
        if perm.shape[-1:] != self.perm.shape[-1:]:  # the index reached the column axis
            return Monomial(perm, phases)
        return Monomial._unchecked(perm, phases)

    def __matmul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.perm.shape != other.perm.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not multiply")
        index, perm, phases = other.perm, self.perm, self.phases
        if index.ndim > 1:
            # one flat gather: matrix t's entries lie in [0, d), so t * d + entry
            # reads its own matrix, at a third of take_along_axis's call cost
            d = index.shape[-1]
            index = index + np.arange(0, index.size, d).reshape(index.shape[:-1] + (1,))
            perm, phases = perm.reshape(-1), phases.reshape(-1)
        phases = phases[index]
        phases *= other.phases
        return Monomial._unchecked(perm[index], phases)

    def __rmul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return Monomial._unchecked(self.perm, scalar * self.phases)

    def dag(self):
        """The adjoint: column perm[c] holds conj(phases[c]) in row c;
        ValueError if a permutation is not a bijection."""
        inv = np.full_like(self.perm, -1)
        np.put_along_axis(inv, self.perm, np.arange(self.perm.shape[-1]), axis=-1)
        if (inv < 0).any():
            raise ValueError("permutation is not a bijection")
        return Monomial._unchecked(inv, np.take_along_axis(self.phases, inv, axis=-1).conj())

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        np.put_along_axis(out, self.perm[..., None, :], self.phases[..., None, :], axis=-2)
        return out

    def __repr__(self):
        try:
            return f"Monomial(n={_stack_qubits(self)})"
        except ValueError:  # not 2^n x 2^n for any n >= 1
            return f"Monomial(shape={self.shape})"


def _stack_ops(ops):
    """One stack of the operators' type from a sequence of Monomials or
    of dense matrices: a (k, 2^n) Monomial or a (k, d, d) array."""
    if isinstance(ops[0], Monomial):
        perms, phases = (np.stack([getattr(op, a) for op in ops]) for a in ("perm", "phases"))
        return Monomial._unchecked(perms, phases)
    return np.stack(ops)


def as_dense(u) -> np.ndarray:
    """u as a complex ndarray; a Monomial is expanded to its dense matrix."""
    u = _as_operator(u)
    return u.to_dense() if isinstance(u, Monomial) else u


def _as_operator(u):
    """A Monomial as it is, anything else as a complex ndarray.  Entries
    must be integer, real or complex numbers (ValueError otherwise): a
    cast to complex would parse numeric strings and read bools as 0/1."""
    if isinstance(u, Monomial):
        return u
    u = np.asarray(u)
    if u.dtype.kind not in "iufc":
        raise ValueError(f"matrix entries must be numbers, not {u.dtype}")
    return u.astype(complex, copy=False)


def identity_like(u):
    """The identity of u's size: a Monomial for a Monomial, else dense."""
    n = num_qubits(u)
    if isinstance(u, Monomial):
        return Monomial.identity(n)
    return np.eye(1 << n)


def num_qubits(u) -> int:
    """Number of qubits for a 2^n-dimensional square matrix."""
    if u.ndim != 2:
        raise ValueError(f"not a square matrix: {u.shape}")
    return _stack_qubits(u)


def _stack_qubits(us) -> int:
    """Number of qubits of each matrix in a (..., 2^n, 2^n) stack."""
    if us.ndim < 2 or us.shape[-1] != us.shape[-2]:
        raise ValueError(f"not a square matrix: {us.shape}")
    dim = us.shape[-1]
    n = dim.bit_length() - 1
    if n < 1:
        raise ValueError(f"need at least one qubit, got dimension {dim}")
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def close(a, b) -> bool:
    """Whether a and b agree within TOL in every entry (absolute, max-norm):
    the one-matrix case of _close_stack."""
    return bool(_close_stack(a, b))


def _close_stack(us, vs, signs=1.0):
    """close(us[t], signs[t] * vs[t]) for each matrix t of a stack, where vs
    is a stack of the same type and length or one matrix for all t.

    Two Monomials are close when their permutations are equal and their
    phases agree within TOL, which is the dense test on their matrices,
    since each phase is above TOL in modulus.  A Monomial is compared
    only with a Monomial.
    """
    if isinstance(us, Monomial) or isinstance(vs, Monomial):
        if not (isinstance(us, Monomial) and isinstance(vs, Monomial)):
            raise TypeError("close compares a Monomial only with a Monomial")
        diff = us.phases - np.asarray(signs)[..., None] * vs.phases
        return (us.perm == vs.perm).all(axis=-1) & (np.abs(diff).max(axis=-1) <= TOL)
    return np.abs(us - np.asarray(signs)[..., None, None] * vs).max(axis=(-2, -1)) <= TOL


def check_unitary(u):
    """Validate unitarity of an untrusted matrix and return it as complex.

    A Monomial is unitary when its permutation is a bijection and every
    phase has modulus 1 within TOL: then u^dag u is diag(|phases|^2).
    """
    u = _as_operator(u)
    n = num_qubits(u)
    # inf entries would make the product below warn before it fails
    if not np.isfinite(u.phases if isinstance(u, Monomial) else u).all():
        raise ValueError("matrix is not unitary")
    if isinstance(u, Monomial):
        bijective = np.array_equal(np.sort(u.perm), np.arange(1 << n))
        if not (bijective and np.abs(np.abs(u.phases) ** 2 - 1).max() <= TOL):
            raise ValueError("matrix is not unitary")
        return u
    if not close(u.conj().T @ u, np.eye(u.shape[0])):
        raise ValueError("matrix is not unitary")
    return u


@lru_cache(maxsize=None)
def _generator_matrices(n):
    """Dense tau_{e_j} for j = 0..2n-1, cached per qubit count.

    The library conjugates through pauli_conjugates; these matrices are
    the two-matmul reference for tests and the benchmark's set-up probe.
    """
    return tuple(pauli_to_dense(PhasedPauli(0, 0, e)) for e in gf2.ident(2 * n))


def pauli_conjugates(u, vectors):
    """u tau_a u^dag for each row a of vectors, as one stack of u's type.

    The (m, d, d) dense stack or the (m, 2^n) Monomial stack of all m
    conjugates, one batched product (_conjugates), unchunked: its peak
    is about twice the stack, 7 MiB for the 2n = 14 dense conjugates at
    n = 7.  Longer dense sets go through _conjugate_chunks.
    """
    us = _as_operator(u)[None]
    return _conjugates(us, _dagger(us), vectors)


def _dagger(us):
    """The adjoint of each matrix of a stack; a dense one C-contiguous so
    that the row gathers of _conjugates read whole rows."""
    if isinstance(us, Monomial):
        return us.dag()
    return np.ascontiguousarray(np.conj(np.swapaxes(us, -1, -2)))


def _conjugates(us, udag, vectors):
    """us[i] tau_a us[i]^dag for each matrix i of a (k, ...) stack and
    then each row a of vectors, as a flat stack of k m matrices.

    tau_a is a signed permutation (pauli_action).  For a dense stack,
    tau_a u^dag is a row permutation of u^dag times +-1 signs, exact in
    floating point, and one batched matmul finishes the conjugates.  A
    Monomial tau_a sends |c> to signs[c + w] |c + w>, so all k m
    Monomial conjugates are one O(k m 2^n) gather.
    """
    perm, signs = pauli_action(_stack_qubits(us), vectors)
    d = us.shape[-1]
    if isinstance(us, Monomial):
        rows = np.arange(len(perm))[:, None]
        t = perm[rows, udag.perm[:, None]]  # (k, m, d): tau_a u^dag's perm
        phases = np.take_along_axis(us.phases[:, None], t, -1)
        phases *= signs[rows, t]
        phases *= udag.phases[:, None]
        perms = np.take_along_axis(us.perm[:, None], t, -1)
        return Monomial._unchecked(perms.reshape(-1, d), phases.reshape(-1, d))
    moved = udag[:, perm, :]
    moved *= signs[..., None]
    return (us[:, None] @ moved).reshape(-1, d, d)


def _conjugate_chunks(us, vectors):
    """Yield the conjugates us[i] tau_a us[i]^dag of a (k, ...) stack,
    over i and then the rows a of vectors, as stacks of at most
    _STACK_ENTRIES stored entries (_per_stack).  Each chunk of us gets
    its own adjoint, so no adjoint of the whole stack is held."""
    per = _per_stack(us)
    m = len(vectors)
    rows, cols = max(1, per // m), min(per, m)
    for i in range(0, us.shape[0], rows):
        chunk = us[i : i + rows]
        udag = _dagger(chunk)
        for j in range(0, m, cols):
            yield _conjugates(chunk, udag, vectors[j : j + cols])


# the group phases i**delta (-1)**epsilon, and their (delta, epsilon) bits
_PHASES = np.array([1, -1, 1j, -1j])
_PHASE_BITS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)


def _read_pauli(n, one, row0, read):
    """(ok, bits, a) of the candidate Paulis read off (k, n + 1) entries:
    z0 in column 0 and row row0 (`one` if alone above TOL there), then
    +-z0 (the sign gives v_i) in row row0 + e_i of each |e_i> column."""
    # a matrix with no single heavy entry is rejected; 1 keeps it finite
    z0 = np.where(one, read[:, 0], 1)
    ratio = read[:, 1:] / z0[:, None]
    plus = np.abs(ratio - 1) < TOL
    minus = np.abs(ratio + 1) < TOL
    v = minus.astype(np.uint8)
    w = basis_bits(n)[row0]
    base = z0 * (-1.0) ** ((v & w).sum(axis=1) & 1)
    near = np.abs(base[:, None] - _PHASES) < TOL
    ok = one & (plus | minus).all(axis=1) & near.any(axis=1)
    return ok, _PHASE_BITS[near.argmax(axis=1)], np.concatenate([v, w], axis=1)


def _pauli_stack(us):
    """is_pauli on every matrix of a (k, d, d) dense or (k, 2^n) Monomial
    stack at once.

    Returns (ok, bits, a): ok (k,) is True exactly where the matrix is
    the phased Pauli i**delta (-1)**epsilon tau_a, with bits (k, 2) its
    (delta, epsilon) and a (k, 2n) its label; elsewhere bits and a mean
    nothing.  The candidate is read off column 0 (one entry z0, in row
    w) and the |e_i> columns (the entry in row w + e_i is +-z0, the
    sign giving v_i); only the entry access differs by type.  Then it
    is verified, every entry within TOL of the Pauli's, so near-misses
    (wrong phase grid, extra support) are rejected: entrywise for a
    dense stack, and for a Monomial stack by its permutation, which
    must be c -> c + w exactly, and its phases.
    """
    n = _stack_qubits(us)
    k = us.shape[0]
    idx = np.arange(k)
    # column 0, then |e_i>: the label with only qubit i set
    cols = np.concatenate([[0], _label_tables(n)[2]])
    if isinstance(us, Monomial):
        row0 = us.perm[:, 0]
        at = us.perm[:, cols] == row0[:, None] ^ cols
        read = np.where(at, us.phases[:, cols], 0)
        one = np.abs(read[:, 0]) > TOL
    else:
        heavy = np.abs(us[:, :, 0]) > TOL
        one = heavy.sum(axis=1) == 1
        row0 = heavy.argmax(axis=1)
        read = us[idx[:, None], row0[:, None] ^ cols, cols]
    ok, bits, a = _read_pauli(n, one, row0, read)
    sel = np.flatnonzero(ok)
    perm, signs = pauli_action(n, a[sel])
    # bits (delta, epsilon) index _PHASES as 2 * delta + epsilon
    values = _PHASES[bits[sel] @ (2, 1)][:, None] * signs
    if isinstance(us, Monomial):
        # tau_a is an involution, so column c holds values[c + w] in row c + w
        diff = np.take_along_axis(values, perm, 1)
        diff -= us.phases[sel]
        ok[sel] = (us.perm[sel] == perm).all(axis=1) & (np.abs(diff).max(axis=1) <= TOL)
    else:
        diff = us[sel]
        diff[np.arange(sel.size)[:, None], np.arange(1 << n), perm] -= values
        ok[sel] = np.abs(diff).max(axis=(1, 2)) <= TOL
    return ok, bits, a


def is_pauli(u):
    """The unique PhasedPauli realized by u, or None: the one-matrix
    case of the stacked test (_pauli_stack), for either operator type."""
    u = _as_operator(u)
    num_qubits(u)  # rejects anything but a square 2^n-dimensional matrix
    ok, bits, a = _pauli_stack(u[None])
    return PhasedPauli(*bits[0], a[0]) if ok[0] else None


def _clifford_reps(bits, ct):
    """(ct, h) for k candidate reps, or None unless every one is valid.

    bits (k, 2n, 2) and ct (k, 2n, 2n) hold the (delta, epsilon) bits
    and labels of the Pauli images of the 2n generators: ct[i] is C^T
    and h[i] = bits[i, :, 1].  Each image must satisfy the Hermiticity
    constraint delta_j = c_j^T J c_j = v_j . w_j, and each C must be
    symplectic, C^T P C = P.
    """
    n = ct.shape[-1] // 2
    hermitian = bits[..., 0] == ((ct[..., :n] & ct[..., n:]).sum(axis=-1) & 1)
    if not (hermitian.all() and gf2.symplectic_mask(np.swapaxes(ct, -1, -2)).all()):
        return None
    return ct, bits[..., 1]


def _affine_paulis(us):
    """_pauli_stack of the conjugates of all 2n generators by each Monomial
    u|x> = phi(x)|pi(x)> of a stack, in _conjugate_chunks's order, read
    off u.  The X-images are translations exactly when pi is affine,
    pi(x) = A x + b, checked in one doubling step per qubit.  Then
    u Z_j u^dag holds (-1)**x_j |phi(x)|^2 in column pi(x), and u X_j u^dag
    holds r_j(x) = phi(x + e_j) conj(phi(x)) in row pi(x) + A e_j, bit for
    bit the conjugates' entries: _read_pauli reads the same candidates off
    x = pi^-1(0), pi^-1(e_i), and each is verified at every x.  If a
    permutation is not an affine bijection, every image fails.
    """
    n = _stack_qubits(us)
    check_dense_cap(n)  # the cap of the conjugates this test replaces
    labels, popsigns, weights = _label_tables(n)
    perm, phases = us.perm, us.phases
    rows = np.arange(len(perm))[:, None]
    inv = np.zeros_like(perm)
    inv[rows, perm] = labels
    cols = perm[:, weights] ^ perm[:, :1]  # A e_j; pi(c + e_j) = pi(c) + A e_j for labels c < e_j
    steps = zip(weights, cols.T[:, :, None])
    if not (all((perm[:, e : 2 * e] == perm[:, :e] ^ col).all() for e, col in steps)
            and (inv[rows, perm] == labels).all()):
        return np.zeros(2 * n * len(perm), dtype=bool), None, None
    xs = inv[:, np.concatenate([[0], weights])]  # x at columns 0 and |e_i>
    squares = phases * phases.conj()
    z = np.where(xs[:, None] & weights[:, None], -1, 1) * squares[rows, xs][:, None]
    x = phases[rows[..., None], xs[:, None] ^ weights[:, None]] * phases[rows, xs].conj()[:, None]
    read = np.concatenate([z, x], axis=1).reshape(-1, n + 1)
    row0 = np.concatenate([np.zeros_like(cols), cols], axis=1).ravel()
    ok, bits, a = _read_pauli(n, np.abs(read[:, 0]) > TOL, row0, read)
    ok = ok.reshape(-1, 2 * n)
    ok[:, :n] &= (np.abs(1 - squares).max(axis=1) <= TOL)[:, None]
    vw = a.reshape(-1, 2 * n, 2, n)[:, n:] @ weights  # (k, n, 2): X-image v and w
    values = _PHASES[bits.reshape(-1, 2 * n, 2)[:, n:] @ (2, 1)][..., None]
    values = values * popsigns[(perm[:, None] ^ vw[..., 1:]) & vw[..., :1]]
    values -= phases[:, labels ^ weights[:, None]] * phases.conj()[:, None]
    ok[:, n:] &= np.abs(values).max(axis=-1) <= TOL
    return ok.ravel(), bits, a


def _clifford_stack(us):
    """_clifford_reps of a dense or Monomial stack of k matrices, or None
    if one is not Clifford.

    Dense conjugates go through the Pauli test in chunks
    (_conjugate_chunks), a Monomial stack through _affine_paulis, both
    stopping at the first chunk with an image that is not a Pauli.
    """
    k = us.shape[0]
    m = 2 * _stack_qubits(us)
    if isinstance(us, Monomial):
        per = _per_stack(us, m // 2)  # n X-images of 2^n entries per matrix
        tests = (_affine_paulis(us[i : i + per]) for i in range(0, k, per))
    else:
        tests = (_pauli_stack(stack) for stack in _conjugate_chunks(us, gf2.ident(m)))
    bits = np.empty((k * m, 2), dtype=np.uint8)
    labels = np.empty((k * m, m), dtype=np.uint8)
    start = 0
    for ok, b, a in tests:
        if not ok.all():
            return None
        stop = start + len(ok)
        bits[start:stop], labels[start:stop] = b, a
        start = stop
    return _clifford_reps(bits.reshape(k, m, 2), labels.reshape(k, m, m))


def extract_rep(u):
    """Read the (C, h) rep off a matrix, or None if not Clifford.

    The images of all 2n generators (_clifford_stack) must be exact
    phased Paulis.  The Hermiticity constraint d_j = c_j^T J c_j and the
    symplectic condition are verified rather than assumed.
    """
    u = _as_operator(u)
    num_qubits(u)  # rejects anything but a square 2^n-dimensional matrix
    found = _clifford_stack(u[None])
    if found is None:
        return None
    ct, h = found
    return CliffordRep(ct[0].T, h[0])


def _all_in_level(us, k):
    """Whether every matrix of a dense or Monomial stack lies in level k >= 1,
    the package's one level recursion: the stacked Pauli test at k = 1, the
    stacked Clifford test at k = 2, and above it the generator conjugates
    of every matrix, in chunks (_conjugate_chunks), at level k - 1."""
    if k == 1:
        return _pauli_stack(us)[0].all()
    if k == 2:
        return _clifford_stack(us) is not None
    gens = gf2.ident(2 * _stack_qubits(us))
    return all(_all_in_level(stack, k - 1) for stack in _conjugate_chunks(us, gens))


def _is_integer(x) -> bool:
    """Whether x is an integer: a numpy integer too, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_kmax(kmax):
    """Raise ValueError unless kmax is an integer (_is_integer) with
    1 <= kmax <= HIERARCHY_LEVEL_CAP."""
    if not _is_integer(kmax):
        raise ValueError(f"kmax={kmax!r} is not an integer")
    if kmax < 1:
        raise ValueError(f"kmax={kmax} is below 1")
    if kmax > HIERARCHY_LEVEL_CAP:
        raise ValueError(f"kmax={kmax} exceeds the cap {HIERARCHY_LEVEL_CAP}")


def check_hierarchy_cap(n):
    """Raise ValueError past the hierarchy test's HIERARCHY_QUBIT_CAP."""
    if n > HIERARCHY_QUBIT_CAP:
        raise ValueError(f"dimension {1 << n} exceeds the hierarchy cap")


def hierarchy_level(u, kmax=3):
    """Smallest k <= kmax with u in level k of the hierarchy, else None.

    Level 1 is the Pauli group, level 2 the Clifford group, and level
    k+1 contains the unitaries conjugating every Pauli into level k.
    Each level is decided by _all_in_level on the one-matrix stack u[None],
    which builds no PhasedPauli or CliffordRep.  kmax is checked before
    any matrix work.
    """
    check_kmax(kmax)
    u = check_unitary(u)
    check_hierarchy_cap(num_qubits(u))
    return next((k for k in range(1, kmax + 1) if _all_in_level(u[None], k)), None)


@lru_cache(maxsize=None)
def basis_bits(n) -> np.ndarray:
    """Read-only (2^n, n) array: row x holds the bits of label x, qubit 0 first."""
    labels, _, weights = _label_tables(n)
    bits = ((labels[:, None] & weights) != 0).astype(np.uint8)
    bits.flags.writeable = False
    return bits


def _check_block_form(cs):
    """Raise ValueError unless every C of a (k, 2n, 2n) stack has a zero
    lower-left block."""
    n = cs.shape[-1] // 2
    if cs[:, n:, :n].any():
        raise ValueError("rep has a nonzero lower-left block")


def _lambda_products(cs, hs, ybits) -> np.ndarray:
    """The gauge-invariant products lambda_0 * lambda_{f+y} of each rep of
    a block-form stack, one per row y: a (k, r) array for the C's cs
    (k, 2n, 2n) and h's hs (k, 2n) of k reps, with ybits (r, n) shared
    by all reps or (k, r, n), one set per rep.

    For a block-form rep C = (A E; 0 A^T), h = (f; g), evaluates
    i**(d0.y) * (-1)**(d0.y + g.y + y^T lows(AE + d0 d0^T) y), which pins
    every entry of the realized involution once one square root is
    chosen for lambda_0.  C^T J C is (0 A^T A^T; 0 (AE)^T) and AE is
    symmetric, so d0 = diag(AE) and lows(AE + d0 d0^T) are the lower
    halves of the rep's d and lows_matrix: one sign_data over the stack.
    Each y is then written as the features (y, y y^T), so both exponents
    come from one exact float32 BLAS product (gf2._blas_mat_mul) with the
    weights (d0, 0) and (g, lows): sums of at most n + n^2 bits.  Raises
    ValueError if a C is not in block form.
    """
    _check_block_form(cs)
    k, m = hs.shape
    n = m // 2
    d, low = sign_data(cs)
    pairs = (ybits[..., :, None] & ybits[..., None, :]).reshape(ybits.shape[:-1] + (n * n,))
    features = np.concatenate([ybits, pairs], axis=-1)
    weights = np.zeros((k, n + n * n, 2), dtype=np.uint8)
    weights[:, :n, 0] = d[:, n:]
    weights[:, :n, 1] = hs[:, n:]
    weights[:, n:, 1] = low[:, n:, n:].reshape(k, n * n)
    terms = gf2._blas_mat_mul(features, weights)
    iexp = terms[..., 0]
    # i**iexp (-1)**sexp is _PHASES[2 iexp + sexp], -0.0 imaginary parts included
    return _PHASES[2 * iexp + (iexp ^ terms[..., 1])]


def _check_involutions(cs, hs):
    """Raise ValueError unless every rep of a stack is a block-form
    involution rep: a zero lower-left block, and a square that is the
    identity rep, read off the diagonal of one product_table."""
    _check_block_form(cs)
    squares_c, squares_h = product_table(cs, hs, cs, hs)
    diag = np.arange(len(cs))
    identity = gf2.ident(cs.shape[-1])
    if squares_h[diag, diag].any() or not (squares_c[diag, diag] == identity).all():
        raise ValueError("rep does not satisfy the involution conditions")


def _realize_involutions(cs, hs) -> Monomial:
    """realize_block of each rep of a (k, 2n, 2n) C and (k, 2n) h stack,
    as one (k, 2^n) Monomial stack.  The checks run once, on the whole
    stack (_check_involutions), and so do the lambda products."""
    _check_involutions(cs, hs)
    n = cs.shape[-1] // 2
    xbits = basis_bits(n)
    labels, _, weights = _label_tables(n)
    shift = (hs[:, :n] @ weights)[:, None]  # the label of f
    targets = gf2._blas_mat_mul(xbits, cs[:, :n, :n]) @ weights ^ shift
    # the products at y = x + f are those at y = x, read at label x ^ f
    rhs = np.take_along_axis(_lambda_products(cs, hs, xbits), labels ^ shift, axis=1)
    lam0 = np.exp(1j * np.angle(rhs[:, :1]) / 2)
    return Monomial(targets, rhs / lam0)


def realize_block(rep: CliffordRep) -> Monomial:
    """The involution Q with Q|x> = lambda_x |f + A^T x>, as a Monomial.

    rep is in block form, C = (A E; 0 A^T) and h = (f; g), and passes
    is_involution_rep; that makes A an involution, E and AE symmetric
    and A^T f = f.  Raises ValueError otherwise.

    The phase products lambda_0 lambda_{f+y} are fixed by the rep; only
    lambda_0 itself is a gauge.  It must satisfy lambda_0^2 =
    (lambda_0 lambda_{f+f}), so we take the principal square root of
    that value (which is +1 whenever f = 0).  The result then squares
    to I exactly and extract_rep round-trips.  Its to_dense() is the
    dense matrix; no 2^n x 2^n array is built here.  This is the
    one-rep case of the stacked _realize_involutions.
    """
    return _realize_involutions(rep.c[None], rep.h[None])[0]


def commutator_sign(q1: CliffordRep, q2: CliffordRep) -> int:
    """+1 if the realized involutions commute, -1 if they anticommute.

    Evaluated purely from the lambda products, never from dense
    matrices: with both operators pinned as involutions, QQ' = Q'Q
    exactly when

        (lambda_0 lambda_f) * (lambda'_0 lambda'_{f+f'})
            == (lambda'_0 lambda'_{f'}) * (lambda_0 lambda_{f+f'}),

    each factor being a _lambda_products entry of one of the two reps.  In
    particular f = f' = 0 forces the +1 branch.  Both reps must be block
    involutions, as for realize_block.
    """
    _check_same_n(q1, q2)
    cs = np.stack([q1.c, q2.c])
    hs = np.stack([q1.h, q2.h])
    _check_involutions(cs, hs)
    if not np.array_equal(gf2.mat_mul(q1.c, q2.c), gf2.mat_mul(q2.c, q1.c)):
        raise ValueError("C-matrices do not commute")
    if not reps_commute(q1, q2):
        raise ValueError("reps do not satisfy the sign-compatibility condition")
    n = q1.n
    fcomp_l = (q2.f ^ gf2.mat_mul(q1.c[:n, :n].T, q2.f)) & 1
    fcomp_r = (q1.f ^ gf2.mat_mul(q2.c[:n, :n].T, q1.f)) & 1
    if not np.array_equal(fcomp_l, fcomp_r):
        raise ValueError("f-vectors are not compatible")
    fsum = q1.f ^ q2.f
    (l1_f, l1_sum), (l2_f, l2_sum) = _lambda_products(
        cs, hs, np.array([[q1.f, fsum], [q2.f, fsum]])
    )
    lhs = l1_f * l2_sum
    rhs = l2_f * l1_sum
    ratio = lhs / rhs
    if abs(ratio - 1) < TOL:
        return 1
    if abs(ratio + 1) < TOL:
        return -1
    raise AssertionError("sign relation produced a non-real ratio")


@dataclass(frozen=True)
class MonomialCheck:
    """Permutation-times-diagonal decomposition, when one exists.

    permutation[col] is the row of the unique significant entry of that
    column and phases[col] its value, so u = P Lambda with
    P[permutation[c], c] = 1 and Lambda = diag(phases).
    """

    is_monomial: bool
    permutation: tuple | None = None
    phases: tuple | None = None


def monomial_check(u) -> MonomialCheck:
    """Decompose u as permutation times diagonal, if it is monomial."""
    u = as_dense(u)
    heavy = np.abs(u) > TOL
    if not (heavy.sum(axis=0) == 1).all() or not (heavy.sum(axis=1) == 1).all():
        return MonomialCheck(False)
    rows = heavy.argmax(axis=0)
    phases = u[rows, np.arange(u.shape[0])]
    return MonomialCheck(True, tuple(int(r) for r in rows), tuple(phases))


def close_up_to_phase(u, v) -> bool:
    """Whether u = e^{i theta} v for a single global phase, within TOL.

    The phase is read at the largest entry of v, the first in row-major
    order among equals.  Two Monomials are compared in O(2^n): their
    permutations must be equal, and the phase is read at the entry the
    dense test reads.  A Monomial is compared only with a Monomial.
    """
    if isinstance(u, Monomial) or isinstance(v, Monomial):
        if not (isinstance(u, Monomial) and isinstance(v, Monomial)):
            raise TypeError("close_up_to_phase compares a Monomial only with a Monomial")
        if not np.array_equal(u.perm, v.perm):
            return False
        mags = np.abs(v.phases)
        cols = np.flatnonzero(mags == mags.max())
        col = cols[v.perm[cols].argmin()]  # the top row among the largest
        phase = u.phases[col] / v.phases[col]
    else:
        u = _as_operator(u)
        v = _as_operator(v)
        if u.shape != v.shape:
            return False
        idx = np.unravel_index(np.abs(v).argmax(), v.shape)
        if abs(v[idx]) < TOL:
            return close(u, v)
        phase = u[idx] / v[idx]
    if abs(abs(phase) - 1) > TOL:
        return False
    return close(u, phase * v)
