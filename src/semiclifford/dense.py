"""Operator engine: dense 2^n x 2^n matrices and monomial matrices.

Everything symbolic in this package is cross-checked against exact
2^n x 2^n matrices built here: Pauli membership, Clifford extraction,
hierarchy level decisions, monomial structure, and the realization of
block-form involutions as permutation-phase matrices.

An operator, one matrix or a stack of k, is stored in one of two
formats, each its own engine: a Monomial (permutation times diagonal,
(k, 2^n) arrays) for monomial gates, in O(2^n) per operation, and a
(k, d, d) complex array, run by the stateless _Dense, for the rest (H)
and as the oracle the tests check Monomials against.  _engine(us) is
the one choice between them (TypeError for anything else), and shared
code runs one body on _engine(us).method(us, ...).  Both engines have:

- dag, and conjugates(us, udag, vectors): us[i] tau_a us[i]^dag for
  each matrix i and row a of vectors, with tau_a the signed permutation
  of pauli.pauli_action, one batched matmul for a dense stack and one
  gather for a Monomial stack;
- entries(us, rows, cols): the (k, c) entries in rows (k, c) of the
  columns cols (c,);
- close(us, vs, signs), to_dense, stack(ops), and from_monomial(m), the
  Monomial m in the engine's format (from_monomial(Monomial.identity(n))
  is its identity);
- stored: the stored entries, the matrices or the phases, whose count
  per matrix sizes the chunks (_per_stack);
- is_unitary, and largest: the stored entry close_up_to_phase reads;
- generator_paulis: the Pauli tests of the 2n generator conjugates of
  each matrix, in chunks.  A Monomial builds no conjugate there:
  _affine_paulis reads its generator images off its affine permutation
  and its phase products.

_pauli_stack is the only Pauli test of a built conjugate: it reads each
candidate Pauli through entries, builds it in the stack's engine and
verifies the matrix against it with close.  is_pauli and the dense
Clifford test run it on stacks of at most _STACK_ENTRIES (2^14) stored
entries.  At n <= 3, classify runs it once on one such stack (u, its
4^n - 1 nonzero conjugates and the (2n)^2 conjugates of its generator
conjugates) and reads the hierarchy level and S(u) off that one result.

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
from .clifford import CliffordRep, product_table, sign_data
from .pauli import PhasedPauli, _label_tables, check_dense_cap, pauli_action, pauli_to_dense

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
    """Matrices of us's engine and size per stack when `stacks` stacks
    share _STACK_ENTRIES: d^2 stored entries per dense matrix, 2^n per
    Monomial, and one matrix when it alone is larger."""
    return max(1, _STACK_ENTRIES // (stacks * _engine(us).stored(us)[0].size))


# qubit cap of the dense hierarchy test, rep_to_dense and the pipeline
HIERARCHY_QUBIT_CAP = 7
HIERARCHY_LEVEL_CAP = 4


class Monomial:
    """A 2^n x 2^n monomial matrix: u|c> = phases[c] |perm[c]>.

    perm[c] is the row of the one nonzero entry of column c, as in
    MonomialCheck, and phases[c] its value.  Products, adjoints and Pauli
    conjugations cost O(2^n).  With (k, 2^n) arrays it is a stack of k
    matrices, the counterpart of a dense (k, d, d) stack: indexing
    (u[None] too) and iteration run over the first axis, dag, to_dense
    and the engine methods (module docstring) take a stack, and a
    product of two stacks of equal shape multiplies them pairwise, as
    ndarray @ does.  Every permutation entry lies in [0, 2^n) and is an
    integer (an integer array of any width), and every phase is above
    TOL in modulus (NaN is let through, for check_unitary to reject),
    which the constructor checks (ValueError otherwise).
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
        # close and close_up_to_phase read each phase as a nonzero entry
        if (np.abs(phases) <= TOL).any():
            raise ValueError("phase within TOL of 0")
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

    # The engine methods (module docstring), called on the class as
    # Monomial.method(us, ...), as _Dense's are; dag and to_dense above.

    def conjugates(self, udag, vectors):
        # tau_a sends |c> to signs[c + w] |c + w>, so all k m conjugates
        # are one O(k m 2^n) gather
        perm, signs = pauli_action(_stack_qubits(self), vectors)
        rows = np.arange(len(perm))[:, None]
        t = perm[rows, udag.perm[:, None]]  # (k, m, d): tau_a u^dag's perm
        phases = np.take_along_axis(self.phases[:, None], t, -1)
        phases *= signs[rows, t]
        phases *= udag.phases[:, None]
        perms = np.take_along_axis(self.perm[:, None], t, -1)
        d = perm.shape[-1]
        return Monomial._unchecked(perms.reshape(-1, d), phases.reshape(-1, d))

    def entries(self, rows, cols):
        return np.where(self.perm[:, cols] == rows, self.phases[:, cols], 0)

    def close(self, vs, signs=None):
        # equal permutations and phases within TOL: the dense test, since
        # each phase is above TOL in modulus
        other = vs.phases if signs is None else np.asarray(signs)[..., None] * vs.phases
        diff = self.phases - other
        return (self.perm == vs.perm).all(axis=-1) & (np.abs(diff).max(axis=-1) <= TOL)

    @staticmethod
    def stack(ops):
        perms, phases = (np.stack([getattr(op, a) for op in ops]) for a in ("perm", "phases"))
        return Monomial._unchecked(perms, phases)

    @staticmethod
    def from_monomial(m):
        return m

    def stored(self):
        return self.phases

    def is_unitary(self):
        # then u^dag u is diag(|phases|^2)
        bijective = np.array_equal(np.sort(self.perm), np.arange(self.perm.shape[-1]))
        return bijective and np.abs(np.abs(self.phases) ** 2 - 1).max() <= TOL

    def largest(self):
        mags = np.abs(self.phases)
        cols = np.flatnonzero(mags == mags.max())
        return cols[self.perm[cols].argmin()]  # the top row among the largest

    def generator_paulis(self):
        per = _per_stack(self, _stack_qubits(self))  # n X-images of 2^n entries per matrix
        return (_affine_paulis(self[i : i + per]) for i in range(0, len(self), per))


class _Dense:
    """The dense engine: Monomial's engine methods over (k, d, d) complex
    arrays, or (d, d) for one matrix, as functions with no state."""

    @staticmethod
    def dag(us):
        # C-contiguous, so that the row gathers of conjugates read whole rows
        return np.ascontiguousarray(np.conj(np.swapaxes(us, -1, -2)))

    @staticmethod
    def conjugates(us, udag, vectors):
        # tau_a u^dag is a row permutation of u^dag times +-1 signs, exact
        # in floating point, and one batched matmul finishes the conjugates
        perm, signs = pauli_action(_stack_qubits(us), vectors)
        moved = udag[:, perm, :]
        moved *= signs[..., None]
        return (us[:, None] @ moved).reshape((-1,) + us.shape[1:])

    @staticmethod
    def entries(us, rows, cols):
        return us[np.arange(len(us))[:, None], rows, cols]

    @staticmethod
    def close(us, vs, signs=None):
        diff = us - vs if signs is None else us - np.asarray(signs)[..., None, None] * vs
        return np.abs(diff).max(axis=(-2, -1)) <= TOL

    @staticmethod
    def to_dense(us):
        return us

    stored = to_dense  # the stored entries are the matrices
    stack = staticmethod(np.stack)
    from_monomial = staticmethod(Monomial.to_dense)

    @staticmethod
    def is_unitary(u):
        return _Dense.close(u.conj().T @ u, np.eye(u.shape[0]))

    @staticmethod
    def largest(u):
        return np.abs(u).argmax()

    @staticmethod
    def generator_paulis(us):
        gens = gf2.ident(2 * _stack_qubits(us))
        return (_pauli_stack(stack) for stack in _conjugate_chunks(us, gens))


def _engine(us):
    """The engine of an operator or stack, Monomial or _Dense: the one
    test of the storage format (module docstring)."""
    if isinstance(us, Monomial):
        return Monomial
    if isinstance(us, np.ndarray):
        return _Dense
    raise TypeError(f"a {type(us).__name__} is neither a Monomial nor an ndarray")


def as_dense(u) -> np.ndarray:
    """u as a complex ndarray; a Monomial is expanded to its dense matrix."""
    u = _as_operator(u)
    return _engine(u).to_dense(u)


def _as_operator(u):
    """A Monomial as it is, anything else as a complex ndarray.  Entries
    must be integer, real or complex numbers (ValueError otherwise): a
    cast to complex would parse numeric strings and read bools as 0/1."""
    try:
        if _engine(u) is Monomial:
            return u
    except TypeError:  # an array-like: a list or a number
        pass
    u = np.asarray(u)
    if u.dtype.kind not in "iufc":
        raise ValueError(f"matrix entries must be numbers, not {u.dtype}")
    return u.astype(complex, copy=False)


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
    return bool(_close_stack(_as_operator(a), _as_operator(b)))


def _close_stack(us, vs, signs=None):
    """close(us[t], signs[t] * vs[t]) for each matrix t of a stack (no sign
    product at signs=None), where vs is a stack of the same engine and
    length or one matrix for all t.  A Monomial is compared only with one."""
    engine = _engine(us)
    if _engine(vs) is not engine:
        raise TypeError("close compares a Monomial only with a Monomial")
    return engine.close(us, vs, signs)


def _finite_operator(u):
    """u as one square 2^n-dimensional operator (_as_operator; ValueError
    otherwise), or None if a stored entry is not finite: no unitary has
    one, and the dense products would warn on it."""
    u = _as_operator(u)
    num_qubits(u)
    return u if np.isfinite(_engine(u).stored(u)).all() else None


def check_unitary(u):
    """Validate unitarity of an untrusted matrix and return it as an
    operator: finite entries (_finite_operator), then the engine's
    is_unitary.  A Monomial is unitary when its permutation is a
    bijection and every phase has modulus 1 within TOL."""
    v = _finite_operator(u)
    if v is None or not _engine(v).is_unitary(v):
        raise ValueError("matrix is not unitary")
    return v


@lru_cache(maxsize=None)
def _generator_matrices(n):
    """Dense tau_{e_j} for j = 0..2n-1, cached per qubit count.

    The library conjugates through pauli_conjugates; these matrices are
    the two-matmul reference for tests and the benchmark's set-up probe.
    """
    return tuple(pauli_to_dense(PhasedPauli(0, 0, e)) for e in gf2.ident(2 * n))


def pauli_conjugates(u, vectors):
    """u tau_a u^dag for each row a of vectors, as one stack of u's engine.

    The (m, d, d) dense stack or the (m, 2^n) Monomial stack of all m
    conjugates, one batched product (the engine's conjugates),
    unchunked: its peak is about twice the stack, 7 MiB for the 2n = 14
    dense conjugates at n = 7.  Longer dense sets go through
    _conjugate_chunks.
    """
    us = _as_operator(u)[None]
    engine = _engine(us)
    return engine.conjugates(us, engine.dag(us), vectors)


def _conjugate_chunks(us, vectors):
    """Yield the conjugates us[i] tau_a us[i]^dag of a (k, ...) stack,
    over i and then the rows a of vectors, as stacks of at most
    _STACK_ENTRIES stored entries (_per_stack).  Each chunk of us gets
    its own adjoint, so no adjoint of the whole stack is held."""
    engine = _engine(us)
    per = _per_stack(us)
    m = len(vectors)
    rows, cols = max(1, per // m), min(per, m)
    for i in range(0, us.shape[0], rows):
        chunk = us[i : i + rows]
        udag = engine.dag(chunk)
        for j in range(0, m, cols):
            yield engine.conjugates(chunk, udag, vectors[j : j + cols])


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
    sign giving v_i), through the engine's entries.  Then each matrix
    is verified against its candidate, built in the same engine, by the
    engine's close, so near-misses (wrong phase grid, extra support) are
    rejected: every entry within TOL of the Pauli's.
    """
    n = _stack_qubits(us)
    engine = _engine(us)
    d = 1 << n
    heavy = np.abs(engine.entries(us, np.arange(d), np.zeros(d, dtype=np.intp))) > TOL
    row0 = heavy.argmax(axis=1)
    # column 0, then |e_i>: the label with only qubit i set
    cols = np.concatenate([[0], _label_tables(n)[2]])
    read = engine.entries(us, row0[:, None] ^ cols, cols)
    ok, bits, a = _read_pauli(n, heavy.sum(axis=1) == 1, row0, read)
    # the candidates only, and a view of us, no copy, when all are read
    rows = slice(None) if ok.all() else np.flatnonzero(ok)
    perm, signs = pauli_action(n, a[rows])
    # bits (delta, epsilon) index _PHASES as 2 * delta + epsilon; tau_a
    # is an involution, so column c holds values[c + w] in row c + w
    values = _PHASES[bits[rows] @ (2, 1)][:, None] * signs
    paulis = Monomial._unchecked(perm, values[np.arange(len(perm))[:, None], perm])
    ok[rows] = engine.close(us[rows], engine.from_monomial(paulis))
    return ok, bits, a


def is_pauli(u):
    """The unique PhasedPauli realized by u, or None: the one-matrix
    case of the stacked test (_pauli_stack), for either engine."""
    u = _finite_operator(u)
    if u is None:
        return None
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
    if one is not Clifford: the engine's generator_paulis, stopping at
    the first chunk with an image that is not a Pauli."""
    k = us.shape[0]
    m = 2 * _stack_qubits(us)
    bits, labels = [], []
    for ok, b, a in _engine(us).generator_paulis(us):
        if not ok.all():
            return None
        bits.append(b)
        labels.append(a)
    return _clifford_reps(
        np.concatenate(bits).reshape(k, m, 2), np.concatenate(labels).reshape(k, m, m)
    )


def extract_rep(u):
    """Read the (C, h) rep off a matrix, or None if not Clifford.

    The images of all 2n generators (_clifford_stack) must be exact
    phased Paulis.  The Hermiticity constraint d_j = c_j^T J c_j and the
    symplectic condition are verified rather than assumed.
    """
    u = _finite_operator(u)
    found = None if u is None else _clifford_stack(u[None])
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

    rep is in block form, C = (A E; 0 A^T) and h = (f; g), and squares
    to the identity rep; that makes A an involution, E and AE symmetric
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


@dataclass(frozen=True)
class MonomialCheck:
    """Permutation-times-diagonal decomposition, when one exists.

    permutation[col] is the row of the unique significant entry of that
    column and phases[col] its value, so u = P Lambda with
    P[permutation[c], c] = 1 and Lambda = diag(phases); both are None
    when u is not monomial.
    """

    permutation: tuple | None = None
    phases: tuple | None = None

    @property
    def is_monomial(self) -> bool:
        return self.permutation is not None


def monomial_check(u) -> MonomialCheck:
    """Decompose u as permutation times diagonal, if it is monomial."""
    u = as_dense(u)
    heavy = np.abs(u) > TOL
    one_each = (heavy.sum(axis=0) == 1).all() and (heavy.sum(axis=1) == 1).all()
    if not (one_each and np.isfinite(u).all()):  # an infinite entry is no phase
        return MonomialCheck()
    rows = heavy.argmax(axis=0)
    phases = u[rows, np.arange(u.shape[0])]
    return MonomialCheck(tuple(int(r) for r in rows), tuple(phases))


def close_up_to_phase(u, v) -> bool:
    """Whether u = e^{i theta} v for a single global phase, within TOL.

    The phase is read at the largest entry of v, the first in row-major
    order among equals: the stored entry at the engine's largest.  Two
    Monomials are compared in O(2^n), and a Monomial only with a
    Monomial.
    """
    u, v = _as_operator(u), _as_operator(v)
    engine = _engine(u)
    if _engine(v) is not engine:
        raise TypeError("close_up_to_phase compares a Monomial only with a Monomial")
    if u.shape != v.shape:
        return False
    at = engine.largest(v)
    zu, zv = engine.stored(u).flat[at], engine.stored(v).flat[at]
    if abs(zv) < TOL:
        return close(u, v)
    phase = zu / zv
    if abs(abs(phase) - 1) > TOL:
        return False
    return close(u, phase * v)
