"""Operator engine: dense 2^n x 2^n matrices and monomial matrices.

Everything symbolic in this package is cross-checked against exact
2^n x 2^n matrices built here: Pauli membership, Clifford extraction,
hierarchy level decisions, monomial structure, and the realization of
block-form involutions as permutation-phase matrices.  Every Pauli
conjugation u tau_a u^dag goes through pauli_conjugates, which applies
tau_a as the signed permutation of pauli.pauli_action (the single
source of tau_a's permutation and signs).  The dense engine works on
stacks: a set of conjugates is one batched product per stack, at most
_STACK_ENTRIES (2^14) entries, and one vectorized Pauli test reads and
verifies every matrix of a stack, so the Clifford test, the hierarchy
test and classify's semi-Clifford search cost a few numpy calls per
stack instead of one Python-level test per conjugate.
TOL is the package's one tolerance, and it is absolute: every dense
test reads it, and every matrix comparison goes through close, which
bounds the largest entrywise difference by TOL with no relative term.
The entries of Paulis, Cliffords and the certificate spectra are 0 or
an eighth root of unity over a power of sqrt(2), and at the supported
sizes two distinct such values differ by far more than TOL.  So TOL
only absorbs accumulated rounding, which stays near machine epsilon,
and never merges two exact values.

A Monomial (permutation times diagonal) is the engine's second
operator type.  check_unitary, close, pauli_conjugates, is_pauli and
so extract_rep and hierarchy_level accept one as well as an ndarray
and give the same result, each in O(2^n) per operation instead of a
dense matmul or scan.  The type of the input picks the engine; dense
matrices remain the engine for non-monomial gates (H) and the oracle
the tests check the monomial path against.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .clifford import BlockRep, CliffordRep, is_involution_rep, reps_commute
from .pauli import PhasedPauli, _label_tables, pauli_action, pauli_to_dense

TOL = 1e-9
# Most complex entries in one batched stack: a single 2^7 x 2^7 matrix,
# the hierarchy cap.  A stacked test holds a few temporaries the size of
# its stack, so stacks of whole n = 7 conjugate sets would multiply the
# peak memory of a hierarchy test by the set size; in chunks of this
# size it stays at the one-matrix peak, and at n <= 3 every set the
# searches build fits in one stack.
_STACK_ENTRIES = 1 << 14
# qubit cap of the dense hierarchy test, rep_to_dense and the pipeline
HIERARCHY_QUBIT_CAP = 7
HIERARCHY_LEVEL_CAP = 4


class Monomial:
    """A 2^n x 2^n monomial matrix: u|c> = phases[c] |perm[c]>.

    perm[c] is the row of the one nonzero entry of column c, as in
    MonomialCheck, and phases[c] its value; every phase is above TOL in
    modulus.  Products, adjoints and Pauli conjugations cost O(2^n).
    Treat the arrays as read-only: operations return new Monomials.
    """

    __slots__ = ("perm", "phases")
    # numpy operators defer to this class: `-1.0 * m` reaches __rmul__,
    # and `ndarray @ m` raises instead of building an object array
    __array_ufunc__ = None
    ndim = 2

    def __init__(self, perm, phases):
        perm = np.asarray(perm, dtype=np.intp)
        phases = np.asarray(phases, dtype=complex)
        if perm.ndim != 1 or perm.shape != phases.shape:
            raise ValueError(f"perm {perm.shape} and phases {phases.shape} differ in shape")
        self.perm = perm
        self.phases = phases

    @classmethod
    def identity(cls, n):
        dim = 1 << n
        return cls(np.arange(dim), np.ones(dim, dtype=complex))

    @classmethod
    def from_dense(cls, u):
        mc = monomial_check(u)
        if not mc.is_monomial:
            raise ValueError("matrix is not monomial")
        return cls(mc.permutation, mc.phases)

    @property
    def shape(self):
        return self.perm.shape * 2

    def __matmul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.perm.shape != other.perm.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not multiply")
        return Monomial(self.perm[other.perm], self.phases[other.perm] * other.phases)

    def __rmul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return Monomial(self.perm, scalar * self.phases)

    def dag(self):
        """The adjoint: column perm[c] holds conj(phases[c]) in row c."""
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        return Monomial(inv, self.phases[inv].conj())

    def to_dense(self) -> np.ndarray:
        dim = self.perm.size
        out = np.zeros((dim, dim), dtype=complex)
        out[self.perm, np.arange(dim)] = self.phases
        return out

    def __repr__(self):
        return f"Monomial(n={num_qubits(self)})"


def as_dense(u) -> np.ndarray:
    """u as a complex ndarray; a Monomial is expanded to its dense matrix."""
    if isinstance(u, Monomial):
        return u.to_dense()
    return np.asarray(u, dtype=complex)


def _as_operator(u):
    """A Monomial as it is, anything else as a complex ndarray."""
    if isinstance(u, Monomial):
        return u
    return np.asarray(u, dtype=complex)


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
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def close(a, b) -> bool:
    """Whether a and b agree within TOL in every entry (absolute, max-norm).

    Two Monomials are close when their permutations are equal and their
    phases agree within TOL, which is the dense test on their matrices,
    since each phase is above TOL in modulus.  A Monomial is compared
    only with a Monomial.
    """
    if isinstance(a, Monomial) or isinstance(b, Monomial):
        if not (isinstance(a, Monomial) and isinstance(b, Monomial)):
            raise TypeError("close compares a Monomial only with a Monomial")
        return np.array_equal(a.perm, b.perm) and bool(np.abs(a.phases - b.phases).max() <= TOL)
    return bool(np.abs(a - b).max() <= TOL)


def check_unitary(u):
    """Validate unitarity of an untrusted matrix and return it as complex.

    A Monomial is unitary when its permutation is a bijection and every
    phase has modulus 1 within TOL: then u^dag u is diag(|phases|^2).
    """
    u = _as_operator(u)
    n = num_qubits(u)
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
    """u tau_a u^dag for each row a of vectors.

    For a dense u of shape (..., d, d) the result is the (..., m, d, d)
    stack of all m conjugates, one batched product: tau_a is a signed
    permutation (pauli_action), so tau_a u^dag is a row permutation of
    u^dag times +-1 signs, exact in floating point.  The caller keeps
    the stack within _STACK_ENTRIES (see _conjugate_chunks).  For a
    Monomial u the conjugates are yielded lazily, so a test can stop at
    the first failure: tau_a is the Monomial sending |c> to
    signs[c + w] |c + w>, and each conjugate is two O(2^n) products.
    """
    if isinstance(u, Monomial):
        return _monomial_conjugates(u, vectors)
    u = np.asarray(u, dtype=complex)
    return _dense_conjugates(u, _dagger(u), vectors)


def _dagger(us):
    """The adjoint of each matrix of a stack, C-contiguous so that the
    row gathers of _dense_conjugates read whole rows."""
    return np.ascontiguousarray(np.conj(np.swapaxes(us, -1, -2)))


def _dense_conjugates(us, udag, vectors):
    perm, signs = pauli_action(_stack_qubits(us), vectors)
    moved = udag[..., perm, :]
    moved *= signs[..., None]
    return us[..., None, :, :] @ moved


def _monomial_conjugates(u, vectors):
    n = num_qubits(u)
    udag = u.dag()
    for a in vectors:
        perm, signs = pauli_action(n, a)
        yield u @ Monomial(perm, signs[perm]) @ udag


def _conjugate_chunks(us, vectors):
    """Yield the conjugates us[i] tau_a us[i]^dag of a dense (k, d, d)
    stack, over i and then the rows a of vectors, as (p, d, d) stacks of
    at most _STACK_ENTRIES entries (of one matrix when d^2 is larger)."""
    k, d = us.shape[0], us.shape[-1]
    m = len(vectors)
    per = max(1, _STACK_ENTRIES // (d * d))
    udag = _dagger(us)
    if per >= m:
        rows = per // m
        for i in range(0, k, rows):
            yield _dense_conjugates(us[i : i + rows], udag[i : i + rows], vectors).reshape(-1, d, d)
    else:
        for i in range(k):
            for j in range(0, m, per):
                yield _dense_conjugates(us[i], udag[i], vectors[j : j + per])


# the group phases i**delta (-1)**epsilon, and their (delta, epsilon) bits
_PHASES = np.array([1, -1, 1j, -1j])
_PHASE_BITS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)


def _pauli_stack(us):
    """is_pauli on every matrix of a dense (k, d, d) stack at once.

    Returns (ok, bits, a): ok (k,) is True exactly where the matrix is
    the phased Pauli i**delta (-1)**epsilon tau_a, with bits (k, 2) its
    (delta, epsilon) and a (k, 2n) its label; elsewhere bits and a mean
    nothing.  The candidate is read off column 0 (one entry z0, in row
    w) and the |e_i> columns (the entry in row w + e_i is +-z0, the
    sign giving v_i), then verified entrywise, every entry within TOL
    of the Pauli's, so near-misses (wrong phase grid, extra support)
    are rejected.
    """
    n = _stack_qubits(us)
    k = us.shape[0]
    idx = np.arange(k)
    heavy = np.abs(us[:, :, 0]) > TOL
    one = heavy.sum(axis=1) == 1
    row0 = heavy.argmax(axis=1)
    # a matrix with no single heavy entry is rejected; 1 keeps it finite
    z0 = np.where(one, us[idx, row0, 0], 1)
    cols = _label_tables(n)[2]  # |e_i>: the label with only qubit i set
    ratio = us[idx[:, None], row0[:, None] ^ cols, cols] / z0[:, None]
    plus = np.abs(ratio - 1) < TOL
    minus = np.abs(ratio + 1) < TOL
    v = minus.astype(np.uint8)
    w = basis_bits(n)[row0]
    base = z0 * (-1.0) ** ((v & w).sum(axis=1) & 1)
    near = np.abs(base[:, None] - _PHASES) < TOL
    ok = one & (plus | minus).all(axis=1) & near.any(axis=1)
    bits = _PHASE_BITS[near.argmax(axis=1)]
    a = np.concatenate([v, w], axis=1)
    sel = np.flatnonzero(ok)
    perm, signs = pauli_action(n, a[sel])
    diff = us[sel]
    # bits (delta, epsilon) index _PHASES as 2 * delta + epsilon
    diff[np.arange(sel.size)[:, None], np.arange(1 << n), perm] -= (
        _PHASES[bits[sel] @ (2, 1)][:, None] * signs
    )
    ok[sel] = np.abs(diff).max(axis=(1, 2)) <= TOL
    return ok, bits, a


def is_pauli(u):
    """The unique PhasedPauli realized by u, or None.

    A dense u is the one-matrix case of the stacked test (_pauli_stack).
    A Monomial's candidate is read off the same way and verified in
    O(2^n) against pauli_action: its permutation must be c -> c + w and
    its phases the candidate's phase times tau_a's signs.  Monomials
    are tested one at a time, so a caller can stop at the first miss.
    """
    u = _as_operator(u)
    n = num_qubits(u)
    if not isinstance(u, Monomial):
        ok, bits, a = _pauli_stack(u[None])
        return PhasedPauli(*bits[0], a[0]) if ok[0] else None
    # the read-off of _pauli_stack, one scalar at a time: on one Monomial
    # that is cheaper than numpy calls on length-1 arrays
    row0, z0 = int(u.perm[0]), complex(u.phases[0])
    if abs(z0) <= TOL:
        return None
    v = []
    for col in _label_tables(n)[2].tolist():
        ratio = u.phases[col] / z0 if u.perm[col] == row0 ^ col else 0
        if abs(ratio - 1) < TOL or abs(ratio + 1) < TOL:
            v.append(int(ratio.real < 0))
        else:
            return None
    w = basis_bits(n)[row0]
    near = np.abs(z0 * (-1.0) ** gf2.dot(v, w) - _PHASES) < TOL
    if not near.any():
        return None
    cand = PhasedPauli(*_PHASE_BITS[near.argmax()], np.concatenate([v, w]))
    perm, signs = pauli_action(n, cand.a)
    if np.array_equal(u.perm, perm) and np.abs(u.phases - cand.phase * signs[perm]).max() <= TOL:
        return cand
    return None


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
    p = gf2.p_mat(n)
    symplectic = (((ct @ p) & 1) @ np.swapaxes(ct, -1, -2) & 1) == p
    if not (hermitian.all() and symplectic.all()):
        return None
    return ct, bits[..., 1]


def _clifford_stack(us):
    """_clifford_reps of a dense (k, d, d) stack, or None if one is not
    Clifford.

    The conjugates of all 2n generators go through the stacked Pauli
    test in chunks (_conjugate_chunks), stopping at the first chunk with
    an image that is not a phased Pauli.
    """
    k = us.shape[0]
    m = 2 * _stack_qubits(us)
    bits = np.empty((k * m, 2), dtype=np.uint8)
    labels = np.empty((k * m, m), dtype=np.uint8)
    start = 0
    for stack in _conjugate_chunks(us, gf2.ident(m)):
        stop = start + len(stack)
        ok, bits[start:stop], labels[start:stop] = _pauli_stack(stack)
        if not ok.all():
            return None
        start = stop
    return _clifford_reps(bits.reshape(k, m, 2), labels.reshape(k, m, m))


def _monomial_clifford(u):
    """_clifford_reps of one Monomial, testing its conjugates one at a
    time and stopping at the first that is not a phased Pauli."""
    images = []
    for conj in pauli_conjugates(u, gf2.ident(2 * num_qubits(u))):
        img = is_pauli(conj)
        if img is None:
            return None
        images.append(img)
    bits = np.array([[(img.delta, img.epsilon) for img in images]], dtype=np.uint8)
    return _clifford_reps(bits, np.array([[img.a for img in images]]))


def extract_rep(u):
    """Read the (C, h) rep off a matrix, or None if not Clifford.

    Conjugates all 2n generators; every image must be an exact phased
    Pauli.  The Hermiticity constraint d_j = c_j^T J c_j and the
    symplectic condition are verified rather than assumed.
    """
    u = _as_operator(u)
    num_qubits(u)  # rejects anything but a square 2^n-dimensional matrix
    found = _monomial_clifford(u) if isinstance(u, Monomial) else _clifford_stack(u[None])
    if found is None:
        return None
    ct, h = found
    return CliffordRep(ct[0].T, h[0])


def _in_level(u, k):
    if k == 1:
        return is_pauli(u) is not None
    if k == 2:
        return extract_rep(u) is not None
    if not isinstance(u, Monomial):
        return _all_in_level(u[None], k)
    gens = gf2.ident(2 * num_qubits(u))
    return all(_in_level(conj, k - 1) for conj in pauli_conjugates(u, gens))


def _all_in_level(us, k):
    """Whether every matrix of a dense (k', d, d) stack lies in level k >= 2."""
    if k == 2:
        return _clifford_stack(us) is not None
    gens = gf2.ident(2 * _stack_qubits(us))
    return all(_all_in_level(stack, k - 1) for stack in _conjugate_chunks(us, gens))


def hierarchy_level(u, kmax=3):
    """Smallest k <= kmax with u in level k of the hierarchy, else None.

    Level 1 is the Pauli group, level 2 the Clifford group, and level
    k+1 contains the unitaries conjugating every Pauli into level k.
    """
    if kmax < 1:
        raise ValueError(f"kmax={kmax} is below 1")
    if kmax > HIERARCHY_LEVEL_CAP:
        raise ValueError(f"kmax={kmax} exceeds the cap {HIERARCHY_LEVEL_CAP}")
    u = check_unitary(u)
    if num_qubits(u) > HIERARCHY_QUBIT_CAP:
        raise ValueError(f"dimension {u.shape[0]} exceeds the hierarchy cap")
    for k in range(1, kmax + 1):
        if _in_level(u, k):
            return k
    return None


@lru_cache(maxsize=None)
def basis_bits(n) -> np.ndarray:
    """Read-only (2^n, n) array: row x holds the bits of label x, qubit 0 first."""
    labels, _, weights = _label_tables(n)
    bits = ((labels[:, None] & weights) != 0).astype(np.uint8)
    bits.flags.writeable = False
    return bits


def _lambda_kernel(blk: BlockRep):
    """Strictly lower part of AE + d0 d0^T, the quadratic piece of the phases."""
    d0 = blk.d0
    return gf2.lows((gf2.mat_mul(blk.a, blk.e) ^ np.outer(d0, d0)) & 1)


def _lambda_products(blk: BlockRep, ybits) -> np.ndarray:
    """The gauge-invariant products lambda_0 * lambda_{f+y}, one per row y.

    Evaluates i**(d0.y) * (-1)**(d0.y + g.y + y^T lows(AE + d0 d0^T) y),
    which pins every entry of the realized involution once one square
    root is chosen for lambda_0.
    """
    iexp = (ybits @ blk.d0) & 1
    low = _lambda_kernel(blk)
    sexp = (iexp + ybits @ blk.g + np.einsum("ij,jk,ik->i", ybits, low, ybits)) & 1
    return (1j ** iexp.astype(int)) * ((-1.0) ** sexp.astype(int))


def _check_involution_block(blk: BlockRep):
    if not is_involution_rep(blk.to_rep()):
        raise ValueError("rep does not satisfy the involution conditions")


def realize_block(blk: BlockRep) -> np.ndarray:
    """Dense involution Q with Q|x> = lambda_x |f + A^T x>.

    The phase products lambda_0 lambda_{f+y} are fixed by the rep; only
    lambda_0 itself is a gauge.  It must satisfy lambda_0^2 =
    (lambda_0 lambda_{f+f}), so we take the principal square root of
    that value (which is +1 whenever f = 0).  The result then squares
    to I exactly and extract_rep round-trips.
    """
    _check_involution_block(blk)
    n = blk.n
    dim = 1 << n
    xbits = basis_bits(n)
    targets = ((xbits @ blk.a ^ blk.f) & 1) @ _label_tables(n)[2]
    rhs = _lambda_products(blk, xbits ^ blk.f)
    lam0 = np.exp(1j * np.angle(rhs[0]) / 2)
    lam = rhs / lam0
    u = np.zeros((dim, dim), dtype=complex)
    u[targets, np.arange(dim)] = lam
    return u


def commutator_sign(q1: BlockRep, q2: BlockRep) -> int:
    """+1 if the realized involutions commute, -1 if they anticommute.

    Evaluated purely from the lambda products, never from dense
    matrices: with both operators pinned as involutions, QQ' = Q'Q
    exactly when

        (lambda_0 lambda_f) * (lambda'_0 lambda'_{f+f'})
            == (lambda'_0 lambda'_{f'}) * (lambda_0 lambda_{f+f'}),

    each factor being a _lambda_products entry of one of the two reps.  In
    particular f = f' = 0 forces the +1 branch.
    """
    r1 = q1.to_rep()
    r2 = q2.to_rep()
    if q1.n != q2.n:
        raise ValueError(f"qubit counts differ: {q1.n} vs {q2.n}")
    _check_involution_block(q1)
    _check_involution_block(q2)
    if not np.array_equal(gf2.mat_mul(r1.c, r2.c), gf2.mat_mul(r2.c, r1.c)):
        raise ValueError("C-matrices do not commute")
    if not reps_commute(r1, r2):
        raise ValueError("reps do not satisfy the sign-compatibility condition")
    fcomp_l = (q2.f ^ gf2.mat_mul(q1.a.T, q2.f)) & 1
    fcomp_r = (q1.f ^ gf2.mat_mul(q2.a.T, q1.f)) & 1
    if not np.array_equal(fcomp_l, fcomp_r):
        raise ValueError("f-vectors are not compatible")
    fsum = q1.f ^ q2.f
    l1_f, l1_sum = _lambda_products(q1, np.array([q1.f, fsum]))
    l2_f, l2_sum = _lambda_products(q2, np.array([q2.f, fsum]))
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
    u = np.asarray(u, dtype=complex)
    heavy = np.abs(u) > TOL
    if not (heavy.sum(axis=0) == 1).all() or not (heavy.sum(axis=1) == 1).all():
        return MonomialCheck(False)
    rows = heavy.argmax(axis=0)
    phases = u[rows, np.arange(u.shape[0])]
    return MonomialCheck(True, tuple(int(r) for r in rows), tuple(phases))


def close_up_to_phase(u, v) -> bool:
    """Whether u = e^{i theta} v for a single global phase, within TOL."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        return False
    idx = np.unravel_index(np.abs(v).argmax(), v.shape)
    if abs(v[idx]) < TOL:
        return close(u, v)
    phase = u[idx] / v[idx]
    if abs(abs(phase) - 1) > TOL:
        return False
    return close(u, phase * v)
