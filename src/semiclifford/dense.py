"""Operator engine: dense 2^n x 2^n matrices and monomial matrices.

Everything symbolic in this package is cross-checked against exact
2^n x 2^n matrices built here: Pauli membership, Clifford extraction,
hierarchy level decisions, monomial structure, and the realization of
block-form involutions as permutation-phase matrices.  Every Pauli
conjugation u tau_a u^dag goes through pauli_conjugates, which applies
tau_a as the signed permutation of pauli.pauli_action (the single
source of tau_a's permutation and signs), so it costs one matmul.
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
from .clifford import CliffordRep, compose, is_involution_rep, reps_commute
from .pauli import PhasedPauli, _label_tables, pauli_action, pauli_to_dense

TOL = 1e-9
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
    dim = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"not a square matrix: {u.shape}")
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
    """Yield u tau_a u^dag for each a in vectors, lazily.

    tau_a is a signed permutation (pauli_action), so tau_a u^dag is a
    row permutation of u^dag times +-1 signs: exact in floating point
    and O(4^n), which leaves one matmul per conjugation.  For a
    Monomial u, tau_a is the Monomial sending |c> to signs[c + w] |c + w>,
    and the conjugate is two O(2^n) Monomial products.
    """
    n = num_qubits(u)
    if isinstance(u, Monomial):
        udag = u.dag()
        for a in vectors:
            perm, signs = pauli_action(n, a)
            yield u @ Monomial(perm, signs[perm]) @ udag
        return
    udag = u.conj().T
    for a in vectors:
        perm, signs = pauli_action(n, a)
        yield u @ (signs[:, None] * udag[perm])


_PHASE_TABLE = ((1 + 0j, (0, 0)), (-1 + 0j, (0, 1)), (1j, (1, 0)), (-1j, (1, 1)))


def _phase_bits(z):
    """Map a complex number to (delta, epsilon) if it is a group phase."""
    for val, bits in _PHASE_TABLE:
        if abs(z - val) < TOL:
            return bits
    return None


def is_pauli(u):
    """The unique PhasedPauli realized by u, or None.

    A candidate is read off the action on |0> and the |e_j> states and
    then verified entrywise, so near-misses (wrong phase grid, extra
    support) are rejected.  A Monomial is verified in O(2^n) against
    pauli_action: its permutation must be c -> c + w and its phases the
    candidate's phase times tau_a's signs.
    """
    u = _as_operator(u)
    n = num_qubits(u)
    cols = [1 << (n - 1 - i) for i in range(n)]  # |e_i>: qubit i's bit set
    if isinstance(u, Monomial):
        row0, z0 = int(u.perm[0]), u.phases[0]
        if abs(z0) <= TOL:
            return None
        vals = [u.phases[c] if u.perm[c] == row0 ^ c else 0 for c in cols]
    else:
        col0 = u[:, 0]
        hits = np.flatnonzero(np.abs(col0) > TOL)
        if hits.size != 1:
            return None
        row0 = int(hits[0])
        z0 = col0[row0]
        vals = [u[row0 ^ c, c] for c in cols]
    v = np.zeros(n, dtype=np.uint8)
    for i, val in enumerate(vals):
        ratio = val / z0
        if abs(ratio - 1) < TOL:
            v[i] = 0
        elif abs(ratio + 1) < TOL:
            v[i] = 1
        else:
            return None
    w = np.array([(row0 >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)
    base = z0 * (-1.0) ** gf2.dot(v, w)
    bits = _phase_bits(base)
    if bits is None:
        return None
    cand = PhasedPauli(bits[0], bits[1], np.concatenate([v, w]))
    if isinstance(u, Monomial):
        perm, signs = pauli_action(n, cand.a)
        ok = np.array_equal(u.perm, perm) and bool(
            np.abs(u.phases - cand.phase * signs[perm]).max() <= TOL
        )
    else:
        ok = close(u, pauli_to_dense(cand))
    return cand if ok else None


def extract_rep(u):
    """Read the (C, h) rep off a dense matrix, or None if not Clifford.

    Conjugates all 2n generators; every image must be an exact phased
    Pauli.  The Hermiticity constraint d_j = c_j^T J c_j and the
    symplectic condition are verified rather than assumed.
    """
    u = _as_operator(u)
    n = num_qubits(u)
    cols = []
    hbits = []
    j = gf2.j_mat(n)
    for conj in pauli_conjugates(u, gf2.ident(2 * n)):
        img = is_pauli(conj)
        if img is None:
            return None
        if img.delta != gf2.quad_form(j, img.a):
            return None
        cols.append(img.a)
        hbits.append(img.epsilon)
    c = np.array(cols, dtype=np.uint8).T
    if not gf2.is_symplectic(c):
        return None
    return CliffordRep(c, np.array(hbits, dtype=np.uint8))


def _in_level(u, k):
    if k == 1:
        return is_pauli(u) is not None
    if k == 2:
        return extract_rep(u) is not None
    gens = gf2.ident(2 * num_qubits(u))
    return all(_in_level(conj, k - 1) for conj in pauli_conjugates(u, gens))


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


class BlockRep:
    """Involution-friendly rep with C = (A E; 0 A^T) and h = (f; g).

    Validated invariants: A^2 = I, E and AE symmetric (equivalently C
    is a symplectic involution with zero lower-left block) and
    A^T f = f.  d0 = diag(AE) is derived.
    """

    __slots__ = ("a", "e", "f", "g")

    def __init__(self, a, e, f, g):
        a = gf2.frozenbits(a)
        e = gf2.frozenbits(e)
        f = gf2.frozenbits(f)
        g = gf2.frozenbits(g)
        n = a.shape[0]
        if a.shape != (n, n) or e.shape != (n, n) or f.shape != (n,) or g.shape != (n,):
            raise ValueError("inconsistent block shapes")
        if not np.array_equal(gf2.mat_mul(a, a), gf2.ident(n)):
            raise ValueError("A is not an involution")
        if not np.array_equal(e, e.T):
            raise ValueError("E is not symmetric")
        ae = gf2.mat_mul(a, e)
        if not np.array_equal(ae, ae.T):
            raise ValueError("AE is not symmetric")
        if not np.array_equal(gf2.mat_mul(a.T, f), f):
            raise ValueError("f is not fixed by A^T")
        self.a = a
        self.e = e
        self.f = f
        self.g = g

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d0(self):
        return gf2.diag_vec(gf2.mat_mul(self.a, self.e))

    @classmethod
    def from_rep(cls, rep: CliffordRep):
        n = rep.n
        if rep.c[n:, :n].any():
            raise ValueError("rep has a nonzero lower-left block")
        a = rep.c[:n, :n]
        if not np.array_equal(rep.c[n:, n:], a.T):
            raise ValueError("lower-right block is not A^T")
        return cls(a, rep.c[:n, n:], rep.h[:n], rep.h[n:])

    def to_rep(self) -> CliffordRep:
        n = self.n
        c = gf2.zeros(2 * n, 2 * n)
        c[:n, :n] = self.a
        c[:n, n:] = self.e
        c[n:, n:] = self.a.T
        return CliffordRep(c, np.concatenate([self.f, self.g]))

    def __eq__(self, other):
        return isinstance(other, BlockRep) and self.to_rep() == other.to_rep()

    def __repr__(self):
        return f"BlockRep(n={self.n})"


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
    targets_bits = (xbits @ blk.a ^ blk.f) & 1
    powers = 1 << np.arange(n - 1, -1, -1)
    targets = targets_bits @ powers
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
