"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: Pauli
coefficients come from literal trace projections, dense Paulis from
Kronecker products, diagonal span ranks from exact elimination of the
full pattern matrix, Lagrangians from a DFS over isotropic extensions,
symplectic groups from brute-force filtering of all matrices, and
generalized semi-Clifford witnesses from a full monomial check of every
Lagrangian pair.  reconstruct_unitary inverts generators_from_gate on
the dense side, as a round-trip check of generator families.  The
scalar dense engine the library's stacked one replaced is kept here as
its oracle: one Pauli read-off per matrix, conjugates by two matmuls,
and the semi-Clifford search one Lagrangian at a time.
embed_gate_oracle builds a gate's 2^n x 2^n matrix one column at a
time, decoding each label bit by bit; the library places each gate's
own matrix, Monomial or rep instead, and builds no such matrix.
lagrangian_clifford_table is the dense (L, 2^n, 2^n) stack of
Lagrangian Cliffords that the generalized semi-Clifford search held
before it decided pairs from Pauli supports; the oracles below read it.
candidate_pairs_oracle is the L^2 pair product over an
outside-each-Lagrangian table that the library's per-domain isotropy
test replaced.
circuit_to_dense_oracle is the embed-and-multiply circuit build that
the library's block-wise one replaced.
rref_oracle is the per-bit row reduction the library's packed-int
elimination replaced, and
orbit_kernel_oracle the breadth-first orbit search its coset-doubling
orbit_kernel replaced.  compose_oracle and inverse_oracle are the
scalar composition and inversion formulas that clifford.product_table
replaced for both, each reading d and lows(C^T J C + d d^T) off explicit
products with J rather than the library's stacked sign_data.
symplectic_mask_uint8, sign_data_uint8 and product_table_uint8 are the
stacked bodies with uint8 products that the library's exact float32 BLAS
products replaced.
circuit_to_rep_compose_oracle composes each gate's placed 2n x 2n rep,
and circuit_to_rep_oracle is the numpy tableau update of the gate's own
rows of C that the library's circuit_to_rep runs on packed-int rows.
symmetric_congruence_oracle is the per-entry congruence loop that
gf2.symmetric_congruence runs on packed-int rows.
involution_normal_form_oracle and commuting_set_normal_form_oracle are
the normal_form oracle: the numpy module that the library's packed-row
one replaced, with uint8 products, np.ix_ meshes for the interleaved
split, symmetric_congruence_oracle and symplectic_inverse_oracle (the
gather of m^T by the half-swap mesh that gf2.symplectic_inverse
replaced) at every level.
set_normal_form_oracle is the list-based commuting-set normal form that
the stacked one replaced: it conjugates one element at a time, first by
m_a and then by m_b at each level, and the inputs once more by the
final M.  jordan_basis_oracle completes Im(N) to Ker(N) by growing rank
tests, one elimination per kernel vector.
enumerate_lagrangians_oracle, symplectic_complete_oracle,
alpha_vector_oracle and expand_oracle are the one-vector-at-a-time
bodies that the library's stacked GF(2) products replaced: a basis per
free-slot mask, a pairing constraint per column, and scalar dot,
quad_form and mat_mul calls per generator of the expansion.
coefficient_dicts_oracle is the expand report's coefficient list of one
dict per support point, which json.dumps encoded before the CLI wrote
the table from one encoding of each distinct coefficient.
pauli_mul, commutes, from_pauli, is_involution_rep, reps_commute,
commutator_sign, standard_gate, product_rep and alpha_vector were
library functions that no verb, script or benchmark called; they are
oracles here, product_rep and alpha_vector as one-line calls of the
library's _products and _alpha_on.
random_circuit, write_circuit and parse_pauli (the inverse of
PhasedPauli's repr) are samplers, writers and readers that only tests
use; stack_ops builds the one operator stack that GeneratorFamily.ops
holds from single matrices, through the engine's stack, family_of an
unvalidated GeneratorFamily from a sequence of CliffordReps, whose
qubit count is read off their h-vectors, and reps_of the reverse: a
family's reps as checked CliffordReps, which the library builds only
in build_fmap.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

import numpy as np

from semiclifford import gf2
from semiclifford.circuits import (
    GATE_ARITY,
    GATE_MATRICES,
    CircuitDescription,
    _clifford_gate,
    _gate_name,
    _rep_coords,
    circuit_to_dense,
    circuit_to_monomial,
)
from semiclifford.cli import matrix_rows
from semiclifford.clifford import CliffordRep, compose
from semiclifford.classify import (
    GscWitness,
    SemiCliffordWitness,
    _coefficient_basis,
    _verify_span_map,
)
from semiclifford.dense import (
    TOL,
    Monomial,
    _check_involutions,
    _engine,
    _lambda_products,
    as_dense,
    check_unitary,
    close,
    extract_rep,
    monomial_check,
    num_qubits,
    pauli_conjugates,
)
from semiclifford.expansion import _alpha_on, _fixed_space, rep_to_dense
from semiclifford.normal_form import (
    NormalFormResult,
    SetNormalForm,
    _noncommuting_pair,
    _validate_involution,
)
from semiclifford.pauli import PhasedPauli, _check_same_n, pauli_to_dense
from semiclifford.pipeline import GeneratorFamily, _products


# single-qubit tau matrices; tau_00 is the group identity
_TAU = {
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, 1], [-1, 0]], dtype=complex),
}


def _sign_data_oracle(c):
    """d = diag(C^T J C) and lows(C^T J C + d d^T) of one matrix, J = (0 I; 0 0)."""
    cjc = gf2.mat_mul(gf2.mat_mul(c.T, gf2.j_mat(c.shape[0] // 2)), c)
    d = np.diagonal(cjc).copy()
    return d, np.tril((cjc ^ np.outer(d, d)) & 1, -1)


def symplectic_mask_uint8(cs):
    """gf2.symplectic_mask with its T^T B products in uint8, as before the
    float32 BLAS product: per matrix, (T^T B + B^T T) mod 2 == P."""
    n = cs.shape[-1] // 2
    tb = np.swapaxes(cs[..., :n, :], -1, -2) @ cs[..., n:, :]
    return (((tb ^ np.swapaxes(tb, -1, -2)) & 1) == gf2.p_mat(n)).all(axis=(-2, -1))


def sign_data_uint8(cs):
    """clifford.sign_data with its C^T J C product in uint8 and np.tril for
    the lower part, as before the float32 BLAS product."""
    n = cs.shape[-1] // 2
    cjc = np.swapaxes(cs[..., :n, :], -1, -2) @ cs[..., n:, :] & 1
    d = np.diagonal(cjc, axis1=-2, axis2=-1).copy()
    return d, np.tril(cjc ^ (d[..., :, None] & d[..., None, :]), -1)


def product_table_uint8(left_c, left_h, right_c, right_h):
    """clifford.product_table with its row x column product as a uint8
    einsum (sums wrap mod 256, which keeps their parity), as before the
    float32 BLAS product."""
    k, m, _ = left_c.shape
    kr = right_c.shape[0]
    d_left, low_left = sign_data_uint8(left_c)
    d_right = sign_data_uint8(right_c)[0]
    cols = right_c.transpose(1, 0, 2).reshape(m, kr * m)
    rows = np.concatenate([left_c.reshape(k * m, m), low_left.reshape(k * m, m), left_h, d_left])
    prod = np.einsum("ab,bc->ac", rows, cols)
    c12 = prod[: k * m].reshape(k, m, kr, m).transpose(0, 2, 1, 3)
    low_c = prod[k * m : 2 * k * m].reshape(k, m, kr, m)
    quad = np.einsum("iajx,ajx->ijx", low_c, cols.reshape(m, kr, m))
    hc, dc = prod[2 * k * m :].reshape(2, k, kr, m)
    return c12 & 1, (right_h[None] + hc + quad + dc * d_right[None]) & 1


def compose_oracle(outer: CliffordRep, inner: CliffordRep) -> CliffordRep:
    """Rep of outer * inner by the scalar Dehaene-De Moor formula."""
    d_out, low_out = _sign_data_oracle(outer.c)
    d_in = _sign_data_oracle(inner.c)[0]
    c12 = gf2.mat_mul(outer.c, inner.c)
    cross = gf2.mat_mul(gf2.mat_mul(inner.c.T, low_out), inner.c)
    cross = (cross ^ (np.outer(d_in, d_out) @ inner.c & 1)) & 1
    h12 = (inner.h ^ gf2.mat_mul(inner.c.T, outer.h) ^ np.diagonal(cross)) & 1
    return CliffordRep(c12, h12)


def inverse_oracle(rep: CliffordRep) -> CliffordRep:
    """Rep of the inverse operator, with its own h formula."""
    cinv = gf2.symplectic_inverse(rep.c)
    cinv_t = cinv.T
    d, low = _sign_data_oracle(rep.c)
    d_prime = _sign_data_oracle(cinv)[0]
    cross = gf2.mat_mul(gf2.mat_mul(cinv_t, low), cinv)
    cross = (cross ^ (np.outer(d_prime, d) @ cinv & 1)) & 1
    h_prime = (gf2.mat_mul(cinv_t, rep.h) ^ np.diagonal(cross)) & 1
    return CliffordRep(cinv, h_prime)


def from_pauli(p: PhasedPauli) -> CliffordRep:
    """Rep (C = I, h = P a) of a Pauli operator; the rep cannot see p's phase."""
    return CliffordRep(gf2.ident(2 * p.n), gf2.mat_mul(gf2.p_mat(p.n), p.a))


def is_involution_rep(rep: CliffordRep) -> bool:
    """Whether the represented phase class contains an involution: the
    rep of Q^2 is the identity rep."""
    return compose(rep, rep).is_identity()


def reps_commute(a: CliffordRep, b: CliffordRep) -> bool:
    """Whether the operators commute up to a sign (reps of ab and ba agree)."""
    return compose(a, b) == compose(b, a)


def standard_gate(name, qubits, n) -> CliffordRep:
    """Rep of a Clifford library gate on the given qubits of n: the gate's
    own rep placed on coordinates idx (_rep_coords) of the identity rep."""
    name = _gate_name(name)
    qubits = tuple(qubits)
    CircuitDescription(n, ((name, qubits),))  # checks the name and qubits
    gate = _clifford_gate(name)
    idx = _rep_coords(qubits, n)
    c = np.eye(2 * n, dtype=np.uint8)
    c[np.ix_(idx, idx)] = gate.c
    h = np.zeros(2 * n, dtype=np.uint8)
    h[idx] = gate.h
    return CliffordRep(c, h)


def circuit_to_rep_compose_oracle(desc: CircuitDescription) -> CliffordRep:
    """Rep of a Clifford circuit by composing each gate's placed 2n x 2n
    rep (standard_gate) onto the running one."""
    rep = CliffordRep.identity(desc.n)
    for name, qubits in desc.gates:
        rep = compose(standard_gate(name, qubits, desc.n), rep)
    return rep


def circuit_to_rep_oracle(desc: CircuitDescription) -> CliffordRep:
    """Rep of a Clifford circuit by a numpy tableau update per gate.

    Each gate's own rep g updates the rows idx = [q..., n + q...] of the
    running C, C[idx] = g.c C[idx], and with rows = C[idx] and d_C read
    before the update, h += g.h rows + diag(rows^T g.lows rows)
    + (g.d rows) d_C, summed in uint8 (whose wrap keeps the parity) and
    reduced once.
    """
    n = desc.n
    c = np.eye(2 * n, dtype=np.uint8)
    h = np.zeros(2 * n, dtype=np.uint8)
    for name, qubits in desc.gates:
        gate = extract_rep(GATE_MATRICES[name])
        if gate is None:
            raise ValueError(f"{name} is not a Clifford gate")
        idx = [*qubits, *(n + q for q in qubits)]
        rows = c[idx]
        h += gate.h @ rows + ((gate.lows_matrix @ rows) & rows).sum(axis=0, dtype=np.uint8)
        h += (gate.d @ rows) * (c[:n] & c[n:]).sum(axis=0, dtype=np.uint8)
        c[idx] = gate.c @ rows & 1
    return CliffordRep(c, h & 1)


_PARSE_RE = re.compile(r"([+-])(i\.)?tau\[([01]+)\|([01]+)\]")


def stack_ops(ops):
    """One stack of the operators' engine: a (k, 2^n) Monomial or a
    (k, d, d) array."""
    return _engine(ops[0]).stack(ops)


def family_of(reps, ops) -> GeneratorFamily:
    """An unvalidated GeneratorFamily holding the bits of the CliffordReps
    reps as its cs and hs stacks."""
    return GeneratorFamily(np.stack([q.c for q in reps]), np.stack([q.h for q in reps]), ops)


def reps_of(family: GeneratorFamily) -> tuple:
    """The family's reps as checked CliffordReps, rep i from (cs[i], hs[i])."""
    return tuple(map(CliffordRep, family.cs, family.hs))


def product_rep(family: GeneratorFamily, bits) -> CliffordRep:
    """Rep of the generator product with exponent vector bits (one entry
    per generator, ValueError otherwise): pipeline._products on one
    nonzero row, and the identity on a zero row."""
    bits = gf2.asbits(bits)
    if bits.ndim != 1 or bits.size != len(family.cs):
        raise ValueError(f"exponent vector has length {bits.size}, expected {len(family.cs)}")
    if not bits.any():
        return CliffordRep.identity(family.n)
    cs, hs = _products(family, bits[None])
    return CliffordRep(cs[0], hs[0])


def parse_pauli(text) -> PhasedPauli:
    """Inverse of PhasedPauli's repr, e.g. ``-i.tau[01|10]``."""
    m = _PARSE_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"unparseable Pauli literal: {text!r}")
    sign, ipart, vbits, wbits = m.groups()
    if len(vbits) != len(wbits):
        raise ValueError(f"z/x parts differ in length: {text!r}")
    a = np.array([int(b) for b in vbits + wbits], dtype=np.uint8)
    return PhasedPauli(1 if ipart else 0, 1 if sign == "-" else 0, a)


def kron_pauli_to_dense(p: PhasedPauli) -> np.ndarray:
    """Dense matrix of p as a Kronecker product of single-qubit taus."""
    out = np.array([[1]], dtype=complex)
    for vi, wi in zip(p.v, p.w):
        out = np.kron(out, _TAU[(int(vi), int(wi))])
    return p.phase * out


def pauli_mul(p: PhasedPauli, q: PhasedPauli) -> PhasedPauli:
    """Group product p * q."""
    _check_same_n(p, q)
    j = gf2.j_mat(p.n)
    delta = p.delta ^ q.delta
    cross = gf2.dot(q.a, gf2.mat_mul(j, p.a))
    epsilon = p.epsilon ^ q.epsilon ^ (p.delta & q.delta) ^ cross
    return PhasedPauli(delta, epsilon, p.a ^ q.a)


def commutes(p: PhasedPauli, q: PhasedPauli) -> bool:
    """Whether p and q commute (phases are irrelevant)."""
    _check_same_n(p, q)
    return gf2.dot(q.a, gf2.mat_mul(gf2.p_mat(p.n), p.a)) == 0


def rref_oracle(m, n_pivot_cols=None):
    """Reduced row echelon form over GF(2), one numpy bit at a time.

    Same contract as ``gf2.rref``: (R, pivot_cols), with the pivot
    search restricted to the first n_pivot_cols columns.
    """
    r = gf2.asbits(m).copy()
    rows, cols = r.shape
    if n_pivot_cols is None:
        n_pivot_cols = cols
    pivots = []
    row = 0
    for col in range(n_pivot_cols):
        hit = -1
        for k in range(row, rows):
            if r[k, col]:
                hit = k
                break
        if hit < 0:
            continue
        if hit != row:
            r[[row, hit]] = r[[hit, row]]
        for k in range(rows):
            if k != row and r[k, col]:
                r[k] ^= r[row]
        pivots.append(col)
        row += 1
        if row == rows:
            break
    return r, pivots


def symmetric_congruence_oracle(e):
    """gf2.symmetric_congruence on a numpy array, reading one entry at a
    time: each single row operation adds one row and then one column of
    w, in the order the pivot loops visit them."""
    e0 = gf2.asbits(e)
    if e0.ndim != 2 or e0.shape[0] != e0.shape[1]:
        raise ValueError(f"not a square matrix: {e0.shape}")
    if not np.array_equal(e0, e0.T):
        raise ValueError("matrix is not symmetric")
    n = e0.shape[0]
    w = e0.copy()
    r_acc = gf2.ident(n)

    def row_op(dst, src):
        # dst += src on rows and columns of w keeps w symmetric
        w[dst] ^= w[src]
        w[:, dst] ^= w[:, src]
        r_acc[dst] ^= r_acc[src]

    def swap(i, j):
        if i == j:
            return
        w[[i, j]] = w[[j, i]]
        w[:, [i, j]] = w[:, [j, i]]
        r_acc[[i, j]] = r_acc[[j, i]]

    pos = 0
    while pos < n:
        diag_hit = next((k for k in range(pos, n) if w[k, k]), None)
        if diag_hit is not None:
            swap(pos, diag_hit)
            for k in range(n):
                if k != pos and w[k, pos]:
                    row_op(k, pos)
            pos += 1
            continue
        pair = next(
            ((i, j) for i in range(pos, n) for j in range(i + 1, n) if w[i, j]),
            None,
        )
        if pair is None:
            break
        i, j = pair
        # j > i >= pos, so swapping pos with i leaves the partner at (pos, j)
        swap(pos, i)
        swap(pos + 1, j)
        for k in range(n):
            if k in (pos, pos + 1):
                continue
            if w[k, pos + 1]:
                row_op(k, pos)
            if w[k, pos]:
                row_op(k, pos + 1)
        pos += 2

    r = pos
    check = gf2.mat_mul(gf2.mat_mul(r_acc, e0), r_acc.T)
    if not np.array_equal(check, w):
        raise AssertionError("congruence bookkeeping failed")
    if w[r:, :].any() or w[:, r:].any():
        raise AssertionError("trailing block not cleared")
    if gf2.rank(w[:r, :r]) != r:
        raise AssertionError("leading block is singular")
    return r_acc, r


def hex_to_bits(text, size) -> np.ndarray:
    """Inverse of ``cli.bits_to_hex`` for the first ``size`` bits."""
    raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    return np.unpackbits(raw)[:size].astype(np.uint8)


def embed_gate_oracle(name, qubits, n) -> np.ndarray:
    """Dense matrix of a library gate on the given qubits of n, built
    one column at a time with qubit 0 the most significant label bit."""
    gate = GATE_MATRICES[name]
    k = GATE_ARITY[name]
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


@lru_cache(maxsize=None)
def lagrangian_clifford_table(n):
    """The Lagrangians in canonical order, and a read-only (L, 2^n, 2^n)
    stack of dense Cliffords mapping the z-Lagrangian onto each."""
    lags = tuple(gf2.enumerate_lagrangians(n))
    zero_h = np.zeros(2 * n, dtype=np.uint8)
    mats = np.stack([rep_to_dense(CliffordRep(gf2.symplectic_complete(lag), zero_h)) for lag in lags])
    mats.flags.writeable = False
    return lags, mats


@lru_cache(maxsize=None)
def _outside_table(n):
    """The (L, n) basis labels of the Lagrangians, and a (4^n, L) float32
    table holding 1 where label b lies outside Lagrangian j."""
    lags = gf2.enumerate_lagrangians(n)
    weights = 1 << np.arange(2 * n - 1, -1, -1)
    outside = np.ones((1 << 2 * n, len(lags)), dtype=np.float32)
    for j, lag in enumerate(lags):
        outside[lag.vectors() @ weights, j] = 0
    return np.array([lag.basis @ weights for lag in lags]), outside


def candidate_pairs_oracle(n, conjugates):
    """The pairs (i_dom, i_img), in row-major order, whose domain basis
    conjugates have Pauli supports inside the image; row r of conjugates
    is u tau_a u^dag for label a = r + 1.  One float32 product of each
    domain's 0/1 support union with the outside table decides all L^2
    pairs.
    """
    labels, outside = _outside_table(n)
    rows = labels.T - 1
    support = np.abs(conjugates.reshape(len(conjugates), -1) @ _coefficient_basis(n)) > TOL
    union = support[rows].any(axis=0).astype(np.float32)
    pairs = divmod(np.flatnonzero(union @ outside == 0), len(labels))
    return list(zip(*(a.tolist() for a in pairs)))


def circuit_to_dense_oracle(desc: CircuitDescription) -> np.ndarray:
    """Dense unitary of a circuit, each gate embedded as a full
    2^n x 2^n matrix and multiplied in."""
    u = np.eye(1 << desc.n, dtype=complex)
    for name, qubits in desc.gates:
        u = embed_gate_oracle(name, qubits, desc.n) @ u
    return u


def gsc_search_oracle(u):
    """Generalized semi-Clifford search with no candidate filter: one
    full monomial check per Lagrangian pair, in canonical order."""
    u = check_unitary(u)
    lags, mats = lagrangian_clifford_table(num_qubits(u))
    for i_dom, q_dom in enumerate(mats):
        middle_left = u @ q_dom
        for i_img, q_img in enumerate(mats):
            mc = monomial_check(q_img.conj().T @ middle_left)
            if not mc.is_monomial:
                continue
            domain = lags[i_dom]
            image = lags[i_img]
            if not _verify_span_map(pauli_conjugates(u, domain.vectors()), image):
                raise AssertionError("monomial witness failed the span check")
            return True, GscWitness(
                domain=domain,
                image=image,
                permutation=mc.permutation,
                phases=mc.phases,
            )
    return False, len(lags) ** 2


_ORACLE_PHASES = ((1 + 0j, (0, 0)), (-1 + 0j, (0, 1)), (1j, (1, 0)), (-1j, (1, 1)))


def is_pauli_oracle(u):
    """The PhasedPauli a dense u realizes, or None, one matrix at a time.

    The candidate is read off column 0 and the |e_i> columns with
    Python loops over the bits, then compared entrywise with
    pauli_to_dense of the candidate.
    """
    u = np.asarray(u, dtype=complex)
    n = num_qubits(u)
    col0 = u[:, 0]
    hits = np.flatnonzero(np.abs(col0) > TOL)
    if hits.size != 1:
        return None
    row0 = int(hits[0])
    z0 = col0[row0]
    v = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        col = 1 << (n - 1 - i)  # |e_i>: qubit i's bit set
        ratio = u[row0 ^ col, col] / z0
        if abs(ratio - 1) < TOL:
            v[i] = 0
        elif abs(ratio + 1) < TOL:
            v[i] = 1
        else:
            return None
    w = np.array([(row0 >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)
    base = z0 * (-1.0) ** gf2.dot(v, w)
    for value, (delta, epsilon) in _ORACLE_PHASES:
        if abs(base - value) < TOL:
            cand = PhasedPauli(delta, epsilon, np.concatenate([v, w]))
            return cand if close(u, pauli_to_dense(cand)) else None
    return None


def conjugate_oracle(u, a):
    """u tau_a u^dag by two dense matmuls."""
    return u @ pauli_to_dense(PhasedPauli(0, 0, a)) @ u.conj().T


def extract_rep_oracle(u):
    """The (C, h) rep of a dense u, or None, from is_pauli_oracle on each
    generator conjugate, with the Hermiticity and symplectic checks."""
    n = num_qubits(u)
    j = gf2.j_mat(n)
    cols = []
    hbits = []
    for e in gf2.ident(2 * n):
        img = is_pauli_oracle(conjugate_oracle(u, e))
        if img is None or img.delta != gf2.quad_form(j, img.a):
            return None
        cols.append(img.a)
        hbits.append(img.epsilon)
    c = np.array(cols, dtype=np.uint8).T
    if not gf2.is_symplectic(c):
        return None
    return CliffordRep(c, np.array(hbits, dtype=np.uint8))


def _in_level_oracle(u, k):
    if k == 1:
        return is_pauli_oracle(u) is not None
    if k == 2:
        return extract_rep_oracle(u) is not None
    gens = gf2.ident(2 * num_qubits(u))
    return all(_in_level_oracle(conjugate_oracle(u, e), k - 1) for e in gens)


def hierarchy_level_oracle(u, kmax):
    """Smallest k <= kmax with u in level k, each conjugate tested alone."""
    for k in range(1, kmax + 1):
        if _in_level_oracle(u, k):
            return k
    return None


def semi_clifford_oracle(u):
    """Semi-Clifford search one Lagrangian at a time, in canonical order:
    the first whose basis conjugates to Paulis, else (False, count)."""
    lags, _ = lagrangian_clifford_table(num_qubits(u))
    for lag in lags:
        images = [is_pauli_oracle(conjugate_oracle(u, b)) for b in lag.basis]
        if all(img is not None for img in images):
            image = gf2.Lagrangian(np.array([img.a for img in images], dtype=np.uint8))
            return True, SemiCliffordWitness(domain=lag, image=image)
    return False, len(lags)


def reconstruct_unitary(family: GeneratorFamily) -> np.ndarray:
    """Rebuild a unitary whose conjugation action realizes the family.

    Finds a joint eigenvector of the first n dense generators (first
    sign assignment with a nonzero joint projector, first basis vector
    with nonzero image, leading entry gauged real positive) and builds
    the columns as generator products applied to it.  The output is
    verified to be unitary and to conjugate each tau_{e_i} to the dense
    generator exactly.
    """
    family.validate()
    n = family.n
    dim = 1 << n
    ops = [as_dense(op) for op in family.ops]
    alpha = None
    lambdas = None
    for assign in range(1 << n):
        bits = [(assign >> (n - 1 - i)) & 1 for i in range(n)]
        for col in range(dim):
            vec = np.zeros(dim, dtype=complex)
            vec[col] = 1.0
            for i in range(n):
                vec = 0.5 * (vec + (-1.0) ** bits[i] * (ops[i] @ vec))
            norm = np.linalg.norm(vec)
            if norm > TOL:
                vec = vec / norm
                lead = vec[np.flatnonzero(np.abs(vec) > TOL)[0]]
                vec = vec * (abs(lead) / lead)
                alpha = vec
                lambdas = bits
                break
        if alpha is not None:
            break
    if alpha is None:
        raise ValueError("no joint eigenvector found; family invariants are broken")
    cols = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        vec = alpha
        for i in range(n - 1, -1, -1):
            if ((x >> (n - 1 - i)) & 1) ^ lambdas[i]:
                vec = ops[n + i] @ vec
        cols[:, x] = vec
    u = check_unitary(cols)
    for i, conj in enumerate(pauli_conjugates(u, gf2.ident(2 * n))):
        if not close(conj, ops[i]):
            raise AssertionError(f"reconstruction misses generator {i}")
    return u


def pattern_matrix(spectra):
    """All 2^n products of n diagonal spectra, one row per exponent vector.

    Row x (bit k of x is the exponent of spectrum k) is filled in Gray
    code order, one elementwise product per row.
    """
    dim = len(spectra[0])
    patterns = np.zeros((1 << len(spectra), dim), dtype=complex)
    patterns[0] = np.ones(dim)
    current = np.ones(dim, dtype=complex)
    prev_gray = 0
    for t in range(1, patterns.shape[0]):
        gray = t ^ (t >> 1)
        k = (prev_gray ^ gray).bit_length() - 1
        current = current * spectra[k]
        patterns[gray] = current
        prev_gray = gray
    return patterns


def rank_mod_prime(mat, p=2_147_483_647):
    """Exact rank of an integer matrix modulo a large prime.

    The mod-p rank never exceeds the rational rank, so a full mod-p
    rank certifies full rank exactly; entries stay below p**2 so int64
    arithmetic cannot overflow.
    """
    a = np.mod(np.asarray(mat, dtype=np.int64), p)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, rows) if a[k, c]), None)
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for k in range(rows):
            if k != r and a[k, c]:
                a[k] = (a[k] - a[k, c] * a[r]) % p
        r += 1
        if r == rows:
            break
    return r


def all_phased_paulis(n):
    out = []
    for delta in range(2):
        for eps in range(2):
            for bits in range(1 << (2 * n)):
                a = np.array([(bits >> k) & 1 for k in range(2 * n)], dtype=np.uint8)
                out.append(PhasedPauli(delta, eps, a))
    return out


def all_bare_paulis(n):
    out = []
    for bits in range(1 << (2 * n)):
        a = np.array([(bits >> k) & 1 for k in range(2 * n)], dtype=np.uint8)
        out.append(PhasedPauli(0, 0, a))
    return out


def int_to_bits(x, width):
    return np.array([(x >> k) & 1 for k in range(width)], dtype=np.uint8)


def coefficient_dicts_oracle(support, values) -> list:
    return [
        {"a": a, "re": re, "im": im}
        for a, re, im in zip(matrix_rows(support), values.real.tolist(), values.imag.tolist())
    ]


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


def write_circuit(path, desc) -> str:
    """Write desc to path in the circuit file format; returns the path."""
    lines = [f"qubits {desc.n}"] + [" ".join([name, *map(str, qs)]) for name, qs in desc.gates]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def random_clifford_dense(n, rng, depth=12):
    return circuit_to_dense(random_circuit(n, depth, rng))


def pauli_projection(u, n):
    """Literal coefficients of u in the Hermitian basis i^(a.Ja) tau_a."""
    j = gf2.j_mat(n)
    out = {}
    for bits in range(1 << (2 * n)):
        a = int_to_bits(bits, 2 * n)
        herm = 1j ** gf2.quad_form(j, a)
        basis = herm * pauli_to_dense(PhasedPauli(0, 0, a))
        r = np.vdot(basis, u) / (1 << n)
        if abs(r) > 1e-9:
            out[tuple(int(x) for x in a)] = r
    return out


def brute_force_lagrangians(n):
    """All maximal isotropic subspaces by DFS over isotropic extensions.

    Returns a set of canonical basis byte strings, independent of the
    RREF-pattern enumeration in the library.
    """
    p = gf2.p_mat(n)
    vectors = [int_to_bits(x, 2 * n) for x in range(1, 1 << (2 * n))]
    found = set()

    def extend(basis):
        if len(basis) == n:
            red, piv = gf2.rref(np.array(basis, dtype=np.uint8))
            found.add(red.tobytes())
            return
        for v in vectors:
            stacked = np.array(basis + [v], dtype=np.uint8)
            if gf2.rank(stacked) != len(basis) + 1:
                continue
            if gf2.mat_mul(gf2.mat_mul(stacked, p), stacked.T).any():
                continue
            extend(basis + [v])

    extend([])
    return found


def enumerate_lagrangians_oracle(n):
    """The Lagrangians one basis at a time: every canonical RREF basis
    (pivot sets in lexicographic order, free-slot masks in integer
    order, free slots in row-major order) built entry by entry, kept
    when B P B^T = 0."""
    cols = 2 * n
    p = gf2.p_mat(n)
    out = []
    for pivots in itertools.combinations(range(cols), n):
        free_slots = []
        for i, pc in enumerate(pivots):
            for c in range(pc + 1, cols):
                if c not in pivots:
                    free_slots.append((i, c))
        for mask in range(1 << len(free_slots)):
            basis = np.zeros((n, cols), dtype=np.uint8)
            for i, pc in enumerate(pivots):
                basis[i, pc] = 1
            for bit, (i, c) in enumerate(free_slots):
                if (mask >> bit) & 1:
                    basis[i, c] = 1
            if not gf2.mat_mul(gf2.mat_mul(basis, p), basis.T).any():
                out.append(gf2.Lagrangian(basis))
    return out


def symplectic_complete_oracle(lag):
    """The symplectic completion with its pairing constraints built one
    vector at a time, P z for each column z found so far."""
    n = lag.n
    p = gf2.p_mat(n)
    zcols = [lag.basis[i] for i in range(n)]
    xcols: list[np.ndarray] = []
    for i in range(n):
        lhs = [gf2.mat_mul(p, z) for z in zcols] + [gf2.mat_mul(p, x) for x in xcols]
        rhs = [1 if j == i else 0 for j in range(n)] + [0] * len(xcols)
        sol = gf2.solve(np.array(lhs, dtype=np.uint8), np.array(rhs, dtype=np.uint8))
        if sol is None:
            raise AssertionError("symplectic completion has no solution")
        xcols.append(sol)
    c = np.array(zcols + xcols, dtype=np.uint8).T
    if not gf2.is_symplectic(c):
        raise AssertionError("completion is not symplectic")
    return c


def alpha_vector(rep: CliffordRep):
    """Vector alpha with alpha^T b = b^T lows(C^T J C + d d^T) b on
    Ker(I+C): the library's _alpha_on on the kernel of _fixed_space."""
    return _alpha_on(rep, _fixed_space(rep)[1])


def alpha_vector_oracle(rep: CliffordRep):
    """alpha_vector with one quad_form per kernel basis vector."""
    kernel = gf2.kernel_basis(gf2.ident(2 * rep.n) ^ rep.c)
    low = rep.lows_matrix
    if kernel.shape[0] == 0:
        return np.zeros(2 * rep.n, dtype=np.uint8)
    bilinear = (low ^ low.T) & 1
    if gf2.mat_mul(gf2.mat_mul(kernel, bilinear), kernel.T).any():
        raise AssertionError("quadratic phase form is not linear on Ker(I + C)")
    svals = np.array([gf2.quad_form(low, b) for b in kernel], dtype=np.uint8)
    alpha = gf2.solve(kernel, svals)
    if alpha is None:
        raise AssertionError("linearizing system is inconsistent")
    return alpha


def expand_oracle(rep: CliffordRep):
    """(a0, image_basis, s, support, values) of the Pauli expansion, with
    one solve per gauge direction and the phase of each generator
    b = e_p read off scalar GF(2) calls on b."""
    n = rep.n
    n2 = 2 * n
    j = gf2.j_mat(n)
    p = gf2.p_mat(n)
    ic = gf2.ident(n2) ^ rep.c
    kernel = gf2.kernel_basis(ic)
    s = kernel.shape[0]
    alpha = alpha_vector_oracle(rep)
    for delta in gf2.kernel_basis(kernel) if s else []:
        if gf2.solve(ic, gf2.mat_mul(p, delta)) is None:
            raise AssertionError("anchor coset depends on the alpha gauge")
    a0 = gf2.mat_mul(p, (rep.h ^ alpha) & 1)
    pivots = gf2.rref(ic)[1]
    m = len(pivots)
    if m != n2 - s:
        raise AssertionError("rank bookkeeping failed")
    gens = ic[:, pivots].T.copy()
    count = 1 << m
    tbits = np.zeros((count, m), dtype=np.uint8)
    for k in range(m):
        tbits[:, k] = (np.arange(count) >> k) & 1
    support = (tbits @ gens ^ a0) & 1
    quad_j = np.einsum("ij,jk,ik->i", support, j, support).astype(np.int64) & 1
    low = rep.lows_matrix
    phase = np.empty((count, m), dtype=complex)
    for k in range(m):
        b = np.zeros(n2, dtype=np.uint8)
        b[pivots[k]] = 1
        shifted = np.arange(count) ^ (1 << k)
        jb = gf2.mat_mul(j.T, b)
        vcb = gf2.mat_mul(j, gf2.mat_mul(rep.c, b))
        db = gf2.dot(rep.d, b)
        hb = gf2.dot(rep.h, b)
        sb = gf2.quad_form(low, b)
        sign_bits = (support @ jb + hb + sb + support[shifted] @ vcb).astype(np.int64) & 1
        iexp = (quad_j - db - quad_j[shifted] + 2 * sign_bits) % 4
        phase[:, k] = 1j ** iexp
    values = np.zeros(count, dtype=complex)
    values[0] = 2.0 ** (-m / 2)
    for k in reversed(range(m)):
        prev = np.arange(0, count, 2 << k)
        values[prev + (1 << k)] = values[prev] * phase[prev, k]
    for k in range(m):
        shifted = np.arange(count) ^ (1 << k)
        if not np.array_equal(values[shifted], values * phase[:, k]):
            raise AssertionError("coefficient recurrence is path-dependent")
    return a0, gens, s, support, values


def enumerate_symplectic_group(n):
    """All of Sp(2n, 2) by brute force; only feasible for 2n <= 4."""
    size = 2 * n
    count = 1 << (size * size)
    bits = np.arange(count, dtype=np.uint32)
    mats = ((bits[:, None] >> np.arange(size * size)) & 1).astype(np.uint8)
    mats = mats.reshape(-1, size, size)
    p = gf2.p_mat(n)
    prods = np.einsum("nji,jk,nkl->nil", mats, p, mats) & 1
    mask = (prods == p).all(axis=(1, 2))
    return mats[mask]


def symplectic_involutions(group):
    sq = np.einsum("nij,njk->nik", group, group) & 1
    eye = np.eye(group.shape[1], dtype=np.uint8)
    return group[(sq == eye).all(axis=(1, 2))]


def random_involution_matrix(n, rng):
    """Random A over GF(2) with A^2 = I (conjugated Jordan seed)."""
    k = int(rng.integers(0, n // 2 + 1))
    a = gf2.ident(n)
    for i in range(k):
        a[2 * i, 2 * i + 1] = 1
    while True:
        t = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        try:
            tinv = gf2.inverse(t)
            break
        except ValueError:
            continue
    return gf2.mat_mul(gf2.mat_mul(t, a), tinv)


def _e_constraint_kernel(a):
    """Basis for {E : E symmetric, AE symmetric}, vectorized."""
    n = a.shape[0]
    rows = []
    for i in range(n):
        for j in range(n):
            sym = np.zeros((n, n), dtype=np.uint8)
            sym[i, j] ^= 1
            sym[j, i] ^= 1
            rows.append(sym.reshape(-1))
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n), dtype=np.uint8)
            for k in range(n):
                m[k, j] ^= a[i, k]
                m[k, i] ^= a[j, k]
            rows.append(m.reshape(-1))
    return gf2.kernel_basis(np.array(rows, dtype=np.uint8))


def _block_c(a, e):
    n = a.shape[0]
    return np.block([[a, e], [gf2.zeros(n, n), a.T]]).astype(np.uint8)


def sample_block_rep(n, rng) -> CliffordRep:
    """Random rep with block C satisfying the full involution conditions."""
    while True:
        a = random_involution_matrix(n, rng)
        ker = _e_constraint_kernel(a)
        coeff = rng.integers(0, 2, size=ker.shape[0]).astype(np.uint8)
        e = ((coeff @ ker) & 1).reshape(n, n) if ker.shape[0] else gf2.zeros(n, n)
        c = _block_c(a, e)
        if not gf2.is_symplectic(c):
            continue
        n2 = 2 * n
        zero_rep = CliffordRep(c, np.zeros(n2, dtype=np.uint8))
        rhs = compose(zero_rep, zero_rep).h
        lhs = (gf2.ident(n2) ^ c.T) & 1
        h0 = gf2.solve(lhs, rhs)
        if h0 is None:
            continue
        free = gf2.kernel_basis(lhs)
        if free.shape[0]:
            co = rng.integers(0, 2, size=free.shape[0]).astype(np.uint8)
            h0 = (h0 ^ (co @ free)) & 1
        rep = CliffordRep(c, h0)
        if is_involution_rep(rep):
            return rep


def sample_admissible_pair(n, rng):
    """Two block reps with commuting C's and sign-compatible h's."""
    while True:
        a = random_involution_matrix(n, rng)
        ker = _e_constraint_kernel(a)

        def draw_c():
            coeff = rng.integers(0, 2, size=ker.shape[0]).astype(np.uint8)
            e = ((coeff @ ker) & 1).reshape(n, n) if ker.shape[0] else gf2.zeros(n, n)
            return _block_c(a, e)

        c1, c2 = draw_c(), draw_c()
        if not (gf2.is_symplectic(c1) and gf2.is_symplectic(c2)):
            continue
        if not np.array_equal(gf2.mat_mul(c1, c2), gf2.mat_mul(c2, c1)):
            continue
        n2 = 2 * n
        z1 = CliffordRep(c1, np.zeros(n2, dtype=np.uint8))
        z2 = CliffordRep(c2, np.zeros(n2, dtype=np.uint8))
        eye = gf2.ident(n2)
        top = np.concatenate([(eye ^ c1.T) & 1, gf2.zeros(n2, n2)], axis=1)
        mid = np.concatenate([gf2.zeros(n2, n2), (eye ^ c2.T) & 1], axis=1)
        bot = np.concatenate([(eye ^ c2.T) & 1, (eye ^ c1.T) & 1], axis=1)
        sysm = np.concatenate([top, mid, bot], axis=0)
        rhs = np.concatenate(
            [
                compose(z1, z1).h,
                compose(z2, z2).h,
                (compose(z1, z2).h ^ compose(z2, z1).h) & 1,
            ]
        )
        sol = gf2.solve(sysm, rhs)
        if sol is None:
            continue
        free = gf2.kernel_basis(sysm)
        if free.shape[0]:
            co = rng.integers(0, 2, size=free.shape[0]).astype(np.uint8)
            sol = (sol ^ (co @ free)) & 1
        r1 = CliffordRep(c1, sol[:n2])
        r2 = CliffordRep(c2, sol[n2:])
        if is_involution_rep(r1) and is_involution_rep(r2) and reps_commute(r1, r2):
            return r1, r2


def commutator_sign(q1: CliffordRep, q2: CliffordRep) -> int:
    """+1 if the realized block involutions (realize_block) commute, -1 if
    they anticommute, from lambda products alone: QQ' = Q'Q exactly when
    L(f) L'(f+f') == L'(f') L(f+f'), with L, L' the reps' _lambda_products."""
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
    ratio = l1_f * l2_sum / (l2_f * l1_sum)
    if abs(ratio - 1) < TOL:
        return 1
    if abs(ratio + 1) < TOL:
        return -1
    raise AssertionError("sign relation produced a non-real ratio")


def random_commuting_involution_set(n, rng, size):
    """Commuting symplectic involutions: block seeds scrambled by one S."""
    while True:
        seeds = []
        a = random_involution_matrix(n, rng)
        ker = _e_constraint_kernel(a)
        for _ in range(size):
            if rng.random() < 0.5:
                e = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
                e = (e ^ e.T ^ np.diag(np.diag(e))) & 1
                seeds.append(_block_c(gf2.ident(n), e))
            else:
                coeff = rng.integers(0, 2, size=ker.shape[0]).astype(np.uint8)
                e = ((coeff @ ker) & 1).reshape(n, n) if ker.shape[0] else gf2.zeros(n, n)
                seeds.append(_block_c(a, e))
        ok = all(gf2.is_symplectic(c) and gf2.is_involution(c) for c in seeds)
        ok = ok and all(
            np.array_equal(gf2.mat_mul(x, y), gf2.mat_mul(y, x))
            for i, x in enumerate(seeds)
            for y in seeds[i + 1 :]
        )
        if not ok:
            continue
        from semiclifford.circuits import circuit_to_rep

        s = circuit_to_rep(random_circuit(n, 12, rng)).c
        sinv = gf2.inverse(s)
        return [gf2.mat_mul(gf2.mat_mul(s, c), sinv) for c in seeds]


def random_c3_gate(n, rng):
    """Clifford . diagonal-third-level . Clifford product."""
    left = random_clifford_dense(n, rng, depth=10)
    right = random_clifford_dense(n, rng, depth=10)
    d = np.eye(1 << n, dtype=complex)
    for _ in range(6):
        name = str(rng.choice(["T", "TDG", "S", "Z"]))
        q = int(rng.integers(0, n))
        d = embed_gate_oracle(name, (q,), n) @ d
        if n >= 2 and rng.random() < 0.4:
            qs = tuple(int(x) for x in rng.choice(n, size=2, replace=False))
            d = embed_gate_oracle("CZ", qs, n) @ d
    return left @ d @ right


def random_monomial_c3_gate(n, rng, cswap=False):
    """Clifford . third-level core . Clifford as a Monomial, with no H.

    The Cliffords are random X, S, CX, CZ and SWAP circuits.  The core is
    one CSWAP (n >= 3) when cswap is set, which gives the block-form
    family A-blocks other than I, else a product of T, S and CCZ gates,
    a diagonal gate of the third level.
    """
    cliffords = ("X", "S", "CX", "CZ", "SWAP")
    left = random_circuit(n, 3 * n, rng, names=cliffords).gates
    right = random_circuit(n, 3 * n, rng, names=cliffords).gates
    if cswap:
        core = (("CSWAP", tuple(int(q) for q in rng.choice(n, size=3, replace=False))),)
    else:
        core = random_circuit(n, 2 * n, rng, names=("T", "S", "CCZ")).gates
    return circuit_to_monomial(CircuitDescription(n, left + core + right))


def orbit_kernel_oracle(family: GeneratorFamily) -> np.ndarray:
    """orbit_kernel by breadth-first search over the orbit of 0.

    Records one exponent word per orbit point; each edge y -> y' that
    reaches a point already seen gives the Schreier generator
    word(y) + e_k + word(y'), and these span the stabilizer.  Raises
    orbit_kernel's AssertionErrors, with the same messages.
    """
    if not family.is_block_form():
        raise ValueError("family must be normalized to block form first")
    n = family.n
    # per generator: f_k and the images A_k^T e_i (row i of A_k), packed
    # into ints with bit i holding coordinate i
    weights = 1 << np.arange(n)
    moves = [
        (int(q.f @ weights), [int(row @ weights) for row in q.c[:n, :n]])
        for q in reps_of(family)
    ]
    word = {0: 0}
    points = [0]
    stabilizer = set()
    for y in points:  # points grows while it is walked: breadth-first
        for k, (f, images) in enumerate(moves):
            z = f
            for i in range(n):
                if y >> i & 1:
                    z ^= images[i]
            w = word[y] ^ (1 << k)
            if z in word:
                stabilizer.add(w ^ word[z])
            else:
                word[z] = w
                points.append(z)
    if len(points) != 1 << n:
        raise AssertionError(
            f"f-vector map is not surjective: the orbit of 0 has {len(points)} "
            f"points, expected {1 << n}"
        )
    m = 2 * n
    members = np.array(
        [[(w >> k) & 1 for k in range(m)] for w in sorted(stabilizer - {0})],
        dtype=np.uint8,
    ).reshape(-1, m)
    red, pivots = gf2.rref(members)
    if len(pivots) != n:
        raise AssertionError(f"kernel rank {len(pivots)}, expected {n}")
    return red[:n].copy()


def symplectic_inverse_oracle(m):
    """gf2.symplectic_inverse as one gather of m^T by the half-swap mesh,
    after gf2.is_symplectic."""
    m = gf2.asbits(m)
    if not gf2.is_symplectic(m):
        raise ValueError("matrix is not symplectic")
    swap = np.roll(np.arange(m.shape[0]), m.shape[0] // 2)
    return m.T[np.ix_(swap, swap)]


def _nf_conj(m, c):
    """m c m^{-1} for a bit matrix or stack c; every conjugator here is symplectic."""
    return m @ c @ symplectic_inverse_oracle(m) & 1  # uint8 products keep their parity


def _block_diag(p, q):
    n = p.shape[0] + q.shape[0]
    out = gf2.zeros(n, n)
    out[: p.shape[0], : p.shape[0]] = p
    out[p.shape[0] :, p.shape[0] :] = q
    return out


def _pair_coords(r, n):
    """Coordinate lists for the interleaved 2r / 2(n-r) split."""
    ix = list(range(r)) + list(range(n, n + r))
    iy = list(range(r, n)) + list(range(n + r, 2 * n))
    return ix, iy


def _pair_mesh(r, n):
    """np.ix_ mesh of the coordinates ix + iy (_pair_coords): c[mesh] has
    the 2r block of c top left and the 2(n-r) block bottom right."""
    ix, iy = _pair_coords(r, n)
    return np.ix_(ix + iy, ix + iy)


def _nf_embed_pair(mx, my, r, n):
    """Place a 2r block and a 2(n-r) block on interleaved coordinates."""
    out = gf2.zeros(2 * n, 2 * n)
    out[_pair_mesh(r, n)] = _block_diag(mx, my)
    return out


def _nf_split_pair(c, r, n):
    """Extract the 2r and 2(n-r) diagonal blocks; cross terms must vanish."""
    q = c[_pair_mesh(r, n)]
    k = 2 * r
    if q[:k, k:].any() or q[k:, :k].any():
        raise AssertionError("matrix does not split along the claimed coordinates")
    return q[:k, :k], q[k:, k:]


def _nf_jordan_basis(a):
    """(B, k): basis B with a B = B N, N the Jordan form of the involution
    a, k two-blocks, from pivot columns of (image | kernel)."""
    n = a.shape[0]
    nil = gf2.ident(n) ^ a
    pivots = gf2.rref(nil)[1]
    k = len(pivots)
    image = nil[:, pivots]
    chains = np.stack([image, gf2.ident(n)[:, pivots]], axis=2).reshape(n, 2 * k)
    span = np.concatenate([image, gf2.kernel_basis(nil).T], axis=1)
    b = np.concatenate([chains, span[:, gf2.rref(span)[1][k:]]], axis=1)
    jordan = gf2.ident(n)
    jordan[np.arange(0, 2 * k, 2), np.arange(1, 2 * k, 2)] = 1
    if not np.array_equal(a @ b & 1, b @ jordan & 1):
        raise AssertionError("Jordan basis bookkeeping failed")
    return b, k


def _nf_check_nice(c):
    n = c.shape[0] // 2
    frame = gf2.ident(2 * n)
    frame[:n, n:] = c[:n, n:].T
    if not np.array_equal(c, frame):
        raise AssertionError("conjugation did not reach the (I E; 0 I) form")


def _nf_involution_conjugator(c):
    """(m, m c m^{-1}) with the second in (I E; 0 I) form, on uint8 arrays."""
    n = c.shape[0] // 2
    if n == 0:
        return c.copy(), c.copy()
    a_blk = c[:n, :n]
    e_blk = c[:n, n:]
    f_blk = c[n:, :n]
    r = gf2.rank(e_blk)
    if r > 0:
        big_r, rr = symmetric_congruence_oracle(e_blk)
        if rr != r:
            raise AssertionError("congruence rank mismatch")
        m1 = _block_diag(big_r, gf2.inverse(big_r).T)
        c1 = _nf_conj(m1, c)
        e = c1[:r, n : n + r]
        a1 = c1[:r, :r]
        a2 = c1[:r, r:n]
        if c1[r:n, :r].any():
            raise AssertionError("AE symmetry should force the lower A corner to vanish")
        einv = gf2.inverse(e)
        s = gf2.zeros(n, n)
        s[:r, :r] = einv @ a1 & 1
        s[:r, r:] = einv @ a2 & 1
        s[r:, :r] = s[:r, r:].T
        if not np.array_equal(s, s.T):
            raise AssertionError("elimination block is not symmetric")
        m2 = gf2.ident(2 * n)
        m2[n:, :n] = s
        c2 = _nf_conj(m2, c1)
        x, y = _nf_split_pair(c2, r, n)
        expect_x = gf2.zeros(2 * r, 2 * r)
        expect_x[:r, r:] = e
        expect_x[r:, :r] = einv
        if not np.array_equal(x, expect_x):
            raise AssertionError("antidiagonal corner has unexpected shape")
        mx = gf2.ident(2 * r)
        mx[r:, :r] = einv
        my = _nf_involution_conjugator(y)[0]
        m3 = _nf_embed_pair(mx, my, r, n)
        m = m3 @ m2 @ m1 & 1
    elif f_blk.any():
        p = gf2.p_mat(n)
        m = _nf_involution_conjugator(_nf_conj(p, c))[0] @ p & 1
    else:
        b, k = _nf_jordan_basis(a_blk.T)
        mj = _block_diag(b.T, gf2.inverse(b))
        fold = np.arange(2 * n)
        fold[: 2 * k : 2] += n
        fold[n : n + 2 * k : 2] -= n
        m = mj[fold]
    try:
        normalized = _nf_conj(m, c)
    except ValueError:
        raise AssertionError("partial conjugator lost symplecticity") from None
    _nf_check_nice(normalized)
    return m, normalized


def involution_normal_form_oracle(c) -> NormalFormResult:
    """normal_form.involution_normal_form with numpy arrays at every level."""
    m, normalized = _nf_involution_conjugator(_validate_involution(c))
    return NormalFormResult(m=m, normalized=normalized)


def _nf_set_conjugator(stack):
    """(m, m stack m^{-1}) with every element in block form, on a uint8 stack."""
    dim = stack.shape[1]
    n = dim // 2
    if not stack[:, n:, :n].any():
        return gf2.ident(dim), stack
    first = int(np.flatnonzero((stack != gf2.ident(dim)).any(axis=(1, 2)))[0])
    m_a, pivot = _nf_involution_conjugator(stack[first])
    big_r, r = symmetric_congruence_oracle(pivot[:n, n:])
    if r == 0:
        raise AssertionError("non-identity element normalized to identity")
    m = _block_diag(big_r, gf2.inverse(big_r).T) @ m_a & 1
    current = _nf_conj(m, stack)
    bad = current[:, r:n, :r].any() or current[:, n : n + r, :n].any()
    if bad or current[:, n + r :, :r].any():
        raise AssertionError("commuting element has forbidden refined blocks")
    if r == n:
        return m, current
    _, iy = _pair_coords(r, n)
    subs = current[:, iy][:, :, iy]
    symplectic = gf2.symplectic_mask(subs)
    involution = (subs @ subs & 1 == gf2.ident(subs.shape[-1])).all(axis=(1, 2))
    bad = np.flatnonzero(~(symplectic & involution))
    if bad.size:
        what = "symplectic" if not symplectic[bad[0]] else "an involution"
        raise ValueError(f"projected element is not {what}")
    if _noncommuting_pair(subs):
        raise AssertionError("projected elements stopped commuting")
    m_emb = _nf_embed_pair(gf2.ident(2 * r), _nf_set_conjugator(subs)[0], r, n)
    return m_emb @ m & 1, _nf_conj(m_emb, current)


def commuting_set_normal_form_oracle(cs) -> SetNormalForm:
    """normal_form.commuting_set_normal_form with numpy arrays at every
    level; its input checks are the library's, so the inputs must pass."""
    stack = np.stack([_validate_involution(c) for c in cs])
    if _noncommuting_pair(stack):
        raise ValueError("elements do not commute")
    m, normalized = _nf_set_conjugator(stack)
    if not gf2.is_symplectic(m):
        raise AssertionError("set conjugator is not symplectic")
    return SetNormalForm(m=m, normalized=tuple(normalized))


def _conj_oracle(m, c):
    return gf2.mat_mul(gf2.mat_mul(m, c), gf2.inverse(m))


def _set_conjugator_oracle(mats):
    n = mats[0].shape[0] // 2
    if n == 0:
        return mats[0].copy()
    if all(not c[n:, :n].any() for c in mats):
        return gf2.ident(2 * n)
    first = next(
        i for i, c in enumerate(mats) if not np.array_equal(c, gf2.ident(2 * n))
    )
    m_a, pivot = _nf_involution_conjugator(mats[first])
    current = [pivot if i == first else _conj_oracle(m_a, c) for i, c in enumerate(mats)]
    big_r, r = gf2.symmetric_congruence(pivot[:n, n:])
    m_b = _block_diag(big_r, gf2.inverse(big_r).T)
    current = [_conj_oracle(m_b, c) for c in current]
    m_ba = gf2.mat_mul(m_b, m_a)
    if r == 0:
        raise AssertionError("non-identity element normalized to identity")
    for c in current:
        bad = (
            c[r:n, :r].any()
            or c[n : n + r, :n].any()
            or c[n + r :, :r].any()
        )
        if bad:
            raise AssertionError("commuting element has forbidden refined blocks")
    if r == n:
        return m_ba
    ix, iy = _pair_coords(r, n)
    subs = []
    for c in current:
        sub = c[np.ix_(iy, iy)].copy()
        subs.append(_validate_involution(sub, "projected element"))
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            if not np.array_equal(
                gf2.mat_mul(subs[i], subs[j]), gf2.mat_mul(subs[j], subs[i])
            ):
                raise AssertionError("projected elements stopped commuting")
    m_d = _set_conjugator_oracle(subs)
    m_emb = gf2.ident(2 * n)
    m_emb[np.ix_(iy, iy)] = m_d
    return gf2.mat_mul(m_emb, m_ba)


def set_normal_form_oracle(mats):
    """(M, [M c M^{-1} for each c]) by the list-based set recursion."""
    mats = [gf2.frozenbits(c) for c in mats]
    m = _set_conjugator_oracle(mats)
    return m, [_conj_oracle(m, c) for c in mats]


def jordan_basis_oracle(a):
    """(B, k) of normal_form._jordan_involution_basis by incremental rank."""
    n = a.shape[0]
    nil = gf2.ident(n) ^ a
    pivots = gf2.rref(nil)[1]
    k = len(pivots)
    cols = []
    for j in pivots:
        u = np.zeros(n, dtype=np.uint8)
        u[j] = 1
        cols.append((nil[:, j].copy(), u))
    image = [pair[0] for pair in cols]
    ker = gf2.kernel_basis(nil)
    completion = []
    base = list(image)
    base_rank = gf2.rank(np.array(base, dtype=np.uint8)) if base else 0
    for vec in ker:
        trial = base + [vec]
        trial_rank = gf2.rank(np.array(trial, dtype=np.uint8))
        if trial_rank > base_rank:
            completion.append(vec)
            base = trial
            base_rank = trial_rank
    b_cols = []
    for img, u in cols:
        b_cols.extend([img, u])
    b_cols.extend(completion)
    return np.array(b_cols, dtype=np.uint8).T, k
