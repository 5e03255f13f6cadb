"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: Pauli
coefficients come from literal trace projections, dense Paulis from
Kronecker products, diagonal span ranks from exact elimination of the
full pattern matrix, Lagrangians from a DFS over isotropic extensions,
symplectic groups from brute-force filtering of all matrices, and
generalized semi-Clifford witnesses from a full monomial check of every
Lagrangian pair.  reconstruct_unitary inverts generators_from_gate on
the dense side, as a round-trip check of generator families.
"""

from __future__ import annotations

import numpy as np

from semiclifford import gf2
from semiclifford.circuits import circuit_to_dense, embed_gate, random_circuit
from semiclifford.clifford import CliffordRep, compose, is_involution_rep, reps_commute
from semiclifford.classify import GscWitness, _lagrangian_cliffords, _verify_span_map
from semiclifford.dense import (
    TOL,
    BlockRep,
    as_dense,
    check_unitary,
    close,
    monomial_check,
    num_qubits,
    pauli_conjugates,
)
from semiclifford.pauli import PhasedPauli, pauli_to_dense
from semiclifford.pipeline import GeneratorFamily


# single-qubit tau matrices; tau_00 is the group identity
_TAU = {
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, 1], [-1, 0]], dtype=complex),
}


def kron_pauli_to_dense(p: PhasedPauli) -> np.ndarray:
    """Dense matrix of p as a Kronecker product of single-qubit taus."""
    out = np.array([[1]], dtype=complex)
    for vi, wi in zip(p.v, p.w):
        out = np.kron(out, _TAU[(int(vi), int(wi))])
    return p.phase * out


def hex_to_bits(text, size) -> np.ndarray:
    """Inverse of ``cli.bits_to_hex`` for the first ``size`` bits."""
    raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    return np.unpackbits(raw)[:size].astype(np.uint8)


def gsc_search_oracle(u):
    """Generalized semi-Clifford search with no screen: one full
    monomial check per Lagrangian pair, in canonical order."""
    u = check_unitary(u)
    lags, mats = _lagrangian_cliffords(num_qubits(u))
    for i_dom, q_dom in enumerate(mats):
        middle_left = u @ q_dom
        for i_img, q_img in enumerate(mats):
            mc = monomial_check(q_img.conj().T @ middle_left)
            if not mc.is_monomial:
                continue
            domain = lags[i_dom]
            image = lags[i_img]
            if not _verify_span_map(u, domain, image):
                raise AssertionError("monomial witness failed the span check")
            return True, GscWitness(
                domain=domain,
                image=image,
                permutation=mc.permutation,
                phases=mc.phases,
            )
    return False, len(lags) ** 2


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


def sample_block_rep(n, rng) -> BlockRep:
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
            return BlockRep.from_rep(rep)


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
            return BlockRep.from_rep(r1), BlockRep.from_rep(r2)


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
        d = embed_gate(name, (q,), n) @ d
        if n >= 2 and rng.random() < 0.4:
            qs = tuple(int(x) for x in rng.choice(n, size=2, replace=False))
            d = embed_gate("CZ", qs, n) @ d
    return left @ d @ right
