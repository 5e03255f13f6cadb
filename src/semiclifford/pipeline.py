"""End-to-end certificate pipeline for third-level gates.

A third-level gate U determines 2n Clifford involutions
Q_i = U tau_{e_i} U^dag that square to I and commute or anticommute in
the same pattern as the Pauli generators.  The pipeline conjugates the
family so every C-matrix has zero lower-left block, finds the
n-dimensional kernel of the exponent-to-f-vector map as the stabilizer
of 0 under the generators' affine action on the 2^n f-vectors, and
reads each kernel product's diagonal spectrum off its rep.  The
resulting group spans the full diagonal algebra, which certifies that
U is generalized semi-Clifford; the conjugating Clifford and the
diagonal generators form the certificate.

The operators Q_i are Monomials when U is one (every library gate but
H is, and so is the seven-qubit pair of gottesman_mochon), and dense
matrices otherwise; each step runs on the type it is given.  Dense
matrices still serve the non-monomial input, the conjugator, the
rng-gated cross-checks of extract_certificate, and the tests.

build_fmap and fmap_kernel scan all 2^{2n} rep products instead; they
are kept as the independent reference that orbit_kernel is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .circuits import CircuitDescription, circuit_to_monomial
from .clifford import CliffordRep, compose, inverse, is_involution_rep, reps_commute
from .dense import (
    HIERARCHY_QUBIT_CAP,
    TOL,
    BlockRep,
    Monomial,
    _lambda_products,
    as_dense,
    basis_bits,
    check_unitary,
    close,
    close_up_to_phase,
    extract_rep,
    identity_like,
    num_qubits,
    pauli_conjugates,
    realize_block,
)
from .expansion import rep_to_dense


@dataclass(frozen=True)
class GeneratorFamily:
    """2n commuting-pattern Clifford involutions: reps and operators.

    ops[i] realizes qs[i], as a Monomial or a dense matrix.
    """

    qs: tuple
    ops: tuple
    n: int

    def validate(self):
        n = self.n
        if len(self.qs) != 2 * n:
            raise ValueError(f"expected {2 * n} generators, got {len(self.qs)}")
        for i, q in enumerate(self.qs):
            if not is_involution_rep(q):
                raise ValueError(f"generator {i} is not an involution rep")
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                if not reps_commute(self.qs[i], self.qs[j]):
                    raise ValueError(f"generators {i} and {j} have incompatible reps")
        for i, op in enumerate(self.ops):
            if not close(op @ op, identity_like(op)):
                raise ValueError(f"generator op {i} does not square to I")
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                sign = -1.0 if j == i + n else 1.0
                lhs = self.ops[i] @ self.ops[j]
                rhs = sign * self.ops[j] @ self.ops[i]
                if not close(lhs, rhs):
                    raise ValueError(f"generator ops {i}, {j} break the sign pattern")

    def is_block_form(self) -> bool:
        n = self.n
        return all(not q.c[n:, :n].any() for q in self.qs)


def generators_from_gate(u) -> GeneratorFamily:
    """Conjugate all 2n Pauli generators by u and extract their reps.

    Raises:
        ValueError: naming the witness index when some conjugate is not
            Clifford (u is then not a third-level gate).
    """
    u = check_unitary(u)
    n = num_qubits(u)
    if n > HIERARCHY_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the pipeline cap of {HIERARCHY_QUBIT_CAP} qubits")
    reps = []
    ops = []
    for i, op in enumerate(pauli_conjugates(u, gf2.ident(2 * n))):
        rep = extract_rep(op)
        if rep is None:
            raise ValueError(
                f"input is not a third-level gate: conjugated generator {i} "
                "is not Clifford"
            )
        reps.append(rep)
        ops.append(op)
    family = GeneratorFamily(qs=tuple(reps), ops=tuple(ops), n=n)
    family.validate()
    return family


def normalize_family(family: GeneratorFamily):
    """Conjugate the family so every C-matrix has zero lower-left block.

    Returns (normalized family, conjugating CliffordRep).  The
    conjugator gets h = 0; if the family is already in block form it is
    returned unchanged with the identity conjugator.  A monomial
    Clifford maps diagonal Paulis to diagonal Paulis, so a family of
    Monomial ops is always in block form; only dense families are
    conjugated.
    """
    from .normal_form import commuting_set_normal_form

    n = family.n
    if family.is_block_form():
        return family, CliffordRep.identity(n)
    if isinstance(family.ops[0], Monomial):
        raise AssertionError("a family of Monomial ops is not in block form")
    snf = commuting_set_normal_form([q.c for q in family.qs])
    q_m = CliffordRep(snf.m, np.zeros(2 * n, dtype=np.uint8))
    q_m_inv = inverse(q_m)
    reps = tuple(compose(compose(q_m, q), q_m_inv) for q in family.qs)
    v = rep_to_dense(q_m)
    vdag = v.conj().T
    ops = tuple(v @ op @ vdag for op in family.ops)
    out = GeneratorFamily(qs=reps, ops=ops, n=n)
    out.validate()
    if not out.is_block_form():
        raise AssertionError("conjugated family is not in block form")
    return out, q_m


@dataclass
class FMapScan:
    """All 2^{2n} generator-product reps and their f-vectors.

    reps[x] is the rep of the product with exponent vector x (bit k of
    the integer index is the exponent of generator k); fvals[x] is its
    f-vector.  Well defined because the reps pairwise commute.
    """

    family: GeneratorFamily
    reps: list
    fvals: np.ndarray

    def exponent_bits(self, x: int) -> np.ndarray:
        m = 2 * self.family.n
        return np.array([(x >> k) & 1 for k in range(m)], dtype=np.uint8)

    def index_of(self, bits) -> int:
        bits = gf2.asbits(bits)
        return int(sum(int(b) << k for k, b in enumerate(bits)))

    def f_vector(self, x) -> np.ndarray:
        if not isinstance(x, (int, np.integer)):
            x = self.index_of(x)
        return self.fvals[x].copy()

    def a_block(self, x) -> np.ndarray:
        if not isinstance(x, (int, np.integer)):
            x = self.index_of(x)
        n = self.family.n
        return self.reps[x].c[:n, :n].copy()


def build_fmap(family: GeneratorFamily) -> FMapScan:
    """Scan all exponent vectors with Gray-code incremental composition."""
    if not family.is_block_form():
        raise ValueError("family must be normalized to block form first")
    n = family.n
    m = 2 * n
    count = 1 << m
    reps: list = [None] * count
    fvals = np.zeros((count, n), dtype=np.uint8)
    current = CliffordRep.identity(n)
    reps[0] = current
    fvals[0] = current.f
    prev_gray = 0
    for t in range(1, count):
        gray = t ^ (t >> 1)
        k = (prev_gray ^ gray).bit_length() - 1
        current = compose(family.qs[k], current)
        reps[gray] = current
        fvals[gray] = current.f
        prev_gray = gray
    return FMapScan(family=family, reps=reps, fvals=fvals)


def fmap_kernel(scan: FMapScan) -> np.ndarray:
    """Basis (rows) of the exponent vectors with zero f-vector.

    The zero set is verified to be a subspace of dimension n and the
    map to be surjective onto the 2^n possible f-vectors.
    """
    n = scan.family.n
    m = 2 * n
    count = 1 << m
    zero_idx = [x for x in range(count) if not scan.fvals[x].any()]
    if len(zero_idx) != 1 << n:
        raise AssertionError(
            f"kernel has size {len(zero_idx)}, expected {1 << n}; invalid family"
        )
    members = np.array([scan.exponent_bits(x) for x in zero_idx], dtype=np.uint8)
    red, pivots = gf2.rref(members)
    if len(pivots) != n:
        raise AssertionError(f"kernel rank {len(pivots)}, expected {n}")
    images = {scan.fvals[x].tobytes() for x in range(count)}
    if len(images) != 1 << n:
        raise AssertionError("f-vector map is not surjective")
    return red[:n].copy()


def orbit_kernel(family: GeneratorFamily) -> np.ndarray:
    """Basis (rows) of the exponent vectors with zero f-vector.

    On a block-form family, generator k acts on the f-vectors by
    y -> A_k^T y + f_k, where A_k is the upper-left block of its
    C-matrix: the product with exponent vector e_k + x has f-vector
    f_k + A_k^T T(x).  So the image of the f-map T is the orbit of 0 and
    its kernel is the stabilizer of 0.  A breadth-first search over the
    at most 2^n orbit points records one exponent word per point (bit k
    is the exponent of generator k); each edge y -> y' that reaches a
    point already seen gives the Schreier generator
    word(y) + e_k + word(y'), and these span the stabilizer.

    The orbit is verified to have all 2^n points (T is surjective) and
    the kernel to have rank n.  The basis is in RREF, so it equals
    fmap_kernel's.
    """
    if not family.is_block_form():
        raise ValueError("family must be normalized to block form first")
    n = family.n
    # per generator: f_k and the images A_k^T e_i (row i of A_k), packed
    # into ints with bit i holding coordinate i
    weights = 1 << np.arange(n)
    moves = [
        (int(q.f @ weights), [int(row @ weights) for row in q.c[:n, :n]])
        for q in family.qs
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


def product_rep(family: GeneratorFamily, bits) -> CliffordRep:
    """Rep of the generator product with exponent vector bits.

    The reps pairwise commute, so the composition order does not change
    the result: it equals build_fmap's reps[x] for the same exponents.
    """
    rep = CliffordRep.identity(family.n)
    for k in np.flatnonzero(gf2.asbits(bits)):
        rep = compose(family.qs[k], rep)
    return rep


def span_rank(spectra) -> int:
    """Rank of the 2^n diagonal patterns of n +-1 valued spectra.

    The pattern of exponent vector t has entry (-1)**(t . b(x)) at
    position x, where b(x) collects the sign bits of the spectra at x.
    So the pattern matrix is the +-1 character matrix of Z_2^n
    restricted to the columns b(x), and its rank is the number of
    distinct b(x).
    """
    spectra = np.asarray(spectra)
    if np.abs(spectra.imag).max() > TOL or np.abs(np.abs(spectra.real) - 1).max() > TOL:
        raise AssertionError("diagonal patterns are not +-1 valued")
    weights = 1 << np.arange(spectra.shape[0])
    return len(set((weights @ (spectra.real < 0)).tolist()))


@dataclass(frozen=True)
class GscCertificate:
    """Witness that the source gate is generalized semi-Clifford.

    conjugator (with its dense realization) moves the family to block
    form; the kernel-product reps over kernel_basis realize as diagonal
    involutions (diagonal_generators, dense, with the given spectra)
    whose group spans the full diagonal algebra, i.e. the span of the
    sigma_z subgroup.
    """

    n: int
    conjugator: CliffordRep
    conjugator_dense: np.ndarray
    kernel_basis: np.ndarray
    diagonal_generators: tuple
    spectra: tuple
    verdicts: dict


def extract_certificate(
    family: GeneratorFamily, conjugator: CliffordRep, rng=None
) -> GscCertificate:
    """Certify a block-form family: kernel, product spectra, span.

    The kernel comes from orbit_kernel and its products from
    product_rep.  Asserts, naming the violated property: identity
    A-block and zero f-vector for every kernel product, and full rank
    of the 2^n diagonal patterns (span_rank).  With A = I and f = 0 the
    product's realization (realize_block) is the diagonal matrix of its
    lambda products, so each spectrum is read straight off
    _lambda_products.  When an rng is given, a few kernel products are
    realized with realize_block and cross-checked against that diagonal
    and against the product of the constituent generator ops (up to
    global phase, densely), and sampled pairs are checked to commute
    densely.
    """
    n = family.n
    kernel = orbit_kernel(family)
    dim = 1 << n
    blocks = []
    diag_gens = []
    spectra = []
    for row in kernel:
        rep = product_rep(family, row)
        if not np.array_equal(rep.c[:n, :n], gf2.ident(n)):
            raise AssertionError("kernel product has a non-identity A-block")
        if rep.f.any():
            raise AssertionError("kernel product has a nonzero f-vector")
        blk = BlockRep.from_rep(rep)
        spectrum = _lambda_products(blk, basis_bits(n))
        blocks.append(blk)
        diag_gens.append(np.diag(spectrum))
        spectra.append(spectrum)

    pattern_rank = span_rank(spectra)
    if pattern_rank != dim:
        raise AssertionError(
            f"diagonal group spans rank {pattern_rank}, expected {dim}"
        )

    checks = 0
    if rng is not None:
        take = min(3, len(kernel))
        rows = rng.choice(len(kernel), size=take, replace=False)
        for ridx in rows:
            bits = kernel[ridx]
            prod = identity_like(family.ops[0])
            for k in range(2 * n):
                if bits[k]:
                    prod = prod @ family.ops[k]
            realized = realize_block(blocks[int(ridx)])
            if not close(realized, diag_gens[int(ridx)]):
                raise AssertionError("kernel product realization is not its diagonal spectrum")
            if not close_up_to_phase(as_dense(prod), realized):
                raise AssertionError("dense product disagrees with the realization")
            checks += 1
        for _ in range(min(3, len(diag_gens) * (len(diag_gens) - 1) // 2)):
            i, j = rng.choice(len(diag_gens), size=2, replace=False)
            lhs = diag_gens[int(i)] @ diag_gens[int(j)]
            rhs = diag_gens[int(j)] @ diag_gens[int(i)]
            if not close(lhs, rhs):
                raise AssertionError("kernel realizations do not commute")
            checks += 1

    verdicts = {
        "kernel_dimension": int(kernel.shape[0]),
        "kernel_dim_ok": True,
        "a_blocks_identity": True,
        "f_vectors_zero": True,
        "diagonal": True,
        "span_rank": pattern_rank,
        "span_full": True,
        "dense_cross_checks": checks,
    }
    return GscCertificate(
        n=n,
        conjugator=conjugator,
        conjugator_dense=rep_to_dense(conjugator),
        kernel_basis=kernel,
        diagonal_generators=tuple(diag_gens),
        spectra=tuple(spectra),
        verdicts=verdicts,
    )


def run_pipeline(u, rng=None) -> GscCertificate:
    """Gate to certificate: generators, block form, kernel, realization."""
    family = generators_from_gate(u)
    normalized, q_m = normalize_family(family)
    return extract_certificate(normalized, q_m, rng=rng)


GM_QUBITS = "A1 A2 A3 B1 B2 B3 R".split()


def gottesman_mochon():
    """The seven-qubit pair (U, V) as Monomials: controlled swaps and CCZs.

    Qubit order is A1 A2 A3 B1 B2 B3 R (indices 0..6).  U swaps each
    A_i with B_i when R is set; V applies CCZ on (A1,A2,A3), (A1,B2,B3),
    (B1,A2,B3), and (B1,B2,A3).  Both are involutions; their product UV
    sits at level three while VU does not, witnessed on qubit R.
    """
    n = 7
    u = circuit_to_monomial(
        CircuitDescription(n, tuple(("CSWAP", (6, i, 3 + i)) for i in range(3)))
    )
    v = circuit_to_monomial(
        CircuitDescription(
            n, tuple(("CCZ", t) for t in ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2)))
        )
    )
    return u, v


def counterexample_report(rng=None) -> dict:
    """Run the full level-three verdicts on the controlled-swap/CCZ pair.

    Checks UV is level three, that VU fails level three on the sigma_x
    conjugate at qubit R (its image is not even Clifford), and that the
    pipeline still produces a complete certificate for UV.  Every step
    runs on the type gottesman_mochon returns: Monomials.
    """
    from .dense import hierarchy_level

    u, v = gottesman_mochon()
    n = 7
    if not (close(u @ u, identity_like(u)) and close(v @ v, identity_like(v))):
        raise AssertionError("constituents are not involutions")
    uv = u @ v
    vu = v @ u
    low_level = hierarchy_level(uv, kmax=2)
    witness_index = n + 6  # x-part generator on qubit R
    (vu_conj,) = pauli_conjugates(vu, gf2.ident(2 * n)[[witness_index]])
    vu_witness_clifford = extract_rep(vu_conj) is not None
    # the family's 14 conjugates are exactly the ones the level-3 test
    # checks with extract_rep, so building it is the level-3 verdict; a
    # gate outside level 3 raises here
    cert = run_pipeline(uv, rng=rng)
    uv_level = low_level or 3
    return {
        "uv_in_level_3": uv_level == 3,
        "uv_level": uv_level,
        "vu_witness_qubit": "R",
        "vu_witness_generator": witness_index,
        "vu_witness_in_clifford": vu_witness_clifford,
        "vu_in_level_3": vu_witness_clifford,
        "certificate": cert,
    }
