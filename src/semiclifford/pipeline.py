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

The operators Q_i are one stack in U's engine: Monomials when U is one
(every library gate but H is, and so is gottesman_mochon's pair), and
dense matrices otherwise.  Each step has one body on the stack's engine
(dense._engine); only normalize_family, which conjugates dense families
alone, asks the engine whether a family outside block form is Monomial.
The reps are two bit stacks, cs and hs in clifford.product_table's
layout, kept as the stacked Clifford test of the 2n conjugates passes
them, and the qubit count is read off hs; only build_fmap builds
CliffordReps from them.  validate reads one product_table of all
(2n)^2 ordered products and a few stacked products of the ops;
normalize_family conjugates the rep stack by two product tables.  The
kernel comes from coset doubling over the 2^n f-vectors, its products
are folded on bits (_products), and the n spectra come from one stacked
lambda-products evaluation.  The rng-gated cross-checks of
extract_certificate realize a few kernel products as one Monomial stack
and compare them with the ops in the family's engine, multiplied by the
engine's own @, so on a Monomial family every step after
generators_from_gate is O(2^n) per operator.  Dense matrices serve only
the non-monomial input, its conjugator, and the tests.

build_fmap and fmap_kernel scan all 2^{2n} rep products instead; they
are kept as the independent reference that orbit_kernel is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import matmul

import numpy as np

from . import gf2
from .circuits import CircuitDescription, circuit_to_monomial
from .clifford import CliffordRep, compose, inverse, product_table
from .dense import (
    HIERARCHY_QUBIT_CAP,
    TOL,
    Monomial,
    _clifford_stack,
    _close_stack,
    _engine,
    _lambda_products,
    _per_stack,
    _realize_involutions,
    basis_bits,
    check_unitary,
    close,
    close_up_to_phase,
    extract_rep,
    hierarchy_level,
    num_qubits,
    pauli_conjugates,
)
from .expansion import rep_to_dense
from .normal_form import commuting_set_normal_form


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class GeneratorFamily:
    """2n commuting-pattern Clifford involutions: reps and operators.

    Rep i is (cs[i], hs[i]), two uint8 bit stacks of shapes (2n, 2n, 2n)
    and (2n, 2n) in product_table's layout; ops is one stack, a (2n, 2^n)
    Monomial or a (2n, 2^n, 2^n) array, and ops[i] realizes rep i.  The
    qubit count n is read off hs, so no field can disagree with it.
    """

    cs: np.ndarray
    hs: np.ndarray
    ops: Monomial | np.ndarray

    @property
    def n(self) -> int:
        return self.hs.shape[1] // 2

    def validate(self):
        """Check the fields, then the reps and the ops; raise ValueError
        naming the first failure.

        The fields: cs and hs uint8 bit arrays, hs with an even number
        2n >= 2 of columns, of shapes (2n, 2n, 2n) and (2n, 2n), and 2n
        ops of size 2^n in one stack of either engine (TypeError for any
        other ops type).  The reps: every C symplectic and, in one
        product_table of all products q_i q_j, each q_i q_i the identity
        rep and the table symmetric (the reps commute up to a sign).  The
        ops: each squares to I, and each pair commutes, or anticommutes
        exactly for (Z_i, X_i) of one qubit, one stacked product per chunk
        (_per_stack) and order.  Failures are named in index order, pairs
        i < j by i, then j.
        """
        cs, hs, ops = self.cs, self.hs, self.ops
        for name, bits, ndim in (("cs", cs, 3), ("hs", hs, 2)):
            uint8 = isinstance(bits, np.ndarray) and bits.dtype == np.uint8 and bits.ndim == ndim
            if not uint8 or bits.max(initial=0) > 1:
                raise ValueError(f"generator reps {name} are not a {ndim}-d uint8 bit array")
        if hs.shape[1] < 2 or hs.shape[1] % 2:
            raise ValueError(f"generator reps hs have {hs.shape[1]} columns, not an even count >= 2")
        n = self.n
        m = 2 * n
        if len(cs) != m:
            raise ValueError(f"expected {m} generators, got {len(cs)}")
        try:
            engine = _engine(ops)
        except TypeError:
            kind = type(ops).__name__
            raise TypeError(f"generator ops are a {kind}, not a Monomial or ndarray stack") from None
        if ops.shape[0] != m or ops.shape[-1] != 1 << n:
            got = f"{ops.shape[0]} of size {ops.shape[-1]}"
            raise ValueError(f"expected {m} generator ops of size {1 << n}, got {got}")
        for name, bits, shape in (("cs", cs, (m, m, m)), ("hs", hs, (m, m))):
            if bits.shape != shape:
                raise ValueError(f"generator reps {name} have shape {bits.shape}, expected {shape}")
        if not gf2.symplectic_mask(cs).all():
            raise ValueError("C is not symplectic")
        table_c, table_h = product_table(cs, hs, cs, hs)
        diag = np.arange(m)
        identity = (table_c[diag, diag] == gf2.ident(m)).all(axis=(1, 2))
        identity &= ~table_h[diag, diag].any(axis=1)
        bad = np.flatnonzero(~identity)
        if bad.size:
            raise ValueError(f"generator {bad[0]} is not an involution rep")
        symmetric = (table_c == table_c.transpose(1, 0, 2, 3)).all(axis=(2, 3))
        symmetric &= (table_h == table_h.transpose(1, 0, 2)).all(axis=2)
        bad = np.argwhere(~symmetric)  # row-major: the first i, then its first j > i
        if bad.size:
            raise ValueError(f"generators {bad[0, 0]} and {bad[0, 1]} have incompatible reps")
        ident = engine.from_monomial(Monomial.identity(n))
        per = _per_stack(ops)
        for s in range(0, m, per):
            a = ops[s : s + per]
            bad = s + np.flatnonzero(~engine.close(a @ a, ident))
            if bad.size:
                raise ValueError(f"generator op {bad[0]} does not square to I")
        left, right = np.triu_indices(m, 1)  # row-major: the first i, then its first j > i
        signs = np.where(right == left + n, -1.0, 1.0)
        per = _per_stack(ops, 2)
        for s in range(0, len(left), per):
            a, b = ops[left[s : s + per]], ops[right[s : s + per]]
            bad = s + np.flatnonzero(~engine.close(a @ b, b @ a, signs[s : s + per]))
            if bad.size:
                i, j = left[bad[0]], right[bad[0]]
                raise ValueError(f"generator ops {i}, {j} break the sign pattern")

    def is_block_form(self) -> bool:
        return not self.cs[:, self.n :, : self.n].any()


def check_pipeline_cap(n):
    """Raise ValueError past the pipeline's HIERARCHY_QUBIT_CAP qubits."""
    if n > HIERARCHY_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the pipeline cap of {HIERARCHY_QUBIT_CAP} qubits")


def generators_from_gate(u) -> GeneratorFamily:
    """Conjugate all 2n Pauli generators by u and extract their reps.

    The 2n conjugates are one stack of u's type (pauli_conjugates), and
    it goes through one stacked Clifford test, whose bits become the
    family's rep stacks as they are.

    Raises:
        ValueError: naming the first witness index when some conjugate
            is not Clifford (u is then not a third-level gate).
    """
    u = check_unitary(u)
    n = num_qubits(u)
    check_pipeline_cap(n)
    ops = pauli_conjugates(u, gf2.ident(2 * n))
    found = _clifford_stack(ops)
    if found is None:
        # the stacked test passes exactly when each matrix passes alone
        first = next(k for k, op in enumerate(ops) if _clifford_stack(op[None]) is None)
        raise ValueError(
            f"input is not a third-level gate: conjugated generator {first} is not Clifford"
        )
    ct, hs = found
    family = GeneratorFamily(*map(gf2.frozenbits, (np.swapaxes(ct, 1, 2), hs)), ops)
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
    n = family.n
    if family.is_block_form():
        return family, CliffordRep.identity(n)
    if _engine(family.ops) is Monomial:
        raise AssertionError("a family of Monomial ops is not in block form")
    snf = commuting_set_normal_form(family.cs)
    q_m = CliffordRep(snf.m, np.zeros(2 * n, dtype=np.uint8))
    q_m_inv = inverse(q_m)
    # q_m q q_m^-1 for every rep q: a (1, 2n) table, then a (2n, 1) one
    cs, hs = product_table(q_m.c[None], q_m.h[None], family.cs, family.hs)
    cs, hs = product_table(cs[0], hs[0], q_m_inv.c[None], q_m_inv.h[None])
    v = rep_to_dense(q_m)
    cs, hs = map(gf2.frozenbits, (cs[:, 0], hs[:, 0]))
    out = GeneratorFamily(cs, hs, v @ family.ops @ v.conj().T)
    out.validate()
    if not out.is_block_form():
        raise AssertionError("conjugated family is not in block form")
    return out, q_m


@dataclass(frozen=True)
class FMapScan:
    """All 2^{2n} generator-product reps and their f-vectors.

    reps[x] is the rep of the product with exponent vector x (bit k of
    the integer index is the exponent of generator k); fvals[x] is its
    f-vector.  Well defined because the reps pairwise commute.
    """

    reps: list
    fvals: np.ndarray


def build_fmap(family: GeneratorFamily) -> FMapScan:
    """Scan all exponent vectors with Gray-code incremental composition."""
    if not family.is_block_form():
        raise ValueError("family must be normalized to block form first")
    n = family.n
    qs = tuple(map(CliffordRep, family.cs, family.hs))
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
        current = compose(qs[k], current)
        reps[gray] = current
        fvals[gray] = current.f
        prev_gray = gray
    return FMapScan(reps=reps, fvals=fvals)


def fmap_kernel(scan: FMapScan) -> np.ndarray:
    """Basis (rows) of the exponent vectors with zero f-vector.

    The zero set is verified to be a subspace of dimension n and the
    map to be surjective onto the 2^n possible f-vectors.
    """
    n = scan.fvals.shape[1]
    zero_idx = np.flatnonzero(~scan.fvals.any(axis=1))
    if len(zero_idx) != 1 << n:
        raise AssertionError(
            f"kernel has size {len(zero_idx)}, expected {1 << n}; invalid family"
        )
    members = zero_idx.tolist()  # bit k: exponent of generator k
    pivots = gf2._eliminate(members, 2 * n)
    if len(pivots) != n:
        raise AssertionError(f"kernel rank {len(pivots)}, expected {n}")
    if len(np.unique(scan.fvals, axis=0)) != 1 << n:
        raise AssertionError("f-vector map is not surjective")
    return gf2._unpack_rows(members[:n], 2 * n)


def orbit_kernel(family: GeneratorFamily) -> np.ndarray:
    """Basis (rows) of the exponent vectors with zero f-vector.

    On a block-form family, generator k acts on the f-vectors by
    y -> A_k^T y + f_k, where A_k is the upper-left block of its
    C-matrix: the product with exponent vector e_k + x has f-vector
    f_k + A_k^T T(x).  So the image of the f-map T is the orbit of 0 and
    its kernel is the stabilizer of 0.  The maps of a validated family
    commute and square to the identity, so they generate an elementary
    abelian 2-group, and the orbit grows by coset doubling.  Walking the
    generators in index order, with one exponent word per orbit point
    (bit k is the exponent of generator k): if f_k is outside the orbit,
    generator k moves the orbit onto a disjoint copy, whose points
    A_k^T y + f_k have the words word(y) + e_k; if f_k is in the orbit
    with word w, generator k maps the orbit onto itself and e_k + w
    joins the stabilizer.  Points are packed ints (bit i holds
    coordinate i), and A_k^T is tabulated over all 2^n of them in n
    doubling steps, so each copy is one gather, and the stabilizer
    words are eliminated as packed rows (gf2._eliminate) and unpacked
    once.

    The orbit is verified to have all 2^n points (T is surjective) and
    the kernel to have rank n; a copy that meets the orbit, which only
    an unvalidated family can produce, raises.  The basis is in RREF, so
    it equals fmap_kernel's.
    """
    if not family.is_block_form():
        raise ValueError("family must be normalized to block form first")
    n = family.n
    m = 2 * n
    weights = 1 << np.arange(n)
    shifts = family.hs[:, :n] @ weights
    # images[k, i] = A_k^T e_i (row i of A_k), so lin[k, y] = A_k^T y
    images = family.cs[:, :n, :n] @ weights
    lin = np.zeros((m, 1), dtype=images.dtype)
    for i in range(n):
        lin = np.concatenate([lin, lin ^ images[:, i, None]], axis=1)
    position = np.full(1 << n, -1)
    position[0] = 0
    points = np.zeros(1, dtype=lin.dtype)
    words = np.zeros(1, dtype=lin.dtype)
    stabilizer = []
    for k, f in enumerate(shifts):
        if position[f] >= 0:
            stabilizer.append(int(words[position[f]]) ^ 1 << k)
            continue
        copy = lin[k, points] ^ f
        if (position[copy] >= 0).any():
            raise AssertionError(
                f"generator {k} maps the orbit of 0 partly into itself; invalid family"
            )
        position[copy] = np.arange(len(points), 2 * len(points))
        points = np.concatenate([points, copy])
        words = np.concatenate([words, words ^ (1 << k)])
    if len(points) != 1 << n:
        raise AssertionError(
            f"f-vector map is not surjective: the orbit of 0 has {len(points)} "
            f"points, expected {1 << n}"
        )
    pivots = gf2._eliminate(stabilizer, m)
    if len(pivots) != n:
        raise AssertionError(f"kernel rank {len(pivots)}, expected {n}")
    return gf2._unpack_rows(stabilizer, m)  # n rows: the steps that did not double the orbit


def _products(family: GeneratorFamily, rows):
    """(cs, hs) of the generator products over nonzero exponent vectors
    rows (k, 2n): each folded from its first factor, and each later
    factor k left-multiplying its rows by one product_table."""
    first = rows.argmax(axis=1)
    cs, hs = family.cs[first], family.hs[first]
    for k in range(1, rows.shape[1]):
        take = np.flatnonzero((rows[:, k] == 1) & (first < k))
        if take.size:
            c, h = product_table(family.cs[k : k + 1], family.hs[k : k + 1], cs[take], hs[take])
            cs[take], hs[take] = c[0], h[0]
    return cs, hs


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

    conjugator moves the family to block form; the kernel-product reps
    over kernel_basis realize as diagonal involutions, diag(spectra[r]),
    whose group spans the full diagonal algebra, i.e. the span of the
    sigma_z subgroup.  n is read off the conjugator.
    """

    conjugator: CliffordRep
    kernel_basis: np.ndarray
    spectra: tuple
    verdicts: dict

    @property
    def n(self) -> int:
        return self.conjugator.n


def extract_certificate(
    family: GeneratorFamily, conjugator: CliffordRep, rng=None
) -> GscCertificate:
    """Certify a block-form family: kernel, product spectra, span.

    The kernel comes from orbit_kernel and its products from _products,
    on bits.  Asserts, naming the violated property: identity A-block and
    zero f-vector for every kernel product, and full rank of the 2^n
    diagonal patterns (span_rank).  With A = I and f = 0 a product's
    realization (realize_block) is the diagonal of its lambda products,
    so the n spectra come from one stacked _lambda_products call, which
    also checks block form.  With an rng, a few kernel products are
    realized as one Monomial stack (_realize_involutions) and checked
    against their diagonals and, up to global phase, against the
    products of their generator ops in the family's engine (O(2^n) for
    Monomial ops), each built once; the op products over sampled pairs
    of kernel rows are checked to commute, as one stack.
    """
    n = family.n
    kernel = orbit_kernel(family)
    dim = 1 << n
    cs, hs = _products(family, kernel)
    if not (cs[:, :n, :n] == gf2.ident(n)).all():
        raise AssertionError("kernel product has a non-identity A-block")
    if hs[:, :n].any():
        raise AssertionError("kernel product has a nonzero f-vector")
    spectra = _lambda_products(cs, hs, basis_bits(n))

    pattern_rank = span_rank(spectra)
    if pattern_rank != dim:
        raise AssertionError(f"diagonal group spans rank {pattern_rank}, expected {dim}")

    checks = 0
    if rng is not None:
        take = min(3, len(kernel))
        rows = rng.choice(len(kernel), size=take, replace=False)
        pairs = [
            rng.choice(len(kernel), size=2, replace=False)
            for _ in range(min(3, len(kernel) * (len(kernel) - 1) // 2))
        ]
        # the product of generator ops of each drawn kernel row, in index order, built once
        drawn = {*rows, *np.ravel(pairs)}
        prods = {r: reduce(matmul, family.ops[np.flatnonzero(kernel[r])]) for r in drawn}
        realized = _realize_involutions(cs[rows], hs[rows])
        diagonal = Monomial(np.broadcast_to(np.arange(dim), realized.perm.shape), spectra[rows])
        if not _close_stack(realized, diagonal).all():
            raise AssertionError("kernel product realization is not its diagonal spectrum")
        engine = _engine(family.ops)
        for r, one in zip(rows, realized):
            if not close_up_to_phase(prods[r], engine.from_monomial(one)):
                raise AssertionError("dense product disagrees with the realization")
        if pairs:
            a, b = (engine.stack([prods[r] for r in side]) for side in zip(*pairs))
            if not _close_stack(a @ b, b @ a).all():
                raise AssertionError("kernel realizations do not commute")
        checks = take + len(pairs)

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
    return GscCertificate(conjugator, kernel, tuple(spectra), verdicts)


def run_pipeline(u, rng=None) -> GscCertificate:
    """Gate to certificate: generators, block form, kernel, realization."""
    family = generators_from_gate(u)
    normalized, q_m = normalize_family(family)
    return extract_certificate(normalized, q_m, rng=rng)


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
    u, v = gottesman_mochon()
    n = 7
    ident = Monomial.identity(n)
    if not (close(u @ u, ident) and close(v @ v, ident)):
        raise AssertionError("constituents are not involutions")
    uv = u @ v
    vu = v @ u
    low_level = hierarchy_level(uv, kmax=2)
    witness_index = n + 6  # x-part generator on qubit R
    (vu_conj,) = pauli_conjugates(vu, gf2.ident(2 * n)[[witness_index]])
    vu_witness_clifford = extract_rep(vu_conj) is not None
    # the family's 14 conjugates are exactly the ones the level-3 test
    # checks for being Clifford, so building it is the level-3 verdict; a
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
