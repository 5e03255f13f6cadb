import numpy as np
import pytest

from helpers import (
    family_of,
    from_pauli,
    orbit_kernel_oracle,
    pattern_matrix,
    product_rep,
    random_c3_gate,
    reps_of,
    embed_gate_oracle,
    random_clifford_dense,
    random_monomial_c3_gate,
    rank_mod_prime,
    reconstruct_unitary,
    stack_ops,
)
from semiclifford import dense, gf2
from semiclifford.circuits import GATE_MATRICES
from semiclifford.clifford import CliffordRep, compose
from semiclifford.dense import (
    _STACK_ENTRIES,
    Monomial,
    _clifford_reps,
    _realize_involutions,
    close_up_to_phase,
    extract_rep,
    hierarchy_level,
    realize_block,
)
from semiclifford.expansion import rep_to_dense
from semiclifford.pauli import PhasedPauli, pauli_to_dense
from semiclifford.pipeline import (
    GeneratorFamily,
    build_fmap,
    counterexample_report,
    extract_certificate,
    fmap_kernel,
    generators_from_gate,
    gottesman_mochon,
    normalize_family,
    orbit_kernel,
    run_pipeline,
    span_rank,
)


def test_identity_family_is_bare_paulis():
    fam = generators_from_gate(np.eye(4, dtype=complex))
    for i, q in enumerate(reps_of(fam)):
        a = np.zeros(4, dtype=np.uint8)
        a[i] = 1
        assert q == from_pauli(PhasedPauli(0, 0, a))


def test_hadamard_family_swaps():
    fam = generators_from_gate(GATE_MATRICES["H"])
    # H Z H = X, H X H = Z
    assert reps_of(fam)[:2] == (
        from_pauli(PhasedPauli(0, 0, [0, 1])),
        from_pauli(PhasedPauli(0, 0, [1, 0])),
    )


def test_t_family_has_non_pauli_member():
    from semiclifford.dense import is_pauli

    fam = generators_from_gate(GATE_MATRICES["T"])
    assert is_pauli(fam.ops[0]) is not None  # Z conjugate stays Z
    assert is_pauli(fam.ops[1]) is None  # X conjugate is Clifford only
    assert extract_rep(fam.ops[1]) is not None


def test_non_c3_gate_is_rejected_with_witness():
    rt = np.diag([1, np.exp(1j * np.pi / 8)])
    with pytest.raises(ValueError, match="generator 1"):
        generators_from_gate(rt)


def test_reconstruct_identity_family():
    fam = generators_from_gate(np.eye(4, dtype=complex))
    u = reconstruct_unitary(fam)
    assert close_up_to_phase(u, np.eye(4))


@pytest.mark.parametrize("name,qubits,n", [("H", (0,), 1), ("T", (0,), 1), ("CCZ", (0, 1, 2), 3)])
def test_reconstruct_known_gates(name, qubits, n):
    u0 = embed_gate_oracle(name, qubits, n)
    fam = generators_from_gate(u0)
    u = reconstruct_unitary(fam)
    udag = u.conj().T
    # conjugation action matches the family exactly
    from semiclifford.dense import _generator_matrices

    for i, g in enumerate(_generator_matrices(n)):
        assert np.allclose(u @ g @ udag, fam.ops[i], atol=1e-8)
    assert close_up_to_phase(u, u0)


def test_reconstruct_random_c3(rng):
    u0 = random_c3_gate(2, rng)
    fam = generators_from_gate(u0)
    u = reconstruct_unitary(fam)
    assert close_up_to_phase(u, u0)


def test_normalize_block_family_is_noop():
    fam = generators_from_gate(GATE_MATRICES["CZ"] @ embed_gate_oracle("T", (0,), 2))
    assert fam.is_block_form()
    out, qm = normalize_family(fam)
    assert qm.is_identity()
    assert out is fam


def test_normalize_family_t_gate():
    from semiclifford.clifford import inverse

    fam = generators_from_gate(GATE_MATRICES["T"])
    out, qm = normalize_family(fam)
    assert out.is_block_form()
    qm_inv = inverse(qm)
    for q, q0 in zip(reps_of(out), reps_of(fam)):
        assert q == compose(compose(qm, q0), qm_inv)


@pytest.mark.parametrize("n", range(1, 6))
def test_normalize_family_tables_equal_the_per_rep_compose_oracle(n, rng):
    # two product tables conjugate the whole rep stack; the reference is
    # q_m q q_m^-1 composed one rep at a time
    from semiclifford.clifford import inverse

    gates = [random_c3_gate(n, rng) for _ in range(3)]
    gates.append(embed_gate_oracle("H", (n - 1,), n) @ embed_gate_oracle("T", (n - 1,), n))
    moved = 0
    for u in gates:
        fam = generators_from_gate(u)
        out, qm = normalize_family(fam)
        moved += out is not fam
        qm_inv = inverse(qm)
        for q, c, h in zip(reps_of(fam), out.cs, out.hs, strict=True):
            want = compose(compose(qm, q), qm_inv)
            assert c.dtype == want.c.dtype and c.shape == want.c.shape
            assert c.tobytes() == want.c.tobytes() and h.tobytes() == want.h.tobytes()
    assert moved


def test_normalize_family_nontrivial(rng):
    from semiclifford.clifford import inverse

    u = GATE_MATRICES["H"] @ GATE_MATRICES["T"]
    fam = generators_from_gate(u)
    assert not fam.is_block_form()
    out, qm = normalize_family(fam)
    assert out.is_block_form()
    out.validate()
    qm_inv = inverse(qm)
    for q, q0 in zip(reps_of(out), reps_of(fam)):
        assert q == compose(compose(qm, q0), qm_inv)


def _index_of(bits):
    """The scan index of an exponent vector: bit k is the exponent of generator k."""
    return int(np.asarray(bits) @ (1 << np.arange(len(bits))))


def test_fmap_values_and_additivity(rng):
    u = random_c3_gate(2, rng)
    fam = generators_from_gate(u)
    norm, qm = normalize_family(fam)
    scan = build_fmap(norm)
    n = 2
    # T(0) = 0 and T(e_k) = f-vector of generator k
    assert not scan.fvals[0].any()
    for k in range(2 * n):
        assert np.array_equal(scan.fvals[1 << k], reps_of(norm)[k].f)
    # T(x + y) = T(x) + A_x^T T(y)
    for _ in range(40):
        x = int(rng.integers(0, 1 << (2 * n)))
        y = int(rng.integers(0, 1 << (2 * n)))
        ax = scan.reps[x].c[:n, :n]
        lhs = scan.fvals[x ^ y]
        rhs = (scan.fvals[x] ^ gf2.mat_mul(ax.T, scan.fvals[y])) & 1
        assert np.array_equal(lhs, rhs)


def test_fmap_kernel_properties(rng):
    u = random_c3_gate(2, rng)
    fam = generators_from_gate(u)
    norm, qm = normalize_family(fam)
    scan = build_fmap(norm)
    kernel = fmap_kernel(scan)
    n = 2
    assert kernel.shape == (n, 2 * n)
    # kernel translation invariance: T(x + y) = T(x) for kernel y
    for _ in range(30):
        x = int(rng.integers(0, 1 << (2 * n)))
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        y = np.zeros(2 * n, dtype=np.uint8)
        for k in range(n):
            if bits[k]:
                y ^= kernel[k]
        assert np.array_equal(scan.fvals[x], scan.fvals[x ^ _index_of(y)])
    # fibers are kernel cosets: |Ker| * |Im| = 2^{2n}
    values = {scan.fvals[i].tobytes() for i in range(1 << (2 * n))}
    assert len(values) * (1 << n) == 1 << (2 * n)


def test_bare_pauli_family_kernel():
    fam = generators_from_gate(np.eye(8, dtype=complex))
    scan = build_fmap(fam)
    kernel = fmap_kernel(scan)
    expect = np.concatenate([gf2.ident(3), gf2.zeros(3, 3)], axis=1)
    assert np.array_equal(kernel, expect)
    assert np.array_equal(orbit_kernel(fam), expect)


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_kernel_matches_scan_oracle(n, rng):
    # monomial gates reach n = 7 cheaply, and a CSWAP core gives A-blocks
    # other than I; the 2^{2n} scan runs up to n = 5, the BFS oracle always
    gates = [random_monomial_c3_gate(n, rng, cswap=n >= 3 and k < 2) for k in range(4)]
    if n <= 3:
        gates += [random_c3_gate(n, rng) for _ in range(4)]
    if n == 3:
        # a non-diagonal core gives A-blocks other than I in block form
        cswap = GATE_MATRICES["CSWAP"] @ GATE_MATRICES["CCZ"]
        gates += [random_clifford_dense(3, rng) @ cswap @ random_clifford_dense(3, rng)]
    moved = False
    for u in gates:
        norm, _ = normalize_family(generators_from_gate(u))
        moved |= any((q.c[:n, :n] != gf2.ident(n)).any() for q in reps_of(norm))
        kernel = orbit_kernel(norm)
        assert np.array_equal(kernel, orbit_kernel_oracle(norm))
        if n <= 5:
            scan = build_fmap(norm)
            assert np.array_equal(kernel, fmap_kernel(scan))
            for row in kernel:
                assert product_rep(norm, row) == scan.reps[_index_of(row)]
    assert moved or n < 3


def test_orbit_kernel_matches_both_oracles_on_the_uv_family():
    u, v = gottesman_mochon()
    norm, _ = normalize_family(generators_from_gate(u @ v))
    kernel = orbit_kernel(norm)
    assert np.array_equal(kernel, orbit_kernel_oracle(norm))
    assert np.array_equal(kernel, fmap_kernel(build_fmap(norm)))


def test_product_rep_equals_the_fold_from_the_identity(rng):
    u, v = gottesman_mochon()
    families = [generators_from_gate(u @ v)]
    for n in (1, 2, 3):  # C.D.C gates, normalized to block form
        families.append(normalize_family(generators_from_gate(random_c3_gate(n, rng)))[0])
    for fam in families:
        m = 2 * fam.n
        rows = [np.zeros(m, np.uint8)] + list(gf2.ident(m)) + list(rng.integers(0, 2, (20, m)))
        qs = reps_of(fam)
        for row in rows:
            fold = CliffordRep.identity(fam.n)
            for k in np.flatnonzero(row):
                fold = compose(qs[k], fold)
            assert product_rep(fam, row) == fold


@pytest.mark.parametrize("bits", [[1, 0, 1], [1], []])
def test_product_rep_rejects_an_exponent_vector_of_another_length(bits):
    # [1, 0, 1] raised IndexError, and [1] read as [1, 0]
    fam = generators_from_gate(GATE_MATRICES["T"])
    size = np.size(bits)
    with pytest.raises(ValueError, match=f"^exponent vector has length {size}, expected 2$"):
        product_rep(fam, bits)


def test_orbit_kernel_rejects_a_copy_that_meets_the_orbit():
    # unvalidated: generator 0 gives the orbit {0, e_0}; generator 1 has
    # f = e_1 outside it, but A_1^T e_0 + e_1 = e_0 is inside, which maps
    # of one elementary abelian group never do
    n = 2
    a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    c1 = np.block([[a, gf2.zeros(n, n)], [gf2.zeros(n, n), gf2.inverse(a).T]])
    qs = (
        CliffordRep(gf2.ident(2 * n), [1, 0, 0, 0]),
        CliffordRep(c1, [0, 1, 0, 0]),
    ) + (CliffordRep.identity(n),) * 2
    fam = family_of(qs, stack_ops((np.eye(1 << n),) * (2 * n)))
    with pytest.raises(AssertionError, match="^generator 1 maps the orbit of 0 partly into"):
        orbit_kernel(fam)


def test_small_orbit_family_fails_both_paths():
    # unvalidated: every product is the identity, so the orbit of 0 is {0}
    # and the zero set is everything
    n = 2
    fam = family_of((CliffordRep.identity(n),) * (2 * n), stack_ops((np.eye(1 << n),) * (2 * n)))
    with pytest.raises(AssertionError, match="orbit of 0 has 1 points") as got:
        orbit_kernel(fam)
    with pytest.raises(AssertionError) as oracle:
        orbit_kernel_oracle(fam)
    assert str(got.value) == str(oracle.value)
    with pytest.raises(AssertionError, match="kernel has size 16"):
        fmap_kernel(build_fmap(fam))
    with pytest.raises(AssertionError):
        extract_certificate(fam, CliffordRep.identity(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_span_rank_matches_pattern_oracle(n, rng):
    for _ in range(4):
        spectra = run_pipeline(random_c3_gate(n, rng)).spectra
        oracle = rank_mod_prime(np.rint(pattern_matrix(spectra).real))
        assert span_rank(spectra) == oracle == 1 << n


@pytest.mark.parametrize(
    "spectra,rank",
    [
        ([[1, 1, -1, -1], [1, 1, -1, -1]], 2),
        ([[1, -1, 1, -1], [1, 1, 1, 1]], 2),
        ([[1] * 8] * 3, 1),
        # the third spectrum is the product of the first two
        ([[1, -1, 1, -1, 1, -1, 1, -1], [1, 1, -1, -1, 1, 1, -1, -1],
          [1, -1, -1, 1, 1, -1, -1, 1]], 4),
    ],
)
def test_span_rank_degenerate_spectra(spectra, rank):
    spectra = np.array(spectra, dtype=complex)
    assert span_rank(spectra) == rank_mod_prime(np.rint(pattern_matrix(spectra).real)) == rank


def test_span_rank_rejects_non_sign_spectra():
    with pytest.raises(AssertionError, match="not \\+-1 valued"):
        span_rank(np.array([[1, 1j]]))


def test_counterexample_level_matches_full_hierarchy_test():
    u, v = gottesman_mochon()
    report = counterexample_report()
    assert report["uv_level"] == hierarchy_level(u @ v, kmax=3) == 3


def test_counterexample_report_rejects_gate_outside_level_3(monkeypatch):
    # C^6 Z is an involution at level 7, so the shared family fails; the
    # report takes its pair as Monomials, as gottesman_mochon builds it
    c6z = np.diag([1.0] * 127 + [-1.0]).astype(complex)
    monkeypatch.setattr(
        "semiclifford.pipeline.gottesman_mochon",
        lambda: (Monomial.identity(7), Monomial.from_dense(c6z)),
    )
    with pytest.raises(ValueError, match="not a third-level gate"):
        counterexample_report()
    with pytest.raises(ValueError, match="not a third-level gate"):
        run_pipeline(c6z)


def test_ccz_pipeline():
    cert = run_pipeline(GATE_MATRICES["CCZ"], rng=np.random.default_rng(0))
    assert cert.verdicts["kernel_dimension"] == 3
    assert cert.verdicts["span_full"]
    for d in map(np.diag, cert.spectra):
        assert np.allclose(d, np.diag(np.diagonal(d)))
        assert np.allclose(d @ d, np.eye(8), atol=1e-9)


def test_t_pipeline_certificate():
    cert = run_pipeline(GATE_MATRICES["T"], rng=np.random.default_rng(0))
    assert cert.verdicts["kernel_dimension"] == 1
    spectrum = cert.spectra[0]
    assert np.allclose(np.abs(spectrum), 1)
    assert cert.verdicts["span_full"]


def test_random_c3_pipelines(rng):
    for _ in range(8):
        u = random_c3_gate(2, rng)
        cert = run_pipeline(u, rng=rng)
        assert cert.verdicts["kernel_dimension"] == 2
        assert cert.verdicts["span_full"]
        # conjugator rep matches its dense realization
        assert extract_rep(rep_to_dense(cert.conjugator)) == cert.conjugator


def test_kernel_products_commute_densely(rng):
    u = random_c3_gate(2, rng)
    cert = run_pipeline(u, rng=rng)
    gens = [np.diag(s) for s in cert.spectra]
    for i in range(len(gens)):
        for j in range(len(gens)):
            assert np.allclose(gens[i] @ gens[j], gens[j] @ gens[i], atol=1e-9)


def test_identity_gate_certificate_is_z_group():
    n = 2
    cert = run_pipeline(np.eye(1 << n, dtype=complex), rng=np.random.default_rng(0))
    expect_kernel = np.concatenate([gf2.ident(n), gf2.zeros(n, n)], axis=1)
    assert np.array_equal(cert.kernel_basis, expect_kernel)
    for i, d in enumerate(map(np.diag, cert.spectra)):
        a = np.zeros(2 * n, dtype=np.uint8)
        a[i] = 1
        from semiclifford.pauli import pauli_to_dense

        assert np.allclose(d, pauli_to_dense(PhasedPauli(0, 0, a)), atol=1e-12)


def _kernel_families(rng):
    u, v = gottesman_mochon()
    yield u @ v
    for n in (1, 2, 3):
        for _ in range(3):
            yield random_c3_gate(n, rng)


def test_spectra_equal_realized_kernel_products(rng):
    # A = I and f = 0 make realize_block the diagonal of the spectrum
    for gate in _kernel_families(rng):
        norm, qm = normalize_family(generators_from_gate(gate))
        cert = extract_certificate(norm, qm)
        for row, spectrum in zip(cert.kernel_basis, cert.spectra):
            realized = realize_block(product_rep(norm, row)).to_dense()
            assert realized.tobytes() == np.diag(spectrum).tobytes()


def test_certificate_realizes_only_in_the_cross_check(monkeypatch):
    # the cross-checks realize their sampled kernel reps as one stack;
    # count the reps realized, one per row of each stack
    realized = []

    def counting(cs, hs):
        realized.extend(cs)
        return _realize_involutions(cs, hs)

    monkeypatch.setattr("semiclifford.pipeline._realize_involutions", counting)
    u, v = gottesman_mochon()
    run_pipeline(u @ v)
    assert realized == []
    cert = run_pipeline(u @ v, rng=np.random.default_rng(0))
    assert len(realized) == 3 == cert.verdicts["dense_cross_checks"] - 3


def test_generator_reps_equal_the_checked_constructor_bit_for_bit(rng):
    # the family keeps the stacked Clifford test's bits as they are: rep i
    # is the checked rep that extract_rep reads off the one dense conjugate
    # U tau_i U^dag, built one generator at a time
    for gate in _kernel_families(rng):
        fam = generators_from_gate(gate)
        for arr in (fam.cs, fam.hs):
            assert arr.dtype == np.uint8 and arr.flags.c_contiguous and not arr.flags.writeable
        u = dense.as_dense(gate)
        generators = gf2.ident(2 * fam.n)
        for q, e, c, h in zip(reps_of(fam), generators, fam.cs, fam.hs, strict=True):
            ref = extract_rep(u @ pauli_to_dense(PhasedPauli(0, 0, e)) @ u.conj().T)
            for got, want in ((q.c, ref.c), (q.h, ref.h), (q.d, ref.d), (c, ref.c), (h, ref.h)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert q.lows_matrix.tobytes() == ref.lows_matrix.tobytes()
            for arr in (q.c, q.h):
                assert arr.flags.c_contiguous and not arr.flags.writeable


def _uv_candidates():
    """(bits, ct) of the UV family's generator images, as _clifford_reps reads them."""
    u, v = gottesman_mochon()
    qs = reps_of(generators_from_gate(u @ v))
    ct = np.stack([q.c.T for q in qs])
    n = ct.shape[-1] // 2
    delta = (ct[..., :n] & ct[..., n:]).sum(axis=-1) & 1
    return np.stack([delta, np.stack([q.h for q in qs])], axis=-1).astype(np.uint8), ct


def _break_symplectic(bits, ct, k):
    """Copy image 1 of candidate k over image 0, with its phase bits: each
    image stays Hermitian, but C_k is singular, so not symplectic."""
    bits, ct = bits.copy(), ct.copy()
    bits[k, 0], ct[k, 0] = bits[k, 1], ct[k, 1]
    return bits, ct


def test_clifford_reps_refuses_a_stack_with_one_non_symplectic_c():
    bits, ct = _uv_candidates()
    got_ct, got_h = _clifford_reps(bits, ct)
    assert got_ct.tobytes() == ct.tobytes() and got_h.tobytes() == bits[..., 1].tobytes()
    bad_bits, bad_ct = _break_symplectic(bits, ct, 5)
    mask = gf2.symplectic_mask(np.swapaxes(bad_ct, -1, -2))
    assert not mask[5] and mask.sum() == len(mask) - 1
    assert _clifford_reps(bad_bits, bad_ct) is None


def test_generators_from_gate_builds_no_rep_past_a_failing_stacked_test(monkeypatch):
    # every candidate stack loses the symplectic C of its last matrix, so
    # the stacked test fails, and so does each conjugate tested alone
    original = dense._clifford_reps
    u, v = gottesman_mochon()
    monkeypatch.setattr(
        dense, "_clifford_reps", lambda bits, ct: original(*_break_symplectic(bits, ct, -1))
    )
    built = []
    init = CliffordRep.__init__
    monkeypatch.setattr(CliffordRep, "__init__", lambda *args: built.append(init(*args)))
    message = "^input is not a third-level gate: conjugated generator 0 is not Clifford$"
    with pytest.raises(ValueError, match=message):
        generators_from_gate(u @ v)
    assert built == []


def _t_family():
    # T on qubit 1 of n = 2: generators 0-2 have C = I, generator 3 does not
    return generators_from_gate(embed_gate_oracle("T", (1,), 2))


def _with_reps(family, replace):
    qs = list(reps_of(family))
    for k, q in replace.items():
        qs[k] = q
    return family_of(tuple(qs), family.ops)


def test_validate_names_the_first_non_involution_rep():
    # S^2 = Z, so the rep of S squares to a Pauli rep, not the identity rep
    s = extract_rep(embed_gate_oracle("S", (0,), 2))
    with pytest.raises(ValueError, match="^generator 1 is not an involution rep$"):
        _with_reps(_t_family(), {1: s, 3: s}).validate()


def test_validate_names_the_first_incompatible_pair():
    # flipping h bit 1 of a C = I rep keeps it an involution rep, but
    # generator 3 moves e_1 (C_3^T e_1 != e_1), so only pairs (0, 3) and
    # (1, 3) stop commuting
    fam = _t_family()
    qs = reps_of(fam)
    flipped = {}
    for k in (0, 1):
        h = qs[k].h.copy()
        h[1] ^= 1
        flipped[k] = CliffordRep(qs[k].c, h)
    with pytest.raises(ValueError, match="^generators 0 and 3 have incompatible reps$"):
        _with_reps(fam, flipped).validate()
    with pytest.raises(ValueError, match="^generators 1 and 3 have incompatible reps$"):
        _with_reps(fam, {1: flipped[1]}).validate()


@pytest.mark.parametrize("width", [0, 1, 3])
def test_validate_rejects_an_hs_whose_width_is_not_2n(width):
    # the family reads n off the width of hs, so that width must be 2n, n >= 1
    fam = _t_family()
    hs = np.zeros((4, width), dtype=np.uint8)
    message = f"^generator reps hs have {width} columns, not an even count >= 2$"
    with pytest.raises(ValueError, match=message):
        GeneratorFamily(fam.cs, hs, fam.ops).validate()
    assert fam.n == 2 and type(fam.n) is int


def test_validate_rejects_reps_that_are_not_bit_arrays():
    # a tuple of reps raised a bare AttributeError on its non-rep entry
    fam = _t_family()
    cs, hs = fam.cs, fam.hs
    qs = reps_of(fam)
    cases = [
        ("cs", (qs[0], 1, qs[2], qs[3]), hs, "are not a 3-d uint8 bit array"),
        ("cs", qs, hs, "are not a 3-d uint8 bit array"),
        ("cs", cs.astype(np.int64), hs, "are not a 3-d uint8 bit array"),
        ("cs", cs[0], hs, "are not a 3-d uint8 bit array"),
        ("hs", cs, hs.tolist(), "are not a 2-d uint8 bit array"),
        ("hs", cs, hs[None], "are not a 2-d uint8 bit array"),
        ("cs", 2 * cs, hs, "are not a 3-d uint8 bit array"),
        ("hs", cs, hs + 2, "are not a 2-d uint8 bit array"),
        ("cs", cs[:, :, :3], hs, r"have shape \(4, 4, 3\), expected \(4, 4, 4\)"),
        ("hs", cs, hs[:3], r"have shape \(3, 4\), expected \(4, 4\)"),
        # square C's of another even size are reps on another qubit count
        ("cs", cs[:, :2, :2], hs, r"have shape \(4, 2, 2\), expected \(4, 4, 4\)"),
    ]
    for name, bad_cs, bad_hs, message in cases:
        with pytest.raises(ValueError, match=f"^generator reps {name} {message}$"):
            GeneratorFamily(bad_cs, bad_hs, fam.ops).validate()
    with pytest.raises(ValueError, match="^expected 4 generators, got 3$"):
        GeneratorFamily(cs[:3], hs[:3], fam.ops).validate()


def test_validate_rejects_a_c_that_is_not_symplectic():
    fam = _t_family()
    cs = fam.cs.copy()
    cs[2] = 0
    with pytest.raises(ValueError, match="^C is not symplectic$"):
        GeneratorFamily(cs, fam.hs, fam.ops).validate()


# the fourth root of Z sits at level 4: its X conjugate is not Clifford
_ROOT_Z = np.diag([1, np.exp(1j * np.pi / 8)])


@pytest.mark.parametrize("monomial", [False, True])
@pytest.mark.parametrize(
    "gate,witness",
    [(np.kron(np.eye(2), _ROOT_Z), 3), (np.kron(_ROOT_Z, _ROOT_Z), 2)],
    ids=["qubit-1", "both-qubits"],
)
def test_witness_is_the_first_non_clifford_generator(gate, witness, monomial):
    u = Monomial.from_dense(gate) if monomial else gate
    with pytest.raises(ValueError, match=f"conjugated generator {witness} is not Clifford"):
        generators_from_gate(u)


def test_uv_family_is_one_clifford_stack_and_no_scalar_compose(monkeypatch):
    import semiclifford.clifford as clifford_module
    import semiclifford.dense as dense_module
    import semiclifford.pipeline as pipeline_module

    calls = {"compose": 0, "_clifford_stack": 0, "_pauli_stack": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    owners = (("compose", clifford_module), ("_clifford_stack", dense_module))
    for name, owner in owners + (("_pauli_stack", dense_module),):
        wrapped = counting(name, getattr(owner, name))
        for module in (owner, pipeline_module):
            monkeypatch.setattr(module, name, wrapped, raising=False)
    u, v = gottesman_mochon()
    generators_from_gate(u @ v)
    # the Monomial reps are read off as affine maps: no conjugate of the
    # 14 ops goes through the Pauli-stack test
    assert calls == {"compose": 0, "_clifford_stack": 1, "_pauli_stack": 0}


def test_certificate_pair_check_compares_the_generator_ops():
    # unvalidated: op 3 is X on every qubit in place of Z_3, so kernel row
    # 3's product anticommutes with every other row's while the reps stay
    # those of the identity gate
    n = 4
    fam = generators_from_gate(np.eye(1 << n, dtype=complex))
    ops = list(fam.ops)
    ops[3] = pauli_to_dense(PhasedPauli(0, 0, [0] * n + [1] * n))
    bad = GeneratorFamily(fam.cs, fam.hs, stack_ops(ops))
    # seed 17 realizes kernel rows 0, 1 and 2 only, then draws the pair (3, 1)
    draws = np.random.default_rng(17)
    assert 3 not in draws.choice(n, size=3, replace=False)
    assert sorted(draws.choice(n, size=2, replace=False)) == [1, 3]
    cert = extract_certificate(fam, CliffordRep.identity(n), rng=np.random.default_rng(17))
    assert cert.verdicts["dense_cross_checks"] == 6
    with pytest.raises(AssertionError, match="kernel realizations do not commute"):
        extract_certificate(bad, CliffordRep.identity(n), rng=np.random.default_rng(17))


def _with_ops(family, replace):
    ops = list(family.ops)
    for k, op in replace.items():
        ops[k] = op
    return GeneratorFamily(family.cs, family.hs, stack_ops(ops))


def _uv_family():
    u, v = gottesman_mochon()
    return generators_from_gate(u @ v)


@pytest.mark.parametrize("monomial", [True, False])
def test_validate_rejects_ops_that_are_not_2n_matrices_of_size_2_to_the_n(monomial):
    # T on qubit 1 of n = 2: 4 reps need 4 ops of size 4
    gate = embed_gate_oracle("T", (1,), 2)
    fam = generators_from_gate(Monomial.from_dense(gate) if monomial else gate)
    ops = list(fam.ops)
    wider = generators_from_gate(Monomial.identity(3) if monomial else np.eye(8)).ops
    cases = [(ops[:3], "3 of size 4"), (ops + ops[:1], "5 of size 4"), (wider[:4], "4 of size 8")]
    for wrong, got in cases:
        bad = GeneratorFamily(fam.cs, fam.hs, stack_ops(wrong))
        with pytest.raises(ValueError, match=f"^expected 4 generator ops of size 4, got {got}$"):
            bad.validate()
    GeneratorFamily(fam.cs, fam.hs, stack_ops(ops)).validate()


@pytest.mark.parametrize("monomial", [True, False])
def test_validate_rejects_ops_that_are_not_one_stack(monomial):
    # a tuple of matrices, the ops type before the one-stack family
    gate = embed_gate_oracle("T", (1,), 2)
    f = generators_from_gate(Monomial.from_dense(gate) if monomial else gate)
    for ops in (tuple(f.ops), list(f.ops)):
        message = f"^generator ops are a {type(ops).__name__}, not a Monomial or ndarray stack$"
        with pytest.raises(TypeError, match=message):
            GeneratorFamily(f.cs, f.hs, ops).validate()


def test_validate_rejects_reps_of_another_qubit_count():
    # the first four reps of the 3-qubit identity family commute in a
    # valid pattern, but they act on 3 qubits, so the family reads n = 3
    # off them and four reps are too few for it; so are 2-qubit ops
    reps = reps_of(generators_from_gate(np.eye(8, dtype=complex)))[:4]
    ops = generators_from_gate(np.eye(4, dtype=complex)).ops
    with pytest.raises(ValueError, match="^expected 6 generators, got 4$"):
        family_of(reps, ops).validate()


def test_validate_names_the_first_op_that_does_not_square_to_i():
    fam = _uv_family()
    ops = fam.ops
    # i op_5 squares to -I; the reps are untouched, so only the op check fails
    tampered = {5: Monomial(ops[5].perm, 1j * ops[5].phases)}
    with pytest.raises(ValueError, match="^generator op 5 does not square to I$"):
        _with_ops(fam, tampered).validate()
    # one phase off: op_9 no longer squares to I, and op_11 is checked after it
    phases = ops[9].phases.copy()
    phases[17] *= -1
    tampered = {9: Monomial(ops[9].perm, phases), 11: Monomial(ops[11].perm, 1j * ops[11].phases)}
    with pytest.raises(ValueError, match="^generator op 9 does not square to I$"):
        _with_ops(fam, tampered).validate()


@pytest.mark.parametrize("monomial", [True, False])
def test_validate_names_the_first_pair_that_breaks_the_sign_pattern(monomial):
    # op_5 op_7 and op_3 op_8 still square to I, but op_7 (x on qubit 0)
    # and op_8 (x on qubit 1) anticommute with op_0 and op_1: the pairs
    # (0, 5) and (1, 3) break the pattern, and (0, 5) comes first in
    # index order (i, then j > i) although (1, 3) has the smaller j
    fam = _uv_family()
    if not monomial:
        fam = GeneratorFamily(fam.cs, fam.hs, fam.ops.to_dense())
    ops = fam.ops
    bad = _with_ops(fam, {5: ops[5] @ ops[7], 3: ops[3] @ ops[8]})
    with pytest.raises(ValueError, match="^generator ops 0, 5 break the sign pattern$"):
        bad.validate()
    bad = _with_ops(fam, {3: ops[3] @ ops[8]})
    with pytest.raises(ValueError, match="^generator ops 1, 3 break the sign pattern$"):
        bad.validate()
    # -op_3 keeps every relation
    _with_ops(fam, {3: -1.0 * ops[3]}).validate()


@pytest.mark.parametrize("monomial", [True, False])
@pytest.mark.parametrize("tamper", ["permutation", "phase"])
def test_cross_check_catches_an_op_that_disagrees_with_its_block(monomial, tamper):
    # the identity gate's kernel rows are e_0 and e_1, so op_0 = Z_0 is
    # one kernel product; the reps, and so the realized blocks, stay Z_0
    u = Monomial.identity(2) if monomial else np.eye(4, dtype=complex)
    fam = generators_from_gate(u)
    z0 = fam.ops[0] if monomial else Monomial.from_dense(fam.ops[0])
    if tamper == "permutation":
        op = fam.ops[2] if monomial else Monomial.from_dense(fam.ops[2])  # X_0
    else:
        op = Monomial(z0.perm, z0.phases * np.array([1, 1, 1, -1]))  # Z_0 CZ
    bad = _with_ops(fam, {0: op if monomial else op.to_dense()})
    cert = extract_certificate(fam, CliffordRep.identity(2), rng=np.random.default_rng(0))
    assert cert.verdicts["dense_cross_checks"] == 3
    with pytest.raises(AssertionError, match="^dense product disagrees with the realization$"):
        extract_certificate(bad, CliffordRep.identity(2), rng=np.random.default_rng(0))


@pytest.mark.parametrize("circuit", ["tests/golden/cdc3.cir", "tests/golden/fixed2_5.cir"])
def test_pipeline_on_h_circuits_runs_six_cross_checks(circuit, capsys, monkeypatch):
    import json
    from pathlib import Path

    from semiclifford.cli import main

    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    assert "H " in Path(circuit).read_text()  # the dense engine
    assert main(["--json", "pipeline", circuit]) == 0
    verdicts = json.loads(capsys.readouterr().out)["certificate"]["verdicts"]
    assert verdicts["dense_cross_checks"] == 6


def test_counterexample_report_keeps_the_certificate_path_o_2n(monkeypatch):
    # one report densifies no Monomial (the cross-checks compare
    # Monomials), multiplies no single Monomial pair inside validate (its
    # op checks multiply stacks, at most one product per chunk and order:
    # the 14 squares fit one chunk, the 91 pairs i < j come in chunks of
    # _STACK_ENTRIES // (2 * 2^7), in two orders), and runs one rref in
    # orbit_kernel, on at most 2n = 14 rows (one per stabilizer generator)
    import semiclifford.pipeline as pipeline_module

    calls = {"to_dense": 0, "validate @": 0, "validate stacked @": 0}
    rref_rows = []
    inside = set()

    def flagged(name, fn):
        def wrapper(*args):
            inside.add(name)
            try:
                return fn(*args)
            finally:
                inside.discard(name)

        return wrapper

    to_dense, matmul, rref = Monomial.to_dense, Monomial.__matmul__, gf2.rref

    def counting_to_dense(self):
        calls["to_dense"] += 1
        return to_dense(self)

    def counting_matmul(self, other):
        if "validate" in inside:
            calls["validate stacked @" if self.perm.ndim > 1 else "validate @"] += 1
        return matmul(self, other)

    def counting_rref(m, *args):
        if "orbit_kernel" in inside:
            rref_rows.append(len(m))
        return rref(m, *args)

    monkeypatch.setattr(Monomial, "to_dense", counting_to_dense)
    monkeypatch.setattr(Monomial, "__matmul__", counting_matmul)
    monkeypatch.setattr(gf2, "rref", counting_rref)
    monkeypatch.setattr(GeneratorFamily, "validate", flagged("validate", GeneratorFamily.validate))
    monkeypatch.setattr(pipeline_module, "orbit_kernel", flagged("orbit_kernel", orbit_kernel))
    report = counterexample_report(rng=np.random.default_rng(1))
    assert report["certificate"].verdicts["dense_cross_checks"] == 6
    assert calls["to_dense"] == calls["validate @"] == 0
    assert 0 < calls["validate stacked @"] <= 1 + 2 * -(-91 // (_STACK_ENTRIES // (2 << 7)))
    assert len(rref_rows) == 1 and rref_rows[0] <= 14


def test_warm_counterexample_report_builds_one_rep_and_never_reads_qs(monkeypatch):
    # the reps stay bit stacks from the stacked Clifford test to the
    # spectra; the one rep built is normalize_family's identity conjugator
    counterexample_report()  # warm the library's caches
    built = []
    init = CliffordRep.__init__
    monkeypatch.setattr(CliffordRep, "__init__", lambda *args: built.append(init(*args)))
    assert not hasattr(GeneratorFamily, "qs")  # no second copy of the reps to read
    report = counterexample_report(rng=np.random.default_rng(1))
    assert report["certificate"].conjugator.is_identity()
    assert len(built) == 1
