import numpy as np
import pytest

from helpers import (
    pattern_matrix,
    random_c3_gate,
    random_clifford_dense,
    rank_mod_prime,
    reconstruct_unitary,
)
from semiclifford import gf2
from semiclifford.circuits import embed_gate
from semiclifford.clifford import CliffordRep, compose, from_pauli
from semiclifford.dense import (
    BlockRep,
    close_up_to_phase,
    extract_rep,
    hierarchy_level,
    realize_block,
)
from semiclifford.pauli import PhasedPauli
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
    product_rep,
    run_pipeline,
    span_rank,
)


def test_identity_family_is_bare_paulis():
    fam = generators_from_gate(np.eye(4, dtype=complex))
    for i, q in enumerate(fam.qs):
        a = np.zeros(4, dtype=np.uint8)
        a[i] = 1
        assert q == from_pauli(PhasedPauli(0, 0, a))


def test_hadamard_family_swaps():
    fam = generators_from_gate(embed_gate("H", (0,), 1))
    # H Z H = X, H X H = Z
    assert fam.qs[0] == from_pauli(PhasedPauli(0, 0, [0, 1]))
    assert fam.qs[1] == from_pauli(PhasedPauli(0, 0, [1, 0]))


def test_t_family_has_non_pauli_member():
    from semiclifford.dense import is_pauli

    fam = generators_from_gate(embed_gate("T", (0,), 1))
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
    u0 = embed_gate(name, qubits, n)
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
    fam = generators_from_gate(embed_gate("CZ", (0, 1), 2) @ embed_gate("T", (0,), 2))
    assert fam.is_block_form()
    out, qm = normalize_family(fam)
    assert qm.is_identity()
    assert out is fam


def test_normalize_family_t_gate():
    from semiclifford.clifford import inverse

    fam = generators_from_gate(embed_gate("T", (0,), 1))
    out, qm = normalize_family(fam)
    assert out.is_block_form()
    qm_inv = inverse(qm)
    for q, q0 in zip(out.qs, fam.qs):
        assert q == compose(compose(qm, q0), qm_inv)


def test_normalize_family_nontrivial(rng):
    from semiclifford.clifford import inverse

    u = embed_gate("H", (0,), 1) @ embed_gate("T", (0,), 1)
    fam = generators_from_gate(u)
    assert not fam.is_block_form()
    out, qm = normalize_family(fam)
    assert out.is_block_form()
    out.validate()
    qm_inv = inverse(qm)
    for q, q0 in zip(out.qs, fam.qs):
        assert q == compose(compose(qm, q0), qm_inv)


def test_fmap_values_and_additivity(rng):
    u = random_c3_gate(2, rng)
    fam = generators_from_gate(u)
    norm, qm = normalize_family(fam)
    scan = build_fmap(norm)
    n = 2
    # T(0) = 0 and T(e_k) = f-vector of generator k
    assert not scan.f_vector(0).any()
    for k in range(2 * n):
        assert np.array_equal(scan.f_vector(1 << k), norm.qs[k].f)
    # T(x + y) = T(x) + A_x^T T(y)
    for _ in range(40):
        x = int(rng.integers(0, 1 << (2 * n)))
        y = int(rng.integers(0, 1 << (2 * n)))
        ax = scan.a_block(x)
        lhs = scan.f_vector(x ^ y)
        rhs = (scan.f_vector(x) ^ gf2.mat_mul(ax.T, scan.f_vector(y))) & 1
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
        assert np.array_equal(scan.f_vector(x), scan.f_vector(x ^ scan.index_of(y)))
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_kernel_matches_scan_oracle(n, rng):
    gates = [random_c3_gate(n, rng) for _ in range(4)]
    if n == 3:
        # a non-diagonal core gives A-blocks other than I in block form
        cswap = embed_gate("CSWAP", (0, 1, 2), 3) @ embed_gate("CCZ", (0, 1, 2), 3)
        gates += [random_clifford_dense(3, rng) @ cswap @ random_clifford_dense(3, rng)]
    for u in gates:
        norm, _ = normalize_family(generators_from_gate(u))
        scan = build_fmap(norm)
        kernel = orbit_kernel(norm)
        assert np.array_equal(kernel, fmap_kernel(scan))
        for row in kernel:
            assert product_rep(norm, row) == scan.reps[scan.index_of(row)]


def test_small_orbit_family_fails_both_paths():
    # unvalidated: every product is the identity, so the orbit of 0 is {0}
    # and the zero set is everything
    n = 2
    fam = GeneratorFamily(
        qs=(CliffordRep.identity(n),) * (2 * n), ops=(np.eye(1 << n),) * (2 * n), n=n
    )
    with pytest.raises(AssertionError, match="orbit of 0 has 1 points"):
        orbit_kernel(fam)
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
    # C^6 Z is an involution at level 7, so the shared family fails
    c6z = np.diag([1.0] * 127 + [-1.0]).astype(complex)
    monkeypatch.setattr(
        "semiclifford.pipeline.gottesman_mochon", lambda: (np.eye(128, dtype=complex), c6z)
    )
    with pytest.raises(ValueError, match="not a third-level gate"):
        counterexample_report()
    with pytest.raises(ValueError, match="not a third-level gate"):
        run_pipeline(c6z)


def test_ccz_pipeline():
    cert = run_pipeline(embed_gate("CCZ", (0, 1, 2), 3), rng=np.random.default_rng(0))
    assert cert.verdicts["kernel_dimension"] == 3
    assert cert.verdicts["span_full"]
    for d in cert.diagonal_generators:
        assert np.allclose(d, np.diag(np.diagonal(d)))
        assert np.allclose(d @ d, np.eye(8), atol=1e-9)


def test_t_pipeline_certificate():
    cert = run_pipeline(embed_gate("T", (0,), 1), rng=np.random.default_rng(0))
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
        assert extract_rep(cert.conjugator_dense) == cert.conjugator


def test_kernel_products_commute_densely(rng):
    u = random_c3_gate(2, rng)
    cert = run_pipeline(u, rng=rng)
    gens = cert.diagonal_generators
    for i in range(len(gens)):
        for j in range(len(gens)):
            assert np.allclose(gens[i] @ gens[j], gens[j] @ gens[i], atol=1e-9)


def test_identity_gate_certificate_is_z_group():
    n = 2
    cert = run_pipeline(np.eye(1 << n, dtype=complex), rng=np.random.default_rng(0))
    expect_kernel = np.concatenate([gf2.ident(n), gf2.zeros(n, n)], axis=1)
    assert np.array_equal(cert.kernel_basis, expect_kernel)
    for i, d in enumerate(cert.diagonal_generators):
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
            realized = realize_block(BlockRep.from_rep(product_rep(norm, row)))
            assert realized.tobytes() == np.diag(spectrum).tobytes()


def test_certificate_realizes_only_in_the_cross_check(monkeypatch):
    calls = []

    def counting(blk):
        calls.append(blk)
        return realize_block(blk)

    monkeypatch.setattr("semiclifford.pipeline.realize_block", counting)
    u, v = gottesman_mochon()
    run_pipeline(u @ v)
    assert calls == []
    cert = run_pipeline(u @ v, rng=np.random.default_rng(0))
    assert len(calls) == 3 == cert.verdicts["dense_cross_checks"] - 3
