"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here: GF(2) checks are exact, the library's
dense checks use its one absolute tolerance (dense.TOL = 1e-9, applied
through dense.close with no relative term), the checks written here
use 1e-9 absolute as well (1e-12 for expansion magnitudes), and each
criterion enforces its runtime budget.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    all_phased_paulis,
    commutator_sign,
    commutes,
    embed_gate_oracle,
    pauli_mul,
    pauli_projection,
    random_c3_gate,
    random_circuit,
    sample_admissible_pair,
)
from semiclifford import gf2
from semiclifford.circuits import GATE_MATRICES, circuit_to_dense, circuit_to_rep
from semiclifford.classify import is_generalized_semi_clifford, is_semi_clifford
from semiclifford.clifford import CliffordRep, compose, inverse
from semiclifford.dense import (
    close_up_to_phase,
    extract_rep,
    hierarchy_level,
    is_pauli,
    realize_block,
)
from semiclifford.expansion import expand, rep_to_dense
from semiclifford.normal_form import (
    commuting_set_normal_form,
    involution_normal_form,
    simultaneous_nice_form_obstruction,
)
from semiclifford.pauli import pauli_to_dense
from semiclifford.pipeline import counterexample_report, run_pipeline

C1 = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
C2 = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)


@contextmanager
def criterion(num, title, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} FAIL: {title}")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {num:2d} PASS: {title} ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_01_pauli_oracle_equivalence():
    with criterion(1, "Pauli product and commutation match the dense oracle", 5):
        for n in (1, 2):
            ps = all_phased_paulis(n)
            dense = [pauli_to_dense(p) for p in ps]
            for (i, p), (j, q) in itertools.product(enumerate(ps), enumerate(ps)):
                prod = pauli_mul(p, q)
                assert np.array_equal(pauli_to_dense(prod), dense[i] @ dense[j])
                dense_comm = np.array_equal(dense[i] @ dense[j], dense[j] @ dense[i])
                assert commutes(p, q) == dense_comm


def test_criterion_02_clifford_rep_fidelity():
    rng = np.random.default_rng(2024)
    with criterion(2, "compose/inverse match dense conjugation on 600 circuits", 30):
        for n in (1, 2, 3):
            for _ in range(200):
                depth = int(rng.integers(1, 21))
                desc = random_circuit(n, depth, rng)
                u = circuit_to_dense(desc)
                extracted = extract_rep(u)
                assert extracted is not None
                assert circuit_to_rep(desc) == extracted
                assert inverse(extracted) == extract_rep(u.conj().T)
                assert compose(extracted, inverse(extracted)).is_identity()


def test_criterion_03_involution_normal_form_exhaustive(sp4_involutions):
    with criterion(3, "every involution in Sp(2,2) and Sp(4,2) normalizes", 30):
        sp2 = []
        for bits in range(16):
            m = np.array(
                [[bits & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]],
                dtype=np.uint8,
            )
            try:
                if gf2.is_symplectic(m) and gf2.is_involution(m):
                    sp2.append(m)
            except ValueError:
                continue
        assert len(sp2) == 4
        pool = list(sp2) + [c for c in sp4_involutions]
        assert len(pool) == 4 + 76
        for c in pool:
            res = involution_normal_form(c)
            n = c.shape[0] // 2
            assert gf2.is_symplectic(res.m)
            recomputed = gf2.mat_mul(gf2.mat_mul(res.m, c), gf2.inverse(res.m))
            assert np.array_equal(recomputed, res.normalized)
            assert np.array_equal(res.normalized[:n, :n], gf2.ident(n))
            assert np.array_equal(res.normalized[n:, n:], gf2.ident(n))
            assert not res.normalized[n:, :n].any()
            e = res.normalized[:n, n:]
            assert np.array_equal(e, e.T)


def test_criterion_04_counterexample_pair():
    rng = np.random.default_rng(4)
    with criterion(4, "displayed pair: checks, obstruction, shared block form", 1):
        for c in (C1, C2):
            assert gf2.is_symplectic(c) and gf2.is_involution(c)
        assert np.array_equal(gf2.mat_mul(C1, C2), gf2.mat_mul(C2, C1))
        prod = gf2.mat_mul(gf2.ident(4) ^ C1, gf2.ident(4) ^ C2)
        assert prod.any()
        assert simultaneous_nice_form_obstruction(C1, C2) is True
        snf = commuting_set_normal_form([C1, C2])
        for nf in snf.normalized:
            assert not nf[2:, :2].any()
        # same conclusion after scrambling by a random symplectic
        s = circuit_to_rep(random_circuit(2, 12, rng)).c
        sinv = gf2.inverse(s)
        scrambled = [gf2.mat_mul(gf2.mat_mul(s, c), sinv) for c in (C1, C2)]
        snf = commuting_set_normal_form(scrambled)
        assert gf2.is_symplectic(snf.m)
        for nf in snf.normalized:
            assert not nf[2:, :2].any()


def test_criterion_05_realization_and_sign():
    rng = np.random.default_rng(5)
    with criterion(5, "500 block reps realize involutively; signs match dense", 60):
        pairs = []
        zero_f_pairs = 0
        while len(pairs) < 250:
            n = int(rng.integers(1, 4))
            pair = sample_admissible_pair(n, rng)
            if zero_f_pairs < 50 and (pair[0].f.any() or pair[1].f.any()):
                # reserve room so the f = f' = 0 commuting family is represented
                if len(pairs) - zero_f_pairs >= 200:
                    continue
            if not pair[0].f.any() and not pair[1].f.any():
                zero_f_pairs += 1
            pairs.append(pair)
        assert zero_f_pairs >= 50
        for b1, b2 in pairs:
            for blk in (b1, b2):
                d = realize_block(blk).to_dense()
                assert np.allclose(d @ d, np.eye(d.shape[0]), atol=1e-9)
                assert extract_rep(d) == blk
            sign = commutator_sign(b1, b2)
            if not b1.f.any() and not b2.f.any():
                assert sign == 1
            d1, d2 = realize_block(b1).to_dense(), realize_block(b2).to_dense()
            lhs, rhs = d1 @ d2, d2 @ d1
            if np.allclose(lhs, rhs, atol=1e-9):
                assert sign == 1
            else:
                assert np.allclose(lhs, -rhs, atol=1e-9)
                assert sign == -1


def test_criterion_06_pauli_expansion():
    rng = np.random.default_rng(6)
    with criterion(6, "expansion coset/magnitudes/round-trip on 300 Cliffords", 60):
        for n in (1, 2, 3):
            for _ in range(100):
                desc = random_circuit(n, int(rng.integers(1, 16)), rng)
                u = circuit_to_dense(desc)
                rep = extract_rep(u)
                res = expand(rep)
                proj = pauli_projection(u, n)
                assert set(res.coeffs) == set(proj)
                want_mag = 2.0 ** (-(2 * n - res.s) / 2)
                assert abs(res.magnitude - want_mag) < 1e-12
                for val in proj.values():
                    assert abs(abs(val) - want_mag) < 1e-9
                dd = rep_to_dense(rep)
                assert extract_rep(dd) == rep
                assert close_up_to_phase(dd, u)


def test_criterion_07_hierarchy_levels():
    with criterion(7, "X at level 1; H,S,CX,CZ,SWAP at 2; T,CCZ at 3", 5):
        assert hierarchy_level(GATE_MATRICES["X"]) == 1
        for name, qubits, n in (
            ("H", (0,), 1),
            ("S", (0,), 1),
            ("CX", (0, 1), 2),
            ("CZ", (0, 1), 2),
            ("SWAP", (0, 1), 2),
        ):
            u = embed_gate_oracle(name, qubits, n)
            assert is_pauli(u) is None
            assert hierarchy_level(u) == 2
        for name, qubits, n in (("T", (0,), 1), ("CCZ", (0, 1, 2), 3)):
            u = embed_gate_oracle(name, qubits, n)
            assert extract_rep(u) is None
            assert hierarchy_level(u) == 3


def test_criterion_08_semi_clifford_small_n():
    rng = np.random.default_rng(8)
    with criterion(8, "criterion-7 gates and 50 random level-3 gates are semi-Clifford", 60):
        fixed = (
            GATE_MATRICES["X"],
            GATE_MATRICES["H"],
            GATE_MATRICES["S"],
            GATE_MATRICES["CX"],
            GATE_MATRICES["CZ"],
            GATE_MATRICES["SWAP"],
            GATE_MATRICES["T"],
            GATE_MATRICES["CCZ"],
        )
        for u in fixed:
            ok, _ = is_semi_clifford(u)
            assert ok
        for _ in range(50):
            n = int(rng.integers(1, 3))
            u = random_c3_gate(n, rng)
            ok, _ = is_semi_clifford(u)
            assert ok


def test_criterion_09_gottesman_mochon_end_to_end():
    rng = np.random.default_rng(9)
    with criterion(9, "seven-qubit pair: UV level 3, VU not, full certificate", 300):
        report = counterexample_report(rng=rng)
        assert report["uv_in_level_3"]
        assert report["uv_level"] == 3
        assert not report["vu_witness_in_clifford"]
        assert not report["vu_in_level_3"]
        assert report["vu_witness_qubit"] == "R"
        cert = report["certificate"]
        assert cert.verdicts["kernel_dimension"] == 7
        assert cert.verdicts["a_blocks_identity"]
        assert cert.verdicts["f_vectors_zero"]
        assert cert.verdicts["diagonal"]
        assert cert.verdicts["span_rank"] == 128
        assert cert.verdicts["span_full"]
        assert len(cert.spectra) == 7
        for d in map(np.diag, cert.spectra):
            assert np.abs(d - np.diag(np.diagonal(d))).max() < 1e-9


def test_criterion_10_pipeline_vs_enumeration():
    rng = np.random.default_rng(10)
    with criterion(10, "25 random level-3 gates: certificate and enumeration agree", 120):
        for _ in range(25):
            u = random_c3_gate(2, rng)
            cert = run_pipeline(u, rng=rng)
            assert cert.verdicts["span_full"]
            assert cert.verdicts["kernel_dimension"] == 2
            ok, witness = is_generalized_semi_clifford(u)
            assert ok
