import importlib
import importlib.util
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    candidate_pairs_oracle,
    embed_gate_oracle,
    gsc_search_oracle,
    lagrangian_clifford_table,
    random_c3_gate,
    random_circuit,
    random_clifford_dense,
    random_monomial_c3_gate,
)
from semiclifford import gf2
from semiclifford.circuits import (
    GATE_MATRICES,
    circuit_to_dense,
    circuit_to_monomial,
    parse_circuit,
)
from semiclifford.classify import (
    _domain_images,
    _image,
    _lagrangian_clifford,
    _lagrangian_cliffords,
    _nonzero_conjugates,
    _verify_span_map,
    classify,
    is_generalized_semi_clifford,
    is_semi_clifford,
)
from semiclifford.dense import (
    _STACK_ENTRIES,
    Monomial,
    as_dense,
    basis_bits,
    hierarchy_level,
    monomial_check,
    num_qubits,
    pauli_conjugates,
)
from semiclifford.expansion import rep_to_dense
from semiclifford.pauli import PhasedPauli, commutes, pauli_to_dense

# The package re-exports the classify function under the module's name.
classify_module = importlib.import_module("semiclifford.classify")
dense_module = importlib.import_module("semiclifford.dense")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Three layers of H, T/TDG and CX at n = 3: neither semi-Clifford nor
# generalized semi-Clifford: no domain has an image, so all 135^2 pairs
# are decided.
FULL_MISS_CIRCUITS = (
    "qubits 3\nH 0\nT 0\nH 1\nTDG 1\nH 2\nT 2\nCX 2 0\nCX 1 2\n"
    "H 0\nT 0\nH 1\nTDG 1\nH 2\nTDG 2\nCX 0 1\nCX 1 2\n"
    "H 0\nT 0\nH 1\nT 1\nH 2\nTDG 2\nCX 1 2\nCX 2 0\n",
    "qubits 3\nH 0\nT 0\nH 1\nTDG 1\nH 2\nT 2\nCX 1 2\nCX 2 0\n"
    "H 0\nT 0\nH 1\nTDG 1\nH 2\nTDG 2\nCX 1 2\nCX 2 0\n"
    "H 0\nTDG 0\nH 1\nT 1\nH 2\nT 2\nCX 0 1\nCX 1 2\n",
)


def full_miss_gate(i):
    return circuit_to_dense(parse_circuit(FULL_MISS_CIRCUITS[i]))


@pytest.fixture(scope="module")
def classify_n3_gates(tmp_path_factory):
    """The 93 gates of the benchmark's classify_n3 rounds for seeds 1..3."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    gates = []
    for seed in (1, 2, 3):
        workdir = tmp_path_factory.mktemp(f"classify_n3_{seed}")
        for job in workloads.round_classify_n3(np.random.default_rng(seed), workdir):
            gates.append(circuit_to_dense(parse_circuit(Path(job.argv[-1]).read_text())))
    assert len(gates) == 93
    return gates


def test_cliffords_are_semi_clifford(rng):
    for n in (1, 2):
        for _ in range(5):
            u = random_clifford_dense(n, rng)
            ok, wit = is_semi_clifford(u)
            assert ok
            assert wit.domain.basis.shape == (n, 2 * n)


def test_t_gate_fixes_z_lagrangian():
    ok, wit = is_semi_clifford(GATE_MATRICES["T"])
    assert ok
    assert wit.domain.basis.tolist() == [[1, 0]]
    assert wit.image.basis.tolist() == [[1, 0]]


def test_ccz_semi_clifford():
    ok, wit = is_semi_clifford(GATE_MATRICES["CCZ"])
    assert ok
    # the diagonal gate fixes the z-Lagrangian
    z = np.concatenate([gf2.ident(3), gf2.zeros(3, 3)], axis=1)
    assert np.array_equal(wit.domain.basis, z)


def test_semi_witness_is_valid(rng):
    u = random_c3_gate(2, rng)
    ok, wit = is_semi_clifford(u)
    assert ok
    # re-verify: every domain basis vector conjugates to a Pauli on the image
    from semiclifford.dense import is_pauli

    udag = u.conj().T
    image_rows = []
    for b in wit.domain.basis:
        img = is_pauli(u @ pauli_to_dense(PhasedPauli(0, 0, b)) @ udag)
        assert img is not None
        image_rows.append(img.a)
    red, piv = gf2.rref(np.array(image_rows, dtype=np.uint8))
    assert np.array_equal(red[: len(piv)], wit.image.basis)


def test_monomial_matrices_are_gsc(rng):
    p = pauli_to_dense(PhasedPauli(0, 0, [1, 0, 0, 1]))
    ok, wit = is_generalized_semi_clifford(p)
    assert ok
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    ok, wit = is_generalized_semi_clifford(np.diag(phases))
    assert ok
    z = np.concatenate([gf2.ident(2), gf2.zeros(2, 2)], axis=1)
    assert np.array_equal(wit.domain.basis, z)
    assert np.array_equal(wit.image.basis, z)


def test_semi_clifford_gates_are_gsc(rng):
    for _ in range(5):
        u = random_c3_gate(2, rng)
        semi, _ = is_semi_clifford(u)
        gsc, _ = is_generalized_semi_clifford(u)
        assert not semi or gsc


def test_classify_reports():
    rep = classify(GATE_MATRICES["H"])
    assert (rep.level, rep.semi_clifford, rep.generalized_semi_clifford) == (2, True, True)
    rep = classify(GATE_MATRICES["T"])
    assert (rep.level, rep.semi_clifford, rep.generalized_semi_clifford) == (3, True, True)
    rep = classify(GATE_MATRICES["SWAP"])
    assert (rep.level, rep.semi_clifford, rep.generalized_semi_clifford) == (2, True, True)


@pytest.mark.parametrize(
    "text",
    ["qubits 3\nCCZ 0 1 2\n", "qubits 2\nT 0\nCX 0 1\nS 1\n", "qubits 1\nX 0\n"],
)
def test_classify_accepts_a_monomial(text):
    desc = parse_circuit(text)
    mono = circuit_to_monomial(desc)
    assert isinstance(mono, Monomial)
    assert classify(mono) == classify(circuit_to_dense(desc))


def test_gsc_search_and_monomial_check_accept_a_monomial():
    ident = Monomial.identity(2)
    assert is_generalized_semi_clifford(ident) == is_generalized_semi_clifford(np.eye(4))
    assert monomial_check(ident) == monomial_check(np.eye(4))


def test_classify_search_space_sizes():
    assert [len(gf2.enumerate_lagrangians(n)) for n in (1, 2, 3)] == [3, 15, 135]


def test_is_semi_clifford_reads_the_cached_lagrangians(monkeypatch):
    _lagrangian_cliffords(3)
    calls = []
    enumerate_lagrangians = gf2.enumerate_lagrangians

    def counting(n):
        calls.append(n)
        return enumerate_lagrangians(n)

    monkeypatch.setattr(gf2, "enumerate_lagrangians", counting)
    ok, _ = is_semi_clifford(embed_gate_oracle("T", (1,), 3))
    assert ok
    assert calls == []


def test_lagrangian_table_makes_no_scalar_gf2_calls(monkeypatch):
    # enumeration, completion and expansion are stacked products; the
    # scalar loops they replaced made 876 quad_form, 1,330 dot and 7,625
    # mat_mul calls for the tables and every witness Clifford
    calls = dict.fromkeys(("quad_form", "dot", "mat_mul"), 0)
    for name in calls:

        def counting(*args, _name=name, _original=getattr(gf2, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gf2, name, counting)
    _lagrangian_cliffords.cache_clear()
    _lagrangian_clifford.cache_clear()
    for n in (1, 2, 3):
        for i in range(len(_lagrangian_cliffords(n)[0])):
            _lagrangian_clifford(n, i)
    assert calls["quad_form"] == 0 and calls["dot"] == 0
    assert calls["mat_mul"] <= 1000


def test_span_check_on_witness_n1():
    # direct span-equality verification runs inside the gsc search
    for name in ("H", "S", "T"):
        ok, wit = is_generalized_semi_clifford(embed_gate_oracle(name, (0,), 1))
        assert ok


def test_search_cap():
    with pytest.raises(ValueError):
        is_semi_clifford(np.eye(16, dtype=complex))
    with pytest.raises(ValueError):
        is_generalized_semi_clifford(np.eye(16, dtype=complex))


def _oracle_gates(rng):
    """Gates of every outcome at n = 1..3: Cliffords, C.D.C gates, H/T/CX
    circuits, Monomials and the n = 3 full misses."""
    gates = [embed_gate_oracle(name, (0,), 1) for name in ("H", "S", "T", "X")]
    for n in (1, 2, 3):
        names = ("H", "T", "CX") if n > 1 else ("H", "T")
        gates += [random_clifford_dense(n, rng) for _ in range(2)]
        gates += [random_c3_gate(n, rng) for _ in range(2)]
        gates += [circuit_to_dense(random_circuit(n, 8 * n, rng, names=names))]
        gates += [circuit_to_monomial(random_circuit(n, 6 * n, rng, names=names[1:] + ("X", "S")))]
    gates += [random_monomial_c3_gate(3, rng) for _ in range(2)]
    return gates + [full_miss_gate(i) for i in range(len(FULL_MISS_CIRCUITS))]


def _same_search(got, want):
    """Equal verdicts, counts and witnesses, the phases bit for bit."""
    assert got[0] == want[0]
    if not got[0]:
        assert got == want
        return
    assert np.array_equal(got[1].domain.basis, want[1].domain.basis)
    assert np.array_equal(got[1].image.basis, want[1].image.basis)
    assert got[1].permutation == want[1].permutation
    assert np.asarray(got[1].phases).tobytes() == np.asarray(want[1].phases).tobytes()


def test_gsc_search_matches_unscreened_oracle(rng):
    # witnesses bit for bit, on dense and Monomial input
    for u in _oracle_gates(rng):
        _same_search(is_generalized_semi_clifford(u), gsc_search_oracle(as_dense(u)))


def _candidates(u):
    u, conjugates = _nonzero_conjugates(u)
    return set(_domain_images(num_qubits(u), conjugates))


def test_candidate_pairs_include_every_monomial_pair(rng):
    accepted_total = 0
    for n in (1, 2, 3):
        gates = [random_clifford_dense(n, rng), random_c3_gate(n, rng)]
        if n == 3:
            gates.append(full_miss_gate(0))
        _, mats = lagrangian_clifford_table(n)
        for u in gates:
            candidates = _candidates(u)
            accepted = {
                (i_dom, i_img)
                for i_dom, q_dom in enumerate(mats)
                for i_img, q_img in enumerate(mats)
                if monomial_check(q_img.conj().T @ u @ q_dom).is_monomial
            }
            # every monomial pair is a passing domain and its image, and
            # on exact gates no other pair is: the criterion is exact
            assert candidates == accepted
            accepted_total += len(accepted)
    assert accepted_total > 0


def _perturbed(u, eps, rng):
    """u times exp(i eps H) for a random Hermitian H of largest eigenvalue
    modulus 1: a unitary within about eps of u in every entry."""
    d = len(u)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w, v = np.linalg.eigh(h + h.conj().T)
    return u @ (v * np.exp(1j * eps * w / np.abs(w).max())) @ v.conj().T


def _passing_pairs(u):
    """Every pair that passes both the monomial check and the span check."""
    lags, mats = lagrangian_clifford_table(num_qubits(u))
    return [
        (i_dom, i_img)
        for i_dom, q_dom in enumerate(mats)
        for i_img, q_img in enumerate(mats)
        if monomial_check(q_img.conj().T @ (u @ q_dom)).is_monomial
        and _verify_span_map(pauli_conjugates(u, lags[i_dom].vectors()), lags[i_img])
    ]


def test_near_tol_perturbations_keep_the_oracle_witness_or_a_checked_one():
    rng = np.random.default_rng(930)
    gates = [random_c3_gate(n, rng) for n in (1, 1, 1, 1, 2, 2, 3)]
    gates += [circuit_to_dense(random_circuit(1, 6, rng, names=("H", "S", "T")))]
    gates += [circuit_to_dense(random_circuit(2, 12, rng, names=("H", "S", "CX", "T")))]
    oracle_raised = 0
    for eps in (1e-12, 1e-10, 3e-10, 1e-9, 3e-9):
        for u in (_perturbed(g, eps, rng) for g in gates):
            try:
                want = gsc_search_oracle(u)
            except AssertionError:
                want = None
            if want is not None:
                _same_search(is_generalized_semi_clifford(u), want)
                continue
            assert eps > 1e-10
            oracle_raised += 1
            try:
                got = is_generalized_semi_clifford(u)
            except ValueError:  # only where the oracle raises too
                continue
            if got[0]:
                lags, mats = lagrangian_clifford_table(num_qubits(u))
                q_dom, q_img = (mats[lags.index(lag)] for lag in (got[1].domain, got[1].image))
                assert monomial_check(q_img.conj().T @ (u @ q_dom)).is_monomial
                moved = pauli_conjugates(u, got[1].domain.vectors())
                assert _verify_span_map(moved, got[1].image)
            else:
                assert _passing_pairs(u) == []
    assert oracle_raised > 0


def _counting_monomial_checks(monkeypatch):
    calls = []

    def counting(m):
        calls.append(1)
        return monomial_check(m)

    monkeypatch.setattr(classify_module, "monomial_check", counting)
    return calls


def test_full_miss_runs_no_monomial_check(monkeypatch):
    calls = _counting_monomial_checks(monkeypatch)
    for i in range(len(FULL_MISS_CIRCUITS)):
        assert is_generalized_semi_clifford(full_miss_gate(i)) == (False, 135**2)
    assert calls == []


def _counting_rep_to_dense(monkeypatch):
    calls = []

    def counting(rep):
        calls.append(rep)
        return rep_to_dense(rep)

    monkeypatch.setattr(classify_module, "rep_to_dense", counting)
    return calls


def test_early_hit_builds_at_most_its_two_witness_cliffords(monkeypatch, rng):
    calls = _counting_rep_to_dense(monkeypatch)
    _lagrangian_clifford.cache_clear()
    for n in (1, 2, 3):
        u = random_clifford_dense(n, rng)
        ok, wit = is_generalized_semi_clifford(u)
        assert ok
        assert wit.domain == _lagrangian_cliffords(n)[0][0]
        assert 1 <= len(calls) <= 2
        calls.clear()
        _same_search(is_generalized_semi_clifford(u), (ok, wit))
        assert calls == []


def test_lagrangian_tables_build_no_dense_matrix(monkeypatch):
    calls = _counting_rep_to_dense(monkeypatch)
    _lagrangian_cliffords.cache_clear()
    for n in (1, 2, 3):
        lags, labels, anti, index = _lagrangian_cliffords(n)
        assert not labels.flags.writeable and not anti.flags.writeable
        weights = 1 << np.arange(2 * n - 1, -1, -1)
        assert np.array_equal(labels, [lag.basis @ weights for lag in lags])
        # distinct keys, in index order: each the (4^n,) member mask of
        # its Lagrangian, 2^n members each, as vectors() lists them
        assert list(index.values()) == list(range(len(lags)))
        for lag, key in zip(lags, index, strict=True):
            mask = np.frombuffer(key, dtype=bool)
            assert mask.shape == (1 << 2 * n,) and mask.sum() == 1 << n
            assert np.array_equal(np.flatnonzero(mask), np.sort(lag.vectors() @ weights))
        if n < 3:
            paulis = [PhasedPauli(0, 0, a) for a in basis_bits(2 * n)]
            want = [[not commutes(p, q) for q in paulis] for p in paulis]
            assert anti.dtype == np.float32 and np.array_equal(anti, want)
    assert calls == []


def _counting(monkeypatch, name, modules=(classify_module, dense_module)):
    """Count the calls of `name` made through any of the modules."""
    calls = []
    original = getattr(dense_module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_classify_conjugates_once_for_both_searches(monkeypatch):
    gates = [full_miss_gate(0), random_c3_gate(3, np.random.default_rng(5))]
    assert [hierarchy_level(u) for u in gates] == [None, 3]
    for kmax in (1, 2, 3):
        for u in gates:
            with monkeypatch.context() as m:
                conjugates = _counting(m, "pauli_conjugates", (classify_module,))
                stacks = _counting(m, "_pauli_stack")
                unitary = _counting(m, "check_unitary")
                names = ("hierarchy_level", "is_pauli", "extract_rep")
                oracles = [_counting(m, name) for name in names]
                report = classify(u, kmax)
            # the span check reads a witness's domain members off the
            # stack and conjugates only label 0 itself
            span_check = [1] if report.gsc_witness is not None else []
            assert [len(vectors) for _, vectors in conjugates] == [63] + span_check
            assert len(stacks) == 1 and len(unitary) == 1
            assert oracles == [[], [], []]
            # u, its 63 nonzero conjugates and the 36 second conjugates
            (stack,) = stacks[0]
            assert stack.shape == (100, 8, 8) and stack.size <= _STACK_ENTRIES
            assert report.level == (3 if u is gates[1] and kmax == 3 else None)
    report = classify(gates[0])
    assert report.searched == {"lagrangians": 135, "lagrangian_pairs": 135**2}


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _near_tol_gates(rng):
    gates = [random_c3_gate(n, rng) for n in (1, 1, 2, 2, 3)]
    gates += [circuit_to_dense(random_circuit(2, 12, rng, names=("H", "S", "CX", "T")))]
    return [_perturbed(g, eps, rng) for eps in (1e-12, 1e-10, 3e-10, 1e-9) for g in gates]


def _span_check_failure_gate():
    """A gate within TOL of the generalized decision: the first domain
    with an image gives a monomial pair that fails the span check."""
    rng = np.random.default_rng(3)
    return _perturbed(random_c3_gate(1, rng), 1e-9, rng)


def test_classify_level_matches_the_hierarchy_oracle(classify_n3_gates, rng):
    gates = list(classify_n3_gates)
    gates += [random_c3_gate(n, rng) for n in (1, 2, 3)]
    gates += [random_monomial_c3_gate(n, rng) for n in (1, 2, 3)]
    gates += [random_monomial_c3_gate(3, rng, cswap=True), Monomial.identity(2)]
    near_tol = _near_tol_gates(rng) + [_span_check_failure_gate()]
    undecided = 0
    for u in gates + near_tol:
        gsc = _outcome(is_generalized_semi_clifford, u)
        for kmax in (1, 2, 3, 4):
            report = classify(u, kmax)
            assert report.level == hierarchy_level(u, kmax)
            assert report.semi_clifford == is_semi_clifford(u)[0]
            if gsc[0] is ValueError:
                # within TOL of the generalized decision: the other facts
                # are still reported, and that one is marked undecided
                assert report.generalized_semi_clifford is None
                assert report.searched["undecided"] == gsc[1]
            else:
                assert report.generalized_semi_clifford == gsc[0]
        undecided += gsc[0] is ValueError
    levels = {hierarchy_level(u, 4) for u in gates}
    assert levels == {1, 2, 3, None}
    assert 0 < undecided < len(near_tol)


def test_classify_errors_come_in_the_parent_order(monkeypatch, rng):
    unitary = random_c3_gate(2, rng)
    messages = {0: "kmax=0 is below 1", 5: "kmax=5 exceeds the cap 4"}
    for kmax, message in messages.items():
        assert _outcome(classify, unitary, kmax) == (ValueError, message)
        assert _outcome(classify, 2 * unitary, kmax) == (ValueError, "matrix is not unitary")
        assert _outcome(classify, np.eye(16), kmax) == (ValueError, message)
    assert _outcome(classify, 2 * np.eye(16), 3) == (ValueError, "matrix is not unitary")
    too_big = (ValueError, "dimension 256 exceeds the hierarchy cap")
    assert _outcome(classify, np.eye(256), 3) == too_big
    calls = _counting(monkeypatch, "hierarchy_level")
    report = classify(np.eye(16), 3)
    assert len(calls) == 1
    assert report.level == 1 and report.searched == {}
    assert report.semi_clifford is None and report.generalized_semi_clifford is None


def test_classify_searches_match_the_standalone_searches(classify_n3_gates, rng):
    # classify runs both searches, unbounded, on its own stack: each of
    # its fields equals the standalone search's result, or its message
    gates = classify_n3_gates + _oracle_gates(rng) + _near_tol_gates(rng)
    outcomes = {True: 0, False: 0, ValueError: 0}
    for u in gates + [_span_check_failure_gate()]:
        report = classify(u)
        semi = is_semi_clifford(u)
        assert report.semi_clifford == semi[0]
        if semi[0]:
            assert repr(report.semi_witness) == repr(semi[1])
        else:
            assert report.semi_witness is None and report.searched["lagrangians"] == semi[1]
        gsc = _outcome(is_generalized_semi_clifford, u)
        outcomes[gsc[0]] += 1
        if gsc[0] is ValueError:
            assert report.generalized_semi_clifford is None and report.gsc_witness is None
            assert report.searched["undecided"] == gsc[1]
        elif gsc[0]:
            assert report.generalized_semi_clifford
            assert repr(report.gsc_witness) == repr(gsc[1])
        else:
            assert report.generalized_semi_clifford is False and report.gsc_witness is None
            assert report.searched["lagrangian_pairs"] == gsc[1]
    assert min(outcomes.values()) > 0


def test_image_looks_up_only_lagrangians():
    for n in (1, 2, 3):
        lags, labels, anti, _ = _lagrangian_cliffords(n)
        for i in (0, len(lags) - 1):
            w = np.zeros(1 << 2 * n, dtype=np.float32)
            w[labels[i]] = 1
            assert _image(n, w) == i
            # fewer than n dimensions: the commutant is larger than W
            w[labels[i][0]] = 0
            with pytest.raises(AssertionError):
                _image(n, w)
            # an anticommuting pair spans no Lagrangian
            w[:] = 0
            a = labels[i][0]
            w[[a, np.flatnonzero(anti[a])[0]]] = 1
            with pytest.raises(AssertionError):
                _image(n, w)


def test_warm_classify_makes_no_rref_call_and_builds_no_lagrangian(monkeypatch, classify_n3_gates):
    reports = [classify(u) for u in classify_n3_gates]  # fills the caches
    assert any(r.semi_witness for r in reports) and any(r.gsc_witness for r in reports)
    calls = []
    rref, post_init = gf2.rref, gf2.Lagrangian.__post_init__

    def counting_rref(*args, **kwargs):
        calls.append("rref")
        return rref(*args, **kwargs)

    def counting_post_init(self):
        calls.append("Lagrangian")
        post_init(self)

    monkeypatch.setattr(gf2, "rref", counting_rref)
    monkeypatch.setattr(gf2.Lagrangian, "__post_init__", counting_post_init)
    assert [classify(u) for u in classify_n3_gates] == reports
    assert calls == []


def test_span_check_failure_near_tol_is_a_clean_value_error():
    u = _span_check_failure_gate()
    with pytest.raises(AssertionError):
        gsc_search_oracle(u)  # the oracle's monomial pair fails its span check too
    message = (
        "pair (2, 0) is monomial but fails the span check: "
        "the gate is within TOL of the decision"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        is_generalized_semi_clifford(u)
    report = classify(u)
    assert report.generalized_semi_clifford is None and report.gsc_witness is None
    assert report.searched["undecided"] == message
    assert report.semi_clifford == is_semi_clifford(u)[0]


def test_full_miss_search_stays_within_a_small_memory_peak():
    u = full_miss_gate(0)
    assert is_generalized_semi_clifford(u) == (False, 135**2)  # fills the caches
    tracemalloc.start()
    try:
        is_generalized_semi_clifford(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def test_full_miss_search_runs_few_monomial_checks(monkeypatch):
    calls = _counting_monomial_checks(monkeypatch)
    u = full_miss_gate(0)
    assert is_generalized_semi_clifford(u) == (False, 135**2)
    assert calls == []
    for i in range(len(FULL_MISS_CIRCUITS)):
        # no domain of either gate has a pairwise commuting support union
        assert list(_domain_images(3, _nonzero_conjugates(full_miss_gate(i))[1])) == []


def test_domain_images_match_the_pair_product_oracle(classify_n3_gates, rng):
    gates = list(classify_n3_gates) + _oracle_gates(rng) + _near_tol_gates(rng)
    for n in (1, 2, 3):
        names = ("H", "S", "T", "X", "CX")
        gates += [circuit_to_dense(random_circuit(n, 6 * n, rng, names=names)) for _ in range(40)]
    passing = 0
    for u in gates:
        u, conjugates = _nonzero_conjugates(u)
        n = num_qubits(u)
        # each domain's image is unique, so the pair product finds at
        # most one pair per domain, and in the same order
        got = list(_domain_images(n, conjugates))
        assert got == candidate_pairs_oracle(n, conjugates)
        passing += bool(got)
    assert 0 < passing < len(gates)
