import importlib
import tracemalloc

import numpy as np
import pytest

from helpers import (
    column0_survivors_oracle,
    gsc_search_oracle,
    embed_gate_oracle,
    random_c3_gate,
    random_circuit,
    random_clifford_dense,
)
from semiclifford import gf2
from semiclifford.circuits import (
    GATE_MATRICES,
    circuit_to_dense,
    circuit_to_monomial,
    parse_circuit,
)
from semiclifford.classify import (
    classify,
    is_generalized_semi_clifford,
    is_semi_clifford,
    _lagrangian_cliffords,
    _screen_survivors,
)
from semiclifford.dense import Monomial, monomial_check, num_qubits
from semiclifford.pauli import PhasedPauli, pauli_to_dense

# The package re-exports the classify function under the module's name.
classify_module = importlib.import_module("semiclifford.classify")

# Three layers of H, T/TDG and CX at n = 3: neither semi-Clifford nor
# generalized semi-Clifford, so the pair search tries all 135^2 pairs.
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
    # mat_mul calls
    calls = dict.fromkeys(("quad_form", "dot", "mat_mul"), 0)
    for name in calls:

        def counting(*args, _name=name, _original=getattr(gf2, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gf2, name, counting)
    _lagrangian_cliffords.cache_clear()
    for n in (1, 2, 3):
        _lagrangian_cliffords(n)
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
    gates = [embed_gate_oracle(name, (0,), 1) for name in ("H", "S", "T", "X")]
    for n in (1, 2, 3):
        gates += [random_clifford_dense(n, rng) for _ in range(2)]
    for n in (2, 3):
        gates += [random_c3_gate(n, rng) for _ in range(2)]
    return gates + [full_miss_gate(i) for i in range(len(FULL_MISS_CIRCUITS))]


def test_gsc_search_matches_unscreened_oracle(rng):
    for u in _oracle_gates(rng):
        ok, got = is_generalized_semi_clifford(u)
        want_ok, want = gsc_search_oracle(u)
        assert ok == want_ok
        if not ok:
            assert got == want
            continue
        assert np.array_equal(got.domain.basis, want.domain.basis)
        assert np.array_equal(got.image.basis, want.image.basis)
        assert got.permutation == want.permutation
        assert np.asarray(got.phases).tobytes() == np.asarray(want.phases).tobytes()


def _pairs(screens):
    """The (i_dom, i_img) pairs of a run of _screen_survivors results."""
    return [(int(d), int(i)) for doms, imgs in screens for d, i in zip(doms, imgs)]


def test_column0_survivors_include_every_monomial_pair(rng):
    accepted_total = 0
    for n in (1, 2, 3):
        gates = [random_clifford_dense(n, rng), random_c3_gate(n, rng)]
        if n == 3:
            gates.append(full_miss_gate(0))
        _, mats = _lagrangian_cliffords(n)
        for u in gates:
            survivors = set(_pairs([_screen_survivors(u, 0, len(mats))]))
            accepted = {
                (i_dom, i_img)
                for i_dom, q_dom in enumerate(mats)
                for i_img, q_img in enumerate(mats)
                if monomial_check(q_img.conj().T @ u @ q_dom).is_monomial
            }
            assert accepted <= survivors
            accepted_total += len(accepted)
    assert accepted_total > 0


def _screen_gates(rng):
    """Cliffords, C.D.C gates and Clifford+T gates at n = 1..3, with the
    n = 3 full misses."""
    gates = []
    for n in (1, 2, 3):
        names = ("H", "T", "CX") if n > 1 else ("H", "T")
        gates += [random_clifford_dense(n, rng), random_c3_gate(n, rng)]
        gates += [circuit_to_dense(random_circuit(n, 8 * n, rng, names=names))]
    return gates + [full_miss_gate(i) for i in range(len(FULL_MISS_CIRCUITS))]


def test_chunked_screen_matches_the_per_domain_oracle(rng):
    for u in _screen_gates(rng):
        count = len(_lagrangian_cliffords(num_qubits(u))[0])
        for bounds in ((0, count), (0, 1, count), (0, 1, 2, count)):
            got = [_screen_survivors(u, a, b) for a, b in zip(bounds, bounds[1:])]
            assert _pairs(got) == column0_survivors_oracle(u)


def _recording_screen(monkeypatch):
    calls = []
    screen = _screen_survivors

    def recording(u, start, stop):
        pairs = screen(u, start, stop)
        calls.append((start, stop, pairs))
        return pairs

    monkeypatch.setattr(classify_module, "_screen_survivors", recording)
    return calls


def test_full_miss_screens_domain_zero_then_chunks_within_the_conjugate_stack(monkeypatch, rng):
    calls = _recording_screen(monkeypatch)
    for u in _screen_gates(rng):
        calls.clear()
        ok, _ = is_generalized_semi_clifford(u)
        assert ok == gsc_search_oracle(u)[0]
        n = num_qubits(u)
        count = len(_lagrangian_cliffords(n)[0])
        assert calls[0][:2] == (0, 1)
        assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
        # each chunk's product holds at most the (4^n - 1) 4^n entries
        # of the semi-Clifford search's conjugate stack
        assert all((stop - start) * count * 2**n <= (4**n - 1) * 4**n for start, stop, _ in calls)
        if not ok:
            assert calls[-1][1] == count
            assert _pairs(pairs for _, _, pairs in calls) == column0_survivors_oracle(u)
    assert [stop - start for start, stop, _ in calls] == [1] + [3] * 44 + [2]


def test_early_hit_screens_domain_zero_alone(monkeypatch, rng):
    calls = _recording_screen(monkeypatch)
    for n in (1, 2, 3):
        ok, wit = is_generalized_semi_clifford(random_clifford_dense(n, rng))
        assert ok
        assert wit.domain == _lagrangian_cliffords(n)[0][0]
        assert [call[:2] for call in calls] == [(0, 1)]
        calls.clear()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_screen_reads_the_clifford_table_without_a_copy(n):
    mats = _lagrangian_cliffords(n)[1]
    table = mats.transpose(1, 2, 0).reshape(2**n, -1)
    assert np.shares_memory(table, mats)
    assert not mats.flags.writeable


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
    calls = []

    def counting(m):
        calls.append(1)
        return monomial_check(m)

    u = full_miss_gate(0)
    monkeypatch.setattr(classify_module, "monomial_check", counting)
    assert is_generalized_semi_clifford(u) == (False, 135**2)
    assert len(calls) <= 135
