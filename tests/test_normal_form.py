from pathlib import Path

import numpy as np
import pytest

from helpers import (
    _pair_coords,
    commuting_set_normal_form_oracle,
    involution_normal_form_oracle,
    jordan_basis_oracle,
    random_commuting_involution_set,
    random_involution_matrix,
    set_normal_form_oracle,
    symplectic_involutions,
)
from semiclifford import gf2
from semiclifford.cli import read_bit_matrices
from semiclifford.normal_form import (
    NormalFormResult,
    _embed_pair,
    _split_pair,
    commuting_set_normal_form,
    involution_normal_form,
    simultaneous_nice_form_obstruction,
)

C1 = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
C2 = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
JORDAN_C = np.array(
    [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=np.uint8
)
JORDAN_TARGET = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8
)


def assert_nice(res: NormalFormResult, original):
    n = original.shape[0] // 2
    m, nf = res.m, res.normalized
    assert gf2.is_symplectic(m)
    assert np.array_equal(gf2.mat_mul(gf2.mat_mul(m, original), gf2.inverse(m)), nf)
    assert np.array_equal(nf[:n, :n], gf2.ident(n))
    assert np.array_equal(nf[n:, n:], gf2.ident(n))
    assert not nf[n:, :n].any()
    e = nf[:n, n:]
    assert np.array_equal(e, e.T)


def test_identity_normal_form():
    res = involution_normal_form(gf2.ident(6))
    assert np.array_equal(res.m, gf2.ident(6))
    assert np.array_equal(res.normalized, gf2.ident(6))


def test_displayed_jordan_conjugation_identity():
    perm = np.array(
        [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.uint8
    )
    out = gf2.mat_mul(gf2.mat_mul(perm, JORDAN_C), perm)
    assert np.array_equal(out, JORDAN_TARGET)


def test_jordan_case_normalizes():
    res = involution_normal_form(JORDAN_C)
    assert_nice(res, JORDAN_C)


def test_exhaustive_sp2():
    # Sp(2,2) = GL(2,2); four of its six elements are involutions
    mats = []
    for bits in range(16):
        m = np.array([[bits & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]],
                     dtype=np.uint8)
        try:
            if gf2.is_symplectic(m):
                mats.append(m)
        except ValueError:
            pass
    assert len(mats) == 6
    invs = [m for m in mats if gf2.is_involution(m)]
    assert len(invs) == 4
    for c in invs:
        assert_nice(involution_normal_form(c), c)


def test_exhaustive_sp4(sp4_involutions):
    assert sp4_involutions.shape[0] == 76
    for c in sp4_involutions:
        assert_nice(involution_normal_form(c), c)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        involution_normal_form(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    # symplectic but order three, not an involution
    s = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        involution_normal_form(s)


@pytest.mark.parametrize("r, n", [(1, 2), (1, 3), (2, 3)])
def test_split_pair_rejects_any_cross_block_entry(r, n, rng):
    ix, iy = _pair_coords(r, n)
    c = gf2.ident(2 * n)
    c[np.ix_(ix, ix)] = rng.integers(0, 2, (2 * r, 2 * r))
    c[np.ix_(iy, iy)] = rng.integers(0, 2, (2 * (n - r), 2 * (n - r)))
    x, y = _split_pair(gf2._pack_rows(c), r, n)
    # the blocks are the np.ix_ meshes of the interleaved coordinates
    assert np.array_equal(gf2._unpack_rows(x, 2 * r), c[np.ix_(ix, ix)])
    assert np.array_equal(gf2._unpack_rows(y, 2 * (n - r)), c[np.ix_(iy, iy)])
    assert np.array_equal(gf2._unpack_rows(_embed_pair(x, y, r, n), 2 * n), c)
    for i, j in [(ix[0], iy[-1]), (iy[0], ix[-1])]:
        bad = c.copy()
        bad[i, j] = 1
        with pytest.raises(AssertionError, match="^matrix does not split along"):
            _split_pair(gf2._pack_rows(bad), r, n)


def test_idempotence():
    res = involution_normal_form(C1)
    again = involution_normal_form(res.normalized)
    assert_nice(again, res.normalized)


def test_counterexample_pair_set_form():
    snf = commuting_set_normal_form([C1, C2])
    assert gf2.is_symplectic(snf.m)
    for orig, nf in zip((C1, C2), snf.normalized):
        assert np.array_equal(
            gf2.mat_mul(gf2.mat_mul(snf.m, orig), gf2.inverse(snf.m)), nf
        )
        assert not nf[2:, :2].any()


def test_counterexample_pair_scrambled(rng):
    from helpers import random_circuit
    from semiclifford.circuits import circuit_to_rep

    for _ in range(20):
        s = circuit_to_rep(random_circuit(2, 10, rng)).c
        sinv = gf2.inverse(s)
        mats = [gf2.mat_mul(gf2.mat_mul(s, c), sinv) for c in (C1, C2)]
        snf = commuting_set_normal_form(mats)
        for nf in snf.normalized:
            assert not nf[2:, :2].any()


def test_obstruction_values():
    assert simultaneous_nice_form_obstruction(C1, C2) is True
    eye = gf2.ident(4)
    assert simultaneous_nice_form_obstruction(eye, eye) is False
    # any pair already in (I E; 0 I) form has vanishing product
    e1 = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    n1 = np.block([[gf2.ident(2), e1], [gf2.zeros(2, 2), gf2.ident(2)]]).astype(np.uint8)
    e2 = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    n2 = np.block([[gf2.ident(2), e2], [gf2.zeros(2, 2), gf2.ident(2)]]).astype(np.uint8)
    assert simultaneous_nice_form_obstruction(n1, n2) is False


def test_obstruction_rejects_non_commuting(sp4_involutions):
    found = None
    for i in range(sp4_involutions.shape[0]):
        for j in range(sp4_involutions.shape[0]):
            a, b = sp4_involutions[i], sp4_involutions[j]
            if not np.array_equal(gf2.mat_mul(a, b), gf2.mat_mul(b, a)):
                found = (a, b)
                break
        if found:
            break
    with pytest.raises(ValueError):
        simultaneous_nice_form_obstruction(*found)


_THREE_I = 3 * np.eye(4, dtype=int)


@pytest.mark.parametrize(
    "call",
    [
        lambda: involution_normal_form(_THREE_I),
        lambda: commuting_set_normal_form([gf2.ident(4), _THREE_I]),
        lambda: simultaneous_nice_form_obstruction(_THREE_I, gf2.ident(4)),
        lambda: simultaneous_nice_form_obstruction(gf2.ident(4), 2 * gf2.ident(4)),
        lambda: involution_normal_form(np.full((2, 2), np.nan)),
    ],
    ids=["single", "set", "pair-first", "pair-second", "nan"],
)
def test_involution_inputs_must_be_bits(call):
    # 3 I used to be read as I and given the identity normal form
    with pytest.raises(ValueError, match="other than 0 or 1"):
        call()


def test_identity_set():
    snf = commuting_set_normal_form([gf2.ident(4)])
    assert np.array_equal(snf.m, gf2.ident(4))


def test_set_errors_report_offender(sp4_involutions):
    with pytest.raises(ValueError, match="element 1"):
        commuting_set_normal_form([gf2.ident(4), np.array(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=np.uint8)])
    a, b = None, None
    for i in range(sp4_involutions.shape[0]):
        for j in range(sp4_involutions.shape[0]):
            x, y = sp4_involutions[i], sp4_involutions[j]
            if not np.array_equal(gf2.mat_mul(x, y), gf2.mat_mul(y, x)):
                a, b = x, y
                break
        if a is not None:
            break
    with pytest.raises(ValueError, match="do not commute"):
        commuting_set_normal_form([a, b])


@pytest.mark.parametrize(
    "elements, index",
    [
        ([1], 0),
        ([np.array([1, 0])], 0),
        ([gf2.ident(2), 1], 1),
        ([gf2.ident(2), np.array([1, 0])], 1),
    ],
)
def test_set_rejects_elements_that_are_not_matrices(elements, index):
    with pytest.raises(ValueError, match=f"element {index} is not a 2-d matrix"):
        commuting_set_normal_form(elements)


def test_random_commuting_sets(rng):
    for _ in range(40):
        n = int(rng.integers(1, 5))
        size = int(rng.integers(1, 4))
        mats = random_commuting_involution_set(n, rng, size)
        snf = commuting_set_normal_form(mats)
        assert gf2.is_symplectic(snf.m)
        minv = gf2.inverse(snf.m)
        for orig, nf in zip(mats, snf.normalized):
            assert np.array_equal(gf2.mat_mul(gf2.mat_mul(snf.m, orig), minv), nf)
            assert not nf[n:, :n].any()
            a = nf[:n, :n]
            e = nf[:n, n:]
            ae = gf2.mat_mul(a, e)
            assert np.array_equal(gf2.mat_mul(a, a), gf2.ident(n))
            assert np.array_equal(e, e.T)
            assert np.array_equal(ae, ae.T)
        # pairwise commutation is preserved
        for i in range(len(snf.normalized)):
            for j in range(i + 1, len(snf.normalized)):
                x, y = snf.normalized[i], snf.normalized[j]
                assert np.array_equal(gf2.mat_mul(x, y), gf2.mat_mul(y, x))


def test_commuting_triples_from_sp4(sp4_involutions):
    # walk genuine commuting subsets of Sp(4,2) involutions
    from itertools import combinations

    invs = sp4_involutions
    count = 0
    for i, j, k in combinations(range(invs.shape[0]), 3):
        trio = [invs[i], invs[j], invs[k]]
        ok = all(
            np.array_equal(gf2.mat_mul(a, b), gf2.mat_mul(b, a))
            for x, a in enumerate(trio)
            for b in trio[x + 1 :]
        )
        if not ok:
            continue
        snf = commuting_set_normal_form(trio)
        for nf in snf.normalized:
            assert not nf[2:, :2].any()
        count += 1
        if count == 40:
            break
    assert count == 40


def test_set_normal_form_makes_few_general_inverses(monkeypatch):
    """Conjugators are symplectic, so their inverse is P m^T P.

    With every conjugation inverting by elimination of the augmented
    matrix (now ``gf2._row_inverse``), this n = 8 set made 25 such calls;
    only the congruence and Jordan bases, which need not be symplectic,
    still eliminate, and they make 6.
    """
    mats = random_commuting_involution_set(8, np.random.default_rng(8008), 3)
    calls, symplectic = [], []
    inverse, symplectic_inverse = gf2._row_inverse, gf2._row_symplectic_inverse
    monkeypatch.setattr(gf2, "_row_inverse", lambda m: calls.append(1) or inverse(m))
    monkeypatch.setattr(
        gf2, "_row_symplectic_inverse", lambda m: symplectic.append(1) or symplectic_inverse(m)
    )
    res = commuting_set_normal_form(mats)
    assert all(not c[8:, :8].any() for c in res.normalized)
    assert 0 < len(calls) <= 6 and symplectic


def _record_conjugations(monkeypatch):
    """Patch normal_form._conj to log, for every conjugation it builds, the
    ids of its conjugator and of each packed matrix of its stack; the log
    holds the lists too, so no id is reused."""
    from semiclifford import normal_form

    calls = []
    conj = normal_form._conj

    def recording(m, stack):
        calls.append((id(m), tuple(map(id, stack)), m, stack))
        return conj(m, stack)

    monkeypatch.setattr(normal_form, "_conj", recording)
    return calls


def _rebuilt(calls):
    """Whether one matrix object was conjugated by one conjugator object twice."""
    pairs = [(m, c) for m, stack, *_ in calls for c in stack]
    return len(set(pairs)) != len(pairs)


def test_normal_forms_build_each_conjugation_once(monkeypatch, rng):
    # the checked (I E; 0 I) image of the recursion is the result, and the
    # set form's pivot is its entry of the conjugated set, not a rebuild
    calls = _record_conjugations(monkeypatch)
    for c in (C1, C2, JORDAN_C):
        calls.clear()
        involution_normal_form(c)
        assert calls and not _rebuilt(calls)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        calls.clear()
        snf = commuting_set_normal_form(random_commuting_involution_set(n, rng, 3))
        assert calls and not _rebuilt(calls)
        assert all(not nf[n:, :n].any() for nf in snf.normalized)


def test_each_conjugator_is_tested_symplectic_once(monkeypatch, rng):
    # each level used to test its conjugator m, then test it again in the
    # symplectic inverse of the conjugation by m; the input is tested as a
    # uint8 array, each conjugator on packed rows
    tested = []
    is_symplectic, symplectic_inverse = gf2.is_symplectic, gf2._row_symplectic_inverse
    monkeypatch.setattr(gf2, "is_symplectic", lambda m: tested.append(m) or is_symplectic(m))
    monkeypatch.setattr(
        gf2, "_row_symplectic_inverse", lambda m: tested.append(m) or symplectic_inverse(m)
    )
    calls = _record_conjugations(monkeypatch)
    mats = [C1, C2, JORDAN_C, *(random_commuting_involution_set(n, rng, 1)[0] for n in range(2, 7))]
    for c in mats:
        tested.clear()
        calls.clear()
        assert_nice(involution_normal_form(c), c)
        tested = tested[:-1]  # assert_nice's own test of the result
        # the input once, then each conjugator once, in its conjugation
        assert len(tested) == 1 + len(calls)
        assert [id(m) for m in tested[1:]] == [call[0] for call in calls]
        assert len({id(m) for m in tested}) == len(tested)


def test_a_conjugator_that_is_not_symplectic_fails_its_level(monkeypatch):
    from semiclifford import normal_form

    block_diag = normal_form._block_diag

    def spoiled(p, q):
        out = block_diag(p, q)
        out[0] ^= 1 << len(out) - 1  # entry (0, -1) of the packed rows
        return out

    # JORDAN_C takes the E = F = 0 branch, whose only _block_diag is the
    # level's conjugator
    monkeypatch.setattr(normal_form, "_block_diag", spoiled)
    with pytest.raises(AssertionError, match="^partial conjugator lost symplecticity$"):
        involution_normal_form(JORDAN_C)


def test_each_involution_normal_form_is_checked_once(monkeypatch, rng):
    from semiclifford import normal_form

    levels, checks = [], []
    core, check = normal_form._involution_conjugator, normal_form._check_nice
    monkeypatch.setattr(
        normal_form, "_involution_conjugator", lambda c: levels.append(1) or core(c)
    )
    monkeypatch.setattr(normal_form, "_check_nice", lambda c: checks.append(1) or check(c))
    for c in (C1, C2, JORDAN_C, *random_commuting_involution_set(4, rng, 3)):
        levels.clear()
        checks.clear()
        assert_nice(involution_normal_form(c), c)
        # every level but the empty n = 0 one checks its own result
        assert 0 < len(checks) <= len(levels)


def _count_levels(monkeypatch):
    """Patch the set recursion and the Jordan basis to log what they reach:
    'nested' for each nested level whose stack is not yet in block form,
    'completion' for each Jordan basis with two-blocks and fixed vectors."""
    from semiclifford import normal_form

    seen, depth = [], [0]
    core, jordan = normal_form._set_conjugator, normal_form._jordan_involution_basis

    def level(stack):
        n = len(stack[0]) // 2
        if depth[0] and any(x & (1 << n) - 1 for c in stack for x in c[n:]):
            seen.append("nested")
        depth[0] += 1
        try:
            return core(stack)
        finally:
            depth[0] -= 1

    def basis(a_t):
        b_t, k = jordan(a_t)
        if 0 < 2 * k < len(a_t):
            seen.append("completion")
        return b_t, k

    monkeypatch.setattr(normal_form, "_set_conjugator", level)
    monkeypatch.setattr(normal_form, "_jordan_involution_basis", basis)
    return seen


def test_set_normal_form_matches_list_oracle(monkeypatch):
    rng = np.random.default_rng(1414)
    seen = _count_levels(monkeypatch)
    for n in range(1, 7):
        for size in range(1, 6):
            for _ in range(3):
                mats = random_commuting_involution_set(n, rng, size)
                snf = commuting_set_normal_form(mats)
                m, normalized = set_normal_form_oracle(mats)
                assert np.array_equal(snf.m, m)
                assert len(snf.normalized) == size
                for got, want in zip(snf.normalized, normalized):
                    assert np.array_equal(got, want)
    # the cases reach the r < n recursion and a nonempty Jordan completion
    assert "nested" in seen and "completion" in seen


def test_jordan_basis_matches_incremental_rank_oracle():
    from semiclifford.normal_form import _jordan_involution_basis

    rng = np.random.default_rng(77)
    shapes = set()
    for n in range(1, 9):
        for _ in range(12):
            a = random_involution_matrix(n, rng)
            b_t, k = _jordan_involution_basis(gf2._pack_rows(a.T))
            want_b, want_k = jordan_basis_oracle(a)
            assert k == want_k and np.array_equal(gf2._unpack_rows(b_t, n).T, want_b)
            shapes.add((k > 0, 2 * k < n))
    assert (True, True) in shapes  # two-blocks and a nonempty completion


def test_golden_recursion_set_reaches_nested_level(monkeypatch):
    seen = _count_levels(monkeypatch)
    path = Path(__file__).resolve().parent / "golden" / "set3_5.mat"
    commuting_set_normal_form(read_bit_matrices(str(path)))
    assert "nested" in seen and "completion" in seen


def test_set_error_names_first_noncommuting_pair(sp4_involutions):
    invs = sp4_involutions
    prods = np.einsum("aij,bjk->abik", invs, invs) & 1
    commute = (prods == prods.transpose(1, 0, 2, 3)).all(axis=(2, 3))

    # (0, 3) and (1, 2) fail to commute, every other pair commutes: the
    # first pair in row-major order is (0, 3), not the (1, 2) that a scan
    # by the second index would meet first
    def middles(x, w):
        both = commute[x] & commute[w]
        return zip(*np.nonzero(~commute & both[:, None] & both[None, :]))

    x, y, z, w = next(
        (x, y, z, w) for x, w in zip(*np.nonzero(~commute)) for y, z in middles(x, w)
    )
    with pytest.raises(ValueError, match="elements 0 and 3 do not commute"):
        commuting_set_normal_form([invs[x], invs[y], invs[z], invs[w]])
    rng = np.random.default_rng(5)
    for _ in range(40):
        picks = rng.choice(invs.shape[0], size=5)
        bad = [(i, j) for i in range(5) for j in range(i + 1, 5) if not commute[picks[i], picks[j]]]
        if bad:
            with pytest.raises(ValueError, match=f"elements {bad[0][0]} and {bad[0][1]} do not"):
                commuting_set_normal_form(list(invs[picks]))


def test_set_normal_form_inverts_each_conjugator_once(monkeypatch):
    # each conjugator used to be inverted once per element it conjugated,
    # and the final M once more per input
    received = []
    inverse = gf2._row_symplectic_inverse

    def recording(m):
        received.append(m)  # held, so no id is reused within a call
        return inverse(m)

    monkeypatch.setattr(gf2, "_row_symplectic_inverse", recording)
    rng = np.random.default_rng(3030)
    inverted = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        mats = random_commuting_involution_set(n, rng, int(rng.integers(2, 6)))
        received.clear()
        commuting_set_normal_form(mats)
        ids = [id(m) for m in received]
        assert len(set(ids)) == len(ids)
        inverted += len(ids)
    assert inverted


def test_conj_of_a_stack_is_the_conj_of_each_element(rng):
    from semiclifford.normal_form import _conj

    mats = np.stack(random_commuting_involution_set(4, rng, 4))
    m = involution_normal_form(mats[0]).m
    stacked = _conj(gf2._pack_rows(m), [gf2._pack_rows(c) for c in mats])
    for c, got in zip(mats, stacked):
        want = gf2.mat_mul(gf2.mat_mul(m, c), gf2.inverse(m))
        assert np.array_equal(gf2._unpack_rows(got, 8), want)


MAT_FILES = sorted((Path(__file__).resolve().parent.parent / "matrices").glob("*.mat")) + sorted(
    (Path(__file__).resolve().parent / "golden").glob("*.mat")
)


def _assert_matches_oracle(mats):
    """Both normal forms of mats, bit for bit against the numpy module the
    packed-row one replaced."""
    got, want = commuting_set_normal_form(mats), commuting_set_normal_form_oracle(mats)
    assert np.array_equal(got.m, want.m) and len(got.normalized) == len(want.normalized)
    for g, w in zip(got.normalized, want.normalized):
        assert np.array_equal(g, w)
    for c in mats:
        got, want = involution_normal_form(c), involution_normal_form_oracle(c)
        assert np.array_equal(got.m, want.m) and np.array_equal(got.normalized, want.normalized)


@pytest.mark.parametrize("path", MAT_FILES, ids=lambda p: p.name)
def test_matrix_files_match_the_numpy_oracle(path):
    _assert_matches_oracle(read_bit_matrices(str(path)))


def test_random_inputs_match_the_numpy_oracle():
    rng = np.random.default_rng(2024)
    count = 0
    for n in range(1, 17):
        for size in (1, 2, 3, 4, 5):
            for _ in range(4 if n <= 8 else 2):
                mats = random_commuting_involution_set(n, rng, size)
                _assert_matches_oracle(mats)
                count += 1 + size  # the set and each of its involutions
    assert count >= 300


def test_results_are_read_only_and_empty_inputs_work():
    res = involution_normal_form(C1)
    snf = commuting_set_normal_form([C1, C2])
    for arr in (res.m, res.normalized, snf.m, *snf.normalized):
        assert not arr.flags.writeable
    empty = np.zeros((0, 0), dtype=np.uint8)
    assert involution_normal_form(empty).m.shape == (0, 0)
    assert [c.shape for c in commuting_set_normal_form([empty, empty]).normalized] == [(0, 0)] * 2
