import importlib
import inspect
import pkgutil
import re
import warnings

import numpy as np
import pytest

from helpers import (
    all_phased_paulis,
    commutator_sign,
    from_pauli,
    kron_pauli_to_dense,
    sample_admissible_pair,
    sample_block_rep,
    standard_gate,
)
import semiclifford
from semiclifford import gf2
from semiclifford.classify import classify, is_generalized_semi_clifford, is_semi_clifford
from semiclifford.circuits import GATE_MATRICES
from semiclifford.clifford import CliffordRep, compose
from semiclifford.dense import (
    Monomial,
    _lambda_products,
    as_dense,
    basis_bits,
    check_unitary,
    close,
    close_up_to_phase,
    extract_rep,
    hierarchy_level,
    is_pauli,
    monomial_check,
    pauli_conjugates,
    realize_block,
    _generator_matrices,
    TOL,
)
from semiclifford.pauli import PhasedPauli, pauli_to_dense


def test_is_pauli_basic():
    x = GATE_MATRICES["X"]
    assert is_pauli(x) == PhasedPauli(0, 0, np.array([0, 1], dtype=np.uint8))
    assert is_pauli(GATE_MATRICES["H"]) is None
    assert is_pauli(np.exp(1j * np.pi / 4) * GATE_MATRICES["Z"]) is None


@pytest.mark.parametrize("n", [1, 2])
def test_is_pauli_round_trip_exhaustive(n):
    for p in all_phased_paulis(n):
        assert is_pauli(pauli_to_dense(p)) == p


def test_extract_rep_cases():
    n = 2
    assert extract_rep(np.eye(4, dtype=complex)) == CliffordRep.identity(n)
    for abits in (1, 6, 11, 15):
        a = np.array([(abits >> k) & 1 for k in range(4)], dtype=np.uint8)
        p = PhasedPauli(0, 0, a)
        assert extract_rep(pauli_to_dense(p)) == from_pauli(p)
    assert extract_rep(GATE_MATRICES["T"]) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_conjugates_match_two_matmuls(n, rng):
    dim = 1 << n
    gens = _generator_matrices(n)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(z)
    conjs = list(pauli_conjugates(u, gf2.ident(2 * n)))
    assert len(conjs) == 2 * n
    for conj, g in zip(conjs, gens):
        assert np.allclose(conj, u @ g @ u.conj().T, rtol=0, atol=1e-12)
    # a signed permutation: every entry is one product of +-1 terms, so exact
    s = np.zeros((dim, dim), dtype=complex)
    s[rng.permutation(dim), np.arange(dim)] = rng.choice([-1.0, 1.0], size=dim)
    for conj, g in zip(pauli_conjugates(s, gf2.ident(2 * n)), gens):
        assert np.array_equal(conj, s @ g @ s.conj().T)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pauli_conjugates_match_two_matmuls_off_generators(n, rng):
    dim = 1 << n
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(z)
    # weight >= 2, so no vector is a generator
    vectors = [a for a in rng.integers(0, 2, size=(16, 2 * n)) if a.sum() >= 2]
    conjs = list(pauli_conjugates(u, vectors))
    assert len(conjs) == len(vectors)
    for conj, a in zip(conjs, vectors):
        tau = kron_pauli_to_dense(PhasedPauli(0, 0, a))
        assert np.allclose(conj, u @ tau @ u.conj().T, rtol=0, atol=1e-12)


def test_hierarchy_levels():
    assert hierarchy_level(GATE_MATRICES["X"]) == 1
    assert hierarchy_level(GATE_MATRICES["Y"]) == 1
    assert hierarchy_level(GATE_MATRICES["H"]) == 2
    assert hierarchy_level(GATE_MATRICES["CX"]) == 2
    assert hierarchy_level(GATE_MATRICES["T"]) == 3
    assert hierarchy_level(GATE_MATRICES["CCZ"]) == 3


def test_hierarchy_monotone():
    from semiclifford.dense import _all_in_level

    t = GATE_MATRICES["T"]
    assert not _all_in_level(t[None], 2)
    assert _all_in_level(t[None], 3)
    assert _all_in_level(t[None], 4)
    h = GATE_MATRICES["H"]
    assert _all_in_level(h[None], 2) and _all_in_level(h[None], 3)


def test_hierarchy_level_builds_no_pauli_or_rep(monkeypatch):
    # the level tests read stacked bits: X used to build a PhasedPauli
    # and H a CliffordRep only to compare them with None
    built = []

    def counting(name, make):
        def wrapper(*args):
            built.append(name)
            return make(*args)

        return wrapper

    monkeypatch.setattr(PhasedPauli, "__init__", counting("PhasedPauli", PhasedPauli.__init__))
    monkeypatch.setattr(CliffordRep, "__init__", counting("CliffordRep", CliffordRep.__init__))
    for name, level in {"X": 1, "H": 2, "T": 3}.items():
        assert hierarchy_level(GATE_MATRICES[name], kmax=4) == level
    assert hierarchy_level(Monomial.identity(2), kmax=4) == 1
    assert built == []


def test_hierarchy_above_kmax():
    # sqrt(T) sits above level 3
    rt = np.diag([1, np.exp(1j * np.pi / 8)])
    assert hierarchy_level(rt, kmax=3) is None


def test_hierarchy_guards():
    with pytest.raises(ValueError):
        hierarchy_level(np.eye(2, dtype=complex), kmax=5)
    with pytest.raises(ValueError):
        hierarchy_level(2 * np.eye(2, dtype=complex))


@pytest.mark.parametrize(
    "call",
    [
        lambda: extract_rep(np.eye(1)),
        lambda: extract_rep(Monomial.identity(0)),
        lambda: is_pauli(np.eye(1)),
        lambda: hierarchy_level(np.eye(1)),
    ],
    ids=["extract_rep", "extract_rep_monomial", "is_pauli", "hierarchy_level"],
)
def test_a_one_by_one_matrix_has_no_qubits(call):
    # n = 0 gave +tau[|], level 1 and a ZeroDivisionError from the chunk sizes
    with pytest.raises(ValueError, match="need at least one qubit"):
        call()


@pytest.mark.parametrize("call", [check_unitary, classify, hierarchy_level, is_pauli])
def test_a_zero_by_zero_matrix_has_no_qubits(call):
    # dimension 0 gave Python's "negative shift count"
    with pytest.raises(ValueError, match="^need at least one qubit, got dimension 0$"):
        call(np.zeros((0, 0), dtype=complex))


@pytest.mark.parametrize("kmax", [0, -3])
def test_hierarchy_level_rejects_kmax_below_one(kmax):
    # level None would read as "not in the hierarchy" for any gate
    t = GATE_MATRICES["T"]
    with pytest.raises(ValueError, match=f"kmax={kmax}"):
        hierarchy_level(t, kmax=kmax)
    with pytest.raises(ValueError, match=f"kmax={kmax}"):
        classify(t, kmax=kmax)


@pytest.mark.parametrize("kmax", [2.5, 3.0, "3", True, False, None, np.float64(2), np.bool_(1)])
def test_kmax_must_be_an_integer(kmax, monkeypatch):
    # 2.5 raised TypeError from range after the unitarity test, "3" a
    # TypeError from <, and True ran as kmax = 1
    t = GATE_MATRICES["T"]
    message = f"^{re.escape(f'kmax={kmax!r}')} is not an integer$"
    with pytest.raises(ValueError, match=message):
        classify(t, kmax=kmax)
    checked = []
    monkeypatch.setattr(semiclifford.dense, "check_unitary", checked.append)
    with pytest.raises(ValueError, match=message):
        hierarchy_level(t, kmax=kmax)
    assert checked == []  # rejected before any matrix work


def test_kmax_accepts_numpy_integers():
    t = GATE_MATRICES["T"]
    for kind in (np.int8, np.int64, np.uint16):
        assert hierarchy_level(t, kmax=kind(3)) == 3
        assert hierarchy_level(t, kmax=kind(2)) is None
        assert classify(t, kmax=kind(3)).level == 3
        assert classify(t, kmax=kind(2)).level is None


def test_realize_block_identity_and_sigma_z():
    ident = CliffordRep.identity(2)
    assert np.allclose(realize_block(ident).to_dense(), np.eye(4))
    z = CliffordRep(gf2.ident(2), np.array([0, 1], dtype=np.uint8))
    assert np.allclose(realize_block(z).to_dense(), np.diag([1, -1]))


def test_realize_block_cz():
    cz = standard_gate("CZ", (0, 1), 2)
    blk = cz
    assert close_up_to_phase(realize_block(blk).to_dense(), GATE_MATRICES["CZ"])


def test_realize_block_eighth_root_case():
    # involution class of X.S has lambda_0^2 = -i; entries are eighth roots
    rep = CliffordRep(
        np.array([[1, 1], [0, 1]], dtype=np.uint8), np.array([1, 0], dtype=np.uint8)
    )
    d = realize_block(rep).to_dense()
    assert np.allclose(d @ d, np.eye(2), atol=1e-12)
    assert extract_rep(d) == rep
    xs = GATE_MATRICES["X"] @ GATE_MATRICES["S"]
    assert close_up_to_phase(d, xs)


def test_realize_block_rejects_non_involution():
    # the S rep passes the shape invariants but S^2 = Z, so the full
    # involution condition fails and realization must reject it
    s = standard_gate("S", (0,), 1)
    blk = s
    with pytest.raises(ValueError):
        realize_block(blk)


def test_block_form_functions_reject_a_c_that_does_not_square_to_i():
    # A has order 3, so C = (A 0; 0 A^-T) is in block form and its square
    # has h = 0, but C^2 != I: only the C half of the involution test fails
    a = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    c = np.zeros((4, 4), dtype=np.uint8)
    c[:2, :2], c[2:, 2:] = a, gf2.inverse(a).T
    rep = CliffordRep(c, np.zeros(4, dtype=np.uint8))
    square = compose(rep, rep)
    assert not square.h.any() and not square.is_identity()
    z = CliffordRep(gf2.ident(4), np.array([0, 0, 1, 0], dtype=np.uint8))
    for call in (lambda: realize_block(rep), lambda: commutator_sign(z, rep)):
        with pytest.raises(ValueError, match="rep does not satisfy the involution conditions"):
            call()


def test_lambda_products_refuse_a_stack_with_one_rep_outside_block_form():
    z = CliffordRep(gf2.ident(2), np.array([0, 1], dtype=np.uint8))
    h = standard_gate("H", (0,), 1)
    cs, hs = np.stack([z.c, h.c]), np.stack([z.h, h.h])
    with pytest.raises(ValueError, match="rep has a nonzero lower-left block"):
        _lambda_products(cs, hs, basis_bits(1))


def test_block_form_functions_reject_a_rep_outside_block_form():
    # H is an involution rep whose C = P has a nonzero lower-left block
    h = standard_gate("H", (0,), 1)
    z = CliffordRep(gf2.ident(2), np.array([0, 1], dtype=np.uint8))
    with pytest.raises(ValueError, match="rep has a nonzero lower-left block"):
        realize_block(h)
    for pair in ((h, z), (z, h)):
        with pytest.raises(ValueError, match="rep has a nonzero lower-left block"):
            commutator_sign(*pair)


def test_realize_round_trip_random(rng):
    for _ in range(60):
        n = int(rng.integers(1, 4))
        blk = sample_block_rep(n, rng)
        d = realize_block(blk).to_dense()
        assert np.allclose(d @ d, np.eye(1 << n), atol=1e-9)
        assert np.allclose(d @ d.conj().T, np.eye(1 << n), atol=1e-9)
        assert extract_rep(d) == blk
        mc = monomial_check(d)
        assert mc.is_monomial


def test_commutator_sign_zero_f_family(rng):
    count = 0
    while count < 25:
        n = int(rng.integers(1, 4))
        b1, b2 = sample_admissible_pair(n, rng)
        if b1.f.any() or b2.f.any():
            continue
        assert commutator_sign(b1, b2) == 1
        count += 1


def test_commutator_sign_z_x():
    z = CliffordRep(gf2.ident(2), np.array([0, 1], dtype=np.uint8))
    x = CliffordRep(gf2.ident(2), np.array([1, 0], dtype=np.uint8))
    assert commutator_sign(z, x) == -1


def test_commutator_sign_matches_dense(rng):
    for _ in range(120):
        n = int(rng.integers(1, 4))
        b1, b2 = sample_admissible_pair(n, rng)
        sign = commutator_sign(b1, b2)
        d1, d2 = realize_block(b1).to_dense(), realize_block(b2).to_dense()
        lhs, rhs = d1 @ d2, d2 @ d1
        if np.allclose(lhs, rhs, atol=1e-9):
            dense_sign = 1
        else:
            assert np.allclose(lhs, -rhs, atol=1e-9)
            dense_sign = -1
        assert sign == dense_sign


def test_commutator_sign_rejects_incompatible():
    z = CliffordRep(gf2.ident(2), np.array([0, 1], dtype=np.uint8))
    cz_like = standard_gate("CZ", (0, 1), 2)
    with pytest.raises(ValueError):
        commutator_sign(z, cz_like)


def test_monomial_check():
    mc = monomial_check(np.eye(4, dtype=complex))
    assert mc.is_monomial and mc.permutation == (0, 1, 2, 3)
    p = PhasedPauli(0, 0, [1, 0, 0, 1])
    assert monomial_check(pauli_to_dense(p)).is_monomial
    assert not monomial_check(GATE_MATRICES["H"]).is_monomial


def test_allclose_up_to_phase():
    u = GATE_MATRICES["S"]
    assert close_up_to_phase(np.exp(0.3j) * u, u)
    assert not close_up_to_phase(GATE_MATRICES["H"], u)


# The three cases below sit between TOL and numpy's default rtol of
# 1e-5: a relative tolerance would accept each of them.


def test_check_unitary_tolerance_is_absolute():
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(np.diag([1, 1 + 1e-6]))


def test_is_pauli_tolerance_is_absolute():
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    assert is_pauli(zz) == PhasedPauli(0, 0, [1, 1, 0, 0])
    zz[3, 3] += 4e-6
    assert is_pauli(zz) is None


@pytest.mark.parametrize("turn, accepted", [(0.5, True), (0.9, True), (1.1, False)])
def test_is_pauli_accepts_what_close_accepts(turn, accepted):
    # the two entries of X turned by +-turn TOL: each lies turn TOL from
    # X's, and their ratio about 2 turn TOL from 1
    x = np.array([[0, np.exp(-1j * turn * TOL)], [np.exp(1j * turn * TOL), 0]])
    assert close(x, GATE_MATRICES["X"]) == accepted
    assert (is_pauli(x) == is_pauli(GATE_MATRICES["X"])) == accepted
    # a column of S turned by turn TOL: its X-image is x up to phase
    s = GATE_MATRICES["S"].copy()
    s[1, 1] *= np.exp(1j * turn * TOL)
    assert (extract_rep(s) == extract_rep(GATE_MATRICES["S"])) == accepted


def test_close_up_to_phase_tolerance_is_absolute():
    # every entry has modulus 1, and the largest entry (0, 0) is untouched,
    # so the phase read off it is exactly 1
    v = np.array([[1, 1], [1, -1]], dtype=complex)
    u = v.copy()
    u[1, 1] += 1e-6
    assert not close_up_to_phase(u, v)
    assert close(v + TOL / 2, v) and not close(v + 2 * TOL, v)


def _package_routines():
    for info in pkgutil.iter_modules(semiclifford.__path__):
        mod = importlib.import_module(f"semiclifford.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for _, member in inspect.getmembers(obj):
                    if inspect.isfunction(member) or inspect.ismethod(member):
                        yield f"{mod.__name__}.{obj.__name__}.{member.__name__}", member
            elif callable(obj):
                yield f"{mod.__name__}.{obj.__name__}", obj


def test_no_function_takes_a_tolerance():
    # dense.TOL is the one tolerance; no caller may pick another
    routines = dict(_package_routines())
    assert "semiclifford.pipeline.GeneratorFamily.validate" in routines
    assert len(routines) > 100
    takes_tol = [
        name
        for name, fn in routines.items()
        if "tol" in inspect.signature(fn).parameters
    ]
    assert takes_tol == []


def test_hierarchy_level_four():
    # fourth root of Z sits exactly at level 4
    rt = np.diag([1, np.exp(1j * np.pi / 8)])
    assert hierarchy_level(rt, kmax=4) == 4
    assert hierarchy_level(GATE_MATRICES["T"], kmax=4) == 3


@pytest.mark.parametrize(
    "u",
    [
        np.array([["1", "0"], ["0", "1"]]),
        np.eye(2, dtype=bool),
        np.eye(2, dtype=object),
    ],
    ids=["strings", "bools", "objects"],
)
def test_non_numeric_matrices_are_rejected_at_coercion(u):
    searches = (is_semi_clifford, is_generalized_semi_clifford, classify)
    for fn in (check_unitary, as_dense, is_pauli, extract_rep, monomial_check, *searches):
        with pytest.raises(ValueError, match="entries must be numbers"):
            fn(u)


def test_lists_of_python_numbers_are_still_matrices():
    assert close(check_unitary([[1, 0], [0, 1]]), np.eye(2))
    assert check_unitary([[0, 1j], [1j, 0]]).dtype == complex
    assert close(as_dense([[0.0, 1.0], [1.0, 0.0]]), GATE_MATRICES["X"])
    assert is_semi_clifford([[1, 0], [0, 1]])[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_matrices_fail_the_unitary_check_without_a_warning(bad):
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a Monomial snaps its phases to eighth roots: a non-finite one
        # fails there
        with pytest.raises(ValueError, match="^phase not within TOL of an eighth root of unity$"):
            Monomial(np.arange(4), np.array([1, bad, 1, 1]))
        with pytest.raises(ValueError, match="^matrix is not unitary$"):
            check_unitary(u)
        with pytest.raises(ValueError, match="^matrix is not unitary$"):
            classify(u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_matrices_are_no_pauli_clifford_or_monomial(bad):
    # monomial_check read inf as a phase and skipped a NaN entry, and
    # is_pauli and extract_rep warned from their products before failing
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    corner = np.diag([bad, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^phase not within TOL of an eighth root of unity$"):
            Monomial(np.arange(4), np.array([1, bad, 1, 1]))
        for m in (u, corner):
            assert is_pauli(m) is None and extract_rep(m) is None
        for m in (u, corner):
            assert not monomial_check(m).is_monomial
            with pytest.raises(ValueError, match="^matrix is not monomial$"):
                Monomial.from_dense(m)


def test_realize_block_takes_the_principal_root_for_lambda_0():
    # lambda_0 is the square root of lambda_0 lambda_{f+f} (the lambda
    # product at y = f) whose angle lies in (-pi/2, pi/2]: the root of -i
    # is omega**7, not omega**3
    rng = np.random.default_rng(3710)
    squares = set()
    for n in (1, 2, 3):
        for _ in range(60):
            rep = sample_block_rep(n, rng)
            square = int(_lambda_products(rep.c[None], rep.h[None], rep.f[None])[0, 0])
            lam0 = int(realize_block(rep).exps[0])
            assert (2 * lam0) % 8 == square and lam0 in (0, 1, 2, 7)
            squares.add(square)
    assert squares == {0, 2, 4, 6}
