"""Semi-Clifford and generalized semi-Clifford decision procedures.

A unitary U is semi-Clifford when conjugation carries some maximal
abelian subgroup of the Pauli group onto another, and generalized
semi-Clifford when only the linear spans of two such subgroups need to
match.  At desk scale (n <= 3) both are decided by exhaustive search
over the Lagrangian subspaces L that label the subgroups A_L, on one
stack of the conjugates U tau_a U^dag of all 4^n - 1 nonzero tau_a.

classify builds one stack for every fact it reports: U, those 4^n - 1
conjugates, and the (2n)^2 conjugates of the 2n generator conjugates
by the generators (100 matrices at n = 3).  One _pauli_stack test of it
gives the hierarchy level (_stack_level) and S(U).  Above the search
cap the level comes from hierarchy_level, the oracle of this read-off
in the tests.

Semi-Clifford: S(U) = {a : U tau_a U^dag is Pauli} is a subspace, since
products of Paulis are Paulis, so the witness is the first Lagrangian,
in canonical order, whose basis lies in S(U); one vectorized Pauli test
of the stack gives S(U).

Generalized semi-Clifford: U maps span(A_L) onto span(A_L') exactly
when the Pauli supports of the U tau_b U^dag, b in the basis of L, lie
inside L', since A_L is generated by its basis and both spans have
dimension 2^n.  So L decides its own image.  With W the union of those
supports, U A_L U^dag lies in the span of the tau_w, w in span W, so
dim span W >= n; if W commutes pairwise, the isotropic span W is the
one Lagrangian L' containing W, and otherwise none contains W.  The
supports are the Pauli coefficients above TOL, read off the stack by
one product; one float32 product with the label anticommutation table
tests every domain, and _image looks L' up as the labels commuting
with all of W (the semi-Clifford image too).  A passing domain L, in
canonical order, is the witness when Q_L'^dag U Q_L is monomial (Q_L a
Clifford mapping the z-Lagrangian onto L) and its members' span check
passes; a monomial pair failing it leaves U undecided, within TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .clifford import CliffordRep
from .dense import (
    TOL,
    _all_in_level,
    _clifford_reps,
    _conjugates,
    _dagger,
    _pauli_stack,
    as_dense,
    basis_bits,
    check_kmax,
    check_unitary,
    close,
    hierarchy_level,
    monomial_check,
    num_qubits,
    pauli_conjugates,
)
from .expansion import rep_to_dense
from .pauli import _label_tables, pauli_action


@lru_cache(maxsize=None)
def _lagrangian_cliffords(n):
    """GF(2) tables of the Lagrangians, in canonical order: the
    Lagrangians, a read-only (L, n) array of their basis labels, a
    read-only (4^n, 4^n) float32 table, 1 where labels anticommute, and
    a dict from the bytes of each (4^n,) bool member mask to its index."""
    lags = tuple(gf2.enumerate_lagrangians(n))
    bases = np.array([lag.basis for lag in lags])
    weights = _label_tables(2 * n)[2]
    labels = bases @ weights
    anti = (basis_bits(2 * n) @ gf2._p_form(n) @ basis_bits(2 * n).T & 1).astype(np.float32)
    masks = np.zeros((len(lags), 1 << 2 * n), dtype=bool)
    masks[np.arange(len(lags))[:, None], (gf2._mask_bits(n) @ bases & 1) @ weights] = True
    for arr in (labels, anti):
        arr.flags.writeable = False
    return lags, labels, anti, {mask.tobytes(): i for i, mask in enumerate(masks)}


def _image(n, w):
    """Index of the Lagrangian span W, for W a 0/1 float32 label mask w:
    the labels commuting with all of W (AssertionError if no Lagrangian)."""
    _, _, anti, index = _lagrangian_cliffords(n)
    image = index.get(((w @ anti) == 0).tobytes())
    if image is None:
        raise AssertionError("the labels commuting with W are no Lagrangian")
    return image


@lru_cache(maxsize=None)
def _lagrangian_clifford(n, index):
    """Read-only dense Clifford mapping the z-Lagrangian onto Lagrangian
    `index` of _lagrangian_cliffords(n): a witness's Q_L."""
    lag = _lagrangian_cliffords(n)[0][index]
    q = rep_to_dense(CliffordRep(gf2.symplectic_complete(lag), np.zeros(2 * n, dtype=np.uint8)))
    q.flags.writeable = False
    return q


@lru_cache(maxsize=None)
def _coefficient_basis(n):
    """Read-only (4^n, 4^n) complex basis change: a matrix M flattened
    row-major, times it, gives its Pauli coefficients tr(tau_b^dag M) / 2^n.
    tau_b is real, with signs[r] in column perm[r] of row r."""
    dim = 1 << n
    perm, signs = pauli_action(n, basis_bits(2 * n))
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    out[np.arange(0, dim * dim, dim) + perm, np.arange(dim * dim)[:, None]] = signs / dim
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SemiCliffordWitness:
    domain: gf2.Lagrangian
    image: gf2.Lagrangian


@dataclass(frozen=True)
class GscWitness:
    domain: gf2.Lagrangian
    image: gf2.Lagrangian
    permutation: tuple
    phases: tuple


def _verify_span_map(moved, image):
    """Check u . span(A_domain) . u^dag == span(A_image) directly, given
    moved, the conjugates u tau_a u^dag of the domain members a.

    Each, less its orthogonal projection onto the image span, must
    vanish within TOL.  The tau_b of the image members b, columns of
    _coefficient_basis times 2^n, are an orthogonal basis of that span,
    each real and of norm^2 2^n; phases of either basis change neither.
    """
    dim = 1 << image.n
    taus = _coefficient_basis(image.n)[:, image.vectors() @ _label_tables(2 * image.n)[2]]
    moved = moved.reshape(dim, -1)
    return close(moved - (moved @ taus) @ taus.T * dim, 0)


def _nonzero_conjugates(u):
    """u as a dense unitary, and its conjugates u tau_a u^dag of every
    nonzero label a in label order (row r is label r + 1), as one stack."""
    u = as_dense(check_unitary(u))
    n = num_qubits(u)
    if n > gf2.LAGRANGIAN_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the search cap {gf2.LAGRANGIAN_QUBIT_CAP}")
    return u, pauli_conjugates(u, basis_bits(2 * n)[1:])


def _semi_clifford_search(n, tested):
    """The semi-Clifford search on tested = _pauli_stack of the nonzero
    conjugates (row r is label r + 1): (True, witness) for the first
    Lagrangian with its basis in S(u), else (False, searched)."""
    lags, labels = _lagrangian_cliffords(n)[:2]
    pauli, _, images = tested
    rows = labels - 1
    hits = np.flatnonzero(pauli[rows].all(axis=1))
    if hits.size == 0:
        return False, len(lags)
    w = np.zeros(1 << 2 * n, dtype=np.float32)
    w[images[rows[hits[0]]] @ _label_tables(2 * n)[2]] = 1
    return True, SemiCliffordWitness(domain=lags[hits[0]], image=lags[_image(n, w)])


def is_semi_clifford(u):
    """Search for a Lagrangian whose Pauli subgroup maps into the Paulis.

    Returns (True, SemiCliffordWitness) for the first Lagrangian (in
    canonical order) whose basis conjugates to exact phased Paulis, or
    (False, searched_count).  All nonzero tau_a are conjugated and
    tested as one stack; a Lagrangian is a witness exactly when its
    basis lies in the subspace S(u) of those whose conjugate is Pauli.
    """
    u, conjugates = _nonzero_conjugates(u)
    return _semi_clifford_search(num_qubits(u), _pauli_stack(conjugates))


def _domain_images(n, conjugates):
    """Yield (i_dom, i_img) for each domain i_dom, in order, whose basis
    conjugates have a support union W that commutes pairwise; Lagrangian
    i_img is span W (module docstring)."""
    _, labels, anti, _ = _lagrangian_cliffords(n)
    support = np.abs(conjugates.reshape(-1, 1 << 2 * n) @ _coefficient_basis(n)) > TOL
    union = support[labels.T - 1].any(axis=0).astype(np.float32)
    for i_dom in np.flatnonzero(((union @ anti) * union).sum(axis=1) == 0).tolist():
        yield i_dom, _image(n, union[i_dom])


def _gsc_search(u, conjugates):
    """The generalized search on the nonzero conjugates of u (row r is
    label r + 1), whose rows the span check reads; (None, message) if a
    monomial pair fails that check."""
    n = num_qubits(u)
    lags = _lagrangian_cliffords(n)[0]
    weights = _label_tables(2 * n)[2]
    for i_dom, i_img in _domain_images(n, conjugates):
        q_dom, q_img = _lagrangian_clifford(n, i_dom), _lagrangian_clifford(n, i_img)
        mc = monomial_check(q_img.conj().T @ (u @ q_dom))
        if not mc.is_monomial:
            continue
        members = lags[i_dom].vectors()  # row 0 is label 0
        moved = [pauli_conjugates(u, members[:1]), conjugates[members[1:] @ weights - 1]]
        if not _verify_span_map(np.concatenate(moved), lags[i_img]):
            return None, (
                f"pair ({i_dom}, {i_img}) is monomial but fails the span check: "
                "the gate is within TOL of the decision"
            )
        return True, GscWitness(lags[i_dom], lags[i_img], mc.permutation, mc.phases)
    return False, len(lags) ** 2


def is_generalized_semi_clifford(u):
    """Search the Lagrangian domains for a monomial middle factor.

    Returns (True, GscWitness) for the first domain L, in canonical
    order, with an image L' (module docstring) and Q_L'^dag u Q_L
    monomial; the witness additionally passes a direct span-equality
    check, and a monomial pair that fails it raises ValueError (u is
    within TOL of the decision).  Returns (False, searched_pairs)
    otherwise: every one of the L^2 pairs is decided.
    """
    found, result = _gsc_search(*_nonzero_conjugates(u))
    if found is None:
        raise ValueError(result)
    return found, result


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregated decisions for one unitary.

    Span-test fields are None above the n <= 3 search cap, and the
    generalized one near TOL (searched["undecided"] says why); when both
    are set, semi-Clifford implies generalized, as the constructor checks.
    """

    n: int
    level: int | None
    kmax: int
    semi_clifford: bool | None
    semi_witness: SemiCliffordWitness | None
    generalized_semi_clifford: bool | None
    gsc_witness: GscWitness | None
    searched: dict

    def __post_init__(self):
        if self.semi_clifford and self.generalized_semi_clifford is False:
            raise AssertionError(
                "semi-Clifford verdict without generalized semi-Clifford"
            )


def _tested_stack(u):
    """The stack of the module docstring, and its _pauli_stack test.

    Returns (stack, tested): row 0 of stack is u, row a its conjugate by
    tau_a for each nonzero label a, and the last (2n)^2 rows the
    conjugates g_i tau_(e_j) g_i^dag of the generator conjugates
    g_i = u tau_(e_i) u^dag, over i and then j.  Every conjugate comes
    from _conjugates, as those of hierarchy_level do.
    """
    n = num_qubits(u)
    conjugates = pauli_conjugates(u, basis_bits(2 * n)[1:])
    gens = conjugates[_label_tables(2 * n)[2] - 1]
    second = _conjugates(gens, _dagger(gens), gf2.ident(2 * n))
    stack = np.concatenate([u[None], conjugates, second])
    return stack, _pauli_stack(stack)


def _stack_level(stack, tested, kmax):
    """hierarchy_level read off _tested_stack: level 1 from u, levels 2
    and 3 from the generator and second conjugate rows, and level 4 by
    _all_in_level on the second conjugates, whose conjugates it tests."""
    ok, bits, labels = tested
    m = 2 * num_qubits(stack[0])
    gens, second = _label_tables(m)[2], slice(1 << m, None)

    def clifford(rows, k):
        reps = (bits[rows].reshape(k, m, 2), labels[rows].reshape(k, m, m))
        return ok[rows].all() and _clifford_reps(*reps) is not None

    tests = (
        lambda: ok[0],
        lambda: clifford(gens, 1),
        lambda: clifford(second, m),
        lambda: _all_in_level(stack[second], 2),
    )
    return next((k for k, test in zip(range(1, kmax + 1), tests) if test()), None)


def classify(u, kmax=3) -> ClassificationReport:
    """Full report: hierarchy level plus both span-based memberships.

    At n <= the search cap every fact is read off one tested stack
    (module docstring); above it only the level is decided, by
    hierarchy_level.
    """
    u = check_unitary(u)
    n = num_qubits(u)
    searched = {}
    semi = semi_w = gsc = gsc_w = None
    if n > gf2.LAGRANGIAN_QUBIT_CAP:
        level = hierarchy_level(u, kmax=kmax)
    else:
        check_kmax(kmax)
        dense = as_dense(u)
        stack, tested = _tested_stack(dense)
        level = _stack_level(stack, tested, kmax)
        nonzero = slice(1, 1 << 2 * n)
        semi, semi_w = _semi_clifford_search(n, tuple(t[nonzero] for t in tested))
        if semi:
            searched["lagrangians"] = None
        else:
            searched["lagrangians"], semi_w = semi_w, None
        gsc, gsc_w = _gsc_search(dense, stack[nonzero])
        if not gsc:
            searched["lagrangian_pairs" if gsc is False else "undecided"], gsc_w = gsc_w, None
    return ClassificationReport(
        n=n,
        level=level,
        kmax=kmax,
        semi_clifford=semi,
        semi_witness=semi_w,
        generalized_semi_clifford=gsc,
        gsc_witness=gsc_w,
        searched=searched,
    )
