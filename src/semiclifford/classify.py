"""Semi-Clifford and generalized semi-Clifford decision procedures.

A unitary is semi-Clifford when conjugation carries some maximal
abelian subgroup of the Pauli group onto another; it is generalized
semi-Clifford when only the linear spans of two such subgroups need to
match.  At desk scale (n <= 3) both are decided by exhaustive search
over Lagrangian subspaces, which label the maximal abelian subgroups.

The semi-Clifford search rests on S(U) = {a : U tau_a U^dag is Pauli}
being a subspace, since products of Paulis are Paulis: it conjugates
all 4^n - 1 nonzero tau_a in one batched product (at most 2^14 entries
at n <= 3), tests the stack with one vectorized Pauli test, and
returns the first Lagrangian, in canonical order, whose basis lies in
S(U).

The span criterion is operationalized through monomial matrices: the
span of the sigma_z subgroup is the diagonal algebra, whose unitary
normalizer is exactly the monomial group, so U maps span(A_L) onto
span(A_L') iff Q_L'^dag U Q_L is monomial for Cliffords Q_L mapping the
z-Lagrangian onto L.  The pair search screens every image of a chunk
of domains with a single product against the whole Clifford table,
stored so that it reads as one (2^n, 2^n L) matrix: column 0 of
Q_L'^dag U Q_L must hold exactly one entry above the tolerance, as
every column of a monomial matrix does, so only the few pairs that
pass get the full monomial check, in canonical order.  Domain 0 is screened alone first, so a search that
hits there pays for one domain; later chunks hold at most as many
entries as the semi-Clifford search's conjugate stack.  Witnesses are
re-verified numerically instead of trusted from the search path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .clifford import CliffordRep
from .dense import (
    TOL,
    _conjugate_chunks,
    _pauli_stack,
    as_dense,
    basis_bits,
    check_unitary,
    close,
    hierarchy_level,
    monomial_check,
    num_qubits,
)
from .expansion import rep_to_dense
from .pauli import _label_tables, pauli_action


@lru_cache(maxsize=None)
def _lagrangian_cliffords(n):
    """Lagrangians in canonical order, and a read-only (L, 2^n, 2^n)
    stack of dense Cliffords mapping the z-Lagrangian onto each.

    The stack is a view of one C-ordered (2^n, 2^n, L) array holding
    entry (r, j) of Clifford i at [r, j, i], so that the pair search's
    screen reads the table as a (2^n, 2^n L) matrix without a copy
    (_screen_survivors).
    """
    lags = tuple(gf2.enumerate_lagrangians(n))
    zero_h = np.zeros(2 * n, dtype=np.uint8)
    table = np.stack(
        [rep_to_dense(CliffordRep(gf2.symplectic_complete(lag), zero_h)) for lag in lags],
        axis=2,
    )
    table.flags.writeable = False
    return lags, table.transpose(2, 0, 1)


@lru_cache(maxsize=None)
def _lagrangian_basis_labels(n):
    """Read-only (L, n) array: the labels of each Lagrangian's basis rows."""
    lags, _ = _lagrangian_cliffords(n)
    labels = np.array([lag.basis for lag in lags]) @ _label_tables(2 * n)[2]
    labels.flags.writeable = False
    return labels


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


def _span_basis(n, lag):
    """Dense Hermitian basis of the span of the subgroup labeled by lag,
    as a (2^n, 2^n, 2^n) stack: i**(v.w) tau_a for each member a."""
    vecs = lag.vectors()
    perm, signs = pauli_action(n, vecs)
    herm = 1j ** ((vecs[:, :n] & vecs[:, n:]).sum(axis=1) & 1)
    dim = 1 << n
    out = np.zeros((len(vecs), dim, dim), dtype=complex)
    out[np.arange(len(vecs))[:, None], np.arange(dim), perm] = herm[:, None] * signs
    return out


def _verify_span_map(u, domain, image):
    """Check u . span(A_domain) . u^dag == span(A_image) directly.

    Each moved domain basis matrix, less its orthogonal projection onto
    the image span (the image basis is orthogonal, each of norm^2 2^n),
    must vanish within TOL.
    """
    n = domain.n
    basis_img = _span_basis(n, image).reshape(1 << n, -1)
    moved = (u @ _span_basis(n, domain) @ u.conj().T).reshape(1 << n, -1)
    coeffs = np.einsum("lx,kx->kl", basis_img.conj(), moved) / (1 << n)
    return close(moved - coeffs @ basis_img, 0)


def is_semi_clifford(u):
    """Search for a Lagrangian whose Pauli subgroup maps into the Paulis.

    Returns (True, SemiCliffordWitness) for the first Lagrangian (in
    canonical order) whose basis conjugates to exact phased Paulis, or
    (False, searched_count).  All nonzero tau_a are conjugated and
    tested as one stack; a Lagrangian is a witness exactly when its
    basis lies in the subspace S(u) of those whose conjugate is Pauli.
    The image is re-validated as a Lagrangian.
    """
    u = as_dense(check_unitary(u))
    n = num_qubits(u)
    if n > gf2.LAGRANGIAN_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the search cap {gf2.LAGRANGIAN_QUBIT_CAP}")
    lags, _ = _lagrangian_cliffords(n)
    # row r of vectors has label r + 1: every nonzero vector, in label order
    vectors = basis_bits(2 * n)[1:]
    tests = [_pauli_stack(stack) for stack in _conjugate_chunks(u[None], vectors)]
    pauli = np.concatenate([ok for ok, _, _ in tests])
    images = np.concatenate([a for _, _, a in tests])
    rows = _lagrangian_basis_labels(n) - 1
    hits = np.flatnonzero(pauli[rows].all(axis=1))
    if hits.size == 0:
        return False, len(lags)
    first = hits[0]
    return True, SemiCliffordWitness(domain=lags[first], image=gf2.Lagrangian(images[rows[first]]))


def _screen_survivors(u, start, stop):
    """The pairs (i_dom, i_img), i_dom in [start, stop), in row-major
    order, for which column 0 of Q_img^dag u Q_dom has exactly one entry
    above TOL, as two index arrays.

    A monomial matrix has exactly one such entry in every column, so
    the pairs include every one whose product passes monomial_check
    (barring an entry within rounding of TOL).  The Clifford table, read
    as a (2^n, 2^n L) matrix, holds column j of Clifford i in column
    j L + i; so its columns 0 .. L-1 are the Q_dom |0>, and row k of the
    one product (u Q_dom |0>)^dag table, read as a (2^n, L) array, holds
    that column, conjugated, for domain start + k and every image.
    """
    mats = _lagrangian_cliffords(num_qubits(u))[1]
    # a view, not a copy: see _lagrangian_cliffords
    table = mats.transpose(1, 2, 0).reshape(len(u), -1)
    col0 = (u @ table[:, start:stop]).conj().T @ table
    heavy = (np.abs(col0) > TOL).reshape(stop - start, len(u), -1)
    doms, imgs = np.nonzero(heavy.sum(axis=1) == 1)
    return doms + start, imgs


def is_generalized_semi_clifford(u):
    """Search Lagrangian pairs for a monomial middle factor.

    Returns (True, GscWitness) for the first pair (L, L'), in canonical
    order, with Q_L'^dag u Q_L monomial; the witness additionally passes
    a direct span-equality check.  Returns (False, searched_pairs)
    otherwise, counting every pair, screened out or checked.  Domain 0
    is screened alone, then chunks of domains (_screen_survivors).
    """
    u = as_dense(check_unitary(u))
    n = num_qubits(u)
    if n > gf2.LAGRANGIAN_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the search cap {gf2.LAGRANGIAN_QUBIT_CAP}")
    lags, mats = _lagrangian_cliffords(n)
    dim = 1 << n
    # domains per screen: (4^n - 1) 4^n entries at L 2^n per domain
    per = max(1, (dim * dim - 1) * dim // len(lags))
    bounds = [0, *range(1, len(lags), per), len(lags)]
    for start, stop in zip(bounds, bounds[1:]):
        for i_dom, i_img in zip(*_screen_survivors(u, start, stop)):
            mc = monomial_check(mats[i_img].conj().T @ (u @ mats[i_dom]))
            if not mc.is_monomial:
                continue
            domain = lags[i_dom]
            image = lags[i_img]
            if not _verify_span_map(u, domain, image):
                raise AssertionError("monomial witness failed the span check")
            return True, GscWitness(
                domain=domain,
                image=image,
                permutation=mc.permutation,
                phases=mc.phases,
            )
    return False, len(lags) ** 2


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregated decisions for one unitary.

    Span-test fields are None above the n <= 3 search cap; when both
    are computed, semi-Clifford implies generalized semi-Clifford and
    the constructor enforces it.
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


def classify(u, kmax=3) -> ClassificationReport:
    """Full report: hierarchy level plus both span-based memberships."""
    u = check_unitary(u)
    n = num_qubits(u)
    level = hierarchy_level(u, kmax=kmax)
    searched = {}
    semi = semi_w = gsc = gsc_w = None
    if n <= gf2.LAGRANGIAN_QUBIT_CAP:
        semi_res = is_semi_clifford(u)
        if semi_res[0]:
            semi, semi_w = True, semi_res[1]
            searched["lagrangians"] = None
        else:
            semi, semi_w = False, None
            searched["lagrangians"] = semi_res[1]
        gsc_res = is_generalized_semi_clifford(u)
        if gsc_res[0]:
            gsc, gsc_w = True, gsc_res[1]
        else:
            gsc, gsc_w = False, None
            searched["lagrangian_pairs"] = gsc_res[1]
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
