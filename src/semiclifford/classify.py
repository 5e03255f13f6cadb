"""Semi-Clifford and generalized semi-Clifford decision procedures.

A unitary is semi-Clifford when conjugation carries some maximal
abelian subgroup of the Pauli group onto another; it is generalized
semi-Clifford when only the linear spans of two such subgroups need to
match.  At desk scale (n <= 3) both are decided by exhaustive search
over Lagrangian subspaces, which label the maximal abelian subgroups.

The span criterion is operationalized through monomial matrices: the
span of the sigma_z subgroup is the diagonal algebra, whose unitary
normalizer is exactly the monomial group, so U maps span(A_L) onto
span(A_L') iff Q_L'^dag U Q_L is monomial for Cliffords Q_L mapping the
z-Lagrangian onto L.  The pair search screens all images of one
domain with a single batched product: column 0 of Q_L'^dag U Q_L must
hold exactly one entry above the tolerance, as every column of a
monomial matrix does, so only the few pairs that pass get the full
monomial check, in canonical order.  Witnesses are re-verified
numerically instead of trusted from the search path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .clifford import CliffordRep
from .dense import (
    TOL,
    check_unitary,
    close,
    hierarchy_level,
    is_pauli,
    monomial_check,
    num_qubits,
    pauli_conjugates,
)
from .expansion import rep_to_dense
from .pauli import PhasedPauli, pauli_to_dense


@lru_cache(maxsize=None)
def _lagrangian_cliffords(n):
    """Lagrangians in canonical order, and a read-only (L, 2^n, 2^n)
    stack of dense Cliffords mapping the z-Lagrangian onto each."""
    lags = tuple(gf2.enumerate_lagrangians(n))
    zero_h = np.zeros(2 * n, dtype=np.uint8)
    mats = np.stack(
        [rep_to_dense(CliffordRep(gf2.symplectic_complete(lag), zero_h)) for lag in lags]
    )
    mats.flags.writeable = False
    return lags, mats


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
    """Dense Hermitian basis of the span of the subgroup labeled by lag."""
    j = gf2.j_mat(n)
    mats = []
    for vec in lag.vectors():
        herm = 1j ** gf2.quad_form(j, vec)
        mats.append(herm * pauli_to_dense(PhasedPauli(0, 0, vec)))
    return mats


def _verify_span_map(u, domain, image):
    """Check u . span(A_domain) . u^dag == span(A_image) directly."""
    n = domain.n
    dim = 1 << n
    basis_img = _span_basis(n, image)
    for b in _span_basis(n, domain):
        moved = u @ b @ u.conj().T
        residual = moved.copy()
        for mat in basis_img:
            residual -= (np.vdot(mat, moved) / dim) * mat
        if not close(residual, 0):
            return False
    return True


def is_semi_clifford(u):
    """Search for a Lagrangian whose Pauli subgroup maps into the Paulis.

    Returns (True, SemiCliffordWitness) for the first Lagrangian (in
    canonical order) whose basis conjugates to exact phased Paulis, or
    (False, searched_count).  The image is re-validated as a Lagrangian.
    """
    u = check_unitary(u)
    n = num_qubits(u)
    if n > gf2.LAGRANGIAN_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the search cap {gf2.LAGRANGIAN_QUBIT_CAP}")
    lags, _ = _lagrangian_cliffords(n)
    for lag in lags:
        images = []
        for conj in pauli_conjugates(u, lag.basis):
            img = is_pauli(conj)
            if img is None:
                break
            images.append(img.a)
        else:
            image = gf2.Lagrangian(np.array(images, dtype=np.uint8))
            return True, SemiCliffordWitness(domain=lag, image=image)
    return False, len(lags)


def _column0_survivors(middle_left, mats):
    """Ascending indices i for which column 0 of mats[i]^dag middle_left
    has exactly one entry above TOL.

    A monomial matrix has exactly one such entry in every column, so
    the indices include every i whose product passes monomial_check
    (barring an entry within rounding of TOL).  Row i of the one
    batched product is that column, conjugated.
    """
    col0 = middle_left[:, 0].conj() @ mats
    return np.flatnonzero((np.abs(col0) > TOL).sum(axis=1) == 1)


def is_generalized_semi_clifford(u):
    """Search Lagrangian pairs for a monomial middle factor.

    Returns (True, GscWitness) for the first pair (L, L'), in canonical
    order, with Q_L'^dag u Q_L monomial; the witness additionally passes
    a direct span-equality check.  Returns (False, searched_pairs)
    otherwise, counting every pair, screened out or checked.
    """
    u = check_unitary(u)
    n = num_qubits(u)
    if n > gf2.LAGRANGIAN_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the search cap {gf2.LAGRANGIAN_QUBIT_CAP}")
    lags, mats = _lagrangian_cliffords(n)
    for i_dom, q_dom in enumerate(mats):
        middle_left = u @ q_dom
        for i_img in _column0_survivors(middle_left, mats):
            mc = monomial_check(mats[i_img].conj().T @ middle_left)
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
