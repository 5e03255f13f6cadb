"""Expansion of a represented Clifford operator in the Pauli basis.

Any Clifford operator Q expands as Q = sum_a r_a (i**(a^T J a) tau_a).
The support of the coefficients is a single coset of Im(I + C), the
anchor point is P(h + alpha) for a vector alpha that linearizes the
quadratic phase form on the fixed space of C, and all nonzero
coefficients share one magnitude.  This module computes the expansion
symbolically and materializes it as a dense matrix, giving a
rep-to-matrix constructor that never touches gate decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .clifford import CliffordRep
from .dense import HIERARCHY_QUBIT_CAP, check_unitary
from .pauli import pauli_action


@dataclass(frozen=True)
class ExpansionResult:
    """Support coset and coefficients of a Clifford in the Pauli basis.

    a0 is the anchor point, image_basis spans Im(I + C) (one vector per
    row), s = dim Ker(I + C), support holds the 2^{2n-s} coset points
    (rows, anchor first) and values the matching complex coefficients.
    The anchor coefficient is gauged real positive.
    """

    a0: np.ndarray
    image_basis: np.ndarray
    s: int
    support: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.a0.size // 2

    @property
    def magnitude(self) -> float:
        return 2.0 ** (-(2 * self.n - self.s) / 2)

    @property
    def coeffs(self) -> dict:
        """Mapping from support point (as a bit tuple) to coefficient."""
        return {
            tuple(int(b) for b in pt): val
            for pt, val in zip(self.support, self.values)
        }


def _fixed_space(rep: CliffordRep):
    """Kernel basis of I + C (rows)."""
    ic = gf2.ident(2 * rep.n) ^ rep.c
    return ic, gf2.kernel_basis(ic)


def alpha_vector(rep: CliffordRep):
    """Vector alpha with alpha^T b = b^T lows(C^T J C + d d^T) b on Ker(I+C).

    The quadratic form on the left is linear on the fixed space of C;
    the associated bilinear form is checked to vanish there before the
    linear system is solved (a failure would mean an upstream bug, so
    it raises loudly).  Free coordinates of alpha are gauged to zero.
    """
    ic, kernel = _fixed_space(rep)
    low = rep.lows_matrix
    if kernel.shape[0] == 0:
        return np.zeros(2 * rep.n, dtype=np.uint8)
    bilinear = (low ^ low.T) & 1
    cross = gf2.mat_mul(gf2.mat_mul(kernel, bilinear), kernel.T)
    if cross.any():
        raise AssertionError("quadratic phase form is not linear on Ker(I + C)")
    svals = np.array([gf2.quad_form(low, b) for b in kernel], dtype=np.uint8)
    alpha = gf2.solve(kernel, svals)
    if alpha is None:
        raise AssertionError("linearizing system is inconsistent")
    return alpha


def expand(rep: CliffordRep) -> ExpansionResult:
    """Compute the full Pauli-basis expansion of the represented operator.

    Seeds the anchor coefficient at +2^{-(2n-s)/2} and propagates along
    the coset generators via the exact phase recurrence; consistency of
    every redundant edge is verified rather than assumed.
    """
    n = rep.n
    n2 = 2 * n
    j = gf2.j_mat(n)
    p = gf2.p_mat(n)
    ic, kernel = _fixed_space(rep)
    s = kernel.shape[0]
    alpha = alpha_vector(rep)

    # the anchor is gauge-independent as a coset: moving alpha by any
    # other solution shifts P(h+alpha) inside Im(I + C)
    for delta in gf2.kernel_basis(kernel) if s else []:
        if gf2.solve(ic, gf2.mat_mul(p, delta)) is None:
            raise AssertionError("anchor coset depends on the alpha gauge")

    a0 = gf2.mat_mul(p, (rep.h ^ alpha) & 1)
    pivots = gf2.image_pivots(ic)
    m = len(pivots)
    if m != n2 - s:
        raise AssertionError("rank bookkeeping failed")
    gens = ic[:, pivots].T.copy()  # rows: generators of Im(I + C)

    count = 1 << m
    tbits = np.zeros((count, m), dtype=np.uint8)
    for k in range(m):
        tbits[:, k] = (np.arange(count) >> k) & 1
    support = (tbits @ gens ^ a0) & 1

    quad_j = np.einsum("ij,jk,ik->i", support, j, support).astype(np.int64) & 1
    low = rep.lows_matrix
    d = rep.d

    # per-generator phase tables: phase[t] relates r at t to r at t ^ (1<<k)
    phase = np.empty((count, m), dtype=complex)
    for k in range(m):
        b = np.zeros(n2, dtype=np.uint8)
        b[pivots[k]] = 1
        shifted = np.arange(count) ^ (1 << k)
        a2q = quad_j[shifted]
        jb = gf2.mat_mul(j.T, b)
        vcb = gf2.mat_mul(j, gf2.mat_mul(rep.c, b))
        db = gf2.dot(d, b)
        hb = gf2.dot(rep.h, b)
        sb = gf2.quad_form(low, b)
        sign_bits = (support @ jb + hb + sb + support[shifted] @ vcb).astype(np.int64) & 1
        iexp = (quad_j - db - a2q + 2 * sign_bits) % 4
        phase[:, k] = 1j ** iexp

    # r at t comes from r at t ^ (1 << k), k the lowest set bit of t;
    # that point has no set bit below k + 1, so going from high k to low
    # fills every t after the point it comes from
    values = np.zeros(count, dtype=complex)
    values[0] = 2.0 ** (-m / 2)
    for k in reversed(range(m)):
        prev = np.arange(0, count, 2 << k)
        values[prev + (1 << k)] = values[prev] * phase[prev, k]

    # every phase is +-1 or +-i, so the products are exact and any path
    # through the cube must give bit-equal values
    for k in range(m):
        shifted = np.arange(count) ^ (1 << k)
        if not np.array_equal(values[shifted], values * phase[:, k]):
            raise AssertionError("coefficient recurrence is path-dependent")

    support.flags.writeable = False
    values.flags.writeable = False
    a0.flags.writeable = False
    gens.flags.writeable = False
    return ExpansionResult(a0=a0, image_basis=gens, s=s, support=support, values=values)


def rep_to_dense(rep: CliffordRep) -> np.ndarray:
    """Materialize a rep as a dense unitary from its Pauli expansion.

    Independent of any gate decomposition; the result carries the
    expansion's global-phase gauge (anchor coefficient real positive).
    """
    n = rep.n
    if n > HIERARCHY_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the hierarchy cap {HIERARCHY_QUBIT_CAP}")
    exp = expand(rep)
    dim = 1 << n
    cols, signs = pauli_action(n, exp.support)
    herm = 1j ** ((exp.support[:, :n] & exp.support[:, n:]).sum(axis=1) & 1)
    u = np.zeros((dim, dim), dtype=complex)
    # one row per support point, added in order: the sum at each entry
    # runs over the points in the same order as a loop would
    rows = np.broadcast_to(np.arange(dim), cols.shape)
    np.add.at(u, (rows, cols), (exp.values * herm)[:, None] * signs)
    return check_unitary(u)
