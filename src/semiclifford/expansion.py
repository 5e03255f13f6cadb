"""Expansion of a represented Clifford operator in the Pauli basis.

Any Clifford operator Q expands as Q = sum_a r_a (i**(a^T J a) tau_a).
The support of the coefficients is a single coset of Im(I + C), the
anchor point is P(h + alpha) for a vector alpha that linearizes the
quadratic phase form on the fixed space of C, and all nonzero
coefficients share one magnitude.  This module computes the expansion
symbolically and materializes it as a dense matrix, giving a
rep-to-matrix constructor that never touches gate decompositions.
I + C is row-reduced once per expansion for both its kernel and its
image, and the bit products over the 2^{2n-s} support points are exact
float32 BLAS products (gf2._blas_mat_mul).
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
    row), support holds the 2^{2n-s} coset points (rows, anchor first)
    and values the matching complex coefficients, where
    s = dim Ker(I + C) = 2n - rank(I + C).  The anchor coefficient is
    gauged real positive.
    """

    a0: np.ndarray
    image_basis: np.ndarray
    support: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.a0.size // 2

    @property
    def s(self) -> int:
        return 2 * self.n - len(self.image_basis)

    @property
    def magnitude(self) -> float:
        return 2.0 ** (-len(self.image_basis) / 2)

    @property
    def coeffs(self) -> dict:
        """Mapping from support point (as a bit tuple) to coefficient."""
        return {
            tuple(int(b) for b in pt): val
            for pt, val in zip(self.support, self.values)
        }


def _fixed_space(rep: CliffordRep):
    """I + C, a basis of Ker(I + C) (one vector per row) and the pivot
    columns of I + C, which span Im(I + C): all from one rref."""
    ic = gf2.ident(2 * rep.n) ^ rep.c
    red, pivots = gf2.rref(ic)
    return ic, gf2._rref_kernel(red, pivots), pivots


def _alpha_on(rep: CliffordRep, kernel):
    """Vector alpha with alpha^T b = b^T lows(C^T J C + d d^T) b on Ker(I+C),
    given the basis kernel of Ker(I + C) (_fixed_space).

    The quadratic form on the left is linear on the fixed space of C;
    the associated bilinear form is checked to vanish there before the
    linear system is solved (a failure would mean an upstream bug, so
    it raises loudly).  Free coordinates of alpha are gauged to zero.
    """
    low = rep.lows_matrix
    if (kernel @ (low ^ low.T) @ kernel.T & 1).any():
        raise AssertionError("quadratic phase form is not linear on Ker(I + C)")
    svals = np.einsum("ij,jk,ik->i", kernel, low, kernel) & 1
    alpha = gf2.solve(kernel, svals)
    if alpha is None:
        raise AssertionError("linearizing system is inconsistent")
    return alpha


# i**k for k = 0..3, bit for bit what 1j ** k gives
_I_POWERS = 1j ** np.arange(4)


def expand(rep: CliffordRep) -> ExpansionResult:
    """Compute the full Pauli-basis expansion of the represented operator.

    Seeds the anchor coefficient at +2^{-(2n-s)/2} and propagates along
    the coset generators via the exact phase recurrence; consistency of
    every redundant edge is verified rather than assumed.  Generator
    (I + C) e_p reads its phase terms off tables built once, each from
    one exact float32 BLAS product (gf2._blas_mat_mul), which gives
    parities: the table terms enter the i-exponent doubled, so mod 4
    only their parity counts.
    """
    n = rep.n
    j = gf2.j_mat(n)
    p = gf2.p_mat(n)
    ic, kernel, pivots = _fixed_space(rep)
    s = kernel.shape[0]
    a0 = gf2.mat_mul(p, rep.h ^ _alpha_on(rep, kernel))
    m = len(pivots)

    # the anchor is gauge-independent as a coset: moving alpha by any
    # other solution delta shifts P(h+alpha) by P delta inside Im(I + C)
    shifts = p @ gf2.kernel_basis(kernel).T & 1
    if gf2.rank(np.concatenate([ic, shifts], axis=1)) != m:
        raise AssertionError("anchor coset depends on the alpha gauge")

    if m != 2 * n - s:
        raise AssertionError("rank bookkeeping failed")
    gens = ic[:, pivots].T.copy()  # rows: generators of Im(I + C)

    count = 1 << m
    support = gf2._blas_mat_mul(gf2._mask_bits(m), gens) ^ a0

    quad_j = (support & gf2._blas_mat_mul(support, j)).sum(axis=1, dtype=np.int64) & 1
    # i-exponent terms for b = e_p: 2 (b^T J a + h_p) - d_p, in uint8 mod 256
    # (a multiple of 4); b^T lows b = 0 as lows is strictly lower triangular
    linear = 2 * (gf2._blas_mat_mul(support, j.T[:, pivots]) + rep.h[pivots]) - rep.d[pivots]
    # jc[t, k] = a^T J C e_p for a = support[t] and p = pivots[k]
    jc = gf2._blas_mat_mul(support, j @ rep.c[:, pivots] & 1)

    # phase[t, k] relates r at t to r at t ^ (1 << k), and r at t comes
    # from r at t ^ (1 << k), k the lowest set bit of t; that point has no
    # set bit below k + 1, so going from high k to low fills every t after
    # the point it comes from
    phase = np.empty((count, m), dtype=complex)
    values = np.zeros(count, dtype=complex)
    values[0] = 2.0 ** (-m / 2)
    for k in reversed(range(m)):
        shifted = np.arange(count) ^ (1 << k)
        iexp = quad_j - quad_j[shifted] + 2 * jc[shifted, k] + linear[:, k]
        phase[:, k] = _I_POWERS[iexp & 3]
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
    return ExpansionResult(a0=a0, image_basis=gens, support=support, values=values)


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
