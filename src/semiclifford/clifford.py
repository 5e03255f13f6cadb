"""The (C, h) representation of Clifford operators.

A Clifford operator is determined up to a global phase by a binary
symplectic matrix C (how conjugation moves Pauli coordinate vectors)
and a vector h (the sign data on the standard generators).  This module
implements the conjugation action and the group operations entirely
over GF(2); anything phase-sensitive is deferred to the dense engine.

The convention for reading C and h off an operator Q is

    Q tau_{e_j} Q^dag = i**(d_j) (-1)**(h_j) tau_{c_j},

with c_j the j-th column of C and d = diag(C^T J C) forced by
Hermiticity of the conjugated generators.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .pauli import PhasedPauli, _check_same_n


def sign_data(cs):
    """d = diag(C^T J C) and lows(C^T J C + d d^T) for a (..., 2n, 2n) stack.

    With T and B the top and bottom row halves of C, C^T J C = T^T B
    (gf2._top_bottom: one float32 BLAS product for a stack of several
    matrices).  Both results are read-only, of shapes (..., 2n) and
    (..., 2n, 2n).
    """
    cjc = gf2._top_bottom(gf2.asbits(cs))
    d = np.diagonal(cjc, axis1=-2, axis2=-1).copy()
    low = (cjc ^ (d[..., :, None] & d[..., None, :])) & gf2._strictly_lower(cjc.shape[-1])
    d.flags.writeable = False
    low.flags.writeable = False
    return d, low


class CliffordRep:
    """A Clifford operator up to global phase, as a (C, h) pair.

    The symplectic condition on C is validated at construction; both
    arrays are frozen afterwards.  The sign data d and
    lows(C^T J C + d d^T) are cached because conjugation reuses them.
    """

    __slots__ = ("c", "h", "_signs")

    def __init__(self, c, h):
        c = gf2.frozenbits(c)
        h = gf2.frozenbits(h)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2:
            raise ValueError(f"bad C shape {c.shape}")
        if h.ndim != 1 or h.size != c.shape[0]:
            raise ValueError(f"h has length {h.size}, expected {c.shape[0]}")
        if not gf2.is_symplectic(c):
            raise ValueError("C is not symplectic")
        self.c = c
        self.h = h
        self._signs = None

    @classmethod
    def identity(cls, n):
        return cls(gf2.ident(2 * n), np.zeros(2 * n, dtype=np.uint8))

    @property
    def n(self) -> int:
        return self.c.shape[0] // 2

    @property
    def f(self):
        """Top half of h."""
        return self.h[: self.n]

    @property
    def g(self):
        """Bottom half of h."""
        return self.h[self.n :]

    @property
    def d(self):
        """d = diag(C^T J C), recomputed from C (never stored stale)."""
        if self._signs is None:
            self._signs = sign_data(self.c)
        return self._signs[0]

    @property
    def lows_matrix(self):
        """lows(C^T J C + d d^T), the quadratic sign kernel of this rep."""
        if self._signs is None:
            self._signs = sign_data(self.c)
        return self._signs[1]

    def is_identity(self) -> bool:
        return not self.h.any() and np.array_equal(self.c, gf2.ident(2 * self.n))

    def __eq__(self, other):
        return (
            isinstance(other, CliffordRep)
            and np.array_equal(self.c, other.c)
            and np.array_equal(self.h, other.h)
        )

    def __hash__(self):
        return hash((self.c.tobytes(), self.h.tobytes()))

    def __repr__(self):
        return f"CliffordRep(n={self.n}, c={self.c.tolist()}, h={self.h.tolist()})"


def conjugate(rep: CliffordRep, p: PhasedPauli) -> PhasedPauli:
    """Image Q p Q^dag of a phased Pauli under the represented Clifford."""
    _check_same_n(rep, p)
    a2 = gf2.mat_mul(rep.c, p.a)
    da = gf2.dot(rep.d, p.a)
    delta2 = p.delta ^ da
    eps2 = (
        p.epsilon
        ^ gf2.dot(rep.h, p.a)
        ^ gf2.quad_form(rep.lows_matrix, p.a)
        ^ (p.delta & da)
    )
    return PhasedPauli(delta2, eps2, a2)


def compose(outer: CliffordRep, inner: CliffordRep) -> CliffordRep:
    """Rep of outer * inner (inner acts first): the 1 x 1 product_table."""
    _check_same_n(outer, inner)
    c, h = product_table(outer.c[None], outer.h[None], inner.c[None], inner.h[None])
    return CliffordRep(c[0, 0], h[0, 0])


def inverse(rep: CliffordRep) -> CliffordRep:
    """Rep of the inverse operator.

    compose(rep, (C^{-1}, h')) has h-vector h' plus a term that depends
    only on rep and C^{-1}, so the h' that makes it the identity rep is
    that term: the h-vector of compose(rep, (C^{-1}, 0)).
    """
    cinv = gf2.symplectic_inverse(rep.c)
    return CliffordRep(cinv, compose(rep, CliffordRep(cinv, np.zeros_like(rep.h))).h)


def product_table(left_c, left_h, right_c, right_h):
    """Reps of l_i r_j for every ordered pair of two families, all at once.

    left_c (k, 2n, 2n) and left_h (k, 2n) stack the bits of k reps l_i,
    right_c and right_h those of k' reps r_j.  Returns (C, h) of shapes
    (k, k', 2n, 2n) and (k, k', 2n), where entry [i, j] is the rep of
    l_i r_j (r_j acts first); this is the package's one composition law
    (Dehaene-De Moor, quant-ph/0304125), and compose is its 1 x 1 case.
    Row blocks (i, a) of the stacked C_i, lows_i, h_i and d_i times
    column blocks (j, x) of the stacked C_j form one exact float32 BLAS
    product (gf2._blas_mat_mul; each entry counts at most 2n ones), and
    one uint8 einsum finishes diag(C_j^T lows_i C_j), whose sums of at
    most 2n bits cannot wrap.  At every size measured, down to the 1 x 1
    table at n = 3, the BLAS product costs less than a uint8 einsum.
    """
    left_c, left_h, right_c, right_h = map(gf2.asbits, (left_c, left_h, right_c, right_h))
    k, m, _ = left_c.shape
    kr = right_c.shape[0]
    d_left, low_left = sign_data(left_c)
    d_right = d_left if right_c is left_c else sign_data(right_c)[0]
    cols = right_c.transpose(1, 0, 2).reshape(m, kr * m)
    rows = np.concatenate([left_c.reshape(k * m, m), low_left.reshape(k * m, m), left_h, d_left])
    prod = gf2._blas_mat_mul(rows, cols)
    c12 = prod[: k * m].reshape(k, m, kr, m).transpose(0, 2, 1, 3)
    low_c = prod[k * m : 2 * k * m].reshape(k, m, kr, m)
    quad = np.einsum("iajx,ajx->ijx", low_c, cols.reshape(m, kr, m))
    hc, dc = prod[2 * k * m :].reshape(2, k, kr, m)
    return c12, (right_h[None] + hc + quad + dc * d_right[None]) & 1
