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
from .pauli import PhasedPauli


class CliffordRep:
    """A Clifford operator up to global phase, as a (C, h) pair.

    The symplectic condition on C is validated at construction; both
    arrays are frozen afterwards.  The derived quantities d and
    lows(C^T J C + d d^T) are cached because composition and
    conjugation reuse them heavily.
    """

    __slots__ = ("c", "h", "_d", "_lows")

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
        self._d = None
        self._lows = None

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
        if self._d is None:
            j = gf2.j_mat(self.n)
            d = gf2.diag_vec(gf2.mat_mul(gf2.mat_mul(self.c.T, j), self.c))
            d.flags.writeable = False
            self._d = d
        return self._d

    @property
    def lows_matrix(self):
        """lows(C^T J C + d d^T), the quadratic sign kernel of this rep."""
        if self._lows is None:
            j = gf2.j_mat(self.n)
            m = gf2.mat_mul(gf2.mat_mul(self.c.T, j), self.c)
            m = (m ^ np.outer(self.d, self.d)) & 1
            low = gf2.lows(m)
            low.flags.writeable = False
            self._lows = low
        return self._lows

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


def d_vector(rep: CliffordRep):
    """diag(C^T J C); coordinate j equals c_j^T J c_j."""
    return rep.d.copy()


def _check_same_n(a, b):
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")


def conjugate(rep: CliffordRep, p: PhasedPauli) -> PhasedPauli:
    """Image Q p Q^dag of a phased Pauli under the represented Clifford."""
    if rep.n != p.n:
        raise ValueError(f"qubit counts differ: {rep.n} vs {p.n}")
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
    """Rep of the operator product outer * inner (inner acts first)."""
    _check_same_n(outer, inner)
    c12 = gf2.mat_mul(outer.c, inner.c)
    cross = gf2.mat_mul(gf2.mat_mul(inner.c.T, outer.lows_matrix), inner.c)
    cross = (cross ^ (np.outer(inner.d, outer.d) @ inner.c & 1)) & 1
    h12 = (inner.h ^ gf2.mat_mul(inner.c.T, outer.h) ^ gf2.diag_vec(cross)) & 1
    return CliffordRep(c12, h12)


def inverse(rep: CliffordRep) -> CliffordRep:
    """Rep of the inverse operator."""
    cinv = gf2.symplectic_inverse(rep.c)
    cinv_t = cinv.T
    j = gf2.j_mat(rep.n)
    d_prime = gf2.diag_vec(gf2.mat_mul(gf2.mat_mul(cinv_t, j), cinv))
    cross = gf2.mat_mul(gf2.mat_mul(cinv_t, rep.lows_matrix), cinv)
    cross = (cross ^ (np.outer(d_prime, rep.d) @ cinv & 1)) & 1
    h_prime = (gf2.mat_mul(cinv_t, rep.h) ^ gf2.diag_vec(cross)) & 1
    return CliffordRep(cinv, h_prime)


def from_pauli(p: PhasedPauli) -> CliffordRep:
    """Rep of a Pauli operator: (C = I, h = P a).

    The phase coordinates of p are dropped; the representation cannot
    see them.
    """
    h = gf2.mat_mul(gf2.p_mat(p.n), p.a)
    return CliffordRep(gf2.ident(2 * p.n), h)


def is_involution_rep(rep: CliffordRep) -> bool:
    """Whether the represented phase class contains an involution.

    Equivalent to C^2 = I together with the h-condition that makes the
    rep of Q^2 the identity rep.
    """
    return compose(rep, rep).is_identity()


def reps_commute(a: CliffordRep, b: CliffordRep) -> bool:
    """Whether the operators commute up to a sign (reps of ab and ba agree)."""
    return compose(a, b) == compose(b, a)


def product_table(cs, hs):
    """Reps of q_i q_j for every ordered pair of a family, all at once.

    cs (k, 2n, 2n) and hs (k, 2n) stack the bits of k reps q_i.  Returns
    (C, h) of shapes (k, k, 2n, 2n) and (k, k, 2n), where entry [i, j]
    equals compose(q_i, q_j) bit for bit.  Row blocks (i, a) of the
    stacked C_i, lows_i, h_i and d_i times column blocks (j, x) of the
    stacked C_j form one product, and one more einsum finishes
    diag(C_j^T lows_i C_j).  The sums run in uint8 and wrap mod 256,
    which keeps their parity; an einsum over uint8 needs no BLAS call,
    so its cost does not depend on the BLAS thread count.
    """
    cs = gf2.asbits(cs)
    hs = gf2.asbits(hs)
    k, m, _ = cs.shape
    n = m // 2
    # C^T J C, its diagonal d and lows(C^T J C + d d^T) for every rep
    cjc = np.swapaxes(cs[:, :n], 1, 2) @ cs[:, n:] & 1
    d = np.diagonal(cjc, axis1=1, axis2=2)
    low = np.tril(cjc ^ (d[:, :, None] & d[:, None, :]), -1)
    cols = cs.transpose(1, 0, 2).reshape(m, k * m)
    rows = np.concatenate([cs.reshape(k * m, m), low.reshape(k * m, m), hs, d])
    prod = np.einsum("ab,bc->ac", rows, cols)
    c12 = prod[: k * m].reshape(k, m, k, m).transpose(0, 2, 1, 3)
    low_c = prod[k * m : 2 * k * m].reshape(k, m, k, m)
    quad = np.einsum("iajx,ajx->ijx", low_c, cols.reshape(m, k, m))
    hc, dc = prod[2 * k * m :].reshape(2, k, k, m)
    return c12 & 1, (hs[None] + hc + quad + dc * d[None]) & 1


class BlockRep:
    """Involution-friendly rep with C = (A E; 0 A^T) and h = (f; g).

    Validated invariants: A^2 = I, E and AE symmetric (equivalently C
    is a symplectic involution with zero lower-left block) and
    A^T f = f.  d0 = diag(AE) is derived.
    """

    __slots__ = ("a", "e", "f", "g")

    def __init__(self, a, e, f, g):
        a = gf2.frozenbits(a)
        e = gf2.frozenbits(e)
        f = gf2.frozenbits(f)
        g = gf2.frozenbits(g)
        n = a.shape[0]
        if a.shape != (n, n) or e.shape != (n, n) or f.shape != (n,) or g.shape != (n,):
            raise ValueError("inconsistent block shapes")
        if not np.array_equal(gf2.mat_mul(a, a), gf2.ident(n)):
            raise ValueError("A is not an involution")
        if not np.array_equal(e, e.T):
            raise ValueError("E is not symmetric")
        ae = gf2.mat_mul(a, e)
        if not np.array_equal(ae, ae.T):
            raise ValueError("AE is not symmetric")
        if not np.array_equal(gf2.mat_mul(a.T, f), f):
            raise ValueError("f is not fixed by A^T")
        self.a = a
        self.e = e
        self.f = f
        self.g = g

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d0(self):
        return gf2.diag_vec(gf2.mat_mul(self.a, self.e))

    @classmethod
    def from_rep(cls, rep: CliffordRep):
        n = rep.n
        if rep.c[n:, :n].any():
            raise ValueError("rep has a nonzero lower-left block")
        a = rep.c[:n, :n]
        if not np.array_equal(rep.c[n:, n:], a.T):
            raise ValueError("lower-right block is not A^T")
        return cls(a, rep.c[:n, n:], rep.h[:n], rep.h[n:])

    def to_rep(self) -> CliffordRep:
        n = self.n
        c = gf2.zeros(2 * n, 2 * n)
        c[:n, :n] = self.a
        c[:n, n:] = self.e
        c[n:, n:] = self.a.T
        return CliffordRep(c, np.concatenate([self.f, self.g]))

    def __eq__(self, other):
        return isinstance(other, BlockRep) and self.to_rep() == other.to_rep()

    def __repr__(self):
        return f"BlockRep(n={self.n})"
