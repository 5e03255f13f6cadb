"""Constructive normal forms for symplectic involutions over GF(2).

Two normal forms are provided:

* a single symplectic involution C is conjugated to (I E; 0 I) with E
  symmetric, by an explicit symplectic M;
* a pairwise-commuting set of symplectic involutions, held as one
  (k, 2n, 2n) stack, is conjugated by one shared symplectic M so that
  every element gets the block shape (A E; 0 A^T) (zero lower-left
  block).

The stronger simultaneous (I E; 0 I) form is generally impossible in
characteristic two; ``simultaneous_nice_form_obstruction`` certifies
the failure for a given pair via the product (I+C1)(I+C2).

Every conjugator is inverted, and its symplecticity re-verified, once:
one conjugation per conjugator, of the whole stack at once.  The final
forms are checked again rather than trusted; index bookkeeping is the
dominant risk here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2


@dataclass(frozen=True)
class NormalFormResult:
    """Conjugator m and normalized = m c m^{-1} for a single involution."""

    m: np.ndarray
    normalized: np.ndarray


@dataclass(frozen=True)
class SetNormalForm:
    """Shared conjugator m and the per-element normalized matrices."""

    m: np.ndarray
    normalized: tuple


def _conj(m, c):
    """m c m^{-1} for a bit matrix or stack c; every conjugator here is symplectic."""
    return m @ c @ gf2.symplectic_inverse(m) & 1  # uint8 products keep their parity


def _block_diag(p, q):
    n = p.shape[0] + q.shape[0]
    out = gf2.zeros(n, n)
    out[: p.shape[0], : p.shape[0]] = p
    out[p.shape[0] :, p.shape[0] :] = q
    return out


def _pair_coords(r, n):
    """Coordinate lists for the interleaved 2r / 2(n-r) split."""
    ix = list(range(r)) + list(range(n, n + r))
    iy = list(range(r, n)) + list(range(n + r, 2 * n))
    return ix, iy


def _embed_pair(mx, my, r, n):
    """Place a 2r block and a 2(n-r) block on interleaved coordinates."""
    out = gf2.ident(2 * n)
    ix, iy = _pair_coords(r, n)
    if mx.size:
        out[np.ix_(ix, ix)] = mx
    if my.size:
        out[np.ix_(iy, iy)] = my
    return out


def _split_pair(c, r, n):
    """Extract the 2r and 2(n-r) diagonal blocks; cross terms must vanish."""
    ix, iy = _pair_coords(r, n)
    if c[np.ix_(ix, iy)].any() or c[np.ix_(iy, ix)].any():
        raise AssertionError("matrix does not split along the claimed coordinates")
    return c[np.ix_(ix, ix)], c[np.ix_(iy, iy)]


def _jordan_involution_basis(a):
    """Basis B with a B = B N, N the Jordan form of an involution.

    Over GF(2), a^2 = I makes N = I + a square to zero, so the Jordan
    structure is rank(N) two-blocks followed by fixed vectors.  B's
    columns come in chains (N u, u) for pivot columns u of N, then a
    completion of Im(N) to Ker(N).
    """
    n = a.shape[0]
    nil = gf2.ident(n) ^ a
    pivots = gf2.image_pivots(nil)
    k = len(pivots)
    image = nil[:, pivots]
    chains = np.stack([image, gf2.ident(n)[:, pivots]], axis=2).reshape(n, 2 * k)
    # the kernel vectors that each raise the rank of Im(N) and of the ones
    # kept before them are the pivot columns of (image | ker) past the image
    span = np.concatenate([image, gf2.kernel_basis(nil).T], axis=1)
    b = np.concatenate([chains, span[:, gf2.image_pivots(span)[k:]]], axis=1)
    jordan = gf2.ident(n)
    jordan[np.arange(0, 2 * k, 2), np.arange(1, 2 * k, 2)] = 1
    if not np.array_equal(gf2.mat_mul(a, b), gf2.mat_mul(b, jordan)):
        raise AssertionError("Jordan basis bookkeeping failed")
    return b, k


def _check_nice(c):
    """Raise unless c = (I E; 0 I) with E symmetric."""
    n = c.shape[0] // 2
    e = c[:n, n:]
    ok = (
        np.array_equal(c[:n, :n], gf2.ident(n))
        and np.array_equal(c[n:, n:], gf2.ident(n))
        and not c[n:, :n].any()
        and np.array_equal(e, e.T)
    )
    if not ok:
        raise AssertionError("conjugation did not reach the (I E; 0 I) form")


def _involution_conjugator(c):
    """Recursive core: symplectic m with m c m^{-1} = (I E; 0 I).

    Returns (m, m c m^{-1}); the second has passed _check_nice.
    """
    n = c.shape[0] // 2
    if n == 0:
        return c.copy(), c.copy()
    a_blk = c[:n, :n]
    e_blk = c[:n, n:]
    f_blk = c[n:, :n]
    r = gf2.rank(e_blk)
    if r > 0:
        # congruence-normalize E, then strip A down to its residual corner
        big_r, rr = gf2.symmetric_congruence(e_blk)
        if rr != r:
            raise AssertionError("congruence rank mismatch")
        m1 = _block_diag(big_r, gf2.inverse(big_r).T)
        c1 = _conj(m1, c)
        e = c1[:r, n : n + r]
        a1 = c1[:r, :r]
        a2 = c1[:r, r:n]
        if c1[r:n, :r].any():
            raise AssertionError("AE symmetry should force the lower A corner to vanish")
        einv = gf2.inverse(e)
        s = gf2.zeros(n, n)
        s[:r, :r] = gf2.mat_mul(einv, a1)
        s[:r, r:] = gf2.mat_mul(einv, a2)
        s[r:, :r] = s[:r, r:].T
        if not np.array_equal(s, s.T):
            raise AssertionError("elimination block is not symmetric")
        m2 = gf2.ident(2 * n)
        m2[n:, :n] = s
        c2 = _conj(m2, c1)
        x, y = _split_pair(c2, r, n)
        expect_x = gf2.zeros(2 * r, 2 * r)
        expect_x[:r, r:] = e
        expect_x[r:, :r] = einv
        if not np.array_equal(x, expect_x):
            raise AssertionError("antidiagonal corner has unexpected shape")
        mx = gf2.ident(2 * r)
        mx[r:, :r] = einv
        my = _involution_conjugator(y)[0]
        m3 = _embed_pair(mx, my, r, n)
        m = gf2.mat_mul(gf2.mat_mul(m3, m2), m1)
    elif f_blk.any():
        # swap the roles of the two halves; the image has E' = F nonzero
        p = gf2.p_mat(n)
        m = gf2.mat_mul(_involution_conjugator(_conj(p, c))[0], p)
    else:
        # C = (A 0; 0 A^T): Jordan-normalize, then fold each two-block
        # into a symmetric E corner with one z/x coordinate swap
        b, k = _jordan_involution_basis(a_blk.T)
        mj = _block_diag(b.T, gf2.inverse(b))
        swap = gf2.ident(2 * n)
        for blk in range(k):
            pp = 2 * blk
            swap[[pp, n + pp]] = swap[[n + pp, pp]]
        m = gf2.mat_mul(swap, mj)
    try:  # _conj's symplectic_inverse is this level's one test of m
        normalized = _conj(m, c)
    except ValueError:
        raise AssertionError("partial conjugator lost symplecticity") from None
    _check_nice(normalized)
    return m, normalized


def _validate_involution(c, label="input"):
    c = gf2.frozenbits(c)
    if not gf2.is_symplectic(c):
        raise ValueError(f"{label} is not symplectic")
    if not gf2.is_involution(c):
        raise ValueError(f"{label} is not an involution")
    return c


def involution_normal_form(c) -> NormalFormResult:
    """Conjugate a symplectic involution to (I E; 0 I), E symmetric.

    Follows the constructive reduction: congruence-normalize the E
    block, eliminate the matched A corner, split off the invertible
    antidiagonal part, and recurse; the E = 0 residue is handled by a
    half-swap and Jordan normalization of the involutive A block.
    """
    c = _validate_involution(c)
    m, normalized = _involution_conjugator(c)
    normalized.flags.writeable = False
    m.flags.writeable = False
    return NormalFormResult(m=m, normalized=normalized)


def _noncommuting_pair(stack):
    """First pair i < j of the stack, in row-major order, that does not commute."""
    for i in range(len(stack) - 1):
        rest = stack[i + 1 :]
        bad = (gf2.mat_mul(stack[i], rest) != gf2.mat_mul(rest, stack[i])).any(axis=(1, 2))
        if bad.any():
            return i, i + 1 + int(np.argmax(bad))
    return None


def _set_conjugator(stack):
    """(m, m stack m^{-1}) with every conjugated element in block form."""
    dim = stack.shape[1]
    n = dim // 2
    if not stack[:, n:, :n].any():
        return gf2.ident(dim), stack
    first = int(np.flatnonzero((stack != gf2.ident(dim)).any(axis=(1, 2)))[0])
    m_a, pivot = _involution_conjugator(stack[first])
    big_r, r = gf2.symmetric_congruence(pivot[:n, n:])
    if r == 0:
        raise AssertionError("non-identity element normalized to identity")
    m = gf2.mat_mul(_block_diag(big_r, gf2.inverse(big_r).T), m_a)
    current = _conj(m, stack)
    # commutation with the full-rank corner of the pivot forces every
    # element's a3, f1, f2 refined blocks to vanish
    bad = current[:, r:n, :r].any() or current[:, n : n + r, :n].any()
    if bad or current[:, n + r :, :r].any():
        raise AssertionError("commuting element has forbidden refined blocks")
    if r == n:
        return m, current
    iy = _pair_coords(r, n)[1]
    subs = current[:, iy][:, :, iy]
    for sub in subs:
        _validate_involution(sub, "projected element")
    if _noncommuting_pair(subs):
        raise AssertionError("projected elements stopped commuting")
    m_emb = gf2.ident(dim)
    m_emb[np.ix_(iy, iy)] = _set_conjugator(subs)[0]
    return gf2.mat_mul(m_emb, m), _conj(m_emb, current)


def commuting_set_normal_form(cs) -> SetNormalForm:
    """One symplectic M putting every commuting involution in block form.

    Normalizes the first non-identity element to (I diag(e,0); 0 I),
    derives the forced zero blocks of the others from commutation with
    the full-rank corner, and recurses on the residual coordinates.
    If every element is already in block form, M = I.

    Raises:
        ValueError: naming the offending element or pair when an input
            is not a 2-d matrix or not a symplectic involution, or two
            elements fail to commute.
    """
    mats = [gf2.frozenbits(c) for c in cs]
    if not mats:
        raise ValueError("empty set")
    for i, c in enumerate(mats):
        if c.ndim != 2:
            raise ValueError(f"element {i} is not a 2-d matrix: shape {c.shape}")
        dim = len(mats[0])
        if c.shape != (dim, dim):
            raise ValueError(f"element {i} has shape {c.shape}, expected {(dim, dim)}")
        _validate_involution(c, f"element {i}")
    stack = np.stack(mats)
    pair = _noncommuting_pair(stack)
    if pair:
        raise ValueError(f"elements {pair[0]} and {pair[1]} do not commute")
    m, normalized = _set_conjugator(stack)
    if not gf2.is_symplectic(m):
        raise AssertionError("set conjugator is not symplectic")
    n = dim // 2
    # with a the top-left block, a (a e) = (a^2 ae) is one product
    a_top = gf2.mat_mul(normalized[:, :n, :n], normalized[:, :n])
    e, ae = normalized[:, :n, n:], a_top[:, :, n:]
    side = (a_top[:, :, :n] == gf2.ident(n)) & (e == np.swapaxes(e, 1, 2))
    side &= ae == np.swapaxes(ae, 1, 2)
    block = ~normalized[:, n:, :n].any(axis=(1, 2))
    bad = np.flatnonzero(~(block & side.all(axis=(1, 2))))
    if bad.size and not block[bad[0]]:
        raise AssertionError(f"element {bad[0]} was not reduced to block form")
    if bad.size:
        raise AssertionError(f"element {bad[0]} violates the block-form side conditions")
    normalized.flags.writeable = False
    m.flags.writeable = False
    return SetNormalForm(m=m, normalized=tuple(normalized))


def simultaneous_nice_form_obstruction(c1, c2) -> bool:
    """True iff the commuting pair provably has no shared (I E; 0 I) form.

    If both matrices could be conjugated into that shape by one M, the
    product (I+C1)(I+C2) would vanish; a nonzero product is therefore a
    certificate of impossibility.
    """
    c1 = _validate_involution(c1, "first matrix")
    c2 = _validate_involution(c2, "second matrix")
    if c1.shape != c2.shape:
        raise ValueError("shape mismatch")
    if not np.array_equal(gf2.mat_mul(c1, c2), gf2.mat_mul(c2, c1)):
        raise ValueError("matrices do not commute")
    n2 = c1.shape[0]
    prod = gf2.mat_mul(gf2.ident(n2) ^ c1, gf2.ident(n2) ^ c2)
    return bool(prod.any())
