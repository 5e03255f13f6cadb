"""Constructive normal forms for symplectic involutions over GF(2).

Two normal forms are provided:

* a single symplectic involution C is conjugated to (I E; 0 I) with E
  symmetric, by an explicit symplectic M;
* a pairwise-commuting set of symplectic involutions is conjugated by
  one shared symplectic M so that every element gets the block shape
  (A E; 0 A^T) (zero lower-left block).

The stronger simultaneous (I E; 0 I) form is generally impossible in
characteristic two; ``simultaneous_nice_form_obstruction`` certifies
the failure for a given pair via the product (I+C1)(I+C2).

Every conjugation step re-verifies symplecticity of the partial
conjugator, and the final forms are recomputed from scratch rather
than trusted; index bookkeeping is the dominant risk here.
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
    """m c m^{-1}; every conjugator built here is symplectic."""
    return gf2.mat_mul(gf2.mat_mul(m, c), gf2.symplectic_inverse(m))


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
    x = c[np.ix_(ix, ix)].copy()
    y = c[np.ix_(iy, iy)].copy()
    recombined = gf2.zeros(2 * n, 2 * n)
    recombined[np.ix_(ix, ix)] = x
    recombined[np.ix_(iy, iy)] = y
    if not np.array_equal(recombined, c):
        raise AssertionError("matrix does not split along the claimed coordinates")
    return x, y


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
    cols = []
    for j in pivots:
        u = np.zeros(n, dtype=np.uint8)
        u[j] = 1
        cols.append((nil[:, j].copy(), u))
    image = [pair[0] for pair in cols]
    ker = gf2.kernel_basis(nil)
    completion = []
    base = list(image)
    base_rank = gf2.rank(np.array(base, dtype=np.uint8)) if base else 0
    for vec in ker:
        trial = base + [vec]
        trial_rank = gf2.rank(np.array(trial, dtype=np.uint8))
        if trial_rank > base_rank:
            completion.append(vec)
            base = trial
            base_rank = trial_rank
    b_cols = []
    for img, u in cols:
        b_cols.extend([img, u])
    b_cols.extend(completion)
    b = np.array(b_cols, dtype=np.uint8).T
    jordan = gf2.ident(n)
    for i in range(k):
        jordan[2 * i, 2 * i + 1] = 1
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
    if not gf2.is_symplectic(m):
        raise AssertionError("partial conjugator lost symplecticity")
    normalized = _conj(m, c)
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


def _is_block_form(c):
    n = c.shape[0] // 2
    return not c[n:, :n].any()


def _set_conjugator(mats):
    n = mats[0].shape[0] // 2
    if n == 0:
        return mats[0].copy()
    if all(_is_block_form(c) for c in mats):
        return gf2.ident(2 * n)
    first = next(
        i for i, c in enumerate(mats) if not np.array_equal(c, gf2.ident(2 * n))
    )
    m_a, pivot = _involution_conjugator(mats[first])
    current = [pivot if i == first else _conj(m_a, c) for i, c in enumerate(mats)]
    big_r, r = gf2.symmetric_congruence(pivot[:n, n:])
    m_b = _block_diag(big_r, gf2.inverse(big_r).T)
    current = [_conj(m_b, c) for c in current]
    m_ba = gf2.mat_mul(m_b, m_a)
    if r == 0:
        raise AssertionError("non-identity element normalized to identity")
    # commutation with the full-rank corner of the pivot forces every
    # element's a3, f1, f2 refined blocks to vanish
    for c in current:
        bad = (
            c[r:n, :r].any()
            or c[n : n + r, :n].any()
            or c[n + r :, :r].any()
        )
        if bad:
            raise AssertionError("commuting element has forbidden refined blocks")
    if r == n:
        return m_ba
    ix, iy = _pair_coords(r, n)
    subs = []
    for c in current:
        sub = c[np.ix_(iy, iy)].copy()
        subs.append(_validate_involution(sub, "projected element"))
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            if not np.array_equal(
                gf2.mat_mul(subs[i], subs[j]), gf2.mat_mul(subs[j], subs[i])
            ):
                raise AssertionError("projected elements stopped commuting")
    m_d = _set_conjugator(subs)
    m_emb = gf2.ident(2 * n)
    m_emb[np.ix_(iy, iy)] = m_d
    return gf2.mat_mul(m_emb, m_ba)


def commuting_set_normal_form(cs) -> SetNormalForm:
    """One symplectic M putting every commuting involution in block form.

    Normalizes the first non-identity element to (I diag(e,0); 0 I),
    derives the forced zero blocks of the others from commutation with
    the full-rank corner, and recurses on the residual coordinates.
    If every element is already in block form, M = I.

    Raises:
        ValueError: naming the offending element or pair when an input
            is not a symplectic involution or two elements fail to
            commute.
    """
    mats = [gf2.frozenbits(c) for c in cs]
    if not mats:
        raise ValueError("empty set")
    dim = mats[0].shape[0]
    for i, c in enumerate(mats):
        if c.shape != (dim, dim):
            raise ValueError(f"element {i} has shape {c.shape}, expected {(dim, dim)}")
        _validate_involution(c, f"element {i}")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not np.array_equal(
                gf2.mat_mul(mats[i], mats[j]), gf2.mat_mul(mats[j], mats[i])
            ):
                raise ValueError(f"elements {i} and {j} do not commute")
    m = _set_conjugator(mats)
    if not gf2.is_symplectic(m):
        raise AssertionError("set conjugator is not symplectic")
    n = dim // 2
    normalized = []
    for i, c in enumerate(mats):
        nc = _conj(m, c)
        if nc[n:, :n].any():
            raise AssertionError(f"element {i} was not reduced to block form")
        a = nc[:n, :n]
        e = nc[:n, n:]
        ae = gf2.mat_mul(a, e)
        if not (
            np.array_equal(gf2.mat_mul(a, a), gf2.ident(n))
            and np.array_equal(e, e.T)
            and np.array_equal(ae, ae.T)
        ):
            raise AssertionError(f"element {i} violates the block-form side conditions")
        nc.flags.writeable = False
        normalized.append(nc)
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
