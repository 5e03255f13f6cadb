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

The entry points check their ``uint8`` input and pack each matrix once
(``gf2._pack_rows``); the recursion runs on packed rows (``gf2._row_*``),
with the interleaved 2r / 2(n-r) split and embedding as shifts and masks,
and the results are unpacked once.  Every conjugator is inverted, and its
symplecticity re-verified, once: one conjugation per conjugator, of the
whole stack at once.  The final forms are checked again rather than
trusted; index bookkeeping is the dominant risk here.
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


def _eye(dim):
    return [1 << i for i in range(dim)]


def _conj(m, stack):
    """m c m^{-1} for each packed-row c of the list stack; m is symplectic."""
    minv = gf2._row_symplectic_inverse(m)
    return [gf2._row_mul(gf2._row_mul(m, c), minv) for c in stack]


def _block_diag(p, q):
    """(p 0; 0 q) for square packed-row matrices p and q."""
    return p + [x << len(p) for x in q]


def _congruence_conjugator(e):
    """(diag(R, R^{-T}), r) for (R, r) = gf2._row_congruence(e)."""
    big_r, r = gf2._row_congruence(e)
    return _block_diag(big_r, gf2._row_transpose(gf2._row_inverse(big_r), len(e))), r


def _embed_pair(mx, my, r, n):
    """Place a 2r block and a 2(n-r) block on the interleaved coordinates
    ix = [0, r) + [n, n + r) and iy = [r, n) + [n + r, 2n)."""
    s = n - r
    lo, hi = (1 << r) - 1, (1 << s) - 1
    x = [v & lo | v >> r << n for v in mx]
    y = [(v & hi) << r | v >> s << n + r for v in my]
    return x[:r] + y[:s] + x[r:] + y[s:]


def _residual(c, r, n):
    """The 2(n-r) diagonal block of c on the coordinates iy (_embed_pair)."""
    hi = (1 << n - r) - 1
    return [v >> r & hi | v >> n + r << n - r for v in c[r:n] + c[n + r :]]


def _split_pair(c, r, n):
    """Extract the 2r and 2(n-r) diagonal blocks; cross terms must vanish."""
    lo = (1 << r) - 1
    on_x = lo | lo << n
    rows_x = c[:r] + c[n : n + r]
    if any(v & ~on_x for v in rows_x) or any(v & on_x for v in c[r:n] + c[n + r :]):
        raise AssertionError("matrix does not split along the claimed coordinates")
    return [v & lo | v >> n << r for v in rows_x], _residual(c, r, n)


def _jordan_involution_basis(at):
    """(rows of B^T, k) from the rows of a^T: a B = B N, N the Jordan form
    of the involution a.

    Over GF(2), a^2 = I makes N = I + a square to zero, so the Jordan
    structure is k = rank(N) two-blocks followed by fixed vectors.  B's
    columns come in chains (N u, u) for pivot columns u of N, then the
    kernel vectors that each raise the rank of Im(N) and of those kept
    before them: a completion of Im(N) to Ker(N).
    """
    n = len(at)
    cols = [x ^ 1 << i for i, x in enumerate(at)]  # the columns of N
    red = gf2._row_transpose(cols, n)
    pivots = gf2._eliminate(red, n)
    k = len(pivots)
    bt = [v for j in pivots for v in (cols[j], 1 << j)]
    kernel = gf2._row_kernel(red, pivots, n)
    lead = {}  # rank test: a vector of the span so far per top bit
    for i, v in enumerate([cols[j] for j in pivots] + kernel):
        w = v
        while w.bit_length() in lead:
            w ^= lead[w.bit_length()]
        if w:
            lead[w.bit_length()] = w
            if i >= k:
                bt.append(v)
    # rows of (a B)^T = B^T a^T and of (B N)^T, whose row 2i + 1 adds row 2i
    jordan = [v ^ bt[j - 1] if j < 2 * k and j % 2 else v for j, v in enumerate(bt)]
    if gf2._row_mul(bt, at) != jordan:
        raise AssertionError("Jordan basis bookkeeping failed")
    return bt, k


def _check_nice(c):
    """Raise unless c = (I E; 0 I) with E symmetric: c must equal the
    identity frame with E^T in its top-right block."""
    n = len(c) // 2
    e_t = gf2._row_transpose([x >> n for x in c[:n]], n)
    if c != [1 << i | x << n for i, x in enumerate(e_t)] + _eye(2 * n)[n:]:
        raise AssertionError("conjugation did not reach the (I E; 0 I) form")


def _involution_conjugator(c):
    """Recursive core on packed rows: (m, m c m^{-1}), m symplectic and the
    second in (I E; 0 I) form, which _check_nice has passed."""
    n = len(c) // 2
    if n == 0:
        return [], []
    mask = (1 << n) - 1
    e_blk = [x >> n for x in c[:n]]
    r = len(gf2._eliminate(list(e_blk), n))
    if r > 0:
        # congruence-normalize E, then strip A down to its residual corner
        m1, rr = _congruence_conjugator(e_blk)
        if rr != r:
            raise AssertionError("congruence rank mismatch")
        (c1,) = _conj(m1, [c])
        lo = (1 << r) - 1
        e = [x >> n & lo for x in c1[:r]]
        if any(x & lo for x in c1[r:n]):
            raise AssertionError("AE symmetry should force the lower A corner to vanish")
        einv = gf2._row_inverse(e)
        # s = (einv a1, einv a2; (einv a2)^T, 0) for c1's top A rows (a1 a2)
        top = gf2._row_mul(einv, [x & mask for x in c1[:r]])
        s = top + gf2._row_transpose([x >> r for x in top], n - r)
        if gf2._row_transpose(s, n) != s:
            raise AssertionError("elimination block is not symmetric")
        m2 = _eye(n) + [x | 1 << n + i for i, x in enumerate(s)]
        (c2,) = _conj(m2, [c1])
        x, y = _split_pair(c2, r, n)
        if x != [v << r for v in e] + einv:
            raise AssertionError("antidiagonal corner has unexpected shape")
        mx = _eye(r) + [v | 1 << r + i for i, v in enumerate(einv)]
        m3 = _embed_pair(mx, _involution_conjugator(y)[0], r, n)
        m = gf2._row_mul(gf2._row_mul(m3, m2), m1)
    elif any(x & mask for x in c[n:]):
        # swap the roles of the two halves; the image has E' = F nonzero
        p = _eye(2 * n)[n:] + _eye(n)
        m = gf2._row_mul(_involution_conjugator(_conj(p, [c])[0])[0], p)
    else:
        # C = (A 0; 0 A^T): Jordan-normalize, then fold each two-block
        # into a symmetric E corner with one z/x coordinate swap
        bt, k = _jordan_involution_basis([x & mask for x in c[:n]])
        mj = _block_diag(bt, gf2._row_transpose(gf2._row_inverse(bt), n))
        # the swap is a row permutation of mj: rows 2i and n + 2i trade
        # places for each two-block i < k
        m = list(mj)
        for i in range(0, 2 * k, 2):
            m[i], m[n + i] = mj[n + i], mj[i]
    try:  # _conj's symplectic inverse is this level's one test of m
        (normalized,) = _conj(m, [c])
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
    m, normalized = _involution_conjugator(gf2._pack_rows(c))
    both = gf2._unpack_rows(m + normalized, len(c))
    both.flags.writeable = False
    return NormalFormResult(m=both[: len(c)], normalized=both[len(c) :])


def _noncommuting_pair(stack):
    """First pair i < j of the stack, in row-major order, that does not commute."""
    for i in range(len(stack) - 1):
        rest = stack[i + 1 :]
        bad = (stack[i] @ rest & 1 != rest @ stack[i] & 1).any(axis=(1, 2))
        if bad.any():
            return i, i + 1 + int(np.argmax(bad))
    return None


def _set_conjugator(stack):
    """(m, m stack m^{-1}) with every element in block form, on packed rows."""
    dim = len(stack[0])
    n = dim // 2
    mask = (1 << n) - 1
    if not any(x & mask for c in stack for x in c[n:]):
        return _eye(dim), stack
    first = next(i for i, c in enumerate(stack) if c != _eye(dim))
    m_a, pivot = _involution_conjugator(stack[first])
    m_b, r = _congruence_conjugator([x >> n for x in pivot[:n]])
    if r == 0:
        raise AssertionError("non-identity element normalized to identity")
    m = gf2._row_mul(m_b, m_a)
    current = _conj(m, stack)
    # commutation with the full-rank corner of the pivot forces every
    # element's a3, f1, f2 refined blocks to vanish
    lo = (1 << r) - 1
    bad = any(x & lo for c in current for x in c[r:n] + c[n + r :])
    if bad or any(x & mask for c in current for x in c[n : n + r]):
        raise AssertionError("commuting element has forbidden refined blocks")
    if r == n:
        return m, current
    subs = [_residual(c, r, n) for c in current]
    for sub in subs:
        try:
            gf2._row_symplectic_inverse(sub)
        except ValueError:
            raise ValueError("projected element is not symplectic") from None
        if gf2._row_mul(sub, sub) != _eye(len(sub)):
            raise ValueError("projected element is not an involution")
    if any(gf2._row_mul(a, b) != gf2._row_mul(b, a) for i, a in enumerate(subs) for b in subs[i + 1 :]):
        raise AssertionError("projected elements stopped commuting")
    m_emb = _embed_pair(_eye(2 * r), _set_conjugator(subs)[0], r, n)
    return gf2._row_mul(m_emb, m), _conj(m_emb, current)


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
    rows = gf2._pack_rows(stack.reshape(len(mats) * dim, dim))
    m, current = _set_conjugator([rows[i * dim : (i + 1) * dim] for i in range(len(mats))])
    out = gf2._unpack_rows(m + [x for c in current for x in c], dim).reshape(len(mats) + 1, dim, dim)
    out.flags.writeable = False  # before the views are taken, which keep the flag
    m, normalized = out[0], out[1:]
    if not gf2.is_symplectic(m):
        raise AssertionError("set conjugator is not symplectic")
    n = dim // 2
    # with a the top-left block, a (a e) = (a^2 ae) is one product
    a_top = normalized[:, :n, :n] @ normalized[:, :n] & 1
    e, ae = normalized[:, :n, n:], a_top[:, :, n:]
    side = (a_top[:, :, :n] == gf2._eye(n)) & (e == np.swapaxes(e, 1, 2))
    side &= ae == np.swapaxes(ae, 1, 2)
    block = ~normalized[:, n:, :n].any(axis=(1, 2))
    bad = np.flatnonzero(~(block & side.all(axis=(1, 2))))
    if bad.size and not block[bad[0]]:
        raise AssertionError(f"element {bad[0]} was not reduced to block form")
    if bad.size:
        raise AssertionError(f"element {bad[0]} violates the block-form side conditions")
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
    if not np.array_equal(c1 @ c2 & 1, c2 @ c1 & 1):
        raise ValueError("matrices do not commute")
    eye = gf2._eye(c1.shape[0])
    prod = (eye ^ c1) @ (eye ^ c2) & 1
    return bool(prod.any())
