"""Dense linear algebra over GF(2).

Vectors are 1-D numpy ``uint8`` arrays with entries in {0, 1}; matrices
are 2-D.  Addition is XOR and products are reduced mod 2.  ``uint8``
matmul accumulates mod 256, which preserves parity, so no dtype
widening is needed at the sizes used here (dimensions well below 256).

Per-entry elimination runs on packed rows: _pack_rows turns each row
into one Python int, bit c holding column c, and the work is whole-row
XORs, the tableau layout of Aaronson-Gottesman (quant-ph/0406196).
``rref``, ``rank``, ``solve`` and ``kernel_basis`` eliminate this way
(_eliminate), and ``circuits.circuit_to_rep`` keeps its tableau in the
same layout.  The packed-row primitives _row_kernel, _row_mul,
_row_transpose, _row_inverse, _row_symplectic_inverse and
_row_congruence take and return lists of such ints; ``normal_form``
holds its matrices this way from entry to result.  ``inverse``,
``symplectic_inverse`` and ``symmetric_congruence`` are their
``uint8`` faces: each packs its input once and unpacks the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

import numpy as np


def asbits(data) -> np.ndarray:
    """*data* as a ``uint8`` array whose entries must be bits.

    ``uint8`` input is returned as it is, without a copy.

    Raises:
        ValueError: if an entry is not 0 or 1 (bools are bits), so no
            value is silently reduced mod 2.
    """
    arr = np.asarray(data)
    if arr.dtype == np.uint8:
        # deleting the bytes 0 and 1 leaves nothing of an array of bits; on
        # small arrays this is several times faster than arr.max()
        if arr.tobytes().translate(None, b"\0\1"):
            raise ValueError("bit array has an entry other than 0 or 1")
        return arr
    # compared before the cast, which warns on nan, inf, 1e20 or complex
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bit array has an entry other than 0 or 1")
    return (arr.real if arr.dtype.kind == "c" else arr).astype(np.uint8)


def frozenbits(data) -> np.ndarray:
    """Read-only C-ordered copy of ``asbits(data)``."""
    out = np.array(asbits(data), order="C")
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _eye(n):
    """np.eye(n) as uint8, read-only and built once per n."""
    eye = np.eye(n, dtype=np.uint8)
    eye.flags.writeable = False
    return eye


def ident(n):
    """A fresh writable n x n identity: a copy of the cached _eye(n)."""
    return _eye(n).copy()


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.uint8)


def j_mat(n):
    """The strictly upper block matrix (0 I_n; 0 0) of size 2n."""
    j = zeros(2 * n, 2 * n)
    j[:n, n:] = ident(n)
    return j


def p_mat(n):
    """The binary symplectic form (0 I_n; I_n 0) of size 2n."""
    p = zeros(2 * n, 2 * n)
    p[:n, n:] = ident(n)
    p[n:, :n] = ident(n)
    return p


@lru_cache(maxsize=None)
def _p_form(n):
    """p_mat(n), read-only and built once per n for the symplectic test."""
    p = p_mat(n)
    p.flags.writeable = False
    return p


@lru_cache(maxsize=None)
def _strictly_lower(m):
    """Read-only (m, m) uint8 mask of the entries below the diagonal."""
    mask = np.tri(m, m, -1, dtype=np.uint8)
    mask.flags.writeable = False
    return mask


def mat_mul(a, b):
    """Matrix (or matrix-vector) product over GF(2); stacks broadcast.

    Raises:
        ValueError: if the inner dimensions do not conform.
    """
    a = asbits(a)
    b = asbits(b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return (a @ b) & 1


def _blas_mat_mul(a, b):
    """mat_mul of two bit arrays (stacks broadcast) from one float32 BLAS
    product.

    numpy's integer matmul has no BLAS kernel.  Each entry of the float32
    product counts ones, so it is an integer of at most a.shape[-1]; below
    2^24 float32 holds every partial sum exactly, whatever the order or
    the BLAS thread count.  Below 256 every count fits a uint8, and the
    product is cast straight to uint8 with no int32 copy.

    Raises:
        ValueError: if the inner dimension is 2^24 or more.
    """
    inner = np.shape(a)[-1]
    if inner >= 1 << 24:
        raise ValueError(f"inner dimension {inner} is past float32's exact integers, 2^24")
    prod = np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
    out = prod.astype(np.uint8 if inner < 256 else np.int32)
    out &= 1
    return out.astype(np.uint8, copy=False)


def _top_bottom(cs):
    """T^T B mod 2 for the top and bottom row halves T, B of each matrix
    of a (..., 2n, 2n) bit array: C^T J C, for J = (0 I; 0 0).

    A stack of two or more matrices takes one exact float32 BLAS product
    (_blas_mat_mul); one matrix, alone or as a stack of one, keeps the
    uint8 matmul, which costs less than the float32 round trip there.
    """
    n = cs.shape[-1] // 2
    top = np.swapaxes(cs[..., :n, :], -1, -2)
    if cs.size > cs.shape[-1] ** 2:
        return _blas_mat_mul(top, cs[..., n:, :])
    return top @ cs[..., n:, :] & 1


def quad_form(m, v) -> int:
    """Evaluate v^T m v over GF(2)."""
    v = asbits(v)
    return int(v @ (asbits(m) @ v & 1)) & 1


def dot(u, v) -> int:
    """Inner product of two vectors over GF(2)."""
    return int(asbits(u) @ asbits(v)) & 1


def _pack_rows(m):
    """The rows of a 2-D bit array as Python ints, bit c holding column c."""
    rows, cols = m.shape
    # row k is bits [k * width, (k + 1) * width) of one little-endian int
    width = 8 * ((cols + 7) >> 3)
    mask = (1 << width) - 1
    packed = int.from_bytes(np.packbits(m, axis=1, bitorder="little").tobytes(), "little")
    return [packed >> (k * width) & mask for k in range(rows)]


def _unpack_rows(ints, cols):
    """Inverse of _pack_rows: a fresh (len(ints), cols) uint8 array."""
    width = 8 * ((cols + 7) >> 3)
    packed = 0
    for x in reversed(ints):
        packed = packed << width | x
    data = np.frombuffer(packed.to_bytes(len(ints) * width >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(data.reshape(len(ints), width >> 3), axis=1, count=cols, bitorder="little")


def _eliminate(ints, cols):
    """Reduce packed rows (_pack_rows) to RREF in place, pivoting on the
    first *cols* columns (row operations span the whole row); returns
    the pivot column list."""
    searched = (1 << cols) - 1
    pivots: list[int] = []
    for row in range(len(ints)):
        # searched columns left of the next pivot are zero in rows >= row,
        # so the lowest set bit among those rows is the next pivot column
        rest = reduce(or_, ints[row:], 0) & searched
        if not rest:
            break
        bit = rest & -rest
        hit = row
        while not ints[hit] & bit:
            hit += 1
        top = ints[hit]
        ints[hit] = ints[row]
        ints[:] = [x ^ top if x & bit else x for x in ints]
        ints[row] = top
        pivots.append(bit.bit_length() - 1)
    return pivots


def rref(m):
    """Reduced row echelon form over GF(2).

    Returns:
        (R, pivot_cols): the reduced matrix and the pivot column list
        (its length is the GF(2) rank).
    """
    r = asbits(m)
    rows, cols = r.shape
    if not rows or not cols:
        return r, []
    ints = _pack_rows(r)
    pivots = _eliminate(ints, cols)
    return _unpack_rows(ints, cols), pivots


def rank(m) -> int:
    """Row rank over GF(2), counted on packed rows without unpacking."""
    r = asbits(m)
    return len(_eliminate(_pack_rows(r), r.shape[1]))


def _row_mul(a, b):
    """Product of packed-row matrices (_pack_rows): row i is the XOR of
    b's rows at the set bits of a's row i."""
    out = []
    for x in a:
        acc = 0
        while x:
            j = x.bit_length() - 1
            acc ^= b[j]
            x ^= 1 << j
        out.append(acc)
    return out


def _row_transpose(rows, cols):
    """Transpose of a packed-row matrix with *cols* columns."""
    out = [0] * cols
    for i, x in enumerate(rows):
        bit = 1 << i
        while x:
            j = x.bit_length() - 1
            out[j] |= bit
            x ^= 1 << j
    return out


def _row_inverse(rows):
    """Inverse of a square packed-row matrix: eliminates the rows of
    (m | I) on the columns of m, as rref of that matrix would, and keeps
    the right half.

    Raises:
        ValueError: if the matrix is singular.
    """
    n = len(rows)
    aug = [row | 1 << (n + k) for k, row in enumerate(rows)]
    if _eliminate(aug, n) != list(range(n)):
        raise ValueError("matrix is singular over GF(2)")
    return [row >> n for row in aug]


def inverse(m):
    """Inverse of a square matrix over GF(2): _row_inverse on its rows.

    Raises:
        ValueError: if *m* is not square or is singular.
    """
    m = asbits(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"not a square matrix: {m.shape}")
    return _unpack_rows(_row_inverse(_pack_rows(m)), m.shape[0])


def _row_symplectic_inverse(m):
    """P m^T P for a packed-row matrix m of size 2n, P = p_mat(n).

    m = (A B; C D) in n x n blocks gives P m^T P = (D^T B^T; C^T A^T):
    m^T with its row halves and its column halves swapped.  That is
    m^{-1} iff m is symplectic (m^T P m = P and P^2 = I), so the
    product m (P m^T P) = I is the symplectic test.

    Raises:
        ValueError: if m is not symplectic.
    """
    dim = len(m)
    n = dim // 2
    low = (1 << n) - 1
    t = _row_transpose(m, dim)
    inv = [x >> n | (x & low) << n for x in t[n:] + t[:n]]
    if _row_mul(m, inv) != [1 << i for i in range(dim)]:
        raise ValueError("matrix is not symplectic")
    return inv


def symplectic_inverse(m):
    """Inverse of a symplectic matrix, P m^T P: _row_symplectic_inverse
    on its rows.

    Raises:
        ValueError: if *m* is not square of even size, or not symplectic.
    """
    m = asbits(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"need a square even-dimensional matrix, got {m.shape}")
    return _unpack_rows(_row_symplectic_inverse(_pack_rows(m)), m.shape[0])


def solve(m, rhs):
    """Some x with m @ x = rhs over GF(2), or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    m = asbits(m)
    rhs = asbits(rhs)
    if rhs.ndim != 1 or m.shape[0] != rhs.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} vs {rhs.shape}")
    _, cols = m.shape
    # eliminated on m's columns, a nonzero row past the pivots reads 0 = 1
    aug = _pack_rows(np.concatenate([m, rhs.reshape(-1, 1)], axis=1))
    pivots = _eliminate(aug, cols)
    if any(aug[len(pivots) :]):
        return None
    x = np.zeros(cols, dtype=np.uint8)
    x[pivots] = [row >> cols & 1 for row in aug[: len(pivots)]]
    return x


def kernel_basis(m):
    """Basis of the null space, one vector per row.

    The result has shape (cols - rank, cols); it is empty (0 rows) for
    injective maps.
    """
    m = asbits(m)
    _, cols = m.shape
    red = _pack_rows(m)
    return _unpack_rows(_row_kernel(red, _eliminate(red, cols), cols), cols)


def _row_kernel(red, pivots, cols):
    """Kernel basis, as packed rows, of a matrix with *cols* columns from
    its elimination (red, pivots) by _eliminate: free column f gives e_f
    plus red[i, f] in pivot column pivots[i]."""
    free = [f for f in range(cols) if f not in pivots]
    return [1 << f | sum((red[i] >> f & 1) << p for i, p in enumerate(pivots)) for f in free]


def is_involution(m) -> bool:
    m = asbits(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return np.array_equal(m @ m & 1, _eye(m.shape[0]))


def is_symplectic(c) -> bool:
    """Whether C^T P C = P for the binary symplectic form P: the
    one-matrix case of symplectic_mask, compared with P as one matrix.

    Raises:
        ValueError: if the matrix is not square of even size.
    """
    c = asbits(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2:
        raise ValueError(f"need a square even-dimensional matrix, got {c.shape}")
    tb = _top_bottom(c)
    return bool(((tb ^ tb.T) == _p_form(c.shape[0] // 2)).all())


def symplectic_mask(cs):
    """Whether C^T P C = P, for each matrix of a (..., 2n, 2n) stack.

    With T and B the top and bottom row halves of C, C^T P C is
    T^T B + (T^T B)^T, so the test is one batched product of half the
    size (_top_bottom).  Returns a bool array of the stack's leading
    shape.
    """
    tb = _top_bottom(asbits(cs))
    return ((tb ^ np.swapaxes(tb, -1, -2)) == _p_form(tb.shape[-1] // 2)).all(axis=(-2, -1))


def symmetric_congruence(e):
    """Congruence-reduce a symmetric matrix to (e 0; 0 0) form:
    _row_congruence on its rows.

    Returns (R, r) with R invertible such that R e R^T has an
    invertible symmetric r x r leading block and zeros elsewhere.
    """
    e0 = asbits(e)
    if e0.ndim != 2 or e0.shape[0] != e0.shape[1]:
        raise ValueError(f"not a square matrix: {e0.shape}")
    big_r, r = _row_congruence(_pack_rows(e0))
    return _unpack_rows(big_r, e0.shape[0]), r


def _row_congruence(e):
    """symmetric_congruence of a packed-row matrix: (R, r), R packed.

    Over GF(2) a symmetric matrix can have an all-zero diagonal, so
    after diagonal pivots are exhausted the remaining alternating part
    is reduced with antidiagonal 2x2 pivots.

    w = R e R^T and R are held as packed rows.  Each pivot clears its
    column(s) by one elementary matrix E = I + sum of e_k e_p^T over the
    rows k to clear and the pivot columns p; its factors commute, so
    E w E^T is the product of the single operations in any order,
    applied here to all rows and then to all columns.  Since w is
    symmetric, the rows k that column p clears are the set bits of row p.

    Raises:
        ValueError: if e is not symmetric.
    """
    n = len(e)
    if _row_transpose(e, n) != e:
        raise ValueError("matrix is not symmetric")
    w = list(e)
    r_acc = [1 << k for k in range(n)]

    def swap(i, j):
        if i == j:
            return
        w[i], w[j] = w[j], w[i]
        r_acc[i], r_acc[j] = r_acc[j], r_acc[i]
        both = 1 << i | 1 << j
        w[:] = [x ^ both if (x >> i ^ x >> j) & 1 else x for x in w]

    def clear(p, ks):
        # rows, then columns: w <- E w E^T, R <- E R, E = I + sum e_k e_p^T
        src_w, src_r = w[p], r_acc[p]
        k = ks
        while k:
            low = k & -k
            dst = low.bit_length() - 1
            w[dst] ^= src_w
            r_acc[dst] ^= src_r
            k ^= low
        w[:] = [x ^ ks if x >> p & 1 else x for x in w]

    pos = 0
    while pos < n:
        diag_hit = next((k for k in range(pos, n) if w[k] >> k & 1), None)
        if diag_hit is not None:
            swap(pos, diag_hit)
            clear(pos, w[pos] & ~(1 << pos))
            pos += 1
            continue
        # first (i, j), i < j, in row-major order: the lowest bit above i
        i = next((i for i in range(pos, n) if w[i] >> (i + 1)), None)
        if i is None:
            break
        above = w[i] >> (i + 1)
        j = i + (above & -above).bit_length()
        # j > i >= pos, so swapping pos with i leaves the partner at (pos, j)
        swap(pos, i)
        swap(pos + 1, j)
        pair = 3 << pos
        # E adds row pos to the rows set in column pos + 1 and row pos + 1
        # to those set in column pos, both read before either clear
        ks_pos, ks_next = w[pos + 1] & ~pair, w[pos] & ~pair
        clear(pos, ks_pos)
        clear(pos + 1, ks_next)
        pos += 2

    r = pos
    if _row_mul(_row_mul(r_acc, e), _row_transpose(r_acc, n)) != w:
        raise AssertionError("congruence bookkeeping failed")
    if any(w[r:]) or any(x >> r for x in w):
        raise AssertionError("trailing block not cleared")
    if len(_eliminate(w[:r], r)) != r:
        raise AssertionError("leading block is singular")
    return r_acc, r


@lru_cache(maxsize=None)
def _mask_bits(k) -> np.ndarray:
    """Read-only (2^k, k) array: row x holds the bits of x, bit 0 first."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    bits.flags.writeable = False
    return bits


@dataclass(frozen=True)
class Lagrangian:
    """Maximal isotropic subspace of Z_2^{2n}, stored as an RREF basis.

    The basis matrix has one vector per row; it is canonicalized to
    reduced row echelon form on construction so equal subspaces compare
    equal.  Its entries must be bits (frozenbits), else ValueError.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = frozenbits(self.basis)
        if basis.ndim != 2 or basis.shape[1] % 2:
            raise ValueError(f"bad basis shape {basis.shape}")
        n = basis.shape[1] // 2
        red, pivots = rref(basis)
        if len(pivots) != basis.shape[0]:
            raise ValueError("basis vectors are dependent")
        if basis.shape[0] != n:
            raise ValueError(f"need {n} basis vectors, got {basis.shape[0]}")
        if (red @ _p_form(n) @ red.T & 1).any():
            raise ValueError("basis is not isotropic")
        red.flags.writeable = False
        object.__setattr__(self, "basis", red)

    @property
    def n(self) -> int:
        return self.basis.shape[1] // 2

    def __eq__(self, other):
        return isinstance(other, Lagrangian) and np.array_equal(self.basis, other.basis)

    def __hash__(self):
        return hash(self.basis.tobytes())

    def vectors(self) -> np.ndarray:
        """All 2^n member vectors as the rows of one array, in
        span-enumeration order: row x sums the basis rows i for which
        bit i of x is set."""
        return _mask_bits(self.n) @ self.basis & 1


LAGRANGIAN_QUBIT_CAP = 3


def enumerate_lagrangians(n) -> list[Lagrangian]:
    """All maximal isotropic subspaces of Z_2^{2n}, each exactly once.

    Enumerates canonical RREF bases (pivot sets in lexicographic order,
    free entries in integer order) and keeps the isotropic ones, so the
    result order is deterministic; the bases of one pivot set are one
    stack, tested with one batched B P B^T.  Guarded to n <= 3; the
    counts are 3, 15, 135 for n = 1, 2, 3.
    """
    if n > LAGRANGIAN_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {LAGRANGIAN_QUBIT_CAP}")
    cols = 2 * n
    p = _p_form(n)
    out = []
    for pivots in combinations(range(cols), n):
        # free slots: right of the row's pivot, outside every pivot column
        free = np.arange(cols) > np.array(pivots, dtype=int)[:, None]
        free[:, pivots] = False
        rows, slots = np.nonzero(free)
        bases = np.zeros((1 << len(rows), n, cols), dtype=np.uint8)
        bases[:, range(n), pivots] = 1
        bases[:, rows, slots] = _mask_bits(len(rows))
        isotropic = ~(bases @ p @ bases.transpose(0, 2, 1) & 1).any(axis=(1, 2))
        out.extend(Lagrangian(basis) for basis in bases[isotropic])
    return out


def symplectic_complete(lag: Lagrangian):
    """Symplectic matrix whose first n columns span the given Lagrangian.

    Partner column i solves the pairing constraints with the columns
    found so far, read off one product cols P (P is symmetric); free
    variables default to zero, so the completion is deterministic.

    Raises:
        ValueError: propagated from Lagrangian validation if the input
            was built unsoundly.
    """
    n = lag.n
    p = _p_form(n)
    cols = np.concatenate([lag.basis, zeros(n, 2 * n)])
    for i in range(n):
        sol = solve(cols[: n + i] @ p & 1, ident(n + i)[i])
        if sol is None:
            raise AssertionError("symplectic completion has no solution")
        cols[n + i] = sol
    c = cols.T
    if not is_symplectic(c):
        raise AssertionError("completion is not symplectic")
    return c
