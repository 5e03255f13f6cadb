"""Exact n-qubit Pauli group arithmetic in (delta, epsilon, a) coordinates.

A group element is i**delta * (-1)**epsilon * tau_a with a = (v; w) in
Z_2^{2n}: z-part v in the top half, x-part w in the bottom half, and
tau_{vw} = sigma_z**v sigma_x**w on each qubit.  All modules share this
coordinate convention.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from . import gf2

DENSE_QUBIT_CAP = 10

_PARSE_RE = re.compile(r"([+-])(i\.)?tau\[([01]+)\|([01]+)\]")


class PhasedPauli:
    """A Pauli group element i**delta (-1)**epsilon tau_a.

    Two elements are equal iff all three coordinates agree; the phase
    is part of the value, not a gauge.
    """

    __slots__ = ("delta", "epsilon", "a")

    def __init__(self, delta, epsilon, a):
        a = gf2.frozenbits(a)
        if a.ndim != 1 or a.size % 2:
            raise ValueError(f"bad coordinate vector of shape {a.shape}")
        self.delta = int(delta) & 1
        self.epsilon = int(epsilon) & 1
        self.a = a

    @classmethod
    def identity(cls, n):
        return cls(0, 0, np.zeros(2 * n, dtype=np.uint8))

    @property
    def n(self) -> int:
        return self.a.size // 2

    @property
    def v(self):
        """z-part (top half of a)."""
        return self.a[: self.n]

    @property
    def w(self):
        """x-part (bottom half of a)."""
        return self.a[self.n :]

    @property
    def phase(self) -> complex:
        return (1j ** self.delta) * ((-1.0) ** self.epsilon)

    def __eq__(self, other):
        return (
            isinstance(other, PhasedPauli)
            and self.delta == other.delta
            and self.epsilon == other.epsilon
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.delta, self.epsilon, self.a.tobytes()))

    def __repr__(self):
        sign = "-" if self.epsilon else "+"
        ipart = "i." if self.delta else ""
        vbits = "".join(str(int(b)) for b in self.v)
        wbits = "".join(str(int(b)) for b in self.w)
        return f"{sign}{ipart}tau[{vbits}|{wbits}]"

    @classmethod
    def parse(cls, text):
        m = _PARSE_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"unparseable Pauli literal: {text!r}")
        sign, ipart, vbits, wbits = m.groups()
        if len(vbits) != len(wbits):
            raise ValueError(f"z/x parts differ in length: {text!r}")
        a = np.array([int(b) for b in vbits + wbits], dtype=np.uint8)
        return cls(1 if ipart else 0, 1 if sign == "-" else 0, a)


def _check_same_n(p, q):
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")


def pauli_mul(p: PhasedPauli, q: PhasedPauli) -> PhasedPauli:
    """Group product p * q."""
    _check_same_n(p, q)
    j = gf2.j_mat(p.n)
    delta = p.delta ^ q.delta
    cross = gf2.dot(q.a, gf2.mat_mul(j, p.a))
    epsilon = p.epsilon ^ q.epsilon ^ (p.delta & q.delta) ^ cross
    return PhasedPauli(delta, epsilon, p.a ^ q.a)


def commutes(p: PhasedPauli, q: PhasedPauli) -> bool:
    """Whether p and q commute (phases are irrelevant)."""
    _check_same_n(p, q)
    return gf2.dot(q.a, gf2.mat_mul(gf2.p_mat(p.n), p.a)) == 0


def is_hermitian_pauli(p: PhasedPauli) -> bool:
    """Hermiticity of the dense realization: delta == v . w mod 2."""
    return p.delta == gf2.dot(p.v, p.w)


def check_dense_cap(n):
    """Raise before a 2^n x 2^n matrix is allocated past DENSE_QUBIT_CAP."""
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the dense cap {DENSE_QUBIT_CAP}")


@lru_cache(maxsize=None)
def _label_tables(n):
    """Basis labels 0..2^n-1, their popcount signs (-1)**|x|, bit weights."""
    labels = np.arange(1 << n)
    signs = np.ones(1 << n)
    for i in range(n):
        signs[1 << i : 2 << i] = -signs[: 1 << i]
    weights = 1 << np.arange(n - 1, -1, -1)
    for arr in (labels, signs, weights):
        arr.flags.writeable = False
    return labels, signs, weights


def pauli_action(n, a):
    """tau_a on n qubits as a signed permutation (perm, signs).

    tau_a @ m == signs[:, None] * m[perm]: row r of tau_a holds
    (-1)**(v . r) in column r + w, with qubit 0 the most significant bit
    of a label.  Every dense build and conjugation of tau_a in the
    package goes through here.  Rows of a 2-d a give one (perm, signs)
    row each.
    """
    check_dense_cap(n)
    labels, popsigns, weights = _label_tables(n)
    a = np.asarray(a)
    wint = (a[..., n:] @ weights)[..., None]
    vint = (a[..., :n] @ weights)[..., None]
    return labels ^ wint, popsigns[labels & vint]


def pauli_to_dense(p: PhasedPauli) -> np.ndarray:
    """Exact 2^n x 2^n matrix of p; entries lie in {0, +-1, +-i}."""
    perm, signs = pauli_action(p.n, p.a)
    out = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    out[_label_tables(p.n)[0], perm] = p.phase * signs
    return out


def pauli_apply_basis(p: PhasedPauli, x):
    """Apply p to the basis state |x>.

    Returns (phase, label): p|x> = phase |label> with label = x + w and
    phase = i**delta (-1)**(epsilon + v.(x+w)).
    """
    x = gf2.asbits(x)
    if x.ndim != 1 or x.size != p.n:
        raise ValueError(f"basis label has length {x.size}, expected {p.n}")
    flipped = x ^ p.w
    sign = gf2.dot(p.v, flipped)
    phase = (1j ** p.delta) * ((-1.0) ** ((p.epsilon + sign) & 1))
    return phase, flipped
