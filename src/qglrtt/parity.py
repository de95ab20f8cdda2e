"""Parity sequences for gl(m|n) and the root data attached to them.

A parity sequence of type (m|n) is a 01-string with m zeros and n ones;
position i (1-based) is even when s_i = 0 and odd when s_i = 1.  The signs
d_i = (-1)^{s_i} feed the bilinear form (eps_i|eps_j) = d_i delta_ij, and
the deformation parameters are q_i = q^{d_i}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .scalars import QScalar


class ParitySeq:
    """An ordered parity sequence, serialised as its literal 01 string."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        if isinstance(bits, ParitySeq):
            bits = bits.bits
        elif isinstance(bits, str):
            if not bits or any(c not in "01" for c in bits):
                raise ValueError("parity sequence must be a nonempty 01 string")
            bits = tuple(int(c) for c in bits)
        else:
            bits = tuple(int(b) for b in bits)
            if any(b not in (0, 1) for b in bits):
                raise ValueError("parity entries must be 0 or 1")
            if not bits:
                raise ValueError("parity sequence must be nonempty")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("ParitySeq instances are immutable")

    @staticmethod
    def standard(m, n):
        return ParitySeq((0,) * m + (1,) * n)

    @property
    def N(self):
        return len(self.bits)

    @property
    def m(self):
        return sum(1 for b in self.bits if b == 0)

    @property
    def n(self):
        return sum(1 for b in self.bits if b == 1)

    def parity(self, i):
        """Z_2 parity of position i (1-based)."""
        return self.bits[i - 1]

    def d(self, i):
        """Sign d_i = (-1)^{s_i}."""
        return -1 if self.bits[i - 1] else 1

    def q_i(self, i):
        """The parameter q_i = q^{d_i} as an exact scalar."""
        return QScalar.q_power(self.d(i))

    def is_standard(self):
        return self.bits == tuple(sorted(self.bits))

    def swap(self, i):
        """The sequence with positions i and i+1 exchanged (1-based)."""
        if not 1 <= i < self.N:
            raise ValueError("swap position out of range")
        b = list(self.bits)
        b[i - 1], b[i] = b[i], b[i - 1]
        return ParitySeq(b)

    def __eq__(self, other):
        return isinstance(other, ParitySeq) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __str__(self):
        return "".join(str(b) for b in self.bits)

    def __repr__(self):
        return "ParitySeq(%r)" % str(self)


def enumerate_sequences(m, n):
    """All parity sequences of type (m|n) in lexicographic order."""
    if m < 0 or n < 0 or m + n == 0:
        raise ValueError("need m, n >= 0 with m + n >= 1")
    N = m + n
    out = []
    for ones in combinations(range(N), n):
        bits = [0] * N
        for p in ones:
            bits[p] = 1
        out.append(ParitySeq(bits))
    out.sort(key=lambda s: s.bits)
    return out


# ---------------------------------------------------------------------------
# roots


def positive_roots(s):
    """All positive roots eps_i - eps_j as index pairs (i, j) with i < j."""
    s = ParitySeq(s)
    return [(i, j) for i in range(1, s.N + 1) for j in range(i + 1, s.N + 1)]


def even_positive_roots(s):
    s = ParitySeq(s)
    return [(i, j) for (i, j) in positive_roots(s) if s.parity(i) == s.parity(j)]


def odd_positive_roots(s):
    s = ParitySeq(s)
    return [(i, j) for (i, j) in positive_roots(s) if s.parity(i) != s.parity(j)]


def bilinear_form(s, x, y):
    """The super bilinear form (x|y) = sum_i d_i x_i y_i on eps coordinates."""
    s = ParitySeq(s)
    return sum(s.d(i + 1) * x[i] * y[i] for i in range(s.N))


def rho_vector(s):
    """Coordinates of 2*rho_s: the graded half-sum doubled.

    2*rho_s = sum of even positive roots minus sum of odd positive roots,
    computed directly from the root list, so the vector is correct for
    every parity sequence (the positive system depends on s through the
    grading only; the index pairs are always i < j).
    """
    s = ParitySeq(s)
    v = [0] * s.N
    for (i, j) in even_positive_roots(s):
        v[i - 1] += 1
        v[j - 1] -= 1
    for (i, j) in odd_positive_roots(s):
        v[i - 1] -= 1
        v[j - 1] += 1
    return tuple(v)


def rho_fractions(s):
    """rho_s itself, as exact fractions (half the integer vector above)."""
    return tuple(Fraction(c, 2) for c in rho_vector(s))


def hash_count(s, i, j):
    """#_{(i,j)}: among positions strictly between i and j, the number of
    odd ones when i, j are both even, and of even ones when both odd."""
    s = ParitySeq(s)
    if not 1 <= i < j <= s.N:
        raise ValueError("need 1 <= i < j <= N")
    pi, pj = s.parity(i), s.parity(j)
    if pi != pj:
        raise ValueError("#_{(i,j)} is defined for equal-parity pairs only")
    inner = s.bits[i : j - 1]
    if pi == 0:
        return sum(1 for b in inner if b == 1)
    return sum(1 for b in inner if b == 0)


def sort_to_standard(s):
    """Positions of adjacent transpositions sorting s to 0^m 1^n.

    Repeated left-to-right passes; each '10' found is swapped to '01' and
    its (1-based) position recorded.  Applying the swaps in the returned
    order to s yields the standard sequence.
    """
    s = ParitySeq(s)
    bits = list(s.bits)
    word = []
    moved = True
    while moved:
        moved = False
        for i in range(len(bits) - 1):
            if bits[i] == 1 and bits[i + 1] == 0:
                bits[i], bits[i + 1] = bits[i + 1], bits[i]
                word.append(i + 1)
                moved = True
    return word
