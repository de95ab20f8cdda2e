"""Exact arithmetic in the field Q(q) of rational functions in one variable q.

Elements are ratios of Laurent polynomials with arbitrary-precision integer
coefficients, kept in a canonical form:

* numerator and denominator are ordinary polynomials in q (no negative
  exponents) with at least one of them having a nonzero constant term,
* they are coprime in Z[q] (integer content included),
* the lowest-degree coefficient of the denominator is positive.

So ``q - q^-1`` is stored as ``(q^2 - 1)/q`` and ``(q^2-1)/(q-1)`` reduces
to ``q + 1``.  No floating point is used anywhere.
"""

from __future__ import annotations

from math import gcd as _int_gcd


# ---------------------------------------------------------------------------
# Laurent polynomials over Z


class Laurent:
    """A Laurent polynomial sum_{e} c_e q^e with integer coefficients.

    Stored as a dense coefficient tuple together with the exponent of its
    first entry; the tuple is trimmed so its first and last entries are
    nonzero (the zero polynomial is the empty tuple at offset 0).
    """

    __slots__ = ("coeffs", "offset")

    def __init__(self, coeffs=(), offset=0):
        coeffs = list(coeffs)
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "coeffs", ())
            object.__setattr__(self, "offset", 0)
        else:
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))
            object.__setattr__(self, "offset", offset + lo)

    def __setattr__(self, name, value):
        raise AttributeError("Laurent instances are immutable")

    # -- constructors

    @staticmethod
    def zero():
        return Laurent()

    @staticmethod
    def one():
        return Laurent((1,))

    @staticmethod
    def const(c):
        return Laurent((int(c),))

    @staticmethod
    def q_pow(e):
        return Laurent((1,), int(e))

    # -- structure

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,) and self.offset == 0

    @property
    def low(self):
        """Lowest exponent with nonzero coefficient (0 for the zero poly)."""
        return self.offset

    @property
    def high(self):
        """Highest exponent with nonzero coefficient (0 for the zero poly)."""
        return self.offset + len(self.coeffs) - 1 if self.coeffs else 0

    def __eq__(self, other):
        return (
            isinstance(other, Laurent)
            and self.coeffs == other.coeffs
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.coeffs, self.offset))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic

    def __neg__(self):
        return Laurent(tuple(-c for c in self.coeffs), self.offset)

    def __add__(self, other):
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.high, other.high)
        out = [0] * (hi - lo + 1)
        for k, c in enumerate(self.coeffs):
            out[self.offset - lo + k] += c
        for k, c in enumerate(other.coeffs):
            out[other.offset - lo + k] += c
        return Laurent(out, lo)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Laurent()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Laurent(out, self.offset + other.offset)

    def scale(self, c):
        c = int(c)
        if c == 0:
            return Laurent()
        return Laurent(tuple(v * c for v in self.coeffs), self.offset)

    def shift(self, e):
        """Multiply by q^e."""
        if not self.coeffs:
            return self
        return Laurent(self.coeffs, self.offset + e)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = Laurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def subs_q_inverse(self):
        """The image under q -> q^{-1}."""
        if not self.coeffs:
            return self
        return Laurent(tuple(reversed(self.coeffs)), -self.high)

    def stretch(self, d):
        """The image under q -> q^d for a positive integer d."""
        d = int(d)
        if d <= 0:
            raise ValueError("stretch factor must be positive")
        if d == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * d + 1)
        for k, c in enumerate(self.coeffs):
            out[k * d] = c
        return Laurent(out, self.offset * d)

    # -- Z[q] helpers (used on polynomials, i.e. offset >= 0)

    def content(self):
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, abs(c))
        return g

    def primitive(self):
        g = self.content()
        if g in (0, 1):
            return self
        return Laurent(tuple(c // g for c in self.coeffs), self.offset)

    # -- printing

    def to_string(self, exp_denom=1):
        """Canonical expression string; exponents divided by exp_denom."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            e = self.offset + k
            parts.append((c, e))
        pieces = []
        for idx, (c, e) in enumerate(parts):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if exp_denom == 1:
                    es = str(e)
                else:
                    from fractions import Fraction

                    fe = Fraction(e, exp_denom)
                    es = str(fe)
                qp = "q" if es == "1" else "q^" + es
                body = qp if mag == 1 else "%d*%s" % (mag, qp)
            if idx == 0:
                pieces.append(("-" if sign == "-" else "") + body)
            else:
                pieces.append(" %s %s" % (sign, body))
        return "".join(pieces)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "Laurent(%r, %r)" % (self.coeffs, self.offset)


def _pseudo_rem(a: Laurent, b: Laurent) -> Laurent:
    """Pseudo-remainder of polynomials a, b in Z[q] (offsets assumed 0)."""
    da, db = a.high, b.high
    lb = b.coeffs[-1]
    r = a
    while r.coeffs and r.high >= db:
        k = r.high - db
        lr = r.coeffs[-1]
        r = r.scale(lb) - b.scale(lr).shift(k)
    return r


def poly_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Gcd in Z[q] of two polynomials (nonnegative offsets), content included.

    Normalised so the leading coefficient is positive.  gcd(0, 0) = 0.
    """
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        ca, cb = a.content(), b.content()
        # common power of q
        sh = min(a.low, b.low)
        pa, pb = a.primitive().shift(-a.low), b.primitive().shift(-b.low)
        while not pb.is_zero():
            r = _pseudo_rem(pa, pb)
            pa, pb = pb, r.primitive()
        g = pa.primitive().shift(sh).scale(_int_gcd(ca, cb))
    if g.coeffs and g.coeffs[-1] < 0:
        g = -g
    return g


def poly_exact_div(a: Laurent, b: Laurent) -> Laurent:
    """Exact quotient a / b in Z[q]; raises if the division is not exact."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return Laurent()
    sh = b.low
    a = a.shift(-sh)
    b = b.shift(-sh)
    if a.low < 0:
        raise ArithmeticError("inexact polynomial division")
    out = {}
    r = a
    lb = b.coeffs[-1]
    while r.coeffs:
        if r.high < b.high:
            raise ArithmeticError("inexact polynomial division")
        cq, rem = divmod(r.coeffs[-1], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        e = r.high - b.high
        out[e] = cq
        r = r - b.scale(cq).shift(e)
    if not out:
        return Laurent()
    hi = max(out)
    dense = [0] * (hi + 1)
    for e, c in out.items():
        dense[e] = c
    return Laurent(dense)


# ---------------------------------------------------------------------------
# The field Q(q)


class QScalar:
    """An element of Q(q) in canonical reduced form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = Laurent.const(num)
        if den is None:
            den = Laurent.one()
        elif isinstance(den, int):
            den = Laurent.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(q)")
        if num.is_zero():
            object.__setattr__(self, "num", Laurent.zero())
            object.__setattr__(self, "den", Laurent.one())
            return
        # clear negative exponents, then ensure a nonzero constant term
        sh = min(num.low, den.low)
        num = num.shift(-sh)
        den = den.shift(-sh)
        g = poly_gcd(num, den)
        if not g.is_one():
            num = poly_exact_div(num, g)
            den = poly_exact_div(den, g)
        if den.coeffs[0] < 0:
            num = -num
            den = -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QScalar instances are immutable")

    # -- constructors

    @staticmethod
    def zero():
        return QScalar(0)

    @staticmethod
    def one():
        return QScalar(1)

    @staticmethod
    def from_int(c):
        return QScalar(int(c))

    @staticmethod
    def from_fraction(fr):
        return QScalar(Laurent.const(fr.numerator), Laurent.const(fr.denominator))

    @staticmethod
    def q_power(e):
        e = int(e)
        if e >= 0:
            return QScalar(Laurent.q_pow(e))
        return QScalar(Laurent.one(), Laurent.q_pow(-e))

    # -- structure

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        return (
            isinstance(other, QScalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic

    def __neg__(self):
        out = object.__new__(QScalar)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __add__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        return QScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        return QScalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        return QScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        return QScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        return other / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return QScalar(self.den, self.num)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        out = object.__new__(QScalar)
        object.__setattr__(out, "num", self.num ** n)
        object.__setattr__(out, "den", self.den ** n)
        return out

    def subs_q_inverse(self):
        """The image under the field automorphism q -> q^{-1}."""
        return QScalar(self.num.subs_q_inverse(), self.den.subs_q_inverse())

    def stretch(self, d):
        """The image under q -> q^d (an embedding of Q(q) into itself)."""
        return QScalar(self.num.stretch(d), self.den.stretch(d))

    # -- printing

    def to_string(self, exp_denom=1):
        ns = self.num.to_string(exp_denom)
        if self.den.is_one():
            return ns
        ds = self.den.to_string(exp_denom)
        if len(self.num.coeffs) > 1:
            ns = "(" + ns + ")"
        # the denominator must be a single atom to survive reparsing
        if len(self.den.coeffs) > 1 or (
            self.den.coeffs[0] != 1 and self.den.low != 0
        ):
            ds = "(" + ds + ")"
        return ns + "/" + ds

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "QScalar<%s>" % self.to_string()


QZERO = QScalar.zero()
QONE = QScalar.one()
Q = QScalar.q_power(1)


# ---------------------------------------------------------------------------
# Expression parser for Q(q)


class ScalarParseError(ValueError):
    pass


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append(ch)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
            continue
        if ch == "q":
            toks.append("q")
            i += 1
            continue
        raise ScalarParseError("unexpected character %r in scalar expression" % ch)
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, t):
        if self.peek() != t:
            raise ScalarParseError("expected %r, found %r" % (t, self.peek()))
        self.take()

    def parse_expr(self):
        val = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def parse_term(self):
        val = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            val = val * rhs if op == "*" else val / rhs
        return val

    def parse_factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        val = self.parse_atom()
        if self.peek() == "^":
            self.take()
            esign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    esign = -esign
            e = self.take()
            if not isinstance(e, int):
                raise ScalarParseError("exponent must be an integer")
            val = val ** (esign * e)
        return val if sign == 1 else -val

    def parse_atom(self):
        t = self.peek()
        if t == "(":
            self.take()
            val = self.parse_expr()
            self.expect(")")
            return val
        if t == "q":
            self.take()
            return Q
        if isinstance(t, int):
            self.take()
            return QScalar(t)
        raise ScalarParseError("unexpected token %r" % (t,))


def qscalar_parse(text):
    """Parse an expression in q (+, -, *, /, ^, parentheses) into a QScalar."""
    toks = _tokenize(text)
    if not toks:
        raise ScalarParseError("empty scalar expression")
    p = _Parser(toks)
    val = p.parse_expr()
    if p.peek() is not None:
        raise ScalarParseError("trailing input at token %r" % (p.peek(),))
    return val
