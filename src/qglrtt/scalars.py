"""Exact arithmetic in the field Q(q) of rational functions in one variable q.

Elements are ratios of Laurent polynomials with arbitrary-precision integer
coefficients, kept in a canonical form:

* numerator and denominator are ordinary polynomials in q (no negative
  exponents) with at least one of them having a nonzero constant term,
* they are coprime in Z[q] (integer content included),
* the lowest-degree coefficient of the denominator is positive.

So ``q - q^-1`` is stored as ``(q^2 - 1)/q`` and ``(q^2-1)/(q-1)`` reduces
to ``q + 1``.  No floating point is used anywhere.

Nearly every value met in practice has a monomial denominator, and the
kernel reduces those without polynomial arithmetic; every path below ends
in the same canonical pair, because the canonical form of an element of
Q(q) is unique:

* ``poly_gcd`` with an operand ``c q^e`` returns ``q^min(e, f) g``, where
  ``f`` is the other operand's lowest exponent and ``g`` is the integer gcd
  of ``c`` and its coefficients: the divisors of ``c q^e`` are the ``d q^k``
  with ``d | c`` and ``k <= e``.  Only two operands of two or more terms
  reach the pseudo-remainder sequence.
* ``QScalar`` skips the gcd when, after the common power of q is removed,
  the denominator is ``+-q^k``: a common factor would be a power of q, and
  one of the pair has a nonzero constant term, so the pair is coprime and
  only the sign is fixed.
* Products of two polynomials (denominator 1), ``inverse`` (the swapped
  pair of a canonical pair is coprime) and ``stretch`` (q -> q^d keeps
  every coefficient, so coprimality, content and the constant terms) build
  their result without a gcd; a sum over one denominator reduces the sum
  of the numerators over it, without cross products.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from operator import attrgetter


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
        return _LZERO

    @staticmethod
    def one():
        return _LONE

    @staticmethod
    def const(c):
        c = int(c)
        return _laurent((c,), 0) if c else _LZERO

    @staticmethod
    def q_pow(e):
        return _laurent((1,), int(e))

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
        return _laurent(tuple([-c for c in self.coeffs]), self.offset)

    def __add__(self, other):
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        if self.offset > other.offset:
            self, other = other, self
        out = list(self.coeffs)
        d = other.offset - self.offset
        grow = d + len(other.coeffs) - len(out)
        if grow > 0:
            out += [0] * grow
        for k, c in enumerate(other.coeffs, d):
            if c:
                out[k] += c
        return Laurent(out, self.offset)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _LZERO
        offset = self.offset + other.offset
        # a monomial factor scales and shifts; Z has no zero divisors, so
        # the end coefficients of a product stay nonzero (already trimmed)
        if len(b) == 1:
            c = b[0]
            return _laurent(a if c == 1 else tuple([x * c for x in a]), offset)
        if len(a) == 1:
            c = a[0]
            return _laurent(b if c == 1 else tuple([x * c for x in b]), offset)
        out = [0] * (len(a) + len(b) - 1)
        # stretched operands are mostly zeros: pair nonzero terms only
        bn = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in bn:
                    out[i + j] += x * y
        return _laurent(tuple(out), offset)

    def scale(self, c):
        c = int(c)
        if c == 0:
            return _LZERO
        if c == 1:
            return self
        return _laurent(tuple([v * c for v in self.coeffs]), self.offset)

    def shift(self, e):
        """Multiply by q^e."""
        if not e or not self.coeffs:
            return self
        return _laurent(self.coeffs, self.offset + e)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        if len(self.coeffs) == 1:
            return _laurent((self.coeffs[0] ** n,), self.offset * n)
        out = _LONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def subs_q_inverse(self):
        """The image under q -> q^{-1}."""
        if not self.coeffs:
            return self
        return _laurent(self.coeffs[::-1], -self.high)

    def stretch(self, d):
        """The image under q -> q^d for a positive integer d."""
        d = int(d)
        if d <= 0:
            raise ValueError("stretch factor must be positive")
        if d == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * d + 1)
        out[::d] = self.coeffs
        return _laurent(tuple(out), self.offset * d)

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


_set_coeffs = Laurent.coeffs.__set__
_set_offset = Laurent.offset.__set__


def _laurent(coeffs, offset):
    """A Laurent from a coefficient tuple that is already trimmed."""
    p = object.__new__(Laurent)
    _set_coeffs(p, coeffs)
    _set_offset(p, offset)
    return p


_LZERO = Laurent()
_LONE = Laurent((1,))


# The general gcd and division work on coefficient lists, constant term
# first, with no trailing zeros.


def _pseudo_rem(a, b):
    """Pseudo-remainder of coefficient lists a, b in Z[q]."""
    lb = b[-1]
    nb = len(b)
    bn = [(j, y) for j, y in enumerate(b) if y]
    r = a
    while len(r) >= nb:
        lr = r[-1]
        k = len(r) - nb
        if lb != 1:
            r = [c * lb for c in r]
        else:
            r = list(r)
        for j, y in bn:
            r[k + j] -= lr * y
        while r and not r[-1]:
            r.pop()
    return r


def _content(cs, g=0):
    """The gcd of g and the coefficients cs, stopping once it reaches 1."""
    for c in cs:
        if g == 1:
            break
        g = _int_gcd(g, c)
    return g


def _primitive(cs):
    """The coefficient list divided by its content."""
    g = _content(cs)
    return [c // g for c in cs] if g > 1 else cs


def poly_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Gcd in Z[q] of two polynomials (nonnegative offsets), content included.

    Normalised so the leading coefficient is positive.  gcd(0, 0) = 0.
    """
    if not a.coeffs:
        g = b
    elif not b.coeffs:
        g = a
    elif len(a.coeffs) == 1 or len(b.coeffs) == 1:
        # the divisors of c q^e are the monomials d q^f with d | c, f <= e
        if len(b.coeffs) == 1:
            a, b = b, a
        c = _content(b.coeffs, abs(a.coeffs[0]))
        return _laurent((c,), min(a.offset, b.offset))
    else:
        # primitive parts with the q-power removed; the gcd keeps the
        # common power of q and the gcd of the contents
        ca, cb = _content(a.coeffs), _content(b.coeffs)
        pa = [c // ca for c in a.coeffs]
        pb = [c // cb for c in b.coeffs]
        while pb:
            pa, pb = pb, _primitive(_pseudo_rem(pa, pb))
        g = Laurent(pa, min(a.offset, b.offset)).scale(_int_gcd(ca, cb))
    if g.coeffs and g.coeffs[-1] < 0:
        g = -g
    return g


def poly_exact_div(a: Laurent, b: Laurent) -> Laurent:
    """Exact quotient a / b in Z[q]; raises if the division is not exact."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return _LZERO
    # long division from the top; b has a nonzero constant term, so q^e
    # with e = a.low - b.low factors out of an exact quotient
    e = a.offset - b.offset
    bc = b.coeffs
    nb = len(bc)
    nq = len(a.coeffs) - nb + 1
    if e < 0 or nq <= 0:
        raise ArithmeticError("inexact polynomial division")
    lb = bc[-1]
    bn = [(j, y) for j, y in enumerate(bc) if y]
    r = list(a.coeffs)
    out = [0] * nq
    for k in range(nq - 1, -1, -1):
        c = r[k + nb - 1]
        if c:
            cq, rem = divmod(c, lb)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            out[k] = cq
            for j, y in bn:
                r[k + j] -= cq * y
    if any(r[: nb - 1]):
        raise ArithmeticError("inexact polynomial division")
    return _laurent(tuple(out), e)


# ---------------------------------------------------------------------------
# The field Q(q)


class QScalar:
    """An element of Q(q) in canonical reduced form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = Laurent.const(num)
        if den is None:
            den = _LONE
        elif isinstance(den, int):
            den = Laurent.const(den)
        if not den.coeffs:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num.coeffs:
            _set_num(self, _LZERO)
            _set_den(self, _LONE)
            return
        # clear negative exponents, then ensure a nonzero constant term
        sh = min(num.offset, den.offset)
        num = num.shift(-sh)
        den = den.shift(-sh)
        # a denominator +-q^k is coprime to num already: a common factor
        # would be a power of q, and the shift left one of them with a
        # nonzero constant term
        dc = den.coeffs
        if len(dc) != 1 or (dc[0] != 1 and dc[0] != -1):
            g = poly_gcd(num, den)
            if not g.is_one():
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
        if den.coeffs[0] < 0:
            num = -num
            den = -den
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("QScalar instances are immutable")

    # -- constructors

    @staticmethod
    def zero():
        return QZERO

    @staticmethod
    def one():
        return QONE

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
            return _qscalar(Laurent.q_pow(e), _LONE)
        return _qscalar(_LONE, Laurent.q_pow(-e))

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
        return _qscalar(-self.num, self.den)

    def __add__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        if self.den == other.den:
            return QScalar(self.num + other.num, self.den)
        return QScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        if self.den == other.den:
            return QScalar(self.num - other.num, self.den)
        return QScalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = QScalar(other)
        # most straightening steps carry the unit
        if self is QONE:
            return other
        if other is QONE:
            return self
        sd, od = self.den, other.den
        if sd.coeffs == (1,) == od.coeffs and not sd.offset and not od.offset:
            # polynomial times polynomial is canonical over the denominator 1
            return _qscalar(self.num * other.num, _LONE)
        return QScalar(self.num * other.num, sd * od)

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
        num, den = self.num, self.den
        if not num.coeffs:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        # the swapped pair is still coprime with a constant term
        if num.coeffs[0] < 0:
            return _qscalar(-den, -num)
        return _qscalar(den, num)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        return _qscalar(self.num ** n, self.den ** n)

    def subs_q_inverse(self):
        """The image under the field automorphism q -> q^{-1}."""
        return QScalar(self.num.subs_q_inverse(), self.den.subs_q_inverse())

    def stretch(self, d):
        """The image under q -> q^d (an embedding of Q(q) into itself)."""
        # q -> q^d keeps every coefficient, coprimality and the constant
        # terms, so the image of a canonical pair is canonical
        return _qscalar(self.num.stretch(d), self.den.stretch(d))

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


_set_num = QScalar.num.__set__
_set_den = QScalar.den.__set__


def _qscalar(num, den):
    """A QScalar from a pair that is already canonical."""
    x = object.__new__(QScalar)
    _set_num(x, num)
    _set_den(x, den)
    return x


QZERO = _qscalar(_LZERO, _LONE)
QONE = _qscalar(_LONE, _LONE)
Q = QScalar.q_power(1)

_numerator = attrgetter("num")


def over_one_denominator(values):
    """One denominator for QScalar ``values``, and their numerators over it.

    Returns ``(L, numerator)``: ``numerator(c)`` is a Laurent polynomial
    with ``numerator(c) / L == c`` for each value of the collection
    ``values``.  A canonical denominator is q^k p with p(0) != 0, and L is
    q^K P for the largest k and the lcm P of the parts p other than 1,
    integer content included; a value n / (q^k p) has the numerator
    n q^(K-k) (P / p), so a value whose denominator is a power of q has the
    cofactor P.  The lcm and each P / p are computed once per distinct
    part: not at all when every denominator is a power of q, which costs
    only a shift, and with no gcd when there is one part.  A lone value is
    its own numerator over its denominator.
    """
    if len(values) == 1:
        (c,) = values
        return c.den, _numerator
    K = 0
    parts = {}
    for c in values:
        d = c.den
        if d.offset > K:
            K = d.offset
        if d.coeffs != (1,) and d.coeffs not in parts:
            parts[d.coeffs] = d.shift(-d.offset)
    if not parts:
        return _LONE.shift(K), lambda c: c.num.shift(K - c.den.offset)
    P = None
    for p in parts.values():
        P = p if P is None else P * poly_exact_div(p, poly_gcd(P, p))
    cofactors = {
        key: _LONE if p is P else poly_exact_div(P, p) for key, p in parts.items()
    }
    cofactors[(1,)] = P

    def numerator(c):
        d = c.den
        return (c.num * cofactors[d.coeffs]).shift(K - d.offset)

    return P.shift(K), numerator


def add_term(terms, key, value):
    """Add ``value`` at ``key`` of a sparse sum, which never holds a zero.

    Normal forms, vectors and matrices compare as plain dicts, so equal
    sums compare equal only while no entry is zero: a zero ``value`` is not
    stored, and a key whose sum cancels is deleted.  Values need only
    ``+`` and ``is_zero()``, so scalars and matrices alike are summed.
    """
    cur = terms.get(key)
    if cur is None:
        if not value.is_zero():
            terms[key] = value
    else:
        total = cur + value
        if total.is_zero():
            del terms[key]
        else:
            terms[key] = total


class SparseSum:
    """A sparse sum ``{key: value}`` over one context that never holds a zero.

    Normal forms, matrices and matrix series are such sums; a subclass
    supplies only its context (``_context``: a parity sequence, a space)
    and a sum of its own type and context (``_like(terms)``).  Zeros are
    dropped on construction and :func:`add_term` keeps them out, so equal
    sums compare equal.  ``copy`` is shallow: it shares the stored values,
    which is safe because ``add_term`` never mutates a stored value (it
    rebinds ``cur + value``).  ``Mat.add_to`` and ``Mat.set`` do mutate a
    matrix; no library code calls them on a value taken from another sum.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    self.terms[k] = v

    def is_zero(self):
        return not self.terms

    def copy(self):
        out = self._like(None)
        out.terms = dict(self.terms)
        return out

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._context() == other._context()
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self._context() != other._context():
            raise ValueError(
                "cannot add sums over %r and %r"
                % (self._context(), other._context())
            )
        out = self.copy()
        for k, v in other.terms.items():
            add_term(out.terms, k, v)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        """Every value times the scalar ``c``."""
        if c.is_zero():
            return self._like(None)
        return self._like({k: c * v for k, v in self.terms.items()})


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
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > _Parser.MAX_DIGITS:
                raise ScalarParseError(
                    "integer literal of %d digits exceeds the cap of %d"
                    % (j - i, _Parser.MAX_DIGITS)
                )
            toks.append(int(text[i:j]))
            i = j
            continue
        if ch == "q":
            toks.append("q")
            i += 1
            continue
        raise ScalarParseError("unexpected character %r in scalar expression" % ch)
    return toks


def _size(p):
    """Degree and bit length of the coefficient 1-norm of a polynomial."""
    return p.high, sum(abs(c) for c in p.coeffs).bit_length()


def _size_product(a, b):
    return a[0] + b[0], a[1] + b[1]


class _Parser:
    # Caps on the work one expression may ask for, see qscalar_parse.
    MAX_EXPONENT = 64
    MAX_DEGREE = 64
    MAX_COEFF_BITS = 128
    MAX_DIGITS = len(str(1 << MAX_COEFF_BITS))
    MAX_DEPTH = 64

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0

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
            self.check_binary(op, val, rhs)
            val = val + rhs if op == "+" else val - rhs
        return val

    def parse_term(self):
        val = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            self.check_binary(op, val, rhs)
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
            if e > self.MAX_EXPONENT:
                raise ScalarParseError(
                    "exponent %d exceeds the cap of %d" % (e, self.MAX_EXPONENT)
                )
            num, den = _size(val.num), _size(val.den)
            if esign < 0:
                num, den = den, num
            self.check_size((e * num[0], e * num[1]), (e * den[0], e * den[1]))
            val = val ** (esign * e)
        return val if sign == 1 else -val

    def parse_atom(self):
        t = self.peek()
        if t == "(":
            if self.depth == self.MAX_DEPTH:
                raise ScalarParseError(
                    "nesting depth %d exceeds the cap of %d"
                    % (self.depth + 1, self.MAX_DEPTH)
                )
            self.take()
            self.depth += 1
            val = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return val
        if t == "q":
            self.take()
            return Q
        if isinstance(t, int):
            self.take()
            val = QScalar(t)
            self.check_size(_size(val.num), _size(val.den))
            return val
        raise ScalarParseError("unexpected token %r" % (t,))

    def check_binary(self, op, a, b):
        """Check the sizes of the unreduced a op b before it is computed."""
        na, da = _size(a.num), _size(a.den)
        nb, db = _size(b.num), _size(b.den)
        if op == "*":
            num, den = _size_product(na, nb), _size_product(da, db)
        elif op == "/":
            num, den = _size_product(na, db), _size_product(da, nb)
        else:
            # na*db +- nb*da: the larger size, plus one bit for the sum
            u, v = _size_product(na, db), _size_product(nb, da)
            num = max(u[0], v[0]), max(u[1], v[1]) + 1
            den = _size_product(da, db)
        self.check_size(num, den)

    def check_size(self, num, den):
        for deg, bits in (num, den):
            if deg > self.MAX_DEGREE:
                raise ScalarParseError(
                    "degree %d exceeds the cap of %d" % (deg, self.MAX_DEGREE)
                )
            if bits > self.MAX_COEFF_BITS:
                raise ScalarParseError(
                    "coefficients of %d bits exceed the cap of %d"
                    % (bits, self.MAX_COEFF_BITS)
                )


def qscalar_parse(text):
    """Parse an expression in q (+, -, *, /, ^, parentheses) into a QScalar.

    The work one expression can ask for is capped.  Each cap is checked
    before the value it limits is computed, and breaking one raises
    ScalarParseError, as do malformed input and division by zero:

    * an exponent ``^e`` has |e| <= 64;
    * every numerator and denominator that an operation hands to the
      canonical form, before reduction, has degree <= 64 and a coefficient
      1-norm of at most 128 bits.  The sizes are bounded from the operands
      (deg fg <= deg f + deg g, |fg|_1 <= |f|_1 |g|_1), so the caps hold
      for every intermediate value: ``(1+q)^64`` and ``2^64`` pass, ``2^65``
      and ``(1+q)^32 * (1+q)^33`` do not;
    * an integer literal has at most 39 digits;
    * parentheses nest at most 64 deep.
    """
    toks = _tokenize(text)
    if not toks:
        raise ScalarParseError("empty scalar expression")
    p = _Parser(toks)
    try:
        val = p.parse_expr()
    except ZeroDivisionError as exc:
        raise ScalarParseError(str(exc)) from None
    if p.peek() is not None:
        raise ScalarParseError("trailing input at token %r" % (p.peek(),))
    return val
