"""The R-matrix presentation of the quantum general linear superalgebra.

Generators are the lower-triangular t_{ij} (i >= j), the upper-triangular
tbar_{ij} (i <= j), and the inverses tbar_{ii}^{-1} = t_{ii}; the parity of
t_{ij} and tbar_{ij} is |i| + |j|.  Elements are kept in normal form with
respect to the PBW basis of ordered monomials

    prod_i  t_{i,i-1}  t_{i,i-2} ... t_{i,1}        (lowering block)
    prod_i  tbar_{ii}^Z                             (diagonal block)
    prod_i  tbar_{1,i} tbar_{2,i} ... tbar_{i-1,i}  (raising block)

with exponents in Z_+ for even off-diagonal generators, {0,1} for odd ones,
and Z on the diagonal.  Straightening multiplies a normal form by one
letter at a time (:func:`_product`); the letter moves left past the larger
letters, past a diagonal generator by a power of q.  The rule for a
non-diagonal pair g1 = (., a, b) before g2 = (., c, d) is not written out:
it is relation instance (c, d, a, b) of the family of g2 g1 in the R-matrix
expansion (:func:`relation_expansion`), solved for g1 g2.  Its first word
is the swapped pair g2 g1, which is one step closer to normal form; the
correction words carry the other letters.  Every rule coefficient is a
Laurent polynomial, so a product is straightened over Z[q^{+-1}]: the
coefficients of each factor are written as Laurent numerators over one
common denominator (:func:`qglrtt.scalars.over_one_denominator`), and each
output coefficient is divided once, at the end.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import product

from .parity import ParitySeq, bilinear_form
from .scalars import (
    QONE,
    QScalar,
    SparseSum,
    _LONE,
    _Parser,
    _qscalar,
    _tokenize,
    add_term,
    over_one_denominator,
)
from .tensor import spectral_rmatrix


# generators are tuples (kind, row, col) with kind "t" (row >= col) or
# "tb" (row <= col); diagonal t letters are normalised to tb powers


def gen_parity(s, gen):
    _, i, j = gen
    return (s.parity(i) + s.parity(j)) % 2


def gen_is_odd(s, gen):
    return gen_parity(s, gen) == 1


def varsigma(s, a, b, c, d):
    """(-1)^{(|a|+|b|)(|c|+|d|)} for positions in s."""
    if (s.parity(a) + s.parity(b)) % 2 and (s.parity(c) + s.parity(d)) % 2:
        return -1
    return 1


def _slot(gen):
    kind, i, j = gen
    if kind == "t":
        if i == j:
            raise ValueError("diagonal t letters must be normalised away")
        return (0, i, i - j)
    if i == j:
        return (1, i, 0)
    return (2, j, i)


def _letter_text(gen, e):
    return "%s[%d,%d]%s" % (gen[0], gen[1], gen[2], "" if e == 1 else "^%d" % e)


def _check_letter(s, kind, i, j, e):
    """Raise ValueError unless kind[i,j]^e is a generator power over s."""
    if kind not in ("t", "tb"):
        raise ValueError("generator kind must be 't' or 'tb'")
    if not (1 <= i <= s.N and 1 <= j <= s.N):
        raise ValueError("index out of range in %s[%d,%d]" % (kind, i, j))
    if i < j if kind == "t" else i > j:
        raise ValueError("%s[%d,%d] is not a generator" % (kind, i, j))
    if e < 0 and i != j:
        raise ValueError("only diagonal generators admit negative exponents")


def pbw_generator_order(s):
    """The full ordered generator list underlying exponent vectors."""
    N = s.N
    gens = []
    for i in range(2, N + 1):
        for j in range(i - 1, 0, -1):
            gens.append(("t", i, j))
    for i in range(1, N + 1):
        gens.append(("tb", i, i))
    for i in range(2, N + 1):
        for k in range(1, i):
            gens.append(("tb", k, i))
    return gens


def _qdiff(s, i):
    return s.q_i(i) - s.q_i(i).inverse()


@lru_cache(maxsize=8192)
def _pair_rule(bits, g1, g2):
    """Rewrite for the out-of-order adjacent word g1 g2 (both non-diagonal).

    With g1 = (., a, b) and g2 = (., c, d), the rule is relation instance
    (c, d, a, b) of the family of g2 g1 (:func:`relation_expansion`), solved
    for g1 g2: that instance holds both orders of the pair.  The swapped
    word g2 g1 comes first, because it is the step towards normal form and
    the rest of the tuple is the correction that the relation adds to it.
    Returns a tuple of (coefficient, letters) contributions, each letters a
    tuple of generators (exponent one each); identical words are merged and
    generators falling outside the triangular ranges are dropped as zero.
    """
    s = ParitySeq(bits)
    # a mixed pair is out of order only as tb t, a word of the ttb family
    which = "ttb" if g1[0] != g2[0] else "tt" if g1[0] == "t" else "tbtb"
    merged = _constant_part(
        _relation_instance(s, g2[1], g2[2], g1[1], g1[2]), _FAMILY_KINDS[which]
    )
    scale = -merged.pop((g1, g2)).inverse()
    words = [((g2, g1), merged.pop((g2, g1)))] + list(merged.items())
    return tuple((scale * c, letters) for letters, c in words)


class StraighteningBudgetExceeded(RuntimeError):
    pass


# the default budget of one straightening product, in units of work
_MAX_WORK = 10**6


def _laurent_rule(rule):
    """A :func:`_pair_rule` with its coefficients as Laurent polynomials.

    Every rule coefficient has a denominator q^k, so it is the Laurent
    polynomial num * q^-k; any other coefficient raises ValueError, since
    straightening over Z[q^{+-1}] could not carry it.
    """
    out = []
    for c, letters in rule:
        den = c.den
        if den.coeffs != (1,):
            raise ValueError("rule coefficient %s is not a Laurent polynomial" % c)
        out.append((c.num.shift(-den.offset), letters))
    return out


def _product(s, left, right, budget=None):
    """Normal form of sum(left) * sum(right), as {key: coeff}.

    `left` is in normal form and `right` maps words, tuples of (gen, exp)
    letters in any order, to coefficients.  The coefficients of each side,
    whatever their denominators, are written as Laurent-polynomial
    numerators over one denominator
    (:func:`qglrtt.scalars.over_one_denominator`), and the numerators are
    straightened over Z[q^{+-1}]: every rule coefficient is a Laurent
    polynomial and a diagonal move is a shift by a power of q, so the
    normal form of c w is c times that of w.  Each output numerator is
    divided by the product of the two denominators once, at the end.

    Each word of `right` is folded into `left` one letter at a time by one
    product step, a normal word times one letter.  The letter moves left
    past the larger letters of the word: past a diagonal letter by a power
    of q, past a non-diagonal one by :func:`_pair_rule`, whose
    swapped word carries the letter on and whose correction words are
    folded in the same way.  It stops at a smaller letter or merges with an
    equal one (an odd letter squares to zero).  A non-diagonal power moves
    one copy at a time.  Equal terms merge after every letter, so a word
    that many paths reach is carried on once.  Normal forms are unique
    (:func:`check_normal_form_uniqueness`), so the order of the rewriting
    changes the work and never the result.

    The budget caps the work: every term that a step hands back to a fold
    counts one unit, one scalar product.  It defaults to ``_MAX_WORK`` for
    the whole product, so runaway rewriting of any input raises in bounded
    time instead of spinning.
    """
    work = 0
    limit = _MAX_WORK if budget is None else budget
    # the rules met in this product, with Laurent coefficients
    rules = {}

    def fold(terms, letters):
        nonlocal work
        for g, e in letters:
            kind, i, j = g
            if kind == "t" and i == j:
                g, e = ("tb", i, i), -e
            slot = _slot(g)
            done = {}
            while e and terms:
                moving = {}
                for word, c in terms.items():
                    if not word or _slot(word[-1][0]) < slot:
                        # the letter joins the end; an odd power is zero
                        work += 1
                        if e == 1 or not gen_is_odd(s, g):
                            add_term(done, word + ((g, e),), c)
                        continue
                    # a diagonal letter and a merging power move whole,
                    # other powers one copy at a time
                    whole = e == 1 or i == j or word[-1][0] == g
                    out = step(word, g, e if whole else 1, slot)
                    work += len(out)
                    into = done if whole else moving
                    for key, c2 in out.items():
                        add_term(into, key, c if c2 is _LONE else c * c2)
                if work > limit:
                    raise StraighteningBudgetExceeded(
                        "straightening exceeded %d units of work" % limit
                    )
                terms = moving
                e -= 1
            for key, c in terms.items():
                add_term(done, key, c)
            terms = done
        return terms

    def step(word, g, e, slot):
        """word * g^e for a letter that moves left or merges with word[-1]."""
        out = {}
        coeff = _LONE
        p = len(word)
        passed = []
        while p:
            h, f = word[p - 1]
            if h == g:
                if gen_is_odd(s, g):
                    return out
                f += e
                p -= 1
                tail = ((g, f),) if f else ()
                break
            if _slot(h) < slot:
                tail = ((g, e),)
                break
            p -= 1
            if h[1] == h[2]:  # a diagonal letter passes by a power of q
                a = h[1]
                delta = (a == g[1]) - (a == g[2])
                if delta:
                    coeff = coeff.shift(s.d(a) * f * e * delta)
            elif g[1] == g[2]:
                a = g[1]
                delta = (a == h[1]) - (a == h[2])
                if delta:
                    coeff = coeff.shift(-s.d(a) * f * e * delta)
            else:  # h^f g, one copy of h at a time
                rule = rules.get((h, g))
                if rule is None:
                    rule = rules[h, g] = _laurent_rule(_pair_rule(s.bits, h, g))
                (c0, _), *corrections = rule
                after = passed[::-1]
                for k in range(f, 0, -1):
                    base = word[:p] + (((h, k - 1),) if k > 1 else ())
                    later = [(h, f - k)] + after if k < f else after
                    for c, letters in corrections:
                        fixed = fold(
                            {base: c if coeff is _LONE else coeff * c},
                            [(x, 1) for x in letters] + later,
                        )
                        for key, c2 in fixed.items():
                            add_term(out, key, c2)
                    coeff = c0 if coeff is _LONE else coeff * c0
            passed.append((h, f))
        else:
            tail = ((g, e),)
        add_term(out, word[:p] + tail + tuple(passed[::-1]), coeff)
        return out

    lden, lnum = over_one_denominator(left.values())
    rden, rnum = over_one_denominator(right.values())
    left = {k: lnum(c) for k, c in left.items()}
    out = {}
    for word, c in right.items():
        c = rnum(c)
        if not c.coeffs:
            continue
        part = fold(
            {k: c1 if c is _LONE else c1 * c for k, c1 in left.items()}, word
        )
        if not out:
            out = part
        else:
            for key, c2 in part.items():
                add_term(out, key, c2)
    den = lden if rden is _LONE else rden if lden is _LONE else lden * rden
    if den is _LONE:
        # a polynomial over 1 is canonical; a negative power of q is not
        return {
            key: _qscalar(c, _LONE) if c.offset >= 0 else QScalar(c)
            for key, c in out.items()
        }
    return {key: QScalar(c, den) for key, c in out.items()}


def _normalize(s, words, budget=None):
    """Straighten a dict {word: coeff} into normal-form {key: coeff}."""
    return _product(s, {(): QONE}, words, budget)


class AlgebraElement(SparseSum):
    """An element of the superalgebra in PBW normal form.

    ``terms`` maps a normal word, a tuple of ``(gen, exp)`` letters, to its
    nonzero coefficient.
    """

    __slots__ = ("s",)

    def __init__(self, s, terms=None):
        self.s = s if type(s) is ParitySeq else ParitySeq(s)
        SparseSum.__init__(self, terms)

    def _context(self):
        return self.s

    def _like(self, terms):
        return AlgebraElement(self.s, terms)

    # -- constructors

    @staticmethod
    def zero(s):
        return AlgebraElement(s)

    @staticmethod
    def one(s):
        return AlgebraElement(s, {(): QONE})

    @staticmethod
    def generator(s, kind, i, j, exp=1):
        """The normal form of one letter, written down without straightening.

        ``t[a,a]^e`` is ``tb[a,a]^-e``, a zeroth power is 1 and a higher
        power of an odd letter is 0.
        """
        s = ParitySeq(s)
        _check_letter(s, kind, i, j, exp)
        if kind == "t" and i == j:
            kind, exp = "tb", -exp
        gen = (kind, i, j)
        if exp > 1 and gen_is_odd(s, gen):
            return AlgebraElement(s)
        return AlgebraElement(s, {((gen, exp),) if exp else (): QONE})

    @staticmethod
    def from_word(s, letters, coeff=None):
        s = ParitySeq(s)
        coeff = QONE if coeff is None else coeff
        return AlgebraElement(s, _normalize(s, {tuple(letters): coeff}))

    # -- structure

    def parity(self):
        """Z_2 parity; zero is even, mixed-parity elements raise."""
        par = None
        for key in self.terms:
            p = sum(gen_parity(self.s, g) * (e % 2) for g, e in key) % 2
            if par is None:
                par = p
            elif par != p:
                raise ValueError("element is not parity-homogeneous")
        return 0 if par is None else par

    def weight(self):
        """The eps-weight vector common to all monomials, or raise."""
        wt = None
        for key in self.terms:
            v = [0] * self.s.N
            for (kind, i, j), e in key:
                v[i - 1] += e
                v[j - 1] -= e
            v = tuple(v)
            if wt is None:
                wt = v
            elif wt != v:
                raise ValueError("element is not weight-homogeneous")
        return (0,) * self.s.N if wt is None else wt

    # -- arithmetic

    def scale(self, c):
        if isinstance(c, int):
            c = QScalar.from_int(c)
        return SparseSum.scale(self, c)

    def __mul__(self, other):
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        if self.s != other.s:
            raise ValueError("elements belong to different parity sequences")
        return AlgebraElement(self.s, _product(self.s, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("general elements are not invertible")
        out = AlgebraElement.one(self.s)
        for _ in range(n):
            out = out * self
        return out

    # -- serialisation

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def exponent_vector(self, key):
        order = pbw_generator_order(self.s)
        index = {g: n for n, g in enumerate(order)}
        vec = [0] * len(order)
        for g, e in key:
            vec[index[g]] = e
        return vec

    def to_json(self):
        return {
            "sequence": str(self.s),
            "terms": [
                {"exponents": self.exponent_vector(k), "coeff": str(v)}
                for k, v in self.sorted_terms()
            ],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            letters = "*".join(_letter_text(g, e) for g, e in key)
            cs = "(%s)" % coeff
            parts.append(cs if not letters else cs + " " + letters)
        return " + ".join(parts)

    def __repr__(self):
        return "AlgebraElement<%s | %s>" % (self.s, self)


def super_bracket(x, y, a=None):
    """[X, Y]_a = XY - (-1)^{|X||Y|} a YX for homogeneous X, Y."""
    sign = -1 if (x.parity() and y.parity()) else 1
    c = QONE if a is None else a
    if sign < 0:
        c = -c
    return x * y - (y * x).scale(c)


# ---------------------------------------------------------------------------
# uniqueness of normal forms


def _termination_key(letters):
    """The first three coordinates of the termination order of a word."""
    heights = [abs(i - j) for _, i, j in letters if i != j]
    return sum(heights), len(heights), -sum(h * h for h in heights)


def check_normal_form_uniqueness(s, max_failures=10):
    """Prove that every element over `s` has exactly one normal form.

    Bergman's diamond lemma (Adv. Math. 29, 1978): a reduction system with
    a semigroup order that is compatible with it and has no infinite
    descending chain gives every element a unique normal form iff all its
    ambiguities resolve.

    Order.  Give an off-diagonal letter t[i,j] or tb[i,j] the height
    h = |i - j| and a diagonal letter height 0, count letters with their
    exponents, and compare words by (sum of h, number of off-diagonal
    letters, minus the sum of h^2), then by the number of out-of-order
    letter pairs.  The first three are additive under concatenation and
    bounded below for a fixed first one, and the fourth decides only
    between words with the same letters, to which a context adds the same
    pairs; so the order is a semigroup order without infinite descending
    chains.  A relation rule (:func:`_pair_rule`) replaces g1 g2 by the
    swapped word g2 g1, which has the same letters and one out-of-order
    pair fewer, plus correction words that are smaller in the first three
    coordinates; this function checks that last condition on every
    out-of-order pair of `s`.  Diagonal moves are swaps, and the inverse
    and odd-square rules delete letters.

    Ambiguities.  Every rule rewrites two adjacent letters, so there are no
    inclusion ambiguities and the overlaps are three-letter words x y z.
    The overlap resolves iff (x y) z and x (y z) have the same normal form.
    All L^3 triples of the L letters (off-diagonal letters at exponent 1,
    diagonal letters at +1 and -1) are checked; a repeated odd letter
    covers the odd-square rule, and a diagonal letter beside its inverse
    the inverse rule.  `checked` counts the triples.
    """
    s = ParitySeq(s)
    gens = pbw_generator_order(s)
    failures = []
    for g1, g2 in product(gens, repeat=2):
        if g1[1] == g1[2] or g2[1] == g2[2] or _slot(g1) <= _slot(g2):
            continue
        limit = _termination_key((g1, g2))
        for _, letters in _pair_rule(s.bits, g1, g2)[1:]:
            if (
                _termination_key(letters) >= limit
                and len(failures) < max_failures
            ):
                failures.append(
                    {
                        "rule": [_letter_text(g1, 1), _letter_text(g2, 1)],
                        "word": [_letter_text(g, 1) for g in letters],
                    }
                )
    letters = [
        (gen, e) for gen in gens for e in ((1, -1) if gen[1] == gen[2] else (1,))
    ]
    elements = [AlgebraElement.from_word(s, [x]) for x in letters]
    L = len(letters)
    products = {
        (x, y): elements[x] * elements[y] for x, y in product(range(L), repeat=2)
    }
    for x, y, z in product(range(L), repeat=3):
        res = products[x, y] * elements[z] - elements[x] * products[y, z]
        if not res.is_zero() and len(failures) < max_failures:
            failures.append(
                {
                    "triple": [_letter_text(*letters[i]) for i in (x, y, z)],
                    "residual": str(res),
                }
            )
    return {
        "sequence": str(s),
        "checked": L**3,
        "failures": failures,
        "pass": not failures,
    }


# ---------------------------------------------------------------------------
# defining relations


@lru_cache(maxsize=64)
def _rmatrix_tables(bits):
    """The entries of R(u, v) by row pair and by column pair, 1-based."""
    N = len(bits)
    rows, cols = {}, {}
    for expo, m in spectral_rmatrix(bits).terms.items():
        for (r, c), v in m.terms.items():
            (i, k), (a, b) = divmod(r, N), divmod(c, N)
            rows.setdefault((i + 1, k + 1), []).append((expo, a + 1, b + 1, v))
            cols.setdefault((a + 1, b + 1), []).append((expo, i + 1, k + 1, v))
    return rows, cols


def _relation_instance(s, i, j, k, l):
    """The terms of relation instance (i, j, k, l), see relation_expansion."""
    par = (0,) + s.bits
    rows, cols = _rmatrix_tables(s.bits)
    outer = (par[k] + par[l]) * par[i]
    terms = []
    for expo, a, b, v in rows.get((i, k), ()):
        odd = ((par[b] + par[l]) * par[a] + outer + 1) % 2
        terms.append((-v if odd else v, expo, (0, a, j), (1, b, l)))
    for expo, c, d, v in cols.get((j, l), ()):
        odd = ((par[k] + par[d]) * par[c] + outer) % 2
        terms.append((-v if odd else v, expo, (1, k, d), (0, i, c)))
    return terms


def relation_expansion(s):
    """Expand R(u,v) T1(u) T2(v) - T2(v) T1(u) R(u,v) entry by entry.

    ``R(u, v) = u R - v R~`` is :func:`tensor.spectral_rmatrix`.  For two
    generator series g, g' the products carry the entry signs

        (T1 T2)_{(a,b),(j,l)} = (-1)^{(|b|+|l|)|a|} g_aj(u) g'_bl(v),
        (T2 T1)_{(i,k),(c,d)} = (-1)^{(|k|+|d|)|c|} g'_kd(v) g_ic(u),

    and relation instance (i, j, k, l) is entry ((i,k),(j,l)) of
    R T1 T2 - T2 T1 R times -(-1)^{(|k|+|l|)|i|}.  Returns
    ``{(i, j, k, l): [(coeff, (eu, ev), x, y), ...]}`` in lexicographic
    order of the indices; each term is ``coeff u^eu v^ev x y`` with the
    letters written ``(var, row, col)``: var 0 is g_{row,col}(u) and var 1
    is g'_{row,col}(v).  Every relation check and every straightening rule
    reads its coefficients here.
    """
    s = ParitySeq(s)
    return {
        idx: _relation_instance(s, *idx)
        for idx in product(range(1, s.N + 1), repeat=4)
    }


# the (g, g') generator kinds of the finite relation families
_FAMILY_KINDS = {"tt": ("t", "t"), "tbtb": ("tb", "tb"), "ttb": ("t", "tb")}


def _constant_part(terms, kinds):
    """Minus the u^1 v^0 part of one expanded instance, as {(x, y): coeff}.

    `kinds` names the generators of the family.  Letters outside the
    triangular ranges are zero and dropped; identical products merge, and
    products whose coefficients cancel are left out.
    """
    merged = {}
    for c, expo, (v1, a1, b1), (v2, a2, b2) in terms:
        if expo != (1, 0):
            continue
        k1, k2 = kinds[v1], kinds[v2]
        if (a1 >= b1 if k1 == "t" else a1 <= b1) and (
            a2 >= b2 if k2 == "t" else a2 <= b2
        ):
            add_term(merged, ((k1, a1, b1), (k2, a2, b2)), -c)
    return merged


def _finite_residual(s, terms, which, pair_product):
    """Minus the u^1 v^0 part of one expanded instance, on generator images.

    `pair_product(g1, g2)` is the product of the images of g1 and g2.
    """
    total = {}
    for (g1, g2), c in _constant_part(terms, _FAMILY_KINDS[which]).items():
        for key, v in pair_product(g1, g2).terms.items():
            add_term(total, key, c * v)
    return AlgebraElement(s, total)


def relation_residual(s, which, i, j, k, l, tgen=None, tbgen=None):
    """LHS minus RHS of one defining relation instance.

    `which` selects the tt, tbtb, or ttb family, (g, g') = (t, t), (tb, tb)
    or (t, tb), in the matrix identity R(u,v) T1(u) T2(v) = T2(v) T1(u)
    R(u,v) with R(u,v) = u R - v R~.  The residual is the u^1 v^0 part of
    entry ((i,k),(j,l)) of R T1 T2 - T2 T1 R times (-1)^{(|k|+|l|)|i|},
    where the products carry the entry signs (-1)^{(|b|+|l|)|a|} on
    g_aj g'_bl and (-1)^{(|k|+|d|)|c|} on g'_kd g_ic
    (:func:`relation_expansion`); generators outside the triangular
    supports are zero.  The coefficients always use the parities of `s`;
    `tgen`/`tbgen` may substitute images of the generators living in
    another algebra, which turns this into a check that a generator
    assignment respects the relation.
    """
    s = ParitySeq(s)
    if which not in _FAMILY_KINDS:
        raise ValueError("unknown relation family %r" % which)
    terms = relation_expansion(s).get((i, j, k, l))
    if terms is None:
        raise ValueError("relation index out of range")
    images = {"t": tgen, "tb": tbgen}

    def image(kind, a, b):
        f = images[kind]
        return AlgebraElement.generator(s, kind, a, b) if f is None else f(a, b)

    return _finite_residual(
        s, terms, which, lambda g1, g2: image(*g1) * image(*g2)
    )


def check_relation_families(s, image, failures, max_failures):
    """Evaluate every tt, tbtb and ttb instance on generator images.

    `image(kind, a, b)` is the image of a generator.  The product of the
    images of each generator pair is straightened once per family, not once
    per instance that holds the pair; the families share no pair, since
    each has its own generator kinds.  Located failures are appended to
    `failures` while it holds fewer than `max_failures`; returns the number
    of instances checked, 3 N^4.
    """
    s = ParitySeq(s)
    expansion = relation_expansion(s)

    def pair_product(g1, g2):
        p = products.get((g1, g2))
        if p is None:
            p = products[g1, g2] = image(*g1) * image(*g2)
        return p

    for which in _FAMILY_KINDS:
        products = {}
        for idx, terms in expansion.items():
            res = _finite_residual(s, terms, which, pair_product)
            if not res.is_zero() and len(failures) < max_failures:
                failures.append(
                    {"relation": which, "indices": list(idx), "residual": str(res)}
                )
    return len(_FAMILY_KINDS) * len(expansion)


def check_defining_relations(s, max_failures=10):
    """Straighten every defining relation instance and report residuals."""
    s = ParitySeq(s)
    failures = []
    one = AlgebraElement.one(s)
    for a in range(1, s.N + 1):
        t = AlgebraElement.generator(s, "t", a, a)
        tb = AlgebraElement.generator(s, "tb", a, a)
        for name, res in (
            ("diag-inverse", t * tb - one),
            ("diag-inverse'", tb * t - one),
        ):
            if not res.is_zero():
                failures.append(
                    {"relation": name, "indices": [a], "residual": str(res)}
                )
    image = partial(AlgebraElement.generator, s)
    checked = 2 * s.N + check_relation_families(s, image, failures, max_failures)
    return {
        "sequence": str(s),
        "checked": checked,
        "failures": failures,
        "pass": not failures,
    }


# ---------------------------------------------------------------------------
# Drinfeld-Jimbo generators inside the R-matrix presentation


def dj_x_plus(s, i):
    """x_i^+ = (q_i - q_i^{-1})^{-1} tbar_{i,i+1} t_{ii}."""
    s = ParitySeq(s)
    el = AlgebraElement.generator(s, "tb", i, i + 1) * AlgebraElement.generator(
        s, "t", i, i
    )
    return el.scale(_qdiff(s, i).inverse())


def dj_x_minus(s, i):
    """x_i^- = -(q_i - q_i^{-1})^{-1} tbar_{ii} t_{i+1,i}."""
    s = ParitySeq(s)
    el = AlgebraElement.generator(s, "tb", i, i) * AlgebraElement.generator(
        s, "t", i + 1, i
    )
    return el.scale(-_qdiff(s, i).inverse())


def dj_k(s, a, exp=1):
    return AlgebraElement.generator(ParitySeq(s), "tb", a, a, exp)


def check_dj_relations(s, max_failures=10):
    """Verify the Drinfeld-Jimbo relations on the embedded generators."""
    s = ParitySeq(s)
    N = s.N
    failures = []
    checked = 0

    def record(name, indices, res):
        nonlocal checked
        checked += 1
        if not res.is_zero() and len(failures) < max_failures:
            failures.append(
                {"relation": name, "indices": list(indices), "residual": str(res)}
            )

    def alpha_pairing(i, j):
        # (alpha_i | alpha_j) with alpha_i = eps_i - eps_{i+1}
        v, w = ([(t == k) - (t == k + 1) for t in range(1, N + 1)] for k in (i, j))
        return bilinear_form(s, v, w)

    xs_p = {i: dj_x_plus(s, i) for i in range(1, N)}
    xs_m = {i: dj_x_minus(s, i) for i in range(1, N)}
    ks = {a: dj_k(s, a) for a in range(1, N + 1)}
    kinv = {a: dj_k(s, a, -1) for a in range(1, N + 1)}

    for a in range(1, N + 1):
        record("k-inverse", (a,), ks[a] * kinv[a] - AlgebraElement.one(s))
        record("k-inverse'", (a,), kinv[a] * ks[a] - AlgebraElement.one(s))
        for b in range(1, N + 1):
            record("k-commute", (a, b), ks[a] * ks[b] - ks[b] * ks[a])

    for a in range(1, N + 1):
        for i in range(1, N):
            pm_scal = s.d(a) * ((1 if a == i else 0) - (1 if a == i + 1 else 0))
            for sign, xs in ((+1, xs_p), (-1, xs_m)):
                scal = QScalar.q_power(sign * pm_scal)
                record(
                    "k-x-conjugation",
                    (a, i, sign),
                    ks[a] * xs[i] - (xs[i] * ks[a]).scale(scal),
                )

    for i in range(1, N):
        for j in range(1, N):
            res = super_bracket(xs_p[i], xs_m[j])
            if i == j:
                cartan = (ks[i] * kinv[i + 1] - kinv[i] * ks[i + 1]).scale(
                    _qdiff(s, i).inverse()
                )
                res = res - cartan
            record("x-plus-minus", (i, j), res)

    for i in range(1, N):
        for j in range(1, N):
            if alpha_pairing(i, j) == 0:
                for sign, xs in (("+", xs_p), ("-", xs_m)):
                    record(
                        "isotropic-or-distant",
                        (i, j, sign),
                        super_bracket(xs[i], xs[j]),
                    )

    for i in range(1, N):
        if alpha_pairing(i, i) != 0:
            for ell in (i - 1, i + 1):
                if 1 <= ell < N:
                    for sign, xs in (("+", xs_p), ("-", xs_m)):
                        inner = super_bracket(xs[i], xs[ell], s.q_i(i))
                        res = super_bracket(xs[i], inner, s.q_i(i).inverse())
                        record("serre", (i, ell, sign), res)

    for i in range(2, N - 1):
        if alpha_pairing(i, i) == 0:
            for sign, xs in (("+", xs_p), ("-", xs_m)):
                lvl1 = super_bracket(xs[i - 1], xs[i], s.q_i(i))
                lvl2 = super_bracket(lvl1, xs[i + 1], s.q_i(i + 1))
                res = super_bracket(lvl2, xs[i])
                record("isotropic-degree-four", (i, sign), res)

    return {
        "sequence": str(s),
        "checked": checked,
        "failures": failures,
        "pass": not failures,
    }


# ---------------------------------------------------------------------------
# the rescaling automorphism


def scale_automorphism(s, dscalar, eps, x):
    """Image of x under t_{ij} -> d eps_i t_{ij}, tbar_{ij} -> d^{-1} eps_i tbar_{ij}.

    `eps` is a tuple of signs indexed by position; the diagonal images are
    consistent with t_{ii} = tbar_{ii}^{-1}.
    """
    s = ParitySeq(s)
    if isinstance(dscalar, int):
        dscalar = QScalar.from_int(dscalar)
    if dscalar.is_zero():
        raise ValueError("the scaling parameter must be invertible")
    if len(eps) != s.N or any(e not in (1, -1) for e in eps):
        raise ValueError("eps must be a tuple of signs of length N")
    out = {}
    dinv = dscalar.inverse()
    for key, coeff in x.terms.items():
        c = coeff
        for (kind, i, j), e in key:
            base = dscalar if kind == "t" else dinv
            c = c * (base ** e)
            if eps[i - 1] == -1 and e % 2:
                c = -c
        add_term(out, key, c)
    return AlgebraElement(s, out)


# ---------------------------------------------------------------------------
# element parser


class ElementParseError(ValueError):
    pass


# a letter and its exponent are one token, so "t[2,1]^ -1" stays rejected
_LETTER_RE = re.compile(r"(tb|t)\[\s*(\d+)\s*,\s*(\d+)\s*\](?:\^(-?\d+))?")


def _element_tokens(s, text):
    """Scalar tokens, with each letter as one ``((kind, i, j), e)`` token."""
    toks, pos = [], 0
    for m in _LETTER_RE.finditer(text):
        kind, i, j = m.group(1), int(m.group(2)), int(m.group(3))
        e = int(m.group(4) or 1)
        _check_letter(s, kind, i, j, e)
        if abs(e) > _Parser.MAX_EXPONENT:
            raise ValueError(
                "exponent %d exceeds the cap of %d" % (e, _Parser.MAX_EXPONENT)
            )
        toks += _tokenize(text[pos : m.start()])
        toks.append(((kind, i, j), e))
        pos = m.end()
    return toks + _tokenize(text[pos:])


class _ElementParser(_Parser):
    """Signed terms; a term is letters and coefficient atoms, '*' optional."""

    def parse_terms(self):
        terms = []
        while True:
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            if self.peek() is None:
                return terms
            letters, coeff = self.parse_product()
            terms.append((letters, coeff if sign == 1 else -coeff))

    def parse_product(self):
        letters, coeff = [], None
        while self.peek() not in ("+", "-", None):
            t = self.peek()
            if t == "*":
                self.take()
            elif isinstance(t, tuple):
                letters.append(self.take())
            elif t == "(" or isinstance(t, int):
                atom = self.parse_atom()
                if coeff is not None:
                    self.check_binary("*", coeff, atom)
                    atom = coeff * atom
                coeff = atom
            else:
                raise ElementParseError(
                    "unexpected token %r in element term" % (t,)
                )
        return letters, QONE if coeff is None else coeff


def parse_element(s, text):
    """Parse products like "(q - q^-1) t[2,1] tb[1,2]^2 - tb[1,1]^-1".

    Terms are separated by + and -; each term is a product of letters
    ``t[i,j]`` / ``tb[i,j]``, each with an optional integer exponent
    ``^e``, and coefficient atoms: integers and parenthesised scalar
    expressions (see :func:`~qglrtt.scalars.qscalar_parse`, whose caps bound
    the product of a term's atoms).  '*' between factors is optional.  The
    whole text is parsed first; equal words then merge, and all of them are
    straightened together under one budget.
    """
    s = ParitySeq(s)
    try:
        terms = _ElementParser(_element_tokens(s, text)).parse_terms()
    except (ValueError, ZeroDivisionError) as exc:
        raise ElementParseError(str(exc)) from None
    if not terms:
        raise ElementParseError("no terms found")
    words = {}
    for letters, coeff in terms:
        add_term(words, tuple(letters), coeff)
    return AlgebraElement(s, _normalize(s, words))
