"""Canonical form and field axioms for the exact Q(q) scalars."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qglrtt.rtt import AlgebraElement
from qglrtt.scalars import (
    Laurent,
    Q,
    QScalar,
    ScalarParseError,
    add_term,
    over_one_denominator,
    poly_exact_div,
    poly_gcd,
    qscalar_parse,
)
from qglrtt.tensor import Mat, SeriesMat, Space


# ---------------------------------------------------------------------------
# frozen canonical-form oracles


def test_q_minus_qinv_canonical_form():
    x = Q - QScalar.q_power(-1)
    assert x.num == Laurent((-1, 0, 1))
    assert x.den == Laurent((1,), 1)
    assert str(x) == "(q^2 - 1)/q"


def test_ratio_reduces_to_polynomial():
    x = qscalar_parse("(q^2-1)/(q-1)")
    assert x.den.is_one()
    assert x.num == Laurent((1, 1))
    assert str(x) == "q + 1"


def test_q_to_the_zero_is_one():
    assert qscalar_parse("q^0") == QScalar.one()
    assert str(qscalar_parse("q^0")) == "1"


def test_integer_content_is_reduced():
    x = qscalar_parse("(2*q^2 - 2)/4")
    assert str(x) == "(q^2 - 1)/2"


def test_denominator_sign_normalisation():
    x = qscalar_parse("1/(0 - q + 1)")
    # lowest-degree denominator coefficient must be positive
    assert x.den.coeffs[0] > 0
    assert str(x) == "1/(-q + 1)"
    y = qscalar_parse("1/(0 - 1 - q)")
    assert y.den.coeffs[0] > 0
    assert str(y) == "-1/(q + 1)"


def test_parse_print_roundtrip_examples():
    for text in ["q - q^-1", "(q^2-1)/(q-1)", "q^0", "2*q^3 - q + 7", "1/q^2"]:
        x = qscalar_parse(text)
        assert qscalar_parse(str(x)) == x


def test_parse_rejects_garbage():
    for text in ["", "q +", "q^x", "(q", "q )", "u + 1"]:
        with pytest.raises(ScalarParseError):
            qscalar_parse(text)


def test_q_inverse_substitution():
    x = qscalar_parse("q - q^-1")
    assert x.subs_q_inverse() == -x
    y = qscalar_parse("(q^2 + q)/(q - 1)")
    z = y.subs_q_inverse()
    assert z == qscalar_parse("(q^-2 + q^-1)/(q^-1 - 1)")
    assert z.subs_q_inverse() == y


def test_stretch_embedding():
    x = qscalar_parse("q - q^-1")
    assert x.stretch(2) == qscalar_parse("q^2 - q^-2")
    assert x.stretch(1) == x


def test_power_and_inverse():
    x = qscalar_parse("(q^2-1)/q")
    assert x ** 0 == QScalar.one()
    assert x ** 2 == x * x
    assert x ** -1 == QScalar.one() / x
    assert (x ** -3) * (x ** 3) == QScalar.one()
    with pytest.raises(ZeroDivisionError):
        QScalar.zero().inverse()


def test_fraction_embedding():
    x = QScalar.from_fraction(Fraction(-3, 6))
    assert str(x) == "-1/2"


# ---------------------------------------------------------------------------
# polynomial gcd helpers


def test_poly_gcd_with_content():
    a = Laurent((2, 4, 2))        # 2(q+1)^2
    b = Laurent((0, 4, 4))        # 4q(q+1)
    g = poly_gcd(a, b)
    assert g == Laurent((2, 2))   # 2(q+1)
    assert poly_exact_div(a, g) == Laurent((1, 1))


def test_poly_exact_div_raises_on_inexact():
    with pytest.raises(ArithmeticError):
        poly_exact_div(Laurent((1, 1)), Laurent((1, 1, 1)))
    with pytest.raises(ArithmeticError):
        poly_exact_div(Laurent((3, 6)), Laurent((2,)))
    with pytest.raises(ArithmeticError):
        poly_exact_div(Laurent((1, 1)), Laurent((1,), 1))


def test_monomial_gcd_keeps_the_integer_gcd():
    # 6q^3 against 4 + 2q: no power of q is shared, the integer gcd 2 is
    assert poly_gcd(Laurent((6,), 3), Laurent((4, 2))) == Laurent((2,))
    assert poly_gcd(Laurent((4, 2)), Laurent((6,), 3)) == Laurent((2,))
    assert poly_gcd(Laurent((-6,), 3), Laurent((0, -4, 0, 8), 0)) == Laurent((2,), 1)
    x = QScalar(Laurent((6,), 3), Laurent((4, 2)))
    assert x.num == Laurent((3,), 3) and x.den == Laurent((2, 1))


# ---------------------------------------------------------------------------
# hypothesis strategies for Laurent polynomials and scalars

small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def laurents(draw, allow_zero=True):
    coeffs = draw(st.lists(small_ints, min_size=1, max_size=4))
    offset = draw(st.integers(min_value=-3, max_value=3))
    p = Laurent(coeffs, offset)
    if not allow_zero and p.is_zero():
        p = p + Laurent.one()
    return p


@st.composite
def qscalars(draw, allow_zero=True):
    num = draw(laurents(allow_zero=allow_zero))
    den = draw(laurents(allow_zero=False))
    return QScalar(num, den)


# ---------------------------------------------------------------------------
# differential tests against sympy, an independent implementation of Z[q]

coeff_ints = st.integers(min_value=-50, max_value=50)


@st.composite
def oracle_laurents(draw, min_offset=-4, allow_zero=True):
    """Monomials, constants and dense polynomials, often with content > 1."""
    content = draw(st.sampled_from([1, 1, 2, 3, 6]))
    small = st.integers(min_value=-50 // content, max_value=50 // content)
    kind = draw(st.sampled_from(["monomial", "constant", "dense", "dense"]))
    if kind == "dense":
        coeffs = draw(st.lists(small, min_size=2, max_size=8))
    else:
        coeffs = [draw(small.filter(bool))]
    offset = 0 if kind == "constant" else draw(st.integers(min_offset, 4))
    p = Laurent([c * content for c in coeffs], offset)
    if not allow_zero and p.is_zero():
        p = Laurent((content,), offset)
    return p


def _sympy_expr(q, p, shift=0):
    """p * q^shift as a sympy expression."""
    return sum(c * q ** (p.offset + shift + k) for k, c in enumerate(p.coeffs))


def _coeffs_of(poly):
    """(coefficients from the lowest nonzero one up, its exponent)."""
    cs = [int(c) for c in poly.all_coeffs()[::-1]]
    low = next(k for k, c in enumerate(cs) if c)
    return tuple(cs[low:]), low


@given(
    oracle_laurents(min_offset=0),
    oracle_laurents(min_offset=0),
    st.one_of(st.none(), oracle_laurents(min_offset=0, allow_zero=False)),
)
@example(Laurent((-4, -2, 2)), Laurent((1, 4, 3)), None)  # 2(q+1)(q-2), (q+1)(3q+1)
@example(Laurent((6,), 3), Laurent((4, 2)), None)
@settings(max_examples=200, deadline=None)
def test_poly_gcd_matches_sympy(a, b, common):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    if common is not None:
        a, b = a * common, b * common
    g = poly_gcd(a, b)
    expected = sympy.Poly(
        sympy.gcd(_sympy_expr(q, a), _sympy_expr(q, b)), q
    )
    if expected.is_zero:
        assert g.is_zero()
        return
    if expected.LC() < 0:
        expected = -expected
    assert (g.coeffs, g.offset) == _coeffs_of(expected)


@given(
    oracle_laurents(),
    oracle_laurents(allow_zero=False),
    st.one_of(st.none(), oracle_laurents(allow_zero=False)),
)
@example(Laurent((6,), 3), Laurent((4, 2)), None)
@example(Laurent((-4, -2, 2)), Laurent((1, 4, 3), -2), None)
@settings(max_examples=200, deadline=None)
def test_qscalar_matches_sympy_cancel(num, den, common):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    if common is not None:
        num, den = num * common, den * common
    x = QScalar(num, den)
    # clear negative exponents on both sides, then cancel over Z
    shift = -min(num.offset, den.offset)
    n, d = sympy.Poly(_sympy_expr(q, num, shift), q).cancel(
        sympy.Poly(_sympy_expr(q, den, shift), q), include=True
    )
    if n.is_zero:
        assert x.is_zero() and x.den.is_one()
        return
    n_coeffs, n_low = _coeffs_of(n)
    d_coeffs, d_low = _coeffs_of(d)
    # the module's normalisation: lowest denominator coefficient positive
    if d_coeffs[0] < 0:
        n_coeffs = tuple(-c for c in n_coeffs)
        d_coeffs = tuple(-c for c in d_coeffs)
    assert (x.num.coeffs, x.num.offset) == (n_coeffs, n_low)
    assert (x.den.coeffs, x.den.offset) == (d_coeffs, d_low)


@given(st.lists(qscalars(allow_zero=False), min_size=1, max_size=6))
@example([QScalar(1), QScalar(1, Laurent((1, -1)))])  # 1 and 1/(1-q)
@example([QScalar(1, Laurent((1,), 2)), QScalar(1, Laurent((2, 2)))])
@settings(max_examples=150, deadline=None)
def test_over_one_denominator_matches_sympy_lcm(values):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    L, numerator = over_one_denominator(values)
    for c in values:
        assert QScalar(numerator(c), L) == c
    # L is +-q^K times the lcm of the parts of the denominators that are
    # not powers of q, integer content included
    K = max(c.den.low for c in values)
    lcm = sympy.Poly(1, q)
    for c in values:
        if c.den.coeffs != (1,):
            lcm = lcm.lcm(sympy.Poly(_sympy_expr(q, c.den, -c.den.low), q))
    expected = _coeffs_of(lcm)
    assert (L.offset, L.coeffs) in {
        (expected[1] + K, expected[0]),
        (expected[1] + K, tuple(-x for x in expected[0])),
    }


def test_over_one_denominator_takes_no_gcd_over_powers_of_q(monkeypatch):
    from qglrtt import scalars

    calls = []
    gcd = scalars.poly_gcd

    def counting(a, b):
        calls.append(1)
        return gcd(a, b)

    values = [QScalar(Laurent((3, -1)), Laurent((1,), k)) for k in range(4)]
    values.append(QScalar(Laurent((1, 1))))
    lone = QScalar(1, Laurent((1, 1)))
    monkeypatch.setattr(scalars, "poly_gcd", counting)
    L, numerator = over_one_denominator(values)
    assert L == Laurent((1,), 3)
    assert [numerator(c) for c in values][-1] == Laurent((1, 1), 3)
    # one part other than 1 is the lcm itself
    L, numerator = over_one_denominator(values + [lone])
    assert L == Laurent((1, 1), 3)
    assert numerator(values[0]) == Laurent((3, 2, -1), 3)
    assert numerator(lone) == Laurent((1,), 3)
    assert calls == []


# ---------------------------------------------------------------------------
# hypothesis: field axioms against the canonical form

@given(qscalars(), qscalars(), qscalars())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + QScalar.zero() == a
    assert a * QScalar.one() == a
    assert a - a == QScalar.zero()


@given(qscalars(allow_zero=False))
@settings(max_examples=120, deadline=None)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == QScalar.one()


@given(qscalars())
@settings(max_examples=120, deadline=None)
def test_canonical_form_invariants(a):
    assert a.num.low >= 0 and a.den.low >= 0
    if not a.is_zero():
        assert min(a.num.low, a.den.low) == 0
        assert poly_gcd(a.num, a.den).is_one()
    else:
        assert a.den.is_one()
    assert a.den.coeffs[0] > 0
    # printing round-trips through the parser
    assert qscalar_parse(str(a)) == a


@given(qscalars(), qscalars(allow_zero=False))
@settings(max_examples=120, deadline=None)
def test_division_consistency(a, b):
    assert (a / b) * b == a


@given(qscalars())
@settings(max_examples=80, deadline=None)
def test_q_inverse_is_involutive_automorphism(a):
    assert a.subs_q_inverse().subs_q_inverse() == a


@given(qscalars(), qscalars())
@settings(max_examples=80, deadline=None)
def test_q_inverse_respects_products(a, b):
    assert (a * b).subs_q_inverse() == a.subs_q_inverse() * b.subs_q_inverse()
    assert (a + b).subs_q_inverse() == a.subs_q_inverse() + b.subs_q_inverse()


# ---------------------------------------------------------------------------
# input caps of the parser


@pytest.fixture
def within_caps(monkeypatch):
    """Fail as soon as a Laurent product, sum or power exceeds the caps."""
    from qglrtt.scalars import _Parser

    def guarded(op):
        def wrapper(self, other):
            out = op(self, other)
            assert out.high <= _Parser.MAX_DEGREE
            norm = sum(abs(c) for c in out.coeffs)
            assert norm.bit_length() <= _Parser.MAX_COEFF_BITS
            return out

        return wrapper

    for name in ("__mul__", "__add__", "__pow__"):
        monkeypatch.setattr(Laurent, name, guarded(getattr(Laurent, name)))


@pytest.mark.parametrize(
    "text",
    [
        "q^64",
        "q^-64",
        "(1+q)^64",
        "(1+q)^32 * (1+q)^32",
        "(1+q^2)^32",
        "(1+q)^-32 / (1-q)^32",
        "1/q^32 + q^32",
        "4^42",
        "2^64 * 2^62",
        "1" + "0" * 38,
        pytest.param("(" * 64 + "q" + ")" * 64, id="depth-64"),
    ],
)
def test_parser_accepts_up_to_the_caps(within_caps, text):
    qscalar_parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("q^65", "exponent 65 exceeds the cap of 64"),
        ("q^-65", "exponent 65 exceeds the cap of 64"),
        ("(1+q)^32 * (1+q)^33", "degree 65 exceeds the cap of 64"),
        ("(1+q^2)^33", "degree 66 exceeds the cap of 64"),
        ("(1+q)^-32 / (1-q)^33", "degree 65 exceeds the cap of 64"),
        ("1/q^33 + q^32", "degree 65 exceeds the cap of 64"),
        ("4^43", "coefficients of 129 bits exceed the cap of 128"),
        ("2^64 * 2^63", "coefficients of 129 bits exceed the cap of 128"),
        ("9" * 39, "coefficients of 130 bits exceed the cap of 128"),
        ("1" + "0" * 39, "integer literal of 40 digits exceeds the cap of 39"),
        ("1/0", "division by zero"),
        ("(q - q)^-1", "inverse of zero"),
        pytest.param(
            "(" * 65 + "q" + ")" * 65, "nesting depth 65 exceeds the cap of 64",
            id="depth-65",
        ),
        pytest.param(
            "(" * 400 + "q" + ")" * 400, "nesting depth 65 exceeds the cap of 64",
            id="depth-400",
        ),
    ],
)
def test_parser_refuses_past_the_caps(within_caps, text, message):
    # within_caps shows that the refused value was never computed
    with pytest.raises(ScalarParseError, match=message.replace("^", r"\^")):
        qscalar_parse(text)



# ---------------------------------------------------------------------------
# the zero-free sparse sums built on SparseSum


def _series(ctx, ints):
    nvars, space = ctx
    return SeriesMat(
        nvars,
        space,
        {e: Mat(space, {(0, 0): QScalar.from_int(n)}) for e, n in ints.items()},
    )


# name: (sum over a context from {key: int}, two contexts, two keys)
SPARSE_SUMS = {
    "AlgebraElement": (
        lambda s, ints: AlgebraElement(
            s, {k: QScalar.from_int(n) for k, n in ints.items()}
        ),
        ("01", "10"),
        (((("t", 2, 1), 1),), ()),
    ),
    "Mat": (
        lambda space, ints: Mat(
            space, {k: QScalar.from_int(n) for k, n in ints.items()}
        ),
        (Space((0, 1)), Space((0, 0))),
        ((0, 1), (1, 1)),
    ),
    "SeriesMat": (
        _series,
        ((2, Space((0, 1))), (2, Space((0, 0)))),
        ((1, 0), (0, 1)),
    ),
}


@pytest.mark.parametrize(
    "make, contexts, keys", SPARSE_SUMS.values(), ids=list(SPARSE_SUMS)
)
def test_sparse_sum_contract(make, contexts, keys):
    ctx, other = contexts
    k1, k2 = keys
    # a zero value is dropped on construction
    x = make(ctx, {k1: 2, k2: 0})
    assert list(x.terms) == [k1]
    zero = make(ctx, {})
    assert zero.is_zero() and not x.is_zero()
    assert x + (-x) == zero
    assert x - x == zero
    assert x != make(other, {k1: 2})
    with pytest.raises(ValueError):
        x + make(other, {k1: 1})
    # a copy shares no dict with the original
    y = x.copy()
    for k, v in make(ctx, {k1: -2, k2: 3}).terms.items():
        add_term(y.terms, k, v)
    assert list(y.terms) == [k2]
    assert x == make(ctx, {k1: 2})
