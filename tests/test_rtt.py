"""Tests for the PBW straightening engine and the defining relations."""

import hashlib
import json
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qglrtt import rtt
from qglrtt.parity import ParitySeq
from qglrtt.rtt import (
    AlgebraElement,
    ElementParseError,
    check_defining_relations,
    check_dj_relations,
    check_normal_form_uniqueness,
    dj_k,
    dj_x_minus,
    dj_x_plus,
    gen_parity,
    parse_element,
    pbw_generator_order,
    scale_automorphism,
    super_bracket,
)
from qglrtt.scalars import QONE, QZERO, QScalar, qscalar_parse


def gen(s, kind, i, j, exp=1):
    return AlgebraElement.generator(s, kind, i, j, exp)


# --- frozen anchors derived by hand from the explicit relations -------------


def test_lowering_same_column_swap():
    # with positions 1,2 even: t31 t21 = q^{-1} t21 t31
    s = ParitySeq("001")
    lhs = gen(s, "t", 3, 1) * gen(s, "t", 2, 1)
    rhs = (gen(s, "t", 2, 1) * gen(s, "t", 3, 1)).scale(
        QScalar.q_power(-1)
    )
    assert lhs == rhs


def test_lowering_same_row_swap():
    # with |3| odd, |1|=|2| even: t32 t31 = -q t31 t32
    s = ParitySeq("001")
    lhs = gen(s, "t", 3, 2) * gen(s, "t", 3, 1)
    rhs = (gen(s, "t", 3, 1) * gen(s, "t", 3, 2)).scale(-QScalar.q_power(1))
    assert lhs == rhs


def test_diagonal_scalar_rule():
    # tb11 t21 = q^{-d_1} t21 tb11 for every two-position sequence
    for s in (ParitySeq(b) for b in ("00", "01", "10", "11")):
        lhs = gen(s, "tb", 1, 1) * gen(s, "t", 2, 1)
        rhs = (gen(s, "t", 2, 1) * gen(s, "tb", 1, 1)).scale(
            QScalar.q_power(-s.d(1))
        )
        assert lhs == rhs, str(s)


def test_odd_generator_squares_to_zero():
    s = ParitySeq("01")
    x = gen(s, "t", 2, 1)
    assert (x * x).is_zero()
    y = gen(s, "tb", 1, 2)
    assert (y * y).is_zero()


def test_odd_generator_power_is_zero():
    # a power letter of an odd generator straightens like the repeated product
    s = ParitySeq("01")
    assert parse_element(s, "t[2,1]^2").is_zero()
    assert gen(s, "t", 2, 1, 2).is_zero()
    assert gen(s, "tb", 1, 2, 3).is_zero()
    assert parse_element(s, "t[2,1]^2") == gen(s, "t", 2, 1) * gen(s, "t", 2, 1)
    x = parse_element(s, "(q - q^-1) t[2,1] tb[1,2]^2 - tb[1,1]^-1")
    assert str(x) == "(-1) tb[1,1]^-1"


def _power_word(k):
    return (
        (("tb", 1, 2), k), (("tb", 3, 4), k), (("t", 2, 1), k), (("t", 4, 3), k),
    )


POWER_WORD_K3 = _power_word(3)


def test_worklist_merges_repeated_words():
    # the k=3 power word makes the same words many times over; merging equal
    # terms after each letter, the fold takes 1,472 units of work, and 4,616
    # with every term kept apart
    s = ParitySeq("0011")
    out = rtt._normalize(s, {POWER_WORD_K3: QONE}, budget=2000)
    assert len(out) == 100
    assert out == rtt._normalize(s, {POWER_WORD_K3: QONE})


def test_small_budget_raises():
    s = ParitySeq("0011")
    with pytest.raises(rtt.StraighteningBudgetExceeded, match="exceeded 100 "):
        rtt._normalize(s, {POWER_WORD_K3: QONE}, budget=100)


def test_cancelled_words_are_not_expanded():
    # x t[2,1] has the word t[2,1] tb[1,1]^-1 tb[2,2] from both terms of x,
    # and their coefficients cancel, so tb[1,1] is then multiplied onto one
    # term, not two: 8 units of work, and 9 when they do not cancel.  The
    # budget is exact: 8 passes and 7 raises.
    s = ParitySeq("01")
    word = {((("t", 2, 1), 1), (("tb", 1, 1), 1)): QONE}
    x = parse_element(s, "t[2,1] tb[1,2] - (q - q^-1) tb[1,1]^-1 tb[2,2]")
    expected = x * parse_element(s, "t[2,1] tb[1,1]")
    assert AlgebraElement(s, rtt._product(s, x.terms, word, 8)) == expected
    with pytest.raises(rtt.StraighteningBudgetExceeded):
        rtt._product(s, x.terms, word, 7)
    y = x + parse_element(s, "tb[1,1]^-1 tb[2,2]")
    rtt._product(s, y.terms, word, 9)
    with pytest.raises(rtt.StraighteningBudgetExceeded):
        rtt._product(s, y.terms, word, 8)


@pytest.mark.parametrize(
    "bits, text, count",
    [("000", "tb[1,3]^16 t[3,1]^16", 153), ("00", "tb[1,2]^20 t[2,1]^20", 231)],
)
def test_long_power_words_fit_the_default_budget(bits, text, count):
    assert len(parse_element(bits, text).terms) == count


RATIONAL = "(1+q)^8/(1-q)^8"


def test_rational_coefficient_scales_the_normal_form():
    # the normal form of c w is c times that of w
    s = ParitySeq("00")
    word = "tb[1,2]^8 t[2,1]^8"
    x = parse_element(s, "(%s) %s" % (RATIONAL, word))
    assert x == parse_element(s, word).scale(qscalar_parse(RATIONAL))
    assert len(x.terms) == 45


def test_rational_coefficient_is_divided_once_per_term(monkeypatch):
    # the numerators are straightened over Z[q, q^-1] and each output term
    # is divided by the coefficient's denominator once; multiplying the
    # rational coefficient through every rewriting step took 550 gcds here
    from qglrtt import scalars

    calls = []
    gcd = scalars.poly_gcd

    def counting(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(scalars, "poly_gcd", counting)
    x = parse_element("00", "(%s) tb[1,2]^8 t[2,1]^8" % RATIONAL)
    assert len(calls) <= len(x.terms) + 4
    # denominators that differ, a coefficient 1 among them, share one lcm,
    # taken once per product
    calls.clear()
    y = parse_element(
        "00",
        "(%s) tb[1,2]^8 t[2,1]^8 + (q/(1+q)^2) tb[1,2]^7 t[2,1]^7"
        " + (1/2) tb[1,2]^3 + tb[1,2]^5 t[2,1]^5" % RATIONAL,
    )
    assert len(calls) <= len(y.terms) + 8


def test_rule_coefficients_are_laurent_polynomials():
    # straightening runs over Z[q, q^-1] because every rule coefficient has
    # a denominator q^k, on every out-of-order pair of every sequence of
    # length 2-6
    count = 0
    for n in range(2, 7):
        for bits in product("01", repeat=n):
            s = ParitySeq("".join(bits))
            gens = [g for g in pbw_generator_order(s) if g[1] != g[2]]
            for g1, g2 in product(gens, repeat=2):
                if rtt._slot(g1) <= rtt._slot(g2):
                    continue
                for c, _ in rtt._pair_rule(s.bits, g1, g2):
                    assert c.den.coeffs == (1,), (s, g1, g2, c)
                    count += 1
    assert count == 52484


def test_rule_coefficient_outside_laurent_polynomials_raises(monkeypatch):
    orig = rtt._pair_rule

    def halved(bits, g1, g2):
        (c0, swapped), *rest = orig(bits, g1, g2)
        return ((c0 / 2, swapped), *rest)

    monkeypatch.setattr(rtt, "_pair_rule", halved)
    with pytest.raises(ValueError, match="not a Laurent polynomial"):
        parse_element("00", "tb[1,2] t[2,1]")


def test_generator_is_the_normal_form_of_its_letter():
    # generator writes the normal word down; from_word straightens it
    for bits in ("01", "001"):
        s = ParitySeq(bits)
        pool = pbw_generator_order(s) + [("t", a, a) for a in range(1, s.N + 1)]
        for g in pool:
            exps = (-2, -1, 0, 1, 2) if g[1] == g[2] else (0, 1, 2)
            for e in exps:
                assert gen(s, *g, e) == AlgebraElement.from_word(s, [(g, e)])
    assert gen("01", "t", 1, 1, 2).terms == {((("tb", 1, 1), -2),): QONE}


def _random_factor(rng, s):
    # one to three letters; diagonal inverses, and repeated letters, which
    # square odd generators to zero
    pool = [(g, 1) for g in pbw_generator_order(s)]
    pool += [(("tb", a, a), -1) for a in range(1, s.N + 1)]
    letters = []
    for _ in range(rng.randint(1, 3)):
        if letters and rng.random() < 0.25:
            letters.append(letters[-1])
        else:
            letters.append(rng.choice(pool))
    return AlgebraElement.from_word(s, letters)


def _normal_form_digest():
    elements = [
        AlgebraElement.from_word("0011", _power_word(3)),
        AlgebraElement.from_word("0011", _power_word(4)),
        parse_element("00", "tb[1,2]^10 t[2,1]^10"),
        parse_element("000", "tb[1,3]^6 t[3,1]^6"),
    ]
    rng = random.Random(22)
    for N in (3, 4):
        for bits in product("01", repeat=N):
            s = ParitySeq("".join(bits))
            for _ in range(3):
                x, y, z = (_random_factor(rng, s) for _ in range(3))
                elements.append((x * y) * z)
    text = "\n".join("%s %s" % (x.s, x) for x in elements)
    return hashlib.sha256(text.encode()).hexdigest()


def test_normal_forms_match_digest(monkeypatch):
    # taken from the whole-word worklist that the letter-by-letter product
    # replaced: power words and random triples (xy)z on every sequence of
    # length 3 and 4
    digest = "0eeb572abebf1f4ac1011e6fa29e07200f67f1bd879db484dd77d3ba2fd11531"
    assert _normal_form_digest() == digest
    # negative control: one correction coefficient of one rule negated
    rule = rtt._pair_rule

    def corrupted(bits, g1, g2):
        out = rule(bits, g1, g2)
        if (g1, g2) != (("tb", 1, 2), ("t", 2, 1)):
            return out
        swapped, (c, word), *rest = out
        return (swapped, (-c, word), *rest)

    monkeypatch.setattr(rtt, "_pair_rule", corrupted)
    assert _normal_form_digest() != digest


def test_memo_caches_are_bounded():
    from qglrtt import weights

    for fn in (rtt._pair_rule, weights._word_product_terms, rtt._rmatrix_tables):
        assert fn.cache_parameters()["maxsize"] is not None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_from_word_equals_product_of_letters(data):
    s = ParitySeq(data.draw(st.text("01", min_size=2, max_size=3)))
    pool = pbw_generator_order(s) + [("t", a, a) for a in range(1, s.N + 1)]
    letters = data.draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from([-2, -1, 1, 2])),
            max_size=4,
        )
    )
    letters = [(g, e if g[1] == g[2] else abs(e)) for g, e in letters]
    prod = AlgebraElement.one(s)
    for (kind, i, j), e in letters:
        for _ in range(abs(e)):
            prod = prod * gen(s, kind, i, j, 1 if e > 0 else -1)
    assert AlgebraElement.from_word(s, letters) == prod


def test_diagonal_inverse():
    s = ParitySeq("010")
    for a in (1, 2, 3):
        prod = gen(s, "t", a, a) * gen(s, "tb", a, a)
        assert prod == AlgebraElement.one(s)


def test_normal_form_is_ordered():
    s = ParitySeq("010")
    x = gen(s, "tb", 1, 3) * gen(s, "t", 3, 1) * gen(s, "tb", 2, 2, -2)
    order = {g: n for n, g in enumerate(pbw_generator_order(s))}
    for key in x.terms:
        positions = [order[g] for g, _ in key]
        assert positions == sorted(positions)
        assert all(e != 0 for _, e in key)
        for g, e in key:
            if gen_parity(s, g) == 1:
                assert e == 1


# --- defining relations -----------------------------------------------------


@pytest.mark.parametrize("bits", ["01", "10", "00", "11"])
def test_defining_relations_rank_two(bits):
    report = check_defining_relations(ParitySeq(bits))
    assert report["pass"], report["failures"][:3]


@pytest.mark.parametrize("bits", ["001", "010", "100", "000", "111", "011"])
def test_defining_relations_rank_three(bits):
    report = check_defining_relations(ParitySeq(bits))
    assert report["pass"], report["failures"][:3]


def test_relation_checker_sees_corruption():
    # sanity: a deliberately wrong relation instance must produce a residual
    from qglrtt.rtt import relation_residual

    s = ParitySeq("01")
    res = relation_residual(s, "tt", 2, 1, 2, 1)
    assert res.is_zero()
    # corrupt: drop the varsigma sign by evaluating the tt relation with the
    # wrong family for mixed generators
    bad = gen(s, "t", 2, 1) * gen(s, "tb", 1, 2) - gen(s, "tb", 1, 2) * gen(
        s, "t", 2, 1
    )
    assert not bad.is_zero()


def test_relation_check_is_independent_of_the_engine(monkeypatch):
    # each rewrite rule solves one relation instance for one word, while the
    # check evaluates every instance whole on straightened products of
    # generators, so a rewrite rule that loses its correction term is caught
    orig = rtt._pair_rule
    monkeypatch.setattr(
        rtt, "_pair_rule", lambda bits, g1, g2: orig(bits, g1, g2)[:1]
    )
    report = check_defining_relations("001")
    assert not report["pass"]
    assert report["checked"] == 2 * 3 + 3 * 3**4
    assert report["failures"][0] == {
        "relation": "tt",
        "indices": [2, 1, 3, 2],
        "residual": "((-q^2 + 1)/q) t[3,1]*tb[2,2]^-1",
    }


def test_simple_raising_letters_generate_the_raising_letters():
    # tb[i+1,j] tb[i,i+1] = +-tb[i,i+1] tb[i+1,j] +- (q - q^-1) tb[i+1,i+1]
    # tb[i,j], so every raising letter lies in the algebra generated by the
    # simple ones and the diagonal ones; the module builder relies on it
    qd = QScalar.q_power(1) - QScalar.q_power(-1)
    walked = 0
    for n in (3, 4, 5):
        for bits in product("01", repeat=n):
            s = ParitySeq("".join(bits))
            for i in range(1, n - 1):
                for j in range(i + 2, n + 1):
                    prod = gen(s, "tb", i + 1, j) * gen(s, "tb", i, i + 1)
                    simple = ((("tb", i, i + 1), 1), (("tb", i + 1, j), 1))
                    corner = ((("tb", i + 1, i + 1), 1), (("tb", i, j), 1))
                    assert set(prod.terms) == {simple, corner}, (s, i, j)
                    assert prod.terms[simple] in (QONE, -QONE), (s, i, j)
                    assert prod.terms[corner] in (qd, -qd), (s, i, j)
                    walked += 1
    assert walked == 8 * 1 + 16 * 3 + 32 * 6


def test_pair_rule_table_digest():
    # every out-of-order pair on every sequence of length 2-4, pinned to the
    # table that was written out by hand before the rules were derived
    table = []
    for n in (2, 3, 4):
        for bits in product("01", repeat=n):
            s = ParitySeq("".join(bits))
            gens = sorted(g for g in pbw_generator_order(s) if g[1] != g[2])
            for g1, g2 in product(gens, repeat=2):
                if rtt._slot(g1) <= rtt._slot(g2):
                    continue
                rule = rtt._pair_rule(s.bits, g1, g2)
                assert rule[0][1] == (g2, g1)
                merged = {}
                for c, letters in rule:
                    merged[letters] = merged.get(letters, QZERO) + c
                table.append([str(s), list(g1), list(g2), sorted(
                    [[list(map(list, letters)), str(c)]
                     for letters, c in merged.items() if not c.is_zero()]
                )])
    assert len(table) == 1180
    digest = hashlib.sha256(
        json.dumps(table, separators=(",", ":")).encode()
    ).hexdigest()
    assert digest == (
        "ecc79fb87cb4c18fb3af7fc340bc527710ad39c50f05a9e8c8f59c4c397b4b47"
    )


# --- associativity / confluence ---------------------------------------------


@pytest.mark.parametrize(
    "bits",
    ["00", "01", "10", "11", "000", "001", "010", "011", "100", "101", "110",
     "111", "0011", "0101", "0110", "1001"],
)
def test_associativity_all_letter_triples(bits):
    # N(N-1) off-diagonal letters and N diagonal ones at exponent +1 and -1
    N = len(bits)
    assert check_normal_form_uniqueness(bits) == {
        "sequence": bits,
        "checked": (N * (N + 1)) ** 3,
        "failures": [],
        "pass": True,
    }


def test_normal_form_uniqueness_sees_a_rule_that_does_not_descend(monkeypatch):
    # a correction word of greater height breaks the termination order
    orig = rtt._pair_rule

    def bad_rule(bits, g1, g2):
        rule = orig(bits, g1, g2)
        if (g1, g2) == (("t", 3, 2), ("t", 2, 1)):
            rule += ((QONE, (("t", 3, 1), ("t", 3, 1))),)
        return rule

    monkeypatch.setattr(rtt, "_pair_rule", bad_rule)
    report = check_normal_form_uniqueness("001")
    assert not report["pass"]
    assert report["failures"] == [
        {"rule": ["t[3,2]", "t[2,1]"], "word": ["t[3,1]", "t[3,1]"]}
    ]


def test_normal_form_uniqueness_sees_an_unresolved_overlap(monkeypatch):
    # a doubled correction term keeps the order but not confluence
    orig = rtt._pair_rule

    def bad_rule(bits, g1, g2):
        rule = orig(bits, g1, g2)
        if (g1, g2) == (("t", 3, 2), ("t", 2, 1)):
            rule = rule[:1] + tuple((2 * c, w) for c, w in rule[1:])
        return rule

    monkeypatch.setattr(rtt, "_pair_rule", bad_rule)
    report = check_normal_form_uniqueness("001", max_failures=1)
    assert not report["pass"]
    assert report["failures"] == [
        {
            "triple": ["tb[1,2]", "t[3,2]", "t[2,1]"],
            "residual": "((-q^4 + 2*q^2 - 1)/q^2) t[3,2]*tb[1,1]*tb[2,2]^-1",
        }
    ]


# integers and fractions, some over a denominator that is not a power of
# q, so that sums and products mix denominators
COEFFICIENTS = [QScalar.from_int(c) for c in (1, -1, 2, 3)] + [
    qscalar_parse(t) for t in ("1/(1-q)", "(1+q)/(2*q)", "q^-2")
]


def _random_element(rng, s, nletters):
    letters = []
    N = s.N
    for _ in range(nletters):
        kind = rng.choice(["t", "tb"])
        i = rng.randrange(1, N + 1)
        j = rng.randrange(1, N + 1)
        if kind == "t" and i < j:
            i, j = j, i
        if kind == "tb" and i > j:
            i, j = j, i
        if i == j:
            exp = rng.choice([-2, -1, 1, 2])
        elif gen_parity(s, (kind, i, j)) == 1:
            exp = 1
        else:
            exp = rng.choice([1, 2])
        letters.append(((kind, i, j), exp))
    coeff = rng.choice(COEFFICIENTS)
    return AlgebraElement.from_word(s, letters, coeff)


@pytest.mark.parametrize("bits", ["01", "001", "010", "0011"])
def test_associativity_random(bits):
    s = ParitySeq(bits)
    rng = random.Random(20260818)
    for _ in range(40):
        x = _random_element(rng, s, rng.randrange(1, 3))
        y = _random_element(rng, s, rng.randrange(1, 3))
        z = _random_element(rng, s, rng.randrange(1, 3))
        assert (x * y) * z == x * (y * z)


def test_distributivity_and_scalars():
    s = ParitySeq("010")
    rng = random.Random(7)
    for _ in range(10):
        x = _random_element(rng, s, 2)
        y = _random_element(rng, s, 2)
        z = _random_element(rng, s, 1)
        assert x * (y + z) == x * y + x * z
        assert (y + z) * x == y * x + z * x
        c = qscalar_parse("q - q^-1")
        assert (x.scale(c)) * y == (x * y).scale(c)


# --- weights and parity -------------------------------------------------------


def test_weight_grading():
    s = ParitySeq("001")
    x = gen(s, "t", 3, 1)
    assert x.weight() == (-1, 0, 1)
    y = gen(s, "tb", 1, 2)
    assert y.weight() == (1, -1, 0)
    prod = x * y
    if not prod.is_zero():
        assert prod.weight() == (0, -1, 1)
    d = gen(s, "tb", 2, 2, -3)
    assert d.weight() == (0, 0, 0)


def test_products_preserve_weight_homogeneity():
    s = ParitySeq("010")
    rng = random.Random(99)
    for _ in range(20):
        x = _random_element(rng, s, 2)
        y = _random_element(rng, s, 2)
        wx, wy = x.weight(), y.weight()
        p = x * y
        if not p.is_zero():
            assert p.weight() == tuple(a + b for a, b in zip(wx, wy))


# --- Drinfeld-Jimbo relations -------------------------------------------------


@pytest.mark.parametrize(
    "bits", ["01", "10", "00", "001", "010", "100", "011", "0101", "1010"]
)
def test_dj_relations(bits):
    report = check_dj_relations(ParitySeq(bits))
    assert report["pass"], report["failures"][:3]


def test_degree_four_serre_relation_detects_a_wrong_coefficient():
    # 0101 has an isotropic simple root at i = 2 with 2 <= i <= N - 2, so
    # check_dj_relations checks the degree-four relation there; with
    # q_i^-1 in place of q_i in the inner bracket it no longer holds
    s = ParitySeq("0101")
    i = 2
    for dj_x in (dj_x_plus, dj_x_minus):
        x = {j: dj_x(s, j) for j in (i - 1, i, i + 1)}

        def residual(a):
            inner = super_bracket(x[i - 1], x[i], a)
            return super_bracket(
                super_bracket(inner, x[i + 1], s.q_i(i + 1)), x[i]
            )

        assert residual(s.q_i(i)).is_zero()
        assert len(residual(s.q_i(i).inverse()).terms) == 2


def test_dj_cartan_pairing_explicit():
    # [x1+, x1-] = (k1 k2^{-1} - k1^{-1} k2)/(q1 - q1^{-1}) on gl(1|1)
    s = ParitySeq("01")
    lhs = super_bracket(dj_x_plus(s, 1), dj_x_minus(s, 1))
    q1 = QScalar.q_power(s.d(1))
    cartan = (
        dj_k(s, 1) * dj_k(s, 2, -1) - dj_k(s, 1, -1) * dj_k(s, 2)
    ).scale((q1 - q1.inverse()).inverse())
    assert lhs == cartan


# --- rescaling automorphism ---------------------------------------------------


def test_scale_automorphism_is_homomorphism():
    s = ParitySeq("010")
    rng = random.Random(3)
    d = qscalar_parse("q^2")
    eps = (1, -1, 1)
    for _ in range(10):
        x = _random_element(rng, s, 2)
        y = _random_element(rng, s, 2)
        fx = scale_automorphism(s, d, eps, x)
        fy = scale_automorphism(s, d, eps, y)
        fxy = scale_automorphism(s, d, eps, x * y)
        assert fxy == fx * fy


def test_scale_automorphism_on_generators():
    s = ParitySeq("01")
    d = qscalar_parse("q")
    eps = (1, -1)
    x = gen(s, "t", 2, 1)
    assert scale_automorphism(s, d, eps, x) == x.scale(-qscalar_parse("q"))
    y = gen(s, "tb", 1, 2)
    assert scale_automorphism(s, d, eps, y) == y.scale(qscalar_parse("q^-1"))
    z = gen(s, "tb", 2, 2, -1)  # = t_{22}
    assert scale_automorphism(s, d, eps, z) == z.scale(-qscalar_parse("q"))


# --- parsing -------------------------------------------------------------------


def test_parse_element_roundtrip():
    s = ParitySeq("010")
    x = parse_element(s, "(q - q^-1) t[2,1]*tb[1,2] - tb[1,1]^-2")
    y = gen(s, "t", 2, 1) * gen(s, "tb", 1, 2)
    y = y.scale(qscalar_parse("q - q^-1")) - gen(s, "tb", 1, 1, -2)
    assert x == y
    # printing round-trips through the parser
    assert parse_element(s, str(x)) == x


def test_parse_element_rejects_bad_input():
    # the library constructor and the parser apply the same letter rules
    s = ParitySeq("01")
    for kind, i, j, e, message in [
        ("t", 1, 2, 1, "t[1,2] is not a generator"),  # upper index on t
        ("tb", 2, 1, 1, "tb[2,1] is not a generator"),
        ("t", 2, 1, -1, "only diagonal generators admit negative exponents"),
        ("t", 3, 1, 1, "index out of range in t[3,1]"),
        ("tb", 0, 1, 1, "index out of range in tb[0,1]"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            AlgebraElement.generator(s, kind, i, j, e)
        with pytest.raises(ElementParseError, match=re.escape(message)):
            parse_element(s, "%s[%d,%d]^%d" % (kind, i, j, e))
    # the element grammar has no other letter kind to misspell
    with pytest.raises(ValueError, match="kind must be 't' or 'tb'"):
        AlgebraElement.generator(s, "x", 1, 1)
    with pytest.raises(ElementParseError):
        parse_element(s, "")


def test_parse_scalar_only():
    s = ParitySeq("01")
    x = parse_element(s, "(q^2)")
    assert x == AlgebraElement.one(s).scale(qscalar_parse("q^2"))
    y = parse_element(s, "3 t[2,1]")
    assert y == gen(s, "t", 2, 1).scale(3)


def test_parse_element_arithmetic_errors_are_parse_errors():
    s = ParitySeq("01")
    for text in ("((0)^-2) t[2,1]", "((0)^-2t[2,1]", "t[%s,1]" % ("9" * 5000)):
        with pytest.raises(ElementParseError):
            parse_element(s, text)


def test_parse_element_rejects_before_straightening(monkeypatch):
    # a malformed later term is reported before any term is straightened
    calls = []
    monkeypatch.setattr(rtt, "_normalize", lambda *a: calls.append(a))
    with pytest.raises(ElementParseError):
        parse_element("01", "t[2,1] tb[1,2] + q")
    assert calls == []


# pieces of element text, well-formed or not; seeded concatenations of them
# pin which texts the element parser accepts and the normal form it returns
_PARSE_PIECES = [
    "t[2,1]", "tb[1,2]", "t[1,1]", "tb[1,1]", "tb[2,2]", "t[3,1]",
    "tb[2,3]", "t[3,2]", "t[1,2]", "tb[2,1]", "t[ 2 , 1 ]",
    "^2", "^-1", "^-2", "^", "^ -1",
    "+", "-", "-", "*", "/", " ",
    "(", ")", "q", "2", "0", "(q - q^-1)", "(q^2)", "(1+q)", "(0)",
    "t", "[", ",", "^-",
]


def _parse_outcome(s, text):
    try:
        return "%s %r = %s" % (s, text, parse_element(s, text))
    except (ElementParseError, rtt.StraighteningBudgetExceeded) as exc:
        return "%s %r ! %s" % (s, text, type(exc).__name__)


def test_parse_outcomes_match_digest():
    # taken from the hand-written term splitter that the scalar grammar
    # replaced: 1,379 of the 10,000 parses are accepted
    rng = random.Random(2025)
    texts = [
        "".join(rng.choice(_PARSE_PIECES) for _ in range(rng.randint(1, 7)))
        for _ in range(5000)
    ]
    lines = [_parse_outcome(s, x) for x in texts for s in ("01", "000")]
    accepted = sum(" = " in line for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (accepted, digest) == (
        1379,
        "c623d909005b031b3caf18b7fa76e44c3e9ef645f65d8a0c7f9232303301c239",
    )


def test_to_json_shape():
    s = ParitySeq("01")
    x = gen(s, "t", 2, 1) * gen(s, "tb", 1, 1, -1)
    js = x.to_json()
    assert js["sequence"] == "01"
    assert len(js["terms"]) == len(x.terms)
    order = pbw_generator_order(s)
    assert all(len(t["exponents"]) == len(order) for t in js["terms"])
