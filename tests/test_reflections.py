"""Tests for the adjacent-swap isomorphisms between presentations."""

import hashlib
import itertools
import random

import pytest

from qglrtt import reflections, rtt
from qglrtt.parity import ParitySeq
from qglrtt.reflections import (
    GeneratorMap,
    odd_reflection,
    odd_reflection_inverse,
    reflection_path_to_standard,
    sequence_braid_report,
    verify_odd_reflection,
)
from qglrtt.rtt import (
    AlgebraElement,
    check_relation_families,
    pbw_generator_order,
)


ALL_SEQS_2 = ["01", "10", "00", "11"]
ALL_SEQS_3 = ["".join(b) for b in itertools.product("01", repeat=3)]


def odd_pairs(lengths):
    return [
        ("".join(b), i)
        for n in lengths
        for b in itertools.product("01", repeat=n)
        for i in range(1, n)
        if b[i - 1] != b[i]
    ]


@pytest.mark.parametrize("bits", ALL_SEQS_2)
def test_reflection_rank_two(bits):
    s = ParitySeq(bits)
    rep = verify_odd_reflection(s, 1)
    assert rep["pass"], rep["relation_failures"][:3]


@pytest.mark.parametrize("bits,i", [(b, i) for b in ALL_SEQS_3 for i in (1, 2)])
def test_reflection_rank_three(bits, i):
    s = ParitySeq(bits)
    rep = verify_odd_reflection(s, i)
    assert rep["pass"], (bits, i, rep["relation_failures"][:3])


def test_equal_parity_gives_identity():
    s = ParitySeq("001")
    f = odd_reflection(s, 1)
    assert f.source == f.target == s
    x = AlgebraElement.generator(s, "t", 3, 1)
    assert f.apply(x) == x


def test_reflection_is_homomorphism_on_products():
    s = ParitySeq("010")
    f = odd_reflection(s, 1)
    g = lambda k, i, j, e=1: AlgebraElement.generator(s, k, i, j, e)
    samples = [
        g("t", 2, 1) * g("t", 3, 2),
        g("tb", 1, 3) * g("t", 3, 1),
        g("tb", 2, 2, -2) * g("t", 3, 1) * g("tb", 1, 2),
    ]
    for x in samples:
        for y in samples:
            assert f.apply(x * y) == f.apply(x) * f.apply(y)


def _reflected_words_that_disagree(seed=32, words=40):
    """Oracle B: an odd reflection f is a homomorphism written out by hand.

    For a word w over s, f applied to the normal form of w must equal the
    product over s' of the images of the letters of w.  The images come
    from formulas, not from the straightening rules, so a wrong rule shows
    as a disagreement.  Covers every odd position of every sequence of
    length 2-4 with `words` seeded words of 2-4 letters each; returns the
    number of words checked and the number that disagree.
    """
    rng = random.Random(seed)
    checked = bad = 0
    for bits, i in odd_pairs((2, 3, 4)):
        s = ParitySeq(bits)
        f = odd_reflection(s, i)
        letters = [(g, 1) for g in pbw_generator_order(s)]
        letters += [(("tb", a, a), -1) for a in range(1, s.N + 1)]
        images = {
            x: f.apply(AlgebraElement.generator(s, *x[0], x[1])) for x in letters
        }
        for _ in range(words):
            word = [rng.choice(letters) for _ in range(rng.randint(2, 4))]
            product = images[word[0]]
            for x in word[1:]:
                product = product * images[x]
            checked += 1
            bad += f.apply(AlgebraElement.from_word(s, word)) != product
    return checked, bad


def test_reflections_map_normal_forms_to_products_of_images():
    assert _reflected_words_that_disagree() == (34 * 40, 0)


def test_reflected_words_see_a_negated_correction(monkeypatch):
    # negative control: the first correction of every rule negated
    orig = rtt._pair_rule

    def negated(bits, g1, g2):
        swapped, *rest = orig(bits, g1, g2)
        if rest:
            (c, letters), *rest = rest
            rest = [(-c, letters)] + rest
        return (swapped, *rest)

    monkeypatch.setattr(rtt, "_pair_rule", negated)
    checked, bad = _reflected_words_that_disagree()
    assert bad > 0


def test_reflection_roundtrip_on_elements():
    s = ParitySeq("010")
    f = odd_reflection(s, 2)
    finv = odd_reflection_inverse(s, 2)
    g = lambda k, i, j, e=1: AlgebraElement.generator(s, k, i, j, e)
    x = g("t", 3, 1) * g("tb", 1, 2) - g("tb", 3, 3, 2).scale(3)
    assert finv.apply(f.apply(x)) == x


def test_compose_reflections_along_sorting_path():
    s = ParitySeq("100")
    word, stages = reflection_path_to_standard(s)
    assert stages[0] == s
    assert stages[-1].is_standard()
    total = GeneratorMap.identity(s)
    cur = s
    for i in word:
        total = odd_reflection(cur, i).compose(total)
        cur = cur.swap(i)
    assert total.source == s and ParitySeq(total.target).is_standard()
    # composite of isomorphisms is a homomorphism
    g = lambda k, i, j, e=1: AlgebraElement.generator(s, k, i, j, e)
    x = g("t", 2, 1)
    y = g("t", 3, 2)
    assert total.apply(x * y) == total.apply(x) * total.apply(y)


def test_sequence_braid_laws():
    for N in (2, 3, 4):
        rep = sequence_braid_report(N)
        assert rep["pass"], rep


@pytest.mark.parametrize(
    "bits,i",
    [(b, i) for b in ("0011", "0101", "0110", "1001", "1010", "1100")
     for i in (1, 2, 3)
     if b[i - 1] != b[i]],
)
def test_reflection_rank_four(bits, i):
    # at length four both branch families (other index below i and above
    # i+1) coexist for i = 2, which is the first place their relative sign
    # matters; the full check covers relations and both roundtrips
    rep = verify_odd_reflection(ParitySeq(bits), i)
    assert rep["pass"], rep


@pytest.mark.parametrize("bits,i", [("01011", 3), ("11010", 2)])
def test_reflection_rank_five_spot(bits, i):
    rep = verify_odd_reflection(ParitySeq(bits), i)
    assert rep["pass"], rep


def test_derived_inverse_reproduces_table_digest():
    # sha256 over every image of the hand-written inverse table that the
    # back-substitution in GeneratorMap.inverse replaced, 98 odd pairs
    h = hashlib.sha256()
    pairs = odd_pairs(range(2, 6))
    assert len(pairs) == 98
    for bits, i in pairs:
        g = odd_reflection_inverse(bits, i)
        for kind, images in (("t", g.t_images), ("tb", g.tb_images)):
            for (a, b) in sorted(images):
                h.update(("%s %d %s[%d,%d] %s\n" % (
                    bits, i, kind, a, b, images[(a, b)])).encode())
    assert h.hexdigest() == (
        "5a9f1492678e506ab06db1f8ef5f95cfd4cad7168fa64df0e751227c8ab7f18c"
    )


@pytest.mark.parametrize("bits,i", odd_pairs((2, 3, 4)))
def test_inverse_respects_relations(bits, i):
    # both roundtrips of verify_odd_reflection hold by construction of the
    # derived inverse; the relations of the swapped presentation, mapped by
    # the inverse, are the independent check
    inv = odd_reflection(bits, i).inverse()
    failures = []
    checked = check_relation_families(inv.source, inv.image, failures, 10)
    assert checked == 3 * len(bits) ** 4
    assert failures == []


def test_inverse_of_non_invertible_map_raises():
    f = odd_reflection("01", 1)
    f.t_images[(2, 1)] = AlgebraElement.zero(f.target)
    with pytest.raises(ValueError, match="not invertible"):
        f.inverse()


def negated_far_branch_sign(monkeypatch):
    sign = reflections._far_branch_sign
    monkeypatch.setattr(
        reflections, "_far_branch_sign", lambda s, i: -sign(s, i)
    )


@pytest.mark.parametrize("bits,i", [("0101", 2), ("0011", 2)])
def test_wrong_branch_sign_fails_relations(monkeypatch, bits, i):
    # the derived inverse inverts whatever forward map it is given, so the
    # roundtrips pass; only the relation check of the forward map fails
    negated_far_branch_sign(monkeypatch)
    rep = verify_odd_reflection(bits, i)
    assert rep["roundtrip_ok"] is True
    assert rep["pass"] is False
    assert rep["relation_failures"]
    assert {f["relation"] for f in rep["relation_failures"]} <= {
        "tt", "tbtb", "ttb"
    }


def test_wrong_branch_sign_is_another_isomorphism_on_0110(monkeypatch):
    # not a negative control: on 0110 at i = 2 the negated sign gives a
    # second valid isomorphism, so the check rightly passes here
    negated_far_branch_sign(monkeypatch)
    assert verify_odd_reflection("0110", 2)["pass"] is True
