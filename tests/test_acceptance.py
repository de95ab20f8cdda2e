"""Acceptance gate: one test per primary claim, all arithmetic exact.

Every assertion is an exact identity over the rational-function field
(tolerance identically zero).  Run with ``pytest -v tests/test_acceptance.py``
to get one pass/fail line per claim.

The small-rank module catalog lists a fourth diagram family (even-pair
label +1 with both odd pairs degenerate, claimed dimension 2) that is
provably unrealizable: the even-pair form is the difference of the two
odd-pair forms, so its constraint system forces 1 = 0, and an exhaustive
scan finds no 2-dimensional module.
``test_criterion_07_row4_claimed_realization`` states that row as a
catalogue erratum: it asserts that the row is refuted, by the constraint
system and by the library's own classifier, and turns red if either ever
reports the row as realizable.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from qglrtt.affine import (
    HWSeries,
    PolyCertificate,
    Refusal,
    check_T1,
    check_T2,
    check_T3,
    cyclic_span,
    evaluation_rep,
    highest_weight_series,
    tensor,
    verify_affine_relations,
)
from qglrtt.parity import (
    ParitySeq,
    enumerate_sequences,
    even_positive_roots,
    odd_positive_roots,
    rho_fractions,
)
from qglrtt.reflections import verify_odd_reflection
from qglrtt.rtt import (
    AlgebraElement,
    check_defining_relations,
    check_dj_relations,
    gen_parity,
)
from qglrtt.scalars import QScalar, qscalar_parse
from qglrtt.tensor import (
    rtilde_residuals,
    ybe_residual_constant,
    ybe_residual_spectral,
)
from qglrtt.weights import (
    DID_NOT_STABILIZE,
    HWeight,
    build_irreducible,
    classify,
    parse_weight,
    reflect_weight,
    typicality,
)
from series_helpers import ONE, conv, eval_form, qp, qstring


def all_sequences(N):
    out = []
    for m in range(N + 1):
        out.extend(enumerate_sequences(m, N - m))
    return out


# ---------------------------------------------------------------------------
# 1-3: R-matrix identities
# ---------------------------------------------------------------------------


def test_criterion_01_constant_yang_baxter():
    """Constant graded Yang-Baxter identity for every parity sequence of
    length 2, 3, and 4, in under 10 seconds."""
    t0 = time.monotonic()
    checked = 0
    for N in (2, 3, 4):
        for s in all_sequences(N):
            assert ybe_residual_constant(s).is_zero(), str(s)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 28
    assert elapsed < 10.0, "took %.1fs" % elapsed


def test_criterion_02_r_tilde_identities():
    """R~ equals both R - (q - q^-1)P and P R^-1 P, exactly, for every
    parity sequence of length 2, 3, and 4."""
    for N in (2, 3, 4):
        for s in all_sequences(N):
            first, second = rtilde_residuals(s)
            assert first.is_zero(), str(s)
            assert second.is_zero(), str(s)


def test_criterion_03_spectral_yang_baxter():
    """Spectral Yang-Baxter identity as an exact polynomial matrix identity
    in three parameters, for every sequence of length 2 and 3."""
    for N in (2, 3):
        for s in all_sequences(N):
            assert ybe_residual_spectral(s).is_zero(), str(s)


# ---------------------------------------------------------------------------
# 4-5: straightening engine
# ---------------------------------------------------------------------------


def _random_element(rng, s, degree):
    letters = []
    N = s.N
    for _ in range(degree):
        kind = rng.choice(["t", "tb"])
        i = rng.randrange(1, N + 1)
        j = rng.randrange(1, N + 1)
        if kind == "t" and i < j:
            i, j = j, i
        if kind == "tb" and i > j:
            i, j = j, i
        exp = rng.choice([-1, 1]) if i == j else 1
        letters.append(((kind, i, j), exp))
    coeff = QScalar.from_int(rng.choice([1, -1, 2, 3]))
    return AlgebraElement.from_word(s, letters, coeff)


def test_criterion_04_straightening_and_associativity():
    """Every defining-relation instance normalizes to zero for all
    sequences of length 2 and 3, and 1000 random degree-<=3 associativity
    triples hold exactly, in under 60 seconds."""
    t0 = time.monotonic()
    for N in (2, 3):
        for s in all_sequences(N):
            report = check_defining_relations(s)
            assert report["pass"], (str(s), report["failures"][:1])
    rng = random.Random(20260818)
    seqs = all_sequences(2) + all_sequences(3)
    for count in range(1000):
        s = seqs[count % len(seqs)]
        x = _random_element(rng, s, rng.randrange(1, 4))
        y = _random_element(rng, s, rng.randrange(1, 4))
        z = _random_element(rng, s, rng.randrange(1, 4))
        assert (x * y) * z == x * (y * z), str(s)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "took %.1fs" % elapsed


def test_criterion_05_chevalley_image_relations():
    """The Chevalley-style generators built from the matrix generators
    satisfy all six quantized Serre-type relation families, for every
    sequence of length 2 and 3."""
    for N in (2, 3):
        for s in all_sequences(N):
            report = check_dj_relations(s)
            assert report["pass"], (str(s), report["failures"][:1])


# ---------------------------------------------------------------------------
# 6: odd reflections
# ---------------------------------------------------------------------------


def test_criterion_06_odd_reflections():
    """For every sequence of length 2 and 3 and every position, the
    reflection map sends each relation to zero in the target algebra and
    composes with its inverse to the identity on generators."""
    for N in (2, 3):
        for s in all_sequences(N):
            for i in range(1, N):
                report = verify_odd_reflection(s, i)
                assert report["pass"], (str(s), i, report["relation_failures"][:1])
                assert report["relation_failures"] == []
                assert report["roundtrip_ok"]


# ---------------------------------------------------------------------------
# 7: the rank-(2|1) module catalog
# ---------------------------------------------------------------------------

CATALOG_ROWS = {
    1: {"weight": lambda p: (p, 0, 1), "dim": lambda p: 4 * (p + 1), "typical": True},
    2: {"weight": lambda p: (p, 0, 0), "dim": lambda p: 2 * p + 1, "typical": False},
    3: {"weight": lambda p: (p, 0, -p - 1), "dim": lambda p: 2 * p + 3, "typical": False},
}


def _transport_all_sequences(w):
    """The weight at 001 transported by odd reflections to 010 and 100."""
    targets = {"001": (ParitySeq("001"), w)}
    s2, w2, _ = reflect_weight("001", 2, w)
    targets[str(s2)] = (s2, w2)
    s3, w3, _ = reflect_weight(s2, 1, w2)
    targets[str(s3)] = (s3, w3)
    assert set(targets) == {"001", "010", "100"}
    return targets


def test_criterion_07_rank21_module_catalog():
    """Catalogued small-rank modules: the three realizable diagram rows
    give dimensions 4(p+1), 2p+1, 2p+3 for p = 1, 2, 3, with matching
    typicality flags, on every length-3 sequence with one odd index;
    runtime under 5 minutes."""
    t0 = time.monotonic()
    for row, data in CATALOG_ROWS.items():
        for p in (1, 2, 3):
            w = HWeight("001", data["weight"](p))
            for name, (sx, wx) in _transport_all_sequences(w).items():
                verdict = classify(sx, wx)
                assert verdict["finite"], (row, p, name)
                assert verdict["typical"] == data["typical"], (row, p, name)
                rep = build_irreducible(sx, wx, 12)
                assert rep != DID_NOT_STABILIZE, (row, p, name)
                assert rep.dim == data["dim"](p), (row, p, name, rep.dim)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, "took %.1fs" % elapsed


def _row4_system(bits):
    """Linear system: even-pair label +1, both odd-pair pairings zero."""
    s = ParitySeq(bits)
    rho = rho_fractions(s)
    rows = []
    (a, b) = even_positive_roots(s)[0]
    row = [Fraction(0)] * 3
    row[a - 1] = Fraction(s.d(a))
    row[b - 1] = Fraction(-s.d(b))
    rows.append((row, Fraction(1)))
    for (i, j) in odd_positive_roots(s):
        row = [Fraction(0)] * 3
        row[i - 1] = Fraction(s.d(i))
        row[j - 1] = Fraction(-s.d(j))
        rhs = -(s.d(i) * rho[i - 1] - s.d(j) * rho[j - 1])
        rows.append((row, Fraction(rhs)))
    return rows


def _consistent(rows):
    m = [list(r) + [c] for r, c in rows]
    piv = 0
    for col in range(3):
        sel = next((r for r in range(piv, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[piv], m[sel] = m[sel], m[piv]
        for r in range(len(m)):
            if r != piv and m[r][col] != 0:
                f = m[r][col] / m[piv][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[piv])]
        piv += 1
    return not any(
        all(x == 0 for x in row[:3]) and row[3] != 0 for row in m
    )


def test_criterion_07_row4_constraints_are_unsatisfiable():
    """The fourth catalogued diagram family (even-pair label +1 with both
    odd pairs degenerate) has an inconsistent constraint system on every
    length-3 sequence with one odd index: the even-pair form is the
    difference of the two odd-pair forms, so label 1 would force 1 = 0."""
    for bits in ("001", "010", "100"):
        assert not _consistent(_row4_system(bits)), bits


def test_criterion_07_row4_no_two_dimensional_module_exists():
    """Exhaustive scan of the half-integer cube {-4, -7/2, ..., 4}^3 on all
    three sequences: no finite-dimensional atypical module has dimension 2,
    so the fourth catalogued row has no realization anywhere nearby."""
    t0 = time.monotonic()
    half = [Fraction(k, 2) for k in range(-8, 9)]
    scanned = 0
    finite_atypical = 0
    hits = []
    for bits in ("001", "010", "100"):
        for a in half:
            for b in half:
                for c in half:
                    scanned += 1
                    w = HWeight(bits, (a, b, c))
                    verdict = classify(bits, w)
                    if not verdict["finite"] or verdict["typical"]:
                        continue
                    finite_atypical += 1
                    rep = build_irreducible(bits, w, 10)
                    if rep != DID_NOT_STABILIZE and rep.dim == 2:
                        hits.append((bits, (a, b, c)))
    assert scanned == 3 * 17 ** 3
    assert finite_atypical >= 400
    assert hits == [], hits
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, "took %.1fs" % elapsed


def test_criterion_07_row4_claimed_realization():
    """Catalogue erratum: the fourth catalogued diagram family (even-pair
    label +1 with both odd pairs degenerate, claimed dimension 2) has no
    realization, so the row is asserted refuted.

    The constraint system is inconsistent on every sequence, and the
    classifier agrees: every weight with even-pair label exactly +1 (first
    even and odd exponents on the half-integer grid {-4, ..., 4}) is finite
    with at most one circle among its odd boxes."""
    realizable = [
        bits for bits in ("001", "010", "100")
        if _consistent(_row4_system(bits))
    ]
    assert realizable == [], (
        "catalogue erratum contradicted: the fourth-row constraints (even-"
        "pair label +1 with both odd pairs degenerate) are satisfiable on %s"
        % realizable
    )
    half = [Fraction(k, 2) for k in range(-8, 9)]
    scanned = 0
    for bits in ("001", "010", "100"):
        s = ParitySeq(bits)
        ((a, b),) = even_positive_roots(s)
        (c,) = [i for i in (1, 2, 3) if i not in (a, b)]
        for x in half:
            for z in half:
                exps = [None] * 3
                exps[a - 1], exps[b - 1], exps[c - 1] = x, x - s.d(a), z
                verdict = classify(bits, HWeight(bits, exps))
                scanned += 1
                assert verdict["finite"], (bits, exps)
                boxes = verdict["diagram"]["boxes"]
                assert [
                    box["label"] for box in boxes if box["kind"] == "label"
                ] == ["+1"], (bits, exps)
                circles = [
                    box["pair"] for box in boxes if box["kind"] == "circle"
                ]
                assert circles == verdict["atypical_roots"], (bits, exps)
                assert len(circles) <= 1, (
                    "catalogue erratum contradicted: %s on %s has even-pair "
                    "label +1 and both odd pairs degenerate" % (exps, bits)
                )
    assert scanned == 3 * 17 ** 2


# ---------------------------------------------------------------------------
# 8-9: dimension formula and classifier/construction agreement
# ---------------------------------------------------------------------------


def test_criterion_08_typical_dimension_formula():
    """Constructed dimension equals 2^(m*n) times the even Weyl-product
    dimension for at least 10 typical weights each at rank (1|1) and
    rank (2|1)."""
    hits_11 = 0
    for exps in [
        (1, 1), (2, 1), (3, 1), (1, 2), (2, 3), (-1, 2), (-2, 3),
        (5, 0), (0, 1), (7, -2),
        (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(-1, 2)),
    ]:
        w = HWeight("01", exps)
        if not typicality("01", w)[0]:
            continue
        rep = build_irreducible("01", w, 8)
        assert rep != DID_NOT_STABILIZE
        assert rep.dim == 2, (exps, rep.dim)  # 2^(1*1) * empty product
        hits_11 += 1
    assert hits_11 >= 10

    hits_21 = 0
    for exps in [
        (1, 0, 1), (2, 0, 1), (3, 0, 1), (4, 0, 1), (2, 1, 1), (3, 1, 2),
        (2, 2, 1), (1, 0, 3), (2, 0, -4), (3, 2, 2), (1, 1, 1), (5, 0, 1),
    ]:
        w = HWeight("001", exps)
        verdict = classify("001", w)
        if not verdict["finite"] or not verdict["typical"]:
            continue
        rep = build_irreducible("001", w, 12)
        assert rep != DID_NOT_STABILIZE
        # 2^(2*1) * (even-pair Weyl factor)
        expected = 4 * (exps[0] - exps[1] + 1)
        assert rep.dim == expected, (exps, rep.dim, expected)
        hits_21 += 1
    assert hits_21 >= 10


def test_criterion_09_classifier_matches_construction():
    """On a 52-point weight grid across ranks (1|1) and (2|1) at level cap
    12, the classifier verdict coincides exactly with stabilization of the
    construction, and odd-reflection chains preserve the constructed
    dimension."""
    grid = []
    for e1 in range(-2, 3):
        for e2 in range(-2, 3):
            grid.append(("01", (e1, e2)))
    for a in range(3):
        for b in range(3):
            for c in (-1, 0, 1):
                grid.append(("001", (a, b, c)))
    assert len(grid) >= 50

    for bits, exps in grid:
        s = ParitySeq(bits)
        w = HWeight(s, exps)
        finite = classify(s, w)["finite"]
        rep = build_irreducible(s, w, 12)
        stabilized = rep != DID_NOT_STABILIZE
        assert finite == stabilized, (bits, exps, finite, stabilized)
        if not finite:
            continue
        cur_s, cur_w, cur_dim = s, w, rep.dim
        for i in range(1, s.N):
            if cur_s.parity(i) == cur_s.parity(i + 1):
                continue
            cur_s, cur_w, _ = reflect_weight(cur_s, i, cur_w)
            rep2 = build_irreducible(cur_s, cur_w, 12)
            assert rep2 != DID_NOT_STABILIZE, (bits, exps, i)
            assert rep2.dim == cur_dim, (bits, exps, i, rep2.dim, cur_dim)


# ---------------------------------------------------------------------------
# 10: evaluation representations
# ---------------------------------------------------------------------------

EVAL_WEIGHTS = {
    "00": ["+q^2,+q^0", "+q^1,+q^1"],
    "01": ["+q^1,+q^1", "+q^2,+q^1"],
    "10": ["+q^1,+q^0", "+q^1,+q^1"],
    "11": ["+q^2,+q^0", "+q^1,+q^0"],
    "000": ["+q^2,+q^1,+q^0", "+q^1,+q^1,+q^0"],
    "001": ["+q^2,+q^1,+q^1", "+q^1,+q^1,+q^0"],
    "010": ["+q^1,+q^1,+q^0", "+q^1,+q^0,+q^0"],
    "100": ["+q^1,+q^1,+q^0", "+q^0,+q^1,+q^1"],
    "011": ["+q^1,+q^1,+q^0", "+q^1,+q^2,+q^0"],
    "101": ["+q^1,+q^1,+q^0", "+q^2,+q^0,+q^1"],
    "110": ["+q^2,+q^1,+q^0", "+q^1,+q^0,+q^0"],
    "111": ["+q^2,+q^1,+q^0", "+q^1,+q^1,+q^0"],
}


def test_criterion_10_evaluation_representations():
    """For every parity sequence of length 2 and 3, evaluation modules of
    dimension at most 16 satisfy all four affine relation families exactly,
    and the extracted series per index is mu^-1 - mu a^-1 u^-1 on one
    family and mu - mu^-1 a u on the other."""
    a = qscalar_parse("q^1")
    covered = set()
    for bits, weight_texts in EVAL_WEIGHTS.items():
        for wtext in weight_texts:
            rep = evaluation_rep(bits, parse_weight(bits, wtext), a)
            assert rep.dim <= 16, (bits, wtext, rep.dim)
            report = verify_affine_relations(rep)
            assert report["pass"], (bits, wtext, report["failures"][:1])
            hw = highest_weight_series(rep)
            assert hw.unique, (bits, wtext)
            a_s = a.stretch(rep.denominator)
            mi = rep.maximal_index
            for i in range(1, rep.s.N + 1):
                mu = rep.mode("tb", i, i, 0)[mi, mi]
                assert hw.lam[i - 1] == {
                    0: mu.inverse(),
                    1: -(mu * a_s.inverse()),
                }, (bits, wtext, i)
                assert hw.lam_bar[i - 1] == {
                    0: mu,
                    1: -(mu.inverse() * a_s),
                }, (bits, wtext, i)
            covered.add(bits)
    assert covered == set(EVAL_WEIGHTS)
    assert len(covered) == 12  # every sequence of length 2 and 3


def _even_weyl_orbit_witness(rep):
    """A same-parity pair whose swap changes the weight multiset, or None.

    The transpositions of positions of equal parity generate S_m x S_n.
    """
    s, base = rep.s, Counter(rep.weights)
    for i in range(1, s.N + 1):
        for j in range(i + 1, s.N + 1):
            if s.parity(i) != s.parity(j):
                continue
            swapped = Counter(
                wt[:i - 1] + (wt[j - 1],) + wt[i:j - 1] + (wt[i - 1],) + wt[j:]
                for wt in rep.weights
            )
            if swapped != base:
                return i, j
    return None


def test_weight_multisets_invariant_under_even_weyl_group():
    """The weights of every finite module built, counted with multiplicity,
    are invariant under S_m x S_n, which permutes the even positions among
    themselves and the odd ones among themselves: on the criterion-9 grid,
    the criterion-10 weights, and one seeded finite weight on every
    sequence of length 2 to 4."""
    cases = [("01", HWeight("01", (e1, e2)))
             for e1 in range(-2, 3) for e2 in range(-2, 3)]
    cases += [("001", HWeight("001", (a, b, c)))
              for a in range(3) for b in range(3) for c in (-1, 0, 1)]
    cases += [(bits, parse_weight(bits, text))
              for bits, texts in EVAL_WEIGHTS.items() for text in texts]
    rng = random.Random(8)
    for N in (2, 3, 4):
        for s in all_sequences(N):
            draws = (HWeight(s, [rng.randint(-1, 2) for _ in range(N)])
                     for _ in range(100))
            cases.append((s, next(w for w in draws
                                  if classify(s, w)["finite"])))
    built = 0
    for s, w in cases:
        if not classify(s, w)["finite"]:
            continue
        rep = build_irreducible(s, w, 24)
        assert rep != DID_NOT_STABILIZE, (str(s), w.to_string())
        witness = _even_weyl_orbit_witness(rep)
        assert witness is None, (str(s), w.to_string(), witness)
        built += 1
    assert built == 95


# ---------------------------------------------------------------------------
# 11: rank-(1|1) tensor dichotomy
# ---------------------------------------------------------------------------


def test_criterion_11_tensor_dichotomy():
    """8x8 parameter grid for a two-factor rank-(1|1) tensor product,
    covering both excluded parameter ratios: the product is irreducible
    (both corner vectors cyclic) exactly away from the two ratios, each
    corner degenerates exactly on its own ratio, and at irreducible points
    the two-factor certificate has K = 2, root polynomial proportional to
    the product of the per-factor linear factors, and dimension 2^K."""
    w1 = parse_weight("01", "+q^1,+q^1")   # mu = (q, q^-1)
    w2 = parse_weight("01", "+q^2,+q^1")   # mu = (q^2, q^-1)
    m1 = build_irreducible("01", w1, 6)
    m2 = build_irreducible("01", w2, 6)
    mu11, mu21 = qp(1), qp(2)
    # excluded ratios a1/a2: mu_{1,2}^2 / mu_{2,1}^2 = q^-6 (top corner),
    # mu_{1,1}^2 / mu_{2,2}^2 = q^4 (bottom corner)
    top_bad, bottom_bad = -6, 4
    saw_top = saw_bottom = 0
    firsts = [evaluation_rep("01", w1, qp(k - 4), module=m1) for k in range(8)]
    seconds = [
        evaluation_rep("01", w2, qp(k - 4), module=m2) for k in range(8)
    ]
    for rep in firsts + seconds:
        assert verify_affine_relations(rep)["pass"], rep.provenance
    for i in range(8):
        for j in range(8):
            a1, a2 = qp(i - 4), qp(j - 4)
            ratio = (i - 4) - (j - 4)
            T = tensor(firsts[i], seconds[j])
            assert T.dim == 4
            # reducible or not, the product is a representation
            assert verify_affine_relations(T)["pass"], (i, j)
            span_top = cyclic_span(T, T.maximal_index)
            span_bottom = cyclic_span(T, 3)
            condition_holds = ratio not in (top_bad, bottom_bad)
            assert (span_top == 4 and span_bottom == 4) == condition_holds, (
                i, j, span_top, span_bottom
            )
            assert (span_top < 4) == (ratio == top_bad), (i, j, span_top)
            assert (span_bottom < 4) == (ratio == bottom_bad), (
                i, j, span_bottom
            )
            cert = check_T1(highest_weight_series(T))
            assert isinstance(cert, PolyCertificate)
            if condition_holds:
                assert cert.K == 2, (i, j, cert.K)
                expected = conv(
                    {0: mu11, 1: -(mu11.inverse() * a1)},
                    {0: mu21, 1: -(mu21.inverse() * a2)},
                )
                dense = [expected.get(r, QScalar.zero()) for r in range(3)]
                for r in range(3):
                    assert cert.Q[r] * dense[0] == dense[r] * cert.Q[0], (
                        i, j, r
                    )
                assert span_top == 2 ** cert.K
            else:
                assert cert.K < 2, (i, j, cert.K)
                saw_top += ratio == top_bad
                saw_bottom += ratio == bottom_bad
    assert saw_top >= 1 and saw_bottom >= 1  # both ratios really on the grid


# ---------------------------------------------------------------------------
# 12: string certificates
# ---------------------------------------------------------------------------


def test_criterion_12_string_certificates():
    """Equal-parity evaluation modules certify with exact q-string root
    polynomials on both all-even and all-odd sequences; a rank-(2|1)
    evaluation module yields a complete pairwise family with consistent
    chain factorizations; and a crafted series whose adjacent pairs
    certify but whose outer pair cannot is refused."""
    # all-even rank 2: P has the q-string roots
    for exps, atext in [((2, 0), "q^1"), ((3, 1), "q^2"), ((1, 0), "q^-1"),
                        ((4, 0), "q^3")]:
        w = HWeight("00", exps)
        a = qscalar_parse(atext)
        rep = evaluation_rep("00", w, a)
        assert verify_affine_relations(rep)["pass"], (exps, atext)
        cert = check_T2(highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate), (exps, atext)
        K = exps[0] - exps[1]
        assert cert.K == K
        mi = rep.maximal_index
        mu2 = rep.mode("tb", 2, 2, 0)[mi, mi]
        assert cert.P == qstring(K, qp(-2), mu2.inverse() ** 2 * a), (
            exps, atext
        )

    # all-odd rank 2: mirrored string direction
    for exps, atext in [((2, 0), "q^1"), ((1, 0), "q^2"), ((3, 1), "q^0")]:
        w = HWeight("11", exps)
        a = qscalar_parse(atext)
        rep = evaluation_rep("11", w, a)
        assert verify_affine_relations(rep)["pass"], (exps, atext)
        cert = check_T2(highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate), (exps, atext)
        K = exps[0] - exps[1]
        assert cert.K == K
        mi = rep.maximal_index
        mu2 = rep.mode("tb", 2, 2, 0)[mi, mi]
        assert cert.P == qstring(K, qp(2), mu2.inverse() ** 2 * a), (
            exps, atext
        )

    # rank (2|1): full pairwise family with consistent chains
    rep = evaluation_rep(
        "001", parse_weight("001", "+q^2,+q^1,+q^1"), qscalar_parse("q^1")
    )
    assert verify_affine_relations(rep)["pass"]
    cert = check_T3("001", highest_weight_series(rep))
    assert isinstance(cert, PolyCertificate)
    assert cert.pairs[(1, 2)].kind == "T2"
    assert cert.pairs[(1, 3)].kind == "T1"
    assert cert.pairs[(2, 3)].kind == "T1"
    assert cert.epsilon == (1, 1, 1)
    assert cert.chains["ratio_chains"] == [[1, 2, 3]]
    mi = rep.maximal_index
    mu2 = rep.mode("tb", 2, 2, 0)[mi, mi]
    a = qscalar_parse("q^1")
    assert cert.pairs[(1, 2)].P == qstring(1, qp(-2), mu2.inverse() ** 2 * a)

    # crafted adjacent-only-consistent series is refused
    two = QScalar.from_int(2)
    mus = [two, qp(1), ONE]
    lam = [eval_form(m, ONE)[0] for m in mus]
    bar = [eval_form(m, ONE)[1] for m in mus]
    hw = HWSeries("010", lam, bar)
    from qglrtt.affine import _odd_pair_certificate

    assert isinstance(_odd_pair_certificate(hw, 1, 2), PolyCertificate)
    assert isinstance(_odd_pair_certificate(hw, 2, 3), PolyCertificate)
    out = check_T3("010", hw)
    assert isinstance(out, Refusal)
    assert out.reason == "pairwise certificate failure"
    assert sorted(out.details["pairs"]) == ["1,3"]
