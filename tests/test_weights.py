"""Tests for highest-weight classification and module construction."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qglrtt.parity import ParitySeq
from qglrtt.scalars import QScalar
from qglrtt.tensor import Mat
from qglrtt.weights import (
    DID_NOT_STABILIZE,
    HWeight,
    ModuleRep,
    WeightError,
    build_irreducible,
    classify,
    kac_dimension,
    parse_weight,
    reflect_weight,
    render_diagram,
    typicality,
    verify_module,
)

_small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


# ---------------------------------------------------------------------------
# weight parsing and printing
# ---------------------------------------------------------------------------


def test_parse_basic():
    w = parse_weight("001", "+q^3,q^0,-q^-1/2")
    assert w.exponents == (Fraction(3), Fraction(0), Fraction(-1, 2))
    assert w.signs == (1, 1, -1)
    assert w.denominator() == 2


def test_parse_roundtrip_explicit():
    w = HWeight("01", (Fraction(5, 3), -2), (-1, 1))
    assert parse_weight("01", w.to_string()) == w


@given(
    exps=st.lists(_small_fraction, min_size=3, max_size=3),
    signs=st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3),
)
def test_parse_roundtrip_random(exps, signs):
    w = HWeight("010", exps, signs)
    assert parse_weight("010", w.to_string()) == w


@pytest.mark.parametrize(
    "text",
    ["q^1", "q^1,q^2,q^3,q^4", "q^x,q^0,q^0", "1,q^0,q^0", "q^1/0,q^0,q^0"],
)
def test_parse_rejects(text):
    with pytest.raises(WeightError):
        parse_weight("001", text)


def test_denominator_cap():
    # the least common denominator is capped, not each exponent's own
    assert HWeight("01", (Fraction(1, 64), Fraction(1, 32))).denominator() == 64
    with pytest.raises(WeightError, match="denominator 65 exceeds the cap"):
        HWeight("01", (Fraction(1, 65), 0))
    with pytest.raises(WeightError, match="denominator 72 exceeds the cap"):
        parse_weight("01", "+q^1/8,+q^1/9")


def test_hweight_validation():
    with pytest.raises(WeightError):
        HWeight("01", (1,))
    with pytest.raises(WeightError):
        HWeight("01", (1, 2), (1, 0))


# ---------------------------------------------------------------------------
# reflection of weights
# ---------------------------------------------------------------------------


def test_reflect_nonzero_rule():
    w = HWeight("10", (3, 2))
    s2, w2, rule = reflect_weight("10", 1, w)
    assert str(s2) == "01"
    assert rule == "nonzero"
    assert w2.exponents == (Fraction(3), Fraction(2))  # (2+1, 3-1)


def test_reflect_zero_rule():
    w = HWeight("10", (2, -2))
    s2, w2, rule = reflect_weight("10", 1, w)
    assert rule == "zero"
    assert w2.exponents == (Fraction(-2), Fraction(2))


def test_reflect_signs_travel_with_entries():
    w = HWeight("10", (3, 2), (1, -1))
    _, w2, _ = reflect_weight("10", 1, w)
    assert w2.signs == (-1, 1)
    w = HWeight("10", (2, -2), (1, -1))
    _, w2, _ = reflect_weight("10", 1, w)
    assert w2.signs == (-1, 1)


@given(
    e1=_small_fraction,
    e2=_small_fraction,
    sg=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
)
def test_reflect_is_involutive(e1, e2, sg):
    w = HWeight("10", (e1, e2), sg)
    s2, w2, _ = reflect_weight("10", 1, w)
    s3, w3, _ = reflect_weight(s2, 1, w2)
    assert str(s3) == "10"
    assert w3 == w


def test_reflect_rejects_even_position():
    with pytest.raises(WeightError):
        reflect_weight("001", 1, HWeight("001", (0, 0, 0)))
    with pytest.raises(WeightError):
        reflect_weight("01", 1, HWeight("10", (0, 0)))


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------


@given(exps=st.lists(_small_fraction, min_size=2, max_size=2))
def test_typicality_one_one(exps):
    ok, roots = typicality("01", HWeight("01", exps))
    assert ok == (exps[0] + exps[1] != 0)


@given(exps=st.lists(_small_fraction, min_size=3, max_size=3))
def test_typicality_two_one_standard(exps):
    ok, roots = typicality("001", HWeight("001", exps))
    want = (exps[0] + exps[2] + 1 != 0) and (exps[1] + exps[2] != 0)
    assert ok == want


@given(exps=st.lists(_small_fraction, min_size=3, max_size=3))
def test_typicality_zero_one_zero(exps):
    ok, _ = typicality("010", HWeight("010", exps))
    assert ok == ((exps[0] + exps[1] != 0) and (exps[1] + exps[2] != 0))


@given(exps=st.lists(_small_fraction, min_size=3, max_size=3))
def test_typicality_one_zero_zero(exps):
    ok, _ = typicality("100", HWeight("100", exps))
    assert ok == ((exps[0] + exps[1] != 0) and (exps[0] + exps[2] != 1))


@given(exps=st.lists(_small_fraction, min_size=3, max_size=3))
def test_typicality_invariant_under_nonzero_reflection(exps):
    for bits in ("010", "100"):
        s = ParitySeq(bits)
        w = HWeight(s, exps)
        for i in (1, 2):
            if s.parity(i) == s.parity(i + 1):
                continue
            if w.exponents[i - 1] + w.exponents[i] == 0:
                continue
            s2, w2, rule = reflect_weight(s, i, w)
            assert rule == "nonzero"
            assert typicality(s2, w2)[0] == typicality(s, w)[0]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_typical_one_one():
    v = classify("01", HWeight("01", (2, 2)))
    assert v["finite"] and v["typical"]
    assert v["kac_dimension"] == 2
    assert v["witness"] is None


def test_classify_atypical_one_one():
    v = classify("01", HWeight("01", (1, -1)))
    assert v["finite"] and v["typical"] is False
    assert v["atypical_roots"] == [[1, 2]]
    assert v["kac_dimension"] is None


def test_classify_infinite_gl2():
    # eigenvalue ratio q^-3 violates the nonnegative-integer condition
    v = classify("00", HWeight("00", (0, 3)))
    assert not v["finite"]
    assert v["typical"] is None and v["diagram"] is None
    assert v["witness"]["pair"] == [1, 2]
    assert v["witness"]["ratio_exponent"] == "-3"
    assert v["trace"][-1]["rule"] == "standard-even-failure"


def test_classify_infinite_non_integer_ratio():
    v = classify("00", HWeight("00", (Fraction(1, 2), 0)))
    assert not v["finite"]


def test_classify_trivial_module_at_nonstandard_sequence():
    # the zero rule must be taken at the odd position; the all-pairs shifted
    # count heuristic would wrongly call this infinite
    v = classify("010", HWeight("010", (0, 0, 0)))
    assert v["finite"] and v["typical"] is False
    assert v["trace"][0]["rule"] == "zero"
    rep = build_irreducible("010", HWeight("010", (0, 0, 0)), 8)
    assert rep.dim == 1


def test_classify_trace_chain():
    v = classify("100", HWeight("100", (3, 0, -1)))
    assert v["finite"]
    assert [t["sequence"] for t in v["trace"]] == ["010", "001"]
    assert all(t["rule"] == "nonzero" for t in v["trace"])
    assert v["trace"][-1]["weight"] == "+q^1,+q^0,+q^1"


def test_classify_records_kac_for_finite_typical():
    v = classify("001", HWeight("001", (2, 0, 1)))
    assert v["finite"] and v["typical"]
    assert v["kac_dimension"] == 12


# ---------------------------------------------------------------------------
# closed dimension formula
# ---------------------------------------------------------------------------


@given(exps=st.lists(_small_fraction, min_size=2, max_size=2))
def test_kac_one_one_always_two(exps):
    w = HWeight("01", exps)
    if typicality("01", w)[0]:
        assert kac_dimension("01", w) == 2


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_kac_two_one_first_row(p):
    assert kac_dimension("001", HWeight("001", (p, 0, 1))) == 4 * (p + 1)


def test_kac_rejects_atypical_and_infinite():
    with pytest.raises(WeightError):
        kac_dimension("01", HWeight("01", (1, -1)))
    with pytest.raises(WeightError):
        kac_dimension("00", HWeight("00", (0, 3)))


def test_kac_matches_construction_on_grid():
    hits = 0
    for a in range(0, 4):
        for b in range(0, 2):
            for c in range(-2, 3):
                w = HWeight("001", (a + b, b, c))
                if not classify("001", w)["finite"]:
                    continue
                if not typicality("001", w)[0]:
                    continue
                rep = build_irreducible("001", w, 12)
                assert rep != DID_NOT_STABILIZE
                assert rep.dim == kac_dimension("001", w)
                hits += 1
    assert hits >= 20


# ---------------------------------------------------------------------------
# module construction
# ---------------------------------------------------------------------------


def test_build_gl2_two_dimensional():
    rep = build_irreducible("00", HWeight("00", (1, 0)), 10)
    assert rep.dim == 2
    assert rep.basis_strings() == ["1", "t[2,1]"]
    assert verify_module(rep)["pass"]


def test_build_gl2_infinite_does_not_stabilize():
    assert build_irreducible("00", HWeight("00", (0, 1)), 10) == (
        DID_NOT_STABILIZE
    )


def test_build_one_one_typical():
    rep = build_irreducible("01", HWeight("01", (2, 2)), 10)
    assert rep.dim == 2
    assert rep.basis_strings() == ["1", "t[2,1]"]
    assert rep.space.parity(0) == 0 and rep.space.parity(1) == 1
    assert verify_module(rep)["pass"]


def test_build_one_one_atypical():
    rep = build_irreducible("01", HWeight("01", (1, -1)), 10)
    assert rep.dim == 1
    assert verify_module(rep)["pass"]


@pytest.mark.parametrize(
    "bits,exps,dim",
    [
        ("001", (1, 0, 0), 3),
        ("001", (0, 0, -1), 3),
        ("001", (2, 2, -2), 1),
        ("001", (1, 0, 1), 8),
        ("100", (1, 1, -1), 12),
    ],
)
def test_build_anchor_dimensions(bits, exps, dim):
    rep = build_irreducible(bits, HWeight(bits, exps), 12)
    assert rep != DID_NOT_STABILIZE
    assert rep.dim == dim
    assert verify_module(rep)["pass"]


def test_build_rational_exponents():
    w = HWeight("01", (Fraction(3, 2), Fraction(1, 2)))
    rep = build_irreducible("01", w, 8)
    assert rep.dim == 2
    assert rep.denominator == 2
    assert verify_module(rep)["pass"]
    js = rep.to_json()
    assert js["matrices"]["tb[1,1]"][0][2] == "q^3/2"


def test_build_mixed_signs():
    rep = build_irreducible("00", HWeight("00", (1, 0), (1, -1)), 10)
    assert rep.dim == 2
    assert verify_module(rep)["pass"]


def test_build_weight_bookkeeping():
    rep = build_irreducible("01", HWeight("01", (2, 2)), 8)
    assert rep.maximal_index == 0
    assert rep.weights[0] == (Fraction(2), Fraction(2))
    assert rep.weights[1] == (Fraction(1), Fraction(3))  # shifted by -e1+e2
    assert rep.levels == [0, 1]


def test_build_maximal_vector_contract():
    rep = build_irreducible("001", HWeight("001", (1, 0, 1)), 12)
    z = rep.maximal_index
    for (kind, i, j), m in rep.matrices.items():
        if kind == "tb" and i < j:
            assert all(c != z for (_, c) in m.nonzero_cells())
    assert rep.weights.count(rep.weights[z]) == 1


def test_build_level_cap_validation():
    with pytest.raises(WeightError):
        build_irreducible("01", HWeight("01", (1, 1)), 0)


def test_build_too_small_cap_is_sentinel():
    # dim-16 module cannot certify completeness below its depth
    assert (
        build_irreducible("001", HWeight("001", (3, 0, 1)), 3)
        == DID_NOT_STABILIZE
    )


@pytest.mark.parametrize("cap", range(1, 9))
@pytest.mark.parametrize(
    "bits, exps, first_cap, dim",
    [("001", (3, 0, 1), 8, 16), ("0011", (1, 0, 0, 0), 6, 4)],
)
def test_verdict_and_dimension_at_each_cap(bits, exps, first_cap, dim, cap):
    # taken from the builder that enumerated every monomial up to the cap:
    # the sentinel below the module's depth plus its window, then one module
    rep = build_irreducible(bits, HWeight(bits, exps), cap)
    if cap < first_cap:
        assert rep == DID_NOT_STABILIZE
    else:
        assert rep != DID_NOT_STABILIZE
        assert rep.dim == dim


def test_json_shape():
    rep = build_irreducible("001", HWeight("001", (1, 0, 0)), 10)
    js = rep.to_json()
    assert js["dimension"] == 3 == len(js["basis"]) == len(js["weights"])
    assert js["maximal_index"] == 0
    assert js["basis"][0] == "1"
    assert set(js["matrices"]) == {
        "t[1,1]", "t[2,1]", "t[2,2]", "t[3,1]", "t[3,2]", "t[3,3]",
        "tb[1,1]", "tb[1,2]", "tb[1,3]", "tb[2,2]", "tb[2,3]", "tb[3,3]",
    }


# Atypical modules whose radical is most of the Verma space: on the first,
# 2,487 of the 2,511 monomials built lie in the radical.
ATYPICAL_MODULES = [
    ("00011", "+q^1,+q^0,+q^0,+q^0,+q^-1", 30),
    ("0011", "+q^3/2,+q^1/2,+q^1/2,+q^-3/2", 30),
    ("0101", "+q^1,+q^1,+q^-1,+q^-1", 30),
    ("0110", "+q^1,+q^0,+q^0,+q^-1", 30),
    ("000111", "+q^1,+q^0,+q^0,+q^0,+q^0,+q^0", 40),
]


def test_atypical_modules_are_pinned():
    # sha256 of the modules' JSON, as built with a second elimination of
    # each weight's radical; the builder must not change a byte of it
    modules = [
        build_irreducible(bits, parse_weight(bits, text), cap).to_json()
        for bits, text, cap in ATYPICAL_MODULES
    ]
    text = json.dumps(modules, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "baab24ec1d34a72def96b50c2e3eab46338fa8a726757a858fa1689b606f898e"
    )


def _copy_module(rep):
    """A module with its own matrices and weight list, to perturb."""
    matrices = {g: Mat(rep.space, dict(m.terms)) for g, m in rep.matrices.items()}
    return ModuleRep(rep.s, rep.weight, rep.denominator, rep.basis,
                     rep.levels, list(rep.weights), rep.space, matrices)


class TestVerifyModuleControls:
    """Each perturbation of a correct module fails with its own report."""

    @pytest.fixture(scope="class")
    def rep(self):
        rep = build_irreducible("001", HWeight("001", (1, 0, 0)), 12)
        assert rep.basis_strings() == ["1", "t[2,1]", "t[3,1]"]
        assert verify_module(rep) == {
            "pass": True, "checked": 154, "failures": []
        }
        return rep

    @staticmethod
    def products(*pairs):
        return ["product %s * %s does not match its normal form" % p
                for p in pairs]

    def test_matrix_entry(self, rep):
        bad = _copy_module(rep)
        bad.matrices[("t", 2, 1)].set(1, 0, QScalar.from_int(2))
        assert verify_module(bad) == {
            "pass": False,
            "checked": 154,
            "failures": self.products(
                ("t[3,2]", "t[2,1]"), ("tb[1,2]", "t[2,1]"),
                ("tb[1,3]", "t[2,1]"), ("tb[2,3]", "t[3,1]"),
            ),
        }

    def test_max_failures_stops_at_the_first_product(self, rep):
        bad = _copy_module(rep)
        bad.matrices[("t", 2, 1)].set(1, 0, QScalar.from_int(2))
        assert verify_module(bad, max_failures=1) == {
            "pass": False,
            "checked": 60,
            "failures": self.products(("t[3,2]", "t[2,1]")),
        }

    def test_maximal_eigenvalue(self, rep):
        # t[1,1] is tb[1,1]^-1, so its products fail too, up to the
        # default of ten failures
        bad = _copy_module(rep)
        bad.matrices[("tb", 1, 1)].set(0, 0, QScalar.one())
        out = verify_module(bad)
        assert (out["pass"], out["checked"]) == (False, 20)
        assert out["failures"] == [
            "tb[1,1] eigenvalue on the maximal vector is 1, expected q"
        ] + self.products(*(
            ("t[1,1]", g) for g in ("t[1,1]", "t[2,1]", "t[2,2]", "t[3,1]",
                                    "t[3,3]", "tb[1,1]", "tb[1,2]", "tb[1,3]",
                                    "tb[2,2]")
        ))

    def test_raising_column_at_the_maximal_vector(self, rep):
        bad = _copy_module(rep)
        bad.matrices[("tb", 1, 2)].set(1, 0, QScalar.one())
        out = verify_module(bad)
        assert (out["pass"], out["checked"]) == (False, 154)
        assert out["failures"][0] == (
            "raising tb[1,2] does not annihilate the maximal vector (rows [1])"
        )
        assert len(out["failures"]) == 8

    def test_duplicated_top_weight(self, rep):
        bad = _copy_module(rep)
        bad.weights[1] = bad.weights[0]
        assert verify_module(bad) == {
            "pass": False,
            "checked": 154,
            "failures": ["the maximal-vector weight line is not unique"],
        }


# ---------------------------------------------------------------------------
# classifier/constructor agreement and invariances
# ---------------------------------------------------------------------------


def test_classifier_matches_construction_small_grid():
    for bits in ("01", "10"):
        for a in range(-2, 3):
            for b in range(-2, 3):
                w = HWeight(bits, (a, b))
                rep = build_irreducible(bits, w, 8)
                assert classify(bits, w)["finite"] == (
                    rep != DID_NOT_STABILIZE
                )


def test_classifier_matches_construction_two_one():
    for bits in ("001", "010"):
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                for c in (-1, 0, 1):
                    w = HWeight(bits, (a, b, c))
                    rep = build_irreducible(bits, w, 10)
                    finite = classify(bits, w)["finite"]
                    assert finite == (rep != DID_NOT_STABILIZE), (bits, a, b, c)


def test_dimension_invariant_under_reflections():
    cases = [("010", (1, 2, -1)), ("001", (1, 0, 0)), ("010", (0, 0, 0))]
    for bits, exps in cases:
        s = ParitySeq(bits)
        w = HWeight(s, exps)
        rep = build_irreducible(s, w, 12)
        for i in range(1, s.N):
            if s.parity(i) == s.parity(i + 1):
                continue
            s2, w2, _ = reflect_weight(s, i, w)
            rep2 = build_irreducible(s2, w2, 12)
            assert rep2.dim == rep.dim


def test_global_sign_flip_invariance():
    for bits, exps in [("01", (2, 2)), ("001", (1, 0, 0)), ("00", (2, 0))]:
        s = ParitySeq(bits)
        w1 = HWeight(s, exps)
        w2 = HWeight(s, exps, tuple(-x for x in w1.signs))
        v1, v2 = classify(s, w1), classify(s, w2)
        assert (v1["finite"], v1["typical"]) == (v2["finite"], v2["typical"])
        r1 = build_irreducible(s, w1, 10)
        r2 = build_irreducible(s, w2, 10)
        assert r1.dim == r2.dim


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def test_diagram_no_circle_iff_typical():
    for exps in [(1, 0, 1), (1, 0, 0), (2, 0, -3), (0, 0, 0)]:
        w = HWeight("001", exps)
        if not classify("001", w)["finite"]:
            continue
        d = render_diagram("001", w)
        has_circle = any(b["kind"] == "circle" for b in d["boxes"])
        assert has_circle == (not typicality("001", w)[0])


def test_diagram_table_row_two():
    d = render_diagram("001", HWeight("001", (2, 0, 0)))
    kinds = {tuple(b["pair"]): b["kind"] for b in d["boxes"]}
    assert kinds[(1, 2)] == "label"
    assert kinds[(1, 3)] == "triangle"
    assert kinds[(2, 3)] == "circle"
    label = [b for b in d["boxes"] if b["kind"] == "label"][0]
    assert label["label"] == "+2"
    assert d["ascii"] == "[+2] /\\ (o)"


def test_diagram_trivial_rep_is_atypical():
    d = render_diagram("010", HWeight("010", (0, 0, 0)))
    assert any(b["kind"] == "circle" for b in d["boxes"])


def test_diagram_rejects_infinite():
    with pytest.raises(WeightError):
        render_diagram("00", HWeight("00", (0, 3)))
