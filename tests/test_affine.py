"""Loop-algebra layer: evaluation modules, exact relation checks, tensor
products, highest-weight series extraction, and polynomial certificates."""

import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from qglrtt import affine
from qglrtt.affine import (
    NO_MAXIMAL_VECTOR,
    AffineError,
    AffineRep,
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
    twist,
    verify_affine_relations,
)
from qglrtt.linalg import vec_add
from qglrtt.rtt import relation_expansion
from qglrtt.scalars import Laurent, QScalar, qscalar_parse
from qglrtt.tensor import Mat, SeriesMat, Space
from qglrtt.weights import (
    DID_NOT_STABILIZE,
    WeightError,
    build_irreducible,
    parse_weight,
)
from series_helpers import ONE, ZERO, conv, eval_form, qp, qstring


def dense_product(a, b):
    """Dense coefficients of the product of two dense coefficient lists."""
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def copy_modes(rep):
    modes = {"t": {}, "tb": {}}
    for kind, i, j, r, m in rep.all_mode_matrices():
        modes[kind].setdefault((i, j), {})[r] = m
    return modes


# ---------------------------------------------------------------------------
# Evaluation representations
# ---------------------------------------------------------------------------


class TestEvaluationRep:
    def test_mode_table_matches_finite_generators(self):
        w = parse_weight("01", "+q^1,+q^1")
        a = qscalar_parse("q^2")
        mod = build_irreducible("01", w, 6)
        rep = evaluation_rep("01", w, a, module=mod)
        a_s = a.stretch(mod.denominator)
        for i in range(1, 3):
            for j in range(1, 3):
                assert rep.mode("t", i, j, 0) == mod.op("t", i, j)
                assert rep.mode("t", i, j, 1) == mod.op("tb", i, j).scale(
                    -a_s.inverse()
                )
                assert rep.mode("tb", i, j, 0) == mod.op("tb", i, j)
                assert rep.mode("tb", i, j, 1) == mod.op("t", i, j).scale(
                    -a_s
                )
                assert rep.mode("t", i, j, 2).is_zero()
                assert rep.mode("tb", i, j, 2).is_zero()
        assert rep.mode_bound() == 1
        assert rep.maximal_index == 0
        assert rep.dim == 2

    @pytest.mark.parametrize(
        "s,wtext",
        [
            ("01", "+q^1,+q^1"),
            ("10", "+q^1,+q^0"),
            ("00", "+q^2,+q^0"),
            ("11", "+q^2,+q^0"),
            ("001", "+q^2,+q^1,+q^1"),
            ("010", "+q^1,+q^1,+q^0"),
            ("100", "+q^1,+q^1,+q^0"),
            # the check reads the R-matrix, not the straightening engine
            # that builds the module, so it is an independent oracle for
            # the builder: rank (1|1), a negative sign, typical gap 2 and
            # gap 4, atypical, over q^(1/2), and rank (2|2)
            ("01", "+q^-3,+q^4"),
            ("00", "+q^1,-q^0"),
            ("001", "+q^2,+q^0,+q^-3/2"),
            ("110", "+q^5/2,+q^-3/2,+q^-3/2"),
            ("001", "+q^1,+q^0,+q^-2"),
            ("010", "+q^3/2,+q^-1/2,+q^1/2"),
            ("0011", "+q^1,+q^0,+q^0,+q^0"),
            # dimension 32 over q^(1/64) and over q^(1/2): sparse and
            # dense packing by exponent residue
            ("0011", "+q^65/64,+q^1/64,+q^1/64,+q^1/64"),
            ("0011", "+q^5/2,+q^1/2,+q^1/2,+q^1/2"),
        ],
    )
    def test_relations_hold_exactly(self, s, wtext):
        rep = evaluation_rep(s, parse_weight(s, wtext), qscalar_parse("q^1"))
        report = verify_affine_relations(rep)
        assert report["pass"], report["failures"]
        assert report["failure_count"] == 0
        # triangularity, diagonal and 4 families of N^4 instances:
        # 68, 333 and 1040 at N = 2, 3 and 4
        N = rep.s.N
        assert report["checked"] == N * (N - 1) + N + 4 * N ** 4

    def test_fractional_gauge(self):
        w = parse_weight("01", "+q^1/2,+q^1/2")
        a = qscalar_parse("q^3")
        rep = evaluation_rep("01", w, a)
        assert rep.denominator == 2
        assert verify_affine_relations(rep)["pass"]
        hw = highest_weight_series(rep)
        a_s = a.stretch(2)
        for i in (1, 2):
            mu = rep.mode("tb", i, i, 0)[0, 0]
            assert hw.lam[i - 1] == {0: mu.inverse(), 1: -(mu * a_s.inverse())}
            assert hw.lam_bar[i - 1] == {0: mu, 1: -(mu.inverse() * a_s)}

    def test_infinite_weight_rejected(self):
        with pytest.raises(WeightError):
            evaluation_rep("00", parse_weight("00", "+q^0,+q^2"), ONE)

    def test_zero_parameter_rejected(self):
        with pytest.raises(AffineError):
            evaluation_rep("01", parse_weight("01", "+q^1,+q^1"), ZERO)

    def test_module_mismatch_rejected(self):
        w1 = parse_weight("01", "+q^1,+q^1")
        w2 = parse_weight("01", "+q^2,+q^1")
        mod = build_irreducible("01", w1, 6)
        with pytest.raises(AffineError):
            evaluation_rep("01", w2, ONE, module=mod)

    def test_unstabilized_module_rejected(self):
        # the sentinel of a build that did not stabilize is not a module
        w = parse_weight("0101", "+q^1,+q^0,+q^0,+q^1")
        mod = build_irreducible("0101", w, 24)
        assert mod == DID_NOT_STABILIZE
        with pytest.raises(AffineError, match="did not stabilize"):
            evaluation_rep("0101", w, ONE, module=mod)


# ---------------------------------------------------------------------------
# Relation checker negative controls
# ---------------------------------------------------------------------------


class TestRelationNegativeControls:
    def _base(self):
        return evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
        )

    def test_perturbed_mode_is_located(self):
        base = self._base()
        modes = copy_modes(base)
        bad = modes["tb"][(1, 2)][0].copy()
        bad.set(0, 1, bad[0, 1] + ONE)
        modes["tb"][(1, 2)][0] = bad
        rep = AffineRep(base.s, base.space, modes, denominator=1)
        report = verify_affine_relations(rep)
        assert not report["pass"]
        assert report["truncated"] and report["checked"] == 54
        assert report["failures"][0] == {
            "relation": "tb-tb", "i": 1, "j": 2, "k": 2, "l": 1,
            "monomial": "v^2", "row": 0, "col": 0, "value": "-q^2",
        }

    def test_broken_triangularity_flagged(self):
        base = self._base()
        modes = copy_modes(base)
        bad = Mat.zero(base.space)
        bad.set(0, 1, ONE)
        modes["tb"].setdefault((2, 1), {})[0] = bad
        rep = AffineRep(base.s, base.space, modes, denominator=1)
        report = verify_affine_relations(rep)
        assert not report["pass"]
        assert report["failures"][0]["relation"] == "mode-zero-triangularity"

    def test_mode_zero_failures_stop_at_the_cap(self):
        base = evaluation_rep(
            "001", parse_weight("001", "+q^1,+q^1,+q^0"), qscalar_parse("q^2")
        )
        modes = copy_modes(base)
        e00 = Mat(base.space, {(0, 0): ONE})
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    kind = "t" if i < j else "tb"
                    modes[kind].setdefault((i, j), {})[0] = e00
        rep = AffineRep(base.s, base.space, modes, denominator=1)
        assert verify_affine_relations(rep, max_failures=2) == {
            "pass": False,
            "checked": 2,
            "failure_count": 2,
            "failures": [
                {"relation": "mode-zero-triangularity",
                 "kind": "t", "i": 1, "j": 2},
                {"relation": "mode-zero-triangularity",
                 "kind": "t", "i": 1, "j": 3},
            ],
            "truncated": True,
        }
        report = verify_affine_relations(rep, max_failures=7)
        assert report["checked"] == 11 and report["truncated"]
        assert report["failures"][6]["relation"] == "t-t"

    def test_broken_diagonal_product_flagged(self):
        base = self._base()
        modes = copy_modes(base)
        modes["t"][(1, 1)][0] = modes["t"][(1, 1)][0].scale(qp(1))
        rep = AffineRep(base.s, base.space, modes, denominator=1)
        report = verify_affine_relations(rep)
        assert not report["pass"]
        assert any(
            f["relation"] == "mode-zero-diagonal" for f in report["failures"]
        )


def reference_verify(rep, max_failures=10):
    """verify_affine_relations evaluated on exact scalars.

    Every pair of generator series is multiplied as SeriesMat of Q(q)
    matrices and every relation coefficient is applied as a QScalar, so
    this shares no arithmetic with the packed-integer check; the report
    has the same shape, order and cap.
    """
    s, space, D = rep.s, rep.space, rep.denominator
    N = s.N
    failures = []
    checked = 0

    def report(truncated):
        return {"pass": not failures, "checked": checked,
                "failure_count": len(failures), "failures": failures,
                "truncated": truncated}

    off_diagonal = [
        (i, j) for i in range(1, N + 1) for j in range(1, N + 1) if i != j
    ]
    for i, j in off_diagonal:
        kind = "t" if i < j else "tb"
        checked += 1
        if not rep.mode(kind, i, j, 0).is_zero():
            failures.append({"relation": "mode-zero-triangularity",
                             "kind": kind, "i": i, "j": j})
            if len(failures) >= max_failures:
                return report(True)
    ident = Mat.identity(space)
    for i in range(1, N + 1):
        checked += 1
        t0, b0 = rep.mode("t", i, i, 0), rep.mode("tb", i, i, 0)
        if not ((t0 @ b0) == ident and (b0 @ t0) == ident):
            failures.append({"relation": "mode-zero-diagonal", "i": i})
            if len(failures) >= max_failures:
                return report(True)

    def series(kind, var, i, j):
        sm = SeriesMat(2, space)
        for r, m in rep.mode_series(kind, i, j).items():
            expo = [0, 0]
            expo[var] = -r if kind == "t" else r
            sm.add_term(tuple(expo), m)
        return sm

    for kinds in (("t", "t"), ("tb", "tb"), ("t", "tb"), ("tb", "t")):
        for (i, j, k, l), terms in relation_expansion(s).items():
            checked += 1
            residual = SeriesMat(2, space)
            for coeff, (eu, ev), x, y in terms:
                prod = series(kinds[x[0]], *x) @ series(kinds[y[0]], *y)
                for (pu, pv), m in prod.terms.items():
                    residual.add_term(
                        (pu + eu, pv + ev), m.scale(coeff.stretch(D))
                    )
            if not residual.is_zero():
                item = residual.nonzero_report(("u", "v"))[0]
                item.update({"relation": "%s-%s" % kinds,
                             "i": i, "j": j, "k": k, "l": l})
                failures.append(item)
                if len(failures) >= max_failures:
                    return report(True)
    return report(False)


def _readme_tensor():
    return tensor(
        evaluation_rep("01", parse_weight("01", "+q^1,+q^1"), ONE),
        evaluation_rep(
            "01", parse_weight("01", "+q^2,+q^1"), qscalar_parse("q^1")
        ),
    )


ORACLE_MODULES = {
    # entries with denominators that are not powers of q
    "000": lambda: evaluation_rep(
        "000", parse_weight("000", "+q^2,+q^1,+q^0"), qscalar_parse("q^1")
    ),
    # gauge q^(1/2)
    "001-half": lambda: evaluation_rep(
        "001", parse_weight("001", "+q^2,+q^0,+q^-3/2"), qscalar_parse("q^1")
    ),
    "readme-tensor": _readme_tensor,
}

# added to one entry; in the module's gauge
PERTURBATIONS = [
    "1", "-1", "q^2", "q^-3", "q - q^-1", "1/2", "1/(1 + q)",
    "(2*q^2 - 3)/(q^2 + 1)",
]


class TestPackedCheckAgainstReference:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
    def test_perturbed_entry_report_matches(self, name, seed):
        base = ORACLE_MODULES[name]()
        rng = random.Random(seed)
        keys = [(k, i, j, r) for k, i, j, r, _ in base.all_mode_matrices()]
        for _ in range(2):
            kind, i, j, r = rng.choice(keys)
            modes = copy_modes(base)
            bad = modes[kind][(i, j)][r].copy()
            row, col = rng.randrange(base.dim), rng.randrange(base.dim)
            bad.set(row, col,
                    bad[row, col] + qscalar_parse(rng.choice(PERTURBATIONS)))
            modes[kind][(i, j)][r] = bad
            rep = AffineRep(base.s, base.space, modes,
                            denominator=base.denominator)
            for cap in (3, 10):
                got = verify_affine_relations(rep, max_failures=cap)
                assert got == reference_verify(rep, max_failures=cap), (
                    kind, i, j, r, row, col
                )

    def test_digit_width_below_the_bound_aliases(self, monkeypatch):
        # adding (q - 2^3) to a mode entry makes every residual a multiple
        # of q - 2^3, so packing at 2^3 reads zero: only the computed
        # width tells the residual from 0
        base = evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
        )
        modes = copy_modes(base)
        bad = modes["t"][(1, 2)][1].copy()
        bad.set(0, 1, bad[0, 1] + qscalar_parse("q - 8"))
        modes["t"][(1, 2)][1] = bad
        rep = AffineRep(base.s, base.space, modes, denominator=1)
        report = verify_affine_relations(rep)
        assert not report["pass"]
        assert report == reference_verify(rep)
        widths = []
        real = affine._digit_bits

        def spy(bound):
            widths.append(real(bound))
            return 3

        monkeypatch.setattr(affine, "_digit_bits", spy)
        assert verify_affine_relations(rep) == {
            "pass": True, "checked": 68, "failure_count": 0,
            "failures": [], "truncated": False,
        }
        assert widths[0] > 3


class TestPackedCheckMemory:
    def test_peak_allocation_is_bounded(self):
        # the product memo holds one relation family at a time: about
        # 0.4 MB peak here, against 1.4 MB while it held all four
        rep = evaluation_rep(
            "000", parse_weight("000", "+q^2,+q^1,+q^0"), ONE
        )
        verify_affine_relations(rep)  # warm the relation expansion
        tracemalloc.start()
        try:
            report = verify_affine_relations(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["pass"]
        assert peak < 900_000, peak


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------


def _gl11_factors():
    w1 = parse_weight("01", "+q^1,+q^1")
    w2 = parse_weight("01", "+q^2,+q^1")
    r1 = evaluation_rep("01", w1, ONE)
    r2 = evaluation_rep("01", w2, qscalar_parse("q^1"))
    return r1, r2


class TestTensor:
    def test_shape_and_relations(self):
        r1, r2 = _gl11_factors()
        T = tensor(r1, r2)
        assert T.dim == 4
        assert T.maximal_index == 0
        assert T.mode_bound() == 2
        assert T.labels[0] == "1 (x) 1"
        report = verify_affine_relations(T)
        assert report["pass"], report["failures"]

    def test_series_is_componentwise_product(self):
        r1, r2 = _gl11_factors()
        T = tensor(r1, r2)
        h1 = highest_weight_series(r1)
        h2 = highest_weight_series(r2)
        hT = highest_weight_series(T)
        for i in range(2):
            assert hT.lam[i] == conv(h1.lam[i], h2.lam[i])
            assert hT.lam_bar[i] == conv(h1.lam_bar[i], h2.lam_bar[i])

    def test_associativity(self):
        r1, r2 = _gl11_factors()
        r3 = evaluation_rep(
            "01", parse_weight("01", "+q^3,+q^1"), qscalar_parse("q^5")
        )
        A = tensor(tensor(r1, r2), r3)
        B = tensor(r1, tensor(r2, r3))
        keys_a = sorted(
            (k, i, j, r) for k, i, j, r, _ in A.all_mode_matrices()
        )
        keys_b = sorted(
            (k, i, j, r) for k, i, j, r, _ in B.all_mode_matrices()
        )
        assert keys_a == keys_b
        for k, i, j, r, m in A.all_mode_matrices():
            assert B.mode(k, i, j, r) == m

    def test_sequence_mismatch_rejected(self):
        r1, _ = _gl11_factors()
        other = evaluation_rep(
            "10", parse_weight("10", "+q^1,+q^-1"), ONE
        )
        with pytest.raises(AffineError):
            tensor(r1, other)

    def test_mixed_gauge_tensor(self):
        half = evaluation_rep(
            "01", parse_weight("01", "+q^1/2,+q^1/2"), ONE
        )
        whole = evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^1")
        )
        T = tensor(half, whole)
        assert T.denominator == 2
        assert verify_affine_relations(T)["pass"]
        hT = highest_weight_series(T)
        hh = highest_weight_series(half)
        hwhole = highest_weight_series(whole)
        for i in range(2):
            lift = {r: c.stretch(2) for r, c in hwhole.lam_bar[i].items()}
            assert hT.lam_bar[i] == conv(hh.lam_bar[i], lift)


# ---------------------------------------------------------------------------
# Highest-weight series extraction
# ---------------------------------------------------------------------------


class TestHighestWeightSeries:
    def test_evaluation_display(self):
        w = parse_weight("001", "+q^2,+q^1,+q^1")
        a = qscalar_parse("q^3")
        rep = evaluation_rep("001", w, a)
        hw = highest_weight_series(rep)
        assert hw.unique and hw.singular_dim == 1 and hw.candidates == 1
        a_s = a.stretch(rep.denominator)
        for i in (1, 2, 3):
            mu = rep.mode("tb", i, i, 0)[0, 0]
            assert hw.lam[i - 1] == {
                0: mu.inverse(),
                1: -(mu * a_s.inverse()),
            }
            assert hw.lam_bar[i - 1] == {0: mu, 1: -(mu.inverse() * a_s)}

    def test_cancelled_mode_leaves_no_zero(self):
        # the c = 0 step of the eigenvalue test must not store zeros, or
        # the maximal vector of this product is lost
        rep = tensor(
            evaluation_rep("10", parse_weight("10", "+q^1,+q^0"), ONE),
            evaluation_rep("10", parse_weight("10", "+q^1,+q^1"), -ONE),
        )
        hw = highest_weight_series(rep)
        assert hw is not NO_MAXIMAL_VECTOR and hw.unique
        assert set(hw.lam[0]) == {0, 2}  # mode 1 cancels
        assert hw.lam[0][2] == -QScalar.q_power(-2)
        x = {0: ONE, 3: qscalar_parse("q")}
        assert vec_add(x, {0: ONE, 5: ONE}, ZERO) == x

    def test_direct_sum_flagged_non_unique(self):
        base = evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
        )
        n = base.dim
        space2 = Space(base.space.parities + base.space.parities)

        def embed(m, off):
            out = Mat.zero(space2)
            for (r, c) in m.nonzero_cells():
                out.set(r + off, c + off, m[r, c])
            return out

        modes = {"t": {}, "tb": {}}
        for kind, i, j, r, m in base.all_mode_matrices():
            modes[kind].setdefault((i, j), {})[r] = embed(m, 0) + embed(m, n)
        ds = AffineRep(base.s, space2, modes, denominator=base.denominator)
        hw = highest_weight_series(ds)
        assert hw is not NO_MAXIMAL_VECTOR
        assert not hw.unique
        assert hw.singular_dim == 2
        assert hw.candidates == 2

    def test_sentinel_when_no_joint_kernel(self):
        space = Space((0, 1))
        raising = Mat.identity(space)
        diag = Mat.identity(space)
        modes = {
            "t": {(1, 1): {0: diag}, (2, 2): {0: diag}},
            "tb": {
                (1, 1): {0: diag},
                (2, 2): {0: diag},
                (1, 2): {0: raising},
            },
        }
        rep = AffineRep("01", space, modes)
        assert highest_weight_series(rep) is NO_MAXIMAL_VECTOR

    @settings(max_examples=12, deadline=None)
    @given(
        e1=st.integers(min_value=-2, max_value=3),
        e2=st.integers(min_value=-2, max_value=3),
        sg=st.sampled_from([1, -1]),
        ae=st.integers(min_value=-2, max_value=3),
    )
    def test_display_property(self, e1, e2, sg, ae):
        from qglrtt.weights import HWeight

        w = HWeight("01", [e1, e2], [sg, 1])
        a = qp(ae)
        rep = evaluation_rep("01", w, a)
        hw = highest_weight_series(rep)
        for i in (1, 2):
            mu = rep.mode("tb", i, i, 0)[0, 0]
            assert hw.lam[i - 1] == {0: mu.inverse(), 1: -(mu * a.inverse())}
            assert hw.lam_bar[i - 1] == {0: mu, 1: -(mu.inverse() * a)}


# ---------------------------------------------------------------------------
# u-polynomials {degree: QScalar}: differential tests against sympy, an
# independent implementation of QQ(q)[u]
# ---------------------------------------------------------------------------

DENOMINATORS = [Laurent((1,)), Laurent((1, -1)), Laurent((1, 1)),
                Laurent((2,), 1), Laurent((1, 0, 1))]

coefficients = st.builds(
    lambda num, low, den: QScalar(Laurent(tuple(num), low), DENOMINATORS[den]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=2),
    st.integers(-1, 1),
    st.integers(0, len(DENOMINATORS) - 1),
)
u_polynomials = st.dictionaries(
    st.integers(0, 2), coefficients, max_size=3
).map(lambda p: {k: c for k, c in p.items() if not c.is_zero()})


def sympy_poly(sympy, q, u, p):
    """A u-polynomial as a sympy Poly in u over QQ(q)."""
    def expr(x):
        return sum(c * q ** (x.offset + k) for k, c in enumerate(x.coeffs))

    return sympy.Poly(
        sum(expr(c.num) / expr(c.den) * u ** k for k, c in p.items()),
        u, domain=sympy.QQ.frac_field(q),
    )


def monic_gcd(sympy, q, u, A, B):
    """The monic gcd in u of two Polys over QQ(q), as an expression.

    The gcd of the cleared numerators is taken in QQ[u, q].  sympy's gcd
    over QQ(q)[u] cancels fractions with a heuristic gcd that can fail with
    ``HeuristicGCDFailed``; the dense gcd over QQ falls back instead.
    """
    def numerator(P):
        return sympy.Poly(sympy.numer(sympy.together(P.as_expr())), u, q,
                          domain=sympy.QQ)

    g = sympy.gcd(numerator(A), numerator(B)).as_expr()
    return g / sympy.Poly(g, u).LC()


def _s(num, low=0, den=(1,)):
    return QScalar(Laurent(num, low), Laurent(den))


@given(u_polynomials, u_polynomials.filter(bool), u_polynomials)
# sympy's gcd over QQ(q)[u] raised HeuristicGCDFailed on this example
@example({0: _s((1,), 0, (1, -1)), 2: ONE},
         {1: _s((1,), 1, (1, 1)), 2: _s((-2, 1), 0, (1, 0, 1))},
         {0: _s((3,), -1)})
@settings(max_examples=20, deadline=None)
def test_u_polynomial_kernel_matches_sympy(a, b, common):
    sympy = pytest.importorskip("sympy")
    q, u = sympy.symbols("q u")
    if common:
        a, b = affine._umul(a, common), affine._umul(b, common)
    quo, rem = affine._udivmod(a, b)
    gcd = affine._ugcd(a, b)
    assert not any(c.is_zero() for p in (a, quo, rem, gcd) for c in p.values())
    A, B, Quo, Rem, G = (sympy_poly(sympy, q, u, p)
                         for p in (a, b, quo, rem, gcd))
    # sympy keeps no single form for an element of QQ(q) (1/(1-q) and
    # -1/(q-1) can fail ==), so differences are compared with zero
    assert (A - B * Quo - Rem).is_zero
    assert Rem.is_zero or Rem.degree() < B.degree()
    assert sympy.cancel(G.as_expr() - monic_gcd(sympy, q, u, A, B)) == 0


# ---------------------------------------------------------------------------
# check_T1
# ---------------------------------------------------------------------------


class TestCheckT1:
    def test_single_evaluation_certificate(self):
        w = parse_weight("01", "+q^1,+q^1")
        a = qscalar_parse("q^2")
        rep = evaluation_rep("01", w, a)
        cert = check_T1(highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate)
        assert cert.kind == "T1" and cert.K == 1
        assert cert.Qt[0].is_one()
        assert cert.Q[0] * cert.Q[1] == cert.Qt[0] * cert.Qt[1]
        mu1 = rep.mode("tb", 1, 1, 0)[0, 0]
        expected = [mu1, -(mu1.inverse() * a)]
        scale = cert.Q[0] / expected[0]
        assert cert.Q == [scale * x for x in expected]

    def test_tensor_K_counts_typical_factors(self):
        r1, r2 = _gl11_factors()
        r3 = evaluation_rep(
            "01", parse_weight("01", "+q^3,+q^1"), qscalar_parse("q^5")
        )
        two = check_T1(highest_weight_series(tensor(r1, r2)))
        three = check_T1(
            highest_weight_series(tensor(tensor(r1, r2), r3))
        )
        assert two.K == 2 and three.K == 3

    def test_trivial_weight_gives_K0(self):
        rep = evaluation_rep("01", parse_weight("01", "+q^0,+q^0"), ONE)
        assert rep.dim == 1
        cert = check_T1(highest_weight_series(rep))
        assert cert.K == 0
        assert cert.Q == [ONE] and cert.Qt == [ONE]

    def test_refusal_on_ratio_identity_violation(self):
        l1, b1 = eval_form(qp(1), ONE)
        l2, b2 = eval_form(qp(2), qp(3))
        hw = HWSeries("01", [l1, l2], [b1, b2])
        out = check_T1(hw)
        assert isinstance(out, Refusal)
        assert "disagree" in out.reason

    def test_depth_mismatch_refused(self):
        l1a, b1a = eval_form(qp(1), ONE)
        l1b, b1b = eval_form(qp(2), ONE)
        l2, b2 = eval_form(qp(5), ONE)
        hw = HWSeries("01", [conv(l1a, l1b), l2], [conv(b1a, b1b), b2])
        assert isinstance(check_T1(hw), Refusal)

    def test_parity_guard(self):
        l1, b1 = eval_form(qp(2), ONE)
        l2, b2 = eval_form(qp(0), ONE)
        hw = HWSeries("00", [l1, l2], [b1, b2])
        with pytest.raises(AffineError):
            check_T1(hw)

    def test_constructor_enforces_unit_constants(self):
        with pytest.raises(AffineError):
            HWSeries("01", [{0: qp(1)}, {0: ONE}], [{0: qp(1)}, {0: ONE}])

    @settings(max_examples=12, deadline=None)
    @given(
        e1=st.integers(min_value=-2, max_value=3),
        e2=st.integers(min_value=-2, max_value=3),
        ae=st.integers(min_value=-2, max_value=2),
    )
    def test_single_factor_K_matches_typicality(self, e1, e2, ae):
        from qglrtt.weights import HWeight, typicality

        w = HWeight("01", [e1, e2])
        rep = evaluation_rep("01", w, qp(ae))
        cert = check_T1(highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate)
        typical, _ = typicality("01", w)
        assert cert.K == (1 if typical else 0)
        assert rep.dim == (2 if typical else 1)


# ---------------------------------------------------------------------------
# check_T2
# ---------------------------------------------------------------------------


class TestCheckT2:
    def test_gl20_qstring(self):
        w = parse_weight("00", "+q^2,+q^0")
        a = qscalar_parse("q^1")
        rep = evaluation_rep("00", w, a)
        cert = check_T2(highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate)
        assert cert.kind == "T2" and cert.K == 2 and cert.sigma == 1
        mu2 = rep.mode("tb", 2, 2, 0)[0, 0]
        assert cert.P == qstring(2, qp(-2), mu2.inverse() ** 2 * a)

    def test_gl02_qstring(self):
        w = parse_weight("11", "+q^2,+q^0")
        a = qscalar_parse("q^1")
        rep = evaluation_rep("11", w, a)
        cert = check_T2(highest_weight_series(rep))
        assert cert.K == 2 and cert.sigma == 1
        mu2 = rep.mode("tb", 2, 2, 0)[0, 0]
        assert cert.P == qstring(2, qp(2), mu2.inverse() ** 2 * a)

    def test_trivial_weight_gives_P1(self):
        rep = evaluation_rep("00", parse_weight("00", "+q^0,+q^0"), ONE)
        cert = check_T2(highest_weight_series(rep))
        assert cert.K == 0 and cert.P == [ONE]

    def test_negative_sign_weight(self):
        from qglrtt.weights import HWeight

        w = HWeight("00", [1, 0], [-1, 1])
        rep = evaluation_rep("00", w, qscalar_parse("q^1"))
        cert = check_T2(highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate)
        assert cert.sigma == -1
        assert cert.epsilon == (1, -1)
        assert cert.K == 1

    def test_refusal_constant_not_sign_qpower(self):
        two = QScalar.from_int(2)
        l1, b1 = eval_form(two, ONE)
        l2, b2 = eval_form(ONE, ONE)
        hw = HWSeries("00", [l1, l2], [b1, b2])
        out = check_T2(hw)
        assert isinstance(out, Refusal)
        assert "plus-or-minus" in out.reason

    def test_refusal_half_integer_string(self):
        mu1 = qp(1)  # q^(1/2) in the D=2 gauge
        l1, b1 = eval_form(mu1, ONE)
        l2, b2 = eval_form(ONE, ONE)
        hw = HWSeries("00", [l1, l2], [b1, b2], denominator=2)
        out = check_T2(hw)
        assert isinstance(out, Refusal)
        assert "string length" in out.reason

    def test_refusal_negative_gap(self):
        l1, b1 = eval_form(qp(-1), ONE)
        l2, b2 = eval_form(ONE, ONE)
        hw = HWSeries("00", [l1, l2], [b1, b2])
        out = check_T2(hw)
        assert isinstance(out, Refusal)
        assert "string length" in out.reason

    def test_refusal_no_polynomial_solution(self):
        lam1 = {0: qp(-2), 1: ONE, 2: qp(2)}
        bar1 = {0: qp(2), 1: ONE, 2: qp(-2)}
        lam2 = {0: ONE, 2: ONE}
        bar2 = {0: ONE, 2: ONE}
        hw = HWSeries("00", [lam1, lam2], [bar1, bar2])
        out = check_T2(hw)
        assert isinstance(out, Refusal)
        assert "no monic string polynomial" in out.reason

    def test_parity_guard(self):
        l1, b1 = eval_form(qp(1), ONE)
        l2, b2 = eval_form(ONE, ONE)
        hw = HWSeries("01", [l1, l2], [b1, b2])
        with pytest.raises(AffineError):
            check_T2(hw)

    @settings(max_examples=10, deadline=None)
    @given(
        gap=st.integers(min_value=0, max_value=3),
        base=st.integers(min_value=-2, max_value=2),
        ae=st.integers(min_value=-2, max_value=2),
    )
    def test_gap_equals_K_property(self, gap, base, ae):
        from qglrtt.weights import HWeight

        w = HWeight("00", [base + gap, base])
        rep = evaluation_rep("00", w, qp(ae))
        cert = check_T2(highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate)
        assert cert.K == gap
        mu2 = rep.mode("tb", 2, 2, 0)[0, 0]
        assert cert.P == qstring(gap, qp(-2), mu2.inverse() ** 2 * qp(ae))


# ---------------------------------------------------------------------------
# check_T3
# ---------------------------------------------------------------------------


class TestCheckT3:
    def test_gl21_full_family(self):
        w = parse_weight("001", "+q^2,+q^1,+q^1")
        a = qscalar_parse("q^1")
        rep = evaluation_rep("001", w, a)
        cert = check_T3("001", highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate)
        assert cert.kind == "T3"
        assert cert.pairs[(1, 2)].kind == "T2"
        assert cert.pairs[(1, 3)].kind == "T1"
        assert cert.pairs[(2, 3)].kind == "T1"
        assert cert.epsilon == (1, 1, 1)
        assert cert.chains["ratio_chains"] == [[1, 2, 3]]
        mu2 = rep.mode("tb", 2, 2, 0)[0, 0]
        assert cert.pairs[(1, 2)].P == qstring(
            1, qp(-2), mu2.inverse() ** 2 * a
        )

    def test_gl30_string_factorization(self):
        w = parse_weight("000", "+q^3,+q^1,+q^0")
        rep = evaluation_rep("000", w, qscalar_parse("q^1"))
        cert = check_T3("000", highest_weight_series(rep))
        assert isinstance(cert, PolyCertificate)
        assert cert.chains["string_factorizations"] == [[1, 2, 3]]
        assert cert.pairs[(1, 3)].P == dense_product(
            cert.pairs[(1, 2)].P, cert.pairs[(2, 3)].P
        )
        assert cert.pairs[(1, 2)].K == 2
        assert cert.pairs[(2, 3)].K == 1
        assert cert.pairs[(1, 3)].K == 3

    def test_tensor_multiplies_polynomials(self):
        w = parse_weight("001", "+q^2,+q^1,+q^1")
        e1 = evaluation_rep("001", w, ONE)
        e2 = evaluation_rep("001", w, qscalar_parse("q^5"))
        cT = check_T3("001", highest_weight_series(tensor(e1, e2)))
        c1 = check_T3("001", highest_weight_series(e1))
        c2 = check_T3("001", highest_weight_series(e2))
        assert isinstance(cT, PolyCertificate)
        assert cT.pairs[(1, 2)].P == dense_product(
            c1.pairs[(1, 2)].P, c2.pairs[(1, 2)].P
        )
        assert cT.pairs[(1, 3)].K == 2

    def test_adjacent_only_data_refused(self):
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

    def test_sequence_mismatch_rejected(self):
        l1, b1 = eval_form(qp(1), ONE)
        l2, b2 = eval_form(ONE, ONE)
        hw = HWSeries("01", [l1, l2], [b1, b2])
        with pytest.raises(AffineError):
            check_T3("10", hw)


# ---------------------------------------------------------------------------
# Cyclic span and the two-factor dichotomy
# ---------------------------------------------------------------------------


class TestCyclicSpan:
    def test_two_factor_dichotomy_spot_checks(self):
        w1 = parse_weight("01", "+q^1,+q^1")     # mu (q, 1/q)
        w2 = parse_weight("01", "+q^2,+q^1")     # mu (q^2, 1/q)
        m1 = build_irreducible("01", w1, 6)
        m2 = build_irreducible("01", w2, 6)
        # excluded ratios a1/a2: mu_{1,2}^2/mu_{2,1}^2 = q^-6 kills the
        # maximal-vector span; mu_{1,1}^2/mu_{2,2}^2 = q^4 kills the
        # minimal-vector span.
        expected = {
            0: (4, 4, 2),
            3: (4, 4, 2),
            -6: (2, 4, 1),
            4: (4, 2, 1),
        }
        for k, (smax, smin, K) in expected.items():
            T = tensor(
                evaluation_rep("01", w1, qp(k), module=m1),
                evaluation_rep("01", w2, ONE, module=m2),
            )
            assert cyclic_span(T, T.maximal_index) == smax
            assert cyclic_span(T, 3) == smin
            cert = check_T1(highest_weight_series(T))
            assert cert.K == K

    def test_span_accepts_sparse_vector(self):
        rep = evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
        )
        assert cyclic_span(rep, {0: ONE}) == 2
        assert cyclic_span(rep, {0: ONE, 1: qp(3)}) == 2

    def test_zero_vector_rejected(self):
        rep = evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
        )
        with pytest.raises(AffineError):
            cyclic_span(rep, {0: ZERO})
        with pytest.raises(AffineError):
            cyclic_span(rep, 5)


# ---------------------------------------------------------------------------
# Twists
# ---------------------------------------------------------------------------


class TestTwist:
    def _rep(self):
        return evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
        )

    def test_identity_twist(self):
        rep = self._rep()
        out = twist(rep, f={0: ONE}, g={0: ONE})
        for kind, i, j, r, m in rep.all_mode_matrices():
            assert out.mode(kind, i, j, r) == m

    def test_dilation_is_reevaluation(self):
        rep = self._rep()
        d = qscalar_parse("q^3")
        moved = twist(rep, dilation=d)
        target = evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2") * d
        )
        keys_a = sorted(
            (k, i, j, r) for k, i, j, r, _ in moved.all_mode_matrices()
        )
        keys_b = sorted(
            (k, i, j, r) for k, i, j, r, _ in target.all_mode_matrices()
        )
        assert keys_a == keys_b
        for k, i, j, r, m in target.all_mode_matrices():
            assert moved.mode(k, i, j, r) == m

    def test_series_twist_preserves_relations_and_certificate(self):
        rep = self._rep()
        out = twist(rep, f={0: ONE, 1: qp(2)}, g={0: ONE})
        assert verify_affine_relations(out)["pass"]
        a = check_T1(highest_weight_series(rep))
        b = check_T1(highest_weight_series(out))
        assert b.Q == a.Q and b.Qt == a.Qt and b.K == a.K

    def test_normalizing_twist_fixes_second_series(self):
        rep = self._rep()
        hw = highest_weight_series(rep)
        # multiply tbar-side by 1/lam_bar_2 (finite inverse truncated to the
        # mode bound is not exact; use the exact degree-1 inverse pair
        # g = lam_bar_2^{-1} only when lam_bar_2 is a unit times (1 - cu);
        # instead check the ratio-preservation contract on a finite twist.
        g = {0: hw.lam_bar[1][0].inverse()}
        f = {0: hw.lam_bar[1][0]}
        out = twist(rep, f=f, g=g)
        hw2 = highest_weight_series(out)
        assert hw2.lam_bar[1][0].is_one()
        a = check_T1(hw)
        b = check_T1(hw2)
        assert b.Q == a.Q and b.Qt == a.Qt

    def test_guards(self):
        rep = self._rep()
        with pytest.raises(AffineError):
            twist(rep, f={0: ONE})
        with pytest.raises(AffineError):
            twist(rep, f={0: qp(1)}, g={0: qp(1)})
        with pytest.raises(AffineError):
            twist(rep, dilation=ZERO)


# ---------------------------------------------------------------------------
# JSON shapes
# ---------------------------------------------------------------------------


class TestJson:
    def test_affine_rep_json(self):
        rep = evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
        )
        data = rep.to_json()
        assert data["sequence"] == "01"
        assert data["dim"] == 2
        assert data["parities"] == [0, 1]
        assert data["maximal_vector"] == 0
        assert set(data["modes"]) == {"t", "tb"}
        assert set(data["modes"]["t"]) == {"0", "1"}
        assert "2,1" in data["modes"]["t"]["0"]
        cells = data["modes"]["t"]["0"]["2,1"]
        assert all(len(cell) == 3 for cell in cells)
        dumped = json.dumps(data, sort_keys=True)
        again = json.dumps(
            evaluation_rep(
                "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
            ).to_json(),
            sort_keys=True,
        )
        assert dumped == again

    def test_series_and_certificate_json(self):
        rep = evaluation_rep(
            "01", parse_weight("01", "+q^1,+q^1"), qscalar_parse("q^2")
        )
        hw = highest_weight_series(rep)
        hj = hw.to_json()
        assert hj["unique"] is True
        assert hj["lambda"][0]["0"] == "1/q"
        cert = check_T1(hw)
        cj = cert.to_json()
        assert cj["kind"] == "T1" and cj["K"] == 1
        assert cj["Qt"][0] == "1"
        assert "product" in cj
        t3 = check_T3(
            "001",
            highest_weight_series(
                evaluation_rep(
                    "001", parse_weight("001", "+q^2,+q^1,+q^1"), ONE
                )
            ),
        )
        tj = t3.to_json()
        assert set(tj["pairs"]) == {"1,2", "1,3", "2,3"}
        assert tj["epsilon"] == [1, 1, 1]

    def test_refusal_json(self):
        two = QScalar.from_int(2)
        l1, b1 = eval_form(two, ONE)
        l2, b2 = eval_form(ONE, ONE)
        hw = HWSeries("00", [l1, l2], [b1, b2])
        out = check_T2(hw)
        data = out.to_json()
        assert "refused" in data and "details" in data
