"""Highest-weight representation machinery.

Weights are stored as a sign and a rational exponent per index: entry ``i``
encodes the diagonal eigenvalue ``sign_i * q_i^{exp_i}`` of ``tb[i,i]`` on the
maximal vector, where ``q_i = q^{d_i}``.  The module provides

* :func:`reflect_weight` — transition of highest-weight data across an
  adjacent parity swap,
* :func:`classify` — the finite-dimensionality decision procedure that walks
  the fixed sorting word down to the standard parity sequence,
* :func:`typicality` and :func:`kac_dimension` — the odd-root vanishing test
  and the closed dimension formula for typical weights,
* :func:`render_diagram` — the box-strip picture of a finite weight,
* :func:`build_irreducible` — explicit matrices for the irreducible quotient
  of the corresponding truncated Verma module, and
* :func:`verify_module` — an exact check that the returned matrices represent
  the algebra and expose the maximal vector.

All arithmetic is exact.  Rational exponents with common denominator ``D`` are
handled by building the module over the scalar field with ``q`` replaced by
``q^(1/D)``; coefficients are serialized with that fractional base made
explicit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm

from .parity import (
    ParitySeq,
    even_positive_roots,
    odd_positive_roots,
    rho_fractions,
    sort_to_standard,
)
from .scalars import QScalar, _Parser, add_term

__all__ = [
    "WeightError",
    "HWeight",
    "parse_weight",
    "reflect_weight",
    "typicality",
    "classify",
    "kac_dimension",
    "render_diagram",
    "build_irreducible",
    "ModuleRep",
    "verify_module",
    "DID_NOT_STABILIZE",
]

#: Sentinel returned by :func:`build_irreducible` when the level cap is too
#: small to certify completeness of the constructed quotient.
DID_NOT_STABILIZE = "did not stabilize"


class WeightError(ValueError):
    """Raised for malformed weights or operations outside their domain."""


_ENTRY_RE = re.compile(r"^([+-]?)q\^(-?\d+(?:/[1-9]\d*)?)$")


class HWeight:
    """Highest-weight data: a sign and a rational exponent per index."""

    __slots__ = ("s", "exponents", "signs")

    def __init__(self, s, exponents, signs=None):
        self.s = ParitySeq(s)
        try:
            exps = tuple(Fraction(e) for e in exponents)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise WeightError("exponents must be rational: %s" % exc) from None
        if len(exps) != self.s.N:
            raise WeightError(
                "expected %d exponents, got %d" % (self.s.N, len(exps))
            )
        if signs is None:
            sgns = (1,) * self.s.N
        else:
            sgns = tuple(int(x) for x in signs)
            if len(sgns) != self.s.N:
                raise WeightError(
                    "expected %d signs, got %d" % (self.s.N, len(sgns))
                )
            if any(x not in (1, -1) for x in sgns):
                raise WeightError("signs must be +1 or -1")
        self.exponents = exps
        self.signs = sgns
        # every scalar of the module is stretched by the denominator
        if self.denominator() > _Parser.MAX_EXPONENT:
            raise WeightError(
                "exponent denominator %d exceeds the cap of %d"
                % (self.denominator(), _Parser.MAX_EXPONENT)
            )

    def denominator(self):
        """Least common denominator of the exponents (always >= 1)."""
        return lcm(*(e.denominator for e in self.exponents))

    def to_string(self):
        return ",".join(
            "%sq^%s" % ("+" if sg > 0 else "-", e)
            for sg, e in zip(self.signs, self.exponents)
        )

    def __eq__(self, other):
        return (
            isinstance(other, HWeight)
            and self.s == other.s
            and self.exponents == other.exponents
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.s, self.exponents, self.signs))

    def __repr__(self):
        return "HWeight<%s | %s>" % (self.s, self.to_string())


def parse_weight(s, text):
    """Parse ``+q^3,-q^0,+q^-1/2`` style weight strings (signs optional)."""
    s = ParitySeq(s)
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != s.N:
        raise WeightError(
            "expected %d comma-separated entries, got %d" % (s.N, len(parts))
        )
    signs, exps = [], []
    for k, part in enumerate(parts):
        m = _ENTRY_RE.match(part.replace(" ", ""))
        if not m:
            raise WeightError(
                "entry %d: expected [+|-]q^<rational>, got %r" % (k + 1, part)
            )
        signs.append(-1 if m.group(1) == "-" else 1)
        exps.append(Fraction(m.group(2)))
    return HWeight(s, exps, signs)


def _check_weight(s, weight):
    s = ParitySeq(s)
    if not isinstance(weight, HWeight):
        raise WeightError("expected an HWeight, got %r" % (weight,))
    if weight.s != s:
        raise WeightError(
            "weight belongs to sequence %s, not %s" % (weight.s, s)
        )
    return s


def reflect_weight(s, i, weight):
    """Transport highest-weight data across the parity swap at position i.

    Returns ``(new_sequence, new_weight, rule)`` where ``rule`` is
    ``"nonzero"`` when the adjacent exponent sum is nonzero (entries swap with
    a +1/-1 shift) and ``"zero"`` when it vanishes (plain swap).  Signs travel
    with their entries in both cases.
    """
    s = _check_weight(s, weight)
    if not 1 <= i <= s.N - 1:
        raise WeightError("position %d out of range 1..%d" % (i, s.N - 1))
    if s.parity(i) == s.parity(i + 1):
        raise WeightError(
            "position %d has equal parities; not an odd reflection" % i
        )
    exps = list(weight.exponents)
    sgns = list(weight.signs)
    if exps[i - 1] + exps[i] != 0:
        exps[i - 1], exps[i] = exps[i] + 1, exps[i - 1] - 1
        rule = "nonzero"
    else:
        exps[i - 1], exps[i] = exps[i], exps[i - 1]
        rule = "zero"
    sgns[i - 1], sgns[i] = sgns[i], sgns[i - 1]
    s2 = s.swap(i)
    return s2, HWeight(s2, exps, sgns), rule


def typicality(s, weight):
    """(is_typical, vanishing odd roots) via the shifted odd-root pairings."""
    s = _check_weight(s, weight)
    rho = rho_fractions(s)
    vanishing = []
    for i, j in odd_positive_roots(s):
        v = s.d(i) * (weight.exponents[i - 1] + rho[i - 1]) - s.d(j) * (
            weight.exponents[j - 1] + rho[j - 1]
        )
        if v == 0:
            vanishing.append((i, j))
    return (not vanishing), vanishing


def _even_adjacent_violation(s, weight):
    """First adjacent equal-parity pair whose exponent gap is not in Z>=0."""
    for i in range(1, s.N):
        if s.parity(i) == s.parity(i + 1):
            k = weight.exponents[i - 1] - weight.exponents[i]
            if k.denominator != 1 or k < 0:
                return i, k
    return None


def _transport(s, weight):
    """Walk the fixed sorting word toward the standard sequence.

    Returns ``(finite, witness, trace, end_s, end_w)``; ``end_w`` is the
    transported weight at the standard sequence when finite, else the weight
    at the sequence where the failure was detected.
    """
    cur_s, cur = s, weight
    trace = []
    while True:
        bad = _even_adjacent_violation(cur_s, cur)
        if bad is not None:
            i, k = bad
            trace.append(
                {
                    "position": i,
                    "rule": "standard-even-failure",
                    "sequence": str(cur_s),
                    "weight": cur.to_string(),
                }
            )
            witness = {
                "sequence": str(cur_s),
                "pair": [i, i + 1],
                "ratio_exponent": str(k),
                "weight": cur.to_string(),
                "reason": "adjacent equal-parity ratio exponent is not a "
                "nonnegative integer",
            }
            return False, witness, trace, cur_s, cur
        if cur_s.is_standard():
            return True, None, trace, cur_s, cur
        i = sort_to_standard(cur_s)[0]
        cur_s, cur, rule = reflect_weight(cur_s, i, cur)
        trace.append(
            {
                "position": i,
                "rule": rule,
                "sequence": str(cur_s),
                "weight": cur.to_string(),
            }
        )


def _kac_from_standard(std_s, std_w):
    """Closed dimension formula evaluated at a standard-sequence weight."""
    rho = rho_fractions(std_s)
    prod = Fraction(2) ** (std_s.m * std_s.n)
    for i, j in even_positive_roots(std_s):
        num = std_s.d(i) * (std_w.exponents[i - 1] + rho[i - 1]) - std_s.d(
            j
        ) * (std_w.exponents[j - 1] + rho[j - 1])
        den = std_s.d(i) * rho[i - 1] - std_s.d(j) * rho[j - 1]
        prod *= Fraction(num, den)
    if prod.denominator != 1 or prod <= 0:
        raise WeightError(
            "dimension formula did not yield a positive integer: %s" % prod
        )
    return int(prod)


def _signed_str(fr):
    return "%s%s" % ("+" if fr >= 0 else "-", abs(fr))


def _diagram_unchecked(s, weight):
    rho = rho_fractions(s)
    boxes = []
    art = []
    for i in range(1, s.N + 1):
        for j in range(i + 1, s.N + 1):
            if s.parity(i) == s.parity(j):
                label = _signed_str(
                    s.d(i) * (weight.exponents[i - 1] - weight.exponents[j - 1])
                )
                boxes.append({"pair": [i, j], "kind": "label", "label": label})
                art.append("[%s]" % label)
            else:
                v = (
                    weight.exponents[i - 1]
                    + weight.exponents[j - 1]
                    + rho[i - 1]
                    + rho[j - 1]
                )
                if v == 0:
                    boxes.append({"pair": [i, j], "kind": "circle"})
                    art.append("(o)")
                else:
                    boxes.append({"pair": [i, j], "kind": "triangle"})
                    art.append("/\\")
    return {"sequence": str(s), "boxes": boxes, "ascii": " ".join(art)}


def render_diagram(s, weight):
    """Box-strip picture of a finite weight: one box per index pair.

    Equal-parity pairs get a labeled box carrying the signed base-q exponent
    of the (sign-stripped) eigenvalue ratio; opposite-parity pairs get a
    circle when the shifted pairing vanishes (the atypical case) and a
    triangle otherwise.  Raises :class:`WeightError` on infinite-dimensional
    weights.
    """
    s = _check_weight(s, weight)
    finite, witness, _, _, _ = _transport(s, weight)
    if not finite:
        raise WeightError(
            "cannot render a diagram for an infinite-dimensional weight "
            "(witness: %s)" % (witness,)
        )
    return _diagram_unchecked(s, weight)


def classify(s, weight):
    """Decide finite-dimensionality and typicality of a highest weight.

    The loop checks every adjacent equal-parity pair at the current sequence
    (ratio exponent must be a nonnegative integer), stops at the standard
    sequence, and otherwise reflects at the first position of the fixed
    sorting word, recording the full trace.  The verdict carries typicality
    data (evaluated at the original sequence), a failure witness when
    infinite, the box-strip diagram when finite, and the closed-formula
    dimension when finite and typical.
    """
    s = _check_weight(s, weight)
    finite, witness, trace, end_s, end_w = _transport(s, weight)
    typical = roots = None
    if finite:
        typical, roots = typicality(s, weight)
    verdict = {
        "sequence": str(s),
        "weight": weight.to_string(),
        "finite": finite,
        "typical": typical,
        "atypical_roots": [list(r) for r in roots] if finite else None,
        "trace": trace,
        "witness": witness,
        "kac_dimension": None,
        "diagram": _diagram_unchecked(s, weight) if finite else None,
    }
    if finite and typical:
        verdict["kac_dimension"] = _kac_from_standard(end_s, end_w)
    return verdict


def kac_dimension(s, weight):
    """Closed-formula dimension of a finite typical weight.

    The formula is evaluated at the standard sequence; the weight is
    transported there along the same reflection chain the classifier uses.
    Raises :class:`WeightError` for infinite or atypical weights.
    """
    s = _check_weight(s, weight)
    finite, witness, _, end_s, end_w = _transport(s, weight)
    if not finite:
        raise WeightError(
            "weight is infinite-dimensional (witness: %s)" % (witness,)
        )
    typical, roots = typicality(s, weight)
    if not typical:
        raise WeightError(
            "dimension formula requires a typical weight; vanishing odd "
            "roots: %s" % (roots,)
        )
    return _kac_from_standard(end_s, end_w)


# ---------------------------------------------------------------------------
# Explicit construction of the irreducible quotient
#
# Classification needs none of the straightening, linear-algebra and matrix
# layers, so the construction imports them where it uses them.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16384)
def _word_product_terms(bits, left, right):
    """Normal form of the product of two normal-form words, as a term tuple."""
    from .rtt import _product

    one = QScalar.one()
    terms = _product(ParitySeq(bits), {left: one}, {right: one})
    return tuple(sorted(terms.items()))


def _diag_eigenvalue(weight, D, g, e):
    """Eigenvalue of a diagonal letter power on the maximal vector."""
    kind, a, _ = g
    ee = e if kind == "tb" else -e
    exp = weight.exponents[a - 1] * (D * weight.s.d(a) * ee)
    if exp.denominator != 1:
        raise WeightError(
            "internal: non-integer eigenvalue exponent %s" % exp
        )
    val = QScalar.q_power(int(exp))
    if weight.signs[a - 1] == -1 and ee % 2 != 0:
        val = -val
    return val


def _offset(key, N):
    v = [0] * N
    for (_, a, b), e in key:
        v[a - 1] += e
        v[b - 1] -= e
    return tuple(v)


def _level(key):
    return sum(e * (g[1] - g[2]) for g, e in key)


def _lowering_monomials(s, gens, level):
    """PBW lowering words of exactly the given level, in no fixed order."""
    from .rtt import gen_parity

    out = []
    word = []

    def rec(idx, budget):
        if budget == 0:
            out.append(tuple(word))
            return
        if idx == len(gens):
            return
        g = gens[idx]
        ht = g[1] - g[2]
        emax = budget // ht
        if gen_parity(s, g):
            emax = min(emax, 1)
        for e in range(1, emax + 1):
            word.append((g, e))
            rec(idx + 1, budget - e * ht)
            word.pop()
        rec(idx + 1, budget)

    rec(0, level)
    return out


class ModuleRep:
    """An irreducible highest-weight module given by explicit matrices.

    ``matrices`` maps every generator ``("t", i, j)`` (i >= j) and
    ``("tb", i, j)`` (i <= j) to its :class:`Mat` in the monomial basis; the
    maximal vector is basis index ``maximal_index``.  ``denominator`` is the
    common denominator of the weight exponents: all matrix entries live in
    the scalar field with ``q`` replaced by ``q^(1/denominator)``.
    """

    __slots__ = (
        "s",
        "weight",
        "denominator",
        "basis",
        "levels",
        "weights",
        "signs",
        "maximal_index",
        "space",
        "matrices",
    )

    def __init__(
        self, s, weight, denominator, basis, levels, weights, space, matrices
    ):
        self.s = s
        self.weight = weight
        self.denominator = denominator
        self.basis = basis
        self.levels = levels
        self.weights = weights
        self.signs = weight.signs
        self.maximal_index = 0
        self.space = space
        self.matrices = matrices

    @property
    def dim(self):
        return len(self.basis)

    def op(self, kind, i, j):
        """Matrix of t[i,j] / tb[i,j]; zero off the triangular support."""
        from .tensor import Mat

        m = self.matrices.get((kind, i, j))
        return m if m is not None else Mat.zero(self.space)

    def basis_strings(self):
        from .rtt import _letter_text

        return [
            "*".join(_letter_text(g, e) for g, e in key) or "1"
            for key in self.basis
        ]

    def to_json(self):
        mats = {}
        for (kind, i, j), m in sorted(self.matrices.items()):
            cells = [
                [r, c, m[r, c].to_string(exp_denom=self.denominator)]
                for (r, c) in m.nonzero_cells()
            ]
            mats["%s[%d,%d]" % (kind, i, j)] = cells
        return {
            "sequence": str(self.s),
            "weight": self.weight.to_string(),
            "dimension": self.dim,
            "denominator": self.denominator,
            "maximal_index": self.maximal_index,
            "signs": list(self.signs),
            "basis": self.basis_strings(),
            "levels": list(self.levels),
            "weights": [[str(x) for x in wt] for wt in self.weights],
            "parities": [self.space.parity(i) for i in range(self.dim)],
            "matrices": mats,
        }


def build_irreducible(s, weight, level_cap):
    """Matrices of the irreducible quotient of the highest-weight module.

    The Verma module has a basis of lowering monomials times the maximal
    vector; a monomial's depth (level) is the sum of its letters' heights,
    and all monomials of one weight have the same depth.  The quotient by
    the maximal submodule is built one depth at a time, in increasing
    order.  At depth 0 it is the line of the maximal vector.  At a weight
    below it, a vector lies in the maximal submodule exactly when every
    simple raising letter ``tb[i,i+1]`` maps it into the maximal submodule
    one depth up, so the radical there is the kernel of those images,
    written on the bases of the quotients already built.

    The simple letters are enough: for ``i+2 <= j`` the normal form of
    ``tb[i+1,j] tb[i,i+1]`` is ``e tb[i,i+1] tb[i+1,j] + c tb[i+1,i+1]
    tb[i,j]`` with ``e = 1 or -1`` and ``c = +-(q - q^-1) != 0``, so by
    induction on ``j - i`` every raising letter lies in the algebra
    generated by the simple letters and the diagonal ones, which act on a
    weight space by a scalar.  The radical is therefore the kernel of all
    "coefficient of the maximal vector after a raising monomial"
    functionals.  Its fully reduced echelon form, each pivot at its
    vector's smallest monomial, is unique, so the basis (the monomials that
    are no pivot) and the matrices do not depend on how it was found.

    A simple letter lowers the depth by exactly one, so a depth whose
    quotient is zero is followed only by such depths, and the build stops
    at the first one, or at depth ``level_cap``.  A raising letter moves up
    at most ``window`` depths; the module is certified complete only when
    ``top + window <= level_cap``, with ``top`` its deepest nonzero depth,
    and otherwise the string sentinel ``"did not stabilize"`` is returned,
    as soon as a nonzero depth shows it.  The work of a certified build
    follows the module, not the cap.
    """
    from .linalg import kernel_basis
    from .rtt import AlgebraElement, gen_parity, pbw_generator_order
    from .tensor import Mat, Space

    s = _check_weight(s, weight)
    if level_cap < 1:
        raise WeightError("level_cap must be >= 1")
    D = weight.denominator()
    N = s.N
    bits = str(s)
    one = QScalar.one()
    lowering = [
        g for g in pbw_generator_order(s) if g[0] == "t" and g[1] > g[2]
    ]
    window = max([2] + [g[1] - g[2] for g in lowering])

    eigenvalue = lru_cache(maxsize=None)(partial(_diag_eigenvalue, weight, D))

    @lru_cache(maxsize=None)
    def letter_image(gkey, key):
        """Verma action of a normal-form letter on a lowering monomial."""
        img = {}
        for tkey, tc in _word_product_terms(bits, gkey, key):
            # normal order: lowering letters, diagonal ones, raising ones
            if tkey and tkey[-1][0][1] < tkey[-1][0][2]:
                continue  # a raising letter kills the maximal vector
            n = sum(g[1] > g[2] for g, _ in tkey)
            val = tc.stretch(D)
            for g, e in tkey[n:]:
                val = val * eigenvalue(g, e)
            add_term(img, tkey[:n], val)
        return img

    # nonzero quotients only: weight -> (depth, basis, coordinates of
    # every monomial on the basis); a weight without a record is radical
    records = {}

    def add_quotient(nu, depth, keys, rows):
        """Record the quotient at weight nu from its raising rows.

        With ``keys`` in decreasing order, ``kernel_basis`` returns the
        radical in fully reduced echelon form: each vector is 1 at its
        smallest monomial, its pivot, and otherwise lies on the quotient
        basis, the monomials that are no pivot.  So a pivot is minus the
        rest of its vector in the quotient.
        """
        coords = {}
        for vec in kernel_basis(rows, len(keys)):
            f = max(vec)
            coords[keys[f]] = {keys[c]: -v for c, v in vec.items() if c != f}
        basis = [k for k in reversed(keys) if k not in coords]
        coords.update((k, {k: one}) for k in basis)
        if basis:
            records[nu] = (depth, basis, coords)
        return basis

    def target(nu, gkey):
        """Coordinates at the weight gkey maps nu to; None if it is radical."""
        shift = _offset(gkey, N)
        rec = records.get(tuple(x + y for x, y in zip(nu, shift)))
        return None if rec is None else rec[2]

    def image(coords, gkey, key):
        """The image of key under gkey, on the basis of its coordinates."""
        out = {}
        for k, v in letter_image(gkey, key).items():
            for b, x in coords[k].items():
                add_term(out, b, v * x)
        return out

    add_quotient((0,) * N, 0, [()], [{0: one}])
    simple = [((("tb", i, i + 1), 1),) for i in range(1, N)]
    depth = top = 0
    while lowering and depth < level_cap:
        depth += 1
        spaces = {}
        for key in _lowering_monomials(s, lowering, depth):
            spaces.setdefault(_offset(key, N), []).append(key)
        for nu, keys in spaces.items():
            keys.sort(reverse=True)
            rows = {}
            for gkey in simple:
                coords = target(nu, gkey)
                if not coords:
                    continue
                for col, key in enumerate(keys):
                    for b, val in image(coords, gkey, key).items():
                        rows.setdefault((gkey, b), {})[col] = val
            if add_quotient(nu, depth, keys, list(rows.values())):
                top = depth
        if top < depth:
            break
        if depth + window > level_cap:  # top can only grow from here
            return DID_NOT_STABILIZE
    if lowering and top + window > level_cap:
        return DID_NOT_STABILIZE

    ordered = sorted(records.items(), key=lambda kv: (kv[1][0], kv[0]))
    basis = [(nu, key) for nu, (_, keys, _) in ordered for key in keys]
    gindex = {key: g for g, (_, key) in enumerate(basis)}

    parities = [
        sum(gen_parity(s, g) * (e % 2) for g, e in key) % 2
        for _, key in basis
    ]
    space = Space(parities)

    gens_all = [("t", i, j) for i in range(1, N + 1) for j in range(1, i + 1)]
    gens_all += [
        ("tb", i, j) for i in range(1, N + 1) for j in range(i, N + 1)
    ]

    matrices = {}
    for gen in gens_all:
        # one word of coefficient 1 (t[a,a] becomes tb[a,a]^-1)
        (gkey, _), = AlgebraElement.generator(s, *gen).terms.items()
        mat = Mat(space)
        for col, (nu, key) in enumerate(basis):
            coords = target(nu, gkey)
            if not coords:
                continue
            for b, val in image(coords, gkey, key).items():
                mat.add_to(gindex[b], col, val)
        matrices[gen] = mat

    weights = [
        tuple(weight.exponents[a] + nu[a] for a in range(N))
        for nu, _ in basis
    ]
    levels = [_level(key) for _, key in basis]
    return ModuleRep(
        s,
        weight,
        D,
        [key for _, key in basis],
        levels,
        weights,
        space,
        matrices,
    )


def _word_matrix(rep, key):
    """Matrix of a normal-form word in a constructed module."""
    from .tensor import Mat

    M = Mat.identity(rep.space)
    for g, e in key:
        base = rep.matrices[g]
        if g[1] == g[2]:
            P = Mat(rep.space)
            for (r, c), v in base.terms.items():
                P.set(r, c, v**e)
            M = M @ P
        else:
            for _ in range(e):
                M = M @ base
    return M


def verify_module(rep, max_failures=10):
    """Exact verification that a :class:`ModuleRep` represents the algebra.

    Checks (a) the maximal-vector contract: index 0 is annihilated by every
    strictly-raising matrix, is an eigenvector of every diagonal matrix with
    the declared eigenvalue, and is the unique basis vector of its weight;
    (b) the representation property: for every ordered pair of generators the
    matrix product equals the matrix of the straightened normal form, which
    entails every defining relation instance.
    """
    from .rtt import AlgebraElement
    from .tensor import Mat

    s = rep.s
    D = rep.denominator
    bits = str(s)
    z = rep.maximal_index
    failures = []
    checked = 0

    for (kind, i, j), m in sorted(rep.matrices.items()):
        if kind == "tb" and i < j:
            checked += 1
            bad = [r for (r, c) in m.nonzero_cells() if c == z]
            if bad:
                failures.append(
                    "raising tb[%d,%d] does not annihilate the maximal "
                    "vector (rows %s)" % (i, j, bad)
                )
        elif i == j:
            checked += 1
            expect = _diag_eigenvalue(rep.weight, D, (kind, i, i), 1)
            if m[z, z] != expect:
                failures.append(
                    "%s[%d,%d] eigenvalue on the maximal vector is %s, "
                    "expected %s" % (kind, i, i, m[z, z], expect)
                )

    checked += 1
    if rep.weights.count(rep.weights[z]) != 1:
        failures.append("the maximal-vector weight line is not unique")

    gens = sorted(rep.matrices)
    for g1 in gens:
        e1 = AlgebraElement.generator(s, *g1)
        (k1, c1), = e1.terms.items()
        for g2 in gens:
            e2 = AlgebraElement.generator(s, *g2)
            (k2, c2), = e2.terms.items()
            lhs = rep.matrices[g1] @ rep.matrices[g2]
            rhs = Mat(rep.space)
            for key, c in _word_product_terms(bits, k1, k2):
                rhs = rhs + _word_matrix(rep, key).scale(
                    ((c1 * c2) * c).stretch(D)
                )
            checked += 1
            if lhs != rhs:
                failures.append(
                    "product %s[%d,%d] * %s[%d,%d] does not match its "
                    "normal form" % (g1 + g2)
                )
                if len(failures) >= max_failures:
                    return {
                        "pass": False,
                        "checked": checked,
                        "failures": failures,
                    }
    return {"pass": not failures, "checked": checked, "failures": failures}
