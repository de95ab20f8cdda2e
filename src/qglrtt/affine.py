"""Loop-algebra layer: evaluation modules, exact relation checks, tensor
products, highest-weight series, and polynomial certificates.

A representation of the loop-level algebra is stored as a finite family of
*mode matrices*: the generating series act as

    t_ij(u)    = sum_{r >= 0} t^(r)_ij   u^(-r),
    tbar_ij(u) = sum_{r >= 0} tbar^(r)_ij u^(+r),

and an :class:`AffineRep` records the finitely many nonzero matrices
``t^(r)_ij`` / ``tbar^(r)_ij``.  Evaluation modules (mode bound 1) and their
tensor products (mode bound additive) are exactly of this shape, so every
relation check below is an identity of matrix-valued Laurent polynomials in
the spectral variables -- no truncation and no sampling.

All matrix entries live in the rational-function field with ``q`` replaced by
``q^(1/denominator)``; external scalar parameters (evaluation points, twist
coefficients, dilations) are stretched into that gauge on entry.
"""

from fractions import Fraction
from math import lcm

from .linalg import RowSpace, kernel_basis, vec_add, vec_scale
from .parity import ParitySeq
from .rtt import relation_expansion, varsigma
from .scalars import Laurent, QScalar, add_term, over_one_denominator
from .tensor import Mat, graded_kron
from .weights import (
    DID_NOT_STABILIZE,
    WeightError,
    build_irreducible,
    classify,
    parse_weight,
)

__all__ = [
    "AffineError",
    "AffineRep",
    "HWSeries",
    "NO_MAXIMAL_VECTOR",
    "PolyCertificate",
    "Refusal",
    "check_T1",
    "check_T2",
    "check_T3",
    "cyclic_span",
    "evaluation_rep",
    "highest_weight_series",
    "joint_kernel",
    "tensor",
    "twist",
    "verify_affine_relations",
]


class AffineError(ValueError):
    """Invalid input to the loop-algebra layer."""


#: Sentinel returned by :func:`highest_weight_series` when the module has no
#: joint maximal vector (no common eigenvector killed by all raising modes).
NO_MAXIMAL_VECTOR = "no joint maximal vector"


# ---------------------------------------------------------------------------
# Scalar and u-polynomial helpers
# ---------------------------------------------------------------------------


def _coerce_scalar(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, int):
        return QScalar.from_int(x)
    if isinstance(x, Fraction):
        return QScalar.from_fraction(x)
    raise AffineError("expected a scalar, got %r" % (x,))


def _umul(a, b):
    """Product of two u-polynomials ``{degree: QScalar}``."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            add_term(out, i + j, x * y)
    return out


def _udivmod(a, b):
    """Quotient and remainder of u-polynomial division over Q(q)."""
    n = max(b)
    lead = b[n].inverse()
    quo, rem = {}, dict(a)
    while rem and max(rem) >= n:
        k = max(rem)
        c = quo[k - n] = rem[k] * lead
        rem = vec_add(rem, {d + k - n: x for d, x in b.items()}, -c)
    return quo, rem


def _ugcd(a, b):
    """Monic greatest common divisor via the Euclidean algorithm."""
    while b:
        a, b = b, _udivmod(a, b)[1]
    return vec_scale(a, a[max(a)].inverse())


def _coefficients(p):
    """Dense coefficients of a u-polynomial, in increasing degree."""
    zero = QScalar.zero()
    return [p.get(k, zero) for k in range(max(p) + 1)]


def _sign_qpower_of(x):
    """Write ``x`` as ``sigma * q^e`` (gauge units); ``None`` if impossible."""
    if x.is_zero():
        return None
    e = x.num.low - x.den.low
    if x.num.high - x.den.high != e:
        return None
    p = QScalar.q_power(e)
    if x == p:
        return 1, e
    if (x + p).is_zero():
        return -1, e
    return None


# ---------------------------------------------------------------------------
# AffineRep
# ---------------------------------------------------------------------------


class AffineRep:
    """A representation given by finitely many mode matrices.

    ``modes`` maps ``"t"`` / ``"tb"`` to ``{(i, j): {r: Mat}}``; the series
    ``t_ij(u)`` collects its modes against ``u^(-r)`` and ``tbar_ij(u)``
    against ``u^(+r)``.  Only nonzero matrices are stored.  ``denominator``
    is the root-of-q gauge shared by every entry.
    """

    __slots__ = (
        "s",
        "denominator",
        "space",
        "labels",
        "maximal_index",
        "provenance",
        "_modes",
    )

    def __init__(
        self,
        s,
        space,
        modes,
        denominator=1,
        maximal_index=None,
        labels=None,
        provenance=None,
    ):
        self.s = ParitySeq(s)
        self.space = space
        self.denominator = int(denominator)
        if self.denominator < 1:
            raise AffineError("denominator must be a positive integer")
        N = self.s.N
        norm = {"t": {}, "tb": {}}
        for kind in ("t", "tb"):
            for (i, j), series in (modes.get(kind) or {}).items():
                if not (1 <= i <= N and 1 <= j <= N):
                    raise AffineError(
                        "mode index (%s, %s) out of range for N=%d"
                        % (i, j, N)
                    )
                keep = {}
                for r, m in series.items():
                    r = int(r)
                    if r < 0:
                        raise AffineError("mode numbers must be >= 0")
                    if m.space.parities != space.parities:
                        raise AffineError(
                            "mode matrix space does not match the module"
                        )
                    if not m.is_zero():
                        keep[r] = m
                if keep:
                    norm[kind][(i, j)] = keep
        self._modes = norm
        self.maximal_index = (
            None if maximal_index is None else int(maximal_index)
        )
        if self.maximal_index is not None and not (
            0 <= self.maximal_index < space.dim
        ):
            raise AffineError("maximal_index out of range")
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != space.dim:
            raise AffineError("labels length does not match the dimension")
        self.provenance = provenance

    @property
    def dim(self):
        return self.space.dim

    def mode_series(self, kind, i, j):
        """The stored ``{r: Mat}`` dict for one series entry (read-only)."""
        if kind not in ("t", "tb"):
            raise AffineError("kind must be 't' or 'tb'")
        return self._modes[kind].get((i, j), {})

    def mode(self, kind, i, j, r):
        """Matrix of the ``u^(-r)`` / ``u^(+r)`` mode (zero when absent)."""
        m = self.mode_series(kind, i, j).get(int(r))
        return m if m is not None else Mat.zero(self.space)

    def mode_bound(self):
        """Largest mode number carried by any stored matrix."""
        best = 0
        for kind in ("t", "tb"):
            for series in self._modes[kind].values():
                best = max(best, max(series))
        return best

    def all_mode_matrices(self):
        """Iterate ``(kind, i, j, r, Mat)`` over every stored matrix."""
        for kind in ("t", "tb"):
            for (i, j) in sorted(self._modes[kind]):
                series = self._modes[kind][(i, j)]
                for r in sorted(series):
                    yield kind, i, j, r, series[r]

    def to_json(self):
        modes_json = {}
        for kind in ("t", "tb"):
            per_r = {}
            for (i, j) in sorted(self._modes[kind]):
                for r, m in sorted(self._modes[kind][(i, j)].items()):
                    cells = [
                        [rr, cc, m[rr, cc].to_string(
                            exp_denom=self.denominator)]
                        for (rr, cc) in sorted(m.nonzero_cells())
                    ]
                    per_r.setdefault(str(r), {})["%d,%d" % (i, j)] = cells
            modes_json[kind] = per_r
        return {
            "sequence": str(self.s),
            "dim": self.dim,
            "denominator": self.denominator,
            "parities": [self.space.parity(x) for x in range(self.dim)],
            "labels": self.labels,
            "maximal_vector": self.maximal_index,
            "modes": modes_json,
            "provenance": self.provenance,
        }


# ---------------------------------------------------------------------------
# Evaluation modules
# ---------------------------------------------------------------------------


def evaluation_rep(s, weight, a, level_cap=None, module=None):
    """Pull a finite-dimensional module back along the evaluation map.

    The evaluation homomorphism at parameter ``a`` sends the generating
    series to first-order polynomials in the finite generators:

        t_ij(u)    |->  t_ij - a^(-1) tbar_ij u^(-1),
        tbar_ij(u) |->  tbar_ij - a t_ij u,

    so the resulting :class:`AffineRep` has modes 0 and 1 only.  ``weight``
    (an :class:`~qglrtt.weights.HWeight` or its string form) must classify
    as finite-dimensional; it is built at depth cap ``level_cap`` (24 when
    not given), or pass ``module`` to reuse an already-built
    :class:`~qglrtt.weights.ModuleRep`.
    """
    s = ParitySeq(s)
    if isinstance(weight, str):
        weight = parse_weight(s, weight)
    a = _coerce_scalar(a)
    if a.is_zero():
        raise AffineError("evaluation parameter must be nonzero")
    if module is not None:
        rep = module
        if rep == DID_NOT_STABILIZE:
            raise AffineError("supplied module construction did not stabilize")
        if str(rep.s) != str(s) or rep.weight != weight:
            raise AffineError(
                "supplied module does not match the requested weight"
            )
    else:
        verdict = classify(s, weight)
        if not verdict["finite"]:
            raise WeightError(
                "weight is not finite-dimensional (witness: %s)"
                % (verdict["witness"],)
            )
        cap = 24 if level_cap is None else int(level_cap)
        rep = build_irreducible(s, weight, cap)
        if rep is DID_NOT_STABILIZE:
            raise AffineError(
                "module construction did not stabilize up to level cap %d"
                % cap
            )
    D = rep.denominator
    a_s = a.stretch(D)
    a_inv = a_s.inverse()
    N = s.N
    modes = {"t": {}, "tb": {}}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            # op is zero off the triangular support; AffineRep drops zeros
            t, tb = rep.op("t", i, j), rep.op("tb", i, j)
            modes["t"][(i, j)] = {0: t, 1: tb.scale(-a_inv)}
            modes["tb"][(i, j)] = {0: tb, 1: t.scale(-a_s)}
    mi = rep.maximal_index
    mu = [rep.op("tb", i, i)[mi, mi] for i in range(1, N + 1)]
    provenance = {
        "kind": "evaluation",
        "sequence": str(s),
        "weight": weight.to_string(),
        "a": a.to_string(),
        "mu": [x.to_string(exp_denom=D) for x in mu],
    }
    return AffineRep(
        s,
        rep.space,
        modes,
        denominator=D,
        maximal_index=mi,
        labels=rep.basis_strings(),
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------


def _lift_modes(rep, target_denom):
    k = target_denom // rep.denominator
    if k == 1:
        return rep._modes
    out = {"t": {}, "tb": {}}
    for kind in ("t", "tb"):
        for key, series in rep._modes[kind].items():
            out[kind][key] = {
                r: m.map_entries(lambda x: x.stretch(k))
                for r, m in series.items()
            }
    return out


def tensor(rep1, rep2):
    """Tensor product along the coproduct of the generating series.

    Each series entry multiplies matrix-style with a parity sign,

        gamma_ij(u) |-> sum_k sign(i,k;k,j) gamma_ik(u) (x) gamma_kj(u),

    with ``sign(a,b;c,d) = (-1)^((|a|+|b|)(|c|+|d|))``, so mode ``r`` of the
    product is the signed convolution of the factors' modes.  The factors'
    gauges are lifted to their least common denominator.
    """
    if str(rep1.s) != str(rep2.s):
        raise AffineError("tensor factors must share the parity sequence")
    s = rep1.s
    N = s.N
    D = lcm(rep1.denominator, rep2.denominator)
    m1 = _lift_modes(rep1, D)
    m2 = _lift_modes(rep2, D)
    space = rep1.space.tensor(rep2.space)
    modes = {"t": {}, "tb": {}}
    for kind in ("t", "tb"):
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                acc = {}
                for k in range(1, N + 1):
                    sA = m1[kind].get((i, k))
                    sB = m2[kind].get((k, j))
                    if not sA or not sB:
                        continue
                    sign = varsigma(s, i, k, k, j)
                    for r1, MA in sA.items():
                        for r2, MB in sB.items():
                            term = graded_kron(MA, MB)
                            add_term(acc, r1 + r2, term if sign > 0 else -term)
                modes[kind][(i, j)] = acc
    labels = None
    if rep1.labels is not None and rep2.labels is not None:
        labels = [
            "%s (x) %s" % (l1, l2)
            for l1 in rep1.labels
            for l2 in rep2.labels
        ]
    maximal = None
    if rep1.maximal_index is not None and rep2.maximal_index is not None:
        maximal = rep1.maximal_index * rep2.dim + rep2.maximal_index
    provenance = {
        "kind": "tensor",
        "factors": [rep1.provenance, rep2.provenance],
    }
    return AffineRep(
        s,
        space,
        modes,
        denominator=D,
        maximal_index=maximal,
        labels=labels,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------


def _digit_bits(bound):
    """The width B with 2^(B-1) > ``bound``.

    An integer polynomial with coefficients at most ``bound`` in absolute
    value is then zero exactly when its value at 2^B is, and its
    coefficients are the signed base-2^B digits of that value.
    """
    return bound.bit_length() + 1


def verify_affine_relations(rep, max_failures=10):
    """Exact check of the defining relations on a mode-matrix family.

    Checks, in order: the zeroth-mode triangularity (``t^(0)_ij = 0`` for
    ``i < j``, ``tbar^(0)_ij = 0`` for ``i > j``), invertibility of the
    zeroth diagonal modes (``t^(0)_ii tbar^(0)_ii = tbar^(0)_ii t^(0)_ii =
    1``), and every entry of the matrix identity

        R(u, v) T1(u) T2(v) = T2(v) T1(u) R(u, v),   R(u, v) = u R - v R~,

    for the generator series (g, g') running over (t,t), (tb,tb), (t,tb),
    (tb,t), as an identity of matrix-valued Laurent polynomials in u, v.
    The products carry the entry signs

        (T1 T2)_{(a,b),(j,l)} = (-1)^{(|b|+|l|)|a|} g_aj(u) g'_bl(v),
        (T2 T1)_{(i,k),(c,d)} = (-1)^{(|k|+|d|)|c|} g'_kd(v) g_ic(u),

    and a failure at instance (i, j, k, l) reports entry ((i,k),(j,l))
    times -(-1)^{(|k|+|l|)|i|} (:func:`qglrtt.rtt.relation_expansion`).

    The quadratic identities are evaluated on integers (Kronecker
    substitution).  Over one denominator L for the mode entries and one
    denominator Lc for the relation coefficients
    (:func:`qglrtt.scalars.over_one_denominator`), both have integer
    polynomial numerators in x, so a residual is the true one times
    L^2 Lc.  Each is split by x-exponent residue mod D and each class
    packed as its value at q = 2^B; residues that sum past D carry one q,
    a shift by B bits.  With C the largest sum of coefficient 1-norms in
    one instance, n the dimension and a the largest 1-norm of an entry, no
    residual coefficient exceeds C n a^2 < 2^(B-1) (:func:`_digit_bits`),
    so the check is a proof and a failure's value is decoded from its
    signed digits.

    Returns ``{"pass", "checked", "failure_count", "failures",
    "truncated"}``.  The checks stop at the ``max_failures``-th failure;
    ``truncated`` says whether they did.
    """
    s = rep.s
    N = s.N
    D = rep.denominator
    space = rep.space
    failures = []
    checked = 0

    def record(fail):
        failures.append(fail)
        return len(failures) >= max_failures

    def report(truncated):
        return {
            "pass": not failures,
            "checked": checked,
            "failure_count": len(failures),
            "failures": failures,
            "truncated": truncated,
        }

    ident = Mat.identity(space)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i != j:
                kind = "t" if i < j else "tb"
                checked += 1
                if not rep.mode(kind, i, j, 0).is_zero() and record(
                    {"relation": "mode-zero-triangularity",
                     "kind": kind, "i": i, "j": j}
                ):
                    return report(True)
    for i in range(1, N + 1):
        checked += 1
        t0 = rep.mode("t", i, i, 0)
        b0 = rep.mode("tb", i, i, 0)
        if not ((t0 @ b0) == ident and (b0 @ t0) == ident) and record(
            {"relation": "mode-zero-diagonal", "i": i}
        ):
            return report(True)

    mats = list(rep.all_mode_matrices())
    L, entry = over_one_denominator(
        [v for *_, m in mats for v in m.terms.values()])
    modes = {}
    for kind, i, j, r, m in mats:
        modes.setdefault((kind, i, j), []).append(
            (r, {rc: entry(v) for rc, v in m.terms.items()}))
    stretched = [(idx, [(c.stretch(D), e, x, y) for c, e, x, y in terms])
                 for idx, terms in relation_expansion(s).items()]
    Lc, coeff = over_one_denominator(
        [c for _, terms in stretched for c, *_ in terms])
    cleared = [(idx, [(coeff(c), e, x, y) for c, e, x, y in terms])
               for idx, terms in stretched]
    C = max(sum(sum(map(abs, c.coeffs)) for c, *_ in terms)
            for _, terms in cleared)
    a = max((sum(map(abs, p.coeffs)) for ser in modes.values()
             for _, m in ser for p in m.values()), default=0)
    bits = _digit_bits(C * space.dim * a * a)

    def pack(p):
        """``{residue: packed class}`` of an integer polynomial in x."""
        out = {}
        for k, c in enumerate(p.coeffs, p.offset):
            if c:
                e, res = divmod(k, D)
                out[res] = out.get(res, 0) + (c << bits * e)
        return out

    # each mode matrix as {row: [(col, residue, packed), ...]}
    letters = {}
    for (kind, i, j), ser in modes.items():
        for r, m in ser:
            rows = {}
            for (row, col), p in m.items():
                rows.setdefault(row, []).extend(
                    (col, res, v) for res, v in pack(p).items())
            letters.setdefault((kind, i, j), []).append(
                (-r if kind == "t" else r, rows))

    prod_cache = {}

    def pair_product(x, y):
        """``{(u-exp, v-exp): {(row, col, residue): packed}}`` of x y."""
        p = prod_cache.get((x, y))
        if p is None:
            p = prod_cache[(x, y)] = {}
            for ex, A in letters.get((x[0],) + x[2:], ()):
                for ey, B in letters.get((y[0],) + y[2:], ()):
                    cell = p.setdefault(
                        (ex, ey) if x[1] == 0 else (ey, ex), {})
                    for row, hits in A.items():
                        for k, ra, va in hits:
                            for col, rb, vb in B.get(k, ()):
                                v, res = va * vb, ra + rb
                                if res >= D:
                                    v, res = v << bits, res - D
                                key = (row, col, res)
                                cell[key] = cell.get(key, 0) + v
        return p

    # the relation coefficients are Laurent in q = x^D: residue 0 only
    expansion = [(idx, [(pack(c)[0], e, x, y) for c, e, x, y in terms])
                 for idx, terms in cleared]
    families = (("t", "t"), ("tb", "tb"), ("t", "tb"), ("tb", "t"))
    for kinds in families:
        # the pair keys carry the generator kinds, so no family reuses
        # another's products: each starts with an empty memo
        prod_cache.clear()
        for (i, j, k, l), terms in expansion:
            checked += 1
            acc = {}
            for c, (eu, ev), x, y in terms:
                p = pair_product((kinds[x[0]],) + x, (kinds[y[0]],) + y)
                for (pu, pv), cell in p.items():
                    tgt = acc.setdefault((pu + eu, pv + ev), {})
                    for key, v in cell.items():
                        tgt[key] = tgt.get(key, 0) + c * v
            bad = [(e, key) for e, cell in acc.items()
                   for key, v in cell.items() if v]
            if not bad:
                continue
            (pu, pv), (row, col, _) = min(bad)
            num, mask = Laurent.zero(), (1 << bits) - 1
            for res in range(D):
                v, e = acc[(pu, pv)].get((row, col, res), 0), res
                while v:  # signed base-2^B digits, lowest first
                    d = v & mask
                    d -= (d >> (bits - 1)) << bits
                    num += Laurent.q_pow(e).scale(d)
                    v, e = (v - d) >> bits, e + D
            value = QScalar(num, L * L * Lc)
            mono = "*".join("%s^%d" % (z, n)
                            for z, n in zip("uv", (pu, pv)) if n) or "1"
            if record(
                {"monomial": mono, "row": row, "col": col,
                 "value": str(value), "relation": "%s-%s" % kinds,
                 "i": i, "j": j, "k": k, "l": l}
            ):
                return report(True)
    return report(False)


# ---------------------------------------------------------------------------
# Highest-weight series
# ---------------------------------------------------------------------------


def _norm_component(x):
    """Normalize one series component to ``{r: nonzero QScalar}``."""
    if isinstance(x, dict):
        items = x.items()
    else:
        items = enumerate(x)
    out = {}
    for r, c in items:
        c = _coerce_scalar(c)
        if not c.is_zero():
            out[int(r)] = c
    return out


class HWSeries:
    """Joint eigenvalue series of the diagonal modes on a maximal vector.

    ``lam[i-1]`` maps ``r`` to the eigenvalue of ``t^(r)_ii`` (coefficient
    of ``u^(-r)``) and ``lam_bar[i-1]`` to that of ``tbar^(r)_ii``
    (coefficient of ``u^(+r)``).  The zeroth coefficients must satisfy
    ``lam_i^(0) * lam_bar_i^(0) = 1``.
    """

    __slots__ = (
        "s",
        "denominator",
        "lam",
        "lam_bar",
        "unique",
        "singular_dim",
        "candidates",
        "vector",
    )

    def __init__(
        self,
        s,
        lam,
        lam_bar,
        denominator=1,
        unique=True,
        singular_dim=1,
        candidates=1,
        vector=None,
    ):
        self.s = ParitySeq(s)
        N = self.s.N
        lam = [_norm_component(x) for x in lam]
        lam_bar = [_norm_component(x) for x in lam_bar]
        if len(lam) != N or len(lam_bar) != N:
            raise AffineError(
                "expected %d series components per family" % N
            )
        for i in range(N):
            c0 = lam[i].get(0)
            b0 = lam_bar[i].get(0)
            if c0 is None or b0 is None or not (c0 * b0).is_one():
                raise AffineError(
                    "zeroth coefficients at index %d must be inverse to "
                    "each other" % (i + 1)
                )
        self.lam = tuple(lam)
        self.lam_bar = tuple(lam_bar)
        self.denominator = int(denominator)
        self.unique = bool(unique)
        self.singular_dim = int(singular_dim)
        self.candidates = int(candidates)
        self.vector = dict(vector) if vector else None

    @property
    def N(self):
        return self.s.N

    def to_json(self):
        def ser(d):
            return {
                str(r): c.to_string(exp_denom=self.denominator)
                for r, c in sorted(d.items())
            }

        return {
            "sequence": str(self.s),
            "denominator": self.denominator,
            "unique": self.unique,
            "singular_dim": self.singular_dim,
            "candidates": self.candidates,
            "lambda": [ser(d) for d in self.lam],
            "lambda_bar": [ser(d) for d in self.lam_bar],
            "vector": (
                None
                if self.vector is None
                else {
                    str(k): c.to_string(exp_denom=self.denominator)
                    for k, c in sorted(self.vector.items())
                }
            ),
        }


def joint_kernel(rep, raising):
    """Kernel basis of all modes with i < j (``raising``) or with i > j."""
    rows = []
    for _kind, i, j, _r, m in rep.all_mode_matrices():
        if (i < j) if raising else (i > j):
            per_row = {}
            for (rr, cc) in m.nonzero_cells():
                per_row.setdefault(rr, {})[cc] = m[rr, cc]
            rows.extend(per_row.values())
    return kernel_basis(rows, rep.dim)


def highest_weight_series(rep):
    """Extract the highest-weight series of a mode-matrix representation.

    Computes the joint kernel of every mode matrix with ``i < j`` (both
    series families), then filters for joint eigenvectors of all diagonal
    modes.  Returns an :class:`HWSeries` for the first eigen-line in
    echelon order -- reporting the singular-space dimension and the number
    of eigen-lines found -- or :data:`NO_MAXIMAL_VECTOR` when none exists.
    """
    N = rep.s.N
    kern = joint_kernel(rep, raising=True)
    if not kern:
        return NO_MAXIMAL_VECTOR
    diag = []
    for kind in ("t", "tb"):
        for i in range(1, N + 1):
            for r, m in sorted(rep.mode_series(kind, i, i).items()):
                diag.append((kind, i, r, m))
    found = []
    for w in kern:
        pivot = min(w)
        winv = w[pivot].inverse()
        lam = [dict() for _ in range(N)]
        lam_bar = [dict() for _ in range(N)]
        ok = True
        for kind, i, r, m in diag:
            img = m.apply(w)
            c = img.get(pivot, QScalar.zero()) * winv
            if vec_add(img, w, -c):
                ok = False
                break
            if not c.is_zero():
                (lam if kind == "t" else lam_bar)[i - 1][r] = c
        if ok:
            found.append((w, lam, lam_bar))
    for w, lam, lam_bar in found:
        try:
            return HWSeries(
                rep.s,
                lam,
                lam_bar,
                denominator=rep.denominator,
                unique=(len(kern) == 1 and len(found) == 1),
                singular_dim=len(kern),
                candidates=len(found),
                vector=w,
            )
        except AffineError:
            continue
    return NO_MAXIMAL_VECTOR


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class PolyCertificate:
    """Structured positive verdict of a finite-dimensionality test.

    ``kind`` is ``"T1"`` (one even and one odd index), ``"T2"`` (two
    indices of equal parity), or ``"T3"`` (full family for N >= 2).
    ``Q``, ``Qt`` and ``P`` are dense coefficient lists in increasing
    powers of ``u``; they are computed, like the reduced ratio ``num`` /
    ``den``, as sparse u-polynomials ``{degree: QScalar}``.
    """

    __slots__ = (
        "kind",
        "denominator",
        "pair",
        "K",
        "Q",
        "Qt",
        "product",
        "P",
        "sigma",
        "epsilon",
        "pairs",
        "chains",
        "num",
        "den",
    )

    def __init__(self, kind, denominator, **kw):
        self.kind = kind
        self.denominator = int(denominator)
        for name in self.__slots__[2:]:
            setattr(self, name, kw.pop(name, None))
        if kw:
            raise AffineError("unknown certificate fields: %s" % (kw,))

    def to_json(self):
        def coeffs(p):
            return [c.to_string(exp_denom=self.denominator) for c in p]

        out = {"kind": self.kind, "denominator": self.denominator}
        if self.pair is not None:
            out["pair"] = list(self.pair)
        if self.K is not None:
            out["K"] = self.K
        if self.Q is not None:
            out["Q"] = coeffs(self.Q)
        if self.Qt is not None:
            out["Qt"] = coeffs(self.Qt)
        if self.product is not None:
            out["product"] = self.product.to_string(
                exp_denom=self.denominator
            )
        if self.P is not None:
            out["P"] = coeffs(self.P)
        if self.sigma is not None:
            out["sigma"] = self.sigma
        if self.epsilon is not None:
            out["epsilon"] = list(self.epsilon)
        if self.pairs is not None:
            out["pairs"] = {
                "%d,%d" % key: cert.to_json()
                for key, cert in sorted(self.pairs.items())
            }
        if self.chains is not None:
            out["chains"] = self.chains
        return out

    def __repr__(self):
        return "PolyCertificate<%s>" % (self.kind,)


class Refusal:
    """Structured negative verdict: the series data admits no certificate."""

    __slots__ = ("reason", "details")

    def __init__(self, reason, details=None):
        self.reason = reason
        self.details = dict(details) if details else {}

    def to_json(self):
        return {"refused": self.reason, "details": self.details}

    def __repr__(self):
        return "Refusal<%s>" % (self.reason,)


def _ratio_data(hw, b, c):
    """Cross-checked reduced ratio of ``lam_bar_b / lam_bar_c``.

    Verifies that the ``u^(-1)``-family and ``u``-family determine the
    same rational function (cross-multiplication of the cleared
    polynomials), then returns the coprime pair ``(A, B)`` with
    ``A/B = lam_bar_b/lam_bar_c``, of equal degrees; a :class:`Refusal`
    when the families disagree or the degrees differ.
    """
    lam_b = hw.lam[b - 1]
    lam_c = hw.lam[c - 1]
    M = max(max(lam_b), max(lam_c))
    p1 = {M - r: x for r, x in lam_b.items()}
    p2 = {M - r: x for r, x in lam_c.items()}
    pb1 = hw.lam_bar[b - 1]
    pb2 = hw.lam_bar[c - 1]
    if _umul(p1, pb2) != _umul(p2, pb1):
        return Refusal(
            "the u^(-1)-family and u-family ratios disagree",
            {"pair": [b, c]},
        )
    g = _ugcd(pb1, pb2)
    A, B = _udivmod(pb1, g)[0], _udivmod(pb2, g)[0]
    if max(A) != max(B):
        return Refusal(
            "reduced ratio has unequal degrees",
            {"pair": [b, c], "deg_num": max(A), "deg_den": max(B)},
        )
    return A, B


def _odd_pair_certificate(hw, b, c):
    """Certificate for a pair of opposite parities.

    The reduced ratio must be a quotient of degree-K polynomials whose
    constant-times-leading products agree (the scaling-invariant form of
    the ``Q_0 Q_K = 1`` normalization); the returned pair is scaled so
    ``Qt_0 = 1``.  Both constant terms are nonzero: ``lam_bar_i^(0) != 0``,
    and the gcd divided out divides both ``lam_bar`` polynomials.
    """
    rd = _ratio_data(hw, b, c)
    if isinstance(rd, Refusal):
        return rd
    A, B = rd
    K = max(A)
    if not (A[0] * A[K] == B[0] * B[K]):
        return Refusal(
            "constant-times-leading products differ",
            {
                "pair": [b, c],
                "num_product": (A[0] * A[K]).to_string(
                    exp_denom=hw.denominator
                ),
                "den_product": (B[0] * B[K]).to_string(
                    exp_denom=hw.denominator
                ),
            },
        )
    cinv = B[0].inverse()
    Q = vec_scale(A, cinv)
    return PolyCertificate(
        "T1",
        hw.denominator,
        pair=(b, c),
        K=K,
        Q=_coefficients(Q),
        Qt=_coefficients(vec_scale(B, cinv)),
        product=Q[0] * Q[K],
        num=A,
        den=B,
    )


def _even_pair_certificate(hw, i, j):
    """Certificate for a pair of equal parities.

    Solves ``A(u) P(u) = sigma q_i^K B(u) P(q_i^(-2) u)`` for a monic-at-0
    polynomial P of degree K, where (A, B) is the reduced ratio, sigma a
    sign, and K is pinned by the constant-term ratio ``A_0/B_0 = sigma
    q_i^K``.
    """
    rd = _ratio_data(hw, i, j)
    if isinstance(rd, Refusal):
        return rd
    A, B = rd
    D = hw.denominator
    di = hw.s.d(i)

    def qi(k):
        return QScalar.q_power(di * D * k)

    sp = _sign_qpower_of(A[0] / B[0])
    if sp is None:
        return Refusal(
            "constant-term ratio is not plus-or-minus a power of q",
            {
                "pair": [i, j],
                "ratio": (A[0] / B[0]).to_string(exp_denom=D),
            },
        )
    sigma, e = sp
    steps = e * di
    if steps < 0 or steps % D != 0:
        return Refusal(
            "constant-term ratio is not an admissible string length",
            {"pair": [i, j], "exponent_numerator": e, "denominator": D},
        )
    K = steps // D
    sgn = QScalar.one() if sigma == 1 else -QScalar.one()
    lead = A[max(A)] / B[max(B)]
    if lead != sgn * qi(-K):
        return Refusal(
            "leading-term ratio inconsistent with the string data",
            {"pair": [i, j], "K": K, "sigma": sigma},
        )
    zero = QScalar.zero()
    rows = []
    for n in range(max(A) + 1 + K):
        row = {}
        for jj in range(K + 1):
            coef = A.get(n - jj, zero) - sgn * qi(K - 2 * jj) * B.get(
                n - jj, zero)
            if not coef.is_zero():
                row[jj] = coef
        if row:
            rows.append(row)
    kern = kernel_basis(rows, K + 1)
    if not kern:
        return Refusal(
            "no monic string polynomial matches the ratio",
            {"pair": [i, j], "K": K, "sigma": sigma},
        )
    if len(kern) > 1:
        return Refusal(
            "string polynomial reconstruction is ambiguous",
            {"pair": [i, j], "K": K, "solutions": len(kern)},
        )
    v = kern[0]
    if 0 not in v:
        return Refusal(
            "string polynomial has a vanishing constant term",
            {"pair": [i, j], "K": K},
        )
    P = vec_scale(v, v[0].inverse())
    if K > 0 and K not in P:
        return Refusal(
            "string polynomial degree mismatch",
            {"pair": [i, j], "K": K},
        )
    shiftP = {k: qi(-2 * k) * c for k, c in P.items()}
    rhs = vec_scale(_umul(B, shiftP), sgn * qi(K))
    if _umul(A, P) != rhs:  # pragma: no cover - kernel construction
        return Refusal(
            "string polynomial verification failed",
            {"pair": [i, j], "K": K},
        )
    return PolyCertificate(
        "T2",
        D,
        pair=(i, j),
        K=K,
        P=_coefficients(P),
        sigma=sigma,
        epsilon=(1, sigma),
        num=A,
        den=B,
    )


def check_T1(hw):
    """Two-index certificate, one even and one odd index."""
    if hw.N != 2:
        raise AffineError("check_T1 expects exactly two indices")
    if hw.s.parity(1) == hw.s.parity(2):
        raise AffineError(
            "check_T1 expects indices of opposite parities"
        )
    return _odd_pair_certificate(hw, 1, 2)


def check_T2(hw):
    """Two-index certificate, both indices of the same parity."""
    if hw.N != 2:
        raise AffineError("check_T2 expects exactly two indices")
    if hw.s.parity(1) != hw.s.parity(2):
        raise AffineError("check_T2 expects indices of equal parities")
    return _even_pair_certificate(hw, 1, 2)


def check_T3(s, hw):
    """Full pairwise certificate family for an arbitrary parity sequence.

    Runs the equal-parity check on every same-parity pair and the
    opposite-parity check on every mixed pair; assembles one sign per
    index (anchored at +1 in each parity class) consistent with every
    equal-parity sign; verifies that string polynomials factor along
    same-parity chains (``P_ij = P_ih P_hj``) and that the reduced ratios
    multiply along every chain ``i < h < j``.
    """
    s = ParitySeq(s)
    if str(s) != str(hw.s):
        raise AffineError("series does not belong to the parity sequence")
    N = s.N
    if N < 2:
        raise AffineError("check_T3 expects at least two indices")
    certs = {}
    failed = {}
    for b in range(1, N + 1):
        for c in range(b + 1, N + 1):
            if s.parity(b) == s.parity(c):
                cert = _even_pair_certificate(hw, b, c)
            else:
                cert = _odd_pair_certificate(hw, b, c)
            if isinstance(cert, Refusal):
                failed[(b, c)] = cert
            else:
                certs[(b, c)] = cert
    if failed:
        return Refusal(
            "pairwise certificate failure",
            {
                "pairs": {
                    "%d,%d" % key: r.to_json()
                    for key, r in sorted(failed.items())
                }
            },
        )
    eps = {}
    for parity in (0, 1):
        cls = [i for i in range(1, N + 1) if s.parity(i) == parity]
        if not cls:
            continue
        eps[cls[0]] = 1
        for k in cls[1:]:
            eps[k] = certs[(cls[0], k)].sigma
        for x in range(len(cls)):
            for y in range(x + 1, len(cls)):
                a, b = cls[x], cls[y]
                if certs[(a, b)].sigma != eps[a] * eps[b]:
                    return Refusal(
                        "inconsistent sign family",
                        {"pair": [a, b]},
                    )
    factor_chains = []
    ratio_chains = []
    for i in range(1, N + 1):
        for h in range(i + 1, N + 1):
            for j in range(h + 1, N + 1):
                if s.parity(i) == s.parity(h) == s.parity(j):
                    P_ih, P_hj = (dict(enumerate(certs[key].P))
                                  for key in ((i, h), (h, j)))
                    if certs[(i, j)].P != _coefficients(_umul(P_ih, P_hj)):
                        return Refusal(
                            "string polynomials do not factor along "
                            "the chain",
                            {"triple": [i, h, j]},
                        )
                    factor_chains.append([i, h, j])
                lhs = _umul(
                    certs[(i, j)].num,
                    _umul(certs[(i, h)].den, certs[(h, j)].den),
                )
                rhs = _umul(
                    certs[(i, j)].den,
                    _umul(certs[(i, h)].num, certs[(h, j)].num),
                )
                if lhs != rhs:
                    return Refusal(
                        "reduced ratios do not multiply along the chain",
                        {"triple": [i, h, j]},
                    )
                ratio_chains.append([i, h, j])
    return PolyCertificate(
        "T3",
        hw.denominator,
        pairs=certs,
        epsilon=tuple(eps[i] for i in range(1, N + 1)),
        chains={
            "string_factorizations": factor_chains,
            "ratio_chains": ratio_chains,
        },
    )


# ---------------------------------------------------------------------------
# Cyclic span and twists
# ---------------------------------------------------------------------------


def cyclic_span(rep, vector):
    """Dimension of the smallest invariant subspace containing a vector.

    ``vector`` is a basis index or a sparse ``{index: scalar}`` dict; the
    span closes under every stored mode matrix of both series families.
    """
    if isinstance(vector, int):
        if not 0 <= vector < rep.dim:
            raise AffineError("vector index out of range")
        vec = {vector: QScalar.one()}
    else:
        vec = {}
        for k, c in dict(vector).items():
            c = _coerce_scalar(c)
            if not c.is_zero():
                k = int(k)
                if not 0 <= k < rep.dim:
                    raise AffineError("vector index out of range")
                vec[k] = c
    if not vec:
        raise AffineError("starting vector must be nonzero")
    mats = [m for _k, _i, _j, _r, m in rep.all_mode_matrices()]
    span = RowSpace()
    span.add(dict(vec))
    frontier = [vec]
    while frontier:
        fresh = []
        for w in frontier:
            for m in mats:
                img = m.apply(w)
                if img and span.add(img):
                    fresh.append(img)
        frontier = fresh
    return span.dim


def twist(rep, f=None, g=None, dilation=None):
    """Twist by invertible scalar series and/or a dilation of the variable.

    ``f`` / ``g`` are finite scalar series (``{r: coeff}`` against
    ``u^(-r)`` / ``u^(+r)``) multiplying the two families; their constant
    terms must satisfy ``f^(0) g^(0) = 1``.  ``dilation`` rescales the
    spectral variable, sending mode ``r`` of the first family to
    ``dilation^(-r)`` times itself and of the second to ``dilation^(r)``
    times itself.  Scalars are stretched into the representation's gauge.
    """
    if (f is None) != (g is None):
        raise AffineError("a series twist needs both f and g")
    D = rep.denominator
    fs = gs = None
    if f is not None:
        fs = {
            int(r): _coerce_scalar(c).stretch(D)
            for r, c in dict(f).items()
        }
        gs = {
            int(r): _coerce_scalar(c).stretch(D)
            for r, c in dict(g).items()
        }
        fs = {r: c for r, c in fs.items() if not c.is_zero()}
        gs = {r: c for r, c in gs.items() if not c.is_zero()}
        if any(r < 0 for r in list(fs) + list(gs)):
            raise AffineError("twist series modes must be >= 0")
        f0 = fs.get(0)
        g0 = gs.get(0)
        if f0 is None or g0 is None or not (f0 * g0).is_one():
            raise AffineError(
                "twist series need invertible constant terms with "
                "f^(0) g^(0) = 1"
            )
    dil = None
    if dilation is not None:
        dil = _coerce_scalar(dilation).stretch(D)
        if dil.is_zero():
            raise AffineError("dilation parameter must be nonzero")
    modes = {"t": {}, "tb": {}}
    for kind in ("t", "tb"):
        mult = fs if kind == "t" else gs
        for (i, j), series in rep._modes[kind].items():
            if mult is None:
                out = dict(series)
            else:
                out = {}
                for r1, c in mult.items():
                    for r2, m in series.items():
                        add_term(out, r1 + r2, m.scale(c))
            if dil is not None:
                base = dil.inverse() if kind == "t" else dil
                out = {r: m.scale(base ** r) for r, m in out.items()}
            modes[kind][(i, j)] = out
    provenance = {
        "kind": "twist",
        "base": rep.provenance,
        "series": f is not None,
        "dilation": None if dilation is None else str(dilation),
    }
    return AffineRep(
        rep.s,
        rep.space,
        modes,
        denominator=D,
        maximal_index=rep.maximal_index,
        labels=rep.labels,
        provenance=provenance,
    )
