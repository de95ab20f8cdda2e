"""Graded vector spaces, Koszul-signed tensor products, and R-matrices.

The natural representation attached to a parity sequence s lives on a space
with basis e_1 .. e_N graded by |e_i| = s_i.  Operators are sparse exact
matrices; tensor products of operators carry the Koszul sign, so for
homogeneous A, B:  (A (x) B)(v (x) w) = (-1)^{|B||v|} Av (x) Bw.
"""

from __future__ import annotations

from .parity import ParitySeq
from .scalars import QScalar, QZERO, QONE, Q, SparseSum, add_term


class Space:
    """A finite-dimensional Z_2-graded vector space over Q(q)."""

    __slots__ = ("parities",)

    def __init__(self, parities):
        object.__setattr__(self, "parities", tuple(int(p) % 2 for p in parities))

    def __setattr__(self, name, value):
        raise AttributeError("Space instances are immutable")

    @staticmethod
    def natural(s):
        return Space(ParitySeq(s).bits)

    @property
    def dim(self):
        return len(self.parities)

    def parity(self, i):
        return self.parities[i]

    def tensor(self, other):
        return Space(
            tuple(
                (p + r) % 2
                for p in self.parities
                for r in other.parities
            )
        )

    def __eq__(self, other):
        return isinstance(other, Space) and self.parities == other.parities

    def __hash__(self):
        return hash(self.parities)

    def __repr__(self):
        return "Space(%r)" % (self.parities,)


class Mat(SparseSum):
    """A sparse matrix over Q(q) acting on a graded space (0-based indices).

    ``terms`` maps ``(row, col)`` to a nonzero scalar.
    """

    __slots__ = ("space",)

    def __init__(self, space, terms=None):
        self.space = space
        SparseSum.__init__(self, terms)

    def _context(self):
        return self.space

    def _like(self, terms):
        return Mat(self.space, terms)

    @staticmethod
    def identity(space):
        return Mat(space, {(i, i): QONE for i in range(space.dim)})

    @staticmethod
    def zero(space):
        return Mat(space)

    def __getitem__(self, rc):
        return self.terms.get(rc, QZERO)

    def set(self, r, c, v):
        if v.is_zero():
            self.terms.pop((r, c), None)
        else:
            self.terms[(r, c)] = v

    def add_to(self, r, c, v):
        add_term(self.terms, (r, c), v)

    def __matmul__(self, other):
        by_row = {}
        for (r, c), v in other.terms.items():
            by_row.setdefault(r, []).append((c, v))
        out = Mat(self.space)
        for (r, k), a in self.terms.items():
            hits = by_row.get(k)
            if hits:
                for c, b in hits:
                    out.add_to(r, c, a * b)
        return out

    def map_entries(self, f):
        return Mat(self.space, {k: f(v) for k, v in self.terms.items()})

    def apply(self, vec):
        """Apply to a sparse column vector {index: scalar}."""
        out = {}
        for (r, c), v in self.terms.items():
            a = vec.get(c)
            if a is not None:
                add_term(out, r, v * a)
        return out

    def nonzero_cells(self):
        return sorted(self.terms)

    def __repr__(self):
        return "Mat(dim=%d, nnz=%d)" % (self.space.dim, len(self.terms))


def graded_kron(a: Mat, b: Mat) -> Mat:
    """Tensor product of operators with the Koszul sign convention.

    Entrywise:  (A (x) B)[(i,j),(k,l)] = (-1)^{(|j|+|l|) |k|} A[i,k] B[j,l],
    which agrees with (A (x) B)(v (x) w) = (-1)^{|B||v|} Av (x) Bw for
    homogeneous B and extends it linearly when B mixes parities.
    """
    sa, sb = a.space, b.space
    out = Mat(sa.tensor(sb))
    db = sb.dim
    for (i, k), av in a.terms.items():
        pk = sa.parity(k)
        for (j, l), bv in b.terms.items():
            sign = -1 if pk and (sb.parity(j) + sb.parity(l)) % 2 else 1
            v = av * bv
            if sign < 0:
                v = -v
            out.add_to(i * db + j, k * db + l, v)
    return out


# ---------------------------------------------------------------------------
# R-matrices


def perm_matrix(s) -> Mat:
    """The graded flip P(e_i (x) e_j) = (-1)^{|i||j|} e_j (x) e_i."""
    s = ParitySeq(s)
    v = Space.natural(s)
    n = v.dim
    out = Mat(v.tensor(v))
    for i in range(n):
        for j in range(n):
            sign = -1 if v.parity(i) and v.parity(j) else 1
            out.add_to(j * n + i, i * n + j, QScalar.from_int(sign))
    return out


def rmatrix(s) -> Mat:
    """The constant R-matrix of the natural representation.

    R = sum_{i,j} q_i^{delta_ij} E_ii (x) E_jj
        + (q_i - q_i^{-1}) sum_{i<j} E_ji (x) E_ij.
    """
    s = ParitySeq(s)
    v = Space.natural(s)
    n = v.dim
    out = Mat(v.tensor(v))
    for i in range(n):
        for j in range(n):
            coeff = s.q_i(i + 1) if i == j else QONE
            out.add_to(i * n + j, i * n + j, coeff)
    for i in range(n):
        for j in range(i + 1, n):
            coeff = s.q_i(i + 1) - s.q_i(i + 1).inverse()
            # E_ji (x) E_ij sends e_i (x) e_j to e_j (x) e_i; as operators on
            # the flattened space this is entry [(j,i), (i,j)] with the
            # Koszul sign of moving E_ij past e_i
            sign_par = (v.parity(i) + v.parity(j)) % 2 and v.parity(i)
            val = -coeff if sign_par else coeff
            out.add_to(j * n + i, i * n + j, val)
    return out


def qminus() -> QScalar:
    return Q - QScalar.q_power(-1)


def rmatrix_tilde(s) -> Mat:
    """R~ = R - (q - q^{-1}) P, which also equals P R^{-1} P."""
    return rmatrix(s) - perm_matrix(s).scale(qminus())


def rmatrix_q_inverse(s) -> Mat:
    """The R-matrix with q replaced by q^{-1} entrywise."""
    return rmatrix(s).map_entries(lambda x: x.subs_q_inverse())


def rmatrix_tilde_q_inverse(s) -> Mat:
    return rmatrix_tilde(s).map_entries(lambda x: x.subs_q_inverse())


class SeriesMat(SparseSum):
    """A matrix-valued Laurent polynomial in several formal variables.

    Stored as {exponent tuple: Mat}; multiplication adds exponent tuples
    and composes the matrix coefficients (no extra signs: the matrices act
    on a common space and the variables are central).
    """

    __slots__ = ("nvars", "space")

    def __init__(self, nvars, space, terms=None):
        self.nvars = nvars
        self.space = space
        SparseSum.__init__(self, terms)

    def _context(self):
        return self.nvars, self.space

    def _like(self, terms):
        return SeriesMat(self.nvars, self.space, terms)

    def add_term(self, expo, mat):
        add_term(self.terms, tuple(expo), mat)

    def __matmul__(self, other):
        out = SeriesMat(self.nvars, self.space)
        for e1, m1 in self.terms.items():
            for e2, m2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out.add_term(e, m1 @ m2)
        return out

    def nonzero_report(self, varnames):
        out = []
        for e in sorted(self.terms):
            mono = "*".join(
                "%s^%d" % (v, k) for v, k in zip(varnames, e) if k
            ) or "1"
            for (r, c) in self.terms[e].nonzero_cells():
                out.append(
                    {"monomial": mono, "row": r, "col": c,
                     "value": str(self.terms[e][(r, c)])}
                )
        return out


def spectral_rmatrix(s, R=None, Rt=None):
    """R(u, v) = u R - v R~ as a two-variable SeriesMat."""
    R = rmatrix(s) if R is None else R
    Rt = rmatrix_tilde(s) if Rt is None else Rt
    out = SeriesMat(2, R.space)
    out.add_term((1, 0), R)
    out.add_term((0, 1), -Rt)
    return out


def _three_legs(m, s):
    """(M12, M13, M23) on V (x) V (x) V for an operator M on V (x) V.

    M12 = M (x) 1 and M23 = 1 (x) M carry the Koszul signs of graded_kron;
    M13 = P23 M12 P23 with the graded flip P23 = 1 (x) P of legs 2 and 3.
    """
    ident = Mat.identity(Space.natural(s))
    m12 = graded_kron(m, ident)
    p23 = graded_kron(ident, perm_matrix(s))
    return m12, p23 @ m12 @ p23, graded_kron(ident, m)


def ybe_residual_constant(s, R=None):
    """R12 R13 R23 - R23 R13 R12 on the triple tensor power."""
    s = ParitySeq(s)
    if R is None:
        R = rmatrix(s)
    r12, r13, r23 = _three_legs(R, s)
    return (r12 @ r13 @ r23) - (r23 @ r13 @ r12)


def ybe_residual_spectral(s):
    """Residual of R12(u,v) R13(u,w) R23(v,w) = R23(v,w) R13(u,w) R12(u,v).

    Returned as a SeriesMat in the monomials u^a v^b w^c.
    """
    s = ParitySeq(s)
    R, Rt = rmatrix(s), rmatrix_tilde(s)
    # R_ab(x, y) = x R_ab - y R~_ab in the variables (u, v), (u, w), (v, w)
    monomials = [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)),
                 ((0, 1, 0), (0, 0, 1))]
    r12, r13, r23 = (
        SeriesMat(3, m.space, {x: m, y: -mt})
        for m, mt, (x, y) in zip(_three_legs(R, s), _three_legs(Rt, s), monomials)
    )
    return (r12 @ r13 @ r23) - (r23 @ r13 @ r12)


def crossing_residual(s):
    """Residual of R_{q,s}(u,v) R_{q^{-1},s}(u,v) = ((u-v)^2 - (q-q^{-1})^2 uv) Id."""
    s = ParitySeq(s)
    lhs = spectral_rmatrix(s) @ spectral_rmatrix(
        s, rmatrix_q_inverse(s), rmatrix_tilde_q_inverse(s)
    )
    ident = Mat.identity(rmatrix(s).space)
    rhs = SeriesMat(2, ident.space)
    rhs.add_term((2, 0), ident)
    rhs.add_term((1, 1), ident.scale(QScalar.from_int(-2) - qminus() ** 2))
    rhs.add_term((0, 2), ident)
    return lhs - rhs


def rtilde_residuals(s):
    """Exact residuals for the two characterisations of R~.

    Returns (R~ - (R - (q-q^{-1})P),  P R~ P R - Id); the second vanishing
    is equivalent to R~ = P R^{-1} P.
    """
    s = ParitySeq(s)
    R = rmatrix(s)
    Rt = rmatrix_tilde(s)
    P = perm_matrix(s)
    first = Rt - (R - P.scale(qminus()))
    second = (P @ Rt @ P @ R) - Mat.identity(R.space)
    return first, second


def check_ybe(s, spectral=True):
    """Run the YBE checks for one parity sequence; returns JSON-able reports."""
    s = ParitySeq(s)
    reports = []
    res = ybe_residual_constant(s)
    reports.append(
        {
            "sequence": str(s),
            "identity": "constant-ybe",
            "pass": res.is_zero(),
            "nonzero_entries": [
                {"row": r, "col": c, "value": str(res[(r, c)])}
                for (r, c) in res.nonzero_cells()
            ],
        }
    )
    if spectral:
        sres = ybe_residual_spectral(s)
        reports.append(
            {
                "sequence": str(s),
                "identity": "spectral-ybe",
                "pass": sres.is_zero(),
                "nonzero_entries": sres.nonzero_report(("u", "v", "w")),
            }
        )
    return reports
