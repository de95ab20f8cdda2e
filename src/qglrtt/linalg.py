"""Sparse exact linear algebra over Q(q): row reduction, spans, kernels.

Vectors are dicts mapping column index to a nonzero QScalar.  Everything is
fraction-free only in the sense that QScalar arithmetic is exact; pivots are
chosen as the smallest column index to keep reductions deterministic.
"""

from __future__ import annotations

from .scalars import QScalar, add_term


def vec_add(x, y, c=None):
    """x + c*y (c defaults to 1), dropping entries that cancel."""
    out = dict(x)
    for k, v in y.items():
        add_term(out, k, v if c is None else c * v)
    return out

def vec_scale(x, c):
    if c.is_zero():
        return {}
    return {k: c * v for k, v in x.items()}


class RowSpace:
    """Incrementally row-reduced span of vectors, for membership tests.

    Rows are kept normalised with pivot entry 1 and mutually reduced, so
    `reduce` returns a canonical residual.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> normalised row

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """The residual of vec after eliminating all current pivots.

        Every entry sitting on a pivot column is eliminated, including ones
        introduced by earlier elimination steps, so the residual is supported
        on free columns only.
        """
        vec = dict(vec)
        while vec:
            hit = None
            for p in sorted(vec):
                if p in self.rows:
                    hit = p
                    break
            if hit is None:
                break
            vec = vec_add(vec, self.rows[hit], -vec[hit])
        return vec

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        newrow = vec_scale(res, res[p].inverse())
        # back-substitute into existing rows to keep full reduction
        for piv, row in list(self.rows.items()):
            if p in row:
                self.rows[piv] = vec_add(row, newrow, -row[p])
        self.rows[p] = newrow
        return True


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix with the given sparse rows.

    Rows are dicts over columns 0..ncols-1; the result is a list of sparse
    vectors x with (row . x) = 0 for every row, echelonised over the free
    columns in increasing order.
    """
    space = RowSpace()
    for r in rows:
        space.add(r)
    pivots = sorted(space.rows)
    free = [c for c in range(ncols) if c not in space.rows]
    out = []
    for f in free:
        vec = {f: QScalar.one()}
        for p in pivots:
            c = space.rows[p].get(f)
            if c is not None and not c.is_zero():
                vec[p] = -c
        out.append(vec)
    return out
