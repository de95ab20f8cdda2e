"""Exact u-series helpers shared by the loop-layer tests.

A series is a ``{degree: QScalar}`` dict without zero coefficients, the
shape of ``HWSeries.lam`` and ``lam_bar``.
"""

from qglrtt.scalars import QScalar

ONE = QScalar.one()
ZERO = QScalar.zero()


def qp(e):
    return QScalar.q_power(e)


def eval_form(mu, a):
    """The (lam, lam_bar) component pair of an evaluation-type series."""
    return (
        {0: mu.inverse(), 1: -(mu * a.inverse())},
        {0: mu, 1: -(mu.inverse() * a)},
    )


def conv(d1, d2):
    """The product of two series."""
    out = {}
    for r1, c1 in d1.items():
        for r2, c2 in d2.items():
            key = r1 + r2
            out[key] = out.get(key, ZERO) + c1 * c2
    return {k: v for k, v in out.items() if not v.is_zero()}


def qstring(K, step, root0):
    """Dense coefficients of prod_{r=0}^{K-1} (1 - step^r * root0 * u)."""
    out = [ONE]
    for r in range(K):
        c = (step ** r) * root0
        nxt = [ZERO] * (len(out) + 1)
        for i, x in enumerate(out):
            nxt[i] = nxt[i] + x
            nxt[i + 1] = nxt[i + 1] - x * c
        out = nxt
    return out
