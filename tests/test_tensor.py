"""Koszul signs, R-matrices, and the graded Yang-Baxter identities."""

import pytest

from qglrtt.parity import ParitySeq, enumerate_sequences
from qglrtt.scalars import QScalar, qscalar_parse
from qglrtt.tensor import (
    Mat,
    Space,
    check_ybe,
    crossing_residual,
    graded_kron,
    perm_matrix,
    qminus,
    rmatrix,
    rmatrix_tilde,
    rtilde_residuals,
    spectral_rmatrix,
    ybe_residual_constant,
    ybe_residual_spectral,
)


def elementary(space, i, j):
    return Mat(space, {(i, j): QScalar.one()})


def test_perm_matrix_is_graded_involution():
    for bits in ["01", "10", "001", "0101"]:
        P = perm_matrix(bits)
        assert (P @ P) == Mat.identity(P.space)


def test_perm_matrix_signs():
    P = perm_matrix("01")
    n = 2
    # e_2 (x) e_2 is odd-odd: picks up a sign
    assert P[(1 * n + 1, 1 * n + 1)] == QScalar.from_int(-1)
    assert P[(1 * n + 0, 0 * n + 1)] == QScalar.one()


def test_graded_kron_composition_sign():
    v = Space.natural("01")
    ident = Mat.identity(v)
    a = elementary(v, 0, 1)  # odd
    b = elementary(v, 1, 0)  # odd
    left = graded_kron(a, ident) @ graded_kron(ident, b)
    right = graded_kron(ident, b) @ graded_kron(a, ident)
    assert left == graded_kron(a, b)
    assert right == graded_kron(a, b).scale(QScalar.from_int(-1))


def test_rmatrix_01_matches_tabulated_entries():
    R = rmatrix("01")
    n = 2
    q = qscalar_parse("q")
    assert R[(0, 0)] == q                       # q E11 (x) E11
    assert R[(0 * n + 1, 0 * n + 1)] == QScalar.one()
    assert R[(1 * n + 0, 1 * n + 0)] == QScalar.one()
    assert R[(1 * n + 1, 1 * n + 1)] == qscalar_parse("q^-1")
    assert R[(1 * n + 0, 0 * n + 1)] == qscalar_parse("q - q^-1")
    assert len(R.terms) == 5


def test_rtilde_two_characterisations():
    for bits in ["01", "10", "00", "11", "001", "010", "100"]:
        first, second = rtilde_residuals(bits)
        assert first.is_zero(), bits
        assert second.is_zero(), bits


def test_constant_ybe_all_sequences_up_to_four():
    for N in (2, 3, 4):
        for m in range(N + 1):
            for s in enumerate_sequences(m, N - m):
                assert ybe_residual_constant(s).is_zero(), str(s)


def test_spectral_ybe_up_to_three():
    for N in (2, 3):
        for m in range(N + 1):
            for s in enumerate_sequences(m, N - m):
                assert ybe_residual_spectral(s).is_zero(), str(s)


def test_crossing_identity():
    for bits in ["01", "10", "001", "010", "100", "0011"]:
        assert crossing_residual(bits).is_zero(), bits


def test_check_ybe_reports():
    reps = check_ybe("010")
    assert [r["identity"] for r in reps] == ["constant-ybe", "spectral-ybe"]
    assert all(r["pass"] for r in reps)
    assert all(r["sequence"] == "010" for r in reps)
    assert all(r["nonzero_entries"] == [] for r in reps)


def test_corrupted_rmatrix_fails_with_located_residual():
    s = ParitySeq("01")
    R = rmatrix(s).copy()
    # corrupt one entry
    R.set(0, 0, qscalar_parse("q + 1"))
    res = ybe_residual_constant(s, R=R)
    assert not res.is_zero()
    cells = res.nonzero_cells()
    assert cells, "corruption must leave a located residual"
    rep_value = res[cells[0]]
    assert not rep_value.is_zero()


def test_spectral_rmatrix_entries():
    sm = spectral_rmatrix("01")
    assert set(sm.terms) == {(1, 0), (0, 1)}
    assert sm.terms[(1, 0)] == rmatrix("01")
    assert sm.terms[(0, 1)] == rmatrix_tilde("01").scale(QScalar.from_int(-1))
