"""Tests for the exact linear algebra helpers."""

from fractions import Fraction

from coxsol import linalg
from coxsol.cyclo import rational, zeta
from oracles import nullspace, rank


def F(x):
    return Fraction(x)


def test_rref_and_rank():
    rows = [(F(2), F(4), F(6)), (F(1), F(2), F(4))]
    basis, pivots = linalg.rref(rows)
    assert pivots == [0, 2]
    assert basis[0] == (F(1), F(2), F(0))
    assert basis[1] == (F(0), F(0), F(1))
    assert rank(rows) == 2
    assert rank([(F(0), F(0))]) == 0


def test_coords_in_rowspace():
    rows = [(F(1), F(0), F(3)), (F(0), F(1), F(-1))]
    basis, pivots = linalg.rref(rows)
    c = linalg.coords_in_rowspace(basis, pivots, (F(2), F(3), F(3)))
    assert c == [F(2), F(3)]
    assert linalg.coords_in_rowspace(basis, pivots, (F(0), F(0), F(1))) is None


def test_nullspace():
    rows = [(F(1), F(1), F(1))]
    ns = nullspace(rows, 3)
    assert len(ns) == 2
    for v in ns:
        assert sum(v, F(0)) == 0
    assert nullspace([(F(1), F(0)), (F(0), F(1))], 2) == []


def test_det():
    assert linalg.det([]) == 1
    assert linalg.det([(F(3),)]) == 3
    rows = [(F(1), F(2)), (F(3), F(4))]
    assert linalg.det(rows) == -2
    # permutation matrix of a 3-cycle has determinant 1
    p = [(F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(1), F(0), F(0))]
    assert linalg.det(p) == 1


def test_cyclo_entries():
    z = zeta(5)
    rows = [(rational(1, 5), z), (z, z * z)]
    assert rank(rows) == 1
    basis, pivots = linalg.rref(rows)
    assert basis[0] == (rational(1, 5), z)
    ns = nullspace(rows, 2)
    assert len(ns) == 1
    v = ns[0]
    assert (rows[0][0] * v[0] + rows[0][1] * v[1]).is_zero()


def test_vec_key_distinguishes():
    a = (rational(1, 5), zeta(5))
    b = (rational(1, 5), zeta(5, 2))
    assert linalg.vec_key(a) != linalg.vec_key(b)
    assert linalg.vec_key(a) == linalg.vec_key((rational(1, 5), zeta(5)))
