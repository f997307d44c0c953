"""Tests for the descent algebra, its idempotents and ideal characters."""

from fractions import Fraction

import pytest

from coxsol.chars import ClassFunction
from coxsol.coxeter import build_group
from coxsol.cyclo import zeta
from coxsol.descent import (DescentAlgebra, descent_algebra, parabolic_ideal_character,
                            rotation_idempotent)
from oracles import (NotAResolution, as_element, averaging, check_idempotent_family,
                     descent_x, e_shape, group_sum, unit, x_element)


def regular_character(G):
    W = G.parent
    return ClassFunction(G, [Fraction(G.order if c.rep == W.identity else 0)
                             for c in G.classes])


def test_group_algebra_arithmetic():
    W = build_group("A2")
    s, t = (group_sum(W, [g]) for g in W.generators)
    e = unit(W)
    assert (s * s) == e
    assert (s + t) * (s + t) == 2 * e + s * t + t * s
    assert (s - s).is_zero()
    assert s * Fraction(1, 2) + s * Fraction(1, 2) == s
    assert (1 - s) * (1 + s) == e - s * s  # both zero
    assert ((1 - s) * (1 + s)).is_zero()
    assert s.translate(W.generators[0]) == e


def test_group_algebra_elements_are_unhashable():
    W = build_group("A2")
    a, b = unit(W), group_sum(W, [W.identity])
    assert a == b and a is not b
    with pytest.raises(TypeError):
        hash(a)


def test_averaging_idempotent():
    W = build_group("B2")
    for J in [(), (0,), (0, 1)]:
        av = averaging(W.parabolic(J))
        assert av * av == av


def test_x_basis_dihedral_identity():
    for m in (2, 5, 8):
        W = build_group(f"I2({m})")
        lhs = x_element(W, (0,)) + x_element(W, (1,))
        rhs = x_element(W, ()) + unit(W) - group_sum(W, [W.longest])
        assert lhs == rhs


@pytest.mark.parametrize("m", [2, 3, 4, 7, 12])
def test_dihedral_m_matrix(m):
    W = build_group(f"I2({m})")
    D = descent_algebra(W)
    assert D.subsets == [(), (0,), (1,), (0, 1)]
    assert D.m_matrix == [
        [2 * m, 0, 0, 0],
        [m, 2, 0, 0],
        [m, 0, 2, 0],
        [1, 1, 1, 1],
    ]
    assert D.m_inverse == [
        [Fraction(1, 2 * m), 0, 0, 0],
        [Fraction(-1, 4), Fraction(1, 2), 0, 0],
        [Fraction(-1, 4), 0, Fraction(1, 2), 0],
        [Fraction(m - 1, 2 * m), Fraction(-1, 2), Fraction(-1, 2), 1],
    ]


@pytest.mark.parametrize("m", [2, 3, 4, 7, 12])
def test_dihedral_idempotent_formulas(m):
    W = build_group(f"I2({m})")
    D = descent_algebra(W)
    x0, xs, xt = (descent_x(D, J) for J in [(), (0,), (1,)])
    assert D.e(()) == Fraction(1, 2 * m) * x0
    assert D.e((0,)) == Fraction(1, 2) * xs - Fraction(1, 4) * x0
    assert D.e((0, 1)) == \
        unit(W) - Fraction(1, 2) * xs - Fraction(1, 2) * xt \
        + Fraction(m - 1, 2 * m) * x0
    # top idempotent as a difference of averaging operators
    assert D.e((0, 1)) == (averaging(W.generated_subgroup([W.longest]))
                           - averaging(W.full()))


@pytest.mark.parametrize("spec", ["A3", "B3", "I2(5)", "I2(6)", "A1xI2(5)"])
def test_idempotent_family(spec):
    check_idempotent_family(descent_algebra(build_group(spec)))


def test_idempotent_family_with_a_shape_left_out():
    D = DescentAlgebra(build_group("A2"))
    D.shapes = D.shapes[1:]
    with pytest.raises(NotAResolution):
        check_idempotent_family(D)


@pytest.mark.parametrize("spec", ["I2(5)", "I2(6)", "A3", "B3"])
def test_characters_sum_to_regular(spec):
    W = build_group(spec)
    D = descent_algebra(W)
    total = None
    for phi in D.character_family().values():
        total = phi if total is None else total + phi
    assert total == regular_character(W.full())


@pytest.mark.parametrize("spec", ["I2(7)", "A3", "B3"])
def test_character_projection_oracle(spec):
    # trace of right translation on e * QW equals the averaged coefficient
    # of the conjugates g w^{-1} g^{-1} in e
    W = build_group(spec)
    D = descent_algebra(W)
    for sh in D.shapes:
        e = e_shape(D, sh)
        phi = D.ideal_character(sh)
        for c in W.full().classes:
            winv = W.inv(c.rep)
            val = sum((e.coefficient(W.mult(W.mult(g, winv), W.inv(g)))
                       for g in range(W.order)), Fraction(0))
            assert val == phi.value(c.rep)


def test_character_degrees_partition_order():
    W = build_group("H3")
    D = descent_algebra(W)
    fam = D.character_family()
    degs = {sh.canonical: fam[sh.index].degree for sh in D.shapes}
    assert degs == {(): 1, (0,): 15, (0, 1): 24, (0, 2): 15, (1, 2): 20,
                    (0, 1, 2): 45}
    assert sum(degs.values()) == W.order


def test_relative_algebra():
    W = build_group("B3")
    D = descent_algebra(W, (1, 2))
    check_idempotent_family(D)
    assert [len(s.members) for s in D.shapes] == [1, 2, 1]
    assert D.universe.order == 6
    total = None
    for phi in D.character_family().values():
        total = phi if total is None else total + phi
    assert total == regular_character(D.universe)


def test_parabolic_ideal_character_top():
    W = build_group("I2(6)")
    D = descent_algebra(W)
    assert parabolic_ideal_character(W, (0, 1)) == \
        D.ideal_character(D.shape_of((0, 1)))


def test_parabolic_ideal_character_restricts():
    # restricting to W_L recovers the top character of the relative algebra
    for spec, L in [("A3", (0, 1)), ("B3", (1, 2)), ("A1xI2(5)", (1, 2))]:
        W = build_group(spec)
        tilde = parabolic_ideal_character(W, L)
        rel = descent_algebra(W, L)
        top = rel.ideal_character(rel.shape_of(L))
        assert tilde.restrict(W.parabolic(L)) == top


def test_parabolic_ideal_character_induces_to_shape():
    # inducing from the normalizer gives the ambient shape character
    for spec, L in [("A3", (0, 1)), ("B3", (1, 2)), ("I2(6)", (0,))]:
        W = build_group(spec)
        D = descent_algebra(W)
        assert parabolic_ideal_character(W, L).induce(W.full()) == \
            D.ideal_character(D.shape_of(L))


def test_rotation_idempotents():
    W = build_group("I2(5)")
    st = W.mult(W.generators[0], W.generators[1])
    fs = [as_element(rotation_idempotent(W, (0, 1), j)) for j in range(5)]
    total = None
    for j, f in enumerate(fs):
        assert f * f == f
        assert f.translate(st) == zeta(5, j) * f
        total = f if total is None else total + f
    assert total == unit(W)


@pytest.mark.parametrize("spec", ["A2", "B3", "I2(3)xI2(4)"])
def test_full_algebra_is_built_once(spec):
    W = build_group(spec)
    assert descent_algebra(W) is descent_algebra(W, range(W.rank))
    assert descent_algebra(W) is descent_algebra(W, tuple(reversed(range(W.rank))))
