"""Tests for the Orlik-Solomon algebra and its flat components."""

from collections import Counter
from fractions import Fraction

import pytest

from coxsol.chars import reflection_fix_character, sign_character
from coxsol.coxeter import CoxeterGroup, build_group, matrix_from_spec
from coxsol.descent import descent_algebra, group_sum
from coxsol.orlik_solomon import (
    Arrangement, OSAlgebra, dihedral_top_model, flat_shape_map, os_algebra,
    shape_component_character, sub_os_algebra, top_component_character,
    top_component_tilde, whole_space_character,
)


NBC_COUNTS = [
    ("A2", [1, 3, 2]),
    ("A3", [1, 6, 11, 6]),
    ("B2", [1, 4, 3]),
    ("B3", [1, 9, 23, 15]),
    ("H3", [1, 15, 59, 45]),
    ("I2(5)", [1, 5, 4]),
    ("I2(12)", [1, 12, 11]),
    ("A1xI2(5)", [1, 6, 9, 4]),
]


@pytest.mark.parametrize("spec,counts", NBC_COUNTS)
def test_nbc_dimensions(spec, counts):
    W = build_group(spec)
    alg = os_algebra(W)
    assert [len(level) for level in alg.nbc_basis] == counts
    assert alg.dimension == W.order


def test_lattice_profiles():
    W = build_group("H3")
    lat = os_algebra(W).lattice
    assert Counter(f.rank for f in lat.flats) == {0: 1, 1: 15, 2: 31, 3: 1}
    lines = Counter(len(f.key) for f in lat.flats if f.rank == 2)
    assert lines == {2: 15, 3: 10, 5: 6}
    W = build_group("A3")
    lat = os_algebra(W).lattice
    assert Counter(f.rank for f in lat.flats) == {0: 1, 1: 6, 2: 7, 3: 1}


def test_flat_keys_and_closure():
    W = build_group("B2")
    alg = os_algebra(W)
    lat = alg.lattice
    # the whole space is the unique rank 0 flat with empty key
    assert lat.flats[0].key == frozenset()
    # any two distinct hyperplanes of a rank 2 group span the top flat
    top = lat.flat_of((0, 1))
    assert lat.flats[top].key == frozenset(range(alg.arr.n))
    assert lat.rank((0, 1)) == 2
    assert not lat.independent((0, 1, 2))


def test_straightening_basics():
    W = build_group("A2")
    alg = os_algebra(W)
    # any triple in rank 2 is dependent, hence zero
    assert alg.straighten((0, 1, 2)) == {}
    # transposition gives a sign
    a = alg.straighten((1, 0))
    b = alg.straighten((0, 1))
    keys = set(a) | set(b)
    for k in keys:
        assert a.get(k, Fraction(0)) == -b.get(k, Fraction(0))
    # repeated generator vanishes
    assert alg.straighten((1, 1)) == {}


def test_circuit_relation_dihedral():
    # in rank 2, a_p a_q = a_0 a_q - a_0 a_p for 0 < p < q
    W = build_group("I2(5)")
    alg = os_algebra(W)
    got = alg.straighten((2, 4))
    assert got == {(0, 4): Fraction(1), (0, 2): Fraction(-1)}


def test_wedge_and_element_algebra():
    W = build_group("A3")
    alg = os_algebra(W)
    a0, a1 = alg.generator(0), alg.generator(1)
    assert a0.wedge(a0).is_zero()
    assert (a0.wedge(a1) + a1.wedge(a0)).is_zero()
    one = alg.one()
    assert one.wedge(a0) == a0
    # associativity sample
    a2 = alg.generator(2)
    assert a0.wedge(a1.wedge(a2)) == (a0.wedge(a1)).wedge(a2)


def test_os_elements_are_unhashable():
    alg = os_algebra(build_group("A2"))
    a, b = alg.one(), alg.one().wedge(alg.one())
    assert a == b and a is not b
    with pytest.raises(TypeError):
        hash(a)


def test_action_is_multiplicative():
    W = build_group("B2")
    alg = os_algebra(W)
    x = alg.generator(0).wedge(alg.generator(2)) + 3 * alg.generator(1).wedge(alg.generator(3))
    # right action: acting by a*b equals acting by a, then by b
    for a in (1, 3, 6):
        for b in (2, 5, 7):
            assert x.act(W.mult(a, b)) == x.act(a).act(b)


def test_shape_components_sum_to_whole():
    for spec in ("A3", "B3", "I2(6)"):
        W = build_group(spec)
        total = None
        for sh in W.shapes():
            psi = shape_component_character(W, sh)
            total = psi if total is None else total + psi
        assert total == whole_space_character(W)


def test_degree_one_is_reflection_fix_character():
    for spec in ("A3", "B3", "I2(7)"):
        W = build_group(spec)
        alg = os_algebra(W)
        deg1 = [f.id for f in alg.lattice.flats if f.rank == 1]
        assert alg.component_character(deg1, W.full()) == \
            reflection_fix_character(W.full())


@pytest.mark.parametrize("m", [2, 3, 5, 6, 8])
def test_dihedral_top_model_matches(m):
    W = build_group(f"I2({m})")
    assert shape_component_character(W, descent_algebra(W).shape_of((0, 1))) == \
        dihedral_top_model(W)


@pytest.mark.parametrize("m", [2, 3, 5, 6, 8])
def test_dihedral_whole_is_twice_fix_character(m):
    W = build_group(f"I2({m})")
    assert whole_space_character(W) == \
        2 * reflection_fix_character(W.full())


@pytest.mark.parametrize("spec", ["I2(5)", "I2(6)", "A3", "B3"])
def test_top_shape_equals_descent_times_sign(spec):
    W = build_group(spec)
    D = descent_algebra(W)
    L = tuple(range(W.rank))
    psi = shape_component_character(W, D.shape_of(L))
    phi = D.ideal_character(D.shape_of(L))
    eps = sign_character(W.full())
    assert psi == phi * eps


def test_sub_algebra_top_components():
    W = build_group("H3")
    for L, deg in [((0, 1), 4), ((1, 2), 2), ((0, 2), 1)]:
        psi = top_component_character(W, L)
        assert psi.degree == deg
        tilde = top_component_tilde(W, L)
        assert tilde.restrict(W.parabolic(L)) == psi


def test_order_independence():
    # a different hyperplane order changes the NBC basis, not the characters
    for spec, seed in [("I2(7)", 5), ("A3", 11)]:
        W = build_group(spec)
        alg = os_algebra(W)
        alt = os_algebra(W, seed_order=seed)
        assert alt.arr.hyperplanes != alg.arr.hyperplanes
        assert alt.dimension == alg.dimension
        assert alt.whole_character(W.full()) == alg.whole_character(W.full())
        fids = lambda a: [f.id for f in a.lattice.flats if f.rank == 2]
        assert alt.component_character(fids(alt), W.full()) == \
            alg.component_character(fids(alg), W.full())


def test_act_sum_with_group_algebra():
    W = build_group("I2(5)")
    alg = os_algebra(W)
    x = alg.generator(0).wedge(alg.generator(1))
    e = group_sum(W, [W.identity])
    assert x.act_sum(e) == x
    both = group_sum(W, [W.identity, W.identity])
    assert x.act_sum(both) == 2 * x


@pytest.mark.parametrize("spec", ["A2", "B3", "I2(3)xI2(4)"])
def test_full_arrangement_is_built_once(spec):
    W = build_group(spec)
    assert os_algebra(W) is sub_os_algebra(W, range(W.rank))
    assert os_algebra(W, seed_order=3) is sub_os_algebra(W, range(W.rank), seed_order=3)
    assert os_algebra(W) is not os_algebra(W, seed_order=3)


def test_flats_are_labelled_once_per_full_arrangement(monkeypatch):
    from coxsol import orlik_solomon
    W = CoxeterGroup(matrix_from_spec("B3"))
    calls = []
    label = orlik_solomon.flat_shape_map
    monkeypatch.setattr(orlik_solomon, "flat_shape_map",
                        lambda W, alg=None: calls.append(alg) or label(W, alg))
    D = descent_algebra(W)
    for sh in W.shapes():
        assert shape_component_character(W, sh) == \
            shape_component_character(W, D.shape_of(sh.canonical))
    assert calls == [os_algebra(W)]
