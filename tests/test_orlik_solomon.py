"""Tests for the Orlik-Solomon algebra and its flat components.

The NBC basis, general straightening and `OSElement` live in the test oracle
module `oracles.py`; the tests below reach them through `nbc(alg)`.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from coxsol import orlik_solomon
from coxsol.chars import sign_character
from coxsol.cli import main
from coxsol.conjectures import verify_a
from coxsol.coxeter import CoxeterGroup, build_group, matrix_from_spec
from coxsol.descent import descent_algebra
from coxsol.orlik_solomon import (
    os_algebra, shape_component_character, top_component_character,
    top_component_tilde, whole_space_character,
)
from oracles import (dihedral_top_model, flat_rank, group_sum, independent, nbc,
                     reflection_fix_character)
from test_scope import reducible_types


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
    assert [len(level) for level in nbc(alg).nbc_basis] == counts
    assert alg.dimensions == counts
    assert sum(alg.dimensions) == W.order


# exponents m_i of the irreducible types; a product joins its factors'
EXPONENTS = {"D4": [1, 3, 3, 5], "F4": [1, 5, 7, 11], "H3": [1, 5, 9]}


def exponents(spec):
    out = []
    for factor in spec.split("x"):
        if factor in EXPONENTS:
            out += EXPONENTS[factor]
        elif factor.startswith("I2("):
            out += [1, int(factor[3:-1]) - 1]
        elif factor[0] == "A":
            out += range(1, int(factor[1:]) + 1)
        else:  # B_n
            out += range(1, 2 * int(factor[1:]), 2)
    return out


def poincare(exps):
    """Coefficients of the product of (1 + m t) over the exponents m."""
    poly = [1]
    for m in exps:
        poly = [a + m * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B3", "B4", "D4", "H3"]
                         + [f"I2({m})" for m in range(3, 13)] + reducible_types({3, 4})
                         + [pytest.param("F4", marks=pytest.mark.slow)])
def test_dimensions_are_the_poincare_coefficients(capsys, spec):
    # Orlik-Solomon 1980: the Poincare polynomial is the product of (1 + m_i t)
    want = poincare(exponents(spec))
    assert main(["os", spec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimensions"] == want
    assert data["total_dimension"] == sum(want)
    W = build_group(spec)
    assert sum(os_algebra(W).dimensions) == sum(want) == W.order


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
    h = sorted(W.reflections)
    top = lat.flat_of(h[:2])
    assert lat.flats[top].key == frozenset(h)
    assert flat_rank(lat, h[:2]) == 2
    assert not independent(lat, h[:3])


def test_straightening_basics():
    W = build_group("A2")
    alg = nbc(os_algebra(W))
    h = alg.order
    # any triple in rank 2 is dependent, hence zero
    assert alg.straighten(h[:3]) == {}
    # transposition gives a sign
    a = alg.straighten((h[1], h[0]))
    b = alg.straighten((h[0], h[1]))
    keys = set(a) | set(b)
    for k in keys:
        assert a.get(k, Fraction(0)) == -b.get(k, Fraction(0))
    # repeated generator vanishes
    assert alg.straighten((h[1], h[1])) == {}


def test_circuit_relation_dihedral():
    # in rank 2, a_p a_q = a_0 a_q - a_0 a_p for 0 < p < q, hyperplanes
    # numbered in the order of their reflections
    W = build_group("I2(5)")
    alg = os_algebra(W)
    h = sorted(W.reflections)
    got = alg.straighten((h[2], h[4]))
    assert got == {(h[0], h[4]): Fraction(1), (h[0], h[2]): Fraction(-1)}
    assert nbc(alg).straighten((h[2], h[4])) == got
    # the closed form stops at degree 2
    with pytest.raises(ValueError):
        alg.straighten((h[0], h[2], h[4]))


def test_wedge_and_element_algebra():
    W = build_group("A3")
    alg = nbc(os_algebra(W))
    a0, a1, a2 = (alg.generator(t) for t in alg.order[:3])
    assert a0.wedge(a0).is_zero()
    assert (a0.wedge(a1) + a1.wedge(a0)).is_zero()
    one = alg.one()
    assert one.wedge(a0) == a0
    # associativity sample
    assert a0.wedge(a1.wedge(a2)) == (a0.wedge(a1)).wedge(a2)


def test_os_elements_are_unhashable():
    alg = nbc(os_algebra(build_group("A2")))
    a, b = alg.one(), alg.one().wedge(alg.one())
    assert a == b and a is not b
    with pytest.raises(TypeError):
        hash(a)


def test_action_is_multiplicative():
    W = build_group("B2")
    alg = nbc(os_algebra(W))
    a = [alg.generator(t) for t in alg.order]
    x = a[0].wedge(a[2]) + 3 * a[1].wedge(a[3])
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
        base, alt = nbc(alg), nbc(alg, seed)
        assert alt.order != base.order
        assert sum(map(len, alt.nbc_basis)) == sum(map(len, base.nbc_basis)) \
            == sum(alg.dimensions)
        whole = range(len(alg.lattice.flats))
        assert alt.component_character(whole, W.full()) == \
            base.component_character(whole, W.full()) == alg.whole_character(W.full())
        rank2 = [f.id for f in alg.lattice.flats if f.rank == 2]
        assert alt.component_character(rank2, W.full()) == \
            base.component_character(rank2, W.full()) == \
            alg.component_character(rank2, W.full())


def test_act_sum_with_group_algebra():
    W = build_group("I2(5)")
    alg = nbc(os_algebra(W))
    x = alg.generator(alg.order[0]).wedge(alg.generator(alg.order[1]))
    e = group_sum(W, [W.identity])
    assert x.act_sum(e) == x
    both = group_sum(W, [W.identity, W.identity])
    assert x.act_sum(both) == 2 * x


@pytest.mark.parametrize("spec", ["A2", "B3", "I2(3)xI2(4)"])
def test_full_arrangement_is_built_once(spec):
    W = CoxeterGroup(matrix_from_spec(spec))
    assert os_algebra(W) is os_algebra(W)
    # the top components of the parabolics are read in the same algebra
    for L in W.all_subsets():
        top_component_character(W, L)
        top_component_tilde(W, L)
    assert [key for key in W._store if key[0] == "os"] == [("os",)]


@pytest.mark.parametrize("spec", ["H3", "B4"])
def test_verify_a_builds_one_lattice(monkeypatch, spec):
    built = []

    class Counted(orlik_solomon.IntersectionLattice):
        def __init__(self, W):
            built.append(W)
            super().__init__(W)

    monkeypatch.setattr(orlik_solomon, "IntersectionLattice", Counted)
    report = verify_a(CoxeterGroup(matrix_from_spec(spec)))
    assert report.status == "verified", "\n".join(report.lines())
    assert len(built) == 1, spec
