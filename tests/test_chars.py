"""Tests for class functions, induction and linear characters."""

from fractions import Fraction

import pytest

from coxsol.chars import (
    CarrierMismatch, ClassFunction, NotASubgroup, NotInComplement, NotLinear,
    alpha_element, alpha_parabolic, commutator_subgroup, linear_character,
    linear_characters, reflection_fix_character, rotation_character,
    sigma_parabolic, sign_character, trivial_character,
)
from coxsol.coxeter import _NAMED, Subgroup, build_group
from coxsol.cyclo import zeta


def test_class_function_basics():
    W = build_group("A2")
    G = W.full()
    triv = trivial_character(G)
    eps = sign_character(G)
    assert triv.degree == 1
    assert (triv + eps).value(W.identity) == 2
    assert (triv - triv).is_zero()
    assert (2 * triv).degree == 2
    assert triv * eps == eps
    assert triv.inner(triv) == 1
    assert triv.inner(eps) == 0
    ref = W.generators[0]
    assert eps.value(ref) == -1


def test_carrier_mismatch():
    W = build_group("A2")
    a = trivial_character(W.full())
    b = trivial_character(W.parabolic((0,)))
    with pytest.raises(CarrierMismatch):
        a + b
    with pytest.raises(NotASubgroup):
        a.restrict(build_group("B2").full())


def test_equality_needs_the_same_parent():
    # B2 has 5 classes and A1xA1xA1 has 8; neither a prefix nor equal member
    # sets in different groups may make them equal
    b2 = trivial_character(build_group("B2").full())
    a1cubed = trivial_character(build_group("A1xA1xA1").full())
    assert b2 != a1cubed
    assert trivial_character(build_group("A1").full()) != \
        trivial_character(build_group("I2(2)").parabolic((0,)))
    with pytest.raises(CarrierMismatch):
        b2 + a1cubed


def test_equal_class_functions_are_unhashable():
    # equality compares carriers by their members, so a hash of the carrier
    # object would tell equal class functions apart
    W = build_group("B3")
    H1 = W.parabolic((0, 1))
    H2 = Subgroup(W, H1.members)
    assert H2 is not H1
    assert trivial_character(H1) == trivial_character(H2)
    with pytest.raises(TypeError):
        hash(trivial_character(H1))
    with pytest.raises(TypeError):
        {trivial_character(H1), trivial_character(H2)}


def test_induction_degree_and_reciprocity():
    W = build_group("B3")
    G = W.full()
    eps = sign_character(G)
    for J in [(), (0,), (0, 1), (1, 2), (0, 1, 2)]:
        H = W.parabolic(J)
        ind = trivial_character(H).induce(G)
        assert ind.degree == Fraction(W.order, H.order)
        assert ind.inner(eps) == \
            trivial_character(H).inner(eps.restrict(H))


def test_induction_transitivity():
    W = build_group("B3")
    A = W.parabolic((1,))
    B = W.parabolic((1, 2))
    G = W.full()
    chi = sign_character(A)
    assert chi.induce(B).induce(G) == chi.induce(G)


def test_sign_character_multiplicative():
    W = build_group("H3")
    eps = sign_character(W.full())
    for a in (3, 17, 49):
        for b in (5, 80):
            assert eps(W.mult(a, b)) == eps(a) * eps(b)


def test_linear_character_validation():
    W = build_group("A2")
    G = W.full()
    bad = {w: Fraction(1) for w in G.members}
    bad[W.generators[0]] = Fraction(-1)  # not constant on the reflection class
    with pytest.raises(ValueError):
        linear_character(G, bad)


def test_linear_character_checks_every_generator():
    # -1 on one coset x<g> of the first non-identity member g, 1 elsewhere:
    # chi(a g) = chi(a) chi(g) for every a, yet chi is not multiplicative
    W = build_group("A3")
    G = W.full()
    H = W.cyclic(min(G.members - {W.identity}))
    x = next(w for w in G.sorted_members if w not in H.members)
    coset = {W.mult(x, h) for h in H.members}
    with pytest.raises(NotLinear):
        linear_character(G, {w: Fraction(-1 if w in coset else 1) for w in G.members})


def test_not_in_complement():
    W = build_group("A3")
    chi = sigma_parabolic(W, (0,))
    with pytest.raises(NotInComplement):
        chi(W.generators[0])


LINEAR_COUNTS = [
    ("A2", 2), ("A3", 2), ("H3", 2), ("I2(7)", 2),
    ("B2", 4), ("B3", 4), ("I2(6)", 4), ("A1xI2(5)", 4),
]


@pytest.mark.parametrize("spec,count", LINEAR_COUNTS)
def test_linear_character_counts(spec, count):
    W = build_group(spec)
    lcs = linear_characters(W.full())
    assert len(lcs) == count
    assert lcs[0] == trivial_character(W.full())
    assert any(lc == sign_character(W.full()) for lc in lcs)
    # pairwise distinct and multiplicative by construction
    for i, a in enumerate(lcs):
        for b in lcs[i + 1:]:
            assert not a == b


def test_commutator_subgroup():
    W = build_group("A3")
    D = commutator_subgroup(W.full())
    assert D.order == 12  # even permutations
    W = build_group("I2(5)")
    assert commutator_subgroup(W.full()).order == 5


def odd_components(W) -> int:
    """Connected components of the Coxeter graph kept to its odd-labelled edges."""
    comp = list(range(W.rank))
    for i in range(W.rank):
        for j in range(i):
            if W.matrix[i, j] % 2:
                old, new = comp[i], comp[j]
                comp = [new if c == old else c for c in comp]
    return len(set(comp))


@pytest.mark.parametrize("spec", sorted(_NAMED) + [
    "A1xA1xI2(5)", "I2(3)xI2(4)", "A1xB3"])
def test_abelianization_has_two_to_the_odd_components(spec):
    # W/W' is generated by the images of the simple reflections, which are
    # involutions, equal exactly when joined by a path of odd labels
    W = build_group(spec)
    assert W.order // commutator_subgroup(W.full()).order == 2 ** odd_components(W)


def test_cyclic_characters_are_rotation_characters():
    W = build_group("I2(5)")
    st = W.mult(W.generators[0], W.generators[1])
    lcs = linear_characters(W.cyclic(st))
    rots = [rotation_character(W, (0, 1), j) for j in range(5)]
    assert len(lcs) == 5
    for r in rots:
        assert sum(1 for lc in lcs if lc == r) == 1
    assert rots[2](W.power(st, 3)) == zeta(5, 6)


def test_alpha_parabolic():
    W = build_group("H3")
    for J in [(), (0,), (0, 1), (0, 1, 2)]:
        alpha = alpha_parabolic(W, J)
        N = W.normalizer_of_parabolic(J)
        # members of W_J act trivially on the fixed space
        for u in W.parabolic(J).sorted_members:
            assert alpha(u) == 1
        for n in N.sorted_members:
            assert alpha(n) in (1, -1)
    # J = S: zero dimensional fixed space, trivial character
    alpha = alpha_parabolic(W, (0, 1, 2))
    assert all(v == 1 for v in alpha.values)
    assert all(alpha(w) == 1 for w in alpha.carrier.members)


def test_sigma_equals_sign_times_alpha():
    for spec in ("A3", "B3", "H3", "I2(6)", "I2(7)", "A1xI2(5)"):
        W = build_group(spec)
        eps = sign_character(W.full())
        for sh in W.shapes():
            J = sh.canonical
            sig = sigma_parabolic(W, J)
            alpha = alpha_parabolic(W, J)
            for n in W.complement_subgroup(J).sorted_members:
                assert sig(n) == eps(n) * alpha(n)


def test_alpha_element():
    W = build_group("B3")
    t = W.reflections[0]
    alpha = alpha_element(W, t)
    assert alpha(t) == 1  # reflections fix their own hyperplane pointwise
    c = W.centralizer(t)
    assert alpha.carrier.members == c.members


def test_reflection_fix_character():
    W = build_group("H3")
    pi = reflection_fix_character(W.full())
    assert pi.degree == len(W.reflections)
    # w0 is central, so it fixes every reflection
    assert pi.value(W.longest) == 15
    W = build_group("A2")
    pi = reflection_fix_character(W.full())
    st = W.mult(W.generators[0], W.generators[1])
    assert pi.value(st) == 0
    assert pi.value(W.generators[0]) == 1
