"""Tests for class functions, induction and linear characters."""

from fractions import Fraction

import pytest

from coxsol import chars
from coxsol.chars import (
    CarrierMismatch, NotASubgroup, NotInComplement, NotLinear,
    commutator_subgroup, exponent_character, linear_character,
    linear_characters, rotation_character, sign_character,
    trivial_character, twist_character,
)
from coxsol.coxeter import _NAMED, Subgroup, build_group
from coxsol.cyclo import zeta
from oracles import alpha_element, inner, power, reflection_fix_character


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
    assert inner(triv, triv) == 1
    assert inner(triv, eps) == 0
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
        assert inner(ind, eps) == \
            inner(trivial_character(H), eps.restrict(H))


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
    H = W.generated_subgroup([min(G.members - {W.identity})])
    x = next(w for w in G.sorted_members if w not in H.members)
    coset = {W.mult(x, h) for h in H.members}
    with pytest.raises(NotLinear):
        linear_character(G, {w: Fraction(-1 if w in coset else 1) for w in G.members})
    # the same map as exponents of -1, and exponents that are 1 at the identity
    with pytest.raises(NotLinear):
        exponent_character(G, 2, {w: int(w in coset) for w in G.members})
    with pytest.raises(NotLinear):
        exponent_character(G, 3, {w: 1 for w in G.members})


def test_not_in_complement():
    W = build_group("A3")
    chi = twist_character(W, (0,)).restrict(W.complement_subgroup((0,)))
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
    lcs = linear_characters(W.generated_subgroup([st]))
    rots = [rotation_character(W, (0, 1), j) for j in range(5)]
    assert len(lcs) == 5
    for r in rots:
        assert sum(1 for lc in lcs if lc == r) == 1
    assert rots[2](power(W, st, 3)) == zeta(5, 6)


def test_a_character_build_forms_each_root_of_unity_once(monkeypatch):
    # the centralizers of A1xA1xI2(5) have up to 20 classes, with M = 10
    W = build_group("A1xA1xI2(5)")
    made, builds = [], []
    monkeypatch.setattr(chars, "zeta", lambda n, k=1: made.append(n) or zeta(n, k))
    build = chars.exponent_character

    def counted(H, M, ex):
        before = len(made)
        out = build(H, M, ex)
        builds.append((M, len(made) - before, len(H.classes)))
        return out

    monkeypatch.setattr(chars, "exponent_character", counted)
    for c in W.full().classes:
        linear_characters(W.centralizer(c.rep))
    assert all(roots <= M for M, roots, _ in builds), builds
    assert any(classes > M > 2 for M, _, classes in builds)


def test_twist_character():
    W = build_group("H3")
    eps = sign_character(W.full())
    for J in [(), (0,), (0, 1), (0, 1, 2)]:
        twist = twist_character(W, J)
        assert twist.carrier is W.normalizer_of_parabolic(J)
        # members of W_J act trivially on the fixed space, so alpha_J is 1
        for u in W.parabolic(J).sorted_members:
            assert twist(u) == eps(u)
        for n in twist.carrier.sorted_members:
            assert twist(n) in (1, -1)
    # J = S: zero dimensional fixed space, the twist is the sign
    twist = twist_character(W, (0, 1, 2))
    assert twist == eps
    assert all(twist(w) == eps(w) for w in twist.carrier.members)
    # J = (): the root span is zero, the twist is trivial
    assert twist_character(W, ()) == trivial_character(W.full())


def test_alpha_element():
    W = build_group("B3")
    t = W.reflections[0]
    alpha = alpha_element(W, t)
    assert alpha(t) == 1  # reflections fix their own hyperplane pointwise
    c = W.centralizer(t)
    assert alpha.carrier.members == c.members
    # t = s1 is cuspidal in W_{s1}, so eps * alpha_t is the twist of {s1}
    # on its centralizer
    assert t == W.generators[0]
    assert sign_character(c) * alpha == twist_character(W, (0,)).restrict(c)


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
