"""Tests for Coxeter group construction and structure."""

import itertools
import random
from fractions import Fraction

import pytest

from coxsol.coxeter import (
    CoxeterGroup, CoxeterMatrix, InfiniteOrTooLarge, InvalidMatrix,
    build_group, matrix_from_spec,
)
from coxsol.descent import descent_algebra
from coxsol.orlik_solomon import sub_os_algebra


def test_matrix_validation():
    CoxeterMatrix([[1, 3], [3, 1]])
    with pytest.raises(InvalidMatrix):
        CoxeterMatrix([[1, 3]])
    with pytest.raises(InvalidMatrix):
        CoxeterMatrix([[2, 3], [3, 1]])
    with pytest.raises(InvalidMatrix):
        CoxeterMatrix([[1, 3], [4, 1]])
    with pytest.raises(InvalidMatrix):
        CoxeterMatrix([[1, 1], [1, 1]])


def test_spec_parsing():
    assert matrix_from_spec("B3").rows == ((1, 4, 2), (4, 1, 3), (2, 3, 1))
    assert matrix_from_spec("I2(7)").rows == ((1, 7), (7, 1))
    assert matrix_from_spec("A1xA1").rows == ((1, 2), (2, 1))
    m = matrix_from_spec("A1xI2(5)")
    assert m.rows == ((1, 2, 2), (2, 1, 5), (2, 5, 1))
    with pytest.raises(InvalidMatrix):
        matrix_from_spec("E8")
    with pytest.raises(InvalidMatrix):
        matrix_from_spec("I2(1)")
    with pytest.raises(InvalidMatrix):
        matrix_from_spec("A3xA3")  # rank 6 over the default bound
    assert matrix_from_spec("A3xA3", rank_bound=6).rank == 6


def test_conductors():
    assert matrix_from_spec("A1").conductor() == 2
    assert matrix_from_spec("A3").conductor() == 12
    assert matrix_from_spec("B3").conductor() == 24
    assert matrix_from_spec("H3").conductor() == 60
    assert matrix_from_spec("I2(7)").conductor() == 14
    assert matrix_from_spec("A1xA1").conductor() == 4


GROUP_FACTS = [
    # spec, order, reflections, classes
    ("A1", 2, 1, 2),
    ("A2", 6, 3, 3),
    ("A3", 24, 6, 5),
    ("B2", 8, 4, 5),
    ("B3", 48, 9, 10),
    ("H3", 120, 15, 10),
    ("I2(5)", 10, 5, 4),
    ("I2(6)", 12, 6, 6),
    ("I2(12)", 24, 12, 9),
    ("A1xI2(5)", 20, 6, 8),
    ("A4", 120, 10, 7),
    ("B4", 384, 16, 20),
    ("D4", 192, 12, 13),
    ("F4", 1152, 24, 25),
]


@pytest.mark.parametrize("spec,order,nrefl,nclasses", GROUP_FACTS)
def test_group_counts(spec, order, nrefl, nclasses):
    W = build_group(spec)
    assert W.order == order
    assert len(W.reflections) == nrefl
    assert len(W.classes) == nclasses
    assert sum(c.size for c in W.classes) == order
    assert 2 * len(W.positive_roots) == W.n_roots
    assert W.lengths[W.longest] == len(W.positive_roots)


def test_rank_zero():
    W = CoxeterGroup(CoxeterMatrix([]))
    assert W.order == 1
    assert W.longest == W.identity
    assert W.reflections == []
    assert W.word_str(W.identity) == "e"


def test_too_large_guard():
    with pytest.raises(InfiniteOrTooLarge):
        build_group("I2(30)", max_elements=20)
    affine = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(InfiniteOrTooLarge):
        CoxeterGroup(affine, max_elements=500)


def test_dihedral_bound_checked_before_the_field(monkeypatch):
    # W_{ij} has order 2 * m_ij, so I2(5001) (order 10002) is refused
    # before Q(zeta_10002) and its roots are built
    def refuse(self):
        raise AssertionError("the field was built")

    monkeypatch.setattr(CoxeterGroup, "_build_form", refuse)
    with pytest.raises(InfiniteOrTooLarge, match="exceeded 10000 elements"):
        build_group("I2(5001)")
    with pytest.raises(InfiniteOrTooLarge, match="exceeded 11 elements"):
        CoxeterGroup(matrix_from_spec("A1xI2(6)"), max_elements=11)


@pytest.mark.parametrize("spec", ["A3", "I2(7)"])
def test_length_is_inversion_count(spec):
    W = build_group(spec)
    for w in range(W.order):
        neg = sum(1 for i in W.positive_roots
                  if not W.root_positive[W.perms[w][i]])
        assert neg == W.lengths[w]
        assert len(W.words[w]) == W.lengths[w]
        assert W.element_from_word(W.words[w]) == w


@pytest.mark.parametrize("spec", ["A2", "B2", "A3"])
def test_words_are_lex_least(spec):
    W = build_group(spec)
    best = {}
    top = W.lengths[W.longest]
    for length in range(top + 1):
        for word in itertools.product(range(W.rank), repeat=length):
            w = W.element_from_word(word)
            if W.lengths[w] == length and w not in best:
                best[w] = word  # first hit in lex order per length
    for w in range(W.order):
        assert W.words[w] == best[w]


def test_group_table_axioms():
    W = build_group("B3")
    rng = random.Random(3)
    e = W.identity
    for _ in range(200):
        a, b, c = (rng.randrange(W.order) for _ in range(3))
        assert W.mult(W.mult(a, b), c) == W.mult(a, W.mult(b, c))
    for a in range(W.order):
        assert W.mult(a, W.inv(a)) == e
        assert W.mult(W.inv(a), a) == e
        assert W.mult(a, e) == a


def test_word_str():
    W = build_group("A2")
    assert W.word_str(W.identity) == "e"
    sts = W.prod([W.generators[0], W.generators[1], W.generators[0]])
    assert W.word_str(sts) == "s1*s2*s1"


def test_longest_element():
    for m in (4, 6):
        W = build_group(f"I2({m})")
        w0 = W.longest
        # even dihedral: the longest element is the central rotation
        assert all(W.mult(w0, x) == W.mult(x, w0) for x in range(W.order))
        assert w0 not in W.reflections
    W = build_group("I2(5)")
    assert W.longest in W.reflections
    W = build_group("H3")
    m = W.matrix_of(W.longest)
    for i in range(3):
        for j in range(3):
            want = -1 if i == j else 0
            assert (m[i][j] - want).is_zero()


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A1xI2(5)"])
def test_transversal_properties(spec):
    W = build_group(spec)
    for J in W.all_subsets():
        WJ = W.parabolic(J)
        X = W.transversal(J)
        assert len(X) * WJ.order == W.order
        # cosets W_J x partition W, and x is the shortest element of its coset
        seen = set()
        for x in X:
            coset = {W.mult(u, x) for u in WJ.sorted_members}
            assert not (coset & seen)
            seen |= coset
            for u in WJ.sorted_members:
                assert W.lengths[W.mult(u, x)] == W.lengths[u] + W.lengths[x]
        assert len(seen) == W.order


def test_transversal_within():
    W = build_group("B3")
    L = (1, 2)
    WL = W.parabolic(L)
    for J in [(), (1,), (2,), (1, 2)]:
        X = W.transversal(J, within=WL)
        assert len(X) * W.parabolic(J).order == WL.order


SHAPE_FACTS = {
    "A3": [[()], [(0,), (1,), (2,)], [(0, 1), (1, 2)], [(0, 2)], [(0, 1, 2)]],
    "B3": [[()], [(0,)], [(1,), (2,)], [(0, 1)], [(0, 2)], [(1, 2)], [(0, 1, 2)]],
    "H3": [[()], [(0,), (1,), (2,)], [(0, 1)], [(0, 2)], [(1, 2)], [(0, 1, 2)]],
    "A1xI2(5)": [[()], [(0,)], [(1,), (2,)], [(0, 1), (0, 2)], [(1, 2)], [(0, 1, 2)]],
}


@pytest.mark.parametrize("spec", sorted(SHAPE_FACTS))
def test_shapes(spec):
    W = build_group(spec)
    got = [sorted(sh.members) for sh in W.shapes()]
    assert got == SHAPE_FACTS[spec]


BULKY_FACTS = {
    "A3": {(): True, (0,): True, (0, 1): True, (0, 2): False, (0, 1, 2): True},
    "B3": {(): True, (0,): True, (1,): True, (0, 1): True, (0, 2): True,
           (1, 2): False, (0, 1, 2): True},
    "H3": {(): True, (0,): True, (0, 1): False, (0, 2): True, (1, 2): False,
           (0, 1, 2): True},
    "A1xI2(5)": {(): True, (0,): True, (1,): True, (0, 1): True, (1, 2): True,
                 (0, 1, 2): True},
}


@pytest.mark.parametrize("spec", sorted(BULKY_FACTS))
def test_bulky(spec):
    W = build_group(spec)
    got = {sh.canonical: W.is_bulky(sh.canonical) for sh in W.shapes()}
    assert got == BULKY_FACTS[spec]


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(6)", "I2(7)"])
def test_normalizer_factorization(spec):
    W = build_group(spec)
    for sh in W.shapes():
        J = sh.canonical
        N = W.normalizer_of_parabolic(J)
        NJ = W.complement_in_normalizer(J)
        assert N.order == W.parabolic(J).order * len(NJ)
        # N_J really is a complement: a subgroup meeting W_J trivially
        prods = {W.mult(u, n) for u in W.parabolic(J).sorted_members for n in NJ}
        assert prods == N.members


def test_reflection_roots():
    W = build_group("B3")
    for t in W.reflections:
        i = W.reflection_root[t]
        assert W.root_positive[i]
        assert W.perms[t][i] == W.root_negative_of[i]
        # t fixes the hyperplane of its root: B(v, alpha_t) = 0 for fixed v
        fs = W.fixed_space(t)
        assert len(fs) == 2
        for v in fs:
            assert W.bilinear(v, W.roots[i]).is_zero()


@pytest.mark.parametrize("spec", ["A3", "B3", "H3"])
def test_fixed_space_dims(spec):
    W = build_group(spec)
    for J in W.all_subsets():
        assert len(W.parabolic_fixed_space(J)) == W.rank - len(J)
    assert W.fix_dim(W.identity) == W.rank


def test_cuspidal_classes():
    W = build_group("I2(5)")
    cusp = W.full().cuspidal_classes()
    # exactly the two rotation classes
    assert len(cusp) == 2
    assert all(W.lengths[c.rep] % 2 == 0 and c.rep != W.identity for c in cusp)
    W = build_group("H3")
    assert len(W.full().cuspidal_classes()) == 4
    WL = W.parabolic((0, 1))
    cusp = WL.cuspidal_classes()
    assert all(W.fix_dim(c.rep) == 1 for c in cusp)
    for spec, count in [("A4", 1), ("B4", 5), ("D4", 3), ("F4", 9)]:
        assert len(build_group(spec).full().cuspidal_classes()) == count, spec


def test_centralizer_orbit_counting():
    W = build_group("B3")
    for c in W.classes:
        assert W.centralizer(c.rep).order * c.size == W.order


def test_cyclic_subgroup():
    W = build_group("I2(6)")
    st = W.mult(W.generators[0], W.generators[1])
    assert W.cyclic(st).order == 6
    assert W.cyclic(W.identity).order == 1


def test_det_on_subspace():
    W = build_group("H3")
    full = W.parabolic_fixed_space(())
    assert len(full) == 3
    for t in W.reflections:
        assert W.det_on_subspace(t, full) == -1
    assert W.det_on_subspace(W.longest, full) == -1
    st = W.mult(W.generators[0], W.generators[1])
    assert W.det_on_subspace(st, full) == 1
    # determinant on the fixed line of a reflection is 1
    t = W.reflections[0]
    line = W.parabolic_fixed_space((0,))
    assert W.det_on_subspace(W.generators[0], line) == 1


def test_subgroup_classes():
    W = build_group("A3")
    H = W.parabolic((0, 2))  # A1 x A1
    assert H.order == 4
    assert len(H.classes) == 4  # abelian
    WL = W.parabolic((0, 1))
    assert len(WL.classes) == 3
    # class reps are minimal in construction order
    for c in WL.classes:
        assert c.rep == min(c.members)


def test_subgroup_cache():
    W = build_group("A2")
    assert W.parabolic((0,)) is W.parabolic((0,))
    assert W.subgroup({0}) is W.subgroup({0})


def test_parabolic_data_is_read_off_the_members():
    W = CoxeterGroup(matrix_from_spec("B3"))
    s1, s2 = W.generators[:2]
    H = W.subgroup(W.closure([s1, s2]))
    # no parabolic((0, 1)) has run, so nothing but the members says H = W_{s1,s2}
    cusp = [c.members for c in H.cuspidal_classes()]
    assert len(cusp) == 2
    assert cusp == [c.members for c in W.parabolic((0, 1)).cuspidal_classes()]
    assert H is W.parabolic((1, 0)) and H.parabolic_subset == (0, 1)
    # s1 * s2 * s1 lies in W_{s1,s2} but is no generator, and {e, s1s2s1} is no W_J
    assert W.subgroup({W.identity, W.prod([s1, s2, s1])}).parabolic_subset is None
    D = build_group("I2(5)")
    rotations = D.cyclic(D.mult(*D.generators))
    with pytest.raises(ValueError, match="cuspidal classes need parabolic root data"):
        rotations.cuspidal_classes()


def test_structures_are_built_once_per_subset():
    W = CoxeterGroup(matrix_from_spec("B3"))
    for J in [(), (0,), (0, 2), (1, 2), (0, 1, 2)]:
        K = tuple(reversed(J))
        assert W.parabolic(J) is W.parabolic(K) is W.parabolic(list(K)), J
        assert W.normalizer_of_parabolic(J) is W.normalizer_of_parabolic(K), J
        assert W.complement_subgroup(J) is W.complement_subgroup(K), J
        assert W.shapes(J) is W.shapes(K), J
        assert descent_algebra(W, J) is descent_algebra(W, K), J
        assert sub_os_algebra(W, J) is sub_os_algebra(W, K), J
    assert W.shapes() is W.shapes(range(W.rank)) is W.shapes((2, 1, 0))
