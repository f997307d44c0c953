"""Tests for Coxeter group construction and structure."""

import itertools
import random

import pytest

from coxsol.coxeter import (
    MAX_RANK, CoxeterGroup, CoxeterMatrix, InfiniteOrTooLarge, InvalidMatrix,
    build_group, matrix_from_spec,
)
from coxsol.cyclo import Cyclo
from coxsol.descent import descent_algebra
from oracles import fix_dim, fixed_space, parabolic_fixed_space, reflection_roots
from test_oracles import bilinear, cyclotomic_form


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
    assert matrix_from_spec("A1xA3").rank == MAX_RANK
    with pytest.raises(InvalidMatrix, match=f"total rank 6 exceeds bound {MAX_RANK}"):
        matrix_from_spec("A3xA3")


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
    # one reflection per positive root, and w_0 negates them all
    assert W.n_positive == nrefl
    assert 2 * W.n_positive == W.n_roots
    assert W.lengths[W.longest] == W.n_positive


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


@pytest.mark.parametrize("spec", ["A3", "I2(7)", "H3", "B4"])
def test_length_is_inversion_count(spec):
    # l(w) = #{k < N : w(root k) >= N}: the positive roots w sends to negative ones
    W = build_group(spec)
    N = W.n_positive
    for w in range(W.order):
        neg = sum(1 for k in range(N) if W.perms[w][k] >= N)
        assert neg == W.lengths[w]
        assert len(W.words[w]) == W.lengths[w]
        assert W.prod(W.generators[s] for s in W.words[w]) == w


@pytest.mark.parametrize("spec", ["A2", "B2", "A3"])
def test_words_are_lex_least(spec):
    W = build_group(spec)
    best = {}
    top = W.lengths[W.longest]
    for length in range(top + 1):
        for word in itertools.product(range(W.rank), repeat=length):
            w = W.prod(W.generators[s] for s in word)
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
        # X_J inside W_L is X_J cap W_L
        X = [x for x in W.transversal(J) if x in WL.members]
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
    # each reflection negates exactly one positive root
    roots = reflection_roots(W)
    assert len(set(roots.values())) == len(W.reflections) == W.n_positive
    for t, i in roots.items():
        # t fixes the hyperplane of its root: B(v, alpha_t) = 0 for fixed v
        fs = fixed_space(W, t)
        assert len(fs) == 2
        for v in fs:
            assert bilinear(cyclotomic_form(W), v, W.roots[i]).is_zero()


def _cyclo_products(monkeypatch, refuse=False):
    """Count Cyclo * Cyclo products from now on; with refuse, fail on the first."""
    mul, count = Cyclo.__mul__, [0]

    def counted(a, b):
        if isinstance(b, Cyclo):
            assert not refuse, "a Cyclo * Cyclo product"
            count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Cyclo, "__mul__", counted)
    return count


@pytest.mark.parametrize("spec", ["A4", "D4", "A1xA3", "I2(3)xI2(2)"])
def test_rational_groups_build_without_cyclotomic_products(monkeypatch, spec):
    # every m_ij is 2 or 3, so every pairing B(root, alpha_j) is a Fraction
    _cyclo_products(monkeypatch, refuse=True)
    W = CoxeterGroup(matrix_from_spec(spec))
    assert W.order == build_group(spec).order


@pytest.mark.parametrize("spec", ["H3", "F4", "I2(11)"])
def test_root_walk_multiplies_only_new_pairings(monkeypatch, spec):
    # images cost a subtraction; each new root's pairings cost at most rank products
    count = _cyclo_products(monkeypatch)
    W = CoxeterGroup(matrix_from_spec(spec))
    assert 0 < count[0] <= W.rank * W.n_positive


@pytest.mark.parametrize("spec", ["A3", "B3", "H3"])
def test_fixed_space_dims(spec):
    W = build_group(spec)
    for J in W.all_subsets():
        assert len(parabolic_fixed_space(W, J)) == W.rank - len(J)
    assert fix_dim(W, W.identity) == W.rank


def test_cuspidal_classes():
    W = build_group("I2(5)")
    cusp = W.cuspidal_classes((0, 1))
    # exactly the two rotation classes
    assert len(cusp) == 2
    assert all(W.lengths[c.rep] % 2 == 0 and c.rep != W.identity for c in cusp)
    W = build_group("H3")
    assert len(W.cuspidal_classes(range(3))) == 4
    cusp = W.cuspidal_classes((1, 0))
    assert len(cusp) == 2 and all(fix_dim(W, c.rep) == 1 for c in cusp)
    for spec, count in [("A4", 1), ("B4", 5), ("D4", 3), ("F4", 9)]:
        assert len(build_group(spec).cuspidal_classes(range(4))) == count, spec


def test_centralizer_orbit_counting():
    W = build_group("B3")
    for c in W.classes:
        assert W.centralizer(c.rep).order * c.size == W.order


def test_cyclic_subgroup():
    W = build_group("I2(6)")
    st = W.mult(W.generators[0], W.generators[1])
    assert W.generated_subgroup([st]).order == 6
    assert W.generated_subgroup([W.identity]).order == 1


def test_det_on_subspace():
    W = build_group("H3")
    full = parabolic_fixed_space(W, ())
    assert len(full) == 3
    for t in W.reflections:
        assert W.det_on_subspace(t, full) == -1
    assert W.det_on_subspace(W.longest, full) == -1
    st = W.mult(W.generators[0], W.generators[1])
    assert W.det_on_subspace(st, full) == 1
    # determinant on the fixed line of a reflection is 1
    t = W.reflections[0]
    line = parabolic_fixed_space(W, (0,))
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
    # a subgroup is interned by its members, whichever call built it first
    W = CoxeterGroup(matrix_from_spec("B3"))
    s1, s2 = W.generators[:2]
    assert W.subgroup(W.closure([s1, s2])) is W.parabolic((1, 0))


def test_structures_are_built_once_per_subset():
    W = CoxeterGroup(matrix_from_spec("B3"))
    for J in [(), (0,), (0, 2), (1, 2), (0, 1, 2)]:
        K = tuple(reversed(J))
        assert W.parabolic(J) is W.parabolic(K) is W.parabolic(list(K)), J
        assert W.normalizer_of_parabolic(J) is W.normalizer_of_parabolic(K), J
        assert W.complement_subgroup(J) is W.complement_subgroup(K), J
        assert W.shapes(J) is W.shapes(K), J
        assert descent_algebra(W, J) is descent_algebra(W, K), J
    assert W.shapes() is W.shapes(range(W.rank)) is W.shapes((2, 1, 0))
