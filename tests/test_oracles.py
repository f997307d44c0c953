"""Structural shortcuts against the exact linear algebra they replaced.

Flats, fixed-space dimensions and the determinant characters alpha and sigma
are read off root permutations, and the descent ideal characters Phi and
the normalizer characters Phi~ come from a trace formula.  Here each of them
is recomputed by exact row reduction, for every dihedral group up to I2(12),
the rank 3 groups and A1xI2(5); so is the m-matrix inverse, found by forward
substitution.  The assignment search meets in the middle on integer vectors;
it is checked against the plain walk through `itertools.product` that it
replaced.  The group tables, filled from a right-multiplication table, are
checked against composing root permutations.
"""

import itertools
import random
from fractions import Fraction

import pytest

from coxsol import conjectures, linalg
from coxsol.chars import (ClassFunction, alpha_element, alpha_parabolic,
                          det_character, sigma_parabolic)
from coxsol.conjectures import SearchExhausted, verify_a, verify_b
from coxsol.coxeter import CoxeterGroup, build_group, matrix_from_spec
from coxsol.descent import DescentAlgebra, descent_algebra, parabolic_ideal_character
from coxsol.orlik_solomon import sub_os_algebra

GROUPS = [f"I2({m})" for m in range(2, 13)] + ["A3", "B3", "H3", "A1xI2(5)"]


def composed_tables(W):
    """The multiplication and inverse tables, by composing root permutations."""
    index = {p: w for w, p in enumerate(W.perms)}
    mult = [[index[tuple(pa[j] for j in pb)] for pb in W.perms] for pa in W.perms]
    inv = []
    for pa in W.perms:
        q = [0] * W.n_roots
        for j, k in enumerate(pa):
            q[k] = j
        inv.append(index[tuple(q)])
    return mult, inv


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(12)", "A1xI2(5)", "B4", "D4"])
def test_group_tables_match_composed_permutations(spec):
    W = build_group(spec)
    mult, inv = composed_tables(W)
    assert W.mult_table == mult
    assert W.inv_table == inv
    for i, g in enumerate(W.generators):
        images = [W.root_index[linalg.vec_key(W._apply_gen(i, v))] for v in W.roots]
        assert W.perms[g] == tuple(images), (spec, i)
    conjugates = {W.conj(g, x) for g in W.generators for x in range(W.order)}
    assert W.reflections == sorted(conjugates)
    assert W.classes is W.full().classes


def rref_inverse(m):
    n = len(m)
    basis, pivots = linalg.rref([tuple(row) + tuple(Fraction(int(k == i)) for k in range(n))
                                 for i, row in enumerate(m)])
    assert pivots == list(range(n))
    return [list(row[n:]) for row in basis]


@pytest.mark.parametrize("spec", GROUPS)
def test_m_inverse_matches_row_reduction(spec):
    W = build_group(spec)
    for L in W.all_subsets():
        D = descent_algebra(W, L)
        assert D.m_inverse == rref_inverse(D.m_matrix), (spec, L)


@pytest.mark.parametrize("spec", GROUPS)
def test_flats_are_closed_root_spans(spec):
    W = build_group(spec)
    for L in W.all_subsets():
        alg = sub_os_algebra(W, L)
        lat, arr = alg.lattice, alg.arr
        rows = [W.roots[W.reflection_root[t]] for t in arr.hyperplanes]
        for f in lat.flats:
            basis, pivots = linalg.rref([rows[p] for p in f.key])
            assert len(basis) == f.rank, (spec, L, f.key)
            closure = {p for p in range(arr.n)
                       if linalg.coords_in_rowspace(basis, pivots, rows[p]) is not None}
            assert closure == f.key, (spec, L, f.key)
            # the join with a new hyperplane covers the flat, so it is the closure
            for p in set(range(arr.n)) - f.key:
                g = lat.flats[lat.child[f.id, p]]
                assert g.rank == f.rank + 1 and f.key | {p} <= g.key, (spec, L, p)
        assert lat.flats[alg.top_flat()].rank == len(L)


def _matches_determinant(chi, carrier, basis) -> bool:
    """chi lives on the carrier and agrees with the determinant on the subspace
    at every member, not only at class representatives."""
    W = carrier.parent
    return chi == det_character(W, carrier, basis) and all(
        chi(w) == W.det_on_subspace(w, basis) for w in carrier.sorted_members)


@pytest.mark.parametrize("spec", GROUPS)
def test_alpha_and_sigma_match_cyclotomic_determinants(spec):
    W = build_group(spec)
    for J in W.all_subsets():
        assert _matches_determinant(alpha_parabolic(W, J), W.normalizer_of_parabolic(J),
                                    W.parabolic_fixed_space(J)), (spec, J)
        span, _ = linalg.rref([W.roots[W.simple_root[j]] for j in J])
        assert _matches_determinant(sigma_parabolic(W, J),
                                    W.complement_subgroup(J), span), (spec, J)
    for c in W.classes:
        assert _matches_determinant(alpha_element(W, c.rep), W.centralizer(c.rep),
                                    W.fixed_space(c.rep)), (spec, c.rep)


@pytest.mark.parametrize("spec", GROUPS)
def test_fix_dim_and_closure_match_fixed_spaces(spec):
    W = build_group(spec)
    for w in range(W.order):
        assert W.fix_dim(w) == len(W.fixed_space(w)), (spec, w)
    for c in W.classes:
        x, J = W.parabolic_closure(c.rep)
        assert set(W.word(W.conj(c.rep, x))) == set(J)
        assert len(J) == W.rank - W.fix_dim(c.rep)


def row_reduced_character(D, shape):
    """Trace of right translation on a row echelon basis of the span of the
    right translates of the shape idempotent."""
    W, uni = D.W, D.universe
    pos, members = uni.positions, uni.sorted_members
    e = D.e_shape(shape)
    basis, pivots = linalg.rref([e.translate(g).vector(uni) for g in members])
    traces = []
    for c in uni.classes:
        winv = W.inv(c.rep)
        t = Fraction(0)
        for b, p in zip(basis, pivots):
            t = b[pos[W.mult(members[p], winv)]] + t
        traces.append(t)
    return ClassFunction(uni, traces)


@pytest.mark.parametrize("spec", GROUPS)
def test_ideal_characters_match_row_reduction(spec):
    W = build_group(spec)
    for L in W.all_subsets():
        D = descent_algebra(W, L)
        for sh in D.shapes:
            got = D.ideal_character(sh).values
            want = row_reduced_character(D, sh).values
            assert [repr(v) for v in got] == [repr(v) for v in want], (spec, L, sh)


def test_ideal_characters_need_no_row_reduction(monkeypatch):
    def refuse(rows):
        raise AssertionError("Phi must not row-reduce")

    monkeypatch.setattr(linalg, "rref", refuse)
    W = CoxeterGroup(matrix_from_spec("H3"))
    for D in [DescentAlgebra(W, L) for L in W.all_subsets()]:
        assert sum(phi.degree for phi in D.character_family().values()) == \
            D.universe.order


def row_reduced_parabolic_character(W, L):
    """Trace of right translation by the normalizer of W_L on a row echelon
    basis of the span of the translates e_L * u, u in W_L."""
    eL = descent_algebra(W).e(L)
    N = W.normalizer_of_parabolic(L)
    uni = W.full()
    pos, members = uni.positions, uni.sorted_members
    basis, pivots = linalg.rref([eL.translate(u).vector(uni)
                                 for u in W.parabolic(L).sorted_members])
    traces = []
    for c in N.classes:
        winv = W.inv(c.rep)
        t = Fraction(0)
        for i, b in enumerate(basis):
            moved = [b[pos[W.mult(g, winv)]] for g in members]
            coords = linalg.coords_in_rowspace(basis, pivots, moved)
            assert coords is not None, "the span is not normalizer invariant"
            t = t + coords[i]
        traces.append(t)
    return ClassFunction(N, traces)


@pytest.mark.parametrize("spec", GROUPS)
def test_parabolic_ideal_characters_match_row_reduction(spec):
    W = build_group(spec)
    for L in W.all_subsets():
        got = parabolic_ideal_character(W, L).values
        want = row_reduced_parabolic_character(W, L).values
        assert [repr(v) for v in got] == [repr(v) for v in want], (spec, L)


def test_parabolic_ideal_characters_need_no_row_reduction(monkeypatch):
    def refuse(*args):
        raise AssertionError("Phi~ must not row-reduce")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "coords_in_rowspace", refuse)
    W = CoxeterGroup(matrix_from_spec("H3"))  # a fresh group with no algebras built
    for L in W.all_subsets():
        rel = descent_algebra(W, L)
        assert parabolic_ideal_character(W, L).restrict(W.parabolic(L)) == \
            rel.ideal_character(rel.shape_of(L)), L


def product_search(phi_top, psi_top, pools):
    """The first combination in `itertools.product` order whose induced
    characters add up to phi_top and psi_top, found by adding class functions;
    None when there is none."""
    zero = phi_top * 0
    for combo in itertools.product(*pools):
        sphi, spsi = zero, zero
        for _, _, _, _, iphi, ipsi in combo:
            sphi, spsi = sphi + iphi, spsi + ipsi
        if sphi == phi_top and spsi == psi_top:
            return combo
    return None


def _chosen(assignments):
    return [(a.element, a.phi, a.psi) for a in assignments]


@pytest.mark.parametrize("verify,spec", [
    (verify_a, "A3"), (verify_a, "B3"), (verify_a, "H3"),
    (verify_b, "A1xA1xI2(5)"), (verify_b, "I2(3)xI2(4)"), (verify_b, "A1xB3"),
])
def test_search_matches_product_order(monkeypatch, verify, spec):
    search, calls = conjectures._search, []

    def both(L, phi_top, psi_top, pools):
        got = search(L, phi_top, psi_top, pools)
        want = product_search(phi_top, psi_top, pools)
        assert want is not None
        assert _chosen(got) == [(w, phi, psi) for w, _, phi, psi, _, _ in want]
        calls.append(L)
        return got

    monkeypatch.setattr(conjectures, "_search", both)
    assert verify(build_group(spec)).status == "verified"
    assert calls


def _synthetic_pools(values):
    """The class function (v, -v) on A1 as a function of v, and pools of
    options whose induced characters are v's, tagged (pool, position)."""
    G = build_group("A1").full()

    def cf(v):
        return ClassFunction(G, [Fraction(v), Fraction(-v)])

    return cf, [[((p, i), G, None, None, cf(v), cf(2 * v))
                 for i, v in enumerate(vals)] for p, vals in enumerate(values)]


@pytest.mark.parametrize("values,target,first", [
    # the pools cut after two; only the last left combination (1, 1) reaches
    # 21, and of the right combinations (0, 1), (0, 2), (1, 0), (2, 0) with
    # sum 1 the first one wins, though (0, 2) has the same sum
    ([[0, 10], [0, 10], [0, 1, 1], [0, 1, 1]], 21, (1, 1, 0, 1)),
    # four matches, one per position of the zero
    ([[0, 1]] * 4, 3, (0, 1, 1, 1)),
    # a single pool, matched twice
    ([[2, 5, 1, 5]], 5, (1,)),
    # the empty combination
    ([], 0, ()),
])
def test_search_returns_the_first_match(values, target, first):
    cf, pools = _synthetic_pools(values)
    got = conjectures._search((0,), cf(target), cf(2 * target), pools)
    assert [a.element for a in got] == list(enumerate(first))
    want = product_search(cf(target), cf(2 * target), pools)
    assert [w for w, *_ in want] == [a.element for a in got]


def test_search_agrees_with_product_order_on_random_pools():
    rng = random.Random(7)
    for _ in range(200):
        values = [[rng.randrange(-2, 3) for _ in range(rng.randrange(1, 4))]
                  for _ in range(rng.randrange(1, 6))]
        target = rng.randrange(-3, 4)
        cf, pools = _synthetic_pools(values)
        want = product_search(cf(target), cf(2 * target), pools)
        if want is None:
            with pytest.raises(SearchExhausted):
                conjectures._search((0,), cf(target), cf(2 * target), pools)
        else:
            got = conjectures._search((0,), cf(target), cf(2 * target), pools)
            assert [a.element for a in got] == [w for w, *_ in want], values


def test_search_cap_bounds_the_larger_half(monkeypatch):
    # 5 * 5 * 4 * 4 = 400 combinations, cut into halves of 25 and 16
    cf, pools = _synthetic_pools([[0, 1, 2, 3, 4]] * 2 + [[0, 1, 2, 3]] * 2)
    monkeypatch.setattr(conjectures, "SEARCH_CAP", 25)
    got = conjectures._search((0,), cf(14), cf(28), pools)
    assert [a.element for a in got] == [(0, 4), (1, 4), (2, 3), (3, 3)]
    monkeypatch.setattr(conjectures, "SEARCH_CAP", 24)
    with pytest.raises(SearchExhausted, match="25 combinations"):
        conjectures._search((0,), cf(14), cf(28), pools)
