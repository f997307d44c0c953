"""Structural shortcuts against the exact linear algebra they replaced.

Flats, fixed-space dimensions and the determinant characters alpha and sigma
are read off root permutations, and the descent ideal characters Phi and
the normalizer characters Phi~ come from a trace formula.  Here each of them
is recomputed by exact row reduction, for every dihedral group up to I2(12),
the rank 3 groups and A1xI2(5); so is the m-matrix inverse, found by forward
substitution.  The descent algebra multiplies x_J coordinates with Solomon's
structure constants and reads Phi's class sums off class counts of the
transversals; both are checked against dense products in the group algebra,
and Phi against the trace formula after a dense e * e = e check.  Phi~'s
certificate, checked in x_J coordinates and by products inside the parabolic,
is checked against the same certificate formed by products over the whole
normalizer.
The assignment search meets in the middle on integer vectors; it is checked
against the plain walk through `itertools.product` that it replaced.  Its
options induce each centralizer character once and twist the induced one;
the twisted character is checked against the induced twisted character.
The commutator subgroup, the normal closure of the generators' commutators,
is checked against the closure of the commutators of all pairs.  The
root system, closed up with carried pairings and rational Cartan entries,
is checked against the walk that summed every image's pairing over the
cyclotomic form.  The group tables, filled from a right-multiplication
table, are checked against composing root permutations.  The NBC basis, found by
Bjorner's suffix criterion, is checked against the independent sets that
hold no broken circuit.  Cyclotomic sums, differences, products and
comparisons, which build their results without re-validating them, are
checked against the validating constructor.
"""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coxsol import conjectures, linalg
from coxsol.chars import (ClassFunction, alpha_element, alpha_parabolic,
                          commutator_subgroup, det_character, sigma_parabolic)
from coxsol.conjectures import SearchExhausted, verify_a, verify_b
from coxsol.coxeter import _NAMED, CoxeterGroup, build_group, matrix_from_spec
from coxsol.cyclo import Cyclo, cos_pi_over, euler_phi, rational
from coxsol.descent import (DescentAlgebra, GroupAlgebraElement, NotIdempotent,
                            averaging, descent_algebra, parabolic_ideal_character)
from coxsol.orlik_solomon import sub_os_algebra

GROUPS = [f"I2({m})" for m in range(2, 13)] + ["A3", "B3", "H3", "A1xI2(5)"]


def cyclotomic_form(W):
    """B(alpha_i, alpha_j) = -cos(pi/m_ij), every entry a Cyclo of the conductor."""
    n = W.conductor
    return [[rational(1, n) if i == j else -cos_pi_over(W.matrix[i, j], n)
             for j in range(W.rank)] for i in range(W.rank)]


def bilinear(form, u, v):
    """B(u, v) in simple root coordinates, summed in full over the form."""
    acc = 0
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            acc = acc + ui * form[i][j] * vj
    return acc


def _apply_gen(form, i, v):
    """v - 2 B(v, alpha_i) alpha_i, with the pairing summed over every coordinate."""
    unit = [int(j == i) for j in range(len(v))]
    return tuple(x - 2 * bilinear(form, v, unit) if j == i else x for j, x in enumerate(v))


def cyclotomic_root_walk(W):
    """The root system closed up from the simple roots, breadth first, with
    every image's pairing summed over the cyclotomic form.  A simple
    reflection flips the sign only of its own root pair, and the later of
    two opposite roots is linked to the earlier one by lookup."""
    form, n, r = cyclotomic_form(W), W.conductor, W.rank
    roots = [tuple(rational(sign * int(j == i), n) for j in range(r))
             for sign in (1, -1) for i in range(r)]
    positive = [k < r for k in range(2 * r)]
    negative_of = [(k + r) % (2 * r) for k in range(2 * r)]
    index = {linalg.vec_key(v): k for k, v in enumerate(roots)}
    perms = [[] for _ in range(r)]
    for k, v in enumerate(roots):  # roots grows while it is walked
        for i in range(r):
            img = _apply_gen(form, i, v)
            key = linalg.vec_key(img)
            if key not in index:
                index[key] = len(roots)
                roots.append(img)
                positive.append(False if k == i else True if negative_of[k] == i
                                else positive[k])
                other = index.get(linalg.vec_key(tuple(-x for x in img)))
                negative_of.append(other)
                if other is not None:
                    negative_of[other] = len(roots) - 1
            perms[i].append(index[key])
    return SimpleNamespace(roots=roots, simple_root=list(range(r)), root_positive=positive,
                           root_negative_of=negative_of, perms=[tuple(p) for p in perms])


@pytest.mark.parametrize("spec", sorted(_NAMED) + [f"I2({m})" for m in range(2, 25)]
                         + [s for s in GROUPS if "x" in s])
def test_root_walk_matches_cyclotomic_walk(spec):
    W = build_group(spec)
    oracle = cyclotomic_root_walk(W)
    assert [linalg.vec_key(v) for v in W.roots] == [linalg.vec_key(v) for v in oracle.roots]
    assert W.root_positive == oracle.root_positive
    assert W.root_negative_of == oracle.root_negative_of
    assert W.simple_root == oracle.simple_root
    assert [W.perms[g] for g in W.generators] == oracle.perms


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
    form = cyclotomic_form(W)
    for i, g in enumerate(W.generators):
        images = [W.root_index[linalg.vec_key(_apply_gen(form, i, v))] for v in W.roots]
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


def brute_nbc(lat, n: int):
    """Independent sets with no broken circuit, from circuits found by ranks:
    a circuit is a dependent set whose proper subsets are all independent."""
    sets = [c for k in range(lat.top_rank + 2)
            for c in itertools.combinations(range(n), k)]
    circuits = [c for c in sets if lat.rank(c) == len(c) - 1
                and all(lat.independent(c[:i] + c[i + 1:]) for i in range(len(c)))]
    broken = [set(c[1:]) for c in circuits]
    return sorted(c for c in sets if lat.independent(c)
                  and not any(b <= set(c) for b in broken))


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A1xI2(5)", "I2(7)", "A1xA3", "B4"])
def test_nbc_basis_matches_broken_circuits(spec):
    W = build_group(spec)
    for L in [tuple(range(W.rank))] + list(itertools.combinations(range(W.rank),
                                                                  W.rank - 1)):
        alg = sub_os_algebra(W, L)
        got = sorted(mono for level in alg.nbc_basis for mono in level)
        assert got == brute_nbc(alg.lattice, alg.arr.n), (spec, L)


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


def counted_incidence(D):
    """m[K][J] = |X_K cap {x in X_J : J^x in S}| for J in K, by transversals."""
    W = D.W
    sharp = {J: set(W.subset_images(J, within=D.universe)) for J in D.subsets}
    trans = {J: set(W.transversal(J, within=D.universe)) for J in D.subsets}
    return [[len(trans[K] & sharp[J]) if set(J) <= set(K) else 0
             for J in D.subsets] for K in D.subsets]


@pytest.mark.parametrize("spec", GROUPS)
def test_structure_constants_match_dense_products(spec):
    W = build_group(spec)
    for L in W.all_subsets():
        D = descent_algebra(W, L)
        assert D.m_matrix == counted_incidence(D), (spec, L)
        basis = {J: [int(I == J) for I in D.subsets] for J in D.subsets}
        for J in D.subsets:
            for K in D.subsets:
                want = D.x(J) * D.x(K)
                assert D.element(D.product(basis[J], basis[K])) == want, (spec, L, J, K)
        uni = D.universe
        for K in D.subsets:
            xK = D.x(K)
            counts = [sum(xK.coefficient(h) for h in c.members) for c in uni.classes]
            assert D._class_counts[D.subsets.index(K)] == counts, (spec, L, K)


def dense_trace_character(e, U):
    """The trace formula after checking e * e = e by a product in QU."""
    if e * e != e:
        raise NotIdempotent("the element does not square to itself")
    W = U.parent
    traces = []
    for c in U.classes:
        cl = U.classes[U.class_of(W.inv(c.rep))]
        traces.append(Fraction(U.order, cl.size)
                      * sum((e.coefficient(h) for h in cl.members), Fraction(0)))
    return ClassFunction(U, traces)


def dense_parabolic_ideal_character(W, L):
    """Phi~ with its certificate checked by products in QW throughout."""
    eL = descent_algebra(W).e(L)
    NL = W.complement_subgroup(L)
    N = W.normalizer_of_parabolic(L)
    assert {W.mult(u, n) for u in W.parabolic(L).members
            for n in NL.members} == N.members
    f = descent_algebra(W, L).e(L) * averaging(NL)
    chi = dense_trace_character(f, N)
    assert eL * f == eL
    g = f * GroupAlgebraElement(W, {w: c for w, c in eL.coeffs.items()
                                    if w in N.members})
    w = min(f.coeffs)
    c = g.coefficient(w) / f.coefficient(w)
    assert c and g == c * f
    return chi


@pytest.mark.parametrize("spec", GROUPS)
def test_characters_match_dense_squares(spec):
    W = build_group(spec)
    for L in W.all_subsets():
        D = descent_algebra(W, L)
        for sh in D.shapes:
            got = D.ideal_character(sh).values
            want = dense_trace_character(D.e_shape(sh), D.universe).values
            assert [repr(v) for v in got] == [repr(v) for v in want], (spec, L, sh)
        got = parabolic_ideal_character(W, L).values
        want = dense_parabolic_ideal_character(W, L).values
        assert [repr(v) for v in got] == [repr(v) for v in want], (spec, L)


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["A4", "D4", "A1xB3", "B4"])
def test_rank_four_parabolic_characters_match_dense_certificate(spec):
    W = build_group(spec)
    for sh in W.shapes():
        got = parabolic_ideal_character(W, sh.canonical).values
        want = dense_parabolic_ideal_character(W, sh.canonical).values
        assert [repr(v) for v in got] == [repr(v) for v in want], (spec, sh.canonical)


@pytest.mark.parametrize("spec", GROUPS)
def test_restricted_idempotent_has_summed_coordinates(spec):
    # u in W_L lies in X_K exactly when it lies in X_{K cap L} of W_L, so
    # e_L = sum_K c_K x_K restricts to W_L as sum_J (sum_{K cap L = J} c_K) x_J
    W = build_group(spec)
    amb = descent_algebra(W)
    for L in W.all_subsets():
        rel, members = descent_algebra(W, L), W.parabolic(L).members
        p = [sum((c for K, c in zip(amb.subsets, amb.coords(L))
                  if tuple(s for s in K if s in L) == J), Fraction(0)) for J in rel.subsets]
        want = GroupAlgebraElement(W, {w: c for w, c in amb.e(L).coeffs.items()
                                       if w in members})
        assert rel.element(p) == want, (spec, L)


def test_ideal_characters_need_no_group_algebra_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("Phi must not multiply in the group algebra")

    monkeypatch.setattr(GroupAlgebraElement, "__mul__", refuse)
    W = CoxeterGroup(matrix_from_spec("H3"))
    for L in W.all_subsets():
        D = descent_algebra(W, L)
        D.check_idempotent_family()
        assert sum(phi.degree for phi in D.character_family().values()) == \
            D.universe.order


@pytest.mark.parametrize("spec", ["H3", "B3"])
def test_parabolic_ideal_characters_multiply_only_inside_the_parabolic(monkeypatch, spec):
    mul = GroupAlgebraElement.__mul__
    W = CoxeterGroup(matrix_from_spec(spec))  # a fresh group with no algebras built
    for L in W.all_subsets():
        members = W.parabolic(L).members

        def inside(self, other, members=members):
            if isinstance(other, GroupAlgebraElement) and not other.coeffs.keys() <= members:
                raise AssertionError("Phi~ must not multiply by an element off W_L")
            return mul(self, other)

        monkeypatch.setattr(GroupAlgebraElement, "__mul__", inside)
        rel = descent_algebra(W, L)
        assert parabolic_ideal_character(W, L).restrict(W.parabolic(L)) == \
            rel.ideal_character(rel.shape_of(L)), L


def dense_commutator_subgroup(H):
    """The subgroup generated by the commutators of all pairs of members."""
    W = H.parent
    comms = set()
    for a in H.sorted_members:
        ai = W.inv(a)
        for b in H.sorted_members:
            comms.add(W.prod([ai, W.inv(b), a, b]))
    return W.generated_subgroup(comms)


@pytest.mark.parametrize("spec", GROUPS + ["A4", "D4", "B4", "F4"])
def test_commutator_subgroups_match_all_pairs(spec):
    W = build_group(spec)
    subgroups = {W.centralizer(c.rep) for c in W.full().classes}
    for J in W.all_subsets():
        subgroups |= {W.parabolic(J), W.normalizer_of_parabolic(J)}
    for H in sorted(subgroups, key=lambda H: H.sorted_members):
        assert commutator_subgroup(H) is dense_commutator_subgroup(H), (spec, H)


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


def _check_induced(pools):
    """Each option's induced characters against inducing phi and psi directly."""
    for opts in pools:
        for _, _, phi, psi, iphi, ipsi in opts:
            assert iphi == phi.induce(iphi.carrier)
            assert ipsi == psi.induce(iphi.carrier)


@pytest.mark.parametrize("verify,spec", [
    (verify_a, "A3"), (verify_a, "B3"), (verify_a, "H3"),
    (verify_b, "A1xA1xI2(5)"), (verify_b, "I2(3)xI2(4)"), (verify_b, "A1xB3"),
])
def test_search_matches_product_order(monkeypatch, verify, spec):
    search, calls = conjectures._search, []

    def both(L, phi_top, psi_top, pools):
        _check_induced(pools)
        got = search(L, phi_top, psi_top, pools)
        want = product_search(phi_top, psi_top, pools)
        assert want is not None
        assert _chosen(got) == [(w, phi, psi) for w, _, phi, psi, _, _ in want]
        calls.append(L)
        return got

    monkeypatch.setattr(conjectures, "_search", both)
    assert verify(build_group(spec)).status == "verified"
    assert calls


def test_rank_four_options_induce_psi_directly(monkeypatch):
    search, calls = conjectures._search, []

    def checked(L, phi_top, psi_top, pools):
        _check_induced(pools)
        calls.append(L)
        return search(L, phi_top, psi_top, pools)

    monkeypatch.setattr(conjectures, "_search", checked)
    assert verify_b(build_group("B4")).status == "verified"
    assert calls


@pytest.mark.parametrize("verify,spec", [(verify_a, "A3"), (verify_b, "A1xB3")])
def test_search_pools_induce_once_per_option(monkeypatch, verify, spec):
    induce, search = ClassFunction.induce, conjectures._search
    pools_of = conjectures._search_pools
    calls, seen = [0], []

    def counted(self, target):
        calls[0] += 1
        return induce(self, target)

    def fresh_count(*args, **kwargs):
        calls[0] = 0
        return pools_of(*args, **kwargs)

    def tally(L, phi_top, psi_top, pools):
        seen.append((calls[0], sum(len(opts) for opts in pools)))
        return search(L, phi_top, psi_top, pools)

    monkeypatch.setattr(ClassFunction, "induce", counted)
    monkeypatch.setattr(conjectures, "_search_pools", fresh_count)
    monkeypatch.setattr(conjectures, "_search", tally)
    assert verify(build_group(spec)).status == "verified"
    assert seen and all(made == options for made, options in seen), seen


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


# -- cyclotomic arithmetic against the validating constructor ----------------------

CONDUCTORS = list(range(1, 31)) + [60]


def _in_field(x, n: int) -> list:
    """The coefficient list of a Cyclo, int or Fraction, written in Q(zeta_n)."""
    if not isinstance(x, Cyclo):
        x = Cyclo(n, [x])
    return list(x.lifted(n).coeffs)


def _field_of(x, y) -> int:
    ns = [v.conductor for v in (x, y) if isinstance(v, Cyclo)]
    return math.lcm(*ns)


def _oracle_sum(x, y, sign):
    n = _field_of(x, y)
    return Cyclo(n, [a + sign * b for a, b in zip(_in_field(x, n), _in_field(y, n))])


def _oracle_product(x, y):
    n = _field_of(x, y)
    a, b = _in_field(x, n), _in_field(y, n)
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return Cyclo(n, out)


def _assert_built_like(got, want):
    assert isinstance(got, Cyclo)
    assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)
    assert all(type(c) is Fraction for c in got.coeffs)
    assert len(got.coeffs) == euler_phi(got.conductor)
    with pytest.raises(AttributeError):
        got.coeffs = want.coeffs
    with pytest.raises(AttributeError):
        got.conductor = want.conductor


@pytest.mark.parametrize("n", CONDUCTORS)
def test_cyclo_fast_paths_match_validating_constructor(n):
    rng = random.Random(n)

    def draw(k):
        return Cyclo(k, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(euler_phi(k))])

    a, b, zero = draw(n), draw(n), Cyclo(n, [])
    # a second conductor, kept to common fields of conductor at most 60
    other = draw(rng.choice([k for k in CONDUCTORS if k != n and math.lcm(n, k) <= 60]))
    # a.lifted(2n) equals a across conductors, and the rational value equals 3/2
    values = [a, b, zero, other, Cyclo(n, [Fraction(3, 2)]), a.lifted(2 * n)]
    scalars = [0, 3, Fraction(0), Fraction(3, 2), Fraction(-2, 7)]
    pairs = [(x, y) for x in values for y in values]
    pairs += [(x, q) for x in values for q in scalars]
    pairs += [(q, x) for x in values for q in scalars]
    for x, y in pairs:
        _assert_built_like(x + y, _oracle_sum(x, y, 1))
        _assert_built_like(x - y, _oracle_sum(x, y, -1))
        _assert_built_like(x * y, _oracle_product(x, y))
        m = _field_of(x, y)
        assert (x == y) is (_in_field(x, m) == _in_field(y, m)), (x, y)
        assert (x != y) is not (x == y)
    for x in values:
        _assert_built_like(-x, Cyclo(x.conductor, [-c for c in x.coeffs]))
