"""Structural shortcuts against the exact linear algebra they replaced.

Flats, fixed-space dimensions and the determinant characters alpha and sigma
are read off root permutations, and the descent ideal characters Phi and
the normalizer characters Phi~ come from a trace formula.  Here each of them
is recomputed by exact row reduction, for every dihedral group up to I2(12),
the rank 3 groups and A1xI2(5); so is the m-matrix inverse, found by forward
substitution.  The descent algebra multiplies x_J coordinates with Solomon's
structure constants and reads Phi's class sums off class counts of the
transversals; both are checked against dense products in the group algebra,
and Phi against the trace formula after a dense e * e = e check.  Elements,
built in one pass over the universe, are checked against sums of the x_J as
group elements.  Phi~'s certificate, read in x_J coordinates of W_L, is
checked against the same certificate formed by products over the whole
normalizer, and the facts it rests on by dense products: e_L is supported on
the subsets of L, e_L = x_L * z, and x_L * n = x_L for n in the complement.
The assignment search meets in the middle on integer vectors; it is checked
against the plain walk through `itertools.product` that it replaced.  Its
options induce each centralizer character once and twist the induced one;
the twisted character is checked against the induced twisted character.
The commutator subgroup, the normal closure of the generators' commutators,
is checked against the closure of the commutators of all pairs.  Linear
characters, built from exponent maps on H with one root of unity per class,
are checked against the same maps built through a multiplication table of
H/H', and against a root of unity per member validated by `linear_character`;
so are the rotation characters of a dihedral parabolic, exponent maps on the
powers of its rotation, and those powers are checked against `oracles.power`.
The coset-split lift of an odd dihedral parabolic, which reads the rotation
characters, is checked against Cyclo values per member.  The shape of a
flat, read off the subset it comes from, is checked against the orbits of
the standard flats under the generators.
The intertwiner check, made on generators of the normalizer, is checked
against the same check on every member of the complement N_L, and its a-side
coordinates, read off the eigenlines of the rotation, against a row reduction
per vector (`linalg.coords_in_span`).  The
root system, closed up with carried pairings and rational Cartan entries,
is checked against the walk that summed every image's pairing over the
cyclotomic form.  The images of the simple roots, read off the root
permutations with a negative root negated on demand, are checked against
applying the letters of a reduced word; the cuspidal classes of each W_J,
read off the parabolic closure, against fixed spaces found by row reduction.
The group tables, filled from a right-multiplication
table, are checked against composing root permutations.  The NBC basis, found by
Bjorner's suffix criterion, is checked against the independent sets that
hold no broken circuit.  The characters Psi, traces summed from Moebius
numbers of stable flats, and the closed-form degree 2 straightening are
checked against the NBC basis and its general straightening (`oracles.nbc`).
The top component of a parabolic W_L, read in W's
algebra at the flat of W_L's reflections, is checked against the top
component of W_L built as a Coxeter group of its own.  Cyclotomic sums,
differences, products and comparisons, which build their results without
re-validating them, are checked against the validating constructor.  The
product of coefficient lists, convolved on integer numerators, is checked
against one Fraction multiply-add per pair of terms.  The
reduction mod Phi_n, read off one integer table of x^k per conductor on
integer numerators, is checked against long division by Phi_n and against
the same table applied to Fractions.  The inverse, by extended Euclid over
Z[x], is checked against extended Euclid on Fraction lists.
"""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coxsol import chars, conjectures, cyclo, linalg
from coxsol.chars import (ClassFunction, NotLinear, alpha_element, alpha_parabolic,
                          commutator_subgroup, det_character, linear_character,
                          linear_characters, rotation_character, trivial_character)
from coxsol.conjectures import (SearchExhausted, check_intertwiner, construct_C, verify_a,
                                verify_b)
from coxsol.coxeter import (_NAMED, CoxeterGroup, CoxeterMatrix, build_group,
                            matrix_from_spec)
from coxsol.cyclo import (Cyclo, cos_pi_over, cyclotomic_polynomial, euler_phi,
                          rational, zeta)
from coxsol.descent import (DescentAlgebra, GroupAlgebraElement, NotIdempotent,
                            descent_algebra, parabolic_ideal_character,
                            rotation_idempotent)
from coxsol.orlik_solomon import (flat_shape_map, os_algebra, shape_component_character,
                                  top_component_character, top_component_tilde)
from oracles import (all_roots, averaging, check_idempotent_family, dense_element, descent_x,
                     e_shape, fixed_space, flat_rank, independent, inverse, nbc,
                     parabolic_fixed_space, pmul, power, quotient_linear_characters,
                     reduce_fractions, reflection_roots, sigma_parabolic, x_element)

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
    N, r = W.n_positive, W.rank
    # root i is alpha_i; only the positive roots are stored, and root k + N is -root k
    assert [linalg.vec_key(v) for v in W.roots[:r]] == [linalg.vec_key(v) for v in oracle.roots[:r]]
    assert len(W.roots) == N and W.n_roots == 2 * N
    # the same root set, relabelled by coordinates
    label = {linalg.vec_key(v): k for k, v in enumerate(all_roots(W))}
    assert len(label) == W.n_roots
    relabel = [label[linalg.vec_key(v)] for v in oracle.roots]
    assert sorted(relabel) == list(range(W.n_roots))
    # k < N exactly for the positive roots, and negatives pair off by +-N
    assert [k < N for k in relabel] == oracle.root_positive
    assert [(k + N) % (2 * N) for k in relabel] == [relabel[j] for j in oracle.root_negative_of]
    for i, g in enumerate(W.generators):
        assert [W.perms[g][k] for k in relabel] == [relabel[j] for j in oracle.perms[i]], (spec, i)


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
    form, roots = cyclotomic_form(W), all_roots(W)
    index = {linalg.vec_key(v): k for k, v in enumerate(roots)}
    for i, g in enumerate(W.generators):
        images = [index[linalg.vec_key(_apply_gen(form, i, v))] for v in roots]
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
    alg = os_algebra(W)
    lat = alg.lattice
    root = {t: W.roots[k] for t, k in reflection_roots(W).items()}
    for f in lat.flats:
        basis, pivots = linalg.rref([root[t] for t in f.key])
        assert len(basis) == f.rank, (spec, f.key)
        closure = {t for t in W.reflections
                   if linalg.coords_in_rowspace(basis, pivots, root[t]) is not None}
        assert closure == f.key, (spec, f.key)
        # the join with a new hyperplane covers the flat, so it is the closure
        for t in set(W.reflections) - f.key:
            g = lat.flats[lat.flat_of(f.key | {t})]
            assert g.rank == f.rank + 1 and f.key | {t} <= g.key, (spec, t)
    # the flat of W_L is the set of its reflections (Steinberg)
    for L in W.all_subsets():
        f = lat.flats[alg.parabolic_flat(L)]
        members = W.parabolic(L).members
        assert f.rank == len(L), (spec, L)
        assert f.key == {t for t in W.reflections if t in members}, (spec, L)


def orbit_walk_labels(W, lat, seed=None):
    """The labelling `flat_shape_map` replaced: the orbit of each shape's
    standard flat under the generators, the orbits checked to partition the
    flats.  With a seed, each walk starts at the flat of a conjugate
    x^-1 W_J x, x drawn with the seed, instead of the standard one."""
    draw = random.Random(seed) if seed is not None else None
    label = {}
    for sh in W.shapes():
        members = W.parabolic(sh.canonical).members
        x = draw.randrange(W.order) if draw else W.identity
        start = lat.by_key[frozenset(W.conj(t, x) for t in W.reflections if t in members)]
        orbit, frontier = {start}, [start]
        while frontier:
            key = lat.flats[frontier.pop()].key
            for g in W.generators:
                image = lat.by_key[frozenset(W.conj(t, g) for t in key)]
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        assert orbit.isdisjoint(label), (W.spec, sh)
        label.update(dict.fromkeys(orbit, sh.index))
    assert len(label) == len(lat.flats), W.spec
    return label


@pytest.mark.parametrize("spec,seed", [
    ("A3", None), ("B3", None), ("H3", None), ("A4", None), ("D4", None), ("B4", None),
    ("H3", 3), pytest.param("F4", None, marks=pytest.mark.slow)])
def test_flat_shapes_match_orbit_walk(spec, seed):
    W = build_group(spec)
    assert flat_shape_map(W) == orbit_walk_labels(W, os_algebra(W).lattice, seed)


@pytest.mark.parametrize("spec", GROUPS)
def test_rotations_match_powers(spec):
    W = build_group(spec)
    for a, b in itertools.combinations(range(W.rank), 2):
        m = W.matrix[a, b]
        st = W.mult(W.generators[a], W.generators[b])
        rot = W.rotations((a, b))
        assert rot == tuple(power(W, st, k) for k in range(m)), (spec, a, b)
        assert W.rotations((b, a)) is rot
        # the Cyclo-valued build rotation_character replaced; for m = 2 the
        # exponent map gives the same values as Fractions
        for j in range(m):
            got = rotation_character(W, (a, b), j)
            want = linear_character(W.subgroup(rot),
                                    {x: zeta(m, j * k) for k, x in enumerate(rot)})
            assert got == want, (spec, a, b, j)
            assert m == 2 or list(map(type, got.values)) == list(map(type, want.values))


def brute_nbc(W, lat, order):
    """Independent sets with no broken circuit in the given hyperplane order,
    from circuits found by ranks: a circuit is a dependent set whose proper
    subsets are all independent."""
    sets = [c for k in range(W.rank + 2) for c in itertools.combinations(order, k)]
    circuits = [c for c in sets if flat_rank(lat, c) == len(c) - 1
                and all(independent(lat, c[:i] + c[i + 1:]) for i in range(len(c)))]
    broken = [set(c[1:]) for c in circuits]
    return [c for c in sets if independent(lat, c) and not any(b <= set(c) for b in broken)]


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A1xI2(5)", "I2(7)", "A1xA3", "B4"])
def test_nbc_basis_matches_broken_circuits(spec):
    W = build_group(spec)
    alg = os_algebra(W)
    lat = alg.lattice
    for seed in (None, 1):
        oracle = nbc(alg, seed)
        want = brute_nbc(W, lat, oracle.order)
        assert [mono for level in oracle.nbc_basis for mono in level] == want, (spec, seed)
        # the NBC basis of W_L's arrangement is that of its flat, in the same order
        for L in W.all_subsets():
            fid = alg.parabolic_flat(L)
            got = oracle.monomials_of_flat(fid)
            assert got == [c for c in want if lat.flat_of(c) == fid], (spec, seed, L)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A4", "D4", "B4"]
                         + [f"I2({m})" for m in range(5, 9)])
def test_closed_form_straightening_matches_nbc(spec, seed):
    """The closed form, in the order of the reflections, against the NBC oracle
    in the seed's order: equal as elements of the algebra, and, unshuffled, equal
    coordinates, as the closed form's basis is the NBC basis of that order."""
    W = build_group(spec)
    alg = os_algebra(W)
    oracle = nbc(alg, seed)
    refl = sorted(W.reflections)
    for mono in [()] + [(t,) for t in refl] + list(itertools.product(refl, repeat=2)):
        closed = alg.straighten(mono)
        assert oracle.element(closed) == oracle.element({mono: Fraction(1)}), \
            (spec, seed, mono)
        if seed is None:
            assert closed == oracle.straighten(mono), (spec, mono)
    # in any order, the degree 2 NBC basis of a rank 2 flat is e_h0 e_h, h0 least
    for f in alg.lattice.flats:
        if f.rank == 2:
            h0, *rest = sorted(f.key, key=oracle.position.__getitem__)
            assert oracle.monomials_of_flat(f.id) == [(h0, h) for h in rest]


def _same_values(got, want) -> bool:
    return got == want and list(map(repr, got.values)) == list(map(repr, want.values))


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A4", "D4", "B4", "I2(5)", "I2(6)",
                                  "I2(7)", "A1xH3", "I2(4)xI2(5)",
                                  pytest.param("F4", marks=pytest.mark.slow)])
def test_moebius_characters_match_straightened_traces(spec):
    W = build_group(spec)
    alg = os_algebra(W)
    full = W.full()
    for seed in (None, 3):
        oracle = nbc(alg, seed)
        for sh in W.shapes():
            fids = [f.id for f in alg.lattice.flats if f.subset in sh.members]
            assert _same_values(shape_component_character(W, sh), oracle.component_character(
                fids, full)), (spec, seed, sh.canonical)
        assert _same_values(alg.whole_character(full), oracle.component_character(
            range(len(alg.lattice.flats)), full)), (spec, seed)
        for L in W.all_subsets():
            fid = [alg.parabolic_flat(L)]
            assert _same_values(top_component_character(W, L), oracle.component_character(
                fid, W.parabolic(L))), (spec, seed, L)
            assert _same_values(top_component_tilde(W, L), oracle.component_character(
                fid, W.normalizer_of_parabolic(L))), (spec, seed, L)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A4", "D4", "B4", "A1xI2(5)"])
def test_top_components_match_the_parabolics_own_algebras(spec):
    """The top component of W_L read in W's algebra, against the top component
    of W_L built as a Coxeter group of its own; a class of W_L is matched by a
    reduced word of its representative, whose letters all lie in L."""
    W = build_group(spec)
    for L in W.all_subsets()[1:]:
        V = CoxeterGroup(CoxeterMatrix([[W.matrix[a, b] for b in L] for a in L]))
        own = os_algebra(V)
        top = [f.id for f in own.lattice.flats if f.rank == V.rank]
        psi_own = own.component_character(top, V.full())
        letter = {s: i for i, s in enumerate(L)}
        psi = top_component_character(W, L)
        for c in W.parabolic(L).classes:
            v = V.prod(V.generators[letter[s]] for s in W.words[c.rep])
            assert psi.value(c.rep) == psi_own.value(v), (spec, L, W.word_str(c.rep))


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
                                    parabolic_fixed_space(W, J)), (spec, J)
        span, _ = linalg.rref([W.roots[j] for j in J])
        assert _matches_determinant(sigma_parabolic(W, J),
                                    W.complement_subgroup(J), span), (spec, J)
    for c in W.classes:
        assert _matches_determinant(alpha_element(W, c.rep), W.centralizer(c.rep),
                                    fixed_space(W, c.rep)), (spec, c.rep)


@pytest.mark.parametrize("spec", GROUPS)
def test_fix_dim_and_closure_match_fixed_spaces(spec):
    W = build_group(spec)
    for w in range(W.order):
        assert W.fix_dim(w) == len(fixed_space(W, w)), (spec, w)
    for c in W.classes:
        x, J = W.parabolic_closure(c.rep)
        assert set(W.words[W.conj(c.rep, x)]) == set(J)
        assert len(J) == W.rank - W.fix_dim(c.rep)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "D4", "A1xB3"])
def test_cuspidal_classes_match_fixed_spaces(spec):
    W = build_group(spec)
    for J in W.all_subsets():
        want = [c for c in W.parabolic(J).classes
                if len(fixed_space(W, c.rep)) == W.rank - len(J)]
        assert W.cuspidal_classes(J) == want, (spec, J)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(7)", "B4"])
def test_matrix_of_matches_the_reduced_words(spec):
    # s_i1 s_i2 ... s_ik applies its last letter first: s_i1 to the images
    # under the suffix, kept per suffix; matrix_of negates a stored root
    # wherever w sends a simple root negative
    W = build_group(spec)
    form = cyclotomic_form(W)
    images = {(): W.roots[:W.rank]}

    def image(word):
        if word not in images:
            images[word] = [_apply_gen(form, word[0], v) for v in image(word[1:])]
        return images[word]

    for w in range(W.order):
        assert ([linalg.vec_key(v) for v in W.matrix_of(w)]
                == [linalg.vec_key(v) for v in image(W.words[w])]), (spec, W.word_str(w))


def row_reduced_character(D, shape):
    """Trace of right translation on a row echelon basis of the span of the
    right translates of the shape idempotent."""
    W, uni = D.W, D.universe
    pos, members = uni.positions, uni.sorted_members
    e = e_shape(D, shape)
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
    trans = {J: set(W.transversal(J)) & D.universe.members for J in D.subsets}
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
                want = descent_x(D, J) * descent_x(D, K)
                assert D.element(D.product(basis[J], basis[K])) == want, (spec, L, J, K)
        uni = D.universe
        for K in D.subsets:
            xK = descent_x(D, K)
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
    eps = descent_algebra(W, L).e(L)
    assert all(eL.translate(n) == eL for n in NL.generators)
    assert eL * eps == eL
    f = eps * averaging(NL)
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
            want = dense_trace_character(e_shape(D, sh), D.universe).values
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
def test_elements_match_summed_x_basis(spec):
    W = build_group(spec)
    for L in W.all_subsets():
        D = descent_algebra(W, L)
        rows = D.m_inverse + [[int(I == J) for I in D.subsets] for J in D.subsets]
        for coords in rows:
            assert D.element(coords) == dense_element(D, coords), (spec, L, coords)


def check_factorization(spec):
    """e_L = x_L * z with z read off e_L's coordinates, all of them on subsets
    of L, and x_L fixed by the complement N_L."""
    W = build_group(spec)
    amb = descent_algebra(W)
    for L in W.all_subsets():
        rel, c = descent_algebra(W, L), amb.coords(L)
        assert all(set(K) <= set(L) for K, v in zip(amb.subsets, c) if v), (spec, L)
        z = rel.element([c[amb.subsets.index(J)] for J in rel.subsets])
        xL = x_element(W, L)
        assert xL * z == dense_element(amb, c), (spec, L)
        for n in W.complement_subgroup(L).generators:
            assert xL.translate(n) == xL, (spec, L, n)


@pytest.mark.parametrize("spec", GROUPS)
def test_idempotent_factors_through_the_parabolic(spec):
    check_factorization(spec)


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["A4", "D4", "B4"])
def test_rank_four_idempotents_factor_through_the_parabolic(spec):
    check_factorization(spec)


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
        check_idempotent_family(D)
        assert sum(phi.degree for phi in D.character_family().values()) == \
            D.universe.order


@pytest.mark.parametrize("spec", ["H3", "B3"])
def test_parabolic_ideal_characters_form_no_group_algebra_product(monkeypatch, spec):
    def refuse(self, other):
        raise AssertionError("Phi~ must not multiply or translate in the group algebra")

    monkeypatch.setattr(GroupAlgebraElement, "__mul__", refuse)
    monkeypatch.setattr(GroupAlgebraElement, "translate", refuse)
    W = CoxeterGroup(matrix_from_spec(spec))  # a fresh group with no algebras built
    for L in W.all_subsets():
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


def searched_subgroups(W):
    """The centralizers of W's classes, and the parabolics and their normalizers."""
    subgroups = {W.centralizer(c.rep) for c in W.full().classes}
    for J in W.all_subsets():
        subgroups |= {W.parabolic(J), W.normalizer_of_parabolic(J)}
    return subgroups


@pytest.mark.parametrize("spec", GROUPS + ["A4", "D4", "B4", "F4"])
def test_commutator_subgroups_match_all_pairs(spec):
    W = build_group(spec)
    for H in sorted(searched_subgroups(W), key=lambda H: H.sorted_members):
        assert commutator_subgroup(H) is dense_commutator_subgroup(H), (spec, H)


@pytest.mark.parametrize("spec", GROUPS + ["A4", "D4", "B4", "F4"])
def test_linear_characters_match_the_quotient_table(spec):
    W = build_group(spec)
    subgroups = searched_subgroups(W)
    for J in W.all_subsets():
        WJ = W.parabolic(J)
        subgroups |= {W.centralizer(c.rep, within=WJ) for c in WJ.classes}
    for H in sorted(subgroups, key=lambda H: H.sorted_members):
        got, want = linear_characters(H), quotient_linear_characters(H)
        assert got == want, (spec, H.sorted_members)
        assert [[type(v) for v in chi.values] for chi in got] == \
            [[type(v) for v in chi.values] for chi in want], (spec, H.sorted_members)


def elementwise_character(H, M, ex):
    """The build `exponent_character` replaced: a root of unity (or a sign)
    for every member, checked for multiplicativity by `linear_character`."""
    if M <= 2:
        values = {h: Fraction(1 if ex[h] == 0 else -1) for h in H.sorted_members}
    else:
        values = {h: zeta(M, ex[h]) for h in H.sorted_members}
    return linear_character(H, values)


@pytest.mark.parametrize("spec", GROUPS + ["A4", "D4", "B4", "A1xA1xI2(5)"])
def test_exponent_characters_match_elementwise_values(monkeypatch, spec):
    W = build_group(spec)
    for c in W.full().classes:
        C = W.centralizer(c.rep)
        got = linear_characters(C)
        with monkeypatch.context() as patched:
            patched.setattr(chars, "exponent_character", elementwise_character)
            want = linear_characters(C)
        assert got == want, (spec, c.rep)
        assert [[type(v) for v in chi.values] for chi in got] == \
            [[type(v) for v in chi.values] for chi in want], (spec, c.rep)


def test_linear_characters_form_no_cyclotomic_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("linear characters must not multiply roots of unity")

    for spec in ["A1xA1xI2(5)", "B4"]:
        W = build_group(spec)
        centralizers = [W.centralizer(c.rep) for c in W.full().classes]
        with monkeypatch.context() as patched:
            patched.setattr(Cyclo, "__mul__", refuse)
            patched.setattr(Cyclo, "__rmul__", refuse)
            for C in centralizers:
                assert linear_characters(C)[0] == trivial_character(C), spec


def all_members_intertwiner(W, L):
    """`check_intertwiner` testing st, w0 and every member of N_L, not only
    the generators of N_L."""
    a, b = L
    st = W.mult(W.generators[a], W.generators[b])
    return conjectures._intertwines_at(
        W, L, [st, W.parabolic(L).longest_element(),
               *(n for n in W.complement_subgroup(L).sorted_members if n != W.identity)])


def cyclo_coset_split(W, L):
    """The coset split as rotation character values, a Cyclo per member,
    checked by `linear_character`, with a reflection factor read from
    whichever side gives a linear character."""
    a, b = L
    m = W.matrix[a, b]
    st = W.mult(W.generators[a], W.generators[b])
    wL = W.parabolic(L).longest_element()
    out = []
    for j in range(1, (m - 1) // 2 + 1):
        chi = {power(W, st, k): zeta(m, j * k) for k in range(m)}
        C = W.centralizer(power(W, st, j))
        parts = {c: W.normalizer_factors(c, L)[0] for c in C.sorted_members}
        for side in (lambda u: W.mult(u, wL), lambda u: W.mult(wL, u)):
            try:
                phi = linear_character(C, {c: chi[u if u in chi else side(u)]
                                           for c, u in parts.items()})
                break
            except NotLinear:
                continue
        else:
            raise AssertionError(f"no coset split for {W.spec} at {L}")
        out.append((power(W, st, j), C, phi))
    return out


@pytest.mark.parametrize("spec", ["B3", "H3", "D4", "A1xH3"])
def test_coset_split_matches_cyclo_values(spec):
    W = build_group(spec)
    split = [L for L in W.all_subsets() if len(L) == 2
             and W.matrix[L[0], L[1]] % 2 and not W.is_bulky(L)]
    assert split, spec
    for L in split:
        got = construct_C(W, L)
        assert {a.route for a in got} == {"coset-split"}
        want = cyclo_coset_split(W, L)
        assert [(a.element, a.centralizer, a.phi) for a in got] == want, (spec, L)
        assert [list(map(type, a.phi.values)) for a in got] == \
            [list(map(type, phi.values)) for *_, phi in want], (spec, L)


def odd_dihedral_parabolics(W):
    return [L for L in W.all_subsets() if len(L) == 2 and W.matrix[L[0], L[1]] % 2]


@pytest.mark.parametrize("spec", ["A4", "D4", "B4", "A1xB3", "A1xH3",
                                  pytest.param("F4", marks=pytest.mark.slow)])
def test_intertwiner_generators_match_all_members(spec):
    W = build_group(spec)
    odd = odd_dihedral_parabolics(W)
    assert odd, spec
    for L in odd:
        assert check_intertwiner(W, L) is all_members_intertwiner(W, L) is True, (spec, L)


@pytest.mark.parametrize("spec", [f"I2({m})" for m in range(3, 12, 2)] +
                         ["A3", "B3", "H3", "A4", "D4", "A1xI2(5)", "A1xA3"])
def test_intertwiner_inverse_matches_span_solves(spec):
    """The a-side coordinates read off eigenlines, c times the sigma(j)-th unit
    vector, against a row reduction solving for them."""
    W = build_group(spec)
    odd = odd_dihedral_parabolics(W)
    assert odd, spec
    for L in odd:
        m = W.matrix[L[0], L[1]]
        rot = W.rotations(L)
        avecs, image = conjectures._a_side(W, L, [rotation_idempotent(W, L, j)
                                                  for j in range(m)])
        for w in conjectures._normalizer_generators(W, L):
            rw = W.conj(rot[1], w)
            assert rw in (rot[1], rot[-1]), (spec, L, w)
            for j in range(1, m):
                k = j if rw == rot[1] else m - j
                target = image(j, w)
                c = conjectures._multiple_of(target, avecs[k - 1])
                assert c is not None, (spec, L, w, j)
                assert [c if i == k else 0 for i in range(1, m)] == \
                    linalg.coords_in_span(avecs, target), (spec, L, w, j)


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


def test_search_cap_is_checked_before_inducing(monkeypatch):
    def refuse(self, target):
        raise AssertionError("an option was induced")

    W = build_group("A3")
    L = (0, 1, 2)
    WL = W.parabolic(L)
    monkeypatch.setattr(ClassFunction, "induce", refuse)
    monkeypatch.setattr(conjectures, "SEARCH_CAP", 0)
    with pytest.raises(SearchExhausted, match="exceed the search cap"):
        conjectures._search_pools(W, L, WL, None, None, trivial_character(WL),
                                  within=WL)


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
    return Cyclo(n, pmul(_in_field(x, n), _in_field(y, n)))


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


PMUL_CONDUCTORS = list(range(1, 13)) + [14, 18, 22, 24, 60]


@pytest.mark.parametrize("n", PMUL_CONDUCTORS)
def test_pmul_matches_fraction_products(n):
    phi, rng = euler_phi(n), random.Random(n)

    def draw(length):
        # zero coefficients, small and large denominators, and a huge numerator
        pool = [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 6),
                Fraction(1, 997), Fraction(-4, 997), Fraction(10 ** 30, 7),
                Fraction(-1, 10 ** 12)]
        return [rng.choice(pool) for _ in range(length)]

    operands = [draw(phi), draw(phi), draw(phi // 2 + 1), draw(2 * phi - 1),
                [], [Fraction(7, 3)], [Fraction(0)] * phi,
                [Fraction(0), Fraction(1, 997)], [Fraction(10 ** 30, 7)] + [Fraction(0)] * 2]
    for a in operands:
        for b in operands:
            P, d = cyclo._pmul(a, b)
            assert type(d) is int and d > 0
            assert all(type(c) is int for c in P)
            assert len(P) == (len(a) + len(b) - 1 if a and b else 0)
            got = cyclo._ptrim([Fraction(c, d) for c in P])
            assert got == pmul(a, b), (a, b)
            assert all(type(c) is Fraction for c in got)
            # the product reduced on integer numerators, against the Fraction fold
            red = cyclo._reduce(P, d, n)
            assert red == reduce_fractions(pmul(a, b), n), (a, b)
            assert all(type(c) is Fraction for c in red)


# -- reduction mod Phi_n against long division ---------------------------------------

def pdivmod_monic(p, d):
    """Quotient and remainder of p by a monic divisor d, by long division."""
    k = len(d) - 1
    p = list(p)
    q = [Fraction(0)] * max(len(p) - k, 0)
    for i in range(len(p) - 1, k - 1, -1):
        c = p[i]
        if c:
            q[i - k] = c
            for j in range(k + 1):
                p[i - k + j] -= c * d[j]
    return cyclo._ptrim(q), cyclo._ptrim(p[:k])


REDUCTION_CONDUCTORS = sorted(set(range(1, 61)) | {2 * m for m in range(1, 41)})


@pytest.mark.parametrize("n", REDUCTION_CONDUCTORS)
def test_reduction_table_matches_long_division(n):
    # lengths up to n + 2 phi(n) cover products (2 phi(n) - 1 terms), lifts and
    # Galois images (at most n terms) and over-long constructor input
    phi, rng = euler_phi(n), random.Random(n)
    table = cyclo._reduction_table(n)
    assert len(table) == n - phi
    assert all(type(c) is int for row in table for _, c in row)
    for length in range(n + 2 * phi + 1):
        p = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(length)]
        # Phi_n is monic with integer coefficients, so the division of 6p
        # (integer, as every denominator divides 6) stays in the integers
        _, r = pdivmod_monic([int(6 * c) for c in p], cyclotomic_polynomial(n))
        want = [Fraction(c, 6) for c in r] + [Fraction(0)] * (phi - len(r))
        got = cyclo._reduce(*cyclo._integer_numerators(p), n)
        assert got == tuple(want), (n, length)
        assert all(type(c) is Fraction for c in got)
        assert reduce_fractions(p, n) == tuple(want), (n, length)


def test_reduction_table_is_built_once_per_conductor():
    cyclo._reduction_table.cache_clear()
    rng = random.Random(0)
    for n in (7, 12, 22):
        xs = [Cyclo(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for _ in range(euler_phi(n))]) for _ in range(4)]
        products = [x * y for x in xs for y in xs]
        assert all(type(c) is Fraction for z in products for c in z.coeffs)
        assert all(type(c) is Fraction for x in xs for c in x.lifted(2 * n).coeffs)
    info = cyclo._reduction_table.cache_info()
    # one table each for 7, 12, 22 and 14: lifting from 7 to 14 gives 11 terms,
    # over phi(14) = 6, while lifts from 12 and 22 stay within phi(24), phi(44)
    assert info.misses == info.currsize == 4 and info.hits > 0


# -- inverses against extended Euclid on Fractions -----------------------------------

@pytest.mark.parametrize("n", PMUL_CONDUCTORS)
def test_inverse_matches_fraction_euclid(n):
    phi, rng = euler_phi(n), random.Random(n)
    pool = [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(1, 997), Fraction(10 ** 30, 7),
            Fraction(-1, 10 ** 12)]
    operands = [
        Cyclo(n, [6, 12]),                                    # content 6, 6 + 12 zeta
        Cyclo(n, [1] * (phi - 1) + [-3]),                     # negative leading coefficient
        Cyclo(n, [0] * (phi - 1) + [Fraction(-5, 3)]),        # a single nonzero term
        Cyclo(n, [Fraction(7, 3)]),                           # a rational
        Cyclo(n, [Fraction(1, 997), Fraction(10 ** 30, 7), Fraction(-1, 10 ** 12)]),
    ] + [Cyclo(n, [rng.choice(pool) for _ in range(phi)]) for _ in range(6)]
    for x in operands:
        if not x:
            continue
        got = x.inverse()
        assert got.conductor == n
        assert got.coeffs == inverse(x), x
        assert all(type(c) is Fraction and c.denominator > 0 for c in got.coeffs)
        assert x * got == 1
