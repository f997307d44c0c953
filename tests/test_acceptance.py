"""Acceptance suite: one test per criterion, every check exact.

The tests below rerun the package's central claims end to end: the dihedral
character tables, the idempotent and character identities of the descent
algebra, the Orlik-Solomon dimensions and characters, the three conjecture
verifications, the structural lemmas they rest on, brute force recomputation
of the group-theoretic primitives, and the NBC order independence.
"""

import itertools
import json
from fractions import Fraction

from coxsol.chars import (det_character, linear_characters, sign_character,
                          trivial_character, twist_character)
from coxsol.cli import main
from coxsol.conjectures import check_intertwiner, verify_a, verify_b, verify_c
from coxsol.coxeter import CoxeterGroup, CoxeterMatrix, build_group
from coxsol.descent import descent_algebra
from coxsol.chars import regular_character, rotation_character
from coxsol.orlik_solomon import (flat_shape_map, os_algebra,
                                  shape_component_character,
                                  whole_space_character)
from oracles import (averaging, check, check_idempotent_family, nbc,
                     parabolic_fixed_space, power, reflection_fix_character)

DIHEDRALS = [f"I2({m})" for m in range(2, 13)]
RANK3 = ["A3", "B3", "H3"]
ACCEPTANCE_SET = DIHEDRALS + RANK3 + ["A1", "A1xI2(5)"]


def all_subsets(rank):
    out = []
    for size in range(rank + 1):
        out += [tuple(c) for c in itertools.combinations(range(rank), size)]
    return out


# -- 1: dihedral character tables --------------------------------------------------------


def expected_dihedral_table(m):
    """The full table of both character families, instantiated per parity."""
    if m % 2:
        k = (m - 1) // 2
        columns = ["e", "s1"] + [f"(s1*s2)^{i}" for i in range(1, k + 1)]
        rows = [
            ("Phi[]", [1] * (2 + k)),
            ("Phi[s1]", [m, -1] + [0] * k),
            ("Phi[s1,s2]", [m - 1, 0] + [-1] * k),
            ("rho", [2 * m, 0] + [0] * k),
            ("Psi[]", [1] * (2 + k)),
            ("Psi[s1]", [m, 1] + [0] * k),
            ("Psi[s1,s2]", [m - 1, 0] + [-1] * k),
            ("omega", [2 * m, 2] + [0] * k),
        ]
    else:
        k = m // 2
        nrot = k - 1
        def x(a, b):
            return a if k % 2 == 0 else b
        columns = ["e", "s1", "s2", "w0"] + [f"(s1*s2)^{i}" for i in range(1, k)]
        rows = [
            ("Phi[]", [1] * (4 + nrot)),
            ("Phi[s1]", [k, x(0, -1), x(0, 1), -k] + [0] * nrot),
            ("Phi[s2]", [k, x(0, 1), x(0, -1), -k] + [0] * nrot),
            ("Phi[s1,s2]", [m - 1, -1, -1, m - 1] + [-1] * nrot),
            ("rho", [2 * m, 0, 0, 0] + [0] * nrot),
            ("Psi[]", [1] * (4 + nrot)),
            ("Psi[s1]", [k, x(2, 1), x(0, 1), k] + [0] * nrot),
            ("Psi[s2]", [k, x(0, 1), x(2, 1), k] + [0] * nrot),
            ("Psi[s1,s2]", [m - 1, 1, 1, m - 1] + [-1] * nrot),
            ("omega", [2 * m, 4, 4, 2 * m] + [0] * nrot),
        ]
    return columns, rows


def test_criterion_01_dihedral_table_reproduction(capsys):
    for m in range(2, 13):
        code = main(["table", f"I2({m})", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        columns, rows = expected_dihedral_table(m)
        assert data["columns"] == columns, f"columns differ at m={m}"
        got = [(r["label"], r["values"]) for r in data["rows"]]
        assert got == rows, f"table differs at m={m}"


# -- 2: descent algebra idempotents and their characters ---------------------------------


def test_criterion_02_idempotent_suite():
    for spec in DIHEDRALS + RANK3:
        W = build_group(spec)
        D = descent_algebra(W)
        check_idempotent_family(D)
        family = D.character_family()
        total = None
        for sh in D.shapes:
            cf = family[sh.index]
            total = cf if total is None else total + cf
        assert total == regular_character(W.full()), spec
        assert sum(cf.degree for cf in family.values()) == W.order, spec


# -- 3: the dihedral descent oracle ------------------------------------------------------


def test_criterion_03_dihedral_descent_oracle():
    for m in range(2, 13):
        W = build_group(f"I2({m})")
        D = descent_algebra(W)
        expected_m = [
            [Fraction(2 * m), 0, 0, 0],
            [Fraction(m), 2, 0, 0],
            [Fraction(m), 0, 2, 0],
            [Fraction(1), 1, 1, 1],
        ]
        expected_inv = [
            [Fraction(1, 2 * m), 0, 0, 0],
            [Fraction(-1, 4), Fraction(1, 2), 0, 0],
            [Fraction(-1, 4), 0, Fraction(1, 2), 0],
            [Fraction(m - 1, 2 * m), Fraction(-1, 2), Fraction(-1, 2), 1],
        ]
        assert D.m_matrix == expected_m, m
        assert D.m_inverse == expected_inv, m
        eS = D.e((0, 1))
        model = averaging(W.generated_subgroup([W.longest])) - averaging(W.full())
        assert eS == model, m


# -- 4: Orlik-Solomon dimensions and characters ------------------------------------------


def test_criterion_04_os_suite():
    for spec in DIHEDRALS + RANK3:
        W = build_group(spec)
        alg = os_algebra(W)
        full = W.full()
        assert sum(alg.dimensions) == W.order, spec
        rank1 = sorted(f.id for f in alg.lattice.flats if f.rank == 1)
        pi_a = reflection_fix_character(full)
        assert alg.component_character(rank1, full) == pi_a, spec
    for spec in DIHEDRALS:
        W = build_group(spec)
        full = W.full()
        pi_a = reflection_fix_character(full)
        one = trivial_character(full)
        assert whole_space_character(W) == pi_a * 2, spec
        D = descent_algebra(W)
        top = D.shape_of((0, 1))
        psi_s = shape_component_character(W, top)
        assert psi_s == pi_a - one, spec
        phi_s = D.ideal_character(top)
        assert psi_s == phi_s * sign_character(full), spec


# -- 5: conjecture B for ranks 0, 1 and the dihedral groups ------------------------------


def test_criterion_05_conjecture_b():
    W0 = CoxeterGroup(CoxeterMatrix([]))
    report = verify_b(W0)
    assert report.ok and report.status == "verified"

    W1 = build_group("A1")
    report = verify_b(W1)
    assert report.ok
    (a,) = report.assignments
    assert a.element == W1.generators[0]
    assert a.phi == sign_character(a.centralizer)
    assert a.psi == trivial_character(a.centralizer)

    for m in range(2, 13):
        W = build_group(f"I2({m})")
        report = verify_b(W)
        assert report.ok and report.status == "verified", m
        for label in ("descent-top-sum", "arrangement-top-sum", "psi-twist"):
            assert check(report, label), (m, label)
        st = W.mult(W.generators[0], W.generators[1])
        by_elem = {a.element: a for a in report.assignments}
        if m % 2:
            assert len(by_elem) == (m - 1) // 2
            for j in range(1, (m - 1) // 2 + 1):
                a = by_elem[power(W, st, j)]
                assert a.phi == rotation_character(W, (0, 1), j), (m, j)
                assert a.psi == a.phi, (m, j)
        else:
            assert len(by_elem) == m // 2
            for j in range(1, m // 2):
                a = by_elem[power(W, st, j)]
                assert a.phi == rotation_character(W, (0, 1), 2 * j), (m, j)
            a = by_elem[W.longest]
            assert a.centralizer.order == W.order
            assert a.phi == sign_character(a.centralizer), m
            assert a.psi == trivial_character(a.centralizer), m


# -- 6: conjecture C for all small subsets of the rank 3 groups --------------------------


def test_criterion_06_conjecture_c():
    routes = set()
    for spec in RANK3 + ["A1xI2(5)"]:
        W = build_group(spec)
        for L in all_subsets(W.rank):
            if len(L) > 2:
                continue
            report = verify_c(W, L)
            assert report.ok and report.status == "verified", (spec, L)
            routes |= {a.route for a in report.assignments}
            if len(L) == 2 and W.matrix[L[0], L[1]] % 2:
                assert check(report, "intertwiner"), (spec, L)
                assert check_intertwiner(W, L), (spec, L)
    assert {"product", "module", "coset-split"} <= routes


# -- 7: conjecture A for every group of rank at most two ---------------------------------


def test_criterion_07_conjecture_a():
    small = [CoxeterGroup(CoxeterMatrix([])), build_group("A1")]
    small += [build_group(spec) for spec in DIHEDRALS]
    for W in small:
        report = verify_a(W)
        assert report.ok and report.status == "verified", W.spec
        for label in ("class-partition", "regular-sum",
                      "arrangement-sum", "element-twist"):
            assert check(report, label), (W.spec, label)


# -- 8: structural lemmas ----------------------------------------------------------------


def permutation_sign(W, J, n):
    """Sign of the permutation of J induced by conjugation with n."""
    gen_index = {g: i for i, g in enumerate(W.generators)}
    images = []
    for j in J:
        img = W.conj(W.generators[j], n)
        images.append(J.index(gen_index[img]))
    sign = 1
    for i in range(len(images)):
        for k in range(i + 1, len(images)):
            if images[i] > images[k]:
                sign = -sign
    return Fraction(sign)


def test_criterion_08_structural_lemmas():
    for spec in DIHEDRALS + RANK3:
        W = build_group(spec)
        eps_all = {w: Fraction((-1) ** W.length(w)) for w in range(W.order)}
        for J in all_subsets(W.rank):
            WJ = W.parabolic(J)
            N = W.normalizer_of_parabolic(J)
            NJ = W.complement_subgroup(J)
            assert N.order == WJ.order * NJ.order, (spec, J)
            assert set(WJ.members) & set(NJ.members) == {W.identity}, (spec, J)
            twist = twist_character(W, J)
            al = det_character(W, N, parabolic_fixed_space(W, J))
            for n in NJ.members:
                expected = eps_all[n] * al(n)
                assert twist(n) == expected, (spec, J, n)
                assert permutation_sign(W, J, n) == expected, (spec, J, n)
            for c in W.cuspidal_classes(J):
                w = c.rep
                C = W.centralizer(w)
                CJ = W.centralizer(w, within=WJ)
                assert C.order == CJ.order * NJ.order, (spec, J, w)
                assert set(C.members) <= set(N.members), (spec, J, w)
                product = {W.mult(u, x) for u in WJ.sorted_members
                           for x in C.sorted_members}
                assert product == set(N.members), (spec, J, w)
                for chi in linear_characters(C):
                    lhs = chi.induce(N).restrict(WJ)
                    rhs = chi.restrict(CJ).induce(WJ)
                    assert lhs == rhs, (spec, J, w)


# -- 9: brute force recomputation of the group primitives --------------------------------


def brute_transversal(W, J):
    """Minimal length right coset representatives, by coset enumeration."""
    sub = sorted(W.parabolic(J).members)
    seen = set()
    reps = set()
    for w in range(W.order):
        if w in seen:
            continue
        coset = {W.mult(u, w) for u in sub}
        seen |= coset
        best = min(W.length(x) for x in coset)
        shortest = [x for x in coset if W.length(x) == best]
        assert len(shortest) == 1, "minimal coset representative not unique"
        reps.add(shortest[0])
    return reps


def test_criterion_09_brute_force_oracles():
    for spec in ACCEPTANCE_SET:
        W = build_group(spec)
        gens = set(W.generators)
        gen_index = {g: i for i, g in enumerate(W.generators)}
        for J in all_subsets(W.rank):
            xj = brute_transversal(W, J)
            assert xj == set(W.transversal(J)), (spec, J)
            sharp = {x for x in xj
                     if {W.conj(W.generators[j], x) for j in J} <= gens}
            images = W.subset_images(J)
            assert sharp == set(images), (spec, J)
            for x, K in images.items():
                assert {W.generators[k] for k in K} == \
                    {W.conj(W.generators[j], x) for j in J}, (spec, J, x)
                assert len(K) == len(J), (spec, J, x)
            # inside W_L, J^x can only consist of generators in L
            for L in all_subsets(W.rank):
                if set(J) <= set(L):
                    WL = W.parabolic(L)
                    in_L = {W.generators[k] for k in L}
                    want = {x for x in xj & WL.members
                            if {W.conj(W.generators[j], x) for j in J} <= in_L}
                    got = W.subset_images(J, within=WL)
                    assert set(got) == want, (spec, J, L)
                    assert all(got[x] == images[x] for x in got), (spec, J, L)

        subsets = all_subsets(W.rank)
        conjugate = {J: {J} for J in subsets}
        for J in subsets:
            for x in range(W.order):
                img = {W.conj(W.generators[j], x) for j in J}
                if img <= gens:
                    K = tuple(sorted(gen_index[t] for t in img))
                    conjugate[J].add(K)
        brute_shapes = {frozenset(v) for v in conjugate.values()}
        assert brute_shapes == {frozenset(sh.members) for sh in W.shapes()}, spec

        brute_classes = set()
        for w in range(W.order):
            brute_classes.add(frozenset(W.conj(w, x) for x in range(W.order)))
        assert brute_classes == {frozenset(c.members) for c in W.classes}, spec

        for c in W.classes:
            brute_cent = {x for x in range(W.order)
                          if W.mult(x, c.rep) == W.mult(c.rep, x)}
            assert brute_cent == set(W.centralizer(c.rep).members), (spec, c.rep)


# -- 10: NBC order independence ----------------------------------------------------------


def test_criterion_10_nbc_order_independence():
    for spec in ("I2(7)", "A3"):
        W = build_group(spec)
        full = W.full()
        alg = os_algebra(W)
        base, alt = nbc(alg), nbc(alg, 5)
        assert base.order != alt.order, spec
        assert [len(lv) for lv in base.nbc_basis] == \
               [len(lv) for lv in alt.nbc_basis] == alg.dimensions, spec
        shape_of = flat_shape_map(W)
        for sh in W.shapes():
            fids = sorted(f for f, i in shape_of.items() if i == sh.index)
            cf = alg.component_character(fids, full)
            # the Moebius character against the straightened NBC bases of two orders
            assert base.component_character(fids, full) == \
                alt.component_character(fids, full) == cf, (spec, sh.canonical)
