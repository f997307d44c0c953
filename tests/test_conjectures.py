"""Construction routes, verification reports and the dihedral table."""

import itertools
import math
from fractions import Fraction

import pytest

from coxsol import conjectures
from coxsol.coxeter import CoxeterGroup, CoxeterMatrix, build_group
from coxsol.chars import (ClassFunction, NotLinear, exponent_character, linear_characters,
                          rotation_character, sign_character, trivial_character)
from coxsol.conjectures import (UnsupportedCase, check_intertwiner, construct_C,
                                construct_parabolic_B, dihedral_table,
                                integer_vectors, subset_label, verify, verify_a,
                                verify_b, verify_c)
from coxsol.cyclo import Cyclo, zeta
from coxsol.descent import descent_algebra
from coxsol.orlik_solomon import top_component_character
from oracles import alpha_element, check, power


# -- base assignments --------------------------------------------------------------


def test_rank0_and_rank1_assignments():
    W = build_group("A1")
    out = construct_parabolic_B(W, ())
    assert len(out) == 1 and out[0].element == W.identity
    assert out[0].phi == trivial_character(W.parabolic(()))

    out = construct_parabolic_B(W, (0,))
    a = out[0]
    assert a.element == W.generators[0]
    assert a.phi == sign_character(W.full())
    assert a.psi == trivial_character(W.full())


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_odd_dihedral_assignments_are_rotation_characters(m):
    W = build_group(f"I2({m})")
    out = construct_parabolic_B(W, (0, 1))
    assert len(out) == (m - 1) // 2
    st = W.mult(W.generators[0], W.generators[1])
    for j, a in enumerate(out, start=1):
        assert a.element == power(W, st, j)
        assert a.phi == rotation_character(W, (0, 1), j)
        assert a.psi == a.phi  # sign is trivial on rotations
        assert a.centralizer.order == m


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_even_dihedral_assignments(m):
    W = build_group(f"I2({m})")
    out = construct_parabolic_B(W, (0, 1))
    k = m // 2
    assert len(out) == k
    st = W.mult(W.generators[0], W.generators[1])
    for j, a in enumerate(out[:-1], start=1):
        assert a.element == power(W, st, j)
        assert a.phi == rotation_character(W, (0, 1), 2 * j)
        assert a.centralizer.order == m
    last = out[-1]
    assert last.element == W.longest
    assert last.centralizer.order == 2 * m
    assert last.phi == sign_character(W.full())
    assert last.psi == trivial_character(W.full())


def test_even_dihedral_character_values_are_roots_of_unity():
    W = build_group("I2(6)")
    out = construct_parabolic_B(W, (0, 1))
    st = W.mult(W.generators[0], W.generators[1])
    assert out[0].phi(st) == zeta(6, 2)
    assert out[1].phi(st) == zeta(6, 4)


# -- construction routes for the normalizer assignments -----------------------------


def test_routes_match_the_subset_kind():
    cases = {
        ("A3", (0, 1)): "product",      # bulky pair
        ("A3", (0, 2)): "module",       # commuting pair with non central complement
        ("B3", (1, 2)): "coset-split",  # odd dihedral, non bulky
        ("H3", (0, 1)): "coset-split",
        ("H3", (0, 2)): "product",
        ("A1xI2(5)", (1, 2)): "product",
    }
    for (spec, L), route in cases.items():
        W = build_group(spec)
        out = construct_C(W, L)
        assert {a.route for a in out} == {route}, (spec, L)


def test_product_route_extends_base_characters():
    W = build_group("B3")
    base = construct_parabolic_B(W, (0, 1))
    lifted = construct_C(W, (0, 1))
    for b, a in zip(base, lifted):
        assert a.element == b.element
        assert b.centralizer.members <= a.centralizer.members
        assert a.phi.restrict(b.centralizer) == b.phi
        assert all(a.phi(n) == 1
                   for n in W.complement_subgroup((0, 1)).sorted_members)


def test_module_route_has_degree_one_characters():
    W = build_group("A3")
    out = construct_C(W, (0, 2))
    (a,) = out
    N = W.normalizer_of_parabolic((0, 2))
    assert a.centralizer.members == N.members
    assert a.phi(W.identity) == 1 and a.psi(W.identity) == 1


def test_coset_split_route_values():
    W = build_group("H3")
    out = construct_C(W, (0, 1))
    assert len(out) == 2
    st = W.mult(W.generators[0], W.generators[1])
    for j, a in enumerate(out, start=1):
        assert a.element == power(W, st, j)
        # on the rotation subgroup the character is the plain rotation character
        chi = rotation_character(W, (0, 1), j)
        for w in chi.carrier.sorted_members:
            assert a.phi(w) == chi(w)


def coset_split_rows():
    """(spec, L, j) for every non-bulky odd dihedral L of the groups, j up to (m-1)/2."""
    rows = []
    for spec in ["B3", "H3", "B4", "D4", "F4", "A1xH3", "A1xB3"]:
        W = build_group(spec)
        for L in itertools.combinations(range(W.rank), 2):
            m = W.matrix[L]
            if m % 2 and m > 2 and not W.is_bulky(L):
                rows += [(spec, L, j) for j in range(1, (m - 1) // 2 + 1)]
    return rows


def test_coset_split_row_count():
    assert len(coset_split_rows()) == 15


@pytest.mark.parametrize("spec,L,j", coset_split_rows())
def test_coset_split_reads_u_times_w_L(spec, L, j):
    # the route reads a reflection u as u * w_L; w_L * u gives the exponent -k
    # on the coset that swaps the roots of L, which does not add
    W = build_group(spec)
    assignment = construct_C(W, L)[j - 1]
    assert assignment.route == "coset-split"
    rot = W.rotations(L)
    m = len(rot)
    power = {x: k for k, x in enumerate(rot)}
    wL = W.parabolic(L).longest_element()
    C = assignment.centralizer
    assert assignment.element == rot[j]
    ex = {}
    for c in C.sorted_members:
        u, _ = W.normalizer_factors(c, L)
        ex[c] = j * power[u if u in power else W.mult(wL, u)] % m
    with pytest.raises(NotLinear):
        exponent_character(C, m, ex)


# -- the verifications --------------------------------------------------------------


@pytest.mark.parametrize("spec", ["A1", "I2(2)", "I2(3)", "I2(5)", "I2(6)",
                                  "I2(7)", "I2(12)"])
def test_verify_b_dihedral_corpus(spec):
    report = verify_b(build_group(spec))
    assert report.ok, report.lines()
    assert all(a.route in ("rank1", "dihedral") for a in report.assignments)


def test_verify_b_rank0():
    report = verify_b(CoxeterGroup(CoxeterMatrix([])))
    assert report.ok
    assert [a.route for a in report.assignments] == ["rank0"]


def test_verify_b_rank3_by_search():
    report = verify_b(build_group("A3"))
    assert report.ok, report.lines()
    assert {a.route for a in report.assignments} == {"search"}
    # the single cuspidal class of A3 is the one of the Coxeter element
    (a,) = report.assignments
    W = build_group("A3")
    cox = W.prod(W.generators)
    assert W.full().class_of(a.element) == W.full().class_of(cox)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_klyachko_top_characters_of_type_A(n):
    """Klyachko 1974: on S_n = A_{n-1}, the centralizer of the Coxeter element
    c = s1...s_{n-1} is <c>, and the top Phi is induced from the character
    phi_j(c^k) = zeta_n^(jk) exactly when gcd(j, n) = 1; then phi_j * eps *
    alpha_c induces the top Psi."""
    W = build_group(f"A{n - 1}")
    G, S = W.full(), tuple(range(W.rank))
    c = W.prod(W.generators)
    C = W.centralizer(c)
    assert C.members == W.generated_subgroup([c]).members and C.order == n
    D = descent_algebra(W)
    phi_top = D.ideal_character(D.shape_of(S))
    psi_top = top_component_character(W, S)
    twist = sign_character(C) * alpha_element(W, c).restrict(C)
    powers = [power(W, c, k) for k in range(n)]
    for j in range(n):
        phi = exponent_character(C, n, {x: j * k for k, x in enumerate(powers)})
        faithful = math.gcd(j, n) == 1
        assert (phi.induce(G) == phi_top) == faithful, (n, j)
        assert ((phi * twist).induce(G) == psi_top) == faithful, (n, j)


@pytest.mark.parametrize("spec,L", [
    ("A3", ()), ("A3", (0,)), ("A3", (0, 1)), ("A3", (0, 2)),
    ("B3", (1,)), ("B3", (0, 1)), ("B3", (1, 2)),
    ("A1xI2(5)", (0, 1)), ("A1xI2(5)", (1, 2)),
    ("H3", (0, 1)), ("H3", (0, 2)), ("H3", (1, 2)),
])
def test_verify_c_corpus(spec, L):
    report = verify_c(build_group(spec), L)
    assert report.ok, "\n".join(report.lines())


@pytest.mark.parametrize("spec,L", [
    ("A3", (0, 2)), ("A3", (0, 1, 2)), ("B3", (1, 2)), ("H3", (0, 1)), ("I2(9)", (0, 1)),
])
def test_verify_c_induces_each_character_once(monkeypatch, spec, L):
    # with k assignments: k each for the two tilde sums and the two restricted
    # sums, which the mackey check shares, and 2 for the tilde induction
    induce, construct = ClassFunction.induce, conjectures.construct_C
    calls, made = [0], []

    def counted(self, target):
        calls[0] += 1
        return induce(self, target)

    def constructed(W, L):
        out = construct(W, L)
        calls[0] = 0  # the search pools induce their options; count the checks only
        made.append(len(out))
        return out

    monkeypatch.setattr(ClassFunction, "induce", counted)
    monkeypatch.setattr(conjectures, "construct_C", constructed)
    assert verify_c(build_group(spec), L).status == "verified"
    assert calls[0] == 4 * made[0] + 2, (calls, made)


def test_verify_c_report_structure():
    report = verify_c(build_group("A3"), (0, 2))
    labels = [lab for lab, _, _ in report.checks]
    for expected in ["construction", "cuspidal-coverage",
                     "centralizers-in-normalizer", "descent-tilde-sum",
                     "arrangement-tilde-sum", "psi-twist", "tilde-twist",
                     "tilde-restriction", "tilde-induction",
                     "restriction-assignments", "mackey", "degrees"]:
        assert expected in labels
    assert check(report, "mackey") is True
    data = report.as_dict()
    assert data["conjecture"] == "C" and data["L"] == "s1,s3"
    assert data["ok"] is True


def test_mackey_fails_when_the_centralizers_miss_the_normalizer(monkeypatch):
    """Shrink the first centralizer C to its part inside W_L = <s1, s3>, with
    phi and psi restricted to it: then W_L * C = W_L, and |W_L| |C| = 16 is
    not |N| |W_L cap C| = 32, which the mackey check reports.  Res_{W_L} of
    phi induced to N then has twice the degree of the local sum, so the
    character half of the check fails as well."""
    construct = conjectures.construct_C

    def shrunk(W, L):
        out = construct(W, L)
        a = out[0]
        local = W.centralizer(a.element, within=W.parabolic(L))
        assert local.members < a.centralizer.members
        a.centralizer, a.phi, a.psi = local, a.phi.restrict(local), a.psi.restrict(local)
        return out

    monkeypatch.setattr(conjectures, "construct_C", shrunk)
    W = build_group("A3")
    report = verify_c(W, (0, 2))
    assert check(report, "mackey") is False
    assert report.status == "failed"


@pytest.mark.parametrize("which,spec,order", [
    ("a", "A4", 120), ("a", "D4", 192), ("b", "B4", 384), ("b", "I2(5)xI2(4)", 80),
    pytest.param("a", "B4", 384, marks=pytest.mark.slow),
    pytest.param("b", "F4", 1152, marks=pytest.mark.slow),
    pytest.param("a", "F4", 1152, marks=pytest.mark.slow),
])
def test_verify_rank4(which, spec, order):
    W = build_group(spec)
    assert W.order == order
    report = verify(W, which)
    assert report.status == "verified", "\n".join(report.lines())
    reports = [report] + report.subreports
    assert all(diff.is_zero() for r in reports for diff in r.residuals.values())
    assert all(r.residuals for r in reports)


@pytest.mark.parametrize("spec", ["A1", "I2(2)", "I2(4)", "I2(5)", "I2(6)",
                                  "I2(9)"])
def test_verify_a_rank_le_2(spec):
    report = verify_a(build_group(spec))
    assert report.ok, "\n".join(report.lines())
    assert check(report, "class-partition")
    assert check(report, "regular-sum")
    assert check(report, "arrangement-sum")
    assert check(report, "element-twist")


@pytest.mark.parametrize("spec", ["A3", "B3", "H3"])
def test_verify_a_rank3(spec):
    report = verify_a(build_group(spec))
    assert report.status == "verified", "\n".join(report.lines())
    for label in ("class-partition", "regular-sum", "arrangement-sum",
                  "element-twist"):
        assert check(report, label), label
    assert len(report.subreports) == len(report.W.shapes())


def test_verify_a_subreports_cover_all_shapes():
    W = build_group("I2(6)")
    report = verify_a(W)
    assert len(report.subreports) == len(W.shapes())
    total = sum(len(sub.assignments) for sub in report.subreports)
    assert total == len(W.full().classes)


def test_verify_dispatch():
    W = build_group("A1")
    assert verify(W, "b").name == "B"
    assert verify(W, "C", (0,)).name == "C"
    with pytest.raises(UnsupportedCase):
        verify(W, "C")
    with pytest.raises(UnsupportedCase):
        verify(W, "Z")


# -- the intertwiner ------------------------------------------------------------------


@pytest.mark.parametrize("spec,L", [
    ("I2(3)", (0, 1)), ("I2(5)", (0, 1)), ("I2(7)", (0, 1)),
    ("A3", (0, 1)), ("B3", (1, 2)), ("H3", (0, 1)), ("H3", (1, 2)),
    ("A1xI2(5)", (1, 2)),
    pytest.param("I2(13)", (0, 1), marks=pytest.mark.slow),
])
def test_intertwiner_odd_pairs(spec, L):
    assert check_intertwiner(build_group(spec), L)


@pytest.mark.parametrize("spec", ["I2(7)", "H3"])
def test_intertwiner_fails_with_the_wrong_twist(monkeypatch, spec):
    twist = conjectures.twist_character
    monkeypatch.setattr(conjectures, "twist_character", lambda W, L: -1 * twist(W, L))
    assert check_intertwiner(build_group(spec), (0, 1)) is False


@pytest.mark.parametrize("spec,L", [("I2(7)", (0, 1)), ("H3", (0, 1)), ("A3", (1, 2))])
def test_intertwiner_fails_off_the_eigenline(monkeypatch, spec, L):
    """An a-side image pushed off the line of a_L f_sigma(j), by adding 1 to
    its last entry, is refused, though the entry c is read from is unchanged
    wherever a_L f_sigma(j) has a nonzero entry before the last."""
    a_side = conjectures._a_side

    def pushed(W, L, fs):
        avecs, image = a_side(W, L, fs)
        return avecs, lambda j, w: [*image(j, w)[:-1], image(j, w)[-1] + 1]

    W = build_group(spec)
    assert check_intertwiner(W, L)
    monkeypatch.setattr(conjectures, "_a_side", pushed)
    assert check_intertwiner(W, L) is False


def test_intertwiner_refuses_an_element_moving_the_rotation():
    """s3 neither fixes nor inverts the rotation s1 s2 of A3; the rotation
    itself passes."""
    W = build_group("A3")
    rot = W.rotations((0, 1))
    assert W.conj(rot[1], W.generators[2]) not in (rot[1], rot[-1])
    assert conjectures._intertwines_at(W, (0, 1), [rot[1]]) is True
    assert conjectures._intertwines_at(W, (0, 1), [W.generators[2]]) is False


def test_intertwiner_rejects_even_m():
    with pytest.raises(UnsupportedCase):
        check_intertwiner(build_group("B3"), (0, 1))


# -- the dihedral table ----------------------------------------------------------------


def test_table_odd_layout():
    data = dihedral_table(build_group("I2(5)"))
    assert data["columns"] == ["e", "s1", "(s1*s2)^1", "(s1*s2)^2"]
    rows = {r["label"]: r["values"] for r in data["rows"]}
    assert rows["Phi[]"] == [1, 1, 1, 1]
    assert rows["Phi[s1]"] == [5, -1, 0, 0]
    assert rows["Phi[s1,s2]"] == [4, 0, -1, -1]
    assert rows["rho"] == [10, 0, 0, 0]
    assert rows["Psi[s1]"] == [5, 1, 0, 0]
    assert rows["Psi[s1,s2]"] == [4, 0, -1, -1]
    assert rows["omega"] == [10, 2, 0, 0]


def test_table_even_layout():
    data = dihedral_table(build_group("I2(6)"))
    assert data["columns"] == ["e", "s1", "s2", "w0", "(s1*s2)^1", "(s1*s2)^2"]
    rows = {r["label"]: r["values"] for r in data["rows"]}
    # k = 3 is odd: the two singleton ideal characters take values -1 and +1
    # on their own reflection class
    assert rows["Phi[s1]"] == [3, -1, 1, -3, 0, 0]
    assert rows["Phi[s2]"] == [3, 1, -1, -3, 0, 0]
    assert rows["Psi[s1]"] == [3, 1, 1, 3, 0, 0]
    assert rows["Phi[s1,s2]"] == [5, -1, -1, 5, -1, -1]
    assert rows["Psi[s1,s2]"] == [5, 1, 1, 5, -1, -1]
    assert rows["omega"] == [12, 4, 4, 12, 0, 0]


def test_table_even_k_even():
    rows = {r["label"]: r["values"] for r in dihedral_table(build_group("I2(4)"))["rows"]}
    assert rows["Phi[s1]"] == [2, 0, 0, -2, 0]
    assert rows["Psi[s1]"] == [2, 2, 0, 2, 0]


def test_row_consistency_phi_sum_is_regular():
    for m in (5, 8):
        data = dihedral_table(build_group(f"I2({m})"))
        rows = {r["label"]: r["values"] for r in data["rows"]}
        phis = [v for lab, v in rows.items() if lab.startswith("Phi")]
        summed = [sum(col) for col in zip(*phis)]
        assert summed == rows["rho"]


def test_subset_label():
    assert subset_label(()) == ""
    assert subset_label((0, 2)) == "s1,s3"


def test_assignment_as_dict():
    W = build_group("A1")
    (a,) = construct_parabolic_B(W, (0,))
    d = a.as_dict(W)
    assert d["L"] == "s1"
    assert d["element"] == "s1"
    assert d["centralizer_order"] == 2
    assert d["route"] == "rank1"
    assert d["phi"]["classes"] == ["e", "s1"]
    assert d["phi"]["values"] == [{"conductor": 1, "coeffs": [["1", "1"]]},
                                  {"conductor": 1, "coeffs": [["-1", "1"]]}]
    assert d["psi"]["values"] == [{"conductor": 1, "coeffs": [["1", "1"]]},
                                  {"conductor": 1, "coeffs": [["1", "1"]]}]


# -- the integer vectors behind the search -----------------------------------------


def test_integer_vectors_are_canonical():
    q = Fraction(-3, 4)
    a, b = integer_vectors([[q, Fraction(1)], [Cyclo(7, [q]), Cyclo(3, [1])]])
    assert a == b
    z = zeta(5, 2) * Fraction(1, 3) + 1
    a, b = integer_vectors([[z], [z.lifted(10)]])
    assert a == b
    # a sum of rows has the sum of their vectors
    x, y = zeta(4) + Fraction(1, 2), zeta(6, 5)
    vx, vy, vs = integer_vectors([[x], [y], [x + y]])
    assert vs == tuple(map(sum, zip(vx, vy)))


def test_integer_vectors_tell_class_functions_apart():
    W = build_group("B3")
    C = W.centralizer(W.prod(W.generators))
    cfs = [chi.induce(W.full()) for chi in linear_characters(C)]
    cfs += [chi * 2 for chi in cfs]
    keys = integer_vectors([cf.values for cf in cfs])
    assert len(set(keys)) > 2
    for a, ka in zip(cfs, keys):
        for b, kb in zip(cfs, keys):
            assert (ka == kb) == (a == b)
