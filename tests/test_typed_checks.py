"""Checks the verifier depends on raise typed exceptions, also under python -O."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coxsol
from coxsol import conjectures, orlik_solomon
from coxsol.chars import (ClassFunction, NotInvariant, NotLinear, linear_character,
                          linear_characters, rotation_character, sign_character)
from coxsol.cli import main
from coxsol.conjectures import (Assignment, construct_parabolic_B, PrerequisiteFailed,
                                verify_b, verify_c)
from coxsol.coxeter import (CoxeterGroup, CoxeterMatrix, NotClosed, NotNormalizing,
                            Shape, build_group, matrix_from_spec)
from coxsol.descent import NotIdempotent, descent_algebra, parabolic_ideal_character
from coxsol.orlik_solomon import IntersectionLattice, OrbitMismatch, RankGuard, os_algebra
from oracles import check, from_json

BAD_INPUTS = """
import sys
from fractions import Fraction
from coxsol.chars import NotLinear, exponent_character, linear_character
from coxsol.coxeter import CoxeterMatrix, NotClosed, build_group
from coxsol.descent import DescentAlgebra, NotIdempotent, parabolic_ideal_character
from coxsol.conjectures import MalformedTable, _as_int
from coxsol.orlik_solomon import (NotDihedral, NotInvariant, dihedral_hyperplane_angles,
                                  os_algebra)

W = build_group("A2")
G = W.full()
caught = ["optimize=%d" % sys.flags.optimize]
try:
    linear_character(G, {w: Fraction(0) for w in G.members})
except NotLinear:
    caught.append("zero-function")
try:
    exponent_character(G, 2, {w: int(W.lengths[w] == 1) for w in G.members})
except NotLinear:
    caught.append("non-additive-exponents")
alg = os_algebra(W)
line = next(f.id for f in alg.lattice.flats if f.rank == 1)
try:
    alg.component_character([line], G)
except NotInvariant:
    caught.append("one-line")
D = DescentAlgebra(W)
D.m_inverse = [[2 * v for v in row] for row in D.m_inverse]
try:
    D.ideal_character(D.shapes[-1])
except NotIdempotent:
    caught.append("doubled-idempotent")
W3 = build_group("A3")
W3.complement_subgroup = lambda J: W3.parabolic(())
try:
    parabolic_ideal_character(W3, (0,))
except NotInvariant:
    caught.append("trivial-complement")
try:
    _as_int(Fraction(1, 2))
except MalformedTable:
    caught.append("half-in-table")
try:
    dihedral_hyperplane_angles(build_group("A3"))
except NotDihedral:
    caught.append("rank-three-angles")
W5 = build_group("I2(5)")
W5.matrix = CoxeterMatrix([[1, 4], [4, 1]])
try:
    W5.rotations((0, 1))
except NotClosed:
    caught.append("rotation-of-order-5-as-4")
print(" ".join(caught))
"""


def test_bad_inputs_raise_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxsol.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", BAD_INPUTS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimize=1", "zero-function",
                                   "non-additive-exponents", "one-line",
                                   "doubled-idempotent", "trivial-complement",
                                   "half-in-table", "rank-three-angles",
                                   "rotation-of-order-5-as-4"]


def test_the_package_has_no_assert_statement():
    # python -O strips assert statements, so a check written as one vanishes
    package = Path(coxsol.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found


def _imported_modules(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_the_package_does_not_import_random():
    # identical invocations print byte-identical output, so nothing is drawn
    package = Path(coxsol.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if any(name.split(".")[0] == "random" for name in _imported_modules(node))]
    assert not found


@pytest.mark.parametrize("m", [4, 6])
def test_rotation_of_another_order_is_refused(m):
    W = CoxeterGroup(matrix_from_spec("I2(5)"))
    W.matrix = CoxeterMatrix([[1, m], [m, 1]])
    with pytest.raises(NotClosed):
        W.rotations((0, 1))
    with pytest.raises(NotClosed):
        rotation_character(W, (0, 1), 1)


def test_flat_from_subsets_of_two_shapes_is_refused(monkeypatch):
    # s1 and s2 of A2 are conjugate, so taking them for two shapes makes the
    # line of each reflection come from both
    W = CoxeterGroup(matrix_from_spec("A2"))
    split = [Shape(J, frozenset({J}), i) for i, J in enumerate(W.all_subsets())]
    monkeypatch.setattr(W, "shapes", lambda within=None: split)
    with pytest.raises(OrbitMismatch):
        IntersectionLattice(W)


def test_linear_character_carrier_and_identity():
    W = build_group("A2")
    G = W.full()
    with pytest.raises(NotLinear):
        linear_character(G, {w: Fraction(0) for w in G.members})
    with pytest.raises(NotLinear):
        linear_character(G, {W.identity: Fraction(1)})


def test_component_of_one_line_is_not_invariant():
    W = build_group("A2")
    alg = os_algebra(W)
    line = next(f.id for f in alg.lattice.flats if f.rank == 1)
    with pytest.raises(NotInvariant):
        alg.component_character([line], W.full())
    # the subgroup fixing that line does preserve its component
    (t,) = alg.lattice.flats[line].key
    assert alg.component_character([line], W.generated_subgroup([t])).degree == 1


def test_root_span_sign_needs_a_normalizing_element():
    W = build_group("A3")
    s1, s2 = W.generators[:2]
    assert W.det_on_root_span(s1, (0,)) == -1
    with pytest.raises(NotNormalizing):
        W.det_on_root_span(s2, (0,))
    with pytest.raises(NotNormalizing):
        W.normalizer_factors(s2, (0,))


@pytest.mark.parametrize("spec", ["A3", "B3", "I2(7)", "A1xI2(5)"])
def test_normalizer_factors(spec):
    W = build_group(spec)
    for L in W.all_subsets():
        WL = W.parabolic(L)
        N = W.normalizer_of_parabolic(L)
        complement = W.complement_subgroup(L).members
        for c in range(W.order):
            if c not in N.members:
                with pytest.raises(NotNormalizing):
                    W.normalizer_factors(c, L)
                continue
            u, d = W.normalizer_factors(c, L)
            assert W.mult(u, d) == c and u in WL.members and d in complement
            assert W.lengths[d] == min(W.lengths[W.mult(v, c)] for v in WL.members)


def test_rank_guard_comes_before_the_lattice(monkeypatch):
    A5 = [[1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(5)]
          for i in range(5)]
    W = CoxeterGroup(CoxeterMatrix(A5))
    monkeypatch.setattr(orlik_solomon, "IntersectionLattice",
                        lambda W: pytest.fail("a rank-5 lattice was built"))
    with pytest.raises(RankGuard):
        os_algebra(W)


def test_parabolic_ideal_needs_the_normalizer(monkeypatch):
    W = CoxeterGroup(matrix_from_spec("A3"))
    monkeypatch.setattr(W, "normalizer_of_parabolic", lambda J: W.full())
    with pytest.raises(NotInvariant):
        parabolic_ideal_character(W, (0,))


def _set_row(alg, J, coords):
    """Put coords in place of the coordinates of the subset idempotent e_J of
    a descent algebra: its row of the inverse incidence matrix."""
    alg.m_inverse[alg.subsets.index(J)] = list(coords)


def _set_e(W, L, J):
    """Put the coordinates of e_J of W in place of those of e_L."""
    amb = descent_algebra(W)
    _set_row(amb, L, amb.coords(J))


def _e_off_L(W, L, J):
    """Add 1 to e_L's coordinate at J, a subset that is not inside L."""
    amb = descent_algebra(W)
    row = list(amb.coords(L))
    row[amb.subsets.index(J)] += 1
    _set_row(amb, L, row)


# Each way of breaking the certificate for Phi~ of A3, at L = (s1,) unless
# given, with the check that catches it: N = W_L * N_L, eps_L * eps_L = eps_L,
# e_L supported on the subsets of L, eps_L and pi(e_L) fixed under
# conjugation by N_L, pi(e_L) * eps_L = pi(e_L), and eps_L * pi(e_L) * eps_L a
# nonzero multiple of eps_L.
BROKEN_CERTIFICATES = {
    "trivial-complement": (
        (0,), lambda W, L, rel: setattr(W, "complement_subgroup",
                                        lambda J: W.parabolic(())),
        NotInvariant, "W_L times its complement"),
    "doubled-eps": ((0,), lambda W, L, rel: _set_row(rel, L,
                                                     [2 * v for v in rel.coords(L)]),
                    NotIdempotent, "square to itself"),
    "empty-eps": ((0,), lambda W, L, rel: _set_row(rel, L, rel.coords(())),
                  NotInvariant, "fixed by the complement"),
    # x_L = 1, the unit of the relative algebra
    "unit-eps": ((0,), lambda W, L, rel: _set_row(rel, L,
                                                  [int(J == L) for J in rel.subsets]),
                 NotInvariant, "nonzero multiple"),
    # e_L = 0: every check on e_L holds, but pi(e_L) = 0
    "traceless-e": ((0,), lambda W, L, rel: _set_row(descent_algebra(W), L,
                                                     [0] * 2 ** W.rank),
                    NotInvariant, "nonzero multiple"),
    # e_(s1) of W_L = <s1, s3> is idempotent, but the complement swaps s1
    # and s3, so it moves e_(s1) to e_(s3), and f * f = f / 2
    "unfixed-eps": ((0, 2), lambda W, L, rel: _set_row(rel, L, rel.coords((0,))),
                    NotIdempotent, "square to itself"),
    # e_(s2) is not fixed by s3, which generates the complement of <s1>; its
    # coordinate at (s2,) lies off the subsets of L, which is caught first
    "e-moved-by-complement": ((0,), lambda W, L, rel: _set_e(W, L, (1,)),
                              NotInvariant, "subset that is not inside L"),
    # only the support is broken: pi(e_L) reads the subsets of L alone, so
    # every other check holds
    "e-off-L": ((0,), lambda W, L, rel: _e_off_L(W, L, (1,)),
                NotInvariant, "subset that is not inside L"),
    # e_() averages over W, so eps_L, the sign idempotent of <s1>, kills it
    "eps-kills-e": ((0,), lambda W, L, rel: _set_e(W, L, ()),
                    NotInvariant, r"e_L \* eps_L is not e_L"),
    # pi(e_(s1)) is not fixed by the swap of s1 and s3, which generates the
    # complement of <s1, s3>; e_L * n = e_L is read off that same check
    "moved-pi-e": ((0, 2), lambda W, L, rel: _set_e(W, L, (0,)),
                   NotInvariant, r"moves pi\(e_L\)"),
    # s1 * s3 fixes the reflection s1 but sends alpha_1 to -alpha_1; N is still
    # W_L times <s1 * s3>, yet f = eps_L * (1 + s1 s3) / 2 = (1 - s1)(1 - s3) / 4
    # would give sign x sign where the true Phi~ is sign x trivial
    "negating-complement": (
        (0,), lambda W, L, rel: setattr(
            W, "complement_subgroup",
            lambda J: W.generated_subgroup([W.mult(*W.generators[0:3:2])])),
        NotInvariant, "permute the simple roots of L"),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_CERTIFICATES))
def test_broken_normalizer_certificate(broken):
    W = CoxeterGroup(matrix_from_spec("A3"))
    L, breaker, error, match = BROKEN_CERTIFICATES[broken]
    breaker(W, L, descent_algebra(W, L))
    with pytest.raises(error, match=match):
        parabolic_ideal_character(W, L)


def test_complement_must_be_closed(monkeypatch):
    W = CoxeterGroup(matrix_from_spec("A3"))
    s2, s3 = W.generators[1:]
    monkeypatch.setattr(W, "complement_in_normalizer",
                        lambda J: [W.identity, s2, s3])
    with pytest.raises(NotClosed):
        W.complement_subgroup((0,))


def test_uncovered_cuspidal_class_fails_verification(monkeypatch):
    # the construction runs; the coverage check of verify_b catches the gap
    W = build_group("I2(5)")
    dihedral = conjectures._dihedral_B
    monkeypatch.setattr(conjectures, "_dihedral_B",
                        lambda W, L: dihedral(W, L)[:-1])
    report = verify_b(W)
    assert report.status == "failed" and check(report, "construction")
    assert not check(report, "cuspidal-coverage")


def test_rotation_on_the_wrong_carrier_fails_verification(monkeypatch):
    W = build_group("I2(5)")
    monkeypatch.setattr(conjectures, "rotation_character",
                        lambda W, L, j: rotation_character(W, L, j).restrict(
                            W.parabolic(())))
    with pytest.raises(PrerequisiteFailed):
        construct_parabolic_B(W, (0, 1))
    report = verify_b(W)
    assert report.status == "failed" and not check(report, "construction")


def test_lift_that_misses_its_base_fails_verification(monkeypatch):
    W = build_group("A3")
    assert W.is_bulky((0,))
    # the sign in place of alpha: psi no longer restricts to the base psi
    monkeypatch.setattr(conjectures, "alpha_parabolic",
                        lambda W, L: sign_character(W.normalizer_of_parabolic(L)))
    report = verify_c(W, (0,))
    assert report.status == "failed" and not check(report, "construction")
    assert "restrict" in report.checks[0][2]


def test_a_twisted_assignment_fails_verify_b_through_the_cli(monkeypatch, capsys):
    # phi * eps in place of phi on the first assignment: the descent sum and
    # the twist fail, while the arrangement sum and the degrees still hold
    search = conjectures.construct_parabolic_B

    def twisted(W, L):
        a, *rest = search(W, L)
        return [Assignment(a.L, a.element, a.centralizer,
                           a.phi * sign_character(a.centralizer), a.psi, a.route), *rest]

    monkeypatch.setattr(conjectures, "construct_parabolic_B", twisted)
    assert main(["verify", "b", "B3"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "failed"
    assert [c["label"] for c in data["checks"] if not c["ok"]] == \
        ["descent-top-sum", "psi-twist"]


PARITY = [("verify", "a", "A3"), ("verify", "a", "B3"), ("table", "I2(7)")]


def test_cli_output_is_the_same_under_optimize():
    """The product, module and coset-split routes, with the dihedral base
    assignments under the product lifts, print the same under python -O."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxsol.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    routes = set()
    for argv in PARITY:
        runs = [subprocess.run([sys.executable, *flags, "-m", "coxsol.cli", *argv],
                               capture_output=True, env=env, timeout=300)
                for flags in ([], ["-O"])]
        plain, optimized = runs
        assert plain.returncode == optimized.returncode == 0, argv
        assert plain.stdout == optimized.stdout, argv
        if argv[0] == "verify":
            for case in json.loads(plain.stdout)["cases"]:
                routes |= {a["route"] for a in case.get("assignments", {}).values()}
    assert {"product", "module", "coset-split"} <= routes


def test_module_route_needs_the_centralizer_to_be_the_normalizer(monkeypatch, capsys):
    # the centralizer of w_L = s1*s3 taken inside W_L only: the lift still
    # builds, but its inductions to N miss both tilde characters
    centralizer = CoxeterGroup.centralizer

    def inside_support(W, w, within=None):
        if within is None:
            within = W.parabolic(W.words[w])
        return centralizer(W, w, within)

    monkeypatch.setattr(CoxeterGroup, "centralizer", inside_support)
    assert main(["verify", "c", "A3", "--L", "s1,s3"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "failed"
    assert data["checks"][0] == {"label": "construction", "ok": True, "detail": "module"}
    assert [c["label"] for c in data["checks"] if not c["ok"]] == \
        ["descent-tilde-sum", "arrangement-tilde-sum", "mackey", "degrees"]


def test_a_lift_that_is_not_multiplicative_fails_the_construction(monkeypatch, capsys):
    # the bases of a bulky L with phi doubled off the identity: the product
    # lift refuses the values instead of raising an internal error
    W = build_group("B3")
    assert W.is_bulky((0, 1))
    bases = conjectures.construct_parabolic_B

    def doubled(W, L):
        out = []
        for a in bases(W, L):
            C = a.centralizer
            phi = ClassFunction(C, [v if c.rep == W.identity else 2 * v
                                    for c, v in zip(C.classes, a.phi.values)])
            out.append(Assignment(a.L, a.element, C, phi, a.psi, a.route))
        return out

    monkeypatch.setattr(conjectures, "construct_parabolic_B", doubled)
    assert main(["verify", "c", "B3", "--L", "s1,s2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "failed"
    assert data["checks"] == [{
        "label": "construction", "ok": False,
        "detail": "the product lift of the base phi is not multiplicative"}]


def test_a_wrong_phi_tilde_fails_the_module_case_descent_sum(monkeypatch):
    # Phi~ times the character of N that is -1 off W_L: the module case's phi
    # comes from the base, not from Phi~, so the descent tilde sum sees it
    W = build_group("A3")
    L = (0, 2)
    WL = W.parabolic(L)
    phi_tilde = conjectures.parabolic_ideal_character

    def off_WL(W, J):
        cf = phi_tilde(W, J)
        return cf * ClassFunction.from_function(
            cf.carrier, lambda n: Fraction(1 if n in WL.members else -1))

    monkeypatch.setattr(conjectures, "parabolic_ideal_character", off_WL)
    report = verify_c(W, L)
    assert [a.route for a in report.assignments] == ["module"]
    assert [lab for lab, ok, _ in report.checks if not ok] == \
        ["descent-tilde-sum", "tilde-twist", "tilde-induction"]


def _element(W, word):
    return next(w for w in range(W.order) if W.word_str(w) == word)


def _twisting(construct, L, which, values):
    """construct with the first assignment at L changed: phi or psi (which)
    times the linear character of its centralizer with the given values at
    the named words, which generate the centralizer."""
    def twisted(W, J):
        a, *rest = construct(W, J)
        if tuple(J) != L:
            return [a, *rest]
        C = a.centralizer
        lam = next(x for x in linear_characters(C)
                   if all(x(_element(W, word)) == v for word, v in values.items()))
        phi = a.phi * lam if which == "phi" else a.phi
        psi = a.psi * lam if which == "psi" else a.psi
        return [Assignment(a.L, a.element, C, phi, psi, a.route), *rest]
    return twisted


def _doubling_at(construct, L):
    """construct with the first assignment at L given twice."""
    def doubled(W, J):
        out = construct(W, J)
        return out + out[:1] if tuple(J) == L else out
    return doubled


def _psi_top_plus_one_at(word):
    """The top component character of W_L with 1 added at the class of the
    named word."""
    psi_top = conjectures.top_component_character

    def moved(W, L):
        cf = psi_top(W, L)
        k = cf.carrier.class_of(_element(W, word))
        return ClassFunction(cf.carrier, [v + (i == k) for i, v in enumerate(cf.values)])
    return moved


def _phi_tilde_plus_one_at(word):
    """Phi~ with 1 added at the class of the named word of the normalizer."""
    phi_tilde = conjectures.parabolic_ideal_character

    def moved(W, L):
        cf = phi_tilde(W, L)
        k = cf.carrier.class_of(_element(W, word))
        return ClassFunction(cf.carrier, [v + (i == k) for i, v in enumerate(cf.values)])
    return moved


# label: (argv, name and replacement of the construction or character it
# perturbs, failed labels of the report, failed labels of each failing case of
# verify a, and (case, label, class) of one nonzero residual, or None when
# every residual is zero)
PERTURBED_CHECKS = {
    "class-partition": (
        ["verify", "a", "A3"], "construct_C", _doubling_at(conjectures.construct_C, (0,)),
        ["class-partition", "regular-sum", "arrangement-sum"],
        {"s1": ["cuspidal-coverage", "descent-tilde-sum", "arrangement-tilde-sum",
                "restriction-assignments", "degrees"]},
        (None, "regular-sum", "e")),
    "tilde-restriction": (
        ["verify", "c", "A3", "--L", "s1"], "top_component_character",
        _psi_top_plus_one_at("s1"),
        ["tilde-restriction", "restriction-assignments"], {}, None),
    "arrangement-top-sum": (
        ["verify", "b", "B3"], "construct_parabolic_B",
        _twisting(construct_parabolic_B, (0, 1, 2), "psi", {"s1*s2*s3": -1}),
        ["arrangement-top-sum", "psi-twist"], {}, (None, "arrangement-top-sum", "s1*s2*s3")),
    "regular-sum": (
        ["verify", "a", "A3"], "construct_C",
        _twisting(conjectures.construct_C, (0,), "phi", {"s1": 1, "s3": -1}),
        ["regular-sum", "element-twist"], {"s1": ["descent-tilde-sum", "psi-twist"]},
        (None, "regular-sum", "s1")),
    "arrangement-sum": (
        ["verify", "a", "A3"], "construct_C",
        _twisting(conjectures.construct_C, (0,), "psi", {"s1": 1, "s3": -1}),
        ["arrangement-sum", "element-twist"], {"s1": ["arrangement-tilde-sum", "psi-twist"]},
        (None, "arrangement-sum", "s1")),
    "element-twist": (
        ["verify", "a", "A3"], "construct_C",
        _twisting(conjectures.construct_C, (0,), "phi", {"s1": -1, "s3": -1}),
        ["element-twist"],
        {"s1": ["descent-tilde-sum", "psi-twist", "restriction-assignments"]},
        ("s1", "descent-tilde-sum", "s3")),
    "descent-tilde-sum": (
        ["verify", "c", "A3", "--L", "s1,s3"], "construct_C",
        _twisting(conjectures.construct_C, (0, 2), "phi",
                  {"s1": 1, "s3": 1, "s2*s1*s3*s2": -1}),
        ["descent-tilde-sum", "psi-twist"], {}, (None, "descent-tilde-sum", "s2*s1*s3*s2")),
    "arrangement-tilde-sum": (
        ["verify", "c", "A3", "--L", "s1,s3"], "construct_C",
        _twisting(conjectures.construct_C, (0, 2), "psi",
                  {"s1": 1, "s3": 1, "s2*s1*s3*s2": -1}),
        ["arrangement-tilde-sum", "psi-twist"], {}, (None, "arrangement-tilde-sum", "s2*s1*s3*s2")),
    "tilde-twist": (
        ["verify", "c", "A3", "--L", "s1"], "parabolic_ideal_character",
        _phi_tilde_plus_one_at("s3"),
        ["descent-tilde-sum", "tilde-twist", "tilde-induction"], {},
        (None, "descent-tilde-sum", "s3")),
}


@pytest.mark.parametrize("label", sorted(PERTURBED_CHECKS))
def test_one_perturbed_input_fails_its_check(label, monkeypatch, capsys):
    """Each row changes one input and names every check that then fails.

    A row that multiplies phi or psi of one assignment by a linear character
    lam of its centralizer also fails the twist check between them: psi-twist
    in its case, and in verify a element-twist, as the unchanged assignment
    passed both and so had alpha_w = alpha_L on its centralizer.  So
    element-twist fails only together with psi-twist of its case.  A sum
    stays when phi * lam is conjugate to phi in the group it is induced to:
    on C_W(s1) = <s1> x <s3> of A3, lam = sign gives phi conjugated by the
    longest element, which swaps s1 and s3, so regular-sum holds in the
    element-twist row while the case's Phi~ sum, induced only to the
    normalizer <s1> x <s3>, fails.  tilde-twist fails only together with a
    tilde sum or psi-twist: inducing psi = phi * eps * alpha_L from C to N
    gives ind(phi) * eps * alpha_L, so the two tilde sums and psi-twist imply
    it; its row moves Phi~ at s3, off W_L, so tilde-restriction holds and
    tilde-induction fails.  The class-partition row gives the assignment of
    the case s1 twice, so its class is gathered twice and both regular sums
    count it twice; the case fails its coverage, its tilde sums and
    restriction-assignments, and degrees.  The tilde-restriction row moves
    the relative Psi, the top component character of W_L, at s1; only
    tilde-restriction and restriction-assignments read it, so every
    residual stays zero.

    Two labels cannot fail alone.  degrees is the value at 1 of a top sum
    or a tilde sum, so it fails only with descent-top-sum or
    descent-tilde-sum.  centralizers-in-normalizer cannot fail once the
    construction passed: every route's centralizer passes `_centralizer_in`
    first.
    """
    argv, name, replacement, failed, cases, moved = PERTURBED_CHECKS[label]
    monkeypatch.setattr(conjectures, name, replacement)
    assert main(argv) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "failed"
    assert [c["label"] for c in data["checks"] if not c["ok"]] == failed
    assert {sub["L"]: [c["label"] for c in sub["checks"] if not c["ok"]]
            for sub in data.get("cases", []) if not sub["ok"]} == cases
    if moved is None:
        assert not any(from_json(v) for res in data["residuals"].values()
                       for v in res["values"])
        return
    case, residual, word = moved
    where = data if case is None else next(sub for sub in data["cases"] if sub["L"] == case)
    res = where["residuals"][residual]
    assert from_json(dict(zip(res["classes"], res["values"]))[word])
