"""Checks the verifier depends on raise typed exceptions, also under python -O."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import coxsol
from coxsol import conjectures
from coxsol.chars import (NotInvariant, NotLinear, linear_character,
                          rotation_character, sign_character)
from coxsol.conjectures import (construct_parabolic_B, PrerequisiteFailed, verify_b,
                                verify_c)
from coxsol.coxeter import (CoxeterGroup, NotClosed, NotNormalizing, build_group,
                            matrix_from_spec)
from coxsol.descent import NotIdempotent, descent_algebra, parabolic_ideal_character
from coxsol.orlik_solomon import (Arrangement, IntersectionLattice, NotParabolic,
                                  os_algebra)

BAD_INPUTS = """
import sys
from fractions import Fraction
from coxsol.chars import NotLinear, linear_character
from coxsol.coxeter import build_group
from coxsol.descent import (DescentAlgebra, NotAResolution, NotIdempotent,
                            parabolic_ideal_character)
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
D = DescentAlgebra(W)
D.shapes = D.shapes[1:]
try:
    D.check_idempotent_family()
except NotAResolution:
    caught.append("shape-left-out")
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
    assert proc.stdout.split() == ["optimize=1", "zero-function", "one-line",
                                   "doubled-idempotent", "shape-left-out",
                                   "trivial-complement", "half-in-table",
                                   "rank-three-angles"]


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
    t = alg.arr.hyperplanes[min(alg.lattice.flats[line].key)]
    assert alg.component_character([line], W.cyclic(t)).degree == 1


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


def test_arrangement_must_be_parabolic():
    W = build_group("A2")
    two = W.reflections[:2]
    with pytest.raises(NotParabolic):
        IntersectionLattice(Arrangement(W, reflections=two))


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


def _unsynced_e(W, L, J):
    """Keep e_L, once formed, in the group algebra, but put the coordinates
    of e_J in its row: the checks on e_L * n and e_L * eps_L read the formed
    element, the checks on pi(e_L) the coordinates."""
    descent_algebra(W).e(L)
    _set_e(W, L, J)


# Each way of breaking the certificate for Phi~ of A3, at L = (s1,) unless
# given, with the check that catches it: N = W_L * N_L, eps_L * eps_L = eps_L,
# eps_L and pi(e_L) fixed under conjugation by N_L, e_L * n = e_L for n in
# N_L, e_L * eps_L = e_L, and eps_L * pi(e_L) * eps_L a nonzero multiple of
# eps_L.
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
    # e_(s2) is not fixed by s3, which generates the complement of <s1>
    "e-moved-by-complement": ((0,), lambda W, L, rel: _set_e(W, L, (1,)),
                              NotInvariant, "is not fixed by the complement$"),
    # e_() averages over W, so eps_L, the sign idempotent of <s1>, kills it
    "eps-kills-e": ((0,), lambda W, L, rel: _set_e(W, L, ()),
                    NotInvariant, r"e_L \* eps_L is not e_L"),
    # pi(e_(s1)) is not fixed by the swap of s1 and s3; on coordinates that
    # agree with the formed e_L, the checks e_L * n = e_L and e_L * eps_L = e_L
    # have so far always implied that pi(e_L) is fixed
    "moved-pi-e": ((0, 2), lambda W, L, rel: _unsynced_e(W, L, (0,)),
                   NotInvariant, r"moves pi\(e_L\)"),
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
    W = build_group("I2(5)")
    dihedral = conjectures._dihedral_B
    monkeypatch.setattr(conjectures, "_dihedral_B",
                        lambda W, L: dihedral(W, L)[:-1])
    with pytest.raises(PrerequisiteFailed):
        construct_parabolic_B(W, (0, 1))
    report = verify_b(W)
    assert report.status == "failed" and not report.check("construction")


def test_rotation_on_the_wrong_carrier_fails_verification(monkeypatch):
    W = build_group("I2(5)")
    monkeypatch.setattr(conjectures, "rotation_character",
                        lambda W, L, j: rotation_character(W, L, j).restrict(
                            W.parabolic(())))
    with pytest.raises(PrerequisiteFailed):
        construct_parabolic_B(W, (0, 1))
    report = verify_b(W)
    assert report.status == "failed" and not report.check("construction")


def test_lift_that_misses_its_base_fails_verification(monkeypatch):
    W = build_group("A3")
    assert W.is_bulky((0,))
    # the sign in place of alpha: psi no longer restricts to the base psi
    monkeypatch.setattr(conjectures, "alpha_parabolic",
                        lambda W, L: sign_character(W.normalizer_of_parabolic(L)))
    report = verify_c(W, (0,))
    assert report.status == "failed" and not report.check("construction")
    assert "restrict" in report.checks[0][2]


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
