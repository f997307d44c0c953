"""Checks the verifier depends on raise typed exceptions, also under python -O."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import coxsol
from coxsol import conjectures
from coxsol.chars import LinearCharacter, NotInvariant, NotLinear
from coxsol.conjectures import construct_parabolic_B, PrerequisiteFailed, verify_b
from coxsol.coxeter import (CoxeterGroup, NotClosed, NotNormalizing, build_group,
                            matrix_from_spec)
from coxsol.descent import parabolic_ideal_character
from coxsol.orlik_solomon import (Arrangement, IntersectionLattice, NotParabolic,
                                  os_algebra)

BAD_INPUTS = """
import sys
from fractions import Fraction
from coxsol.chars import LinearCharacter, NotLinear
from coxsol.coxeter import build_group
from coxsol.descent import DescentAlgebra, NotAResolution, NotIdempotent
from coxsol.orlik_solomon import NotInvariant, os_algebra

W = build_group("A2")
G = W.full()
caught = ["optimize=%d" % sys.flags.optimize]
try:
    LinearCharacter(G, {w: Fraction(0) for w in G.members})
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
                                   "doubled-idempotent", "shape-left-out"]


def test_linear_character_carrier_and_identity():
    W = build_group("A2")
    G = W.full()
    with pytest.raises(NotLinear):
        LinearCharacter(G, {w: Fraction(0) for w in G.members})
    with pytest.raises(NotLinear):
        LinearCharacter(G, {W.identity: Fraction(1)})


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
