"""Checks the verifier depends on raise typed exceptions, also under python -O."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import coxsol
from coxsol.chars import LinearCharacter, NotLinear
from coxsol.coxeter import NotNormalizing, build_group
from coxsol.orlik_solomon import (Arrangement, IntersectionLattice, NotInvariant,
                                  NotParabolic, os_algebra)

BAD_INPUTS = """
import sys
from fractions import Fraction
from coxsol.chars import LinearCharacter, NotLinear
from coxsol.coxeter import build_group
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
    assert proc.stdout.split() == ["optimize=1", "zero-function", "one-line"]


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
