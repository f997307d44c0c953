"""Structural shortcuts against the exact linear algebra they replaced.

Flats, fixed-space dimensions and the determinant characters alpha and sigma
are read off root permutations, and the descent ideal characters Phi and
the normalizer characters Phi~ come from a trace formula.  Here each of them
is recomputed by exact row reduction, for every dihedral group up to I2(12),
the rank 3 groups and A1xI2(5).
"""

from fractions import Fraction

import pytest

from coxsol import linalg
from coxsol.chars import (ClassFunction, alpha_element, alpha_parabolic,
                          det_character, sigma_parabolic)
from coxsol.coxeter import build_group
from coxsol.descent import DescentAlgebra, descent_algebra, parabolic_ideal_character
from coxsol.orlik_solomon import sub_os_algebra

GROUPS = [f"I2({m})" for m in range(2, 13)] + ["A3", "B3", "H3", "A1xI2(5)"]


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
    W = build_group("H3")
    algebras = [DescentAlgebra(W, L) for L in W.all_subsets()]

    def refuse(rows):
        raise AssertionError("Phi must not row-reduce")

    monkeypatch.setattr(linalg, "rref", refuse)
    for D in algebras:
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
    W = build_group("H3")
    for L in [None] + W.all_subsets():  # the m-matrix inverses do row-reduce
        descent_algebra(W, L)

    def refuse(*args):
        raise AssertionError("Phi~ must not row-reduce")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "coords_in_rowspace", refuse)
    for L in W.all_subsets():
        rel = descent_algebra(W, L)
        assert parabolic_ideal_character(W, L).restrict(W.parabolic(L)) == \
            rel.ideal_character(rel.shape_of(L)), L
