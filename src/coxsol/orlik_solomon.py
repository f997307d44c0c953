"""The Orlik-Solomon algebra of the reflection arrangement of W.

Hyperplanes are identified with the reflections of the group.  By Steinberg's
theorem a flat is the reflection set of a conjugate x^-1 W_J x, of rank |J|, so
the matroid data (ranks, closures, circuits) comes from the group, not from
linear algebra.  Each flat keeps the first such J; the subgroup, so the
shape of J, is the same for every J giving the flat.  The algebra is presented
on no-broken-circuit monomials with respect to a linear order of the
hyperplanes; arbitrary monomials are rewritten into that basis by the circuit
boundary relations.  Flats decompose the algebra into components permuted like
the flats, which yields one character per shape of J.  The arrangement of a
parabolic W_L is the flat refl(W_L), and its top component is that flat's
component (Brieskorn), so one algebra per group serves every L.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .chars import ClassFunction, NotInvariant
from .coxeter import CoxeterGroup, Subgroup


class RankGuard(RuntimeError):
    """Arrangement rank outside the supported range."""


class StraighteningFailure(RuntimeError):
    """No rewriting step applies; the monomial order logic is broken."""


class OrbitMismatch(RuntimeError):
    """The orbits of flats do not match the shapes one to one."""


class NotDihedral(ValueError):
    """A dihedral construction was given a group of rank other than 2."""


MAX_RANK = 4


class Arrangement:
    """The reflecting hyperplanes of W, in an order fixed by a seed (None: sorted)."""

    def __init__(self, W: CoxeterGroup, seed_order=None):
        self.W = W
        self.hyperplanes = sorted(W.reflections)      # position -> reflection
        if seed_order is not None:
            random.Random(seed_order).shuffle(self.hyperplanes)
        self.position = {t: i for i, t in enumerate(self.hyperplanes)}
        self.n = len(self.hyperplanes)

    def act(self, pos: int, w: int) -> int:
        """Position of the image hyperplane under right action by w."""
        return self.position[self.W.conj(self.hyperplanes[pos], w)]


# a flat: its index, the frozenset of positions of its hyperplanes, its rank,
# and the first subset J of S (in all_subsets order) with the flat conjugate to W_J
Flat = namedtuple("Flat", "id key rank subset")


class IntersectionLattice:
    """All intersections of hyperplanes, as reflection sets of parabolic subgroups.
    The subsets J giving one flat must all have one shape, which is checked."""

    def __init__(self, arr: Arrangement):
        self.arr = arr
        W = arr.W
        shape_of = {J: sh.index for sh in W.shapes() for J in sh.members}
        first = {}
        for J in W.all_subsets():
            refl = [t for t in W.reflections if t in W.parabolic(J).members]
            for x in W.transversal(J):
                J0 = first.setdefault(
                    frozenset(arr.position[W.conj(t, x)] for t in refl), J)
                if shape_of[J0] != shape_of[J]:
                    raise OrbitMismatch(f"one flat comes from {J0} and from {J}")
        order = sorted(first, key=lambda k: (len(first[k]), sorted(k)))
        self.flats = [Flat(fid, key, len(first[key]), first[key])
                      for fid, key in enumerate(order)]
        self.by_key = {f.key: f.id for f in self.flats}
        # the join of F with p outside it is the flat of rank one more above both
        self.child = {(f.id, p): f.id for f in self.flats for p in f.key}
        for f in self.flats:
            for g in self.flats:
                if g.rank == f.rank + 1 and f.key < g.key:
                    for p in g.key - f.key:
                        self.child[f.id, p] = g.id

    def flat_of(self, positions) -> int:
        fid = 0
        for p in positions:
            fid = self.child[fid, p]
        return fid

    def rank(self, positions) -> int:
        return self.flats[self.flat_of(positions)].rank

    def independent(self, positions) -> bool:
        positions = tuple(positions)
        return self.rank(positions) == len(positions)


class OSAlgebra:
    """Exterior-style algebra on the hyperplanes modulo circuit boundaries."""

    def __init__(self, arrangement: Arrangement):
        if arrangement.W.rank > MAX_RANK:
            raise RankGuard(f"rank {arrangement.W.rank} arrangement")
        self.arr = arrangement
        self.lattice = IntersectionLattice(arrangement)
        self._memo = {}

    # -- the no-broken-circuit basis ------------------------------------------

    def _broken_circuit_witness(self, mono):
        """(h, circuit) for a sorted circuit whose least element h is not in
        mono and whose rest is; None when mono, independent and sorted, is NBC.
        By Bjorner's criterion it is exactly when every suffix starts with the
        least hyperplane of its closure.  At the last suffix whose closure holds
        a smaller h, h and the suffix members it depends on form the circuit."""
        lat = self.lattice
        for i in reversed(range(len(mono))):
            suffix = mono[i:]
            h = min(lat.flats[lat.flat_of(suffix)].key)
            if h < mono[i]:
                return h, [h] + [x for x in suffix if lat.independent(
                    [y for y in suffix if y != x] + [h])]
        return None

    @cached_property
    def nbc_basis(self):
        """NBC monomials grouped by degree."""
        levels = [[()]]
        while levels[-1]:
            nxt = []
            for mono in levels[-1]:
                start = mono[-1] + 1 if mono else 0
                for p in range(start, self.arr.n):
                    cand = mono + (p,)
                    if self.lattice.independent(cand) and \
                            self._broken_circuit_witness(cand) is None:
                        nxt.append(cand)
            levels.append(nxt)
        return levels[:-1]

    @property
    def dimension(self) -> int:
        return sum(len(level) for level in self.nbc_basis)

    @cached_property
    def _flat_monomials(self):
        out = {}
        for level in self.nbc_basis:
            for mono in level:
                out.setdefault(self.lattice.flat_of(mono), []).append(mono)
        return out

    def monomials_of_flat(self, fid: int):
        return self._flat_monomials.get(fid, [])

    # -- straightening ---------------------------------------------------------

    def straighten(self, mono) -> dict:
        """Coordinates of a product of generators in the NBC basis."""
        mono = tuple(mono)
        if len(set(mono)) < len(mono):
            return {}
        sign, mono = _sort_sign(mono)
        out = self._straighten_sorted(mono)
        if sign == 1:
            return dict(out)
        return {m: -c for m, c in out.items()}

    def _straighten_sorted(self, mono) -> dict:
        if mono in self._memo:
            return self._memo[mono]
        if not self.lattice.independent(mono):
            out = {}
        else:
            found = self._broken_circuit_witness(mono)
            if found is None:
                out = {mono: Fraction(1)}
            else:
                h, circuit = found
                rest = tuple(x for x in mono if x not in circuit)
                s0, merged = _wedge_sign(rest, tuple(circuit[1:]))
                if merged != mono:
                    raise StraighteningFailure(str(mono))
                out = {}
                for i in range(1, len(circuit)):
                    dropped = tuple(circuit[:i] + circuit[i + 1:])
                    si, m2 = _wedge_sign(rest, dropped)
                    coeff = -s0 * si * (-1 if i % 2 else 1)
                    for m3, c3 in self._straighten_sorted(m2).items():
                        acc = out.get(m3, Fraction(0)) + coeff * c3
                        out[m3] = acc
                out = {m: c for m, c in out.items() if c}
        self._memo[mono] = out
        return out

    # -- elements ----------------------------------------------------------------

    def element(self, coeffs: dict) -> "OSElement":
        acc = {}
        for mono, c in coeffs.items():
            for m2, c2 in self.straighten(mono).items():
                acc[m2] = acc.get(m2, Fraction(0)) + c * c2
        return OSElement(self, acc)

    def generator(self, pos: int) -> "OSElement":
        return self.element({(pos,): Fraction(1)})

    def one(self) -> "OSElement":
        return OSElement(self, {(): Fraction(1)})

    def act_monomial(self, mono, w: int) -> dict:
        image = tuple(self.arr.act(p, w) for p in mono)
        return self.straighten(image)

    # -- characters of flat components ---------------------------------------------

    def component_character(self, flat_ids, acting: Subgroup) -> ClassFunction:
        """Trace of the acting subgroup on the components of the given flats."""
        W = self.arr.W
        wanted = set(flat_ids)
        basis = [m for fid in sorted(wanted) for m in self.monomials_of_flat(fid)]
        traces = []
        for c in acting.classes:
            t = Fraction(0)
            for mono in basis:
                img = self.act_monomial(mono, c.rep)
                if any(self.lattice.flat_of(m2) not in wanted for m2 in img):
                    raise NotInvariant("component is not invariant under the acting subgroup")
                t = t + img.get(mono, Fraction(0))
            traces.append(t)
        return ClassFunction(acting, traces)

    def whole_character(self, acting: Subgroup) -> ClassFunction:
        return self.component_character(range(len(self.lattice.flats)), acting)

    def parabolic_flat(self, L) -> int:
        """The flat refl(W_L): the closure of the hyperplanes of L's generators."""
        W = self.arr.W
        return self.lattice.flat_of(self.arr.position[W.generators[s]] for s in L)


class OSElement:
    """An element written in the NBC basis of its algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: OSAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = {m: c for m, c in coeffs.items() if c}

    def coefficient(self, mono):
        return self.coeffs.get(tuple(mono), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return OSElement(self.algebra, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        return OSElement(self.algebra,
                         {m: c * scalar for m, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        return OSElement(self.algebra,
                         {m: scalar * c for m, c in self.coeffs.items()})

    def wedge(self, other) -> "OSElement":
        alg = self.algebra
        acc = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if set(m1) & set(m2):
                    continue
                sign, merged = _wedge_sign(m1, m2)
                for m3, c3 in alg._straighten_sorted(merged).items():
                    acc[m3] = acc.get(m3, Fraction(0)) + sign * c1 * c2 * c3
        return OSElement(alg, acc)

    def act(self, w: int) -> "OSElement":
        alg = self.algebra
        acc = {}
        for mono, c in self.coeffs.items():
            for m2, c2 in alg.act_monomial(mono, w).items():
                acc[m2] = acc.get(m2, Fraction(0)) + c * c2
        return OSElement(alg, acc)

    def act_sum(self, galg) -> "OSElement":
        """Right action of a group algebra element, extended linearly."""
        out = OSElement(self.algebra, {})
        for w, c in galg.coeffs.items():
            out = out + c * self.act(w)
        return out

    def __eq__(self, other):
        if not isinstance(other, OSElement):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(m) == other.coefficient(m) for m in keys)

    __hash__ = None  # equality is by value, and Cyclo coefficients have no hash

    def __repr__(self):
        return f"OSElement({self.coeffs!r})"


def _sort_sign(mono):
    """Sign of the permutation that sorts a tuple of distinct entries, and the sort."""
    inv = sum(1 for i, x in enumerate(mono) for y in mono[i + 1:] if x > y)
    return (-1 if inv % 2 else 1), tuple(sorted(mono))


def _wedge_sign(a, b):
    """Sign and merge of the concatenation of two sorted disjoint tuples."""
    inv = sum(1 for x in a for y in b if x > y)
    return (-1 if inv % 2 else 1), tuple(sorted(a + b))


# -- cached algebras and the standard characters --------------------------------------


def os_algebra(W: CoxeterGroup, seed_order=None) -> OSAlgebra:
    """The algebra of W's arrangement, built once per group and seed order."""
    return W.cached(("os", seed_order),
                    lambda: OSAlgebra(Arrangement(W, seed_order=seed_order)))


def flat_shape_map(W: CoxeterGroup, algebra: OSAlgebra | None = None) -> dict:
    """The index of the shape of each flat, read off the subset it comes from."""
    alg = algebra if algebra is not None else os_algebra(W)
    return {f.id: sh.index for sh in W.shapes() for f in alg.lattice.flats
            if f.subset in sh.members}


def shape_component_character(W: CoxeterGroup, shape,
                              algebra: OSAlgebra | None = None) -> ClassFunction:
    """Character of W on the components of all flats of one shape, in the given
    algebra of the full arrangement (by default the unseeded one)."""
    alg = algebra if algebra is not None else os_algebra(W)
    return alg.component_character(
        [f.id for f in alg.lattice.flats if f.subset in shape.members], W.full())


def whole_space_character(W: CoxeterGroup) -> ClassFunction:
    return os_algebra(W).whole_character(W.full())


def top_component_character(W: CoxeterGroup, L) -> ClassFunction:
    """Character of W_L on the top component of its own arrangement, which is
    the component of the flat refl(W_L) in W's."""
    alg = os_algebra(W)
    return alg.component_character([alg.parabolic_flat(L)], W.parabolic(L))


def top_component_tilde(W: CoxeterGroup, L) -> ClassFunction:
    """Character of the normalizer of W_L on the same top component."""
    alg = os_algebra(W)
    return alg.component_character([alg.parabolic_flat(L)],
                                   W.normalizer_of_parabolic(L))


def dihedral_hyperplane_angles(W: CoxeterGroup) -> dict:
    """Angle label of each reflecting hyperplane, in units of pi/m.

    The hyperplane of s gets label 0 and the hyperplane of t label m-1; the
    remaining labels follow by rotating with ts.
    """
    if W.rank != 2:
        raise NotDihedral(f"hyperplane angles need rank 2, not rank {W.rank}")
    s, t = W.generators
    rot = W.rotations((0, 1))
    m = len(rot)
    out = {}
    for p in range(m):
        x = rot[-p % m]  # (ts)^p
        out[W.conj(s, x)] = (2 * p) % m
        out[W.conj(t, x)] = (m - 1 + 2 * p) % m
    if len(out) != m:  # I2(m) has m reflections, each a rotated s or t
        raise OrbitMismatch(f"the rotated hyperplanes of s and t are not {m} hyperplanes")
    return out


def dihedral_top_model(W: CoxeterGroup) -> ClassFunction:
    """Independent model of the top component character of a dihedral group.

    Hyperplanes around a 2m-gon are labelled 0..m-1 with the hyperplane of s
    at 0 and the hyperplane of t at m-1; conjugation acts on labels and the
    top component has basis a_0 a_j, giving the trace in closed form.
    """
    m = W.matrix[0, 1]
    label_of_refl = dihedral_hyperplane_angles(W)
    refl_of_label = {j: r for r, j in label_of_refl.items()}

    def trace(w):
        pi = {j: label_of_refl[W.conj(r, w)] for j, r in refl_of_label.items()}
        fixed = sum(1 for j in range(1, m) if pi[j] == j)
        return Fraction(fixed - (1 if pi[0] != 0 else 0))

    return ClassFunction.from_function(W.full(), trace)
