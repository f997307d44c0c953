"""The Orlik-Solomon algebra of the reflection arrangement of W.

A hyperplane is its reflection, an element of the group, and w acts on it by
conjugation.  By Steinberg's theorem a flat is the reflection set of a
conjugate x^-1 W_J x, of rank |J|, so the lattice of flats comes from the
group, not from linear algebra, and each flat is keyed by its reflections.
Each flat keeps the first such J; the subgroup, so the shape of J, is the same
for every J giving the flat.  The algebra is the direct sum of components A_X,
one per flat X, which the group permutes like the flats (Brieskorn); this
yields one character per shape of J.  No basis of the algebra is needed for
the characters or the dimensions: the trace of w on A_X is (-1)^rk X times the
Moebius number mu_w(V, X) of the poset of w-stable flats, so dim A_X is
|mu(V, X)| (see `OSAlgebra.component_character`), and no order of the
hyperplanes enters.  Only degree 2 is written in a basis, the monomials
e_h0 e_h of each rank 2 flat with h0 its least reflection, which
`OSAlgebra.straighten` reaches in closed form.  The arrangement of a parabolic
W_L is the flat refl(W_L), and its top component is that flat's component
(Brieskorn), so one algebra per group serves every L."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .chars import ClassFunction, NotInvariant
from .coxeter import MAX_RANK, CoxeterGroup, Subgroup


class RankGuard(RuntimeError):
    """The rank of the arrangement is outside the supported range."""


class OrbitMismatch(RuntimeError):
    """The orbits of flats do not match the shapes one to one."""


class NotDihedral(ValueError):
    """A dihedral construction was given a group of rank other than 2."""


# a flat: its index, the frozenset of its reflections (its hyperplanes), its rank,
# and the first subset J of S (in all_subsets order) with the flat conjugate to W_J
Flat = namedtuple("Flat", "id key rank subset")


class IntersectionLattice:
    """All intersections of hyperplanes, as reflection sets of parabolic subgroups.
    The subsets J giving one flat must all have one shape, which is checked."""

    def __init__(self, W: CoxeterGroup):
        shape_of = {J: sh.index for sh in W.shapes() for J in sh.members}
        first = {}
        for J in W.all_subsets():
            refl = [t for t in W.reflections if t in W.parabolic(J).members]
            for x in W.transversal(J):
                J0 = first.setdefault(frozenset(W.conj(t, x) for t in refl), J)
                if shape_of[J0] != shape_of[J]:
                    raise OrbitMismatch(f"one flat comes from {J0} and from {J}")
        order = sorted(first, key=lambda k: (len(first[k]), sorted(k)))
        self.flats = [Flat(fid, key, len(first[key]), first[key])
                      for fid, key in enumerate(order)]
        self.by_key = {f.key: f.id for f in self.flats}

    def flat_of(self, reflections) -> int:
        """The intersection X of the hyperplanes of the given reflections: the
        first flat, in (rank, key) order, whose key contains them.  X is a flat
        and its key contains them; a flat whose key contains them lies in each
        of their hyperplanes, so inside X, and has a higher rank unless it is X."""
        R = set(reflections)
        return next(f.id for f in self.flats if R <= f.key)


class OSAlgebra:
    """The algebra of W's arrangement, through its flats and their components."""

    def __init__(self, W: CoxeterGroup):
        if W.rank > MAX_RANK:
            raise RankGuard(f"rank {W.rank} arrangement")
        self.W = W
        self.lattice = IntersectionLattice(W)

    def straighten(self, mono) -> dict:
        """Coordinates of a monomial of degree at most 2 in the basis 1, the e_h,
        and e_h0 e_h for each rank 2 flat with h0 its least reflection (its NBC
        basis in the order of the reflections).

        For p != q in the flat X of {p, q}, the hyperplanes h0, p, q are
        dependent, so the boundary e_p e_q - e_h0 e_q + e_h0 e_p vanishes:
        e_p e_q = e_h0 e_q - e_h0 e_p, where e_h0 e_h0 = 0.
        """
        mono = tuple(mono)
        if len(mono) < 2:
            return {mono: Fraction(1)}
        if len(mono) > 2:
            raise ValueError(f"closed-form straightening stops at degree 2, not {len(mono)}")
        p, q = mono
        if p == q:
            return {}
        h0 = min(self.lattice.flats[self.lattice.flat_of(mono)].key)
        out = {}
        if q != h0:
            out[h0, q] = Fraction(1)
        if p != h0:
            out[h0, p] = Fraction(-1)
        return out

    def _mobius(self, flats, stable) -> dict:
        """mu_w(V, X) for the flats X of `flats` in `stable`, where `flats` is
        closed under going down, in rank order, and `stable` holds the
        w-stable ones: mu_w(V, V) = 1, and for X != V the numbers mu_w(V, Y)
        over the stable Y <= X add up to 0."""
        mu, below = {}, []
        for f in flats:
            if f.id in stable:
                m = -sum(n for key, n in below if key < f.key) if f.rank else 1
                mu[f.id] = m
                below.append((f.key, m))
        return mu

    @cached_property
    def dimensions(self) -> list:
        """dim A_p = the sum of |mu(V, X)| over the flats X of rank p."""
        flats = self.lattice.flats
        mu = self._mobius(flats, range(len(flats)))
        dims = [0] * (flats[-1].rank + 1)
        for f in flats:
            dims[f.rank] += abs(mu[f.id])
        return dims

    def component_character(self, flat_ids, acting: Subgroup) -> ClassFunction:
        """Trace of the acting subgroup on the components of the given flats:
        at w, the sum of (-1)^rk X mu_w(V, X) over the given X with wX = X.

        Proof.  The algebra A is the exterior algebra on the e_H modulo the
        ideal I generated by the boundaries d(e_S) of the dependent sets S,
        where d is the derivation of degree -1 with d(e_H) = 1; as d(d(e_S)) = 0,
        d(I) lies in I and d acts on A.  The algebra is the direct sum of the
        components A_X, A_X spanned by the e_S with independent S whose
        hyperplanes meet in X, and A_X has degree rk X (Brieskorn).  An element w
        permutes the hyperplanes (here by conjugating their reflections) and acts
        by e_H -> e_wH, mapping A_X onto A_wX; it commutes with d, since
        w d w^-1 is again a derivation sending each e_H to 1.
        (1) Let Y != V be a w-stable flat, and let B be the sum of the A_X with
        X <= Y, i.e. the subalgebra generated by the e_H with H containing Y
        (the algebra of the localization at Y).  It is w-stable and d-stable,
        and for one such H, d(e_H x) + e_H d(x) = x, so (B, d) is an exact complex
        of representations of <w>.  Traces are additive on exact sequences of
        representations, so the alternating sum over the degrees p of
        tr(w, B_p) is 0.  Summands A_X with wX != X are moved to other
        summands and add 0 to a trace, so with t(X) = (-1)^rk X tr(w, A_X),
        the sum of t(X) over the w-stable X <= Y is 0.
        (2) t(V) = 1, as A_V is spanned by 1.  These are the relations that
        define the Moebius function of the poset of w-stable flats, so by
        induction on the rank t(X) = mu_w(V, X) for every w-stable X.  The
        trace on a sum of components is the sum of the traces of the stable
        ones, which is the formula.  (Topologically, (1) says that the
        Lefschetz number of w on the complement of the localization at Y is
        0: C* acts freely on the w-fixed points.)

        The given flats must be permuted by each class representative, or
        `NotInvariant` is raised.
        """
        flats = self.lattice.flats
        wanted = set(flat_ids)
        below = [f for f in flats if any(f.key <= flats[x].key for x in wanted)]
        traces = []
        for c in acting.classes:
            image = {f.id: self.lattice.by_key[frozenset(self.W.conj(t, c.rep) for t in f.key)]
                     for f in below}
            if any(image[x] not in wanted for x in wanted):
                raise NotInvariant("component is not invariant under the acting subgroup")
            mu = self._mobius(below, {x for x, y in image.items() if x == y})
            traces.append(Fraction(sum((-1) ** flats[x].rank * mu[x]
                                       for x in wanted if x in mu)))
        return ClassFunction(acting, traces)

    def whole_character(self, acting: Subgroup) -> ClassFunction:
        return self.component_character(range(len(self.lattice.flats)), acting)

    def parabolic_flat(self, L) -> int:
        """The flat refl(W_L): the closure of the hyperplanes of L's generators."""
        return self.lattice.flat_of(self.W.generators[s] for s in L)


# -- cached algebras and the standard characters --------------------------------------


def os_algebra(W: CoxeterGroup) -> OSAlgebra:
    """The algebra of W's arrangement, built once per group."""
    return W.cached(("os",), lambda: OSAlgebra(W))


def flat_shape_map(W: CoxeterGroup) -> dict:
    """The index of the shape of each flat, read off the subset it comes from."""
    return {f.id: sh.index for sh in W.shapes() for f in os_algebra(W).lattice.flats
            if f.subset in sh.members}


def shape_component_character(W: CoxeterGroup, shape) -> ClassFunction:
    """Character of W on the components of all flats of one shape."""
    alg = os_algebra(W)
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
