"""Class functions and characters with exact cyclotomic values.

Every character is carried by an explicit subgroup and stores one value per
conjugacy class of that subgroup.  Induction uses the averaged conjugation
formula, so it needs nothing beyond the multiplication table.  A linear
character is a class function too: `linear_character` checks elementwise
values for multiplicativity before keeping one value per class.  The full set
for a subgroup is built on the subgroup itself: zero on the commutator
subgroup, then extended one generator's cyclic step at a time.  Each is kept
as an exponent map e: H -> Z/M, M the exponent of H/H', and checked to be
additive in Z/M; each root of unity zeta_M^e is formed once.
The rotation characters of a dihedral parabolic are exponent maps on the
powers of its rotation, with M = m.  The commutator subgroup is the normal
closure of the commutators of the subgroup's generators: their closure, grown
by conjugates under the generators until no new element appears.
The twist eps * alpha_L is the determinant on the root span of L, a +-1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coxeter import CoxeterGroup, Subgroup
from .cyclo import scalar_json, zeta


class NotASubgroup(ValueError):
    """Induction or restriction across groups without containment."""


class CarrierMismatch(ValueError):
    """Operation mixing class functions on different carriers."""


class NotInComplement(KeyError):
    """A class function was evaluated outside its carrier."""


class NotLinear(ValueError):
    """Values that do not form a degree one character of their carrier."""


class NotInvariant(ValueError):
    """A module is not invariant under the subgroup taken to act on it."""


class ClassFunction:
    """A function on a subgroup that is constant on conjugacy classes."""

    __slots__ = ("carrier", "values")
    __hash__ = None  # equal class functions may sit on distinct carrier objects

    def __init__(self, carrier: Subgroup, values):
        values = tuple(values)
        if len(values) != len(carrier.classes):
            raise ValueError("one value per conjugacy class required")
        self.carrier = carrier
        self.values = values

    @classmethod
    def from_function(cls, carrier: Subgroup, fn):
        return cls(carrier, [fn(c.rep) for c in carrier.classes])

    def value(self, w: int):
        try:
            return self.values[self.carrier.class_of(w)]
        except KeyError:
            raise NotInComplement(f"element {w} is outside the carrier")

    __call__ = value

    @property
    def degree(self):
        return self.value(self.carrier.parent.identity)

    def _carried_alike(self, other) -> bool:
        """Same parent group, same members, and one value per class for both."""
        a, b = self.carrier, other.carrier
        return (a is b or (a.parent is b.parent and a.members == b.members)) \
            and len(self.values) == len(other.values)

    def _same_carrier(self, other):
        if not self._carried_alike(other):
            raise CarrierMismatch("class functions live on different subgroups")

    def __add__(self, other):
        self._same_carrier(other)
        return ClassFunction(self.carrier,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._same_carrier(other)
        return ClassFunction(self.carrier,
                             [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._same_carrier(other)
            return ClassFunction(self.carrier,
                                 [a * b for a, b in zip(self.values, other.values)])
        return ClassFunction(self.carrier, [v * other for v in self.values])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self._carried_alike(other) and \
            all(a == b for a, b in zip(self.values, other.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def induce(self, target: Subgroup) -> "ClassFunction":
        """Induced class function, by averaging over conjugators."""
        H, G = self.carrier, target
        if H.parent is not G.parent or not H.members <= G.members:
            raise NotASubgroup("can only induce to an overgroup")
        W = G.parent
        vals = []
        for c in G.classes:
            acc = Fraction(0)
            for x in G.sorted_members:
                y = W.conj(c.rep, x)
                if y in H.members:
                    acc = self.value(y) + acc
            vals.append(acc * Fraction(1, H.order))
        return ClassFunction(G, vals)

    def restrict(self, target: Subgroup) -> "ClassFunction":
        if target.parent is not self.carrier.parent or \
                not target.members <= self.carrier.members:
            raise NotASubgroup("can only restrict to a subgroup")
        return ClassFunction(target, [self.value(c.rep) for c in target.classes])

    def __repr__(self):
        return f"ClassFunction({list(self.values)!r})"


def linear_character(carrier: Subgroup, values: dict) -> ClassFunction:
    """The class function of values given elementwise, after checking that they
    form a degree one character of the carrier."""
    W = carrier.parent
    if set(values) != carrier.members:
        raise NotLinear("values must be given on exactly the carrier")
    if values[W.identity] != 1:
        raise NotLinear("value at the identity is not 1")
    # chi(a g) = chi(a) chi(g) for g in a generating set gives every product
    for a in carrier.sorted_members:
        for g in carrier.generators:
            if values[W.mult(a, g)] != values[a] * values[g]:
                raise NotLinear("values are not multiplicative")
    return ClassFunction(carrier, [values[c.rep] for c in carrier.classes])


# -- standard characters ---------------------------------------------------------


def trivial_character(carrier: Subgroup) -> ClassFunction:
    return ClassFunction(carrier, [Fraction(1)] * len(carrier.classes))


def sign_character(carrier: Subgroup) -> ClassFunction:
    """Determinant on the reflection representation, (-1)^length."""
    W = carrier.parent
    return ClassFunction.from_function(
        carrier, lambda w: Fraction(-1 if W.lengths[w] % 2 else 1))


def det_character(W: CoxeterGroup, carrier: Subgroup, basis) -> ClassFunction:
    """Determinant on an invariant subspace with the given rref basis; a test oracle."""
    return ClassFunction.from_function(carrier, lambda w: W.det_on_subspace(w, basis))


def twist_character(W: CoxeterGroup, L) -> ClassFunction:
    """eps * alpha_L, the twist from phi to psi, on the normalizer N of W_L:
    the determinant on the span of the roots of L (`det_on_root_span`).

    V is the orthogonal sum of the fixed space of W_L and the root span.
    N keeps the fixed space, as n W_L n^-1 = W_L, and so its orthogonal
    complement, the root span.  So eps, the determinant on V, is alpha_L,
    the determinant on the fixed space, times the determinant on the root
    span; both are +-1, so eps * alpha_L is the latter.

    For w cuspidal in W_L this is also eps * alpha_w on C_W(w): w fixes the
    fixed space of W_L, whose dimension rank - |L| is that of its own
    (`cuspidal_classes`), so the two are equal.  A c in C_W(w) keeps the
    fixed space of w, so it normalizes its pointwise stabilizer, W_L
    (Steinberg), and alpha_w(c) = alpha_L(c).
    """
    return ClassFunction.from_function(W.normalizer_of_parabolic(L),
                                       lambda c: W.det_on_root_span(c, L))


def rotation_character(W: CoxeterGroup, L, j: int) -> ClassFunction:
    """The character of the rotation subgroup of a dihedral parabolic sending
    the standard rotation to the j-th power of a primitive root of unity."""
    rot = W.rotations(L)
    m = len(rot)
    return exponent_character(W.subgroup(rot), m, {x: j * k % m for k, x in enumerate(rot)})


# -- all linear characters of a subgroup ------------------------------------------


def commutator_subgroup(H: Subgroup) -> Subgroup:
    """H', the normal closure of the commutators [a, b] of H's generators."""
    W, gens = H.parent, H.generators
    comms = [W.prod([W.inv(a), W.inv(b), a, b]) for a in gens for b in gens]
    members = W.closure(comms)
    while True:
        new = {W.conj(d, g) for d in comms for g in gens} - members
        if not new:
            return W.subgroup(members)
        comms += new
        members = W.closure(comms)


def linear_characters(H: Subgroup):
    """All degree one characters of H, in a deterministic order.

    Each is an exponent map e: H -> Z/M, h -> zeta_M^e(h), M the lcm of the
    orders of H's generators modulo H' (the exponent of the abelian H/H'),
    built on H itself.  A linear character is trivial on commutators, so e = 0
    on H'.  Then each generator g outside the subgroup K covered so far is
    taken in turn.  K contains H', so K/H' is a subgroup of the abelian H/H'
    and K is normal; with d the least power of g in K, K<g> is the disjoint
    union of the cosets K g^k, 0 <= k < d.  A map e on K is invariant under
    conjugation by g, since g^-1 h g = h [h, g] with [h, g] in H', so its
    extensions to K<g> are e(h g^k) = e(h) + k x with d x = e(g^d) in Z/M.
    As d divides the order of g modulo H', which divides M, and e extends to
    a character of H/H', whose values are M-th roots of unity, d divides
    e(g^d), and there are exactly d such x.  The product of the d's is
    |H : H'|, so every linear character is reached once.  The characters are
    ordered by their exponents on the sorted members.
    """
    W = H.parent
    D = commutator_subgroup(H)

    def powers_outside(K, g):
        """g^0, ..., g^(d-1) and g^d, for d the least positive power with g^d in K."""
        powers, x = [W.identity], g
        while x not in K:
            powers.append(x)
            x = W.mult(x, g)
        return powers, x

    M = math.lcm(*(len(powers_outside(D.members, g)[0]) for g in H.generators))
    maps = [dict.fromkeys(D.sorted_members, 0)]
    for g in H.generators:
        K = maps[0]             # the members covered so far
        if g in K:
            continue
        powers, gd = powers_outside(K, g)
        d = len(powers)
        cells = [(W.mult(h, powers[k]), h, k) for k in range(1, d) for h in K]
        extended = []
        for e in maps:
            a = e[gd]
            if M % d or a % d:
                raise NotLinear("a cyclic step does not divide the exponent")
            for t in range(d):
                x = (a // d + t * (M // d)) % M
                ext = dict(e)
                ext.update((hg, (e[h] + k * x) % M) for hg, h, k in cells)
                extended.append(ext)
        maps = extended
    if len(maps) * D.order != H.order:
        raise NotLinear("H does not have |H/H'| linear characters")
    maps.sort(key=lambda e: [e[h] for h in H.sorted_members])
    return [exponent_character(H, M, e) for e in maps]


def exponent_character(H: Subgroup, M: int, ex: dict) -> ClassFunction:
    """The linear character h -> zeta_M^ex[h] of H, for exponents given on every
    member, after checking that ex is a homomorphism from H to Z/M.

    As in `linear_character`, e(a g) = e(a) + e(g) for g in a generating set
    gives every sum; no root of unity is formed until the classes are read,
    and each power of zeta_M is formed once.
    """
    W = H.parent
    if ex[W.identity] % M:
        raise NotLinear("exponent at the identity is not 0")
    for a in H.sorted_members:
        for g in H.generators:
            if (ex[W.mult(a, g)] - ex[a] - ex[g]) % M:
                raise NotLinear("exponents are not additive")
    exps = [ex[c.rep] % M for c in H.classes]
    if M <= 2:
        return ClassFunction(H, [Fraction(-1 if e else 1) for e in exps])
    roots = {e: zeta(M, e) for e in set(exps)}
    return ClassFunction(H, [roots[e] for e in exps])


def regular_character(carrier: Subgroup) -> ClassFunction:
    """The character of the group acting on its own group algebra."""
    vals = [Fraction(carrier.order if c.rep == carrier.parent.identity else 0)
            for c in carrier.classes]
    return ClassFunction(carrier, vals)


def class_function_json(cf: ClassFunction) -> dict:
    """Serialize with class representatives spelled as reduced words."""
    W = cf.carrier.parent
    return {"group": W.spec or f"rank{W.rank}",
            "classes": [W.word_str(c.rep) for c in cf.carrier.classes],
            "values": [scalar_json(v) for v in cf.values]}
