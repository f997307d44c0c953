"""Class functions and characters with exact cyclotomic values.

Every character is carried by an explicit subgroup and stores one value per
conjugacy class of that subgroup.  Induction uses the averaged conjugation
formula, so it needs nothing beyond the multiplication table.  A linear
character is a class function too: `linear_character` checks elementwise
values for multiplicativity before keeping one value per class.  The full set
for a subgroup is obtained by factoring through the quotient modulo the
commutator subgroup and extending characters one cyclic step at a time.  The
commutator subgroup is the normal closure of the commutators of the subgroup's
generators: their closure, grown by conjugates under the generators until no
new element appears.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coxeter import CoxeterGroup, Subgroup
from .cyclo import Cyclo, scalar_json, zeta


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

    def inner(self, other) -> Fraction:
        """Hermitian inner product of class functions."""
        self._same_carrier(other)
        acc = Fraction(0)
        for c, a, b in zip(self.carrier.classes, self.values, other.values):
            acc = acc + c.size * a * b.conjugate()
        acc = acc * Fraction(1, self.carrier.order)
        if not isinstance(acc, Fraction):
            q = acc.as_rational()
            if q is not None:
                return q
        return acc

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


def alpha_parabolic(W: CoxeterGroup, J) -> ClassFunction:
    """Determinant on the fixed space of W_J, on the normalizer of W_J."""
    return _fixed_space_det(W, W.normalizer_of_parabolic(J), J, W.identity)


def alpha_element(W: CoxeterGroup, w: int) -> ClassFunction:
    """Determinant on the fixed space of w, on the centralizer of w.

    With x W_J x^-1 the parabolic closure of w, x maps the fixed space of W_J
    onto that of w, and x^-1 c x normalizes W_J for c centralizing w.
    """
    x, J = W.parabolic_closure(w)
    return _fixed_space_det(W, W.centralizer(w), J, x)


def sigma_parabolic(W: CoxeterGroup, J) -> ClassFunction:
    """Determinant on the span of the roots of J, on the complement N_J."""
    return ClassFunction.from_function(W.complement_subgroup(J),
                                       lambda n: W.det_on_root_span(n, J))


def _fixed_space_det(W: CoxeterGroup, carrier: Subgroup, J, x) -> ClassFunction:
    """Determinant on x times the fixed space of W_J, for a carrier that
    normalizes x W_J x^-1: the sign over the determinant on the root span."""
    sign = sign_character(carrier)
    return ClassFunction.from_function(
        carrier, lambda c: sign(c) * W.det_on_root_span(W.conj(c, x), J))


def reflection_fix_character(carrier: Subgroup) -> ClassFunction:
    """Number of reflecting hyperplanes fixed under conjugation."""
    W = carrier.parent
    refl = W.reflections

    def count(w):
        return Fraction(sum(1 for t in refl if W.conj(t, w) == t))

    return ClassFunction.from_function(carrier, count)


def rotation_character(W: CoxeterGroup, L, j: int) -> ClassFunction:
    """The character of the rotation subgroup of a dihedral parabolic sending
    the standard rotation to the j-th power of a primitive root of unity."""
    a, b = sorted(L)
    m = W.matrix[a, b]
    rot = W.mult(W.generators[a], W.generators[b])
    carrier = W.cyclic(rot)
    assert carrier.order == m  # s_a s_b has order m_ab in any Coxeter group
    values = {}
    x = W.identity
    for k in range(m):
        values[x] = zeta(m, j * k)
        x = W.mult(x, rot)
    return ClassFunction.from_function(carrier, values.__getitem__)


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

    Characters are computed on the quotient modulo the commutator subgroup and
    extended cyclic step by cyclic step; values are roots of unity of order
    dividing the exponent of the quotient.
    """
    W = H.parent
    D = commutator_subgroup(H)
    coset_of = {}
    for h in H.sorted_members:
        coset_of[h] = min(W.mult(d, h) for d in D.sorted_members)
    reps = sorted(set(coset_of.values()))
    qmult = {(a, b): coset_of[W.mult(a, b)] for a in reps for b in reps}
    e = coset_of[W.identity]

    def qorder(g):
        k, x = 1, g
        while x != e:
            x = qmult[x, g]
            k += 1
        return k

    M = math.lcm(*(qorder(g) for g in reps))

    chars = [{e: 0}]          # exponent of zeta_M at each covered coset
    for g in reps:
        if g in chars[0]:
            continue
        covered = list(chars[0])
        powers, x = [e], g    # powers[k] = g^k, up to the first covered power
        while x not in chars[0]:
            powers.append(x)
            x = qmult[x, g]
        d, gd = len(powers), x
        assert M % d == 0  # d divides the order of g, which divides the exponent M
        new_chars = []
        for chi in chars:
            a = chi[gd]
            # zeta_M^a has order dividing o(g)/d, the order of g^d, and o(g) | M
            assert a % d == 0
            for t in range(d):
                ex = (a // d + t * (M // d)) % M
                ext = dict(chi)
                for k in range(1, d):
                    for h in covered:
                        ext[qmult[h, powers[k]]] = (chi[h] + k * ex) % M
                new_chars.append(ext)
        chars = new_chars
    assert len(chars) == len(reps)  # a finite abelian group has |A| linear characters

    out = []
    for chi in chars:
        if M <= 2:
            values = {h: Fraction(1 if chi[coset_of[h]] == 0 else -1)
                      for h in H.sorted_members}
        else:
            values = {h: zeta(M, chi[coset_of[h]]) for h in H.sorted_members}
        key = tuple(chi[coset_of[h]] for h in H.sorted_members)
        out.append((key, linear_character(H, values)))
    out.sort(key=lambda p: p[0])
    return [lc for _, lc in out]


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


def class_function_from_json(data: dict, carrier: Subgroup) -> ClassFunction:
    """Rebuild a class function on the given carrier from its serialized form."""
    W = carrier.parent
    vals = [None] * len(carrier.classes)
    for word, value in zip(data["classes"], data["values"]):
        w = W.element_from_word(W.parse_word_str(word))
        vals[carrier.class_of(w)] = Cyclo.from_json(value)
    if any(v is None for v in vals):
        raise ValueError("serialized classes do not cover the carrier")
    return ClassFunction(carrier, vals)
