"""General slow paths that the package replaced by structural facts, kept to
check those facts against.

- The Orlik-Solomon algebra in its full no-broken-circuit (NBC) basis, with
  Bjorner's broken-circuit witness, general straightening of any monomial,
  elements, the wedge product and the group action.  The NBC basis is the one
  thing that depends on an order of the hyperplanes (the reflections), so the
  oracle takes its own order, optionally shuffled by a seed.  The package
  reads the characters and dimensions off Moebius numbers of flats and
  straightens degree 2 only, in closed form, in the order of the reflections
  as group elements; `NBCAlgebra.component_character` is the trace on the
  straightened basis it replaced.
- Ranks and independence of hyperplane sets, read off the lattice.
- Fixed spaces of elements and of standard parabolics, by row reduction
  (`linalg.nullspace` and `linalg.rank` left the package with them); powers
  by repeated multiplication; the number of hyperplanes an element fixes.
- The parabolic closure of an element, by a scan of W for a conjugate of
  smallest support, and the fixed-space dimension and the determinant
  alpha_w on the fixed space of w read off it; bulkiness by commuting every
  element of N_J with every element of W_J.  The package reads alpha_w as
  alpha_L for w cuspidal in W_L, cuspidality off the letters of reduced
  words and bulkiness off the generators of N_J.
- The root data the package does not store: the coordinates of all 2N
  roots, root k + N being -root k, and the positive root each reflection
  negates, read off its permutation.
- Characters and elements the package no longer builds: sigma_J, the
  determinant on the root span of J on the complement N_J; the averaging
  idempotent of a subgroup; and a closed-form model of the top component
  character of a dihedral group, from the angles of its hyperplanes.
- The group algebra as a vector space (`Element`: sums, differences and
  scalar multiples, which the package never forms), the x_J basis as sums
  of group elements (`x_element`), and elements of a descent algebra summed
  from it term by term; the package builds an element in one pass over its
  universe.  The check that the shape idempotents of a descent algebra are
  orthogonal and add up to 1 (`check_idempotent_family`).
- Complex conjugation of a cyclotomic value and the Hermitian inner product
  of class functions; decoding a value from its JSON form; reading one
  check's outcome off a report.
- Linear characters through a multiplication table of H/H', each member
  mapped to its coset; the package builds them on H itself.
- Cyclotomic arithmetic on Fractions: products of coefficient lists with one
  Fraction multiply-add per pair of terms, the reduction mod Phi_n with one
  per table entry, and inverses by extended Euclid over Q[x].  The package
  does all three on integer numerators over one common denominator.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, cached_property

from coxsol import chars, linalg
from coxsol.chars import ClassFunction, NotInvariant, NotLinear, commutator_subgroup
from coxsol.cyclo import Cyclo, _reduction_table, cyclotomic_polynomial, euler_phi
from coxsol.descent import GroupAlgebraElement
from coxsol.orlik_solomon import dihedral_hyperplane_angles


class StraighteningFailure(RuntimeError):
    """No rewriting step applies; the monomial order logic is broken."""


# -- the intersection lattice --------------------------------------------------------


def flat_rank(lat, reflections) -> int:
    return lat.flats[lat.flat_of(reflections)].rank


def independent(lat, reflections) -> bool:
    reflections = tuple(reflections)
    return flat_rank(lat, reflections) == len(reflections)


# -- the NBC basis and general straightening ------------------------------------------


@cache
def nbc(alg, seed=None) -> "NBCAlgebra":
    """The NBC presentation of an Orlik-Solomon algebra, one per algebra and
    seed, so its straightening memo is shared.  The hyperplanes are ordered as
    their reflections are, then shuffled with the seed unless it is None."""
    order = sorted(alg.W.reflections)
    if seed is not None:
        random.Random(seed).shuffle(order)
    return NBCAlgebra(alg, order)


class NBCAlgebra:
    """Exterior-style algebra on the hyperplanes modulo circuit boundaries,
    presented on the NBC monomials of the given order of the reflections.
    A monomial is a tuple of reflections; sorted means sorted in that order."""

    def __init__(self, alg, order):
        self.W = alg.W
        self.lattice = alg.lattice
        self.order = order
        self.position = {t: i for i, t in enumerate(order)}
        self._memo = {}

    def _broken_circuit_witness(self, mono):
        """(h, circuit) for a sorted circuit whose least element h is not in
        mono and whose rest is; None when mono, independent and sorted, is NBC.
        By Bjorner's criterion it is exactly when every suffix starts with the
        least hyperplane of its closure.  At the last suffix whose closure holds
        a smaller h, h and the suffix members it depends on form the circuit."""
        lat, pos = self.lattice, self.position
        for i in reversed(range(len(mono))):
            suffix = mono[i:]
            h = min(lat.flats[lat.flat_of(suffix)].key, key=pos.__getitem__)
            if pos[h] < pos[mono[i]]:
                return h, [h] + [x for x in suffix if independent(
                    lat, [y for y in suffix if y != x] + [h])]
        return None

    @cached_property
    def nbc_basis(self):
        """NBC monomials grouped by degree."""
        levels = [[()]]
        while levels[-1]:
            nxt = []
            for mono in levels[-1]:
                start = self.position[mono[-1]] + 1 if mono else 0
                for t in self.order[start:]:
                    cand = mono + (t,)
                    if independent(self.lattice, cand) and \
                            self._broken_circuit_witness(cand) is None:
                        nxt.append(cand)
            levels.append(nxt)
        return levels[:-1]

    @cached_property
    def _flat_monomials(self):
        out = {}
        for level in self.nbc_basis:
            for mono in level:
                out.setdefault(self.lattice.flat_of(mono), []).append(mono)
        return out

    def monomials_of_flat(self, fid: int):
        return self._flat_monomials.get(fid, [])

    def straighten(self, mono) -> dict:
        """Coordinates of a product of generators in the NBC basis."""
        mono = tuple(mono)
        if len(set(mono)) < len(mono):
            return {}
        sign, mono = self._sort_sign(mono)
        out = self._straighten_sorted(mono)
        if sign == 1:
            return dict(out)
        return {m: -c for m, c in out.items()}

    def _straighten_sorted(self, mono) -> dict:
        if mono in self._memo:
            return self._memo[mono]
        if not independent(self.lattice, mono):
            out = {}
        else:
            found = self._broken_circuit_witness(mono)
            if found is None:
                out = {mono: Fraction(1)}
            else:
                h, circuit = found
                rest = tuple(x for x in mono if x not in circuit)
                s0, merged = self._sort_sign(rest + tuple(circuit[1:]))
                if merged != mono:
                    raise StraighteningFailure(str(mono))
                out = {}
                for i in range(1, len(circuit)):
                    dropped = tuple(circuit[:i] + circuit[i + 1:])
                    si, m2 = self._sort_sign(rest + dropped)
                    coeff = -s0 * si * (-1 if i % 2 else 1)
                    for m3, c3 in self._straighten_sorted(m2).items():
                        out[m3] = out.get(m3, Fraction(0)) + coeff * c3
                out = {m: c for m, c in out.items() if c}
        self._memo[mono] = out
        return out

    def _sort_sign(self, mono):
        """Sign of the permutation that sorts a tuple of distinct reflections,
        and the sort; for the concatenation of two sorted tuples, the sign and
        merge of their wedge."""
        pos = self.position
        inv = sum(1 for i, x in enumerate(mono) for y in mono[i + 1:] if pos[x] > pos[y])
        return (-1 if inv % 2 else 1), tuple(sorted(mono, key=pos.__getitem__))

    def element(self, coeffs: dict) -> "OSElement":
        acc = {}
        for mono, c in coeffs.items():
            for m2, c2 in self.straighten(mono).items():
                acc[m2] = acc.get(m2, Fraction(0)) + c * c2
        return OSElement(self, acc)

    def generator(self, t: int) -> "OSElement":
        return self.element({(t,): Fraction(1)})

    def one(self) -> "OSElement":
        return OSElement(self, {(): Fraction(1)})

    def act_monomial(self, mono, w: int) -> dict:
        image = tuple(self.W.conj(t, w) for t in mono)
        return self.straighten(image)

    def component_character(self, flat_ids, acting) -> ClassFunction:
        """Trace of the acting subgroup on the NBC monomials of the given flats."""
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


class OSElement:
    """An element written in the NBC basis of its algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: NBCAlgebra, coeffs: dict):
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
                sign, merged = alg._sort_sign(m1 + m2)
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


# -- the reflection representation by row reduction ------------------------------------


def rank(rows) -> int:
    return len(linalg.rref(rows)[0])


def nullspace(rows, ncols: int):
    """A canonical basis of {x : A x = 0} for the matrix with the given rows."""
    basis, pivots = linalg.rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    if not rows:
        some = Fraction(1)
    else:
        some = next((x for r in rows for x in r), Fraction(1))
    one, zero = linalg.one_of(some), linalg.zero_of(some)
    out = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(basis, pivots):
            v[p] = -row[f]
        out.append(tuple(v))
    return linalg.rref(out)[0] if out else []


def all_roots(W):
    """The coordinates of the 2N roots in the package's numbering."""
    return W.roots + [tuple(-x for x in v) for v in W.roots]


def reflection_roots(W) -> dict:
    """{t: k} with k the one positive root that the reflection t negates."""
    N, out = W.n_positive, {}
    for t in W.reflections:
        [out[t]] = [k for k in range(N) if W.perms[t][k] == k + N]
    return out


def _minus_identity(W, w: int):
    m = W.matrix_of(w)
    return [tuple(m[i][j] - (W._one if i == j else W._zero)
                  for i in range(W.rank)) for j in range(W.rank)]


def fixed_space(W, w: int):
    """Canonical basis (rref rows) of the fixed space of w."""
    return nullspace(_minus_identity(W, w), W.rank)


def parabolic_fixed_space(W, J):
    """Basis of the common fixed space of the standard parabolic W_J."""
    rows = [r for s in J for r in _minus_identity(W, W.generators[s])]
    return nullspace(rows, W.rank)


def parabolic_closure(W, w: int):
    """An x and a J such that x W_J x^-1 is the smallest parabolic containing w.

    J is the support of a conjugate x^-1 w x of smallest support.  By
    Steinberg's theorem x W_J x^-1 is the pointwise stabilizer of the fixed
    space of w, which therefore has dimension rank - |J|.
    """
    supports = [set(W.words[W.conj(w, x)]) for x in range(W.order)]
    k = min(map(len, supports))
    x = next(x for x, J in enumerate(supports) if len(J) == k)
    return x, tuple(sorted(supports[x]))


def fix_dim(W, w: int) -> int:
    """Dimension of the fixed space of w, off its parabolic closure."""
    return W.rank - len(parabolic_closure(W, w)[1])


def alpha_element(W, w: int) -> ClassFunction:
    """Determinant on the fixed space of w, on the centralizer of w.

    With x W_J x^-1 the parabolic closure of w, x maps the fixed space of W_J
    onto that of w, and x^-1 c x normalizes W_J for c centralizing w; so the
    value at c is the sign over the determinant of x^-1 c x on the root span.
    """
    x, J = parabolic_closure(W, w)
    C = W.centralizer(w)
    sign = chars.sign_character(C)
    return ClassFunction.from_function(
        C, lambda c: sign(c) * W.det_on_root_span(W.conj(c, x), J))


def commutes_with_parabolic(W, J) -> bool:
    """Whether every element of N_J commutes with every element of W_J."""
    members = W.parabolic(J).sorted_members
    return all(W.mult(n, u) == W.mult(u, n)
               for n in W.complement_subgroup(J).sorted_members for u in members)


def power(W, x: int, k: int) -> int:
    if k < 0:
        return power(W, W.inv_table[x], -k)
    out = W.identity
    for _ in range(k):
        out = W.mult_table[out][x]
    return out


def reflection_fix_character(carrier) -> ClassFunction:
    """Number of reflecting hyperplanes fixed under conjugation."""
    W = carrier.parent
    refl = W.reflections

    def count(w):
        return Fraction(sum(1 for t in refl if W.conj(t, w) == t))

    return ClassFunction.from_function(carrier, count)


# -- characters and elements the package no longer builds --------------------------------


def quotient_linear_characters(H):
    """The linear characters of H through the quotient H/H': each member mapped
    to its coset (its least member), a multiplication table of the cosets, and
    the characters extended cyclic step by cyclic step over the cosets, as
    exponents of zeta_M for M the exponent of the quotient.  They are ordered
    by their exponents on the sorted members."""
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

    found = [{e: 0}]          # exponent of zeta_M at each covered coset
    for g in reps:
        if g in found[0]:
            continue
        covered = list(found[0])
        powers, x = [e], g    # powers[k] = g^k, up to the first covered power
        while x not in found[0]:
            powers.append(x)
            x = qmult[x, g]
        d, gd = len(powers), x
        extended = []
        for chi in found:
            a = chi[gd]
            if M % d or a % d:
                raise NotLinear("a cyclic step does not divide the exponent")
            for t in range(d):
                ex = (a // d + t * (M // d)) % M
                ext = dict(chi)
                for k in range(1, d):
                    for h in covered:
                        ext[qmult[h, powers[k]]] = (chi[h] + k * ex) % M
                extended.append(ext)
        found = extended
    if len(found) != len(reps):
        raise NotLinear("the quotient by H' does not have |H/H'| linear characters")

    out = []
    for chi in found:
        ex = {h: chi[coset_of[h]] for h in H.sorted_members}
        out.append((tuple(ex.values()), chars.exponent_character(H, M, ex)))
    out.sort(key=lambda p: p[0])
    return [lc for _, lc in out]


class Element(GroupAlgebraElement):
    """A group algebra element with sums, differences and scalar multiples.

    A scalar c stands for c times the identity.  Every result is an Element,
    also when the other operand is a package GroupAlgebraElement.
    """

    __slots__ = ()

    def coefficient(self, w: int):
        return self.coeffs.get(w, Fraction(0))

    def _element(self, x) -> "Element":
        if isinstance(x, GroupAlgebraElement):
            return as_element(x)
        return Element(self.group, {self.group.identity: x})

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in self._element(other).coeffs.items():
            out[w] = out.get(w, Fraction(0)) + c
        return Element(self.group, out)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.group, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + -self._element(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return as_element(super().__mul__(other))
        return Element(self.group, {w: c * other for w, c in self.coeffs.items()})

    def __rmul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return as_element(other) * self
        return Element(self.group, {w: other * c for w, c in self.coeffs.items()})


def as_element(x: GroupAlgebraElement) -> Element:
    return Element(x.group, x.coeffs)


def unit(W) -> Element:
    return Element(W, {W.identity: Fraction(1)})


def group_sum(W, elems) -> Element:
    out = {}
    for w in elems:
        out[w] = out.get(w, Fraction(0)) + 1
    return Element(W, out)


def x_element(W, J, within=None) -> Element:
    """Sum of the inverses of the minimal coset representatives X_J, or of
    X_J cap W_L = X_J^L inside the parabolic `within`."""
    return group_sum(W, (W.inv(x) for x in W.transversal(J)
                         if within is None or x in within.members))


def descent_x(D, J) -> Element:
    """x_J of the descent algebra D, inside its universe."""
    return x_element(D.W, J, within=D.universe)


def dense_element(D, coords) -> Element:
    """sum_K c_K x_K, one x_K at a time."""
    acc = Element(D.W, {})
    for K, c in zip(D.subsets, coords):
        if c:
            acc = acc + c * descent_x(D, K)
    return acc


def e_shape(D, shape) -> Element:
    """The shape idempotent of D as a group algebra element."""
    return as_element(D.element(D.shape_coords(shape)))


def averaging(H) -> Element:
    """The averaging idempotent of a subgroup, inside the ambient algebra."""
    q = Fraction(1, H.order)
    return Element(H.parent, {w: q for w in H.members})


class NotAResolution(ArithmeticError):
    """Shape idempotents that are not orthogonal or do not add up to 1."""


def check_idempotent_family(D):
    """Raise unless the shape idempotents of the descent algebra D square to
    themselves, are orthogonal and add up to the identity x_L."""
    es = [D.shape_coords(sh) for sh in D.shapes]
    total = [Fraction(0)] * len(D.subsets)
    for i, a in enumerate(es):
        D.check_square(a, f"e of {D.shapes[i]}")
        total = [t + v for t, v in zip(total, a)]
        for b in es[i + 1:]:
            if any(D.product(a, b)) or any(D.product(b, a)):
                raise NotAResolution("two shape idempotents are not orthogonal")
    if total != [int(J == D.L) for J in D.subsets]:
        raise NotAResolution("the shape idempotents do not add up to 1")


def dihedral_top_model(W) -> ClassFunction:
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


# -- reports, JSON values, conjugation and inner products ---------------------------


def check(report, label: str) -> bool:
    """The outcome of the check of that label in a report."""
    for lab, ok, _ in report.checks:
        if lab == label:
            return ok
    raise KeyError(label)


def from_json(data: dict) -> Cyclo:
    """A cyclotomic value from its `to_json` form."""
    return Cyclo(int(data["conductor"]),
                 [Fraction(int(num), int(den)) for num, den in data["coeffs"]])


def conjugate(x):
    """Complex conjugation zeta_n -> zeta_n^-1 of a Cyclo; a Fraction is real."""
    if not isinstance(x, Cyclo):
        return x
    n = x.conductor
    out = [Fraction(0)] * n
    for j, c in enumerate(x.coeffs):
        out[-j % n] = c
    return Cyclo(n, reduce_fractions(out, n))


def inner(a: ClassFunction, b: ClassFunction):
    """The Hermitian inner product of two class functions on one carrier, as a
    Fraction when it is rational."""
    a._same_carrier(b)
    H = a.carrier
    acc = sum((c.size * x * conjugate(y) for c, x, y in zip(H.classes, a.values, b.values)),
              Fraction(0)) * Fraction(1, H.order)
    q = acc if isinstance(acc, Fraction) else acc.as_rational()
    return acc if q is None else q


# -- cyclotomic arithmetic on Fractions ---------------------------------------------


def pmul(a, b):
    """The product of two Fraction coefficient lists (index = exponent), trimmed
    of trailing zeros, by one Fraction multiply-add per pair of terms."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    while out and not out[-1]:
        out.pop()
    return out


def reduce_fractions(p, n: int) -> tuple:
    """A Fraction coefficient list mod Phi_n, as a tuple of phi(n) Fractions.

    Exponents k >= n are first folded onto k mod n, as x^n = 1 mod Phi_n;
    then each x^k with phi(n) <= k < n is replaced by its table row, with one
    Fraction multiply-add per entry.
    """
    phi = euler_phi(n)
    out = list(p[:n])
    for k in range(n, len(p)):
        if p[k]:
            out[k % n] += p[k]
    head = out[:phi]
    head += [Fraction(0)] * (phi - len(head))
    for v, row in zip(out[phi:], _reduction_table(n)):
        if v:
            for j, c in row:
                head[j] += c * v
    return tuple(head)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def inverse(x) -> tuple:
    """The coefficient tuple of 1/x for a nonzero Cyclo x, by extended Euclid of
    x against Phi_n on Fraction lists inside Q[x]."""
    a = _trim(list(x.coeffs))
    if not a:
        raise ZeroDivisionError("inverse of zero")
    b = [Fraction(c) for c in cyclotomic_polynomial(x.conductor)]
    u0, u1 = [Fraction(1)], []
    while b:
        if len(a) < len(b):
            a, b, u0, u1 = b, a, u1, u0
            continue
        lead = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, c in enumerate(b):
            a[shift + j] -= lead * c
        mov = [Fraction(0)] * shift + [lead * c for c in u1]
        u0 = _trim([p - q for p, q in
                    zip(u0 + [Fraction(0)] * max(0, len(mov) - len(u0)),
                        mov + [Fraction(0)] * max(0, len(u0) - len(mov)))])
        a = _trim(a)
    if len(a) != 1:
        raise ZeroDivisionError("not invertible mod Phi_n")
    return reduce_fractions([c / a[0] for c in u0], x.conductor)
