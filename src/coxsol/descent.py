"""The descent algebra inside the rational group algebra.

The basis elements x_J sum the inverses of the minimal coset representatives
X_J.  Counting how the X_J meet the sets X_K of representatives that conjugate
K into the generator set gives an invertible triangular matrix; its inverse
turns the x_J into a complete family of idempotents, one per subset, whose
sums over a conjugacy class of subsets are orthogonal.

Elements of the descent algebra are kept as coordinate vectors along the
x_J and multiplied with Solomon's structure constants
x_J * x_K = sum_{d in X_J cap X_K^-1} x_{J^d cap K}, J^d = {d^-1 s d : s in J}
cap S (Solomon 1976), read off the root permutations in one pass over the
group, as are the incidence matrix and the number of elements of each X_K
whose inverse lies in each conjugacy class.

The character of the right ideal eQU of an idempotent e is the trace formula
chi(w) = sum_{g in U} e(g w^-1 g^-1) (Solomon 1976), so it is a sum of
coefficients of e over one conjugacy class; no ideal is row-reduced.  For
e = sum_K c_K x_K that sum is sum_K c_K times the class count of X_K, and
e * e = e is checked in coordinates, so no product in QU is formed.

The same construction runs relative to a parabolic subgroup by restricting
every transversal to it.  The normalizer N of W_L acts on e_L * QW_L; that
module is isomorphic to the right ideal of an idempotent f = eps_L * a_L of
QN, checked by a certificate, so its character is the same trace formula.
The certificate forms no product in QN: it compares x_J coordinates in the
descent algebra of W_L, permutes coefficients of e_L by the generators of
N_L and forms e_L * eps_L inside QW_L; see `parabolic_ideal_character`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .chars import ClassFunction, NotInvariant
from .coxeter import CoxeterGroup, Subgroup, subsets
from .cyclo import zeta


class SingularM(ArithmeticError):
    """The subset incidence matrix was not invertible."""


class NotIdempotent(ArithmeticError):
    """An element taken for an idempotent does not square to itself."""


class NotAResolution(ArithmeticError):
    """Shape idempotents that are not orthogonal or do not add up to 1."""


class GroupAlgebraElement:
    """A finitely supported function on a group, with convolution product."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: CoxeterGroup, coeffs: dict):
        self.group = group
        self.coeffs = {w: c for w, c in coeffs.items() if c}

    def coefficient(self, w: int):
        return self.coeffs.get(w, Fraction(0))

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if isinstance(other, GroupAlgebraElement):
            out = dict(self.coeffs)
            for w, c in other.coeffs.items():
                out[w] = out.get(w, Fraction(0)) + c
            return GroupAlgebraElement(self.group, out)
        return self + other * unit(self.group)

    __radd__ = __add__

    def __neg__(self):
        return GroupAlgebraElement(self.group, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, GroupAlgebraElement)
                       else -(other * unit(self.group)))

    def __rsub__(self, other):
        return (-self) + other * unit(self.group)

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            mt = self.group.mult_table
            out = {}
            for x, a in self.coeffs.items():
                row = mt[x]
                for y, b in other.coeffs.items():
                    g = row[y]
                    out[g] = out.get(g, Fraction(0)) + a * b
            return GroupAlgebraElement(self.group, out)
        return GroupAlgebraElement(self.group,
                                   {w: c * other for w, c in self.coeffs.items()})

    def __rmul__(self, other):
        return GroupAlgebraElement(self.group,
                                   {w: other * c for w, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(w) == other.coefficient(w) for w in keys)

    __hash__ = None  # equality is by value, and Cyclo coefficients have no hash

    def translate(self, g: int) -> "GroupAlgebraElement":
        """Right translate: the product self * g."""
        mt = self.group.mult_table
        return GroupAlgebraElement(self.group,
                                   {mt[w][g]: c for w, c in self.coeffs.items()})

    def vector(self, universe: Subgroup):
        """Coefficient vector along the sorted members of a subgroup."""
        pos = universe.positions
        out = [Fraction(0)] * universe.order
        for w, c in self.coeffs.items():
            out[pos[w]] = c
        return out

    def __repr__(self):
        W = self.group
        parts = [f"{c}*{W.word_str(w)}" for w, c in sorted(self.coeffs.items())[:6]]
        more = "..." if len(self.coeffs) > 6 else ""
        return f"GroupAlgebraElement({' + '.join(parts)}{more})"


def unit(W: CoxeterGroup) -> GroupAlgebraElement:
    return GroupAlgebraElement(W, {W.identity: Fraction(1)})


def group_sum(W: CoxeterGroup, elems) -> GroupAlgebraElement:
    out = {}
    for w in elems:
        out[w] = out.get(w, Fraction(0)) + 1
    return GroupAlgebraElement(W, out)


def averaging(H: Subgroup) -> GroupAlgebraElement:
    """The averaging idempotent of a subgroup, inside the ambient algebra."""
    q = Fraction(1, H.order)
    return GroupAlgebraElement(H.parent, {w: q for w in H.members})


def x_element(W: CoxeterGroup, J, within: Subgroup | None = None) -> GroupAlgebraElement:
    """Sum of the inverses of the minimal coset representatives X_J."""
    return group_sum(W, (W.inv(x) for x in W.transversal(J, within=within)))


def _mask(J) -> int:
    return sum(1 << s for s in J)


def _submasks(mask: int):
    """Every bitmask whose bits lie in mask, mask itself first."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class DescentAlgebra:
    """The descent algebra of W, or of a standard parabolic W_L inside W.

    Elements are coordinate vectors along the x_J, J in L, in (size, lex)
    order; `element` turns one into an element of the group algebra.
    """

    def __init__(self, W: CoxeterGroup, L=None):
        self.W = W
        self.L = tuple(range(W.rank)) if L is None else tuple(sorted(L))
        self.universe = W.parabolic(self.L)
        self.subsets = subsets(self.L)
        self._subset_pos = {J: i for i, J in enumerate(self.subsets)}
        self.shapes = W.shapes(within=self.L)
        self._tally()
        self._invert_m()
        self._x = {}
        self._e = {}
        self._phi = {}

    # -- the basis, its structure constants and the incidence matrix ---------------

    def x(self, J) -> GroupAlgebraElement:
        J = tuple(sorted(J))
        if J not in self._x:
            self._x[J] = x_element(self.W, J, within=self.universe)
        return self._x[J]

    def _tally(self):
        """The incidence matrix, the structure constants and the class counts
        of the transversals, from one pass over the universe.

        For x in the universe, x lies in X_J exactly when J lies in
        above(x) = {s : x^-1(alpha_s) > 0}, and x^-1 lies in X_K exactly when
        K lies in below(x) = {t : x(alpha_t) > 0}.  x^-1 s x is a generator t
        exactly when x^-1(alpha_s) = +-alpha_t, with + for s in above(x); this
        partial map s -> t on above(x) reads off J^x = {x^-1 s x : s in J} cap S
        for x in X_J.  Then
          m[K][J] = |{x in X_K : J^x lies in S}| for J in K,
          x_J * x_K = sum over d in X_J cap X_K^-1 of x_{J^d cap K}
        (Solomon 1976), and counts[K][k] = |{x in X_K : x^-1 in class k}|.
        """
        W, U = self.W, self.universe
        simple = {a: s for s, a in enumerate(W.simple_root)}
        roots = [(s, W.simple_root[s]) for s in self.L]
        by_image, by_class = Counter(), Counter()
        for x in U.sorted_members:
            xinv = W.inv(x)
            px, pxi = W.perms[x], W.perms[xinv]
            above = below = 0
            image = []
            for s, a in roots:
                b = pxi[a]
                if W.root_positive[b]:
                    above |= 1 << s
                    if b in simple:
                        image.append((s, simple[b]))
                if W.root_positive[px[a]]:
                    below |= 1 << s
            by_image[above, tuple(image), below] += 1
            by_class[above, U.class_of(xinv)] += 1

        n = len(self.subsets)
        pos = {_mask(J): i for i, J in enumerate(self.subsets)}
        m = [[0] * n for _ in range(n)]
        table = [[Counter() for _ in range(n)] for _ in range(n)]
        for (above, image, below), cnt in by_image.items():
            domain = _mask(s for s, _ in image)
            for K in _submasks(above):
                for J in _submasks(K & domain):
                    m[pos[K]][pos[J]] += cnt
            for J in _submasks(above):
                Jd = _mask(t for s, t in image if J >> s & 1)
                row = table[pos[J]]
                for K in _submasks(below):
                    row[pos[K]][pos[Jd & K]] += cnt
        self.m_matrix = [[Fraction(v) for v in row] for row in m]
        self._table = [[sorted(c.items()) for c in row] for row in table]
        counts = [[0] * len(U.classes) for _ in range(n)]
        for (above, k), cnt in by_class.items():
            for K in _submasks(above):
                counts[pos[K]][k] += cnt
        self._class_counts = counts

    def _invert_m(self):
        m, n = self.m_matrix, len(self.subsets)
        # an entry needs J inside K, and J then comes first in (size, lex)
        # order: m is lower triangular, with x = 1 counted on its diagonal
        inv = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            if not m[i][i]:
                raise SingularM("subset incidence matrix is singular")
            for c in range(i + 1):
                inv[i][c] = (int(c == i) - sum(m[i][j] * inv[j][c]
                                               for j in range(c, i))) / m[i][i]
        self.m_inverse = inv

    def product(self, a, b) -> list:
        """The product of two coordinate vectors."""
        out = [Fraction(0)] * len(self.subsets)
        for j, aj in enumerate(a):
            if aj:
                row = self._table[j]
                for k, bk in enumerate(b):
                    if bk:
                        ab = aj * bk
                        for i, cnt in row[k]:
                            out[i] += cnt * ab
        return out

    def element(self, coords) -> GroupAlgebraElement:
        """The group algebra element with the given x_J coordinates."""
        acc = GroupAlgebraElement(self.W, {})
        for K, c in zip(self.subsets, coords):
            if c:
                acc = acc + c * self.x(K)
        return acc

    # -- idempotents -------------------------------------------------------------

    def coords(self, J) -> list:
        """Coordinates of the subset idempotent e_J: a row of m^-1."""
        return self.m_inverse[self._subset_pos[tuple(sorted(J))]]

    def shape_coords(self, shape) -> list:
        out = [Fraction(0)] * len(self.subsets)
        for K in sorted(shape.members):
            out = [a + b for a, b in zip(out, self.coords(K))]
        return out

    def e(self, J) -> GroupAlgebraElement:
        J = tuple(sorted(J))
        if J not in self._e:
            self._e[J] = self.element(self.coords(J))
        return self._e[J]

    def e_shape(self, shape) -> GroupAlgebraElement:
        return self.element(self.shape_coords(shape))

    def check_square(self, c, what: str):
        """Raise NotIdempotent unless c * c = c."""
        if self.product(c, c) != c:
            raise NotIdempotent(f"{what} in the descent algebra of a subgroup of "
                                f"order {self.universe.order} does not square to itself")

    def check_idempotent_family(self):
        """The shape idempotents are orthogonal and resolve the identity x_L."""
        es = [self.shape_coords(sh) for sh in self.shapes]
        total = [Fraction(0)] * len(self.subsets)
        for i, a in enumerate(es):
            self.check_square(a, f"e of {self.shapes[i]}")
            total = [t + v for t, v in zip(total, a)]
            for b in es[i + 1:]:
                if any(self.product(a, b)) or any(self.product(b, a)):
                    raise NotAResolution("two shape idempotents are not orthogonal")
        if total != [int(J == self.L) for J in self.subsets]:
            raise NotAResolution("the shape idempotents do not add up to 1")

    # -- characters of the right ideals -------------------------------------------

    def ideal_character(self, shape) -> ClassFunction:
        """Character of the right ideal generated by the shape idempotent.

        With e = sum_K c_K x_K, the coefficient sum of e over a class is
        sum_K c_K times the number of x in X_K with x^-1 in that class.
        """
        if shape.index not in self._phi:
            c = self.shape_coords(shape)
            self.check_square(c, f"e of {shape}")
            counts = self._class_counts
            self._phi[shape.index] = _trace_character(
                self.universe, lambda k: sum((ci * counts[i][k]
                                              for i, ci in enumerate(c) if ci),
                                             Fraction(0)))
        return self._phi[shape.index]

    def character_family(self):
        return {sh.index: self.ideal_character(sh) for sh in self.shapes}

    def shape_of(self, J):
        J = tuple(sorted(J))
        for sh in self.shapes:
            if J in sh.members:
                return sh
        raise KeyError(J)


def descent_algebra(W: CoxeterGroup, L=None) -> DescentAlgebra:
    """The descent algebra of W_L, built once per group; L = None means all of S."""
    L = tuple(range(W.rank)) if L is None else tuple(sorted(L))
    return W.cached(("descent", L), lambda: DescentAlgebra(W, L))


def _trace_character(U: Subgroup, class_sum) -> ClassFunction:
    """Character of U acting by right translation on eQU, for an idempotent e of QU.

    Right translation by w on eQU has trace sum_{g in U} e(g w^-1 g^-1)
    = |U| / |C| * sum_{h in C} e(h), where C is the class of w^-1 in U;
    class_sum(k) is that sum over the k-th class of U.  The formula needs
    e * e = e, which the caller has checked.
    """
    W = U.parent
    traces = []
    for c in U.classes:
        k = U.class_of(W.inv(c.rep))
        traces.append(Fraction(U.order, U.classes[k].size) * class_sum(k))
    return ClassFunction(U, traces)


def parabolic_ideal_character(W: CoxeterGroup, L) -> ClassFunction:
    """Character of the normalizer N of W_L on the span of e_L * QW_L.

    e_L = sum_K c_K x_K is the subset idempotent of the ambient descent
    algebra.  With eps_L the top idempotent of the descent algebra of W_L and
    a_L the averaging idempotent of the complement N_L, f = eps_L * a_L lies
    in QN, and x -> e_L * x is an isomorphism of right QN-modules from fQN
    onto e_L * QW_L once these hold (pi restricts a support to N):
      (i)   N = W_L * N_L and |N| = |W_L| |N_L|;
      (ii)  f * f = f, which the trace formula for f needs;
      (iii) e_L * f = e_L, so N_L fixes e_L, and e_L * QW_L = e_L * QN is
            N-invariant and the image of fQN;
      (iv)  f * pi(e_L) * f = c * f for a rational c != 0, so y -> pi(f * y)
            is c times an inverse.
    No product in QN is formed.  An n that permutes L keeps lengths in W_L
    under u -> n^-1 u n, which takes x_J of W_L to x_{J^n}.  For u in W_L,
    u^-1 is in X_K exactly when it is in X_{K cap L} of W_L, so p = pi_{W_L}(e_L)
    has coordinates p_J = sum_{K cap L = J} c_K there, and the coordinates
    multiply as in QW_L (Solomon 1976).  The checks are:
      (a) eps_L * eps_L = eps_L;
      (b) each generator n of N_L permutes L, and eps_L and p have equal
          coordinates at J and J^n, so n commutes with both, as does a_L;
      (c) e_L * n = e_L, so e_L * a_L = e_L, as N_L is a subgroup, which
          `complement_subgroup` checks; so a_L * a_L = a_L;
      (d) e_L * eps_L = e_L, a product inside QW_L; for L = S it is (a);
      (e) eps_L * p * eps_L = c' * eps_L for a rational c' != 0.
    Then f * f = eps_L^2 * a_L^2 = f, e_L * f = e_L * a_L = e_L, and by (i)
    and (c) pi(e_L) = |N_L| p * a_L, so f * pi(e_L) * f = |N_L| c' * f.
    """
    L = tuple(sorted(L))
    amb, rel, WL = descent_algebra(W), descent_algebra(W, L), W.parabolic(L)
    eL = amb.e(L)
    NL = W.complement_subgroup(L)
    N = W.normalizer_of_parabolic(L)
    if N.order != WL.order * NL.order or \
            {W.mult(u, n) for u in WL.members for n in NL.members} != N.members:
        raise NotInvariant("the normalizer is not W_L times its complement")
    eps = rel.coords(L)
    rel.check_square(eps, "eps_L")
    pos, p = rel._subset_pos, [Fraction(0)] * len(rel.subsets)
    for K, c in zip(amb.subsets, amb.coords(L)):
        p[pos[tuple(s for s in K if s in L)]] += c
    gens = {g: s for s, g in enumerate(W.generators)}
    for n in NL.generators:
        image = {s: gens.get(W.conj(W.generators[s], n)) for s in L}
        if set(image.values()) != set(L):
            raise NotInvariant("the complement does not permute the generators in L")
        moved = [pos[tuple(sorted(image[s] for s in J))] for J in rel.subsets]
        if [eps[i] for i in moved] != eps:
            raise NotIdempotent("conjugation by the complement moves eps_L, so "
                                "f = eps_L * a_L is not shown to square to itself")
        if eL.translate(n) != eL:
            raise NotInvariant("e_L is not fixed by the complement")
        if [p[i] for i in moved] != p:
            raise NotInvariant("conjugation by the complement moves pi(e_L)")
    eps_W = rel.element(eps)
    if rel is not amb and eL * eps_W != eL:
        raise NotInvariant("e_L * eps_L is not e_L, so e_L is not fixed by "
                           "the complement's f = eps_L * a_L")
    q = rel.product(rel.product(eps, p), eps)
    c = next((q[i] / v for i, v in enumerate(eps) if v), 0)
    if not c or q != [c * v for v in eps]:
        raise NotInvariant("eps_L * pi(e_L) * eps_L is not a nonzero multiple of eps_L")
    f = {W.mult(u, n): a / NL.order for u, a in eps_W.coeffs.items() for n in NL.members}
    return _trace_character(N, lambda k: sum(
        (f.get(h, Fraction(0)) for h in N.classes[k].members), Fraction(0)))


def rotation_idempotent(W: CoxeterGroup, L, j: int) -> GroupAlgebraElement:
    """Idempotent projecting onto the j-th rotation character of a dihedral
    parabolic: the averaged rotations weighted by inverse roots of unity."""
    a, b = sorted(L)
    m = W.matrix[a, b]
    rot = W.mult(W.generators[a], W.generators[b])
    coeffs = {}
    x = W.identity
    for k in range(m):
        # x = rot^{-k}
        coeffs[x] = zeta(m, j * k) * Fraction(1, m)
        x = W.mult(x, W.inv(rot))
    return GroupAlgebraElement(W, coeffs)

