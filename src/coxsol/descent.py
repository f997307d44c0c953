"""The descent algebra inside the rational group algebra.

The basis elements x_J sum the inverses of the minimal coset representatives
X_J.  Counting how the X_J meet the sets X_K of representatives that conjugate
K into the generator set gives an invertible triangular matrix; its inverse
turns the x_J into a complete family of idempotents, one per subset, whose
sums over a conjugacy class of subsets are orthogonal.

Elements of the descent algebra are kept as coordinate vectors along the
x_J and multiplied with Solomon's structure constants
x_J * x_K = sum_{d in X_J cap X_K^-1} x_{J^d cap K}, J^d = {d^-1 s d : s in J}
cap S (Solomon 1976), read off how each element moves the simple roots
(`CoxeterGroup.on_simple`) in one pass over the group, as are the incidence
matrix and the number of elements of each X_K whose inverse lies in each
conjugacy class.

The character of the right ideal eQU of an idempotent e is the trace formula
chi(w) = sum_{g in U} e(g w^-1 g^-1) (Solomon 1976), so it is a sum of
coefficients of e over one conjugacy class; no ideal is row-reduced.  For
e = sum_K c_K x_K that sum is sum_K c_K times the class count of X_K, and
e * e = e is checked in coordinates, so no product in QU is formed.

The same construction runs relative to a parabolic subgroup by restricting
every transversal to it; an element is built in one pass over the universe,
as x^-1 has coefficient sum_{K in above(x)} c_K.  The normalizer N of W_L acts
on e_L * QW_L; that module is isomorphic to the right ideal of an idempotent
f = eps_L * a_L of QN, checked by a certificate, so its character is the same
trace formula.  e_L = x_L * z with z in the descent algebra of W_L, and left
multiplication by x_L is injective and fixed by the complement N_L, so the
certificate is read in x_J coordinates of W_L and forms no product in the
group algebra; see `parabolic_ideal_character`.
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


class GroupAlgebraElement:
    """A finitely supported function on a group, with convolution product."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: CoxeterGroup, coeffs: dict):
        self.group = group
        self.coeffs = {w: c for w, c in coeffs.items() if c}

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        mt = self.group.mult_table
        out = {}
        for x, a in self.coeffs.items():
            row = mt[x]
            for y, b in other.coeffs.items():
                g = row[y]
                out[g] = out.get(g, Fraction(0)) + a * b
        return GroupAlgebraElement(self.group, out)

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        # __init__ drops zero coefficients, so equal elements have equal dicts
        return self.coeffs == other.coeffs

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
        self._e = {}
        self._phi = {}

    # -- the basis, its structure constants and the incidence matrix ---------------

    def _tally(self):
        """The incidence matrix, the structure constants and the class counts
        of the transversals, from one pass over the universe.

        For x in the universe, x lies in X_J exactly when J lies in
        above(x) = {s : x^-1(alpha_s) > 0}, and x^-1 lies in X_K exactly when
        K lies in below(x) = {t : x(alpha_t) > 0}.  x^-1 s x is a generator t
        exactly when x^-1(alpha_s) = +-alpha_t, with + for s in above(x); this
        partial map s -> t on above(x) reads off J^x = {x^-1 s x : s in J} cap S
        for x in X_J.  above(x) and that map are W.on_simple(x^-1, L), and
        below(x) is the ascents of W.on_simple(x, L).  Then
          m[K][J] = |{x in X_K : J^x lies in S}| for J in K,
          x_J * x_K = sum over d in X_J cap X_K^-1 of x_{J^d cap K}
        (Solomon 1976), and counts[K][k] = |{x in X_K : x^-1 in class k}|.
        The pairs (x^-1, above(x)) are kept for `element`.
        """
        W, U = self.W, self.universe
        by_image, by_class = Counter(), Counter()
        self._above = []
        for x in U.sorted_members:
            xinv = W.inv(x)
            ascents, image = W.on_simple(xinv, self.L)
            above, below = _mask(ascents), _mask(W.on_simple(x, self.L)[0])
            self._above.append((xinv, above))
            by_image[above, tuple(image.items()), below] += 1
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
        """The group algebra element with the given x_J coordinates.

        x_K sums the x^-1 with x in X_K, that is with K in above(x), so x^-1
        has the coefficient sum_{K in above(x)} c_K, summed once per above(x).
        """
        c = {_mask(K): v for K, v in zip(self.subsets, coords)}
        sums = {a: sum((c[K] for K in _submasks(a)), Fraction(0))
                for a in {above for _, above in self._above}}
        return GroupAlgebraElement(self.W, {xinv: sums[a] for xinv, a in self._above})

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

    def check_square(self, c, what: str):
        """Raise NotIdempotent unless c * c = c."""
        if self.product(c, c) != c:
            raise NotIdempotent(f"{what} in the descent algebra of a subgroup of "
                                f"order {self.universe.order} does not square to itself")

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
    x_J sums the w with w(alpha_s) > 0 for s in J.  Four facts move every
    check into x_J coordinates of W_L (x_J^L below), with no product formed:
      Support.  c_K != 0 only for K inside L: m[K][J] != 0 only for J inside
        K, matrices with that support are closed under products, and the
        inverse of m is a polynomial in m (Cayley-Hamilton); e_L is its row L.
      Factorization.  Each w is y * u for one u in W_L and one y with
        y(alpha_s) > 0 for s in L (Geck-Pfeiffer 2.1.1).  Such a y keeps
        the positive roots of W_L positive, so w(alpha_s) = y(u(alpha_s)) > 0
        exactly when u(alpha_s) > 0, for s in L.  So x_K = x_L * x_K^L for K
        inside L, and e_L = x_L * z with z = sum_{K in L} c_K x_K^L.
      Injectivity.  y * u lies in W_L only for y = 1, so pi_{W_L}(x_L * v) = v
        for v in QW_L: v -> x_L * v is injective, and p = pi_{W_L}(e_L) = z
        has the coordinates c_K, K inside L.
      The complement.  n in N_L sends each alpha_s, s in L, to a simple root
        alpha_{s^n} of L, so y -> y * n permutes the y above, and
        x_L * n = x_L; an n that only permutes the reflections of L may send
        alpha_s to -alpha_s, and then x_L * n is not x_L.
    Then u -> n u n^-1 keeps lengths in W_L and takes x_J^L to x_{J^n}^L,
    and the coordinates multiply as in QW_L (Solomon 1976).  The checks are:
      (a) eps_L * eps_L = eps_L;
      (b) each generator n of N_L permutes the simple roots of L, and eps_L
          and p have equal coordinates at J and J^n, so n commutes with
          both, as does a_L;
          then e_L * n = x_L * n * (n^-1 p n) = e_L, so e_L * a_L = e_L,
          as N_L is a subgroup, which `complement_subgroup` checks; so
          a_L * a_L = a_L;
      (c) p * eps_L = p, so e_L * eps_L = x_L * p * eps_L = e_L; for L = S,
          p = eps_L and it is (a);
      (d) eps_L * p * eps_L = c' * eps_L for a rational c' != 0.
    Then f * f = eps_L^2 * a_L^2 = f, e_L * f = e_L * a_L = e_L, and by (i)
    and (b) pi(e_L) = |N_L| p * a_L, so f * pi(e_L) * f = |N_L| c' * f.
    """
    L = tuple(sorted(L))
    amb, rel, WL = descent_algebra(W), descent_algebra(W, L), W.parabolic(L)
    NL = W.complement_subgroup(L)
    N = W.normalizer_of_parabolic(L)
    if N.order != WL.order * NL.order or \
            {W.mult(u, n) for u in WL.members for n in NL.members} != N.members:
        raise NotInvariant("the normalizer is not W_L times its complement")
    eps = rel.coords(L)
    rel.check_square(eps, "eps_L")
    pos, cL = rel._subset_pos, amb.coords(L)
    if any(c and K not in pos for K, c in zip(amb.subsets, cL)):
        raise NotInvariant("e_L has a coordinate at a subset that is not inside L")
    p = [cL[amb._subset_pos[J]] for J in rel.subsets]
    for n in NL.generators:
        image = W.on_simple(n, L)[1]
        if set(image.values()) != set(L):
            raise NotInvariant("the complement does not permute the simple roots of L")
        moved = [pos[tuple(sorted(image[s] for s in J))] for J in rel.subsets]
        if [eps[i] for i in moved] != eps:
            raise NotIdempotent("conjugation by the complement moves eps_L, so "
                                "f = eps_L * a_L is not shown to square to itself")
        if [p[i] for i in moved] != p:
            raise NotInvariant("conjugation by the complement moves pi(e_L)")
    if rel.product(p, eps) != p:
        raise NotInvariant("e_L * eps_L is not e_L, so e_L is not fixed by "
                           "the complement's f = eps_L * a_L")
    q = rel.product(rel.product(eps, p), eps)
    c = next((q[i] / v for i, v in enumerate(eps) if v), 0)
    if not c or q != [c * v for v in eps]:
        raise NotInvariant("eps_L * pi(e_L) * eps_L is not a nonzero multiple of eps_L")
    f = {W.mult(u, n): a / NL.order
         for u, a in rel.element(eps).coeffs.items() for n in NL.members}
    return _trace_character(N, lambda k: sum(
        (f.get(h, Fraction(0)) for h in N.classes[k].members), Fraction(0)))


def rotation_idempotent(W: CoxeterGroup, L, j: int) -> GroupAlgebraElement:
    """Idempotent projecting onto the j-th rotation character of a dihedral
    parabolic: the averaged rotations weighted by inverse roots of unity."""
    rot = W.rotations(L)
    m = len(rot)
    return GroupAlgebraElement(W, {rot[-k % m]: zeta(m, j * k) * Fraction(1, m)
                                   for k in range(m)})

