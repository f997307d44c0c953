"""The descent algebra inside the rational group algebra.

The basis elements x_J sum the inverses of the minimal coset representatives
X_J.  Counting how the X_J meet the sets X_K of representatives that conjugate
K into the generator set gives an invertible triangular matrix; its inverse
turns the x_J into a complete family of idempotents, one per subset, whose
sums over a conjugacy class of subsets are orthogonal.  The character of the
right ideal eQU of an idempotent e is the trace formula
chi(w) = sum_{g in U} e(g w^-1 g^-1) (Solomon 1976), so it is a sum of
coefficients of e over one conjugacy class; no ideal is row-reduced.

The same construction runs relative to a parabolic subgroup by restricting
every transversal to it.  The normalizer N of W_L acts on e_L * QW_L; that
module is isomorphic to the right ideal of an idempotent of QN, checked by a
certificate, so its character is the same trace formula.
"""

from __future__ import annotations

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


class DescentAlgebra:
    """The descent algebra of W, or of a standard parabolic W_L inside W."""

    def __init__(self, W: CoxeterGroup, L=None):
        self.W = W
        self.L = tuple(range(W.rank)) if L is None else tuple(sorted(L))
        self.universe = W.parabolic(self.L)
        self.subsets = subsets(self.L)
        self._subset_pos = {J: i for i, J in enumerate(self.subsets)}
        self._x = {J: x_element(W, J, within=self.universe) for J in self.subsets}
        self.shapes = W.shapes(within=self.L)
        self._build_m()
        self._e = {}
        self._phi = {}

    # -- the basis and the incidence matrix ------------------------------------

    def x(self, J) -> GroupAlgebraElement:
        return self._x[tuple(sorted(J))]

    def _build_m(self):
        W, n = self.W, len(self.subsets)
        sharp = {J: set(W.subset_images(J, within=self.universe))
                 for J in self.subsets}
        trans = {J: set(W.transversal(J, within=self.universe))
                 for J in self.subsets}
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, K in enumerate(self.subsets):
            for j, J in enumerate(self.subsets):
                if set(J) <= set(K):
                    m[i][j] = Fraction(len(trans[K] & sharp[J]))
        self.m_matrix = m
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

    # -- idempotents -------------------------------------------------------------

    def e(self, J) -> GroupAlgebraElement:
        J = tuple(sorted(J))
        if J not in self._e:
            i = self._subset_pos[J]
            acc = GroupAlgebraElement(self.W, {})
            for k, K in enumerate(self.subsets):
                c = self.m_inverse[i][k]
                if c:
                    acc = acc + c * self._x[K]
            self._e[J] = acc
        return self._e[J]

    def e_shape(self, shape) -> GroupAlgebraElement:
        acc = GroupAlgebraElement(self.W, {})
        for K in sorted(shape.members):
            acc = acc + self.e(K)
        return acc

    def check_idempotent_family(self):
        """The shape idempotents are orthogonal and resolve the identity."""
        es = [self.e_shape(sh) for sh in self.shapes]
        total = GroupAlgebraElement(self.W, {})
        for i, a in enumerate(es):
            if a * a != a:
                raise NotIdempotent(f"e of {self.shapes[i]} does not square to itself")
            total = total + a
            for b in es[i + 1:]:
                if not ((a * b).is_zero() and (b * a).is_zero()):
                    raise NotAResolution("two shape idempotents are not orthogonal")
        if total != unit(self.W):
            raise NotAResolution("the shape idempotents do not add up to 1")

    # -- characters of the right ideals -------------------------------------------

    def ideal_character(self, shape) -> ClassFunction:
        """Character of the right ideal generated by the shape idempotent."""
        if shape.index not in self._phi:
            self._phi[shape.index] = _trace_character(self.e_shape(shape), self.universe)
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
    if ("descent", L) not in W.algebras:
        W.algebras["descent", L] = DescentAlgebra(W, L)
    return W.algebras["descent", L]


def _trace_character(e: GroupAlgebraElement, U: Subgroup) -> ClassFunction:
    """Character of U acting by right translation on eQU, for e in QU.

    For an idempotent e, right translation by w on eQU has trace
    sum_{g in U} e(g w^-1 g^-1) = |U| / |C| * sum_{h in C} e(h), where C is
    the class of w^-1 in U.  The formula needs e * e = e.
    """
    if e * e != e:
        raise NotIdempotent(f"an element of the algebra of a subgroup of order "
                            f"{U.order} does not square to itself")
    W = U.parent
    traces = []
    for c in U.classes:
        cl = U.classes[U.class_of(W.inv(c.rep))]
        t = sum((e.coefficient(h) for h in cl.members), Fraction(0))
        traces.append(Fraction(U.order, cl.size) * t)
    return ClassFunction(U, traces)


def parabolic_ideal_character(W: CoxeterGroup, L) -> ClassFunction:
    """Character of the normalizer N of W_L on the span of e_L * QW_L.

    e_L is the subset idempotent of the ambient descent algebra.  With eps_L
    the top idempotent of the descent algebra of W_L and a_L the averaging
    idempotent of the complement N_L, f = eps_L * a_L lies in QN, and
    x -> e_L * x is an isomorphism of right QN-modules from fQN onto
    e_L * QW_L once these hold (pi restricts a support to N):
      (i)   N = W_L * N_L;
      (ii)  f * f = f, checked with the trace formula for f;
      (iii) e_L * f = e_L, so N_L fixes e_L, and e_L * QW_L = e_L * QN is
            N-invariant and the image of fQN;
      (iv)  f * pi(e_L) * f = c * f for a rational c != 0, so y -> pi(f * y)
            is c times an inverse.
    """
    L = tuple(sorted(L))
    eL = descent_algebra(W).e(L)
    NL = W.complement_subgroup(L)
    N = W.normalizer_of_parabolic(L)
    if {W.mult(u, n) for u in W.parabolic(L).members for n in NL.members} != N.members:
        raise NotInvariant("the normalizer is not W_L times its complement")
    f = descent_algebra(W, L).e(L) * averaging(NL)
    chi = _trace_character(f, N)
    if eL * f != eL:
        raise NotInvariant("e_L is not fixed by the complement")
    # f lies in QN, so pi(e_L) * f = pi(e_L * f) = pi(e_L): g is f * pi(e_L) * f
    g = f * GroupAlgebraElement(W, {w: c for w, c in eL.coeffs.items()
                                    if w in N.members})
    w = min(f.coeffs)  # f is not zero: e_L * f = e_L and e_L is not zero
    c = g.coefficient(w) / f.coefficient(w)
    if not c or g != c * f:
        raise NotInvariant("f * pi(e_L) * f is not a nonzero multiple of f")
    return chi


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

