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
every transversal to it.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .chars import ClassFunction, NotInvariant
from .coxeter import CoxeterGroup, Subgroup, subsets
from .cyclo import scalar_eq, scalar_is_zero, zeta


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
        self.coeffs = {w: c for w, c in coeffs.items() if not scalar_is_zero(c)}

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
        return all(scalar_eq(self.coefficient(w), other.coefficient(w)) for w in keys)

    def __hash__(self):
        return hash(id(self))

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
        sharp = {J: set(W.transversal_sharp(J, L=self.L, within=self.universe))
                 for J in self.subsets}
        trans = {J: set(W.transversal(J, within=self.universe))
                 for J in self.subsets}
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, K in enumerate(self.subsets):
            for j, J in enumerate(self.subsets):
                if set(J) <= set(K):
                    m[i][j] = Fraction(len(trans[K] & sharp[J]))
        self.m_matrix = m

        aug = [tuple(m[i]) + tuple(Fraction(1 if k == i else 0) for k in range(n))
               for i in range(n)]
        basis, pivots = linalg.rref(aug)
        if pivots != list(range(n)):
            raise SingularM("subset incidence matrix is singular")
        self.m_inverse = [list(row[n:]) for row in basis]

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
        """Character of the right ideal generated by the shape idempotent.

        For an idempotent e, right translation by w on eQU has trace
        sum_{g in U} e(g w^-1 g^-1) = |U| / |C| * sum_{h in C} e(h), where C
        is the class of w^-1 in U.  The formula needs e * e = e.
        """
        if shape.index not in self._phi:
            e = self.e_shape(shape)
            if e * e != e:
                raise NotIdempotent(f"e of {shape} does not square to itself")
            W, uni = self.W, self.universe
            traces = []
            for c in uni.classes:
                cl = uni.classes[uni.class_of(W.inv(c.rep))]
                t = sum((e.coefficient(h) for h in cl.members), Fraction(0))
                traces.append(Fraction(uni.order, cl.size) * t)
            self._phi[shape.index] = ClassFunction(uni, traces)
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


def parabolic_ideal_character(W: CoxeterGroup, L) -> ClassFunction:
    """Character of the normalizer of W_L on the span of e_L * QW_L.

    e_L is the subset idempotent of the ambient descent algebra; the span of
    its right translates by members of W_L is invariant under right
    translation by the full normalizer.
    """
    L = tuple(sorted(L))
    amb = descent_algebra(W)
    eL = amb.e(L)
    WL = W.parabolic(L)
    N = W.normalizer_of_parabolic(L)
    uni = W.full()
    pos = uni.positions
    members = uni.sorted_members
    vecs = [eL.translate(u).vector(uni) for u in WL.sorted_members]
    basis, pivots = linalg.rref(vecs)
    traces = []
    for c in N.classes:
        winv = W.inv(c.rep)
        t = Fraction(0)
        for i, b in enumerate(basis):
            moved = [b[pos[W.mult(g, winv)]] for g in members]
            coords = linalg.coords_in_rowspace(basis, pivots, moved)
            if coords is None:
                raise NotInvariant("ideal is not normalizer invariant")
            t = t + coords[i]
        traces.append(t)
    return ClassFunction(N, traces)


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

