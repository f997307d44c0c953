"""Finite Coxeter groups in their reflection representation.

A group is built from a Coxeter matrix.  The bilinear form has entries
-cos(pi/m(i,j)): a Fraction for m in {2, 3} (0 and -1/2), and otherwise
realised exactly in Q(zeta_n) with n = 2*lcm of the off-diagonal orders.
Root coordinates are elements of Q(zeta_n).  The positive roots are closed
up from the simple roots by a walk that carries each root's pairings
2*B(v, alpha_j): s_i(v) is v with coordinate i lowered by its i-th pairing,
one subtraction and no product, and only a new root gets pairings, from at
most rank products with the Cartan entries 2*B(alpha_i, alpha_j).  A group
whose orders are all 2 or 3 is built without a cyclotomic product.  `roots`
holds the N positive roots: root i is alpha_i, and root k + N is -root k,
which `matrix_of` negates on demand.  Every element is stored as the
permutation it induces on the 2N roots.  Lengths, reduced words, conjugacy
classes, cuspidal classes, coset transversals, shapes, normalizers,
fixed-space dimensions and determinants on root spans are all derived from
that data; the determinant on a subspace over Q(zeta_n), `det_on_subspace`,
remains as a test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache, wraps

from .cyclo import Cyclo, cos_pi_over, rational
from . import linalg


class InvalidMatrix(ValueError):
    """The given matrix is not a Coxeter matrix."""


class InfiniteOrTooLarge(RuntimeError):
    """Enumeration exceeded the configured element bound."""


class NotNormalizing(ValueError):
    """An element does not normalize the parabolic subgroup it was paired with."""


class NotClosed(ArithmeticError):
    """A set taken to be closed (a subgroup, the root system, a class of subsets) is not."""


DEFAULT_MAX_ELEMENTS = 10000
MAX_RANK = 4


def _per_subset(kind):
    """Build a method's result once per subset J of S, stored under (kind, sorted J)."""
    def wrap(build):
        @wraps(build)
        def method(self, J):
            J = tuple(sorted(J))
            return self.cached((kind, J), lambda: build(self, J))
        return method
    return wrap


class CoxeterMatrix:
    """A symmetric integer matrix with 1 on the diagonal and entries >= 2 off it."""

    __slots__ = ("rank", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidMatrix("matrix must be square")
        for i in range(n):
            if rows[i][i] != 1:
                raise InvalidMatrix("diagonal entries must be 1")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InvalidMatrix("matrix must be symmetric")
                if rows[i][j] < 2:
                    raise InvalidMatrix("off-diagonal entries must be >= 2")
        self.rank = n
        self.rows = rows

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def conductor(self) -> int:
        orders = [self.rows[i][j] for i in range(self.rank)
                  for j in range(i + 1, self.rank)]
        return 2 * math.lcm(*orders) if orders else 2

    def __repr__(self):
        return f"CoxeterMatrix({list(map(list, self.rows))})"


_NAMED = {
    "A1": [[1]],
    "A2": [[1, 3], [3, 1]],
    "A3": [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    "B2": [[1, 4], [4, 1]],
    "B3": [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
    "H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
    "A4": [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
    "B4": [[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
    "D4": [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],
    "F4": [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]],
}


def matrix_from_spec(spec: str) -> CoxeterMatrix:
    """Parse a group specification like "A3", "I2(7)" or "A1xI2(5)"."""
    blocks = []
    for part in spec.split("x"):
        part = part.strip()
        if part in _NAMED:
            blocks.append(_NAMED[part])
        elif part.startswith("I2(") and part.endswith(")"):
            try:
                m = int(part[3:-1])
            except ValueError:
                raise InvalidMatrix(f"bad dihedral order in {part!r}")
            if m < 2:
                raise InvalidMatrix("I2(m) needs m >= 2")
            blocks.append([[1, m], [m, 1]])
        else:
            raise InvalidMatrix(f"unknown group factor {part!r}")
    rank = sum(len(b) for b in blocks)
    if rank > MAX_RANK:
        raise InvalidMatrix(f"total rank {rank} exceeds bound {MAX_RANK}")
    rows = [[2] * rank for _ in range(rank)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                rows[at + i][at + j] = x
        at += len(b)
    return CoxeterMatrix(rows)


class ConjugacyClass:
    __slots__ = ("rep", "members")

    def __init__(self, rep, members):
        self.rep = rep
        self.members = members

    @property
    def size(self):
        return len(self.members)


class CoxeterGroup:
    """A finite Coxeter group with its root system and multiplication table."""

    def __init__(self, matrix: CoxeterMatrix, max_elements: int = DEFAULT_MAX_ELEMENTS,
                 spec: str | None = None):
        self.matrix = matrix
        self.rank = matrix.rank
        self.spec = spec
        self.conductor = matrix.conductor()
        self._store = {}  # see cached
        # W_{ij} has order 2 * m_ij; refuse before the field and roots are built
        if any(2 * matrix[i, j] > max_elements for i in range(self.rank)
               for j in range(i)):
            raise InfiniteOrTooLarge(f"group exceeded {max_elements} elements")
        self._build_form()
        self._build_elements(self._build_roots(max_elements), max_elements)
        self.classes = self.full().classes
        # the rank of the parabolic closure: the smallest support in the class
        self._closure_rank = [min(len(set(self.words[x])) for x in c.members)
                              for c in self.classes]
        self._build_reflections()

    # -- construction --------------------------------------------------------

    def _build_form(self):
        """B(alpha_i, alpha_j) = -cos(pi/m_ij): a Fraction for m in {1, 2, 3}
        (1, 0 and -1/2), and a Cyclo of the conductor only for m >= 4."""
        n = self.conductor
        minus_cos = {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1, 2)}
        self.form = [tuple(minus_cos[m] if m in minus_cos else -cos_pi_over(m, n)
                           for m in row) for row in self.matrix.rows]
        self._zero = rational(0, n)
        self._one = rational(1, n)

    def _build_roots(self, max_elements):
        """Close the simple roots under the simple reflections, breadth first,
        walking the positive roots only.

        s_i sends alpha_i to -alpha_i and permutes the other positive roots
        (Humphreys, Reflection Groups and Coxeter Groups, 1.4), so the walk
        never applies s_i to alpha_i and every root it makes is positive.  It
        reaches every positive root: a non-simple one, b, has some j with
        B(b, alpha_j) > 0 (as B(b, b) > 0), and s_j(b) is a positive root of
        smaller height, so b lies on a walk up from a simple root.  Root i is
        alpha_i, and with N positive roots, root k + N is -root k; only the N
        are stored, and s_i(-b) = -s_i(b) fills in the negative half.

        Each root v carries its pairings c_j = 2 B(v, alpha_j), so s_i(v) is v
        with coordinate i lowered by c_i, and c_i = 0 means s_i fixes v.  Only
        a new root gets pairings: 2 B(s_i v, alpha_j) = c_j - c_i a_ij, with
        the Cartan entry a_ij = 2 B(alpha_i, alpha_j).  As s_i is an
        involution, s_i(v) = w also gives s_i(w) = v, so only the images not
        known that way are computed.
        """
        r = self.rank
        cartan = [tuple(2 * b for b in row) for row in self.form]
        self.roots = [tuple(self._one if j == i else self._zero for j in range(r))
                      for i in range(r)]
        root_index = {linalg.vec_key(v): i for i, v in enumerate(self.roots)}
        pairing = list(cartan)
        # image[i][k]: the index of s_i(root k); s_i(alpha_i) is filled in below
        image = [{i: None} for i in range(r)]

        # every root passes through the frontier once, so every image is recorded
        frontier = list(range(r))
        while frontier:
            nxt = []
            for ri in frontier:
                vec, pairs = self.roots[ri], pairing[ri]
                for i in range(r):
                    if ri in image[i]:
                        continue
                    c = pairs[i]
                    if not c:
                        image[i][ri] = ri
                        continue
                    img = vec[:i] + (vec[i] - c,) + vec[i + 1:]
                    idx = root_index.get(linalg.vec_key(img))
                    if idx is None:
                        idx = root_index[linalg.vec_key(img)] = len(self.roots)
                        self.roots.append(img)
                        a = cartan[i]
                        pairing.append(tuple(-c if j == i else p - c * a[j] if a[j] else p
                                             for j, p in enumerate(pairs)))
                        nxt.append(idx)
                        if idx >= max_elements:
                            raise InfiniteOrTooLarge(
                                f"root system exceeded {max_elements} positive roots")
                    image[i][ri], image[i][idx] = idx, ri
            frontier = nxt
        N = self.n_positive = len(self.roots)
        self.n_roots = 2 * N
        perms = []
        for i, row in enumerate(image):
            row[i] = i + N
            half = [row[k] for k in range(N)]
            perms.append(tuple(half + [(k + N) % (2 * N) for k in half]))
        return perms

    def _build_elements(self, gen_perms, max_elements):
        r = self.rank
        ident = tuple(range(self.n_roots))
        self.perms = [ident]
        self.words = [()]
        self.lengths = [0]
        parent, last = [None], [None]
        right = [[None] for _ in range(r)]  # right[s][w] = w * s
        index = {ident: 0}

        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                pw = self.perms[w]
                # each descent w * s is shorter, so it was reached earlier,
                # with s as an ascent
                for s in self.on_simple(w, range(r))[0]:
                    child = tuple(pw[j] for j in gen_perms[s])
                    c = index.get(child)
                    if c is None:
                        if len(self.perms) >= max_elements:
                            raise InfiniteOrTooLarge(
                                f"group exceeded {max_elements} elements")
                        c = index[child] = len(self.perms)
                        self.perms.append(child)
                        self.words.append(self.words[w] + (s,))
                        self.lengths.append(self.lengths[w] + 1)
                        parent.append(w)
                        last.append(s)
                        for row in right:
                            row.append(None)
                        nxt.append(c)
                    right[s][w] = c
                    right[s][c] = w
            frontier = nxt

        self.order = len(self.perms)
        self.identity = 0
        self.generators = [right[s][0] for s in range(r)]
        # a * b = (a * parent(b)) * last(b), and parent(b) comes before b
        cols = [list(range(self.order))]  # cols[b][a] = a * b
        for b in range(1, self.order):
            step = right[last[b]]
            cols.append([step[x] for x in cols[parent[b]]])
        self.mult_table = [list(row) for row in zip(*cols)]
        self.inv_table = [row.index(self.identity) for row in self.mult_table]

        self.longest = max(range(self.order), key=lambda w: self.lengths[w])
        # the longest element sends every positive root to a negative one
        if self.lengths[self.longest] != self.n_positive:
            raise NotClosed("the longest element does not negate every positive root")

    def _build_reflections(self):
        full = self.full()
        self.reflections = sorted({t for g in self.generators
                                   for t in self.classes[full.class_of(g)].members})
        N = self.n_positive
        for t in self.reflections:
            pt = self.perms[t]
            # s_a sends a root b to -b only when b is a multiple of a, that is +-a
            if sum(pt[k] == k + N for k in range(N)) != 1:
                raise NotClosed("a reflection does not negate exactly one positive root")

    def on_simple(self, x: int, J):
        """(ascents, image): how x moves the simple roots of J.

        ascents lists the s in J with x(alpha_s) > 0, that is l(x s) > l(x),
        and image maps each s in J with x(alpha_s) = alpha_t to t; both keep
        J's order.  Other modules read the root permutations only through it.
        Root s is alpha_s, and root b is positive exactly when b < N.
        """
        px, ascents, image = self.perms[x], [], {}
        for s in J:
            b = px[s]
            if b < self.n_positive:
                ascents.append(s)
                if b < self.rank:
                    image[s] = b
        return ascents, image

    def cached(self, key, build):
        """The value under key in the group's one store, made by build() once.  Keys
        start with a kind: subgroup, parabolic, normalizer, complement, shapes,
        rotations, descent, os."""
        if key not in self._store:
            self._store[key] = build()
        return self._store[key]

    # -- elementary operations -------------------------------------------------

    def mult(self, a: int, b: int) -> int:
        return self.mult_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def conj(self, x: int, w: int) -> int:
        """x conjugated by w, i.e. w^-1 x w."""
        return self.mult_table[self.mult_table[self.inv_table[w]][x]][w]

    def prod(self, elems) -> int:
        out = self.identity
        for e in elems:
            out = self.mult_table[out][e]
        return out

    def length(self, w: int) -> int:
        return self.lengths[w]

    def word_str(self, w: int) -> str:
        return "*".join(f"s{i + 1}" for i in self.words[w]) or "e"

    # -- reflection representation ----------------------------------------------

    def matrix_of(self, w: int):
        """Rows are the images of the simple roots under w; root k >= N is
        -root (k - N), negated here."""
        N, roots = self.n_positive, self.roots
        return [roots[k] if k < N else tuple(-x for x in roots[k - N])
                for k in self.perms[w][:self.rank]]

    def det_on_subspace(self, w: int, basis):
        """Determinant of w on an invariant subspace with rref basis rows; a test oracle."""
        if not basis:
            return Fraction(1)
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        m = self.matrix_of(w)
        coords = []
        for b in basis:
            img = tuple(sum((b[i] * m[i][j] for i in range(self.rank)
                             if b[i]), self._zero) for j in range(self.rank))
            c = linalg.coords_in_rowspace(basis, pivots, img)
            if c is None:
                raise ValueError("subspace is not invariant under the element")
            coords.append(c)
        d = linalg.det(coords)
        q = d.as_rational() if isinstance(d, Cyclo) else d
        return q if q is not None else d

    def parabolic_closure(self, w: int):
        """An x and a J such that x W_J x^-1 is the smallest parabolic containing w.

        J is the support of a conjugate x^-1 w x of smallest support.  By
        Steinberg's theorem x W_J x^-1 is the pointwise stabilizer of the fixed
        space of w, which therefore has dimension rank - |J|.
        """
        k = self._closure_rank[self.full().class_of(w)]
        for x in range(self.order):
            J = set(self.words[self.conj(w, x)])
            if len(J) == k:
                return x, tuple(sorted(J))

    def fix_dim(self, w: int) -> int:
        """Dimension of the fixed space of w."""
        return self.rank - self._closure_rank[self.full().class_of(w)]

    def cuspidal_classes(self, J):
        """The classes of W_J with no fixed points beyond the fixed space of
        W_J, which has dimension rank - |J|."""
        dim = self.rank - len(J)
        return [c for c in self.parabolic(J).classes if self.fix_dim(c.rep) == dim]

    def normalizer_factors(self, c: int, J):
        """u and d with c = u * d, u in W_J and d the shortest element of W_J c.

        d is reached from c by stripping left descents in J.  It permutes the
        simple roots of J exactly when c normalizes W_J; otherwise this raises
        NotNormalizing.
        """
        mt, lengths = self.mult_table, self.lengths
        gens = [self.generators[s] for s in J]
        u, d = self.identity, c
        stripped = True
        while stripped:
            stripped = False
            for g in gens:
                if lengths[mt[g][d]] < lengths[d]:
                    u, d = mt[u][g], mt[g][d]
                    stripped = True
        if set(self.on_simple(d, J)[1].values()) != set(J):
            raise NotNormalizing(f"{self.word_str(c)} does not normalize W_J for J={tuple(J)}")
        return u, d

    def det_on_root_span(self, c: int, J) -> Fraction:
        """Determinant of c on the span of the roots of J, for c normalizing W_J.

        With c = u * d as in normalizer_factors, d permutes the simple roots of
        J, and the determinant is sign(u) = (-1)^(l(c) - l(d)) times the sign
        of that permutation, whose inversions are read in J's sorted order.
        """
        J = tuple(sorted(J))
        _, d = self.normalizer_factors(c, J)
        image = list(self.on_simple(d, J)[1].values())
        flips = self.lengths[c] - self.lengths[d]
        flips += sum(1 for i, a in enumerate(image) for b in image[i + 1:] if a > b)
        return Fraction(-1 if flips % 2 else 1)

    # -- subsets, transversals, shapes -------------------------------------------

    def all_subsets(self):
        """All subsets of the generator index set, by size then lexicographically."""
        return subsets(range(self.rank))

    def transversal(self, J):
        """Minimal right coset transversal X_J."""
        return [w for w in range(self.order)
                if len(self.on_simple(self.inv_table[w], J)[0]) == len(J)]

    def subset_images(self, J, within=None):
        """{x: K} for the x in X_J (inside a parabolic, if given) with J^x = K in S.

        x^-1 s x is the reflection of the root x^-1(alpha_s), so it is a
        generator exactly when that root is simple; these roots are all
        positive exactly when x lies in X_J.  For J in L and x in W_L, K lies
        in L, because a generator in W_L is one of L's.
        """
        pool = within.sorted_members if within is not None else range(self.order)
        out = {}
        for x in pool:
            image = self.on_simple(self.inv_table[x], J)[1]
            if len(image) == len(J):
                out[x] = tuple(sorted(image.values()))
        return out

    def complement_in_normalizer(self, J):
        """The complement N_J = {x in X_J : J^x = J} of W_J in its normalizer."""
        J = tuple(sorted(J))
        return [x for x, K in self.subset_images(J).items() if K == J]

    @_per_subset("complement")
    def complement_subgroup(self, J) -> "Subgroup":
        """N_J as a subgroup; checks that the element set really is closed.

        The set lies in the group its greedy generators generate, so it is
        closed exactly when it is all of that group.
        """
        sub = self.subgroup(self.complement_in_normalizer(J))
        if self.closure(sub.generators) != sub.members:
            raise NotClosed(f"the complement for J = {J} is not closed")
        return sub

    def is_bulky(self, J) -> bool:
        """Whether every element of N_J centralizes W_J."""
        members = self.parabolic(J).sorted_members
        for n in self.complement_subgroup(J).sorted_members:
            for u in members:
                if self.mult_table[n][u] != self.mult_table[u][n]:
                    return False
        return True

    def shapes(self, within=None):
        """Partition of the subsets (of S, or of within's generator set) by conjugacy."""
        return self._shapes(range(self.rank) if within is None else within)

    @_per_subset("shapes")
    def _shapes(self, L):
        inside = self.parabolic(L)
        assigned, shapes = set(), []
        for J in subsets(L):
            if J in assigned:
                continue
            members = set(self.subset_images(J, within=inside).values())
            # x = 1 fixes J, and conjugacy of subsets is an equivalence
            if J not in members or not members.isdisjoint(assigned):
                raise NotClosed(f"the subsets conjugate to {J} do not form a class")
            shapes.append(Shape(J, frozenset(members), len(shapes)))
            assigned |= members
        return shapes

    # -- subgroups ---------------------------------------------------------------

    def subgroup(self, members) -> "Subgroup":
        members = frozenset(members)
        return self.cached(("subgroup", members), lambda: Subgroup(self, members))

    def generated_subgroup(self, gens) -> "Subgroup":
        return self.subgroup(self.closure(gens))

    def closure(self, gens) -> set:
        """The members of the subgroup generated by gens."""
        members = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.mult_table[a][g]
                    if b not in members:
                        members.add(b)
                        nxt.append(b)
            frontier = nxt
        return members

    @_per_subset("rotations")
    def rotations(self, L) -> tuple:
        """(s_a s_b)^k for k = 0..m-1, L = {a < b}; NotClosed unless s_a s_b
        has order m = m_ab, as in any Coxeter group."""
        a, b = L
        st = self.mult(self.generators[a], self.generators[b])
        out = [self.identity]
        for _ in range(self.matrix[a, b] - 1):
            out.append(self.mult(out[-1], st))
        if self.mult(out[-1], st) != self.identity or out.count(self.identity) != 1:
            raise NotClosed(f"s{a + 1}*s{b + 1} does not have order {self.matrix[a, b]}")
        return tuple(out)

    @_per_subset("parabolic")
    def parabolic(self, J) -> "Subgroup":
        return self.generated_subgroup(self.generators[s] for s in J)

    def full(self) -> "Subgroup":
        return self.parabolic(range(self.rank))

    def centralizer(self, w: int, within=None) -> "Subgroup":
        pool = within.sorted_members if within is not None else range(self.order)
        mt = self.mult_table
        return self.subgroup(x for x in pool if mt[x][w] == mt[w][x])

    @_per_subset("normalizer")
    def normalizer_of_parabolic(self, J) -> "Subgroup":
        members = self.parabolic(J).members
        gens = [self.generators[s] for s in J]
        return self.subgroup(x for x in range(self.order)
                             if all(self.conj(g, x) in members for g in gens))


def subsets(L):
    """All subsets of L as sorted tuples, by size then lexicographically."""
    out = [()]
    for s in sorted(L):
        out += [j + (s,) for j in out]
    return sorted(out, key=lambda j: (len(j), j))


def subset_label(J) -> str:
    return ",".join("s%d" % (i + 1) for i in J)


class Shape:
    """A conjugacy class of subsets of the generator set."""

    __slots__ = ("canonical", "members", "index")

    def __init__(self, canonical, members, index):
        self.canonical = canonical
        self.members = members
        self.index = index

    def __repr__(self):
        return f"Shape[{','.join('s%d' % (i + 1) for i in self.canonical) or 'empty'}]"


class Subgroup:
    """A subgroup given by an explicit member set, with its own class structure."""

    def __init__(self, parent: CoxeterGroup, members: frozenset):
        self.parent = parent
        self.members = members
        self.sorted_members = tuple(sorted(members))

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def classes(self):
        W, seen, classes = self.parent, set(), []
        for w in self.sorted_members:
            if w in seen:
                continue
            members = frozenset(W.conj(w, x) for x in self.sorted_members)
            seen |= members
            classes.append(ConjugacyClass(min(members), members))
        classes.sort(key=lambda c: c.rep)
        return classes

    @cached_property
    def _class_index(self):
        return {x: k for k, c in enumerate(self.classes) for x in c.members}

    @cached_property
    def generators(self):
        """Greedy generators: each member, in sorted order, that the earlier
        ones do not generate.  They generate at least the member set."""
        gens, span = [], {self.parent.identity}
        for w in self.sorted_members:
            if w not in span:
                gens.append(w)
                span = self.parent.closure(gens)
        return tuple(gens)

    @cached_property
    def positions(self):
        """The index of each member in sorted_members."""
        return {w: i for i, w in enumerate(self.sorted_members)}

    def class_of(self, w: int) -> int:
        return self._class_index[w]

    def longest_element(self) -> int:
        return max(self.sorted_members, key=lambda w: self.parent.lengths[w])

    def __repr__(self):
        return f"Subgroup(order={self.order})"


@lru_cache(maxsize=None)
def build_group(spec: str, max_elements: int = DEFAULT_MAX_ELEMENTS) -> CoxeterGroup:
    """Build (and cache) a named group such as "B3" or "A1xI2(5)"."""
    return CoxeterGroup(matrix_from_spec(spec), max_elements, spec=spec)
