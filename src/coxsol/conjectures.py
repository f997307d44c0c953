"""Cuspidal character assignments behind the top descent and arrangement characters.

Every conjugacy class of subsets L of the generating set carries two
distinguished characters of the normalizer of W_L: the descent algebra ideal
character of the subset idempotent and the top component character of the
parabolic reflection arrangement.  This module builds linear characters on
centralizers of cuspidal elements of W_L whose inductions reassemble both
characters, and verifies all the resulting identities in exact arithmetic.
The normalizer assignments at L extend those of W_L itself: one lift reads
each assignment of W_L on the centralizer of its element in the normalizer,
at every subset, so only the assignments of W_L itself are searched, or,
past the search cap on a disconnected graph, built from its components.
Each psi is phi times the twist eps * alpha_L (`twist_character`).

Verification results are returned as ConjectureReport objects: a list of
labelled boolean checks, never a bare assertion, so a failing identity is
reported rather than raised.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .coxeter import CoxeterGroup, Subgroup, subset_label
from .chars import (NotLinear, class_function_json, linear_character, linear_characters,
                    regular_character, rotation_character, sign_character,
                    trivial_character, twist_character)
from .cyclo import Cyclo, rational
from .descent import descent_algebra, parabolic_ideal_character, rotation_idempotent
from .orlik_solomon import (os_algebra, shape_component_character,
                            top_component_character, top_component_tilde,
                            whole_space_character)
from . import linalg


class UnsupportedCase(RuntimeError):
    """No construction route applies to the requested subset."""


class SearchExhausted(RuntimeError):
    """The fallback search ended without producing an assignment."""


class PrerequisiteFailed(RuntimeError):
    """A structural fact the constructions rely on does not hold."""


class MalformedTable(ValueError):
    """A dihedral table entry is not an integer, or its columns miss a class."""


SEARCH_CAP = 100000


class Assignment:
    """A cuspidal element together with linear characters on a centralizer."""

    __slots__ = ("L", "element", "centralizer", "phi", "psi", "route")

    def __init__(self, L, element, centralizer, phi, psi, route):
        self.L = tuple(L)
        self.element = element
        self.centralizer = centralizer
        self.phi = phi
        self.psi = psi
        self.route = route

    def as_dict(self, W: CoxeterGroup) -> dict:
        return {"L": subset_label(self.L),
                "element": W.word_str(self.element),
                "centralizer_order": self.centralizer.order,
                "route": self.route,
                "phi": class_function_json(self.phi),
                "psi": class_function_json(self.psi)}

    def __repr__(self):
        return f"Assignment(L={self.L}, element={self.element}, route={self.route})"


class ConjectureReport:
    """Outcome of one verification run as labelled exact checks.

    Sum identities are recorded as residual class functions so a consumer can
    see exactly where a failed identity deviates; booleans alone would hide
    that.  The run is verified precisely when every residual vanishes and
    every plain check passed.
    """

    def __init__(self, name: str, W: CoxeterGroup, L=None):
        self.name = name
        self.W = W
        self.group = W.spec or f"rank{W.rank}"
        self.L = tuple(L) if L is not None else None
        self.checks = []
        self.assignments = []
        self.subreports = []
        self.residuals = {}
        self.aborted = None

    def add(self, label: str, ok, detail: str = "") -> bool:
        self.checks.append((label, bool(ok), detail))
        return bool(ok)

    def add_residual(self, label: str, diff) -> bool:
        """Record an identity check together with its defect class function."""
        self.residuals[label] = diff
        return self.add(label, diff.is_zero())

    @property
    def ok(self) -> bool:
        return (all(ok for _, ok, _ in self.checks)
                and all(r.ok for r in self.subreports))

    @property
    def status(self) -> str:
        if self.aborted is not None:
            return self.aborted
        for sub in self.subreports:
            if sub.aborted is not None:
                return sub.aborted
        return "verified" if self.ok else "failed"

    @property
    def title(self) -> str:
        where = f" at L=[{subset_label(self.L)}]" if self.L is not None else ""
        return f"conjecture {self.name} for {self.group}{where}"

    def lines(self):
        out = [f"{'PASS' if self.ok else 'FAIL'} {self.title}"]
        for lab, ok, detail in self.checks:
            tail = f" ({detail})" if detail else ""
            out.append(f"  {'pass' if ok else 'FAIL'} {lab}{tail}")
        for sub in self.subreports:
            out += ["  " + line for line in sub.lines()]
        return out

    def as_dict(self) -> dict:
        data = {"conjecture": self.name, "group": self.group,
                "status": self.status, "ok": self.ok,
                "checks": [{"label": lab, "ok": ok, "detail": detail}
                           for lab, ok, detail in self.checks]}
        if self.L is not None:
            data["L"] = subset_label(self.L)
        data["residuals"] = {lab: class_function_json(diff)
                             for lab, diff in self.residuals.items()}
        if self.assignments:
            data["assignments"] = {self.W.word_str(a.element): a.as_dict(self.W)
                                   for a in self.assignments}
        if self.subreports:
            data["cases"] = [sub.as_dict() for sub in self.subreports]
        return data


def _sum_induced(chars, target: Subgroup):
    return _total(chi.induce(target) for chi in chars)


def _total(class_functions):
    return functools.reduce(operator.add, class_functions)


def _centralizer_in(W: CoxeterGroup, w: int, N: Subgroup) -> Subgroup:
    """The centralizer of w in W, which must lie in N."""
    C = W.centralizer(w)
    if not C.members <= N.members:
        raise PrerequisiteFailed(
            "centralizer of a cuspidal element leaves the normalizer")
    return C


# -- base assignments on a parabolic viewed as a group of its own ----------------------


def construct_parabolic_B(W: CoxeterGroup, L):
    """Linear characters on centralizers (inside W_L) of cuspidal elements.

    Closed forms cover parabolics of rank at most two; larger ones fall back
    to a bounded search through the linear characters of the centralizers.
    Where that search is exhausted and the Coxeter graph of L is
    disconnected, the assignments are products of the components' own
    (`_component_products`).  Both callers check, through `_construct`,
    that the elements cover each cuspidal class of W_L once.
    """
    L = tuple(sorted(L))
    WL = W.parabolic(L)
    if len(L) == 0:
        triv = trivial_character(WL)
        return [Assignment(L, W.identity, WL, triv, triv, "rank0")]
    if len(L) == 1:
        s = W.generators[L[0]]
        return [Assignment(L, s, WL, sign_character(WL), trivial_character(WL), "rank1")]
    if len(L) == 2:
        return _dihedral_B(W, L)
    D = descent_algebra(W, L)
    try:
        return _search_pools(W, L, D.ideal_character(D.shape_of(L)),
                             top_component_character(W, L))
    except SearchExhausted:
        parts = _components(W, L)
        if len(parts) == 1:
            raise
        return _component_products(W, L, parts)


def _components(W: CoxeterGroup, L) -> list:
    """The vertex sets of the connected components of the Coxeter graph on L."""
    parts = []
    for s in L:
        linked = [p for p in parts if any(W.matrix[s, t] > 2 for t in p)]
        parts = [p for p in parts if p not in linked] + [{s}.union(*linked)]
    return sorted(tuple(sorted(p)) for p in parts)


def _component_products(W: CoxeterGroup, L, parts) -> list:
    """The assignments of W_L = W_L1 x ... x W_Lk built from those of the
    components W_Li: element w = w_1 ... w_k and centralizer C_1 x ... x C_k,
    phi and psi the products of the components' values, route "components".

    The factors commute, so w is cuspidal in W_L, C_{W_L}(w) is the product
    of the C_{W_Li}(w_i), and the products run over every cuspidal class of
    W_L once.  Characters of the factors multiply to a character of the
    product, and so do their inductions, the tops, and the twists, the
    determinants on orthogonal root spans.  `linear_character` checks that
    the values are given on exactly C_{W_L}(w) and multiply.
    """
    WL = W.parabolic(L)
    out = []
    for combo in itertools.product(*(construct_parabolic_B(W, p) for p in parts)):
        w = W.prod(a.element for a in combo)
        C = W.centralizer(w, within=WL)
        phi, psi = {}, {}
        for cs in itertools.product(*(a.centralizer.sorted_members for a in combo)):
            c = W.prod(cs)
            phi[c] = math.prod(a.phi(x) for a, x in zip(combo, cs))
            psi[c] = math.prod(a.psi(x) for a, x in zip(combo, cs))
        try:
            out.append(Assignment(L, w, C, linear_character(C, phi),
                                  linear_character(C, psi), "components"))
        except NotLinear:
            raise PrerequisiteFailed("a product of component assignments is not "
                                     "a linear character of its centralizer") from None
    return out


def _dihedral_B(W: CoxeterGroup, L):
    rot = W.rotations(L)
    m = len(rot)
    WL = W.parabolic(L)
    twist = twist_character(W, L)
    out = []
    if m % 2:
        js = [(j, j) for j in range(1, (m - 1) // 2 + 1)]
    else:
        js = [(j, 2 * j) for j in range(1, m // 2)]
    for j, exponent in js:
        w = rot[j]
        C = W.centralizer(w, within=WL)
        chi = rotation_character(W, L, exponent)
        if C.members != chi.carrier.members:
            raise PrerequisiteFailed(
                "a rotation centralizer is not the rotation subgroup")
        out.append(Assignment(L, w, chi.carrier, chi,
                              chi * twist.restrict(chi.carrier), "dihedral"))
    if m % 2 == 0:
        w0 = WL.longest_element()
        C = W.centralizer(w0, within=WL)
        if C.members != WL.members:
            raise PrerequisiteFailed("the longest element is not central")
        out.append(Assignment(L, w0, C, sign_character(C),
                              trivial_character(C), "dihedral"))
    return out


def _search_pools(W: CoxeterGroup, L, phi_top, psi_top):
    """Search the linear characters phi of the centralizers in W_L of the
    cuspidal classes of W_L, with psi = phi * twist, for inductions to W_L
    adding up to the tops.  On W_L the twist is the sign.

    Each phi is induced once.  Ind(phi * twist|_C)(g) is 1/|C| times the sum,
    over x in W_L with x g x^-1 in C, of phi(x g x^-1) twist(x g x^-1); the
    twist is a class function on W_L, so twist(x g x^-1) = twist(g) and the
    sum is Ind(phi)(g) twist(g).  The search cap is checked on the pool
    sizes before anything is induced."""
    WL = W.parabolic(L)
    twist = twist_character(W, L).restrict(WL)
    classes = []
    for cl in W.cuspidal_classes(L):
        C = W.centralizer(cl.rep, within=WL)
        classes.append((cl.rep, C, linear_characters(C)))
    _search_cut([len(chis) for *_, chis in classes])
    pools = []
    for w, C, chis in classes:
        tw = twist.restrict(C)
        opts = []
        for chi in chis:
            ind = chi.induce(WL)
            opts.append((w, C, chi, chi * tw, ind, ind * twist))
        pools.append(opts)
    return _search(L, phi_top, psi_top, pools)


def _search_cut(sizes):
    """Where to cut pools of these sizes into a left and a right part, so that
    the larger of the two parts' products is least; SearchExhausted if that
    product exceeds SEARCH_CAP."""
    def larger_half(k):
        return max(math.prod(sizes[:k]), math.prod(sizes[k:]))

    cut = min(range(len(sizes) + 1), key=larger_half)
    larger = larger_half(cut)
    if larger > SEARCH_CAP:
        raise SearchExhausted(
            f"{larger} combinations in the larger search half exceed the search cap")
    return cut


def _search(L, phi_top, psi_top, pools):
    """The first combination in `itertools.product` order, one option per
    cuspidal class, whose induced characters add up to phi_top and psi_top.

    An option is (element, centralizer, phi, psi, induced phi, induced psi).
    The search meets in the middle on integer vectors (`integer_vectors`):
    the pools are cut into a left and a right part of nearly equal products,
    every right combination is hashed by target minus its sum, and the left
    combinations are looked up in product order.  Product order is
    lexicographic in (left, right), so the first hit is the first match of
    the whole product.  SEARCH_CAP bounds the larger of the two parts.
    """
    sizes = [len(opts) for opts in pools]
    cut = _search_cut(sizes)
    target, *flat = integer_vectors(
        [phi_top.values + psi_top.values]
        + [iphi.values + ipsi.values for opts in pools for *_, iphi, ipsi in opts])
    flat = iter(flat)
    keys = [[next(flat) for _ in opts] for opts in pools]
    first = {}
    for right, rest in _walk([[tuple(-x for x in key) for key in pool]
                              for pool in keys[cut:]], target):
        first.setdefault(rest, right)
    zero = (0,) * len(target)
    for left, partial in _walk(keys[:cut], zero):
        right = first.get(partial)
        if right is not None:
            combo = [opts[i] for opts, i in zip(pools, left + right)]
            return [Assignment(L, w, C, phi, psi, "search")
                    for w, C, phi, psi, _, _ in combo]
    raise SearchExhausted(
        f"no combination of {math.prod(sizes)} centralizer characters matches")


def integer_vectors(rows):
    """One integer vector per row of class values, canonical for the values.

    Every value, a Fraction or a Cyclo, is written in Q(zeta_n) for n the lcm
    of all conductors in the rows, where its power-basis coefficients are
    unique, and every coefficient is scaled by one common denominator.  So
    two rows get equal vectors exactly when their values are equal, and the
    vector of a sum of rows is the sum of their vectors.
    """
    n = math.lcm(1, *(v.conductor for row in rows for v in row
                      if isinstance(v, Cyclo)))
    rows = [[c for v in row
             for c in (v.lifted(n) if isinstance(v, Cyclo) else rational(v, n)).coeffs]
            for row in rows]
    den = math.lcm(1, *(c.denominator for row in rows for c in row))
    return [tuple(c.numerator * (den // c.denominator) for c in row) for row in rows]


def _walk(pools, start):
    """(indices, start + sum of the chosen vectors) for every choice of one
    vector per pool, in `itertools.product` order.  Only the partial sums of
    the pools after the last index that moved are recomputed."""
    if not all(pools):
        return
    k = len(pools)
    index = [0] * k
    sums = [start]
    for pool in pools:
        sums.append(tuple(map(operator.add, sums[-1], pool[0])))
    while True:
        yield tuple(index), sums[k]
        d = k - 1
        while d >= 0 and index[d] == len(pools[d]) - 1:
            index[d] = 0
            d -= 1
        if d < 0:
            return
        index[d] += 1
        for e in range(d, k):
            sums[e + 1] = tuple(map(operator.add, sums[e], pools[e][index[e]]))


# -- assignments on ambient centralizers: lifts of the parabolic ones ------------------


def construct_C(W: CoxeterGroup, L):
    """Assignments for the normalizer identities at the subset L: every
    assignment of `construct_parabolic_B` lifted to C = C_N(w) at its own
    element w (`_lift`).  The route names the case of L: "product" for a
    bulky L (the complement centralizes W_L), "module" for a non bulky
    commuting pair, m = 2, and "coset-split" for every other L.

    Write c in C as c = u * d (`normalizer_factors`), u in W_L and d
    permuting the simple roots of L; w_L is the longest element of W_L.
    The lift reads the base phi at u when u lies in the base centralizer
    C_{W_L}(w), else -eps(w_L) times the base phi at the fold u * w_L.
    Whether c folds depends only on its image in N / W_L: the c' of C with
    that image are the h * c with h in C cap W_L = C_{W_L}(w), and
    c' = (h u) d, where h u lies in C_{W_L}(w) exactly when u does.
      bulky L: d centralizes W_L, so u = c * d^-1 commutes with w;
      m = 2: W_L is abelian, so C_{W_L}(w) = W_L; neither case folds.
    Where each d acts on W_L as conjugation by w_L^e(c), e(c) in {0, 1} (at
    an odd dihedral L, a d that swaps the roots of L does), e adds, and
    g(c) = u w_L^e(c) is a homomorphism into C_{W_L}(w):
      d w d^-1 = w_L^e w w_L^e, so g(c) centralizes w, and
      c c' = u (d u' d^-1) d d' = u w_L^e u' w_L^e d d', so
      g(c c') = u w_L^e u' w_L^e w_L^(e + e') = g(c) g(c').
    If w_L leaves C_{W_L}(w), u does exactly when e(c) = 1, and phi is
    (base phi o g) * (-eps(w_L))^e; else nothing folds and phi is
    (base phi o g) * (base phi(w_L))^e, linear characters both.  The fold
    is u * w_L: w_L * u is g(c) conjugated by w_L, which does not add.  At
    an odd dihedral L, w_L is a reflection, so -eps(w_L) = 1.  Where w_L has
    even length, (-1)^e is a character too, and -1 is the sign that the
    identities select: with +1 the Phi~ and Psi~ sums fail at every folded
    rank 3 L in scope.  The tilde-sum residuals of `verify_c` check it on
    every run, and `linear_character` checks that phi is multiplicative
    where the premise on d is not proved.
    """
    L = tuple(sorted(L))
    N = W.normalizer_of_parabolic(L)
    route = ("product" if W.is_bulky(L) else
             "module" if len(L) == 2 and W.matrix[L] == 2 else "coset-split")
    return [_lift(W, L, N, base, route) for base in construct_parabolic_B(W, L)]


def _lift(W: CoxeterGroup, L, N: Subgroup, base: Assignment, route) -> Assignment:
    """The base assignment extended to C = C_N(w) as `construct_C` says, with
    psi = phi * twist (`twist_character`).  PrerequisiteFailed when u * w_L
    also leaves the base centralizer, when the values are not a linear
    character of C, or when phi and psi do not restrict to the base."""
    C = _centralizer_in(W, base.element, N)
    inside = base.centralizer.members
    wL = W.parabolic(L).longest_element()
    flip = W.length(wL) % 2 == 0
    values = {}
    for c in C.sorted_members:
        u, _ = W.normalizer_factors(c, L)
        folded = u not in inside
        if folded:
            u = W.mult(u, wL)
        if u not in inside:
            raise PrerequisiteFailed(
                "the W_L factor of a centralizing element leaves the base centralizer")
        values[c] = -base.phi(u) if folded and flip else base.phi(u)
    try:
        phi = linear_character(C, values)
    except NotLinear:
        raise PrerequisiteFailed(f"the {route} lift of the base phi is not "
                                 "multiplicative") from None
    psi = phi * twist_character(W, L).restrict(C)
    if phi.restrict(base.centralizer) != base.phi or \
            psi.restrict(base.centralizer) != base.psi:
        raise PrerequisiteFailed("the lift does not restrict to the base assignment")
    return Assignment(L, base.element, C, phi, psi, route)


# -- the verifications ------------------------------------------------------------------


def _construct(report: ConjectureReport, construct, W, L):
    """construct(W, L) into the report, with the construction and
    cuspidal-coverage checks on W_L; None when the construction fails."""
    try:
        assignments = construct(W, L)
    except (SearchExhausted, PrerequisiteFailed) as exc:
        report.add("construction", False, str(exc))
        if isinstance(exc, SearchExhausted):
            report.aborted = "search-exhausted"
        return None
    report.assignments = assignments
    report.add("construction", True,
               ",".join(sorted({a.route for a in assignments})))
    G = W.parabolic(L)
    covered = [G.class_of(a.element) for a in assignments]
    cusp = {G.class_of(c.rep) for c in W.cuspidal_classes(L)}
    report.add("cuspidal-coverage",
               set(covered) == cusp and len(covered) == len(cusp))
    return assignments


def verify_b(W: CoxeterGroup) -> ConjectureReport:
    """Top identities of W itself: inductions from cuspidal centralizers.
    psi-twist reads eps * alpha_w on C_W(w) as the twist of S (`twist_character`)."""
    report = ConjectureReport("B", W)
    S = tuple(range(W.rank))
    full = W.full()
    D = descent_algebra(W)
    top = D.shape_of(S)
    phi_top = D.ideal_character(top)
    psi_top = shape_component_character(W, top)
    assignments = _construct(report, construct_parabolic_B, W, S)
    if assignments is None:
        return report
    report.add_residual("descent-top-sum",
                        _sum_induced((a.phi for a in assignments), full) - phi_top)
    report.add_residual("arrangement-top-sum",
                        _sum_induced((a.psi for a in assignments), full) - psi_top)
    report.add("psi-twist", all(
        a.psi == a.phi * twist_character(W, a.L).restrict(a.centralizer)
        for a in assignments))
    report.add("degrees", phi_top.degree == sum(
        Fraction(full.order, a.centralizer.order) for a in assignments))
    return report


def verify_c(W: CoxeterGroup, L) -> ConjectureReport:
    """Normalizer identities at the subset L, plus their compatibility checks."""
    L = tuple(sorted(L))
    report = ConjectureReport("C", W, L)
    WL = W.parabolic(L)
    N = W.normalizer_of_parabolic(L)
    twist = twist_character(W, L)
    phi_tilde = parabolic_ideal_character(W, L)
    psi_tilde = top_component_tilde(W, L)
    assignments = _construct(report, construct_C, W, L)
    if assignments is None:
        return report
    report.add("centralizers-in-normalizer",
               all(a.centralizer.members <= N.members for a in assignments))
    induced = [a.phi.induce(N) for a in assignments]
    report.add_residual("descent-tilde-sum", _total(induced) - phi_tilde)
    report.add_residual("arrangement-tilde-sum",
                        _sum_induced((a.psi for a in assignments), N) - psi_tilde)
    report.add("psi-twist", all(
        a.psi == a.phi * twist.restrict(a.centralizer) for a in assignments))
    report.add("tilde-twist", psi_tilde == phi_tilde * twist)

    Drel = descent_algebra(W, L)
    phi_rel = Drel.ideal_character(Drel.shape_of(L))
    psi_rel = top_component_character(W, L)
    report.add("tilde-restriction",
               phi_tilde.restrict(WL) == phi_rel
               and psi_tilde.restrict(WL) == psi_rel)
    Damb = descent_algebra(W)
    shape = Damb.shape_of(L)
    report.add("tilde-induction",
               phi_tilde.induce(W.full()) == Damb.ideal_character(shape)
               and psi_tilde.induce(W.full()) == shape_component_character(W, shape))

    local = [W.centralizer(a.element, within=WL) for a in assignments]
    local_phi = [a.phi.restrict(CWl).induce(WL) for a, CWl in zip(assignments, local)]
    spsi = _sum_induced((a.psi.restrict(CWl) for a, CWl in zip(assignments, local)), WL)
    report.add("restriction-assignments", _total(local_phi) == phi_rel and spsi == psi_rel)

    # W_L is normal in N, so for C inside N, W_L * C is a subgroup of N of
    # order |W_L| |C| / |W_L cap C|; it is N exactly when the orders agree
    report.add("mackey", all(
        C.members <= N.members
        and WL.order * C.order == N.order * len(WL.members & C.members)
        and ind.restrict(WL) == loc
        for C, ind, loc in zip((a.centralizer for a in assignments), induced, local_phi)))
    report.add("degrees", phi_tilde.degree == sum(
        Fraction(N.order, a.centralizer.order) for a in assignments))
    if len(L) == 2 and W.matrix[L[0], L[1]] % 2:
        report.add("intertwiner", check_intertwiner(W, L))
    return report


def verify_a(W: CoxeterGroup) -> ConjectureReport:
    """All subset identities at once, plus the global regular decompositions.

    element-twist compares psi with phi * eps * alpha_w, read as the twist
    of L on C_W(w) for each element w, cuspidal in W_L (`twist_character`).
    That is the psi-twist check of the case L, so element-twist cannot fail
    alone once every case's psi-twist passes."""
    report = ConjectureReport("A", W)
    full = W.full()
    gathered = []
    for shape in W.shapes():
        sub = verify_c(W, shape.canonical)
        report.subreports.append(sub)
        gathered += sub.assignments
    if not all(sub.assignments for sub in report.subreports):
        report.add("construction", False, "a subset case failed to construct")
        return report
    classes = [full.class_of(a.element) for a in gathered]
    report.add("class-partition",
               len(set(classes)) == len(classes) == len(full.classes))
    report.add_residual("regular-sum",
                        _sum_induced((a.phi for a in gathered), full)
                        - regular_character(full))
    report.add_residual("arrangement-sum",
                        _sum_induced((a.psi for a in gathered), full)
                        - whole_space_character(W))
    report.add("element-twist", all(
        a.psi == a.phi * twist_character(W, a.L).restrict(a.centralizer)
        for a in gathered))
    return report


def verify(W: CoxeterGroup, conjecture: str, L=None) -> ConjectureReport:
    name = conjecture.upper()
    if name == "A":
        return verify_a(W)
    if name == "B":
        return verify_b(W)
    if name == "C":
        if L is None:
            raise UnsupportedCase("conjecture C needs a subset L")
        return verify_c(W, L)
    raise UnsupportedCase(f"unknown conjecture {conjecture!r}")


# -- the equivariant map between the two modules of a dihedral parabolic ---------------


def check_intertwiner(W: CoxeterGroup, L) -> bool:
    """e_L f_j -> a_L f_j intertwines the normalizer actions up to eps * alpha_L.

    Both families are indexed by the nontrivial rotation idempotents f_j of
    the dihedral parabolic W_L; coordinates of the translated elements in the
    respective bases must agree up to the twist character.  Only odd m gives
    one dimensional f_j components, so even m is not covered by this map.

    It is enough to test a generating set of the normalizer N = W_L N_L: the
    rotation st and the longest element w0 of W_L (a reflection, as m is odd)
    generate W_L, and the generators of N_L the rest.  The f_j are orthogonal
    idempotents, so the nonzero e_L f_j are independent and so are the a_L f_j;
    both coordinate matrices are then multiplicative in w, as translation and
    the action are right actions, and the twist is a character, so
    agreement on generators gives agreement on every product of them.
    """
    L = tuple(sorted(L))
    return _intertwines_at(W, L, _normalizer_generators(W, L))


def _normalizer_generators(W: CoxeterGroup, L) -> list:
    """The rotation st, the longest element of W_L and the generators of N_L."""
    return [W.rotations(L)[1], W.parabolic(L).longest_element(),
            *W.complement_subgroup(L).generators]


def _intertwines_at(W: CoxeterGroup, L, elements) -> bool:
    """Whether e_L f_j -> a_L f_j intertwines the right actions of each of the
    given normalizer elements up to the twist of L, for every j != 0.

    The a side is read off eigenlines, with no system solved.  Let r = st and
    w one of the elements.  Then r_w = w^-1 r w must be r or r^-1: it is for
    every element of the normalizer W_L N_L, as rotations commute with r,
    reflections of W_L invert it and N_L permutes {s, t}.  Set sigma(j) = j
    or m - j accordingly.  As f_j is the average of zeta^(jk) r^-k,
    w^-1 f_j w = f_sigma(j), so f_j w = w f_sigma(j) and
    (a_L f_j) w = (a_L w) f_sigma(j).  The flat of W_L is w-stable, so a_L w
    lies in its (m-1)-dimensional degree 2 component A, and the image lies
    in A f_sigma(j).  The f_i are orthogonal idempotents summing to 1, so A
    is the direct sum of the A f_i; A f_i holds the nonzero a_L f_i for each
    of the m - 1 values i != 0, so each of these is the line through a_L f_i
    (and A f_0 = 0).  Hence (a_L f_j) w = c a_L f_sigma(j), whose coordinates
    are c at sigma(j) and 0 elsewhere; c is read off one entry and the whole
    vector is checked.
    """
    a, b = L
    m = W.matrix[a, b]
    if m % 2 == 0:
        raise UnsupportedCase("the basis e_L f_j needs an odd dihedral parabolic")
    uni = W.full()
    eL = descent_algebra(W).e(L)
    fs = [rotation_idempotent(W, L, j) for j in range(m)]
    efs = [eL * f for f in fs]
    if not efs[0].is_zero() or any(x.is_zero() for x in efs[1:]):
        return False
    evecs = [x.vector(uni) for x in efs[1:]]

    a_side = _a_side(W, L, fs)
    if a_side is None:
        return False
    avecs, image = a_side

    rot = W.rotations(L)
    twist = twist_character(W, L)
    for w in elements:
        rw = W.conj(rot[1], w)
        if rw not in (rot[1], rot[-1]):
            return False
        factor = twist(w)
        for j in range(1, m):
            k = j if rw == rot[1] else m - j
            c = _multiple_of(image(j, w), avecs[k - 1])
            if c is None:
                return False
            ecoords = linalg.coords_in_span(
                evecs, efs[j].translate(w).vector(uni))
            if ecoords is None:
                return False
            if not all((c if i == k else 0) == factor * ec
                       for i, ec in enumerate(ecoords, 1)):
                return False
    return True


def _multiple_of(vec, base):
    """c with vec = c * base, read off base's first nonzero entry, a Cyclo;
    None when vec is no multiple of base.  vec's entry there may be the
    Fraction 0, so c is that entry times the inverse, not a quotient."""
    i = next(i for i, x in enumerate(base) if x)
    c = vec[i] * base[i].inverse()
    return c if all(x == c * y for x, y in zip(vec, base)) else None


def _a_side(W: CoxeterGroup, L, fs):
    """(avecs, image): the vectors a_L f_j for j != 0 in the basis e_h0 e_h of
    the flat of W_L, and image(j, w), the vector of (a_L f_j) w in that basis.
    None when a_L f_0 is nonzero or some a_L f_j with j != 0 is zero."""
    alg = os_algebra(W)
    key = alg.lattice.flats[alg.parabolic_flat(L)].key
    monos = [(min(key), h) for h in sorted(key)[1:]]

    def combine(terms):
        """The sum of c * x over the given (c, x), each x in coordinates."""
        out = {}
        for c, x in terms:
            for mono, c2 in x.items():
                out[mono] = out.get(mono, Fraction(0)) + c * c2
        return {mono: c for mono, c in out.items() if c}

    def act(x, w):
        return combine((c, alg.straighten((W.conj(p, w), W.conj(q, w))))
                       for (p, q), c in x.items())

    def avec(x):
        return [x.get(mono, Fraction(0)) for mono in monos]

    a, b = L
    aL = alg.straighten((W.generators[a], W.generators[b]))
    afs = [combine((c, act(aL, w)) for w, c in f.coeffs.items()) for f in fs]
    if afs[0] or not all(afs[1:]):
        return None
    return [avec(x) for x in afs[1:]], lambda j, w: avec(act(afs[j], w))


# -- the dihedral table -----------------------------------------------------------------


def _as_int(value) -> int:
    q = value if isinstance(value, Fraction) else value.as_rational()
    if q is None or q.denominator != 1:
        raise MalformedTable(f"table entry {value!r} is not an integer")
    return int(q)


def dihedral_table(W: CoxeterGroup) -> dict:
    """All shape characters of the rank 2 group W = I2(m), tabulated on class
    representatives.

    Columns are the identity, the reflection classes, for even m the rotation
    of half order, then the remaining rotation classes; rows run through the
    descent ideal characters, the regular character, the arrangement component
    characters and the whole arrangement character.
    """
    m = W.matrix[0, 1]
    full = W.full()
    D = descent_algebra(W)
    family = D.character_family()
    s, t = W.generators
    rot = W.rotations((0, 1))
    if m % 2 == 0:
        cols = [(W.identity, "e"), (s, "s1"), (t, "s2"), (W.longest, "w0")]
        cols += [(rot[i], f"(s1*s2)^{i}") for i in range(1, m // 2)]
    else:
        cols = [(W.identity, "e"), (s, "s1")]
        cols += [(rot[i], f"(s1*s2)^{i}") for i in range(1, (m - 1) // 2 + 1)]
    reps = [full.class_of(w) for w, _ in cols]
    if not len(set(reps)) == len(cols) == len(full.classes):
        raise MalformedTable("the table columns do not list each class once")

    rows = []

    def add(label, cf):
        rows.append({"label": label,
                     "values": [_as_int(cf.value(w)) for w, _ in cols]})

    for shape in D.shapes:
        add(f"Phi[{subset_label(shape.canonical)}]", family[shape.index])
    add("rho", regular_character(full))
    for shape in D.shapes:
        add(f"Psi[{subset_label(shape.canonical)}]",
            shape_component_character(W, shape))
    add("omega", whole_space_character(W))
    return {"group": W.spec, "m": m, "order": W.order,
            "columns": [label for _, label in cols], "rows": rows}
