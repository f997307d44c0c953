"""Cuspidal character assignments behind the top descent and arrangement characters.

Every conjugacy class of subsets L of the generating set carries two
distinguished characters of the normalizer of W_L: the descent algebra ideal
character of the subset idempotent and the top component character of the
parabolic reflection arrangement.  This module builds linear characters on
centralizers of cuspidal elements of W_L whose inductions reassemble both
characters, and verifies all the resulting identities in exact arithmetic.

Verification results are returned as ConjectureReport objects: a list of
labelled boolean checks, never a bare assertion, so a failing identity is
reported rather than raised.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .coxeter import CoxeterGroup, Subgroup, build_group, subset_label
from .chars import (alpha_element, alpha_parabolic, class_function_json,
                    linear_character, linear_characters, regular_character,
                    rotation_character, sign_character, trivial_character)
from .cyclo import Cyclo, rational
from .descent import descent_algebra, parabolic_ideal_character, rotation_idempotent
from .orlik_solomon import (shape_component_character, sub_os_algebra,
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

    def check(self, label: str) -> bool:
        for lab, ok, _ in self.checks:
            if lab == label:
                return ok
        raise KeyError(label)

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
    total = None
    for chi in chars:
        ind = chi.induce(target)
        total = ind if total is None else total + ind
    return total


def _centralizer_in(W: CoxeterGroup, w: int, N: Subgroup, within=None) -> Subgroup:
    """The centralizer of w (inside `within`, or in W), which must lie in N."""
    C = W.centralizer(w, within=within)
    if not C.members <= N.members:
        raise PrerequisiteFailed(
            "centralizer of a cuspidal element leaves the normalizer")
    return C


# -- base assignments on a parabolic viewed as a group of its own ----------------------


def construct_parabolic_B(W: CoxeterGroup, L):
    """Linear characters on centralizers (inside W_L) of cuspidal elements.

    Closed forms cover parabolics of rank at most two; larger ones fall back
    to a bounded search through the linear characters of the centralizers.
    """
    L = tuple(sorted(L))
    WL = W.parabolic(L)
    if len(L) == 0:
        triv = trivial_character(WL)
        return [Assignment(L, W.identity, WL, triv, triv, "rank0")]
    if len(L) == 1:
        s = W.generators[L[0]]
        out = [Assignment(L, s, WL, sign_character(WL),
                          trivial_character(WL), "rank1")]
    elif len(L) == 2:
        out = _dihedral_B(W, L)
    else:
        D = descent_algebra(W, L)
        out = _search_pools(W, L, WL, D.ideal_character(D.shape_of(L)),
                            top_component_character(W, L), sign_character(WL),
                            within=WL)
    covered = {WL.class_of(a.element) for a in out}
    wanted = {WL.class_of(c.rep) for c in WL.cuspidal_classes()}
    if covered != wanted or len(out) != len(wanted):
        raise PrerequisiteFailed(
            "the assignments do not cover each cuspidal class once")
    return out


def _dihedral_B(W: CoxeterGroup, L):
    a, b = L
    m = W.matrix[a, b]
    WL = W.parabolic(L)
    st = W.mult(W.generators[a], W.generators[b])
    out = []
    if m % 2:
        js = [(j, j) for j in range(1, (m - 1) // 2 + 1)]
    else:
        js = [(j, 2 * j) for j in range(1, m // 2)]
    for j, exponent in js:
        w = W.power(st, j)
        C = W.centralizer(w, within=WL)
        chi = rotation_character(W, L, exponent)
        if C.members != chi.carrier.members:
            raise PrerequisiteFailed(
                "a rotation centralizer is not the rotation subgroup")
        out.append(Assignment(L, w, chi.carrier, chi,
                              chi * sign_character(chi.carrier), "dihedral"))
    if m % 2 == 0:
        w0 = WL.longest_element()
        C = W.centralizer(w0, within=WL)
        if C.members != WL.members:
            raise PrerequisiteFailed("the longest element is not central")
        out.append(Assignment(L, w0, C, sign_character(C),
                              trivial_character(C), "dihedral"))
    return out


def _search_pools(W: CoxeterGroup, L, target: Subgroup, phi_top, psi_top,
                  twist, within=None):
    """Search the linear characters phi of the centralizers (inside `within`,
    or in W, and inside the target) of the cuspidal classes of W_L, with
    psi = phi * twist, for inductions to the target adding up to the tops.

    Each phi is induced once.  Ind(phi * twist|_C)(g) is 1/|C| times the sum,
    over x in the target with x g x^-1 in C, of phi(x g x^-1) twist(x g x^-1);
    twist is a class function on the target, so twist(x g x^-1) = twist(g)
    and the sum is Ind(phi)(g) twist(g)."""
    pools = []
    for cl in W.parabolic(L).cuspidal_classes():
        C = _centralizer_in(W, cl.rep, target, within)
        tw = twist.restrict(C)
        opts = []
        for chi in linear_characters(C):
            ind = chi.induce(target)
            opts.append((cl.rep, C, chi, chi * tw, ind, ind * twist))
        pools.append(opts)
    return _search(L, phi_top, psi_top, pools)


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
    total = math.prod(sizes)

    def larger_half(k):
        return max(math.prod(sizes[:k]), math.prod(sizes[k:]))

    cut = min(range(len(pools) + 1), key=larger_half)
    larger = larger_half(cut)
    if larger > SEARCH_CAP:
        raise SearchExhausted(
            f"{larger} combinations in the larger search half exceed the search cap")
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
        f"no combination of {total} centralizer characters matches")


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


# -- assignments on ambient centralizers, one route per kind of subset -----------------


def construct_C(W: CoxeterGroup, L):
    """Assignments for the normalizer identities at the subset L.

    Bulky subsets (the complement centralizes W_L) lift the parabolic
    assignment across the direct product.  Non bulky dihedral parabolics use
    the degree one module for m = 2 and a coset split of the centralizer for
    odd m; anything else is searched.
    """
    L = tuple(sorted(L))
    N = W.normalizer_of_parabolic(L)
    if W.is_bulky(L):
        return [_lift_product(W, L, N, base)
                for base in construct_parabolic_B(W, L)]
    if len(L) == 2:
        a, b = L
        m = W.matrix[a, b]
        if m == 2:
            return _module_route(W, L, N)
        if m % 2:
            return _coset_split_route(W, L, N)
    return _search_C(W, L, N)


def _lift_product(W: CoxeterGroup, L, N: Subgroup, base: Assignment) -> Assignment:
    C = _centralizer_in(W, base.element, N)
    values = {}
    for c in C.sorted_members:
        u, _ = W.normalizer_factors(c, L)
        if u not in base.centralizer.members:
            raise PrerequisiteFailed(
                "the W_L factor of a centralizing element leaves the base centralizer")
        values[c] = base.phi(u)
    phi = linear_character(C, values)
    psi = phi * sign_character(C) * alpha_parabolic(W, L).restrict(C)
    if phi.restrict(base.centralizer) != base.phi or \
            psi.restrict(base.centralizer) != base.psi:
        raise PrerequisiteFailed("the lift does not restrict to the base assignment")
    return Assignment(L, base.element, C, phi, psi, "product")


def _module_route(W: CoxeterGroup, L, N: Subgroup):
    """Both normalizer modules are lines here, so they are their own characters."""
    WL = W.parabolic(L)
    cusp = WL.cuspidal_classes()
    w = WL.longest_element()
    if len(cusp) != 1 or w not in cusp[0].members:
        raise PrerequisiteFailed(
            "the longest element is not the one cuspidal class of W_L")
    C = W.centralizer(w)
    if C.members != N.members:
        return _search_C(W, L, N)
    phi, psi = (linear_character(C, {c: cf(c) for c in C.members})
                for cf in (parabolic_ideal_character(W, L),
                           top_component_tilde(W, L)))
    return [Assignment(L, w, C, phi, psi, "module")]


def _coset_split_route(W: CoxeterGroup, L, N: Subgroup):
    """Split each centralizer along rotation and reflection parts of W_L.

    For c = u * n with u in W_L and n in the complement, the value is the
    rotation character at u when u is a rotation, and at u * w_L when u is a
    reflection; the result is checked to be multiplicative.
    """
    a, b = L
    m = W.matrix[a, b]
    WL = W.parabolic(L)
    st = W.mult(W.generators[a], W.generators[b])
    rotations = W.cyclic(st).members
    wL = WL.longest_element()
    alphaL = alpha_parabolic(W, L)
    out = []
    for j in range(1, (m - 1) // 2 + 1):
        w = W.power(st, j)
        C = _centralizer_in(W, w, N)
        chi = rotation_character(W, L, j)
        parts = {c: W.normalizer_factors(c, L)[0] for c in C.sorted_members}
        phi = None
        for side in (lambda u: W.mult(u, wL), lambda u: W.mult(wL, u)):
            values = {c: chi(u if u in rotations else side(u))
                      for c, u in parts.items()}
            try:
                phi = linear_character(C, values)
                break
            except ValueError:
                continue
        if phi is None:
            raise PrerequisiteFailed(
                "coset split values are not multiplicative")
        psi = phi * sign_character(C) * alphaL.restrict(C)
        out.append(Assignment(L, w, C, phi, psi, "coset-split"))
    return out


def _search_C(W: CoxeterGroup, L, N: Subgroup):
    return _search_pools(W, L, N, parabolic_ideal_character(W, L),
                         top_component_tilde(W, L),
                         sign_character(N) * alpha_parabolic(W, L))


# -- the verifications ------------------------------------------------------------------


def _construct(report: ConjectureReport, G: Subgroup, construct, W, L):
    """construct(W, L) into the report, with the construction and
    cuspidal-coverage checks on G; None when the construction fails."""
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
    covered = [G.class_of(a.element) for a in assignments]
    cusp = {G.class_of(c.rep) for c in G.cuspidal_classes()}
    report.add("cuspidal-coverage",
               set(covered) == cusp and len(covered) == len(cusp))
    return assignments


def verify_b(W: CoxeterGroup) -> ConjectureReport:
    """Top identities of W itself: inductions from cuspidal centralizers."""
    report = ConjectureReport("B", W)
    S = tuple(range(W.rank))
    full = W.full()
    D = descent_algebra(W)
    top = D.shape_of(S)
    phi_top = D.ideal_character(top)
    psi_top = shape_component_character(W, top)
    assignments = _construct(report, full, construct_parabolic_B, W, S)
    if assignments is None:
        return report
    report.add_residual("descent-top-sum",
                        _sum_induced((a.phi for a in assignments), full) - phi_top)
    report.add_residual("arrangement-top-sum",
                        _sum_induced((a.psi for a in assignments), full) - psi_top)
    report.add("psi-twist", all(
        a.psi == a.phi * sign_character(a.centralizer)
        * alpha_element(W, a.element).restrict(a.centralizer)
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
    eps = sign_character(N)
    alphaL = alpha_parabolic(W, L)
    phi_tilde = parabolic_ideal_character(W, L)
    psi_tilde = top_component_tilde(W, L)
    assignments = _construct(report, WL, construct_C, W, L)
    if assignments is None:
        return report
    report.add("centralizers-in-normalizer",
               all(a.centralizer.members <= N.members for a in assignments))
    report.add_residual("descent-tilde-sum",
                        _sum_induced((a.phi for a in assignments), N) - phi_tilde)
    report.add_residual("arrangement-tilde-sum",
                        _sum_induced((a.psi for a in assignments), N) - psi_tilde)
    report.add("psi-twist", all(
        a.psi == a.phi * sign_character(a.centralizer) * alphaL.restrict(a.centralizer)
        for a in assignments))
    report.add("tilde-twist", psi_tilde == phi_tilde * eps * alphaL)

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
    sphi = _sum_induced((a.phi.restrict(CWl) for a, CWl in zip(assignments, local)), WL)
    spsi = _sum_induced((a.psi.restrict(CWl) for a, CWl in zip(assignments, local)), WL)
    report.add("restriction-assignments", sphi == phi_rel and spsi == psi_rel)

    mackey = True
    for a, CWl in zip(assignments, local):
        product = {W.mult(u, c) for u in WL.sorted_members
                   for c in a.centralizer.sorted_members}
        if product != set(N.members):
            mackey = False
            break
        if a.phi.induce(N).restrict(WL) != a.phi.restrict(CWl).induce(WL):
            mackey = False
            break
    report.add("mackey", mackey)
    report.add("degrees", phi_tilde.degree == sum(
        Fraction(N.order, a.centralizer.order) for a in assignments))
    if len(L) == 2 and W.matrix[L[0], L[1]] % 2:
        report.add("intertwiner", check_intertwiner(W, L))
    return report


def verify_a(W: CoxeterGroup) -> ConjectureReport:
    """All subset identities at once, plus the global regular decompositions."""
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
        a.psi == a.phi * sign_character(a.centralizer)
        * alpha_element(W, a.element).restrict(a.centralizer)
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
    """e_L f_j -> a_L f_j intertwines the normalizer actions up to sign * alpha.

    Both families are indexed by the nontrivial rotation idempotents f_j of
    the dihedral parabolic W_L; coordinates of the translated elements in the
    respective bases must agree up to the twist character.  Only odd m gives
    one dimensional f_j components, so even m is not covered by this map.
    """
    a, b = tuple(sorted(L))
    m = W.matrix[a, b]
    if m % 2 == 0:
        raise UnsupportedCase("the basis e_L f_j needs an odd dihedral parabolic")
    WL = W.parabolic((a, b))
    N = W.normalizer_of_parabolic((a, b))
    uni = W.full()
    eL = descent_algebra(W).e((a, b))
    fs = [rotation_idempotent(W, (a, b), j) for j in range(m)]
    efs = [eL * f for f in fs]
    if not efs[0].is_zero():
        return False
    evecs = [x.vector(uni) for x in efs[1:]]

    alg = sub_os_algebra(W, (a, b))
    pa = alg.arr.position[W.generators[a]]
    pb = alg.arr.position[W.generators[b]]
    aL = alg.element({(pa, pb): Fraction(1)})
    monos = [mono for mono in alg.nbc_basis[2]]

    def avec(x):
        return [x.coefficient(mono) for mono in monos]

    afs = [aL.act_sum(f) for f in fs]
    if not afs[0].is_zero():
        return False
    avecs = [avec(x) for x in afs[1:]]

    eps = sign_character(N)
    alphaL = alpha_parabolic(W, (a, b))
    st = W.mult(W.generators[a], W.generators[b])
    tests = [st, WL.longest_element()]
    tests += [n for n in W.complement_subgroup((a, b)).sorted_members
              if n != W.identity]
    for w in tests:
        factor = eps(w) * alphaL(w)
        for j in range(1, m):
            ecoords = linalg.coords_in_span(
                evecs, efs[j].translate(w).vector(uni))
            acoords = linalg.coords_in_span(avecs, avec(afs[j].act(w)))
            if ecoords is None or acoords is None:
                return False
            if not all(ac == factor * ec for ac, ec in zip(acoords, ecoords)):
                return False
    return True


# -- the dihedral table -----------------------------------------------------------------


def _as_int(value) -> int:
    q = value if isinstance(value, Fraction) else value.as_rational()
    if q is None or q.denominator != 1:
        raise MalformedTable(f"table entry {value!r} is not an integer")
    return int(q)


def dihedral_table(m: int, max_elements: int = 10000) -> dict:
    """All shape characters of a dihedral group, tabulated on class representatives.

    Columns are the identity, the reflection classes, for even m the rotation
    of half order, then the remaining rotation classes; rows run through the
    descent ideal characters, the regular character, the arrangement component
    characters and the whole arrangement character.
    """
    if m < 2:
        raise ValueError("the table needs a dihedral group, m >= 2")
    W = build_group(f"I2({m})", max_elements)
    full = W.full()
    D = descent_algebra(W)
    family = D.character_family()
    s, t = W.generators
    st = W.mult(s, t)
    if m % 2 == 0:
        cols = [(W.identity, "e"), (s, "s1"), (t, "s2"), (W.longest, "w0")]
        cols += [(W.power(st, i), f"(s1*s2)^{i}") for i in range(1, m // 2)]
    else:
        cols = [(W.identity, "e"), (s, "s1")]
        cols += [(W.power(st, i), f"(s1*s2)^{i}")
                 for i in range(1, (m - 1) // 2 + 1)]
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
    return {"group": f"I2({m})", "m": m, "order": W.order,
            "columns": [label for _, label in cols], "rows": rows}
